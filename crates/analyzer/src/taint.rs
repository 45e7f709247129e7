//! The `analyzer.boundaries` manifest and the cross-file rule families.
//!
//! PID-Piper's trust-boundary argument (paper §4) is architectural: raw,
//! attackable sensor readings must cross the guard/sanitizer before they
//! can influence FFC inference or actuator-command construction. The
//! manifest makes that architecture *checkable*: it declares, in one
//! reviewed file at the repo root,
//!
//! ```text
//! raw SensorReadings -- the attackable input type
//! boundary ReadingsGuard::accept -- sanctioned crossing
//! sink FfcModel::observe -- FFC inference entry
//! sink_ctor ActuatorSignal -- actuator-command literal
//! det_root Trace::fingerprint -- fingerprint gate root
//! worker_root FleetEngine::tick -- concurrency-sensitive root
//! worker_crate fleet -- whole crate is a worker path
//! ```
//!
//! (every entry carries a mandatory ` -- reason`, like `analyzer.allow`).
//! Rule families implemented over the [`SymbolIndex`]:
//!
//! - **TB01** — a function whose parameter list carries a `raw` type is
//!   taint-walked: the walk follows calls into other raw-accepting
//!   functions, dies at any function that calls a `boundary` entry
//!   (sanitize-wins-per-node), and reports when an unsanitized node calls
//!   a `sink` function or constructs a `sink_ctor` type literal.
//! - **DT04/DT05** — every function transitively reachable from a
//!   `det_root` is scanned for `HashMap`/`HashSet` (DT04) and for float
//!   reductions (`.sum()`/`.product()`/`.fold()`/`.reduce()`) fed by a
//!   parallel or hash-ordered iterator (DT05).
//! - **CC01/CC02** — files in `worker_crate`s (plus functions reachable
//!   from `worker_root`s) are scanned for `static mut` / non-`OnceLock`
//!   lazy statics (CC01) and for a lock guard acquired and held across a
//!   callback in the same statement (CC02).
//! - **BM01** — a manifest entry that matches no symbol in the scanned
//!   workspace is itself a finding, so the manifest cannot silently rot
//!   when code is renamed.

use crate::lexer::TokenKind;
use crate::rules::{Finding, RuleId};
use crate::symbols::{CallForm, CallRef, SymbolIndex};
use std::collections::BTreeSet;

/// The kind of one manifest entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryKind {
    /// A raw (attackable) readings type.
    Raw,
    /// A sanctioned sanitizing entry point (`Type::method`).
    Boundary,
    /// An inference/actuation sink function (`Type::method`).
    Sink,
    /// A type whose struct-literal construction is a sink.
    SinkCtor,
    /// A determinism root for DT04/DT05 reachability.
    DetRoot,
    /// A concurrency-sensitive root for CC01/CC02 reachability.
    WorkerRoot,
    /// A crate whose every file is a worker path.
    WorkerCrate,
}

impl BoundaryKind {
    /// Every kind, in manifest-documentation order: the single list both
    /// [`BoundaryKind::parse`] and the unknown-kind diagnostic read.
    const ALL: [BoundaryKind; 7] = [
        BoundaryKind::Raw,
        BoundaryKind::Boundary,
        BoundaryKind::Sink,
        BoundaryKind::SinkCtor,
        BoundaryKind::DetRoot,
        BoundaryKind::WorkerRoot,
        BoundaryKind::WorkerCrate,
    ];

    fn as_str(self) -> &'static str {
        match self {
            BoundaryKind::Raw => "raw",
            BoundaryKind::Boundary => "boundary",
            BoundaryKind::Sink => "sink",
            BoundaryKind::SinkCtor => "sink_ctor",
            BoundaryKind::DetRoot => "det_root",
            BoundaryKind::WorkerRoot => "worker_root",
            BoundaryKind::WorkerCrate => "worker_crate",
        }
    }

    fn parse(s: &str) -> Option<BoundaryKind> {
        Self::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// One parsed manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryEntry {
    /// 1-based line in the manifest (for BM01 findings).
    pub line: u32,
    /// What the entry declares.
    pub kind: BoundaryKind,
    /// Owner type for `Type::method` targets, `None` for bare names.
    pub owner: Option<String>,
    /// The final name segment (method, fn, type or crate name).
    pub name: String,
    /// The mandatory justification.
    pub reason: String,
}

impl BoundaryEntry {
    /// `Type::name` when owned, else just the name.
    pub fn target(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A parsed `analyzer.boundaries` manifest.
#[derive(Debug, Clone, Default)]
pub struct Boundaries {
    /// Workspace-relative manifest path (for BM01 findings).
    pub path: String,
    /// Entries in file order.
    pub entries: Vec<BoundaryEntry>,
}

impl Boundaries {
    /// Parses a manifest. Returns `Err` with one `path:line: message`
    /// diagnostic per malformed line; blank lines and `#` comments are
    /// skipped.
    pub fn parse(path: &str, text: &str) -> Result<Boundaries, Vec<String>> {
        let mut entries = Vec::new();
        let mut errors = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_entry(line, line_no) {
                Ok(e) => entries.push(e),
                Err(msg) => errors.push(format!("{path}:{line_no}: {msg}")),
            }
        }
        if errors.is_empty() {
            Ok(Boundaries {
                path: path.to_string(),
                entries,
            })
        } else {
            Err(errors)
        }
    }

    fn of_kind(&self, kind: BoundaryKind) -> impl Iterator<Item = &BoundaryEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }
}

fn parse_entry(line: &str, line_no: u32) -> Result<BoundaryEntry, String> {
    let (head, reason) = line
        .split_once(" -- ")
        .ok_or("missing ` -- <reason>`; every boundary declaration needs a justification")?;
    let reason = reason.trim();
    if reason.is_empty() {
        return Err("empty reason after ` -- `".into());
    }
    let (kind_str, target) = head
        .trim()
        .split_once(char::is_whitespace)
        .ok_or("expected `<kind> <target>`")?;
    let kind = BoundaryKind::parse(kind_str).ok_or_else(|| {
        let known: Vec<&str> = BoundaryKind::ALL.iter().map(|k| k.as_str()).collect();
        format!("unknown entry kind `{kind_str}` (expected one of: {})", known.join(", "))
    })?;
    let target = target.trim();
    if target.is_empty() {
        return Err("empty target".into());
    }
    let (owner, name) = match target.rsplit_once("::") {
        Some((o, n)) => (Some(o.to_string()), n.to_string()),
        None => (None, target.to_string()),
    };
    Ok(BoundaryEntry {
        line: line_no,
        kind,
        owner,
        name,
        reason: reason.to_string(),
    })
}

/// Whether a call reference matches a manifest-declared `Type::method`
/// target: final name segments must agree, and when both sides carry a
/// qualifier they must agree too (method calls cannot be qualified-checked
/// lexically and match on the name alone).
fn call_matches(call: &CallRef, entry: &BoundaryEntry) -> bool {
    if call.name != entry.name {
        return false;
    }
    match (&call.form, &entry.owner) {
        (CallForm::Qualified(q), Some(o)) => q == o || q == "Self",
        _ => true,
    }
}

/// Runs every cross-file rule family. `findings` come back unsorted; the
/// scan driver merges, deduplicates and sorts them with the per-file ones.
pub fn symbol_findings(index: &SymbolIndex, b: &Boundaries) -> Vec<Finding> {
    let mut findings = Vec::new();
    trust_boundary(index, b, &mut findings);
    determinism_reach(index, b, &mut findings);
    concurrency(index, b, &mut findings);
    stale_entries(index, b, &mut findings);
    findings
}

/// Whether fn `fi` is itself a declared boundary entry point.
fn is_boundary_fn(index: &SymbolIndex, b: &Boundaries, fi: usize) -> bool {
    let f = &index.fns[fi];
    b.of_kind(BoundaryKind::Boundary).any(|e| {
        e.name == f.name
            && match (&e.owner, &f.owner) {
                (Some(o), Some(fo)) => o == fo,
                (Some(_), None) => false,
                (None, _) => true,
            }
    })
}

/// Whether fn `fi`'s body calls any declared boundary (taint dies here).
fn sanitizes(index: &SymbolIndex, b: &Boundaries, fi: usize) -> bool {
    index.fns[fi]
        .calls
        .iter()
        .any(|c| b.of_kind(BoundaryKind::Boundary).any(|e| call_matches(c, e)))
}

/// If fn `fi` calls a sink or constructs a sink type literal, a short
/// description of the first such site.
fn direct_sink(index: &SymbolIndex, b: &Boundaries, fi: usize) -> Option<String> {
    let f = &index.fns[fi];
    for c in &f.calls {
        if let Some(e) = b.of_kind(BoundaryKind::Sink).find(|e| call_matches(c, e)) {
            return Some(format!("calls sink `{}`", e.target()));
        }
    }
    let (s, e) = f.body?;
    let file = &index.files[f.file];
    for i in s..=e.min(file.tokens.len().saturating_sub(1)) {
        let t = &file.tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let is_ctor = b
            .of_kind(BoundaryKind::SinkCtor)
            .any(|entry| entry.name == t.text);
        if !is_ctor || !file.tokens.get(i + 1).is_some_and(|n| n.is_punct(b'{')) {
            continue;
        }
        // `-> Type {` is a fn body, `impl Type {` an impl block — neither
        // constructs anything.
        let prev_blocks = i > 0
            && (file.tokens[i - 1].is_punct(b'>')
                || file.tokens[i - 1].is_ident("impl")
                || file.tokens[i - 1].is_ident("struct")
                || file.tokens[i - 1].is_ident("trait"));
        if !prev_blocks {
            return Some(format!("constructs `{} {{ .. }}`", t.text));
        }
    }
    None
}

/// TB01: the type-taint walk from every raw-accepting function.
fn trust_boundary(index: &SymbolIndex, b: &Boundaries, findings: &mut Vec<Finding>) {
    let raw_types: BTreeSet<&str> = b
        .of_kind(BoundaryKind::Raw)
        .map(|e| e.name.as_str())
        .collect();
    if raw_types.is_empty() {
        return;
    }
    let takes_raw = |fi: usize| {
        index.fns[fi]
            .params
            .iter()
            .any(|p| raw_types.contains(p.as_str()))
    };
    for fi in 0..index.fns.len() {
        if !takes_raw(fi) || is_boundary_fn(index, b, fi) {
            continue;
        }
        // Walk from fi through raw-accepting callees; sanitize wins per
        // node, a sink without sanitizing anywhere on the walk reports.
        let mut seen = BTreeSet::new();
        let mut stack = vec![fi];
        let mut verdict: Option<(usize, String)> = None;
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if is_boundary_fn(index, b, n) || sanitizes(index, b, n) {
                continue;
            }
            if let Some(site) = direct_sink(index, b, n) {
                verdict = Some((n, site));
                break;
            }
            for call in &index.fns[n].calls {
                for m in index.resolve(n, call) {
                    if takes_raw(m) && !seen.contains(&m) {
                        stack.push(m);
                    }
                }
            }
        }
        if let Some((site_fn, site)) = verdict {
            let f = &index.fns[fi];
            let sf = &index.fns[site_fn];
            let via = if site_fn == fi {
                String::new()
            } else {
                format!(" via `{}` ({})", sf.qualified_name(), index.files[sf.file].rel)
            };
            findings.push(Finding {
                path: index.files[f.file].rel.clone(),
                line: f.line,
                rule: RuleId::Tb01RawToSink,
                message: format!(
                    "`{}` accepts raw `{}` and {site}{via} without crossing a declared trust \
                     boundary; route the readings through a `boundary` entry point (see {}) or \
                     declare one with a justification",
                    f.qualified_name(),
                    f.params
                        .iter()
                        .find(|p| raw_types.contains(p.as_str()))
                        .map(String::as_str)
                        .unwrap_or("readings"),
                    b.path,
                ),
            });
        }
    }
}

/// Resolves `det_root`/`worker_root` entries to function indices.
fn root_fns(index: &SymbolIndex, b: &Boundaries, kind: BoundaryKind) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for e in b.of_kind(kind) {
        for fi in index.find_fns(e.owner.as_deref(), &e.name) {
            out.push((fi, e.target()));
        }
    }
    out
}

/// DT04/DT05 over everything reachable from the determinism roots.
fn determinism_reach(index: &SymbolIndex, b: &Boundaries, findings: &mut Vec<Finding>) {
    let roots = root_fns(index, b, BoundaryKind::DetRoot);
    if roots.is_empty() {
        return;
    }
    let root_idx: Vec<usize> = roots.iter().map(|(i, _)| *i).collect();
    let reach = index.reachable(&root_idx);
    for (&fi, &root) in &reach {
        let root_name = roots
            .iter()
            .find(|(i, _)| *i == root)
            .map(|(_, n)| n.as_str())
            .unwrap_or("?");
        let f = &index.fns[fi];
        let Some((s, e)) = f.body else { continue };
        let file = &index.files[f.file];
        let end = e.min(file.tokens.len().saturating_sub(1));
        let has_hash = file.tokens[s..=end]
            .iter()
            .any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"));
        for i in s..=end {
            if file.mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let t = &file.tokens[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            if t.text == "HashMap" || t.text == "HashSet" {
                findings.push(Finding {
                    path: file.rel.clone(),
                    line: t.line,
                    rule: RuleId::Dt04ReachableUnordered,
                    message: format!(
                        "`{}` in `{}`, which is transitively reachable from determinism root \
                         `{root_name}`; hash iteration order would leak into fingerprinted \
                         results — use `BTreeMap`/`BTreeSet` or a `Vec`",
                        t.text,
                        f.qualified_name(),
                    ),
                });
            }
            unordered_reduction_at(index, f, fi, i, has_hash, root_name, findings);
        }
    }
}

const REDUCTIONS: [&str; 4] = ["sum", "product", "fold", "reduce"];
const PAR_SOURCES: [&str; 3] = ["par_iter", "into_par_iter", "par_bridge"];

/// DT05 at one token: a float reduction whose statement also contains a
/// parallel iterator (reduction order is scheduling-dependent) or a
/// hash-ordered source (`.values()`/`.keys()` of a `Hash*` map).
fn unordered_reduction_at(
    index: &SymbolIndex,
    f: &crate::symbols::FnDef,
    _fi: usize,
    i: usize,
    fn_has_hash: bool,
    root_name: &str,
    findings: &mut Vec<Finding>,
) {
    let file = &index.files[f.file];
    let t = &file.tokens[i];
    if !REDUCTIONS.contains(&t.text.as_str()) {
        return;
    }
    if i == 0 || !file.tokens[i - 1].is_punct(b'.') {
        return;
    }
    // `.sum()`, `.sum::<f64>()`, `.fold(init, ...)`.
    let called = file
        .tokens
        .get(i + 1)
        .is_some_and(|n| n.is_punct(b'(') || n.is_punct(b':'));
    if !called {
        return;
    }
    // Back-scan the statement (bounded) for an unordered source.
    let mut j = i;
    let mut source: Option<&str> = None;
    let lo = i.saturating_sub(120);
    while j > lo {
        j -= 1;
        let p = &file.tokens[j];
        if p.is_punct(b';') {
            break;
        }
        if p.kind != TokenKind::Ident {
            continue;
        }
        if PAR_SOURCES.contains(&p.text.as_str()) {
            source = Some("a parallel iterator");
            break;
        }
        if fn_has_hash && (p.text == "values" || p.text == "keys" || p.text == "iter") {
            source = Some("hash-ordered iteration");
            break;
        }
    }
    if let Some(src) = source {
        findings.push(Finding {
            path: file.rel.clone(),
            line: t.line,
            rule: RuleId::Dt05UnorderedReduction,
            message: format!(
                "`.{}(...)` over {src} in `{}` (reachable from determinism root `{root_name}`); \
                 float reduction order changes the result bits — reduce sequentially in a fixed \
                 order",
                t.text,
                f.qualified_name(),
            ),
        });
    }
}

/// CC01/CC02 over worker crates and functions reachable from worker roots.
fn concurrency(index: &SymbolIndex, b: &Boundaries, findings: &mut Vec<Finding>) {
    let worker_crates: BTreeSet<&str> = b
        .of_kind(BoundaryKind::WorkerCrate)
        .map(|e| e.name.as_str())
        .collect();
    // CC01 is file-scoped (statics sit outside fn bodies).
    for file in &index.files {
        if !worker_crates.contains(file.crate_name.as_str()) {
            continue;
        }
        for i in 0..file.tokens.len() {
            if file.mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let t = &file.tokens[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            if t.text == "static" && file.tokens.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
                findings.push(Finding {
                    path: file.rel.clone(),
                    line: t.line,
                    rule: RuleId::Cc01MutableGlobal,
                    message: "`static mut` in a worker path is a data race waiting for a second \
                              thread; use `OnceLock`, an atomic, or pass the state explicitly"
                        .into(),
                });
            }
            let lazyish = t.text == "lazy_static"
                || (t.text == "Lazy"
                    && (file.tokens.get(i + 1).is_some_and(|n| n.is_punct(b'<'))
                        || (file.tokens.get(i + 1).is_some_and(|n| n.is_punct(b':'))
                            && file.tokens.get(i + 2).is_some_and(|n| n.is_punct(b':')))));
            // `static C: Lazy<T> = Lazy::new(..)` mentions `Lazy` twice;
            // one finding per line is enough.
            let already = findings.last().is_some_and(|f| {
                f.rule == RuleId::Cc01MutableGlobal && f.path == file.rel && f.line == t.line
            });
            if lazyish && !already {
                findings.push(Finding {
                    path: file.rel.clone(),
                    line: t.line,
                    rule: RuleId::Cc01MutableGlobal,
                    message: format!(
                        "`{}` lazy static in a worker path; use `std::sync::OnceLock`, whose \
                         initialization is race-free and in std",
                        t.text
                    ),
                });
            }
        }
    }
    // CC02 is fn-scoped: worker-crate fns plus everything reachable from
    // the declared worker roots.
    let roots = root_fns(index, b, BoundaryKind::WorkerRoot);
    let root_idx: Vec<usize> = roots.iter().map(|(i, _)| *i).collect();
    let reach = index.reachable(&root_idx);
    for fi in 0..index.fns.len() {
        let in_worker_crate = worker_crates.contains(index.crate_of(fi));
        if !in_worker_crate && !reach.contains_key(&fi) {
            continue;
        }
        lock_across_callback(index, fi, findings);
    }
}

/// Method names that consume a `Result`/`Option` rather than running a
/// callback under the guard — closures passed to these are not "held
/// across" anything.
const RESULT_ADAPTERS: [&str; 4] = ["map_err", "unwrap_or_else", "ok_or_else", "expect_err"];

/// CC02 at one function: `.lock()`/`.try_lock()`/`.read()`/`.write()`
/// followed, within the same statement, by a closure argument — the guard
/// stays held across the callback, serializing workers (or deadlocking on
/// re-entry).
fn lock_across_callback(index: &SymbolIndex, fi: usize, findings: &mut Vec<Finding>) {
    let f = &index.fns[fi];
    let Some((s, e)) = f.body else { return };
    let file = &index.files[f.file];
    let end = e.min(file.tokens.len().saturating_sub(1));
    for i in s..=end {
        if file.mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &file.tokens[i];
        if t.kind != TokenKind::Ident || i == 0 || !file.tokens[i - 1].is_punct(b'.') {
            continue;
        }
        let zero_arg_rw = (t.text == "read" || t.text == "write")
            && file.tokens.get(i + 1).is_some_and(|n| n.is_punct(b'('))
            && file.tokens.get(i + 2).is_some_and(|n| n.is_punct(b')'));
        let locky = t.text == "lock" || t.text == "try_lock" || zero_arg_rw;
        if !locky || !file.tokens.get(i + 1).is_some_and(|n| n.is_punct(b'(')) {
            continue;
        }
        let Some(close) = crate::rules::matching_paren(&file.tokens, i + 1) else {
            continue;
        };
        // Scan forward to the end of the statement (tracking nesting so
        // `;` inside closure bodies doesn't terminate early).
        let mut depth = 0i32;
        let mut k = close;
        let cap = (close + 300).min(end);
        while k < cap {
            k += 1;
            let n = &file.tokens[k];
            if n.is_punct(b'(') || n.is_punct(b'{') || n.is_punct(b'[') {
                depth += 1;
            } else if n.is_punct(b')') || n.is_punct(b'}') || n.is_punct(b']') {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if n.is_punct(b';') && depth == 0 {
                break;
            } else if n.is_punct(b'|') && depth >= 1 {
                let prev = &file.tokens[k - 1];
                let opens_closure =
                    prev.is_punct(b'(') || prev.is_punct(b',') || prev.is_ident("move");
                let adapter = k >= 2
                    && prev.is_punct(b'(')
                    && RESULT_ADAPTERS.contains(&file.tokens[k - 2].text.as_str());
                if opens_closure && !adapter {
                    findings.push(Finding {
                        path: file.rel.clone(),
                        line: t.line,
                        rule: RuleId::Cc02LockAcrossCallback,
                        message: format!(
                            "lock guard from `.{}()` held across a closure in the same statement \
                             (in `{}`); bind the guard, copy what the callback needs, and drop it \
                             before the callback runs",
                            t.text,
                            f.qualified_name(),
                        ),
                    });
                    break;
                }
            }
        }
    }
}

/// BM01: manifest entries that match nothing in the scanned workspace.
fn stale_entries(index: &SymbolIndex, b: &Boundaries, findings: &mut Vec<Finding>) {
    for e in &b.entries {
        let alive = match e.kind {
            BoundaryKind::Raw | BoundaryKind::SinkCtor => index.mentions_ident(&e.name),
            BoundaryKind::Boundary
            | BoundaryKind::Sink
            | BoundaryKind::DetRoot
            | BoundaryKind::WorkerRoot => !index.find_fns(e.owner.as_deref(), &e.name).is_empty(),
            BoundaryKind::WorkerCrate => index
                .files
                .iter()
                .any(|f| f.crate_name == e.name),
        };
        if !alive {
            findings.push(Finding {
                path: b.path.clone(),
                line: e.line,
                rule: RuleId::Bm01StaleBoundary,
                message: format!(
                    "boundary manifest entry `{} {}` matches no symbol in the scanned workspace; \
                     the declaration has rotted — update or remove it (reason on file: {})",
                    e.kind.as_str(),
                    e.target(),
                    e.reason
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::symbols::CrateGraph;

    const MANIFEST: &str = "\
raw SensorReadings -- attackable input
boundary ReadingsGuard::accept -- sanctioned crossing
sink FfcModel::observe -- inference entry
sink_ctor ActuatorSignal -- command literal
det_root Trace::fingerprint -- fingerprint gate
worker_root Engine::tick -- fleet tick
worker_crate fleet -- worker crate
";

    fn run(files: &[(&str, &str, &str)], manifest: &str) -> Vec<Finding> {
        let inputs = files
            .iter()
            .map(|(rel, krate, src)| (rel.to_string(), krate.to_string(), tokenize(src)))
            .collect();
        let idx = SymbolIndex::build(inputs, CrateGraph::permissive());
        let b = Boundaries::parse("analyzer.boundaries", manifest).expect("manifest parses");
        symbol_findings(&idx, &b)
    }

    fn ids(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    // Common scaffolding so the manifest's raw/boundary/sink/root/crate
    // entries all resolve (no BM01 noise in the focused tests).
    const SCAFFOLD: &str = "\
pub struct SensorReadings;
pub struct ActuatorSignal;
pub struct ReadingsGuard;
impl ReadingsGuard { pub fn accept(&mut self, r: &SensorReadings) -> SensorReadings { go(r) } }
pub struct FfcModel;
impl FfcModel { pub fn observe(&mut self, p: &Prims) -> u8 { 0 } }
pub struct Trace;
impl Trace { pub fn fingerprint(&self) -> u64 { 7 } }
pub struct Engine;
impl Engine { pub fn tick(&mut self) {} }
";

    fn with_scaffold(extra: &str) -> Vec<(&'static str, &'static str, String)> {
        vec![
            ("crates/fleet/src/lib.rs", "fleet", SCAFFOLD.to_string()),
            ("crates/app/src/lib.rs", "app", extra.to_string()),
        ]
    }

    fn run_owned(files: Vec<(&str, &str, String)>, manifest: &str) -> Vec<Finding> {
        let refs: Vec<(&str, &str, &str)> = files
            .iter()
            .map(|(a, b, c)| (*a, *b, c.as_str()))
            .collect();
        run(&refs, manifest)
    }

    #[test]
    fn manifest_parses_and_requires_reasons() {
        let b = Boundaries::parse("analyzer.boundaries", MANIFEST).expect("parses");
        assert_eq!(b.entries.len(), 7);
        assert_eq!(b.entries[1].owner.as_deref(), Some("ReadingsGuard"));
        assert_eq!(b.entries[1].name, "accept");
        let err = Boundaries::parse("x", "raw SensorReadings\n").expect_err("no reason");
        assert!(err[0].contains("justification"), "{err:?}");
        let err2 = Boundaries::parse("x", "bogus X -- y\n").expect_err("bad kind");
        assert!(err2[0].contains("unknown entry kind"), "{err2:?}");
    }

    #[test]
    fn tb_flags_raw_to_sink_without_boundary() {
        let files = with_scaffold(
            "pub fn leak(r: &SensorReadings, m: &mut FfcModel) { let p = prims(r); m.observe(&p); }",
        );
        let fs = run_owned(files, MANIFEST);
        assert_eq!(ids(&fs), vec!["TB01"], "{fs:?}");
        assert!(fs[0].message.contains("SensorReadings"), "{}", fs[0].message);
        assert!(fs[0].path.ends_with("crates/app/src/lib.rs"));
    }

    #[test]
    fn tb_quiet_when_boundary_crossed() {
        let files = with_scaffold(
            "pub fn guarded(r: &SensorReadings, g: &mut ReadingsGuard, m: &mut FfcModel) {\n\
                 let clean = g.accept(r); let p = prims(&clean); m.observe(&p); }",
        );
        assert!(ids(&run_owned(files, MANIFEST)).is_empty());
    }

    #[test]
    fn tb_walks_through_raw_passing_helpers() {
        let files = with_scaffold(
            "pub fn outer(r: &SensorReadings) { helper(r); }\n\
             fn helper(r: &SensorReadings) { let y = ActuatorSignal { thrust: 0.5 }; }",
        );
        let fs = run_owned(files, MANIFEST);
        // helper is flagged directly, outer through the walk.
        assert_eq!(ids(&fs), vec!["TB01", "TB01"], "{fs:?}");
        assert!(fs.iter().any(|f| f.message.contains("`outer`")));
    }

    #[test]
    fn tb_ctor_matcher_skips_return_types_and_impls() {
        let files = with_scaffold(
            "pub fn make(r: &SensorReadings) -> ActuatorSignal { neutral() }",
        );
        assert!(ids(&run_owned(files, MANIFEST)).is_empty());
    }

    #[test]
    fn dt04_fires_only_in_reachable_fns() {
        let src = "\
pub struct Trace { records: Vec<u64> }
impl Trace {
    pub fn fingerprint(&self) -> u64 { self.mix() }
    fn mix(&self) -> u64 { let m: HashMap<u8, u8> = HashMap::new(); 0 }
}
fn unreachable_helper() { let s: HashSet<u8> = HashSet::new(); }
";
        let fs = run(&[("crates/missions/src/trace.rs", "missions", src)], MANIFEST);
        let dt04: Vec<&Finding> = fs
            .iter()
            .filter(|f| f.rule == RuleId::Dt04ReachableUnordered)
            .collect();
        assert_eq!(dt04.len(), 2, "{fs:?}"); // two HashMap mentions in mix()
        assert!(dt04[0].message.contains("Trace::fingerprint"));
        assert!(fs
            .iter()
            .all(|f| f.rule != RuleId::Dt04ReachableUnordered || f.path.contains("trace.rs")));
    }

    #[test]
    fn dt05_flags_parallel_and_hash_reductions() {
        let src = "\
pub struct Trace;
impl Trace {
    pub fn fingerprint(&self) -> f64 { self.total() }
    fn total(&self) -> f64 { self.xs.par_iter().map(|x| x * 2.0).sum::<f64>() }
}
";
        let fs = run(&[("crates/missions/src/t.rs", "missions", src)], MANIFEST);
        assert!(
            fs.iter().any(|f| f.rule == RuleId::Dt05UnorderedReduction),
            "{fs:?}"
        );
        // An ordered sequential reduction is fine.
        let ok = "\
pub struct Trace;
impl Trace {
    pub fn fingerprint(&self) -> f64 { self.total() }
    fn total(&self) -> f64 { self.xs.iter().map(|x| x * 2.0).sum::<f64>() }
}
";
        let fs2 = run(&[("crates/missions/src/t.rs", "missions", ok)], MANIFEST);
        assert!(
            fs2.iter().all(|f| f.rule != RuleId::Dt05UnorderedReduction),
            "{fs2:?}"
        );
    }

    #[test]
    fn cc01_flags_static_mut_and_lazy_in_worker_crates_only() {
        let worker = "static mut COUNTER: u64 = 0;\nstatic CACHE: Lazy<u64> = Lazy::new(init);\n";
        let fs = run(
            &[
                ("crates/fleet/src/a.rs", "fleet", worker),
                ("crates/math/src/b.rs", "math", worker),
            ],
            "worker_crate fleet -- fleet is a worker path\n",
        );
        let cc01: Vec<&Finding> = fs
            .iter()
            .filter(|f| f.rule == RuleId::Cc01MutableGlobal)
            .collect();
        assert_eq!(cc01.len(), 2, "{fs:?}");
        assert!(cc01.iter().all(|f| f.path.contains("fleet")));
    }

    #[test]
    fn cc02_flags_guard_held_across_closure() {
        let bad = "pub struct W;\nimpl W {\n    pub fn tick_all(&self) { self.sessions.lock().unwrap().iter().for_each(|s| s.tick()); }\n}\n";
        let fs = run(
            &[("crates/fleet/src/w.rs", "fleet", bad)],
            "worker_crate fleet -- worker\n",
        );
        assert!(
            fs.iter().any(|f| f.rule == RuleId::Cc02LockAcrossCallback),
            "{fs:?}"
        );
        // Guard dropped before the callback: clean.
        let ok = "pub struct W;\nimpl W {\n    pub fn tick_all(&self) {\n        let snapshot = self.sessions.lock().unwrap().clone();\n        snapshot.iter().for_each(|s| s.tick());\n    }\n}\n";
        let fs2 = run(
            &[("crates/fleet/src/w.rs", "fleet", ok)],
            "worker_crate fleet -- worker\n",
        );
        assert!(
            fs2.iter().all(|f| f.rule != RuleId::Cc02LockAcrossCallback),
            "{fs2:?}"
        );
    }

    #[test]
    fn bm01_reports_rotted_entries_with_line_numbers() {
        let fs = run(
            &[("crates/a/src/lib.rs", "a", "pub fn real() {}")],
            "# comment line\nboundary Ghost::vanished -- used to exist\n",
        );
        assert_eq!(ids(&fs), vec!["BM01"], "{fs:?}");
        assert_eq!(fs[0].path, "analyzer.boundaries");
        assert_eq!(fs[0].line, 2);
        assert!(fs[0].message.contains("Ghost::vanished"));
    }
}
