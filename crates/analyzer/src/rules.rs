//! The per-file lint families, their token-level matchers, and the scan
//! profiles that select which families apply where.
//!
//! | family | rules | enforced in |
//! |---|---|---|
//! | determinism | `DT01` wall clock, `DT02` ambient randomness, `DT03` unordered collections | every scanned file, all profiles |
//! | panic-freedom | `PF01` `.unwrap()`, `PF02` `.expect(...)`, `PF03` panic-family macros, `PF04` unchecked indexing | [`LintProfile::Strict`] library code only |
//! | panicking I/O | `PF05` `fs::...(...)`/`File::...(...)` unwrapped | `Strict` *and* `Driver` (panic-exempt drivers included) |
//! | float-safety | `FS01` float `==`/`!=`, `FS02` `partial_cmp().unwrap()` | `Strict` and `Driver` |
//! | doc coverage | `DC01` missing `#![deny(missing_docs)]` | every crate root (`Strict`/`Driver`) |
//!
//! The symbol-aware families — `TB01` (trust boundary), `DT04`/`DT05`
//! (interprocedural determinism), `CC01`/`CC02` (concurrency) and `BM01`
//! (stale boundary-manifest entry) — are cross-file rules and live in
//! [`crate::taint`]; they share this module's [`RuleId`]/[`Finding`]
//! vocabulary and run in *every* profile, relaxed test code included.
//!
//! `assert!`/`debug_assert!` are deliberately *not* flagged: they state
//! documented caller contracts, and banning them would only push the same
//! checks into less-visible forms. The panic-freedom family targets the
//! implicit panics — unwraps, expects, panic-family macros and unchecked
//! slice access — that turn recoverable situations into aborts.
//!
//! Code under `#[cfg(test)]` (and items annotated with it) is exempt from
//! every family: tests legitimately unwrap.

use crate::lexer::{tokenize, Token, TokenKind};

/// A lint rule identifier, printed as e.g. `PF01`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Wall-clock reads (`Instant::now`, `SystemTime`).
    Dt01WallClock,
    /// Ambient randomness (`thread_rng`, `from_entropy`, `OsRng`).
    Dt02AmbientRng,
    /// Iteration-order-unstable collections (`HashMap`, `HashSet`).
    Dt03UnorderedCollection,
    /// `.unwrap()` in library code.
    Pf01Unwrap,
    /// `.expect(...)` / `.expect_err(...)` in library code.
    Pf02Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Pf03PanicMacro,
    /// `.get_unchecked{,_mut}(...)` bounds-check bypass.
    Pf04UncheckedIndex,
    /// Filesystem call result unwrapped (`fs::write(..).unwrap()`);
    /// enforced even in the panic-exempt driver crates.
    Pf05PanickingIo,
    /// `==` / `!=` with a float operand.
    Fs01FloatEq,
    /// `partial_cmp(...)` chained into `.unwrap()` / `.expect(...)`.
    Fs02PartialCmpUnwrap,
    /// Crate root missing `#![deny(missing_docs)]`.
    Dc01MissingDocsLint,
    /// An `analyzer.allow` entry that suppressed nothing (stale).
    Al01StaleAllow,
    /// Raw sensor readings reach an FFC/actuator sink without crossing a
    /// declared trust boundary (`ReadingsGuard`/sanitizer).
    Tb01RawToSink,
    /// `HashMap`/`HashSet` in a function transitively reachable from a
    /// declared determinism root (`Trace::fingerprint`, the parallel
    /// mission runners, the fleet tick loop).
    Dt04ReachableUnordered,
    /// An unordered float reduction (`.sum()`/`.fold()`/... over a
    /// parallel or hash-ordered iterator) reachable from a determinism
    /// root.
    Dt05UnorderedReduction,
    /// `static mut` or a non-`OnceLock` lazy static in the fleet/missions
    /// worker paths.
    Cc01MutableGlobal,
    /// A lock guard acquired and then held across a callback/closure in
    /// the same statement, in the fleet/missions worker paths.
    Cc02LockAcrossCallback,
    /// An `analyzer.boundaries` manifest entry that matches no symbol in
    /// the scanned workspace (the manifest has rotted).
    Bm01StaleBoundary,
}

impl RuleId {
    /// The short id printed in findings (`DT01`, `PF02`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::Dt01WallClock => "DT01",
            RuleId::Dt02AmbientRng => "DT02",
            RuleId::Dt03UnorderedCollection => "DT03",
            RuleId::Pf01Unwrap => "PF01",
            RuleId::Pf02Expect => "PF02",
            RuleId::Pf03PanicMacro => "PF03",
            RuleId::Pf04UncheckedIndex => "PF04",
            RuleId::Pf05PanickingIo => "PF05",
            RuleId::Fs01FloatEq => "FS01",
            RuleId::Fs02PartialCmpUnwrap => "FS02",
            RuleId::Dc01MissingDocsLint => "DC01",
            RuleId::Al01StaleAllow => "AL01",
            RuleId::Tb01RawToSink => "TB01",
            RuleId::Dt04ReachableUnordered => "DT04",
            RuleId::Dt05UnorderedReduction => "DT05",
            RuleId::Cc01MutableGlobal => "CC01",
            RuleId::Cc02LockAcrossCallback => "CC02",
            RuleId::Bm01StaleBoundary => "BM01",
        }
    }

    /// Parses a short id (`"PF01"`), case-sensitively.
    pub fn parse(s: &str) -> Option<RuleId> {
        const ALL: [RuleId; 18] = [
            RuleId::Dt01WallClock,
            RuleId::Dt02AmbientRng,
            RuleId::Dt03UnorderedCollection,
            RuleId::Pf01Unwrap,
            RuleId::Pf02Expect,
            RuleId::Pf03PanicMacro,
            RuleId::Pf04UncheckedIndex,
            RuleId::Pf05PanickingIo,
            RuleId::Fs01FloatEq,
            RuleId::Fs02PartialCmpUnwrap,
            RuleId::Dc01MissingDocsLint,
            RuleId::Al01StaleAllow,
            RuleId::Tb01RawToSink,
            RuleId::Dt04ReachableUnordered,
            RuleId::Dt05UnorderedReduction,
            RuleId::Cc01MutableGlobal,
            RuleId::Cc02LockAcrossCallback,
            RuleId::Bm01StaleBoundary,
        ];
        ALL.into_iter().find(|r| r.as_str() == s)
    }
}

/// One violation: where, which rule, and why it matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (`crates/math/src/stats.rs`).
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable explanation with the required remediation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path,
            self.line,
            self.rule.as_str(),
            self.message
        )
    }
}

/// Which per-file rule families apply to a scanned file.
///
/// Profiles are derived from the file's workspace location by
/// [`crate::scan::classify`]; the cross-file rules in [`crate::taint`]
/// (TB/DT04/DT05/CC) apply in every profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintProfile {
    /// Library code flown in the control loop: every family applies.
    Strict,
    /// Experiment drivers and demo binaries (the `bench` crate, root
    /// `examples/`): panics are tolerated (`PF01`–`PF04` off) but
    /// panicking I/O (`PF05`), determinism, float-safety and doc coverage
    /// still apply — a long batch run dying on a full disk while writing
    /// a report throws away hours of completed missions.
    Driver,
    /// Integration tests and per-crate examples: panic-freedom, float-
    /// safety and doc-coverage rules are off (tests legitimately unwrap
    /// and compare exact floats), but the determinism family stays on —
    /// a test that reads the wall clock or iterates a `HashMap` can go
    /// flaky, and flaky equivalence tests defeat their purpose.
    Relaxed,
}

/// Per-file analysis context.
#[derive(Debug, Clone, Copy)]
pub struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// The owning crate's directory name (`math`, `bench`, ...; the root
    /// facade crate is `pid-piper`).
    pub crate_name: &'a str,
    /// Whether this file is the crate root (`lib.rs`).
    pub is_crate_root: bool,
    /// Which rule families apply here.
    pub profile: LintProfile,
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Runs every applicable rule over one file's source.
pub fn analyze_source(ctx: FileContext<'_>, src: &str) -> Vec<Finding> {
    analyze_tokens(ctx, &tokenize(src))
}

/// Runs every applicable per-file rule over an already-tokenized file.
/// The scan driver tokenizes each file once and shares the stream between
/// this pass and the symbol index.
pub fn analyze_tokens(ctx: FileContext<'_>, tokens: &[Token]) -> Vec<Finding> {
    let mask = test_mask(tokens);
    let mut findings = Vec::new();
    let panic_rules = ctx.profile == LintProfile::Strict;
    let driver_rules = ctx.profile != LintProfile::Relaxed;

    let mut f = |line: u32, rule: RuleId, message: String| {
        findings.push(Finding {
            path: ctx.rel_path.to_string(),
            line,
            rule,
            message,
        });
    };

    for (i, t) in tokens.iter().enumerate() {
        if mask[i] {
            continue;
        }
        determinism_at(tokens, i, t, &mut f);
        if panic_rules {
            panic_freedom_at(tokens, i, t, &mut f);
        }
        if driver_rules {
            panicking_io_at(tokens, i, t, &mut f);
            float_safety_at(tokens, i, t, &mut f);
        }
    }

    if ctx.is_crate_root && driver_rules && !has_missing_docs_deny(tokens) {
        f(
            1,
            RuleId::Dc01MissingDocsLint,
            "crate root lacks `#![deny(missing_docs)]`; every public item must be documented".into(),
        );
    }

    findings
}

fn determinism_at(tokens: &[Token], i: usize, t: &Token, f: &mut impl FnMut(u32, RuleId, String)) {
    if t.kind != TokenKind::Ident {
        return;
    }
    match t.text.as_str() {
        "Instant" if path_call(tokens, i, "now") => f(
            t.line,
            RuleId::Dt01WallClock,
            "`Instant::now()` reads the wall clock; results must not depend on time — \
             derive timing from the simulated clock or allowlist log-only uses"
                .into(),
        ),
        "SystemTime" => f(
            t.line,
            RuleId::Dt01WallClock,
            "`SystemTime` reads the wall clock; results must not depend on time".into(),
        ),
        "thread_rng" | "from_entropy" | "OsRng" => f(
            t.line,
            RuleId::Dt02AmbientRng,
            format!(
                "`{}` draws ambient entropy; all randomness must flow from an explicit seed \
                 (`StdRng::seed_from_u64`)",
                t.text
            ),
        ),
        "HashMap" | "HashSet" => f(
            t.line,
            RuleId::Dt03UnorderedCollection,
            format!(
                "`{}` iterates in hash order; use `BTreeMap`/`BTreeSet` (or a `Vec`) so any \
                 iteration is deterministic by construction",
                t.text
            ),
        ),
        _ => {}
    }
}

fn panic_freedom_at(
    tokens: &[Token],
    i: usize,
    t: &Token,
    f: &mut impl FnMut(u32, RuleId, String),
) {
    if t.kind != TokenKind::Ident {
        return;
    }
    let after_dot = i > 0 && tokens[i - 1].is_punct(b'.');
    let calls = tokens.get(i + 1).is_some_and(|n| n.is_punct(b'('));
    match t.text.as_str() {
        "unwrap" if after_dot && calls => f(
            t.line,
            RuleId::Pf01Unwrap,
            "`.unwrap()` panics; return a `Result`, use `unwrap_or`/`let-else`, or allowlist \
             with a justification"
                .into(),
        ),
        "expect" | "expect_err" if after_dot && calls => f(
            t.line,
            RuleId::Pf02Expect,
            format!(
                "`.{}(...)` panics; return a `Result`, use a deterministic fallback, or \
                 allowlist with a justification",
                t.text
            ),
        ),
        "get_unchecked" | "get_unchecked_mut" if after_dot && calls => f(
            t.line,
            RuleId::Pf04UncheckedIndex,
            format!(
                "`.{}()` bypasses bounds checks; use checked indexing or `get`",
                t.text
            ),
        ),
        name if PANIC_MACROS.contains(&name)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(b'!'))
            // `core::panic!` etc. still match on the final path segment;
            // a leading `.` would be a method, not a macro.
            && !after_dot =>
        {
            f(
                t.line,
                RuleId::Pf03PanicMacro,
                format!(
                    "`{name}!` aborts the mission; make the state unrepresentable, return an \
                     error, or use `assert!` to state a documented caller contract"
                ),
            )
        }
        _ => {}
    }
}

/// PF05: a `fs::...(...)` / `File::...(...)` call whose `Result` is fed
/// straight into `.unwrap()` / `.expect(...)`. Unlike `PF01`/`PF02` this
/// fires in *every* scanned crate, panic-exempt drivers included: I/O
/// failure (full disk, missing directory, permissions) is an environment
/// condition, not a bug, and must degrade gracefully.
fn panicking_io_at(tokens: &[Token], i: usize, t: &Token, f: &mut impl FnMut(u32, RuleId, String)) {
    if t.kind != TokenKind::Ident || !(t.is_ident("fs") || t.is_ident("File")) {
        return;
    }
    // Shape: `fs`/`File` :: <method> ( ... ) . unwrap/expect
    if !(tokens.get(i + 1).is_some_and(|n| n.is_punct(b':'))
        && tokens.get(i + 2).is_some_and(|n| n.is_punct(b':')))
    {
        return;
    }
    let method = match tokens.get(i + 3) {
        Some(m) if m.kind == TokenKind::Ident => m.text.clone(),
        _ => return,
    };
    if !tokens.get(i + 4).is_some_and(|n| n.is_punct(b'(')) {
        return;
    }
    let Some(close) = matching_paren(tokens, i + 4) else {
        return;
    };
    let chained_panic = tokens.get(close + 1).is_some_and(|n| n.is_punct(b'.'))
        && tokens.get(close + 2).is_some_and(|n| {
            n.is_ident("unwrap") || n.is_ident("expect") || n.is_ident("expect_err")
        });
    if chained_panic {
        f(
            t.line,
            RuleId::Pf05PanickingIo,
            format!(
                "`{}::{method}(...)` unwrapped; I/O failure is an environment condition, not a \
                 bug — handle the `Err` (report and continue, or return it), or allowlist with \
                 a justification",
                t.text
            ),
        );
    }
}

fn float_safety_at(tokens: &[Token], i: usize, t: &Token, f: &mut impl FnMut(u32, RuleId, String)) {
    // FS01: `==` / `!=` with a float operand.
    if let Some(op_len) = eq_op_at(tokens, i) {
        let left_float = i > 0 && is_float_operand(tokens, i - 1, false);
        let right_start = i + op_len;
        let right_float = is_float_operand_forward(tokens, right_start);
        if left_float || right_float {
            f(
                t.line,
                RuleId::Fs01FloatEq,
                "float `==`/`!=` is not NaN-safe; use `pidpiper_math::float::{approx_eq, is_zero}` \
                 or `total_cmp`"
                    .into(),
            );
        }
    }
    // FS02: partial_cmp(...).unwrap() / .expect(...).
    if t.is_ident("partial_cmp") && tokens.get(i + 1).is_some_and(|n| n.is_punct(b'(')) {
        if let Some(close) = matching_paren(tokens, i + 1) {
            let chained_panic = tokens.get(close + 1).is_some_and(|n| n.is_punct(b'.'))
                && tokens.get(close + 2).is_some_and(|n| {
                    n.is_ident("unwrap") || n.is_ident("expect") || n.is_ident("expect_err")
                });
            if chained_panic {
                f(
                    t.line,
                    RuleId::Fs02PartialCmpUnwrap,
                    "`partial_cmp().unwrap()` panics on NaN; use `f64::total_cmp` or the \
                     `pidpiper_math::float` helpers"
                        .into(),
                );
            }
        }
    }
}

/// Detects `==` (2 tokens) or `!=` (2 tokens) starting at `i`, rejecting
/// `<=`, `>=`, `=>`, `===`-like runs and compound assignment.
fn eq_op_at(tokens: &[Token], i: usize) -> Option<usize> {
    let a = tokens.get(i)?;
    let b = tokens.get(i + 1)?;
    if a.line != b.line {
        return None;
    }
    let is_eq = a.is_punct(b'=') && b.is_punct(b'=');
    let is_ne = a.is_punct(b'!') && b.is_punct(b'=');
    if !is_eq && !is_ne {
        return None;
    }
    // Reject a preceding operator byte that would make this `<=`, `>=`,
    // `+=`, `&&=`-style or a longer `=` run.
    if i > 0 {
        if let TokenKind::Punct(p) = tokens[i - 1].kind {
            if b"<>=!+-*/%&|^".contains(&p) && tokens[i - 1].line == a.line {
                return None;
            }
        }
    }
    // Reject `==>`-style or `===` runs on the right.
    if tokens.get(i + 2).is_some_and(|n| n.is_punct(b'=') || n.is_punct(b'>')) {
        return None;
    }
    Some(2)
}

/// Whether the operand *ending* at index `j` is float-like: a float
/// literal, or a path ending in `NAN` / `INFINITY` / `NEG_INFINITY`.
fn is_float_operand(tokens: &[Token], j: usize, _forward: bool) -> bool {
    match tokens.get(j) {
        Some(t) if t.kind == TokenKind::Float => true,
        Some(t) if t.kind == TokenKind::Ident => {
            matches!(t.text.as_str(), "NAN" | "INFINITY" | "NEG_INFINITY")
        }
        _ => false,
    }
}

/// Whether the operand *starting* at index `j` is float-like, allowing a
/// unary minus.
fn is_float_operand_forward(tokens: &[Token], j: usize) -> bool {
    let j = if tokens.get(j).is_some_and(|t| t.is_punct(b'-')) {
        j + 1
    } else {
        j
    };
    if is_float_operand(tokens, j, true) {
        return true;
    }
    // `f64::NAN`-style path: f64 :: NAN.
    matches!(
        (tokens.get(j), tokens.get(j + 1), tokens.get(j + 2), tokens.get(j + 3)),
        (Some(a), Some(c1), Some(c2), Some(n))
            if (a.is_ident("f64") || a.is_ident("f32"))
                && c1.is_punct(b':')
                && c2.is_punct(b':')
                && matches!(n.text.as_str(), "NAN" | "INFINITY" | "NEG_INFINITY")
    )
}

/// Whether ident `i` is followed by `::segment(` for the given segment.
fn path_call(tokens: &[Token], i: usize, segment: &str) -> bool {
    matches!(
        (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3)),
        (Some(c1), Some(c2), Some(s))
            if c1.is_punct(b':') && c2.is_punct(b':') && s.is_ident(segment)
    )
}

/// Index of the `)` matching the `(` at `open`.
pub(crate) fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(b'(') {
            depth += 1;
        } else if t.is_punct(b')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Whether the token stream carries `#![deny(missing_docs)]` (possibly as
/// part of a `deny(missing_docs, other_lint)` list).
fn has_missing_docs_deny(tokens: &[Token]) -> bool {
    (0..tokens.len()).any(|i| {
        let prefix_ok = tokens.get(i).is_some_and(|t| t.is_punct(b'#'))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(b'!'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(b'['))
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("deny"))
            && tokens.get(i + 4).is_some_and(|t| t.is_punct(b'('));
        if !prefix_ok {
            return false;
        }
        // Scan the deny list for `missing_docs`.
        let mut k = i + 5;
        loop {
            match tokens.get(k) {
                Some(t) if t.is_ident("missing_docs") => break true,
                Some(t) if t.is_punct(b')') => break false,
                Some(_) => k += 1,
                None => break false,
            }
        }
    })
}

/// Computes a boolean mask over the tokens: `true` marks tokens inside a
/// `#[cfg(test)]`-gated item (module, fn, impl, use, ...), which every
/// rule skips.
pub(crate) fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some((attr_end, is_test_cfg)) = cfg_attr_at(tokens, i) {
            if is_test_cfg {
                let item_end = gated_item_end(tokens, attr_end + 1);
                for m in mask.iter_mut().take(item_end + 1).skip(i) {
                    *m = true;
                }
                i = item_end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// If an outer attribute `#[...]` starts at `i`, returns its closing-`]`
/// index and whether it is a `cfg(...)` mentioning `test` without `not`.
fn cfg_attr_at(tokens: &[Token], i: usize) -> Option<(usize, bool)> {
    if !tokens.get(i)?.is_punct(b'#') || !tokens.get(i + 1)?.is_punct(b'[') {
        return None;
    }
    let mut depth = 0usize;
    let mut has_cfg = false;
    let mut has_test = false;
    let mut has_not = false;
    let mut k = i + 1;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct(b'[') {
            depth += 1;
        } else if t.is_punct(b']') {
            depth -= 1;
            if depth == 0 {
                return Some((k, has_cfg && has_test && !has_not));
            }
        } else if t.is_ident("cfg") {
            has_cfg = true;
        } else if t.is_ident("test") {
            has_test = true;
        } else if t.is_ident("not") {
            has_not = true;
        }
        k += 1;
    }
    None
}

/// Index of the last token of the item following an attribute: either the
/// first `;` at brace depth zero, or the `}` closing the first brace
/// block. Skips over any further attributes on the same item.
fn gated_item_end(tokens: &[Token], start: usize) -> usize {
    let mut k = start;
    // Skip stacked attributes (`#[cfg(test)] #[allow(...)] mod ...`).
    while let Some((attr_end, _)) = cfg_attr_at(tokens, k) {
        k = attr_end + 1;
    }
    let mut depth = 0usize;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct(b'{') {
            depth += 1;
        } else if t.is_punct(b'}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k;
            }
        } else if t.is_punct(b';') && depth == 0 {
            return k;
        }
        k += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        analyze_source(
            FileContext {
                rel_path: "crates/fake/src/x.rs",
                crate_name: "fake",
                is_crate_root: false,
                profile: LintProfile::Strict,
            },
            src,
        )
    }

    fn rules(src: &str) -> Vec<&'static str> {
        run(src).iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn unwrap_and_expect_flagged() {
        assert_eq!(rules("fn f() { x.unwrap(); }"), vec!["PF01"]);
        assert_eq!(rules("fn f() { x.expect(\"m\"); }"), vec!["PF02"]);
        // unwrap_or family is fine.
        assert!(rules("fn f() { x.unwrap_or(0).unwrap_or_else(|| 1); }").is_empty());
    }

    #[test]
    fn panic_macros_flagged_asserts_allowed() {
        assert_eq!(rules("fn f() { panic!(\"boom\"); }"), vec!["PF03"]);
        assert_eq!(rules("fn f() { unreachable!(); }"), vec!["PF03"]);
        assert!(rules("fn f() { assert!(x > 0); debug_assert_eq!(a, b); }").is_empty());
    }

    #[test]
    fn driver_profile_is_panic_exempt_but_not_determinism_exempt() {
        let ctx = FileContext {
            rel_path: "crates/bench/src/x.rs",
            crate_name: "bench",
            is_crate_root: false,
            profile: LintProfile::Driver,
        };
        let fs = analyze_source(ctx, "fn f() { x.unwrap(); let m: HashMap<u8, u8>; }");
        let ids: Vec<&str> = fs.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(ids, vec!["DT03"]);
    }

    #[test]
    fn relaxed_profile_keeps_determinism_only() {
        let ctx = FileContext {
            rel_path: "tests/end_to_end.rs",
            crate_name: "pid-piper",
            is_crate_root: false,
            profile: LintProfile::Relaxed,
        };
        // Unwraps, panics, float ==, panicking I/O: all tolerated in tests.
        let quiet = "fn f() { x.unwrap(); panic!(); if y == 0.5 {} fs::write(p, b).unwrap(); }";
        assert!(analyze_source(ctx, quiet).is_empty());
        // But the determinism family still fires.
        let fs = analyze_source(
            ctx,
            "fn f() { let t = Instant::now(); let m: HashMap<u8, u8>; }",
        );
        let ids: Vec<&str> = fs.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(ids, vec!["DT01", "DT03"]);
    }

    #[test]
    fn panicking_io_flagged_even_in_exempt_crates() {
        let bench = FileContext {
            rel_path: "crates/bench/src/x.rs",
            crate_name: "bench",
            is_crate_root: false,
            profile: LintProfile::Driver,
        };
        let fs = analyze_source(bench, "fn f() { fs::write(p, b).unwrap(); }");
        let ids: Vec<&str> = fs.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(ids, vec!["PF05"]);
        let ex = FileContext {
            rel_path: "examples/demo.rs",
            crate_name: "examples",
            is_crate_root: false,
            profile: LintProfile::Driver,
        };
        let fs = analyze_source(ex, "fn f() { let s = File::open(p).expect(\"open\"); }");
        let ids: Vec<&str> = fs.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(ids, vec!["PF05"]);
        // In a library crate the same line is both PF05 and PF01 (findings
        // come back in token order: the `fs` path fires before `unwrap`).
        assert_eq!(
            rules("fn f() { fs::read_to_string(p).unwrap(); }"),
            vec!["PF05", "PF01"]
        );
        // Handled or propagated I/O results are fine.
        assert!(rules("fn f() { let _ = fs::write(p, b); }").is_empty());
        assert!(rules("fn f() -> io::Result<()> { fs::write(p, b)?; Ok(()) }").is_empty());
        assert!(rules("fn f() { if let Err(e) = fs::write(p, b) { log(e); } }").is_empty());
        // Non-I/O unwraps in exempt crates stay exempt.
        assert!(analyze_source(bench, "fn f() { x.unwrap(); }").is_empty());
    }

    #[test]
    fn determinism_rules() {
        assert_eq!(rules("fn f() { let t = Instant::now(); }"), vec!["DT01"]);
        assert_eq!(rules("fn f() { let r = thread_rng(); }"), vec!["DT02"]);
        assert_eq!(rules("use std::collections::HashMap;"), vec!["DT03"]);
        // Instant that is not `::now` (e.g. a type position) is fine.
        assert!(rules("fn f(t: Instant) {}").is_empty());
        // Seeded randomness is fine.
        assert!(rules("fn f() { StdRng::seed_from_u64(7); }").is_empty());
    }

    #[test]
    fn float_equality_detected_on_either_side() {
        assert_eq!(rules("fn f() { if x == 0.0 {} }"), vec!["FS01"]);
        assert_eq!(rules("fn f() { if 0.5 != y {} }"), vec!["FS01"]);
        assert_eq!(rules("fn f() { if x == -1.5e3 {} }"), vec!["FS01"]);
        assert_eq!(rules("fn f() { if x == f64::NAN {} }"), vec!["FS01"]);
        // Integer equality and float inequalities are fine.
        assert!(rules("fn f() { if x == 3 {} }").is_empty());
        assert!(rules("fn f() { if x <= 0.0 || x >= 1.0 {} }").is_empty());
        // Fat arrow and compound assignment are not comparisons.
        assert!(rules("fn f() { match x { _ => 0.0 }; y += 1.0; }").is_empty());
    }

    #[test]
    fn partial_cmp_chain_detected() {
        assert_eq!(
            rules("fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"),
            vec!["FS02", "PF01"]
        );
        assert_eq!(
            rules("fn f() { let o = a.partial_cmp(&b).expect(\"nan\"); }"),
            vec!["FS02", "PF02"]
        );
        // partial_cmp without the panic chain is allowed.
        assert!(rules("fn f() { let o = a.partial_cmp(&b); }").is_empty());
    }

    #[test]
    fn cfg_test_items_are_masked() {
        let src = "fn real() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); panic!(); }\n}\n";
        assert!(rules(src).is_empty());
        // A cfg(test) fn (not just mods) is masked too.
        let src2 = "#[cfg(test)]\nfn helper() { x.unwrap(); }\nfn real() { y.unwrap(); }";
        let fs = run(src2);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        assert_eq!(rules("#[cfg(not(test))]\nfn f() { x.unwrap(); }"), vec!["PF01"]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        assert!(rules("// x.unwrap() and panic! in a comment\nfn f() {}").is_empty());
        assert!(rules("fn f() { let s = \"x.unwrap() == 0.0\"; }").is_empty());
    }

    #[test]
    fn crate_root_doc_lint() {
        let root = FileContext {
            rel_path: "crates/fake/src/lib.rs",
            crate_name: "fake",
            is_crate_root: true,
            profile: LintProfile::Strict,
        };
        let fs = analyze_source(root, "//! docs\npub fn f() {}\n");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule.as_str(), "DC01");
        let ok = analyze_source(root, "//! docs\n#![deny(missing_docs)]\npub fn f() {}\n");
        assert!(ok.is_empty());
        // A combined deny list also counts.
        let combined = analyze_source(root, "#![deny(unsafe_code, missing_docs)]\n");
        assert!(combined.is_empty());
    }

    #[test]
    fn unchecked_indexing_flagged() {
        assert_eq!(rules("fn f() { unsafe { v.get_unchecked(0) }; }"), vec!["PF04"]);
    }

    #[test]
    fn finding_display_format() {
        let fs = run("fn f() { x.unwrap(); }");
        let s = fs[0].to_string();
        assert!(s.starts_with("crates/fake/src/x.rs:1: PF01: "), "{s}");
    }
}
