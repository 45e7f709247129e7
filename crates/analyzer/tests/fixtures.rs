//! Integration tests: the analyzer against a corpus of fixture files with
//! seeded violations (exact rule ids and line numbers), clean fixtures,
//! allowlist suppression, and the CLI's exit codes.

use pidpiper_analyzer::{analyze_rel, Finding, RuleId};
use std::path::PathBuf;
use std::process::Command;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(fixture_path(name)).expect("fixture exists")
}

/// Analyzes a fixture as a regular (non-root) library file.
fn analyze_fixture(name: &str) -> Vec<(u32, &'static str)> {
    let src = fixture(name);
    let mut found: Vec<(u32, &'static str)> = analyze_rel(
        &format!("crates/fixture/src/{name}"),
        &src,
    )
    .iter()
    .map(|f: &Finding| (f.line, f.rule.as_str()))
    .collect();
    found.sort();
    found
}

#[test]
fn determinism_fixture_exact_findings() {
    assert_eq!(
        analyze_fixture("determinism.rs"),
        vec![
            (3, "DT03"),  // use HashMap
            (4, "DT01"),  // use SystemTime
            (8, "DT01"),  // Instant::now()
            (9, "DT01"),  // SystemTime::now()
            (15, "DT02"), // thread_rng()
            (20, "DT03"), // HashMap return type
            (21, "DT03"), // HashMap::new()
        ]
    );
}

#[test]
fn panics_fixture_exact_findings() {
    assert_eq!(
        analyze_fixture("panics.rs"),
        vec![
            (5, "PF01"),  // .unwrap()
            (10, "PF02"), // .expect("b")
            (15, "PF03"), // panic!
            (20, "PF04"), // get_unchecked
        ]
    );
}

#[test]
fn float_fixture_exact_findings() {
    assert_eq!(
        analyze_fixture("float_eq.rs"),
        vec![
            (5, "FS01"),  // x == 0.0
            (10, "FS01"), // x != 1.5
            (15, "FS02"), // partial_cmp().unwrap()
            (15, "PF01"), // ... which is also an unwrap
        ]
    );
}

#[test]
fn missing_docs_fixture_fires_only_at_crate_root() {
    let src = fixture("missing_docs.rs");
    let as_root = analyze_rel("crates/fixture/src/lib.rs", &src);
    assert_eq!(as_root.len(), 1);
    assert_eq!(as_root[0].rule, RuleId::Dc01MissingDocsLint);
    assert_eq!(as_root[0].line, 1);
    // The same content in a non-root module is fine.
    assert!(analyze_rel("crates/fixture/src/util.rs", &src).is_empty());
}

#[test]
fn clean_fixture_has_no_findings_even_as_crate_root() {
    let src = fixture("clean.rs");
    assert!(analyze_rel("crates/fixture/src/lib.rs", &src).is_empty());
}

#[test]
fn panics_fixture_is_exempt_in_the_bench_crate() {
    let src = fixture("panics.rs");
    let findings = analyze_rel("crates/bench/src/panics.rs", &src);
    assert!(
        findings.is_empty(),
        "bench is panic-exempt, got {findings:?}"
    );
    // ... but determinism still applies to bench.
    let det = analyze_rel("crates/bench/src/determinism.rs", &fixture("determinism.rs"));
    assert!(det.iter().all(|f| f.rule.as_str().starts_with("DT")));
    assert_eq!(det.len(), 7);
}

#[test]
fn fixtures_fire_at_full_strictness_in_the_faults_crate() {
    // The fault-injection crate is first-party *library* code feeding the
    // deterministic mission runner: unlike the bench exemption, every
    // panic-freedom rule applies there, and the determinism rules guard
    // its seeded RNG contract.
    let findings = analyze_rel("crates/faults/src/inject.rs", &fixture("panics.rs"));
    assert_eq!(
        findings.len(),
        4,
        "faults crate must not be panic-exempt: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule.as_str().starts_with("PF")));
    let det = analyze_rel("crates/faults/src/inject.rs", &fixture("determinism.rs"));
    assert_eq!(det.len(), 7);
    assert!(det.iter().all(|f| f.rule.as_str().starts_with("DT")));
}

fn run_analyzer(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pidpiper-analyzer"))
        .args(args)
        .output()
        .expect("analyzer binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_exits_nonzero_on_each_violation_fixture() {
    for name in ["determinism.rs", "panics.rs", "float_eq.rs"] {
        let path = fixture_path(name);
        let (code, stdout, _) = run_analyzer(&[path.to_str().expect("utf8 path")]);
        assert_eq!(code, Some(1), "{name} must fail the gate");
        // Output lines follow `path:line: RULE: message`.
        assert!(
            stdout.lines().all(|l| l.contains(".rs:") && l.contains(": ")),
            "malformed output for {name}: {stdout}"
        );
    }
}

#[test]
fn cli_exits_zero_on_clean_fixture() {
    let path = fixture_path("clean.rs");
    let (code, stdout, stderr) = run_analyzer(&[path.to_str().expect("utf8 path")]);
    assert_eq!(code, Some(0), "stdout: {stdout} stderr: {stderr}");
    assert!(stdout.is_empty());
    assert!(stderr.contains("clean"));
}

#[test]
fn cli_allowlist_suppresses_and_reports_stale_entries() {
    let target = fixture_path("allowlisted.rs");
    let target = target.to_str().expect("utf8 path");
    // Without the allow file: PF03 fires.
    let (code, stdout, _) = run_analyzer(&[target]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("PF03"), "{stdout}");
    // With it: suppressed, gate passes.
    let allow = fixture_path("fixtures.allow");
    let (code, stdout, stderr) =
        run_analyzer(&["--allow", allow.to_str().expect("utf8 path"), target]);
    assert_eq!(code, Some(0), "stdout: {stdout} stderr: {stderr}");
    assert!(stderr.contains("1 suppressed"), "{stderr}");
    // A stale allow entry is itself a finding.
    let stale = fixture_path("stale.allow");
    let (code, stdout, _) =
        run_analyzer(&["--allow", stale.to_str().expect("utf8 path"), target]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("AL01"), "{stdout}");
    assert!(stdout.contains("PF03"), "stale allow must not suppress: {stdout}");
}

#[test]
fn cli_usage_errors_exit_two() {
    let (code, _, stderr) = run_analyzer(&[]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage"), "{stderr}");
    let (code, _, _) = run_analyzer(&["--workspace", "extra.rs"]);
    assert_eq!(code, Some(2));
}

#[test]
fn cli_rejects_unknown_manifest_kind_with_file_line_diagnostic() {
    let manifest = fixture_path("det_banned.boundaries");
    let manifest = manifest.to_str().expect("utf8 path");
    let target = fixture_path("clean.rs");
    let (code, _, stderr) =
        run_analyzer(&["--boundaries", manifest, target.to_str().expect("utf8 path")]);
    assert_eq!(code, Some(2), "a malformed manifest is a usage error: {stderr}");
    assert!(
        stderr.contains(&format!("{manifest}:4: unknown entry kind `det_banned`")),
        "{stderr}"
    );
    // The list of accepted kinds comes from the parser's own table, so it
    // cannot advertise a kind the parser rejects.
    let (_, expected) = stderr.split_once("(expected one of: ").expect("kind list");
    assert!(expected.contains("det_root"), "{stderr}");
    assert!(!expected.contains("det_banned"), "{stderr}");
}

#[test]
fn workspace_scan_is_clean() {
    // The repo itself must pass its own gate (with the checked-in
    // allowlist and boundary manifest); this is the CI contract — zero
    // non-allowlisted findings, TB/DT04/DT05/CC included.
    let (code, stdout, stderr) = run_analyzer(&["--workspace"]);
    assert_eq!(
        code,
        Some(0),
        "workspace has findings:\n{stdout}\n{stderr}"
    );
}

#[test]
fn cli_json_report_on_clean_workspace() {
    let (code, stdout, stderr) = run_analyzer(&["--workspace", "--format", "json"]);
    assert_eq!(code, Some(0), "stdout: {stdout} stderr: {stderr}");
    assert!(stdout.contains("\"schema_version\": 1"), "{stdout}");
    assert!(stdout.contains("\"findings\": ["), "{stdout}");
    assert!(stdout.contains("\"scan_ms\": "), "{stdout}");
}

#[test]
fn cli_json_report_carries_findings_and_counts() {
    let path = fixture_path("determinism.rs");
    let (code, stdout, _) =
        run_analyzer(&["--format", "json", path.to_str().expect("utf8 path")]);
    assert_eq!(code, Some(1), "violations still fail the gate in json mode");
    assert!(stdout.contains("\"DT01\": 3"), "{stdout}");
    assert!(stdout.contains("\"DT03\": 3"), "{stdout}");
    assert!(stdout.contains("\"rule\": \"DT02\""), "{stdout}");
}
