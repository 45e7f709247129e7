//! `pidpiper-fleet`: the fleet-scale session engine benchmark binary.
//!
//! Reads its configuration from `PIDPIPER_FLEET_*` / `PIDPIPER_JOBS`
//! environment knobs (see `OPERATIONS.md`), runs the determinism gate and
//! the timed fleet run, writes `BENCH_fleet.json` to the workspace root,
//! and exits non-zero if any per-session result differed across worker or
//! shard counts — bit-identical fleet ticks are a contract, not a
//! nice-to-have (CI's fleet-smoke job runs this binary).

use pidpiper_fleet::bench;

fn main() {
    let cfg = bench::FleetBenchConfig::from_env();
    eprintln!(
        "pidpiper-fleet: {} sessions x {} ticks, {} shards, {} workers",
        cfg.sessions, cfg.ticks, cfg.shards, cfg.workers
    );
    let report = bench::run(&cfg);
    bench::write_report(&report);
    if !report.gate.passed() {
        eprintln!(
            "FAIL: fleet determinism gate (worker_invariant={}, shard_invariant={}, \
             batch_invariant={}); per-session fingerprints must be bit-identical for \
             any worker count and batching mode",
            report.gate.worker_invariant, report.gate.shard_invariant, report.gate.batch_invariant,
        );
        std::process::exit(1);
    }
    println!("fleet determinism gate: OK");
}
