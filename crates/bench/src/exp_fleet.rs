//! Fleet-scale throughput experiment (`BENCH_fleet.json`).
//!
//! Thin delegation to [`pidpiper_fleet::bench`], so the fleet bench is
//! reachable both as the standalone `pidpiper-fleet` binary and through
//! the experiment harness alongside the paper benches. The fleet crate
//! owns the implementation (scheduler and bench evolve together); this
//! module only re-exports the entry points and provides the same
//! `run-everything` convenience shape as the other `exp_*` modules.

pub use pidpiper_fleet::bench::{
    run, run_gate, to_json, write_report, DeterminismGate, FleetBenchConfig, FleetBenchReport,
};

/// Runs the fleet bench at the environment-selected scale and writes
/// `BENCH_fleet.json`, returning the report.
pub fn run_and_report() -> FleetBenchReport {
    let cfg = FleetBenchConfig::from_env();
    let report = run(&cfg);
    write_report(&report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegated_bench_runs_at_tiny_scale() {
        let cfg = FleetBenchConfig {
            sessions: 24,
            ticks: 4,
            warmup: 1,
            shards: 3,
            workers: 2,
            shard_capacity: 8,
            pending_capacity: 1,
            cost_budget: None,
            seed: 11,
            strategy: pidpiper_missions::StrategyKind::Algorithm1,
        };
        let report = run(&cfg);
        assert!(report.gate.passed());
        assert!(to_json(&report).contains("\"bench\": \"fleet_engine\""));
    }
}
