//! The fleet throughput bench behind `pidpiper-fleet` and
//! `BENCH_fleet.json`.
//!
//! Three stages, mirroring the PR-5 perf bench's refuse-to-lie shape:
//!
//! 1. **Determinism gate** — a reduced fleet is run four times (1
//!    worker, several workers, different shard count, and per-session
//!    instead of batched inference) and every per-session fingerprint
//!    is compared bit-for-bit. The bench records the verdict; the
//!    `pidpiper-fleet` binary exits nonzero on a mismatch and CI's
//!    `fleet-smoke` job asserts the flags.
//! 2. **Admission exercise** — the full fleet is submitted with a
//!    deliberate overflow beyond capacity, so the report always carries
//!    real queued/rejected/quarantined counts, and a slice of sessions
//!    gets tight PR-4 budgets so retirement (and queue drainage) happens
//!    mid-run.
//! 3. **Timed runs** — every fleet tick is wall-clock timed, twice: a
//!    1-worker row (the configuration the determinism gate anchors on)
//!    and a multi-worker row (`workers` from `PIDPIPER_JOBS`), so the
//!    batched-inference speedup is measured where it matters. The report
//!    carries sustained session-ticks/sec, mean and p99 fleet-tick
//!    latency per row, and the measured marginal bytes/session.
//!
//! All knobs come from the environment (see `OPERATIONS.md`):
//! `PIDPIPER_FLEET_SESSIONS`, `PIDPIPER_FLEET_TICKS`,
//! `PIDPIPER_FLEET_SHARDS`, `PIDPIPER_FLEET_SHARD_CAPACITY`,
//! `PIDPIPER_FLEET_PENDING`, `PIDPIPER_FLEET_COST_BUDGET`,
//! `PIDPIPER_FLEET_STRATEGY` (the recovery strategy every session runs),
//! and `PIDPIPER_JOBS` for the worker pool. The timed fleet always runs
//! batched inference.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use pidpiper_faults::FaultSchedule;
use pidpiper_math::float::sort_floats;
use pidpiper_missions::{configured_jobs, MissionBudget, StrategyKind};

use crate::engine::{FleetBatch, FleetConfig, FleetEngine};
use crate::session::SessionSpec;

/// Bench configuration, read from the environment by the binary.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBenchConfig {
    /// Target concurrent sessions (`PIDPIPER_FLEET_SESSIONS`).
    pub sessions: usize,
    /// Timed fleet ticks (`PIDPIPER_FLEET_TICKS`).
    pub ticks: usize,
    /// Untimed warm-up fleet ticks.
    pub warmup: usize,
    /// Shard count (`PIDPIPER_FLEET_SHARDS`).
    pub shards: usize,
    /// Worker threads (`PIDPIPER_JOBS` via [`configured_jobs`]).
    pub workers: usize,
    /// Per-shard resident capacity (`PIDPIPER_FLEET_SHARD_CAPACITY`;
    /// default sized so the target session count just fits).
    pub shard_capacity: usize,
    /// Per-shard pending-queue capacity (`PIDPIPER_FLEET_PENDING`).
    pub pending_capacity: usize,
    /// Per-shard tick cost budget (`PIDPIPER_FLEET_COST_BUDGET`;
    /// `None` = capacity-limited only).
    pub cost_budget: Option<u64>,
    /// Model weight seed (scheduling does not depend on the values).
    pub seed: u64,
    /// Recovery strategy every session runs (`PIDPIPER_FLEET_STRATEGY`:
    /// `algorithm1` | `spec-compliance` | `diagnosis-guided`, plus the
    /// `spec` / `diagnosis` short aliases; unknown values fall back to
    /// the Algorithm 1 default).
    pub strategy: StrategyKind,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        let sessions = 100_000;
        let shards = 64;
        FleetBenchConfig {
            sessions,
            ticks: 25,
            warmup: 2,
            shards,
            workers: configured_jobs(),
            shard_capacity: sessions.div_ceil(shards),
            pending_capacity: 4,
            cost_budget: None,
            seed: 2021,
            strategy: StrategyKind::Algorithm1,
        }
    }
}

fn parse_usize(raw: Option<String>, default: usize) -> usize {
    raw.and_then(|v| v.parse::<usize>().ok())
        .map_or(default, |n| n.max(1))
}

impl FleetBenchConfig {
    /// Reads every `PIDPIPER_FLEET_*` knob (and `PIDPIPER_JOBS`) from the
    /// environment, falling back to the defaults above.
    pub fn from_env() -> Self {
        let mut cfg = FleetBenchConfig::default();
        cfg.sessions = parse_usize(std::env::var("PIDPIPER_FLEET_SESSIONS").ok(), cfg.sessions);
        cfg.ticks = parse_usize(std::env::var("PIDPIPER_FLEET_TICKS").ok(), cfg.ticks);
        cfg.shards = parse_usize(std::env::var("PIDPIPER_FLEET_SHARDS").ok(), cfg.shards);
        cfg.shard_capacity = parse_usize(
            std::env::var("PIDPIPER_FLEET_SHARD_CAPACITY").ok(),
            cfg.sessions.div_ceil(cfg.shards),
        );
        cfg.pending_capacity = parse_usize(
            std::env::var("PIDPIPER_FLEET_PENDING").ok(),
            cfg.pending_capacity,
        );
        cfg.cost_budget = std::env::var("PIDPIPER_FLEET_COST_BUDGET")
            .ok()
            .and_then(|v| v.parse::<u64>().ok());
        cfg.strategy = std::env::var("PIDPIPER_FLEET_STRATEGY")
            .ok()
            .and_then(|v| StrategyKind::parse(&v))
            .unwrap_or(cfg.strategy);
        cfg.workers = configured_jobs();
        cfg
    }

    fn fleet_config(&self, workers: usize) -> FleetConfig {
        let mut config = FleetConfig {
            shards: self.shards,
            workers,
            shard_capacity: self.shard_capacity,
            pending_capacity: self.pending_capacity,
            shard_cost_budget: self.cost_budget.unwrap_or(u64::MAX),
            batch: FleetBatch::Batched,
            ..FleetConfig::default()
        };
        config.session.strategy = self.strategy;
        config
    }
}

/// The determinism-gate verdict carried in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterminismGate {
    /// Sessions in the reduced gate fleet.
    pub gate_sessions: usize,
    /// Fleet ticks the gate ran.
    pub gate_ticks: usize,
    /// Whether 1-worker and multi-worker fleets produced bit-identical
    /// per-session fingerprints.
    pub worker_invariant: bool,
    /// Whether a different shard count also left every per-session
    /// fingerprint unchanged.
    pub shard_invariant: bool,
    /// Whether switching between batched and per-session inference left
    /// every per-session fingerprint unchanged (the PR-10 `to_bits`
    /// equality contract, enforced at fleet scale).
    pub batch_invariant: bool,
}

impl DeterminismGate {
    /// All three invariances hold.
    pub fn passed(&self) -> bool {
        self.worker_invariant && self.shard_invariant && self.batch_invariant
    }
}

/// One wall-clock-timed fleet row at a fixed worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRun {
    /// Worker threads this row ran with.
    pub workers: usize,
    /// Sustained session-ticks per second over the timed run.
    pub session_ticks_per_sec: f64,
    /// Mean fleet-tick latency (ms).
    pub tick_ms_mean: f64,
    /// 99th-percentile fleet-tick latency (ms).
    pub tick_ms_p99: f64,
}

/// Measured results of one fleet bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBenchReport {
    /// The configuration measured.
    pub cfg: FleetBenchConfig,
    /// Sessions resident when the timed run started.
    pub resident_sessions: usize,
    /// Sustained session-ticks per second over the multi-worker row.
    pub session_ticks_per_sec: f64,
    /// Mean fleet-tick latency over the multi-worker row (ms).
    pub tick_ms_mean: f64,
    /// 99th-percentile fleet-tick latency over the multi-worker row (ms).
    pub tick_ms_p99: f64,
    /// Every timed row: a 1-worker determinism-anchor row, then the
    /// multi-worker throughput row (`workers` from `PIDPIPER_JOBS`).
    /// When the configured worker count is 1 the rows coincide and only
    /// one is emitted.
    pub runs: Vec<TimedRun>,
    /// Measured marginal bytes per resident session.
    pub bytes_per_session: usize,
    /// Deterministic cost units of one session tick.
    pub session_cost: u64,
    /// Admission counters: submitted / admitted / queued / rejected /
    /// admitted-from-queue / quarantined.
    pub admission: [u64; 6],
    /// Health counters at the end of the run: in recovery, degraded,
    /// monitor-tripped session ticks during the last fleet tick.
    pub health: [u64; 3],
    /// The determinism-gate verdict.
    pub gate: DeterminismGate,
}

/// Builds the deterministic bench session mix: every 16th session runs
/// an intermittent fault schedule (phase-shifted per session), every
/// 1024th carries a tight PR-4 step budget so it quarantines mid-run and
/// frees capacity for queued sessions.
fn bench_spec(id: u64, run_ticks: usize, dt: f64) -> SessionSpec {
    let mut spec = SessionSpec::new(id, id.wrapping_mul(0x9E37_79B9) ^ 0xF1_EE7_u64);
    if id.is_multiple_of(16) {
        // Activation must land inside even a short (25-tick, 0.25 s) run:
        // start early, phase-shift by at most 12 ticks.
        let template = FaultSchedule::Intermittent {
            start: 0.03,
            on: 1.0,
            off: 4.0,
        };
        spec = spec.with_fault(template.shifted(0.01 * (id % 13) as f64));
    }
    if id.is_multiple_of(1024) {
        let budget = ((run_ticks as u64 * 2) / 3).max(1);
        // Alternate the two typed budget errors so both retirement paths
        // (StepBudgetExhausted, DeadlineExceeded) run at fleet scale.
        spec = if id.is_multiple_of(2048) {
            spec.with_budget(MissionBudget::default().with_deadline(budget as f64 * dt))
        } else {
            spec.with_budget(MissionBudget::default().with_step_budget(budget))
        };
    }
    spec
}

fn fingerprints_match(a: &FleetEngine, b: &FleetEngine) -> bool {
    a.session_fingerprints() == b.session_fingerprints()
}

/// Runs the reduced determinism gate: the same batched session mix under
/// (1 worker), (several workers) and (different shard count), plus the
/// per-session reference kernel ([`FleetBatch::PerSession`]), must yield
/// bit-identical per-session fingerprints, including retirement timing.
pub fn run_gate(cfg: &FleetBenchConfig) -> DeterminismGate {
    let gate_sessions = cfg.sessions.min(512);
    let gate_ticks = cfg.ticks.clamp(5, 30);
    let dt = 0.01;
    let build = |shards: usize, workers: usize, batch: FleetBatch| {
        let mut engine = FleetEngine::with_synthetic_model(
            FleetConfig {
                shards,
                workers,
                shard_capacity: gate_sessions,
                pending_capacity: gate_sessions,
                shard_cost_budget: u64::MAX,
                batch,
                ..FleetConfig::default()
            },
            cfg.seed,
        );
        for id in 0..gate_sessions as u64 {
            // Capacity covers every submission; drop the infallible result.
            let _ = engine.submit(bench_spec(id, gate_ticks, dt));
        }
        engine.run_ticks(gate_ticks);
        engine
    };
    let serial = build(8, 1, FleetBatch::Batched);
    let parallel = build(8, cfg.workers.clamp(2, 8), FleetBatch::Batched);
    let resharded = build(5, 2, FleetBatch::Batched);
    let rebatched = build(8, 1, FleetBatch::PerSession);
    DeterminismGate {
        gate_sessions,
        gate_ticks,
        worker_invariant: fingerprints_match(&serial, &parallel),
        shard_invariant: fingerprints_match(&serial, &resharded),
        batch_invariant: fingerprints_match(&serial, &rebatched),
    }
}

/// Builds, fills (with deliberate overflow), warms up, and wall-clock
/// times one fleet at the given worker count. Returns the timed row plus
/// the finished engine, the last tick's health stats, and the resident
/// session count at the start of the timed loop.
fn timed_run(
    cfg: &FleetBenchConfig,
    workers: usize,
) -> (TimedRun, FleetEngine, crate::shard::ShardTickStats, usize) {
    let mut engine = FleetEngine::with_synthetic_model(cfg.fleet_config(workers), cfg.seed);
    let dt = engine.config().session.dt;
    for id in 0..cfg.sessions as u64 {
        let _ = engine.submit(bench_spec(id, cfg.ticks, dt));
    }
    // Deliberate overflow: enough extra submissions to fill every pending
    // queue and force typed rejections, so backpressure is always
    // exercised and surfaced in the report.
    let overflow = (cfg.shards * cfg.pending_capacity + 128) as u64;
    for id in cfg.sessions as u64..cfg.sessions as u64 + overflow {
        let _ = engine.submit(bench_spec(id, cfg.ticks, dt));
    }
    let resident = engine.resident_sessions();

    engine.run_ticks(cfg.warmup);

    let mut latencies_ms: Vec<f64> = Vec::with_capacity(cfg.ticks);
    let mut last_stats = Default::default();
    let t0 = Instant::now();
    for _ in 0..cfg.ticks {
        let t = Instant::now();
        last_stats = engine.tick();
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let total_s = t0.elapsed().as_secs_f64();

    // Session ticks executed inside the timed loop only (retirements make
    // this a slight overcount; the bench mix retires <0.1% of sessions).
    let timed_session_ticks: u64 = (resident as u64) * cfg.ticks as u64;
    sort_floats(&mut latencies_ms);
    let n = latencies_ms.len().max(1);
    let p99_idx = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
    let mean = latencies_ms.iter().sum::<f64>() / n as f64;

    let row = TimedRun {
        workers,
        session_ticks_per_sec: timed_session_ticks as f64 / total_s.max(f64::MIN_POSITIVE),
        tick_ms_mean: mean,
        tick_ms_p99: latencies_ms.get(p99_idx).copied().unwrap_or(mean),
    };
    (row, engine, last_stats, resident)
}

/// Runs the full bench: gate, admission exercise, warm-up, and the two
/// timed rows (1 worker, then `cfg.workers`).
pub fn run(cfg: &FleetBenchConfig) -> FleetBenchReport {
    let gate = run_gate(cfg);

    let mut runs = Vec::with_capacity(2);
    if cfg.workers > 1 {
        let (row, _, _, _) = timed_run(cfg, 1);
        runs.push(row);
    }
    let (row, engine, last_stats, resident) = timed_run(cfg, cfg.workers);
    runs.push(row.clone());

    let s = engine.stats();
    FleetBenchReport {
        cfg: cfg.clone(),
        resident_sessions: resident,
        session_ticks_per_sec: row.session_ticks_per_sec,
        tick_ms_mean: row.tick_ms_mean,
        tick_ms_p99: row.tick_ms_p99,
        runs,
        bytes_per_session: engine.bytes_per_session(),
        session_cost: engine.session_cost(),
        admission: [
            s.submitted,
            s.admitted,
            s.queued,
            s.rejected,
            s.admitted_from_queue,
            s.retired,
        ],
        health: [
            last_stats.in_recovery,
            last_stats.degraded,
            last_stats.tripped,
        ],
        gate,
    }
}

/// Renders the report as the `BENCH_fleet.json` document.
pub fn to_json(r: &FleetBenchReport) -> String {
    let cost_budget = match r.cfg.cost_budget {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    };
    let runs = r
        .runs
        .iter()
        .map(|row| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"workers\": {workers},\n",
                    "      \"session_ticks_per_sec\": {tps:.1},\n",
                    "      \"fleet_tick_ms_mean\": {mean:.3},\n",
                    "      \"fleet_tick_ms_p99\": {p99:.3}\n",
                    "    }}"
                ),
                workers = row.workers,
                tps = row.session_ticks_per_sec,
                mean = row.tick_ms_mean,
                p99 = row.tick_ms_p99,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fleet_engine\",\n",
            "  \"config\": {{\n",
            "    \"sessions\": {sessions},\n",
            "    \"ticks\": {ticks},\n",
            "    \"shards\": {shards},\n",
            "    \"workers\": {workers},\n",
            "    \"shard_capacity\": {cap},\n",
            "    \"pending_capacity\": {pend},\n",
            "    \"cost_budget\": {cost_budget},\n",
            "    \"seed\": {seed},\n",
            "    \"strategy\": \"{strategy}\",\n",
            "    \"batch\": \"{batch}\"\n",
            "  }},\n",
            "  \"resident_sessions\": {resident},\n",
            "  \"session_ticks_per_sec\": {tps:.1},\n",
            "  \"fleet_tick_ms_mean\": {mean:.3},\n",
            "  \"fleet_tick_ms_p99\": {p99:.3},\n",
            "  \"runs\": [\n{runs}\n  ],\n",
            "  \"bytes_per_session\": {bps},\n",
            "  \"session_cost_units\": {cost},\n",
            "  \"admission\": {{\n",
            "    \"submitted\": {submitted},\n",
            "    \"admitted\": {admitted},\n",
            "    \"queued\": {queued},\n",
            "    \"rejected\": {rejected},\n",
            "    \"admitted_from_queue\": {from_queue},\n",
            "    \"quarantined\": {quarantined}\n",
            "  }},\n",
            "  \"health\": {{\n",
            "    \"in_recovery\": {in_recovery},\n",
            "    \"degraded\": {degraded},\n",
            "    \"tripped_session_ticks\": {tripped}\n",
            "  }},\n",
            "  \"determinism\": {{\n",
            "    \"gate_sessions\": {gate_sessions},\n",
            "    \"gate_ticks\": {gate_ticks},\n",
            "    \"worker_invariant\": {worker_invariant},\n",
            "    \"shard_invariant\": {shard_invariant},\n",
            "    \"batch_invariant\": {batch_invariant}\n",
            "  }}\n",
            "}}\n"
        ),
        sessions = r.cfg.sessions,
        ticks = r.cfg.ticks,
        shards = r.cfg.shards,
        workers = r.cfg.workers,
        cap = r.cfg.shard_capacity,
        pend = r.cfg.pending_capacity,
        cost_budget = cost_budget,
        seed = r.cfg.seed,
        strategy = r.cfg.strategy.name(),
        batch = FleetBatch::Batched.as_str(),
        resident = r.resident_sessions,
        runs = runs,
        tps = r.session_ticks_per_sec,
        mean = r.tick_ms_mean,
        p99 = r.tick_ms_p99,
        bps = r.bytes_per_session,
        cost = r.session_cost,
        submitted = r.admission[0],
        admitted = r.admission[1],
        queued = r.admission[2],
        rejected = r.admission[3],
        from_queue = r.admission[4],
        quarantined = r.admission[5],
        in_recovery = r.health[0],
        degraded = r.health[1],
        tripped = r.health[2],
        gate_sessions = r.gate.gate_sessions,
        gate_ticks = r.gate.gate_ticks,
        worker_invariant = r.gate.worker_invariant,
        shard_invariant = r.gate.shard_invariant,
        batch_invariant = r.gate.batch_invariant,
    )
}

/// Workspace root, resolved from this crate's manifest directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

/// Writes `BENCH_fleet.json` to the workspace root and mirrors it into
/// `target/experiments/`.
pub fn write_report(r: &FleetBenchReport) {
    let body = to_json(r);
    let root = workspace_root();
    let exp_dir = root.join("target").join("experiments");
    if let Err(e) = fs::create_dir_all(&exp_dir) {
        eprintln!("warning: failed to create {}: {e}", exp_dir.display());
    }
    for path in [
        root.join("BENCH_fleet.json"),
        exp_dir.join("BENCH_fleet.json"),
    ] {
        if let Err(e) = fs::write(&path, &body) {
            eprintln!("warning: failed to write {}: {e}", path.display());
        }
    }
    for row in &r.runs {
        println!(
            "exp_fleet[{} worker{}]: {:.0} session-ticks/s, tick p99 {:.2} ms (mean {:.2} ms)",
            row.workers,
            if row.workers == 1 { "" } else { "s" },
            row.session_ticks_per_sec,
            row.tick_ms_p99,
            row.tick_ms_mean,
        );
    }
    println!(
        "exp_fleet: {} sessions ({} inference), {} bytes/session; admission {:?}; \
         determinism gate: {}",
        r.resident_sessions,
        FleetBatch::Batched.as_str(),
        r.bytes_per_session,
        r.admission,
        if r.gate.passed() { "PASS" } else { "FAIL" },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetBenchConfig {
        FleetBenchConfig {
            sessions: 96,
            ticks: 8,
            warmup: 1,
            shards: 4,
            workers: 2,
            shard_capacity: 24,
            pending_capacity: 2,
            cost_budget: None,
            seed: 7,
            strategy: StrategyKind::Algorithm1,
        }
    }

    #[test]
    fn gate_passes_on_reduced_fleet() {
        let gate = run_gate(&small_cfg());
        assert!(gate.worker_invariant, "worker count changed results");
        assert!(gate.shard_invariant, "shard count changed results");
        assert!(gate.batch_invariant, "batching mode changed results");
        assert!(gate.passed());
    }

    #[test]
    fn report_shape_and_admission_accounting() {
        let cfg = small_cfg();
        let r = run(&cfg);
        assert!(r.session_ticks_per_sec > 0.0);
        assert!(r.tick_ms_p99 >= 0.0);
        assert!(r.tick_ms_mean > 0.0);
        assert!(r.bytes_per_session >= 4416, "ring + state floor");
        // submitted == admitted + queued + rejected.
        assert_eq!(
            r.admission[0],
            r.admission[1] + r.admission[2] + r.admission[3]
        );
        // The deliberate overflow forces queueing AND typed rejection.
        assert!(r.admission[2] > 0, "no backpressure exercised");
        assert!(r.admission[3] > 0, "no typed rejection exercised");
        // Two timed rows: the 1-worker anchor and the configured workers.
        assert_eq!(r.runs.len(), 2);
        assert_eq!(r.runs[0].workers, 1);
        assert_eq!(r.runs[1].workers, cfg.workers);
        assert!(r.runs.iter().all(|row| row.session_ticks_per_sec > 0.0));
        assert_eq!(r.session_ticks_per_sec, r.runs[1].session_ticks_per_sec);
        let json = to_json(&r);
        assert!(json.contains("\"bench\": \"fleet_engine\""));
        assert!(json.contains("\"session_ticks_per_sec\""));
        assert!(json.contains("\"fleet_tick_ms_p99\""));
        assert!(json.contains("\"bytes_per_session\""));
        assert!(json.contains("\"batch\": \"batched\""));
        assert!(json.contains("\"runs\": ["));
        assert!(json.contains("\"workers\": 1"));
        assert!(json.contains("\"workers\": 2"));
        assert!(json.contains("\"worker_invariant\": true"));
        assert!(json.contains("\"shard_invariant\": true"));
        assert!(json.contains("\"batch_invariant\": true"));
        assert!(json.contains("\"cost_budget\": null"));
    }

    #[test]
    fn single_worker_config_emits_one_row() {
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.sessions = 48;
        cfg.ticks = 6;
        let r = run(&cfg);
        assert_eq!(r.runs.len(), 1);
        assert_eq!(r.runs[0].workers, 1);
    }

    #[test]
    fn env_parsing_clamps_and_defaults() {
        assert_eq!(parse_usize(None, 7), 7);
        assert_eq!(parse_usize(Some("12".to_string()), 7), 12);
        assert_eq!(parse_usize(Some("0".to_string()), 7), 1);
        assert_eq!(parse_usize(Some("nope".to_string()), 7), 7);
    }
}
