//! The `fleet_steady` and `fleet_churn` workloads, driven through the
//! fleet crate's public API (`FleetEngine::submit` / `tick`) and timed
//! from outside.

use std::hint::black_box;
use std::time::Instant;

use pidpiper_control::ActuatorSignal;
use pidpiper_core::features::FeatureSet;
use pidpiper_faults::FaultSchedule;
use pidpiper_fleet::{
    FleetBatch, FleetConfig, FleetEngine, SessionParams, SessionSpec, ShardTickStats,
};
use pidpiper_missions::MissionBudget;
use pidpiper_ml::{BatchedStreamingRegressor, LstmRegressor, RegressorConfig, StreamingRegressor};

use crate::host;
use crate::report::Report;
use crate::stats::{self, SplitMix};

/// Shards of every fleet (sessions pin to `id % SHARDS`).
pub const SHARDS: usize = 64;
/// Weight seed of the fleet's synthetic model. Fleet cost does not depend
/// on weight values, so it is a deployment constant, not workload input.
const MODEL_SEED: u64 = 2021;
/// Lanes of one batched inference call (the fleet's batch width).
const LANES: usize = 64;
/// Fewest timed ticks: 100 for the p90 rank rule, rounded up so
/// percentiles sit on a whole number of decimation periods.
const MIN_TIMED_TICKS: usize = 120;
/// Timed ticks per second of `--seconds`, per shape: the tick count of a
/// run is a function of `--seconds` alone, never of machine speed. On the
/// 2-core reference host a steady tick takes ~0.2 s (so the 120-tick floor
/// governs) and a churn tick ~25 ms.
const STEADY_TICKS_PER_SECOND: f64 = 4.0;
const CHURN_TICKS_PER_SECOND: f64 = 32.0;
/// One session in this many carries a seeded fault schedule.
const FAULT_ONE_IN: u64 = 8;

/// The two fleet workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// ~41k resident sessions, full 64-lane batches, no arrivals.
    Steady,
    /// A near-constant population of a few thousand short-lived sessions.
    Churn,
}

/// Size of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Which workload.
    pub kind: Kind,
    /// Steady: resident sessions per shard. Churn: shard capacity.
    pub per_shard: usize,
    /// Churn: arrivals per period are drawn from this inclusive range.
    pub arrivals: (u64, u64),
    /// Churn: session lifetimes (step budgets) are drawn from this range.
    pub lifetime: (u64, u64),
}

impl Shape {
    /// `fleet_steady`: 640 sessions on each of 64 shards (40,960 sessions,
    /// ten full 64-lane batches per shard, ~210 MB of session state).
    pub const STEADY: Shape = Shape {
        kind: Kind::Steady,
        per_shard: 640,
        arrivals: (0, 0),
        lifetime: (0, 0),
    };
    /// `fleet_churn`: 36–72 arrivals per period living 20–90 ticks, a
    /// population near 3,000 (~47 sessions per shard) on shards of
    /// capacity 128.
    pub const CHURN: Shape = Shape {
        kind: Kind::Churn,
        per_shard: 128,
        arrivals: (36, 72),
        lifetime: (20, 90),
    };

    /// The reduced size the 1-vs-2-worker fingerprint gate runs.
    pub fn reduced(self) -> Shape {
        match self.kind {
            Kind::Steady => Shape {
                per_shard: 32,
                ..self
            },
            Kind::Churn => Shape {
                arrivals: (12, 24),
                ..self
            },
        }
    }

    /// Mean churn population per shard (mean arrivals times mean
    /// lifetime, over the shards): the width a churn batch typically has.
    pub fn churn_width(self) -> usize {
        let arrivals = (self.arrivals.0 + self.arrivals.1) as f64 / 2.0;
        let life = (self.lifetime.0 + self.lifetime.1) as f64 / 2.0 + 1.0;
        ((arrivals * life / SHARDS as f64).round() as usize).clamp(1, LANES)
    }
}

/// The engine configuration. Every field is set here: nothing is read
/// from the environment.
fn config(shape: Shape, workers: usize) -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        workers,
        shard_capacity: shape.per_shard,
        pending_capacity: 64,
        shard_cost_budget: u64::MAX,
        session: SessionParams::default(),
        batch: FleetBatch::Batched,
    }
}

/// Ticks until every session admitted at tick 0 has a full history ring:
/// `(window - 1) * decimate`, from the model and session configuration.
pub fn warmup_ticks(engine: &FleetEngine) -> usize {
    (engine.model().config().window - 1) * engine.config().session.decimate
}

fn with_seeded_fault(spec: SessionSpec, rng: &mut SplitMix) -> SessionSpec {
    if rng.range(0, FAULT_ONE_IN - 1) != 0 {
        return spec;
    }
    let start = 0.2 + 1.8 * rng.unit();
    let on = 0.3 + 1.2 * rng.unit();
    let off = 1.0 + 3.0 * rng.unit();
    spec.with_fault(FaultSchedule::Intermittent { start, on, off })
}

/// The steady fleet's session `id`: a pure function of `(seed, id)`.
pub fn steady_spec(seed: u64, id: u64) -> SessionSpec {
    let mut rng = SplitMix::new(seed, 0x5EED_0000 ^ id);
    let spec = SessionSpec::new(id, rng.next_u64());
    with_seeded_fault(spec, &mut rng)
}

/// Seeded arrival stream of the churn workload.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: SplitMix,
    next_id: u64,
    shape: Shape,
}

impl Arrivals {
    /// The arrival stream for `seed`.
    pub fn new(seed: u64, shape: Shape) -> Self {
        Arrivals {
            rng: SplitMix::new(seed, 0xC4_0000),
            next_id: 0,
            shape,
        }
    }

    /// The next period's arrivals. Each session's step budget is its
    /// lifetime: expiry is the engine's only exit, so it is a completion.
    pub fn next_batch(&mut self) -> Vec<SessionSpec> {
        let (lo, hi) = self.shape.arrivals;
        let n = self.rng.range(lo, hi);
        (0..n)
            .map(|_| {
                let id = self.next_id;
                self.next_id += 1;
                let (l0, l1) = self.shape.lifetime;
                let life = self.rng.range(l0, l1);
                let spec = SessionSpec::new(id, self.rng.next_u64())
                    .with_budget(MissionBudget::default().with_step_budget(life));
                with_seeded_fault(spec, &mut self.rng)
            })
            .collect()
    }
}

/// What submitting a batch produced.
#[derive(Debug, Default, Clone, Copy)]
struct Submitted {
    count: u64,
    rejected: u64,
}

fn submit_all(
    engine: &mut FleetEngine,
    specs: Vec<SessionSpec>,
    submit_ns: Option<&mut Vec<f64>>,
) -> Submitted {
    let mut out = Submitted::default();
    match submit_ns {
        None => {
            for spec in specs {
                out.count += 1;
                out.rejected += u64::from(engine.submit(spec).is_err());
            }
        }
        Some(times) => {
            for spec in specs {
                let t = Instant::now();
                let r = engine.submit(spec);
                times.push(t.elapsed().as_nanos() as f64);
                out.count += 1;
                out.rejected += u64::from(r.is_err());
            }
        }
    }
    out
}

/// A fleet between set-up and measurement.
struct Fleet {
    engine: FleetEngine,
    arrivals: Option<Arrivals>,
    submitted: Submitted,
}

impl Fleet {
    /// Builds the engine, admits the initial population (steady) and runs
    /// the ring-fill warm-up. Submission times are collected when asked.
    fn build(
        shape: Shape,
        seed: u64,
        workers: usize,
        mut submit_ns: Option<&mut Vec<f64>>,
    ) -> Fleet {
        let engine = FleetEngine::with_synthetic_model(config(shape, workers), MODEL_SEED);
        let warmup = warmup_ticks(&engine);
        let mut fleet = Fleet {
            engine,
            arrivals: None,
            submitted: Submitted::default(),
        };
        match shape.kind {
            Kind::Steady => {
                let n = (shape.per_shard * SHARDS) as u64;
                let specs = (0..n).map(|id| steady_spec(seed, id)).collect();
                fleet.submitted = submit_all(&mut fleet.engine, specs, submit_ns);
                fleet.engine.run_ticks(warmup);
            }
            Kind::Churn => {
                assert!(
                    shape.lifetime.1 < warmup as u64,
                    "churn lifetimes must end before ring fill"
                );
                fleet.arrivals = Some(Arrivals::new(seed, shape));
                for _ in 0..warmup {
                    fleet.period(submit_ns.as_deref_mut());
                }
            }
        }
        fleet
    }

    /// One period: churn submits its arrivals, then every fleet ticks.
    /// Returns the tick's stats and the tick call's duration in seconds.
    fn period(&mut self, submit_ns: Option<&mut Vec<f64>>) -> (ShardTickStats, f64) {
        if let Some(arrivals) = self.arrivals.as_mut() {
            let s = submit_all(&mut self.engine, arrivals.next_batch(), submit_ns);
            self.submitted.count += s.count;
            self.submitted.rejected += s.rejected;
        }
        let t = Instant::now();
        let stats = self.engine.tick();
        (stats, t.elapsed().as_secs_f64())
    }
}

/// Per-tick measurements of one timed loop.
#[derive(Debug, Default)]
struct Timed {
    tick_s: Vec<f64>,
    /// Whole period (churn submissions plus the tick), per tick.
    period_s: Vec<f64>,
    /// Sessions ticked, per tick.
    ticked: Vec<u64>,
    /// The engine's tick index of each timed tick.
    tick_index: Vec<u64>,
    session_ticks: u64,
    wall_s: f64,
    cpu_s: f64,
    stats: ShardTickStats,
    arrivals: u64,
    rejected: u64,
}

/// Timed ticks of a run of `seconds`: at least [`MIN_TIMED_TICKS`], and a
/// whole number of decimation periods.
fn timed_ticks(kind: Kind, seconds: f64, decimate: usize) -> usize {
    let rate = match kind {
        Kind::Steady => STEADY_TICKS_PER_SECOND,
        Kind::Churn => CHURN_TICKS_PER_SECOND,
    };
    ((seconds * rate) as usize)
        .max(MIN_TIMED_TICKS)
        .next_multiple_of(decimate.max(1))
}

/// Runs `ticks` periods, timing each tick.
fn timed_loop(fleet: &mut Fleet, ticks: usize, mut submit_ns: Option<&mut Vec<f64>>) -> Timed {
    let before = fleet.submitted;
    let mut t = Timed::default();
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    for _ in 0..ticks {
        let index = fleet.engine.ticks();
        let p0 = Instant::now();
        let (stats, dt) = fleet.period(submit_ns.as_deref_mut());
        t.period_s.push(p0.elapsed().as_secs_f64());
        t.ticked.push(stats.session_ticks);
        t.tick_s.push(dt);
        t.tick_index.push(index);
        t.session_ticks += stats.session_ticks;
        t.stats.merge(&stats);
    }
    t.wall_s = t0.elapsed().as_secs_f64();
    t.cpu_s = host::process_cpu_s() - cpu0;
    t.arrivals = fleet.submitted.count - before.count;
    t.rejected = fleet.submitted.rejected - before.rejected;
    t
}

/// Per-session fingerprints of the reduced fleet must not depend on the
/// worker count (1 vs 2), and the reduced run must admit everything.
fn gate(shape: Shape, seed: u64, report: &mut Report) {
    let reduced = shape.reduced();
    let run = |workers: usize| {
        let mut fleet = Fleet::build(reduced, seed, workers, None);
        for _ in 0..MIN_TIMED_TICKS / 4 {
            fleet.period(None);
        }
        (
            fleet.engine.session_fingerprints(),
            *fleet.engine.stats(),
            fleet.submitted.rejected,
        )
    };
    let (fp1, s1, r1) = run(1);
    let (fp2, s2, r2) = run(2);
    report.check(!fp1.is_empty() && fp1 == fp2, || {
        let diff = fp1.iter().zip(&fp2).filter(|(a, b)| a != b).count();
        format!(
            "fleet fingerprints differ between 1 and 2 workers ({diff} sessions of {})",
            fp1.len()
        )
    });
    report.check(s1 == s2, || {
        format!("fleet stats differ between 1 and 2 workers: {s1:?} vs {s2:?}")
    });
    report.check(r1 == 0 && r2 == 0 && s1.join_failures == 0, || {
        format!(
            "reduced fleet rejected {r1}/{r2} submissions, {} join failures",
            s1.join_failures
        )
    });
    if shape.kind == Kind::Churn {
        report.check(s1.retired > 0, || {
            "reduced churn fleet retired no session".to_string()
        });
    }
    report.context("gate_sessions", fp1.len().to_string());
}

/// Counts failures as the workload defines them.
fn count_failures(shape: Shape, fleet: &Fleet, timed: &Timed, report: &mut Report) {
    let stats = fleet.engine.stats();
    match shape.kind {
        Kind::Steady => {
            // One operation is one session-tick; a rejected submission, a
            // failed join or any retirement (nothing is scheduled to
            // retire) is a failure.
            report.attempted = timed.session_ticks;
            report.failed = fleet.submitted.rejected + stats.join_failures + stats.retired;
        }
        Kind::Churn => {
            // One operation is one arrival; budget expiry is a completion.
            report.attempted = timed.arrivals;
            report.failed = timed.rejected + stats.join_failures;
        }
    }
}

/// The end-to-end run: median set-up of `setups` fleets, then the timed
/// loop on the last one.
pub fn run(
    shape: Shape,
    seed: u64,
    seconds: f64,
    workers: usize,
    setups: usize,
    report: &mut Report,
) {
    gate(shape, seed, report);
    let mut setup_s = Vec::with_capacity(setups);
    let mut fleet = None;
    for _ in 0..setups.max(1) {
        drop(fleet.take());
        let t0 = Instant::now();
        fleet = Some(Fleet::build(shape, seed, workers, None));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Some(mut fleet) = fleet else { return };
    let ticks = timed_ticks(shape.kind, seconds, fleet.engine.config().session.decimate);
    let timed = timed_loop(&mut fleet, ticks, None);
    count_failures(shape, &fleet, &timed, report);

    report.put("setup_s", stats::median(&setup_s), "s");
    // Throughput per decimation period of ticks (each holds one push
    // tick), median over periods: a burst of host noise moves one block,
    // not the figure.
    let decimate = fleet.engine.config().session.decimate.max(1);
    let blocks: Vec<f64> = timed
        .ticked
        .chunks(decimate)
        .zip(timed.period_s.chunks(decimate))
        .map(|(n, t)| n.iter().sum::<u64>() as f64 / t.iter().sum::<f64>())
        .collect();
    report.put("steps_per_s", stats::median(&blocks), "steps/s");
    let per_session_s: Vec<f64> = timed
        .tick_s
        .iter()
        .zip(&timed.ticked)
        .map(|(t, &n)| t / n.max(1) as f64)
        .collect();
    report.put_percentile("cycle_us_p50", &per_session_s, 0.5, 1e6, "us");
    report.put_percentile("cycle_us_p90", &per_session_s, 0.9, 1e6, "us");
    report.put_percentile("tick_ms_p90", &timed.tick_s, 0.9, 1e3, "ms");
    report.context(
        "sessions_resident",
        fleet.engine.resident_sessions().to_string(),
    );
    report.context("setups", setup_s.len().to_string());
    report.context("timed_ticks", timed.tick_s.len().to_string());
}

/// The traced run: an untraced timed loop, then a traced one on the same
/// fleet (every submit timed, CPU sampled), plus the batched-kernel
/// probes. Fills every `fleet.*` and `ml.batched.*` metric.
pub fn trace(shape: Shape, seed: u64, seconds: f64, workers: usize, report: &mut Report) {
    gate(shape, seed, report);
    let rss0 = host::rss_bytes();
    let mut submit_ns = Vec::new();
    let mut fleet = Fleet::build(shape, seed, workers, Some(&mut submit_ns));
    let resident = fleet.engine.resident_sessions();
    let rss_growth = host::rss_bytes() - rss0;

    let ticks = timed_ticks(
        shape.kind,
        seconds / 2.0,
        fleet.engine.config().session.decimate,
    );
    let plain = timed_loop(&mut fleet, ticks, None);
    let traced_t0 = Instant::now();
    let traced = timed_loop(&mut fleet, ticks, Some(&mut submit_ns));
    let traced_wall = traced_t0.elapsed().as_secs_f64();
    count_failures(shape, &fleet, &traced, report);

    report.put_percentile("fleet.submit_ns_p50", &submit_ns, 0.5, 1.0, "ns");
    report.put_percentile("fleet.submit_ns_p99", &submit_ns, 0.99, 1.0, "ns");
    let s = fleet.engine.stats();
    report.put("fleet.admitted", s.admitted as f64, "count");
    report.put("fleet.queued", s.queued as f64, "count");
    report.put("fleet.rejected", s.rejected as f64, "count");
    report.put(
        "fleet.admitted_from_queue",
        s.admitted_from_queue as f64,
        "count",
    );
    report.put("fleet.retired", s.retired as f64, "count");
    report.put_percentile("fleet.tick_ms_p50", &traced.tick_s, 0.5, 1e3, "ms");
    // Sessions admitted together push their rings on the same tick phase
    // (tick index mod decimate); the phase with the slowest mean tick is
    // the push phase, the others are plain.
    let decimate = fleet.engine.config().session.decimate.max(1) as u64;
    let phase_ms = |r: u64, push: bool| -> Vec<f64> {
        traced
            .tick_s
            .iter()
            .zip(&traced.tick_index)
            .filter(|(_, i)| (*i % decimate == r) == push)
            .map(|(t, _)| t * 1e3)
            .collect()
    };
    let push_phase = (0..decimate)
        .max_by(|&a, &b| {
            stats::mean(&phase_ms(a, true)).total_cmp(&stats::mean(&phase_ms(b, true)))
        })
        .unwrap_or(0);
    report.put(
        "fleet.push_tick_ms_mean",
        stats::mean(&phase_ms(push_phase, true)),
        "ms",
    );
    report.put(
        "fleet.plain_tick_ms_mean",
        stats::mean(&phase_ms(push_phase, false)),
        "ms",
    );
    report.context("push_phase", push_phase.to_string());
    report.put(
        "fleet.worker_busy_share",
        traced.cpu_s / (traced.wall_s * workers as f64),
        "ratio",
    );
    report.put("fleet.tripped", traced.stats.tripped as f64, "count");
    report.put(
        "fleet.in_recovery",
        traced.stats.in_recovery as f64,
        "count",
    );
    report.put("fleet.degraded", traced.stats.degraded as f64, "count");
    report.put(
        "fleet.engine_bytes_per_session",
        fleet.engine.bytes_per_session() as f64,
        "B",
    );
    report.put(
        "fleet.rss_bytes_per_session",
        rss_growth / resident.max(1) as f64,
        "B",
    );

    // Stages seen from outside: admission (submit) and the tick call.
    let stage_s = traced.tick_s.iter().sum::<f64>()
        + submit_ns[submit_ns.len() - (traced.arrivals as usize)..]
            .iter()
            .sum::<f64>()
            * 1e-9;
    report.put_stage_sum_ratio(stage_s / traced_wall);
    let per = |t: &Timed| t.wall_s / t.session_ticks.max(1) as f64;
    report.put(
        "trace.overhead_pct",
        100.0 * (per(&traced) / per(&plain) - 1.0),
        "%",
    );

    batched_probe(shape, report);
    report.context("sessions_resident", resident.to_string());
    report.context(
        "timed_ticks",
        (plain.tick_s.len() + traced.tick_s.len()).to_string(),
    );
}

/// Dimensions of the deployed network.
fn deployed_config() -> RegressorConfig {
    RegressorConfig::standard(FeatureSet::FfcPruned.dim(), ActuatorSignal::DIM)
}

/// The synthetic deployed-shape engine the fleet runs.
pub fn engine() -> StreamingRegressor {
    LstmRegressor::new(deployed_config(), MODEL_SEED).compile()
}

/// Multiply-adds times two of one LSTM step plus the dense head, at `c`.
pub fn flops_per_step(c: &RegressorConfig) -> f64 {
    let (i, h, f, o) = (c.input_dim, c.hidden, c.fc_width, c.output_dim);
    (2 * 4 * h * (i + h) + 2 * 4 * h * (2 * h) + 2 * (f * h + 2 * f * f + o * f)) as f64
}

/// Bytes of weights one step streams (read once per batch).
fn weight_bytes(c: &RegressorConfig) -> f64 {
    let (i, h, f, o) = (c.input_dim, c.hidden, c.fc_width, c.output_dim);
    (8 * (4 * h * (i + h)
        + 4 * h
        + 4 * h * (2 * h)
        + 4 * h
        + f * h
        + f
        + 2 * (f * f + f)
        + o * f
        + o)) as f64
}

/// Median ns per vehicle-step of `BatchedStreamingRegressor` at `width`
/// lanes, over several timed repetitions of a step-plus-finish loop.
fn batched_ns(batched: &BatchedStreamingRegressor, width: usize) -> f64 {
    let c = *batched.engine().config();
    let mut scratch = batched.scratch(width);
    let mut rng = SplitMix::new(7, width as u64);
    let row: Vec<f64> = (0..c.input_dim).map(|_| rng.unit() - 0.5).collect();
    for lane in 0..width {
        scratch.load_row(lane, &row);
    }
    let iters = 200;
    let reps: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                batched.step_batch(black_box(&mut scratch), width);
                batched.finish_batch(&mut scratch, width);
            }
            black_box(&scratch);
            t.elapsed().as_nanos() as f64 / (iters * width) as f64
        })
        .collect();
    stats::median(&reps)
}

fn batched_probe(shape: Shape, report: &mut Report) {
    let batched = BatchedStreamingRegressor::compile(&engine());
    let c = *batched.engine().config();
    let ragged = Shape::CHURN.churn_width();
    report.put(
        "ml.batched.ns_per_vehicle_step.b64",
        batched_ns(&batched, LANES),
        "ns",
    );
    report.put(
        "ml.batched.ns_per_vehicle_step.ragged",
        batched_ns(&batched, ragged),
        "ns",
    );
    report.put(
        "ml.batched.flops_per_vehicle_step",
        flops_per_step(&c),
        "flop",
    );
    report.put(
        "ml.batched.weight_bytes_per_vehicle_step.b64",
        weight_bytes(&c) / LANES as f64,
        "B",
    );
    report.put(
        "ml.batched.weight_bytes_per_vehicle_step.ragged",
        weight_bytes(&c) / ragged as f64,
        "B",
    );
    report.context("ragged_width", ragged.to_string());
    report.context("fleet_kind", format!("\"{:?}\"", shape.kind));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_specs_follow_the_seed() {
        let a: Vec<SessionSpec> = (0..256).map(|id| steady_spec(11, id)).collect();
        let b: Vec<SessionSpec> = (0..256).map(|id| steady_spec(11, id)).collect();
        let c: Vec<SessionSpec> = (0..256).map(|id| steady_spec(12, id)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let faulted = a.iter().filter(|s| s.fault.is_some()).count();
        assert!(
            faulted > 0 && faulted < 128,
            "a seeded minority carries faults: {faulted}"
        );
    }

    #[test]
    fn churn_arrivals_follow_the_seed() {
        let draw = |seed| {
            let mut a = Arrivals::new(seed, Shape::CHURN);
            (0..20).flat_map(|_| a.next_batch()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        for s in draw(3) {
            let budget = s.budget.step_budget.expect("every arrival has a lifetime");
            assert!((20..=90).contains(&budget));
        }
    }

    #[test]
    fn warmup_is_derived_from_the_model() {
        let engine = FleetEngine::with_synthetic_model(config(Shape::CHURN, 1), MODEL_SEED);
        assert_eq!(warmup_ticks(&engine), 95);
        assert!(Shape::CHURN.lifetime.1 < 95);
    }

    #[test]
    fn reduced_churn_gate_is_worker_invariant() {
        let mut report = Report::default();
        gate(Shape::CHURN, 5, &mut report);
        assert!(report.correct(), "{:?}", report.failures());
    }
}
