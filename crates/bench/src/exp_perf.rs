//! `exp_perf`: inference hot-path latency — the seed (allocating,
//! re-normalizing) FFC observe loop vs the zero-allocation streaming
//! engine, at the deployed configuration.
//!
//! The seed path is reproduced here verbatim as `SeedFfc`: raw feature
//! rows in a `VecDeque`, cloned into a fresh `Vec<Vec<f64>>` and
//! re-normalized wholesale on every tick's `predict`. The streaming path
//! is the real [`FfcModel::observe`]. Before anything is timed, both
//! paths are driven over the same input stream and every per-tick
//! prediction is compared with `f64::to_bits` — the benchmark refuses to
//! report a speedup for an engine that is not bit-identical.
//!
//! Results land in `BENCH_inference.json` at the workspace root (mirrored
//! into `target/experiments/`) with the schema
//! `{bench, config, ns_per_iter, ticks_per_sec, speedup_vs_baseline}`
//! plus the baseline latency and the measured allocation count. The
//! `pidpiper-bench-perf` binary runs this with a counting global
//! allocator and fails if the streaming loop allocates at all.
//!
//! The `batched` section measures the PR-10 fleet kernels: N sessions'
//! per-tick inference fused into cache-blocked matrix–matrix products
//! ([`BatchedStreamingRegressor`]), timed as ns per *vehicle*-tick at
//! batch sizes 1/16/64/256 against the per-session streaming loop over
//! the same states and rows. Before each point is timed, both paths run
//! the same ticks and every output **and** every LSTM state is compared
//! with `f64::to_bits` — a divergence panics (nonzero exit from the
//! binary), so a non-identical kernel can never report a speedup.

use crate::harness::{experiments_dir, workspace_root};
use criterion::{black_box, Criterion};
use pidpiper_control::{ActuatorSignal, TargetState};
use pidpiper_core::features::{assemble, FeatureSet, SensorPrimitives};
use pidpiper_core::ffc::PipelineConfig;
use pidpiper_core::FfcModel;
use pidpiper_math::Vec3;
use pidpiper_missions::FlightPhase;
use pidpiper_ml::{
    BatchedStreamingRegressor, LstmRegressor, RegressorConfig, StreamState, StreamingRegressor,
};
use pidpiper_sensors::{EstimatedState, SensorReadings};
use std::collections::VecDeque;
use std::fs;
use std::time::Instant;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Timed `observe` ticks per path.
    pub ticks: usize,
    /// Untimed warm-up ticks (fills the window, faults in caches).
    pub warmup: usize,
    /// Regressor weight seed (latency does not depend on the values).
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            ticks: 20_000,
            warmup: 200,
            seed: 9,
        }
    }
}

impl PerfConfig {
    /// Reads `PIDPIPER_PERF_TICKS` (default 20 000; CI's perf-smoke job
    /// sets a reduced count).
    pub fn from_env() -> Self {
        let mut cfg = PerfConfig::default();
        if let Ok(v) = std::env::var("PIDPIPER_PERF_TICKS") {
            if let Ok(n) = v.parse::<usize>() {
                cfg.ticks = n.max(1);
            }
        }
        cfg
    }
}

/// Measured results for one benchmark run.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// The network/pipeline shape measured.
    pub config: RegressorConfig,
    /// Decimation factor of the measured pipeline.
    pub decimate: usize,
    /// Timed ticks per path.
    pub ticks: usize,
    /// Streaming-path latency, nanoseconds per `observe` tick.
    pub ns_per_iter: f64,
    /// Seed-path latency, nanoseconds per tick.
    pub baseline_ns_per_iter: f64,
    /// Streaming-path throughput, `observe` ticks per second.
    pub ticks_per_sec: f64,
    /// `baseline_ns_per_iter / ns_per_iter`.
    pub speedup_vs_baseline: f64,
    /// Heap allocations per streaming tick, when the caller supplied an
    /// allocation counter (the `pidpiper-bench-perf` binary does).
    pub allocations_per_tick: Option<f64>,
    /// The batched fleet-kernel measurements.
    pub batched: BatchedPerf,
}

/// One measured batched-inference point.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// Active lanes in the batch.
    pub batch: usize,
    /// Nanoseconds per vehicle-tick (gather + GEMM step/finish + scatter,
    /// divided by `batch`).
    pub ns_per_vehicle_tick: f64,
    /// Per-session streaming ns/vehicle-tick divided by this point's.
    pub speedup_vs_streaming: f64,
}

/// The `batched` section of [`PerfReport`]: fleet GEMM kernels vs the
/// per-session streaming loop.
#[derive(Debug, Clone)]
pub struct BatchedPerf {
    /// Per-session streaming loop cost, ns per vehicle-tick.
    pub scalar_ns_per_vehicle_tick: f64,
    /// Measured points at batch sizes 1 / 16 / 64 / 256, each gated on
    /// `to_bits` equality of outputs and states before timing.
    pub points: Vec<BatchPoint>,
}

/// Batch sizes the batched section measures.
const BATCH_POINTS: [usize; 4] = [1, 16, 64, 256];
/// Lanes in the per-session scalar baseline loop.
const SCALAR_LANES: usize = 64;
/// Pre-normalized input rows cycled through the timed loops (prime, so
/// lanes decorrelate without allocating per tick).
const ROW_POOL: usize = 509;
/// Ticks of the per-point `to_bits` equality gate.
const GATE_TICKS: usize = 40;

/// Deterministic pre-normalized row pool plus a warmed state per lane:
/// lane `i` is `window + i % 7` steps into its stream, so the gate and
/// the timed loops start from realistic, phase-skewed checkpoints.
fn batch_fixture(
    engine: &StreamingRegressor,
    lanes: usize,
) -> (Vec<Vec<f64>>, Vec<StreamState>) {
    let dim = engine.config().input_dim;
    let window = engine.config().window;
    let mut inf = engine.scratch();
    let pool: Vec<Vec<f64>> = (0..ROW_POOL)
        .map(|i| {
            let mut normed = vec![0.0; dim];
            let raw: Vec<f64> = (0..dim)
                .map(|j| (((i * 31 + j * 7) as f64) * 0.013).sin() * 2.0)
                .collect();
            engine.normalize_into(&raw, &mut normed).expect("dim matches");
            normed
        })
        .collect();
    let states: Vec<StreamState> = (0..lanes)
        .map(|i| {
            let mut s = engine.state();
            for t in 0..window + i % 7 {
                engine
                    .step_normed(&pool[(i + t) % ROW_POOL], &mut s, &mut inf)
                    .expect("dim matches");
            }
            s
        })
        .collect();
    (pool, states)
}

/// Runs `ticks` fleet-shaped batched iterations (gather, GEMM step +
/// finish, scatter, through the per-lane forms a fleet shard uses) over
/// `states`, mutating them in place.
fn batched_ticks(
    batched: &BatchedStreamingRegressor,
    scratch: &mut pidpiper_ml::BatchScratch,
    pool: &[Vec<f64>],
    states: &mut [StreamState],
    out: &mut [f64],
    start: usize,
    ticks: usize,
) {
    let n = states.len();
    let odim = out.len() / n.max(1);
    for t in start..start + ticks {
        for (lane, s) in states.iter().enumerate() {
            scratch.load_state(lane, s);
            scratch.load_row(lane, &pool[(t + lane) % ROW_POOL]);
        }
        batched.step_batch(scratch, n);
        batched.finish_batch(scratch, n);
        for (lane, s) in states.iter_mut().enumerate() {
            scratch.store_state(lane, s);
            scratch.read_output(lane, &mut out[lane * odim..(lane + 1) * odim]);
        }
        black_box(&mut *out);
    }
}

/// The per-session twin of [`batched_ticks`]: the same states and rows
/// through `step_normed` + `finish_into`, one session at a time.
fn scalar_ticks(
    engine: &StreamingRegressor,
    inf: &mut pidpiper_ml::InferenceScratch,
    pool: &[Vec<f64>],
    states: &mut [StreamState],
    out: &mut [f64],
    start: usize,
    ticks: usize,
) {
    let n = states.len();
    let odim = out.len() / n.max(1);
    for t in start..start + ticks {
        for (lane, s) in states.iter_mut().enumerate() {
            engine
                .step_normed(&pool[(t + lane) % ROW_POOL], s, inf)
                .expect("dim matches");
            engine
                .finish_into(s, inf, &mut out[lane * odim..(lane + 1) * odim])
                .expect("dim matches");
        }
        black_box(&mut *out);
    }
}

/// The `to_bits` equality gate for one batch size: both paths run
/// [`GATE_TICKS`] ticks from identical warmed states; every output and
/// every post-tick LSTM state must match bit-for-bit or the bench panics
/// (nonzero exit from `pidpiper-bench-perf`).
fn assert_batched_agrees(
    engine: &StreamingRegressor,
    batched: &BatchedStreamingRegressor,
    pool: &[Vec<f64>],
    warmed: &[StreamState],
) {
    let n = warmed.len();
    let odim = engine.config().output_dim;
    let mut scratch = batched.scratch(n);
    let mut inf = engine.scratch();
    let mut batch_states = warmed.to_vec();
    let mut scalar_states = warmed.to_vec();
    let mut batch_out = vec![0.0; n * odim];
    let mut scalar_out = vec![0.0; n * odim];
    for t in 0..GATE_TICKS {
        batched_ticks(batched, &mut scratch, pool, &mut batch_states, &mut batch_out, t, 1);
        // The scalar twin walks the same (t + lane) row schedule.
        for (lane, s) in scalar_states.iter_mut().enumerate() {
            engine
                .step_normed(&pool[(t + lane) % ROW_POOL], s, &mut inf)
                .expect("dim matches");
            engine
                .finish_into(s, &mut inf, &mut scalar_out[lane * odim..(lane + 1) * odim])
                .expect("dim matches");
        }
        for (a, b) in batch_out.iter().zip(&scalar_out) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "batched kernel diverged from streaming at batch {n}, tick {t}; \
                 refusing to benchmark"
            );
        }
        assert_eq!(
            batch_states, scalar_states,
            "batched LSTM state diverged from streaming at batch {n}, tick {t}; \
             refusing to benchmark"
        );
    }
}

/// Runs the batched section: equality gates, scalar baseline and the four
/// batch points.
fn run_batched(cfg: &PerfConfig) -> BatchedPerf {
    let set = FeatureSet::FfcPruned;
    let config = RegressorConfig::standard(set.dim(), ActuatorSignal::DIM);
    let model = LstmRegressor::new(config, cfg.seed);
    let engine = model.compile();
    let batched = BatchedStreamingRegressor::compile(&engine);
    let odim = config.output_dim;
    let ticks = cfg.ticks.max(1);

    // Per-session streaming baseline over SCALAR_LANES sessions.
    let (pool, warmed) = batch_fixture(&engine, SCALAR_LANES);
    let mut inf = engine.scratch();
    let mut states = warmed.clone();
    let mut out = vec![0.0; SCALAR_LANES * odim];
    let warmup = cfg.warmup.max(1);
    scalar_ticks(&engine, &mut inf, &pool, &mut states, &mut out, 0, warmup);
    let t0 = Instant::now();
    scalar_ticks(&engine, &mut inf, &pool, &mut states, &mut out, warmup, ticks);
    let scalar_ns = t0.elapsed().as_nanos() as f64 / (ticks * SCALAR_LANES) as f64;

    let mut points = Vec::with_capacity(BATCH_POINTS.len());
    for batch in BATCH_POINTS {
        let (pool, warmed) = batch_fixture(&engine, batch);
        // Gate first: timing only runs for a bit-identical kernel.
        assert_batched_agrees(&engine, &batched, &pool, &warmed);
        let mut scratch = batched.scratch(batch);
        let mut states = warmed.clone();
        let mut out = vec![0.0; batch * odim];
        batched_ticks(&batched, &mut scratch, &pool, &mut states, &mut out, 0, warmup);
        let t0 = Instant::now();
        batched_ticks(&batched, &mut scratch, &pool, &mut states, &mut out, warmup, ticks);
        let ns = t0.elapsed().as_nanos() as f64 / (ticks * batch) as f64;
        points.push(BatchPoint {
            batch,
            ns_per_vehicle_tick: ns,
            speedup_vs_streaming: scalar_ns / ns.max(f64::MIN_POSITIVE),
        });
    }

    BatchedPerf {
        scalar_ns_per_vehicle_tick: scalar_ns,
        points,
    }
}

/// The pre-streaming FFC observe loop, reproduced as the latency baseline:
/// raw rows in a `VecDeque`, cloned and re-normalized wholesale on every
/// tick's `predict`.
struct SeedFfc {
    regressor: LstmRegressor,
    feature_set: FeatureSet,
    decimate: usize,
    window: VecDeque<Vec<f64>>,
    step_counter: usize,
    last_prediction: Option<ActuatorSignal>,
}

impl SeedFfc {
    fn new(regressor: LstmRegressor, feature_set: FeatureSet, decimate: usize) -> Self {
        SeedFfc {
            window: VecDeque::with_capacity(regressor.config().window),
            regressor,
            feature_set,
            decimate,
            step_counter: 0,
            last_prediction: None,
        }
    }

    fn observe(
        &mut self,
        prims: &SensorPrimitives,
        target: &TargetState,
        phase: FlightPhase,
    ) -> Option<ActuatorSignal> {
        let features = assemble(
            self.feature_set,
            prims,
            target,
            phase,
            &ActuatorSignal::default(),
        );
        let n = self.regressor.config().window;
        if self.window.len() == n - 1 {
            let mut full: Vec<Vec<f64>> = Vec::with_capacity(n);
            full.extend(self.window.iter().cloned());
            full.push(features.clone());
            let y = self.regressor.predict(&full).expect("window is well-formed");
            self.last_prediction = Some(ActuatorSignal::from_array([y[0], y[1], y[2], y[3]]));
        }
        if self.step_counter.is_multiple_of(self.decimate) {
            if self.window.len() == n - 1 {
                self.window.pop_front();
            }
            self.window.push_back(features);
        }
        self.step_counter += 1;
        self.last_prediction
    }
}

/// A deterministic synthetic flight: smoothly varying pose/velocity (no
/// RNG, no simulator in the loop), pre-collected so the timed loops touch
/// only `observe`.
fn synthetic_inputs(n: usize) -> (Vec<SensorPrimitives>, TargetState) {
    let target = TargetState::hover_at(Vec3::new(30.0, 0.0, 5.0), 0.0);
    let prims = (0..n)
        .map(|i| {
            let t = i as f64 * 0.01;
            let est = EstimatedState {
                position: Vec3::new(2.0 * t, (0.7 * t).sin(), 5.0 + 0.3 * (0.4 * t).cos()),
                velocity: Vec3::new(2.0, 0.7 * (0.7 * t).cos(), -0.12 * (0.4 * t).sin()),
                attitude: Vec3::new(0.02 * (1.1 * t).sin(), 0.03 * (0.9 * t).cos(), 0.1 * t),
                body_rates: Vec3::new(
                    0.022 * (1.1 * t).cos(),
                    -0.027 * (0.9 * t).sin(),
                    0.1,
                ),
                ..Default::default()
            };
            SensorPrimitives::collect(&est, &SensorReadings::default())
        })
        .collect();
    (prims, target)
}

fn deployed_model(seed: u64) -> (FfcModel, SeedFfc) {
    let set = FeatureSet::FfcPruned;
    let config = RegressorConfig::standard(set.dim(), ActuatorSignal::DIM);
    let pipeline = PipelineConfig::default();
    let regressor = LstmRegressor::new(config, seed);
    (
        FfcModel::new(regressor.clone(), set, pipeline),
        SeedFfc::new(regressor, set, pipeline.decimate),
    )
}

fn assert_paths_agree(
    streaming: &mut FfcModel,
    seed: &mut SeedFfc,
    prims: &[SensorPrimitives],
    target: &TargetState,
) {
    for (i, p) in prims.iter().enumerate() {
        let a = streaming.observe(p, target, FlightPhase::Cruise { wp_index: 0 });
        let b = seed.observe(p, target, FlightPhase::Cruise { wp_index: 0 });
        let bits = |s: Option<ActuatorSignal>| s.map(|y| y.to_array().map(f64::to_bits));
        assert_eq!(
            bits(a),
            bits(b),
            "streaming engine diverged from the seed path at tick {i}; refusing to benchmark"
        );
    }
}

/// Runs the benchmark: equivalence gate, then timed seed and streaming
/// loops over the same synthetic flight.
///
/// `alloc_count`, when given, is read before and after the timed
/// streaming loop (the `pidpiper-bench-perf` binary passes its counting
/// global allocator); the per-tick allocation rate lands in the report.
pub fn run_perf(cfg: &PerfConfig, alloc_count: Option<&dyn Fn() -> u64>) -> PerfReport {
    let (mut streaming, mut seed) = deployed_model(cfg.seed);
    let window = streaming.network_config().window;
    let decimate = streaming.pipeline().decimate;
    // Enough ticks to fill the window several times over.
    let (gate_prims, target) = synthetic_inputs((window * decimate * 3).max(300));
    assert_paths_agree(&mut streaming, &mut seed, &gate_prims, &target);

    let (prims, target) = synthetic_inputs(cfg.warmup + cfg.ticks);
    let phase = FlightPhase::Cruise { wp_index: 0 };

    // Seed path: warm-up, then timed.
    let (mut streaming, mut seed) = deployed_model(cfg.seed);
    for p in &prims[..cfg.warmup] {
        black_box(seed.observe(p, &target, phase));
    }
    let t_seed = Instant::now();
    for p in &prims[cfg.warmup..] {
        black_box(seed.observe(p, &target, phase));
    }
    let baseline_ns = t_seed.elapsed().as_nanos() as f64 / cfg.ticks as f64;

    // Streaming path: warm-up (fills the ring and faults in every
    // preallocated buffer), then timed with the allocation counter
    // bracketing exactly the timed loop.
    for p in &prims[..cfg.warmup] {
        black_box(streaming.observe(p, &target, phase));
    }
    let allocs_before = alloc_count.map(|f| f());
    let t_stream = Instant::now();
    for p in &prims[cfg.warmup..] {
        black_box(streaming.observe(p, &target, phase));
    }
    let ns = t_stream.elapsed().as_nanos() as f64 / cfg.ticks as f64;
    let allocations_per_tick = alloc_count.zip(allocs_before).map(|(f, before)| {
        (f() - before) as f64 / cfg.ticks as f64
    });

    PerfReport {
        config: *streaming.network_config(),
        decimate,
        ticks: cfg.ticks,
        ns_per_iter: ns,
        baseline_ns_per_iter: baseline_ns,
        ticks_per_sec: 1e9 / ns.max(f64::MIN_POSITIVE),
        speedup_vs_baseline: baseline_ns / ns.max(f64::MIN_POSITIVE),
        allocations_per_tick,
        batched: run_batched(cfg),
    }
}

/// Renders the report as the `BENCH_inference.json` document.
pub fn to_json(r: &PerfReport) -> String {
    let allocs = match r.allocations_per_tick {
        Some(a) => format!("{a:.3}"),
        None => "null".to_string(),
    };
    let points = r
        .batched
        .points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "      {{\n",
                    "        \"batch\": {batch},\n",
                    "        \"ns_per_vehicle_tick\": {ns:.1},\n",
                    "        \"speedup_vs_streaming\": {speedup:.2}\n",
                    "      }}"
                ),
                batch = p.batch,
                ns = p.ns_per_vehicle_tick,
                speedup = p.speedup_vs_streaming,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"inference_hot_path\",\n",
            "  \"config\": {{\n",
            "    \"input_dim\": {input_dim},\n",
            "    \"output_dim\": {output_dim},\n",
            "    \"hidden\": {hidden},\n",
            "    \"fc_width\": {fc_width},\n",
            "    \"window\": {window},\n",
            "    \"decimate\": {decimate},\n",
            "    \"ticks\": {ticks}\n",
            "  }},\n",
            "  \"ns_per_iter\": {ns:.1},\n",
            "  \"baseline_ns_per_iter\": {base:.1},\n",
            "  \"ticks_per_sec\": {tps:.1},\n",
            "  \"speedup_vs_baseline\": {speedup:.2},\n",
            "  \"allocations_per_tick\": {allocs},\n",
            "  \"batched\": {{\n",
            "    \"scalar_ns_per_vehicle_tick\": {scalar_ns:.1},\n",
            "    \"points\": [\n{points}\n    ]\n",
            "  }}\n",
            "}}\n"
        ),
        input_dim = r.config.input_dim,
        output_dim = r.config.output_dim,
        hidden = r.config.hidden,
        fc_width = r.config.fc_width,
        window = r.config.window,
        decimate = r.decimate,
        ticks = r.ticks,
        ns = r.ns_per_iter,
        base = r.baseline_ns_per_iter,
        tps = r.ticks_per_sec,
        speedup = r.speedup_vs_baseline,
        allocs = allocs,
        scalar_ns = r.batched.scalar_ns_per_vehicle_tick,
        points = points,
    )
}

/// Writes `BENCH_inference.json` to the workspace root and mirrors it into
/// `target/experiments/`.
pub fn write_report(r: &PerfReport) {
    let body = to_json(r);
    for path in [
        workspace_root().join("BENCH_inference.json"),
        experiments_dir().join("BENCH_inference.json"),
    ] {
        if let Err(e) = fs::write(&path, &body) {
            eprintln!("warning: failed to write {}: {e}", path.display());
        }
    }
    println!(
        "exp_perf: streaming {:.0} ns/tick ({:.0} ticks/s), seed {:.0} ns/tick — {:.2}x; \
         allocations/tick: {}",
        r.ns_per_iter,
        r.ticks_per_sec,
        r.baseline_ns_per_iter,
        r.speedup_vs_baseline,
        r.allocations_per_tick
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "not measured".to_string()),
    );
    for p in &r.batched.points {
        println!(
            "exp_perf[batch {}]: {:.0} ns/vehicle-tick — {:.2}x vs streaming \
             ({:.0} ns/vehicle-tick)",
            p.batch,
            p.ns_per_vehicle_tick,
            p.speedup_vs_streaming,
            r.batched.scalar_ns_per_vehicle_tick,
        );
    }
}

/// Criterion-shim entry: per-tick latency of both paths as named benches,
/// then the JSON report from the calibrated loops above.
pub fn bench(c: &mut Criterion) {
    let cfg = PerfConfig::from_env();
    let (mut streaming, mut seed) = deployed_model(cfg.seed);
    let (prims, target) = synthetic_inputs(4096);
    let phase = FlightPhase::Cruise { wp_index: 0 };
    let mut i = 0usize;
    c.bench_function("ffc_observe_seed", |b| {
        b.iter(|| {
            i = (i + 1) % prims.len();
            black_box(seed.observe(&prims[i], &target, phase))
        })
    });
    let mut j = 0usize;
    c.bench_function("ffc_observe_streaming", |b| {
        b.iter(|| {
            j = (j + 1) % prims.len();
            black_box(streaming.observe(&prims[j], &target, phase))
        })
    });
    write_report(&run_perf(&cfg, None));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalence_gate_and_report_shape() {
        let cfg = PerfConfig {
            ticks: 50,
            warmup: 30,
            seed: 3,
        };
        let r = run_perf(&cfg, None);
        assert!(r.ns_per_iter > 0.0);
        assert!(r.baseline_ns_per_iter > 0.0);
        assert!(r.ticks_per_sec > 0.0);
        assert!(r.speedup_vs_baseline > 0.0);
        assert!(r.allocations_per_tick.is_none());
        // The batched section measured every point through its gate.
        assert_eq!(r.batched.points.len(), BATCH_POINTS.len());
        for (p, want) in r.batched.points.iter().zip(BATCH_POINTS) {
            assert_eq!(p.batch, want);
            assert!(p.ns_per_vehicle_tick > 0.0);
            assert!(p.speedup_vs_streaming > 0.0);
        }
        assert!(r.batched.scalar_ns_per_vehicle_tick > 0.0);
        let json = to_json(&r);
        assert!(json.contains("\"bench\": \"inference_hot_path\""));
        assert!(json.contains("\"speedup_vs_baseline\""));
        assert!(json.contains("\"allocations_per_tick\": null"));
        assert!(json.contains("\"batched\": {"));
        assert!(json.contains("\"scalar_ns_per_vehicle_tick\""));
        assert!(json.contains("\"batch\": 256"));
    }

    #[test]
    fn alloc_counter_is_plumbed_through() {
        let cfg = PerfConfig {
            ticks: 20,
            warmup: 25,
            seed: 3,
        };
        // A fake counter: pretends 40 allocations happened overall.
        let calls = std::cell::Cell::new(0u64);
        let counter = move || {
            let c = calls.get();
            calls.set(c + 40);
            c
        };
        let r = run_perf(&cfg, Some(&counter));
        assert_eq!(r.allocations_per_tick, Some(2.0));
        assert!(to_json(&r).contains("\"allocations_per_tick\": 2.000"));
    }
}
