//! The `mission_overt` workload: Table III-style overt-attack missions on
//! ArduCopter under the deployed PID-Piper, flown closed loop through
//! `MissionRunner::par_run_missions_with_jobs` and timed from outside
//! through `Defense` wrappers.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pidpiper_attacks::AttackPreset;
use pidpiper_control::{ActuatorSignal, QuadController, TargetState};
use pidpiper_core::strategy::RecoveryStrategy;
use pidpiper_core::{
    CusumMonitor, FfcHealthMonitor, FfcModel, PidPiper, PidPiperConfig, RecoveryContext,
    RecoveryWatchdog, SensorPrimitives, SensorSanitizer, SignalEnvelope, StrategyState,
};
use pidpiper_missions::{
    Defense, DefenseContext, HealthState, MissionAttack, MissionOutcome, MissionPlan,
    MissionResult, MissionRunner, MissionSpec, MonitorLevel, RunnerConfig, SensorChannel,
    StrategyKind,
};
use pidpiper_ml::LstmRegressor;
use pidpiper_sensors::{EstimatedState, Estimator, SensorReadings};
use pidpiper_sim::{ProfileParams, RvId, VehicleProfile};

use crate::host;
use crate::report::Report;
use crate::stats::{self, SplitMix};

/// Missions per `par_run_missions_with_jobs` call in the end-to-end run:
/// a 10 s run is one call. Each call ends with a tail where one worker
/// waits for the other's last mission, and its peak memory is the sum of
/// its missions' traces; over 160 missions both are steady from seed to
/// seed. Results are dropped after each call, so memory does not grow with
/// run length.
const CHUNK: usize = 160;
/// Missions per call in the traced run, which also holds a recording of
/// every control cycle (~600 B each) of the chunk.
const TRACE_CHUNK: usize = 32;
/// Seconds of wall time per block of the end-to-end run. The host's speed
/// swings from second to second and the push-and-replay cycles' cost with
/// it, so a percentile pooled over a run jumps between a fast and a slow
/// mode as the run's share of slow time shifts. Each block (~30k cycles)
/// sees about one speed; the reported figure is the blocks' percentiles
/// averaged, which moves in proportion to the shift.
const BLOCK_S: f64 = 0.5;
/// Missions per second of `--seconds`: the mission count of a run is a
/// function of `--seconds` alone, never of how fast the machine is, so one
/// seed always flies the same missions. About 20 missions a second fly on
/// the 2-core reference host, so a run times slightly less than
/// `--seconds`.
const MISSIONS_PER_SECOND: f64 = 16.0;
/// Sensor seeds of workload missions have this bit set, which keeps them
/// apart from the training traces' seeds (`500 + i`).
const SEED_BIT: u64 = 1 << 40;

/// One workload mission.
#[derive(Debug, Clone)]
pub struct Mission {
    /// What the runner flies.
    pub spec: MissionSpec,
    /// Whether an overt attack runs (else the mission flies clean).
    pub attacked: bool,
}

/// Overt preset `i % 3`, instantiated as the Table III experiment does.
fn overt_attack(i: usize) -> MissionAttack {
    let preset = AttackPreset::ALL[i % AttackPreset::ALL.len()];
    match preset {
        AttackPreset::GyroAtLanding => {
            MissionAttack::AtLanding(preset.instantiate(0.0, (0.0, f64::MAX)).kind)
        }
        _ => MissionAttack::Scheduled(preset.instantiate(8.0, (0.0, 0.0))),
    }
}

/// Mission `i` of the workload for `seed`: a straight-line (2 in 3) or
/// three-waypoint plan, overt preset `i % 3`, and about one mission in
/// four flown clean.
pub fn mission(seed: u64, i: usize) -> Mission {
    let mut rng = SplitMix::new(seed, 0x4D15_0000 ^ i as u64);
    let plan = if rng.range(0, 2) == 2 {
        MissionPlan::multi_waypoint(3, 25.0 + 10.0 * rng.unit(), 5.0, rng.next_u64())
    } else {
        MissionPlan::straight_line(20.0 + 25.0 * rng.unit(), 5.0)
    };
    let attacked = rng.range(0, 3) != 0;
    let config = RunnerConfig::for_rv(RvId::ArduCopter).with_seed(rng.next_u64() | SEED_BIT);
    let attacks = if attacked {
        vec![overt_attack(i)]
    } else {
        Vec::new()
    };
    Mission {
        spec: MissionSpec::clean(config, plan).with_attacks(attacks),
        attacked,
    }
}

/// Missions `first..first + n` for `seed`.
pub fn missions(seed: u64, first: usize, n: usize) -> Vec<Mission> {
    (first..first + n).map(|i| mission(seed, i)).collect()
}

/// Whether a mission's outcome counts as a failed operation: an attacked
/// mission that does not end `Success`, or a clean mission with any
/// recovery activation (a false positive).
fn mission_failed(m: &Mission, r: &MissionResult) -> bool {
    if m.attacked {
        r.outcome != MissionOutcome::Success
    } else {
        r.recovery_activations > 0
    }
}

type Sink<T> = Arc<Mutex<Vec<T>>>;

fn sink<T>() -> Sink<T> {
    Arc::new(Mutex::new(Vec::new()))
}

fn drain<T>(s: &Sink<T>) -> Vec<T> {
    std::mem::take(
        &mut *s
            .lock()
            .expect("no defense panics while pushing its measurements"),
    )
}

/// Flies `chunk` with a fresh defense per mission from `defense_for`.
/// A panic anywhere in the batch fails the whole chunk (`None`).
fn fly<F>(workers: usize, chunk: &[Mission], defense_for: F) -> Option<Vec<MissionResult>>
where
    F: Fn(usize) -> Box<dyn Defense + Send> + Sync,
{
    let specs: Vec<MissionSpec> = chunk.iter().map(|m| m.spec.clone()).collect();
    catch_unwind(AssertUnwindSafe(|| {
        MissionRunner::par_run_missions_with_jobs(workers, &specs, defense_for)
    }))
    .ok()
}

fn fingerprints(results: &[MissionResult]) -> Vec<u64> {
    results.iter().map(|r| r.trace.fingerprint()).collect()
}

/// The defense's externally visible state after a control step.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Visible {
    sanitized: Option<EstimatedState>,
    health: HealthState,
    in_recovery: bool,
    level: MonitorLevel,
    activations: usize,
    attribution: Option<SensorChannel>,
}

impl Visible {
    fn of(d: &dyn Defense) -> Self {
        Visible {
            sanitized: d.sanitized_estimate(),
            health: d.health_state(),
            in_recovery: d.in_recovery(),
            level: d.monitor_level(),
            activations: d.recovery_activations(),
            attribution: d.attribution(),
        }
    }
}

/// One recorded control cycle: the `DefenseContext` the runner passed and
/// what `PidPiper::observe` produced.
#[derive(Debug, Clone, Copy)]
struct Cycle {
    dt: f64,
    est: EstimatedState,
    readings: SensorReadings,
    target: TargetState,
    pid: ActuatorSignal,
    ml: Option<ActuatorSignal>,
    out: Option<ActuatorSignal>,
    after: Visible,
}

/// A mission's recording: the state before the first cycle, then cycles.
#[derive(Debug, Clone)]
struct Recording {
    index: usize,
    before: Visible,
    cycles: Vec<Cycle>,
}

fn bits(s: Option<ActuatorSignal>) -> Option<[u64; 4]> {
    s.map(|s| s.to_array().map(f64::to_bits))
}

/// Wall time of one mission from `Defense::reset` (the runner's first
/// call) to the defense being dropped (the mission's result is built).
#[derive(Debug, Default)]
struct Clock(Option<Instant>);

impl Clock {
    fn start(&mut self) {
        self.0 = Some(Instant::now());
    }
    fn seconds(&self) -> f64 {
        self.0.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }
}

/// Forwards every `Defense` call except `observe` to `$inner`.
macro_rules! forward_queries {
    ($inner:ident) => {
        fn name(&self) -> &str {
            self.$inner.name()
        }
        fn sanitized_estimate(&self) -> Option<EstimatedState> {
            self.$inner.sanitized_estimate()
        }
        fn monitor_level(&self) -> MonitorLevel {
            self.$inner.monitor_level()
        }
        fn in_recovery(&self) -> bool {
            self.$inner.in_recovery()
        }
        fn health_state(&self) -> HealthState {
            self.$inner.health_state()
        }
        fn recovery_activations(&self) -> usize {
            self.$inner.recovery_activations()
        }
        fn attribution(&self) -> Option<SensorChannel> {
            self.$inner.attribution()
        }
        fn configure_strategy(&mut self, kind: StrategyKind) {
            self.$inner.configure_strategy(kind)
        }
    };
}

/// End-to-end timing of one mission. Each sample comes with the time it
/// was taken, in seconds since the pass began.
#[derive(Debug, Default)]
struct Timing {
    observe_s: Vec<f64>,
    observe_at: Vec<f64>,
    step_s: Vec<f64>,
    step_at: Vec<f64>,
    wall_s: f64,
}

/// `PidPiper` with each `observe` call timed, plus the interval between
/// successive calls (one whole closed-loop control step).
struct Timed {
    inner: PidPiper,
    epoch: Instant,
    clock: Clock,
    last_enter: Option<Instant>,
    timing: Timing,
    sink: Sink<Timing>,
}

impl Defense for Timed {
    forward_queries!(inner);

    fn observe(&mut self, ctx: &DefenseContext<'_>) -> Option<ActuatorSignal> {
        let enter = Instant::now();
        let at = (enter - self.epoch).as_secs_f64();
        if let Some(prev) = self.last_enter {
            self.timing.step_s.push((enter - prev).as_secs_f64());
            self.timing.step_at.push(at);
        }
        self.last_enter = Some(enter);
        let out = self.inner.observe(ctx);
        self.timing.observe_s.push(enter.elapsed().as_secs_f64());
        self.timing.observe_at.push(at);
        out
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.clock.start();
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        self.timing.wall_s = self.clock.seconds();
        let timing = std::mem::take(&mut self.timing);
        self.sink
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(timing);
    }
}

/// `PidPiper` with every cycle's context and outputs recorded.
struct Recorder {
    inner: PidPiper,
    rec: Recording,
    sink: Sink<Recording>,
}

impl Defense for Recorder {
    forward_queries!(inner);

    fn observe(&mut self, ctx: &DefenseContext<'_>) -> Option<ActuatorSignal> {
        if self.rec.cycles.is_empty() {
            self.rec.before = Visible::of(&self.inner);
        }
        let out = self.inner.observe(ctx);
        self.rec.cycles.push(Cycle {
            dt: ctx.dt,
            est: *ctx.est,
            readings: *ctx.readings,
            target: *ctx.target,
            pid: ctx.pid_signal,
            ml: self.inner.last_ml_signal(),
            out,
            after: Visible::of(&self.inner),
        });
        out
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.rec.cycles.clear();
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        let rec = Recording {
            index: self.rec.index,
            before: self.rec.before,
            cycles: std::mem::take(&mut self.rec.cycles),
        };
        self.sink
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(rec);
    }
}

/// Replays a recording's outputs without computing anything, so the
/// closed loop flies the same mission at the cost of the runner, the
/// simulator, sensors, estimator and controller alone.
struct Replay {
    rec: Arc<Recording>,
    next: usize,
    clock: Clock,
    sink: Sink<f64>,
}

impl Replay {
    fn visible(&self) -> &Visible {
        match self
            .next
            .checked_sub(1)
            .and_then(|i| self.rec.cycles.get(i))
        {
            Some(c) => &c.after,
            None => &self.rec.before,
        }
    }
}

impl Defense for Replay {
    fn name(&self) -> &str {
        "replay"
    }
    fn observe(&mut self, _ctx: &DefenseContext<'_>) -> Option<ActuatorSignal> {
        let out = self.rec.cycles.get(self.next).and_then(|c| c.out);
        self.next += 1;
        out
    }
    fn sanitized_estimate(&self) -> Option<EstimatedState> {
        self.visible().sanitized
    }
    fn monitor_level(&self) -> MonitorLevel {
        self.visible().level
    }
    fn in_recovery(&self) -> bool {
        self.visible().in_recovery
    }
    fn health_state(&self) -> HealthState {
        self.visible().health
    }
    fn recovery_activations(&self) -> usize {
        self.visible().activations
    }
    fn attribution(&self) -> Option<SensorChannel> {
        self.visible().attribution
    }
    fn reset(&mut self) {
        self.next = 0;
        self.clock.start();
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        let wall = self.clock.seconds();
        self.sink
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(wall);
    }
}

/// Per-stage time of the traced replica, summed over a mission.
#[derive(Debug, Default, Clone)]
struct Stages {
    sanitizer: f64,
    features: f64,
    ffc: f64,
    supervisor: f64,
    monitor: f64,
    strategy: f64,
    /// `observe` span minus its child stages.
    glue: f64,
    ffc_plain: Vec<f64>,
    ffc_push: Vec<f64>,
    cycles: usize,
    recovery_cycles: usize,
    activations: usize,
    mismatches: usize,
    wall_s: f64,
}

impl Stages {
    fn merge(&mut self, o: &Stages) {
        self.sanitizer += o.sanitizer;
        self.features += o.features;
        self.ffc += o.ffc;
        self.supervisor += o.supervisor;
        self.monitor += o.monitor;
        self.strategy += o.strategy;
        self.glue += o.glue;
        self.ffc_plain.extend_from_slice(&o.ffc_plain);
        self.ffc_push.extend_from_slice(&o.ffc_push);
        self.cycles += o.cycles;
        self.recovery_cycles += o.recovery_cycles;
        self.activations += o.activations;
        self.mismatches += o.mismatches;
        self.wall_s += o.wall_s;
    }

    fn core_s(&self) -> f64 {
        self.sanitizer
            + self.features
            + self.ffc
            + self.supervisor
            + self.monitor
            + self.strategy
            + self.glue
    }
}

/// `PidPiper::observe` rebuilt from the core crate's public components,
/// in the same order, with a timer at every stage boundary. Each cycle's
/// ML signal and override are compared bit for bit with the recording.
struct Staged {
    config: PidPiperConfig,
    ffc: FfcModel,
    sanitizer: SensorSanitizer,
    monitor: CusumMonitor,
    ffc_health: FfcHealthMonitor,
    watchdog: RecoveryWatchdog,
    strategy: StrategyState,
    sanitized: Option<EstimatedState>,
    decimate: usize,
    expect: Arc<Recording>,
    stages: Stages,
    clock: Clock,
    sink: Sink<Stages>,
}

impl Staged {
    fn new(pp: &PidPiper, expect: Arc<Recording>, sink: Sink<Stages>) -> Self {
        let c = pp.config();
        let ffc = pp.ffc().clone();
        Staged {
            sanitizer: SensorSanitizer::new(ffc.pipeline().gate),
            monitor: CusumMonitor::with_drifts_and_lag(c.thresholds, c.drifts, c.lag_history)
                .with_saturation(c.cusum_saturation),
            ffc_health: FfcHealthMonitor::new(SignalEnvelope::default(), c.ffc_offline_after),
            watchdog: RecoveryWatchdog::new(c.max_recovery_steps),
            strategy: StrategyState::for_kind(c.strategy, c),
            sanitized: None,
            decimate: ffc.pipeline().decimate.max(1),
            ffc,
            config: *c,
            expect,
            stages: Stages::default(),
            clock: Clock::default(),
            sink,
        }
    }
}

impl Defense for Staged {
    fn name(&self) -> &str {
        "PID-Piper (staged)"
    }

    fn observe(&mut self, ctx: &DefenseContext<'_>) -> Option<ActuatorSignal> {
        let t0 = Instant::now();
        let (clean, shadow) = self.sanitizer.process(ctx.readings, ctx.dt);
        let t1 = Instant::now();
        let prims = SensorPrimitives::collect(&shadow, &clean);
        let t2 = Instant::now();
        let ml = self.ffc.observe(&prims, ctx.target, ctx.phase);
        let t3 = Instant::now();
        self.sanitized = Some(shadow);
        let (mut t4, mut t5) = (t3, t3);
        let out = match ml {
            None => None,
            Some(ml_signal) => {
                if !self.ffc_health.check(&ml_signal) {
                    if self.ffc_health.is_offline()
                        && (self.strategy.in_recovery() || self.strategy.is_degraded())
                    {
                        self.strategy.force_degraded();
                    }
                    t4 = Instant::now();
                    t5 = t4;
                    None
                } else {
                    t4 = Instant::now();
                    let tripped = self.monitor.update(&ml_signal, &ctx.pid_signal);
                    t5 = Instant::now();
                    let rctx = RecoveryContext {
                        readings: ctx.readings,
                        shadow: &shadow,
                        attitude_innovation: self.sanitizer.attitude_innovation(),
                        ml_signal,
                        pid_signal: ctx.pid_signal,
                        tripped,
                        phase: ctx.phase,
                        target: ctx.target,
                        t: ctx.t,
                        dt: ctx.dt,
                    };
                    self.strategy
                        .decide(&rctx, &mut self.monitor, &mut self.watchdog)
                }
            }
        };
        let t6 = Instant::now();
        let s = &mut self.stages;
        let d = |a: Instant, b: Instant| (b - a).as_secs_f64();
        s.sanitizer += d(t0, t1);
        s.features += d(t1, t2);
        s.ffc += d(t2, t3);
        s.supervisor += d(t3, t4);
        s.monitor += d(t4, t5);
        s.strategy += d(t5, t6);
        if s.cycles.is_multiple_of(self.decimate) {
            s.ffc_push.push(d(t2, t3));
        } else {
            s.ffc_plain.push(d(t2, t3));
        }
        let want = self.expect.cycles.get(s.cycles);
        if want.is_none_or(|w| bits(w.ml) != bits(ml) || bits(w.out) != bits(out)) {
            s.mismatches += 1;
        }
        s.cycles += 1;
        s.recovery_cycles += usize::from(self.strategy.in_recovery());
        s.glue += d(t6, Instant::now());
        out
    }

    fn sanitized_estimate(&self) -> Option<EstimatedState> {
        self.sanitized
    }
    fn monitor_level(&self) -> MonitorLevel {
        MonitorLevel {
            statistic: self.monitor.normalized_statistic(),
            threshold: 1.0,
        }
    }
    fn in_recovery(&self) -> bool {
        self.strategy.in_recovery()
    }
    fn health_state(&self) -> HealthState {
        self.strategy.health()
    }
    fn recovery_activations(&self) -> usize {
        self.strategy.activations()
    }
    fn attribution(&self) -> Option<SensorChannel> {
        self.strategy.attribution()
    }
    fn configure_strategy(&mut self, kind: StrategyKind) {
        if self.strategy.kind() != kind {
            self.config.strategy = kind;
            self.strategy = StrategyState::for_kind(kind, &self.config);
        }
    }
    fn reset(&mut self) {
        self.ffc.reset();
        self.sanitizer.reset();
        self.monitor.reset_all();
        self.ffc_health.reset();
        self.watchdog.rearm();
        self.strategy.reset();
        self.sanitized = None;
        self.stages = Stages::default();
        self.clock.start();
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        self.stages.wall_s = self.clock.seconds();
        self.stages.activations = self.strategy.activations();
        let stages = std::mem::take(&mut self.stages);
        self.sink
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(stages);
    }
}

/// What the end-to-end pass measured over all chunks.
#[derive(Debug, Default)]
struct Pass {
    missions: usize,
    failed: u64,
    steps: u64,
    wall_s: f64,
    cpu_s: f64,
    /// Σ per-mission wall time (reset to drop), i.e. worker-thread time.
    mission_wall_s: f64,
    observe_s: Vec<f64>,
    observe_at: Vec<f64>,
    step_s: Vec<f64>,
    step_at: Vec<f64>,
    mismatched_fingerprints: usize,
    /// When the pass began (its first timed chunk).
    epoch: Option<Instant>,
}

/// The model and the mission stream of one run.
pub struct Workload {
    pp: PidPiper,
    seed: u64,
    workers: usize,
}

impl Workload {
    /// Set-up: loads the kept model (checksum verified).
    pub fn setup(seed: u64, workers: usize) -> Result<Workload, String> {
        Ok(Workload {
            pp: crate::model::load()?,
            seed,
            workers,
        })
    }

    /// Flies one chunk with the timing wrapper and folds its timings and
    /// outcomes into `pass`. Returns the missions' trace fingerprints, or
    /// `None` when the chunk panicked (every mission in it then fails).
    fn timed_chunk(&self, chunk: &[Mission], pass: &mut Pass) -> Option<Vec<u64>> {
        let timings = sink::<Timing>();
        let cpu0 = host::process_cpu_s();
        let t0 = Instant::now();
        let epoch = *pass.epoch.get_or_insert(t0);
        let results = fly(self.workers, chunk, |_| {
            Box::new(Timed {
                inner: self.pp.clone(),
                epoch,
                clock: Clock::default(),
                last_enter: None,
                timing: Timing::default(),
                sink: timings.clone(),
            })
        });
        pass.wall_s += t0.elapsed().as_secs_f64();
        pass.cpu_s += host::process_cpu_s() - cpu0;
        pass.missions += chunk.len();
        let Some(results) = results else {
            pass.failed += chunk.len() as u64;
            return None;
        };
        let steps: usize = results.iter().map(|r| r.trace.len()).sum();
        pass.steps += steps as u64;
        for (m, r) in chunk.iter().zip(&results) {
            pass.failed += u64::from(mission_failed(m, r));
        }
        for t in drain(&timings) {
            pass.mission_wall_s += t.wall_s;
            pass.observe_s.extend_from_slice(&t.observe_s);
            pass.observe_at.extend_from_slice(&t.observe_at);
            pass.step_s.extend_from_slice(&t.step_s);
            pass.step_at.extend_from_slice(&t.step_at);
        }
        Some(fingerprints(&results))
    }

    /// Untimed reference flight of `chunk` with plain `PidPiper` clones.
    fn reference(&self, chunk: &[Mission]) -> Option<Vec<u64>> {
        fly(self.workers, chunk, |_| Box::new(self.pp.clone())).map(|r| fingerprints(&r))
    }

    /// The end-to-end run: [`chunks`] chunks of missions flown timed, each
    /// chunk's fingerprints checked against an untimed flight of the same
    /// missions.
    pub fn run(&self, seconds: f64, report: &mut Report) {
        let mut pass = Pass::default();
        let mut chunk_peak_mb = Vec::new();
        for k in 0..chunks(seconds, CHUNK) {
            host::reset_peak_rss();
            let chunk = missions(self.seed, k * CHUNK, CHUNK);
            let timed = self.timed_chunk(&chunk, &mut pass);
            let reference = self.reference(&chunk);
            // A chunk that panics must panic untimed too.
            if timed != reference {
                pass.mismatched_fingerprints += 1;
            }
            chunk_peak_mb.push(host::peak_rss_mb());
        }
        report.check(pass.mismatched_fingerprints == 0, || {
            format!(
                "{} chunks had trace fingerprints differ between timed and untimed flights",
                pass.mismatched_fingerprints
            )
        });
        report.attempted = pass.missions as u64;
        report.failed = pass.failed;
        report.put("steps_per_s", pass.steps as f64 / pass.wall_s, "steps/s");
        let cycles = stats::blocks(&pass.observe_at, &pass.observe_s, BLOCK_S);
        let steps = stats::blocks(&pass.step_at, &pass.step_s, BLOCK_S);
        report.put_block_percentile("cycle_us_p50", &cycles, 0.5, 1e6, "us");
        report.put_block_percentile("cycle_us_p90", &cycles, 0.9, 1e6, "us");
        report.put_block_percentile("tick_ms_p90", &steps, 0.9, 1e3, "ms");
        report.context("blocks", cycles.len().to_string());
        // A batch holds its missions' full traces until it returns, so the
        // memory to provision is one chunk's peak: the median over chunks,
        // with the peak mark reset before each.
        report.put("peak_rss_mb", stats::median(&chunk_peak_mb), "MiB");
        report.context("missions", pass.missions.to_string());
        report.context("steps", pass.steps.to_string());
    }

    /// The traced run: per chunk, an end-to-end-style timed flight, a
    /// recording flight, a flight under the staged replica, a flight under
    /// the output replay, and estimator / controller replays, over a
    /// quarter of the end-to-end run's missions (at least one chunk).
    pub fn trace(&self, seconds: f64, report: &mut Report) {
        let mut pass = Pass::default();
        let mut staged = Stages::default();
        let mut replay_wall = 0.0;
        let (mut est_s, mut ctrl_s, mut replayed) = (0.0, 0.0, 0u64);
        let quad = match VehicleProfile::for_rv(RvId::ArduCopter).params() {
            ProfileParams::Quad(p) => p,
            ProfileParams::Rover(_) => unreachable!("ArduCopter is a quadcopter"),
        };
        for k in 0..chunks(seconds / 4.0, TRACE_CHUNK) {
            let chunk = missions(self.seed, k * TRACE_CHUNK, TRACE_CHUNK);
            let Some(reference) = self.timed_chunk(&chunk, &mut pass) else {
                report.fail(format!("chunk {k} panicked, so it cannot be traced"));
                return;
            };

            let recs = sink::<Recording>();
            let recorded = fly(self.workers, &chunk, |i| {
                Box::new(Recorder {
                    inner: self.pp.clone(),
                    rec: Recording {
                        index: i,
                        before: Visible::of(&self.pp),
                        cycles: Vec::new(),
                    },
                    sink: recs.clone(),
                })
            });
            let mut recs = drain(&recs);
            recs.sort_by_key(|r| r.index);
            let recs: Vec<Arc<Recording>> = recs.into_iter().map(Arc::new).collect();

            let stage_sink = sink::<Stages>();
            let traced = fly(self.workers, &chunk, |i| {
                Box::new(Staged::new(&self.pp, recs[i].clone(), stage_sink.clone()))
            });
            for s in drain(&stage_sink) {
                staged.merge(&s);
            }

            let replay_sink = sink::<f64>();
            let replayed_flight = fly(self.workers, &chunk, |i| {
                Box::new(Replay {
                    rec: recs[i].clone(),
                    next: 0,
                    clock: Clock::default(),
                    sink: replay_sink.clone(),
                })
            });
            replay_wall += drain(&replay_sink).iter().sum::<f64>();

            for (name, flight) in [
                ("recording", recorded),
                ("staged replica", traced),
                ("output replay", replayed_flight),
            ] {
                let fp = flight.as_ref().map(|r| fingerprints(r));
                report.check(fp.as_ref() == Some(&reference), || {
                    format!("{name} flight fingerprints differ from the timed flight (chunk {k})")
                });
            }

            for rec in &recs {
                let (e, c, ok) = replay_estimator_and_controller(rec, &quad);
                est_s += e;
                ctrl_s += c;
                replayed += rec.cycles.len() as u64;
                report.check(ok, || {
                    format!(
                        "estimator/controller replay of mission {} diverged",
                        rec.index
                    )
                });
            }
        }
        report.check(staged.mismatches == 0, || {
            format!(
                "staged replica differs from PidPiper::observe on {} of {} cycles",
                staged.mismatches, staged.cycles
            )
        });
        report.attempted = pass.missions as u64;
        report.failed = pass.failed;

        let steps = pass.steps.max(1) as f64;
        let ns = |s: f64| s * 1e9 / steps;
        let e2e_step = ns(pass.mission_wall_s);
        let traced_step = ns(staged.wall_s);
        let runner_step = ns(replay_wall);
        let estimator = est_s * 1e9 / replayed.max(1) as f64;
        let control = ctrl_s * 1e9 / replayed.max(1) as f64;
        let missions_self = runner_step - estimator - control;
        report.put("missions.self_ns_per_step", missions_self, "ns");
        report.put(
            "missions.worker_idle_share",
            1.0 - pass.cpu_s / (pass.wall_s * self.workers as f64),
            "ratio",
        );
        report.put("sensors.estimator_ns", estimator, "ns");
        report.put("control.step_ns", control, "ns");
        report.put("core.sanitizer_ns", ns(staged.sanitizer), "ns");
        report.put("core.features_ns", ns(staged.features), "ns");
        report.put("core.supervisor_ns", ns(staged.supervisor), "ns");
        report.put("core.monitor_ns", ns(staged.monitor), "ns");
        report.put("core.strategy_ns", ns(staged.strategy), "ns");
        report.put("core.observe_glue_ns", ns(staged.glue), "ns");
        report.put_percentile("core.ffc.plain_ns_p50", &staged.ffc_plain, 0.5, 1e9, "ns");
        report.put_percentile("core.ffc.push_ns_p50", &staged.ffc_push, 0.5, 1e9, "ns");
        let ffc_calls = (staged.ffc_plain.len() + staged.ffc_push.len()).max(1) as f64;
        report.put(
            "core.ffc.push_share",
            staged.ffc_push.len() as f64 / ffc_calls,
            "ratio",
        );
        report.put("core.ffc.mean_ns", ns(staged.ffc), "ns");
        report.put(
            "core.strategy.recovery_share",
            staged.recovery_cycles as f64 / staged.cycles.max(1) as f64,
            "ratio",
        );
        report.put(
            "core.strategy.activations",
            staged.activations as f64,
            "count",
        );
        report.put_percentile("cycle_us_p99", &pass.observe_s, 0.99, 1e6, "us");

        let stage_sum = missions_self + estimator + control + ns(staged.core_s());
        report.put_stage_sum_ratio(stage_sum / traced_step);
        report.put(
            "trace.overhead_pct",
            100.0 * (traced_step / e2e_step - 1.0),
            "%",
        );
        report.put("trace.mission_step_ns", traced_step, "ns");

        stream_probe(self.pp.ffc(), report);
        report.context("trace_missions", pass.missions.to_string());
        report.context("trace_steps", pass.steps.to_string());
    }
}

/// Chunks of `size` missions a run of `seconds` flies (at least one).
fn chunks(seconds: f64, size: usize) -> usize {
    ((seconds * MISSIONS_PER_SECOND / size as f64).ceil() as usize).max(1)
}

/// Replays a recording through a fresh `Estimator` and `QuadController`:
/// returns the seconds each took and whether every output equals what
/// the closed loop produced (the raw estimate in `DefenseContext::est`,
/// the PID signal in `DefenseContext::pid_signal`).
fn replay_estimator_and_controller(
    rec: &Recording,
    quad: &pidpiper_sim::QuadParams,
) -> (f64, f64, bool) {
    let cycles = &rec.cycles;
    let mut estimator = Estimator::new();
    let t0 = Instant::now();
    let ests: Vec<EstimatedState> = cycles
        .iter()
        .map(|c| estimator.update(&c.readings, c.dt))
        .collect();
    let est_s = t0.elapsed().as_secs_f64();

    // The controller flies the sanitized estimate while the defense is
    // not nominal, and the previous cycle's override.
    let mut before = rec.before;
    let mut override_signal = None;
    let inputs: Vec<(EstimatedState, Option<ActuatorSignal>)> = cycles
        .iter()
        .map(|c| {
            let fed = if before.health != HealthState::Nominal {
                before.sanitized.unwrap_or(c.est)
            } else {
                c.est
            };
            let input = (fed, override_signal);
            before = c.after;
            override_signal = c.out;
            input
        })
        .collect();
    let mut controller = QuadController::new(quad);
    let t1 = Instant::now();
    let pids: Vec<ActuatorSignal> = cycles
        .iter()
        .zip(&inputs)
        .map(|(c, (est, ov))| controller.step(est, &c.target, *ov, c.dt).1)
        .collect();
    let ctrl_s = t1.elapsed().as_secs_f64();

    let ok = cycles.iter().zip(&ests).all(|(c, e)| c.est == *e)
        && cycles
            .iter()
            .zip(&pids)
            .all(|(c, p)| bits(Some(c.pid)) == bits(Some(*p)));
    (est_s, ctrl_s, ok)
}

/// `StreamingRegressor` step plus finish at the deployed FFC's shape.
fn stream_probe(ffc: &FfcModel, report: &mut Report) {
    let c = *ffc.network_config();
    let engine = LstmRegressor::new(c, 9).compile();
    let mut state = engine.state();
    let mut scratch = engine.scratch();
    let mut out = vec![0.0; c.output_dim];
    let mut rng = SplitMix::new(9, 0);
    let row: Vec<f64> = (0..c.input_dim).map(|_| rng.unit() - 0.5).collect();
    let iters = 2000;
    let reps: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                let stepped = engine
                    .step_normed(black_box(&row), &mut state, &mut scratch)
                    .is_ok()
                    && engine.finish_into(&state, &mut scratch, &mut out).is_ok();
                assert!(stepped, "deployed-shape buffers");
                black_box(&out);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    report.put("ml.stream.step_ns", stats::median(&reps), "ns");
    report.put(
        "ml.stream.flops_per_step",
        crate::fleet::flops_per_step(&c),
        "flop",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn describe(m: &Mission) -> String {
        format!(
            "{:?}|{:?}|{}|{}",
            m.spec.plan, m.spec.attacks, m.spec.config.sensor_seed, m.attacked
        )
    }

    #[test]
    fn mission_list_follows_the_seed() {
        let a: Vec<String> = missions(21, 0, 40).iter().map(describe).collect();
        let b: Vec<String> = missions(21, 0, 40).iter().map(describe).collect();
        let c: Vec<String> = missions(22, 0, 40).iter().map(describe).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mission_mix_matches_the_workload() {
        let ms = missions(21, 0, 400);
        let clean = ms.iter().filter(|m| !m.attacked).count();
        assert!(
            (70..130).contains(&clean),
            "about a quarter clean, got {clean}/400"
        );
        for m in &ms {
            assert!(
                m.spec.config.sensor_seed >= SEED_BIT,
                "apart from training seeds"
            );
            assert_eq!(m.attacked, !m.spec.attacks.is_empty());
        }
    }

    #[test]
    fn traced_stages_reconcile_and_reproduce_observe() {
        let w = Workload::setup(3, 2).expect("kept model loads");
        let mut report = Report::default();
        w.trace(0.0, &mut report);
        assert!(report.correct(), "{:?}", report.failures());
        let ratio = report.get("trace.stage_sum_ratio").expect("reported");
        assert!((0.9..=1.1).contains(&ratio), "stage sum ratio {ratio}");
    }
}
