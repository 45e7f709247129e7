//! Compact per-vehicle sessions: the unit of work the fleet engine
//! schedules.
//!
//! A [`VehicleSession`] is *not* a [`MissionRunner`] — the closed-loop
//! simulator flies one vehicle with full physics and costs far too much
//! to keep 100k of them resident. A session is the deployed monitoring
//! core only: the streaming FFC window (a [`StreamHistory`]: normalized
//! history ring plus checkpointed prefix state), four per-axis CUSUM
//! accumulators, and the PR-4 graceful-degradation supervisor, all folded
//! over a deterministic synthetic flight. Everything heavy — engine weights,
//! inference scratch, live `StreamState` — is shared per shard, so the
//! marginal cost of one more session is a few kilobytes (see
//! [`FleetEngine::bytes_per_session`]). Sessions have no tick of their
//! own: the shard's tick loop runs each session's prologue, inference and
//! epilogue over a chunk of sessions at a time.
//!
//! [`FleetEngine::bytes_per_session`]: crate::FleetEngine::bytes_per_session
//!
//! [`MissionRunner`]: pidpiper_missions::MissionRunner

use pidpiper_control::{ActuatorSignal, TargetState};
use pidpiper_core::features::{assemble_into, FeatureSet, SensorPrimitives};
use pidpiper_core::{SessionSupervisor, SignalEnvelope};
use pidpiper_faults::FaultSchedule;
use pidpiper_math::{Cusum, Vec3};
use pidpiper_missions::{
    Fingerprint, FlightPhase, HealthState, MissionBudget, MissionError, MissionSpec, StrategyKind,
};
use pidpiper_ml::{StreamHistory, StreamingRegressor};

/// What [`VehicleSession::begin_tick`] established before inference: the
/// simulated time, whether the fault schedule is active, and whether the
/// feature row normalized cleanly (it always does for engine-shaped
/// buffers; on the impossible mismatch the session holds its previous
/// prediction).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickPrologue {
    t: f64,
    fault_active: bool,
    pub(crate) normed_ok: bool,
}

/// Everything needed to admit one session to the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Stable session identity; also selects the shard
    /// (`id % shard_count`) and salts the synthetic flight.
    pub id: u64,
    /// Seed for the session's deterministic synthetic flight phases.
    pub seed: u64,
    /// The session's navigation target (trusted input `u(t)`).
    pub target: TargetState,
    /// Optional per-session fault schedule (fleet-scale injection: the
    /// engine phase-shifts one template per session via
    /// [`FaultSchedule::shifted`]).
    pub fault: Option<FaultSchedule>,
    /// PR-4 watchdog budget, reused per session: exceeding it retires the
    /// session into quarantine with a typed [`MissionError`].
    pub budget: MissionBudget,
}

impl SessionSpec {
    /// A spec with defaults: hover target, no fault, unlimited budget.
    pub fn new(id: u64, seed: u64) -> Self {
        SessionSpec {
            id,
            seed,
            target: TargetState::hover_at(Vec3::new(30.0, 0.0, 5.0), 0.0),
            fault: None,
            budget: MissionBudget::unlimited(),
        }
    }

    /// Derives a fleet session from a PR-4 [`MissionSpec`]: the seed from
    /// the runner config's sensor seed salted with `id`, the target from
    /// the plan's destination and the first scheduled fault (if any)
    /// phase-shifted by the session id so a fleet built from one template
    /// does not trip every monitor on the same tick.
    pub fn from_mission(id: u64, mission: &MissionSpec) -> Self {
        let fault = mission
            .config
            .faults
            .first()
            .map(|f| f.schedule.shifted(0.1 * (id % 997) as f64));
        SessionSpec {
            id,
            seed: mission.config.sensor_seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            target: TargetState::hover_at(mission.plan.destination(), 0.0),
            fault,
            budget: MissionBudget::unlimited(),
        }
    }

    /// Sets the fault schedule (builder style).
    pub fn with_fault(mut self, fault: FaultSchedule) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Sets the PR-4 budget (builder style).
    pub fn with_budget(mut self, budget: MissionBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Per-tick knobs shared by every session (owned by the engine config).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionParams {
    /// Control period (simulated seconds per tick).
    pub dt: f64,
    /// Feature-stream decimation: one history-ring push every `decimate`
    /// ticks (the deployed pipeline default is 5).
    pub decimate: usize,
    /// CUSUM drift `b` per axis.
    pub cusum_drift: f64,
    /// CUSUM saturation cap (bounds recovery lag, PR-3).
    pub cusum_cap: f64,
    /// Detection threshold `tau`: the monitor trips when any axis CUSUM
    /// exceeds it.
    pub tau: f64,
    /// EMA smoothing factor for the per-axis prediction baseline the
    /// residual is measured against.
    pub ema_alpha: f64,
    /// Consecutive bad predictions before the FFC latches offline.
    pub offline_after: usize,
    /// Recovery watchdog budget (consecutive recovery ticks).
    pub max_recovery_steps: usize,
    /// Bias (m) injected into the estimated-position features while the
    /// session's fault schedule is active — a GPS-spoof-shaped
    /// perturbation.
    pub fault_bias: f64,
    /// Recovery strategy shaping the trip/release decision the supervisor
    /// observes (the fleet-scale analogue of the core crate's
    /// `RecoveryStrategy` selection — see the `PIDPIPER_FLEET_STRATEGY`
    /// bench knob). The default, Algorithm 1, keeps session fingerprints
    /// bit-identical to pre-strategy fleets.
    pub strategy: StrategyKind,
}

impl Default for SessionParams {
    fn default() -> Self {
        SessionParams {
            dt: 0.01,
            decimate: 5,
            cusum_drift: 0.008,
            cusum_cap: 50.0,
            tau: 0.08,
            ema_alpha: 0.05,
            offline_after: 25,
            max_recovery_steps: 400,
            fault_bias: 35.0,
            strategy: StrategyKind::Algorithm1,
        }
    }
}

/// What one session tick produced (consumed by shard statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTick {
    /// Health state after this tick.
    pub health: HealthState,
    /// Whether the CUSUM monitor was tripped this tick.
    pub tripped: bool,
    /// Whether the session's fault schedule was active this tick.
    pub fault_active: bool,
}

/// One resident vehicle session: the compact struct the fleet engine
/// multiplexes.
///
/// Persistent state per session (everything else is shard-shared):
///
/// - a [`StreamHistory`]: the normalized feature ring of `window - 1`
///   rows plus the checkpointed prefix [`pidpiper_ml::StreamState`] — the
///   same streaming window the FFC keeps;
/// - four per-axis [`Cusum`] accumulators and their EMA baselines;
/// - the PR-4 [`SessionSupervisor`] (health monitor, recovery watchdog,
///   latched [`HealthState`]);
/// - a running [`Fingerprint`] over the session's behavioral channels —
///   the same FNV-1a mixer as `Trace::fingerprint`, which is what the
///   fleet determinism gate compares across worker counts.
#[derive(Debug, Clone)]
pub struct VehicleSession {
    spec: SessionSpec,
    /// Seed-derived phase offsets of the synthetic flight.
    phase: [f64; 3],
    /// Normalized history ring and the prefix state after it.
    history: StreamHistory,
    ticks_since_push: usize,
    ema: [f64; 4],
    ema_primed: bool,
    cusum: [Cusum; 4],
    supervisor: SessionSupervisor,
    fingerprint: Fingerprint,
    ticks: u64,
    spent: u64,
    last_prediction: [f64; 4],
    /// The axis the diagnosis-guided strategy currently blames (its CUSUM
    /// is excluded from the trip decision while recovering). Always `None`
    /// under the other strategies.
    blamed_axis: Option<usize>,
}

impl VehicleSession {
    /// Builds a session for `engine` from its spec.
    pub fn new(spec: SessionSpec, engine: &StreamingRegressor, params: &SessionParams) -> Self {
        let s = spec.seed;
        // Three phase offsets in [0, 2π), derived from the seed without RNG.
        let ph = |k: u64| ((s.wrapping_mul(k) % 6283) as f64) * 1e-3;
        VehicleSession {
            phase: [ph(0x9E37), ph(0x85EB), ph(0xC2B2)],
            history: StreamHistory::new(engine),
            ticks_since_push: 0,
            ema: [0.0; 4],
            ema_primed: false,
            cusum: [
                Cusum::new(params.cusum_drift),
                Cusum::new(params.cusum_drift),
                Cusum::new(params.cusum_drift),
                Cusum::new(params.cusum_drift),
            ],
            supervisor: SessionSupervisor::new(
                SignalEnvelope::default(),
                params.offline_after,
                params.max_recovery_steps,
            ),
            fingerprint: Fingerprint::new(),
            ticks: 0,
            spent: 0,
            last_prediction: [0.0; 4],
            blamed_axis: None,
            spec,
        }
    }

    /// The session's spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Stable session identity.
    pub fn id(&self) -> u64 {
        self.spec.id
    }

    /// Ticks flown so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The running behavioral fingerprint (FNV-1a over every tick's
    /// prediction bits, monitor statistic, flags and health state).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.value()
    }

    /// Current health state.
    pub fn health(&self) -> HealthState {
        self.supervisor.health()
    }

    /// Total recovery activations so far.
    pub fn recovery_activations(&self) -> usize {
        self.supervisor.recovery_activations()
    }

    /// The deterministic synthetic flight: smoothly varying pose and
    /// rates (same shape as the perf bench's synthetic inputs, salted by
    /// the session's phase offsets), with the fault bias applied to the
    /// position channels while the schedule is active.
    fn synthesize(&self, t: f64, fault_active: bool, bias: f64) -> SensorPrimitives {
        let [p0, p1, p2] = self.phase;
        let mut est = pidpiper_sensors::EstimatedState {
            position: Vec3::new(
                2.0 * t + p0,
                (0.7 * t + p1).sin(),
                5.0 + 0.3 * (0.4 * t + p2).cos(),
            ),
            velocity: Vec3::new(
                2.0,
                0.7 * (0.7 * t + p1).cos(),
                -0.12 * (0.4 * t + p2).sin(),
            ),
            attitude: Vec3::new(
                0.02 * (1.1 * t + p0).sin(),
                0.03 * (0.9 * t + p1).cos(),
                0.1 * t,
            ),
            body_rates: Vec3::new(
                0.022 * (1.1 * t + p0).cos(),
                -0.027 * (0.9 * t + p1).sin(),
                0.1,
            ),
            ..Default::default()
        };
        if fault_active {
            est.position.x += bias;
            est.position.y += bias;
        }
        SensorPrimitives::collect(&est, &pidpiper_sensors::SensorReadings::default())
    }

    /// First phase of a tick: budget checks, synthetic flight, feature
    /// assembly and normalization into `normed`. The shard's tick loop
    /// runs inference over a chunk of sessions between this and
    /// [`VehicleSession::finish_tick`].
    ///
    /// # Errors
    ///
    /// A typed [`MissionError`] when the session exceeds its PR-4 budget
    /// (deadline in simulated seconds, or step budget in ticks); the
    /// shard retires the session into quarantine.
    pub(crate) fn begin_tick(
        &mut self,
        engine: &StreamingRegressor,
        params: &SessionParams,
        feat: &mut Vec<f64>,
        normed: &mut [f64],
    ) -> Result<TickPrologue, MissionError> {
        let t = self.ticks as f64 * params.dt;
        self.spent += 1;
        if let Some(deadline) = self.spec.budget.deadline {
            if t > deadline {
                return Err(MissionError::DeadlineExceeded {
                    deadline,
                    reached: t,
                });
            }
        }
        if let Some(budget) = self.spec.budget.step_budget {
            if self.spent > budget {
                return Err(MissionError::StepBudgetExhausted {
                    budget,
                    spent: self.spent,
                });
            }
        }

        let fault_active = self.spec.fault.as_ref().is_some_and(|f| f.is_active(t));
        let prims = self.synthesize(t, fault_active, params.fault_bias);
        assemble_into(
            FeatureSet::FfcPruned,
            &prims,
            &self.spec.target,
            FlightPhase::Cruise { wp_index: 0 },
            &ActuatorSignal::default(),
            feat,
        );
        let normed_ok = engine.normalize_into(feat, normed).is_ok();
        Ok(TickPrologue {
            t,
            fault_active,
            normed_ok,
        })
    }

    /// Second phase of a tick: folds `prediction` through the monitor
    /// (EMA baseline → CUSUM → strategy trip decision), the supervisor and
    /// the fingerprint, and performs the decimated history-ring push.
    ///
    /// The prefix-checkpoint replay that follows a ring push is left to
    /// the caller, which runs the owed replays of a whole shard together;
    /// the returned flag is `true` when one is owed. Deferring is sound
    /// because the replay touches only the prefix checkpoint, which
    /// nothing after the ring push in this function reads.
    pub(crate) fn finish_tick(
        &mut self,
        engine: &StreamingRegressor,
        params: &SessionParams,
        prediction: [f64; 4],
        pro: &TickPrologue,
        normed: &[f64],
    ) -> (SessionTick, bool) {
        let TickPrologue {
            t, fault_active, ..
        } = *pro;
        self.last_prediction = prediction;

        // Residual per axis against a slow EMA baseline: smooth nominal
        // flight keeps the increments under the CUSUM drift; a fault-biased
        // feature jump parks the prediction on a new plateau and the
        // residual stays elevated for ~1/alpha ticks, accumulating into
        // the CUSUMs.
        if !self.ema_primed {
            self.ema = prediction;
            self.ema_primed = true;
        }
        let mut axis = [0.0f64; 4];
        for (a, &pred) in prediction.iter().enumerate() {
            let residual = (pred - self.ema[a]).abs();
            self.ema[a] += params.ema_alpha * (pred - self.ema[a]);
            let s = self.cusum[a].update(residual);
            self.cusum[a].saturate(params.cusum_cap);
            axis[a] = s.min(params.cusum_cap);
        }
        let stat = axis.iter().fold(0.0f64, |m, &v| m.max(v));
        let recovering = self.supervisor.health() == HealthState::Recovery;
        let tripped = match params.strategy {
            // The paper's Algorithm 1: trip whenever any axis CUSUM is
            // over threshold.
            StrategyKind::Algorithm1 => stat > params.tau,
            // Spec-compliance flavor: release hysteresis — once in
            // recovery, stay tripped until the statistic has decayed well
            // below threshold (back on spec), not merely under it.
            StrategyKind::SpecCompliance => {
                if recovering {
                    stat > 0.5 * params.tau
                } else {
                    stat > params.tau
                }
            }
            // Diagnosis-guided flavor: while recovering, the blamed axis's
            // CUSUM is excused from the trip decision, so the session can
            // hand control back on the health of the remaining axes even
            // under a persistent single-axis fault.
            StrategyKind::DiagnosisGuided => {
                let effective = match (recovering, self.blamed_axis) {
                    (true, Some(b)) => axis
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != b)
                        .fold(0.0f64, |m, (_, &v)| m.max(v)),
                    _ => stat,
                };
                let t = effective > params.tau;
                if t && self.blamed_axis.is_none() {
                    // Blame the axis carrying the largest statistic
                    // (first-max-wins: strict comparison over a fixed
                    // order keeps it deterministic).
                    let mut best = 0usize;
                    for (i, &v) in axis.iter().enumerate().skip(1) {
                        if v > axis[best] {
                            best = i;
                        }
                    }
                    self.blamed_axis = Some(best);
                } else if !t && !recovering {
                    self.blamed_axis = None;
                }
                t
            }
        };

        let y = ActuatorSignal::from_array(prediction);
        let health = self.supervisor.observe(&y, tripped);

        // Decimated history-ring push (the PR-5 layout); the prefix
        // replay it owes is the caller's.
        self.ticks_since_push += 1;
        let replay_owed = self.ticks_since_push >= params.decimate;
        if replay_owed {
            self.ticks_since_push = 0;
            // An engine-shaped row cannot fail to push.
            let _ = self.history.push(engine, normed);
        }

        // The per-session trace hook: same mixer as `Trace::fingerprint`.
        self.fingerprint.mix_f64(t);
        for v in prediction {
            self.fingerprint.mix_f64(v);
        }
        self.fingerprint.mix_f64(stat);
        self.fingerprint.mix_flag(tripped);
        self.fingerprint.mix_flag(fault_active);
        self.fingerprint.mix_health(health);

        self.ticks += 1;
        (
            SessionTick {
                health,
                tripped,
                fault_active,
            },
            replay_owed,
        )
    }

    /// The streaming window (the shard's inference source and replay
    /// grouping key).
    pub(crate) fn history(&self) -> &StreamHistory {
        &self.history
    }

    /// Mutable streaming window (the shard's replay target).
    pub(crate) fn history_mut(&mut self) -> &mut StreamHistory {
        &mut self.history
    }

    /// The previous tick's prediction — the shard's fallback when a
    /// lane's row failed to normalize (impossible for engine-shaped
    /// buffers).
    pub(crate) fn last_prediction(&self) -> [f64; 4] {
        self.last_prediction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidpiper_ml::{LstmRegressor, RegressorConfig};

    fn engine() -> StreamingRegressor {
        let set = FeatureSet::FfcPruned;
        let config = RegressorConfig::standard(set.dim(), ActuatorSignal::DIM);
        LstmRegressor::new(config, 42).compile()
    }

    /// One tick of a lone session through the per-session kernel: the
    /// shard's prologue, `StreamHistory::predict`, epilogue and the
    /// replay the epilogue owes.
    fn tick(
        s: &mut VehicleSession,
        eng: &StreamingRegressor,
        params: &SessionParams,
    ) -> Result<SessionTick, MissionError> {
        let mut normed = vec![0.0; eng.config().input_dim];
        let pro = s.begin_tick(eng, params, &mut Vec::new(), &mut normed)?;
        assert!(pro.normed_ok);
        let (mut inf, mut out) = (eng.scratch(), [0.0; 4]);
        s.history
            .predict(eng, &normed, &mut eng.state(), &mut inf, &mut out)
            .expect("engine-shaped");
        let (r, owed) = s.finish_tick(eng, params, out, &pro, &normed);
        if owed {
            s.history.replay(eng, &mut inf).expect("engine-shaped");
        }
        Ok(r)
    }

    #[test]
    fn nominal_session_stays_nominal_and_is_deterministic() {
        let eng = engine();
        let params = SessionParams::default();
        let mut a = VehicleSession::new(SessionSpec::new(3, 77), &eng, &params);
        let mut b = VehicleSession::new(SessionSpec::new(3, 77), &eng, &params);
        for _ in 0..300 {
            let ra = tick(&mut a, &eng, &params).expect("in budget");
            let rb = tick(&mut b, &eng, &params).expect("in budget");
            assert_eq!(ra, rb);
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.health(), HealthState::Nominal);
        assert_eq!(a.recovery_activations(), 0);
    }

    #[test]
    fn sessions_with_different_seeds_diverge() {
        let eng = engine();
        let params = SessionParams::default();
        let mut a = VehicleSession::new(SessionSpec::new(0, 1), &eng, &params);
        let mut b = VehicleSession::new(SessionSpec::new(1, 2), &eng, &params);
        for _ in 0..50 {
            let _ = tick(&mut a, &eng, &params).expect("in budget");
            let _ = tick(&mut b, &eng, &params).expect("in budget");
        }
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn faulted_session_trips_monitor_and_recovers_or_degrades() {
        let eng = engine();
        let params = SessionParams::default();
        let spec = SessionSpec::new(9, 5).with_fault(FaultSchedule::Continuous { start: 1.0 });
        let mut s = VehicleSession::new(spec, &eng, &params);
        let mut tripped_any = false;
        for _ in 0..600 {
            match tick(&mut s, &eng, &params) {
                Ok(r) => tripped_any |= r.tripped,
                Err(e) => panic!("unexpected quarantine: {e}"),
            }
        }
        assert!(tripped_any, "a 35 m position bias must trip the CUSUM");
        assert!(
            s.recovery_activations() > 0 || s.health() == HealthState::Degraded,
            "the supervisor must have reacted: health {:?}",
            s.health()
        );
    }

    #[test]
    fn strategies_are_deterministic_and_default_matches_algorithm1() {
        let eng = engine();
        // Every strategy is deterministic over a faulted flight, and the
        // default params run Algorithm 1 exactly (fingerprint identity
        // with an explicit Algorithm 1 selection).
        let fp = |strategy: StrategyKind| {
            let params = SessionParams {
                strategy,
                ..SessionParams::default()
            };
            let spec = SessionSpec::new(9, 5).with_fault(FaultSchedule::Continuous { start: 1.0 });
            let mut s = VehicleSession::new(spec, &eng, &params);
            for _ in 0..600 {
                tick(&mut s, &eng, &params).expect("in budget");
            }
            (s.fingerprint(), s.recovery_activations(), s.health())
        };
        for kind in StrategyKind::ALL {
            assert_eq!(fp(kind), fp(kind), "{kind} must be deterministic");
        }
        let default_params = SessionParams::default();
        assert_eq!(default_params.strategy, StrategyKind::Algorithm1);
        assert_eq!(fp(StrategyKind::Algorithm1).0, {
            let spec = SessionSpec::new(9, 5).with_fault(FaultSchedule::Continuous { start: 1.0 });
            let mut s = VehicleSession::new(spec, &eng, &default_params);
            for _ in 0..600 {
                tick(&mut s, &eng, &default_params).expect("in budget");
            }
            s.fingerprint()
        });
    }

    #[test]
    fn diagnosis_strategy_blames_then_clears() {
        let eng = engine();
        let params = SessionParams {
            strategy: StrategyKind::DiagnosisGuided,
            ..SessionParams::default()
        };
        // Fault window ends at t=3: blame must be assigned during the
        // fault and cleared once the session settles back to nominal.
        let spec = SessionSpec::new(9, 5).with_fault(FaultSchedule::Windows(vec![(1.0, 3.0)]));
        let mut s = VehicleSession::new(spec, &eng, &params);
        let mut blamed_during = false;
        for _ in 0..1500 {
            tick(&mut s, &eng, &params).expect("in budget");
            blamed_during |= s.blamed_axis.is_some();
        }
        assert!(blamed_during, "the fault must draw blame onto an axis");
        if s.health() == HealthState::Nominal {
            assert_eq!(s.blamed_axis, None, "blame clears once nominal");
        }
    }

    #[test]
    fn budget_exhaustion_is_typed() {
        let eng = engine();
        let params = SessionParams::default();
        let spec =
            SessionSpec::new(1, 1).with_budget(MissionBudget::default().with_step_budget(10));
        let mut s = VehicleSession::new(spec, &eng, &params);
        let mut err = None;
        for _ in 0..20 {
            if let Err(e) = tick(&mut s, &eng, &params) {
                err = Some(e);
                break;
            }
        }
        assert!(
            matches!(
                err,
                Some(MissionError::StepBudgetExhausted { budget: 10, .. })
            ),
            "got {err:?}"
        );
        // Deadline variant.
        let spec = SessionSpec::new(2, 1).with_budget(MissionBudget::default().with_deadline(0.05));
        let mut s = VehicleSession::new(spec, &eng, &params);
        let mut err = None;
        for _ in 0..20 {
            if let Err(e) = tick(&mut s, &eng, &params) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(MissionError::DeadlineExceeded { .. })));
    }

    #[test]
    fn from_mission_derives_session_fields() {
        use pidpiper_missions::{MissionPlan, RunnerConfig};
        use pidpiper_sim::RvId;
        let spec = MissionSpec {
            config: RunnerConfig::for_rv(RvId::ArduCopter),
            plan: MissionPlan::straight_line(50.0, 5.0),
            attacks: Vec::new(),
        };
        let a = SessionSpec::from_mission(0, &spec);
        let b = SessionSpec::from_mission(1, &spec);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.target.position, spec.plan.destination());
        // Deterministic: same id, same mission, same spec.
        assert_eq!(a, SessionSpec::from_mission(0, &spec));
    }
}
