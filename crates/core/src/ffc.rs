//! The feed-forward controller (FFC): an LSTM model that predicts the
//! actuator signal `y'(t)` from the sanitized current state `x(t)` and
//! the target state `u(t)`.
//!
//! The noise model (variance gate + shadow estimator) runs upstream in
//! [`crate::sanitizer::SensorSanitizer`]; this module owns the windowed
//! LSTM inference pipeline.

use crate::features::{assemble_into, FeatureSet, SensorPrimitives};
use crate::gate::GateConfig;
use pidpiper_control::{ActuatorSignal, TargetState};
use pidpiper_missions::FlightPhase;
use pidpiper_ml::{
    InferenceScratch, LstmRegressor, RegressorConfig, StreamHistory, StreamState,
    StreamingRegressor,
};

/// Runtime pipeline configuration shared by FFC and FBC models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Decimation: the model samples features every `decimate`-th control
    /// step (training and inference must match).
    pub decimate: usize,
    /// Gate configuration for the upstream sensor sanitizer.
    pub gate: GateConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            decimate: 5,
            gate: GateConfig::default(),
        }
    }
}

/// A deployed FFC: rolling feature window + streaming LSTM engine.
///
/// Call [`FfcModel::observe`] every control step with *sanitized*
/// primitives; the model decimates internally, refreshes its prediction
/// when a new window sample lands, and holds the latest prediction between
/// refreshes. `None` is returned until the window has filled (mission
/// start warm-up).
///
/// Inference runs on the compiled [`StreamingRegressor`], which is
/// bit-identical to the allocating [`LstmRegressor::predict`] reference
/// path. The hot-path layout (see ARCHITECTURE.md, "Inference hot
/// path"):
///
/// - `history` is a [`StreamHistory`]: the last `window - 1` *sampled*
///   feature rows, **already normalized** (each step's features are
///   standardized once, for the live slot and the ring alike), and the
///   LSTM prefix state after them, replayed only when a decimated push
///   changes a full history. The per-tick refresh is a single fused LSTM
///   step over the live row from a copy of the prefix;
/// - all buffers are preallocated in [`FfcModel::new`]: after the first
///   `observe` call, the per-tick path performs zero heap allocation
///   (asserted by the `exp_perf` bench harness).
#[derive(Debug, Clone)]
pub struct FfcModel {
    regressor: LstmRegressor,
    engine: StreamingRegressor,
    feature_set: FeatureSet,
    pipeline: PipelineConfig,
    /// Normalized sampled rows and the prefix state after them.
    history: StreamHistory,
    /// Working state for the per-tick live step.
    live: StreamState,
    scratch: InferenceScratch,
    feat_buf: Vec<f64>,
    normed_buf: Vec<f64>,
    out_buf: Vec<f64>,
    step_counter: usize,
    last_prediction: Option<ActuatorSignal>,
}

impl FfcModel {
    /// Wraps a trained regressor for deployment.
    ///
    /// # Panics
    ///
    /// Panics if the regressor's dimensions do not match the feature set
    /// and the 4-channel actuator signal.
    pub fn new(
        regressor: LstmRegressor,
        feature_set: FeatureSet,
        pipeline: PipelineConfig,
    ) -> Self {
        assert!(feature_set.is_ffc(), "FfcModel requires an FFC feature set");
        assert_eq!(
            regressor.config().input_dim,
            feature_set.dim(),
            "regressor input dim must match the feature set"
        );
        assert_eq!(
            regressor.config().output_dim,
            ActuatorSignal::DIM,
            "FFC predicts the 4-channel actuator signal"
        );
        let engine = regressor.compile();
        let dim = feature_set.dim();
        FfcModel {
            history: StreamHistory::new(&engine),
            live: engine.state(),
            scratch: engine.scratch(),
            feat_buf: Vec::with_capacity(dim),
            normed_buf: vec![0.0; dim],
            out_buf: vec![0.0; ActuatorSignal::DIM],
            engine,
            regressor,
            feature_set,
            pipeline,
            step_counter: 0,
            last_prediction: None,
        }
    }

    /// The network configuration.
    pub fn network_config(&self) -> &RegressorConfig {
        self.regressor.config()
    }

    /// The pipeline configuration.
    pub fn pipeline(&self) -> &PipelineConfig {
        &self.pipeline
    }

    /// The feature set in use.
    pub fn feature_set(&self) -> FeatureSet {
        self.feature_set
    }

    /// Serializes the underlying regressor.
    pub fn to_text(&self) -> String {
        self.regressor.to_text()
    }

    /// Restores a model from [`FfcModel::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error on malformed input or a dimension
    /// mismatch with the requested feature set.
    pub fn from_text(
        text: &str,
        feature_set: FeatureSet,
        pipeline: PipelineConfig,
    ) -> Result<Self, String> {
        let regressor = LstmRegressor::from_text(text)?;
        if regressor.config().input_dim != feature_set.dim() {
            return Err(format!(
                "model input dim {} does not match feature set {:?} ({})",
                regressor.config().input_dim,
                feature_set,
                feature_set.dim()
            ));
        }
        Ok(FfcModel::new(regressor, feature_set, pipeline))
    }

    /// Feeds one control step of sanitized primitives; returns the current
    /// `y'(t)` prediction once the window has filled.
    ///
    /// The window's historical slots advance at the decimated training
    /// rate, but the final slot is always *this step's* features and the
    /// prediction is refreshed every control step — minimizing the lag
    /// between the model and the PID it emulates.
    pub fn observe(
        &mut self,
        prims: &SensorPrimitives,
        target: &TargetState,
        phase: FlightPhase,
    ) -> Option<ActuatorSignal> {
        assemble_into(
            self.feature_set,
            prims,
            target,
            phase,
            &ActuatorSignal::default(),
            &mut self.feat_buf,
        );
        // The history holds the last window-1 *sampled* rows; the live
        // row makes the window whole. Dimension errors cannot occur
        // (shapes are pinned at construction); if one somehow did, the
        // model holds its previous prediction — no panic in the loop.
        let engine = &self.engine;
        let (history, normed) = (&mut self.history, &mut self.normed_buf);
        if engine.normalize_into(&self.feat_buf, normed).is_ok() {
            let (live, scratch, y) = (&mut self.live, &mut self.scratch, &mut self.out_buf);
            let full = history.is_full(engine);
            if full && history.predict(engine, normed, live, scratch, y).is_ok() {
                self.last_prediction = Some(ActuatorSignal::from_array([y[0], y[1], y[2], y[3]]));
            }
            // Decimated push; the replay amortizes to (window-1)/decimate
            // LSTM steps per tick.
            if self.step_counter.is_multiple_of(self.pipeline.decimate)
                && history.push(engine, normed).is_ok()
                && history.is_full(engine)
            {
                let _ = history.replay(engine, scratch);
            }
        }
        self.step_counter += 1;
        self.last_prediction
    }

    /// Resets all runtime state (between missions).
    pub fn reset(&mut self) {
        self.history.reset();
        self.step_counter = 0;
        self.last_prediction = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidpiper_math::Vec3;
    use pidpiper_sensors::{EstimatedState, SensorReadings};

    fn tiny_model() -> FfcModel {
        let set = FeatureSet::FfcPruned;
        let config = RegressorConfig {
            input_dim: set.dim(),
            output_dim: 4,
            hidden: 4,
            fc_width: 4,
            window: 3,
        };
        FfcModel::new(
            LstmRegressor::new(config, 1),
            set,
            PipelineConfig {
                decimate: 2,
                gate: GateConfig::default(),
            },
        )
    }

    fn prims_at(x: f64) -> SensorPrimitives {
        let est = EstimatedState {
            position: Vec3::new(x, 0.0, 5.0),
            ..Default::default()
        };
        SensorPrimitives::collect(&est, &SensorReadings::default())
    }

    #[test]
    fn warmup_then_predicts() {
        let mut m = tiny_model();
        let target = TargetState::hover_at(Vec3::new(10.0, 0.0, 5.0), 0.0);
        let mut first_some = None;
        for i in 0..20 {
            let out = m.observe(&prims_at(i as f64 * 0.1), &target, FlightPhase::Takeoff);
            if out.is_some() && first_some.is_none() {
                first_some = Some(i);
            }
        }
        // Window 3 at decimation 2: history fills with samples from steps
        // 0 and 2, so the first live prediction lands at step 3.
        assert_eq!(first_some, Some(3));
    }

    #[test]
    fn prediction_refreshes_every_step() {
        let mut m = tiny_model();
        let target = TargetState::hover_at(Vec3::new(10.0, 0.0, 5.0), 0.0);
        let mut outs = Vec::new();
        for i in 0..10 {
            outs.push(m.observe(&prims_at(i as f64 * 0.1), &target, FlightPhase::Takeoff));
        }
        // Features change every step, so warmed-up predictions do too —
        // the live final window slot keeps the model in lock-step with
        // the PID.
        assert_ne!(outs[4], outs[5]);
        assert_ne!(outs[5], outs[6]);
    }

    #[test]
    fn serialization_round_trip() {
        let mut a = tiny_model();
        let text = a.to_text();
        let mut b = FfcModel::from_text(&text, FeatureSet::FfcPruned, *a.pipeline())
            .expect("round trip");
        let target = TargetState::hover_at(Vec3::new(10.0, 0.0, 5.0), 0.0);
        for i in 0..10 {
            let ya = a.observe(&prims_at(i as f64 * 0.1), &target, FlightPhase::Takeoff);
            let yb = b.observe(&prims_at(i as f64 * 0.1), &target, FlightPhase::Takeoff);
            assert_eq!(ya, yb);
        }
    }

    #[test]
    fn from_text_rejects_wrong_feature_set() {
        let a = tiny_model();
        let text = a.to_text();
        assert!(FfcModel::from_text(&text, FeatureSet::FfcFull, *a.pipeline()).is_err());
    }

    #[test]
    fn reset_restores_warmup() {
        let mut m = tiny_model();
        let target = TargetState::default();
        for i in 0..10 {
            m.observe(&prims_at(i as f64), &target, FlightPhase::Takeoff);
        }
        m.reset();
        assert_eq!(
            m.observe(&prims_at(0.0), &target, FlightPhase::Takeoff),
            None
        );
    }

    #[test]
    #[should_panic(expected = "FFC feature set")]
    fn rejects_fbc_feature_set() {
        let config = RegressorConfig {
            input_dim: 12,
            output_dim: 4,
            hidden: 4,
            fc_width: 4,
            window: 3,
        };
        let _ = FfcModel::new(
            LstmRegressor::new(config, 0),
            FeatureSet::FbcFull,
            PipelineConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "input dim")]
    fn rejects_mismatched_regressor() {
        let config = RegressorConfig {
            input_dim: 10,
            output_dim: 4,
            hidden: 4,
            fc_width: 4,
            window: 3,
        };
        let _ = FfcModel::new(
            LstmRegressor::new(config, 0),
            FeatureSet::FfcPruned,
            PipelineConfig::default(),
        );
    }
}
