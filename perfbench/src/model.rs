//! The deployed ArduCopter model the `mission_overt` workload flies.
//!
//! Training takes minutes, so it runs once (`perfbench train`) and the
//! checksummed artifact is kept in `perfbench/model/`. Set-up only loads
//! it, through `artifact::load_deployment`, which refuses a corrupt or
//! headerless file.

use std::path::{Path, PathBuf};

use pidpiper_core::{artifact, ArtifactIntegrity, PidPiper, Trainer, TrainerConfig};
use pidpiper_missions::{MissionPlan, MissionRunner, MissionSpec, NoDefense, RunnerConfig, Trace};
use pidpiper_sim::RvId;

/// Seed of the first training-trace mission (mission `i` flies
/// `TRACE_SEED + i`, as in the experiment harness's `collect_traces`).
/// Workload missions draw their seeds from a disjoint range.
pub const TRACE_SEED: u64 = 500;

/// Quick-scale geometry of the training mission set.
const QUICK_GEOMETRY: f64 = 0.5;

/// Where the kept artifact lives.
pub fn artifact_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("model/arducopter-quick.pidpiper")
}

/// The Table I attack-free trace set for ArduCopter at quick scale: the
/// same plans, seeds and defense as `collect_traces(ArduCopter, Quick)`.
fn collect_traces(workers: usize) -> Vec<Trace> {
    let rv = RvId::ArduCopter;
    let specs: Vec<MissionSpec> = MissionPlan::table1_missions(rv, 7, QUICK_GEOMETRY)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            MissionSpec::clean(RunnerConfig::for_rv(rv).with_seed(TRACE_SEED + i as u64), p)
        })
        .collect();
    MissionRunner::par_run_missions_with_jobs(workers, &specs, |_| Box::new(NoDefense::new()))
        .into_iter()
        .map(|r| r.trace)
        .collect()
}

/// Trains the deployed defense with `TrainerConfig::default()` and writes
/// the checksummed artifact.
pub fn train(workers: usize) -> Result<(), String> {
    let traces = collect_traces(workers);
    let trained = Trainer::new(TrainerConfig::default()).train(&traces, false);
    let path = artifact_path();
    artifact::save_deployment(&path, &trained.pidpiper).map_err(|e| e.to_string())?;
    eprintln!("wrote {} ({})", path.display(), trained.report);
    Ok(())
}

/// Loads the kept artifact, refusing anything but a verified checksum.
pub fn load() -> Result<PidPiper, String> {
    let path = artifact_path();
    match artifact::load_deployment(&path) {
        Ok((pp, ArtifactIntegrity::Verified)) => Ok(pp),
        Ok((_, integrity)) => Err(format!("{}: integrity {integrity:?}", path.display())),
        Err(e) => Err(format!(
            "{}: {e} (regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- train`)",
            path.display()
        )),
    }
}
