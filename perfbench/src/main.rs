//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mission_overt|fleet_steady|fleet_churn> --seed <n> \
//!     --seconds <s> --trace <0|1> [--workers <n>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- train
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer metrics. Both check the
//! program's outputs first and exit nonzero if any check fails. The last
//! line of standard output is the JSON result; `perfbench/README.md` maps
//! every metric to its layer and workload.

mod fleet;
mod host;
mod mission;
mod model;
mod report;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use report::Report;

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "peak_rss_mb",
    "steps_per_s",
    "cycle_us_p50",
    "cycle_us_p90",
    "tick_ms_p90",
];

/// Per-layer metrics, reported by every traced run.
const PER_LAYER: [&str; 43] = [
    "missions.self_ns_per_step",
    "missions.worker_idle_share",
    "sensors.estimator_ns",
    "control.step_ns",
    "core.sanitizer_ns",
    "core.features_ns",
    "core.supervisor_ns",
    "core.monitor_ns",
    "core.strategy_ns",
    "core.observe_glue_ns",
    "core.ffc.plain_ns_p50",
    "core.ffc.push_ns_p50",
    "core.ffc.push_share",
    "core.ffc.mean_ns",
    "core.strategy.recovery_share",
    "core.strategy.activations",
    "ml.stream.step_ns",
    "ml.stream.flops_per_step",
    "cycle_us_p99",
    "trace.mission_step_ns",
    "fleet.submit_ns_p50",
    "fleet.submit_ns_p99",
    "fleet.admitted",
    "fleet.queued",
    "fleet.rejected",
    "fleet.admitted_from_queue",
    "fleet.retired",
    "fleet.tick_ms_p50",
    "fleet.push_tick_ms_mean",
    "fleet.plain_tick_ms_mean",
    "fleet.worker_busy_share",
    "fleet.tripped",
    "fleet.in_recovery",
    "fleet.degraded",
    "fleet.engine_bytes_per_session",
    "fleet.rss_bytes_per_session",
    "ml.batched.ns_per_vehicle_step.b64",
    "ml.batched.ns_per_vehicle_step.ragged",
    "ml.batched.flops_per_vehicle_step",
    "ml.batched.weight_bytes_per_vehicle_step.b64",
    "ml.batched.weight_bytes_per_vehicle_step.ragged",
    "trace.stage_sum_ratio",
    "trace.overhead_pct",
];

/// Set-ups per fleet run; `setup_s` is their median. A fleet set-up
/// (build, admission, ring-fill warm-up) takes seconds.
const FLEET_SETUPS: usize = 3;
/// Set-ups per mission run. A mission set-up (model load) takes about
/// 2 ms, so a median over ~1 s of repetitions is cheap, and it samples
/// enough host noise to repeat from run to run (51 repetitions drifted
/// by up to 40 % between runs).
const MISSION_SETUPS: usize = 501;
/// Seconds of the probe that measures the other family's layers in a
/// traced run.
const PROBE_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    MissionOvert,
    FleetSteady,
    FleetChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "mission_overt" => Some(Workload::MissionOvert),
            "fleet_steady" => Some(Workload::FleetSteady),
            "fleet_churn" => Some(Workload::FleetChurn),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut workers = host::nproc().min(2);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--workers" => workers = value.parse::<usize>().map_err(|e| bad(&e))?.max(1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        workers,
    })
}

fn fleet_shape(w: Workload) -> fleet::Shape {
    match w {
        Workload::FleetChurn => fleet::Shape::CHURN,
        _ => fleet::Shape::STEADY,
    }
}

/// Runs the workload untraced and records the end-to-end metrics.
fn end_to_end(a: &Args, report: &mut Report) -> Result<(), String> {
    match a.workload {
        Workload::MissionOvert => {
            let mut setup_s = Vec::with_capacity(MISSION_SETUPS);
            let mut workload = None;
            for _ in 0..MISSION_SETUPS {
                drop(workload.take());
                let t0 = Instant::now();
                workload = Some(mission::Workload::setup(a.seed, a.workers)?);
                setup_s.push(t0.elapsed().as_secs_f64());
            }
            report.put("setup_s", stats::median(&setup_s), "s");
            if let Some(w) = workload {
                w.run(a.seconds, report);
            }
        }
        w => fleet::run(
            fleet_shape(w),
            a.seed,
            a.seconds,
            a.workers,
            FLEET_SETUPS,
            report,
        ),
    }
    if report.get("peak_rss_mb").is_none() {
        report.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    }
    Ok(())
}

/// Runs the traced measurement of the workload, then a short probe of the
/// layers it does not drive, so every traced run reports every layer.
fn traced(a: &Args, report: &mut Report) -> Result<(), String> {
    let mut probe = Report::default();
    let probe_shape = fleet::Shape {
        per_shard: 64,
        ..fleet::Shape::STEADY
    };
    match a.workload {
        Workload::MissionOvert => {
            mission::Workload::setup(a.seed, a.workers)?.trace(a.seconds, report);
            fleet::trace(probe_shape, a.seed, PROBE_SECONDS, a.workers, &mut probe);
        }
        w => {
            fleet::trace(fleet_shape(w), a.seed, a.seconds, a.workers, report);
            mission::Workload::setup(a.seed, a.workers)?.trace(0.0, &mut probe);
        }
    }
    report.absorb_probe(probe);
    Ok(())
}

fn run(a: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    report.context(
        "workload",
        report::json_string(&format!("{:?}", a.workload)),
    );
    report.context("seed", a.seed.to_string());
    report.context("workers", a.workers.to_string());
    report.context("seconds", a.seconds.to_string());
    report.context("trace", a.trace.to_string());
    if a.trace {
        traced(a, &mut report)?;
        for name in PER_LAYER {
            report.check(report.get(name).is_some(), || {
                format!("per-layer metric {name} missing")
            });
        }
        report.retain(|n| PER_LAYER.contains(&n));
    } else {
        end_to_end(a, &mut report)?;
        for name in END_TO_END {
            report.check(report.get(name).is_some(), || {
                format!("end-to-end metric {name} missing")
            });
        }
        report.retain(|n| END_TO_END.contains(&n));
    }
    report.check(report.attempted >= 1, || {
        "no operation was attempted".to_string()
    });
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("train") {
        let workers = host::nproc().min(2);
        return match model::train(workers) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench train: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render_text());
    println!("{}", report.render_provenance(&host::provenance()));
    if !report.correct() {
        for f in report.failures() {
            eprintln!("perfbench: output check failed: {f}");
        }
        return ExitCode::FAILURE;
    }
    println!("{}", report.render_result());
    ExitCode::SUCCESS
}
