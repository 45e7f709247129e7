//! Fleet-level guarantees: bit-identical per-session results across
//! worker and shard counts, and typed, non-blocking admission control.

use pidpiper_faults::FaultSchedule;
use pidpiper_fleet::{Admission, AdmissionError, FleetConfig, FleetEngine, SessionSpec};
use pidpiper_missions::MissionBudget;

const SEED: u64 = 99;

fn spec(id: u64) -> SessionSpec {
    let mut s = SessionSpec::new(id, id.wrapping_mul(0x9E37_79B9).rotate_left(17) ^ 0xABCD);
    if id.is_multiple_of(8) {
        s = s.with_fault(
            FaultSchedule::Intermittent {
                start: 0.5,
                on: 0.8,
                off: 2.0,
            }
            .shifted(0.03 * (id % 101) as f64),
        );
    }
    if id.is_multiple_of(64) {
        // Retires mid-run: retirement timing is part of the contract.
        s = s.with_budget(MissionBudget::default().with_step_budget(30));
    }
    s
}

fn build_and_run(shards: usize, workers: usize, sessions: u64, ticks: usize) -> FleetEngine {
    let mut engine = FleetEngine::with_synthetic_model(
        FleetConfig {
            shards,
            workers,
            shard_capacity: sessions as usize,
            pending_capacity: sessions as usize,
            ..FleetConfig::default()
        },
        SEED,
    );
    for id in 0..sessions {
        engine.submit(spec(id)).expect("capacity covers the fleet");
    }
    engine.run_ticks(ticks);
    engine
}

/// The tentpole guarantee: per-session trace fingerprints are
/// bit-identical regardless of worker count (serial vs threaded fleet
/// ticks), including sessions that retired mid-run.
#[test]
fn fingerprints_invariant_across_worker_counts() {
    let serial = build_and_run(8, 1, 192, 60);
    for workers in [2, 3, 8] {
        let parallel = build_and_run(8, workers, 192, 60);
        assert_eq!(
            serial.session_fingerprints(),
            parallel.session_fingerprints(),
            "worker count {workers} changed per-session results"
        );
    }
    // Retirements happened and their timing agreed too.
    assert!(
        serial.stats().retired > 0,
        "budget mix must retire sessions"
    );
    assert_eq!(serial.stats().join_failures, 0);
}

/// Given full admission, shard count is also invisible to per-session
/// results: sessions depend only on their spec and tick count, never on
/// placement.
#[test]
fn fingerprints_invariant_across_shard_counts() {
    let base = build_and_run(8, 2, 160, 45);
    for shards in [1, 5, 32] {
        let resharded = build_and_run(shards, 2, 160, 45);
        assert_eq!(
            base.session_fingerprints(),
            resharded.session_fingerprints(),
            "shard count {shards} changed per-session results"
        );
    }
}

/// Admission control: beyond capacity submissions queue (backpressure),
/// beyond queue capacity they fail with the typed error — and submission
/// never blocks or aborts the fleet.
#[test]
fn admission_queues_then_rejects_with_typed_error() {
    let mut engine = FleetEngine::with_synthetic_model(
        FleetConfig {
            shards: 2,
            workers: 1,
            shard_capacity: 4,
            pending_capacity: 2,
            ..FleetConfig::default()
        },
        SEED,
    );
    let mut admitted = 0;
    let mut queued = 0;
    let mut rejected = Vec::new();
    for id in 0..24u64 {
        match engine.submit(SessionSpec::new(id, id + 1)) {
            Ok(Admission::Admitted { .. }) => admitted += 1,
            Ok(Admission::Queued { depth, .. }) => {
                assert!((1..=2).contains(&depth));
                queued += 1;
            }
            Err(AdmissionError::ShardSaturated {
                shard,
                resident,
                queued,
            }) => {
                assert!(shard < 2);
                assert_eq!(resident, 4);
                assert_eq!(queued, 2);
                rejected.push(id);
            }
        }
    }
    assert_eq!(admitted, 8, "2 shards x capacity 4");
    assert_eq!(queued, 4, "2 shards x pending 2");
    assert_eq!(rejected.len(), 12);
    // The typed error formats into an operator-readable message.
    let err = engine
        .submit(SessionSpec::new(0, 1))
        .expect_err("still saturated");
    assert!(err.to_string().contains("saturated"));
    // The fleet still ticks fine while saturated.
    let stats = engine.tick();
    assert_eq!(stats.session_ticks, 8);
}

/// Queued sessions drain into capacity freed by retirement, in FIFO
/// order, and the drain shows up in the stats.
#[test]
fn queued_sessions_admitted_after_retirement() {
    let mut engine = FleetEngine::with_synthetic_model(
        FleetConfig {
            shards: 1,
            workers: 1,
            shard_capacity: 2,
            pending_capacity: 4,
            ..FleetConfig::default()
        },
        SEED,
    );
    // Two resident sessions with a 5-tick budget, two queued behind them.
    for id in 0..2u64 {
        let s =
            SessionSpec::new(id, id + 1).with_budget(MissionBudget::default().with_step_budget(5));
        assert!(matches!(engine.submit(s), Ok(Admission::Admitted { .. })));
    }
    for id in 2..4u64 {
        assert!(matches!(
            engine.submit(SessionSpec::new(id, id + 1)),
            Ok(Admission::Queued { .. })
        ));
    }
    engine.run_ticks(10);
    // Budgeted pair quarantined with typed errors; queued pair admitted.
    assert_eq!(engine.stats().retired, 2);
    assert_eq!(engine.stats().admitted_from_queue, 2);
    assert_eq!(engine.resident_sessions(), 2);
    assert_eq!(engine.pending_sessions(), 0);
    let quarantined = engine.quarantined();
    assert_eq!(quarantined.len(), 2);
    assert_eq!(quarantined[0].id, 0);
    assert!(matches!(
        quarantined[0].error,
        pidpiper_missions::MissionError::StepBudgetExhausted { budget: 5, .. }
    ));
}

/// The cost-budget knob (`shard_cost_budget`) caps admission below the
/// resident capacity when the per-tick cost budget is the binding limit.
#[test]
fn cost_budget_caps_admission() {
    let mut engine = FleetEngine::with_synthetic_model(
        FleetConfig {
            shards: 1,
            workers: 1,
            shard_capacity: 100,
            pending_capacity: 0,
            // session_cost = 1 + ceil(19/5) = 5 units; budget 12 -> 2 fit.
            shard_cost_budget: 12,
            ..FleetConfig::default()
        },
        SEED,
    );
    assert_eq!(engine.session_cost(), 5);
    assert!(matches!(
        engine.submit(SessionSpec::new(0, 1)),
        Ok(Admission::Admitted { .. })
    ));
    assert!(matches!(
        engine.submit(SessionSpec::new(1, 2)),
        Ok(Admission::Admitted { .. })
    ));
    assert!(engine.submit(SessionSpec::new(2, 3)).is_err());
    assert_eq!(engine.resident_sessions(), 2);
}
