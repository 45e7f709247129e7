//! Fleet-scale session engine for PID-Piper (Dash et al., DSN 2021).
//!
//! The paper's FFC runs *per vehicle*; this crate answers the deployment
//! question "how many vehicles can one ground station monitor?" by
//! multiplexing N independent vehicle sessions — each a compact struct
//! wrapping the PR-5 streaming inference state, a per-axis CUSUM monitor
//! bank, and the PR-3/4 supervisor state machine — over a fixed pool of
//! worker threads.
//!
//! # Architecture (see `ARCHITECTURE.md`, "Fleet engine")
//!
//! - [`session::VehicleSession`] — one vehicle: spec, decimation ring,
//!   prefix stream state, EMA baseline, CUSUMs, supervisor, fingerprint.
//! - Shard-level scheduling ([`shard`], crate-internal) — sessions pin to
//!   `id % shards` for life; each shard owns its sessions, its pending
//!   queue, its quarantine, and one working set, and runs one tick loop
//!   whose [`FleetBatch`] mode picks only the inference kernel.
//! - [`engine::FleetEngine`] — the scheduler: one shared compiled
//!   [`BatchedStreamingRegressor`](pidpiper_ml::BatchedStreamingRegressor),
//!   S shards, steal-free contiguous shard ranges per worker.
//! - [`mod@bench`] — the `BENCH_fleet.json` producer behind the
//!   `pidpiper-fleet` binary.
//!
//! # Determinism
//!
//! Per-session results depend only on the session's spec and its own tick
//! count — never on shard placement, worker count, or wall-clock — so the
//! serial/parallel bit-equivalence guarantee of the PR-4 batch layer
//! extends to fleet ticks: every prediction bit, health transition, and
//! [`Fingerprint`](pidpiper_missions::Fingerprint)-based trace hash is
//! identical for any worker count. The `pidpiper-fleet` binary enforces
//! this with a gate run and exits non-zero on a mismatch.
//!
//! # Backpressure
//!
//! Admission control is explicit: a full shard queues new sessions
//! (FIFO) up to a bound, then rejects with the typed
//! [`AdmissionError`] — submission never blocks
//! and never silently drops. `OPERATIONS.md` is the operator guide.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod engine;
pub mod session;
pub mod shard;

pub use engine::{FleetBatch, FleetConfig, FleetEngine, FleetStats};
pub use session::{SessionParams, SessionSpec, SessionTick, VehicleSession};
pub use shard::{Admission, AdmissionError, RetiredSession, ShardTickStats};
