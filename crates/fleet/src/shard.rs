//! Shards: the steal-free unit of parallelism.
//!
//! Every session is pinned to shard `id % shard_count` for life. A shard
//! owns its sessions, its pending-admission queue, its quarantine list
//! and one heavy [`ShardScratch`]; a fleet tick gives each worker a fixed
//! contiguous range of shards and no work ever migrates. Determinism
//! falls out: the sessions of a shard tick in admission order, shards
//! never share mutable state, so the fleet's per-session results are
//! bit-identical for *any* worker count — the serial/parallel equivalence
//! contract of the PR-4 batch layer, extended to fleet ticks.

use std::collections::VecDeque;

use pidpiper_missions::{HealthState, MissionError};
use pidpiper_ml::{BatchScratch, BatchedStreamingRegressor, StreamingRegressor};

use crate::session::{SessionParams, SessionSpec, ShardScratch, TickPrologue, VehicleSession};

/// Lane capacity of the per-shard batched working set: sessions tick
/// through the batched kernels in chunks of this many lanes. 64 lanes
/// keep the f64 panels (~140 KB at the standard config) inside L2 while
/// amortizing each weight load across 8x more sessions than the GEMM
/// lane width alone.
pub(crate) const BATCH_WIDTH: usize = 64;

/// Per-shard working set of the batched tick path: the struct-of-arrays
/// panels plus staging and bookkeeping buffers, allocated once and reused
/// every tick. Shard-resident (one per shard, like [`ShardScratch`]), so
/// its footprint is amortized over the shard's resident sessions — see
/// `FleetEngine::bytes_per_session`.
#[derive(Debug)]
pub(crate) struct BatchState {
    scratch: BatchScratch,
    /// Live normalized rows staged per lane (`input_dim * BATCH_WIDTH`);
    /// kept out of the panels so the replay phase can reuse them after
    /// the ring push.
    normed: Vec<f64>,
    /// Session indices that completed their prologue this chunk.
    lanes: Vec<usize>,
    /// Their prologues, parallel to `lanes`.
    pros: Vec<TickPrologue>,
    /// `(session index, error)` pairs retired once the tick completes —
    /// deferred so batched lane numbering stays stable mid-tick.
    errored: Vec<(usize, MissionError)>,
    /// Sessions owing a prefix replay this tick (decimation boundary).
    replay: Vec<usize>,
}

impl BatchState {
    fn new(batched: &BatchedStreamingRegressor) -> Self {
        let dim = batched.engine().config().input_dim;
        BatchState {
            scratch: batched.scratch(BATCH_WIDTH),
            normed: vec![0.0; dim * BATCH_WIDTH],
            lanes: Vec::with_capacity(BATCH_WIDTH),
            pros: Vec::with_capacity(BATCH_WIDTH),
            errored: Vec::with_capacity(BATCH_WIDTH),
            replay: Vec::with_capacity(BATCH_WIDTH),
        }
    }

    /// Heap bytes of the whole batched working set (panels + staging +
    /// bookkeeping), for capacity-planning amortization.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.scratch.resident_bytes()
            + self.normed.capacity() * std::mem::size_of::<f64>()
            + self.lanes.capacity() * std::mem::size_of::<usize>()
            + self.pros.capacity() * std::mem::size_of::<TickPrologue>()
            + self.errored.capacity() * std::mem::size_of::<(usize, MissionError)>()
            + self.replay.capacity() * std::mem::size_of::<usize>()
    }
}

/// Why the fleet refused a session outright (neither admitted nor
/// queued). Submission never blocks and never silently drops: callers
/// get this typed error and decide whether to retry later, shed load, or
/// route the vehicle to another fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The target shard is at resident capacity (or past its tick cost
    /// budget) *and* its pending queue is full.
    ShardSaturated {
        /// The shard that refused the session.
        shard: usize,
        /// Sessions currently resident on that shard.
        resident: usize,
        /// Sessions already waiting in its pending queue.
        queued: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::ShardSaturated {
                shard,
                resident,
                queued,
            } => write!(
                f,
                "shard {shard} saturated: {resident} resident sessions, {queued} queued"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Successful submission outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The session is resident and ticks from the next fleet tick on.
    Admitted {
        /// The shard it landed on.
        shard: usize,
    },
    /// The shard is behind its deadline budget; the session waits in the
    /// shard's pending queue and is admitted (in FIFO order) as soon as
    /// capacity frees up — backpressure, not rejection.
    Queued {
        /// The shard whose queue it joined.
        shard: usize,
        /// Its position in that queue (1 = next to admit).
        depth: usize,
    },
}

/// A session retired into quarantine with its typed error — the PR-4
/// quarantine contract applied to fleet sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct RetiredSession {
    /// The retired session's identity.
    pub id: u64,
    /// Ticks it flew before retirement.
    pub ticks: u64,
    /// Its final behavioral fingerprint (still part of the determinism
    /// gate: retirement timing is deterministic too).
    pub fingerprint: u64,
    /// Why it was retired.
    pub error: MissionError,
}

/// Aggregate results of one shard tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTickStats {
    /// Session ticks executed.
    pub session_ticks: u64,
    /// Sessions admitted from the pending queue this tick.
    pub admitted_from_queue: u64,
    /// Sessions retired into quarantine this tick.
    pub retired: u64,
    /// Ticks whose CUSUM monitor was tripped.
    pub tripped: u64,
    /// Ticks with an active fault schedule.
    pub faulted: u64,
    /// Sessions currently in `Recovery`.
    pub in_recovery: u64,
    /// Sessions currently latched `Degraded`.
    pub degraded: u64,
}

impl ShardTickStats {
    /// Accumulates another shard's stats.
    pub fn merge(&mut self, other: &ShardTickStats) {
        self.session_ticks += other.session_ticks;
        self.admitted_from_queue += other.admitted_from_queue;
        self.retired += other.retired;
        self.tripped += other.tripped;
        self.faulted += other.faulted;
        self.in_recovery += other.in_recovery;
        self.degraded += other.degraded;
    }
}

/// One shard: resident sessions, pending queue, quarantine, scratch.
#[derive(Debug)]
pub(crate) struct Shard {
    index: usize,
    capacity: usize,
    pending_capacity: usize,
    /// Deadline budget in cost units per tick; a shard whose resident
    /// load would exceed it stops admitting directly.
    cost_budget: u64,
    /// Deterministic cost estimate of one session tick, in cost units.
    session_cost: u64,
    sessions: Vec<VehicleSession>,
    pending: VecDeque<SessionSpec>,
    retired: Vec<RetiredSession>,
    scratch: ShardScratch,
    /// Batched-path working set; `None` under `FleetBatch::PerSession`.
    batch: Option<BatchState>,
}

impl Shard {
    pub(crate) fn new(
        index: usize,
        capacity: usize,
        pending_capacity: usize,
        cost_budget: u64,
        session_cost: u64,
        engine: &StreamingRegressor,
        batched: Option<&BatchedStreamingRegressor>,
    ) -> Self {
        Shard {
            index,
            capacity,
            pending_capacity,
            cost_budget,
            session_cost: session_cost.max(1),
            sessions: Vec::new(),
            pending: VecDeque::new(),
            retired: Vec::new(),
            scratch: ShardScratch::for_engine(engine),
            batch: batched.map(BatchState::new),
        }
    }

    /// Heap bytes of the batched working set (0 under per-session mode).
    pub(crate) fn batch_bytes(&self) -> usize {
        self.batch.as_ref().map_or(0, BatchState::resident_bytes)
    }

    /// Whether one more resident session fits the resident cap and the
    /// tick cost budget.
    fn has_room(&self) -> bool {
        self.sessions.len() < self.capacity
            && (self.sessions.len() as u64 + 1).saturating_mul(self.session_cost)
                <= self.cost_budget
    }

    pub(crate) fn submit(
        &mut self,
        spec: SessionSpec,
        engine: &StreamingRegressor,
        params: &SessionParams,
    ) -> Result<Admission, AdmissionError> {
        if self.has_room() && self.pending.is_empty() {
            self.sessions.push(VehicleSession::new(spec, engine, params));
            Ok(Admission::Admitted { shard: self.index })
        } else if self.pending.len() < self.pending_capacity {
            self.pending.push_back(spec);
            Ok(Admission::Queued {
                shard: self.index,
                depth: self.pending.len(),
            })
        } else {
            Err(AdmissionError::ShardSaturated {
                shard: self.index,
                resident: self.sessions.len(),
                queued: self.pending.len(),
            })
        }
    }

    /// Ticks the shard: drains the pending queue into freed capacity
    /// (FIFO), then ticks every resident session in admission order,
    /// retiring budget violators into quarantine.
    ///
    /// With `batched` supplied (and a batch working set built for it),
    /// sessions tick through the batched kernels — bit-identical results,
    /// one matrix–matrix sweep per [`BATCH_WIDTH`] lanes instead of one
    /// matrix–vector sweep per session. `None` is the per-session (PR-5)
    /// path, byte for byte the pre-batching loop.
    pub(crate) fn tick(
        &mut self,
        engine: &StreamingRegressor,
        params: &SessionParams,
        batched: Option<&BatchedStreamingRegressor>,
    ) -> ShardTickStats {
        let mut stats = ShardTickStats::default();
        while self.has_room() {
            match self.pending.pop_front() {
                Some(spec) => {
                    self.sessions.push(VehicleSession::new(spec, engine, params));
                    stats.admitted_from_queue += 1;
                }
                None => break,
            }
        }
        match batched {
            Some(b) if self.batch.is_some() => self.tick_batched(engine, b, params, &mut stats),
            _ => self.tick_per_session(engine, params, &mut stats),
        }
        stats
    }

    /// The per-session tick loop (PR-5 streaming path, unchanged).
    fn tick_per_session(
        &mut self,
        engine: &StreamingRegressor,
        params: &SessionParams,
        stats: &mut ShardTickStats,
    ) {
        let mut i = 0;
        while i < self.sessions.len() {
            match self.sessions[i].tick(engine, params, &mut self.scratch) {
                Ok(r) => {
                    stats.session_ticks += 1;
                    stats.tripped += u64::from(r.tripped);
                    stats.faulted += u64::from(r.fault_active);
                    match r.health {
                        HealthState::Recovery => stats.in_recovery += 1,
                        HealthState::Degraded => stats.degraded += 1,
                        HealthState::Nominal => {}
                    }
                    i += 1;
                }
                Err(error) => {
                    let s = self.sessions.remove(i);
                    self.retired.push(RetiredSession {
                        id: s.id(),
                        ticks: s.ticks(),
                        fingerprint: s.fingerprint(),
                        error,
                    });
                    stats.retired += 1;
                }
            }
        }
    }

    /// The batched tick loop. Per chunk of [`BATCH_WIDTH`] sessions (in
    /// admission order; every resident session shares the shard's model):
    ///
    /// 1. **prologue/gather** — each session's budget check, synthetic
    ///    flight and normalization ([`VehicleSession::begin_tick`]); its
    ///    prefix checkpoint and live row are gathered into a panel lane.
    ///    Budget violators are set aside (lane numbering stays stable)
    ///    and retired after the loop, in the same ascending-index order
    ///    as the per-session path.
    /// 2. **batched inference** — one `step_batch` + `finish_batch` over
    ///    the active lanes replaces the chunk's matrix–vector passes.
    /// 3. **epilogue/scatter** — each lane's prediction feeds
    ///    [`VehicleSession::finish_tick`] (monitor, supervisor,
    ///    fingerprint, decimated ring push) with the prefix replay
    ///    *deferred*.
    ///
    /// Deferred replays are then grouped by history row count (lanes in one
    /// replay batch must step the same number of rows — sessions
    /// mid-warmup or on a different decimation phase simply land in
    /// different groups or different ticks) and replayed through the
    /// batched kernels; groups of one fall back to the per-session
    /// [`pidpiper_ml::StreamHistory::replay`]. Every f64 op matches the
    /// per-session path, so fingerprints are bit-identical — the fleet
    /// bench gates this (`batch_invariant`).
    fn tick_batched(
        &mut self,
        engine: &StreamingRegressor,
        batched: &BatchedStreamingRegressor,
        params: &SessionParams,
        stats: &mut ShardTickStats,
    ) {
        let state = self.batch.as_mut().expect("tick_batched without batch state");
        let sessions = &mut self.sessions;
        let shard_scratch = &mut self.scratch;
        let dim = engine.config().input_dim;
        state.errored.clear();
        state.replay.clear();

        let total = sessions.len();
        let mut start = 0;
        while start < total {
            let end = (start + BATCH_WIDTH).min(total);
            state.lanes.clear();
            state.pros.clear();
            for (off, session) in sessions[start..end].iter_mut().enumerate() {
                let i = start + off;
                let lane = state.lanes.len();
                let row = &mut state.normed[lane * dim..(lane + 1) * dim];
                match session.begin_tick(engine, params, &mut shard_scratch.feat, row) {
                    Ok(pro) => {
                        if pro.normed_ok {
                            state.scratch.load_state(lane, session.history().prefix());
                            state.scratch.load_row(lane, row);
                        }
                        state.lanes.push(i);
                        state.pros.push(pro);
                    }
                    Err(error) => state.errored.push((i, error)),
                }
            }
            let n = state.lanes.len();
            if n > 0 {
                batched.step_batch(&mut state.scratch, n);
                batched.finish_batch(&mut state.scratch, n);
            }
            let mut pred = [0.0f64; 4];
            for (lane, (&i, pro)) in state.lanes.iter().zip(&state.pros).enumerate() {
                let prediction = if pro.normed_ok {
                    state.scratch.read_output(lane, &mut pred);
                    pred
                } else {
                    sessions[i].last_prediction()
                };
                let row = &state.normed[lane * dim..(lane + 1) * dim];
                let (r, deferred) =
                    sessions[i].finish_tick(engine, params, prediction, pro, row, None);
                stats.session_ticks += 1;
                stats.tripped += u64::from(r.tripped);
                stats.faulted += u64::from(r.fault_active);
                match r.health {
                    HealthState::Recovery => stats.in_recovery += 1,
                    HealthState::Degraded => stats.degraded += 1,
                    HealthState::Nominal => {}
                }
                if deferred {
                    state.replay.push(i);
                }
            }
            start = end;
        }

        // Batched prefix replay, grouped by history row count. The sort
        // key is (rows, index): deterministic, and sessions keep their
        // relative order inside a group.
        state
            .replay
            .sort_unstable_by_key(|&i| (sessions[i].history().rows(), i));
        let mut rest = state.replay.as_slice();
        while let Some(&first) = rest.first() {
            let rows = sessions[first].history().rows();
            let len = rest
                .iter()
                .take_while(|&&i| sessions[i].history().rows() == rows)
                .count();
            let (group, tail) = rest.split_at(len);
            rest = tail;
            if let [i] = *group {
                // Ragged remainder: the per-session fallback. Engine-shaped
                // rows cannot fail to step.
                let _ = sessions[i]
                    .history_mut()
                    .replay(engine, &mut shard_scratch.scratch);
                continue;
            }
            for lanes in group.chunks(BATCH_WIDTH) {
                let n = lanes.len();
                state.scratch.reset_states();
                for t in 0..rows {
                    for (lane, &i) in lanes.iter().enumerate() {
                        let row = sessions[i].history().row(engine, t);
                        state.scratch.load_row(lane, row);
                    }
                    batched.step_batch(&mut state.scratch, n);
                }
                for (lane, &i) in lanes.iter().enumerate() {
                    let prefix = sessions[i].history_mut().prefix_mut();
                    state.scratch.store_state(lane, prefix);
                }
            }
        }

        // Retire budget violators: records in ascending index order (the
        // per-session path's order), removals in descending order so the
        // collected indices stay valid.
        for (i, error) in &state.errored {
            let s = &sessions[*i];
            self.retired.push(RetiredSession {
                id: s.id(),
                ticks: s.ticks(),
                fingerprint: s.fingerprint(),
                error: error.clone(),
            });
            stats.retired += 1;
        }
        for (i, _) in state.errored.iter().rev() {
            sessions.remove(*i);
        }
    }

    pub(crate) fn resident(&self) -> usize {
        self.sessions.len()
    }

    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }

    pub(crate) fn sessions(&self) -> &[VehicleSession] {
        &self.sessions
    }

    pub(crate) fn retired_sessions(&self) -> &[RetiredSession] {
        &self.retired
    }
}
