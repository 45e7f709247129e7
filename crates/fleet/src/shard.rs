//! Shards: the steal-free unit of parallelism.
//!
//! Every session is pinned to shard `id % shard_count` for life. A shard
//! owns its sessions, its pending-admission queue, its quarantine list
//! and one working set (`BatchState`); a fleet tick gives each worker a
//! fixed contiguous range of shards and no work ever migrates. Determinism
//! falls out: the sessions of a shard tick in admission order, shards
//! never share mutable state, so the fleet's per-session results are
//! bit-identical for *any* worker count — the serial/parallel equivalence
//! contract of the PR-4 batch layer, extended to fleet ticks.

use std::collections::VecDeque;

use pidpiper_missions::{HealthState, MissionError};
use pidpiper_ml::{
    BatchScratch, BatchedStreamingRegressor, InferenceScratch, StreamState, StreamingRegressor,
};

use crate::engine::FleetBatch;
use crate::session::{SessionParams, SessionSpec, TickPrologue, VehicleSession};

/// Lane capacity of the per-shard working set: sessions tick in chunks of
/// this many lanes. 64 lanes keep the f64 panels (~140 KB at the standard
/// config) inside L2 while amortizing each weight load across 8x more
/// sessions than the GEMM lane width alone.
pub(crate) const BATCH_WIDTH: usize = 64;

/// Per-shard working set of the tick loop: the struct-of-arrays panels,
/// the per-session kernel's state and scratch, and the staging and
/// bookkeeping buffers, allocated once and reused every tick in either
/// [`FleetBatch`] mode. Shard-resident, so its footprint is amortized
/// over the shard's resident sessions — see
/// `FleetEngine::bytes_per_session`.
#[derive(Debug)]
pub(crate) struct BatchState {
    scratch: BatchScratch,
    /// Live normalized rows staged per lane (`input_dim * BATCH_WIDTH`);
    /// kept out of the panels so the epilogue can push them into the
    /// history ring after inference.
    normed: Vec<f64>,
    /// One raw feature row, assembled by each session's prologue.
    feat: Vec<f64>,
    /// Live state of the per-session kernel (prefix plus present row).
    live: StreamState,
    /// Scratch of the per-session kernel and of singleton replays.
    inf: InferenceScratch,
    /// Session index and prologue of each lane this chunk.
    lanes: Vec<(usize, TickPrologue)>,
    /// Each lane's prediction, parallel to `lanes`.
    preds: Vec<[f64; 4]>,
    /// `(session index, error)` pairs retired once the tick completes —
    /// deferred so lane numbering stays stable mid-tick.
    errored: Vec<(usize, MissionError)>,
    /// Sessions owing a prefix replay this tick (decimation boundary).
    replay: Vec<usize>,
}

impl BatchState {
    fn new(model: &BatchedStreamingRegressor) -> Self {
        let engine = model.engine();
        let dim = engine.config().input_dim;
        BatchState {
            scratch: model.scratch(BATCH_WIDTH),
            normed: vec![0.0; dim * BATCH_WIDTH],
            feat: Vec::with_capacity(dim),
            live: engine.state(),
            inf: engine.scratch(),
            lanes: Vec::with_capacity(BATCH_WIDTH),
            preds: Vec::with_capacity(BATCH_WIDTH),
            errored: Vec::with_capacity(BATCH_WIDTH),
            replay: Vec::with_capacity(BATCH_WIDTH),
        }
    }

    /// Heap bytes of the working set (panels, staging rows, live state
    /// and bookkeeping), for capacity-planning amortization. The
    /// single-session [`InferenceScratch`] (under 2 KB at the standard
    /// config) is not counted.
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.scratch.resident_bytes()
            + (self.normed.capacity() + self.feat.capacity()) * size_of::<f64>()
            + self.live.resident_bytes()
            + self.lanes.capacity() * size_of::<(usize, TickPrologue)>()
            + self.preds.capacity() * size_of::<[f64; 4]>()
            + self.errored.capacity() * size_of::<(usize, MissionError)>()
            + self.replay.capacity() * size_of::<usize>()
    }

    /// Fills `preds` for this chunk's lanes with the kernel `batch`
    /// selects. A lane whose row failed to normalize (impossible for
    /// engine-shaped buffers) holds its session's previous prediction.
    fn infer(
        &mut self,
        sessions: &[VehicleSession],
        model: &BatchedStreamingRegressor,
        batch: FleetBatch,
    ) {
        let engine = model.engine();
        let dim = engine.config().input_dim;
        let n = self.lanes.len();
        let mut out = [0.0f64; 4];
        self.preds.clear();
        match batch {
            FleetBatch::Batched => {
                for (lane, &(i, _)) in self.lanes.iter().enumerate() {
                    let row = &self.normed[lane * dim..(lane + 1) * dim];
                    self.scratch
                        .load_state(lane, sessions[i].history().prefix());
                    self.scratch.load_row(lane, row);
                }
                model.step_batch(&mut self.scratch, n);
                model.finish_batch(&mut self.scratch, n);
                for (lane, (i, pro)) in self.lanes.iter().enumerate() {
                    self.preds.push(if pro.normed_ok {
                        self.scratch.read_output(lane, &mut out);
                        out
                    } else {
                        sessions[*i].last_prediction()
                    });
                }
            }
            FleetBatch::PerSession => {
                for (lane, (i, pro)) in self.lanes.iter().enumerate() {
                    let row = &self.normed[lane * dim..(lane + 1) * dim];
                    let ok = pro.normed_ok
                        && sessions[*i]
                            .history()
                            .predict(engine, row, &mut self.live, &mut self.inf, &mut out)
                            .is_ok();
                    self.preds.push(if ok {
                        out
                    } else {
                        sessions[*i].last_prediction()
                    });
                }
            }
        }
    }

    /// Runs the owed prefix replays with the kernel `batch` selects.
    ///
    /// Replays are grouped by history row count (lanes in one replay
    /// batch must step the same number of rows — sessions mid-warmup or
    /// on a different decimation phase simply land in different groups
    /// or different ticks) and run through the batched kernels; groups of
    /// one, and every group under [`FleetBatch::PerSession`], use
    /// [`pidpiper_ml::StreamHistory::replay`]. Engine-shaped rows cannot
    /// fail to step.
    fn replay(
        &mut self,
        sessions: &mut [VehicleSession],
        model: &BatchedStreamingRegressor,
        batch: FleetBatch,
    ) {
        let engine = model.engine();
        // The sort key is (rows, index): deterministic, and sessions keep
        // their relative order inside a group.
        self.replay
            .sort_unstable_by_key(|&i| (sessions[i].history().rows(), i));
        let mut rest = self.replay.as_slice();
        while let Some(&first) = rest.first() {
            let rows = sessions[first].history().rows();
            let len = match batch {
                FleetBatch::Batched => rest
                    .iter()
                    .take_while(|&&i| sessions[i].history().rows() == rows)
                    .count(),
                FleetBatch::PerSession => 1,
            };
            let (group, tail) = rest.split_at(len);
            rest = tail;
            if let [i] = *group {
                let _ = sessions[i].history_mut().replay(engine, &mut self.inf);
                continue;
            }
            for lanes in group.chunks(BATCH_WIDTH) {
                let n = lanes.len();
                self.scratch.reset_states();
                for t in 0..rows {
                    for (lane, &i) in lanes.iter().enumerate() {
                        let row = sessions[i].history().row(engine, t);
                        self.scratch.load_row(lane, row);
                    }
                    model.step_batch(&mut self.scratch, n);
                }
                for (lane, &i) in lanes.iter().enumerate() {
                    let prefix = sessions[i].history_mut().prefix_mut();
                    self.scratch.store_state(lane, prefix);
                }
            }
        }
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

/// One shard: resident sessions, pending queue, quarantine, working set.
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
    work: BatchState,
}

impl Shard {
    pub(crate) fn new(
        index: usize,
        capacity: usize,
        pending_capacity: usize,
        cost_budget: u64,
        session_cost: u64,
        model: &BatchedStreamingRegressor,
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
            work: BatchState::new(model),
        }
    }

    /// Heap bytes of the shard's working set.
    pub(crate) fn batch_bytes(&self) -> usize {
        self.work.resident_bytes()
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
            self.sessions
                .push(VehicleSession::new(spec, engine, params));
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
    /// One loop serves both [`FleetBatch`] modes. Per chunk of
    /// [`BATCH_WIDTH`] sessions:
    ///
    /// 1. **prologue** — each session's budget check, synthetic flight
    ///    and normalization ([`VehicleSession::begin_tick`]) into its
    ///    lane's staged row. Budget violators are set aside (lane
    ///    numbering stays stable) and retired after the loop, in
    ///    ascending index order.
    /// 2. **inference** — the kernel `batch` selects:
    ///    [`FleetBatch::Batched`] gathers every lane's prefix checkpoint
    ///    and row into the panels for one `step_batch` + `finish_batch`;
    ///    [`FleetBatch::PerSession`] runs each lane's
    ///    [`pidpiper_ml::StreamHistory::predict`], the
    ///    `StreamingRegressor` reference.
    /// 3. **epilogue** — each lane's prediction feeds
    ///    [`VehicleSession::finish_tick`] (monitor, supervisor,
    ///    fingerprint, decimated ring push), which reports whether a
    ///    prefix replay is owed.
    ///
    /// The owed replays run after the last chunk, again with the kernel
    /// `batch` selects. Every f64 op matches between the modes, so
    /// fingerprints are bit-identical — the fleet bench gates this
    /// (`batch_invariant`).
    pub(crate) fn tick(
        &mut self,
        model: &BatchedStreamingRegressor,
        params: &SessionParams,
        batch: FleetBatch,
    ) -> ShardTickStats {
        let engine = model.engine();
        let mut stats = ShardTickStats::default();
        while self.has_room() {
            match self.pending.pop_front() {
                Some(spec) => {
                    self.sessions
                        .push(VehicleSession::new(spec, engine, params));
                    stats.admitted_from_queue += 1;
                }
                None => break,
            }
        }

        let (sessions, work) = (&mut self.sessions, &mut self.work);
        let dim = engine.config().input_dim;
        work.errored.clear();
        work.replay.clear();
        for start in (0..sessions.len()).step_by(BATCH_WIDTH) {
            let end = (start + BATCH_WIDTH).min(sessions.len());
            work.lanes.clear();
            for (i, session) in (start..end).zip(&mut sessions[start..end]) {
                let lane = work.lanes.len();
                let row = &mut work.normed[lane * dim..(lane + 1) * dim];
                match session.begin_tick(engine, params, &mut work.feat, row) {
                    Ok(pro) => work.lanes.push((i, pro)),
                    Err(error) => work.errored.push((i, error)),
                }
            }
            work.infer(sessions, model, batch);
            let lanes = work.lanes.iter().zip(&work.preds);
            for (lane, (&(i, pro), &prediction)) in lanes.enumerate() {
                let row = &work.normed[lane * dim..(lane + 1) * dim];
                let (r, owed) = sessions[i].finish_tick(engine, params, prediction, &pro, row);
                stats.session_ticks += 1;
                stats.tripped += u64::from(r.tripped);
                stats.faulted += u64::from(r.fault_active);
                match r.health {
                    HealthState::Recovery => stats.in_recovery += 1,
                    HealthState::Degraded => stats.degraded += 1,
                    HealthState::Nominal => {}
                }
                if owed {
                    work.replay.push(i);
                }
            }
        }
        work.replay(sessions, model, batch);

        // Retire budget violators: records in ascending index order,
        // removals in descending order so the collected indices stay
        // valid.
        for (i, error) in &work.errored {
            let s = &sessions[*i];
            self.retired.push(RetiredSession {
                id: s.id(),
                ticks: s.ticks(),
                fingerprint: s.fingerprint(),
                error: error.clone(),
            });
            stats.retired += 1;
        }
        for (i, _) in work.errored.iter().rev() {
            sessions.remove(*i);
        }
        stats
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
