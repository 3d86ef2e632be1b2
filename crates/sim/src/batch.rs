//! Batched multi-stream simulation over one shared compiled plan — the
//! serving scenario: one compiled ruleset, many independent inputs.
//!
//! A compiled plan is immutable and `Sync`, so a single plan can drive
//! any number of streams with only per-stream sessions as mutable
//! state. [`BatchSimulator`] is a *stream table* generic over the plan
//! flavour (the flat [`CompiledAutomaton`] by default, or a
//! [`ShardedAutomaton`] — see [`ShardedBatch`]): flows are opened, fed
//! incrementally (in any interleaving), and closed for their
//! [`RunResult`]s — plus the materialized-input conveniences built on
//! the same sessions:
//!
//! * [`open`](BatchSimulator::open) / [`feed`](BatchSimulator::feed) /
//!   [`close`](BatchSimulator::close) — the incremental stream table,
//!   with closed sessions recycled through a pool so steady-state
//!   serving does not allocate;
//! * [`ingest`](BatchSimulator::ingest) — drives the table from a
//!   length-prefixed wire buffer via [`FrameDecoder`];
//! * [`results`](BatchSimulator::results) — a lazy sequential iterator
//!   reusing one session across streams;
//! * [`run_all`](BatchSimulator::run_all) — eager collection;
//! * [`run_parallel`](BatchSimulator::run_parallel) — a scoped-thread
//!   fan-out splitting the streams over OS threads, one session per
//!   thread. (The environment this repo builds in has no registry
//!   access, so the data-parallel path uses `std::thread::scope` rather
//!   than an external `rayon` dependency; the chunking shape is the
//!   same.)
//!
//! # Scheduling: capped residency and parked flows
//!
//! A live session owns dense scratch sized to the whole automaton, so a
//! table serving hundreds of thousands of flows cannot keep one session
//! per flow. [`max_resident`](BatchSimulator::max_resident) caps the
//! number of *resident* sessions: when a flow needs a session and the
//! cap is reached, the scheduler parks a victim — idle flows (no
//! dynamic activity, the streams whose arrays are powered down) first,
//! then the least recently fed — by suspending it to a sparse
//! [`SuspendedFlow`] and handing its session
//! over. Parked flows resume transparently on their next feed;
//! results are bit-identical to an uncapped table. With a sharded plan,
//! [`shard_load`](BatchSimulator::shard_load) reports how many resident
//! flows have activity on each shard — the observed-activity placement
//! signal.
//!
//! # Examples
//!
//! Interleaved incremental serving:
//!
//! ```
//! use cama_core::compiled::CompiledAutomaton;
//! use cama_core::regex;
//! use cama_sim::BatchSimulator;
//!
//! let nfa = regex::compile("ab+")?;
//! let plan = CompiledAutomaton::compile(&nfa);
//! let mut batch = BatchSimulator::new(&plan);
//! batch.feed(0, b"za");
//! batch.feed(1, b"a");    // another flow, interleaved
//! batch.feed(0, b"bbz");  // chunk boundary mid-match
//! batch.feed(1, b"b");
//! assert_eq!(batch.close(0).report_offsets(), vec![2, 3]);
//! assert_eq!(batch.close(1).report_offsets(), vec![1]);
//! # Ok::<(), cama_core::Error>(())
//! ```
//!
//! A sharded table with two resident sessions serving five flows:
//!
//! ```
//! use cama_core::compiled::ShardedAutomaton;
//! use cama_core::regex;
//! use cama_sim::BatchSimulator;
//!
//! let nfa = regex::compile("ab+")?;
//! let plan = ShardedAutomaton::compile(&nfa, 1);
//! let mut batch = BatchSimulator::new(&plan).max_resident(2);
//! for id in 0..5u32 {
//!     batch.feed(id, b"za");
//! }
//! assert_eq!(batch.resident_count(), 2);
//! assert_eq!(batch.open_count(), 5);
//! for id in 0..5u32 {
//!     batch.feed(id, b"bb"); // parked flows resume transparently
//!     assert_eq!(batch.close(id).report_offsets(), vec![2, 3]);
//! }
//! # Ok::<(), cama_core::Error>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use crate::activity::{NullObserver, ShardObserver};
use crate::engine::FlatSession;
use crate::frame::{FrameDecoder, FrameError, FrameEvent, StreamId};
use crate::result::RunResult;
use crate::session::{FlowSession, Session, SuspendedFlow};
use crate::sharded::{ShardStats, ShardedExecution, ShardedSession};
use cama_core::compile::work_steal;
use cama_core::compiled::{CompiledAutomaton, ShardedAutomaton};
use cama_core::PlanRemap;

/// The per-flow outcome of a live plan swap (see
/// [`BatchSimulator::swap_plan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapVerdict {
    /// The flow had no dynamic activity at the swap — nothing to
    /// translate (any pending strided carry byte is kept).
    Idle,
    /// Some of the flow's active states survived onto the new plan.
    Migrated {
        /// Dynamic states translated onto the new plan.
        kept: usize,
        /// Dynamic states dropped (their components were removed).
        dropped: usize,
    },
    /// Every active state sat on a removed component: the flow's match
    /// progress is gone. It stays open and continues on the new plan
    /// (its accumulated reports are kept — they are historical facts).
    Displaced {
        /// Dynamic states dropped with the removed components.
        dropped: usize,
    },
    /// The flow was already parked (cold) at the swap: its snapshot was
    /// left untouched and the remap stashed instead. Translation
    /// happens lazily when the flow next resumes or closes, so a swap
    /// over a mostly-parked table costs O(resident), not O(open flows).
    /// Results are identical to eager translation.
    Deferred,
}

/// What one [`swap_plan`](BatchSimulator::swap_plan) did, flow by flow.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwapReport {
    /// Open flows carried across the swap.
    pub flows: usize,
    /// Flows with at least one surviving active state.
    pub migrated: usize,
    /// Flows whose entire live activity was on removed components.
    pub displaced: usize,
    /// Flows with no dynamic activity at the swap.
    pub idle: usize,
    /// Parked flows whose translation was deferred to their next
    /// resume/close.
    pub deferred: usize,
    /// Dynamic states translated onto the new plan, summed over flows.
    pub states_kept: usize,
    /// Dynamic states dropped with removed components, summed.
    pub states_dropped: usize,
    /// The per-flow verdicts, in ascending stream-id order.
    pub verdicts: Vec<(StreamId, SwapVerdict)>,
}

/// A compiled plan the stream table can serve: hands out sessions and
/// tells the scheduler its shard structure.
///
/// Implemented by every flat plan flavour — [`CompiledAutomaton`], the
/// encoded, and the two 2-stride plans, each handing out
/// [`FlatSession`]s (a single logical shard) — and by
/// [`ShardedAutomaton`] over any of those flavours ([`ShardedSession`]s,
/// one shard per simulated CAM array).
pub trait StreamPlan: Sync {
    /// The session type opened for each flow.
    type Session<'p>: FlowSession + Clone + fmt::Debug
    where
        Self: 'p;

    /// The per-array plan flavour the sessions step (the plan itself
    /// for flat plans): it fixes how a parked flow closes without a
    /// session.
    type Flavour: ShardedExecution;

    /// Starts a fresh session over this plan.
    fn open_session(&self) -> Self::Session<'_>;

    /// Number of shards the engine distinguishes (1 for flat plans).
    fn num_shards(&self) -> usize {
        1
    }
}

impl<P: ShardedExecution + Clone + fmt::Debug> StreamPlan for P {
    type Session<'p>
        = FlatSession<'p, P>
    where
        Self: 'p;
    type Flavour = P;

    fn open_session(&self) -> FlatSession<'_, P> {
        FlatSession::new(self)
    }
}

impl<P: ShardedExecution + Clone + fmt::Debug> StreamPlan for ShardedAutomaton<P> {
    type Session<'p>
        = ShardedSession<'p, P>
    where
        Self: 'p;
    type Flavour = P;

    fn open_session(&self) -> ShardedSession<'_, P> {
        ShardedSession::new(self)
    }

    fn num_shards(&self) -> usize {
        ShardedAutomaton::num_shards(self)
    }
}

/// One flow in the table: either holding a resident session or parked
/// as a sparse snapshot.
#[derive(Clone, Debug)]
enum Flow<S> {
    Resident {
        session: S,
        /// Scheduler clock value of the last feed (victim ordering).
        last_touch: u64,
    },
    Parked {
        flow: SuspendedFlow,
        /// Swap epoch the snapshot's state ids belong to: an index into
        /// the table's stashed remap chain. Remaps `epoch..` are
        /// applied lazily when the flow resumes or closes.
        epoch: usize,
    },
}

/// Remap-chain length that triggers compaction at the next swap (see
/// [`BatchSimulator`]'s `compact_remaps`): small enough that the chain
/// never holds more than a handful of remaps, large enough that the
/// O(open flows) rebase is amortised over several swaps.
const REMAP_COMPACT_THRESHOLD: usize = 8;

/// A stream table running many independent input streams over one
/// shared compiled plan (flat by default; see [`ShardedBatch`] for the
/// per-CAM-array flavour).
#[derive(Clone, Debug)]
pub struct BatchSimulator<'p, P: StreamPlan = CompiledAutomaton> {
    plan: &'p P,
    /// Open flows: resident sessions or parked snapshots.
    table: HashMap<StreamId, Flow<P::Session<'p>>>,
    /// Closed sessions kept for reuse, scratch capacity intact.
    pool: Vec<P::Session<'p>>,
    /// Cap on concurrently resident sessions (`None` = unlimited).
    max_resident: Option<usize>,
    /// Currently resident sessions in `table`.
    resident: usize,
    /// Ids of resident flows, maintained only for capped tables so
    /// victim selection scans O(cap) entries, never O(open flows).
    resident_ids: Vec<StreamId>,
    /// Monotone feed clock driving least-recently-fed victim choice.
    touch_clock: u64,
    /// The remap chain of past plan swaps: parked flows skipped by a
    /// lazy swap carry an epoch index into this chain and translate
    /// through `pending_remaps[epoch..]` when they next resume or
    /// close. Cleared whenever no parked flow remains.
    pending_remaps: Vec<PlanRemap>,
}

/// A [`BatchSimulator`] over a [`ShardedAutomaton`]: the stream table
/// whose sessions execute per-CAM-array and whose scheduler sees
/// per-shard activity.
pub type ShardedBatch<'p> = BatchSimulator<'p, ShardedAutomaton>;

impl<'p, P: StreamPlan> BatchSimulator<'p, P> {
    /// Creates a batch runner over a shared compiled plan.
    pub fn new(plan: &'p P) -> Self {
        BatchSimulator {
            plan,
            table: HashMap::new(),
            pool: Vec::new(),
            max_resident: None,
            resident: 0,
            resident_ids: Vec::new(),
            touch_clock: 0,
            pending_remaps: Vec::new(),
        }
    }

    /// Caps the number of concurrently *resident* sessions. Flows
    /// beyond the cap stay open but parked (sparse snapshots); feeding
    /// a parked flow resumes it, parking a victim if needed. Results
    /// are identical to an uncapped table.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero, or if flows are already open (set the
    /// cap at construction, before the table is used).
    pub fn max_resident(mut self, cap: usize) -> Self {
        assert!(cap > 0, "resident cap must be positive");
        assert!(
            self.table.is_empty(),
            "set the residency cap before opening flows"
        );
        self.max_resident = Some(cap);
        self
    }

    /// The shared compiled plan.
    pub fn plan(&self) -> &'p P {
        self.plan
    }

    /// A fresh standalone session over the shared plan (not entered in
    /// the stream table).
    pub fn session(&self) -> P::Session<'p> {
        self.plan.open_session()
    }

    /// Opens a flow in the stream table, recycling a pooled session if
    /// one is available, and returns `true` — or returns `false` if the
    /// stream is already open (resident or parked), leaving the existing
    /// flow untouched: a duplicate open is a verdict for the caller, not
    /// a crash. Opening is optional — [`feed`](Self::feed) opens unknown
    /// ids implicitly — but useful to register a flow before its first
    /// payload arrives.
    pub fn open(&mut self, stream: StreamId) -> bool {
        if self.table.contains_key(&stream) {
            return false;
        }
        let _ = self.session_mut(stream);
        true
    }

    /// `true` if `stream` is currently open (resident or parked).
    pub fn is_open(&self, stream: StreamId) -> bool {
        self.table.contains_key(&stream)
    }

    /// Number of currently open flows (resident plus parked).
    pub fn open_count(&self) -> usize {
        self.table.len()
    }

    /// Number of flows currently holding a resident session.
    pub fn resident_count(&self) -> usize {
        self.resident
    }

    /// Number of open flows currently parked as sparse snapshots.
    pub fn parked_count(&self) -> usize {
        self.table.len() - self.resident
    }

    /// Remaps stashed for lazily-translated (deferred) parked flows.
    /// Bounded by the compaction threshold plus one swap's worth of
    /// slack regardless of how many swaps the table lives through.
    pub fn pending_remap_count(&self) -> usize {
        self.pending_remaps.len()
    }

    /// The residency cap set via [`max_resident`](Self::max_resident)
    /// (`None` = unlimited).
    pub fn resident_cap(&self) -> Option<usize> {
        self.max_resident
    }

    /// `true` if `stream` currently holds a resident session (open and
    /// not parked).
    pub fn is_resident(&self, stream: StreamId) -> bool {
        matches!(self.table.get(&stream), Some(Flow::Resident { .. }))
    }

    /// Hot ruleset swap: replaces the compiled plan under every live
    /// flow without draining the table.
    ///
    /// Every *resident* flow is parked as a sparse [`SuspendedFlow`]
    /// snapshot and its global state ids (active set and accumulated
    /// reports) are translated through `remap`
    /// ([`SuspendedFlow::translate`]) eagerly. Flows that were already
    /// parked — the cold majority of a capped table — are left
    /// untouched with a [`Deferred`](SwapVerdict::Deferred) verdict:
    /// the remap is stashed and applied lazily when each flow next
    /// resumes or closes (chaining across multiple swaps if the flow
    /// stays cold that long), so swap latency scales with the resident
    /// set, not the open-flow count. Either way the table switches to
    /// `new_plan` and flows resume on it transparently at their next
    /// feed. All sessions — resident and pooled — are dropped: they
    /// execute the *old* plan. For flows whose live states all sit on
    /// unchanged components the swap is unobservable — reports, order,
    /// and byte positions are bit-identical to a run that never swapped
    /// (asserted differentially in `tests/property.rs`); flows whose
    /// components were removed lose their match progress and get a
    /// [`Displaced`](SwapVerdict::Displaced) verdict (resident flows
    /// report it at the swap, deferred flows silently at translation).
    ///
    /// `remap` must be the old→new mapping for exactly this plan pair
    /// (`PlanRemap::between` on the source automata — the
    /// `StridedNfa`s for strided flavours — [`PlanRemap::extend_append`]
    /// for append-only updates, or `identity` when the plan was merely
    /// recompiled).
    /// Swapping with [`PlanRemap::identity`] and the same plan is a
    /// valid no-op-shaped stress test: it round-trips every resident
    /// flow through suspend/translate/resume.
    pub fn swap_plan(&mut self, new_plan: &'p P, remap: &PlanRemap) -> SwapReport {
        let mut report = SwapReport::default();
        // HashMap iteration order is nondeterministic: fix the verdict
        // order (and the suspend order, for reproducibility) by id.
        let mut streams: Vec<StreamId> = self.table.keys().copied().collect();
        streams.sort_unstable();
        // Already-parked (cold) flows defer; the remap is stashed only
        // when at least one flow will still reference it. Residents are
        // eagerly translated and re-parked at the post-stash epoch, so
        // they skip the whole chain on resume.
        if self.table.len() > self.resident {
            self.pending_remaps.push(remap.clone());
        } else {
            debug_assert!(
                self.pending_remaps.is_empty(),
                "remap chain must be cleared once every flow is resident"
            );
        }
        let current_epoch = self.pending_remaps.len();
        for &stream in &streams {
            let mut flow = match self.table.remove(&stream).expect("stream open") {
                // The session borrows the old plan; snapshot and drop it.
                Flow::Resident { mut session, .. } => session.suspend(),
                Flow::Parked { flow, epoch } => {
                    // Lazy cold-flow path: keep the snapshot as-is at
                    // its old epoch; the stashed remap chain catches it
                    // up on resume/close.
                    report.deferred += 1;
                    report.verdicts.push((stream, SwapVerdict::Deferred));
                    self.table.insert(stream, Flow::Parked { flow, epoch });
                    continue;
                }
            };
            let live_before = flow.dynamic_states().len();
            let (kept, dropped) = flow.translate(remap);
            let verdict = if live_before == 0 {
                report.idle += 1;
                SwapVerdict::Idle
            } else if kept > 0 {
                report.migrated += 1;
                SwapVerdict::Migrated { kept, dropped }
            } else {
                report.displaced += 1;
                SwapVerdict::Displaced { dropped }
            };
            report.states_kept += kept;
            report.states_dropped += dropped;
            report.verdicts.push((stream, verdict));
            self.table.insert(
                stream,
                Flow::Parked {
                    flow,
                    epoch: current_epoch,
                },
            );
        }
        report.flows = streams.len();
        self.plan = new_plan;
        self.resident = 0;
        self.resident_ids.clear();
        self.pool.clear();
        if self.pending_remaps.len() >= REMAP_COMPACT_THRESHOLD {
            self.compact_remaps();
        }
        report
    }

    /// Drops the remap-chain prefix no parked flow references any more
    /// and rebases the surviving epochs. A table whose flows churn
    /// (park, then resume or close within a few swaps) would otherwise
    /// grow the chain by one remap per swap forever; compaction keeps
    /// it bounded by the deepest *live* deferral, amortised O(open
    /// flows) once per [`REMAP_COMPACT_THRESHOLD`] swaps.
    fn compact_remaps(&mut self) {
        let min_epoch = self
            .table
            .values()
            .filter_map(|flow| match flow {
                Flow::Parked { epoch, .. } => Some(*epoch),
                Flow::Resident { .. } => None,
            })
            .min()
            .unwrap_or(self.pending_remaps.len());
        if min_epoch == 0 {
            return;
        }
        self.pending_remaps.drain(..min_epoch);
        for flow in self.table.values_mut() {
            if let Flow::Parked { epoch, .. } = flow {
                *epoch -= min_epoch;
            }
        }
    }

    /// Visits every resident flow as `(stream, idle, last_touch)` — the
    /// raw victim-candidate signal an external scheduling policy ranks:
    /// `idle` is the session's powered-down state (no dynamic
    /// activity), `last_touch` the monotone feed-clock value of the
    /// flow's most recent chunk. O(cap) on a capped table.
    pub fn for_each_resident(&self, mut f: impl FnMut(StreamId, bool, u64)) {
        let mut visit = |id: StreamId, flow: &Flow<P::Session<'p>>| {
            if let Flow::Resident {
                session,
                last_touch,
            } = flow
            {
                f(id, session.is_idle(), *last_touch);
            }
        };
        if self.max_resident.is_some() {
            for &id in &self.resident_ids {
                visit(id, &self.table[&id]);
            }
        } else {
            for (&id, flow) in &self.table {
                visit(id, flow);
            }
        }
    }

    /// Visits the shard indices a resident flow currently has dynamic
    /// activity on (nothing for parked or unknown flows). Combined with
    /// [`shard_load_into`](Self::shard_load_into) this tells a fairness
    /// policy which flows are loading the hot shards.
    pub fn for_each_active_shard_of(&self, stream: StreamId, f: impl FnMut(usize)) {
        if let Some(Flow::Resident { session, .. }) = self.table.get(&stream) {
            session.for_each_active_shard(f);
        }
    }

    /// Parks a specific resident flow — suspends it to a sparse
    /// [`SuspendedFlow`] and returns its session to the pool — so an
    /// external policy can choose the victim instead of the built-in
    /// idle-then-LRU rule. Returns `false` (and does nothing) if the
    /// flow is not resident. The flow stays open and resumes
    /// transparently on its next feed.
    ///
    /// # Panics
    ///
    /// Panics on an uncapped table: without a residency cap every open
    /// flow is assumed resident and nothing ever needs parking.
    pub fn park(&mut self, stream: StreamId) -> bool {
        assert!(
            self.max_resident.is_some(),
            "parking requires a residency cap (max_resident)"
        );
        if !self.is_resident(stream) {
            return false;
        }
        self.park_flow(stream);
        true
    }

    /// For each shard of the plan, how many resident flows currently
    /// have dynamic activity on it — the observed-activity signal the
    /// scheduler's placement policy reads (always a single entry for
    /// flat plans).
    pub fn shard_load(&self) -> Vec<usize> {
        let mut load = Vec::new();
        self.shard_load_into(&mut load);
        load
    }

    /// [`shard_load`](Self::shard_load) into a caller-owned buffer, so
    /// per-admission placement decisions don't allocate a fresh `Vec`
    /// on every call. The buffer is cleared and resized to
    /// [`num_shards`](StreamPlan::num_shards) entries.
    pub fn shard_load_into(&self, load: &mut Vec<usize>) {
        load.clear();
        load.resize(self.plan.num_shards(), 0);
        let mut count = |flow: &Flow<P::Session<'p>>| {
            if let Flow::Resident { session, .. } = flow {
                session.for_each_active_shard(|shard| load[shard] += 1);
            }
        };
        if self.max_resident.is_some() {
            // Capped table: walk the O(cap) resident index, not the
            // (possibly huge) table of parked flows.
            for id in &self.resident_ids {
                count(&self.table[id]);
            }
        } else {
            for flow in self.table.values() {
                count(flow);
            }
        }
    }

    /// Feeds one chunk to a flow, opening it implicitly if unknown.
    /// Chunks of one flow may interleave arbitrarily with other flows'.
    pub fn feed(&mut self, stream: StreamId, chunk: &[u8]) {
        self.session_mut(stream).feed(chunk);
    }

    /// [`feed`](Self::feed) reporting every cycle to `observer` (shared
    /// energy accounting across the whole table; a flat plan's lane is
    /// shard 0).
    pub fn feed_sharded_with(
        &mut self,
        stream: StreamId,
        chunk: &[u8],
        observer: &mut impl ShardObserver,
    ) {
        self.session_mut(stream).feed_with(chunk, observer);
    }

    /// Closes a flow and returns its accumulated result; a resident
    /// session returns to the pool for reuse (a parked flow usually
    /// needs no session at all — only a strided flow parked mid-pair
    /// borrows one to flush its carry byte). Closing a flow that was
    /// never fed (or never opened) yields the empty result, matching a
    /// zero-length stream.
    pub fn close(&mut self, stream: StreamId) -> RunResult {
        self.close_sharded_with(stream, &mut NullObserver)
    }

    /// [`close`](Self::close) reporting the flush cycle (a strided
    /// flow's zero-padded final pair) to `observer`, so with
    /// [`feed_sharded_with`](Self::feed_sharded_with) an energy observer
    /// sees every cycle of a flow.
    pub fn close_sharded_with(
        &mut self,
        stream: StreamId,
        observer: &mut impl ShardObserver,
    ) -> RunResult {
        let mut session = match self.table.remove(&stream) {
            Some(Flow::Resident { session, .. }) => {
                self.note_unresident(stream);
                session
            }
            Some(Flow::Parked { mut flow, epoch }) => {
                Self::translate_deferred(&self.pending_remaps, &mut flow, epoch);
                self.maybe_clear_remaps();
                // Only a strided flow parked mid-pair needs a session,
                // to flush its carry byte.
                let flow = match flow.finalize::<P::Flavour>() {
                    Ok(result) => return result,
                    Err(flow) => flow,
                };
                let mut session = self.pooled_session();
                session.resume(flow);
                session
            }
            None => return RunResult::default(),
        };
        let result = session.finish_with(observer);
        self.pool.push(session);
        result
    }

    /// A recycled session from the pool, or a fresh one.
    fn pooled_session(&mut self) -> P::Session<'p> {
        self.pool.pop().unwrap_or_else(|| self.plan.open_session())
    }

    /// Catches a deferred (cold-parked) snapshot up with every plan
    /// swap it slept through: applies the stashed remaps from the
    /// flow's park epoch forward, in swap order. Eagerly-translated
    /// flows carry `epoch == pending.len()` and the slice is empty.
    fn translate_deferred(pending: &[PlanRemap], flow: &mut SuspendedFlow, epoch: usize) {
        for remap in &pending[epoch..] {
            flow.translate(remap);
        }
    }

    /// Drops the stashed remap chain once no parked flow can still
    /// reference it (every open flow is resident), so a long-lived
    /// table does not accumulate remaps across many swaps.
    fn maybe_clear_remaps(&mut self) {
        if !self.pending_remaps.is_empty() && self.table.len() == self.resident {
            self.pending_remaps.clear();
        }
    }

    /// Drives the stream table from one length-prefixed wire chunk (see
    /// [`frame`](crate::frame) for the format): data frames feed their
    /// flow, close frames close it. Appends `(stream, result)` to
    /// `closed` for every flow closed by this chunk, in wire order. The
    /// decoder carries partial frames across calls, so the wire may be
    /// split anywhere.
    ///
    /// # Errors
    ///
    /// Propagates the decoder's [`FrameError`] on a malformed header.
    /// Frames demuxed earlier in the chunk have already been applied,
    /// and flows they closed are already in `closed` — which is why
    /// `closed` is an out-parameter: a close result delivered just
    /// before the malformed header is not recoverable any other way.
    pub fn ingest(
        &mut self,
        decoder: &mut FrameDecoder,
        wire: &[u8],
        closed: &mut Vec<(StreamId, RunResult)>,
    ) -> Result<(), FrameError> {
        decoder.feed(wire, |event| match event {
            FrameEvent::Data { stream, chunk } => self.feed(stream, chunk),
            FrameEvent::Close { stream } => closed.push((stream, self.close(stream))),
        })
    }

    /// Makes `stream` resident (resuming it if parked, creating it if
    /// unknown), parking a victim first when the cap is reached.
    ///
    /// Only called off the resident fast path, which stays inside
    /// [`session_mut`](Self::session_mut): on the capped slow path, and
    /// for a flow a plan swap parked in an uncapped table.
    fn make_resident(&mut self, stream: StreamId, clock: u64) {
        if let Some(cap) = self.max_resident {
            if self.resident >= cap {
                self.park_victim();
            }
        }
        let mut session = self.pooled_session();
        if let Some(Flow::Parked { mut flow, epoch }) = self.table.remove(&stream) {
            Self::translate_deferred(&self.pending_remaps, &mut flow, epoch);
            session.resume(flow);
        }
        self.table.insert(
            stream,
            Flow::Resident {
                session,
                last_touch: clock,
            },
        );
        self.note_resident(stream);
        self.maybe_clear_remaps();
    }

    fn note_resident(&mut self, stream: StreamId) {
        self.resident += 1;
        // The resident index exists only for capped tables: park_victim
        // must scan residents in O(cap), not O(open flows). Uncapped
        // tables never park, so they skip the bookkeeping entirely.
        if self.max_resident.is_some() {
            self.resident_ids.push(stream);
        }
    }

    fn note_unresident(&mut self, stream: StreamId) {
        self.resident -= 1;
        if self.max_resident.is_some() {
            let i = self
                .resident_ids
                .iter()
                .position(|&id| id == stream)
                .expect("resident flow missing from index");
            self.resident_ids.swap_remove(i);
        }
    }

    /// Parks one resident flow: idle flows first (their arrays are
    /// powered down and their snapshots are near-empty — and parking
    /// them keeps the flows actually loading shards resident), then the
    /// least recently fed. Scans only the resident index, so the cost
    /// is O(cap) regardless of how many flows are open.
    fn park_victim(&mut self) {
        let victim = self
            .resident_ids
            .iter()
            .map(|&id| match &self.table[&id] {
                Flow::Resident {
                    session,
                    last_touch,
                } => (id, session.is_idle(), *last_touch),
                Flow::Parked { .. } => unreachable!("parked flow in resident index"),
            })
            .min_by_key(|&(_, idle, touch)| (!idle, touch))
            .map(|(id, ..)| id);
        let Some(id) = victim else { return };
        self.park_flow(id);
    }

    /// Suspends a known-resident flow into a parked snapshot.
    fn park_flow(&mut self, id: StreamId) {
        if let Some(Flow::Resident { mut session, .. }) = self.table.remove(&id) {
            let parked = session.suspend();
            self.pool.push(session);
            self.note_unresident(id);
            // A freshly-parked snapshot is current with the live plan:
            // its epoch is the full chain length, so resume applies
            // only remaps stashed by *later* swaps.
            self.table.insert(
                id,
                Flow::Parked {
                    flow: parked,
                    epoch: self.pending_remaps.len(),
                },
            );
        }
    }

    fn session_mut(&mut self, stream: StreamId) -> &mut P::Session<'p> {
        self.touch_clock += 1;
        let clock = self.touch_clock;
        if self.max_resident.is_none() {
            // Uncapped tables never park on their own, but a plan swap
            // parks every flow: resume those off the fast path first.
            if matches!(self.table.get(&stream), Some(Flow::Parked { .. })) {
                self.make_resident(stream, clock);
            }
            // Every remaining open flow is resident: single hash lookup
            // on the per-chunk hot path.
            let (plan, pool, resident) = (self.plan, &mut self.pool, &mut self.resident);
            let flow = self.table.entry(stream).or_insert_with(|| {
                *resident += 1;
                Flow::Resident {
                    session: pool.pop().unwrap_or_else(|| plan.open_session()),
                    last_touch: 0,
                }
            });
            let Flow::Resident {
                session,
                last_touch,
            } = flow
            else {
                unreachable!("swap-parked flows were resumed above")
            };
            *last_touch = clock;
            return session;
        }
        if !matches!(self.table.get(&stream), Some(Flow::Resident { .. })) {
            self.make_resident(stream, clock);
        }
        match self.table.get_mut(&stream) {
            Some(Flow::Resident {
                session,
                last_touch,
            }) => {
                *last_touch = clock;
                session
            }
            _ => unreachable!("make_resident left the flow parked"),
        }
    }

    /// Runs a single stream from a fresh state.
    pub fn run_stream(&self, input: &[u8]) -> RunResult {
        let mut session = self.session();
        session.feed(input);
        session.finish()
    }

    /// Lazily yields one [`RunResult`] per stream, in order, reusing a
    /// single session across the whole batch.
    pub fn results<'s, I>(&self, streams: I) -> impl Iterator<Item = RunResult> + use<'p, 's, I, P>
    where
        I: IntoIterator<Item = &'s [u8]>,
    {
        let mut session = self.session();
        streams.into_iter().map(move |input| {
            session.feed(input);
            session.finish()
        })
    }

    /// Runs every stream sequentially and collects the results.
    pub fn run_all<'s, I>(&self, streams: I) -> Vec<RunResult>
    where
        I: IntoIterator<Item = &'s [u8]>,
    {
        self.results(streams).collect()
    }

    /// Runs the streams across `threads` OS threads (scoped), returning
    /// results in stream order.
    ///
    /// `threads == 0` auto-detects: the `CAMA_WORKERS` environment
    /// variable if set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`] (see
    /// [`worker_count`](crate::parallel::worker_count)). The resolved
    /// count is clamped to the number of streams — no thread is ever
    /// spawned without work — and a count of 1 (or an empty batch)
    /// runs on the caller's thread.
    ///
    /// Streams are dispatched by work-stealing ([`work_steal`]): threads
    /// claim the next unclaimed stream from a shared atomic cursor, so
    /// skewed stream lengths don't idle threads the way contiguous
    /// chunking would. Results return in stream order.
    pub fn run_parallel(&self, streams: &[&[u8]], threads: usize) -> Vec<RunResult> {
        self.run_parallel_collect(streams, threads, |_| {})
    }

    /// [`run_parallel`](Self::run_parallel) with a per-thread close
    /// hook: after a thread runs out of streams to claim, `at_close`
    /// sees its session once (stats harvesting, pool teardown checks).
    fn run_parallel_collect(
        &self,
        streams: &[&[u8]],
        threads: usize,
        at_close: impl Fn(&mut P::Session<'p>) + Sync,
    ) -> Vec<RunResult> {
        let plan = self.plan;
        work_steal(
            streams.len(),
            crate::parallel::worker_count(threads).min(streams.len()),
            || plan.open_session(),
            |session, i| {
                session.feed(streams[i]);
                session.finish()
            },
            |mut session| at_close(&mut session),
        )
    }
}

impl<'p, P: ShardedExecution + Clone + fmt::Debug> BatchSimulator<'p, ShardedAutomaton<P>> {
    /// [`run_parallel`](Self::run_parallel) that also returns the
    /// batch's execution counters: each thread's session stats are
    /// harvested at close and summed via [`ShardStats::merge`], so the
    /// rollup equals what one sequential session over all streams
    /// would have counted (asserted in `tests/property.rs`).
    pub fn run_parallel_stats(
        &self,
        streams: &[&[u8]],
        threads: usize,
    ) -> (Vec<RunResult>, ShardStats) {
        let stats = Mutex::new(ShardStats::default());
        let results = self.run_parallel_collect(streams, threads, |session| {
            stats
                .lock()
                .expect("stats mutex poisoned")
                .merge(&session.take_stats());
        });
        (results, stats.into_inner().expect("stats mutex poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_close, encode_frame};
    use crate::Simulator;
    use cama_core::regex;

    fn streams() -> Vec<Vec<u8>> {
        (0..37)
            .map(|i| {
                (0..(i * 7 % 50))
                    .map(|j| b"abcxz"[(i + j) % 5])
                    .collect::<Vec<u8>>()
            })
            .collect()
    }

    #[test]
    fn batch_matches_single_stream_engine() {
        let nfa = regex::compile("a(b|c)+x").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let batch = BatchSimulator::new(&plan);
        let inputs = streams();
        let results = batch.run_all(inputs.iter().map(Vec::as_slice));
        assert_eq!(results.len(), inputs.len());
        let mut single = Simulator::new(&nfa);
        for (input, got) in inputs.iter().zip(&results) {
            assert_eq!(&single.run(input), got);
        }
    }

    #[test]
    fn lazy_iterator_is_in_order_and_resets() {
        let nfa = regex::compile("ab").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let batch = BatchSimulator::new(&plan);
        // First stream ends in 'a': without a reset the following 'b'
        // stream would complete the match.
        let inputs: Vec<&[u8]> = vec![b"xa", b"b", b"ab"];
        let offsets: Vec<Vec<usize>> = batch
            .results(inputs.iter().copied())
            .map(|r| r.report_offsets())
            .collect();
        assert_eq!(offsets, vec![vec![], vec![], vec![1]]);
    }

    #[test]
    fn interleaved_table_matches_one_shot_runs() {
        let nfa = regex::compile("a(b|c)+x").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan);
        let inputs = streams();
        // Feed all streams one byte at a time, round-robin.
        let longest = inputs.iter().map(Vec::len).max().unwrap();
        for pos in 0..longest {
            for (id, input) in inputs.iter().enumerate() {
                if let Some(&byte) = input.get(pos) {
                    batch.feed(id as StreamId, std::slice::from_ref(&byte));
                }
            }
        }
        let mut single = Simulator::new(&nfa);
        for (id, input) in inputs.iter().enumerate() {
            assert_eq!(
                batch.close(id as StreamId),
                single.run(input),
                "stream {id}"
            );
        }
        assert_eq!(batch.open_count(), 0);
    }

    #[test]
    fn capped_residency_matches_unlimited_table() {
        let nfa = regex::compile("a(b|c)+x").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let inputs = streams();
        let mut unlimited = BatchSimulator::new(&plan);
        for cap in [1usize, 2, 5] {
            let mut capped = BatchSimulator::new(&plan).max_resident(cap);
            let longest = inputs.iter().map(Vec::len).max().unwrap();
            for pos in (0..longest).step_by(3) {
                for (id, input) in inputs.iter().enumerate() {
                    let chunk = &input[pos.min(input.len())..(pos + 3).min(input.len())];
                    if !chunk.is_empty() {
                        capped.feed(id as StreamId, chunk);
                        unlimited.feed(id as StreamId, chunk);
                        assert!(capped.resident_count() <= cap, "cap {cap}");
                    }
                }
            }
            for id in 0..inputs.len() {
                assert_eq!(
                    capped.close(id as StreamId),
                    unlimited.close(id as StreamId),
                    "cap {cap}, stream {id}"
                );
            }
            assert_eq!(capped.open_count(), 0);
        }
    }

    #[test]
    fn parked_flows_count_as_open_and_close_without_a_session() {
        let nfa = regex::compile("ab").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan).max_resident(1);
        batch.feed(0, b"a");
        batch.feed(1, b"ab"); // parks flow 0
        assert_eq!(batch.open_count(), 2);
        assert_eq!(batch.resident_count(), 1);
        assert_eq!(batch.parked_count(), 1);
        assert!(batch.is_open(0));
        // Closing the parked flow needs no session swap.
        batch.feed(0, b"b");
        assert_eq!(batch.close(0).report_offsets(), vec![1]);
        assert_eq!(batch.close(1).report_offsets(), vec![1]);
    }

    #[test]
    fn idle_flows_are_parked_before_active_ones() {
        let nfa = regex::compile("ab+x").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan).max_resident(2);
        batch.feed(0, b"ab"); // active: mid-match
        batch.feed(1, b"zz"); // idle: nothing enabled
        batch.feed(2, b"b"); // needs a slot -> flow 1 is the victim
        assert!(matches!(batch.table.get(&1), Some(Flow::Parked { .. })));
        assert!(matches!(batch.table.get(&0), Some(Flow::Resident { .. })));
        batch.feed(0, b"bx");
        assert_eq!(batch.close(0).report_offsets(), vec![3]);
    }

    #[test]
    fn shard_load_reports_resident_activity() {
        let nfa = regex::compile_set(&["ab+c", "xy+z"]).unwrap();
        let plan = ShardedAutomaton::compile_per_component(&nfa);
        let mut batch = BatchSimulator::new(&plan);
        batch.feed(0, b"ab"); // activity on the ab+c shard
        batch.feed(1, b"xy"); // activity on the xy+z shard
        batch.feed(2, b"qq"); // no activity anywhere
        let load = batch.shard_load();
        assert_eq!(load.iter().sum::<usize>(), 2);
        assert_eq!(load.iter().filter(|&&l| l == 1).count(), 2);
    }

    #[test]
    fn pool_recycles_sessions_across_flows() {
        let nfa = regex::compile("ab").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan);
        for generation in 0..3 {
            batch.feed(generation, b"a");
            // A recycled session must not leak the previous flow's 'a'.
            let result = batch.close(generation);
            assert!(result.reports.is_empty(), "generation {generation}");
            assert_eq!(result.activity.cycles, 1);
        }
    }

    #[test]
    fn close_of_unknown_stream_is_the_empty_result() {
        let nfa = regex::compile("a").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan);
        assert_eq!(batch.close(42), RunResult::default());
    }

    #[test]
    fn double_open_is_refused() {
        let nfa = regex::compile("ab").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan);
        assert!(batch.open(1));
        batch.feed(1, b"a");
        assert!(!batch.open(1));
        // The refused open leaves the flow untouched: mid-match.
        batch.feed(1, b"b");
        assert_eq!(batch.close(1).report_offsets(), vec![1]);
    }

    #[test]
    fn open_reports_duplicates_without_panicking() {
        let nfa = regex::compile("ab").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan);
        assert!(batch.open(1));
        assert!(!batch.open(1));
        // The duplicate attempt must not disturb the existing flow.
        batch.feed(1, b"a");
        assert!(!batch.open(1));
        batch.feed(1, b"b");
        assert_eq!(batch.close(1).report_offsets(), vec![1]);
        // A parked flow is still open: open must refuse it too.
        let mut capped = BatchSimulator::new(&plan).max_resident(1);
        capped.feed(2, b"a");
        capped.feed(3, b"a"); // parks flow 2
        assert!(!capped.is_resident(2));
        assert!(!capped.open(2));
    }

    #[test]
    fn shard_load_into_reuses_the_buffer_and_matches_shard_load() {
        let nfa = regex::compile_set(&["ab+c", "xy+z"]).unwrap();
        let plan = ShardedAutomaton::compile_per_component(&nfa);
        let mut batch = BatchSimulator::new(&plan);
        batch.feed(0, b"ab");
        batch.feed(1, b"xy");
        let mut buf = vec![99usize; 17]; // stale, wrongly sized
        batch.shard_load_into(&mut buf);
        assert_eq!(buf, batch.shard_load());
        assert_eq!(buf.iter().sum::<usize>(), 2);
    }

    #[test]
    fn explicit_park_hands_victim_choice_to_the_caller() {
        let nfa = regex::compile("ab+x").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan).max_resident(2);
        batch.feed(0, b"ab"); // active
        batch.feed(1, b"zz"); // idle — built-in rule would park this one
                              // The caller overrides the built-in choice and parks flow 0.
        assert!(batch.park(0));
        assert!(!batch.is_resident(0));
        assert!(batch.is_open(0));
        assert!(!batch.park(0), "already parked");
        assert!(!batch.park(42), "unknown flow");
        // Flow 0 resumes transparently and still matches.
        batch.feed(2, b"zz");
        batch.feed(0, b"bx");
        assert_eq!(batch.close(0).report_offsets(), vec![3]);
    }

    #[test]
    fn for_each_resident_reports_idle_and_touch_order() {
        let nfa = regex::compile("ab+x").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan).max_resident(3);
        batch.feed(5, b"ab"); // active, oldest touch
        batch.feed(6, b"zz"); // idle
        batch.feed(7, b"ab"); // active, newest touch
        let mut seen = Vec::new();
        batch.for_each_resident(|id, idle, touch| seen.push((id, idle, touch)));
        seen.sort_by_key(|&(_, _, touch)| touch);
        assert_eq!(seen.len(), 3);
        assert_eq!(
            seen.iter().map(|&(id, ..)| id).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        assert_eq!(
            seen.iter().map(|&(_, idle, _)| idle).collect::<Vec<_>>(),
            vec![false, true, false]
        );
    }

    #[test]
    fn framed_ingest_demuxes_interleaved_flows() {
        let nfa = regex::compile("ab+c").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan);

        let mut wire = Vec::new();
        encode_frame(10, b"zab", &mut wire);
        encode_frame(11, b"abc", &mut wire);
        encode_frame(10, b"bcz", &mut wire);
        encode_close(11, &mut wire);
        encode_close(10, &mut wire);

        let mut decoder = FrameDecoder::new();
        // Split the wire mid-header and mid-payload.
        let mut closed = Vec::new();
        for piece in [&wire[..5], &wire[5..17], &wire[17..]] {
            batch.ingest(&mut decoder, piece, &mut closed).unwrap();
        }
        assert!(decoder.is_idle());
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].0, 11);
        assert_eq!(closed[0].1.report_offsets(), vec![2]);
        assert_eq!(closed[1].0, 10);
        assert_eq!(closed[1].1.report_offsets(), vec![4]);

        let mut single = Simulator::new(&nfa);
        assert_eq!(closed[1].1, single.run(b"zabbcz"));
    }

    #[test]
    fn oversized_frame_surfaces_through_ingest() {
        let nfa = regex::compile("a").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan);
        let mut wire = Vec::new();
        encode_frame(1, b"aa", &mut wire);
        encode_frame(2, &[b'a'; 64], &mut wire);
        let mut decoder = FrameDecoder::with_max_payload(16);
        let mut closed = Vec::new();
        let err = batch.ingest(&mut decoder, &wire, &mut closed).unwrap_err();
        assert!(matches!(
            err,
            FrameError::OversizedPayload { stream: 2, .. }
        ));
        // The well-formed frame before the bad header was applied.
        assert!(closed.is_empty());
        assert_eq!(batch.close(1).report_offsets(), vec![0, 1]);
    }

    #[test]
    fn close_results_before_a_malformed_header_are_not_lost() {
        // Flow 1 is fed AND closed before the oversized header in the
        // same wire chunk: its result must land in `closed` even though
        // ingest returns an error for the chunk.
        let nfa = regex::compile("aa").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan);
        let mut wire = Vec::new();
        encode_frame(1, b"aaa", &mut wire);
        encode_close(1, &mut wire);
        encode_frame(2, &[b'a'; 64], &mut wire);
        let mut decoder = FrameDecoder::with_max_payload(16);
        let mut closed = Vec::new();
        let err = batch.ingest(&mut decoder, &wire, &mut closed).unwrap_err();
        assert!(matches!(
            err,
            FrameError::OversizedPayload { stream: 2, .. }
        ));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].0, 1);
        assert_eq!(closed[0].1.report_offsets(), vec![1, 2]);
        assert!(!batch.is_open(1), "flow 1 was closed by the wire");
    }

    #[test]
    fn parallel_matches_sequential() {
        let nfa = regex::compile("(a|b)c+x").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let batch = BatchSimulator::new(&plan);
        let inputs = streams();
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let sequential = batch.run_all(refs.iter().copied());
        for threads in [0, 1, 2, 3, 8, 64] {
            assert_eq!(
                batch.run_parallel(&refs, threads),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_on_empty_batch() {
        let nfa = regex::compile("a").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let batch = BatchSimulator::new(&plan);
        assert!(batch.run_parallel(&[], 4).is_empty());
    }

    #[test]
    fn sharded_batch_matches_flat_batch() {
        let nfa = regex::compile_set(&["a(b|c)+x", "zz"]).unwrap();
        let flat_plan = CompiledAutomaton::compile(&nfa);
        let sharded_plan = ShardedAutomaton::compile(&nfa, 2);
        let flat = BatchSimulator::new(&flat_plan);
        let sharded: ShardedBatch<'_> = BatchSimulator::new(&sharded_plan);
        let inputs = streams();
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        assert_eq!(
            flat.run_all(refs.iter().copied()),
            sharded.run_all(refs.iter().copied())
        );
        assert_eq!(
            sharded.run_parallel(&refs, 3),
            flat.run_all(refs.iter().copied())
        );
    }

    #[test]
    fn identity_swap_is_unobservable_mid_flow() {
        // Same plan, identity remap: the swap round-trips every flow
        // through suspend/translate/resume and must change nothing —
        // including on an uncapped table, whose fast path never parks.
        let nfa = regex::compile_set(&["ab+c", "xy+z"]).unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let remap = PlanRemap::identity(nfa.len());
        let inputs = streams();

        let mut undisturbed = BatchSimulator::new(&plan);
        let mut swapped = BatchSimulator::new(&plan);
        for (id, input) in inputs.iter().enumerate() {
            let (head, tail) = input.split_at(input.len() / 2);
            undisturbed.feed(id as StreamId, head);
            swapped.feed(id as StreamId, head);
            undisturbed.feed(id as StreamId, tail);
            let report = swapped.swap_plan(&plan, &remap);
            assert_eq!(report.flows, id + 1);
            assert_eq!(report.states_dropped, 0);
            swapped.feed(id as StreamId, tail);
        }
        for id in 0..inputs.len() as StreamId {
            assert_eq!(swapped.close(id), undisturbed.close(id));
        }
    }

    #[test]
    fn swap_verdicts_classify_flows() {
        let old_nfa = regex::compile_set(&["ab+c", "xy+z"]).unwrap();
        let new_nfa = regex::compile_set(&["qb+c", "xy+z"]).unwrap();
        let old_plan = CompiledAutomaton::compile(&old_nfa);
        let new_plan = CompiledAutomaton::compile(&new_nfa);
        let remap = PlanRemap::between(&old_nfa, &new_nfa);

        let mut batch = BatchSimulator::new(&old_plan).max_resident(2);
        batch.feed(0, b"ab"); // live inside the removed ab+c component
        batch.feed(1, b"xy"); // live inside the surviving xy+z component
        batch.feed(2, b"zz"); // evicts flow 0 (LRU); no dynamic activity
        let report = batch.swap_plan(&new_plan, &remap);
        assert_eq!(report.flows, 3);
        assert_eq!(
            report.verdicts,
            vec![
                // Flow 0 was already parked when the swap landed: its
                // snapshot is left cold and translated lazily.
                (0, SwapVerdict::Deferred),
                (
                    1,
                    SwapVerdict::Migrated {
                        kept: 2,
                        dropped: 0
                    }
                ),
                (2, SwapVerdict::Idle),
            ]
        );
        assert_eq!(report.deferred, 1);
        assert_eq!(batch.resident_count(), 0);
        assert_eq!(batch.parked_count(), 3);

        // The surviving flow completes its match on the new plan; the
        // deferred flow's live states sat on the removed component, so
        // the lazy translation at resume drops its progress exactly as
        // an eager swap would have.
        batch.feed(1, b"z");
        assert_eq!(batch.close(1).report_offsets(), vec![2]);
        batch.feed(0, b"c");
        assert!(batch.close(0).reports.is_empty());
    }

    #[test]
    fn swap_translates_report_ids_of_surviving_components() {
        // xy+z moves down the id space when pattern 0 shrinks; a report
        // already accumulated before the swap must be renumbered so the
        // closed result is indistinguishable from a pure new-plan run.
        let old_nfa = regex::compile_set(&["ab+c", "xy+z"]).unwrap();
        let new_nfa = regex::compile_set(&["qq", "xy+z"]).unwrap();
        let old_plan = CompiledAutomaton::compile(&old_nfa);
        let new_plan = CompiledAutomaton::compile(&new_nfa);
        let remap = PlanRemap::between(&old_nfa, &new_nfa);

        let mut batch = BatchSimulator::new(&old_plan);
        batch.feed(7, b"xyz"); // reports on the old plan's ids
        batch.swap_plan(&new_plan, &remap);
        batch.feed(7, b"xyz"); // reports on the new plan's ids
        let swapped = batch.close(7);

        let mut pure = BatchSimulator::new(&new_plan);
        pure.feed(7, b"xyzxyz");
        assert_eq!(swapped.reports, pure.close(7).reports);
    }
}
