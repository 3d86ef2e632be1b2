//! The streaming-session abstraction: incremental `feed()` across all
//! engines.
//!
//! Every engine in this crate executes the same shape of loop — consume
//! symbols, update an enable vector, accumulate reports — but serving
//! workloads rarely hand the engine a fully materialized input. Packets
//! arrive incrementally (the §VI.B input-buffer model drains 128 symbols
//! at a time), and a multi-stream scheduler needs to suspend one flow
//! mid-input and resume another. A [`Session`] is the resumable
//! per-stream half of an engine: it owns the active/next vectors, the
//! report accumulation, the cycle offset, and (for the strided engine)
//! the carry byte that keeps matches at correct absolute offsets across
//! arbitrary chunk boundaries.
//!
//! [`AutomataEngine`] is the common entry point: every engine can
//! [`start`](AutomataEngine::start) a session, and the one-shot `run`
//! methods are thin wrappers over exactly that path, so chunked and
//! one-shot execution share a single stepping loop per engine and are
//! bit-for-bit identical (asserted by the seeded differential harness in
//! `tests/property.rs`).
//!
//! # Examples
//!
//! ```
//! use cama_core::regex;
//! use cama_sim::{AutomataEngine, Session, Simulator};
//!
//! let nfa = regex::compile("ab+")?;
//! let sim = Simulator::new(&nfa);
//! let mut session = sim.start();
//! // Chunk boundaries are arbitrary — even mid-match.
//! session.feed(b"za");
//! session.feed(b"b");
//! session.feed(b"bz");
//! let result = session.finish();
//! assert_eq!(result.report_offsets(), vec![2, 3]);
//! // The session is reset by `finish` and immediately reusable.
//! session.feed(b"ab");
//! assert_eq!(session.finish().report_offsets(), vec![1]);
//! # Ok::<(), cama_core::Error>(())
//! ```

use crate::activity::{NullObserver, ShardObserver};
use crate::buffers::{stats_for_run, BufferStats};
use crate::result::RunResult;
use crate::sharded::ShardedExecution;

/// A resumable per-stream execution: feed input in arbitrary chunks,
/// then [`finish`](Session::finish) to collect the [`RunResult`].
///
/// Implementations guarantee *chunk-boundary equivalence*: splitting an
/// input into any sequence of `feed` calls (including 1-byte chunks, or
/// chunks splitting a stride pair) yields a result
/// identical to feeding it whole — same reports, same offsets, same
/// per-cycle activity statistics.
///
/// Sessions reuse their scratch vectors (the enable/active bitsets and
/// summaries) across `feed` calls and across streams — the accumulated
/// report list, which [`finish`](Session::finish) hands out by value,
/// is the only buffer that grows. [`reset`](Session::reset) restores
/// the power-on state while keeping all capacity, so long-lived serving
/// loops don't churn the allocator.
pub trait Session {
    /// Consumes one chunk of input, reporting every cycle to `observer`
    /// (a flat session's lane as shard 0).
    fn feed_with(&mut self, chunk: &[u8], observer: &mut impl ShardObserver);

    /// Consumes one chunk of input.
    fn feed(&mut self, chunk: &[u8]) {
        self.feed_with(chunk, &mut NullObserver);
    }

    /// Flushes any pending partial state (the strided engine's carry
    /// byte), observing flush cycles, and returns the accumulated
    /// result. The session is reset and immediately reusable.
    fn finish_with(&mut self, observer: &mut impl ShardObserver) -> RunResult;

    /// [`finish_with`](Session::finish_with) without an observer.
    fn finish(&mut self) -> RunResult {
        self.finish_with(&mut NullObserver)
    }

    /// Discards all accumulated state and reports, restoring the
    /// power-on state while reusing allocated capacity.
    fn reset(&mut self);

    /// Total input bytes consumed since the last reset.
    fn bytes_fed(&self) -> usize;

    /// The result accumulated so far, without finishing. Reports from a
    /// pending partial stride pair are not yet included, and the strided
    /// engine's reports are only sorted by [`finish`](Session::finish).
    fn pending(&self) -> &RunResult;

    /// The §VI.B buffer-interruption counts implied by the traffic this
    /// session has consumed and the reports it has accumulated so far.
    fn buffer_stats(&self) -> BufferStats {
        stats_for_run(self.bytes_fed(), self.pending())
    }
}

/// The compact snapshot of a suspended stream: everything needed to
/// continue it later, with no dense per-state vectors.
///
/// A live session owns scratch sized to the whole automaton
/// (enable/active vectors); a suspended flow stores only the *set*
/// dynamic bits — typically a handful — plus the cycle offset and the
/// accumulated result. This is what lets the batch scheduler keep far
/// more flows open than it keeps sessions resident (the software
/// analogue of parking an idle stream out of the hardware stream
/// table).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuspendedFlow {
    pub(crate) cycle: usize,
    pub(crate) fed: usize,
    /// Global ids of dynamically enabled states at suspension.
    pub(crate) dynamic: Vec<u32>,
    /// A strided stream's dangling odd byte (the first half of a pair
    /// whose second byte had not arrived at suspension). Always `None`
    /// for byte-per-cycle sessions.
    pub(crate) carry: Option<u8>,
    pub(crate) result: RunResult,
    /// DFA resume hints from a hybrid sharded session: `(shard index,
    /// DFA state id)` per DFA-stepped shard that was live at
    /// suspension. Purely an optimization — resume validates each hint
    /// against the captured dynamic set and recovers through
    /// `CompiledDfa::resume_state` (or NFA fallback) without it, so a
    /// translated or cross-plan snapshot simply clears the hints.
    pub(crate) dfa: Vec<(u32, u32)>,
}

impl SuspendedFlow {
    /// Input bytes consumed before suspension.
    pub fn bytes_fed(&self) -> usize {
        self.fed
    }

    /// A strided flow's pending odd byte, if it was suspended mid-pair.
    pub fn pending_carry(&self) -> Option<u8> {
        self.carry
    }

    /// Global ids of the dynamically enabled states captured at
    /// suspension.
    pub fn dynamic_states(&self) -> &[u32] {
        &self.dynamic
    }

    /// The result accumulated before suspension.
    pub fn pending(&self) -> &RunResult {
        &self.result
    }

    /// Closes a parked flow of plan flavour `P` without a session: the
    /// accumulated result with `P`'s end-of-stream report order. A
    /// strided flow suspended mid-pair must still flush its carry byte
    /// through an engine cycle, so it is handed back as `Err` — not a
    /// failure; the flow moves by value either way, so boxing it would
    /// only add an allocation.
    #[allow(clippy::result_large_err)]
    pub(crate) fn finalize<P: ShardedExecution>(self) -> Result<RunResult, SuspendedFlow> {
        if self.carry.is_some() {
            return Err(self);
        }
        let mut result = self.result;
        P::sort_reports(&mut result.reports);
        Ok(result)
    }

    /// Rewrites the snapshot's global state ids through an old→new
    /// [`PlanRemap`](cama_core::PlanRemap) so the flow can resume on
    /// the new plan — the per-flow half of a live hot swap.
    ///
    /// Dynamic states on removed components are dropped (the match
    /// progress they carried cannot continue — the pattern is gone);
    /// surviving states are renumbered and kept in sorted order, which
    /// resume paths rely on. Accumulated reports are renumbered too
    /// when their state survives, so a flow on an unchanged component
    /// is indistinguishable from one that ran on the new plan all
    /// along; reports from removed states keep their old ids — they
    /// are historical facts about the plan that emitted them. Report
    /// *order* is never disturbed. The pending carry byte, cycle
    /// offset, and activity totals are untouched.
    ///
    /// Returns `(kept, dropped)` dynamic-state counts.
    pub fn translate(&mut self, remap: &cama_core::PlanRemap) -> (usize, usize) {
        // Hints describe (shard, DFA state) coordinates of the plan
        // that produced the snapshot; they are meaningless on the swap
        // target. Resume re-derives the DFA states from the translated
        // dynamic set instead.
        self.dfa.clear();
        let before = self.dynamic.len();
        let mut kept: Vec<u32> = self
            .dynamic
            .iter()
            .filter_map(|&old| remap.translate(old))
            .collect();
        // Component images are disjoint and per-component mapping is a
        // bijection, so translation preserves distinctness; only the
        // order needs re-establishing.
        kept.sort_unstable();
        let dropped = before - kept.len();
        self.dynamic = kept;
        for report in &mut self.result.reports {
            if let Some(new) = remap.translate(report.ste.0) {
                report.ste = cama_core::SteId(new);
            }
        }
        (self.dynamic.len(), dropped)
    }
}

/// A [`Session`] the batch scheduler can park and resume: its stream
/// state round-trips through a sparse [`SuspendedFlow`] so the dense
/// session scratch can be handed to another flow.
///
/// `resume(suspend())` is an identity on observable behavior — feeding
/// the remaining input afterwards yields exactly the result of an
/// uninterrupted run (asserted differentially in `tests/property.rs`).
pub trait FlowSession: Session {
    /// Captures the stream sparsely and resets the session in place
    /// (scratch capacity kept) so it can serve another flow.
    fn suspend(&mut self) -> SuspendedFlow;

    /// Restores a parked flow into this session.
    ///
    /// The session must be fresh (just started, finished, or reset);
    /// implementations may debug-assert that.
    fn resume(&mut self, flow: SuspendedFlow);

    /// `true` when the stream currently has no dynamic activity —
    /// the cheapest flows to park, and the scheduler's first choice of
    /// spill victim.
    fn is_idle(&self) -> bool;

    /// Calls `f` with each shard index where the stream currently has
    /// dynamic activity (flat engines report shard 0 when non-idle).
    fn for_each_active_shard(&self, f: impl FnMut(usize));

    /// Enables or disables idle-shard skipping (on by default). With
    /// skipping off every non-empty shard executes every cycle — the
    /// "all arrays always powered" baseline the benchmarks compare
    /// against. Results are identical either way. A flat session is
    /// one lane that steps every cycle, so it ignores the setting.
    fn set_skip_idle(&mut self, on: bool) {
        let _ = on;
    }
}

/// An automata engine that can start resumable streaming sessions.
///
/// Implemented by [`Engine`](crate::Engine) — and so by every
/// simulator alias ([`Simulator`](crate::Simulator),
/// [`StridedSimulator`](crate::StridedSimulator), …) — and by
/// [`InterpSimulator`](crate::InterpSimulator) (the structure-at-a-time
/// baseline), so differential harnesses and serving loops can be
/// written once against the trait.
pub trait AutomataEngine {
    /// The session type; borrows the engine's immutable compiled plan.
    type Session<'e>: Session
    where
        Self: 'e;

    /// Starts a fresh session at cycle 0 with an empty enable vector.
    fn start(&self) -> Self::Session<'_>;
}
