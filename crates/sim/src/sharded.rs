//! The sharded cycle engine: executing a
//! [`ShardedAutomaton`] one simulated CAM array at a time.
//!
//! A flat plan sweeps one enable vector sized to the whole design every
//! cycle. The hardware does not: states live in many 256×128 CAM
//! sub-arrays, each array resolves its own activations through its
//! local switch, and only cross-array activations ride the global
//! switch. [`ShardedSession`] is the software form of that
//! decomposition:
//!
//! * **per-shard lanes** — each shard keeps its own lane over its local
//!   state space: enable vectors stepped by the same kernels a flat
//!   session runs, or, for a shard that ships a DFA, only its DFA state;
//! * **array-level enable** — a cycle visits only the *live* lanes (a
//!   per-session bitmap of the lanes with a non-empty dynamic set)
//!   and the shards a start can fire in on this symbol (the plan's
//!   per-symbol start index, [`ShardedAutomaton::start_shards`]), plus
//!   the start-of-data shards on cycle 0. Every other shard is skipped
//!   without being probed or touching a single word, the analogue of
//!   leaving an idle array powered down; a candidate whose exact probe
//!   finds nothing to do (a start-of-data or 2-stride start that does
//!   not match) is skipped too;
//! * **one cross-shard exchange per cycle** — activations crossing
//!   shards are staged while shards execute and applied to the target
//!   shards' next vectors in a single pass, making global-switch
//!   traffic an explicit, countable event
//!   ([`ShardStats::cross_activations`]). Only visited lanes and
//!   exchange targets advance at cycle end.
//!
//! Results are bit-identical to the flat engine — same reports in the
//! same order, same activity statistics — for every shard count and
//! assignment (asserted differentially in `tests/property.rs`).
//! Per-shard activity is surfaced to
//! [`ShardObserver`]s, which is how the
//! `cama-arch` energy model charges exactly the arrays that powered up.
//!
//! # Examples
//!
//! ```
//! use cama_core::compiled::ShardedAutomaton;
//! use cama_core::regex;
//! use cama_sim::{Session, ShardedSession};
//!
//! let nfa = regex::compile("ab+c")?;
//! let plan = ShardedAutomaton::compile(&nfa, 2);
//! let mut session = ShardedSession::new(&plan);
//! session.feed(b"zabbc");
//! let result = session.finish();
//! assert_eq!(result.reports.len(), 1);
//! assert_eq!(result.reports[0].offset, 4);
//! # Ok::<(), cama_core::Error>(())
//! ```

use crate::activity::{
    DfaShardCycleView, LocalSet, ShardCycleSummary, ShardCycleView, ShardObserver,
};
use crate::engine::Engine;
use crate::lane::{
    or_words, pair_flush, pair_steps, step_pair_naive, step_shard_byte, step_shard_dfa,
    step_shard_pair, CycleStep, LaneContext, NfaLane, ShardLane, StepOut,
};
use crate::result::{Report, RunResult};
use crate::session::{FlowSession, Session, SuspendedFlow};
use cama_core::bitset::{self, BitSet};
use cama_core::compiled::{
    ByteRows, CompiledAutomaton, CompiledDfa, CompiledPlan, ExecutionPlan, PairRows, PlanBase,
    Shard, ShardedAutomaton, StridedPlan, SymbolIndex,
};
use cama_core::{Nfa, SteId};

/// The flavour half of every session: how a plan's cycle shape maps
/// input bytes onto engine cycles and which lane kernel steps them.
/// Plans over [`ByteRows`] (raw-byte and encoded) consume one symbol per
/// cycle; plans over [`PairRows`] (2-stride, raw-byte and encoded)
/// consume a symbol pair per cycle, carrying a dangling odd byte across
/// chunk boundaries and flushing it (zero-padded, pad reports
/// suppressed) at finish.
///
/// Implemented once per cycle shape — the kernels stay generic over
/// [`ExecutionPlan`] / [`StridedPlan`]; this trait only selects them,
/// which is what lets the flat [`FlatSession`](crate::FlatSession), the
/// [`ShardedSession`], the worker pool, [`StreamPlan`](crate::StreamPlan)
/// and therefore [`BatchSimulator`](crate::BatchSimulator) accept every
/// plan flavour.
pub trait ShardedExecution: PlanBase + Sized {
    /// Maps a chunk of input bytes onto engine cycles, calling `cycle`
    /// once per cycle in order — the one chunk-to-cycle mapping every
    /// session runs. Byte plans emit one step per symbol; strided plans
    /// emit one step per symbol pair, threading the dangling odd byte
    /// through `carry`.
    #[doc(hidden)]
    fn plan_steps(chunk: &[u8], carry: &mut Option<u8>, cycle: impl FnMut(CycleStep));

    /// The finish-time counterpart of
    /// [`plan_steps`](ShardedExecution::plan_steps): a pending strided
    /// carry byte becomes one zero-padded final step whose pad-offset
    /// reports are suppressed via `limit = fed`. Byte plans have no
    /// carry and return `None`.
    #[doc(hidden)]
    fn flush_step(carry: &mut Option<u8>, fed: usize) -> Option<CycleStep> {
        let _ = (carry, fed);
        None
    }

    /// End-of-stream report ordering: strided plans re-sort by
    /// (offset, state) because a pair cycle emits two offsets; byte
    /// plans are already in that order.
    fn sort_reports(reports: &mut Vec<Report>) {
        let _ = reports;
    }

    /// The exact idle probe of one candidate shard for one step — `true`
    /// when it can be skipped without touching a state word: its lane
    /// is not `live` (holds no dynamically enabled state) and no start
    /// can fire. Only the candidates the live bitmap and the plan's
    /// start index admit are probed.
    #[doc(hidden)]
    fn shard_idle(shard: &Shard<Self>, live: bool, step: CycleStep, first_cycle: bool) -> bool;

    /// Steps an NFA lane through one cycle with this flavour's word
    /// kernel (or, for a pair lane with `precharge_all` set, its
    /// non-selective baseline).
    #[doc(hidden)]
    fn step_lane(
        plan: &Self,
        lane: &mut NfaLane,
        step: CycleStep,
        cycle: usize,
        ctx: &mut impl LaneContext,
    ) -> StepOut;

    /// Steps a DFA lane in `state` through one cycle; returns the landed
    /// state. Only byte plans carry DFAs.
    #[doc(hidden)]
    fn step_dfa(
        plan: &Self,
        dfa: &CompiledDfa,
        state: u32,
        step: CycleStep,
        cycle: usize,
        ctx: &mut impl LaneContext,
    ) -> (u32, StepOut);
}

/// Byte cycles, on raw-byte and encoded rows alike.
impl<I: SymbolIndex> ShardedExecution for CompiledPlan<ByteRows<I>> {
    fn plan_steps(chunk: &[u8], _carry: &mut Option<u8>, mut cycle: impl FnMut(CycleStep)) {
        for &a in chunk {
            cycle(CycleStep {
                a,
                b: 0,
                limit: usize::MAX,
            });
        }
    }

    /// Skippable when nothing is dynamically enabled, no start state
    /// matches this symbol, and no start-of-data state matches it on
    /// cycle 0.
    #[inline]
    fn shard_idle(shard: &Shard<Self>, live: bool, step: CycleStep, first_cycle: bool) -> bool {
        let starts_matter = shard.start_match_possible(step.a);
        let plan = shard.plan();
        let sod_matters = first_cycle
            && shard.has_start_of_data()
            && !plan
                .match_vector(step.a)
                .is_disjoint(plan.start_of_data_mask().as_row());
        !live && !starts_matter && !sod_matters
    }

    fn step_lane(
        plan: &Self,
        lane: &mut NfaLane,
        step: CycleStep,
        cycle: usize,
        ctx: &mut impl LaneContext,
    ) -> StepOut {
        step_shard_byte(plan, lane, step, cycle, ctx)
    }

    #[inline]
    fn step_dfa(
        plan: &Self,
        dfa: &CompiledDfa,
        state: u32,
        step: CycleStep,
        cycle: usize,
        ctx: &mut impl LaneContext,
    ) -> (u32, StepOut) {
        step_shard_dfa(plan, dfa, state, step, cycle, ctx)
    }
}

/// Pair cycles, on raw-byte and encoded halves alike.
impl<I: SymbolIndex> ShardedExecution for CompiledPlan<PairRows<I>> {
    fn plan_steps(chunk: &[u8], carry: &mut Option<u8>, cycle: impl FnMut(CycleStep)) {
        pair_steps(chunk, carry, cycle);
    }

    fn flush_step(carry: &mut Option<u8>, fed: usize) -> Option<CycleStep> {
        pair_flush(carry, fed)
    }

    fn sort_reports(reports: &mut Vec<Report>) {
        reports.sort_by_key(|r| (r.offset, r.ste));
    }

    /// The precomputed pair probe answers exactly whether a statically
    /// enabled state matches `a` in its first half and `b` in its
    /// second, and a cycle-0 start-of-data state must match both halves
    /// to fire.
    #[inline]
    fn shard_idle(shard: &Shard<Self>, live: bool, step: CycleStep, first_cycle: bool) -> bool {
        let starts_matter = shard.pair_start_possible(step.a, step.b);
        let plan = shard.plan();
        let sod_matters = first_cycle && shard.has_start_of_data() && {
            let sod = plan.start_of_data_mask().as_words();
            let first = plan.first_vector(step.a).words();
            let second = plan.second_vector(step.b).words();
            sod.iter()
                .enumerate()
                .any(|(w, &m)| m & first[w] & second[w] != 0)
        };
        !live && !starts_matter && !sod_matters
    }

    fn step_lane(
        plan: &Self,
        lane: &mut NfaLane,
        step: CycleStep,
        cycle: usize,
        ctx: &mut impl LaneContext,
    ) -> StepOut {
        if lane.precharge_all {
            step_pair_naive(plan, lane, step, cycle, ctx)
        } else {
            step_shard_pair(plan, lane, step, cycle, ctx)
        }
    }

    fn step_dfa(
        _plan: &Self,
        _dfa: &CompiledDfa,
        _state: u32,
        _step: CycleStep,
        _cycle: usize,
        _ctx: &mut impl LaneContext,
    ) -> (u32, StepOut) {
        unreachable!("strided shards carry no DFA")
    }
}

/// One shard's [`LaneContext`]: reports carry global ids, every
/// activation counts in the per-state heat histogram, and cross-shard
/// successors are staged (packed `shard << 32 | local`) for the
/// cycle-end exchange.
struct ShardContext<'a, P> {
    shard: &'a Shard<P>,
    globals: &'a [u32],
    reports: &'a mut Vec<Report>,
    exchange: &'a mut Vec<u64>,
    state_active: &'a mut [u64],
}

impl<P: PlanBase> LaneContext for ShardContext<'_, P> {
    #[inline]
    fn report(&mut self, local: usize, code: u32, offset: usize) {
        self.reports.push(Report {
            ste: SteId(self.globals[local]),
            code,
            offset,
        });
    }

    #[inline]
    fn heat(&mut self, local: usize) {
        self.state_active[self.globals[local] as usize] += 1;
    }

    #[inline]
    fn stage_cross(&mut self, local: usize) {
        for t in self.shard.cross_successors(local) {
            self.exchange
                .push(u64::from(t.shard) << 32 | u64::from(t.local));
        }
    }
}

/// Cumulative execution counters of a [`ShardedSession`] — the numbers
/// behind the idle-array power argument.
///
/// Stats are monotone across `finish`/`reset` (they describe the
/// session's lifetime, which may span many pooled streams); use
/// [`ShardedSession::take_stats`] to read and clear.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Cycles each shard actually executed.
    pub shard_cycles: Vec<u64>,
    /// Shard-cycles skipped (nothing enabled, or the shard is empty).
    pub skipped_shard_cycles: u64,
    /// Total 64-state words swept by executed shard-cycles — the
    /// sharded counterpart of `cycles × words` for the flat engine.
    pub words_visited: u64,
    /// Activations carried across shards (simulated global-switch
    /// traffic).
    pub cross_activations: u64,
    /// Per-state activation counts, indexed by *global* state id —
    /// the activity histogram [`ShardingProfile`] is built from.
    ///
    /// [`ShardingProfile`]: crate::ShardingProfile
    pub state_active: Vec<u64>,
}

impl ShardStats {
    pub(crate) fn new(num_shards: usize, num_states: usize) -> ShardStats {
        ShardStats {
            shard_cycles: vec![0; num_shards],
            state_active: vec![0; num_states],
            ..ShardStats::default()
        }
    }

    /// Total executed shard-cycles across all shards.
    pub fn visited_shard_cycles(&self) -> u64 {
        self.shard_cycles.iter().sum()
    }

    /// Accumulates another session's (or worker's) counters into this
    /// one. Every field is a sum, so merging per-worker stats in any
    /// order is lossless — the parallel runtime and multi-session
    /// rollups produce exactly the counters one sequential session
    /// would have. Shorter per-shard/per-state vectors are extended
    /// (merging into a `ShardStats::default()` accumulator works).
    pub fn merge(&mut self, other: &ShardStats) {
        if self.shard_cycles.len() < other.shard_cycles.len() {
            self.shard_cycles.resize(other.shard_cycles.len(), 0);
        }
        for (mine, theirs) in self.shard_cycles.iter_mut().zip(&other.shard_cycles) {
            *mine += theirs;
        }
        if self.state_active.len() < other.state_active.len() {
            self.state_active.resize(other.state_active.len(), 0);
        }
        for (mine, theirs) in self.state_active.iter_mut().zip(&other.state_active) {
            *mine += theirs;
        }
        self.skipped_shard_cycles += other.skipped_shard_cycles;
        self.words_visited += other.words_visited;
        self.cross_activations += other.cross_activations;
    }
}

/// One cycle's totals over the shards a [`ShardSinks::visit`] pass
/// stepped or skipped.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CycleTally {
    pub(crate) num_active: usize,
    pub(crate) num_dynamic: usize,
    pub(crate) reports: usize,
    pub(crate) visited: usize,
    pub(crate) skipped: usize,
}

/// What a pass over shards writes outside the lanes: staged reports,
/// staged cross-shard activations (packed `shard << 32 | local`) and
/// the execution counters. A [`ShardedSession`] owns one; each pool
/// worker owns its own.
#[derive(Clone, Debug)]
pub(crate) struct ShardSinks {
    pub(crate) reports: Vec<Report>,
    pub(crate) exchange: Vec<u64>,
    pub(crate) stats: ShardStats,
}

impl ShardSinks {
    pub(crate) fn new(num_shards: usize, num_states: usize) -> ShardSinks {
        ShardSinks {
            reports: Vec::new(),
            exchange: Vec::new(),
            stats: ShardStats::new(num_shards, num_states),
        }
    }

    /// The per-cycle shard loop: probe and step each candidate `(index,
    /// shard, lane)` for one cycle, in ascending shard order, counting
    /// into the stats and reporting each stepped shard to `observer`.
    /// The candidates are [`LiveLanes::candidates`] out of the `covered`
    /// shards the caller owns; every covered shard that is not stepped
    /// counts as skipped. The sequential session covers every shard;
    /// each pool worker covers its pinned ones — the same loop, which is
    /// what makes their results bit-identical by construction.
    pub(crate) fn visit<'a, P: ShardedExecution + 'a>(
        &mut self,
        lanes: impl Iterator<Item = (usize, &'a Shard<P>, &'a mut ShardLane)>,
        covered: usize,
        step: CycleStep,
        cycle: usize,
        skip_idle: bool,
        observer: &mut impl ShardObserver,
    ) -> CycleTally {
        let first_cycle = cycle == 0;
        let mut tally = CycleTally::default();
        for (si, shard, lane) in lanes {
            debug_assert!(!shard.is_empty(), "empty shards are never candidates");
            if skip_idle && P::shard_idle(shard, lane.is_live(), step, first_cycle) {
                continue;
            }
            tally.visited += 1;
            self.stats.shard_cycles[si] += 1;
            let globals = shard.global_states();
            let mut ctx = ShardContext {
                shard,
                globals,
                reports: &mut self.reports,
                exchange: &mut self.exchange,
                state_active: &mut self.stats.state_active,
            };
            let view = |dynamic_enabled, active, reports| ShardCycleView {
                cycle,
                symbol: step.a,
                shard: si,
                globals: Some(globals),
                states: shard.len(),
                dynamic_enabled,
                active,
                reports,
            };
            // Lanes not stepped hold no dynamically enabled state, so
            // the stepped lanes' counts sum to the flat engine's total.
            let out = match lane {
                ShardLane::Dfa(state) => {
                    let dfa = shard.dfa().expect("a DFA lane's shard ships a DFA");
                    // A DFA-stepped shard searches one transition-table
                    // row instead of sweeping its state words — the
                    // modeling choice behind the hybrid visited-words
                    // win.
                    self.stats.words_visited += 1;
                    let dynamics = dfa.dynamics(*state);
                    tally.num_dynamic += dynamics.len();
                    let (landed, out) =
                        P::step_dfa(shard.plan(), dfa, *state, step, cycle, &mut ctx);
                    let active = LocalSet::Sorted(dfa.members(landed));
                    observer.on_dfa_shard_cycle(&DfaShardCycleView {
                        shard_view: view(LocalSet::Sorted(dynamics), active, out.reports),
                        dfa_state: landed,
                        dfa_states: dfa.num_states(),
                        alphabet: dfa.alphabet(),
                    });
                    // Nothing enabled next: the lane goes idle, and steps
                    // exactly like the empty state from here.
                    let live = !dfa.dynamics(landed).is_empty();
                    *state = if live { landed } else { 0 };
                    out
                }
                ShardLane::Nfa(lane) => {
                    self.stats.words_visited += shard.plan().len().div_ceil(64) as u64;
                    tally.num_dynamic += lane.num_dynamic;
                    let out = P::step_lane(shard.plan(), lane, step, cycle, &mut ctx);
                    let (dynamic, active) =
                        (LocalSet::Bits(&lane.dynamic), LocalSet::Bits(&lane.active));
                    observer.on_shard_cycle(&view(dynamic, active, out.reports));
                    out
                }
            };
            tally.num_active += out.num_active;
            tally.reports += out.reports;
        }
        tally.skipped = covered - tally.visited;
        self.stats.skipped_shard_cycles += tally.skipped as u64;
        tally
    }
}

/// Which lanes a pass over shards must look at: the live lanes (those
/// with a non-empty dynamic set) and one cycle's scratch set — first
/// the candidates, then the lanes to advance — one bit per shard. A
/// [`ShardedSession`] owns one over every shard; each pool worker owns
/// one over its pinned shards.
#[derive(Clone, Debug)]
pub(crate) struct LiveLanes {
    /// The lanes whose dynamic set is non-empty.
    pub(crate) lanes: BitSet,
    /// Empty between cycles.
    scan: BitSet,
}

impl LiveLanes {
    pub(crate) fn new(num_shards: usize) -> LiveLanes {
        LiveLanes {
            lanes: BitSet::new(num_shards),
            scan: BitSet::new(num_shards),
        }
    }

    /// Calls `reset` on every live lane and empties the set.
    pub(crate) fn clear(&mut self, reset: impl FnMut(usize)) {
        self.lanes.iter().for_each(reset);
        self.lanes.clear();
    }

    /// This cycle's candidate shards, ascending: the live lanes, the
    /// shards a start can fire in on `step` (the plan's start index),
    /// and on the first cycle the start-of-data shards — or, with
    /// idle-skipping off, every non-empty shard. A pool worker passes
    /// its pinned-shard mask as `mine`.
    pub(crate) fn candidates<P: PlanBase>(
        &mut self,
        plan: &ShardedAutomaton<P>,
        step: CycleStep,
        first_cycle: bool,
        skip_idle: bool,
        mine: Option<&[u64]>,
    ) -> bitset::Iter<'_> {
        let scan = self.scan.as_words_mut();
        if skip_idle {
            let starts = plan.start_shards(step.a);
            for ((out, &live), &start) in scan.iter_mut().zip(self.lanes.as_words()).zip(starts) {
                *out = live | start;
            }
            if first_cycle {
                or_words(scan, plan.start_of_data_shards());
            }
        } else {
            for (si, shard) in plan.shards().iter().enumerate() {
                if !shard.is_empty() {
                    scan[si / 64] |= 1u64 << (si % 64);
                }
            }
        }
        if let Some(mine) = mine {
            for (out, &m) in scan.iter_mut().zip(mine) {
                *out &= m;
            }
        }
        self.scan.iter()
    }

    /// Marks a lane that received a cross-shard activation for this
    /// cycle's advance.
    #[inline]
    pub(crate) fn touch(&mut self, shard: usize) {
        self.scan.insert(shard);
    }

    /// Cycle end: advances the candidates and touched lanes through
    /// `advance` (which returns whether the lane stays live) and
    /// rebuilds the live set from the answers. Every live lane is a
    /// candidate, so no other lane can hold dynamic state.
    pub(crate) fn advance(&mut self, mut advance: impl FnMut(usize) -> bool) {
        let words = self.scan.as_words_mut().iter_mut();
        for (w, (scan, live)) in words.zip(self.lanes.as_words_mut()).enumerate() {
            let mut bits = std::mem::take(scan);
            let mut now = 0;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                if advance(w * 64 + bit as usize) {
                    now |= 1u64 << bit;
                }
            }
            *live = now;
        }
    }
}

/// `(index, shard, lane)` for each index of `candidates` (ascending).
fn pick<'a, P>(
    shards: &'a [Shard<P>],
    lanes: &'a mut [ShardLane],
    candidates: impl Iterator<Item = usize>,
) -> impl Iterator<Item = (usize, &'a Shard<P>, &'a mut ShardLane)> {
    let mut rest = lanes.iter_mut();
    let mut next = 0;
    candidates.map(move |si| {
        let lane = rest.nth(si - next).expect("candidates ascend");
        next = si + 1;
        (si, &shards[si], lane)
    })
}

/// A streaming session over a [`ShardedAutomaton`]: the sharded
/// engine's [`Session`] implementation.
///
/// One immutable sharded plan can drive any number of concurrent
/// sessions; the session owns only the per-shard lanes, the staging
/// buffers, and the accumulated result. Like the flat session, it is
/// generic over the per-shard plan flavour: byte plans by default, or
/// [`CompiledEncodedAutomaton`](cama_core::compiled::CompiledEncodedAutomaton)
/// / [`CompiledStridedAutomaton`](cama_core::compiled::CompiledStridedAutomaton)
/// / [`CompiledEncodedStridedAutomaton`](cama_core::compiled::CompiledEncodedStridedAutomaton)
/// shards for encoding-aware, 2-stride, and encoded 2-stride sharded
/// execution.
///
/// # Examples
///
/// ```
/// use cama_core::compiled::ShardedAutomaton;
/// use cama_core::regex;
/// use cama_sim::{Session, ShardedSession};
///
/// let nfa = regex::compile_set(&["ab", "xy"])?;
/// let plan = ShardedAutomaton::compile_per_component(&nfa);
/// let mut session = ShardedSession::new(&plan);
/// session.feed(b"za");
/// session.feed(b"bxy"); // chunk boundary mid-match
/// assert_eq!(session.finish().report_offsets(), vec![2, 4]);
/// # Ok::<(), cama_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct ShardedSession<'p, P: PlanBase = CompiledAutomaton> {
    plan: &'p ShardedAutomaton<P>,
    pub(crate) skip_idle: bool,
    pub(crate) lanes: Vec<ShardLane>,
    /// The lanes with dynamic state, which every cycle visits.
    pub(crate) live: LiveLanes,
    /// DFA-capable lanes `resume` dropped to NFA stepping; `reset`
    /// returns them to DFA state 0, dropping their NFA lanes, even if
    /// they went idle.
    fallback: Vec<u32>,
    /// This cycle's staged reports and activations, plus the lifetime
    /// counters.
    pub(crate) sinks: ShardSinks,
    pub(crate) cycle: usize,
    /// Strided plans: first byte of a pair whose second byte has not
    /// arrived yet. Always `None` for byte plans.
    pub(crate) carry: Option<u8>,
    pub(crate) result: RunResult,
    pub(crate) fed: usize,
}

impl<'p, P: PlanBase> ShardedSession<'p, P> {
    /// Starts a session over a shared sharded plan.
    pub fn new(plan: &'p ShardedAutomaton<P>) -> Self {
        ShardedSession {
            plan,
            skip_idle: true,
            lanes: plan
                .shards()
                .iter()
                .map(|s| ShardLane::new(s.len(), s.dfa().is_some()))
                .collect(),
            live: LiveLanes::new(plan.num_shards()),
            fallback: Vec::new(),
            sinks: ShardSinks::new(plan.num_shards(), plan.len()),
            cycle: 0,
            carry: None,
            result: RunResult::default(),
            fed: 0,
        }
    }

    /// The shared sharded plan this session executes.
    pub fn plan(&self) -> &'p ShardedAutomaton<P> {
        self.plan
    }

    /// The session's cumulative execution counters.
    pub fn stats(&self) -> &ShardStats {
        &self.sinks.stats
    }

    /// Takes the counters, resetting them to zero.
    pub fn take_stats(&mut self) -> ShardStats {
        std::mem::replace(
            &mut self.sinks.stats,
            ShardStats::new(self.plan.num_shards(), self.plan.len()),
        )
    }

    /// Restores power-on state (stats excepted), keeping NFA lanes'
    /// capacity. Only live and fallback lanes hold anything to reset.
    fn reset_state(&mut self) {
        let lanes = &mut self.lanes;
        for si in self.fallback.drain(..) {
            lanes[si as usize] = ShardLane::Dfa(0);
        }
        self.live.clear(|si| lanes[si].reset());
        self.sinks.exchange.clear();
        self.sinks.reports.clear();
        self.cycle = 0;
        self.carry = None;
        self.fed = 0;
    }
}

impl<'p, P: ShardedExecution> ShardedSession<'p, P> {
    /// [`Session::feed_with`]: consumes one chunk, reporting each
    /// visited shard's cycle to `observer`.
    pub fn feed_sharded_with(&mut self, chunk: &[u8], observer: &mut impl ShardObserver) {
        Session::feed_with(self, chunk, observer);
    }

    /// [`Session::finish_with`]: flushes a strided carry byte (observing
    /// the flush cycle) and returns the accumulated result.
    pub fn finish_sharded_with(&mut self, observer: &mut impl ShardObserver) -> RunResult {
        Session::finish_with(self, observer)
    }

    /// Executes one cycle: the shard loop over the candidate shards,
    /// then the once-per-cycle cross-shard exchange, the advance of the
    /// visited and touched lanes, the report commit (in ascending
    /// (offset, state) order, matching the flat engine's within-cycle
    /// order), and the cycle accounting.
    fn step(&mut self, step: CycleStep, observer: &mut impl ShardObserver) {
        let plan = self.plan;
        let candidates = self
            .live
            .candidates(plan, step, self.cycle == 0, self.skip_idle, None);
        let tally = self.sinks.visit(
            pick(plan.shards(), &mut self.lanes, candidates),
            plan.num_shards(),
            step,
            self.cycle,
            self.skip_idle,
            observer,
        );

        let sinks = &mut self.sinks;
        sinks.stats.cross_activations += sinks.exchange.len() as u64;
        for &packed in &sinks.exchange {
            let target = (packed >> 32) as usize;
            self.lanes[target].activate((packed & u64::from(u32::MAX)) as usize);
            self.live.touch(target);
        }
        sinks.exchange.clear();
        let lanes = &mut self.lanes;
        self.live.advance(|si| lanes[si].advance());

        // For byte plans all of a cycle's offsets are equal, so this is
        // exactly the flat engine's within-cycle state order.
        sinks.reports.sort_unstable_by_key(|r| (r.offset, r.ste));
        self.result.reports.append(&mut sinks.reports);
        self.result
            .activity
            .record(tally.num_active, tally.num_dynamic, tally.reports);
        observer.on_cycle_end(&ShardCycleSummary {
            cycle: self.cycle,
            symbol: step.a,
            shards_visited: tally.visited,
            shards_skipped: tally.skipped,
            reports: tally.reports,
        });
        self.cycle += 1;
    }
}

impl<P: ShardedExecution> Session for ShardedSession<'_, P> {
    fn feed_with(&mut self, chunk: &[u8], observer: &mut impl ShardObserver) {
        let mut carry = self.carry.take();
        P::plan_steps(chunk, &mut carry, |step| self.step(step, observer));
        self.carry = carry;
        self.fed += chunk.len();
    }

    fn finish_with(&mut self, observer: &mut impl ShardObserver) -> RunResult {
        if let Some(step) = P::flush_step(&mut self.carry, self.fed) {
            self.step(step, observer);
        }
        let mut result = std::mem::take(&mut self.result);
        P::sort_reports(&mut result.reports);
        self.reset_state();
        result
    }

    fn reset(&mut self) {
        self.reset_state();
        self.result.reports.clear();
        self.result.activity = Default::default();
    }

    fn bytes_fed(&self) -> usize {
        self.fed
    }

    fn pending(&self) -> &RunResult {
        &self.result
    }
}

impl<P: ShardedExecution> FlowSession for ShardedSession<'_, P> {
    fn suspend(&mut self) -> SuspendedFlow {
        let mut dynamic = Vec::new();
        let mut hints = Vec::new();
        for si in self.live.lanes.iter() {
            let shard = self.plan.shard(si);
            let globals = shard.global_states();
            match &self.lanes[si] {
                ShardLane::Dfa(state) => {
                    let dfa = shard.dfa().expect("a DFA lane's shard ships a DFA");
                    let locals = dfa.dynamics(*state).iter();
                    dynamic.extend(locals.map(|&local| globals[local as usize]));
                    // A resume hint for every live DFA-stepped lane, so
                    // same-plan resume skips the set-to-state lookup.
                    // Idle DFA lanes are in state 0 and need no hint.
                    hints.push((si as u32, *state));
                }
                ShardLane::Nfa(lane) => {
                    dynamic.extend(lane.dynamic.iter().map(|local| globals[local]));
                }
            }
        }
        let flow = SuspendedFlow {
            cycle: self.cycle,
            fed: self.fed,
            dynamic,
            carry: self.carry.take(),
            result: std::mem::take(&mut self.result),
            dfa: hints,
        };
        self.reset_state();
        flow
    }

    fn resume(&mut self, flow: SuspendedFlow) {
        debug_assert!(self.cycle == 0 && self.is_idle());
        self.cycle = flow.cycle;
        self.fed = flow.fed;
        self.carry = flow.carry;
        self.result = flow.result;
        // Place every restored state as `shard << 32 | local`, in the
        // exchange buffer (empty between cycles), and sort: a flow
        // translated from another plan is sorted by global id, which
        // need not be any shard's local order.
        let placed = &mut self.sinks.exchange;
        placed.extend(flow.dynamic.iter().map(|&global| {
            let (shard, local) = self.plan.placement_of(global as usize);
            u64::from(shard) << 32 | u64::from(local)
        }));
        placed.sort_unstable();
        // Hints ascend by shard, like this walk.
        let mut hints = flow.dfa.iter().peekable();
        let mut locals = Vec::new();
        for group in placed.chunk_by(|a, b| a >> 32 == b >> 32) {
            let si = (group[0] >> 32) as usize;
            self.live.lanes.insert(si);
            locals.clear();
            locals.extend(group.iter().map(|&packed| packed as u32));
            let shard = self.plan.shard(si);
            let lane = &mut self.lanes[si];
            if let ShardLane::Dfa(state) = lane {
                // Re-derive the DFA state from the restored dynamic set.
                // A hint from the suspending session short-circuits the
                // lookup once validated; a set with no constructed state
                // (the flow was translated from another plan, or ran
                // NFA-style before suspension) drops this lane to NFA
                // stepping — the kernels are report-equivalent, only the
                // cost differs.
                let dfa = shard.dfa().expect("a DFA lane's shard ships a DFA");
                while hints.next_if(|&&(s, _)| (s as usize) < si).is_some() {}
                let hinted = hints
                    .next_if(|&&(s, _)| s as usize == si)
                    .map(|&(_, state)| state)
                    .filter(|&state| dfa.dynamics(state) == locals.as_slice());
                if let Some(found) = hinted.or_else(|| dfa.resume_state(&locals)) {
                    *state = found;
                    continue;
                }
                *lane = ShardLane::Nfa(Box::new(NfaLane::new(shard.len())));
                self.fallback.push(si as u32);
            }
            if let ShardLane::Nfa(lane) = lane {
                for &local in &locals {
                    lane.enable(local as usize);
                }
                lane.recount();
            }
        }
        placed.clear();
    }

    fn is_idle(&self) -> bool {
        self.carry.is_none() && self.live.lanes.is_empty()
    }

    fn for_each_active_shard(&self, f: impl FnMut(usize)) {
        self.live.lanes.iter().for_each(f);
    }

    fn set_skip_idle(&mut self, on: bool) {
        self.skip_idle = on;
    }
}

/// The sharded engine: compiles an [`Nfa`] into a [`ShardedAutomaton`]
/// and executes streams on it, one simulated CAM array per shard
/// ([`Engine`] over the sharded plan).
///
/// # Examples
///
/// ```
/// use cama_core::regex;
/// use cama_sim::ShardedSimulator;
///
/// let nfa = regex::compile_set(&["ab+", "xy"])?;
/// let mut sim = ShardedSimulator::per_component(&nfa);
/// let result = sim.run(b"zabbxy");
/// assert_eq!(result.report_offsets(), vec![2, 3, 5]);
/// # Ok::<(), cama_core::Error>(())
/// ```
pub type ShardedSimulator<'a> = Engine<'a, ShardedAutomaton>;

impl<'a> ShardedSimulator<'a> {
    /// Compiles `nfa` into at most `num_shards` component-balanced
    /// shards and prepares a simulator.
    pub fn new(nfa: &'a Nfa, num_shards: usize) -> Self {
        Engine::from_parts(nfa, ShardedAutomaton::compile(nfa, num_shards), ())
    }

    /// One shard per connected component.
    pub fn per_component(nfa: &'a Nfa) -> Self {
        Engine::from_parts(nfa, ShardedAutomaton::compile_per_component(nfa), ())
    }

    /// An explicit per-state shard assignment (e.g. the architecture
    /// mapper's `partition_of`).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != nfa.len()`.
    pub fn with_assignment(nfa: &'a Nfa, assignment: &[u32]) -> Self {
        let plan = ShardedAutomaton::compile_with_assignment(nfa, assignment);
        Engine::from_parts(nfa, plan, ())
    }

    /// Sets whether sessions skip idle shards (on by default); see
    /// [`FlowSession::set_skip_idle`].
    pub fn skip_idle(mut self, on: bool) -> Self {
        self.skip_idle = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AutomataEngine, Simulator};
    use cama_core::regex;

    #[test]
    fn shard_stats_merge_sums_every_field() {
        let mut a = ShardStats::new(2, 3);
        a.shard_cycles = vec![1, 2];
        a.state_active = vec![10, 0, 3];
        a.skipped_shard_cycles = 4;
        a.words_visited = 7;
        a.cross_activations = 5;
        let mut b = ShardStats::new(2, 3);
        b.shard_cycles = vec![100, 200];
        b.state_active = vec![1, 2, 3];
        b.skipped_shard_cycles = 40;
        b.words_visited = 70;
        b.cross_activations = 50;
        a.merge(&b);
        assert_eq!(a.shard_cycles, vec![101, 202]);
        assert_eq!(a.state_active, vec![11, 2, 6]);
        assert_eq!(a.skipped_shard_cycles, 44);
        assert_eq!(a.words_visited, 77);
        assert_eq!(a.cross_activations, 55);
        // The argument is untouched.
        assert_eq!(b.shard_cycles, vec![100, 200]);
    }

    #[test]
    fn shard_stats_merge_grows_to_the_wider_operand() {
        let mut narrow = ShardStats::new(1, 1);
        narrow.shard_cycles = vec![5];
        narrow.state_active = vec![9];
        let mut wide = ShardStats::new(3, 2);
        wide.shard_cycles = vec![1, 2, 3];
        wide.state_active = vec![4, 5];
        narrow.merge(&wide);
        assert_eq!(narrow.shard_cycles, vec![6, 2, 3]);
        assert_eq!(narrow.state_active, vec![13, 5]);
    }

    #[test]
    fn shard_stats_merge_matches_split_session_rollup() {
        // Feeding one input in two sessions and merging their stats
        // equals feeding it twice in one session (state resets between
        // runs, so the counters are independent and additive).
        let nfa = regex::compile_set(&["ab+c", "x[0-9]+y"]).unwrap();
        let input = b"zab bcx12y qabcx9y";
        let sim = ShardedSimulator::new(&nfa, 3);

        let mut once = sim.start();
        once.feed(input);
        once.finish();
        let mut twice = sim.start();
        twice.feed(input);
        twice.finish();
        let mut both = once.take_stats();
        both.merge(twice.stats());

        let mut double = sim.start();
        double.feed(input);
        double.finish();
        double.feed(input);
        double.finish();
        let expect = double.take_stats();

        assert_eq!(both.shard_cycles, expect.shard_cycles);
        assert_eq!(both.state_active, expect.state_active);
        assert_eq!(both.skipped_shard_cycles, expect.skipped_shard_cycles);
        assert_eq!(both.words_visited, expect.words_visited);
        assert_eq!(both.cross_activations, expect.cross_activations);
    }

    #[test]
    fn sharded_matches_flat_on_multi_component_set() {
        let nfa = regex::compile_set(&["ab+c", "x[0-9]+y", "q"]).unwrap();
        let input = b"zab bcx12y qabcx9y";
        let flat = Simulator::new(&nfa).run(input);
        for shards in [1, 2, 3, usize::MAX] {
            let sharded = ShardedSimulator::new(&nfa, shards).run(input);
            assert_eq!(sharded, flat, "{shards} shards");
        }
    }

    #[test]
    fn split_component_exchanges_cross_activations() {
        // A chain split across two shards forces global-switch traffic.
        let nfa = regex::compile("abcd").unwrap();
        let sim = ShardedSimulator::with_assignment(&nfa, &[0, 0, 1, 1]);
        let flat = Simulator::new(&nfa).run(b"zabcdabcd");
        let mut session = sim.start();
        session.feed(b"zabcdabcd");
        let result = session.finish();
        assert_eq!(result, flat);
        assert!(session.stats().cross_activations > 0);
    }

    #[test]
    fn idle_shards_are_skipped_without_changing_results() {
        let nfa = regex::compile_set(&["abc", "xyz"]).unwrap();
        let input = b"abcabcabc"; // never touches the xyz component
        let sim = ShardedSimulator::per_component(&nfa);
        let mut session = sim.start();
        session.feed(input);
        let skipping = session.finish();
        let stats = session.take_stats();
        assert!(stats.skipped_shard_cycles > 0, "{stats:?}");
        // The xyz shard should never have executed: no start matches.
        assert!(stats.shard_cycles.contains(&0), "{stats:?}");

        let no_skip = ShardedSimulator::per_component(&nfa).skip_idle(false);
        let mut session = no_skip.start();
        session.feed(input);
        assert_eq!(session.finish(), skipping);
        let stats_no_skip = session.take_stats();
        assert!(stats_no_skip.words_visited > stats.words_visited);
        assert_eq!(stats_no_skip.skipped_shard_cycles, 0);
    }

    #[test]
    fn report_order_matches_flat_engine_within_a_cycle() {
        // Two patterns reporting at the same offset; per-component
        // sharding reverses shard visit order relative to state ids
        // unless the engine re-sorts per cycle.
        let nfa = regex::compile_set(&["ab", "zb"]).unwrap();
        let input = b"azbab";
        let flat = Simulator::new(&nfa).run(input);
        let sharded = ShardedSimulator::per_component(&nfa).run(input);
        assert_eq!(sharded.reports, flat.reports);
    }

    #[test]
    fn suspend_resume_is_transparent() {
        let nfa = regex::compile("ab+c").unwrap();
        let plan = ShardedAutomaton::compile(&nfa, 2);
        let mut session = ShardedSession::new(&plan);
        session.feed(b"zab");
        let suspended = session.suspend();
        assert!(session.is_idle());
        // The session can serve another flow in between.
        session.feed(b"abc");
        assert_eq!(session.finish().report_offsets(), vec![2]);
        session.resume(suspended);
        session.feed(b"bc");
        let result = session.finish();
        assert_eq!(result, Simulator::new(&nfa).run(b"zabbc"));
    }

    /// Every session reports the same cycles through the one observer
    /// protocol: the flat session (its lane as shard 0), the sharded
    /// session at 2 shards and at one shard per component, the hybrid
    /// plan's session (whose DFA shards lend their states' lists), and
    /// — for byte plans — the interpreted oracle, on all four plan
    /// flavours, fed in chunks that split strided pairs, with an odd
    /// input length so strided streams end in a flush cycle.
    #[test]
    fn every_session_reports_the_same_cycles_on_every_flavour() {
        use crate::interp::InterpSimulator;
        use crate::FlatSession;
        use cama_core::compile::{compile_hybrid_ruleset, dfa_enabled, DfaPolicy, PlanCache};
        use cama_core::compiled::{CompiledAutomaton, CompiledStridedAutomaton};
        use cama_core::stride::StridedNfa;
        use cama_encoding::{EncodingPlan, StridedEncoding};

        /// Per cycle: the sorted global dynamic and active sets and the
        /// report count.
        #[derive(Default)]
        struct Record(Vec<(Vec<usize>, Vec<usize>, usize)>, Vec<usize>, Vec<usize>);
        impl ShardObserver for Record {
            fn on_shard_cycle(&mut self, view: &ShardCycleView<'_>) {
                let global = |local| view.global_state(local);
                self.1.extend(view.dynamic_enabled.iter().map(global));
                self.2.extend(view.active.iter().map(global));
            }
            fn on_cycle_end(&mut self, summary: &ShardCycleSummary) {
                let (mut dynamic, mut active) = (self.1.split_off(0), self.2.split_off(0));
                dynamic.sort_unstable();
                active.sort_unstable();
                self.0.push((dynamic, active, summary.reports));
            }
        }
        const INPUT: &[u8] = b"zabbcx12yabxybbcx9y";
        fn record(mut session: impl Session) -> Vec<(Vec<usize>, Vec<usize>, usize)> {
            let mut record = Record::default();
            for chunk in INPUT.chunks(3) {
                session.feed_with(chunk, &mut record);
            }
            let result = session.finish_with(&mut record);
            assert_eq!(record.0.len(), result.activity.cycles);
            record.0
        }
        // Two shards, then one shard per connected component.
        let layouts =
            |components: Vec<u32>| [components.iter().map(|c| c % 2).collect(), components];

        let nfa = regex::compile_set(&["ab+c", "x[0-9]+y", "xy"]).unwrap();
        let byte = record(FlatSession::new(&CompiledAutomaton::compile(&nfa)));
        assert_eq!(byte, record(InterpSimulator::new(&nfa).start()));
        let encoding = EncodingPlan::for_nfa(&nfa);
        assert_eq!(byte, record(FlatSession::new(&encoding.compile(&nfa))));
        for ids in layouts(cama_core::graph::component_ids(&nfa).0) {
            let plan = ShardedAutomaton::compile_with_assignment(&nfa, &ids);
            assert_eq!(byte, record(ShardedSession::new(&plan)), "byte {ids:?}");
            let plan = encoding.compile_sharded(&nfa, &ids);
            assert_eq!(byte, record(ShardedSession::new(&plan)), "encoded {ids:?}");
        }
        let mut cache = PlanCache::new(8);
        let (hybrid, _) = compile_hybrid_ruleset(&nfa, 1, &mut cache, &DfaPolicy::default());
        assert_eq!(hybrid.num_dfa_shards() > 0, dfa_enabled());
        assert_eq!(byte, record(ShardedSession::new(&hybrid)), "hybrid");

        let strided = StridedNfa::from_nfa(&nfa);
        let pairs = record(FlatSession::new(&CompiledStridedAutomaton::compile(
            &strided,
        )));
        assert_eq!(pairs.len(), INPUT.len().div_ceil(2));
        assert_eq!(INPUT.len() % 2, 1);
        let encoding = StridedEncoding::for_strided(&strided);
        assert_eq!(pairs, record(FlatSession::new(&encoding.compile(&strided))));
        for ids in layouts(cama_core::graph::component_ids(&strided).0) {
            let plan = ShardedAutomaton::compile_with_assignment(&strided, &ids);
            assert_eq!(pairs, record(ShardedSession::new(&plan)), "strided {ids:?}");
            let plan = encoding.compile_sharded(&strided, &ids);
            let encoded = record(ShardedSession::new(&plan));
            assert_eq!(pairs, encoded, "encoded strided {ids:?}");
        }
    }

    /// The shards stepped through their DFA and through the NFA kernel.
    #[derive(Default)]
    struct Modes {
        dfa: Vec<usize>,
        nfa: Vec<usize>,
    }

    impl ShardObserver for Modes {
        fn on_shard_cycle(&mut self, view: &ShardCycleView<'_>) {
            self.nfa.push(view.shard);
        }
        fn on_dfa_shard_cycle(&mut self, view: &DfaShardCycleView<'_>) {
            self.dfa.push(view.shard_view.shard);
        }
        fn on_cycle_end(&mut self, _: &ShardCycleSummary) {}
    }

    /// A DFA-capable lane that `resume` dropped to NFA stepping goes
    /// idle without being reset; `finish` and `suspend` must still
    /// return it to DFA stepping, and a suspended session must hold no
    /// live lane.
    #[test]
    fn idle_fallback_lane_returns_to_dfa_stepping_on_reset() {
        use crate::session::SuspendedFlow;
        use cama_core::compile::{compile_hybrid_ruleset, dfa_enabled, DfaPolicy, PlanCache};

        fn modes(session: &mut ShardedSession<'_>, input: &[u8]) -> Modes {
            let mut modes = Modes::default();
            session.feed_sharded_with(input, &mut modes);
            modes
        }
        fn active_shards(session: &ShardedSession<'_>) -> Vec<usize> {
            let mut active = Vec::new();
            session.for_each_active_shard(|shard| active.push(shard));
            active
        }

        let nfa = regex::compile_set(&["ab+c", "xyz"]).unwrap();
        let mut cache = PlanCache::new(8);
        let (plan, _) = compile_hybrid_ruleset(&nfa, 1, &mut cache, &DfaPolicy::default());
        // `c` alone is the successor set of no DFA state of `ab+c`
        // (`b`'s is {b, c}), so resuming it falls back to NFA stepping.
        let c = (0..nfa.len() as u32)
            .find(|&g| nfa.ste(SteId(g)).class.contains(b'c'))
            .unwrap();
        let shard = plan.placement_of(c as usize).0 as usize;
        let has_dfa = plan.shard(shard).dfa().is_some();
        assert_eq!(has_dfa, dfa_enabled());
        let parked = || SuspendedFlow {
            cycle: 3,
            fed: 3,
            dynamic: vec![c],
            ..SuspendedFlow::default()
        };

        let mut session = ShardedSession::new(&plan);
        session.resume(parked());
        assert_eq!(active_shards(&session), vec![shard]);
        let stepped = modes(&mut session, b"cz");
        assert_eq!(stepped.nfa, vec![shard], "fallback steps the NFA kernel");
        assert!(stepped.dfa.is_empty());
        assert!(session.is_idle(), "the fallback lane went idle");
        assert_eq!(session.finish().report_offsets(), vec![3]);
        let stepped = modes(&mut session, b"abbc");
        if has_dfa {
            assert_eq!(stepped.dfa, vec![shard; 4], "DFA stepping after finish");
            assert!(stepped.nfa.is_empty());
        }
        assert_eq!(session.finish().report_offsets(), vec![3]);

        // The same through suspend: once with the fallback lane idle,
        // once with it still live.
        for input in [&b"cz"[..], b""] {
            session.resume(parked());
            session.feed(input);
            let flow = session.suspend();
            assert_eq!(flow.dynamic.is_empty(), !input.is_empty());
            assert!(session.is_idle());
            assert!(active_shards(&session).is_empty());
            let stepped = modes(&mut session, b"ab");
            if has_dfa {
                assert_eq!(stepped.dfa, vec![shard; 2], "DFA stepping after suspend");
            }
            assert_eq!(active_shards(&session), vec![shard]);
            let flow = session.suspend();
            assert_eq!(flow.dynamic.len(), 2, "b and c enabled");
            assert_eq!(flow.dfa.len(), usize::from(has_dfa), "one resume hint");
            assert!(session.is_idle());
            assert!(active_shards(&session).is_empty());
        }
    }

    /// A flow with no DFA hints whose dynamic set is sorted by global id
    /// — as [`SuspendedFlow::translate`] leaves it, and as a flat
    /// session suspends it — resumes onto DFA states even where a
    /// shard's local order differs from the global one, and then reports
    /// what the flat engine reports.
    #[test]
    fn unhinted_flow_resumes_onto_dfa_states() {
        use crate::FlatSession;
        use cama_core::compile::{compile_hybrid_ruleset, dfa_enabled, DfaPolicy, PlanCache};

        // `x` lists `y` then `w` as successors, so the component is laid
        // out x, y, w, z: `w` precedes `z` locally but not globally.
        let nfa = regex::compile_set(&["ab", "x(yz?)*w"]).unwrap();
        let mut cache = PlanCache::new(8);
        let (plan, _) = compile_hybrid_ruleset(&nfa, 1, &mut cache, &DfaPolicy::default());
        let flat_plan = CompiledAutomaton::compile(&nfa);
        let (prefix, rest) = (&b"abxy"[..], &b"zyw"[..]);

        let mut flat = FlatSession::new(&flat_plan);
        flat.feed(prefix);
        let flow = flat.suspend();
        assert!(flow.dfa.is_empty());
        assert!(flow.dynamic.windows(2).all(|pair| pair[0] < pair[1]));
        let locals: Vec<u32> = flow
            .dynamic
            .iter()
            .map(|&global| plan.placement_of(global as usize).1)
            .collect();
        assert!(
            locals.windows(2).any(|pair| pair[0] > pair[1]),
            "local order {locals:?} follows the global order"
        );

        let mut session = ShardedSession::new(&plan);
        session.resume(flow);
        assert!(session.fallback.is_empty(), "a constructed set fell back");
        let mut modes = Modes::default();
        session.feed_sharded_with(rest, &mut modes);
        if dfa_enabled() {
            assert!(
                modes.nfa.is_empty(),
                "the resumed lane stepped the NFA kernel"
            );
            assert!(!modes.dfa.is_empty());
        }
        let whole = [prefix, rest].concat();
        assert_eq!(session.finish(), Simulator::new(&nfa).run(&whole));
    }

    /// A hybrid session suspends the same dynamic list as the pure-NFA
    /// plan's session of the same ruleset, at every point of a stream.
    #[test]
    fn hybrid_suspend_lists_what_the_nfa_plan_lists() {
        use cama_core::compile::{compile_hybrid_ruleset, compile_ruleset, DfaPolicy, PlanCache};

        let nfa = regex::compile_set(&["ab+c", "x[0-9]+y", "xy", "x(yz?)*w"]).unwrap();
        let mut cache = PlanCache::new(8);
        let (nfa_plan, _) = compile_ruleset(&nfa, 1, &mut cache);
        let (hybrid, _) = compile_hybrid_ruleset(&nfa, 1, &mut cache, &DfaPolicy::default());
        let input = b"zabbx12xyzyzwabbbc";
        let mut live = 0;
        for cut in 0..=input.len() {
            let suspend = |plan| {
                let mut session = ShardedSession::new(plan);
                session.feed(&input[..cut]);
                session.suspend()
            };
            let (expect, got) = (suspend(&nfa_plan), suspend(&hybrid));
            assert!(expect.dfa.is_empty());
            assert_eq!(got.dynamic, expect.dynamic, "after {cut} bytes");
            assert_eq!(got.result, expect.result, "after {cut} bytes");
            live += usize::from(!got.dynamic.is_empty());
        }
        assert!(live > input.len() / 2, "the stream is mostly idle");
    }

    /// A sharded lane is at most 16 bytes. A DFA-capable lane owns no
    /// NFA lane through `new`, `feed`, `suspend` and `finish`; a lane
    /// that `resume` drops to NFA stepping owns one until the session
    /// resets.
    #[test]
    fn dfa_lanes_own_no_nfa_lane_outside_fallback() {
        use crate::session::SuspendedFlow;
        use cama_core::compile::{compile_hybrid_ruleset, dfa_enabled, DfaPolicy, PlanCache};

        assert!(size_of::<ShardLane>() <= 16, "{}", size_of::<ShardLane>());
        if !dfa_enabled() {
            return;
        }
        let nfa = regex::compile_set(&["ab+c", "xyz"]).unwrap();
        let mut cache = PlanCache::new(8);
        let (plan, _) = compile_hybrid_ruleset(&nfa, 1, &mut cache, &DfaPolicy::default());
        assert_eq!(plan.num_dfa_shards(), plan.num_shards());
        let boxed = |session: &ShardedSession<'_>| {
            let lanes = session.lanes.iter().enumerate();
            let nfa = lanes.filter(|(_, lane)| matches!(lane, ShardLane::Nfa(_)));
            nfa.map(|(si, _)| si).collect::<Vec<_>>()
        };

        let mut session = ShardedSession::new(&plan);
        assert!(boxed(&session).is_empty(), "after new");
        session.feed(b"xyzabb");
        assert!(boxed(&session).is_empty(), "after feed");
        let flow = session.suspend();
        assert!(boxed(&session).is_empty(), "after suspend");
        session.resume(flow);
        session.feed(b"bc");
        assert!(boxed(&session).is_empty(), "after a hinted resume");
        assert_eq!(session.finish().report_offsets(), vec![2, 7]);
        assert!(boxed(&session).is_empty(), "after finish");

        // `c` alone is no DFA state's dynamic set: NFA fallback.
        let c = (0..nfa.len() as u32)
            .find(|&g| nfa.ste(SteId(g)).class.contains(b'c'))
            .unwrap();
        let shard = plan.placement_of(c as usize).0 as usize;
        let parked = SuspendedFlow {
            cycle: 3,
            fed: 3,
            dynamic: vec![c],
            ..SuspendedFlow::default()
        };
        session.resume(parked);
        assert_eq!(boxed(&session), vec![shard], "after a fallback resume");
        session.feed(b"cz");
        assert!(session.is_idle());
        assert_eq!(boxed(&session), vec![shard], "the idle fallback lane");
        session.reset();
        assert!(boxed(&session).is_empty(), "after reset");
    }

    #[test]
    fn empty_plan_session_is_a_noop() {
        let nfa = cama_core::NfaBuilder::new().build().unwrap();
        let plan = ShardedAutomaton::compile(&nfa, 4);
        let mut session = ShardedSession::new(&plan);
        session.feed(b"abc");
        let result = session.finish();
        assert!(result.reports.is_empty());
        assert_eq!(result.activity.cycles, 3);
    }
}
