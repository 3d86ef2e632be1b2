//! The stepping core: the per-stream lanes and the per-cycle kernels
//! that step them.
//!
//! Every engine in this crate runs the two steps of Figure 1 per input
//! symbol, per CAM array: *state matching* (which states accept the
//! symbol) then *state transition* (`active = matched ∧ enabled`,
//! reports, next enable vector). An [`NfaLane`] is one array's
//! per-stream half of that loop — enable/active vectors — and a
//! [`ShardLane`] is a sharded session's per-shard lane: a determinized
//! shard's DFA state, or an `NfaLane`. The kernels here are the only
//! code that steps one:
//!
//! * [`step_shard_byte`] — one symbol per cycle on an
//!   [`ExecutionPlan`] (raw-byte or encoded rows);
//! * [`step_shard_pair`] — one symbol pair per cycle on a
//!   [`StridedPlan`], with [`step_pair_naive`] as its
//!   precharge-every-word baseline;
//! * [`step_shard_dfa`] — the hybrid fast path: one dense-table load
//!   per cycle on a determinized component, then the landed state's
//!   reports and heat.
//!
//! The selective kernels visit only the 64-state words that can be
//! active this cycle — the intersection of the plan's per-symbol match
//! summaries with the enable-source summaries, the software form of
//! CAMA's selective precharge.
//!
//! What differs between a flat plan and one shard of a sharded plan is
//! passed in as a [`LaneContext`]: where reports go and under which
//! global ids, the per-state heat histogram, and the cross-shard
//! successor table. A flat plan is the one-array case — identity ids,
//! heat off, no cross edges — so flat and sharded sessions run the same
//! kernels, the way hwtLib's `Cam` makes its valid bit a parameter
//! rather than a second unit. The strided chunk-to-cycle mapping
//! ([`pair_steps`], [`pair_flush`]) is likewise shared by every
//! session.

use crate::result::Report;
use cama_core::bitset::BitSet;
use cama_core::compiled::{CompiledDfa, ExecutionPlan, PlanBase, StridedPlan};
use cama_core::kernel;
use cama_core::stride::ReportPhase;
use cama_core::SteId;

/// Zeroes exactly the words the one-bit-per-word `summary` marks dirty,
/// then zeroes the summary — the sparse clear of every vector/summary
/// pair.
#[inline]
pub(crate) fn sparse_clear(words: &mut [u64], summary: &mut [u64]) {
    for (j, any) in summary.iter_mut().enumerate() {
        let mut dirty = *any;
        while dirty != 0 {
            words[j * 64 + dirty.trailing_zeros() as usize] = 0;
            dirty &= dirty - 1;
        }
        *any = 0;
    }
}

/// Popcounts only the words the one-bit-per-word `summary` marks dirty.
#[inline]
pub(crate) fn popcount_dirty(words: &[u64], summary: &[u64]) -> usize {
    let mut count = 0usize;
    for (j, &any) in summary.iter().enumerate() {
        let mut dirty = any;
        while dirty != 0 {
            count += words[j * 64 + dirty.trailing_zeros() as usize].count_ones() as usize;
            dirty &= dirty - 1;
        }
    }
    count
}

/// One simulated CAM array's mutable half of a stream under the NFA
/// kernels: local enable/active vectors plus their one-bit-per-word
/// summaries (kept in lockstep so clears and scans only touch dirty
/// words).
///
/// Public only because it appears in the `#[doc(hidden)]` hooks of
/// [`ShardedExecution`](crate::ShardedExecution); not part of the
/// supported API.
#[doc(hidden)]
#[derive(Clone, Debug)]
pub struct NfaLane {
    pub(crate) dynamic: BitSet,
    pub(crate) next: BitSet,
    pub(crate) active: BitSet,
    pub(crate) dynamic_any: Vec<u64>,
    pub(crate) next_any: Vec<u64>,
    pub(crate) active_any: Vec<u64>,
    /// Popcount of `dynamic`, maintained at the cycle-end advance so
    /// per-cycle accounting never re-counts the vector.
    pub(crate) num_dynamic: usize,
    /// Pair lanes: step with [`step_pair_naive`] (every word
    /// precharged) instead of selective visitation. A session setting,
    /// so it survives resets.
    pub(crate) precharge_all: bool,
}

impl NfaLane {
    pub(crate) fn new(len: usize) -> NfaLane {
        let summary_words = len.div_ceil(64).div_ceil(64);
        NfaLane {
            dynamic: BitSet::new(len),
            next: BitSet::new(len),
            active: BitSet::new(len),
            dynamic_any: vec![0; summary_words],
            next_any: vec![0; summary_words],
            active_any: vec![0; summary_words],
            num_dynamic: 0,
            precharge_all: false,
        }
    }

    /// Restores power-on state, keeping capacity and the stepping
    /// setting.
    pub(crate) fn reset(&mut self) {
        self.dynamic.clear();
        self.next.clear();
        self.active.clear();
        self.dynamic_any.iter_mut().for_each(|w| *w = 0);
        self.next_any.iter_mut().for_each(|w| *w = 0);
        self.active_any.iter_mut().for_each(|w| *w = 0);
        self.num_dynamic = 0;
    }

    #[inline]
    pub(crate) fn dynamic_is_empty(&self) -> bool {
        self.dynamic_any.iter().all(|&w| w == 0)
    }

    /// Marks `local` dynamically enabled (a resume); call
    /// [`recount`](Self::recount) once the set is complete.
    pub(crate) fn enable(&mut self, local: usize) {
        self.dynamic.insert(local);
        self.dynamic_any[local / 4096] |= 1u64 << ((local / 64) % 64);
    }

    /// Re-derives the cached dynamic popcount after direct edits.
    #[inline]
    pub(crate) fn recount(&mut self) {
        self.num_dynamic = popcount_dirty(self.dynamic.as_words(), &self.dynamic_any);
    }

    /// Sets a staged cross-shard activation in the next vector — the
    /// single write both the sequential exchange and the parallel
    /// mailbox drain perform per activation.
    #[inline]
    pub(crate) fn activate(&mut self, local: usize) {
        self.next.as_words_mut()[local / 64] |= 1u64 << (local % 64);
        self.next_any[local / 4096] |= 1u64 << ((local / 64) % 64);
    }

    /// Cycle end: next becomes dynamic; the old dynamic storage is
    /// sparse-cleared and becomes next cycle's scratch. Returns whether
    /// the lane stays live (its new dynamic set is non-empty).
    #[inline]
    pub(crate) fn advance(&mut self) -> bool {
        std::mem::swap(&mut self.dynamic, &mut self.next);
        std::mem::swap(&mut self.dynamic_any, &mut self.next_any);
        sparse_clear(self.next.as_words_mut(), &mut self.next_any);
        self.recount();
        self.num_dynamic != 0
    }
}

/// One shard's lane in a sharded session (16 bytes).
///
/// A shard that ships a [`CompiledDfa`] holds only its DFA state: its
/// dynamic and active sets are the state's precomputed lists, so it
/// owns no vector. Only an NFA shard, or a DFA-capable lane that
/// `resume` could not map onto a DFA state (NFA fallback, until the
/// session resets), boxes an [`NfaLane`].
#[derive(Clone, Debug)]
pub(crate) enum ShardLane {
    /// The DFA state (0 = the empty set). The cycle stores a landed
    /// state with an empty dynamic set as 0 — it steps exactly like the
    /// empty state, since a transition reads only the dynamic set — so
    /// the lane is live exactly when its state is not 0.
    Dfa(u32),
    /// Stepped by the NFA kernels.
    Nfa(Box<NfaLane>),
}

impl ShardLane {
    /// A power-on lane over `len` local states: DFA state 0 for a
    /// shard with a DFA, an NFA lane otherwise.
    pub(crate) fn new(len: usize, dfa_capable: bool) -> ShardLane {
        if dfa_capable {
            ShardLane::Dfa(0)
        } else {
            ShardLane::Nfa(Box::new(NfaLane::new(len)))
        }
    }

    /// Whether the lane holds dynamically enabled state.
    #[inline]
    pub(crate) fn is_live(&self) -> bool {
        match self {
            ShardLane::Dfa(state) => *state != 0,
            ShardLane::Nfa(lane) => !lane.dynamic_is_empty(),
        }
    }

    /// Restores power-on state, keeping an NFA lane's capacity.
    pub(crate) fn reset(&mut self) {
        match self {
            ShardLane::Dfa(state) => *state = 0,
            ShardLane::Nfa(lane) => lane.reset(),
        }
    }

    /// Applies a cross-shard activation. Only NFA shards receive them:
    /// DFAs are attached to shards without cross-shard edges.
    #[inline]
    pub(crate) fn activate(&mut self, local: usize) {
        match self {
            ShardLane::Nfa(lane) => lane.activate(local),
            ShardLane::Dfa(_) => unreachable!("a DFA shard has no cross-shard edges"),
        }
    }

    /// Cycle end; returns whether the lane stays live. A DFA lane's
    /// state was already settled by its step.
    #[inline]
    pub(crate) fn advance(&mut self) -> bool {
        match self {
            ShardLane::Dfa(state) => *state != 0,
            ShardLane::Nfa(lane) => lane.advance(),
        }
    }
}

/// One engine cycle lowered to data: the symbol(s) and the
/// report-offset limit (pad suppression on a strided flush,
/// `usize::MAX` otherwise).
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct CycleStep {
    pub(crate) a: u8,
    pub(crate) b: u8,
    pub(crate) limit: usize,
}

/// What one lane-cycle contributed to the cycle's totals.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct StepOut {
    pub(crate) num_active: usize,
    pub(crate) reports: usize,
    /// Distinct 64-state words phase 1 swept — counted by the pair
    /// kernels only (the flat strided session's `words_visited`).
    pub(crate) words: u64,
}

/// The shard-only inputs of a lane kernel. A sharded session passes
/// the shard's global-id map, cross-successor table and the per-state
/// heat histogram; a flat session passes identity, empty and off
/// ([`FlatContext`]).
#[doc(hidden)]
pub trait LaneContext {
    /// Emits a report of local state `local`.
    fn report(&mut self, local: usize, code: u32, offset: usize);

    /// Counts one activation of `local` in the per-state heat
    /// histogram.
    fn heat(&mut self, local: usize);

    /// Stages the cross-shard successors of `local` for the cycle-end
    /// exchange.
    fn stage_cross(&mut self, local: usize);
}

/// The flat plan's [`LaneContext`]: reports go straight into the
/// result under their own ids; there is no heat histogram and no
/// cross-shard table.
pub(crate) struct FlatContext<'a>(pub(crate) &'a mut Vec<Report>);

impl LaneContext for FlatContext<'_> {
    #[inline]
    fn report(&mut self, local: usize, code: u32, offset: usize) {
        self.0.push(Report {
            ste: SteId(local as u32),
            code,
            offset,
        });
    }

    #[inline]
    fn heat(&mut self, _local: usize) {}

    #[inline]
    fn stage_cross(&mut self, _local: usize) {}
}

/// Phase-1 building block: for each word the `dirty` mask (summary word
/// `j`) marks, ORs `word(w)` into the active vector and its summary when
/// non-zero.
#[inline(always)]
fn or_active(
    active: &mut [u64],
    active_any: &mut u64,
    j: usize,
    mut dirty: u64,
    word: impl Fn(usize) -> u64,
) {
    while dirty != 0 {
        let w = j * 64 + dirty.trailing_zeros() as usize;
        dirty &= dirty - 1;
        let bits = word(w);
        if bits != 0 {
            active[w] |= bits;
            *active_any |= 1u64 << (w % 64);
        }
    }
}

/// Phase 2 of every NFA kernel: one ordered pass over the active words
/// — popcounts, the report scan (`report_of` maps a reporting state to
/// its code and offset, or `None` to suppress it), and the successor
/// expansion while each word is hot. Returns `(num_active, reports)`.
#[inline(always)]
fn transition<P: PlanBase>(
    plan: &P,
    lane: &mut NfaLane,
    ctx: &mut impl LaneContext,
    report_of: impl Fn(usize) -> Option<(u32, usize)>,
) -> (usize, usize) {
    let report_words = plan.report_mask().as_words();
    let active_words = lane.active.as_words();
    let next_words = lane.next.as_words_mut();
    let mut num_active = 0usize;
    let mut reports = 0usize;
    for (j, &active_any) in lane.active_any.iter().enumerate() {
        let mut dirty = active_any;
        while dirty != 0 {
            let w = j * 64 + dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            let active = active_words[w];
            num_active += active.count_ones() as usize;

            let mut reporting = active & report_words[w];
            while reporting != 0 {
                let local = w * 64 + reporting.trailing_zeros() as usize;
                if let Some((code, offset)) = report_of(local) {
                    ctx.report(local, code, offset);
                    reports += 1;
                }
                reporting &= reporting - 1;
            }

            let mut remaining = active;
            while remaining != 0 {
                let local = w * 64 + remaining.trailing_zeros() as usize;
                ctx.heat(local);
                for &succ in plan.successors(local) {
                    let succ = succ as usize;
                    next_words[succ / 64] |= 1u64 << (succ % 64);
                    lane.next_any[succ / 4096] |= 1u64 << ((succ / 64) % 64);
                }
                ctx.stage_cross(local);
                remaining &= remaining - 1;
            }
        }
    }
    (num_active, reports)
}

/// One cycle of the byte kernel. Phase 1 builds `active = match[symbol]
/// & (dynamic ∪ starts ∪ start-of-data on cycle 0)` over only
/// the words the sources' summaries mark, one pass per source (a fused
/// pass like [`step_shard_pair`]'s measured slower here); phase 2
/// reports and expands.
pub(crate) fn step_shard_byte<P: ExecutionPlan>(
    plan: &P,
    lane: &mut NfaLane,
    step: CycleStep,
    cycle: usize,
    ctx: &mut impl LaneContext,
) -> StepOut {
    let symbol = step.a;
    let match_words = plan.match_vector(symbol).words();
    let match_any = plan.match_any(symbol);

    sparse_clear(lane.active.as_words_mut(), &mut lane.active_any);
    let active = lane.active.as_words_mut();
    let start_words = plan.start_match(symbol).words();
    let start_any = plan.start_match_any(symbol);
    for (j, active_any) in lane.active_any.iter_mut().enumerate() {
        or_active(active, active_any, j, start_any[j], |w| start_words[w]);
    }
    let dynamic = lane.dynamic.as_words();
    for (j, active_any) in lane.active_any.iter_mut().enumerate() {
        let dirty = match_any[j] & lane.dynamic_any[j];
        or_active(active, active_any, j, dirty, |w| {
            match_words[w] & dynamic[w]
        });
    }
    if cycle == 0 {
        let sod_words = plan.start_of_data_mask().as_words();
        let sod_any = plan.start_of_data_any();
        for (j, active_any) in lane.active_any.iter_mut().enumerate() {
            let dirty = match_any[j] & sod_any[j];
            or_active(active, active_any, j, dirty, |w| {
                match_words[w] & sod_words[w]
            });
        }
    }

    let code_of = |local| Some((plan.report_code_unchecked(local), cycle));
    let (num_active, reports) = transition(plan, lane, ctx, code_of);
    StepOut {
        num_active,
        reports,
        words: 0,
    }
}

/// The report `(code, offset)` of a pair-cycle state: the phase picks
/// the pair's first or second byte, and offsets at or past `limit` (the
/// zero pad of a strided flush) are suppressed.
#[inline(always)]
fn pair_report<P: StridedPlan>(
    plan: &P,
    cycle: usize,
    limit: usize,
    local: usize,
) -> Option<(u32, usize)> {
    let (code, phase) = plan.report_pair_unchecked(local);
    let offset = match phase {
        ReportPhase::First => cycle * 2,
        ReportPhase::Second => cycle * 2 + 1,
    };
    (offset < limit).then_some((code, offset))
}

/// One pair cycle of the strided kernel: the paired form of
/// [`step_shard_byte`], with `active = first[a] & second[b] & enabled`
/// per word and both halves' summaries fused into the visit filter.
/// Reports map through each state's [`ReportPhase`] to absolute byte
/// offsets; `step.limit` suppresses pad-byte reports.
pub(crate) fn step_shard_pair<P: StridedPlan>(
    plan: &P,
    lane: &mut NfaLane,
    step: CycleStep,
    cycle: usize,
    ctx: &mut impl LaneContext,
) -> StepOut {
    let first_words = plan.first_vector(step.a).words();
    let first_any = plan.first_any(step.a);
    let second_words = plan.second_vector(step.b).words();
    let second_any = plan.second_any(step.b);
    let start_words = plan.first_start_match(step.a).words();
    let start_any = plan.first_start_match_any(step.a);
    let sod_words = plan.start_of_data_mask().as_words();
    let sod_any = plan.start_of_data_any();

    sparse_clear(lane.active.as_words_mut(), &mut lane.active_any);
    let active = lane.active.as_words_mut();
    let dynamic = lane.dynamic.as_words();
    let mut words = 0u64;
    for (j, active_any) in lane.active_any.iter_mut().enumerate() {
        let both = first_any[j] & second_any[j];
        let starts = start_any[j] & second_any[j];
        let enabled = both & lane.dynamic_any[j];
        let sod = if cycle == 0 { both & sod_any[j] } else { 0 };
        // Count each visited word once, not once per enable source.
        words += u64::from((starts | enabled | sod).count_ones());
        or_active(active, active_any, j, starts, |w| {
            start_words[w] & second_words[w]
        });
        or_active(active, active_any, j, enabled, |w| {
            first_words[w] & second_words[w] & dynamic[w]
        });
        or_active(active, active_any, j, sod, |w| {
            first_words[w] & second_words[w] & sod_words[w]
        });
    }

    let report_of = |local| pair_report(plan, cycle, step.limit, local);
    let (num_active, reports) = transition(plan, lane, ctx, report_of);
    StepOut {
        num_active,
        reports,
        words,
    }
}

/// The non-selective ("every word precharged") form of
/// [`step_shard_pair`]: one fused [`kernel::and2_or2_summarize`] sweep
/// computing `first[a] & second[b] & (dynamic | static starts)` over
/// every word — the paper's baseline the `strided` bench group compares
/// selective visitation against. Results are identical.
pub(crate) fn step_pair_naive<P: StridedPlan>(
    plan: &P,
    lane: &mut NfaLane,
    step: CycleStep,
    cycle: usize,
    ctx: &mut impl LaneContext,
) -> StepOut {
    // Nothing is dynamically enabled on cycle 0, so the start-of-data
    // mask stands in for the dynamic vector there.
    debug_assert!(cycle != 0 || lane.dynamic_is_empty());
    let enabled = if cycle == 0 {
        plan.start_of_data_mask().as_words()
    } else {
        lane.dynamic.as_words()
    };
    kernel::and2_or2_summarize(
        plan.first_vector(step.a).words(),
        plan.second_vector(step.b).words(),
        enabled,
        plan.all_input_mask().as_words(),
        lane.active.as_words_mut(),
        &mut lane.active_any,
    );
    let words = lane.active.as_words().len() as u64;
    let report_of = |local| pair_report(plan, cycle, step.limit, local);
    let (num_active, reports) = transition(plan, lane, ctx, report_of);
    StepOut {
        num_active,
        reports,
        words,
    }
}

/// One cycle of the hybrid DFA fast path: one dense-table load —
/// `first[row]` on cycle 0 (start-of-data folded in), `next[state, row]`
/// afterwards — then the landed state's reports and per-state heat,
/// read from its precomputed lists. Returns the landed state.
///
/// The lane holds nothing but its state, so this is the whole step.
/// Reports go through the same context as the NFA kernels' and heat
/// stays exact — the member walk is the one O(active-set) loop — so
/// output and heat are bit-identical to [`step_shard_byte`]'s.
///
/// DFAs are only attached to zero-cross-edge component shards. Starts
/// inject on every cycle, which is the `all_input` fold baked into the
/// transition table.
pub(crate) fn step_shard_dfa<P: ExecutionPlan>(
    plan: &P,
    dfa: &CompiledDfa,
    state: u32,
    step: CycleStep,
    cycle: usize,
    ctx: &mut impl LaneContext,
) -> (u32, StepOut) {
    let row = plan.row_of_symbol(step.a);
    // A suspended-at-cycle-0 flow has no dynamic state, so on the first
    // cycle the lane is necessarily in the empty state and the
    // start-of-data column applies.
    debug_assert!(cycle != 0 || state == 0);
    let state = if cycle == 0 {
        dfa.first(row)
    } else {
        dfa.next(state, row)
    };
    let members = dfa.members(state);
    for &local in members {
        ctx.heat(local as usize);
    }
    let (report_locals, report_codes) = dfa.reports(state);
    for (&local, &code) in report_locals.iter().zip(report_codes) {
        ctx.report(local as usize, code, cycle);
    }
    let out = StepOut {
        num_active: members.len(),
        reports: report_locals.len(),
        words: 0,
    };
    (state, out)
}

/// `dst[i] |= src[i]` over `src`'s length.
#[inline]
pub(crate) fn or_words(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// The strided chunk-to-cycle mapping: one cycle per symbol pair, the
/// dangling odd byte of a chunk carried in `carry` until the next
/// chunk's first byte completes the pair.
pub(crate) fn pair_steps(chunk: &[u8], carry: &mut Option<u8>, mut cycle: impl FnMut(CycleStep)) {
    let pair = |a, b| CycleStep {
        a,
        b,
        limit: usize::MAX,
    };
    let mut chunk = chunk;
    if let Some(a) = *carry {
        let Some((&b, rest)) = chunk.split_first() else {
            return;
        };
        *carry = None;
        cycle(pair(a, b));
        chunk = rest;
    }
    let mut pairs = chunk.chunks_exact(2);
    for p in pairs.by_ref() {
        cycle(pair(p[0], p[1]));
    }
    if let [last] = *pairs.remainder() {
        *carry = Some(last);
    }
}

/// The strided flush: a pending carry byte becomes one zero-padded
/// final pair whose pad-offset reports are suppressed by `limit = fed`.
pub(crate) fn pair_flush(carry: &mut Option<u8>, fed: usize) -> Option<CycleStep> {
    carry.take().map(|a| CycleStep {
        a,
        b: 0,
        limit: fed,
    })
}
