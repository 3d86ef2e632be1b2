//! The one per-cycle observation protocol and aggregate activity
//! statistics.
//!
//! The energy models in `cama-arch` need, for every cycle, which states
//! were dynamically enabled (last cycle's Next Vector) and which were
//! active (enabled ∧ matched), array by array. Rather than materializing
//! gigabyte-scale traces, every session reports each cycle to a
//! [`ShardObserver`] — one [`ShardCycleView`] per visited shard, then one
//! [`ShardCycleSummary`] — and keeps only the running sums of
//! [`ActivitySummary`]. A flat session is the one-array case: its single
//! lane is reported as shard 0, every cycle, with local ids that *are*
//! global ids.

use cama_core::bitset::BitSet;

/// A no-op observer for plain functional runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

/// A borrowed set of one shard's **local** state ids, as a
/// [`ShardCycleView`] lends it: the NFA kernels' bit set, or a DFA
/// state's precomputed id list. Either way [`iter`](LocalSet::iter)
/// yields the ids in ascending order.
#[derive(Clone, Copy, Debug)]
pub enum LocalSet<'a> {
    /// A bit set over the shard's local state space.
    Bits(&'a BitSet),
    /// Ascending, distinct local ids.
    Sorted(&'a [u32]),
}

impl<'a> LocalSet<'a> {
    /// The local ids, ascending.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        match *self {
            LocalSet::Bits(bits) => LocalIter::Bits(bits.iter()),
            LocalSet::Sorted(ids) => LocalIter::Sorted(ids.iter()),
        }
    }

    /// How many ids the set holds.
    #[inline]
    pub fn count(&self) -> usize {
        match *self {
            LocalSet::Bits(bits) => bits.count(),
            LocalSet::Sorted(ids) => ids.len(),
        }
    }
}

/// [`LocalSet::iter`]'s iterator.
enum LocalIter<'a> {
    Bits(cama_core::bitset::Iter<'a>),
    Sorted(std::slice::Iter<'a, u32>),
}

impl Iterator for LocalIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            LocalIter::Bits(bits) => bits.next(),
            LocalIter::Sorted(ids) => ids.next().map(|&id| id as usize),
        }
    }
}

/// A read-only view of one *visited shard's* cycle, valid only during
/// the [`ShardObserver::on_shard_cycle`] call.
///
/// Sets are in the shard's **local** state space; translate a local
/// index through [`global_state`](ShardCycleView::global_state) to
/// recover the global state id. Shards the engine skipped (nothing
/// enabled — the powered-down arrays) produce no view at all, which is
/// exactly what makes per-shard observation cheaper than scanning a
/// flat enable vector. A flat session's lane is shard 0, whose local ids
/// are the global ids.
#[derive(Debug)]
pub struct ShardCycleView<'a> {
    /// Zero-based cycle index.
    pub cycle: usize,
    /// The symbol consumed this cycle (the first of a strided pair).
    pub symbol: u8,
    /// Index of the shard this view describes.
    pub shard: usize,
    /// Local index → global state id; `None` when they coincide (a flat
    /// lane).
    pub(crate) globals: Option<&'a [u32]>,
    /// States in the shard's local state space.
    pub(crate) states: usize,
    /// Dynamically enabled local states (last cycle's Next Vector;
    /// excludes the statically always-enabled `all-input` start states,
    /// which the hardware models account for separately since they
    /// never toggle). A DFA-stepped shard lends the dynamic set of the
    /// state it held before this cycle's step.
    pub dynamic_enabled: LocalSet<'a>,
    /// Local states that matched *and* were enabled this cycle — the
    /// states that access the transition switches. A DFA-stepped shard
    /// lends the members of the state it landed in.
    pub active: LocalSet<'a>,
    /// Reports emitted by this shard this cycle.
    pub reports: usize,
}

impl ShardCycleView<'_> {
    /// The global state id of local state `local`.
    #[inline]
    pub fn global_state(&self, local: usize) -> usize {
        self.globals
            .map_or(local, |globals| globals[local] as usize)
    }

    /// States in the shard (its local state space).
    pub fn num_states(&self) -> usize {
        self.states
    }
}

/// A read-only view of one visited *DFA-stepped* shard's cycle, valid
/// only during the [`ShardObserver::on_dfa_shard_cycle`] call.
///
/// Hybrid plans step determinized shards through a single dense table
/// row instead of the word-sliced NFA kernel, so an energy model may
/// want to charge them differently (one row search of the transition
/// table rather than per-state CAM activity). The embedded
/// [`ShardCycleView`] is fully populated — it lends the DFA states'
/// precomputed lists, which hold exactly the ids the NFA kernel's bit
/// sets would — so observers that don't care about the execution style
/// can ignore this hook entirely: the default forwards to
/// [`on_shard_cycle`](ShardObserver::on_shard_cycle).
#[derive(Debug)]
pub struct DfaShardCycleView<'a> {
    /// The ordinary per-shard view (local bit sets, reports, …).
    pub shard_view: ShardCycleView<'a>,
    /// The DFA state the shard landed in this cycle.
    pub dfa_state: u32,
    /// Total states in the shard's DFA (table rows).
    pub dfa_states: usize,
    /// Transition-table row count per state: the plan's match rows (its
    /// byte classes for byte plans, the codebook size plus the reserved
    /// row for encoded plans).
    pub alphabet: usize,
}

/// End-of-cycle rollup across all shards, delivered once per cycle
/// after every visited shard's [`ShardCycleView`].
#[derive(Clone, Copy, Debug)]
pub struct ShardCycleSummary {
    /// Zero-based cycle index.
    pub cycle: usize,
    /// The symbol consumed this cycle.
    pub symbol: u8,
    /// Shards that executed this cycle.
    pub shards_visited: usize,
    /// Shards skipped (nothing enabled, or empty).
    pub shards_skipped: usize,
    /// Total reports emitted this cycle.
    pub reports: usize,
}

/// Receives every cycle of every session, array by array — the one
/// observer protocol, used by the energy models to charge exactly the
/// arrays that were powered.
///
/// Per cycle the session calls
/// [`on_shard_cycle`](ShardObserver::on_shard_cycle) once per *visited*
/// shard, then [`on_cycle_end`](ShardObserver::on_cycle_end) once
/// (every cycle, even when all shards were skipped, and the flush cycle
/// of a strided stream included), so per-cycle constants (leakage,
/// encoder access) accrue exactly once. Flat sessions report their one
/// lane as shard 0.
pub trait ShardObserver {
    /// Called for each visited shard after its matching and transition
    /// resolution.
    fn on_shard_cycle(&mut self, view: &ShardCycleView<'_>);

    /// Called instead of [`on_shard_cycle`](ShardObserver::on_shard_cycle)
    /// for shards stepped through their compiled DFA. Defaults to
    /// forwarding the embedded shard view, so observers unaware of the
    /// hybrid fast path see identical activity either way.
    fn on_dfa_shard_cycle(&mut self, view: &DfaShardCycleView<'_>) {
        self.on_shard_cycle(&view.shard_view);
    }

    /// Called once per cycle after all shards (and the cross-shard
    /// exchange) completed.
    fn on_cycle_end(&mut self, summary: &ShardCycleSummary);
}

impl ShardObserver for NullObserver {
    fn on_shard_cycle(&mut self, _view: &ShardCycleView<'_>) {}
    fn on_cycle_end(&mut self, _summary: &ShardCycleSummary) {}
}

/// Aggregate statistics collected by every run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ActivitySummary {
    /// Number of cycles executed.
    pub cycles: usize,
    /// Sum over cycles of active-state counts.
    pub total_active: usize,
    /// Peak active-state count in a single cycle.
    pub max_active: usize,
    /// Sum over cycles of dynamically-enabled-state counts.
    pub total_dynamic_enabled: usize,
    /// Total reports emitted.
    pub total_reports: usize,
}

impl ActivitySummary {
    /// Mean number of active states per cycle.
    pub fn avg_active(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_active as f64 / self.cycles as f64
        }
    }

    /// Mean number of dynamically enabled states per cycle.
    pub fn avg_dynamic_enabled(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_dynamic_enabled as f64 / self.cycles as f64
        }
    }

    /// Mean reports per cycle — the statistic (from Wadden et al.) that
    /// sizes the 64-entry output buffer in §VI.B.
    pub fn reports_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_reports as f64 / self.cycles as f64
        }
    }

    /// Folds one cycle into the summary.
    #[inline]
    pub fn record(&mut self, active: usize, dynamic_enabled: usize, reports: usize) {
        self.cycles += 1;
        self.total_active += active;
        self.max_active = self.max_active.max(active);
        self.total_dynamic_enabled += dynamic_enabled;
        self.total_reports += reports;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut summary = ActivitySummary::default();
        summary.record(2, 5, 1);
        summary.record(4, 1, 0);
        assert_eq!(summary.cycles, 2);
        assert_eq!(summary.total_active, 6);
        assert_eq!(summary.max_active, 4);
        assert_eq!(summary.total_dynamic_enabled, 6);
        assert_eq!(summary.total_reports, 1);
        assert!((summary.avg_active() - 3.0).abs() < 1e-12);
        assert!((summary.avg_dynamic_enabled() - 3.0).abs() < 1e-12);
        assert!((summary.reports_per_cycle() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_yields_zero_rates() {
        let summary = ActivitySummary::default();
        assert_eq!(summary.avg_active(), 0.0);
        assert_eq!(summary.reports_per_cycle(), 0.0);
    }
}
