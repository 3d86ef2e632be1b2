//! The per-cycle energy model (Figures 11b, 11c, and 12).
//!
//! §VIII.C enumerates the activity factors the model must capture: the
//! number of *enabled* partitions (state-matching accesses), the number
//! of *enabled entries* per partition (CAMA-E's selective precharge,
//! 2.67–16.78 pJ per CAM sub-array), the number of *active rows* driven
//! into each local switch, and the dynamic transitions between
//! partitions (global switch + wire energy). An [`EnergyObserver`]
//! attaches to any functional session through the one observer protocol
//! ([`ShardObserver`]) and accumulates all four, plus the input-encoder
//! access and every array's leakage.
//!
//! The enable vector splits into a static part (`all-input` start
//! states, whose match energy is a per-cycle constant computed once) and
//! the small dynamic Next Vector (walked per cycle), so observation cost
//! scales with actual activity.
//!
//! Across ruleset hot-swaps, [`SwapEpochEnergy`] keeps one labeled
//! [`EnergyBreakdown`] per plan epoch; its [`SwapEpochEnergy::total`]
//! conserves every joule and cycle of the epochs it sums.
//!
//! # Examples
//!
//! ```
//! use cama_arch::designs::DesignKind;
//! use cama_arch::energy::EnergyObserver;
//! use cama_arch::mapping::map_design;
//! use cama_core::regex;
//! use cama_mem::models::CircuitLibrary;
//! use cama_sim::Simulator;
//!
//! let nfa = regex::compile("ab+c")?;
//! let lib = CircuitLibrary::tsmc28();
//! let mapping = map_design(DesignKind::CacheAutomaton, &nfa, None);
//! let mut observer = EnergyObserver::for_nfa(DesignKind::CacheAutomaton, &mapping, &lib, &nfa);
//! Simulator::new(&nfa).run_with(b"zabbc", &mut observer);
//! let breakdown = observer.breakdown;
//! assert_eq!(breakdown.cycles, 5);
//! assert!(breakdown.total().value() > 0.0);
//! # Ok::<(), cama_core::Error>(())
//! ```

use crate::designs::DesignKind;
use crate::mapping::{Mapping, PartitionMode};
use crate::resources::inventory;
use crate::timing::timing_report;
use cama_core::{Nfa, StartKind};
use cama_mem::models::{ArrayKind, CircuitLibrary};
use cama_mem::{Delay, Energy};
use cama_sim::{DfaShardCycleView, ShardCycleSummary, ShardCycleView, ShardObserver};

/// Wire energy per global-switch hop for CA, scaled to other designs by
/// their state-match area exactly as the wire delay is (§VIII.A), and
/// charged once per cross-partition hop. A calibration constant of this
/// reproduction; see "Modelling assumptions and invariants" in
/// `docs/ARCHITECTURE.md`.
pub const CA_WIRE_ENERGY_PJ: f64 = 2.0;

/// Energy totals bucketed as Figure 12 reports them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// State-matching arrays (dynamic + leakage).
    pub state_match: Energy,
    /// Local + global switches and wires (dynamic + leakage).
    pub switch_wire: Energy,
    /// The input encoder (CAMA only).
    pub encoder: Energy,
    /// Cycles accumulated.
    pub cycles: usize,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> Energy {
        self.state_match + self.switch_wire + self.encoder
    }

    /// Mean energy per cycle.
    pub fn per_cycle(&self) -> Energy {
        if self.cycles == 0 {
            Energy::ZERO
        } else {
            self.total() / self.cycles as f64
        }
    }

    /// Mean energy per input byte for a design consuming
    /// `bytes_per_cycle`.
    pub fn per_byte(&self, design: DesignKind) -> Energy {
        self.per_cycle() / design.bytes_per_cycle()
    }

    /// Average power in watts at an operating frequency in GHz
    /// (pJ × GHz = mW).
    pub fn power_watts(&self, frequency_ghz: f64) -> f64 {
        self.per_cycle().value() * frequency_ghz / 1000.0
    }

    /// The field-wise difference `self − earlier`: what accrued between
    /// two snapshots of one accumulating observer. The tenant demux
    /// uses this to attribute each flow's slice of a shared breakdown.
    pub fn delta_since(&self, earlier: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            state_match: self.state_match - earlier.state_match,
            switch_wire: self.switch_wire - earlier.switch_wire,
            encoder: self.encoder - earlier.encoder,
            cycles: self.cycles - earlier.cycles,
        }
    }

    /// Field-wise accumulation of another breakdown into this one.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.state_match += other.state_match;
        self.switch_wire += other.switch_wire;
        self.encoder += other.encoder;
        self.cycles += other.cycles;
    }

    /// Fractions `(state match, switch+wire, encoder)` of the total.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total = self.total().value();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.state_match.value() / total,
            self.switch_wire.value() / total,
            self.encoder.value() / total,
        )
    }
}

/// Energy accounting across the epochs of a live plan-swap session.
///
/// A hot ruleset swap ([`cama_sim::BatchSimulator::swap_plan`])
/// replaces the compiled plan — and with it the [`Mapping`] the
/// [`EnergyObserver`] borrows — so one observer cannot span a swap.
/// `SwapEpochEnergy` is the across-epoch ledger: finish each epoch's
/// observer, [`record`](SwapEpochEnergy::record) its breakdown under a
/// label, and read per-epoch entries or the conserved
/// [`total`](SwapEpochEnergy::total) (field-wise
/// [`accumulate`](EnergyBreakdown::accumulate) over every epoch — the
/// invariant `tests/churn.rs` asserts across swap epochs).
///
/// # Examples
///
/// ```
/// use cama_arch::energy::SwapEpochEnergy;
/// use cama_arch::EnergyBreakdown;
///
/// let mut epochs = SwapEpochEnergy::new();
/// let mut a = EnergyBreakdown::default();
/// a.cycles = 120;
/// epochs.record("ruleset-v1", a);
/// let mut b = EnergyBreakdown::default();
/// b.cycles = 80;
/// epochs.record("ruleset-v2", b);
/// assert_eq!(epochs.len(), 2);
/// assert_eq!(epochs.total().cycles, 200);
/// assert_eq!(epochs.epochs().next().unwrap().0, "ruleset-v1");
/// ```
#[derive(Clone, Debug, Default)]
pub struct SwapEpochEnergy {
    epochs: Vec<(String, EnergyBreakdown)>,
}

impl SwapEpochEnergy {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one epoch's finished breakdown under a label (e.g. the
    /// ruleset version the epoch served).
    pub fn record(&mut self, label: impl Into<String>, breakdown: EnergyBreakdown) {
        self.epochs.push((label.into(), breakdown));
    }

    /// Epochs recorded so far.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// `true` before the first epoch is recorded.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// The per-epoch entries, in recording order.
    pub fn epochs(&self) -> impl Iterator<Item = (&str, &EnergyBreakdown)> {
        self.epochs.iter().map(|(label, b)| (label.as_str(), b))
    }

    /// The field-wise sum over every epoch: total cycles and energy of
    /// the whole session, conserved across swaps.
    pub fn total(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for (_, breakdown) in &self.epochs {
            total.accumulate(breakdown);
        }
        total
    }
}

/// A [`ShardObserver`] that accumulates an [`EnergyBreakdown`].
///
/// Every state a cycle view reports is charged to its mapped partition
/// (`mapping.partition_of`), whatever shard layout produced the view:
/// a flat session (its lane is shard 0), a sharded session whose shards
/// are the mapping's partitions (`evaluate_serving`'s layout, where
/// powered-down shards are never scanned) or any other sharding charge
/// the same activity. Skipped shards cost exactly their precomputed
/// static and leakage terms.
#[derive(Debug)]
pub struct EnergyObserver<'a> {
    design: DesignKind,
    mapping: &'a Mapping,
    /// Slots (CAM entries / rectangles / states) charged per enabled
    /// state. Defaults to the mapping's weights; the encoded-engine path
    /// supplies the entry counts of the *executed*
    /// [`CompiledEncodedAutomaton`](cama_core::compiled::CompiledEncodedAutomaton)
    /// instead, so the activity being charged and the activity being
    /// simulated come from the same CAM image.
    weight_of: Vec<u32>,

    // Per-access energies.
    match_floor: Energy,
    match_slope: Energy,
    match_full: Energy,
    /// CAM sub-arrays (or equivalent banks) accessed per active wide
    /// partition.
    wide_factor: f64,
    local_rows: usize,
    local_full: Energy,
    global_full: Energy,
    wire_per_hop: Energy,
    encoder_access: Energy,
    leak_match: Energy,
    leak_switch: Energy,
    leak_encoder: Energy,

    // Static (always-enabled) structure.
    static_entries: Vec<u32>,
    static_match_energy: Energy,
    /// Per-cycle local-switch precharge for statically enabled
    /// partitions (the 80 % periphery term is paid by every enabled
    /// partition — bit lines precharge before row activity is known).
    static_switch_energy: Energy,
    cross_source: Vec<bool>,

    // Scratch the cycle's shard views fill and `account_cycle` consumes.
    dyn_entries: Vec<u32>,
    active_entries: Vec<u32>,
    touched_dynamic: Vec<u32>,
    touched_active: Vec<u32>,
    pending_hops: usize,

    /// Accumulated result.
    pub breakdown: EnergyBreakdown,
}

impl<'a> EnergyObserver<'a> {
    /// Prepares an observer for one (design, mapping) pair:
    /// `starts_all_input` flags the statically enabled states (see
    /// [`for_nfa`](Self::for_nfa)), and `weight_of` gives the slots (CAM
    /// entries / rectangles / states) charged per enabled state — the
    /// mapping's own `weight_of`, or the entry weights of the executed
    /// encoded plan (`entry_weights()` of a flat or sharded encoded
    /// plan), so enabled-entry counts are taken from the match rows
    /// being executed, not re-derived from the encoding toolchain.
    ///
    /// # Panics
    ///
    /// Panics if `weight_of` or `starts_all_input` do not cover every
    /// mapped state.
    pub fn with_weights(
        design: DesignKind,
        mapping: &'a Mapping,
        lib: &CircuitLibrary,
        starts_all_input: &[bool],
        weight_of: Vec<u32>,
    ) -> Self {
        assert_eq!(
            starts_all_input.len(),
            mapping.partition_of.len(),
            "start flags must cover every state"
        );
        assert_eq!(
            weight_of.len(),
            mapping.partition_of.len(),
            "entry weights must cover every state"
        );
        let num_partitions = mapping.partitions.len();
        let mut static_entries = vec![0u32; num_partitions];
        for (state, &is_start) in starts_all_input.iter().enumerate() {
            if is_start {
                static_entries[mapping.partition_of[state] as usize] += weight_of[state];
            }
        }

        let (match_floor, match_slope, match_full, wide_factor) = match design {
            DesignKind::CamaE | DesignKind::CamaT => {
                let full = lib.model(ArrayKind::Cam8T, 16, 256).energy;
                let floor = lib.cam_min_energy(16, 256);
                (floor, (full - floor) / 256.0, full, 2.0)
            }
            DesignKind::Cama2E | DesignKind::Cama2T => {
                let full = lib.model(ArrayKind::Cam8T, 64, 256).energy;
                let floor = lib.cam_min_energy(64, 256);
                (floor, (full - floor) / 256.0, full, 1.0)
            }
            DesignKind::CacheAutomaton | DesignKind::Ap => {
                let full = lib.model(ArrayKind::Sram6T, 256, 256).energy;
                (full, Energy::ZERO, full, 1.0)
            }
            DesignKind::Impala2 => {
                let full = lib.model(ArrayKind::Sram6T, 16, 256).energy * 2.0;
                (full, Energy::ZERO, full, 1.0)
            }
            DesignKind::Impala4 => {
                let full = lib.model(ArrayKind::Sram6T, 16, 256).energy * 4.0;
                (full, Energy::ZERO, full, 1.0)
            }
            DesignKind::Eap => {
                let full = lib.model(ArrayKind::Sram8T, 256, 256).energy;
                (full, Energy::ZERO, full, 1.0)
            }
        };

        // Static part of the matching energy: partitions holding start
        // states are enabled every cycle.
        let selective = design.selective_precharge();
        let mut static_match_energy = Energy::ZERO;
        for (p, &entries) in static_entries.iter().enumerate() {
            if entries == 0 {
                continue;
            }
            let wide = mapping.partitions[p].mode == PartitionMode::Wide;
            let factor = if wide { wide_factor } else { 1.0 };
            let energy = if selective {
                match_floor + match_slope * f64::from(entries.min(256))
            } else {
                match_full
            };
            static_match_energy += energy * factor;
        }

        let (local_rows, local_full) = match design {
            DesignKind::CamaE | DesignKind::CamaT => {
                (128, lib.model(ArrayKind::Sram8T, 128, 128).energy)
            }
            DesignKind::Eap => (96, lib.model(ArrayKind::Sram8T, 96, 96).energy),
            _ => (256, lib.model(ArrayKind::Sram8T, 256, 256).energy),
        };
        let mut static_switch_energy = Energy::ZERO;
        for (p, &entries) in static_entries.iter().enumerate() {
            if entries > 0 {
                static_switch_energy +=
                    local_full * 0.8 * switch_factor(design, &mapping.partitions[p]);
            }
        }

        let period = Delay(1000.0 / timing_report(design, lib).operated_frequency_ghz);
        let inv = inventory(mapping, lib);
        let (leak_match, leak_switch, leak_encoder) = inv.leakage_per_cycle(period);

        let ca_area = lib.model(ArrayKind::Sram6T, 256, 256).area;
        let match_area = inv.state_match_area()
            / inv
                .state_match
                .iter()
                .map(|(_, count)| *count)
                .sum::<usize>()
                .max(1) as f64;
        let wire_per_hop = Energy(CA_WIRE_ENERGY_PJ * (match_area / ca_area));

        EnergyObserver {
            design,
            mapping,
            weight_of,
            match_floor,
            match_slope,
            match_full,
            wide_factor,
            local_rows,
            local_full,
            global_full: lib.model(ArrayKind::Sram8T, 256, 256).energy,
            wire_per_hop,
            encoder_access: if design.is_cama() {
                lib.model(ArrayKind::Sram6T, 256, 32).energy * design.bytes_per_cycle()
            } else {
                Energy::ZERO
            },
            leak_match,
            leak_switch,
            leak_encoder,
            static_entries,
            static_match_energy,
            static_switch_energy,
            cross_source: mapping.cross_sources(),
            dyn_entries: vec![0; num_partitions],
            active_entries: vec![0; num_partitions],
            touched_dynamic: Vec::new(),
            touched_active: Vec::new(),
            pending_hops: 0,
            breakdown: EnergyBreakdown::default(),
        }
    }

    /// [`with_weights`](Self::with_weights) with the start flags of an
    /// [`Nfa`] and the mapping's weights.
    pub fn for_nfa(
        design: DesignKind,
        mapping: &'a Mapping,
        lib: &CircuitLibrary,
        nfa: &Nfa,
    ) -> Self {
        Self::for_encoded(design, mapping, lib, nfa, mapping.weight_of.clone())
    }

    /// [`with_weights`](Self::with_weights) with the start flags of an
    /// [`Nfa`]: the encoded-engine path, whose slot weights come from
    /// the executed encoded plan (`entry_weights()` of the flat or
    /// sharded
    /// [`CompiledEncodedAutomaton`](cama_core::compiled::CompiledEncodedAutomaton)).
    ///
    /// # Panics
    ///
    /// Panics if `entry_weights` does not cover every mapped state.
    pub fn for_encoded(
        design: DesignKind,
        mapping: &'a Mapping,
        lib: &CircuitLibrary,
        nfa: &Nfa,
        entry_weights: Vec<u32>,
    ) -> Self {
        let starts = all_input(nfa.stes().iter().map(|s| s.start));
        Self::with_weights(design, mapping, lib, &starts, entry_weights)
    }

    fn partition_is_wide(&self, p: usize) -> bool {
        self.mapping.partitions[p].mode == PartitionMode::Wide
    }

    /// Folds one dynamically enabled state into the cycle scratch.
    #[inline]
    fn add_dynamic(&mut self, state: usize) {
        let partition = self.mapping.partition_of[state] as usize;
        if self.dyn_entries[partition] == 0 {
            self.touched_dynamic.push(partition as u32);
        }
        self.dyn_entries[partition] += self.weight_of[state];
    }

    /// Folds one active state into the cycle scratch.
    #[inline]
    fn add_active(&mut self, state: usize) {
        let partition = self.mapping.partition_of[state] as usize;
        if self.active_entries[partition] == 0 {
            self.touched_active.push(partition as u32);
        }
        self.active_entries[partition] += self.weight_of[state];
        if self.cross_source[state] {
            self.pending_hops += 1;
        }
    }

    /// Converts the cycle scratch the visited shards filled into energy
    /// and clears it.
    fn account_cycle(&mut self) {
        let selective = self.design.selective_precharge();
        let mut match_energy = self.static_match_energy;
        let mut switch_energy = self.static_switch_energy;

        // Dynamic enable contributions to state matching.
        for &p in &self.touched_dynamic {
            let p = p as usize;
            let entries = self.dyn_entries[p];
            let factor = if self.partition_is_wide(p) {
                self.wide_factor
            } else {
                1.0
            };
            if selective {
                // Static partitions already paid floor + static·slope;
                // only the extra enabled entries add energy there.
                if self.static_entries[p] > 0 {
                    match_energy += self.match_slope * f64::from(entries) * factor;
                } else {
                    match_energy += (self.match_floor
                        + self.match_slope * f64::from(entries.min(256)))
                        * factor;
                }
            } else if self.static_entries[p] == 0 {
                // Full-array designs: a newly enabled partition costs one
                // full access (static ones were already counted).
                match_energy += self.match_full * factor;
            }
            // The partition's local switch precharges whenever the
            // partition is processing (static ones precomputed above).
            if self.static_entries[p] == 0 {
                switch_energy +=
                    self.local_full * 0.8 * switch_factor(self.design, &self.mapping.partitions[p]);
            }
            self.dyn_entries[p] = 0;
        }
        self.touched_dynamic.clear();

        // Local switches: active states additionally drive word lines
        // (the 20 % cell term of §VIII.C scales with active rows).
        for &p in &self.touched_active {
            let p = p as usize;
            let rows = self.active_entries[p] as usize;
            let fraction = 0.2 * (rows.min(self.local_rows) as f64 / self.local_rows as f64);
            switch_energy += self.local_full
                * fraction
                * switch_factor(self.design, &self.mapping.partitions[p]);
            self.active_entries[p] = 0;
        }
        self.touched_active.clear();

        // Global switches and wires.
        let global_hops = self.pending_hops;
        self.pending_hops = 0;
        if global_hops > 0 {
            let accesses = global_hops.div_ceil(256);
            let fraction = 0.8 + 0.2 * (global_hops.min(256) as f64 / 256.0);
            switch_energy += self.global_full * fraction * accesses as f64;
            switch_energy += self.wire_per_hop * global_hops as f64;
        }

        self.breakdown.state_match += match_energy + self.leak_match;
        self.breakdown.switch_wire += switch_energy + self.leak_switch;
        self.breakdown.encoder += self.encoder_access + self.leak_encoder;
        self.breakdown.cycles += 1;
    }
}

/// Execution-style-aware per-shard energy accounting for hybrid
/// DFA/NFA plans
/// ([`compile_hybrid_ruleset`](cama_core::compile::compile_hybrid_ruleset)).
///
/// The partition-level [`EnergyObserver`] is execution-style agnostic:
/// a DFA shard-cycle's view lends the same activity ids the NFA
/// kernel's bit sets would hold, so it charges hybrid runs identically
/// to pure-NFA runs.
/// `HybridShardEnergy` instead charges what the engine *did* per
/// visited shard-cycle:
///
/// * an **NFA shard-cycle** sweeps the shard's 64-state match words —
///   charged `word_energy × ⌈states/64⌉`;
/// * a **DFA shard-cycle** is charged as **one row search of its
///   transition table**, regardless of how many states the landed DFA
///   state represents. This is a modeling choice: the dense table read
///   replaces the CAM sweep entirely, mirroring the 1-word
///   `words_visited` charge the engine's own counters use.
///
/// Charges accrue in both a running [`total`](HybridShardEnergy::total)
/// and a [`per_shard`](HybridShardEnergy::per_shard) ledger at every
/// hook call, so conservation — `total == Σ per-shard charges` — holds
/// by construction and is asserted (within 1e-9) in this module's
/// tests.
#[derive(Clone, Debug)]
pub struct HybridShardEnergy {
    /// Energy charged per 64-state match word an NFA shard-cycle
    /// sweeps.
    word_energy: Energy,
    /// Energy charged per DFA shard-cycle (one transition-table row
    /// search).
    row_energy: Energy,
    per_shard: Vec<Energy>,
    total: Energy,
    /// Visited shard-cycles stepped through a DFA table.
    pub dfa_shard_cycles: u64,
    /// Visited shard-cycles stepped through the NFA kernel.
    pub nfa_shard_cycles: u64,
    /// Cycles observed.
    pub cycles: usize,
}

impl HybridShardEnergy {
    /// An observer with explicit per-access energies.
    pub fn new(word_energy: Energy, row_energy: Energy) -> Self {
        HybridShardEnergy {
            word_energy,
            row_energy,
            per_shard: Vec::new(),
            total: Energy::ZERO,
            dfa_shard_cycles: 0,
            nfa_shard_cycles: 0,
            cycles: 0,
        }
    }

    /// Per-access energies derived from a [`CircuitLibrary`]: a
    /// 64-state word costs a quarter of a 256-entry CAM sub-array
    /// search; a DFA table row costs one narrow SRAM row read (the same
    /// array shape as the input-encoder lookup).
    pub fn with_library(lib: &CircuitLibrary) -> Self {
        Self::new(
            lib.model(ArrayKind::Cam8T, 16, 256).energy / 4.0,
            lib.model(ArrayKind::Sram6T, 256, 32).energy,
        )
    }

    fn charge(&mut self, shard: usize, energy: Energy) {
        if self.per_shard.len() <= shard {
            self.per_shard.resize(shard + 1, Energy::ZERO);
        }
        self.per_shard[shard] += energy;
        self.total += energy;
    }

    /// The per-shard charge ledger (indexed by shard).
    pub fn per_shard(&self) -> &[Energy] {
        &self.per_shard
    }

    /// The running total, accumulated charge by charge alongside the
    /// per-shard ledger.
    pub fn total(&self) -> Energy {
        self.total
    }
}

impl ShardObserver for HybridShardEnergy {
    fn on_shard_cycle(&mut self, view: &ShardCycleView<'_>) {
        let words = view.num_states().div_ceil(64);
        self.charge(view.shard, self.word_energy * words as f64);
        self.nfa_shard_cycles += 1;
    }

    fn on_dfa_shard_cycle(&mut self, view: &DfaShardCycleView<'_>) {
        self.charge(view.shard_view.shard, self.row_energy);
        self.dfa_shard_cycles += 1;
    }

    fn on_cycle_end(&mut self, _summary: &ShardCycleSummary) {
        self.cycles += 1;
    }
}

/// Physical local switches accessed per partition: CAMA's FCB/Wide tiles
/// drive both 128×128 arrays; everything else has one switch per
/// partition.
fn switch_factor(design: DesignKind, partition: &crate::mapping::Partition) -> f64 {
    match (design, partition.mode) {
        (DesignKind::CamaE | DesignKind::CamaT, PartitionMode::Fcb | PartitionMode::Wide) => 2.0,
        _ => 1.0,
    }
}

/// Flags the statically enabled (`all-input`) states among `starts`.
pub(crate) fn all_input(starts: impl Iterator<Item = StartKind>) -> Vec<bool> {
    starts.map(|start| start == StartKind::AllInput).collect()
}

impl ShardObserver for EnergyObserver<'_> {
    fn on_shard_cycle(&mut self, view: &ShardCycleView<'_>) {
        for local in view.dynamic_enabled.iter() {
            self.add_dynamic(view.global_state(local));
        }
        for local in view.active.iter() {
            self.add_active(view.global_state(local));
        }
    }

    fn on_cycle_end(&mut self, _summary: &ShardCycleSummary) {
        self.account_cycle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::map_design;
    use cama_core::regex;
    use cama_encoding::EncodingPlan;
    use cama_sim::Simulator;
    use cama_workloads::Benchmark;

    fn measure(design: DesignKind, nfa: &Nfa, input: &[u8]) -> EnergyBreakdown {
        let lib = CircuitLibrary::tsmc28();
        let plan = design.is_cama().then(|| EncodingPlan::for_nfa(nfa));
        let mapping = map_design(design, nfa, plan.as_ref());
        let mut observer = EnergyObserver::for_nfa(design, &mapping, &lib, nfa);
        Simulator::new(nfa).run_with(input, &mut observer);
        observer.breakdown
    }

    /// The per-shard observation path must charge exactly what the flat
    /// path charges: same cycles, same breakdown (up to floating-point
    /// summation order) — idle-shard skipping may change *when* terms
    /// are accumulated, never *what* is accumulated.
    #[test]
    fn shard_observer_matches_flat_observer() {
        use cama_core::compiled::ShardedAutomaton;
        use cama_sim::{Session, ShardedSession};
        let nfa = Benchmark::Snort.generate(0.02);
        let input = Benchmark::Snort.input(&nfa, 1024, 5);
        let lib = CircuitLibrary::tsmc28();
        for design in [
            DesignKind::CamaE,
            DesignKind::CamaT,
            DesignKind::CacheAutomaton,
            DesignKind::Eap,
        ] {
            let plan = design.is_cama().then(|| EncodingPlan::for_nfa(&nfa));
            let mapping = map_design(design, &nfa, plan.as_ref());

            let mut flat = EnergyObserver::for_nfa(design, &mapping, &lib, &nfa);
            let flat_result = Simulator::new(&nfa).run_with(&input, &mut flat);

            let sharded = ShardedAutomaton::compile_with_assignment(&nfa, &mapping.partition_of);
            let mut shard = EnergyObserver::for_nfa(design, &mapping, &lib, &nfa);
            let mut session = ShardedSession::new(&sharded);
            session.feed_sharded_with(&input, &mut shard);
            let shard_result = session.finish();

            assert_eq!(flat_result, shard_result, "{design}");
            assert_eq!(flat.breakdown.cycles, shard.breakdown.cycles, "{design}");
            let close = |a: Energy, b: Energy| {
                (a.value() - b.value()).abs() <= 1e-9 * a.value().abs().max(1.0)
            };
            assert!(
                close(flat.breakdown.state_match, shard.breakdown.state_match),
                "{design}: {:?} vs {:?}",
                flat.breakdown,
                shard.breakdown
            );
            assert!(
                close(flat.breakdown.switch_wire, shard.breakdown.switch_wire),
                "{design}: {:?} vs {:?}",
                flat.breakdown,
                shard.breakdown
            );
            assert_eq!(flat.breakdown.encoder, shard.breakdown.encoder, "{design}");
        }
    }

    /// The flat encoded engine (codebook lookup + encoded match rows,
    /// entry weights read off the compiled encoded plan) must charge
    /// exactly what the byte engine charges: same activity, same
    /// breakdown.
    #[test]
    fn encoded_engine_observer_matches_byte_engine_observer() {
        use cama_sim::{EncodedSession, Session};
        let nfa = Benchmark::Snort.generate(0.02);
        let input = Benchmark::Snort.input(&nfa, 1024, 9);
        let lib = CircuitLibrary::tsmc28();
        for design in [DesignKind::CamaE, DesignKind::CamaT] {
            let plan = EncodingPlan::for_nfa(&nfa);
            let mapping = map_design(design, &nfa, Some(&plan));

            let mut byte = EnergyObserver::for_nfa(design, &mapping, &lib, &nfa);
            let byte_result = Simulator::new(&nfa).run_with(&input, &mut byte);

            let compiled = plan.compile(&nfa);
            // The executed image's entry weights equal the mapping's
            // (both come from the same CAM image — one directly, one
            // through the toolchain).
            assert_eq!(compiled.entry_weights(), mapping.weight_of, "{design}");
            let mut encoded =
                EnergyObserver::for_encoded(design, &mapping, &lib, &nfa, compiled.entry_weights());
            let mut session = EncodedSession::new(&compiled);
            session.feed_with(&input, &mut encoded);
            let encoded_result = session.finish_with(&mut encoded);

            assert_eq!(byte_result, encoded_result, "{design}");
            assert_eq!(byte.breakdown, encoded.breakdown, "{design}");
        }
    }

    #[test]
    fn cama_e_beats_cama_t_and_ca() {
        let nfa = Benchmark::Snort.generate(0.02);
        let input = Benchmark::Snort.input(&nfa, 2048, 1);
        let e = measure(DesignKind::CamaE, &nfa, &input);
        let t = measure(DesignKind::CamaT, &nfa, &input);
        let ca = measure(DesignKind::CacheAutomaton, &nfa, &input);
        let impala = measure(DesignKind::Impala2, &nfa, &input);
        assert!(e.total().value() < t.total().value(), "E {e:?} vs T {t:?}");
        assert!(e.total().value() < ca.total().value());
        assert!(e.total().value() < impala.total().value());
        // Impala's doubled periphery costs more than CA's single bank.
        assert!(impala.total().value() > ca.total().value());
    }

    #[test]
    fn breakdown_sums_and_fractions() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        let b = measure(DesignKind::CamaE, &nfa, b"beecddbeecdd");
        let (m, s, e) = b.fractions();
        assert!((m + s + e - 1.0).abs() < 1e-9);
        assert!(b.encoder.value() > 0.0);
        assert_eq!(b.cycles, 12);
        assert!(b.per_cycle().value() > 0.0);
    }

    #[test]
    fn encoder_is_a_tiny_fraction() {
        // The single shared encoder amortizes over the deployment; at
        // the paper's full scale it is ~0.1 % of total energy, and the
        // fraction shrinks monotonically with benchmark size.
        let nfa = Benchmark::Brill.generate(0.2);
        let input = Benchmark::Brill.input(&nfa, 1024, 2);
        let b = measure(DesignKind::CamaE, &nfa, &input);
        let (_, _, encoder_fraction) = b.fractions();
        assert!(
            encoder_fraction < 0.03,
            "encoder fraction {encoder_fraction}"
        );
        let small_nfa = Benchmark::Brill.generate(0.02);
        let small_input = Benchmark::Brill.input(&small_nfa, 1024, 2);
        let small = measure(DesignKind::CamaE, &small_nfa, &small_input);
        assert!(small.fractions().2 > encoder_fraction);
    }

    #[test]
    fn power_scales_with_frequency() {
        let b = EnergyBreakdown {
            state_match: Energy(500.0),
            switch_wire: Energy(500.0),
            encoder: Energy(0.0),
            cycles: 1,
        };
        // 1000 pJ/cycle at 2 GHz = 2 W.
        assert!((b.power_watts(2.0) - 2.0).abs() < 1e-12);
        assert_eq!(b.per_byte(DesignKind::Impala4).value(), 500.0);
        assert_eq!(b.per_byte(DesignKind::CamaE).value(), 1000.0);
    }

    #[test]
    fn more_activity_costs_more_energy() {
        let nfa = Benchmark::Tcp.generate(0.05);
        let quiet = cama_workloads::input::generate(&nfa, 2048, 0.01, 3);
        let busy = cama_workloads::input::generate(&nfa, 2048, 0.8, 3);
        let quiet_e = measure(DesignKind::CamaE, &nfa, &quiet);
        let busy_e = measure(DesignKind::CamaE, &nfa, &busy);
        assert!(busy_e.total().value() > quiet_e.total().value());
    }

    #[test]
    fn empty_run_reports_zero() {
        let nfa = regex::compile("ab").unwrap();
        let b = measure(DesignKind::CamaE, &nfa, b"");
        assert_eq!(b.cycles, 0);
        assert_eq!(b.per_cycle(), Energy::ZERO);
        assert_eq!(b.fractions(), (0.0, 0.0, 0.0));
    }

    /// The hybrid DFA fast path must be invisible to energy accounting:
    /// per-shard charges conserve into the total within 1e-9, reports
    /// stay bit-identical to the pure-NFA plan, and the hybrid run
    /// charges no more than the pure-NFA run (a DFA row search replaces
    /// a word sweep).
    #[test]
    fn hybrid_shard_energy_conserves_and_wins() {
        use cama_core::compile::PlanCache;
        use cama_core::compile::{compile_hybrid_ruleset, compile_ruleset, dfa_enabled, DfaPolicy};
        use cama_sim::{Session, ShardedSession};

        let nfa = regex::compile_set(&["ab+c", "mn+p", "uv+w"]).unwrap();
        let input: Vec<u8> = b"zabbcabcz".repeat(64);
        let lib = CircuitLibrary::tsmc28();

        let mut cache = PlanCache::new(16);
        let (nfa_plan, _) = compile_ruleset(&nfa, 8, &mut cache);
        let (hybrid, _) = compile_hybrid_ruleset(&nfa, 8, &mut cache, &DfaPolicy::default());

        let mut nfa_energy = HybridShardEnergy::with_library(&lib);
        let mut session = ShardedSession::new(&nfa_plan);
        session.feed_sharded_with(&input, &mut nfa_energy);
        let nfa_result = session.finish();

        let mut hybrid_energy = HybridShardEnergy::with_library(&lib);
        let mut session = ShardedSession::new(&hybrid);
        session.feed_sharded_with(&input, &mut hybrid_energy);
        let hybrid_result = session.finish();

        assert_eq!(nfa_result, hybrid_result, "hybrid must be bit-identical");
        for energy in [&nfa_energy, &hybrid_energy] {
            let per_shard: f64 = energy.per_shard().iter().map(|e| e.value()).sum();
            let total = energy.total().value();
            assert!(
                (total - per_shard).abs() <= 1e-9 * total.abs().max(1.0),
                "total {total} != per-shard sum {per_shard}"
            );
        }
        if dfa_enabled() {
            assert!(hybrid.num_dfa_shards() > 0, "no shard determinized");
            assert!(hybrid_energy.dfa_shard_cycles > 0, "no DFA shard-cycles");
            assert!(
                hybrid_energy.total().value() <= nfa_energy.total().value(),
                "hybrid {:?} charged more than NFA {:?}",
                hybrid_energy.total(),
                nfa_energy.total()
            );
        }
    }

    /// The partition-level [`EnergyObserver`] must charge a hybrid run
    /// exactly like the pure-NFA run — the DFA kernel writes through
    /// the same activity bits, so the default hook forwarding makes the
    /// fast path invisible to the Figure-12 breakdowns.
    #[test]
    fn partition_observer_is_execution_style_agnostic() {
        use cama_core::compile::{compile_hybrid_ruleset, compile_ruleset, DfaPolicy, PlanCache};
        use cama_sim::{Session, ShardedSession};

        let nfa = regex::compile_set(&["ab+c", "mn+p"]).unwrap();
        let input: Vec<u8> = b"zabbcabcmnpz".repeat(32);
        let lib = CircuitLibrary::tsmc28();
        let design = DesignKind::CamaE;
        let plan = EncodingPlan::for_nfa(&nfa);
        let mapping = map_design(design, &nfa, Some(&plan));

        let mut cache = PlanCache::new(16);
        let (nfa_plan, _) = compile_ruleset(&nfa, 8, &mut cache);
        let (hybrid, _) = compile_hybrid_ruleset(&nfa, 8, &mut cache, &DfaPolicy::default());

        // These shards are not the mapping's partitions: the observer
        // charges each state to its mapped partition (DFA shards through
        // the defaulted forwarding hook), so it never needs the
        // shard ↔ partition correspondence.
        let measure = |sharded| {
            let mut observer = EnergyObserver::for_nfa(design, &mapping, &lib, &nfa);
            let mut session = ShardedSession::new(sharded);
            session.feed_with(&input, &mut observer);
            (session.finish(), observer.breakdown)
        };
        let (nfa_result, nfa_breakdown) = measure(&nfa_plan);
        let (hybrid_result, hybrid_breakdown) = measure(&hybrid);
        assert_eq!(nfa_result, hybrid_result);
        assert_eq!(nfa_breakdown, hybrid_breakdown);
    }

    #[test]
    fn swap_epoch_ledger_conserves_totals() {
        // Two swap epochs on different ruleset versions (each with its
        // own mapping and observer): the ledger's total must be the
        // field-wise sum of what each epoch's observer accumulated.
        let v1 = regex::compile("ab+c").unwrap();
        let v2 = regex::compile_set(&["ab+c", "xy"]).unwrap();
        let e1 = measure(DesignKind::CamaE, &v1, b"zabbbcz");
        let e2 = measure(DesignKind::CamaE, &v2, b"xyabcz");
        let mut epochs = SwapEpochEnergy::new();
        assert!(epochs.is_empty());
        epochs.record("v1", e1);
        epochs.record("v2", e2);
        assert_eq!(epochs.len(), 2);
        let total = epochs.total();
        assert_eq!(total.cycles, e1.cycles + e2.cycles);
        let sum: f64 = epochs.epochs().map(|(_, b)| b.total().value()).sum();
        assert!((total.total().value() - sum).abs() < 1e-9);
        let labels: Vec<&str> = epochs.epochs().map(|(label, _)| label).collect();
        assert_eq!(labels, ["v1", "v2"]);
    }
}
