//! A functional model of mapped CAMA hardware, used to validate the
//! mapping toolchain end to end (see "Modelling assumptions and
//! invariants" in `docs/ARCHITECTURE.md`).
//!
//! The model executes the mapped automaton the way the silicon would:
//! per-partition enable vectors at CAM-column granularity, state matching
//! through the (exactness-verified) encoded entries, transition routing
//! through real [`LocalSwitch`] instances programmed from the partition's
//! local edges (RCB partitions attempt the reduced crossbar first), and
//! cross-partition activations through the global-switch edge list. Its
//! report stream must equal the plain simulator's on every input.

use crate::mapping::{Mapping, PartitionMode};
use cama_core::bitset::BitSet;
use cama_core::{Nfa, StartKind, SteId};
use cama_encoding::EncodingPlan;
use cama_mem::crossbar::{FullCrossbar, LocalSwitch};
use cama_mem::K_DIA;
use cama_sim::Report;

struct HwPartition {
    switch: LocalSwitch,
    /// Global state ids placed here, in slot order.
    states: Vec<u32>,
    /// `(first_slot, width)` per placed state, parallel to `states`.
    slots: Vec<(usize, usize)>,
    /// Currently enabled columns (dynamic part).
    enabled: BitSet,
    /// Scratch for the next enable vector.
    next: BitSet,
    /// Columns of `all-input` start states (always enabled).
    static_cols: BitSet,
    /// Columns of `start-of-data` states (enabled at cycle 0).
    sod_cols: BitSet,
}

/// Functional mapped-CAMA execution.
pub struct CamaHardware<'a> {
    nfa: &'a Nfa,
    plan: &'a EncodingPlan,
    partitions: Vec<HwPartition>,
    /// Cross-partition activations `(from state, to state)`.
    cross: Vec<(u32, u32)>,
    /// Per state: partition and index within it.
    locus: Vec<(u32, u32)>,
}

impl<'a> CamaHardware<'a> {
    /// Builds the hardware image from a mapping.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is unsound: an RCB partition whose edges do
    /// not fit the band, a capacity overflow, or an unplaced state.
    pub fn build(nfa: &'a Nfa, plan: &'a EncodingPlan, mapping: &'a Mapping) -> Self {
        let mut locus = vec![(u32::MAX, u32::MAX); nfa.len()];
        let mut partitions: Vec<HwPartition> = Vec::with_capacity(mapping.partitions.len());

        for (pi, partition) in mapping.partitions.iter().enumerate() {
            let capacity = partition.capacity;
            assert!(partition.used <= capacity, "partition overflows capacity");
            let mut slots = Vec::with_capacity(partition.states.len());
            let mut cursor = 0usize;
            for (si, &state) in partition.states.iter().enumerate() {
                let width = mapping.weight_of[state as usize] as usize;
                slots.push((cursor, width));
                cursor += width;
                locus[state as usize] = (pi as u32, si as u32);
            }
            // Recover any alignment gaps the packer introduced: positions
            // are re-derived densely, then shifted to group boundaries on
            // demand below.
            let mut partition_edges: Vec<(usize, usize)> = Vec::new();
            for (si, &state) in partition.states.iter().enumerate() {
                for &succ in nfa.successors(SteId(state)) {
                    let (pj, sj) = locus_of(&locus, succ.0);
                    if pj == pi as u32 && sj != u32::MAX {
                        let (from_base, from_w) = slots[si];
                        let (to_base, to_w) = slots[sj as usize];
                        for f in from_base..from_base + from_w {
                            for t in to_base..to_base + to_w {
                                partition_edges.push((f, t));
                            }
                        }
                    }
                }
            }

            let switch = match partition.mode {
                PartitionMode::Rcb | PartitionMode::BankReduced => {
                    // Dense re-derivation may differ from the packer's
                    // aligned offsets; fall back to aligned placement via
                    // program_best, but a chain/ring that fit at mapping
                    // time must still fit as placed by the packer.
                    LocalSwitch::program_best(capacity, K_DIA, &partition_edges)
                }
                _ => {
                    let mut full = FullCrossbar::new(capacity);
                    for &(f, t) in &partition_edges {
                        full.connect(f, t);
                    }
                    LocalSwitch::Full(full)
                }
            };

            let mut static_cols = BitSet::new(capacity);
            let mut sod_cols = BitSet::new(capacity);
            for (si, &state) in partition.states.iter().enumerate() {
                let (base, width) = slots[si];
                match nfa.ste(SteId(state)).start {
                    StartKind::AllInput => (base..base + width).for_each(|c| static_cols.insert(c)),
                    StartKind::StartOfData => (base..base + width).for_each(|c| sod_cols.insert(c)),
                    StartKind::None => {}
                }
            }

            partitions.push(HwPartition {
                switch,
                states: partition.states.clone(),
                slots,
                enabled: BitSet::new(capacity),
                next: BitSet::new(capacity),
                static_cols,
                sod_cols,
            });
        }

        assert!(
            locus.iter().all(|&(p, _)| p != u32::MAX),
            "every state must be placed"
        );

        CamaHardware {
            nfa,
            plan,
            partitions,
            cross: mapping.cross_edges.clone(),
            locus,
        }
    }

    /// Runs the hardware image over `input` and returns the reports.
    pub fn run(&mut self, input: &[u8]) -> Vec<Report> {
        for p in &mut self.partitions {
            p.enabled.clear();
        }
        let mut reports = Vec::new();
        let mut active_states: Vec<u32> = Vec::new();

        for (cycle, &symbol) in input.iter().enumerate() {
            let code = self.plan.encode_input(symbol);
            active_states.clear();

            // State matching per partition.
            for p in &mut self.partitions {
                for (si, &state) in p.states.iter().enumerate() {
                    let (base, width) = p.slots[si];
                    let enabled = (base..base + width).any(|c| {
                        p.enabled.contains(c)
                            || p.static_cols.contains(c)
                            || (cycle == 0 && p.sod_cols.contains(c))
                    });
                    if !enabled {
                        continue;
                    }
                    if self.plan.state(SteId(state)).matches(code) {
                        active_states.push(state);
                    }
                }
            }

            // Reports.
            for &state in &active_states {
                if let Some(report_code) = self.nfa.ste(SteId(state)).report {
                    reports.push(Report {
                        ste: SteId(state),
                        code: report_code,
                        offset: cycle,
                    });
                }
            }

            // Transition: local switches route column activity.
            for p in &mut self.partitions {
                p.next.clear();
            }
            for pi in 0..self.partitions.len() {
                let mut rows = BitSet::new(self.partitions[pi].enabled.len());
                let mut any = false;
                for &state in &active_states {
                    let (p, si) = self.locus[state as usize];
                    if p as usize != pi {
                        continue;
                    }
                    let (base, width) = self.partitions[pi].slots[si as usize];
                    (base..base + width).for_each(|c| rows.insert(c));
                    any = true;
                }
                if any {
                    let routed = self.partitions[pi].switch.route(&rows);
                    self.partitions[pi].next.union_with(&routed);
                }
            }
            // Global switch: cross-partition activations.
            for &(from, to) in &self.cross {
                if active_states.contains(&from) {
                    let (pj, sj) = self.locus[to as usize];
                    let p = &mut self.partitions[pj as usize];
                    let (base, width) = p.slots[sj as usize];
                    (base..base + width).for_each(|c| p.next.insert(c));
                }
            }
            for p in &mut self.partitions {
                std::mem::swap(&mut p.enabled, &mut p.next);
            }
        }
        reports.sort_by_key(|r| (r.offset, r.ste));
        reports
    }
}

fn locus_of(locus: &[(u32, u32)], state: u32) -> (u32, u32) {
    locus[state as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::DesignKind;
    use crate::mapping::map_design;
    use cama_core::regex;
    use cama_sim::Simulator;
    use cama_workloads::Benchmark;

    fn check_equivalence(nfa: &Nfa, input: &[u8]) {
        let plan = EncodingPlan::for_nfa(nfa);
        plan.verify_exact(nfa).expect("plan is exact");
        let mapping = map_design(DesignKind::CamaE, nfa, Some(&plan));
        let mut hardware = CamaHardware::build(nfa, &plan, &mapping);
        let hw_reports = hardware.run(input);
        let mut sim_reports = Simulator::new(nfa).run(input).reports;
        sim_reports.sort_by_key(|r| (r.offset, r.ste));
        assert_eq!(hw_reports, sim_reports);
    }

    #[test]
    fn paper_example_matches_simulator() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        check_equivalence(&nfa, b"beecddxxacd");
    }

    #[test]
    fn multi_partition_chain_routes_globally() {
        use cama_core::{NfaBuilder, StartKind, SymbolClass};
        let mut b = NfaBuilder::new();
        let ids: Vec<_> = (0..600)
            .map(|i| b.add_ste(SymbolClass::singleton((i % 7) as u8 + b'a')))
            .collect();
        b.set_start(ids[0], StartKind::AllInput);
        b.set_report(ids[599], 1);
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let nfa = b.build().unwrap();
        // An input that walks the whole chain end to end.
        let input: Vec<u8> = (0..600).map(|i| (i % 7) as u8 + b'a').collect();
        let plan = EncodingPlan::for_nfa(&nfa);
        let mapping = map_design(DesignKind::CamaE, &nfa, Some(&plan));
        assert!(mapping.partitions.len() > 1);
        let mut hardware = CamaHardware::build(&nfa, &plan, &mapping);
        let reports = hardware.run(&input);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].offset, 599);
        check_equivalence(&nfa, &input);
    }

    #[test]
    fn benchmark_workloads_match_simulator() {
        for bench in [
            Benchmark::Brill,
            Benchmark::Tcp,
            Benchmark::BlockRings,
            Benchmark::EntityResolution,
            Benchmark::RandomForest,
        ] {
            let nfa = bench.generate(0.005);
            let input = bench.input(&nfa, 384, 5);
            check_equivalence(&nfa, &input);
        }
    }

    #[test]
    fn negated_classes_survive_the_hardware_path() {
        let nfa = regex::compile("a[^b]c").unwrap();
        check_equivalence(&nfa, b"aacaxcabc");
    }
}

/// Functional mapped execution for the bit-vector designs (CA, eAP): a
/// one-hot match per bank plus the same switch/global routing as the
/// CAMA model. Validates their mappings the same way [`CamaHardware`]
/// validates CAMA's.
pub struct BankHardware<'a> {
    nfa: &'a Nfa,
    partitions: Vec<HwPartition>,
    cross: Vec<(u32, u32)>,
    locus: Vec<(u32, u32)>,
}

impl<'a> BankHardware<'a> {
    /// Builds the bank image from a bit-vector mapping (unit weights).
    ///
    /// # Panics
    ///
    /// Panics if the mapping uses non-unit weights (CAMA/Impala) or is
    /// unsound (capacity overflow, unplaced state).
    pub fn build(nfa: &'a Nfa, mapping: &'a Mapping) -> Self {
        assert!(
            mapping.weight_of.iter().all(|&w| w == 1),
            "bank hardware requires unit weights"
        );
        let mut locus = vec![(u32::MAX, u32::MAX); nfa.len()];
        let mut partitions = Vec::with_capacity(mapping.partitions.len());
        for (pi, partition) in mapping.partitions.iter().enumerate() {
            let capacity = partition.capacity;
            assert!(partition.used <= capacity, "partition overflows capacity");
            let slots: Vec<(usize, usize)> = (0..partition.states.len()).map(|i| (i, 1)).collect();
            for (si, &state) in partition.states.iter().enumerate() {
                locus[state as usize] = (pi as u32, si as u32);
            }
            let mut edges = Vec::new();
            for (si, &state) in partition.states.iter().enumerate() {
                for &succ in nfa.successors(SteId(state)) {
                    let (pj, sj) = locus_of(&locus, succ.0);
                    if pj == pi as u32 && sj != u32::MAX {
                        edges.push((si, sj as usize));
                    }
                }
            }
            let switch = match partition.mode {
                PartitionMode::BankReduced => {
                    LocalSwitch::program_best(capacity, crate::mapping::EAP_K_DIA, &edges)
                }
                _ => {
                    let mut full = FullCrossbar::new(capacity);
                    for &(f, t) in &edges {
                        full.connect(f, t);
                    }
                    LocalSwitch::Full(full)
                }
            };
            let mut static_cols = BitSet::new(capacity);
            let mut sod_cols = BitSet::new(capacity);
            for (si, &state) in partition.states.iter().enumerate() {
                match nfa.ste(SteId(state)).start {
                    StartKind::AllInput => static_cols.insert(si),
                    StartKind::StartOfData => sod_cols.insert(si),
                    StartKind::None => {}
                }
            }
            partitions.push(HwPartition {
                switch,
                states: partition.states.clone(),
                slots,
                enabled: BitSet::new(capacity),
                next: BitSet::new(capacity),
                static_cols,
                sod_cols,
            });
        }
        assert!(
            locus.iter().all(|&(p, _)| p != u32::MAX),
            "every state must be placed"
        );
        BankHardware {
            nfa,
            partitions,
            cross: mapping.cross_edges.clone(),
            locus,
        }
    }

    /// Runs the bank image over `input` and returns the reports.
    pub fn run(&mut self, input: &[u8]) -> Vec<Report> {
        for p in &mut self.partitions {
            p.enabled.clear();
        }
        let mut reports = Vec::new();
        let mut active_states: Vec<u32> = Vec::new();
        for (cycle, &symbol) in input.iter().enumerate() {
            active_states.clear();
            // Bit-vector state matching: the one-hot row read.
            for p in &mut self.partitions {
                for (si, &state) in p.states.iter().enumerate() {
                    let enabled = p.enabled.contains(si)
                        || p.static_cols.contains(si)
                        || (cycle == 0 && p.sod_cols.contains(si));
                    if enabled && self.nfa.ste(SteId(state)).class.contains(symbol) {
                        active_states.push(state);
                    }
                }
            }
            for &state in &active_states {
                if let Some(code) = self.nfa.ste(SteId(state)).report {
                    reports.push(Report {
                        ste: SteId(state),
                        code,
                        offset: cycle,
                    });
                }
            }
            for p in &mut self.partitions {
                p.next.clear();
            }
            for pi in 0..self.partitions.len() {
                let mut rows = BitSet::new(self.partitions[pi].enabled.len());
                let mut any = false;
                for &state in &active_states {
                    let (p, si) = self.locus[state as usize];
                    if p as usize == pi {
                        rows.insert(si as usize);
                        any = true;
                    }
                }
                if any {
                    let routed = self.partitions[pi].switch.route(&rows);
                    self.partitions[pi].next.union_with(&routed);
                }
            }
            for &(from, to) in &self.cross {
                if active_states.contains(&from) {
                    let (pj, sj) = self.locus[to as usize];
                    self.partitions[pj as usize].next.insert(sj as usize);
                }
            }
            for p in &mut self.partitions {
                std::mem::swap(&mut p.enabled, &mut p.next);
            }
        }
        reports.sort_by_key(|r| (r.offset, r.ste));
        reports
    }
}

#[cfg(test)]
mod bank_tests {
    use super::*;
    use crate::designs::DesignKind;
    use crate::mapping::map_design;
    use cama_sim::Simulator;
    use cama_workloads::Benchmark;

    fn check(design: DesignKind, bench: Benchmark) {
        let nfa = bench.generate(0.005);
        let input = bench.input(&nfa, 384, 17);
        let mapping = map_design(design, &nfa, None);
        let mut hardware = BankHardware::build(&nfa, &mapping);
        let hw = hardware.run(&input);
        let mut sw = Simulator::new(&nfa).run(&input).reports;
        sw.sort_by_key(|r| (r.offset, r.ste));
        assert_eq!(hw, sw, "{design} on {bench}");
    }

    #[test]
    fn ca_mapping_is_report_equivalent() {
        for bench in [
            Benchmark::Brill,
            Benchmark::EntityResolution,
            Benchmark::Fermi,
        ] {
            check(DesignKind::CacheAutomaton, bench);
        }
    }

    #[test]
    fn eap_mapping_is_report_equivalent() {
        for bench in [Benchmark::Tcp, Benchmark::BlockRings, Benchmark::Spm] {
            check(DesignKind::Eap, bench);
        }
    }

    #[test]
    #[should_panic(expected = "unit weights")]
    fn cama_mappings_are_rejected() {
        let nfa = Benchmark::Protomata.generate(0.004);
        let plan = cama_encoding::EncodingPlan::for_nfa(&nfa);
        let mapping = map_design(DesignKind::CamaE, &nfa, Some(&plan));
        let _ = BankHardware::build(&nfa, &mapping);
    }
}
