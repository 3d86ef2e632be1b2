//! The mapping toolchain: packing connected components into partitions
//! (switch/bank units), choosing per-partition operating modes, and
//! allocating global-switch resources (Table V).
//!
//! The packer is shared by every design; what differs is the *weight* of
//! a state (1 for bit-vector designs, its CAM-entry count for CAMA, its
//! rectangle count for Impala), the partition capacity, and whether the
//! local switch imposes the reduced-crossbar band constraint.
//!
//! Band handling follows §IV.B: a partition's positions are divided into
//! groups of `k_dia`; a transition is storable iff its target lies in the
//! source's group or the next one. Forward chains therefore pack freely,
//! while back-edges (rings) are legal only within one group — the packer
//! retries a component at the next group boundary before declaring it
//! FCB-bound.

use crate::designs::DesignKind;
use cama_core::bitwidth::rectangles;
use cama_core::graph::Automaton;
use cama_core::stride::StridedNfa;
use cama_core::Nfa;
use cama_encoding::EncodingPlan;
use cama_mem::crossbar::ReducedCrossbar;
use cama_mem::K_DIA;
use cama_sim::ShardingProfile;

/// eAP's reduced-crossbar group width (96×96 switch, §IV.B).
pub const EAP_K_DIA: usize = 21;

/// Per-partition local-switch port budget to/from the global switch.
pub const GLOBAL_PORTS_PER_PARTITION: usize = 16;

/// Partitions (tiles) sharing one global switch (8 tiles per array).
pub const PARTITIONS_PER_GLOBAL: usize = 8;

/// The operating mode of one partition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PartitionMode {
    /// CAMA 16-bit RCB mode: one 16×256 CAM sub-array + one 128×128
    /// RRCB, band-constrained (256 entries).
    Rcb,
    /// CAMA 16-bit FCB mode: a full tile with one powered CAM sub-array
    /// and both switches as a full crossbar (256 entries).
    Fcb,
    /// CAMA 32-bit mode: a full tile, both CAM sub-arrays forming wide
    /// entries (256 entries).
    Wide,
    /// A bit-vector bank (CA / Impala / eAP-FCB-fallback).
    Bank,
    /// An eAP bank whose transitions fit the 96×96 reduced crossbar.
    BankReduced,
}

/// One packed partition.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Operating mode.
    pub mode: PartitionMode,
    /// Occupied slots (entries or states, by design).
    pub used: usize,
    /// Slot capacity.
    pub capacity: usize,
    /// Placed states in slot order.
    pub states: Vec<u32>,
    /// Number of internal (storable) transitions.
    pub local_edges: usize,
    /// States sending activations to other partitions.
    pub cross_out: usize,
    /// States receiving activations from other partitions.
    pub cross_in: usize,
}

/// A complete design mapping.
#[derive(Clone, Debug)]
pub struct Mapping {
    /// The mapped design.
    pub design: DesignKind,
    /// All partitions.
    pub partitions: Vec<Partition>,
    /// Partition index per state.
    pub partition_of: Vec<u32>,
    /// Weight (slots) per state.
    pub weight_of: Vec<u32>,
    /// Edges that cross partitions (routed via global switches).
    pub cross_edges: Vec<(u32, u32)>,
    /// Number of 256×256 global switches allocated.
    pub global_switches: usize,
    /// Sum of ports demanded beyond the 16-in/16-out budget (recorded,
    /// not enforced — see "Modelling assumptions and invariants" in
    /// `docs/ARCHITECTURE.md`).
    pub port_overflow: usize,
}

impl Mapping {
    /// Number of partitions in a given mode.
    pub fn count_mode(&self, mode: PartitionMode) -> usize {
        self.partitions.iter().filter(|p| p.mode == mode).count()
    }

    /// Table V's "switch" count: RCB partitions are single switches;
    /// FCB/Wide tiles contribute their two physical switches.
    pub fn switch_count(&self, mode: PartitionMode) -> usize {
        let per = match mode {
            PartitionMode::Rcb => 1,
            PartitionMode::Fcb | PartitionMode::Wide => 2,
            PartitionMode::Bank | PartitionMode::BankReduced => 1,
        };
        self.count_mode(mode) * per
    }

    /// Number of physical tiles (CAMA) or banks (others).
    pub fn tiles(&self) -> usize {
        let rcb = self.count_mode(PartitionMode::Rcb);
        let other = self.partitions.len() - rcb;
        rcb.div_ceil(2) + other
    }

    /// Total occupied slots.
    pub fn used_slots(&self) -> usize {
        self.partitions.iter().map(|p| p.used).sum()
    }

    /// States whose activations leave their partition (drive the global
    /// switch when active).
    pub fn cross_sources(&self) -> Vec<bool> {
        let mut cross = vec![false; self.partition_of.len()];
        for &(from, _) in &self.cross_edges {
            cross[from as usize] = true;
        }
        cross
    }
}

/// The packer's per-design configuration.
#[derive(Clone, Copy, Debug)]
struct PackerConfig {
    capacity: usize,
    band: Option<usize>,
    band_mode: PartitionMode,
    fallback_mode: PartitionMode,
    fallback_capacity: usize,
}

/// A design-agnostic view of the automaton being mapped.
struct MapInput {
    n: usize,
    weights: Vec<u32>,
    /// Connected components in the automaton's layout order (largest
    /// first).
    ccs: Vec<Vec<u32>>,
    succ: Vec<Vec<u32>>,
}

impl MapInput {
    fn new(nfa: &impl Automaton, weights: Vec<u32>) -> Self {
        MapInput {
            n: nfa.len(),
            weights,
            ccs: nfa.components(),
            succ: (0..nfa.len())
                .map(|i| nfa.successor_ids(i).collect())
                .collect(),
        }
    }

    fn cc_weight(&self, cc: &[u32]) -> usize {
        cc.iter().map(|&s| self.weights[s as usize] as usize).sum()
    }

    /// Re-sorts the packing order by measured per-state activity,
    /// hottest component first (size decreasing within equal heat, the
    /// static order).
    fn order_by_heat(&mut self, activity: &[u64]) {
        assert_eq!(
            activity.len(),
            self.n,
            "profile was built for a different automaton"
        );
        self.ccs.sort_by_key(|cc| {
            let heat: u64 = cc.iter().map(|&s| activity[s as usize]).sum();
            (std::cmp::Reverse(heat), std::cmp::Reverse(cc.len()))
        });
    }
}

/// Builds the mapping of `nfa` for a (1-stride) design. CAMA designs
/// require the encoding plan (entry weights and the wide-mode flag).
///
/// # Panics
///
/// Panics if a CAMA design is requested without a plan, or if a single
/// state outweighs a partition.
pub fn map_design(design: DesignKind, nfa: &Nfa, plan: Option<&EncodingPlan>) -> Mapping {
    let (input, config) = design_input(design, nfa, plan);
    pack(design, input, config)
}

/// [`map_design`] with the packing order steered by a measured
/// [`ShardingProfile`]: components pack hottest first, so the states
/// that carry the workload's activity land in the same few partitions
/// and the idle tail fills partitions of its own — the arrays the
/// simulator's idle-shard skipping (and the hardware's array power
/// gating) can then leave dark. The mapping is functionally equivalent
/// to the unprofiled one; only which partitions wake per cycle moves.
///
/// # Panics
///
/// As [`map_design`], plus if the profile's state count differs from
/// `nfa.len()`.
pub fn map_design_profiled(
    design: DesignKind,
    nfa: &Nfa,
    plan: Option<&EncodingPlan>,
    profile: &ShardingProfile,
) -> Mapping {
    let (mut input, config) = design_input(design, nfa, plan);
    input.order_by_heat(profile.state_activity());
    pack(design, input, config)
}

/// The per-design packer input and configuration behind [`map_design`].
fn design_input(
    design: DesignKind,
    nfa: &Nfa,
    plan: Option<&EncodingPlan>,
) -> (MapInput, PackerConfig) {
    match design {
        DesignKind::CamaE | DesignKind::CamaT => {
            let plan = plan.expect("CAMA mapping requires an encoding plan");
            let weights: Vec<u32> = plan
                .states()
                .iter()
                .map(|s| s.num_entries().max(1) as u32)
                .collect();
            let config = if plan.selection().wide {
                PackerConfig {
                    capacity: 256,
                    band: None,
                    band_mode: PartitionMode::Wide,
                    fallback_mode: PartitionMode::Wide,
                    fallback_capacity: 256,
                }
            } else {
                PackerConfig {
                    capacity: 256,
                    band: Some(K_DIA),
                    band_mode: PartitionMode::Rcb,
                    fallback_mode: PartitionMode::Fcb,
                    fallback_capacity: 256,
                }
            };
            (MapInput::new(nfa, weights), config)
        }
        DesignKind::CacheAutomaton => (
            MapInput::new(nfa, vec![1; nfa.len()]),
            PackerConfig {
                capacity: 256,
                band: None,
                band_mode: PartitionMode::Bank,
                fallback_mode: PartitionMode::Bank,
                fallback_capacity: 256,
            },
        ),
        DesignKind::Impala2 | DesignKind::Impala4 => {
            // Weight = rectangles of the 4-bit decomposition: each
            // rectangle is one hi/lo column pair across the banks.
            let weights: Vec<u32> = nfa
                .stes()
                .iter()
                .map(|s| rectangles(&s.class).len().max(1) as u32)
                .collect();
            (
                MapInput::new(nfa, weights),
                PackerConfig {
                    capacity: 256,
                    band: None,
                    band_mode: PartitionMode::Bank,
                    fallback_mode: PartitionMode::Bank,
                    fallback_capacity: 256,
                },
            )
        }
        DesignKind::Eap => (
            MapInput::new(nfa, vec![1; nfa.len()]),
            PackerConfig {
                capacity: 256,
                band: Some(EAP_K_DIA),
                band_mode: PartitionMode::BankReduced,
                fallback_mode: PartitionMode::Bank,
                fallback_capacity: 256,
            },
        ),
        DesignKind::Ap => (
            MapInput::new(nfa, vec![1; nfa.len()]),
            PackerConfig {
                capacity: 256,
                band: None,
                band_mode: PartitionMode::Bank,
                fallback_mode: PartitionMode::Bank,
                fallback_capacity: 256,
            },
        ),
        DesignKind::Cama2E | DesignKind::Cama2T => {
            panic!("strided designs are mapped with map_strided")
        }
    }
}

/// Builds the mapping of a 2-strided automaton for the Figure 13
/// designs. `weights` are CAM-entry (or rectangle) counts per strided
/// state.
pub fn map_strided(design: DesignKind, nfa: &StridedNfa, weights: Vec<u32>) -> Mapping {
    let config = PackerConfig {
        capacity: 256,
        band: None,
        band_mode: if design.is_cama() {
            PartitionMode::Fcb
        } else {
            PartitionMode::Bank
        },
        fallback_mode: if design.is_cama() {
            PartitionMode::Fcb
        } else {
            PartitionMode::Bank
        },
        fallback_capacity: 256,
    };
    let input = MapInput::new(nfa, weights);
    pack(design, input, config)
}

struct OpenPartition {
    mode: PartitionMode,
    used: usize,
    capacity: usize,
    states: Vec<u32>,
    /// Slot position of each placed state (partition-local).
    positions: Vec<(u32, usize)>,
}

fn pack(design: DesignKind, input: MapInput, config: PackerConfig) -> Mapping {
    let mut open: Vec<OpenPartition> = Vec::new();
    let mut partition_of = vec![u32::MAX; input.n];

    let place = |p: &mut OpenPartition, cc: &[u32], offset: usize, input: &MapInput| {
        let mut pos = offset;
        for &s in cc {
            p.positions.push((s, pos));
            pos += input.weights[s as usize] as usize;
            p.states.push(s);
        }
        p.used = pos;
    };

    for cc in &input.ccs {
        let weight = input.cc_weight(cc);
        let chunks: Vec<Vec<u32>> = if weight <= config.capacity.min(config.fallback_capacity) {
            vec![cc.clone()]
        } else {
            split_chunks(cc, &input, config.capacity.min(config.fallback_capacity))
        };

        for chunk in &chunks {
            let chunk_weight = input.cc_weight(chunk);
            assert!(
                chunk_weight <= config.capacity.max(config.fallback_capacity),
                "state group outweighs a partition"
            );
            let mut placed = false;
            // First fit into an open band-mode partition. The scan is
            // bounded to the most recent candidates: components arrive
            // in decreasing weight, so older partitions almost never
            // regain room, and an unbounded scan is quadratic on
            // thousand-partition benchmarks.
            let window_start = open.len().saturating_sub(FIT_WINDOW);
            for p in open[window_start..]
                .iter_mut()
                .filter(|p| p.mode == config.band_mode)
            {
                if let Some(offset) = fit_offset(p, chunk, chunk_weight, config.band, &input) {
                    place(p, chunk, offset, &input);
                    placed = true;
                    break;
                }
            }
            if !placed {
                // A fresh band-mode partition.
                let mut p = OpenPartition {
                    mode: config.band_mode,
                    used: 0,
                    capacity: config.capacity,
                    states: Vec::new(),
                    positions: Vec::new(),
                };
                if let Some(offset) = fit_offset(&p, chunk, chunk_weight, config.band, &input) {
                    place(&mut p, chunk, offset, &input);
                    open.push(p);
                    placed = true;
                }
            }
            if !placed {
                // Band-infeasible even in an empty partition: fall back
                // to FCB-mode partitions (bounded first fit).
                let window_start = open.len().saturating_sub(FIT_WINDOW);
                for p in open[window_start..].iter_mut().filter(|p| {
                    p.mode == config.fallback_mode && config.fallback_mode != config.band_mode
                }) {
                    if p.used + chunk_weight <= p.capacity {
                        let offset = p.used;
                        place(p, chunk, offset, &input);
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    let mut p = OpenPartition {
                        mode: config.fallback_mode,
                        used: 0,
                        capacity: config.fallback_capacity,
                        states: Vec::new(),
                        positions: Vec::new(),
                    };
                    place(&mut p, chunk, 0, &input);
                    open.push(p);
                }
            }
        }
    }

    for (i, p) in open.iter().enumerate() {
        for &s in &p.states {
            partition_of[s as usize] = i as u32;
        }
    }

    // Edge classification.
    let mut cross_edges = Vec::new();
    let mut local_edges = vec![0usize; open.len()];
    let mut cross_out_states: Vec<std::collections::HashSet<u32>> =
        vec![std::collections::HashSet::new(); open.len()];
    let mut cross_in_states: Vec<std::collections::HashSet<u32>> =
        vec![std::collections::HashSet::new(); open.len()];
    for (from, successors) in input.succ.iter().enumerate() {
        let pf = partition_of[from];
        for &to in successors {
            let pt = partition_of[to as usize];
            if pf == pt {
                local_edges[pf as usize] += 1;
            } else {
                cross_edges.push((from as u32, to));
                cross_out_states[pf as usize].insert(from as u32);
                cross_in_states[pt as usize].insert(to);
            }
        }
    }

    let partitions: Vec<Partition> = open
        .into_iter()
        .enumerate()
        .map(|(i, p)| Partition {
            mode: p.mode,
            used: p.used,
            capacity: p.capacity,
            states: p.states,
            local_edges: local_edges[i],
            cross_out: cross_out_states[i].len(),
            cross_in: cross_in_states[i].len(),
        })
        .collect();

    let port_overflow = partitions
        .iter()
        .map(|p| {
            p.cross_out.saturating_sub(GLOBAL_PORTS_PER_PARTITION)
                + p.cross_in.saturating_sub(GLOBAL_PORTS_PER_PARTITION)
        })
        .sum();

    // One global switch per group of 8 tiles that route off-tile.
    let crossing_rcb = partitions
        .iter()
        .filter(|p| p.mode == PartitionMode::Rcb && (p.cross_out + p.cross_in) > 0)
        .count();
    let crossing_other = partitions
        .iter()
        .filter(|p| p.mode != PartitionMode::Rcb && (p.cross_out + p.cross_in) > 0)
        .count();
    let crossing_tiles = crossing_rcb.div_ceil(2) + crossing_other;
    let global_switches = crossing_tiles.div_ceil(PARTITIONS_PER_GLOBAL);

    Mapping {
        design,
        partitions,
        partition_of,
        weight_of: input.weights,
        cross_edges,
        global_switches,
        port_overflow,
    }
}

/// Finds a feasible placement offset in `p` for `chunk`, or `None`.
fn fit_offset(
    p: &OpenPartition,
    chunk: &[u32],
    chunk_weight: usize,
    band: Option<usize>,
    input: &MapInput,
) -> Option<usize> {
    let base = p.used;
    if base + chunk_weight > p.capacity {
        return None;
    }
    let Some(k) = band else {
        return Some(base);
    };
    if band_ok(chunk, base, k, input) {
        return Some(base);
    }
    // Retry at the next group boundary (rings fit inside one group).
    let aligned = base.div_ceil(k) * k;
    if aligned + chunk_weight <= p.capacity && band_ok(chunk, aligned, k, input) {
        return Some(aligned);
    }
    None
}

/// Upper bound on open partitions scanned per placement attempt.
const FIT_WINDOW: usize = 24;

/// Checks every internal edge of `chunk` against the band constraint at
/// placement `offset`. States span `weight` consecutive slots; all four
/// span corners of an edge must be storable (which implies the interior
/// positions are too, since a state's groups form an interval).
fn band_ok(chunk: &[u32], offset: usize, k: usize, input: &MapInput) -> bool {
    let mut positions: Vec<(u32, usize)> = Vec::with_capacity(chunk.len());
    let mut cursor = offset;
    for &s in chunk {
        positions.push((s, cursor));
        cursor += input.weights[s as usize] as usize;
    }
    positions.sort_unstable();
    let position_of = |state: u32| -> Option<usize> {
        positions
            .binary_search_by_key(&state, |&(s, _)| s)
            .ok()
            .map(|i| positions[i].1)
    };
    let mut cursor = offset;
    for &s in chunk {
        let ps = cursor;
        cursor += input.weights[s as usize] as usize;
        let ws = input.weights[s as usize] as usize;
        for &t in &input.succ[s as usize] {
            let Some(pt) = position_of(t) else {
                continue; // cross-chunk edge, routed globally
            };
            let wt = input.weights[t as usize] as usize;
            for a in [ps, ps + ws - 1] {
                for b in [pt, pt + wt - 1] {
                    if !ReducedCrossbar::supports(k, a, b) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Splits a BFS-ordered component into chunks of at most `capacity`
/// weight, on state boundaries.
fn split_chunks(cc: &[u32], input: &MapInput, capacity: usize) -> Vec<Vec<u32>> {
    let mut chunks = Vec::new();
    let mut current = Vec::new();
    let mut used = 0usize;
    for &s in cc {
        let w = input.weights[s as usize] as usize;
        if used + w > capacity && !current.is_empty() {
            chunks.push(std::mem::take(&mut current));
            used = 0;
        }
        current.push(s);
        used += w;
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use cama_core::regex;
    use cama_core::{NfaBuilder, StartKind, SymbolClass};

    fn chain_nfa(n: usize) -> Nfa {
        let mut b = NfaBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_ste(SymbolClass::singleton((i % 200) as u8)))
            .collect();
        b.set_start(ids[0], StartKind::AllInput);
        b.set_report(ids[n - 1], 0);
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn small_nfa_fits_one_partition() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        let plan = EncodingPlan::for_nfa(&nfa);
        let mapping = map_design(DesignKind::CamaE, &nfa, Some(&plan));
        assert_eq!(mapping.partitions.len(), 1);
        assert_eq!(mapping.partitions[0].mode, PartitionMode::Rcb);
        assert!(mapping.cross_edges.is_empty());
        assert_eq!(mapping.global_switches, 0);
    }

    #[test]
    fn long_chain_splits_with_globals() {
        let nfa = chain_nfa(600);
        let plan = EncodingPlan::for_nfa(&nfa);
        let mapping = map_design(DesignKind::CamaE, &nfa, Some(&plan));
        assert!(mapping.partitions.len() >= 3);
        // One cut edge per chunk boundary.
        assert_eq!(mapping.cross_edges.len(), mapping.partitions.len() - 1);
        assert!(mapping.global_switches >= 1);
        // Every state is placed exactly once.
        assert!(mapping.partition_of.iter().all(|&p| p != u32::MAX));
    }

    #[test]
    fn profiled_mapping_groups_hot_components() {
        // Many equal-size components; the profile marks two of them
        // hot. Unprofiled packing is size-ordered, so the hot pair
        // lands wherever component discovery put it; profiled packing
        // must co-locate the two hot components in partition 0.
        let nfa = regex::compile_set(&[
            "abcdefgh", "ijklmnop", "qrstuvwx", "01234567", "89abcdef", "ghijklmn",
        ])
        .unwrap();
        let mut activity = vec![0u64; nfa.len()];
        // Heat the third and sixth patterns (8 states each).
        activity[16..24].fill(100);
        activity[40..48].fill(90);
        let profile = ShardingProfile::from_state_activity(activity.clone());
        let mapping = map_design_profiled(DesignKind::CacheAutomaton, &nfa, None, &profile);
        for (s, &heat) in activity.iter().enumerate() {
            if heat > 0 {
                assert_eq!(
                    mapping.partition_of[s], 0,
                    "hot state {s} not in partition 0"
                );
            }
        }
        // Same partition shape as the unprofiled mapping.
        let baseline = map_design(DesignKind::CacheAutomaton, &nfa, None);
        assert_eq!(mapping.partitions.len(), baseline.partitions.len());
        assert_eq!(mapping.used_slots(), baseline.used_slots());
    }

    #[test]
    fn ca_packs_by_state_count() {
        let nfa = chain_nfa(600);
        let mapping = map_design(DesignKind::CacheAutomaton, &nfa, None);
        assert_eq!(mapping.partitions.len(), 3);
        assert!(mapping
            .partitions
            .iter()
            .all(|p| p.mode == PartitionMode::Bank));
        assert_eq!(mapping.used_slots(), 600);
    }

    #[test]
    fn ring_within_group_is_rcb() {
        // A 33-state ring fits one 43-slot group after alignment.
        let mut b = NfaBuilder::new();
        let ids: Vec<_> = (0..33)
            .map(|i| b.add_ste(SymbolClass::singleton(i as u8)))
            .collect();
        b.set_start(ids[0], StartKind::AllInput);
        for i in 0..33 {
            b.add_edge(ids[i], ids[(i + 1) % 33]);
        }
        let nfa = b.build().unwrap();
        let plan = EncodingPlan::for_nfa(&nfa);
        let mapping = map_design(DesignKind::CamaT, &nfa, Some(&plan));
        assert_eq!(mapping.count_mode(PartitionMode::Rcb), 1);
        assert_eq!(mapping.count_mode(PartitionMode::Fcb), 0);
    }

    #[test]
    fn long_back_edge_forces_fcb() {
        // A 100-state cycle cannot sit inside one 43-group and its
        // closing edge jumps backwards across groups.
        let mut b = NfaBuilder::new();
        let ids: Vec<_> = (0..100)
            .map(|i| b.add_ste(SymbolClass::singleton(i as u8)))
            .collect();
        b.set_start(ids[0], StartKind::AllInput);
        for i in 0..100 {
            b.add_edge(ids[i], ids[(i + 1) % 100]);
        }
        let nfa = b.build().unwrap();
        let plan = EncodingPlan::for_nfa(&nfa);
        let mapping = map_design(DesignKind::CamaT, &nfa, Some(&plan));
        assert_eq!(mapping.count_mode(PartitionMode::Fcb), 1);
    }

    #[test]
    fn wide_plans_map_to_wide_tiles() {
        // Classes of ~50 symbols force the 32-bit One-Zero-Prefix mode.
        let mut b = NfaBuilder::new();
        for i in 0..8u8 {
            let lo = i.wrapping_mul(20);
            let id = b.add_ste(SymbolClass::from_range(lo, lo.saturating_add(49)));
            b.set_start(id, StartKind::AllInput);
        }
        let nfa = b.build().unwrap();
        let plan = EncodingPlan::for_nfa(&nfa);
        assert!(plan.selection().wide);
        let mapping = map_design(DesignKind::CamaE, &nfa, Some(&plan));
        assert!(mapping
            .partitions
            .iter()
            .all(|p| p.mode == PartitionMode::Wide));
    }

    #[test]
    fn eap_band_uses_reduced_banks_for_chains() {
        let nfa = chain_nfa(200);
        let mapping = map_design(DesignKind::Eap, &nfa, None);
        assert_eq!(mapping.count_mode(PartitionMode::BankReduced), 1);
    }

    #[test]
    fn impala_weights_count_rectangles() {
        // A class spanning two high nibbles with unequal low sets needs
        // two rectangles.
        let mut b = NfaBuilder::new();
        let class: SymbolClass = [0x12u8, 0x13, 0x27].into_iter().collect();
        let id = b.add_ste(class);
        b.set_start(id, StartKind::AllInput);
        let nfa = b.build().unwrap();
        let mapping = map_design(DesignKind::Impala2, &nfa, None);
        assert_eq!(mapping.weight_of[0], 2);
        assert_eq!(mapping.used_slots(), 2);
    }

    #[test]
    fn switch_counts_match_modes() {
        let nfa = chain_nfa(600);
        let plan = EncodingPlan::for_nfa(&nfa);
        let mapping = map_design(DesignKind::CamaE, &nfa, Some(&plan));
        let rcb = mapping.count_mode(PartitionMode::Rcb);
        assert_eq!(mapping.switch_count(PartitionMode::Rcb), rcb);
        assert_eq!(mapping.tiles(), rcb.div_ceil(2));
    }

    #[test]
    fn strided_mapping_covers_all_states() {
        let nfa = regex::compile("abcde").unwrap();
        let strided = cama_core::stride::StridedNfa::from_nfa(&nfa);
        let weights = vec![1u32; strided.len()];
        let mapping = map_strided(DesignKind::Cama2E, &strided, weights);
        assert!(mapping.partition_of.iter().all(|&p| p != u32::MAX));
        assert_eq!(mapping.used_slots(), strided.len());
    }

    #[test]
    fn cross_sources_flag_matches_cross_edges() {
        let nfa = chain_nfa(600);
        let mapping = map_design(DesignKind::CacheAutomaton, &nfa, None);
        let cross = mapping.cross_sources();
        assert_eq!(
            cross.iter().filter(|&&c| c).count(),
            mapping.cross_edges.len()
        );
    }
}
