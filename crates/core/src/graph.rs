//! Graph analysis over the activation structure of an automaton: the
//! [`Automaton`] shape the front end is generic over, connected
//! components, BFS orderings, and degree statistics.
//!
//! The mapper relies on two facts the paper exploits (§III.C): real NFAs
//! decompose into many small *connected components* (CCs) with no edges
//! between them, and a breadth-first ordering of each CC places most
//! transitions near the diagonal of the crossbar.
//!
//! Components are also the unit of plan caching and hot swap: with no
//! edges between them they compile, hash, and execute independently
//! (see [`crate::compile`]). A 2-stride [`StridedNfa`] is just another
//! state graph, so the component split, structure hash, shard builder,
//! cached compiler and remap each exist once, over [`Automaton`], for
//! byte and 2-stride automata alike.
//!
//! # Examples
//!
//! ```
//! use cama_core::{graph, regex};
//! use cama_core::stride::StridedNfa;
//!
//! // Two patterns share no states, so they form two components.
//! let nfa = regex::compile_set(&["ab+c", "xy+z"])?;
//! let components = graph::connected_components(&nfa);
//! assert_eq!(components.len(), 2);
//! // The inverse view: each state's component id.
//! let (ids, count) = graph::component_ids(&nfa);
//! assert_eq!(count, 2);
//! assert_eq!(ids.len(), nfa.len());
//! // The same labelling over the 2-stride automaton.
//! let strided = StridedNfa::from_nfa(&nfa);
//! assert_eq!(graph::component_ids(&strided).1, 2);
//! # Ok::<(), cama_core::Error>(())
//! ```

use crate::compiled::{CompiledAutomaton, ShardPlan};
use crate::nfa::{BuildOptions, Nfa, NfaBuilder, SteId};
use std::collections::VecDeque;

#[cfg(doc)]
use crate::stride::StridedNfa;

/// An automaton the front end compiles: a homogeneous NFA consumed one
/// byte ([`Nfa`]) or one byte pair ([`StridedNfa`]) per cycle.
///
/// It exposes only what the compilation steps below the regex compiler
/// differ on by flavour. [`split_components`](crate::compile::split_components),
/// [`compile_ruleset`](crate::compile::compile_ruleset),
/// [`PlanRemap`](crate::compile::PlanRemap), [`component_ids`] and the
/// [`ShardedAutomaton`](crate::compiled::ShardedAutomaton) constructors
/// are each one generic function over it.
pub trait Automaton: Sized + Sync {
    /// The plan [`compile_plan`](Automaton::compile_plan) builds.
    type Plan: ShardPlan + Clone + Send;

    /// Number of states.
    fn len(&self) -> usize;

    /// Returns `true` if the automaton has no states.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The automaton's name.
    fn name(&self) -> &str;

    /// Successor ids of `state`, in the automaton's stored order.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    fn successor_ids(&self, state: usize) -> impl Iterator<Item = u32> + '_;

    /// The connected components (undirected activation connectivity) as
    /// member lists, largest first: the order units are split in and
    /// shards are balanced in. Each list is the component's local layout.
    fn components(&self) -> Vec<Vec<u32>>;

    /// The words of `state` the structure hash reads: its match classes,
    /// start kind and report.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    fn state_words(&self, state: usize) -> impl Iterator<Item = u64> + '_;

    /// The sub-automaton over `states` renumbered `0..states.len()` in
    /// that order, with the local `(from, to)` edges `edges`, under
    /// `name`.
    ///
    /// # Panics
    ///
    /// Panics if a state or an edge end is out of range.
    fn extract(&self, name: String, states: &[u32], edges: &[(u32, u32)]) -> Self;

    /// The flavour's raw-byte execution plan.
    fn compile_plan(&self) -> Self::Plan;
}

/// Byte automata lay each component out breadth-first from its start
/// states (the crossbar-diagonal order); equal sizes tie-break on the
/// member lists.
impl Automaton for Nfa {
    type Plan = CompiledAutomaton;

    fn len(&self) -> usize {
        Nfa::len(self)
    }

    fn name(&self) -> &str {
        Nfa::name(self)
    }

    fn successor_ids(&self, state: usize) -> impl Iterator<Item = u32> + '_ {
        self.successors(SteId(state as u32)).iter().map(|s| s.0)
    }

    fn components(&self) -> Vec<Vec<u32>> {
        let preds = predecessor_ids(self);
        // Scratch shared across components: per-component allocation
        // would make this quadratic on benchmarks with thousands of
        // components.
        let mut scratch = BfsScratch::new(self.len());
        let mut components: Vec<Vec<u32>> = component_members(self, &preds)
            .iter()
            .map(|members| bfs_order(self, &preds, members, &mut scratch))
            .collect();
        components.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
        components
    }

    fn state_words(&self, state: usize) -> impl Iterator<Item = u64> + '_ {
        let ste = &self.stes()[state];
        let report = ste.report.map_or(0, |code| u64::from(code) + 1);
        let words = ste.class.as_words().iter().copied();
        words.chain([ste.start as u64, report])
    }

    fn extract(&self, name: String, states: &[u32], edges: &[(u32, u32)]) -> Nfa {
        let mut builder = NfaBuilder::with_name(name);
        for &g in states {
            let ste = self.ste(SteId(g));
            let id = builder.add_ste(ste.class);
            builder.set_start(id, ste.start);
            if let Some(code) = ste.report {
                builder.set_report(id, code);
            }
        }
        for &(from, to) in edges {
            builder.add_edge(SteId(from), SteId(to));
        }
        builder
            .build_with_options(BuildOptions {
                reject_empty_classes: false,
                reject_unreachable: false,
            })
            .expect("lenient build cannot fail")
    }

    fn compile_plan(&self) -> CompiledAutomaton {
        CompiledAutomaton::compile(self)
    }
}

/// The reverse adjacency of `nfa`: predecessor ids per state.
pub(crate) fn predecessor_ids<A: Automaton>(nfa: &A) -> Vec<Vec<u32>> {
    let mut preds = vec![Vec::new(); nfa.len()];
    for from in 0..nfa.len() {
        for to in nfa.successor_ids(from) {
            preds[to as usize].push(from as u32);
        }
    }
    preds
}

/// The one undirected component labelling: every component as its
/// ascending member list, in discovery order (by lowest member id).
/// Each flavour's [`Automaton::components`] orders these.
pub(crate) fn component_members<A: Automaton>(nfa: &A, preds: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut component = vec![u32::MAX; nfa.len()];
    let mut count = 0;
    let mut stack = Vec::new();
    for seed in 0..nfa.len() {
        if component[seed] != u32::MAX {
            continue;
        }
        component[seed] = count;
        stack.push(seed as u32);
        while let Some(v) = stack.pop() {
            let v = v as usize;
            for next in nfa.successor_ids(v).chain(preds[v].iter().copied()) {
                if component[next as usize] == u32::MAX {
                    component[next as usize] = count;
                    stack.push(next);
                }
            }
        }
        count += 1;
    }
    let mut members = vec![Vec::new(); count as usize];
    for (state, &c) in component.iter().enumerate() {
        members[c as usize].push(state as u32);
    }
    members
}

/// One connected component of an automaton (undirected connectivity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectedComponent {
    /// Member states in BFS order from the component's start states
    /// (falling back to the lowest id if the component has none).
    pub states: Vec<SteId>,
    /// Number of internal edges.
    pub num_edges: usize,
}

impl ConnectedComponent {
    /// Number of member states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` for a (degenerate) empty component.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Decomposes `nfa` into connected components.
///
/// Components are returned sorted by decreasing size, matching the
/// first-fit-decreasing packing order used by the greedy mapper.
///
/// # Examples
///
/// ```
/// use cama_core::{NfaBuilder, StartKind, SymbolClass, graph};
///
/// let mut b = NfaBuilder::new();
/// let x = b.add_ste(SymbolClass::singleton(b'x'));
/// let y = b.add_ste(SymbolClass::singleton(b'y'));
/// let z = b.add_ste(SymbolClass::singleton(b'z'));
/// b.set_start(x, StartKind::AllInput);
/// b.set_start(z, StartKind::AllInput);
/// b.add_edge(x, y);
/// let nfa = b.build()?;
/// let ccs = graph::connected_components(&nfa);
/// assert_eq!(ccs.len(), 2);
/// assert_eq!(ccs[0].len(), 2);
/// # Ok::<(), cama_core::Error>(())
/// ```
pub fn connected_components(nfa: &Nfa) -> Vec<ConnectedComponent> {
    nfa.components()
        .into_iter()
        .map(|states| ConnectedComponent {
            num_edges: states.iter().map(|&s| nfa.successors(SteId(s)).len()).sum(),
            states: states.into_iter().map(SteId).collect(),
        })
        .collect()
}

/// The per-state component index of `nfa`, plus the component count.
///
/// Components are numbered in [`Automaton::components`] order (largest
/// first), so an assignment derived from these ids agrees with the
/// first-fit-decreasing packing order of the mapper and with the
/// component-balanced shard strategy of
/// [`ShardedAutomaton`](crate::compiled::ShardedAutomaton).
///
/// # Examples
///
/// ```
/// use cama_core::{NfaBuilder, StartKind, SymbolClass, graph};
///
/// let mut b = NfaBuilder::new();
/// let x = b.add_ste(SymbolClass::singleton(b'x'));
/// let y = b.add_ste(SymbolClass::singleton(b'y'));
/// let z = b.add_ste(SymbolClass::singleton(b'z'));
/// b.set_start(x, StartKind::AllInput);
/// b.set_start(z, StartKind::AllInput);
/// b.add_edge(x, y);
/// let nfa = b.build()?;
/// let (ids, count) = graph::component_ids(&nfa);
/// assert_eq!(count, 2);
/// assert_eq!(ids[x.index()], ids[y.index()]);
/// assert_ne!(ids[x.index()], ids[z.index()]);
/// # Ok::<(), cama_core::Error>(())
/// ```
pub fn component_ids<A: Automaton>(nfa: &A) -> (Vec<u32>, usize) {
    let components = nfa.components();
    let mut ids = vec![0u32; nfa.len()];
    for (c, members) in components.iter().enumerate() {
        for &s in members {
            ids[s as usize] = c as u32;
        }
    }
    (ids, components.len())
}

struct BfsScratch {
    in_scope: Vec<bool>,
    seen: Vec<bool>,
}

impl BfsScratch {
    fn new(n: usize) -> Self {
        BfsScratch {
            in_scope: vec![false; n],
            seen: vec![false; n],
        }
    }
}

/// Orders the given states breadth-first, seeding the queue with the
/// component's start states (or its lowest id when it has none), exactly
/// the ordering eAP and CAMA use to diagonalize the transition matrix.
fn bfs_order(nfa: &Nfa, preds: &[Vec<u32>], states: &[u32], scratch: &mut BfsScratch) -> Vec<u32> {
    for &s in states {
        scratch.in_scope[s as usize] = true;
    }
    let mut order = Vec::with_capacity(states.len());
    let mut queue = VecDeque::new();

    let mut seeds: Vec<u32> = states
        .iter()
        .copied()
        .filter(|&s| nfa.ste(SteId(s)).start.is_start())
        .collect();
    if seeds.is_empty() {
        seeds = states.iter().copied().take(1).collect();
    }
    seeds.sort_unstable();
    for s in seeds {
        if !scratch.seen[s as usize] {
            scratch.seen[s as usize] = true;
            queue.push_back(s);
        }
    }

    // Undirected BFS so back-edges stay near the diagonal too.
    while let Some(v) = queue.pop_front() {
        order.push(v);
        let mut neighbors: Vec<u32> = nfa
            .successor_ids(v as usize)
            .chain(preds[v as usize].iter().copied())
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        for next in neighbors {
            if scratch.in_scope[next as usize] && !scratch.seen[next as usize] {
                scratch.seen[next as usize] = true;
                queue.push_back(next);
            }
        }
        // Components can be disconnected in the directed sense only; any
        // leftover states are appended from fresh BFS seeds.
        if queue.is_empty() && order.len() < states.len() {
            if let Some(&s) = states.iter().find(|&&s| !scratch.seen[s as usize]) {
                scratch.seen[s as usize] = true;
                queue.push_back(s);
            }
        }
    }
    // Reset only the touched indices for the next component.
    for &s in states {
        scratch.in_scope[s as usize] = false;
        scratch.seen[s as usize] = false;
    }
    order
}

/// Degree and connectivity statistics used by the mapping reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of connected components.
    pub num_components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Maximum out-degree over all states.
    pub max_out_degree: usize,
    /// Maximum in-degree over all states.
    pub max_in_degree: usize,
    /// Mean out-degree.
    pub avg_out_degree: f64,
    /// Fraction of edges `(u, v)` with `|bfs(u) - bfs(v)| <= 43` under the
    /// per-component BFS ordering — the paper's diagonality argument for
    /// the reduced crossbar.
    pub diagonal_fraction: f64,
}

/// Computes [`GraphStats`] for an automaton.
pub fn stats(nfa: &Nfa) -> GraphStats {
    let ccs = connected_components(nfa);
    let preds = predecessor_ids(nfa);
    let max_out = (0..nfa.len())
        .map(|i| nfa.successors(SteId(i as u32)).len())
        .max()
        .unwrap_or(0);
    let max_in = preds.iter().map(Vec::len).max().unwrap_or(0);
    let avg_out = if nfa.is_empty() {
        0.0
    } else {
        nfa.num_edges() as f64 / nfa.len() as f64
    };

    let mut position = vec![0usize; nfa.len()];
    for cc in &ccs {
        for (pos, &s) in cc.states.iter().enumerate() {
            position[s.index()] = pos;
        }
    }
    let mut near = 0usize;
    for (from, to) in nfa.edges() {
        let d = position[from.index()].abs_diff(position[to.index()]);
        if d <= 43 {
            near += 1;
        }
    }
    let diagonal_fraction = if nfa.num_edges() == 0 {
        1.0
    } else {
        near as f64 / nfa.num_edges() as f64
    };

    GraphStats {
        num_components: ccs.len(),
        largest_component: ccs.first().map_or(0, ConnectedComponent::len),
        max_out_degree: max_out,
        max_in_degree: max_in,
        avg_out_degree: avg_out,
        diagonal_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::{NfaBuilder, StartKind};
    use crate::symbol::SymbolClass;

    fn two_chains() -> Nfa {
        let mut b = NfaBuilder::new();
        let ids: Vec<SteId> = (0..6)
            .map(|i| b.add_ste(SymbolClass::singleton(b'a' + i)))
            .collect();
        b.set_start(ids[0], StartKind::AllInput);
        b.set_start(ids[3], StartKind::AllInput);
        b.add_edge(ids[0], ids[1]);
        b.add_edge(ids[1], ids[2]);
        b.add_edge(ids[3], ids[4]);
        b.build().unwrap()
    }

    #[test]
    fn components_are_split_and_sorted() {
        let ccs = connected_components(&two_chains());
        assert_eq!(ccs.len(), 3);
        assert_eq!(ccs[0].len(), 3);
        assert_eq!(ccs[1].len(), 2);
        assert_eq!(ccs[2].len(), 1);
        assert_eq!(ccs[0].num_edges, 2);
    }

    #[test]
    fn bfs_order_starts_at_start_states() {
        let nfa = two_chains();
        let ccs = connected_components(&nfa);
        assert_eq!(ccs[0].states, vec![SteId(0), SteId(1), SteId(2)]);
    }

    #[test]
    fn bfs_order_covers_all_states() {
        let nfa = two_chains();
        for cc in connected_components(&nfa) {
            let mut sorted = cc.states.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), cc.states.len());
        }
    }

    #[test]
    fn component_ids_invert_connected_components() {
        let nfa = two_chains();
        let (ids, count) = component_ids(&nfa);
        assert_eq!(count, 3);
        let ccs = connected_components(&nfa);
        for (c, cc) in ccs.iter().enumerate() {
            for &s in &cc.states {
                assert_eq!(ids[s.index()], c as u32);
            }
        }
        let empty = NfaBuilder::new().build().unwrap();
        assert_eq!(component_ids(&empty), (Vec::new(), 0));
    }

    #[test]
    fn predecessor_ids_invert_edges() {
        let preds = predecessor_ids(&two_chains());
        assert_eq!(preds[0], Vec::<u32>::new());
        assert_eq!(preds[1], vec![0]);
        assert_eq!(preds[2], vec![1]);
        assert_eq!(preds[4], vec![3]);
    }

    #[test]
    fn stats_on_chains() {
        let s = stats(&two_chains());
        assert_eq!(s.num_components, 3);
        assert_eq!(s.largest_component, 3);
        assert_eq!(s.max_out_degree, 1);
        assert_eq!(s.max_in_degree, 1);
        assert!((s.avg_out_degree - 0.5).abs() < 1e-12);
        assert_eq!(s.diagonal_fraction, 1.0);
    }

    #[test]
    fn cycle_is_one_component() {
        let mut b = NfaBuilder::new();
        let x = b.add_ste(SymbolClass::singleton(b'x'));
        let y = b.add_ste(SymbolClass::singleton(b'y'));
        b.set_start(x, StartKind::AllInput);
        b.add_edge(x, y);
        b.add_edge(y, x);
        let nfa = b.build().unwrap();
        let ccs = connected_components(&nfa);
        assert_eq!(ccs.len(), 1);
        assert_eq!(ccs[0].num_edges, 2);
    }

    #[test]
    fn empty_nfa_stats() {
        let nfa = NfaBuilder::new().build().unwrap();
        let s = stats(&nfa);
        assert_eq!(s.num_components, 0);
        assert_eq!(s.largest_component, 0);
        assert_eq!(s.diagonal_fraction, 1.0);
    }
}
