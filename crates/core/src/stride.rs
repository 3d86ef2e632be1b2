//! Multi-stride transformation: rewrite an NFA so that it consumes two
//! symbols per cycle (alphabet squaring, after Becchi & Crowley).
//!
//! Strided execution doubles throughput at the cost of more states. For
//! a homogeneous NFA the natural 2-stride unit is the *edge*: a strided
//! state `e(u,v)` matches the pair `(a, b)` when `a ∈ class(u)`,
//! `b ∈ class(v)` and `u -> v` is an edge — a *rectangle*
//! `class(u) × class(v)` over the squared alphabet. Start states gain
//! odd-phase entry states (a match may begin on the second symbol of a
//! pair) and reporting states gain even-phase report states (a match may
//! end on the first symbol of a pair).
//!
//! The paper evaluates 2-stride CAMA (64×256 match CAM, 256×256 local
//! switch) against 4-stride Impala in Figure 13; this module provides
//! the strided automaton both of those models execute. Once built, a
//! [`StridedNfa`] is just another state graph: it implements
//! [`Automaton`], so the component split, structure hash, shard builder,
//! cached ruleset compiler and remap are the byte automaton's own.

use crate::compiled::CompiledStridedAutomaton;
use crate::graph::{self, Automaton};
use crate::nfa::{Nfa, StartKind, SteId};
use crate::symbol::SymbolClass;

/// Which symbol of the pair a strided report corresponds to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReportPhase {
    /// The original match ended on the first symbol of the pair
    /// (original offset `2p`).
    First,
    /// The original match ended on the second symbol (offset `2p + 1`).
    Second,
}

/// One state of a 2-strided automaton: a rectangle over symbol pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StridedSte {
    /// Accept set for the first symbol of the pair.
    pub first: SymbolClass,
    /// Accept set for the second symbol of the pair.
    pub second: SymbolClass,
    /// Self-enabling behaviour, in pair cycles.
    pub start: StartKind,
    /// Report code and phase, if reporting.
    pub report: Option<(u32, ReportPhase)>,
}

impl StridedSte {
    /// Returns `true` if the state matches the pair `(a, b)`.
    pub fn matches(&self, a: u8, b: u8) -> bool {
        self.first.contains(a) && self.second.contains(b)
    }
}

/// CAM entries one 2-stride state occupies in the two-segment match
/// CAM, given each half's entry count: one concatenated entry per
/// (first entry, second entry) combination, each half counting at least
/// one, capped at the 64-entry per-state budget the strided mapper packs
/// with. The one rule the executed plan, the encoding toolchain and the
/// Figure 13 energy model all charge by.
///
/// # Examples
///
/// ```
/// use cama_core::stride::paired_entries;
///
/// assert_eq!(paired_entries(3, 0), 3);
/// assert_eq!(paired_entries(10, 9), 64);
/// ```
pub fn paired_entries(first: usize, second: usize) -> u32 {
    const BUDGET: usize = 64;
    first.max(1).saturating_mul(second.max(1)).min(BUDGET) as u32
}

/// A homogeneous NFA over the squared alphabet (pairs of bytes).
#[derive(Clone, Debug)]
pub struct StridedNfa {
    states: Vec<StridedSte>,
    successors: Vec<Vec<u32>>,
    name: String,
}

impl StridedNfa {
    /// Number of strided states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if the automaton has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.successors.iter().map(Vec::len).sum()
    }

    /// The automaton's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Borrows a strided state.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn state(&self, index: usize) -> &StridedSte {
        &self.states[index]
    }

    /// All states in index order.
    pub fn states(&self) -> &[StridedSte] {
        &self.states
    }

    /// Successor indices of a state.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn successors(&self, index: usize) -> &[u32] {
        &self.successors[index]
    }

    /// Builds the 2-stride automaton for `nfa`.
    ///
    /// The construction creates:
    ///
    /// * one *edge state* `e(u,v)` per original edge;
    /// * one *odd-entry state* per `all-input` start (a match beginning on
    ///   the second symbol of a pair);
    /// * one *even-report state* per reporting state (a match ending on
    ///   the first symbol of a pair).
    ///
    /// Inputs of odd length are handled by the strided simulator padding
    /// convention (see `cama-sim`).
    pub fn from_nfa(nfa: &Nfa) -> StridedNfa {
        Builder::new(nfa).build()
    }
}

/// Strided automata lay each component out in ascending id order;
/// equal sizes keep discovery order (by lowest member id).
impl Automaton for StridedNfa {
    type Plan = CompiledStridedAutomaton;

    fn len(&self) -> usize {
        self.states.len()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn successor_ids(&self, state: usize) -> impl Iterator<Item = u32> + '_ {
        self.successors[state].iter().copied()
    }

    fn components(&self) -> Vec<Vec<u32>> {
        let mut components = graph::component_members(self, &graph::predecessor_ids(self));
        components.sort_by_key(|members| std::cmp::Reverse(members.len()));
        components
    }

    /// Both halves' class words, the start kind, and the report code
    /// tagged with its phase.
    fn state_words(&self, state: usize) -> impl Iterator<Item = u64> + '_ {
        let ste = &self.states[state];
        let report = ste.report.map_or(0, |(code, phase)| {
            (u64::from(code) + 1) << 2 | (phase as u64 + 1)
        });
        let words = ste.first.as_words().iter().chain(ste.second.as_words());
        words.copied().chain([ste.start as u64, report])
    }

    fn extract(&self, name: String, states: &[u32], edges: &[(u32, u32)]) -> StridedNfa {
        let mut successors = vec![Vec::new(); states.len()];
        for &(from, to) in edges {
            assert!((to as usize) < states.len(), "successor out of range");
            successors[from as usize].push(to);
        }
        StridedNfa {
            states: states
                .iter()
                .map(|&g| self.states[g as usize].clone())
                .collect(),
            successors,
            name,
        }
    }

    fn compile_plan(&self) -> CompiledStridedAutomaton {
        CompiledStridedAutomaton::compile(self)
    }
}

struct Builder<'a> {
    nfa: &'a Nfa,
    states: Vec<StridedSte>,
    successors: Vec<Vec<u32>>,
    /// Strided states with first-component `u`, per original state.
    by_first: Vec<Vec<u32>>,
    /// `edge_state[edge index]` — parallel to `nfa.edges()` iteration.
    edge_states: Vec<(SteId, SteId, u32)>,
    /// Even-phase report state per original reporting state.
    report_states: Vec<(SteId, u32)>,
}

impl<'a> Builder<'a> {
    fn new(nfa: &'a Nfa) -> Self {
        Builder {
            nfa,
            states: Vec::new(),
            successors: Vec::new(),
            by_first: vec![Vec::new(); nfa.len()],
            edge_states: Vec::new(),
            report_states: Vec::new(),
        }
    }

    fn add_state(&mut self, state: StridedSte) -> u32 {
        let id = self.states.len() as u32;
        self.states.push(state);
        self.successors.push(Vec::new());
        id
    }

    fn build(mut self) -> StridedNfa {
        // Edge states e(u, v).
        for (u, v) in self.nfa.edges() {
            let v_ste = self.nfa.ste(v);
            let state = StridedSte {
                first: self.nfa.ste(u).class,
                second: v_ste.class,
                start: self.nfa.ste(u).start,
                report: v_ste.report.map(|code| (code, ReportPhase::Second)),
            };
            let id = self.add_state(state);
            self.by_first[u.index()].push(id);
            self.edge_states.push((u, v, id));
        }

        // Even-phase report states r(w).
        let reporting: Vec<SteId> = self.nfa.reporting_states().collect();
        for w in reporting {
            let ste = self.nfa.ste(w);
            let code = ste.report.expect("reporting state has a code");
            let id = self.add_state(StridedSte {
                first: ste.class,
                second: SymbolClass::FULL,
                start: ste.start,
                report: Some((code, ReportPhase::First)),
            });
            self.by_first[w.index()].push(id);
            self.report_states.push((w, id));
        }

        // Odd-entry states s(u) for all-input starts: the match begins on
        // the second symbol of a pair.
        let starts: Vec<SteId> = self
            .nfa
            .start_states()
            .filter(|&s| self.nfa.ste(s).start == StartKind::AllInput)
            .collect();
        let mut odd_entries = Vec::new();
        for u in starts {
            let ste = self.nfa.ste(u);
            let id = self.add_state(StridedSte {
                first: SymbolClass::FULL,
                second: ste.class,
                start: StartKind::AllInput,
                report: ste.report.map(|code| (code, ReportPhase::Second)),
            });
            odd_entries.push((u, id));
        }

        // Transitions. A strided state whose pair ends with original state
        // `v` active enables, for every `w ∈ succ(v)`, all strided states
        // with first-component `w`.
        let edges: Vec<(SteId, SteId, u32)> = self.edge_states.clone();
        for (_, v, id) in edges {
            self.connect_from_second(id, v);
        }
        for (u, id) in odd_entries {
            self.connect_from_second(id, u);
        }

        for successors in &mut self.successors {
            successors.sort_unstable();
            successors.dedup();
        }

        StridedNfa {
            states: self.states,
            successors: self.successors,
            name: format!("{}-2stride", self.nfa.name()),
        }
    }

    /// Wires `id -> every strided state whose first component is a
    /// successor of `v``.
    fn connect_from_second(&mut self, id: u32, v: SteId) {
        let mut targets = Vec::new();
        for &w in self.nfa.successors(v) {
            targets.extend(self.by_first[w.index()].iter().copied());
        }
        self.successors[id as usize].extend(targets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex;

    #[test]
    fn sizes_for_chain() {
        // abc: edges a->b, b->c; reports on c; start on a.
        let nfa = regex::compile("abc").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        // 2 edge states + 1 report state + 1 odd-entry state.
        assert_eq!(strided.len(), 4);
        assert!(!strided.is_empty());
        assert_eq!(strided.name(), "regex-2stride");
    }

    #[test]
    fn edge_state_rectangles() {
        let nfa = regex::compile("ab").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let edge = strided
            .states()
            .iter()
            .find(|s| s.report.map(|(_, p)| p) == Some(ReportPhase::Second) && !s.first.is_full())
            .expect("edge state exists");
        assert!(edge.matches(b'a', b'b'));
        assert!(!edge.matches(b'a', b'c'));
        assert!(!edge.matches(b'x', b'b'));
    }

    #[test]
    fn report_phases_present() {
        let nfa = regex::compile("ab").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let phases: Vec<ReportPhase> = strided
            .states()
            .iter()
            .filter_map(|s| s.report.map(|(_, p)| p))
            .collect();
        assert!(phases.contains(&ReportPhase::First));
        assert!(phases.contains(&ReportPhase::Second));
    }

    #[test]
    fn self_loop_strides_to_self_loop() {
        let nfa = regex::compile("ad+").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        // e(d,d) must be its own successor.
        let (idx, _) = strided
            .states()
            .iter()
            .enumerate()
            .find(|(_, s)| s.first.contains(b'd') && s.second.contains(b'd') && !s.first.is_full())
            .expect("d,d edge state");
        assert!(strided.successors(idx).contains(&(idx as u32)));
    }

    #[test]
    fn anchored_start_has_no_odd_entry() {
        use crate::regex::{compile_ast, parse, CompileOptions};
        let ast = parse("ab").unwrap();
        let nfa = compile_ast(
            &ast,
            CompileOptions {
                anchored: true,
                report_code: 0,
            },
        )
        .unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        // Edge state + report state only: anchored patterns cannot begin
        // mid-pair.
        assert_eq!(strided.len(), 2);
        assert!(strided
            .states()
            .iter()
            .all(|s| s.start != StartKind::AllInput));
    }
}
