//! The homogeneous (ANML-style) non-deterministic finite automaton.
//!
//! In a homogeneous NFA every incoming transition of a state carries the
//! same symbol class, so the class can be attached to the state itself.
//! The paper calls such states *state transition elements* (STEs); this is
//! the automaton model used by the Micron AP, Cache Automaton, Impala,
//! eAP, and CAMA alike.

use crate::error::{Error, Result};
use crate::symbol::SymbolClass;
use std::fmt;

/// Identifier of a state-transition element inside one [`Nfa`].
///
/// Ids are dense indices: `0..nfa.len()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SteId(pub u32);

impl SteId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ste{}", self.0)
    }
}

impl From<u32> for SteId {
    fn from(raw: u32) -> Self {
        SteId(raw)
    }
}

/// When a state is self-enabling (an ANML start state).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum StartKind {
    /// Not a start state: only enabled by a predecessor's activation.
    #[default]
    None,
    /// Enabled on every input symbol (ANML `start="all-input"`), the
    /// common choice for unanchored pattern scanning.
    AllInput,
    /// Enabled only for the first input symbol (ANML
    /// `start="start-of-data"`), i.e. an anchored pattern.
    StartOfData,
}

impl StartKind {
    /// Returns `true` for either start flavor.
    pub fn is_start(self) -> bool {
        self != StartKind::None
    }
}

/// One state-transition element.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Ste {
    /// The symbol class this STE matches against the input.
    pub class: SymbolClass,
    /// Whether (and how) the STE self-enables.
    pub start: StartKind,
    /// Report code emitted when the STE is active; `None` for
    /// non-reporting states.
    pub report: Option<u32>,
}

impl Ste {
    /// Creates a plain, non-start, non-reporting STE.
    pub fn new(class: SymbolClass) -> Self {
        Ste {
            class,
            start: StartKind::None,
            report: None,
        }
    }

    /// Returns `true` if the STE reports when active.
    pub fn is_reporting(&self) -> bool {
        self.report.is_some()
    }
}

/// An immutable homogeneous NFA: STEs plus an activation graph.
///
/// Build one with [`NfaBuilder`], the regex compiler, or the ANML/MNRL
/// readers.
///
/// # Examples
///
/// ```
/// use cama_core::{NfaBuilder, StartKind, SymbolClass};
///
/// // (a|b) d  — two alternatives feeding one reporting state
/// let mut builder = NfaBuilder::new();
/// let a = builder.add_ste(SymbolClass::singleton(b'a'));
/// let b = builder.add_ste(SymbolClass::singleton(b'b'));
/// let d = builder.add_ste(SymbolClass::singleton(b'd'));
/// builder.set_start(a, StartKind::AllInput);
/// builder.set_start(b, StartKind::AllInput);
/// builder.set_report(d, 0);
/// builder.add_edge(a, d);
/// builder.add_edge(b, d);
/// let nfa = builder.build()?;
/// assert_eq!(nfa.len(), 3);
/// assert_eq!(nfa.num_edges(), 2);
/// # Ok::<(), cama_core::Error>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Nfa {
    stes: Vec<Ste>,
    /// Flattened adjacency: `out[offsets[i]..offsets[i+1]]` are the
    /// successors of STE `i`, sorted and deduplicated.
    out: Vec<SteId>,
    offsets: Vec<u32>,
    name: String,
}

impl Nfa {
    /// Number of STEs.
    pub fn len(&self) -> usize {
        self.stes.len()
    }

    /// Returns `true` if the automaton has no states.
    pub fn is_empty(&self) -> bool {
        self.stes.is_empty()
    }

    /// Total number of activation edges.
    pub fn num_edges(&self) -> usize {
        self.out.len()
    }

    /// The automaton's name (from ANML/MNRL, or set at build time).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Borrows the STE with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ste(&self, id: SteId) -> &Ste {
        &self.stes[id.index()]
    }

    /// All STEs in id order.
    pub fn stes(&self) -> &[Ste] {
        &self.stes
    }

    /// Successor ids of `id` (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn successors(&self, id: SteId) -> &[SteId] {
        let i = id.index();
        &self.out[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates `(from, to)` over every edge.
    pub fn edges(&self) -> impl Iterator<Item = (SteId, SteId)> + '_ {
        (0..self.len()).flat_map(move |i| {
            let from = SteId(i as u32);
            self.successors(from).iter().map(move |&to| (from, to))
        })
    }

    /// Ids of all start states (either kind).
    pub fn start_states(&self) -> impl Iterator<Item = SteId> + '_ {
        self.stes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.start.is_start())
            .map(|(i, _)| SteId(i as u32))
    }

    /// Ids of all reporting states.
    pub fn reporting_states(&self) -> impl Iterator<Item = SteId> + '_ {
        self.stes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_reporting())
            .map(|(i, _)| SteId(i as u32))
    }

    /// The alphabet actually used: the union of all symbol classes.
    ///
    /// Table I of the paper reports `|alphabet|` per benchmark (256 for
    /// most, 2 for BlockRings, 114 for ExactMatch, …).
    pub fn alphabet(&self) -> SymbolClass {
        let mut alphabet = SymbolClass::EMPTY;
        for ste in &self.stes {
            alphabet = alphabet | ste.class;
        }
        alphabet
    }

    /// Decomposes the automaton into a new [`NfaBuilder`] for editing.
    pub fn into_builder(self) -> NfaBuilder {
        let mut builder = NfaBuilder::with_name(self.name.clone());
        for ste in &self.stes {
            let id = builder.add_ste(ste.class);
            builder.set_start(id, ste.start);
            if let Some(code) = ste.report {
                builder.set_report(id, code);
            }
        }
        for (from, to) in self.edges() {
            builder.add_edge(from, to);
        }
        builder
    }
}

/// Incremental constructor for [`Nfa`].
#[derive(Clone, Debug, Default)]
pub struct NfaBuilder {
    stes: Vec<Ste>,
    edges: Vec<(SteId, SteId)>,
    name: String,
}

impl NfaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder for a named automaton.
    pub fn with_name(name: impl Into<String>) -> Self {
        NfaBuilder {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Number of STEs added so far.
    pub fn len(&self) -> usize {
        self.stes.len()
    }

    /// Returns `true` if no STE has been added.
    pub fn is_empty(&self) -> bool {
        self.stes.is_empty()
    }

    /// Adds an STE with the given symbol class and returns its id.
    pub fn add_ste(&mut self, class: SymbolClass) -> SteId {
        let id = SteId(self.stes.len() as u32);
        self.stes.push(Ste::new(class));
        id
    }

    /// Sets the start kind of an existing STE.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_start(&mut self, id: SteId, start: StartKind) -> &mut Self {
        self.stes[id.index()].start = start;
        self
    }

    /// Marks an existing STE as reporting with the given report code.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_report(&mut self, id: SteId, code: u32) -> &mut Self {
        self.stes[id.index()].report = Some(code);
        self
    }

    /// Adds an activation edge `from -> to`. Duplicates are merged at
    /// [`build`](Self::build) time.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn add_edge(&mut self, from: SteId, to: SteId) -> &mut Self {
        assert!(from.index() < self.stes.len(), "edge source out of range");
        assert!(to.index() < self.stes.len(), "edge target out of range");
        self.edges.push((from, to));
        self
    }

    /// Finalizes the automaton.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAutomaton`] if any STE has an empty symbol
    /// class, or if a state is unreachable from every start state while
    /// not being a start state itself (dead hardware that the mapper
    /// would silently waste).
    pub fn build(self) -> Result<Nfa> {
        self.build_with_options(BuildOptions::default())
    }

    /// Finalizes the automaton with explicit validity options.
    ///
    /// # Errors
    ///
    /// See [`build`](Self::build); checks can be individually disabled.
    pub fn build_with_options(mut self, options: BuildOptions) -> Result<Nfa> {
        if options.reject_empty_classes {
            for (i, ste) in self.stes.iter().enumerate() {
                if ste.class.is_empty() {
                    return Err(Error::InvalidAutomaton(format!(
                        "ste{i} has an empty symbol class"
                    )));
                }
            }
        }

        self.edges.sort_unstable();
        self.edges.dedup();

        let n = self.stes.len();
        let mut offsets = vec![0u32; n + 1];
        for &(from, _) in &self.edges {
            offsets[from.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let out: Vec<SteId> = self.edges.iter().map(|&(_, to)| to).collect();

        let nfa = Nfa {
            stes: self.stes,
            out,
            offsets,
            name: self.name,
        };

        if options.reject_unreachable {
            let reachable = reachable_from_starts(&nfa);
            if let Some(dead) = (0..n).find(|&i| !reachable[i]) {
                return Err(Error::InvalidAutomaton(format!(
                    "ste{dead} is unreachable from any start state"
                )));
            }
        }
        Ok(nfa)
    }
}

/// Validity checks applied by [`NfaBuilder::build_with_options`].
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Reject STEs whose symbol class is empty (default `true`).
    pub reject_empty_classes: bool,
    /// Reject states unreachable from every start state (default `false`;
    /// synthetic workloads and partial parses may legitimately contain
    /// them).
    pub reject_unreachable: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            reject_empty_classes: true,
            reject_unreachable: false,
        }
    }
}

fn reachable_from_starts(nfa: &Nfa) -> Vec<bool> {
    let mut seen = vec![false; nfa.len()];
    let mut stack: Vec<SteId> = nfa.start_states().collect();
    for &s in &stack {
        seen[s.index()] = true;
    }
    while let Some(id) = stack.pop() {
        for &next in nfa.successors(id) {
            if !seen[next.index()] {
                seen[next.index()] = true;
                stack.push(next);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(symbols: &[u8]) -> Nfa {
        let mut builder = NfaBuilder::new();
        let ids: Vec<SteId> = symbols
            .iter()
            .map(|&s| builder.add_ste(SymbolClass::singleton(s)))
            .collect();
        builder.set_start(ids[0], StartKind::AllInput);
        builder.set_report(*ids.last().unwrap(), 7);
        for pair in ids.windows(2) {
            builder.add_edge(pair[0], pair[1]);
        }
        builder.build().unwrap()
    }

    #[test]
    fn build_simple_chain() {
        let nfa = chain(b"abc");
        assert_eq!(nfa.len(), 3);
        assert_eq!(nfa.num_edges(), 2);
        assert_eq!(nfa.successors(SteId(0)), &[SteId(1)]);
        assert_eq!(nfa.successors(SteId(2)), &[]);
        assert_eq!(nfa.start_states().collect::<Vec<_>>(), vec![SteId(0)]);
        assert_eq!(nfa.reporting_states().collect::<Vec<_>>(), vec![SteId(2)]);
        assert_eq!(nfa.ste(SteId(2)).report, Some(7));
    }

    #[test]
    fn duplicate_edges_are_merged() {
        let mut builder = NfaBuilder::new();
        let a = builder.add_ste(SymbolClass::singleton(b'a'));
        let b = builder.add_ste(SymbolClass::singleton(b'b'));
        builder.set_start(a, StartKind::AllInput);
        builder.add_edge(a, b);
        builder.add_edge(a, b);
        let nfa = builder.build().unwrap();
        assert_eq!(nfa.num_edges(), 1);
    }

    #[test]
    fn empty_class_is_rejected() {
        let mut builder = NfaBuilder::new();
        let a = builder.add_ste(SymbolClass::EMPTY);
        builder.set_start(a, StartKind::AllInput);
        assert!(matches!(builder.build(), Err(Error::InvalidAutomaton(_))));
    }

    #[test]
    fn unreachable_state_detection_is_optional() {
        let mut builder = NfaBuilder::new();
        let a = builder.add_ste(SymbolClass::singleton(b'a'));
        let _orphan = builder.add_ste(SymbolClass::singleton(b'b'));
        builder.set_start(a, StartKind::AllInput);
        let lenient = builder.clone().build();
        assert!(lenient.is_ok());
        let strict = builder.build_with_options(BuildOptions {
            reject_unreachable: true,
            ..BuildOptions::default()
        });
        assert!(strict.is_err());
    }

    #[test]
    fn alphabet_is_union_of_classes() {
        let nfa = chain(b"ab");
        let alphabet = nfa.alphabet();
        assert_eq!(alphabet.len(), 2);
        assert!(alphabet.contains(b'a') && alphabet.contains(b'b'));
    }

    #[test]
    fn edges_iterator_matches_successors() {
        let nfa = chain(b"abcd");
        let edges: Vec<_> = nfa.edges().collect();
        assert_eq!(
            edges,
            vec![
                (SteId(0), SteId(1)),
                (SteId(1), SteId(2)),
                (SteId(2), SteId(3))
            ]
        );
    }

    #[test]
    fn into_builder_roundtrips() {
        let nfa = chain(b"xyz");
        let rebuilt = nfa.clone().into_builder().build().unwrap();
        assert_eq!(nfa, rebuilt);
    }

    #[test]
    fn ste_display() {
        assert_eq!(SteId(12).to_string(), "ste12");
        assert_eq!(SteId::from(3u32), SteId(3));
    }

    #[test]
    fn start_kind_queries() {
        assert!(StartKind::AllInput.is_start());
        assert!(StartKind::StartOfData.is_start());
        assert!(!StartKind::None.is_start());
        assert_eq!(StartKind::default(), StartKind::None);
    }
}
