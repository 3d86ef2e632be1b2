//! The 2-stride encoding toolchain: one codebook per half of the pair
//! datapath.
//!
//! A 2-stride CAMA state matches the pair `(a, b)` with a two-segment
//! CAM entry — the concatenation of a code for `a` and a code for `b`
//! (§IV, Figure 13; cf. the banked arrays of Jarollahi et al.'s
//! clustered low-power CAM). Each segment is an independent instance of
//! the 1-stride encoding problem over its own alphabet: the *first*
//! classes of all strided states, and the *second* classes. A
//! [`StridedEncoding`] therefore runs the full [`EncodingPlan`]
//! pipeline twice — scheme selection, clustering, code assignment, and
//! negation-aware compression per half — and lowers the result into a
//! [`CompiledEncodedStridedAutomaton`] whose per-half code-indexed
//! match rows the strided engines execute directly.
//!
//! Because each half's encoding is exact
//! ([`verify_exact`](StridedEncoding::verify_exact)), execution on the
//! encoded strided plan is bit-identical to the byte strided plan —
//! asserted differentially across every scheme in `tests/property.rs`.

use crate::compile::CodeRows;
use crate::plan::EncodingPlan;
use crate::scheme::Scheme;
use cama_core::compiled::{
    CompiledEncodedStridedAutomaton, ShardedAutomaton, ShardedEncodedStridedAutomaton,
};
use cama_core::stride::{paired_entries, StridedNfa};
use cama_core::SymbolClass;

/// A complete 2-stride encoding: one [`EncodingPlan`] per half of the
/// pair, sharing the strided automaton's state space.
#[derive(Clone, Debug)]
pub struct StridedEncoding {
    first: EncodingPlan,
    second: EncodingPlan,
}

impl StridedEncoding {
    /// Runs the proposed pipeline independently on the two halves of a
    /// strided automaton.
    pub fn for_strided(nfa: &StridedNfa) -> Self {
        let (first, second) = half_classes(nfa);
        StridedEncoding {
            first: EncodingPlan::for_classes(&first),
            second: EncodingPlan::for_classes(&second),
        }
    }

    /// Encodes both halves with an explicit scheme (the Table II
    /// baselines, per half); `clustered` selects frequency-first
    /// clustering vs. plain symbol order.
    pub fn with_scheme(nfa: &StridedNfa, scheme: Scheme, clustered: bool) -> Self {
        let (first, second) = half_classes(nfa);
        StridedEncoding {
            first: EncodingPlan::with_scheme_classes(&first, scheme, clustered),
            second: EncodingPlan::with_scheme_classes(&second, scheme, clustered),
        }
    }

    /// Encodes both halves raw (no negation optimization).
    pub fn without_negation(nfa: &StridedNfa) -> Self {
        let (first, second) = half_classes(nfa);
        StridedEncoding {
            first: EncodingPlan::without_negation_classes(&first),
            second: EncodingPlan::without_negation_classes(&second),
        }
    }

    /// The first half's encoding plan.
    pub fn first(&self) -> &EncodingPlan {
        &self.first
    }

    /// The second half's encoding plan.
    pub fn second(&self) -> &EncodingPlan {
        &self.second
    }

    /// Total code length in bits: the width of the concatenated search
    /// word the two-segment CAM entry stores.
    pub fn code_len(&self) -> usize {
        self.first.code_len() + self.second.code_len()
    }

    /// Per-state slot weights for the strided mapper/energy model: the
    /// [`paired_entries`] of each state's two halves, the rule
    /// `cama_arch::strided_weights` also charges by. Equal to the
    /// executed plan's
    /// [`entry_weights`](CompiledEncodedStridedAutomaton::entry_weights).
    pub fn entry_weights(&self) -> Vec<u32> {
        self.first
            .states()
            .iter()
            .zip(self.second.states())
            .map(|(f, s)| paired_entries(f.num_entries(), s.num_entries()))
            .collect()
    }

    /// Checks that both halves encode exactly: for every strided state
    /// and every byte, each half's row output equals raw class
    /// membership.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching half and state.
    pub fn verify_exact(&self, nfa: &StridedNfa) -> Result<(), String> {
        let (first, second) = half_classes(nfa);
        self.first
            .verify_exact_classes(&first)
            .map_err(|e| format!("first half: {e}"))?;
        self.second
            .verify_exact_classes(&second)
            .map_err(|e| format!("second half: {e}"))
    }

    /// Lowers this encoding into an executable
    /// [`CompiledEncodedStridedAutomaton`]: per half, the per-cycle
    /// input path is the codebook lookup and every match row is built
    /// by searching the row's code against each state's stored entries
    /// for that half (inverters included).
    ///
    /// # Panics
    ///
    /// Panics if `nfa` is not the automaton this encoding covers (state
    /// counts differ).
    pub fn compile(&self, nfa: &StridedNfa) -> CompiledEncodedStridedAutomaton {
        self.assert_covers(nfa);
        let first = CodeRows::of(&self.first);
        let second = CodeRows::of(&self.second);
        CompiledEncodedStridedAutomaton::compile_with(
            nfa,
            first.spec(&|state| state),
            second.spec(&|state| state),
        )
    }

    /// Lowers this encoding into a sharded executable plan: one
    /// [`CompiledEncodedStridedAutomaton`] per shard over renumbered
    /// local state spaces, all sharing this encoding's two per-half
    /// codebooks — pass the strided mapper's `partition_of` so
    /// functional shards *are* the partitions the energy model charges.
    ///
    /// # Panics
    ///
    /// Panics if the encoding does not cover `nfa`, or if
    /// `assignment.len() != nfa.len()`.
    pub fn compile_sharded(
        &self,
        nfa: &StridedNfa,
        assignment: &[u32],
    ) -> ShardedEncodedStridedAutomaton {
        self.assert_covers(nfa);
        let first = CodeRows::of(&self.first);
        let second = CodeRows::of(&self.second);
        ShardedAutomaton::compile_shards_with(nfa, assignment, |local_nfa, globals| {
            let global_of = |local: usize| globals[local] as usize;
            CompiledEncodedStridedAutomaton::compile_with(
                local_nfa,
                first.spec(&global_of),
                second.spec(&global_of),
            )
        })
    }

    fn assert_covers(&self, nfa: &StridedNfa) {
        assert_eq!(
            nfa.len(),
            self.first.states().len(),
            "the strided encoding does not cover this automaton"
        );
    }
}

/// The two halves' class lists of a strided automaton, in state order.
fn half_classes(nfa: &StridedNfa) -> (Vec<SymbolClass>, Vec<SymbolClass>) {
    (
        nfa.states().iter().map(|s| s.first).collect(),
        nfa.states().iter().map(|s| s.second).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cama_core::compiled::{CompiledStridedAutomaton, StridedPlan};
    use cama_core::regex;

    /// Every (state, symbol, half) cell of the encoded plan's rows must
    /// equal raw class membership — the compiled form of
    /// `verify_exact`, checked against the byte strided plan.
    fn assert_rows_exact(strided: &cama_core::stride::StridedNfa, encoding: &StridedEncoding) {
        let compiled = encoding.compile(strided);
        let byte = CompiledStridedAutomaton::compile(strided);
        for sym in 0..=255u8 {
            assert_eq!(
                StridedPlan::first_vector(&compiled, sym),
                StridedPlan::first_vector(&byte, sym),
                "first half, symbol {sym:#04x}"
            );
            assert_eq!(
                StridedPlan::second_vector(&compiled, sym),
                StridedPlan::second_vector(&byte, sym),
                "second half, symbol {sym:#04x}"
            );
            assert_eq!(
                StridedPlan::first_start_match(&compiled, sym),
                StridedPlan::first_start_match(&byte, sym),
                "start row, symbol {sym:#04x}"
            );
        }
    }

    #[test]
    fn proposed_per_half_encoding_is_exact() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        let strided = cama_core::stride::StridedNfa::from_nfa(&nfa);
        let encoding = StridedEncoding::for_strided(&strided);
        encoding.verify_exact(&strided).unwrap();
        assert_rows_exact(&strided, &encoding);
        assert_eq!(
            encoding.code_len(),
            encoding.first().code_len() + encoding.second().code_len()
        );
    }

    #[test]
    fn negated_halves_compile_exactly() {
        // [^a] classes force Negation Optimization in both halves.
        let nfa = regex::compile("[^a][^b]+c").unwrap();
        let strided = cama_core::stride::StridedNfa::from_nfa(&nfa);
        for encoding in [
            StridedEncoding::for_strided(&strided),
            StridedEncoding::without_negation(&strided),
        ] {
            encoding.verify_exact(&strided).unwrap();
            assert_rows_exact(&strided, &encoding);
        }
    }

    #[test]
    fn explicit_schemes_are_exact_per_half() {
        use crate::scheme::Scheme;
        let nfa = regex::compile("x[0-9]+y").unwrap();
        let strided = cama_core::stride::StridedNfa::from_nfa(&nfa);
        // Odd-entry states carry FULL halves, so schemes must cover a
        // 256-symbol domain.
        for scheme in [
            Scheme::OneZero { len: 256 },
            Scheme::MultiZeros { len: 11 },
            Scheme::OneZeroPrefix {
                prefix: 16,
                suffix: 16,
            },
        ] {
            for clustered in [true, false] {
                let encoding = StridedEncoding::with_scheme(&strided, scheme, clustered);
                encoding.verify_exact(&strided).unwrap();
                assert_rows_exact(&strided, &encoding);
            }
        }
    }

    #[test]
    fn entry_weights_match_the_executed_plan() {
        let nfa = regex::compile_set(&["a[bc]+d", "x[^y]z"]).unwrap();
        let strided = cama_core::stride::StridedNfa::from_nfa(&nfa);
        let encoding = StridedEncoding::for_strided(&strided);
        let compiled = encoding.compile(&strided);
        assert_eq!(encoding.entry_weights(), compiled.entry_weights());
        for (state, (f, s)) in encoding
            .first()
            .states()
            .iter()
            .zip(encoding.second().states())
            .enumerate()
        {
            assert_eq!(
                compiled.half_entries_of(state),
                (f.num_entries() as u32, s.num_entries() as u32)
            );
        }
    }

    #[test]
    fn sharded_compile_matches_flat_rows_and_weights() {
        let nfa = regex::compile_set(&["a[bc]+d", "xy"]).unwrap();
        let strided = cama_core::stride::StridedNfa::from_nfa(&nfa);
        let encoding = StridedEncoding::for_strided(&strided);
        let flat = encoding.compile(&strided);
        let (ids, _) = cama_core::graph::component_ids(&strided);
        let sharded = encoding.compile_sharded(&strided, &ids);
        assert_eq!(sharded.len(), strided.len());
        assert_eq!(sharded.entry_weights(), flat.entry_weights());
        for shard in sharded.shards() {
            for (local, &global) in shard.global_states().iter().enumerate() {
                let global = global as usize;
                for sym in 0..=255u8 {
                    assert_eq!(
                        StridedPlan::first_vector(shard.plan(), sym).contains(local),
                        StridedPlan::first_vector(&flat, sym).contains(global),
                        "first, state {global} symbol {sym}"
                    );
                    assert_eq!(
                        StridedPlan::second_vector(shard.plan(), sym).contains(local),
                        StridedPlan::second_vector(&flat, sym).contains(global),
                        "second, state {global} symbol {sym}"
                    );
                }
                assert_eq!(
                    shard.plan().half_entries_of(local),
                    flat.half_entries_of(global)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn compiling_a_foreign_automaton_panics() {
        let nfa = regex::compile("ab").unwrap();
        let other = regex::compile("abc").unwrap();
        let strided = cama_core::stride::StridedNfa::from_nfa(&nfa);
        let other_strided = cama_core::stride::StridedNfa::from_nfa(&other);
        StridedEncoding::for_strided(&strided).compile(&other_strided);
    }
}
