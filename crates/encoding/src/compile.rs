//! Compiling an [`EncodingPlan`] into an executable plan: the bridge
//! from the encoding toolchain to the functional engines.
//!
//! [`EncodingPlan`] describes CAMA's datapath statically — the codebook
//! the input encoder holds and the CAM image of every state — and
//! `cama_arch` charges energy for exactly that layout. [`compile`]
//! closes the loop by lowering the same image into a
//! [`CompiledEncodedAutomaton`] the simulator executes: each match row
//! is the CAM search result of one code against every state's stored
//! entries (Negation Optimization inverter included), and the per-cycle
//! input path runs through [`EncodingPlan::encode_input`]'s codebook.
//!
//! Because the encoding is exact ([`EncodingPlan::verify_exact`]),
//! execution on the encoded plan is bit-identical to the byte plan —
//! asserted differentially across every scheme in `tests/property.rs`.
//! A symbol outside the codebook domain encodes to the reserved
//! out-of-domain row. That row holds exactly the negated states — but
//! whenever the toolchain leaves any symbol out of the domain, no state
//! is negated (a negated state forces the full-alphabet domain), so the
//! row is empty: such a symbol activates no state, and never panics the
//! engine.
//!
//! [`compile`]: EncodingPlan::compile

use crate::code::Code;
use crate::plan::EncodingPlan;
use cama_core::compiled::{
    CodebookSpec, CompiledEncodedAutomaton, ShardedAutomaton, ShardedEncodedAutomaton,
};
use cama_core::{Nfa, ALPHABET};

/// One encoding's codebook enumerated as dense rows — the code of row
/// `i` plus the symbol → row lookup (one row per in-domain symbol; codes
/// are unique per symbol by construction) — ready to be lent to the
/// compiled plans as a [`CodebookSpec`]. Both encoded flavours use it:
/// the 1-stride plan has one, each half of a 2-stride plan its own.
pub(crate) struct CodeRows<'p> {
    plan: &'p EncodingPlan,
    codes: Vec<Code>,
    symbol_row: Vec<Option<u16>>,
}

impl<'p> CodeRows<'p> {
    pub(crate) fn of(plan: &'p EncodingPlan) -> CodeRows<'p> {
        let mut codes = Vec::new();
        let mut symbol_row = vec![None; ALPHABET];
        for (symbol, code) in plan.codebook().assignments() {
            symbol_row[symbol as usize] = Some(codes.len() as u16);
            codes.push(code);
        }
        CodeRows {
            plan,
            codes,
            symbol_row,
        }
    }

    /// The closure bundle `compile_with` consumes. `global_of` maps the
    /// compiled automaton's (possibly shard-local) state index back to
    /// this encoding's state index.
    pub(crate) fn spec<'a>(&'a self, global_of: &'a dyn Fn(usize) -> usize) -> CodebookSpec<'a> {
        let state = move |local: usize| &self.plan.states()[global_of(local)];
        CodebookSpec {
            code_len: self.plan.code_len(),
            num_codes: self.codes.len(),
            encode: Box::new(move |symbol| self.symbol_row[symbol as usize]),
            matches: Box::new(move |local, row| {
                state(local).matches(row.map(|r| self.codes[r as usize]))
            }),
            entries: Box::new(move |local| state(local).num_entries() as u32),
            negated: Box::new(move |local| state(local).negated),
        }
    }
}

impl EncodingPlan {
    /// Lowers this encoding into an executable
    /// [`CompiledEncodedAutomaton`]: the per-cycle input path is the
    /// codebook lookup, and every match row is built by searching the
    /// row's code against each state's stored CAM entries.
    ///
    /// # Panics
    ///
    /// Panics if `nfa` is not the automaton this plan encoded (state
    /// counts differ).
    ///
    /// # Examples
    ///
    /// ```
    /// use cama_core::compiled::ExecutionPlan;
    /// use cama_core::regex;
    /// use cama_encoding::EncodingPlan;
    ///
    /// let nfa = regex::compile("(a|b)e*cd+")?;
    /// let encoding = EncodingPlan::for_nfa(&nfa);
    /// let compiled = encoding.compile(&nfa);
    /// assert_eq!(compiled.len(), nfa.len());
    /// assert_eq!(compiled.total_entries(), encoding.total_entries());
    /// // The match rows reproduce raw class membership exactly.
    /// for symbol in 0..=255u8 {
    ///     for (i, ste) in nfa.stes().iter().enumerate() {
    ///         assert_eq!(
    ///             compiled.match_vector(symbol).contains(i),
    ///             ste.class.contains(symbol)
    ///         );
    ///     }
    /// }
    /// # Ok::<(), cama_core::Error>(())
    /// ```
    pub fn compile(&self, nfa: &Nfa) -> CompiledEncodedAutomaton {
        assert_eq!(
            nfa.len(),
            self.states().len(),
            "the encoding plan does not cover this automaton"
        );
        CompiledEncodedAutomaton::compile_with(nfa, CodeRows::of(self).spec(&|state| state))
    }

    /// Lowers this encoding into a sharded executable plan: one
    /// [`CompiledEncodedAutomaton`] per shard over renumbered local
    /// state spaces, all sharing this plan's codebook — pass
    /// `Mapping::partition_of` from the architecture mapper so the
    /// functional shards *are* the partitions the energy model charges.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover `nfa`, or if
    /// `assignment.len() != nfa.len()`.
    pub fn compile_sharded(&self, nfa: &Nfa, assignment: &[u32]) -> ShardedEncodedAutomaton {
        assert_eq!(
            nfa.len(),
            self.states().len(),
            "the encoding plan does not cover this automaton"
        );
        let rows = CodeRows::of(self);
        ShardedAutomaton::compile_shards_with(nfa, assignment, |local_nfa, globals| {
            let global_of = |local: usize| globals[local] as usize;
            CompiledEncodedAutomaton::compile_with(local_nfa, rows.spec(&global_of))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cama_core::compiled::{CompiledAutomaton, ExecutionPlan};
    use cama_core::graph;
    use cama_core::regex;
    use cama_core::{NfaBuilder, StartKind, SteId, SymbolClass};

    /// Every (state, symbol) cell of the encoded plan's match rows must
    /// equal raw class membership — the compiled form of `verify_exact`.
    fn assert_rows_exact(nfa: &Nfa, encoding: &EncodingPlan) {
        let compiled = encoding.compile(nfa);
        let byte = CompiledAutomaton::compile(nfa);
        for symbol in 0..=255u8 {
            assert_eq!(
                compiled.match_vector(symbol).iter().collect::<Vec<_>>(),
                byte.match_vector(symbol).iter().collect::<Vec<_>>(),
                "symbol {symbol:#04x}"
            );
            assert_eq!(
                compiled.start_match(symbol).iter().collect::<Vec<_>>(),
                byte.start_match(symbol).iter().collect::<Vec<_>>(),
                "start row, symbol {symbol:#04x}"
            );
        }
    }

    #[test]
    fn compiled_rows_equal_byte_rows() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        let encoding = EncodingPlan::for_nfa(&nfa);
        encoding.verify_exact(&nfa).unwrap();
        assert_rows_exact(&nfa, &encoding);
    }

    #[test]
    fn negated_states_compile_exactly() {
        let mut b = NfaBuilder::new();
        let s = b.add_ste(!SymbolClass::singleton(b'\n'));
        b.set_start(s, StartKind::AllInput);
        b.set_report(s, 7);
        let nfa = b.build().unwrap();
        let encoding = EncodingPlan::for_nfa(&nfa);
        let compiled = encoding.compile(&nfa);
        assert_eq!(compiled.negated_states(), 1);
        assert!(compiled.is_negated(0));
        assert_rows_exact(&nfa, &encoding);
    }

    /// The satellite fix: a symbol absent from the codebook domain must
    /// encode to "no state matches" — never a panic — end to end.
    #[test]
    fn out_of_domain_symbol_matches_no_state() {
        let nfa = regex::compile("ab").unwrap();
        let encoding = EncodingPlan::for_nfa(&nfa);
        // 'z' has no code: the encoder lookup is None...
        assert!(encoding.encode_input(b'z').is_none());
        let compiled = encoding.compile(&nfa);
        // ...so the compiled encoder routes it to the reserved row,
        assert_eq!(compiled.encode(b'z'), None);
        assert_eq!(compiled.row_of_symbol(b'z') as usize, compiled.num_codes());
        // ...which matches nothing (the plan has no negated states).
        assert!(compiled.match_vector(b'z').is_empty());
        assert!(compiled.start_match(b'z').is_empty());
        // The byte plan agrees: 'z' belongs to no class.
        assert_rows_exact(&nfa, &encoding);
    }

    #[test]
    fn entry_and_negation_metadata_round_trip() {
        let mut b = NfaBuilder::new();
        let wide = b.add_ste(!SymbolClass::singleton(b'x'));
        let narrow = b.add_ste(SymbolClass::from_range(b'a', b'd'));
        b.set_start(wide, StartKind::AllInput);
        b.set_start(narrow, StartKind::AllInput);
        let nfa = b.build().unwrap();
        let encoding = EncodingPlan::for_nfa(&nfa);
        let compiled = encoding.compile(&nfa);
        assert_eq!(compiled.code_len(), encoding.code_len());
        assert_eq!(compiled.total_entries(), encoding.total_entries());
        assert_eq!(compiled.negated_states(), encoding.negated_states());
        for (i, state) in encoding.states().iter().enumerate() {
            assert_eq!(compiled.entries_of(i), state.num_entries() as u32);
            assert_eq!(compiled.is_negated(i), state.negated);
        }
    }

    #[test]
    fn sharded_compile_matches_flat_rows_and_weights() {
        let nfa = regex::compile_set(&["a[bc]+d", "x[^y]z"]).unwrap();
        let encoding = EncodingPlan::for_nfa(&nfa);
        let flat = encoding.compile(&nfa);
        let (ids, _) = graph::component_ids(&nfa);
        let sharded = encoding.compile_sharded(&nfa, &ids);
        assert_eq!(sharded.len(), nfa.len());
        let weights = sharded.entry_weights();
        for shard in sharded.shards() {
            for (local, &global) in shard.global_states().iter().enumerate() {
                let global = global as usize;
                for symbol in 0..=255u8 {
                    assert_eq!(
                        shard.plan().match_vector(symbol).contains(local),
                        flat.match_vector(symbol).contains(global),
                        "state {global} symbol {symbol}"
                    );
                }
                assert_eq!(shard.plan().entries_of(local), flat.entries_of(global));
                assert_eq!(weights[global], flat.entries_of(global).max(1));
                assert_eq!(
                    shard.plan().report_code(local),
                    nfa.ste(SteId(global as u32)).report
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn compiling_a_foreign_automaton_panics() {
        let nfa = regex::compile("ab").unwrap();
        let other = regex::compile("abc").unwrap();
        EncodingPlan::for_nfa(&nfa).compile(&other);
    }
}
