//! The end-to-end optimization framework: scheme selection → clustering →
//! code assignment → negation-aware compression, for a whole automaton.
//!
//! [`EncodingPlan::for_nfa`] is the software toolchain the paper
//! describes in contribution (4): it analyzes a homogeneous NFA, picks
//! the encoding scheme and code length, and produces the CAM image
//! (entries per STE) that `cama-mem`/`cama-arch` load into the hardware
//! models.

use crate::clustering::ClassUsage;
use crate::code::{CamEntry, Code};
use crate::codebook::Codebook;
use crate::compress::{compress_class, verify_entries};
use crate::negation::{code_domain_of, stored_class, stored_classes_of};
use crate::scheme::{select, Scheme, Selection};
use cama_core::{Nfa, SteId, SymbolClass, ALPHABET};
use std::collections::HashMap;

/// The per-state classes of an automaton, in STE order.
fn nfa_classes(nfa: &Nfa) -> Vec<SymbolClass> {
    nfa.stes().iter().map(|ste| ste.class).collect()
}

/// The CAM image of one STE.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedState {
    /// The entries storing this state's (possibly negated) class.
    pub entries: Vec<CamEntry>,
    /// Whether the row output is inverted (Negation Optimization).
    pub negated: bool,
}

impl EncodedState {
    /// The row output for an encoded input symbol: any-entry CAM match,
    /// XOR the NO inverter. `None` is the reserved out-of-domain code,
    /// which (with the encoder's valid gating) matches no normal row and
    /// every inverted row.
    pub fn matches(&self, code: Option<Code>) -> bool {
        let raw = match code {
            Some(code) => self.entries.iter().any(|e| e.matches(Some(code))),
            None => false,
        };
        raw != self.negated
    }

    /// Number of CAM entries this state occupies.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }
}

/// A complete encoding of an automaton: scheme, codebook (= the input
/// encoder), and per-state CAM entries.
#[derive(Clone, Debug)]
pub struct EncodingPlan {
    selection: Selection,
    codebook: Codebook,
    states: Vec<EncodedState>,
}

impl EncodingPlan {
    /// Runs the full proposed pipeline on an automaton: Table I/II's
    /// "proposed encoding" column.
    pub fn for_nfa(nfa: &Nfa) -> Self {
        Self::for_classes(&nfa_classes(nfa))
    }

    /// [`for_nfa`](Self::for_nfa) over a bare list of symbol classes,
    /// one per state — the per-half entry point the strided toolchain
    /// uses ([`StridedEncoding`](crate::StridedEncoding) runs it once
    /// on the first classes and once on the second classes).
    pub fn for_classes(classes: &[SymbolClass]) -> Self {
        let domain = code_domain_of(classes);
        let stored = stored_classes_of(classes);
        let avg_no: f64 = if classes.is_empty() {
            0.0
        } else {
            stored.iter().map(SymbolClass::len).sum::<usize>() as f64 / classes.len() as f64
        };
        let selection = select(domain.len(), avg_no);
        let usage = ClassUsage::from_classes(&stored);
        let codebook = Codebook::build(selection.scheme, &domain, &usage);
        Self::encode_states(classes, selection, codebook, true)
    }

    /// Encodes with an explicit scheme; used for the Table II baselines.
    ///
    /// `clustered` selects frequency-first clustering vs. plain symbol
    /// order; negation optimization is applied either way.
    pub fn with_scheme(nfa: &Nfa, scheme: Scheme, clustered: bool) -> Self {
        Self::with_scheme_classes(&nfa_classes(nfa), scheme, clustered)
    }

    /// [`with_scheme`](Self::with_scheme) over a bare list of classes.
    pub fn with_scheme_classes(classes: &[SymbolClass], scheme: Scheme, clustered: bool) -> Self {
        let domain = code_domain_of(classes);
        let selection = Selection {
            scheme,
            wide: scheme.code_len() > 16,
        };
        let codebook = if clustered {
            let usage = ClassUsage::from_classes(&stored_classes_of(classes));
            Codebook::build(scheme, &domain, &usage)
        } else {
            Codebook::build_unclustered(scheme, &domain)
        };
        Self::encode_states(classes, selection, codebook, true)
    }

    /// Encodes every class raw (no negation optimization) — the
    /// "# CAM entries with raw symbol class" column of Table I.
    ///
    /// Uses One-Zero-Prefix sized for the raw classes so that even
    /// 255-symbol negated classes remain encodable.
    pub fn without_negation(nfa: &Nfa) -> Self {
        Self::without_negation_classes(&nfa_classes(nfa))
    }

    /// [`without_negation`](Self::without_negation) over a bare list of
    /// classes.
    pub fn without_negation_classes(classes: &[SymbolClass]) -> Self {
        let domain = code_domain_of(classes);
        let stored = stored_classes_of(classes);
        let usage = ClassUsage::from_classes(&stored);
        // Raw classes can be as large as the alphabet, so follow the
        // proposed selection computed from *raw* average sizes.
        let avg_raw: f64 = if classes.is_empty() {
            0.0
        } else {
            classes.iter().map(SymbolClass::len).sum::<usize>() as f64 / classes.len() as f64
        };
        let selection = select(domain.len(), avg_raw);
        let codebook = Codebook::build(selection.scheme, &domain, &usage);
        Self::encode_states(classes, selection, codebook, false)
    }

    fn encode_states(
        classes: &[SymbolClass],
        selection: Selection,
        codebook: Codebook,
        negation: bool,
    ) -> Self {
        let domain = codebook.domain();
        let full_domain = domain.len() == ALPHABET;
        // Compression is deterministic per (class, negated) pair; real
        // benchmarks repeat classes heavily, so memoize.
        let mut cache: HashMap<(SymbolClass, bool), Vec<CamEntry>> = HashMap::new();
        let mut compress_cached = |class: SymbolClass, book: &Codebook| -> Vec<CamEntry> {
            cache
                .entry((class, false))
                .or_insert_with(|| compress_class(&class, book))
                .clone()
        };

        let states = classes
            .iter()
            .map(|&class| {
                if !negation {
                    return EncodedState {
                        entries: compress_cached(class, &codebook),
                        negated: false,
                    };
                }
                let (stored, negated_by_size) = stored_class(&class);
                if negated_by_size {
                    return EncodedState {
                        entries: compress_cached(stored, &codebook),
                        negated: true,
                    };
                }
                let raw = compress_cached(class, &codebook);
                // Refinement: also try the negated form when it is
                // semantically safe (full domain — see `negation` docs)
                // and could plausibly win.
                if full_domain && class.len() > 1 {
                    let complement = !class;
                    let inverted = compress_cached(complement, &codebook);
                    if inverted.len() < raw.len() {
                        return EncodedState {
                            entries: inverted,
                            negated: true,
                        };
                    }
                }
                EncodedState {
                    entries: raw,
                    negated: false,
                }
            })
            .collect();

        EncodingPlan {
            selection,
            codebook,
            states,
        }
    }

    /// The selected scheme and mode.
    pub fn selection(&self) -> Selection {
        self.selection
    }

    /// The selected scheme.
    pub fn scheme(&self) -> Scheme {
        self.selection.scheme
    }

    /// The code length in bits.
    pub fn code_len(&self) -> usize {
        self.selection.scheme.code_len()
    }

    /// The codebook (the 256-entry input-encoder image).
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// Encodes one input symbol (the per-cycle encoder lookup).
    pub fn encode_input(&self, symbol: u8) -> Option<Code> {
        self.codebook.code(symbol)
    }

    /// The encoded states, indexed by STE id.
    pub fn states(&self) -> &[EncodedState] {
        &self.states
    }

    /// The CAM image of one state.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn state(&self, id: SteId) -> &EncodedState {
        &self.states[id.index()]
    }

    /// Total CAM entries across all states — the "# states" the paper's
    /// Tables I/II count.
    pub fn total_entries(&self) -> usize {
        self.states.iter().map(EncodedState::num_entries).sum()
    }

    /// Number of states using the NO inverter.
    pub fn negated_states(&self) -> usize {
        self.states.iter().filter(|s| s.negated).count()
    }

    /// State-matching memory bits: `code length × total entries`
    /// (Table II's memory-usage metric).
    pub fn memory_bits(&self) -> usize {
        self.code_len() * self.total_entries()
    }

    /// Checks encoding exactness (see "Modelling assumptions and
    /// invariants" in `docs/ARCHITECTURE.md`): for every STE and every
    /// possible input byte, the encoded row output equals raw class
    /// membership.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching state.
    pub fn verify_exact(&self, nfa: &Nfa) -> Result<(), String> {
        self.verify_exact_classes(&nfa_classes(nfa))
    }

    /// [`verify_exact`](Self::verify_exact) against a bare list of
    /// classes (one per encoded state) — used per half by the strided
    /// toolchain.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching state.
    pub fn verify_exact_classes(&self, classes: &[SymbolClass]) -> Result<(), String> {
        for (i, (class, encoded)) in classes.iter().zip(&self.states).enumerate() {
            for symbol in 0..=255u8 {
                let expected = class.contains(symbol);
                let actual = encoded.matches(self.codebook.code(symbol));
                if expected != actual {
                    return Err(format!(
                        "ste{i}: symbol {symbol:#04x} expected {expected}, got {actual} \
                         (class {}, {} entries, negated={})",
                        class,
                        encoded.entries.len(),
                        encoded.negated
                    ));
                }
            }
            // Spot-check the stored set against the compressor's oracle.
            let stored = if encoded.negated {
                !*class & self.codebook.domain()
            } else {
                *class
            };
            if verify_entries(&encoded.entries, &stored, &self.codebook).is_err() {
                return Err(format!("ste{i}: entries do not exactly cover {stored}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cama_core::regex;
    use cama_core::{NfaBuilder, StartKind};

    #[test]
    fn tiny_regex_uses_one_entry_per_state() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        let plan = EncodingPlan::for_nfa(&nfa);
        assert_eq!(plan.total_entries(), nfa.len());
        plan.verify_exact(&nfa).unwrap();
        // Five symbols: a One-Zero code of length 5 suffices.
        assert!(plan.code_len() <= 16);
    }

    #[test]
    fn negated_class_stores_complement() {
        let mut b = NfaBuilder::new();
        let s = b.add_ste(!SymbolClass::singleton(b'\n'));
        b.set_start(s, StartKind::AllInput);
        let nfa = b.build().unwrap();
        let plan = EncodingPlan::for_nfa(&nfa);
        let state = plan.state(SteId(0));
        assert!(state.negated);
        assert_eq!(state.num_entries(), 1);
        plan.verify_exact(&nfa).unwrap();
    }

    #[test]
    fn without_negation_uses_more_entries() {
        let mut b = NfaBuilder::new();
        for _ in 0..4 {
            let s = b.add_ste(!SymbolClass::singleton(b'x'));
            b.set_start(s, StartKind::AllInput);
        }
        let nfa = b.build().unwrap();
        let with_no = EncodingPlan::for_nfa(&nfa);
        let without = EncodingPlan::without_negation(&nfa);
        assert!(without.total_entries() > with_no.total_entries());
        with_no.verify_exact(&nfa).unwrap();
        without.verify_exact(&nfa).unwrap();
    }

    #[test]
    fn fixed_32bit_baseline_is_exact_but_longer() {
        let nfa = regex::compile("[a-p][q-z]+[0-9]").unwrap();
        let baseline = EncodingPlan::with_scheme(
            &nfa,
            Scheme::OneZeroPrefix {
                prefix: 16,
                suffix: 16,
            },
            false,
        );
        baseline.verify_exact(&nfa).unwrap();
        assert_eq!(baseline.code_len(), 32);
        let proposed = EncodingPlan::for_nfa(&nfa);
        proposed.verify_exact(&nfa).unwrap();
        assert!(proposed.code_len() <= baseline.code_len());
    }

    #[test]
    fn memory_bits_accounting() {
        let nfa = regex::compile("ab").unwrap();
        let plan = EncodingPlan::for_nfa(&nfa);
        assert_eq!(plan.memory_bits(), plan.code_len() * plan.total_entries());
    }

    #[test]
    fn encoder_rejects_out_of_domain_symbols() {
        let nfa = regex::compile("ab").unwrap();
        let plan = EncodingPlan::for_nfa(&nfa);
        assert!(plan.encode_input(b'a').is_some());
        assert!(plan.encode_input(b'z').is_none());
        // And no state matches the reserved code.
        for state in plan.states() {
            assert!(!state.matches(None) || state.negated);
        }
    }

    #[test]
    fn exactness_over_random_nfas() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let mut b = NfaBuilder::new();
            let n = rng.random_range(3..20);
            for _ in 0..n {
                let size = rng.random_range(1..=255usize);
                let mut class = SymbolClass::EMPTY;
                while class.len() < size.min(40) {
                    class.insert(rng.random());
                }
                // Occasionally take a complement to exercise NO.
                let class = if rng.random_bool(0.3) { !class } else { class };
                let id = b.add_ste(class);
                b.set_start(id, StartKind::AllInput);
            }
            let nfa = b.build().unwrap();
            let plan = EncodingPlan::for_nfa(&nfa);
            plan.verify_exact(&nfa).unwrap();
        }
    }
}
