//! The encoding-aware cycle engine: executing on the CAM codebook the
//! energy model charges for.
//!
//! The byte engine ([`Simulator`](crate::Simulator)) matches raw 8-bit
//! symbols against a 256-row table. CAMA's hardware never does that:
//! every streaming symbol first passes through the 256×32 SRAM *input
//! encoder* and the CAM arrays search the resulting code against the
//! states' stored entries (Classic/2S schemes, clustering, negation).
//! [`EncodedSimulator`] executes exactly that datapath in software: its
//! [`CompiledEncodedAutomaton`] plan holds one match row per *code*
//! (each row derived from the actual encoded entry masks, inverters
//! included) plus the encoder lookup, and the per-cycle step is the
//! same word-level loop the byte engine runs — so results are
//! bit-identical to the byte plan whenever the encoding is exact, which
//! `tests/property.rs` asserts differentially for every scheme.
//!
//! A symbol outside the codebook domain encodes to the reserved
//! out-of-domain row. In the toolchain's encodings that row is always
//! empty — a negated state (whose inverter would accept the reserved
//! word) forces the full-alphabet domain, so out-of-domain symbols only
//! exist when nothing is negated: the engine keeps streaming (no
//! panic), it simply activates nothing for that cycle.
//!
//! [`EncodedSession`] is the [`Session`](crate::Session) type —
//! literally [`FlatSession`] instantiated with the encoded plan, so
//! chunked feeding, suspend/resume, and the
//! [`BatchSimulator`](crate::BatchSimulator) stream table all work
//! unchanged.

use crate::engine::{Engine, FlatSession};
use cama_core::compiled::CompiledEncodedAutomaton;
use cama_core::Nfa;
use cama_encoding::EncodingPlan;

/// A streaming session over a [`CompiledEncodedAutomaton`]: the same
/// stepping loop as the byte session, driven through the input-encoder
/// lookup.
pub type EncodedSession<'p> = FlatSession<'p, CompiledEncodedAutomaton>;

/// A cycle-by-cycle simulator executing on an encoded plan: encodes the
/// automaton with the paper's toolchain (or an explicit
/// [`EncodingPlan`]), lowers the CAM image into a
/// [`CompiledEncodedAutomaton`], and runs streams on it ([`Engine`]
/// over the encoded plan).
///
/// # Examples
///
/// ```
/// use cama_core::regex;
/// use cama_sim::{EncodedSimulator, Simulator};
///
/// let nfa = regex::compile("ab+")?;
/// let mut sim = EncodedSimulator::new(&nfa);
/// let result = sim.run(b"zabbz");
/// assert_eq!(result.report_offsets(), vec![2, 3]);
/// // Bit-identical to the byte engine.
/// assert_eq!(result, Simulator::new(&nfa).run(b"zabbz"));
/// # Ok::<(), cama_core::Error>(())
/// ```
pub type EncodedSimulator<'a> = Engine<'a, CompiledEncodedAutomaton, Nfa, EncodingPlan>;

impl<'a> EncodedSimulator<'a> {
    /// Runs the full proposed encoding pipeline on `nfa`
    /// ([`EncodingPlan::for_nfa`]) and compiles the executable plan.
    pub fn new(nfa: &'a Nfa) -> Self {
        Self::with_encoding(nfa, EncodingPlan::for_nfa(nfa))
    }

    /// Uses an explicit encoding (e.g. one of the Table II baselines
    /// from [`EncodingPlan::with_scheme`], or a plan shared with the
    /// architecture models).
    ///
    /// # Panics
    ///
    /// Panics if `encoding` does not cover `nfa`.
    pub fn with_encoding(nfa: &'a Nfa, encoding: EncodingPlan) -> Self {
        let plan = encoding.compile(nfa);
        Engine::from_parts(nfa, plan, encoding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AutomataEngine, Session, Simulator};
    use cama_core::regex;
    use cama_encoding::Scheme;

    #[test]
    fn encoded_engine_matches_byte_engine() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        let input = b"xbeecddyacd";
        let byte = Simulator::new(&nfa).run(input);
        let encoded = EncodedSimulator::new(&nfa).run(input);
        assert_eq!(encoded, byte);
    }

    #[test]
    fn explicit_scheme_matches_byte_engine() {
        let nfa = regex::compile("x[0-9]+y").unwrap();
        let input = b"x123yx9y";
        let byte = Simulator::new(&nfa).run(input);
        for clustered in [true, false] {
            let encoding = EncodingPlan::with_scheme(
                &nfa,
                Scheme::OneZeroPrefix {
                    prefix: 16,
                    suffix: 16,
                },
                clustered,
            );
            let mut sim = EncodedSimulator::with_encoding(&nfa, encoding);
            assert_eq!(sim.run(input), byte, "clustered {clustered}");
        }
    }

    #[test]
    fn out_of_domain_bytes_stream_through_without_matching() {
        let nfa = regex::compile("ab").unwrap();
        let mut sim = EncodedSimulator::new(&nfa);
        assert!(sim.encoding().encode_input(b'z').is_none());
        // 'z' and friends are outside the domain: nothing matches, the
        // stream continues, and in-domain matches still land.
        let result = sim.run(b"zzabz\xff");
        assert_eq!(result.report_offsets(), vec![3]);
        assert_eq!(result.activity.cycles, 6);
        assert_eq!(result, Simulator::new(&nfa).run(b"zzabz\xff"));
    }

    #[test]
    fn chunked_session_equals_one_shot() {
        let nfa = regex::compile("ab+c").unwrap();
        let sim = EncodedSimulator::new(&nfa);
        let one_shot = {
            let mut s = sim.start();
            s.feed(b"zabbcabc");
            s.finish()
        };
        let mut session = sim.start();
        for chunk in [&b"za"[..], b"b", b"", b"bcab", b"c"] {
            session.feed(chunk);
        }
        assert_eq!(session.finish(), one_shot);
    }
}
