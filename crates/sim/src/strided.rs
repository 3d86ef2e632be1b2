//! Execution of 2-strided automata: two input bytes per cycle, on a
//! compiled strided plan.
//!
//! The pair match vector is computed word-level from the plan's two
//! factored tables (`first[a] & second[b]` — the software form of a
//! two-segment match CAM), and the stepping loop is the byte engine's
//! flat session in paired form: [`StridedSession`] is generic over any
//! [`StridedPlan`], so the raw-byte plan
//! ([`CompiledStridedAutomaton`]) and the encoding-aware plan
//! ([`CompiledEncodedStridedAutomaton`], per-half codebooks) execute
//! through one kernel. Like the byte engine, the kernel visits only
//! 64-state words both halves' summaries *and* an enable source mark —
//! the 2-stride form of CAMA's selective precharge — with a
//! non-selective baseline ([`StridedSession::set_selective`]) that
//! precharges every word, for the `strided` bench group's comparison.
//!
//! Report offsets are translated back to original byte offsets using
//! the [`ReportPhase`](cama_core::stride::ReportPhase) carried by each
//! strided state, so a strided run
//! is directly comparable with (and tested equivalent to) the 1-stride
//! run of the original automaton. A chunk that ends mid-pair leaves
//! its odd byte in the session's carry slot, so feeding a stream in
//! arbitrary chunks (including 1-byte chunks) produces the same pairs
//! — and the same absolute report offsets — as a one-shot run; the
//! carry also survives [`suspend`](crate::FlowSession::suspend) /
//! [`resume`](crate::FlowSession::resume), so the stream table can
//! park strided flows mid-pair.
//!
//! # Examples
//!
//! ```
//! use cama_core::compiled::CompiledStridedAutomaton;
//! use cama_core::regex;
//! use cama_core::stride::StridedNfa;
//! use cama_sim::{Session, StridedSession};
//!
//! let nfa = regex::compile("ab+c")?;
//! let strided = StridedNfa::from_nfa(&nfa);
//! let plan = CompiledStridedAutomaton::compile(&strided);
//! let mut session = StridedSession::new(&plan);
//! session.feed(b"zab"); // odd chunk: the trailing byte is carried
//! session.feed(b"bc");
//! let result = session.finish();
//! // Reports land on original byte offsets, same as the 1-stride run.
//! assert_eq!(result.reports.len(), 1);
//! assert_eq!(result.reports[0].offset, 4);
//! # Ok::<(), cama_core::Error>(())
//! ```

use crate::engine::{Engine, FlatSession};
use crate::sharded::ShardedExecution;
use cama_core::compiled::{CompiledEncodedStridedAutomaton, CompiledStridedAutomaton, StridedPlan};
use cama_core::stride::StridedNfa;
use cama_encoding::StridedEncoding;

/// A streaming session over a [`StridedPlan`] — [`FlatSession`] over
/// the raw-byte [`CompiledStridedAutomaton`] by default; instantiate
/// with [`CompiledEncodedStridedAutomaton`] (the
/// [`EncodedStridedSession`] alias) to execute on per-half codebooks.
///
/// # Examples
///
/// ```
/// use cama_core::regex;
/// use cama_core::stride::StridedNfa;
/// use cama_sim::{AutomataEngine, Session, StridedSimulator};
///
/// let nfa = regex::compile("ab+")?;
/// let strided = StridedNfa::from_nfa(&nfa);
/// let sim = StridedSimulator::new(&strided);
/// let mut session = sim.start();
/// session.feed(b"zab"); // odd chunk: 'b' is carried
/// session.feed(b"bz");
/// assert_eq!(session.finish().report_offsets(), vec![2, 3]);
/// # Ok::<(), cama_core::Error>(())
/// ```
pub type StridedSession<'p, P = CompiledStridedAutomaton> = FlatSession<'p, P>;

/// A streaming session over a [`CompiledEncodedStridedAutomaton`]: the
/// same paired stepping loop, with each half's symbol routed through
/// its own input-encoder lookup.
pub type EncodedStridedSession<'p> = FlatSession<'p, CompiledEncodedStridedAutomaton>;

impl<P: StridedPlan + ShardedExecution> FlatSession<'_, P> {
    /// Enables or disables selective word visitation (on by default).
    /// With it off every pair cycle precharges (visits) every 64-state
    /// word — the "all words always searched" baseline the `strided`
    /// bench group compares against. Results are identical either way.
    pub fn set_selective(&mut self, on: bool) {
        self.lane.precharge_all = !on;
    }

    /// Total 64-state words visited by this session's pair cycles —
    /// monotone across `finish`/`reset` (a lifetime counter, like
    /// [`ShardStats`](crate::ShardStats)).
    pub fn words_visited(&self) -> u64 {
        self.words_visited
    }
}

/// A cycle-by-cycle simulator for a [`StridedNfa`] ([`Engine`] over
/// the strided plan).
///
/// Odd-length inputs are padded with one zero byte; reports whose mapped
/// offset would fall on the pad are suppressed, so the report stream is
/// identical to the unpadded 1-stride stream. Each `run` is a complete
/// [`StridedSession`]; use [`start`](crate::AutomataEngine::start) to
/// feed a stream in chunks instead.
///
/// # Examples
///
/// ```
/// use cama_core::regex;
/// use cama_core::stride::StridedNfa;
/// use cama_sim::StridedSimulator;
///
/// let nfa = regex::compile("ab+")?;
/// let strided = StridedNfa::from_nfa(&nfa);
/// let result = StridedSimulator::new(&strided).run(b"zabbz");
/// assert_eq!(result.report_offsets(), vec![2, 3]);
/// # Ok::<(), cama_core::Error>(())
/// ```
pub type StridedSimulator<'a> = Engine<'a, CompiledStridedAutomaton, StridedNfa>;

impl<'a> StridedSimulator<'a> {
    /// Compiles the strided automaton and prepares a simulator.
    pub fn new(nfa: &'a StridedNfa) -> Self {
        Engine::from_parts(nfa, CompiledStridedAutomaton::compile(nfa), ())
    }
}

/// A cycle-by-cycle simulator executing a [`StridedNfa`] on its encoded
/// plan: runs the per-half encoding toolchain
/// ([`StridedEncoding::for_strided`], or an explicit encoding) and
/// executes on the per-half codebooks — bit-identical to
/// [`StridedSimulator`] because each half's encoding is exact.
///
/// # Examples
///
/// ```
/// use cama_core::regex;
/// use cama_core::stride::StridedNfa;
/// use cama_sim::{EncodedStridedSimulator, StridedSimulator};
///
/// let nfa = regex::compile("ab+")?;
/// let strided = StridedNfa::from_nfa(&nfa);
/// let result = EncodedStridedSimulator::new(&strided).run(b"zabbz");
/// assert_eq!(result, StridedSimulator::new(&strided).run(b"zabbz"));
/// # Ok::<(), cama_core::Error>(())
/// ```
pub type EncodedStridedSimulator<'a> =
    Engine<'a, CompiledEncodedStridedAutomaton, StridedNfa, StridedEncoding>;

impl<'a> EncodedStridedSimulator<'a> {
    /// Runs the proposed per-half encoding pipeline on `nfa` and
    /// compiles the executable plan.
    pub fn new(nfa: &'a StridedNfa) -> Self {
        Self::with_encoding(nfa, StridedEncoding::for_strided(nfa))
    }

    /// Uses an explicit per-half encoding (e.g. a
    /// [`StridedEncoding::with_scheme`] baseline).
    ///
    /// # Panics
    ///
    /// Panics if `encoding` does not cover `nfa`.
    pub fn with_encoding(nfa: &'a StridedNfa, encoding: StridedEncoding) -> Self {
        let plan = encoding.compile(nfa);
        Engine::from_parts(nfa, plan, encoding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::{AutomataEngine, FlowSession, RunResult, Session};
    use cama_core::regex;
    use cama_core::stride::StridedNfa;

    fn check_equivalence(pattern: &str, inputs: &[&[u8]]) {
        let nfa = regex::compile(pattern).unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        for input in inputs {
            let base = Simulator::new(&nfa).run(input).report_offsets();
            let strided_offsets = StridedSimulator::new(&strided).run(input).report_offsets();
            assert_eq!(
                strided_offsets,
                base,
                "pattern {pattern} on {:?}",
                String::from_utf8_lossy(input)
            );
            let encoded_offsets = EncodedStridedSimulator::new(&strided)
                .run(input)
                .report_offsets();
            assert_eq!(
                encoded_offsets,
                base,
                "encoded, pattern {pattern} on {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn equivalence_on_even_inputs() {
        check_equivalence("abc", &[b"abcabc", b"aabbcc", b"abacbc"]);
        check_equivalence("(a|b)e*cd+", &[b"beecdd", b"acdd", b"bcdacd"]);
    }

    #[test]
    fn equivalence_on_odd_inputs() {
        check_equivalence("abc", &[b"abc", b"zabca", b"a"]);
        check_equivalence("ab+", &[b"zabbb", b"ab"]);
    }

    #[test]
    fn odd_offset_matches_are_found() {
        // Match ending at offset 1 (phase Second) and offset 2 (First).
        check_equivalence("ab", &[b"abab", b"zababz"]);
        check_equivalence("a", &[b"za", b"az", b"aa"]);
    }

    #[test]
    fn pad_byte_cannot_fake_a_report() {
        // Pattern matching \x00 at the end: the pad is \x00 but must not
        // produce a report beyond the input.
        let nfa = regex::compile(r"q\x00").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let result = StridedSimulator::new(&strided).run(b"zzq");
        assert!(result.reports.is_empty());
    }

    #[test]
    fn carry_byte_survives_chunk_boundaries() {
        let nfa = regex::compile("abcd").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let sim = StridedSimulator::new(&strided);
        let one_shot = sim.start().feed_all(b"zabcdz");
        // Split the input so every chunk straddles a pair boundary.
        let mut session = sim.start();
        session.feed(b"z");
        session.feed(b"abc");
        session.feed(b"");
        session.feed(b"dz");
        assert_eq!(session.finish(), one_shot);
    }

    #[test]
    fn finish_flushes_pending_carry() {
        // A match whose last byte is the carried odd byte must still be
        // reported by finish(), while pad-offset reports stay hidden.
        let nfa = regex::compile("za").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let sim = StridedSimulator::new(&strided);
        let mut session = sim.start();
        session.feed(b"zz");
        session.feed(b"a");
        let result = session.finish();
        assert_eq!(result.report_offsets(), vec![2]);
    }

    impl<'p, P: StridedPlan + ShardedExecution> StridedSession<'p, P> {
        fn feed_all(mut self, input: &[u8]) -> RunResult {
            self.feed(input);
            self.finish()
        }
    }

    #[test]
    fn naive_scan_matches_selective_visitation() {
        let nfa = regex::compile_set(&["ab+c", "x[0-9]+y", "q"]).unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let sim = StridedSimulator::new(&strided);
        for input in [&b"zab bcx12y qabcx9y"[..], b"abcabc", b"", b"q"] {
            let mut selective = sim.start();
            selective.feed(input);
            let mut naive = sim.start();
            naive.set_selective(false);
            naive.feed(input);
            let (sw, nw) = (selective.words_visited(), naive.words_visited());
            assert_eq!(selective.finish(), naive.finish(), "input {input:?}");
            assert!(sw <= nw, "selective {sw} vs naive {nw}");
        }
    }

    #[test]
    fn selective_visitation_skips_idle_words() {
        // Many independent patterns: most 64-state words are idle on a
        // stream that only ever exercises one component.
        let patterns: Vec<String> = (0..40).map(|i| format!("q{i:02}xyz")).collect();
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let nfa = regex::compile_set(&refs).unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let sim = StridedSimulator::new(&strided);
        let input = b"q00xyzq00xyzq00xyz";
        let mut selective = sim.start();
        selective.feed(input);
        let mut naive = sim.start();
        naive.set_selective(false);
        naive.feed(input);
        assert!(
            selective.words_visited() < naive.words_visited(),
            "selective {} vs naive {}",
            selective.words_visited(),
            naive.words_visited()
        );
        assert_eq!(selective.finish(), naive.finish());
    }

    #[test]
    fn suspend_resume_carries_the_odd_byte() {
        let nfa = regex::compile("abcd").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let plan = CompiledStridedAutomaton::compile(&strided);
        let flat = {
            let mut s = StridedSession::new(&plan);
            s.feed(b"zabcd");
            s.finish()
        };
        // Suspend mid-pair: (z, a) consumed as a pair, 'b' carried.
        let mut a = StridedSession::new(&plan);
        a.feed(b"zab");
        assert_eq!(a.bytes_fed(), 3);
        let parked = a.suspend();
        assert_eq!(parked.pending_carry(), Some(b'b'));
        a.feed(b"interloper");
        a.reset();
        let mut b = StridedSession::new(&plan);
        b.resume(parked);
        b.feed(b"cd");
        assert_eq!(b.finish(), flat);
    }

    #[test]
    fn anchored_strided_equivalence() {
        use cama_core::regex::{compile_ast, parse, CompileOptions};
        let nfa = compile_ast(
            &parse("ab+c").unwrap(),
            CompileOptions {
                anchored: true,
                report_code: 0,
            },
        )
        .unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        for input in [&b"abbc"[..], b"abc", b"zabc", b"abbbbc"] {
            let base = Simulator::new(&nfa).run(input).report_offsets();
            let s = StridedSimulator::new(&strided).run(input).report_offsets();
            assert_eq!(s, base, "input {input:?}");
        }
    }

    #[test]
    fn cycle_count_is_halved() {
        let nfa = regex::compile("ab").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let result = StridedSimulator::new(&strided).run(b"abababab");
        assert_eq!(result.activity.cycles, 4);
    }
}
