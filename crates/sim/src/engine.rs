//! The flat session and the one owning engine.
//!
//! Per cycle (one input symbol), exactly the two steps of Figure 1:
//!
//! 1. **State matching** — the set of STEs whose class contains the
//!    symbol. The compiled plan precomputes a 256-entry symbol → row
//!    map and one match vector per row, so this is two table lookups.
//! 2. **State transition** — `active = matched ∧ enabled`, word-level
//!    (64 states per operation); report active reporting STEs through
//!    the packed report table; the next enable vector is the union of
//!    the active states' CSR successors (plus the always-enabled start
//!    states).
//!
//! The engine state is split the way the hardware splits it: a *static*
//! enable part (`all-input` start states, which never toggle — the
//! hardware wires them on) kept as a mask in the plan, and a *dynamic*
//! part (last cycle's Next Vector) kept per stream. One immutable plan
//! can therefore drive any number of concurrent streams — see
//! [`BatchSimulator`](crate::BatchSimulator).
//!
//! A flat plan is the one-array case of a sharded one: [`FlatSession`]
//! steps a single lane with the same kernels a
//! [`ShardedSession`](crate::ShardedSession) runs per shard. [`Engine`]
//! is the one owning engine over any [`StreamPlan`]; [`Simulator`] and
//! the other simulators are its aliases.

use crate::activity::{LocalSet, ShardCycleSummary, ShardCycleView, ShardObserver};
use crate::batch::StreamPlan;
use crate::lane::{CycleStep, FlatContext, NfaLane};
use crate::session::{AutomataEngine, FlowSession, Session, SuspendedFlow};
use crate::sharded::ShardedExecution;
use cama_core::compiled::CompiledAutomaton;
use cama_core::Nfa;

pub use crate::result::{Report, RunResult};

/// A streaming session over a flat execution plan — byte
/// ([`CompiledAutomaton`], the default), encoded, or 2-stride — one
/// lane stepped by the shared kernels. The [`ByteSession`],
/// [`EncodedSession`](crate::EncodedSession),
/// [`StridedSession`](crate::StridedSession) and
/// [`EncodedStridedSession`](crate::EncodedStridedSession) names are
/// aliases of it.
///
/// The session owns the dynamic/next/active vectors, the cycle offset,
/// the report accumulation and, for strided plans, the *carry byte*: a
/// chunk ending on an odd boundary holds its dangling byte until the
/// next chunk's first byte completes the pair, and
/// [`finish`](Session::finish) flushes a still-pending carry as a
/// zero-padded final pair whose pad-offset reports are suppressed. The
/// immutable plan is shared, so one plan can drive any number of
/// concurrent sessions.
///
/// # Examples
///
/// ```
/// use cama_core::compiled::CompiledAutomaton;
/// use cama_core::regex;
/// use cama_sim::{ByteSession, Session};
///
/// let nfa = regex::compile("ab")?;
/// let plan = CompiledAutomaton::compile(&nfa);
/// let mut session = ByteSession::new(&plan);
/// session.feed(b"a"); // chunk boundary mid-match
/// session.feed(b"b");
/// assert_eq!(session.finish().report_offsets(), vec![1]);
/// # Ok::<(), cama_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct FlatSession<'p, P = CompiledAutomaton> {
    plan: &'p P,
    pub(crate) lane: NfaLane,
    cycle: usize,
    /// Strided plans: first byte of a pair whose second byte has not
    /// arrived yet.
    carry: Option<u8>,
    fed: usize,
    /// 64-state words visited by pair cycles, monotone across
    /// `finish`/`reset` (a lifetime counter, like
    /// [`ShardStats`](crate::ShardStats)).
    pub(crate) words_visited: u64,
    result: RunResult,
}

/// A streaming session over a symbol-per-cycle plan: [`FlatSession`]
/// over the raw-byte [`CompiledAutomaton`] by default.
pub type ByteSession<'p, P = CompiledAutomaton> = FlatSession<'p, P>;

impl<'p, P: ShardedExecution> FlatSession<'p, P> {
    /// Starts a session over a shared plan.
    pub fn new(plan: &'p P) -> Self {
        FlatSession {
            plan,
            lane: NfaLane::new(plan.len()),
            cycle: 0,
            carry: None,
            fed: 0,
            words_visited: 0,
            result: RunResult::default(),
        }
    }

    /// The shared compiled plan this session executes.
    pub fn plan(&self) -> &'p P {
        self.plan
    }

    /// Executes one cycle on the lane, then the per-cycle accounting,
    /// the observer callbacks (the lane is shard 0, visited every cycle)
    /// and the lane advance.
    fn step(&mut self, step: CycleStep, observer: &mut impl ShardObserver) {
        let context = &mut FlatContext(&mut self.result.reports);
        let out = P::step_lane(self.plan, &mut self.lane, step, self.cycle, context);
        self.words_visited += out.words;
        self.result
            .activity
            .record(out.num_active, self.lane.num_dynamic, out.reports);
        observer.on_shard_cycle(&ShardCycleView {
            cycle: self.cycle,
            symbol: step.a,
            shard: 0,
            globals: None,
            states: self.plan.len(),
            dynamic_enabled: LocalSet::Bits(&self.lane.dynamic),
            active: LocalSet::Bits(&self.lane.active),
            reports: out.reports,
        });
        observer.on_cycle_end(&ShardCycleSummary {
            cycle: self.cycle,
            symbol: step.a,
            shards_visited: 1,
            shards_skipped: 0,
            reports: out.reports,
        });
        self.lane.advance();
        self.cycle += 1;
    }

    /// Restores power-on state (the lifetime counter excepted).
    fn reset_state(&mut self) {
        self.lane.reset();
        self.cycle = 0;
        self.carry = None;
        self.fed = 0;
    }
}

impl<P: ShardedExecution> Session for FlatSession<'_, P> {
    fn feed_with(&mut self, chunk: &[u8], observer: &mut impl ShardObserver) {
        let mut carry = self.carry.take();
        P::plan_steps(chunk, &mut carry, |step| self.step(step, observer));
        self.carry = carry;
        self.fed += chunk.len();
    }

    fn finish_with(&mut self, observer: &mut impl ShardObserver) -> RunResult {
        if let Some(step) = P::flush_step(&mut self.carry, self.fed) {
            self.step(step, observer);
        }
        let mut result = std::mem::take(&mut self.result);
        P::sort_reports(&mut result.reports);
        self.reset_state();
        result
    }

    fn reset(&mut self) {
        self.reset_state();
        self.result.reports.clear();
        self.result.activity = Default::default();
    }

    fn bytes_fed(&self) -> usize {
        self.fed
    }

    fn pending(&self) -> &RunResult {
        &self.result
    }
}

impl<P: ShardedExecution> FlowSession for FlatSession<'_, P> {
    fn suspend(&mut self) -> SuspendedFlow {
        let flow = SuspendedFlow {
            cycle: self.cycle,
            fed: self.fed,
            dynamic: self.lane.dynamic.iter().map(|i| i as u32).collect(),
            carry: self.carry.take(),
            result: std::mem::take(&mut self.result),
            dfa: Vec::new(),
        };
        self.reset_state();
        flow
    }

    fn resume(&mut self, flow: SuspendedFlow) {
        debug_assert!(self.cycle == 0 && self.is_idle());
        self.cycle = flow.cycle;
        self.fed = flow.fed;
        self.carry = flow.carry;
        self.result = flow.result;
        for &state in &flow.dynamic {
            self.lane.enable(state as usize);
        }
        self.lane.recount();
    }

    fn is_idle(&self) -> bool {
        self.carry.is_none() && self.lane.dynamic_is_empty()
    }

    fn for_each_active_shard(&self, mut f: impl FnMut(usize)) {
        if !self.is_idle() {
            f(0);
        }
    }
}

/// The one owning engine: a compiled plan together with the automaton
/// it was compiled from and whatever else its compiler produced (an
/// encoding), generic over the [`StreamPlan`] flavour. It owns nothing
/// per stream: each `run` is a complete session (start, feed, finish),
/// so one-shot and chunked execution share the same stepping loop; use
/// [`start`](AutomataEngine::start) to feed a stream incrementally. For
/// running *many* streams over one automaton, compile the plan once and
/// use [`BatchSimulator`](crate::BatchSimulator).
///
/// The simulators are aliases: [`Simulator`],
/// [`EncodedSimulator`](crate::EncodedSimulator),
/// [`StridedSimulator`](crate::StridedSimulator),
/// [`EncodedStridedSimulator`](crate::EncodedStridedSimulator) and
/// [`ShardedSimulator`](crate::ShardedSimulator); each alias adds only
/// its constructors.
#[derive(Debug)]
pub struct Engine<'a, P, N = Nfa, E = ()> {
    nfa: &'a N,
    plan: P,
    encoding: E,
    /// Sessions skip idle shards ([`FlowSession::set_skip_idle`]); set
    /// through `ShardedSimulator::skip_idle`.
    pub(crate) skip_idle: bool,
}

impl<'a, P: StreamPlan, N, E> Engine<'a, P, N, E> {
    /// Wraps a plan compiled from `nfa` (with `encoding`, if any).
    pub(crate) fn from_parts(nfa: &'a N, plan: P, encoding: E) -> Self {
        Engine {
            nfa,
            plan,
            encoding,
            skip_idle: true,
        }
    }

    /// The automaton being simulated.
    pub fn nfa(&self) -> &'a N {
        self.nfa
    }

    /// The compiled execution plan the engine runs on.
    pub fn plan(&self) -> &P {
        &self.plan
    }

    /// The encoding the plan was compiled with (`()` for unencoded
    /// plans).
    pub fn encoding(&self) -> &E {
        &self.encoding
    }

    /// Runs over `input` from a fresh state and returns reports plus
    /// activity statistics. Strided plans accept any length (an odd
    /// tail is padded internally) and report *original byte offsets*.
    pub fn run(&mut self, input: &[u8]) -> RunResult {
        let mut session = self.start();
        session.feed(input);
        session.finish()
    }

    /// [`run`](Self::run) reporting every cycle to `observer` (used by
    /// the energy models, which charge the entry layout the plan
    /// actually visits).
    pub fn run_with(&mut self, input: &[u8], observer: &mut impl ShardObserver) -> RunResult {
        let mut session = self.start();
        session.feed_with(input, observer);
        session.finish_with(observer)
    }
}

impl<'a, P: StreamPlan, N, E> AutomataEngine for Engine<'a, P, N, E> {
    type Session<'e>
        = P::Session<'e>
    where
        Self: 'e;

    fn start(&self) -> P::Session<'_> {
        let mut session = self.plan.open_session();
        session.set_skip_idle(self.skip_idle);
        session
    }
}

/// A cycle-by-cycle simulator: compiles an [`Nfa`] into a
/// [`CompiledAutomaton`] and executes streams on it ([`Engine`] over
/// the byte plan).
///
/// # Examples
///
/// ```
/// use cama_core::regex;
/// use cama_sim::Simulator;
///
/// let nfa = regex::compile("ab+")?;
/// let mut sim = Simulator::new(&nfa);
/// let result = sim.run(b"zabbz");
/// assert_eq!(result.report_offsets(), vec![2, 3]);
/// // Every run is a fresh session.
/// let again = sim.run(b"ab");
/// assert_eq!(again.report_offsets(), vec![1]);
/// # Ok::<(), cama_core::Error>(())
/// ```
pub type Simulator<'a> = Engine<'a, CompiledAutomaton>;

impl<'a> Simulator<'a> {
    /// Compiles the automaton and prepares a simulator.
    pub fn new(nfa: &'a Nfa) -> Self {
        Engine::from_parts(nfa, CompiledAutomaton::compile(nfa), ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::InterpSimulator;
    use cama_core::regex::{self, reference};

    fn offsets(nfa: &Nfa, input: &[u8]) -> Vec<usize> {
        Simulator::new(nfa).run(input).report_offsets()
    }

    #[test]
    fn paper_example_matches_figure_1() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        assert_eq!(offsets(&nfa, b"beecdd"), vec![4, 5]);
        assert_eq!(offsets(&nfa, b"acd"), vec![2]);
        assert!(offsets(&nfa, b"aed").is_empty());
    }

    #[test]
    fn agrees_with_reference_matcher() {
        let patterns = [
            "abc", "a(b|c)d", "x[0-9]+y", "(ab)+", "a?b?c", "[^z]z", "he(llo)*", "a.c",
        ];
        let inputs: Vec<&[u8]> = vec![
            b"abcabc",
            b"abdacdxx",
            b"x123yx9y",
            b"ababab",
            b"cabcbc",
            b"azbz",
            b"hellollo",
            b"abcaxc",
        ];
        for pattern in patterns {
            let ast = regex::parse(pattern).unwrap();
            let nfa = regex::compile(pattern).unwrap();
            for input in &inputs {
                assert_eq!(
                    offsets(&nfa, input),
                    reference::scan_report_offsets(&ast, input),
                    "pattern {pattern} on {:?}",
                    String::from_utf8_lossy(input)
                );
            }
        }
    }

    /// `+` over a body that matches empty: one empty iteration is a
    /// match, so the engine and the oracle both report it.
    #[test]
    fn agrees_with_reference_on_plus_over_a_nullable_body() {
        for (pattern, input, expect) in
            [("x(b*)+", &b"x"[..], vec![0]), ("x(b?)+y", b"xy", vec![1])]
        {
            let ast = regex::parse(pattern).unwrap();
            let nfa = regex::compile(pattern).unwrap();
            assert_eq!(
                reference::scan_report_offsets(&ast, input),
                expect,
                "{pattern}"
            );
            assert_eq!(offsets(&nfa, input), expect, "{pattern}");
        }
    }

    #[test]
    fn agrees_with_interpreted_engine() {
        for pattern in ["abc", "a(b|c)d", "x[0-9]+y", "(ab)+", "[^z]z", "a.c"] {
            let nfa = regex::compile(pattern).unwrap();
            for input in [&b"abcabc"[..], b"x123yx9y", b"azbz", b"aaa...c"] {
                let compiled = Simulator::new(&nfa).run(input);
                let interpreted = InterpSimulator::new(&nfa).run(input);
                assert_eq!(compiled, interpreted, "pattern {pattern} on {input:?}");
            }
        }
    }

    #[test]
    fn anchored_pattern_only_matches_at_start() {
        use cama_core::regex::{compile_ast, parse, CompileOptions};
        let nfa = compile_ast(
            &parse("ab").unwrap(),
            CompileOptions {
                anchored: true,
                report_code: 0,
            },
        )
        .unwrap();
        assert_eq!(offsets(&nfa, b"abab"), vec![1]);
        assert!(offsets(&nfa, b"zab").is_empty());
    }

    #[test]
    fn report_codes_flow_through() {
        let nfa = regex::compile_set(&["aa", "bb"]).unwrap();
        let result = Simulator::new(&nfa).run(b"aabb");
        let codes: Vec<u32> = result.reports.iter().map(|r| r.code).collect();
        assert_eq!(codes, vec![0, 1]);
    }

    #[test]
    fn activity_counts_are_sane() {
        let nfa = regex::compile("ab").unwrap();
        let result = Simulator::new(&nfa).run(b"abab");
        assert_eq!(result.activity.cycles, 4);
        // 'a' matches at cycles 0 and 2; 'b' at 1 and 3.
        assert_eq!(result.activity.total_active, 4);
        assert_eq!(result.activity.total_reports, 2);
        assert!(result.activity.avg_active() > 0.0);
    }

    #[test]
    fn reset_between_runs() {
        let nfa = regex::compile("ab").unwrap();
        let mut sim = Simulator::new(&nfa);
        let first = sim.run(b"a");
        assert!(first.reports.is_empty());
        // Without the reset this 'b' would complete the previous 'a'.
        let second = sim.run(b"b");
        assert!(second.reports.is_empty());
    }

    #[test]
    fn empty_input_is_a_noop() {
        let nfa = regex::compile("a").unwrap();
        let result = Simulator::new(&nfa).run(b"");
        assert_eq!(result.activity.cycles, 0);
        assert!(result.reports.is_empty());
    }
}
