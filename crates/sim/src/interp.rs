//! The interpreted reference engine: structure-at-a-time execution
//! straight off the [`Nfa`], kept as the semantic baseline.
//!
//! This is the engine the simulator shipped with before the compiled
//! execution layer existed: per cycle it walks
//! `nfa.ste(id).class.contains(symbol)` over the dynamic enable set and
//! `nfa.successors(id)` through borrowed adjacency. It is deliberately
//! unoptimized — the property tests assert the compiled engine produces
//! bit-identical results, and the benchmarks quantify the speedup of
//! compiling instead of interpreting. Like the compiled engines it
//! implements [`AutomataEngine`], so the differential harness can feed
//! all three engine flavours through the same streaming [`Session`]
//! interface.

use crate::activity::{LocalSet, NullObserver, ShardCycleSummary, ShardCycleView, ShardObserver};
use crate::result::{Report, RunResult};
use crate::session::{AutomataEngine, Session};
use cama_core::bitset::BitSet;
use cama_core::{Nfa, StartKind, SteId};

/// The pre-compilation simulator: interprets the NFA structure per
/// cycle. Same API shape and same results as
/// [`Simulator`](crate::Simulator), at interpretation speed.
///
/// # Examples
///
/// ```
/// use cama_core::regex;
/// use cama_sim::interp::InterpSimulator;
///
/// let nfa = regex::compile("ab+")?;
/// let result = InterpSimulator::new(&nfa).run(b"zabbz");
/// assert_eq!(result.report_offsets(), vec![2, 3]);
/// # Ok::<(), cama_core::Error>(())
/// ```
#[derive(Debug)]
pub struct InterpSimulator<'a> {
    nfa: &'a Nfa,
    /// Per-symbol match vector over the `all-input` start states only
    /// (the original engine's one precomputed table).
    start_match: Vec<BitSet>,
    /// `start-of-data` start states.
    sod_starts: Vec<SteId>,
}

impl<'a> InterpSimulator<'a> {
    /// Prepares an interpreted simulator.
    pub fn new(nfa: &'a Nfa) -> Self {
        let n = nfa.len();
        let mut start_match = vec![BitSet::new(n); 256];
        for (i, ste) in nfa.stes().iter().enumerate() {
            if ste.start == StartKind::AllInput {
                for symbol in ste.class.iter() {
                    start_match[symbol as usize].insert(i);
                }
            }
        }
        let sod_starts = nfa
            .stes()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.start == StartKind::StartOfData)
            .map(|(i, _)| SteId(i as u32))
            .collect();
        InterpSimulator {
            nfa,
            start_match,
            sod_starts,
        }
    }

    /// The automaton being simulated.
    pub fn nfa(&self) -> &'a Nfa {
        self.nfa
    }

    /// Runs over `input` from a fresh state.
    pub fn run(&mut self, input: &[u8]) -> RunResult {
        self.run_with(input, &mut NullObserver)
    }

    /// [`run`](Self::run) reporting every cycle to `observer` (the
    /// automaton as shard 0).
    pub fn run_with(&mut self, input: &[u8], observer: &mut impl ShardObserver) -> RunResult {
        let mut session = self.start();
        session.feed_with(input, observer);
        session.finish_with(observer)
    }
}

impl<'a> AutomataEngine for InterpSimulator<'a> {
    type Session<'e>
        = InterpSession<'e>
    where
        Self: 'e;

    fn start(&self) -> InterpSession<'_> {
        let n = self.nfa.len();
        InterpSession {
            nfa: self.nfa,
            start_match: &self.start_match,
            sod_starts: &self.sod_starts,
            dynamic: BitSet::new(n),
            next: BitSet::new(n),
            active: BitSet::new(n),
            cycle: 0,
            fed: 0,
            result: RunResult::default(),
        }
    }
}

/// A streaming session over the interpreted engine: the
/// structure-at-a-time counterpart of
/// [`ByteSession`](crate::ByteSession), borrowing the parent
/// [`InterpSimulator`]'s precomputed start tables.
#[derive(Clone, Debug)]
pub struct InterpSession<'e> {
    nfa: &'e Nfa,
    start_match: &'e [BitSet],
    sod_starts: &'e [SteId],
    dynamic: BitSet,
    next: BitSet,
    active: BitSet,
    cycle: usize,
    fed: usize,
    result: RunResult,
}

impl InterpSession<'_> {
    fn step(&mut self, symbol: u8, observer: &mut impl ShardObserver) {
        // State matching over the enable vector, one state at a time.
        self.active.clear();
        self.active.union_with(&self.start_match[symbol as usize]);
        for i in self.dynamic.iter() {
            if self.nfa.ste(SteId(i as u32)).class.contains(symbol) {
                self.active.insert(i);
            }
        }
        if self.cycle == 0 {
            for &id in self.sod_starts {
                if self.nfa.ste(id).class.contains(symbol) {
                    self.active.insert(id.index());
                }
            }
        }

        // Reports and the next enable vector via borrowed adjacency.
        let mut reports_this_cycle = 0;
        self.next.clear();
        for i in self.active.iter() {
            let id = SteId(i as u32);
            if let Some(code) = self.nfa.ste(id).report {
                self.result.reports.push(Report {
                    ste: id,
                    code,
                    offset: self.cycle,
                });
                reports_this_cycle += 1;
            }
            for &succ in self.nfa.successors(id) {
                self.next.insert(succ.index());
            }
        }

        self.result.activity.record(
            self.active.count(),
            self.dynamic.count(),
            reports_this_cycle,
        );
        observer.on_shard_cycle(&ShardCycleView {
            cycle: self.cycle,
            symbol,
            shard: 0,
            globals: None,
            states: self.dynamic.len(),
            dynamic_enabled: LocalSet::Bits(&self.dynamic),
            active: LocalSet::Bits(&self.active),
            reports: reports_this_cycle,
        });
        observer.on_cycle_end(&ShardCycleSummary {
            cycle: self.cycle,
            symbol,
            shards_visited: 1,
            shards_skipped: 0,
            reports: reports_this_cycle,
        });

        std::mem::swap(&mut self.dynamic, &mut self.next);
        self.cycle += 1;
    }
}

impl Session for InterpSession<'_> {
    fn feed_with(&mut self, chunk: &[u8], observer: &mut impl ShardObserver) {
        for &symbol in chunk {
            self.step(symbol, observer);
        }
        self.fed += chunk.len();
    }

    fn finish_with(&mut self, _observer: &mut impl ShardObserver) -> RunResult {
        let result = std::mem::take(&mut self.result);
        self.reset();
        result
    }

    fn reset(&mut self) {
        self.dynamic.clear();
        self.next.clear();
        self.active.clear();
        self.cycle = 0;
        self.fed = 0;
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

#[cfg(test)]
mod tests {
    use super::*;
    use cama_core::regex;

    #[test]
    fn basic_scan() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        let result = InterpSimulator::new(&nfa).run(b"beecdd");
        assert_eq!(result.report_offsets(), vec![4, 5]);
    }

    #[test]
    fn reset_between_runs() {
        let nfa = regex::compile("ab").unwrap();
        let mut sim = InterpSimulator::new(&nfa);
        assert!(sim.run(b"a").reports.is_empty());
        assert!(sim.run(b"b").reports.is_empty());
    }

    #[test]
    fn chunked_session_equals_one_shot() {
        let nfa = regex::compile("a[bc]+d").unwrap();
        let mut sim = InterpSimulator::new(&nfa);
        let input = b"zabccbda abcd";
        let one_shot = sim.run(input);
        let mut session = sim.start();
        for chunk in input.chunks(3) {
            session.feed(chunk);
        }
        assert_eq!(session.finish(), one_shot);
    }
}
