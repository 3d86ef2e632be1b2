//! Pins the deterministic visit counters the `sharding` and `strided`
//! bench groups print for the Snort stand-in (scale 0.02, a 4 KiB
//! input from seed 1): words visited, shard-cycles run and skipped
//! under idle-skip, the flat strided session's words under selective
//! and non-selective visitation, and the hybrid hot-chain words.
//!
//! These counters are the engines' modelled work (the idle-array and
//! selective-precharge arguments), not wall clock, so they must not
//! move when the stepping code is restructured.

use cama::core::compile::{compile_hybrid_ruleset, compile_ruleset, dfa_enabled, PlanCache};
use cama::core::compiled::{CompiledStridedAutomaton, DfaBudget, ShardedAutomaton};
use cama::core::graph;
use cama::core::regex;
use cama::core::stride::StridedNfa;
use cama::core::Nfa;
use cama::sim::{Session, ShardedExecution, ShardedSession, ShardingProfile, StridedSession};
use cama::workloads::Benchmark;

const INPUT_LEN: usize = 4096;

fn snort() -> (Nfa, Vec<u8>) {
    let nfa = Benchmark::Snort.generate(0.02);
    let input = Benchmark::Snort.input(&nfa, INPUT_LEN, 1);
    (nfa, input)
}

/// `(words visited, shard-cycles run, shard-cycles skipped)` of one
/// idle-skipping pass over `input`.
fn sharded_counts<P: ShardedExecution>(plan: &ShardedAutomaton<P>, input: &[u8]) -> [u64; 3] {
    let mut session = ShardedSession::new(plan);
    session.feed(input);
    session.finish();
    let stats = session.take_stats();
    [
        stats.words_visited,
        stats.visited_shard_cycles(),
        stats.skipped_shard_cycles,
    ]
}

#[test]
fn sharded_idle_skip_counters_are_pinned() {
    let (nfa, input) = snort();
    let components = graph::connected_components(&nfa).len();
    for (shards, expect) in [
        (4, [35_082, 5_847, 10_537]),
        (16, [14_340, 7_170, 58_366]),
        (components, [7_420, 7_420, 418_564]),
    ] {
        let plan = ShardedAutomaton::compile(&nfa, shards);
        assert_eq!(sharded_counts(&plan, &input), expect, "{shards} shards");
    }
}

#[test]
fn strided_word_counters_are_pinned() {
    let (nfa, input) = snort();
    let strided = StridedNfa::from_nfa(&nfa);
    let plan = CompiledStridedAutomaton::compile(&strided);
    for (selective, expect) in [(true, 5_433), (false, 55_296)] {
        let mut session = StridedSession::new(&plan);
        session.set_selective(selective);
        session.feed(&input);
        session.finish();
        assert_eq!(session.words_visited(), expect, "selective {selective}");
    }
    let per_component = ShardedAutomaton::compile_per_component(&strided);
    assert_eq!(sharded_counts(&per_component, &input)[0], 3_877);
    // The `strided` bench group's `snort_byte_sharded/16` plan.
    let sixteen = ShardedAutomaton::compile(&strided, 16);
    assert_eq!(sharded_counts(&sixteen, &input), [7_316, 3_658, 29_110]);
}

#[test]
fn hybrid_hot_chain_word_counters_are_pinned() {
    // The `sharding` group's skewed hot-component ruleset: one
    // 448-state chain takes all of the input while eight short literals
    // idle.
    let rules: Vec<String> = std::iter::once(format!("{}b", "a".repeat(447)))
        .chain((0..8).map(|i| format!("cold{i:02}literal")))
        .collect();
    let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
    let nfa = regex::compile_set(&refs).unwrap();
    let input = vec![b'a'; INPUT_LEN];
    let mut cache = PlanCache::default();
    let (nfa_plan, _) = compile_ruleset(&nfa, 1, &mut cache);
    let policy = {
        let mut session = ShardedSession::new(&nfa_plan);
        session.feed(&input);
        session.finish();
        let budget = DfaBudget {
            max_states: 512,
            max_table_bytes: 1 << 20,
        };
        ShardingProfile::from_stats(session.stats()).dfa_policy(budget, 2 << 20)
    };
    let (hybrid_plan, _) = compile_hybrid_ruleset(&nfa, 1, &mut cache, &policy);

    assert_eq!(sharded_counts(&nfa_plan, &input)[0], 28_672);
    // With the DFA path switched off the hybrid compiler falls back to
    // the pure NFA plan.
    let hybrid_words = if dfa_enabled() { 4_096 } else { 28_672 };
    assert_eq!(sharded_counts(&hybrid_plan, &input)[0], hybrid_words);
}
