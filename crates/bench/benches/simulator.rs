//! Criterion benchmarks for the cycle engine: interpreted vs compiled
//! single-stream throughput on a Snort-like workload, streaming-session
//! `feed` vs one-shot `run`, batched multi-stream scaling (sequential
//! and threaded), framed-wire ingestion, byte-plan vs encoded-plan
//! execution per encoding scheme, the energy-observer overhead, and the
//! 2-stride engine.

use cama_arch::designs::DesignKind;
use cama_arch::energy::EnergyObserver;
use cama_arch::mapping::map_design;
use cama_core::compile::{compile_hybrid_ruleset, compile_ruleset, dfa_enabled, PlanCache};
use cama_core::compiled::{
    CompiledAutomaton, CompiledStridedAutomaton, DfaBudget, ShardedAutomaton,
};
use cama_core::graph;
use cama_core::regex;
use cama_core::stride::StridedNfa;
use cama_core::Nfa;
use cama_encoding::{EncodingPlan, Scheme, StridedEncoding};
use cama_mem::models::CircuitLibrary;
use cama_sim::frame::{encode_close, encode_frame};
use cama_sim::{
    AutomataEngine, BatchSimulator, EncodedSession, FlowSession, FrameDecoder, InterpSimulator,
    Session, ShardedSession, ShardingProfile, Simulator, StreamId, StridedSession,
};
use cama_workloads::Benchmark;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const INPUT_LEN: usize = 4096;

/// Interpreted (structure-at-a-time) vs compiled (plan-based) execution
/// of the same Snort-like workload over the same input.
fn bench_interpreted_vs_compiled(c: &mut Criterion) {
    let nfa = Benchmark::Snort.generate(0.02);
    let input = Benchmark::Snort.input(&nfa, INPUT_LEN, 1);
    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Bytes(INPUT_LEN as u64));
    group.bench_function("snort_interpreted", |b| {
        let mut sim = InterpSimulator::new(&nfa);
        b.iter(|| black_box(sim.run(black_box(&input))))
    });
    group.bench_function("snort_compiled", |b| {
        let mut sim = Simulator::new(&nfa);
        b.iter(|| black_box(sim.run(black_box(&input))))
    });
    group.finish();
}

/// Streaming sessions vs the one-shot wrapper on the same workload: the
/// acceptance bar is `feed`-in-chunks throughput within 10% of one-shot
/// `run` (both drive the identical stepping loop; the session adds only
/// the chunk-loop bookkeeping).
fn bench_session_vs_one_shot(c: &mut Criterion) {
    let nfa = Benchmark::Snort.generate(0.02);
    let input = Benchmark::Snort.input(&nfa, INPUT_LEN, 1);
    let sim = Simulator::new(&nfa);
    let mut group = c.benchmark_group("streaming");
    group.throughput(Throughput::Bytes(INPUT_LEN as u64));
    group.bench_function("snort_one_shot_run", |b| {
        let mut sim = Simulator::new(&nfa);
        b.iter(|| black_box(sim.run(black_box(&input))))
    });
    for chunk in [64usize, 512] {
        group.bench_with_input(
            BenchmarkId::new("snort_session_feed", chunk),
            &chunk,
            |b, &chunk| {
                // One long-lived session; finish() resets it in place, so
                // the serving loop reuses all scratch capacity.
                let mut session = sim.start();
                b.iter(|| {
                    for piece in input.chunks(chunk) {
                        session.feed(black_box(piece));
                    }
                    black_box(session.finish())
                })
            },
        );
    }
    group.finish();
}

/// Framed-wire ingestion: 8 interleaved Snort-like flows demuxed out of
/// one wire buffer through the stream table, vs running the same flows
/// back-to-back from materialized inputs.
fn bench_framed_ingest(c: &mut Criterion) {
    const FLOWS: usize = 8;
    const FRAME: usize = 256;
    let nfa = Benchmark::Snort.generate(0.02);
    let plan = CompiledAutomaton::compile(&nfa);
    let flows: Vec<Vec<u8>> = (0..FLOWS)
        .map(|i| Benchmark::Snort.input(&nfa, INPUT_LEN, i as u64 + 1))
        .collect();

    let mut wire = Vec::new();
    for pos in (0..INPUT_LEN).step_by(FRAME) {
        for (id, flow) in flows.iter().enumerate() {
            encode_frame(id as StreamId, &flow[pos..pos + FRAME], &mut wire);
        }
    }
    for id in 0..FLOWS {
        encode_close(id as StreamId, &mut wire);
    }

    let mut group = c.benchmark_group("streaming");
    group.throughput(Throughput::Bytes((INPUT_LEN * FLOWS) as u64));
    group.bench_function("snort_framed_ingest_8_flows", |b| {
        let mut batch = BatchSimulator::new(&plan);
        b.iter(|| {
            let mut decoder = FrameDecoder::new();
            let mut closed = Vec::new();
            batch
                .ingest(&mut decoder, black_box(&wire), &mut closed)
                .unwrap();
            black_box(closed)
        })
    });
    group.bench_function("snort_materialized_8_flows", |b| {
        let batch = BatchSimulator::new(&plan);
        let refs: Vec<&[u8]> = flows.iter().map(Vec::as_slice).collect();
        b.iter(|| black_box(batch.run_all(refs.iter().copied())))
    });
    group.finish();
}

/// Batched multi-stream execution over one shared compiled plan:
/// sequential scaling with stream count, and the threaded path.
fn bench_batched(c: &mut Criterion) {
    let nfa = Benchmark::Snort.generate(0.02);
    let plan = CompiledAutomaton::compile(&nfa);
    let batch = BatchSimulator::new(&plan);
    let mut group = c.benchmark_group("batch");
    for num_streams in [1usize, 4, 16] {
        let streams: Vec<Vec<u8>> = (0..num_streams)
            .map(|i| Benchmark::Snort.input(&nfa, INPUT_LEN, i as u64 + 1))
            .collect();
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        group.throughput(Throughput::Bytes((INPUT_LEN * num_streams) as u64));
        group.bench_with_input(
            BenchmarkId::new("sequential", num_streams),
            &refs,
            |b, refs| b.iter(|| black_box(batch.run_all(refs.iter().copied()))),
        );
        group.bench_with_input(
            BenchmarkId::new("threads4", num_streams),
            &refs,
            |b, refs| b.iter(|| black_box(batch.run_parallel(refs, 4))),
        );
        // The naive serving loop: construct (and recompile) a Simulator
        // per stream instead of sharing one plan.
        group.bench_with_input(
            BenchmarkId::new("per_stream_compile", num_streams),
            &refs,
            |b, refs| {
                b.iter(|| {
                    for stream in refs.iter() {
                        black_box(Simulator::new(&nfa).run(stream));
                    }
                })
            },
        );
    }
    group.finish();
}

/// Sharded execution on the multi-component Snort-like workload: flat
/// vs sharded with every array powered (`no_skip`) vs sharded with
/// idle-shard skipping, sweeping shard count. After the timed runs, one
/// instrumented pass per configuration prints per-shard visit counts
/// and the visited-word reduction idle-skipping buys.
/// A skewed workload over `nfa`: a short trace walked out of one start
/// state's component, repeated — a few components carry all of the
/// activity while the rest only wake when their start classes happen to
/// contain a trace symbol. The shape profile-guided sharding exploits.
fn skewed_input(nfa: &Nfa, len: usize) -> Vec<u8> {
    let start = nfa.start_states().next().expect("benchmark NFA has starts");
    let mut trace = Vec::with_capacity(32);
    let mut state = start;
    for _ in 0..32 {
        trace.push(nfa.ste(state).class.min_symbol().unwrap_or(b'a'));
        state = nfa.successors(state).first().copied().unwrap_or(start);
    }
    trace.iter().copied().cycle().take(len).collect()
}

fn bench_sharding(c: &mut Criterion) {
    let nfa = Benchmark::Snort.generate(0.02);
    let input = Benchmark::Snort.input(&nfa, INPUT_LEN, 1);
    let components = graph::connected_components(&nfa).len();
    let shard_counts = [4usize, 16, components];

    let mut group = c.benchmark_group("sharding");
    group.throughput(Throughput::Bytes(INPUT_LEN as u64));
    group.bench_function("snort_flat", |b| {
        let mut sim = Simulator::new(&nfa);
        b.iter(|| black_box(sim.run(black_box(&input))))
    });
    for &shards in &shard_counts {
        let plan = ShardedAutomaton::compile(&nfa, shards);
        group.bench_with_input(
            BenchmarkId::new("sharded_no_skip", shards),
            &plan,
            |b, plan| {
                let mut session = ShardedSession::new(plan);
                session.set_skip_idle(false);
                b.iter(|| {
                    session.feed(black_box(&input));
                    black_box(session.finish())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sharded_skip_idle", shards),
            &plan,
            |b, plan| {
                let mut session = ShardedSession::new(plan);
                b.iter(|| {
                    session.feed(black_box(&input));
                    black_box(session.finish())
                })
            },
        );
    }

    // Profile-guided re-sharding on a skewed workload: one profiling
    // run on the static size-balanced sharding, then re-shard along the
    // measured heat so the cold mass lands in skippable shards.
    let skewed = skewed_input(&nfa, INPUT_LEN);
    let static_plan = ShardedAutomaton::compile(&nfa, 16);
    let profile = {
        let mut session = ShardedSession::new(&static_plan);
        session.feed(&skewed);
        session.finish();
        ShardingProfile::from_stats(session.stats())
    };
    let tuned_plan = ShardedAutomaton::compile_with_assignment(&nfa, &profile.assignment(&nfa, 16));
    group.bench_with_input(
        BenchmarkId::new("skewed_static", 16),
        &static_plan,
        |b, plan| {
            let mut session = ShardedSession::new(plan);
            b.iter(|| {
                session.feed(black_box(&skewed));
                black_box(session.finish())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("skewed_profile_guided", 16),
        &tuned_plan,
        |b, plan| {
            let mut session = ShardedSession::new(plan);
            b.iter(|| {
                session.feed(black_box(&skewed));
                black_box(session.finish())
            })
        },
    );

    // Hybrid DFA fast path on a skewed hot-component ruleset: one long
    // chain component (a single-symbol repeat whose active set grows to
    // ~448 states — seven 64-bit words of NFA sweep per cycle) takes
    // all of the input activity while a tail of short literal patterns
    // idles in skippable shards. A profiling run nominates the hot
    // component; determinizing it collapses the multi-word sweep into
    // one dense-table row load per cycle. The baseline is the identical
    // per-component sharding with every shard on the NFA word kernels.
    let hot_rules: Vec<String> = std::iter::once(format!("{}b", "a".repeat(447)))
        .chain((0..8).map(|i| format!("cold{i:02}literal")))
        .collect();
    let hot_refs: Vec<&str> = hot_rules.iter().map(String::as_str).collect();
    let hot_nfa = regex::compile_set(&hot_refs).expect("hot ruleset compiles");
    let hot_input = vec![b'a'; INPUT_LEN];
    let mut plan_cache = PlanCache::default();
    let (hot_nfa_plan, _) = compile_ruleset(&hot_nfa, 1, &mut plan_cache);
    let hybrid_policy = {
        let mut session = ShardedSession::new(&hot_nfa_plan);
        session.feed(&hot_input);
        session.finish();
        ShardingProfile::from_stats(session.stats()).dfa_policy(
            DfaBudget {
                max_states: 512,
                max_table_bytes: 1 << 20,
            },
            2 << 20,
        )
    };
    let (hybrid_plan, _) = compile_hybrid_ruleset(&hot_nfa, 1, &mut plan_cache, &hybrid_policy);
    group.bench_with_input(
        BenchmarkId::new("skewed_hot_nfa", hot_nfa_plan.num_shards()),
        &hot_nfa_plan,
        |b, plan| {
            let mut session = ShardedSession::new(plan);
            b.iter(|| {
                session.feed(black_box(&hot_input));
                black_box(session.finish())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("skewed_hybrid_dfa", hybrid_plan.num_shards()),
        &hybrid_plan,
        |b, plan| {
            let mut session = ShardedSession::new(plan);
            b.iter(|| {
                session.feed(black_box(&hot_input));
                black_box(session.finish())
            })
        },
    );
    group.finish();

    println!(
        "sharding visit counts (snort: {} states, {} components, {}-byte input)",
        nfa.len(),
        components,
        input.len()
    );
    for &shards in &shard_counts {
        let plan = ShardedAutomaton::compile(&nfa, shards);
        for (label, skip) in [("no_skip  ", false), ("skip_idle", true)] {
            let mut session = ShardedSession::new(&plan);
            session.set_skip_idle(skip);
            session.feed(&input);
            session.finish();
            let stats = session.take_stats();
            let min = stats.shard_cycles.iter().min().copied().unwrap_or(0);
            let max = stats.shard_cycles.iter().max().copied().unwrap_or(0);
            println!(
                "  {:>4} shards {label}: {:>8} words visited, {:>7} shard-cycles run \
                 ({} skipped), per-shard visits {min}..{max}, {} cross activations",
                plan.num_shards(),
                stats.words_visited,
                stats.visited_shard_cycles(),
                stats.skipped_shard_cycles,
                stats.cross_activations,
            );
        }
    }

    let skewed_stats = |plan: &ShardedAutomaton| {
        let mut session = ShardedSession::new(plan);
        session.feed(&skewed);
        session.finish();
        session.take_stats()
    };
    let base = skewed_stats(&static_plan);
    let tuned = skewed_stats(&tuned_plan);
    let reduction = 100.0 * base.words_visited.saturating_sub(tuned.words_visited) as f64
        / base.words_visited.max(1) as f64;
    println!(
        "  profile-guided re-sharding (skewed {}-byte input, 16 shards): \
         {} -> {} words visited ({reduction:.1}% fewer), \
         shard-cycles {} -> {}, skipped {} -> {}",
        skewed.len(),
        base.words_visited,
        tuned.words_visited,
        base.visited_shard_cycles(),
        tuned.visited_shard_cycles(),
        base.skipped_shard_cycles,
        tuned.skipped_shard_cycles,
    );

    // Hot-component NFA vs hybrid DFA on the chain ruleset: visited
    // words (a DFA shard charges one word per visited cycle, so the
    // reduction is the fast path's working-set win) plus a directly
    // measured wall clock — trials alternate between the two plans and
    // keep the minimum, so transient interference hits both sides
    // equally instead of whichever ran second.
    let hot_stats = |plan: &ShardedAutomaton| {
        let mut session = ShardedSession::new(plan);
        session.feed(&hot_input);
        session.finish();
        session.take_stats()
    };
    let hot = hot_stats(&hot_nfa_plan);
    let hybrid = hot_stats(&hybrid_plan);
    const ROUNDS: u32 = 10;
    const TRIALS: u32 = 25;
    let time_plan = |plan: &ShardedAutomaton| {
        let mut session = ShardedSession::new(plan);
        session.feed(&hot_input);
        black_box(session.finish());
        let start = std::time::Instant::now();
        for _ in 0..ROUNDS {
            session.feed(black_box(&hot_input));
            black_box(session.finish());
        }
        start.elapsed()
    };
    let mut nfa_wall = std::time::Duration::MAX;
    let mut hybrid_wall = std::time::Duration::MAX;
    for _ in 0..TRIALS {
        nfa_wall = nfa_wall.min(time_plan(&hot_nfa_plan));
        hybrid_wall = hybrid_wall.min(time_plan(&hybrid_plan));
    }
    let faster =
        100.0 * (nfa_wall.as_secs_f64() - hybrid_wall.as_secs_f64()) / nfa_wall.as_secs_f64();
    println!(
        "  hybrid DFA fast path (hot-chain {}-byte input, {} of {} shards determinized{}): \
         {} -> {} words visited, wall clock {ROUNDS}x: NFA {:.3} ms, hybrid {:.3} ms \
         ({faster:.1}% faster)",
        hot_input.len(),
        hybrid_plan.num_dfa_shards(),
        hybrid_plan.num_shards(),
        if dfa_enabled() { "" } else { "; CAMA_DFA=off" },
        hot.words_visited,
        hybrid.words_visited,
        nfa_wall.as_secs_f64() * 1e3,
        hybrid_wall.as_secs_f64() * 1e3,
    );
}

/// Byte plan vs encoded plans, one per encoding scheme: the encoded
/// engine adds one input-encoder lookup per cycle (symbol → code row)
/// and then runs the identical word-level loop, so throughput should be
/// within noise of the byte plan regardless of code length.
fn bench_encoded(c: &mut Criterion) {
    let nfa = Benchmark::Snort.generate(0.02);
    let input = Benchmark::Snort.input(&nfa, INPUT_LEN, 1);
    let mut group = c.benchmark_group("encoded");
    group.throughput(Throughput::Bytes(INPUT_LEN as u64));
    group.bench_function("snort_byte_plan", |b| {
        let mut sim = Simulator::new(&nfa);
        b.iter(|| black_box(sim.run(black_box(&input))))
    });

    let schemes: [(&str, EncodingPlan); 5] = [
        ("proposed", EncodingPlan::for_nfa(&nfa)),
        (
            "one_zero_256",
            EncodingPlan::with_scheme(&nfa, Scheme::OneZero { len: 256 }, true),
        ),
        (
            "multi_zeros_11",
            EncodingPlan::with_scheme(&nfa, Scheme::MultiZeros { len: 11 }, true),
        ),
        (
            "two_zeros_prefix_32",
            EncodingPlan::with_scheme(
                &nfa,
                Scheme::TwoZerosPrefix {
                    prefix: 16,
                    suffix: 16,
                },
                true,
            ),
        ),
        (
            "one_zero_prefix_32",
            EncodingPlan::with_scheme(
                &nfa,
                Scheme::OneZeroPrefix {
                    prefix: 16,
                    suffix: 16,
                },
                false,
            ),
        ),
    ];
    let plans: Vec<(&str, _)> = schemes
        .iter()
        .map(|(label, encoding)| (*label, encoding.compile(&nfa)))
        .collect();
    for (label, plan) in &plans {
        group.bench_with_input(BenchmarkId::new("snort_encoded", label), plan, |b, plan| {
            let mut session = EncodedSession::new(plan);
            b.iter(|| {
                session.feed(black_box(&input));
                black_box(session.finish())
            })
        });
    }
    group.finish();

    println!(
        "encoded plans (snort: {} states, {}-byte input)",
        nfa.len(),
        input.len()
    );
    for (label, plan) in &plans {
        println!(
            "  {label:<20}: {:>2}-bit codes, {:>5} rows, {:>6} entries, {:>4} negated states",
            plan.code_len(),
            plan.num_codes() + 1,
            plan.total_entries(),
            plan.negated_states(),
        );
    }
}

fn bench_with_energy(c: &mut Criterion) {
    let nfa = Benchmark::Snort.generate(0.02);
    let input = Benchmark::Snort.input(&nfa, INPUT_LEN, 1);
    let lib = CircuitLibrary::tsmc28();
    let plan = EncodingPlan::for_nfa(&nfa);
    let mapping = map_design(DesignKind::CamaE, &nfa, Some(&plan));
    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Bytes(INPUT_LEN as u64));
    group.bench_function("snort_with_energy_observer", |b| {
        let mut sim = Simulator::new(&nfa);
        b.iter(|| {
            let mut observer = EnergyObserver::for_nfa(DesignKind::CamaE, &mapping, &lib, &nfa);
            sim.run_with(black_box(&input), &mut observer);
            black_box(observer.breakdown)
        })
    });
    group.finish();
}

/// The 2-stride engines at parity with the byte datapath: naive scan
/// (every word precharged) vs selective visitation vs sharded
/// (idle arrays skipped), each in byte and encoded flavours. After the
/// timed runs, one instrumented pass per configuration prints
/// visited-word counts, like the `sharding` group.
fn bench_strided(c: &mut Criterion) {
    let nfa = Benchmark::Snort.generate(0.02);
    let input = Benchmark::Snort.input(&nfa, INPUT_LEN, 1);
    let strided = StridedNfa::from_nfa(&nfa);
    let byte_plan = CompiledStridedAutomaton::compile(&strided);
    let encoding = StridedEncoding::for_strided(&strided);
    let encoded_plan = encoding.compile(&strided);
    let (ids, components) = graph::component_ids(&strided);
    let sharded_byte = ShardedAutomaton::compile(&strided, 16);
    let sharded_cc = ShardedAutomaton::compile_per_component(&strided);
    let sharded_encoded = encoding.compile_sharded(&strided, &ids);

    let mut group = c.benchmark_group("strided");
    group.throughput(Throughput::Bytes(INPUT_LEN as u64));
    group.bench_function("snort_byte_naive_scan", |b| {
        let mut session = StridedSession::new(&byte_plan);
        session.set_selective(false);
        b.iter(|| {
            session.feed(black_box(&input));
            black_box(session.finish())
        })
    });
    group.bench_function("snort_byte_selective", |b| {
        let mut session = StridedSession::new(&byte_plan);
        b.iter(|| {
            session.feed(black_box(&input));
            black_box(session.finish())
        })
    });
    group.bench_function("snort_encoded_naive_scan", |b| {
        let mut session = StridedSession::new(&encoded_plan);
        session.set_selective(false);
        b.iter(|| {
            session.feed(black_box(&input));
            black_box(session.finish())
        })
    });
    group.bench_function("snort_encoded_selective", |b| {
        let mut session = StridedSession::new(&encoded_plan);
        b.iter(|| {
            session.feed(black_box(&input));
            black_box(session.finish())
        })
    });
    group.bench_with_input(
        BenchmarkId::new("snort_byte_sharded", 16),
        &sharded_byte,
        |b, plan| {
            let mut session = ShardedSession::new(plan);
            b.iter(|| {
                session.feed(black_box(&input));
                black_box(session.finish())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("snort_byte_sharded", components),
        &sharded_cc,
        |b, plan| {
            let mut session = ShardedSession::new(plan);
            b.iter(|| {
                session.feed(black_box(&input));
                black_box(session.finish())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("snort_encoded_sharded", components),
        &sharded_encoded,
        |b, plan| {
            let mut session = ShardedSession::new(plan);
            b.iter(|| {
                session.feed(black_box(&input));
                black_box(session.finish())
            })
        },
    );
    group.finish();

    println!(
        "strided visit counts (snort: {} strided states, {} components, {}-byte input, \
         per-half codes {}+{} bits)",
        strided.len(),
        components,
        input.len(),
        encoding.first().code_len(),
        encoding.second().code_len(),
    );
    for (label, selective) in [("naive_scan", false), ("selective ", true)] {
        let mut session = StridedSession::new(&byte_plan);
        session.set_selective(selective);
        session.feed(&input);
        session.finish();
        let byte_words = session.words_visited();
        let mut session = StridedSession::new(&encoded_plan);
        session.set_selective(selective);
        session.feed(&input);
        session.finish();
        println!(
            "  flat {label}: {byte_words:>9} words visited (byte), {:>9} (encoded)",
            session.words_visited()
        );
    }
    for (label, plan_words) in [
        ("sharded 16       ", {
            let mut session = ShardedSession::new(&sharded_byte);
            session.feed(&input);
            session.finish();
            session.take_stats()
        }),
        ("sharded per-comp ", {
            let mut session = ShardedSession::new(&sharded_cc);
            session.feed(&input);
            session.finish();
            session.take_stats()
        }),
        ("sharded enc comp ", {
            let mut session = ShardedSession::new(&sharded_encoded);
            session.feed(&input);
            session.finish();
            session.take_stats()
        }),
    ] {
        let min = plan_words.shard_cycles.iter().min().copied().unwrap_or(0);
        let max = plan_words.shard_cycles.iter().max().copied().unwrap_or(0);
        println!(
            "  {label}: {:>9} words visited, {:>8} shard-cycles run ({} skipped), \
             per-shard visits {min}..{max}",
            plan_words.words_visited,
            plan_words.visited_shard_cycles(),
            plan_words.skipped_shard_cycles,
        );
    }
}

criterion_group!(
    benches,
    bench_interpreted_vs_compiled,
    bench_session_vs_one_shot,
    bench_framed_ingest,
    bench_batched,
    bench_sharding,
    bench_encoded,
    bench_with_energy,
    bench_strided
);
criterion_main!(benches);
