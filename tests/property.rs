//! Randomized property tests over the core invariants (see "Modelling
//! assumptions and invariants" in `docs/ARCHITECTURE.md`):
//! regex/Glushkov correctness, engine agreement (compiled ≡ interpreted
//! ≡ reference, single-stream ≡ batched), encoding exactness, stride
//! equivalence, and crossbar-remap fidelity — all with randomly
//! generated structures.
//!
//! The harness is self-contained: cases are drawn from the workspace's
//! deterministic `StdRng` (this repo builds without registry access, so
//! there is no `proptest` dependency). Every case prints its seed in
//! the assertion message, so a failure is reproducible by construction.

use cama::core::bitset::BitSet;
use cama::core::compile::{
    compile_hybrid_ruleset, compile_ruleset, dfa_enabled, DfaPolicy, PlanCache, PlanRemap,
};
use cama::core::compiled::{
    CompiledAutomaton, CompiledStridedAutomaton, DfaBudget, ShardedAutomaton,
};
use cama::core::graph;
use cama::core::regex::{self, reference};
use cama::core::stride::StridedNfa;
use cama::core::{Nfa, NfaBuilder, StartKind, SteId, SymbolClass};
use cama::encoding::{EncodingPlan, Scheme, StridedEncoding};
use cama::mem::{FullCrossbar, ReducedCrossbar, K_DIA};
use cama::sim::control::{
    ClassLruPolicy, ControlConfig, ControlledBatch, FlowSpec, LruPolicy, QosClass, QosPolicy,
    RateLimit, VictimPolicy,
};
use cama::sim::frame::{encode_close, encode_frame};
use cama::sim::{
    AutomataEngine, BatchSimulator, ByteSession, EncodedSession, EncodedSimulator,
    EncodedStridedSimulator, FlatSession, FlowSession, FrameDecoder, InterpSimulator,
    ParallelShardedPlan, ParallelShardedSession, RunResult, Session, ShardCycleSummary,
    ShardCycleView, ShardObserver, ShardStats, ShardedExecution, ShardedSession, ShardedSimulator,
    Simulator, StreamId, StreamPlan, StridedSimulator,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CASES: u64 = 64;

/// A small pattern grammar guaranteed parser-safe: a sequence of atoms
/// from a fixed pool, each optionally quantified.
fn random_pattern(rng: &mut StdRng) -> String {
    const ATOMS: [&str; 5] = ["[a-e]", "x", "[^a]", ".", "[b-d]"];
    const QUANTIFIERS: [&str; 3] = ["", "+", "?"];
    let units = rng.random_range(1..5usize);
    let mut pattern = String::new();
    for _ in 0..units {
        pattern.push_str(ATOMS[rng.random_range(0..ATOMS.len())]);
        pattern.push_str(QUANTIFIERS[rng.random_range(0..QUANTIFIERS.len())]);
    }
    pattern
}

fn random_input(rng: &mut StdRng) -> Vec<u8> {
    const SYMBOLS: [u8; 5] = [b'a', b'b', b'c', b'x', b'z'];
    let len = rng.random_range(0..24usize);
    (0..len)
        .map(|_| SYMBOLS[rng.random_range(0..SYMBOLS.len())])
        .collect()
}

/// A random homogeneous NFA: 2–12 states with random (possibly negated)
/// classes, random edges, at least one start and one reporting state.
fn random_nfa(rng: &mut StdRng) -> Nfa {
    random_nfa_with(rng, false)
}

/// [`random_nfa`], optionally making every third state (from the third
/// on) a start-of-data state.
fn random_nfa_with(rng: &mut StdRng, start_of_data: bool) -> Nfa {
    let n = rng.random_range(2..12usize);
    let mut builder = NfaBuilder::new();
    for i in 0..n {
        let mut class = SymbolClass::EMPTY;
        for _ in 0..rng.random_range(1..6usize) {
            class.insert(rng.random());
        }
        let class = if rng.random_bool(0.5) { !class } else { class };
        let id = builder.add_ste(class);
        if i % 3 == 0 {
            builder.set_start(id, StartKind::AllInput);
        }
        if start_of_data && i % 3 == 2 {
            builder.set_start(id, StartKind::StartOfData);
        }
        if i % 4 == 1 {
            builder.set_report(id, i as u32);
        }
    }
    // Always at least one start and one reporting state.
    builder.set_start(SteId(0), StartKind::AllInput);
    builder.set_report(SteId((n - 1) as u32), 99);
    for _ in 0..rng.random_range(0..20usize) {
        let from = SteId(rng.random_range(0..n) as u32);
        let to = SteId(rng.random_range(0..n) as u32);
        builder.add_edge(from, to);
    }
    builder.build().expect("non-empty classes")
}

#[test]
fn glushkov_agrees_with_reference() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6100 + seed);
        let pattern = random_pattern(&mut rng);
        let ast = regex::parse(&pattern).unwrap();
        if ast.is_nullable() {
            continue;
        }
        let nfa = regex::compile(&pattern).unwrap();
        let input = random_input(&mut rng);
        let simulated = Simulator::new(&nfa).run(&input).report_offsets();
        let expected = reference::scan_report_offsets(&ast, &input);
        assert_eq!(simulated, expected, "seed {seed}, pattern {pattern}");
    }
}

/// The tentpole invariant: the compiled engine, the interpreted
/// reference engine, and the batched runner agree bit-for-bit (reports
/// and offsets) with each other — and with `regex::reference` where a
/// pattern semantics oracle exists — on random patterns × inputs.
#[test]
fn compiled_interpreted_and_reference_agree() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0_0000 + seed);
        let pattern = random_pattern(&mut rng);
        let ast = regex::parse(&pattern).unwrap();
        if ast.is_nullable() {
            continue;
        }
        let nfa = regex::compile(&pattern).unwrap();
        let input = random_input(&mut rng);

        let compiled = Simulator::new(&nfa).run(&input);
        let interpreted = InterpSimulator::new(&nfa).run(&input);
        assert_eq!(
            compiled, interpreted,
            "seed {seed}: compiled vs interpreted, pattern {pattern}"
        );

        let plan = CompiledAutomaton::compile(&nfa);
        let batched = &BatchSimulator::new(&plan).run_all([input.as_slice()])[0];
        assert_eq!(
            &compiled, batched,
            "seed {seed}: single vs batched, pattern {pattern}"
        );

        let oracle = reference::scan_report_offsets(&ast, &input);
        assert_eq!(
            compiled.report_offsets(),
            oracle,
            "seed {seed}: engine vs reference, pattern {pattern}"
        );
    }
}

/// Engine agreement on arbitrary (non-regex) NFAs, where start kinds,
/// report codes, and edge structure are unconstrained.
#[test]
fn compiled_agrees_with_interpreted_on_random_nfas() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD0_0000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let compiled = Simulator::new(&nfa).run(&input);
        let interpreted = InterpSimulator::new(&nfa).run(&input);
        assert_eq!(compiled, interpreted, "seed {seed}");
    }
}

/// The threaded batch path returns exactly what the sequential path
/// returns, in stream order.
#[test]
fn parallel_batch_agrees_with_sequential() {
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(0xBA7C4 + seed);
        let nfa = random_nfa(&mut rng);
        let streams: Vec<Vec<u8>> = (0..17).map(|_| random_input(&mut rng)).collect();
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let plan = CompiledAutomaton::compile(&nfa);
        let batch = BatchSimulator::new(&plan);
        let sequential = batch.run_all(refs.iter().copied());
        for threads in [2, 3, 5] {
            assert_eq!(
                batch.run_parallel(&refs, threads),
                sequential,
                "seed {seed}, threads {threads}"
            );
        }
    }
}

/// Splits `input` into random chunks (including empty and 1-byte ones),
/// preserving order and concatenation.
fn random_chunks<'a>(rng: &mut StdRng, input: &'a [u8]) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut rest = input;
    while !rest.is_empty() {
        let cut = rng.random_range(0..=rest.len().min(5));
        let (chunk, tail) = rest.split_at(cut);
        chunks.push(chunk);
        rest = tail;
    }
    chunks.push(rest);
    chunks
}

/// Feeds `chunks` through a fresh session of `engine` and finishes.
fn via_session<E: AutomataEngine>(engine: &E, chunks: &[&[u8]]) -> RunResult {
    let mut session = engine.start();
    for chunk in chunks {
        session.feed(chunk);
    }
    session.finish()
}

/// Chunk-boundary equivalence, the streaming-session invariant: feeding
/// an input in arbitrary chunks (down to single bytes) through any
/// engine's session produces a result identical to the one-shot run of
/// that engine — and the engines agree with each other.
#[test]
fn chunked_feed_equals_one_shot_across_engines() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5E55_0000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let chunks = random_chunks(&mut rng, &input);
        let bytes: Vec<&[u8]> = input.chunks(1).collect();

        let mut compiled_engine = Simulator::new(&nfa);
        let one_shot = compiled_engine.run(&input);
        assert_eq!(
            via_session(&compiled_engine, &chunks),
            one_shot,
            "seed {seed}: byte session, chunks {chunks:?}"
        );
        assert_eq!(
            via_session(&compiled_engine, &bytes),
            one_shot,
            "seed {seed}: byte session, 1-byte chunks"
        );

        let mut interp_engine = InterpSimulator::new(&nfa);
        assert_eq!(
            via_session(&interp_engine, &chunks),
            interp_engine.run(&input),
            "seed {seed}: interp session"
        );
        assert_eq!(
            via_session(&interp_engine, &chunks),
            one_shot,
            "seed {seed}: interp vs compiled"
        );

        // Strided: odd-length chunks split stride pairs; the carry byte
        // must keep absolute offsets intact.
        let strided = StridedNfa::from_nfa(&nfa);
        let mut strided_engine = StridedSimulator::new(&strided);
        let strided_one_shot = strided_engine.run(&input);
        assert_eq!(
            via_session(&strided_engine, &chunks),
            strided_one_shot,
            "seed {seed}: strided session, chunks {chunks:?}"
        );
        assert_eq!(
            via_session(&strided_engine, &bytes),
            strided_one_shot,
            "seed {seed}: strided session, 1-byte chunks"
        );
        assert_eq!(
            strided_one_shot.report_offsets(),
            one_shot.report_offsets(),
            "seed {seed}: strided vs byte offsets"
        );
    }
}

/// The one-shot wrappers are thin shells over sessions: their results
/// are byte-identical to explicit session runs (no silent behavior
/// change for existing benches).
#[test]
fn one_shot_wrappers_identical_to_sessions() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5E55_2000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);

        let mut sim = Simulator::new(&nfa);
        let via_session = {
            let mut session = sim.start();
            session.feed(&input);
            session.finish()
        };
        assert_eq!(sim.run(&input), via_session, "seed {seed}: Simulator::run");

        let strided = StridedNfa::from_nfa(&nfa);
        let mut ssim = StridedSimulator::new(&strided);
        let via_session = {
            let mut session = ssim.start();
            session.feed(&input);
            session.finish()
        };
        assert_eq!(
            ssim.run(&input),
            via_session,
            "seed {seed}: StridedSimulator::run"
        );

        let mut isim = InterpSimulator::new(&nfa);
        let via_session = {
            let mut session = isim.start();
            session.feed(&input);
            session.finish()
        };
        assert_eq!(
            isim.run(&input),
            via_session,
            "seed {seed}: InterpSimulator::run"
        );
    }
}

/// Framed wire ingestion: random flows, random frame fragmentation,
/// random wire chunking — per-stream results equal one-shot runs.
#[test]
fn framed_ingest_equals_one_shot_runs() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5E55_3000 + seed);
        let nfa = random_nfa(&mut rng);
        let flows: Vec<Vec<u8>> = (0..rng.random_range(1..6usize))
            .map(|_| random_input(&mut rng))
            .collect();

        // Encode each flow as randomly sized frames, interleaved
        // round-robin, with close markers at the end.
        let mut wire = Vec::new();
        let mut remaining: Vec<&[u8]> = flows.iter().map(Vec::as_slice).collect();
        while remaining.iter().any(|r| !r.is_empty()) {
            for (id, rest) in remaining.iter_mut().enumerate() {
                if rest.is_empty() {
                    continue;
                }
                let take = rng.random_range(1..=rest.len().min(7));
                let (frame, tail) = rest.split_at(take);
                encode_frame(id as StreamId, frame, &mut wire);
                *rest = tail;
            }
        }
        for id in 0..flows.len() {
            encode_close(id as StreamId, &mut wire);
        }

        let plan = CompiledAutomaton::compile(&nfa);
        let mut batch = BatchSimulator::new(&plan);
        let mut decoder = FrameDecoder::new();
        let mut closed: Vec<(StreamId, RunResult)> = Vec::new();
        for piece in random_chunks(&mut rng, &wire) {
            batch.ingest(&mut decoder, piece, &mut closed).unwrap();
        }
        assert!(decoder.is_idle(), "seed {seed}");
        assert_eq!(closed.len(), flows.len(), "seed {seed}");
        assert_eq!(batch.open_count(), 0, "seed {seed}");

        let mut single = Simulator::new(&nfa);
        for (stream, result) in closed {
            assert_eq!(
                result,
                single.run(&flows[stream as usize]),
                "seed {seed}, stream {stream}"
            );
        }
    }
}

/// The shard counts every sharding assertion sweeps: one shard (the
/// degenerate flat case), two, and one shard per connected component.
fn shard_counts() -> [usize; 3] {
    [1, 2, usize::MAX]
}

/// The sharding tentpole invariant, one-shot path: for every shard
/// count the sharded engine's `RunResult` — reports, order, activity,
/// and the derived buffer stats — is bit-identical to the flat engine.
#[test]
fn sharded_one_shot_equals_flat() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x54A2_0000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let flat = Simulator::new(&nfa).run(&input);
        for shards in shard_counts() {
            let sharded = ShardedSimulator::new(&nfa, shards).run(&input);
            assert_eq!(sharded, flat, "seed {seed}, {shards} shards");
            assert_eq!(
                sharded.buffer_stats(input.len()),
                flat.buffer_stats(input.len()),
                "seed {seed}, {shards} shards"
            );
        }
        // Idle-shard skipping off: same results, more visited words.
        let mut no_skip = ShardedSimulator::per_component(&nfa).skip_idle(false);
        assert_eq!(no_skip.run(&input), flat, "seed {seed}: skip_idle off");
    }
}

/// Chunked-session path: feeding the sharded engine in arbitrary
/// chunks (down to single bytes) equals the flat one-shot run, and the
/// session's live buffer stats agree with the flat session's.
#[test]
fn sharded_chunked_feed_equals_flat() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x54A2_1000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let chunks = random_chunks(&mut rng, &input);
        let flat_engine = Simulator::new(&nfa);
        let flat = via_session(&flat_engine, &chunks);
        for shards in shard_counts() {
            let engine = ShardedSimulator::new(&nfa, shards);
            assert_eq!(
                via_session(&engine, &chunks),
                flat,
                "seed {seed}, {shards} shards, chunks {chunks:?}"
            );
            let bytes: Vec<&[u8]> = input.chunks(1).collect();
            assert_eq!(
                via_session(&engine, &bytes),
                flat,
                "seed {seed}, {shards} shards, 1-byte chunks"
            );
        }
        // Buffer stats mid-stream agree between flat and sharded
        // sessions fed identically.
        let mut flat_session = flat_engine.start();
        let engine = ShardedSimulator::new(&nfa, 2);
        let mut sharded_session = engine.start();
        for chunk in &chunks {
            flat_session.feed(chunk);
            sharded_session.feed(chunk);
            assert_eq!(
                flat_session.buffer_stats(),
                sharded_session.buffer_stats(),
                "seed {seed}"
            );
        }
    }
}

/// Framed-ingest path: demuxing random interleaved flows through a
/// sharded stream table (with and without a resident-session cap)
/// yields per-flow results identical to flat one-shot runs.
#[test]
fn sharded_framed_ingest_equals_flat() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x54A2_2000 + seed);
        let nfa = random_nfa(&mut rng);
        let flows: Vec<Vec<u8>> = (0..rng.random_range(1..6usize))
            .map(|_| random_input(&mut rng))
            .collect();

        let mut wire = Vec::new();
        let mut remaining: Vec<&[u8]> = flows.iter().map(Vec::as_slice).collect();
        while remaining.iter().any(|r| !r.is_empty()) {
            for (id, rest) in remaining.iter_mut().enumerate() {
                if rest.is_empty() {
                    continue;
                }
                let take = rng.random_range(1..=rest.len().min(7));
                let (frame, tail) = rest.split_at(take);
                encode_frame(id as StreamId, frame, &mut wire);
                *rest = tail;
            }
        }
        for id in 0..flows.len() {
            encode_close(id as StreamId, &mut wire);
        }

        let mut single = Simulator::new(&nfa);
        let expected: Vec<RunResult> = flows.iter().map(|f| single.run(f)).collect();

        for shards in shard_counts() {
            let plan = ShardedAutomaton::compile(&nfa, shards);
            for cap in [None, Some(1), Some(2)] {
                let mut batch = BatchSimulator::new(&plan);
                if let Some(cap) = cap {
                    batch = batch.max_resident(cap);
                }
                let mut decoder = FrameDecoder::new();
                let mut closed: Vec<(StreamId, RunResult)> = Vec::new();
                for piece in random_chunks(&mut rng, &wire) {
                    batch.ingest(&mut decoder, piece, &mut closed).unwrap();
                }
                assert!(decoder.is_idle(), "seed {seed}");
                assert_eq!(closed.len(), flows.len(), "seed {seed}");
                assert_eq!(batch.open_count(), 0, "seed {seed}");
                for (stream, result) in closed {
                    assert_eq!(
                        result, expected[stream as usize],
                        "seed {seed}, {shards} shards, cap {cap:?}, stream {stream}"
                    );
                }
            }
        }
    }
}

/// Suspend/resume transparency: parking a session mid-stream (at a
/// random boundary) and resuming — even into a *different* pooled
/// session — never perturbs the result.
#[test]
fn suspend_resume_is_transparent_mid_stream() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x54A2_3000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let cut = rng.random_range(0..=input.len());
        let flat = Simulator::new(&nfa).run(&input);

        // Flat engine sessions.
        let plan = CompiledAutomaton::compile(&nfa);
        let mut a = ByteSession::new(&plan);
        a.feed(&input[..cut]);
        let parked = a.suspend();
        a.feed(b"interloper traffic");
        a.reset();
        let mut b = ByteSession::new(&plan);
        b.resume(parked);
        b.feed(&input[cut..]);
        assert_eq!(b.finish(), flat, "seed {seed}: flat, cut {cut}");

        // Sharded engine sessions.
        let sharded_plan = ShardedAutomaton::compile(&nfa, 2);
        let mut a = cama::sim::ShardedSession::new(&sharded_plan);
        a.feed(&input[..cut]);
        let parked = a.suspend();
        a.feed(b"interloper traffic");
        a.reset();
        let mut b = cama::sim::ShardedSession::new(&sharded_plan);
        b.resume(parked);
        b.feed(&input[cut..]);
        assert_eq!(b.finish(), flat, "seed {seed}: sharded, cut {cut}");
    }
}

#[test]
fn encoding_is_exact_on_random_nfas() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE2C_000 + seed);
        let nfa = random_nfa(&mut rng);
        let plan = EncodingPlan::for_nfa(&nfa);
        assert!(plan.verify_exact(&nfa).is_ok(), "seed {seed}");
        // Entries are never fewer than states that need at least one.
        assert!(plan.total_entries() >= nfa.len(), "seed {seed}");
    }
}

/// Every encoding configuration the toolchain can produce for a random
/// NFA: the proposed pipeline (negation on), the negation-off baseline,
/// and each explicit scheme with and without clustering (negation on).
/// All four [`Scheme`] variants are sized to cover a full 256-symbol
/// domain, which random negated classes force.
fn all_encodings(nfa: &Nfa) -> Vec<(String, EncodingPlan)> {
    let mut encodings = vec![
        (
            "proposed/negation-on".to_string(),
            EncodingPlan::for_nfa(nfa),
        ),
        (
            "raw/negation-off".to_string(),
            EncodingPlan::without_negation(nfa),
        ),
    ];
    let schemes = [
        ("one_zero_256", Scheme::OneZero { len: 256 }),
        ("multi_zeros_11", Scheme::MultiZeros { len: 11 }),
        (
            "two_zeros_prefix_32",
            Scheme::TwoZerosPrefix {
                prefix: 16,
                suffix: 16,
            },
        ),
        (
            "one_zero_prefix_32",
            Scheme::OneZeroPrefix {
                prefix: 16,
                suffix: 16,
            },
        ),
    ];
    for (name, scheme) in schemes {
        for clustered in [true, false] {
            encodings.push((
                format!("{name}/clustered={clustered}"),
                EncodingPlan::with_scheme(nfa, scheme, clustered),
            ));
        }
    }
    encodings
}

/// The encoding-aware tentpole invariant, flat one-shot path: for every
/// scheme × clustering × negation configuration, executing on the
/// compiled *encoded* plan (codebook lookup + encoded entry masks,
/// inverters included) is bit-identical to the byte plan — reports,
/// order, offsets, and activity statistics — with `verify_exact`
/// cross-checking the static image on the same automata.
#[test]
fn encoded_execution_equals_byte_across_schemes() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE2C0_0000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let byte = Simulator::new(&nfa).run(&input);
        for (label, encoding) in all_encodings(&nfa) {
            encoding
                .verify_exact(&nfa)
                .unwrap_or_else(|e| panic!("seed {seed}, {label}: {e}"));
            let mut sim = EncodedSimulator::with_encoding(&nfa, encoding);
            assert_eq!(sim.run(&input), byte, "seed {seed}, {label}");
        }
    }
}

/// Chunked-session and framed-ingest paths of the encoded engine: both
/// must equal byte one-shot runs for arbitrary chunk and frame
/// boundaries, and the stream table must serve encoded flows unchanged.
#[test]
fn encoded_chunked_and_framed_equal_byte() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE2C0_1000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let chunks = random_chunks(&mut rng, &input);
        let byte = Simulator::new(&nfa).run(&input);

        let engine = EncodedSimulator::new(&nfa);
        assert_eq!(
            via_session(&engine, &chunks),
            byte,
            "seed {seed}: encoded session, chunks {chunks:?}"
        );
        let bytes: Vec<&[u8]> = input.chunks(1).collect();
        assert_eq!(
            via_session(&engine, &bytes),
            byte,
            "seed {seed}: encoded session, 1-byte chunks"
        );

        // Framed ingest over an encoded stream table.
        let flows: Vec<Vec<u8>> = (0..rng.random_range(1..5usize))
            .map(|_| random_input(&mut rng))
            .collect();
        let mut wire = Vec::new();
        let mut remaining: Vec<&[u8]> = flows.iter().map(Vec::as_slice).collect();
        while remaining.iter().any(|r| !r.is_empty()) {
            for (id, rest) in remaining.iter_mut().enumerate() {
                if rest.is_empty() {
                    continue;
                }
                let take = rng.random_range(1..=rest.len().min(7));
                let (frame, tail) = rest.split_at(take);
                encode_frame(id as StreamId, frame, &mut wire);
                *rest = tail;
            }
        }
        for id in 0..flows.len() {
            encode_close(id as StreamId, &mut wire);
        }
        let mut batch = BatchSimulator::new(engine.plan());
        let mut decoder = FrameDecoder::new();
        let mut closed: Vec<(StreamId, RunResult)> = Vec::new();
        for piece in random_chunks(&mut rng, &wire) {
            batch.ingest(&mut decoder, piece, &mut closed).unwrap();
        }
        assert_eq!(closed.len(), flows.len(), "seed {seed}");
        let mut single = Simulator::new(&nfa);
        for (stream, result) in closed {
            assert_eq!(
                result,
                single.run(&flows[stream as usize]),
                "seed {seed}, stream {stream}"
            );
        }
    }
}

/// Sharded encoded execution — per-shard `CompiledEncodedAutomaton`s
/// sharing one codebook — equals the flat byte engine for every
/// assignment shape (single shard, split components, per-component),
/// one-shot and chunked, and suspend/resume round-trips transparently
/// through pooled sessions for both flat and sharded encoded flavours.
#[test]
fn encoded_sharded_and_suspend_resume_equal_byte() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE2C0_2000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let chunks = random_chunks(&mut rng, &input);
        let byte = Simulator::new(&nfa).run(&input);
        let encoding = EncodingPlan::for_nfa(&nfa);

        let (component_ids, _) = graph::component_ids(&nfa);
        let assignments: [Vec<u32>; 3] = [
            vec![0; nfa.len()],
            (0..nfa.len() as u32).map(|i| i % 2).collect(),
            component_ids,
        ];
        for (kind, assignment) in assignments.iter().enumerate() {
            let sharded = encoding.compile_sharded(&nfa, assignment);
            let mut session = cama::sim::ShardedSession::new(&sharded);
            session.feed(&input);
            assert_eq!(
                session.finish(),
                byte,
                "seed {seed}: sharded encoded one-shot, assignment {kind}"
            );
            for chunk in &chunks {
                session.feed(chunk);
            }
            assert_eq!(
                session.finish(),
                byte,
                "seed {seed}: sharded encoded chunked, assignment {kind}"
            );
        }

        // Suspend/resume transparency, flat and sharded encoded.
        let cut = rng.random_range(0..=input.len());
        let flat_plan = encoding.compile(&nfa);
        let mut a = EncodedSession::new(&flat_plan);
        a.feed(&input[..cut]);
        let parked = a.suspend();
        a.feed(b"interloper traffic");
        a.reset();
        let mut b = EncodedSession::new(&flat_plan);
        b.resume(parked);
        b.feed(&input[cut..]);
        assert_eq!(b.finish(), byte, "seed {seed}: flat encoded, cut {cut}");

        let sharded_plan = encoding.compile_sharded(
            &nfa,
            &(0..nfa.len() as u32).map(|i| i % 2).collect::<Vec<_>>(),
        );
        let mut a = cama::sim::ShardedSession::new(&sharded_plan);
        a.feed(&input[..cut]);
        let parked = a.suspend();
        a.reset();
        let mut b = cama::sim::ShardedSession::new(&sharded_plan);
        b.resume(parked);
        b.feed(&input[cut..]);
        assert_eq!(b.finish(), byte, "seed {seed}: sharded encoded, cut {cut}");
    }
}

#[test]
fn stride_equivalence_on_random_nfas() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57_1D00 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let baseline = Simulator::new(&nfa).run(&input).report_offsets();
        let strided = StridedNfa::from_nfa(&nfa);
        let strided_offsets = StridedSimulator::new(&strided).run(&input).report_offsets();
        assert_eq!(baseline, strided_offsets, "seed {seed}");
    }
}

/// Every per-half encoding configuration the strided toolchain can
/// produce: the proposed pipeline (negation on), the negation-off
/// baseline, and each explicit scheme with and without clustering. All
/// four [`Scheme`] variants are sized for a full 256-symbol domain,
/// which random negated classes (and the FULL halves of odd-entry /
/// even-report strided states) force.
fn all_strided_encodings(strided: &StridedNfa) -> Vec<(String, StridedEncoding)> {
    let mut encodings = vec![
        (
            "proposed/negation-on".to_string(),
            StridedEncoding::for_strided(strided),
        ),
        (
            "raw/negation-off".to_string(),
            StridedEncoding::without_negation(strided),
        ),
    ];
    let schemes = [
        ("one_zero_256", Scheme::OneZero { len: 256 }),
        ("multi_zeros_11", Scheme::MultiZeros { len: 11 }),
        (
            "two_zeros_prefix_32",
            Scheme::TwoZerosPrefix {
                prefix: 16,
                suffix: 16,
            },
        ),
        (
            "one_zero_prefix_32",
            Scheme::OneZeroPrefix {
                prefix: 16,
                suffix: 16,
            },
        ),
    ];
    for (name, scheme) in schemes {
        for clustered in [true, false] {
            encodings.push((
                format!("{name}/clustered={clustered}"),
                StridedEncoding::with_scheme(strided, scheme, clustered),
            ));
        }
    }
    encodings
}

/// The strided-parity tentpole invariant, flat one-shot path: for every
/// per-half scheme × clustering × negation configuration, executing on
/// the compiled *encoded strided* plan (per-half codebook lookups +
/// per-half entry masks, inverters included) is bit-identical to the
/// byte strided plan — reports, order, offsets, activity — whose
/// offsets in turn equal the flat byte engine's, odd-length inputs
/// (zero-padded flush pair) included. `verify_exact` cross-checks each
/// half's static image on the same automata.
#[test]
fn encoded_strided_equals_byte_strided_across_schemes() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57_2E00 + seed);
        let nfa = random_nfa(&mut rng);
        // Force odd lengths on half the seeds so the pad path is hot.
        let mut input = random_input(&mut rng);
        if seed % 2 == 0 && input.len().is_multiple_of(2) {
            input.push(b'a');
        }
        let flat_offsets = Simulator::new(&nfa).run(&input).report_offsets();
        let strided = StridedNfa::from_nfa(&nfa);
        let byte_strided = StridedSimulator::new(&strided).run(&input);
        assert_eq!(
            byte_strided.report_offsets(),
            flat_offsets,
            "seed {seed}: byte-strided vs flat-byte"
        );
        for (label, encoding) in all_strided_encodings(&strided) {
            encoding
                .verify_exact(&strided)
                .unwrap_or_else(|e| panic!("seed {seed}, {label}: {e}"));
            let mut sim = EncodedStridedSimulator::with_encoding(&strided, encoding);
            assert_eq!(sim.run(&input), byte_strided, "seed {seed}, {label}");
        }
    }
}

/// Chunked-session path of both strided engines: arbitrary chunks and
/// 1-byte chunks (every pair split, the carry byte crossing every
/// boundary) equal the one-shot run and the flat byte engine.
#[test]
fn strided_chunked_sessions_equal_one_shot() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57_2F00 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let chunks = random_chunks(&mut rng, &input);
        let bytes: Vec<&[u8]> = input.chunks(1).collect();

        let strided = StridedNfa::from_nfa(&nfa);
        let mut byte_engine = StridedSimulator::new(&strided);
        let one_shot = byte_engine.run(&input);
        assert_eq!(
            via_session(&byte_engine, &chunks),
            one_shot,
            "seed {seed}: byte-strided session, chunks {chunks:?}"
        );
        assert_eq!(
            via_session(&byte_engine, &bytes),
            one_shot,
            "seed {seed}: byte-strided session, 1-byte chunks"
        );

        let encoded_engine = EncodedStridedSimulator::new(&strided);
        assert_eq!(
            via_session(&encoded_engine, &chunks),
            one_shot,
            "seed {seed}: encoded-strided session, chunks {chunks:?}"
        );
        assert_eq!(
            via_session(&encoded_engine, &bytes),
            one_shot,
            "seed {seed}: encoded-strided session, 1-byte chunks"
        );
    }
}

/// Sharded strided execution — byte and encoded shards over shard
/// counts 1, 2, and per-component (plus split-component assignments for
/// the encoded flavour) — is bit-identical to the flat strided engine,
/// one-shot and chunked.
#[test]
fn sharded_strided_equals_flat_strided() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57_3000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let chunks = random_chunks(&mut rng, &input);
        let strided = StridedNfa::from_nfa(&nfa);
        let flat = StridedSimulator::new(&strided).run(&input);

        for shards in [1usize, 2, usize::MAX] {
            let plan = ShardedAutomaton::compile(&strided, shards);
            let mut session = cama::sim::ShardedSession::new(&plan);
            session.feed(&input);
            assert_eq!(
                session.finish_sharded_with(&mut cama::sim::activity::NullObserver),
                flat,
                "seed {seed}: sharded strided one-shot, {shards} shards"
            );
            for chunk in &chunks {
                session.feed(chunk);
            }
            assert_eq!(
                session.finish(),
                flat,
                "seed {seed}: sharded strided chunked, {shards} shards"
            );
        }
        // Per-component sharding through the explicit-assignment path.
        let (ids, _) = graph::component_ids(&strided);
        let per_cc = ShardedAutomaton::compile_with_assignment(&strided, &ids);
        let mut session = cama::sim::ShardedSession::new(&per_cc);
        session.feed(&input);
        assert_eq!(session.finish(), flat, "seed {seed}: per-component");

        // Encoded strided shards sharing one pair of codebooks.
        let encoding = StridedEncoding::for_strided(&strided);
        let assignments: [Vec<u32>; 3] = [
            vec![0; strided.len()],
            (0..strided.len() as u32).map(|i| i % 2).collect(),
            ids,
        ];
        for (kind, assignment) in assignments.iter().enumerate() {
            let sharded = encoding.compile_sharded(&strided, assignment);
            let mut session = cama::sim::ShardedSession::new(&sharded);
            session.feed(&input);
            assert_eq!(
                session.finish(),
                flat,
                "seed {seed}: sharded encoded strided one-shot, assignment {kind}"
            );
            for chunk in &chunks {
                session.feed(chunk);
            }
            assert_eq!(
                session.finish(),
                flat,
                "seed {seed}: sharded encoded strided chunked, assignment {kind}"
            );
        }
    }
}

/// The strided stream table under `max_resident` caps: random
/// interleavings of byte/encoded, flat/sharded strided flows (odd
/// chunks park flows mid-pair, so the carry byte round-trips through
/// `SuspendedFlow`) produce results bit-identical to an uncapped table
/// and to flat one-shot runs.
#[test]
fn strided_batch_capped_equals_uncapped() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57_3100 + seed);
        let nfa = random_nfa(&mut rng);
        let strided = StridedNfa::from_nfa(&nfa);
        let flows: Vec<Vec<u8>> = (0..rng.random_range(2..6usize))
            .map(|_| random_input(&mut rng))
            .collect();
        let mut flat_engine = StridedSimulator::new(&strided);
        let expected: Vec<RunResult> = flows.iter().map(|f| flat_engine.run(f)).collect();

        // Random interleaved feeding schedule with odd chunk sizes.
        let mut schedule: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        let mut cursors = vec![0usize; flows.len()];
        loop {
            let pending: Vec<usize> = (0..flows.len())
                .filter(|&f| cursors[f] < flows[f].len())
                .collect();
            let Some(&flow) = pending.get(rng.random_range(0..pending.len().max(1))) else {
                break;
            };
            let take = rng
                .random_range(1..=3usize)
                .min(flows[flow].len() - cursors[flow]);
            schedule.push((flow, cursors[flow]..cursors[flow] + take));
            cursors[flow] += take;
        }

        let byte_plan = cama::core::compiled::CompiledStridedAutomaton::compile(&strided);
        let encoded_plan = StridedEncoding::for_strided(&strided).compile(&strided);
        let sharded_plan = ShardedAutomaton::compile(&strided, 2);

        fn run_schedule<P: cama::sim::StreamPlan>(
            plan: &P,
            flows: &[Vec<u8>],
            schedule: &[(usize, std::ops::Range<usize>)],
            cap: Option<usize>,
        ) -> Vec<RunResult> {
            let mut batch = BatchSimulator::new(plan);
            if let Some(cap) = cap {
                batch = batch.max_resident(cap);
            }
            for (flow, range) in schedule {
                batch.feed(*flow as StreamId, &flows[*flow][range.clone()]);
                if let Some(cap) = cap {
                    assert!(batch.resident_count() <= cap);
                }
            }
            (0..flows.len())
                .map(|f| batch.close(f as StreamId))
                .collect()
        }

        for cap in [None, Some(1), Some(2)] {
            assert_eq!(
                run_schedule(&byte_plan, &flows, &schedule, cap),
                expected,
                "seed {seed}: byte strided table, cap {cap:?}"
            );
            assert_eq!(
                run_schedule(&encoded_plan, &flows, &schedule, cap),
                expected,
                "seed {seed}: encoded strided table, cap {cap:?}"
            );
            assert_eq!(
                run_schedule(&sharded_plan, &flows, &schedule, cap),
                expected,
                "seed {seed}: sharded strided table, cap {cap:?}"
            );
        }
    }
}

/// The serving control plane is execution-transparent: under every
/// shipped victim policy (LRU, class-then-LRU, full QoS), tight
/// residency caps, starvation-level token-bucket budgets with deferral,
/// and tick-driven QoS draining, admitted traffic computes
/// bit-identically to an uncapped, policy-free stream table. Policies
/// decide *when* flows run, never *what* they compute.
#[test]
fn controlled_batch_policies_equal_uncapped_table() {
    const CLASSES: [QosClass; 4] = [
        QosClass::Background,
        QosClass::Standard,
        QosClass::Premium,
        QosClass::Realtime,
    ];

    fn run_controlled<P: cama::sim::StreamPlan, V: VictimPolicy>(
        plan: &P,
        policy: V,
        config: ControlConfig,
        flows: &[Vec<u8>],
        specs: &[FlowSpec],
        schedule: &[(usize, std::ops::Range<usize>)],
        tick_every: Option<usize>,
    ) -> Vec<RunResult> {
        let mut ctl = ControlledBatch::with_policy(plan, config, policy);
        for (i, spec) in specs.iter().enumerate() {
            assert!(ctl.open(i as StreamId, *spec).is_admitted());
        }
        for (step, (flow, range)) in schedule.iter().enumerate() {
            let verdict = ctl.feed(*flow as StreamId, &flows[*flow][range.clone()]);
            // The deferral buffer absorbs everything the budgets
            // refuse: nothing is dropped, only delayed.
            assert_eq!(verdict.rejected, 0, "deferral must absorb the whole chunk");
            if let Some(every) = tick_every {
                if (step + 1) % every == 0 {
                    ctl.tick();
                }
            }
        }
        (0..flows.len()).map(|f| ctl.close(f as StreamId)).collect()
    }

    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC7_2200 + seed);
        let nfa = random_nfa(&mut rng);
        let flows: Vec<Vec<u8>> = (0..rng.random_range(2..6usize))
            .map(|_| random_input(&mut rng))
            .collect();
        let specs: Vec<FlowSpec> = (0..flows.len())
            .map(|_| {
                let mut spec = FlowSpec::new(rng.random_range(0..3u32))
                    .with_class(CLASSES[rng.random_range(0..CLASSES.len())]);
                if rng.random_bool(0.5) {
                    spec = spec.with_deadline(rng.random_range(0..32u64));
                }
                spec
            })
            .collect();

        // Random interleaved feeding schedule, as in the capped-table
        // harness above.
        let mut schedule: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        let mut cursors = vec![0usize; flows.len()];
        loop {
            let pending: Vec<usize> = (0..flows.len())
                .filter(|&f| cursors[f] < flows[f].len())
                .collect();
            let Some(&flow) = pending.get(rng.random_range(0..pending.len().max(1))) else {
                break;
            };
            let take = rng
                .random_range(1..=3usize)
                .min(flows[flow].len() - cursors[flow]);
            schedule.push((flow, cursors[flow]..cursors[flow] + take));
            cursors[flow] += take;
        }

        let plan = CompiledAutomaton::compile(&nfa);
        let sharded = ShardedAutomaton::compile(&nfa, 2);

        // Baseline: the raw, uncapped, policy-free table.
        let expected: Vec<RunResult> = {
            let mut batch = BatchSimulator::new(&plan);
            for (flow, range) in &schedule {
                batch.feed(*flow as StreamId, &flows[*flow][range.clone()]);
            }
            (0..flows.len())
                .map(|f| batch.close(f as StreamId))
                .collect()
        };

        // Every victim policy under tight residency caps, on flat and
        // sharded plans.
        for cap in [1usize, 2] {
            let config = || ControlConfig::new().max_resident(cap);
            assert_eq!(
                run_controlled(&plan, LruPolicy, config(), &flows, &specs, &schedule, None),
                expected,
                "seed {seed}: lru, cap {cap}"
            );
            assert_eq!(
                run_controlled(
                    &plan,
                    ClassLruPolicy,
                    config(),
                    &flows,
                    &specs,
                    &schedule,
                    None
                ),
                expected,
                "seed {seed}: class-lru, cap {cap}"
            );
            assert_eq!(
                run_controlled(&plan, QosPolicy, config(), &flows, &specs, &schedule, None),
                expected,
                "seed {seed}: qos, cap {cap}"
            );
            assert_eq!(
                run_controlled(
                    &sharded,
                    QosPolicy,
                    config(),
                    &flows,
                    &specs,
                    &schedule,
                    None
                ),
                expected,
                "seed {seed}: qos sharded, cap {cap}"
            );
        }

        // Admission with deferral: starvation-tight flow and tenant
        // budgets push most bytes through the deferral buffer and the
        // tick-driven QoS drain; close flushes whatever is left. The
        // results are still bit-identical — budgets only ever delay.
        let starved = ControlConfig::new()
            .max_resident(2)
            .flow_rate(RateLimit::new(2, 1))
            .default_tenant_rate(RateLimit::new(3, 2));
        assert_eq!(
            run_controlled(
                &plan,
                QosPolicy,
                starved.clone(),
                &flows,
                &specs,
                &schedule,
                Some(3)
            ),
            expected,
            "seed {seed}: qos with deferral, flat"
        );
        assert_eq!(
            run_controlled(
                &sharded,
                LruPolicy,
                starved,
                &flows,
                &specs,
                &schedule,
                Some(2)
            ),
            expected,
            "seed {seed}: lru with deferral, sharded"
        );
    }
}

#[test]
fn rcb_equals_fcb_on_band_edges() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2CB_000 + seed);
        // Build edges guaranteed inside the band: target in the source's
        // group or the next.
        let edges: Vec<(usize, usize)> = (0..rng.random_range(1..40usize))
            .map(|_| {
                let from = rng.random_range(0..256usize);
                let jump = rng.random_range(0..86usize);
                let lo = (from / K_DIA) * K_DIA;
                let to = (lo + jump).min(255);
                (from, to)
            })
            .filter(|&(f, t)| ReducedCrossbar::supports(K_DIA, f, t))
            .collect();
        if edges.is_empty() {
            continue;
        }
        let rcb = ReducedCrossbar::try_program(256, K_DIA, edges.iter().copied()).unwrap();
        let mut fcb = FullCrossbar::new(256);
        for &(f, t) in &edges {
            fcb.connect(f, t);
        }
        let active = BitSet::from_indices(
            256,
            (0..rng.random_range(1..8usize)).map(|_| rng.random_range(0..256usize)),
        );
        assert_eq!(rcb.route(&active), fcb.route(&active), "seed {seed}");
    }
}

#[test]
fn anml_roundtrip_on_random_nfas() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA2_3100 + seed);
        let nfa = random_nfa(&mut rng);
        let text = cama::core::anml::to_string(&nfa);
        let parsed = cama::core::anml::from_str(&text).unwrap();
        assert_eq!(parsed.len(), nfa.len(), "seed {seed}");
        assert_eq!(parsed.num_edges(), nfa.num_edges(), "seed {seed}");
        for i in 0..nfa.len() {
            let id = SteId(i as u32);
            assert_eq!(parsed.ste(id).class, nfa.ste(id).class, "seed {seed}");
            assert_eq!(parsed.ste(id).start, nfa.ste(id).start, "seed {seed}");
        }
    }
}

#[test]
fn mnrl_roundtrip_on_random_nfas() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x313_1200 + seed);
        let nfa = random_nfa(&mut rng);
        let text = cama::core::mnrl::to_string(&nfa);
        let parsed = cama::core::mnrl::from_str(&text).unwrap();
        assert_eq!(parsed.len(), nfa.len(), "seed {seed}");
        assert_eq!(parsed.num_edges(), nfa.num_edges(), "seed {seed}");
    }
}

#[test]
fn symbol_class_set_algebra() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5E7_000 + seed);
        let draw = |rng: &mut StdRng| {
            let mut class = SymbolClass::EMPTY;
            for _ in 0..rng.random_range(0..40usize) {
                class.insert(rng.random());
            }
            class
        };
        let ca = draw(&mut rng);
        let cb = draw(&mut rng);
        // De Morgan.
        assert_eq!(!(ca | cb), !ca & !cb, "seed {seed}");
        // Union/intersection sizes.
        assert_eq!(
            (ca | cb).len() + (ca & cb).len(),
            ca.len() + cb.len(),
            "seed {seed}"
        );
        // Display → parse roundtrip through the symbol-set grammar.
        if !ca.is_empty() {
            let parsed = cama::core::anml::parse_symbol_set(&ca.to_string()).unwrap();
            assert_eq!(parsed, ca, "seed {seed}");
        }
    }
}

/// The non-selective 2-stride scan — every word precharged, one fused
/// sweep per pair cycle, the paper's baseline — is the only caller of
/// that sweep. One-shot and randomly chunked, it equals the selective
/// strided engine exactly and the flat byte engine's report offsets.
#[test]
fn non_selective_strided_scan_equals_selective_and_flat() {
    use cama::sim::StridedSession;

    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x51_3D00 + seed);
        let nfa = random_nfa_with(&mut rng, true);
        let input = random_input(&mut rng);
        let chunks = random_chunks(&mut rng, &input);

        let strided = StridedNfa::from_nfa(&nfa);
        let selective = StridedSimulator::new(&strided).run(&input);
        let flat = Simulator::new(&nfa).run(&input).report_offsets();
        let plan = CompiledStridedAutomaton::compile(&strided);
        for (label, pieces) in [("one-shot", vec![&input[..]]), ("chunked", chunks)] {
            let mut naive = StridedSession::new(&plan);
            naive.set_selective(false);
            for piece in &pieces {
                naive.feed(piece);
            }
            let result = naive.finish();
            assert_eq!(
                result, selective,
                "seed {seed}, {label}: naive vs selective"
            );
            assert_eq!(
                result.report_offsets(),
                flat,
                "seed {seed}, {label}: naive vs flat byte engine"
            );
        }
    }
}

/// Worker counts the parallel runtime must stay bit-identical across:
/// the sequential fallback (1), typical core counts, and an
/// oversubscribed pool (7 workers over at-most-a-handful of shards —
/// the session clamps to the shard count).
fn parallel_worker_counts() -> [usize; 4] {
    [1, 2, 4, 7]
}

/// Feeds chunks through a parallel session (sequential observer-free
/// fast path) and finishes; also returns the drained shard rollup so
/// callers can compare it against the sequential engine's.
fn via_parallel<P: cama::sim::ShardedExecution + 'static>(
    plan: &ShardedAutomaton<P>,
    workers: usize,
    chunks: &[&[u8]],
) -> (RunResult, cama::sim::ShardStats) {
    let mut session = ParallelShardedSession::with_workers(plan, workers);
    for chunk in chunks {
        session.feed(chunk);
    }
    let result = session.finish();
    (result, session.take_stats())
}

/// The multi-core tentpole invariant: for every plan flavour the
/// sharded engine accepts — byte, encoded, strided, encoded strided;
/// fixed two-way and per-component shardings — the worker-pinned
/// parallel session produces a `RunResult` AND a `ShardStats` rollup
/// bit-identical to the single-threaded `ShardedSession`, across
/// one-shot and randomly chunked feeds, for every worker count
/// including the oversubscribed one.
#[test]
fn parallel_sharded_equals_sequential_across_plans() {
    fn check<P: cama::sim::ShardedExecution + 'static>(
        plan: &ShardedAutomaton<P>,
        input: &[u8],
        chunks: &[&[u8]],
        label: &str,
    ) {
        let mut seq = cama::sim::ShardedSession::new(plan);
        seq.feed(input);
        let expected = seq.finish();
        let expected_stats = seq.take_stats();
        for workers in parallel_worker_counts() {
            let (one_shot, stats) = via_parallel(plan, workers, &[input]);
            assert_eq!(one_shot, expected, "{label}, {workers} workers, one-shot");
            assert_eq!(
                stats, expected_stats,
                "{label}, {workers} workers, stats rollup"
            );
            let (chunked, _) = via_parallel(plan, workers, chunks);
            assert_eq!(chunked, expected, "{label}, {workers} workers, chunked");
        }
    }

    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9A7A_0000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let chunks = random_chunks(&mut rng, &input);
        let (component_ids, _) = graph::component_ids(&nfa);

        let two_way = ShardedAutomaton::compile(&nfa, 2);
        check(&two_way, &input, &chunks, &format!("seed {seed}: byte/2"));
        let per_cc = ShardedAutomaton::compile_with_assignment(&nfa, &component_ids);
        check(&per_cc, &input, &chunks, &format!("seed {seed}: byte/cc"));

        let encoding = EncodingPlan::for_nfa(&nfa);
        let halved: Vec<u32> = (0..nfa.len() as u32).map(|i| i % 2).collect();
        let encoded = encoding.compile_sharded(&nfa, &halved);
        check(&encoded, &input, &chunks, &format!("seed {seed}: encoded"));

        let strided = StridedNfa::from_nfa(&nfa);
        let strided_plan = ShardedAutomaton::compile(&strided, 2);
        check(
            &strided_plan,
            &input,
            &chunks,
            &format!("seed {seed}: strided"),
        );
        let strided_encoding = StridedEncoding::for_strided(&strided);
        let strided_halved: Vec<u32> = (0..strided.len() as u32).map(|i| i % 2).collect();
        let encoded_strided = strided_encoding.compile_sharded(&strided, &strided_halved);
        check(
            &encoded_strided,
            &input,
            &chunks,
            &format!("seed {seed}: encoded strided"),
        );
    }
}

/// Per cycle, the shards a sharded session must visit, derived from a
/// flat session's observer views of the same flavour — never from a
/// sharded session's own bookkeeping: shard `s` is visited on cycle `c`
/// exactly when, at `c`, it holds a dynamically enabled state, an
/// active start state, or (on cycle 0) an active start-of-data state.
/// Also records, per cycle, the shards holding a dynamically enabled
/// state — what `for_each_active_shard` must list before that cycle.
struct VisitOracle<'a> {
    /// Global state id → shard.
    shard_of: Vec<usize>,
    all_input: &'a BitSet,
    start_of_data: &'a BitSet,
    dynamic: std::collections::BTreeSet<usize>,
    visited: std::collections::BTreeSet<usize>,
    cycles: Vec<Vec<usize>>,
    dynamic_cycles: Vec<Vec<usize>>,
}

impl ShardObserver for VisitOracle<'_> {
    fn on_shard_cycle(&mut self, view: &ShardCycleView<'_>) {
        // A flat lane's local ids are the global ids.
        for g in view.dynamic_enabled.iter() {
            self.dynamic.insert(self.shard_of[g]);
        }
        for g in view.active.iter() {
            if self.all_input.contains(g) || (view.cycle == 0 && self.start_of_data.contains(g)) {
                self.visited.insert(self.shard_of[g]);
            }
        }
    }

    fn on_cycle_end(&mut self, _: &ShardCycleSummary) {
        let dynamic: Vec<usize> = std::mem::take(&mut self.dynamic).into_iter().collect();
        let mut visited = std::mem::take(&mut self.visited);
        visited.extend(&dynamic);
        self.cycles.push(visited.into_iter().collect());
        self.dynamic_cycles.push(dynamic);
    }
}

/// The shards `session` lists as holding dynamic state.
fn active_shards(session: &impl FlowSession) -> Vec<usize> {
    let mut active = Vec::new();
    session.for_each_active_shard(|shard| active.push(shard));
    active
}

/// The shards a sharded session visited, cycle by cycle, in visit order.
#[derive(Default)]
struct Visits {
    current: Vec<usize>,
    cycles: Vec<Vec<usize>>,
}

impl ShardObserver for Visits {
    fn on_shard_cycle(&mut self, view: &ShardCycleView<'_>) {
        self.current.push(view.shard);
    }

    fn on_cycle_end(&mut self, _: &ShardCycleSummary) {
        self.cycles.push(std::mem::take(&mut self.current));
    }
}

/// Array-level enable: on every plan flavour, over per-component and
/// `i % 2` (cross-edge) assignments, sharded sessions visit exactly the
/// shards the flat-session oracle says hold something to do, cycle by
/// cycle, and their `shard_cycles` / `skipped_shard_cycles` agree with
/// it — through random chunking, a mid-stream suspend/resume into a
/// second session, and a 2-worker `ParallelShardedSession` (whose stats
/// the oracle checks directly, so a stale live bit both paths shared
/// would still show).
#[test]
fn visited_shards_equal_flat_oracle_across_plans() {
    /// Oracle cycles → the expected `(shard_cycles, skipped)` counters.
    fn expected_stats(cycles: &[Vec<usize>], num_shards: usize) -> (Vec<u64>, u64) {
        let mut shard_cycles = vec![0u64; num_shards];
        for &s in cycles.iter().flatten() {
            shard_cycles[s] += 1;
        }
        let visited: u64 = shard_cycles.iter().sum();
        (shard_cycles, (cycles.len() * num_shards) as u64 - visited)
    }
    fn counters(stats: &ShardStats) -> (Vec<u64>, u64) {
        (stats.shard_cycles.clone(), stats.skipped_shard_cycles)
    }

    fn check<F: ShardedExecution, P: ShardedExecution + 'static>(
        flat: &F,
        sharded: &ShardedAutomaton<P>,
        input: &[u8],
        chunks: &[&[u8]],
        cut: usize,
        label: &str,
    ) {
        let mut oracle = VisitOracle {
            shard_of: (0..sharded.len())
                .map(|g| sharded.placement_of(g).0 as usize)
                .collect(),
            all_input: flat.all_input_mask(),
            start_of_data: flat.start_of_data_mask(),
            dynamic: Default::default(),
            visited: Default::default(),
            cycles: Vec::new(),
            dynamic_cycles: Vec::new(),
        };
        let mut session = FlatSession::new(flat);
        for chunk in chunks {
            session.feed_with(chunk, &mut oracle);
        }
        let expected = session.finish_with(&mut oracle);
        let cycles = oracle.cycles;
        let stats = expected_stats(&cycles, sharded.num_shards());
        // Between chunks: the shards holding dynamic state before the
        // next cycle (none once the input is consumed).
        let check_active = |cycle: usize, active: Vec<usize>, when: &str| {
            if let Some(expect) = oracle.dynamic_cycles.get(cycle) {
                assert_eq!(
                    &active, expect,
                    "{label}: {when}, active before cycle {cycle}"
                );
            }
        };

        // Sequential, randomly chunked.
        let mut visits = Visits::default();
        let mut seq = ShardedSession::new(sharded);
        for chunk in chunks {
            seq.feed_with(chunk, &mut visits);
            check_active(
                seq.pending().activity.cycles,
                active_shards(&seq),
                "chunked",
            );
        }
        assert_eq!(seq.finish_with(&mut visits), expected, "{label}: result");
        assert_eq!(visits.cycles, cycles, "{label}: visited shards");
        assert_eq!(counters(seq.stats()), stats, "{label}: counters");

        // Suspended at `cut`, resumed into a second session.
        let mut visits = Visits::default();
        let mut a = ShardedSession::new(sharded);
        a.feed_with(&input[..cut], &mut visits);
        let parked = a.suspend();
        let mut b = ShardedSession::new(sharded);
        b.resume(parked);
        b.feed_with(&input[cut..], &mut visits);
        assert_eq!(b.finish_with(&mut visits), expected, "{label}: resumed");
        assert_eq!(visits.cycles, cycles, "{label}: resumed, cut {cut}");
        let mut merged = a.take_stats();
        merged.merge(b.stats());
        assert_eq!(counters(&merged), stats, "{label}: resumed counters");

        // Two pool workers, chunked, then suspended into a second pool.
        let mut par = ParallelShardedSession::with_workers(sharded, 2);
        for chunk in chunks {
            par.feed(chunk);
            check_active(
                par.pending().activity.cycles,
                active_shards(&par),
                "parallel",
            );
        }
        assert_eq!(par.finish(), expected, "{label}: parallel");
        assert_eq!(counters(par.stats()), stats, "{label}: parallel counters");
        let mut a = ParallelShardedSession::with_workers(sharded, 2);
        a.feed(&input[..cut]);
        let parked = a.suspend();
        let mut b = ParallelShardedSession::with_workers(sharded, 2);
        b.resume(parked);
        b.feed(&input[cut..]);
        assert_eq!(b.finish(), expected, "{label}: parallel resumed");
        let mut merged = a.take_stats();
        merged.merge(b.stats());
        assert_eq!(
            counters(&merged),
            stats,
            "{label}: parallel resumed counters"
        );
    }

    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EE_0000 + seed);
        let nfa = random_nfa_with(&mut rng, true);
        let input = random_input(&mut rng);
        let chunks = random_chunks(&mut rng, &input);
        let cut = rng.random_range(0..=input.len());
        let strided = StridedNfa::from_nfa(&nfa);
        let encoding = EncodingPlan::for_nfa(&nfa);
        let strided_encoding = StridedEncoding::for_strided(&strided);
        let layouts = |components: Vec<u32>| {
            let halved = (0..components.len() as u32).map(|i| i % 2).collect();
            [("cc", components), ("i%2", halved)]
        };

        let byte = CompiledAutomaton::compile(&nfa);
        let encoded = encoding.compile(&nfa);
        for (name, ids) in layouts(graph::component_ids(&nfa).0) {
            let label = format!("seed {seed}: byte/{name}");
            let plan = ShardedAutomaton::compile_with_assignment(&nfa, &ids);
            check(&byte, &plan, &input, &chunks, cut, &label);
            let label = format!("seed {seed}: encoded/{name}");
            let plan = encoding.compile_sharded(&nfa, &ids);
            check(&encoded, &plan, &input, &chunks, cut, &label);
        }
        let pairs = CompiledStridedAutomaton::compile(&strided);
        let encoded_pairs = strided_encoding.compile(&strided);
        for (name, ids) in layouts(graph::component_ids(&strided).0) {
            let label = format!("seed {seed}: strided/{name}");
            let plan = ShardedAutomaton::compile_with_assignment(&strided, &ids);
            check(&pairs, &plan, &input, &chunks, cut, &label);
            let label = format!("seed {seed}: encoded strided/{name}");
            let plan = strided_encoding.compile_sharded(&strided, &ids);
            check(&encoded_pairs, &plan, &input, &chunks, cut, &label);
        }
    }
}

/// Suspend/resume transparency through the parallel engine, and the
/// parallel plan as a stream-table flavour: flows interleaved through a
/// residency-capped `BatchSimulator` over a `ParallelShardedPlan` (park
/// and resume cross worker-pool boundaries) compute bit-identically to
/// flat one-shot runs.
#[test]
fn parallel_suspend_resume_and_capped_stream_table() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9A7A_1000 + seed);
        let nfa = random_nfa(&mut rng);
        let input = random_input(&mut rng);
        let plan = ShardedAutomaton::compile(&nfa, 2);
        let expected = {
            let mut s = cama::sim::ShardedSession::new(&plan);
            s.feed(&input);
            s.finish()
        };

        // Park mid-stream at a random cut, serve interloper traffic,
        // resume into a fresh parallel session.
        let cut = rng.random_range(0..=input.len());
        let mut a = ParallelShardedSession::with_workers(&plan, 3);
        a.feed(&input[..cut]);
        let parked = a.suspend();
        a.feed(b"interloper traffic");
        a.reset();
        let mut b = ParallelShardedSession::with_workers(&plan, 2);
        b.resume(parked);
        b.feed(&input[cut..]);
        assert_eq!(
            b.finish(),
            expected,
            "seed {seed}: parallel park, cut {cut}"
        );

        // The parallel plan through a capped stream table: interleaved
        // flows evict each other, so every flow round-trips through
        // `SuspendedFlow` between feeds.
        let flows: Vec<Vec<u8>> = (0..rng.random_range(2..5usize))
            .map(|_| random_input(&mut rng))
            .collect();
        let mut flat = cama::sim::ShardedSimulator::new(&nfa, 2);
        let expected: Vec<RunResult> = flows.iter().map(|f| flat.run(f)).collect();
        let table_plan = ParallelShardedPlan::new(ShardedAutomaton::compile(&nfa, 2), 3);
        for cap in [None, Some(1), Some(2)] {
            let mut batch = BatchSimulator::new(&table_plan);
            if let Some(cap) = cap {
                batch = batch.max_resident(cap);
            }
            let mut remaining: Vec<&[u8]> = flows.iter().map(Vec::as_slice).collect();
            while remaining.iter().any(|r| !r.is_empty()) {
                for (id, rest) in remaining.iter_mut().enumerate() {
                    if rest.is_empty() {
                        continue;
                    }
                    let take = rng.random_range(1..=rest.len().min(5));
                    let (piece, tail) = rest.split_at(take);
                    batch.feed(id as StreamId, piece);
                    *rest = tail;
                }
            }
            let closed: Vec<RunResult> = (0..flows.len())
                .map(|f| batch.close(f as StreamId))
                .collect();
            assert_eq!(closed, expected, "seed {seed}: parallel table, cap {cap:?}");
        }
    }
}

/// The work-stealing batch dispatcher: `run_parallel` results match the
/// sequential `run_all` for every thread count, and the merged
/// `ShardStats` from `run_parallel_stats` equals the sequential
/// stream-by-stream rollup folded through `ShardStats::merge`.
#[test]
fn work_stealing_batch_and_stats_merge_agree() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9A7A_2000 + seed);
        let nfa = random_nfa(&mut rng);
        let streams: Vec<Vec<u8>> = (0..rng.random_range(1..9usize))
            .map(|_| random_input(&mut rng))
            .collect();
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let plan = ShardedAutomaton::compile(&nfa, 2);
        let batch = BatchSimulator::new(&plan);
        let sequential = batch.run_all(refs.iter().copied());
        let mut expected_stats = cama::sim::ShardStats::default();
        for stream in &refs {
            let mut session = cama::sim::ShardedSession::new(&plan);
            session.feed(stream);
            session.finish();
            expected_stats.merge(&session.take_stats());
        }
        for threads in parallel_worker_counts() {
            let (results, stats) = batch.run_parallel_stats(&refs, threads);
            assert_eq!(results, sequential, "seed {seed}, {threads} threads");
            assert_eq!(stats, expected_stats, "seed {seed}, {threads} threads");
        }
    }
}

/// Feeds the head of every flow, hot-swaps the plan mid-stream, feeds
/// the tails, and compares each closed flow against an undisturbed run
/// on the *new* plan. The caller guarantees the two rulesets differ
/// only in components that can never fire on the test alphabet, so for
/// every flow the swap must be unobservable: identical reports (state
/// ids, codes, offsets, order) and identical cycle counts. Per-cycle
/// word statistics are excluded from the comparison — the pre-swap
/// cycles were accounted against the old plan's state space, which may
/// be a different size.
fn assert_swap_transparent<P: StreamPlan>(
    old_plan: &P,
    new_plan: &P,
    remap: &PlanRemap,
    flows: &[(Vec<u8>, usize)],
    cap: Option<usize>,
    label: &str,
    seed: u64,
) {
    let mut swapped = BatchSimulator::new(old_plan);
    if let Some(cap) = cap {
        swapped = swapped.max_resident(cap);
    }
    let mut oracle = BatchSimulator::new(new_plan);
    for (id, (input, cut)) in flows.iter().enumerate() {
        swapped.feed(id as StreamId, &input[..*cut]);
    }
    let report = swapped.swap_plan(new_plan, remap);
    assert_eq!(report.flows, flows.len(), "seed {seed}: {label}");
    for (id, (input, cut)) in flows.iter().enumerate() {
        swapped.feed(id as StreamId, &input[*cut..]);
        oracle.feed(id as StreamId, input);
    }
    for (id, (_, cut)) in flows.iter().enumerate() {
        let s = swapped.close(id as StreamId);
        let o = oracle.close(id as StreamId);
        assert_eq!(
            s.reports, o.reports,
            "seed {seed}: {label}, flow {id}, cut {cut}"
        );
        assert_eq!(
            s.activity.cycles, o.activity.cycles,
            "seed {seed}: {label}, flow {id}, cut {cut}"
        );
    }
}

/// The strongest form, for a swap onto the *same* plan with the
/// identity remap: the whole [`RunResult`] — reports, order, and every
/// activity statistic — must equal an undisturbed table fed the same
/// chunks.
fn assert_identity_swap_exact<P: StreamPlan>(
    plan: &P,
    remap: &PlanRemap,
    flows: &[(Vec<u8>, usize)],
    cap: Option<usize>,
    label: &str,
    seed: u64,
) {
    let mut swapped = BatchSimulator::new(plan);
    if let Some(cap) = cap {
        swapped = swapped.max_resident(cap);
    }
    let mut oracle = BatchSimulator::new(plan);
    for (id, (input, cut)) in flows.iter().enumerate() {
        swapped.feed(id as StreamId, &input[..*cut]);
        oracle.feed(id as StreamId, &input[..*cut]);
    }
    let report = swapped.swap_plan(plan, remap);
    assert_eq!(report.states_dropped, 0, "seed {seed}: {label}");
    for (id, (input, cut)) in flows.iter().enumerate() {
        swapped.feed(id as StreamId, &input[*cut..]);
        oracle.feed(id as StreamId, &input[*cut..]);
    }
    for (id, (_, cut)) in flows.iter().enumerate() {
        assert_eq!(
            swapped.close(id as StreamId),
            oracle.close(id as StreamId),
            "seed {seed}: {label}, flow {id}, cut {cut}"
        );
    }
}

/// The hot-swap differential harness: across flat / sharded / encoded /
/// strided plan flavours and capped tables, a mid-stream
/// [`BatchSimulator::swap_plan`] between two ruleset versions is
/// bit-identical — for flows on unchanged components — to a run that
/// never swapped. The changed components are built over symbols the
/// random inputs never contain, so *every* flow lives on unchanged
/// components and the swap must be fully unobservable; the changed
/// components still exercise the remap machinery (dropped states,
/// shifted global ids, grown rulesets).
#[test]
fn hot_swap_differential_across_flavours() {
    // Patterns over {j, q, w} only — symbols `random_input` never
    // emits, so these components never fire on test traffic. Distinct
    // entries are structurally distinct and differ in state count,
    // forcing the surviving components' global ids to move.
    const DISJOINT: [&str; 3] = ["q+j", "jj", "q?jqj"];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5A4B_7000 + seed);
        // Redraw any all-optional pattern: a homogeneous NFA cannot
        // report the empty string, so `compile_set` rejects it.
        let shared: Vec<String> = (0..rng.random_range(2..5usize))
            .map(|_| loop {
                let pattern = random_pattern(&mut rng);
                if regex::compile(&pattern).is_ok() {
                    break pattern;
                }
            })
            .collect();
        // Insert the swap-target pattern at the same position in both
        // versions so the shared patterns keep their report codes.
        let changed_pos = rng.random_range(0..=shared.len());
        let old_changed = rng.random_range(0..DISJOINT.len());
        let mut new_changed = rng.random_range(0..DISJOINT.len());
        if new_changed == old_changed {
            new_changed = (new_changed + 1) % DISJOINT.len();
        }
        let mut old_pats: Vec<&str> = shared.iter().map(String::as_str).collect();
        let mut new_pats = old_pats.clone();
        old_pats.insert(changed_pos, DISJOINT[old_changed]);
        new_pats.insert(changed_pos, DISJOINT[new_changed]);
        if rng.random_bool(0.5) {
            // A grown ruleset: the appended pattern takes a fresh
            // report code, leaving every existing code untouched.
            new_pats.push("[qw]+j");
        }
        let old_nfa = regex::compile_set(&old_pats).unwrap();
        let new_nfa = regex::compile_set(&new_pats).unwrap();
        let remap = PlanRemap::between(&old_nfa, &new_nfa);
        // Exactly the changed component's states are dropped.
        let changed_len = regex::compile(DISJOINT[old_changed]).unwrap().len();
        assert_eq!(
            remap.surviving(),
            old_nfa.len() - changed_len,
            "seed {seed}"
        );

        let flows: Vec<(Vec<u8>, usize)> = (0..rng.random_range(2..6usize))
            .map(|_| {
                let input = random_input(&mut rng);
                let cut = rng.random_range(0..=input.len());
                (input, cut)
            })
            .collect();

        // Flat byte plans.
        let old_flat = CompiledAutomaton::compile(&old_nfa);
        let new_flat = CompiledAutomaton::compile(&new_nfa);
        assert_swap_transparent(&old_flat, &new_flat, &remap, &flows, None, "flat", seed);
        let identity = PlanRemap::identity(old_nfa.len());
        assert_identity_swap_exact(&old_flat, &identity, &flows, None, "flat identity", seed);

        // Sharded byte plans, uncapped and capped (every flow
        // round-trips through SuspendedFlow between feeds at cap 2) —
        // including one built by the cached parallel ruleset compiler.
        let old_sharded = ShardedAutomaton::compile(&old_nfa, 3);
        let mut cache = PlanCache::default();
        let (new_sharded, _) = compile_ruleset(&new_nfa, 2, &mut cache);
        assert_swap_transparent(
            &old_sharded,
            &new_sharded,
            &remap,
            &flows,
            None,
            "sharded",
            seed,
        );
        assert_swap_transparent(
            &old_sharded,
            &new_sharded,
            &remap,
            &flows,
            Some(2),
            "sharded capped",
            seed,
        );
        assert_identity_swap_exact(
            &old_sharded,
            &identity,
            &flows,
            Some(1),
            "sharded identity capped",
            seed,
        );

        // Encoded sharded plans: each version has its own codebook —
        // encoded execution is byte-exact, so the swap must still be
        // transparent across codebooks.
        let (old_components, _) = graph::component_ids(&old_nfa);
        let (new_components, _) = graph::component_ids(&new_nfa);
        let old_encoded =
            EncodingPlan::for_nfa(&old_nfa).compile_sharded(&old_nfa, &old_components);
        let new_encoded =
            EncodingPlan::for_nfa(&new_nfa).compile_sharded(&new_nfa, &new_components);
        assert_swap_transparent(
            &old_encoded,
            &new_encoded,
            &remap,
            &flows,
            Some(2),
            "encoded sharded",
            seed,
        );

        // Strided plans (flat and sharded) over the strided state
        // space and its own remap; odd cuts park a pending carry byte
        // across the swap.
        let old_strided_nfa = StridedNfa::from_nfa(&old_nfa);
        let new_strided_nfa = StridedNfa::from_nfa(&new_nfa);
        let strided_remap = PlanRemap::between(&old_strided_nfa, &new_strided_nfa);
        let old_strided = CompiledStridedAutomaton::compile(&old_strided_nfa);
        let new_strided = CompiledStridedAutomaton::compile(&new_strided_nfa);
        assert_swap_transparent(
            &old_strided,
            &new_strided,
            &strided_remap,
            &flows,
            None,
            "strided flat",
            seed,
        );
        let old_strided_sharded = ShardedAutomaton::compile(&old_strided_nfa, 2);
        let new_strided_sharded = ShardedAutomaton::compile(&new_strided_nfa, 2);
        assert_swap_transparent(
            &old_strided_sharded,
            &new_strided_sharded,
            &strided_remap,
            &flows,
            Some(2),
            "strided sharded capped",
            seed,
        );
        let strided_identity = PlanRemap::identity(old_strided_nfa.len());
        assert_identity_swap_exact(
            &old_strided,
            &strided_identity,
            &flows,
            None,
            "strided identity",
            seed,
        );

        // Encoded strided sharded: per-half codebooks per version.
        let (old_sc, _) = graph::component_ids(&old_strided_nfa);
        let (new_sc, _) = graph::component_ids(&new_strided_nfa);
        let old_es = StridedEncoding::for_strided(&old_strided_nfa)
            .compile_sharded(&old_strided_nfa, &old_sc);
        let new_es = StridedEncoding::for_strided(&new_strided_nfa)
            .compile_sharded(&new_strided_nfa, &new_sc);
        assert_swap_transparent(
            &old_es,
            &new_es,
            &strided_remap,
            &flows,
            Some(2),
            "encoded strided sharded",
            seed,
        );
    }
}

/// The hybrid-DFA differential harness: a profile-free
/// [`compile_hybrid_ruleset`] plan — per-component subset-constructed
/// fast paths under both generous and deliberately tight blow-up caps
/// (the tight caps make some components decline and stay NFA, so the
/// plan mixes execution styles) — is report-bit-identical (content and
/// order) to the pure-NFA sharded plan, the flat engine, and the
/// encoded sharded flavour, across one-shot runs, random chunked feeds,
/// capped tables (cap 1 round-trips every DFA lane through
/// [`SuspendedFlow`](cama::sim::SuspendedFlow) between feeds), and
/// identity hot-swaps in both directions *across execution styles*
/// (hybrid⇄pure), which parks DFA lanes mid-flow and resumes them on a
/// plan with — or without — a DFA for the same component.
#[test]
fn hybrid_dfa_differential_equals_pure_nfa() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xDFAD_0000 + seed);
        let patterns: Vec<String> = (0..rng.random_range(2..6usize))
            .map(|_| loop {
                let pattern = random_pattern(&mut rng);
                if regex::compile(&pattern).is_ok() {
                    break pattern;
                }
            })
            .collect();
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let nfa = regex::compile_set(&refs).unwrap();

        let mut cache = PlanCache::default();
        let (pure, _) = compile_ruleset(&nfa, 1, &mut cache);
        // Even seeds: default caps, everything reachable determinizes.
        // Odd seeds: tight caps, so bigger components decline and the
        // plan genuinely mixes DFA and NFA shards.
        let policy = if seed % 2 == 0 {
            DfaPolicy::default()
        } else {
            DfaPolicy {
                budget: DfaBudget {
                    max_states: 6,
                    max_table_bytes: 8 * 1024,
                },
                memory_budget: 12 * 1024,
                heat: Vec::new(),
            }
        };
        let (hybrid, _) = compile_hybrid_ruleset(&nfa, 2, &mut cache, &policy);
        if dfa_enabled() && seed % 2 == 0 {
            assert!(
                hybrid.num_dfa_shards() > 0,
                "seed {seed}: default caps determinized nothing"
            );
        }

        // The encoded sharded flavour as a third, codebook-indexed
        // pure-NFA oracle.
        let (components, _) = graph::component_ids(&nfa);
        let encoded = EncodingPlan::for_nfa(&nfa).compile_sharded(&nfa, &components);

        let mut input = random_input(&mut rng);
        input.extend(random_input(&mut rng));
        input.extend(random_input(&mut rng));
        let flat = Simulator::new(&nfa).run(&input);
        let one_pure = BatchSimulator::new(&pure).run_stream(&input);
        let one_hybrid = BatchSimulator::new(&hybrid).run_stream(&input);
        let one_encoded = BatchSimulator::new(&encoded).run_stream(&input);
        assert_eq!(one_pure.reports, flat.reports, "seed {seed}: pure vs flat");
        assert_eq!(
            one_hybrid.reports, one_pure.reports,
            "seed {seed}: hybrid vs pure"
        );
        assert_eq!(
            one_hybrid.reports, one_encoded.reports,
            "seed {seed}: hybrid vs encoded"
        );
        assert_eq!(
            one_hybrid.activity.cycles, one_pure.activity.cycles,
            "seed {seed}: cycle counts"
        );

        // Random chunked feeds round-robined across flows through
        // uncapped and capped tables.
        let flows: Vec<Vec<u8>> = (0..rng.random_range(2..5usize))
            .map(|_| random_input(&mut rng))
            .collect();
        let chunked: Vec<Vec<&[u8]>> = flows
            .iter()
            .map(|flow| random_chunks(&mut rng, flow))
            .collect();
        for cap in [None, Some(1), Some(2)] {
            let mut hybrid_batch = BatchSimulator::new(&hybrid);
            let mut pure_batch = BatchSimulator::new(&pure);
            if let Some(cap) = cap {
                hybrid_batch = hybrid_batch.max_resident(cap);
                pure_batch = pure_batch.max_resident(cap);
            }
            let rounds = chunked.iter().map(Vec::len).max().unwrap_or(0);
            for round in 0..rounds {
                for (id, chunks) in chunked.iter().enumerate() {
                    if let Some(chunk) = chunks.get(round) {
                        hybrid_batch.feed(id as StreamId, chunk);
                        pure_batch.feed(id as StreamId, chunk);
                    }
                }
            }
            for id in 0..flows.len() {
                let h = hybrid_batch.close(id as StreamId);
                let p = pure_batch.close(id as StreamId);
                assert_eq!(
                    h.reports, p.reports,
                    "seed {seed}, cap {cap:?}, flow {id}: reports"
                );
                assert_eq!(
                    h.activity.cycles, p.activity.cycles,
                    "seed {seed}, cap {cap:?}, flow {id}: cycles"
                );
            }
        }

        // Identity hot-swaps across execution styles: flows park on one
        // style mid-stream and resume on the other.
        let cut_flows: Vec<(Vec<u8>, usize)> = flows
            .iter()
            .map(|flow| {
                let cut = rng.random_range(0..=flow.len());
                (flow.clone(), cut)
            })
            .collect();
        let identity = PlanRemap::identity(nfa.len());
        assert_swap_transparent(
            &hybrid,
            &pure,
            &identity,
            &cut_flows,
            Some(2),
            "hybrid→pure swap",
            seed,
        );
        assert_swap_transparent(
            &pure,
            &hybrid,
            &identity,
            &cut_flows,
            Some(2),
            "pure→hybrid swap",
            seed,
        );
        // Same-plan identity swap: the full RunResult — every activity
        // statistic included — survives the DFA lanes' suspend /
        // translate / resume round-trip.
        assert_identity_swap_exact(
            &hybrid,
            &identity,
            &cut_flows,
            Some(1),
            "hybrid identity capped",
            seed,
        );
        assert_identity_swap_exact(
            &hybrid,
            &identity,
            &cut_flows,
            None,
            "hybrid identity",
            seed,
        );
    }
}
