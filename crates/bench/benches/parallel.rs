//! Criterion benchmarks for the multi-core shard-parallel runtime:
//! one shared input stream executed by a worker pool with pinned
//! shards, swept over thread counts, against the single-threaded
//! sharded session; plus the work-stealing multi-stream dispatcher.
//! After the timed runs, instrumented passes print the detected
//! parallelism, the resolved worker count, per-worker visited words,
//! mailbox (cross-worker) traffic, and the measured speedup over the
//! sequential sharded path.

use cama_core::compiled::ShardedAutomaton;
use cama_core::graph;
use cama_sim::{
    detected_parallelism, BatchSimulator, ParallelShardedSession, Session, ShardedSession,
};
use cama_workloads::Benchmark;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const INPUT_LEN: usize = 4096;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One Snort-like stream over a 16-way sharding: the sequential sharded
/// session vs the worker pool at 1/2/4/8 threads. The 1-thread point is
/// the sequential fallback (no pool is spawned), so its delta over the
/// baseline is the dispatch overhead of the parallel wrapper alone.
fn bench_parallel_stream(c: &mut Criterion) {
    let nfa = Benchmark::Snort.generate(0.02);
    let input = Benchmark::Snort.input(&nfa, INPUT_LEN, 1);
    let plan = ShardedAutomaton::compile(&nfa, 16);

    let mut group = c.benchmark_group("parallel");
    group.throughput(Throughput::Bytes(INPUT_LEN as u64));
    group.bench_function("snort_sequential_sharded", |b| {
        let mut session = ShardedSession::new(&plan);
        b.iter(|| {
            session.feed(black_box(&input));
            black_box(session.finish())
        })
    });
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::new("snort_worker_pool", threads),
            &threads,
            |b, &threads| {
                // One long-lived session: the pool spawns on the first
                // feed and is reused across iterations, so the timed
                // loop measures steady-state serving, not thread spawn.
                let mut session = ParallelShardedSession::with_workers(&plan, threads);
                b.iter(|| {
                    session.feed(black_box(&input));
                    black_box(session.finish())
                })
            },
        );
    }
    group.finish();

    let components = graph::connected_components(&nfa).len();
    println!(
        "parallel runtime (snort: {} states, {components} components, 16 shards, \
         {}-byte input): detected parallelism {}",
        nfa.len(),
        input.len(),
        detected_parallelism(),
    );
    // Instrumented pass per thread count: worker count actually
    // resolved, per-worker visited words (the pinning balance), and
    // mailbox traffic (activations that crossed a worker boundary).
    let sequential_stats = {
        let mut session = ShardedSession::new(&plan);
        session.feed(&input);
        session.finish();
        session.take_stats()
    };
    for threads in THREADS {
        let mut session = ParallelShardedSession::with_workers(&plan, threads);
        session.feed(&input);
        session.finish();
        let stats = session.take_stats();
        assert_eq!(
            stats.words_visited, sequential_stats.words_visited,
            "parallel visitation must match sequential"
        );
        println!(
            "  requested {threads}: {} workers, per-worker visited words {:?}, \
             {} cross-shard activations ({} crossed a mailbox)",
            session.workers(),
            session.worker_words(),
            stats.cross_activations,
            session.mailbox_traffic(),
        );
    }

    // The size-balanced sharding keeps connected components whole, so
    // no activation crosses a worker boundary above. A round-robin
    // striped assignment splits every component across all shards —
    // the worst case for the exchange — to show the mailbox path under
    // real traffic.
    let striped: Vec<u32> = (0..nfa.len() as u32).map(|i| i % 16).collect();
    let striped_plan = ShardedAutomaton::compile_with_assignment(&nfa, &striped);
    let striped_sequential = {
        let mut session = ShardedSession::new(&striped_plan);
        session.feed(&input);
        session.finish();
        session.take_stats()
    };
    for threads in [2usize, 4] {
        let mut session = ParallelShardedSession::with_workers(&striped_plan, threads);
        session.feed(&input);
        session.finish();
        let stats = session.take_stats();
        assert_eq!(stats, striped_sequential, "striped parallel must match");
        println!(
            "  striped 16 shards, {threads} workers: {} cross-shard activations, \
             {} crossed a mailbox",
            stats.cross_activations,
            session.mailbox_traffic(),
        );
    }

    // Wall-clock speedup over the sequential sharded path, measured
    // directly so it lands in every bench artifact including --test
    // smoke runs. Trials alternate and keep the minimum, so transient
    // interference hits both sides equally.
    const ROUNDS: u32 = 10;
    const TRIALS: u32 = 15;
    let time_sequential = || {
        let mut session = ShardedSession::new(&plan);
        session.feed(&input);
        black_box(session.finish());
        let start = std::time::Instant::now();
        for _ in 0..ROUNDS {
            session.feed(black_box(&input));
            black_box(session.finish());
        }
        start.elapsed()
    };
    let time_parallel = |threads: usize| {
        let mut session = ParallelShardedSession::with_workers(&plan, threads);
        session.feed(&input);
        black_box(session.finish());
        let start = std::time::Instant::now();
        for _ in 0..ROUNDS {
            session.feed(black_box(&input));
            black_box(session.finish());
        }
        start.elapsed()
    };
    for threads in THREADS {
        let mut sequential = std::time::Duration::MAX;
        let mut parallel = std::time::Duration::MAX;
        for _ in 0..TRIALS {
            sequential = sequential.min(time_sequential());
            parallel = parallel.min(time_parallel(threads));
        }
        println!(
            "  wall clock ({ROUNDS}x{INPUT_LEN}B): sequential {:.3} ms, \
             {threads}-thread pool {:.3} ms ({:.2}x)",
            sequential.as_secs_f64() * 1e3,
            parallel.as_secs_f64() * 1e3,
            sequential.as_secs_f64() / parallel.as_secs_f64(),
        );
    }
}

/// The work-stealing multi-stream dispatcher: 16 Snort-like streams
/// over one shared sharded plan, claimed off an atomic cursor, vs the
/// sequential batch loop.
fn bench_work_stealing_batch(c: &mut Criterion) {
    const STREAMS: usize = 16;
    let nfa = Benchmark::Snort.generate(0.02);
    let plan = ShardedAutomaton::compile(&nfa, 16);
    let streams: Vec<Vec<u8>> = (0..STREAMS)
        .map(|i| Benchmark::Snort.input(&nfa, INPUT_LEN, i as u64 + 1))
        .collect();
    let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
    let batch = BatchSimulator::new(&plan);

    let mut group = c.benchmark_group("parallel");
    group.throughput(Throughput::Bytes((INPUT_LEN * STREAMS) as u64));
    group.bench_function("snort_batch_sequential", |b| {
        b.iter(|| black_box(batch.run_all(refs.iter().copied())))
    });
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::new("snort_batch_stealing", threads),
            &threads,
            |b, &threads| b.iter(|| black_box(batch.run_parallel(&refs, threads))),
        );
    }
    group.finish();

    let (_, stats) = batch.run_parallel_stats(&refs, 4);
    println!(
        "work-stealing batch ({STREAMS} streams x {INPUT_LEN}B, 16 shards): \
         {} words visited, {} shard-cycles run ({} skipped)",
        stats.words_visited,
        stats.visited_shard_cycles(),
        stats.skipped_shard_cycles,
    );
}

/// The worker pool against stream-level parallelism at equal thread
/// count, where per-cycle work is µs-scale: the full-size Snort
/// stand-in (scale 1.0) in 2 shards, two 16 KiB streams, run
/// sequentially, each through a 2-worker pool, and as one 2-thread
/// `run_parallel` batch. Printed only (a pass takes tens of
/// milliseconds), as the minimum over a few alternating trials so
/// bench-smoke stays short.
fn bench_pool_vs_stream_parallelism(_c: &mut Criterion) {
    const STREAM_LEN: usize = 16 * 1024;
    const TRIALS: u32 = 3;
    let nfa = Benchmark::Snort.generate(1.0);
    let plan = ShardedAutomaton::compile(&nfa, 2);
    let streams: Vec<Vec<u8>> = (1..=2)
        .map(|seed| Benchmark::Snort.input(&nfa, STREAM_LEN, seed))
        .collect();
    let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
    let batch = BatchSimulator::new(&plan);
    let mut pool = ParallelShardedSession::with_workers(&plan, 2);

    let mut seq = std::time::Duration::MAX;
    let (mut par, mut steal) = (seq, seq);
    for _ in 0..TRIALS {
        let start = std::time::Instant::now();
        let mut session = ShardedSession::new(&plan);
        for stream in &refs {
            session.feed(black_box(stream));
            black_box(session.finish());
        }
        seq = start.elapsed().min(seq);

        let start = std::time::Instant::now();
        for stream in &refs {
            pool.feed(black_box(stream));
            black_box(pool.finish());
        }
        par = start.elapsed().min(par);

        let start = std::time::Instant::now();
        black_box(batch.run_parallel(&refs, 2));
        steal = start.elapsed().min(steal);
    }
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    println!(
        "pool vs stream parallelism (snort 1.0: {} states, 2 shards, 2x{STREAM_LEN}B, \
         min of {TRIALS}): sequential {:.1} ms, 2-worker pool {:.1} ms ({:.2}x), \
         run_parallel(2) {:.1} ms ({:.2}x)",
        nfa.len(),
        ms(seq),
        ms(par),
        ms(seq) / ms(par),
        ms(steal),
        ms(seq) / ms(steal),
    );
}

criterion_group!(
    benches,
    bench_parallel_stream,
    bench_work_stealing_batch,
    bench_pool_vs_stream_parallelism
);
criterion_main!(benches);
