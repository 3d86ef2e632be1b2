//! The multi-core shard-parallel runtime: worker-pinned shards
//! executing one shared stream cycle-synchronously.
//!
//! CAMA's arrays all process the input symbol in the same cycle — the
//! hardware is embarrassingly parallel across CAM arrays, with only
//! cross-array activations riding the global switch between cycles.
//! [`ParallelShardedSession`] is the software form of that concurrency:
//! a persistent pool of OS threads, each pinned to a disjoint subset of
//! the plan's shards ([`ShardedAutomaton::pin_shards`]), executes every
//! cycle of one shared input stream in lockstep.
//!
//! Per cycle, each worker:
//!
//! 1. **steps its pinned shards** through the sequential session's own
//!    per-cycle shard loop (the same candidate selection — its own live
//!    bitmap over its pinned shards plus the plan's start index — and
//!    the same probes and lane kernels, selected by the
//!    [`ShardedExecution`] hooks), staging reports and cross-shard
//!    activations locally;
//! 2. **publishes cross-shard activations**: targets pinned to this
//!    worker are applied directly; the rest go into per-worker-pair
//!    *mailboxes* — double-buffered `Vec<u64>` slots indexed by cycle
//!    parity, written only by their source worker and drained only by
//!    their destination worker, so the hot path takes no lock;
//! 3. **synchronizes on a sense-reversing spin barrier** — the software
//!    global switch; one barrier per cycle is sufficient because the
//!    parity double-buffering keeps a cycle's publishes and the next
//!    cycle's out of the same slot;
//! 4. **drains inbound mailboxes** into its own shards' next vectors
//!    and advances its visited and touched lanes.
//!
//! Each worker seeds its live bitmap from the session's at chunk start
//! (masked to its pinned shards) and hands it back at chunk end, where
//! the session ORs the workers' bitmaps together, so no word is
//! written by two threads.
//!
//! At chunk end the workers' staged reports are merged and re-sorted by
//! `(offset, state)` and their per-cycle tallies and [`ShardStats`] are
//! summed ([`ShardStats::merge`]), so the [`RunResult`] — reports,
//! order, per-cycle activity, and execution counters — is
//! **bit-identical** to the single-threaded [`ShardedSession`] for
//! every plan flavour (asserted across a 64-seed differential harness
//! in `tests/property.rs`).
//!
//! Worker-count selection ([`worker_count`]): an explicit request wins;
//! `0` consults the `CAMA_WORKERS` environment variable, then
//! [`std::thread::available_parallelism`]. A resolved count of 1 (or a
//! single-shard plan) falls back to the sequential session — no pool is
//! spawned.
//!
//! Observed feeds ([`Session::feed_with`]) run on the sequential path:
//! observer callbacks are ordered per cycle, which a lockstep fan-out
//! cannot provide without serializing anyway. Unobserved `feed` is the
//! parallel fast path; the two may be interleaved freely on one
//! session.
//!
//! # Examples
//!
//! ```
//! use cama_core::compiled::ShardedAutomaton;
//! use cama_core::regex;
//! use cama_sim::{ParallelShardedSession, Session};
//!
//! let nfa = regex::compile_set(&["ab+", "xy"])?;
//! let plan = ShardedAutomaton::compile_per_component(&nfa);
//! // Two workers, each owning one of the two component shards.
//! let mut session = ParallelShardedSession::with_workers(&plan, 2);
//! session.feed(b"zab");
//! session.feed(b"bxy");
//! assert_eq!(session.finish().report_offsets(), vec![2, 3, 5]);
//! # Ok::<(), cama_core::Error>(())
//! ```

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::activity::{NullObserver, ShardObserver};
use crate::batch::StreamPlan;
use crate::engine::Engine;
use crate::lane::{or_words, CycleStep, ShardLane};
use crate::result::{Report, RunResult};
use crate::session::{FlowSession, Session, SuspendedFlow};
use crate::sharded::{LiveLanes, ShardSinks, ShardStats, ShardedExecution, ShardedSession};
use cama_core::compiled::{CompiledAutomaton, ShardedAutomaton};
use cama_core::Nfa;

/// The machine's detected hardware parallelism
/// ([`std::thread::available_parallelism`]), defaulting to 1 when the
/// platform cannot say.
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves a requested worker count: an explicit `requested > 0` wins;
/// `0` consults the `CAMA_WORKERS` environment variable (a positive
/// integer), then falls back to [`detected_parallelism`]. Always
/// returns at least 1.
///
/// The resolution itself lives in [`cama_core::compile::worker_count`]
/// so the parallel ruleset compiler and the execution runtime size
/// their pools identically; this is the same function.
pub fn worker_count(requested: usize) -> usize {
    cama_core::compile::worker_count(requested)
}

/// A sense-reversing spin barrier for a fixed set of participants — the
/// once-per-cycle synchronization point standing in for the global
/// switch. Spinners watch a shared sense flag (a short
/// [`spin_loop`](std::hint::spin_loop) burst, then
/// [`yield_now`](std::thread::yield_now) so oversubscribed worker
/// counts on few cores stay live), and bail out by panicking when a
/// peer has poisoned the pool.
struct SenseBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    participants: usize,
}

impl SenseBarrier {
    fn new(participants: usize) -> Self {
        SenseBarrier {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            participants,
        }
    }

    /// Blocks until all participants arrive. `local_sense` is the
    /// caller's thread-local phase flag (start it at `false`).
    ///
    /// The `AcqRel` arrival chain plus the `Release` sense flip /
    /// `Acquire` sense read make every pre-barrier write of every
    /// participant visible to every post-barrier read — the
    /// happens-before edge the lock-free mailboxes rely on.
    ///
    /// # Panics
    ///
    /// Panics if `poisoned` becomes set while waiting (a peer worker
    /// panicked and will never arrive).
    fn wait(&self, local_sense: &mut bool, poisoned: &AtomicBool) {
        let target = !*local_sense;
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.participants {
            // Reset the counter before releasing: a fast peer may reach
            // the next barrier immediately after seeing the flip.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(target, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != target {
                if poisoned.load(Ordering::Relaxed) {
                    panic!("a peer parallel worker panicked");
                }
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        *local_sense = target;
    }
}

/// One directed worker-pair mailbox: two `Vec<u64>` slots of packed
/// `shard << 32 | local` activations, indexed by cycle parity. Slot
/// `p` is written only by the source worker during compute of cycles
/// with parity `p` and drained (then cleared) only by the destination
/// worker after that cycle's barrier; the barrier between any two uses
/// of the same slot provides the ordering, so no lock is ever taken.
#[derive(Default)]
struct Mailbox {
    bufs: [UnsafeCell<Vec<u64>>; 2],
}

// SAFETY: access is partitioned by the cycle-parity protocol above;
// the per-cycle barrier provides the happens-before edges between the
// single writer's pushes and the single reader's drain/clear.
unsafe impl Sync for Mailbox {}

/// State shared by all workers of one pool.
struct PoolShared {
    barrier: SenseBarrier,
    /// Set by a panicking worker (see [`PoisonGuard`]); peers spinning
    /// in the barrier observe it and panic out instead of hanging.
    poisoned: AtomicBool,
    /// `workers × workers` directed mailboxes, `src * workers + dst`;
    /// diagonal slots are unused (own-shard targets apply directly).
    mailboxes: Vec<Mailbox>,
    workers: usize,
}

/// A `*const T` the pool may move into a worker thread. The pointee is
/// only dereferenced while a job is in flight, which the session keeps
/// within the plan borrow's lifetime.
#[derive(Debug)]
struct SendConst<T>(*const T);

// Manual impls: `derive` would bound them on `T: Copy`/`T: Clone`.
impl<T> Clone for SendConst<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendConst<T> {}

// SAFETY: a raw pointer is plain data; dereference safety is the
// mailbox/job protocol's responsibility, documented at each use.
unsafe impl<T> Send for SendConst<T> {}

/// A `*mut T` counterpart of [`SendConst`] for the lane array.
#[derive(Debug)]
struct SendMut<T>(*mut T);

impl<T> Clone for SendMut<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendMut<T> {}

// SAFETY: see `SendConst`.
unsafe impl<T> Send for SendMut<T> {}

/// One chunk of work broadcast to every worker: the planned cycle steps,
/// the session's lane array and its live bitmap (read-only until the
/// chunk ends). The pointers are valid until every worker has returned
/// its [`ChunkOut`]; the dispatching session blocks on exactly that.
#[derive(Clone, Copy, Debug)]
struct Job {
    steps: SendConst<CycleStep>,
    steps_len: usize,
    lanes: SendMut<ShardLane>,
    lanes_len: usize,
    live: SendConst<u64>,
    live_len: usize,
    start_cycle: usize,
    skip_idle: bool,
}

enum Msg {
    Run(Job),
    Exit,
}

/// One worker's results for one chunk, merged by the dispatching
/// session.
struct ChunkOut {
    /// This worker's counter delta (full-width vectors; summed via
    /// [`ShardStats::merge`]).
    stats: ShardStats,
    /// Reports staged by this worker's shards, in per-cycle staging
    /// order (re-sorted globally at merge).
    reports: Vec<Report>,
    /// Per-cycle `[num_active, num_dynamic, reports]` partial tallies.
    tallies: Vec<[usize; 3]>,
    /// Activations this worker pushed through mailboxes (cross-shard
    /// traffic that actually crossed workers).
    sent_remote: u64,
    /// This worker's live lanes at chunk end (pinned shards only).
    live: Vec<u64>,
}

/// Sets the pool's poison flag if the scope unwinds — peers spinning in
/// the barrier turn the flag into their own panic instead of hanging,
/// and the dispatching session surfaces the failure as a closed
/// channel.
struct PoisonGuard<'a>(&'a AtomicBool);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Everything one worker thread owns.
struct WorkerCtx<P: ShardedExecution + 'static> {
    me: usize,
    plan: SendConst<ShardedAutomaton<P>>,
    /// The shards pinned to this worker (disjoint across workers), one
    /// bit per shard.
    mine: Vec<u64>,
    /// How many shards are pinned to this worker.
    num_mine: usize,
    /// The full shard → worker map, for routing staged activations.
    pinned: Arc<Vec<u32>>,
    shared: Arc<PoolShared>,
    jobs: Receiver<Msg>,
    done: Sender<ChunkOut>,
    num_shards: usize,
    num_states: usize,
}

fn worker_main<P: ShardedExecution + 'static>(ctx: WorkerCtx<P>) {
    let mut local_sense = false;
    let mut sinks = ShardSinks::new(ctx.num_shards, ctx.num_states);
    let mut live = LiveLanes::new(ctx.num_shards);
    while let Ok(Msg::Run(job)) = ctx.jobs.recv() {
        let guard = PoisonGuard(&ctx.shared.poisoned);
        let out = run_chunk::<P>(&ctx, &job, &mut local_sense, &mut sinks, &mut live);
        drop(guard);
        if ctx.done.send(out).is_err() {
            // The session went away mid-flight; nothing to report to.
            return;
        }
    }
}

/// Executes one worker's share of one chunk: per cycle, the shared
/// shard loop ([`ShardSinks::visit`]) over the candidates among the
/// pinned shards, then the mailbox exchange, cycle boundaries enforced
/// by the pool barrier.
fn run_chunk<P: ShardedExecution + 'static>(
    ctx: &WorkerCtx<P>,
    job: &Job,
    local_sense: &mut bool,
    sinks: &mut ShardSinks,
    live: &mut LiveLanes,
) -> ChunkOut {
    // SAFETY: the dispatching session holds the plan borrow, the step
    // slice, the lane array and the live bitmap alive, and blocks on
    // this worker's `ChunkOut` before touching any of them again (its
    // pool field drops — joining us — before the borrowed data even
    // during unwind). Nothing writes the live bitmap during the chunk.
    let (plan, steps, session_live): (&ShardedAutomaton<P>, &[CycleStep], &[u64]) = unsafe {
        (
            &*ctx.plan.0,
            std::slice::from_raw_parts(job.steps.0, job.steps_len),
            std::slice::from_raw_parts(job.live.0, job.live_len),
        )
    };
    let shards = plan.shards();
    debug_assert_eq!(job.lanes_len, shards.len());
    let lanes = job.lanes.0;
    let workers = ctx.shared.workers;
    let mut sent_remote = 0u64;
    let mut tallies = Vec::with_capacity(steps.len());
    let seeded = live.lanes.as_words_mut().iter_mut();
    for ((out, &session), &mine) in seeded.zip(session_live).zip(&ctx.mine) {
        *out = session & mine;
    }

    for (i, &step) in steps.iter().enumerate() {
        let cycle = job.start_cycle + i;
        let parity = cycle & 1;

        // Compute: the shared shard loop over this worker's candidates.
        let candidates = live.candidates(plan, step, cycle == 0, job.skip_idle, Some(&ctx.mine));
        let pinned = candidates.map(|si| {
            // SAFETY: candidates are pinned to this worker alone and
            // each index comes once, so this is the only live reference
            // to its lane during compute.
            (si, &shards[si], unsafe { &mut *lanes.add(si) })
        });
        let tally = sinks.visit(
            pinned,
            ctx.num_mine,
            step,
            cycle,
            job.skip_idle,
            &mut NullObserver,
        );

        // Publish: all staged activations count as global-switch
        // traffic (parity with the sequential exchange); targets we own
        // apply directly, the rest ride the mailboxes.
        sinks.stats.cross_activations += sinks.exchange.len() as u64;
        for &packed in &sinks.exchange {
            let target = (packed >> 32) as usize;
            let owner = ctx.pinned[target] as usize;
            if owner == ctx.me {
                // SAFETY: `target` is pinned to this worker.
                let lane = unsafe { &mut *lanes.add(target) };
                lane.activate((packed & u64::from(u32::MAX)) as usize);
                live.touch(target);
            } else {
                // SAFETY: slot (me → owner, parity) is written only by
                // this worker this cycle; the owner drains it only
                // after the barrier below.
                let outbox = unsafe {
                    &mut *ctx.shared.mailboxes[ctx.me * workers + owner].bufs[parity].get()
                };
                outbox.push(packed);
                sent_remote += 1;
            }
        }
        sinks.exchange.clear();

        // The software global switch: everyone's publishes for this
        // cycle are visible after the barrier.
        ctx.shared.barrier.wait(local_sense, &ctx.shared.poisoned);

        // Drain: inbound activations land in our shards' next vectors.
        for src in 0..workers {
            if src == ctx.me {
                continue;
            }
            // SAFETY: slot (src → me, parity) was last written by
            // `src` before the barrier; we are its only reader, and our
            // clear happens-before `src`'s next use of this slot (two
            // cycles from now) via the intervening barrier.
            let inbox =
                unsafe { &mut *ctx.shared.mailboxes[src * workers + ctx.me].bufs[parity].get() };
            for &packed in inbox.iter() {
                let target = (packed >> 32) as usize;
                // SAFETY: mailbox routing only sends us shards we own.
                let lane = unsafe { &mut *lanes.add(target) };
                lane.activate((packed & u64::from(u32::MAX)) as usize);
                live.touch(target);
            }
            inbox.clear();
        }

        // Advance our visited and touched lanes; peers advance theirs.
        // The next compute reads only our own lanes, so no second
        // barrier is needed.
        // SAFETY: every scanned shard is pinned to this worker.
        live.advance(|si| unsafe { &mut *lanes.add(si) }.advance());

        tallies.push([tally.num_active, tally.num_dynamic, tally.reports]);
    }

    ChunkOut {
        stats: std::mem::replace(
            &mut sinks.stats,
            ShardStats::new(ctx.num_shards, ctx.num_states),
        ),
        reports: std::mem::take(&mut sinks.reports),
        tallies,
        sent_remote,
        live: live.lanes.as_words().to_vec(),
    }
}

/// The persistent worker pool of one [`ParallelShardedSession`]:
/// spawned lazily on the first parallel feed, joined on drop. The pool
/// itself is plan-type-erased — only the spawned closures are
/// monomorphized.
struct WorkerPool {
    jobs: Vec<Sender<Msg>>,
    done: Vec<Receiver<ChunkOut>>,
    handles: Vec<JoinHandle<()>>,
    /// Shard → worker pinning used by this pool (for diagnostics).
    pinned: Vec<u32>,
}

impl WorkerPool {
    fn spawn<P: ShardedExecution + 'static>(plan: &ShardedAutomaton<P>, workers: usize) -> Self {
        debug_assert!(workers >= 2, "a 1-worker session runs sequentially");
        let pinned = plan.pin_shards(workers);
        let pinned_shared = Arc::new(pinned.clone());
        let shared = Arc::new(PoolShared {
            barrier: SenseBarrier::new(workers),
            poisoned: AtomicBool::new(false),
            mailboxes: (0..workers * workers).map(|_| Mailbox::default()).collect(),
            workers,
        });
        let mut jobs = Vec::with_capacity(workers);
        let mut done = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            let (job_tx, job_rx) = channel();
            let (done_tx, done_rx) = channel();
            let mut mine = vec![0u64; plan.num_shards().div_ceil(64)];
            for (si, &w) in pinned.iter().enumerate() {
                if w as usize == me {
                    mine[si / 64] |= 1u64 << (si % 64);
                }
            }
            let ctx = WorkerCtx::<P> {
                me,
                plan: SendConst(plan as *const ShardedAutomaton<P>),
                num_mine: mine.iter().map(|w| w.count_ones() as usize).sum(),
                mine,
                pinned: Arc::clone(&pinned_shared),
                shared: Arc::clone(&shared),
                jobs: job_rx,
                done: done_tx,
                num_shards: plan.num_shards(),
                num_states: plan.len(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("cama-shard-worker-{me}"))
                .spawn(move || worker_main::<P>(ctx))
                .expect("failed to spawn parallel shard worker");
            jobs.push(job_tx);
            done.push(done_rx);
            handles.push(handle);
        }
        WorkerPool {
            jobs,
            done,
            handles,
            pinned,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.jobs {
            // A dead worker's channel is already closed; ignore.
            let _ = tx.send(Msg::Exit);
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked already surfaced the failure via
            // its closed result channel; don't double-panic here.
            let _ = handle.join();
        }
    }
}

/// A [`ShardedSession`] whose unobserved feeds execute on a persistent
/// multi-core worker pool — shards pinned to OS threads, cross-shard
/// activations exchanged through lock-free parity-indexed mailboxes,
/// cycles synchronized on a spin barrier. Results (reports, order,
/// per-cycle activity, [`ShardStats`]) are bit-identical to the
/// sequential session for every plan flavour.
///
/// Implements [`Session`] and [`FlowSession`], so it drops into every
/// serving surface the sequential session does (including the
/// [`BatchSimulator`](crate::BatchSimulator) stream table via
/// [`ParallelShardedPlan`]). Observed feeds and the finish-time strided
/// carry flush run sequentially on the inner session — both paths
/// mutate the same lanes, so they interleave freely.
///
/// The pool is spawned lazily on the first feed that has more than one
/// worker's worth of work, and joined when the session drops; `clone`
/// starts without a pool.
pub struct ParallelShardedSession<'p, P: ShardedExecution + 'static = CompiledAutomaton> {
    // Declared first: dropping the pool joins the workers, which must
    // happen before the lanes (`inner`) and `steps` they point into
    // are freed — also during unwind.
    pool: Option<WorkerPool>,
    inner: ShardedSession<'p, P>,
    /// Effective worker count (requested, resolved, capped at the shard
    /// count; 1 means the sequential path).
    workers: usize,
    /// Scratch: the current chunk's planned steps, shared read-only
    /// with every worker.
    steps: Vec<CycleStep>,
    /// Scratch: chunk-merge buffers.
    merged_reports: Vec<Report>,
    merged_live: Vec<u64>,
    per_cycle: Vec<[usize; 3]>,
    /// Cumulative 64-state words swept per worker (the bench's
    /// per-worker visit counts). Monotone, like [`ShardStats`].
    worker_words: Vec<u64>,
    /// Cumulative activations that crossed workers through mailboxes —
    /// the subset of [`ShardStats::cross_activations`] that actually
    /// left its worker. Monotone.
    mailbox_traffic: u64,
}

impl<'p, P: ShardedExecution + 'static> ParallelShardedSession<'p, P> {
    /// Starts a session with auto-detected workers ([`worker_count`]
    /// with `requested = 0`).
    pub fn new(plan: &'p ShardedAutomaton<P>) -> Self {
        Self::with_workers(plan, 0)
    }

    /// Starts a session with an explicit worker count (`0` =
    /// auto-detect via `CAMA_WORKERS`, then
    /// [`available_parallelism`](std::thread::available_parallelism)).
    /// The count is capped at the plan's shard count; a resolved count
    /// of 1 runs sequentially with no pool.
    pub fn with_workers(plan: &'p ShardedAutomaton<P>, workers: usize) -> Self {
        let effective = worker_count(workers).min(plan.num_shards()).max(1);
        ParallelShardedSession {
            pool: None,
            inner: ShardedSession::new(plan),
            workers: effective,
            steps: Vec::new(),
            merged_reports: Vec::new(),
            merged_live: Vec::new(),
            per_cycle: Vec::new(),
            worker_words: vec![0; effective],
            mailbox_traffic: 0,
        }
    }

    /// The shared sharded plan this session executes.
    pub fn plan(&self) -> &'p ShardedAutomaton<P> {
        self.inner.plan()
    }

    /// The effective worker count (after env/auto resolution and the
    /// shard-count cap). 1 means every feed runs sequentially.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shard → worker pinning, once the pool exists (`None` before
    /// the first parallel feed, or on a 1-worker session).
    pub fn pinning(&self) -> Option<&[u32]> {
        self.pool.as_ref().map(|p| p.pinned.as_slice())
    }

    /// Cumulative 64-state words swept by each worker — the per-worker
    /// share of [`ShardStats::words_visited`]. All zeros until the
    /// first parallel feed.
    pub fn worker_words(&self) -> &[u64] {
        &self.worker_words
    }

    /// Cumulative cross-shard activations that crossed *workers*
    /// (mailbox traffic) — the subset of
    /// [`ShardStats::cross_activations`] the in-worker fast path could
    /// not resolve locally.
    pub fn mailbox_traffic(&self) -> u64 {
        self.mailbox_traffic
    }

    /// The session's cumulative execution counters (identical to the
    /// sequential session's for the same input).
    pub fn stats(&self) -> &ShardStats {
        self.inner.stats()
    }

    /// Takes the counters, resetting them to zero.
    pub fn take_stats(&mut self) -> ShardStats {
        self.inner.take_stats()
    }

    /// Consumes one chunk on the worker pool (or sequentially at 1
    /// worker). This is the parallel fast path behind [`Session::feed`].
    fn feed_parallel(&mut self, chunk: &[u8]) {
        if self.workers <= 1 {
            self.inner.feed(chunk);
            return;
        }
        self.steps.clear();
        let steps = &mut self.steps;
        P::plan_steps(chunk, &mut self.inner.carry, |step| steps.push(step));
        self.inner.fed += chunk.len();
        if self.steps.is_empty() {
            return;
        }
        if self.pool.is_none() {
            self.pool = Some(WorkerPool::spawn(self.inner.plan(), self.workers));
        }
        let pool = self.pool.as_ref().expect("pool just ensured");

        let job = Job {
            steps: SendConst(self.steps.as_ptr()),
            steps_len: self.steps.len(),
            lanes: SendMut(self.inner.lanes.as_mut_ptr()),
            lanes_len: self.inner.lanes.len(),
            live: SendConst(self.inner.live.lanes.as_words().as_ptr()),
            live_len: self.inner.live.lanes.as_words().len(),
            start_cycle: self.inner.cycle,
            skip_idle: self.inner.skip_idle,
        };
        // SAFETY (for the pointers in `job`): `steps`, `lanes` and the
        // live bitmap are not touched again until every worker has
        // answered on its result channel below; a failed recv panics,
        // and the pool field drops (joining all workers) before
        // `inner`/`steps`.
        for (w, tx) in pool.jobs.iter().enumerate() {
            if tx.send(Msg::Run(job)).is_err() {
                panic!("parallel shard worker {w} exited unexpectedly");
            }
        }

        self.per_cycle.clear();
        self.per_cycle.resize(self.steps.len(), [0usize; 3]);
        self.merged_reports.clear();
        self.merged_live.clear();
        self.merged_live
            .resize(self.inner.live.lanes.as_words().len(), 0);
        for (w, done) in pool.done.iter().enumerate() {
            let out = done
                .recv()
                .unwrap_or_else(|_| panic!("parallel shard worker {w} panicked"));
            self.worker_words[w] += out.stats.words_visited;
            self.mailbox_traffic += out.sent_remote;
            self.inner.sinks.stats.merge(&out.stats);
            self.merged_reports.extend(out.reports);
            or_words(&mut self.merged_live, &out.live);
            debug_assert_eq!(out.tallies.len(), self.per_cycle.len());
            for (acc, t) in self.per_cycle.iter_mut().zip(&out.tallies) {
                acc[0] += t[0];
                acc[1] += t[1];
                acc[2] += t[2];
            }
        }

        // Reports carry unique (offset, state) keys and offsets are
        // monotone in the cycle, so one whole-chunk sort reproduces the
        // sequential engine's per-cycle sorted appends exactly.
        self.merged_reports
            .sort_unstable_by_key(|r| (r.offset, r.ste));
        self.inner.result.reports.append(&mut self.merged_reports);
        // Workers own disjoint shards, so their bitmaps OR together.
        let live = self.inner.live.lanes.as_words_mut();
        live.copy_from_slice(&self.merged_live);
        for t in &self.per_cycle {
            self.inner.result.activity.record(t[0], t[1], t[2]);
        }
        self.inner.cycle += self.steps.len();
    }
}

impl<P: ShardedExecution + 'static> Session for ParallelShardedSession<'_, P> {
    fn feed_with(&mut self, chunk: &[u8], observer: &mut impl ShardObserver) {
        // Observed feeds are sequential: observer callbacks are ordered
        // per cycle, which the lockstep fan-out cannot provide.
        self.inner.feed_with(chunk, observer);
    }

    fn feed(&mut self, chunk: &[u8]) {
        self.feed_parallel(chunk);
    }

    fn finish_with(&mut self, observer: &mut impl ShardObserver) -> RunResult {
        // The strided carry flush is a single cycle; run it (and the
        // end-of-stream sort/reset) on the inner session.
        self.inner.finish_with(observer)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn bytes_fed(&self) -> usize {
        self.inner.bytes_fed()
    }

    fn pending(&self) -> &RunResult {
        self.inner.pending()
    }
}

impl<P: ShardedExecution + 'static> FlowSession for ParallelShardedSession<'_, P> {
    fn suspend(&mut self) -> SuspendedFlow {
        self.inner.suspend()
    }

    fn resume(&mut self, flow: SuspendedFlow) {
        self.inner.resume(flow);
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn for_each_active_shard(&self, f: impl FnMut(usize)) {
        self.inner.for_each_active_shard(f);
    }

    fn set_skip_idle(&mut self, on: bool) {
        self.inner.set_skip_idle(on);
    }
}

impl<P: ShardedExecution + Clone + 'static> Clone for ParallelShardedSession<'_, P> {
    fn clone(&self) -> Self {
        ParallelShardedSession {
            // Pools are not shared: the clone spawns its own lazily.
            pool: None,
            inner: self.inner.clone(),
            workers: self.workers,
            steps: Vec::new(),
            merged_reports: Vec::new(),
            merged_live: Vec::new(),
            per_cycle: Vec::new(),
            worker_words: vec![0; self.workers],
            mailbox_traffic: 0,
        }
    }
}

impl<P: ShardedExecution + fmt::Debug + 'static> fmt::Debug for ParallelShardedSession<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelShardedSession")
            .field("inner", &self.inner)
            .field("workers", &self.workers)
            .field("pool_spawned", &self.pool.is_some())
            .field("worker_words", &self.worker_words)
            .field("mailbox_traffic", &self.mailbox_traffic)
            .finish()
    }
}

/// A [`StreamPlan`] handing out [`ParallelShardedSession`]s: wraps a
/// [`ShardedAutomaton`] plus a worker count so the
/// [`BatchSimulator`](crate::BatchSimulator) stream table (capped
/// residency, parked flows, framing — all of it) dispatches flows onto
/// the multi-core runtime. Each resident session owns its worker pool,
/// so cap residency with the machine's core budget in mind.
#[derive(Clone, Debug)]
pub struct ParallelShardedPlan<P: ShardedExecution + 'static = CompiledAutomaton> {
    plan: ShardedAutomaton<P>,
    workers: usize,
}

impl<P: ShardedExecution + 'static> ParallelShardedPlan<P> {
    /// Wraps a sharded plan; `workers` as in
    /// [`ParallelShardedSession::with_workers`].
    pub fn new(plan: ShardedAutomaton<P>, workers: usize) -> Self {
        ParallelShardedPlan { plan, workers }
    }

    /// The wrapped sharded plan.
    pub fn plan(&self) -> &ShardedAutomaton<P> {
        &self.plan
    }

    /// The worker request sessions are opened with (0 = auto).
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl<P: ShardedExecution + Clone + fmt::Debug + 'static> StreamPlan for ParallelShardedPlan<P> {
    type Session<'p>
        = ParallelShardedSession<'p, P>
    where
        Self: 'p;
    type Flavour = P;

    fn open_session(&self) -> ParallelShardedSession<'_, P> {
        ParallelShardedSession::with_workers(&self.plan, self.workers)
    }

    fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }
}

/// The multi-core counterpart of
/// [`ShardedSimulator`](crate::ShardedSimulator): compiles an [`Nfa`]
/// into a [`ShardedAutomaton`] and runs streams on a worker pool
/// ([`Engine`] over a [`ParallelShardedPlan`]).
///
/// # Examples
///
/// ```
/// use cama_core::regex;
/// use cama_sim::ParallelShardedSimulator;
///
/// let nfa = regex::compile_set(&["ab+", "xy"])?;
/// let mut sim = ParallelShardedSimulator::per_component(&nfa, 2);
/// let result = sim.run(b"zabbxy");
/// assert_eq!(result.report_offsets(), vec![2, 3, 5]);
/// # Ok::<(), cama_core::Error>(())
/// ```
pub type ParallelShardedSimulator<'a> = Engine<'a, ParallelShardedPlan>;

impl<'a> ParallelShardedSimulator<'a> {
    /// Compiles `nfa` into at most `num_shards` component-balanced
    /// shards; `workers` as in
    /// [`ParallelShardedSession::with_workers`].
    pub fn new(nfa: &'a Nfa, num_shards: usize, workers: usize) -> Self {
        let plan = ShardedAutomaton::compile(nfa, num_shards);
        Engine::from_parts(nfa, ParallelShardedPlan::new(plan, workers), ())
    }

    /// One shard per connected component.
    pub fn per_component(nfa: &'a Nfa, workers: usize) -> Self {
        let plan = ShardedAutomaton::compile_per_component(nfa);
        Engine::from_parts(nfa, ParallelShardedPlan::new(plan, workers), ())
    }

    /// An explicit per-state shard assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != nfa.len()`.
    pub fn with_assignment(nfa: &'a Nfa, assignment: &[u32], workers: usize) -> Self {
        let plan = ShardedAutomaton::compile_with_assignment(nfa, assignment);
        Engine::from_parts(nfa, ParallelShardedPlan::new(plan, workers), ())
    }

    /// Sets whether sessions skip idle shards (on by default).
    pub fn skip_idle(mut self, on: bool) -> Self {
        self.skip_idle = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedSimulator, Simulator};
    use cama_core::regex;

    #[test]
    fn worker_count_resolution() {
        assert_eq!(worker_count(3), 3);
        assert_eq!(worker_count(1), 1);
        // 0 resolves through env/auto-detect; always at least 1.
        assert!(worker_count(0) >= 1);
        assert!(detected_parallelism() >= 1);
    }

    #[test]
    fn parallel_matches_sequential_with_cross_shard_traffic() {
        // A chain split across shards forces mailbox traffic.
        let nfa = regex::compile("abcd").unwrap();
        let input = b"zabcdabcdxxabcd";
        let expect = ShardedSimulator::with_assignment(&nfa, &[0, 0, 1, 1]).run(input);
        let plan = ShardedAutomaton::compile_with_assignment(&nfa, &[0, 0, 1, 1]);
        let mut session = ParallelShardedSession::with_workers(&plan, 2);
        session.feed(input);
        let result = session.finish();
        assert_eq!(result, expect);
        assert!(
            session.mailbox_traffic() > 0,
            "split chain must cross workers"
        );
        assert!(session.pinning().is_some());
        assert!(session.worker_words().iter().sum::<u64>() > 0);
    }

    #[test]
    fn parallel_matches_sequential_across_chunked_feeds() {
        let nfa = regex::compile_set(&["ab+c", "x[0-9]+y", "qq"]).unwrap();
        let plan = ShardedAutomaton::compile_per_component(&nfa);
        let mut expect_session = ShardedSession::new(&plan);
        let mut session = ParallelShardedSession::with_workers(&plan, 2);
        for chunk in [&b"zab "[..], b"", b"b", b"cx12y qqab", b"cx9y"] {
            expect_session.feed(chunk);
            session.feed(chunk);
        }
        let expect = expect_session.finish();
        assert_eq!(session.finish(), expect);
    }

    #[test]
    fn oversubscribed_workers_stay_bit_identical() {
        let nfa = regex::compile_set(&["ab", "cd", "ef"]).unwrap();
        let input = b"abcdefabcdef";
        let plan = ShardedAutomaton::compile_per_component(&nfa);
        let expect = {
            let mut s = ShardedSession::new(&plan);
            s.feed(input);
            s.finish()
        };
        // More workers than cores (and as many as shards) on this host.
        let mut session = ParallelShardedSession::with_workers(&plan, 7);
        assert!(session.workers() <= plan.num_shards());
        session.feed(input);
        assert_eq!(session.finish(), expect);
    }

    #[test]
    fn parallel_stats_match_sequential() {
        let nfa = regex::compile_set(&["ab+c", "xy"]).unwrap();
        let input = b"zabbbc xy abcxy";
        let plan = ShardedAutomaton::compile(&nfa, 4);
        let mut seq = ShardedSession::new(&plan);
        seq.feed(input);
        seq.finish();
        let mut par = ParallelShardedSession::with_workers(&plan, 2);
        par.feed(input);
        par.finish();
        assert_eq!(par.take_stats(), seq.take_stats());
    }

    #[test]
    fn suspend_resume_round_trips_through_parallel_feeds() {
        let nfa = regex::compile("ab+c").unwrap();
        let input = b"zabbbc abc";
        let plan = ShardedAutomaton::compile(&nfa, 2);
        let expect = {
            let mut s = ShardedSession::new(&plan);
            s.feed(input);
            s.finish()
        };
        let mut session = ParallelShardedSession::with_workers(&plan, 2);
        session.feed(&input[..4]); // mid-match
        let flow = session.suspend();
        session.feed(b"interloper stream");
        session.finish();
        session.resume(flow);
        session.feed(&input[4..]);
        assert_eq!(session.finish(), expect);
    }

    #[test]
    fn single_worker_falls_back_to_sequential() {
        let nfa = regex::compile("ab").unwrap();
        let plan = ShardedAutomaton::compile(&nfa, 2);
        let mut session = ParallelShardedSession::with_workers(&plan, 1);
        session.feed(b"zab");
        assert_eq!(session.finish().report_offsets(), vec![2]);
        assert!(session.pinning().is_none(), "no pool at 1 worker");
    }

    #[test]
    fn parallel_engine_matches_flat_engine() {
        let nfa = regex::compile_set(&["a+b", "c?d", "[xy]z"]).unwrap();
        let input = b"aab cd xz yz dd";
        let flat = Simulator::new(&nfa).run(input);
        let result = ParallelShardedSimulator::new(&nfa, 3, 2).run(input);
        assert_eq!(result, flat);
    }
}
