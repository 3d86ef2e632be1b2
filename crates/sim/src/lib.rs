//! Cycle-accurate functional simulation of homogeneous NFAs — the
//! reproduction's stand-in for VASim, built on compiled execution plans.
//!
//! Every in-memory automata accelerator in the paper executes the same
//! two-phase loop per input symbol: *state matching* (which STEs accept
//! the symbol) followed by *state transition* (AND with the enable vector,
//! report, and compute the next enable vector). In CAMA every CAM array
//! runs that loop; a flat design is the one-array case. This crate
//! implements the loop exactly once, so that the architecture models in
//! `cama-arch` can attach energy/activity observers to a single trusted
//! engine:
//!
//! * `lane` (internal) — the stepping core: the per-stream lanes and
//!   the per-cycle kernels (byte, pair, DFA, and the non-selective pair
//!   baseline). Flat sessions step one lane of enable/active vectors;
//!   sharded sessions step one lane per shard — a determinized shard's
//!   is only its DFA state — the shard-only parts (global ids,
//!   cross-shard edges, per-state heat) passed in as a context;
//! * [`Engine`] — the one owning engine over any [`StreamPlan`]:
//!   [`Simulator`] (byte plan), [`EncodedSimulator`] (the CAM codebook
//!   the energy model charges), [`StridedSimulator`] and
//!   [`EncodedStridedSimulator`] (two bytes per cycle) and
//!   [`ShardedSimulator`] are its aliases, each adding only
//!   constructors;
//! * [`session`] — the streaming-session layer: every engine implements
//!   [`AutomataEngine`], whose [`Session`]s accept input in arbitrary
//!   chunks (`feed`) with results identical to one-shot runs.
//!   [`FlatSession`] (aliased [`ByteSession`], [`EncodedSession`],
//!   [`StridedSession`], [`EncodedStridedSession`]) serves every flat
//!   plan flavour, [`ShardedSession`] every sharded one;
//! * [`sharded`] — per-CAM-array execution with idle-shard skipping
//!   and one cross-shard exchange per cycle, generic over the plan
//!   flavour through [`ShardedExecution`];
//! * [`BatchSimulator`] — the multi-stream stream table: open/feed/close
//!   interleaved flows over one shared compiled plan, plus sequential
//!   and work-stealing whole-batch runs. Streams are the unit of
//!   multi-core execution: [`BatchSimulator::run_parallel`] runs one
//!   session per stream on [`worker_count`] threads, while a cycle's
//!   shards all step on one thread, as the hardware's arrays all match
//!   the same symbol in one cycle;
//! * [`frame`] — length-prefixed wire framing ([`FrameDecoder`]) for
//!   demuxing interleaved flows out of one buffer;
//! * [`control`] — the serving control plane over the stream table:
//!   admission verdicts, per-flow/per-tenant token-bucket rate limits
//!   with bounded deferral, QoS-aware victim policies
//!   ([`ControlledBatch`]), and a per-tenant usage ledger;
//! * [`interp::InterpSimulator`] — the pre-compilation
//!   structure-at-a-time engine, kept as the semantic baseline;
//! * [`profile`] — profile-guided shard assignment: per-state activity
//!   from a measured run ([`ShardStats::state_active`]) packed into a
//!   heat-sorted sharding that concentrates hot states and leaves cold
//!   arrays skippable;
//! * [`activity`] — the one per-cycle observer protocol
//!   ([`ShardObserver`]: per-shard views plus a cycle-end summary, a flat
//!   lane reported as shard 0) and the summary statistics the energy
//!   models consume;
//! * [`buffers`] — the 128-entry input / 64-entry output buffer
//!   interruption model of §VI.B, fed directly from run results.
//!
//! # Examples
//!
//! ```
//! use cama_core::regex;
//! use cama_sim::Simulator;
//!
//! let nfa = regex::compile("(a|b)e*cd+")?;
//! let result = Simulator::new(&nfa).run(b"xbeecddy");
//! let offsets: Vec<usize> = result.reports.iter().map(|r| r.offset).collect();
//! assert_eq!(offsets, vec![5, 6]);
//! # Ok::<(), cama_core::Error>(())
//! ```
//!
//! Streaming the same input in arbitrary chunks:
//!
//! ```
//! use cama_core::regex;
//! use cama_sim::{AutomataEngine, Session, Simulator};
//!
//! let nfa = regex::compile("(a|b)e*cd+")?;
//! let sim = Simulator::new(&nfa);
//! let mut session = sim.start();
//! for chunk in [&b"xbe"[..], b"e", b"cddy"] {
//!     session.feed(chunk);
//! }
//! assert_eq!(session.finish().report_offsets(), vec![5, 6]);
//! # Ok::<(), cama_core::Error>(())
//! ```
//!
//! Batched serving over a shared plan:
//!
//! ```
//! use cama_core::compiled::CompiledAutomaton;
//! use cama_core::regex;
//! use cama_sim::BatchSimulator;
//!
//! let nfa = regex::compile("ab+")?;
//! let plan = CompiledAutomaton::compile(&nfa);
//! let batch = BatchSimulator::new(&plan);
//! let streams: Vec<&[u8]> = vec![b"zabbz", b"ab"];
//! let per_stream = batch.run_parallel(&streams, 2);
//! assert_eq!(per_stream[0].report_offsets(), vec![2, 3]);
//! # Ok::<(), cama_core::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod activity;
pub mod batch;
pub mod buffers;
pub mod control;
pub mod encoded;
pub mod engine;
pub mod frame;
pub mod interp;
mod lane;
pub mod profile;
pub mod result;
pub mod session;
pub mod sharded;
pub mod strided;

pub use activity::{
    ActivitySummary, DfaShardCycleView, LocalSet, ShardCycleSummary, ShardCycleView, ShardObserver,
};
pub use batch::{BatchSimulator, ShardedBatch, StreamPlan, SwapReport, SwapVerdict};
pub use buffers::BufferStats;
pub use cama_core::compile::{detected_parallelism, worker_count};
pub use control::{
    Admission, ClassLruPolicy, ControlConfig, ControlledBatch, FeedVerdict, FlowSpec, LruPolicy,
    QosClass, QosPolicy, RateLimit, RejectReason, TenantId, TenantUsage, VictimCandidate,
    VictimPolicy,
};
pub use encoded::{EncodedSession, EncodedSimulator};
pub use engine::{ByteSession, Engine, FlatSession, Simulator};
pub use frame::{FrameDecoder, FrameError, FrameEvent, StreamId};
pub use interp::{InterpSession, InterpSimulator};
pub use profile::ShardingProfile;
pub use result::{Report, RunResult};
pub use session::{AutomataEngine, FlowSession, Session, SuspendedFlow};
pub use sharded::{ShardStats, ShardedExecution, ShardedSession, ShardedSimulator};
pub use strided::{
    EncodedStridedSession, EncodedStridedSimulator, StridedSession, StridedSimulator,
};
