//! Narrow passes shared by the workloads: the same flows re-run through
//! narrower public entry points, so a layer's cost is the difference
//! between two passes and its counters come from the narrow engine.

use std::ops::Range;
use std::time::Instant;

use cama_core::compiled::ShardedAutomaton;
use cama_sim::control::{ControlledBatch, FeedVerdict, VictimPolicy};
use cama_sim::frame::{FrameDecoder, FrameError, FrameEvent};
use cama_sim::{
    ActivitySummary, BatchSimulator, DfaShardCycleView, Report, RunResult, Session,
    ShardCycleSummary, ShardCycleView, ShardObserver, ShardStats, ShardedExecution, ShardedSession,
    Simulator, StreamId, StreamPlan,
};

use crate::gen::{FRAME, RECV_BUFFER};
use crate::report::Outcome;
use crate::trace::Tracer;

/// One event the decoder delivers from the receive buffers: a data
/// fragment (a range of the wire) or a close.
#[derive(Clone, Debug)]
pub enum Delivery {
    Data {
        stream: StreamId,
        range: Range<usize>,
    },
    Close {
        stream: StreamId,
    },
}

/// A decoder guarding payloads at the generated frame size.
pub fn decoder() -> FrameDecoder {
    FrameDecoder::with_max_payload(*FRAME.end() as u32)
}

/// Decodes the first `buffers` receive buffers of `wire`, read round
/// and round, recording what the decoder delivers: the events a narrow
/// replay feeds.
pub fn deliveries(wire: &[u8], buffers: usize) -> Vec<Delivery> {
    let base = wire.as_ptr() as usize;
    let mut decoder = decoder();
    let mut out = Vec::new();
    for buffer in wire.chunks(RECV_BUFFER).cycle().take(buffers) {
        decoder
            .feed(buffer, |event| match event {
                FrameEvent::Data { stream, chunk } => {
                    let at = chunk.as_ptr() as usize - base;
                    out.push(Delivery::Data {
                        stream,
                        range: at..at + chunk.len(),
                    });
                }
                FrameEvent::Close { stream } => out.push(Delivery::Close { stream }),
            })
            .expect("generated wire is well formed");
    }
    out
}

/// Each stream's delivered bytes, concatenated in delivery order, for
/// streams `0..streams`.
pub fn delivered_flows(wire: &[u8], deliveries: &[Delivery], streams: usize) -> Vec<Vec<u8>> {
    let mut flows = vec![Vec::new(); streams];
    for delivery in deliveries {
        if let Delivery::Data { stream, range } = delivery {
            flows[*stream as usize].extend_from_slice(&wire[range.clone()]);
        }
    }
    flows
}

/// Replays `deliveries` through a raw stream table on `plan` (capped
/// at `cap` resident sessions, if given) and returns the seconds.
/// Streams the deliveries leave open are closed at the end, inside the
/// timing, as the bare passes finish every flow they feed.
pub fn raw_replay<P: StreamPlan>(
    plan: &P,
    wire: &[u8],
    deliveries: &[Delivery],
    cap: Option<usize>,
) -> f64 {
    let mut left_open = std::collections::BTreeSet::new();
    for delivery in deliveries {
        match delivery {
            Delivery::Data { stream, .. } => left_open.insert(*stream),
            Delivery::Close { stream } => left_open.remove(stream),
        };
    }
    let mut table = BatchSimulator::new(plan);
    if let Some(cap) = cap {
        table = table.max_resident(cap);
    }
    let start = Instant::now();
    for delivery in deliveries {
        match delivery {
            Delivery::Data { stream, range } => table.feed(*stream, &wire[range.clone()]),
            Delivery::Close { stream } => {
                table.close(*stream);
            }
        }
    }
    for &stream in &left_open {
        table.close(stream);
    }
    start.elapsed().as_secs_f64()
}

/// What one receive buffer did, taken through [`receive`].
#[derive(Debug)]
pub struct Received {
    pub result: Result<(), FrameError>,
    /// Seconds of the `ingest` call.
    pub ingest_s: f64,
    /// Seconds of `ingest` and the buffer's `tick`.
    pub busy_s: f64,
}

/// One receive buffer the way a server takes it: `ingest`, then the
/// buffer's `tick`. Closed flows and backpressure verdicts are appended
/// to `closed` and `backpressure`.
pub fn receive<P: StreamPlan, V: VictimPolicy>(
    table: &mut ControlledBatch<'_, P, V>,
    decoder: &mut FrameDecoder,
    buffer: &[u8],
    closed: &mut Vec<(StreamId, RunResult)>,
    backpressure: &mut Vec<(StreamId, FeedVerdict)>,
) -> Received {
    let begin = Instant::now();
    let result = table.ingest(decoder, buffer, closed, backpressure);
    let ingest_s = begin.elapsed().as_secs_f64();
    table.tick();
    Received {
        result,
        ingest_s,
        busy_s: begin.elapsed().as_secs_f64(),
    }
}

/// Every buffer through [`receive`] on `table` with a fresh decoder,
/// dropping what they return; the untraced side of the tracing
/// overhead. Returns the seconds spent in `ingest` and `tick`.
pub fn receive_all<'b, P: StreamPlan, V: VictimPolicy>(
    table: &mut ControlledBatch<'_, P, V>,
    buffers: impl IntoIterator<Item = &'b [u8]>,
) -> f64 {
    let mut decoder = decoder();
    let (mut closed, mut backpressure) = (Vec::new(), Vec::new());
    let mut busy_s = 0.0;
    for buffer in buffers {
        busy_s += receive(table, &mut decoder, buffer, &mut closed, &mut backpressure).busy_s;
        closed.clear();
        backpressure.clear();
    }
    busy_s
}

/// What one traced receive buffer did.
#[derive(Debug, Default)]
pub struct Ingested {
    pub backpressure_feeds: u64,
    pub rejected_bytes: u64,
    pub error: Option<FrameError>,
}

/// One receive buffer through the calls `ControlledBatch::ingest`
/// makes, made here so each gets a span: `frame.feed` around the
/// decoder, `control.feed` / `control.close` for each event it
/// delivers, then `control.tick` for the buffer's tick.
pub fn traced_ingest<P: StreamPlan, V: VictimPolicy>(
    tracer: &mut Tracer,
    table: &mut ControlledBatch<'_, P, V>,
    decoder: &mut FrameDecoder,
    buffer: &[u8],
    request: u64,
    closed: &mut Vec<(StreamId, RunResult)>,
) -> Ingested {
    let mut fed = Ingested::default();
    let root = tracer.start("frame.feed", request, None);
    let result = decoder.feed(buffer, |event| match event {
        FrameEvent::Data { stream, chunk } => {
            let span = tracer.start("control.feed", request, Some(root));
            let verdict = table.feed(stream, chunk);
            tracer.end(span);
            if verdict.backpressure() {
                fed.backpressure_feeds += 1;
                fed.rejected_bytes += verdict.rejected as u64;
            }
        }
        FrameEvent::Close { stream } => {
            let span = tracer.start("control.close", request, Some(root));
            let result = table.close(stream);
            tracer.end(span);
            closed.push((stream, result));
        }
    });
    tracer.end(root);
    let span = tracer.start("control.tick", request, None);
    table.tick();
    tracer.end(span);
    fed.error = result.err();
    fed
}

/// Host seconds the control plane spent in traced spans.
pub fn control_s(tracer: &Tracer) -> f64 {
    tracer.total_s("control.feed")
        + tracer.total_s("control.close")
        + tracer.total_s("control.tick")
}

/// Serves every flow through a fresh stream table on `plan` the way
/// `evaluate_serving` does — open, feed, close — with `observer` seeing
/// every shard-cycle; returns the reports and the seconds.
pub fn observed_pass<P>(
    plan: &ShardedAutomaton<P>,
    flows: &[&[u8]],
    observer: &mut impl ShardObserver,
) -> (Vec<Vec<Report>>, f64)
where
    P: ShardedExecution + Clone + std::fmt::Debug,
{
    let mut table = BatchSimulator::new(plan);
    let start = Instant::now();
    let reports = flows
        .iter()
        .enumerate()
        .map(|(id, flow)| {
            let id = id as StreamId;
            table.open(id);
            table.feed_sharded_with(id, flow, observer);
            table.close_sharded_with(id, observer).reports
        })
        .collect();
    (reports, start.elapsed().as_secs_f64())
}

/// Counts visited shard-cycles by execution style.
#[derive(Debug, Default)]
pub struct StyleCounts {
    pub nfa: u64,
    pub dfa: u64,
}

impl ShardObserver for StyleCounts {
    fn on_shard_cycle(&mut self, _view: &ShardCycleView<'_>) {
        self.nfa += 1;
    }

    fn on_dfa_shard_cycle(&mut self, _view: &DfaShardCycleView<'_>) {
        self.dfa += 1;
    }

    fn on_cycle_end(&mut self, _summary: &ShardCycleSummary) {}
}

/// Each flow fed whole through one bare [`ShardedSession`].
#[derive(Debug)]
pub struct ShardedPass {
    pub exec_s: f64,
    pub bytes: u64,
    pub stats: ShardStats,
    pub reports: Vec<Vec<Report>>,
}

/// Feeds every flow contiguously through a bare session on `plan`, with
/// no observer.
pub fn sharded_pass<P>(plan: &ShardedAutomaton<P>, flows: &[&[u8]]) -> ShardedPass
where
    P: ShardedExecution + Clone + std::fmt::Debug,
{
    let mut session = ShardedSession::new(plan);
    let start = Instant::now();
    let reports = flows
        .iter()
        .map(|flow| {
            session.feed(flow);
            session.finish().reports
        })
        .collect();
    let exec_s = start.elapsed().as_secs_f64();
    ShardedPass {
        exec_s,
        bytes: flows.iter().map(|f| f.len() as u64).sum(),
        stats: session.take_stats(),
        reports,
    }
}

/// The DFA/NFA split of the same pass, from a counting observer.
pub fn style_counts<P>(plan: &ShardedAutomaton<P>, flows: &[&[u8]]) -> StyleCounts
where
    P: ShardedExecution + Clone + std::fmt::Debug,
{
    let mut session = ShardedSession::new(plan);
    let mut styles = StyleCounts::default();
    for flow in flows {
        session.feed_sharded_with(flow, &mut styles);
        session.finish_sharded_with(&mut styles);
    }
    styles
}

/// Host-time samples of repeated passes, by name.
#[derive(Debug, Default)]
pub struct Samples(std::collections::BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, seconds: f64) {
        self.0.entry(name).or_default().push(seconds);
    }

    /// The median sample of `name`.
    pub fn median(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(f64::NAN, |s| crate::stats::median(s))
    }
}

/// Passes repeat round robin for at least this many rounds, so a
/// layer's time is a difference of medians rather than of two single
/// samples of a noisy host.
pub const MIN_REPEATS: usize = 3;

/// Each flow run through the flat [`Simulator`] — the correctness
/// reference and the no-sharding baseline.
#[derive(Debug)]
pub struct FlatPass {
    pub exec_s: f64,
    pub activity: ActivitySummary,
    pub reports: Vec<Vec<Report>>,
}

/// Runs every flow through `sim`.
pub fn flat_pass(sim: &mut Simulator, flows: &[&[u8]]) -> FlatPass {
    let mut activity = ActivitySummary::default();
    let start = Instant::now();
    let results: Vec<_> = flows.iter().map(|flow| sim.run(flow)).collect();
    let exec_s = start.elapsed().as_secs_f64();
    for result in &results {
        activity.cycles += result.activity.cycles;
        activity.total_active += result.activity.total_active;
        activity.total_reports += result.activity.total_reports;
    }
    FlatPass {
        exec_s,
        activity,
        reports: results.into_iter().map(|r| r.reports).collect(),
    }
}

/// Records the sharded and flat passes' per-layer metrics: counters
/// from the passes, times from the medians of `samples` (`sharded` and
/// `flat`), divided by `units`, the workload units a pass covers.
pub fn record(
    out: &mut Outcome,
    sharded: &ShardedPass,
    styles: &StyleCounts,
    flat: &FlatPass,
    samples: &Samples,
    units: f64,
) {
    let stats = &sharded.stats;
    let visited = stats.visited_shard_cycles();
    let skipped = stats.skipped_shard_cycles;
    out.layer("sharded.exec_s", samples.median("sharded") / units);
    out.layer("sharded.visited_shard_cycles", visited as f64);
    out.layer("sharded.skipped_shard_cycles", skipped as f64);
    out.layer("sharded.skip_ratio", ratio(skipped, visited + skipped));
    out.layer("sharded.words_visited", stats.words_visited as f64);
    out.layer(
        "sharded.words_per_byte",
        ratio(stats.words_visited, sharded.bytes),
    );
    out.layer("sharded.cross_activations", stats.cross_activations as f64);
    out.layer("sharded.dfa_shard_cycles", styles.dfa as f64);
    out.layer(
        "sharded.dfa_cycle_share",
        ratio(styles.dfa, styles.dfa + styles.nfa),
    );
    out.layer("engine.flat_exec_s", samples.median("flat") / units);
    out.layer("sim.cycles", flat.activity.cycles as f64);
    out.layer("sim.active_per_cycle", flat.activity.avg_active());
    out.layer("sim.reports", flat.activity.total_reports as f64);
}

/// `part / whole`, 0 for an empty whole.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
