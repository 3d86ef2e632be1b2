//! `ids_serve`: framed IDS traffic through the serving control plane.
//!
//! Wire bytes → `FrameDecoder` → `ControlledBatch` → reports, on the
//! Snort stand-in compiled by profile-guided `compile_hybrid_ruleset`.
//! One traffic *round* is 64 flows across 4 tenants and every
//! `QosClass`, with matches planted in each flow's Snort stand-in
//! input, cut into 64–1500 B frames interleaved at random and
//! delivered in 1 KiB receive buffers with one `tick` per buffer. The
//! residency cap (16) sits below the open flows, so flows park and
//! resume; one tenant exceeds its token-bucket rate, so part of its
//! bytes defer and drain. A run generates [`TRAFFIC`] such rounds from
//! its seed and serves them in turn, each on a fresh table, so a repeat
//! of a round does identical work and its counters must repeat exactly.

use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

use cama_arch::{evaluate_serving, map_design, DesignKind, EnergyObserver};
use cama_core::compile::{
    compile_hybrid_ruleset, compile_ruleset, split_components, DfaPolicy, PlanCache,
};
use cama_core::compiled::{DfaBudget, ShardedAutomaton};
use cama_core::Nfa;
use cama_encoding::EncodingPlan;
use cama_mem::models::CircuitLibrary;
use cama_sim::activity::NullObserver;
use cama_sim::control::{ControlConfig, ControlledBatch, FlowSpec, QosClass, RateLimit};
use cama_sim::{Report, Session, ShardedSession, ShardingProfile, Simulator, StreamId};
use cama_workloads::Benchmark;

use crate::gen::{self, FRAME, RECV_BUFFER};
use crate::layers::{self, Samples};
use crate::report::{rss_mb, Outcome};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{repeat_setup, Args};

const SCALE: f64 = 0.05;
const FLOWS: usize = 64;
const FLOW_LEN: RangeInclusive<usize> = 1024..=4096;
const RESIDENT_CAP: usize = 16;
const TENANTS: usize = 4;
const CLASSES: [QosClass; 4] = [
    QosClass::Background,
    QosClass::Standard,
    QosClass::Premium,
    QosClass::Realtime,
];
/// The tenant whose traffic (a quarter of the bytes, about 250 B per
/// receive buffer) exceeds its refill rate.
const LIMITED_TENANT: u32 = 3;
const LIMITED_PER_TICK: u64 = 128;
/// Bytes of the one sample flow the DFA profile is taken from.
const SAMPLE_LEN: usize = 16 * 1024;
/// Matches planted per flow, so every round's checks compare reports.
const MATCHES: usize = 4;
/// Distinct traffic rounds a timed run cycles through: the figures
/// average over 256 flows rather than resting on one round's 64.
const TRAFFIC: usize = 4;

/// One round's flows and the wire carrying them.
struct Traffic {
    flows: Vec<Vec<u8>>,
    wire: Vec<u8>,
}

/// Round `round` of `seed`'s traffic on `nfa`: Snort stand-in input
/// with [`MATCHES`] matches planted in each flow.
fn traffic(nfa: &Nfa, seed: u64, round: usize) -> Traffic {
    let starts = gen::unanchored_starts(nfa);
    let first = round * FLOWS;
    let lens: Vec<usize> = (first..first + FLOWS)
        .map(|i| gen::flow_len(seed, i, FLOW_LEN))
        .collect();
    let flows: Vec<Vec<u8>> = lens
        .iter()
        .zip(first as u64..)
        .map(|(&len, i)| {
            let mut flow =
                Benchmark::Snort.input(nfa, len, gen::derive(seed, gen::stream::FLOWS, i));
            let mut rng = gen::rng(seed, gen::stream::MATCHES, i);
            gen::plant_matches(nfa, &starts, &mut flow, MATCHES, &mut rng);
            flow
        })
        .collect();
    let events = gen::interleave(seed, round as u64, &lens, true);
    let ids: Vec<StreamId> = (0..FLOWS as StreamId).collect();
    let wire = gen::encode(&events, &flows, &ids);
    Traffic { flows, wire }
}

struct Setup {
    nfa: Nfa,
    plan: ShardedAutomaton,
    traffic: Vec<Traffic>,
    compile_s: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    plan_rss_mb: f64,
}

/// The plan and `rounds` rounds of traffic for `seed`.
fn setup(seed: u64, rounds: usize, tracer: &mut Tracer) -> Setup {
    let nfa = Benchmark::Snort.generate(SCALE);
    let sample_seed = gen::derive(seed, gen::stream::SAMPLE, 0);
    let sample = Benchmark::Snort.input(&nfa, SAMPLE_LEN, sample_seed);

    // Profile-guided hybrid compile, cold: plain plan → one sample
    // flow's per-state heat → DFA policy → hybrid plan.
    let start = Instant::now();
    let (plain, _) = compile_ruleset(&nfa, 1, &mut PlanCache::default());
    let mut profiling = ShardedSession::new(&plain);
    profiling.feed(&sample);
    let profile = ShardingProfile::from_stats(&profiling.take_stats());
    drop(profiling);
    drop(plain);
    let policy = profile.dfa_policy(DfaBudget::default(), DfaPolicy::default().memory_budget);
    let rss_before = rss_mb().0;
    let mut cache = PlanCache::default();
    let (plan, _) = tracer.time("compile.hybrid", 0, || {
        compile_hybrid_ruleset(&nfa, 1, &mut cache, &policy)
    });
    let plan_rss_mb = rss_mb().0 - rss_before;
    let stats = cache.cache_stats();
    let compile_s = start.elapsed().as_secs_f64();

    let traffic = (0..rounds)
        .map(|round| traffic(&nfa, seed, round))
        .collect();
    Setup {
        nfa,
        plan,
        traffic,
        compile_s,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        plan_rss_mb,
    }
}

fn spec(flow: usize) -> FlowSpec {
    FlowSpec::new((flow % TENANTS) as u32).with_class(CLASSES[flow / TENANTS % CLASSES.len()])
}

/// What one round did; every round must repeat round 0 exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct RoundCounts {
    bytes_admitted: u64,
    bytes_deferred: u64,
    bytes_rejected: u64,
    flows_rejected: u64,
    backpressure_feeds: u64,
    parked_peak: usize,
    reports: usize,
}

/// One traffic round's table and its checks.
struct Round<'p> {
    table: ControlledBatch<'p, ShardedAutomaton>,
    counts: RoundCounts,
}

impl<'p> Round<'p> {
    /// A fresh table for `traffic` with every flow pre-opened under its
    /// spec.
    fn open(setup: &'p Setup, traffic: &Traffic, out: &mut Outcome) -> Self {
        let config = ControlConfig::new()
            .max_resident(RESIDENT_CAP)
            .tenant_rate(
                LIMITED_TENANT,
                RateLimit::new(2 * *FRAME.end() as u64, LIMITED_PER_TICK),
            )
            // Room for every byte of a round: deferral never rejects.
            .defer_capacity(traffic.wire.len());
        let mut table = ControlledBatch::new(&setup.plan, config);
        for flow in 0..FLOWS {
            if !table.open(flow as StreamId, spec(flow)).is_admitted() {
                out.check(false);
            }
        }
        Round {
            table,
            counts: RoundCounts::default(),
        }
    }

    /// Checks flows closed by the last buffer against the reference.
    fn closed(
        &mut self,
        closed: &mut Vec<(StreamId, cama_sim::RunResult)>,
        refs: &[Vec<Report>],
        out: &mut Outcome,
    ) {
        self.counts.parked_peak = self.counts.parked_peak.max(self.table.parked_count());
        for (stream, result) in closed.drain(..) {
            out.check(refs[stream as usize] == result.reports);
            self.counts.reports += result.reports.len();
        }
    }

    /// The round's counters, with the tenant ledgers folded in.
    fn finish(mut self) -> RoundCounts {
        for (_, usage) in self.table.usages() {
            self.counts.bytes_admitted += usage.bytes_admitted;
            self.counts.bytes_deferred += usage.bytes_deferred;
            self.counts.bytes_rejected += usage.bytes_rejected;
            self.counts.flows_rejected += usage.flows_rejected;
        }
        self.counts
    }
}

/// Compares a round's counters with round 0's.
fn check_repeat(out: &mut Outcome, first: &mut Option<RoundCounts>, counts: RoundCounts) {
    match first {
        None => *first = Some(counts),
        Some(first) => {
            if *first != counts {
                out.note(format!("round counters differ: {first:?} vs {counts:?}"));
            }
            out.check(*first == counts);
        }
    }
}

/// One timed round's host times.
#[derive(Clone, Copy, Debug)]
struct RoundTime {
    /// Bytes admitted to the datapath.
    bytes: u64,
    /// Seconds spent in `ingest` and `tick`.
    busy_s: f64,
    /// Mean, median and p90 seconds of one `ingest` call.
    mean_s: f64,
    p50_s: f64,
    p90_s: f64,
}

/// The timed rounds' host times, by traffic round.
#[derive(Debug)]
struct RoundTimes(Vec<Vec<RoundTime>>);

impl RoundTimes {
    fn new() -> Self {
        RoundTimes(vec![Vec::new(); TRAFFIC])
    }

    fn push(&mut self, traffic: usize, bytes: u64, busy_s: f64, ingest_s: &[f64]) {
        self.0[traffic].push(RoundTime {
            bytes,
            busy_s,
            mean_s: mean(ingest_s),
            p50_s: median(ingest_s),
            p90_s: percentile(ingest_s, 0.9),
        });
    }

    fn all(&self) -> impl Iterator<Item = &RoundTime> {
        self.0.iter().flatten()
    }

    /// Each served traffic round's fast quartile: the lower quartile of
    /// `f` over its repeats.
    fn fast(&self, f: impl Fn(&RoundTime) -> f64) -> Vec<f64> {
        self.0
            .iter()
            .filter(|repeats| !repeats.is_empty())
            .map(|repeats| percentile(&repeats.iter().map(&f).collect::<Vec<_>>(), 0.25))
            .collect()
    }

    /// Bytes of one pass over the served traffic rounds per second of
    /// their fast-quartile times.
    fn fast_rate(&self) -> f64 {
        let bytes: u64 = self
            .0
            .iter()
            .filter_map(|r| r.first())
            .map(|r| r.bytes)
            .sum();
        bytes as f64 / self.fast(|r| r.busy_s).iter().sum::<f64>()
    }

    /// The median over every round of `f`.
    fn median(&self, f: impl Fn(&RoundTime) -> f64) -> f64 {
        median(&self.all().map(f).collect::<Vec<_>>())
    }
}

/// Flat-engine reports of every flow: the correctness reference.
fn references(setup: &Setup, traffic: &Traffic) -> Vec<Vec<Report>> {
    let flows: Vec<&[u8]> = traffic.flows.iter().map(Vec::as_slice).collect();
    layers::flat_pass(&mut Simulator::new(&setup.nfa), &flows).reports
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &mut out);
        return out;
    }
    let set_up = repeat_setup(|| {
        let setup = setup(args.seed, TRAFFIC, &mut Tracer::default());
        let compile_s = setup.compile_s;
        (setup, compile_s)
    });
    let setup = set_up.state;
    let refs: Vec<_> = setup
        .traffic
        .iter()
        .map(|traffic| references(&setup, traffic))
        .collect();

    // Timed phase: whole rounds back to back until the deadline, the
    // traffic rounds in turn, so each is served several times. A round's
    // time is the seconds spent in `ingest` and `tick`. The work of a
    // repeat is identical, so the spread of its repeats measures the
    // shared host's contention; the figures take each traffic round's
    // lower quartile, which stays put when slow spells cover up to
    // three quarters of a run and is not set by one lucky repeat.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut times = RoundTimes::new();
    let mut first = vec![None; TRAFFIC];
    let mut latencies = Vec::new();
    let (mut closed, mut backpressure) = (Vec::new(), Vec::new());
    for index in (0..TRAFFIC).cycle() {
        if times.all().next().is_some() && Instant::now() >= deadline {
            break;
        }
        let traffic = &setup.traffic[index];
        let mut round = Round::open(&setup, traffic, &mut out);
        let mut decoder = layers::decoder();
        let mut busy_s = 0.0;
        latencies.clear();
        for buffer in traffic.wire.chunks(RECV_BUFFER) {
            let received = layers::receive(
                &mut round.table,
                &mut decoder,
                buffer,
                &mut closed,
                &mut backpressure,
            );
            latencies.push(received.ingest_s);
            busy_s += received.busy_s;
            if received.result.is_err() {
                out.check(false);
                decoder.reset();
            }
            round.counts.backpressure_feeds += backpressure.len() as u64;
            for (_, verdict) in backpressure.drain(..) {
                if verdict.rejected > 0 {
                    out.check(false);
                }
            }
            round.closed(&mut closed, &refs[index], &mut out);
        }
        let counts = round.finish();
        times.push(index, counts.bytes_admitted, busy_s, &latencies);
        check_repeat(&mut out, &mut first[index], counts);
    }
    let peak_rss = rss_mb().1;

    // Simulated CAMA-E energy of every traffic round's flows (untimed).
    let encoding = EncodingPlan::for_nfa(&setup.nfa);
    let flows: Vec<&[u8]> = setup
        .traffic
        .iter()
        .flat_map(|traffic| traffic.flows.iter().map(Vec::as_slice))
        .collect();
    let energy = evaluate_serving(DesignKind::CamaE, &setup.nfa, &flows, Some(&encoding));
    let expected: Vec<usize> = refs.iter().flatten().map(Vec::len).collect();
    out.check(energy.reports_per_stream == expected);

    let served: Vec<RoundCounts> = first.into_iter().flatten().collect();
    let per_served =
        |f: fn(&RoundCounts) -> u64| served.iter().map(f).sum::<u64>() as f64 / served.len() as f64;
    let serve = times.fast_rate();
    let request_s = mean(&times.fast(|r| r.mean_s));
    out.e2e("setup_s", set_up.median_s);
    out.e2e("serve_bytes_per_s", serve);
    out.e2e("request_ms", request_s * 1e3);
    out.e2e("sim_energy_nj_per_byte", energy.energy_per_byte_nj());
    out.e2e("peak_rss_mb", peak_rss);
    out.note(format!(
        "ids_serve: {} states, {} shards ({} DFA); {} rounds of {FLOWS} flows over {} traffic \
         rounds of {:.0} wire B on average",
        setup.nfa.len(),
        setup.plan.num_shards(),
        setup.plan.num_dfa_shards(),
        times.all().count(),
        served.len(),
        setup.traffic.iter().map(|t| t.wire.len()).sum::<usize>() as f64 / TRAFFIC as f64,
    ));
    out.note(format!(
        "  fast quartile: {serve:.1} B/s, ingest mean {:.1} us, p50 {:.1} us, p90 {:.1} us",
        request_s * 1e6,
        mean(&times.fast(|r| r.p50_s)) * 1e6,
        mean(&times.fast(|r| r.p90_s)) * 1e6,
    ));
    out.note(format!(
        "  median round: {:.1} B/s, ingest mean {:.1} us, p50 {:.1} us, p90 {:.1} us",
        times.median(|r| r.bytes as f64 / r.busy_s),
        times.median(|r| r.mean_s) * 1e6,
        times.median(|r| r.p50_s) * 1e6,
        times.median(|r| r.p90_s) * 1e6,
    ));
    let rates: Vec<String> = times
        .all()
        .map(|r| format!("{:.0}", r.bytes as f64 / r.busy_s))
        .collect();
    out.note(format!("  round B/s by traffic round: {}", rates.join(" ")));
    out.note(format!(
        "  compile_cold_s     {:.3} s (profile-guided, in setup_s)",
        set_up.compile_s
    ));
    out.note(format!("  setup_first_s      {:.3} s", set_up.first_s));
    out.note(format!(
        "  per traffic round: {:.0} B deferred and drained, {:.0} B rejected, parked peak {}, \
         {:.1} reports",
        per_served(|c| c.bytes_deferred),
        per_served(|c| c.bytes_rejected),
        served.iter().map(|c| c.parked_peak).max().unwrap_or(0),
        per_served(|c| c.reports as u64)
    ));
    out
}

/// One round through the same calls `ingest` makes, each in a span.
fn traced_round(
    setup: &Setup,
    traffic: &Traffic,
    refs: &[Vec<Report>],
    tracer: &mut Tracer,
    request: &mut u64,
    out: &mut Outcome,
) -> RoundCounts {
    let mut round = Round::open(setup, traffic, out);
    let mut decoder = layers::decoder();
    let mut closed = Vec::new();
    for buffer in traffic.wire.chunks(RECV_BUFFER) {
        *request += 1;
        let fed = layers::traced_ingest(
            tracer,
            &mut round.table,
            &mut decoder,
            buffer,
            *request,
            &mut closed,
        );
        round.counts.backpressure_feeds += fed.backpressure_feeds;
        if fed.error.is_some() || fed.rejected_bytes > 0 {
            out.check(false);
            decoder.reset();
        }
        round.closed(&mut closed, refs, out);
    }
    round.finish()
}

/// One round through `ingest`, untraced: the tracing-overhead baseline.
fn untraced_round(setup: &Setup, traffic: &Traffic) -> f64 {
    let mut round = Round::open(setup, traffic, &mut Outcome::default());
    layers::receive_all(&mut round.table, traffic.wire.chunks(RECV_BUFFER))
}

fn traced(args: &Args, out: &mut Outcome) {
    let mut tracer = Tracer::default();
    // One traffic round: the traced passes all repeat it.
    let setup = setup(args.seed, 1, &mut tracer);
    let traffic = &setup.traffic[0];
    // A narrow re-run of the split the hybrid compile makes internally.
    let components = tracer.time("compile.split", 0, || split_components(&setup.nfa).len());
    let deliveries = layers::deliveries(&traffic.wire, traffic.wire.len().div_ceil(RECV_BUFFER));
    let refs = references(&setup, traffic);
    let flows: Vec<&[u8]> = traffic.flows.iter().map(Vec::as_slice).collect();
    let mut sim = Simulator::new(&setup.nfa);
    let lib = CircuitLibrary::tsmc28();
    let encoding = tracer.time("encoding.plan", 0, || EncodingPlan::for_nfa(&setup.nfa));

    // Every pass on the same round, round robin until the deadline; a
    // layer's time is a difference between the passes' medians.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut samples = Samples::default();
    let mut request = 0;
    let mut first = None;
    let mut first_stats = None;
    let mut partitions;
    let mut repeats = 0;
    let (sharded, flat) = loop {
        // Alternate which of the traced and untraced rounds runs first.
        if repeats % 2 == 1 {
            samples.push("untraced", untraced_round(&setup, traffic));
        }
        let before = (
            tracer.self_s("frame.feed"),
            layers::control_s(&tracer),
            ingest_s(&tracer),
        );
        let counts = traced_round(&setup, traffic, &refs, &mut tracer, &mut request, out);
        check_repeat(out, &mut first, counts);
        samples.push("frame", tracer.self_s("frame.feed") - before.0);
        samples.push("control", layers::control_s(&tracer) - before.1);
        samples.push("traced", ingest_s(&tracer) - before.2);
        if repeats % 2 == 0 {
            samples.push("untraced", untraced_round(&setup, traffic));
        }
        let replay = |cap| layers::raw_replay(&setup.plan, &traffic.wire, &deliveries, cap);
        samples.push("capped", replay(Some(RESIDENT_CAP)));
        samples.push("uncapped", replay(None));
        let sharded = layers::sharded_pass(&setup.plan, &flows);
        samples.push("sharded", sharded.exec_s);
        let flat = layers::flat_pass(&mut sim, &flows);
        samples.push("flat", flat.exec_s);
        out.check(sharded.reports == refs);
        let stats = first_stats.get_or_insert_with(|| sharded.stats.clone());
        out.check(*stats == sharded.stats);

        // The CAMA-E evaluation of the same flows: the calls
        // `evaluate_serving` makes, one at a time.
        let request = repeats as u64;
        let begin = Instant::now();
        let mapping = tracer.time("arch.map", request, || {
            map_design(DesignKind::CamaE, &setup.nfa, Some(&encoding))
        });
        samples.push("map", begin.elapsed().as_secs_f64());
        let begin = Instant::now();
        let compiled = tracer.time("encoding.compile_sharded", request, || {
            encoding.compile_sharded(&setup.nfa, &mapping.partition_of)
        });
        samples.push("compile", begin.elapsed().as_secs_f64());
        let weights = compiled.entry_weights();
        let mut energy =
            EnergyObserver::for_encoded(DesignKind::CamaE, &mapping, &lib, &setup.nfa, weights);
        let (observed, energy_s) = layers::observed_pass(&compiled, &flows, &mut energy);
        samples.push("energy", energy_s);
        samples.push(
            "null",
            layers::observed_pass(&compiled, &flows, &mut NullObserver).1,
        );
        out.check(observed == refs);
        partitions = mapping.partitions.len();

        repeats += 1;
        if repeats >= layers::MIN_REPEATS && Instant::now() >= deadline {
            break (sharded, flat);
        }
    };
    let counts = first.expect("rounds ran");
    let styles = layers::style_counts(&setup.plan, &flows);
    let m = |name| samples.median(name);

    out.layer("frame.decode_s", m("frame"));
    out.layer("frame.frames", deliveries.len() as f64);
    out.layer("control.self_s", m("control") - m("capped"));
    out.layer("control.bytes_deferred", counts.bytes_deferred as f64);
    out.layer("control.bytes_rejected", counts.bytes_rejected as f64);
    out.layer("control.flows_rejected", counts.flows_rejected as f64);
    out.layer(
        "control.backpressure_feeds",
        counts.backpressure_feeds as f64,
    );
    out.layer("batch.park_s", m("capped") - m("uncapped"));
    out.layer("batch.table_s", m("uncapped") - m("sharded"));
    out.layer("batch.parked_peak", counts.parked_peak as f64);
    layers::record(out, &sharded, &styles, &flat, &samples, 1.0);
    out.layer("compile.split_s", tracer.total_s("compile.split"));
    out.layer("compile.hybrid_s", tracer.total_s("compile.hybrid"));
    out.layer("compile.components", components as f64);
    out.layer("compile.cache_hits", setup.cache_hits as f64);
    out.layer("compile.cache_misses", setup.cache_misses as f64);
    out.layer("compile.cache_evictions", setup.cache_evictions as f64);
    out.layer(
        "compile.cache_hit_ratio",
        layers::ratio(setup.cache_hits, setup.cache_hits + setup.cache_misses),
    );
    out.layer("compile.dfa_shards", setup.plan.num_dfa_shards() as f64);
    out.layer("compile.plan_rss_mb", setup.plan_rss_mb);
    out.layer("encoding.plan_s", tracer.total_s("encoding.plan"));
    out.layer("encoding.compile_sharded_s", m("compile"));
    out.layer("encoding.code_len", encoding.code_len() as f64);
    out.layer("encoding.entries", encoding.total_entries() as f64);
    out.layer("arch.map_s", m("map"));
    out.layer("arch.observer_s", m("energy") - m("null"));
    out.layer("arch.partitions", partitions as f64);
    out.layer("trace.overhead_s", m("traced") - m("untraced"));
    out.layer(
        "trace.overhead_share",
        (m("traced") - m("untraced")) / m("untraced"),
    );

    out.note(format!(
        "ids_serve traced: {repeats} repeats of every pass; per-layer times are medians \
         per round of {FLOWS} flows"
    ));
    out.note(format!(
        "  ingest+tick {:.4} s (untraced {:.4}) = frame {:.4} + control {:.4} + batch park {:.4} \
         + batch table {:.4} + sharded exec {:.4}; flat engine on the same flows {:.4}",
        m("traced"),
        m("untraced"),
        m("frame"),
        m("control") - m("capped"),
        m("capped") - m("uncapped"),
        m("uncapped") - m("sharded"),
        m("sharded"),
        m("flat")
    ));
    out.note(format!(
        "  CAMA-E evaluation of the round: map {:.4} + encoded compile {:.4} + serve with the \
         energy observer {:.4} (observer {:.4})",
        m("map"),
        m("compile"),
        m("energy"),
        m("energy") - m("null")
    ));
    out.tracer = Some(tracer);
}

/// Seconds in the spans `ingest` and `tick` cover.
fn ingest_s(tracer: &Tracer) -> f64 {
    tracer.total_s("frame.feed") + tracer.total_s("control.tick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_take_each_traffic_rounds_fast_quartile() {
        let mut times = RoundTimes::new();
        for busy_s in [2.0, 1.0, 5.0] {
            times.push(0, 100, busy_s, &[busy_s / 4.0, busy_s * 3.0 / 4.0]);
        }
        times.push(1, 300, 3.0, &[1.0]);
        // Traffic round 0's repeats took 1, 2 and 5 s: its lower
        // quartile is 1.5 s. Round 1 took 3 s once; round 2 was never
        // served and counts for nothing.
        assert_eq!(times.fast(|r| r.busy_s), [1.5, 3.0]);
        assert_eq!(times.fast_rate(), 400.0 / 4.5);
        assert_eq!(times.fast(|r| r.mean_s), [0.75, 1.0]);
        assert_eq!(times.median(|r| r.busy_s), 2.5);
    }
}
