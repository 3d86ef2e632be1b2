//! `rule_update`: live ruleset updates beside reads on one stream table.
//!
//! 2000 generated IDS-style patterns (about 2.4k components) compile
//! cold with the library defaults, `PlanCache::default()` and
//! `DfaPolicy::default()`, into a hybrid plan serving 256 open flows
//! under a residency cap of 16, so most flows are parked. The timed
//! phase is a fixed script: `--seconds` slices of reads with one-rule
//! edits, alternating in-place replacements and appends, spread evenly
//! between them. The script depends on the seed and `--seconds` only,
//! never on the host's speed, so every run of a seed does the same
//! work. An edit is text → `regex::compile_set` → warm
//! `compile_hybrid_ruleset` → `PlanRemap` → `swap_plan`; a read is one
//! 1 KiB receive buffer through `ControlledBatch::ingest` and its
//! `tick`, resuming parked flows through the lazy remap chain.
//!
//! `swap_plan(&'p P)` needs every plan version to outlive the table, so
//! each version is leaked for the rest of the run: the benchmark shows
//! that retention in `peak_rss_mb` rather than working around it.

use std::time::{Duration, Instant};

use cama_arch::{evaluate_serving, DesignKind};
use cama_core::compile::{
    compile_hybrid_ruleset, split_components, CompileReport, DfaPolicy, PlanCache, PlanRemap,
};
use cama_core::compiled::ShardedAutomaton;
use cama_core::{regex, CompiledAutomaton, Nfa, SteId};
use cama_encoding::EncodingPlan;
use cama_sim::control::{ControlConfig, ControlledBatch, FlowSpec};
use cama_sim::frame::{FrameDecoder, FrameEvent};
use cama_sim::{
    BatchSimulator, Report, RunResult, Session, ShardedSession, Simulator, StreamId, SwapReport,
};
use cama_workloads::{input, Benchmark};

use crate::gen::{self, Edit, RECV_BUFFER};
use crate::layers::{self, Samples};
use crate::report::{rss_mb, Outcome};
use crate::stats::{mean, median, percentile};
use crate::trace::{Request, Tracer};
use crate::{repeat_setup, Args};

const RULES: usize = 2000;
/// Edits in the script. Every version stays resident (see the module
/// docs), so their number is fixed rather than grown with `--seconds`.
const EDITS: usize = 4;
const FLOWS: usize = 256;
const RESIDENT_CAP: usize = 16;
/// Read bytes generated per flow; the wire wraps when exhausted.
const FLOW_LEN: usize = 2048;
/// Receive buffers per read slice. The untimed script reads one slice
/// per second of `--seconds`, about the rate this workload reads at on
/// a 2-vCPU Sapphire Rapids guest, so with the edits the script lasts
/// about `--seconds` there; the traced script reads one slice per edit.
const SLICE: usize = 10;
const PROBE_LEN: usize = 4096;
/// Matches planted per flow. Many cross a `.*` gap, so flows hold live
/// partial matches that parking, swaps and the remap chain must carry
/// for later bytes to complete.
const MATCHES: usize = 4;

fn compile_text(rules: &[String]) -> Nfa {
    let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
    regex::compile_set(&refs).expect("generated rules compile")
}

/// Flow `index` of `len` bytes for `seed`: generated background with
/// [`MATCHES`] matches of `nfa` planted in it.
fn flow(nfa: &Nfa, starts: &[SteId], len: usize, seed: u64, index: u64) -> Vec<u8> {
    let hit_rate = Benchmark::Snort.spec().input_hit_rate;
    let background_seed = gen::derive(seed, gen::stream::FLOWS, index);
    let mut flow = input::generate(nfa, len, hit_rate, background_seed);
    let mut rng = gen::rng(seed, gen::stream::MATCHES, index);
    gen::plant_matches(nfa, starts, &mut flow, MATCHES, &mut rng);
    flow
}

struct Setup {
    rules: Vec<String>,
    nfa: Nfa,
    plan: ShardedAutomaton,
    cache: PlanCache,
    wire: Vec<u8>,
    compile_s: f64,
}

fn setup(seed: u64) -> Setup {
    let rules = gen::ruleset(seed, RULES);
    let start = Instant::now();
    let nfa = compile_text(&rules);
    let mut cache = PlanCache::default();
    let (plan, _) = compile_hybrid_ruleset(&nfa, 1, &mut cache, &DfaPolicy::default());
    let compile_s = start.elapsed().as_secs_f64();
    let starts = gen::unanchored_starts(&nfa);
    let flows: Vec<Vec<u8>> = (0..FLOWS as u64)
        .map(|i| flow(&nfa, &starts, FLOW_LEN, seed, i))
        .collect();
    let events = gen::interleave(seed, 0, &[FLOW_LEN; FLOWS], false);
    let ids: Vec<StreamId> = (0..FLOWS as StreamId).collect();
    let wire = gen::encode(&events, &flows, &ids);
    Setup {
        rules,
        nfa,
        plan,
        cache,
        wire,
        compile_s,
    }
}

/// The serving state the script mutates.
struct Live {
    rules: Vec<String>,
    nfa: Nfa,
    plan: &'static ShardedAutomaton,
    cache: PlanCache,
    table: ControlledBatch<'static, ShardedAutomaton>,
    decoder: FrameDecoder,
    /// Each applied edit's old → new state map, in order.
    remaps: Vec<PlanRemap>,
}

impl Live {
    fn new(setup: Setup) -> Self {
        let plan: &'static ShardedAutomaton = Box::leak(Box::new(setup.plan));
        Live {
            rules: setup.rules,
            nfa: setup.nfa,
            plan,
            cache: setup.cache,
            table: open_table(plan),
            decoder: layers::decoder(),
            remaps: Vec::new(),
        }
    }
}

/// A table over `plan` with every flow open.
fn open_table(plan: &ShardedAutomaton) -> ControlledBatch<'_, ShardedAutomaton> {
    let mut table = ControlledBatch::new(plan, ControlConfig::new().max_resident(RESIDENT_CAP));
    for flow in 0..FLOWS as StreamId {
        let admitted = table.open(flow, FlowSpec::new(flow % 4)).is_admitted();
        assert!(admitted, "an uncapped table admits every flow");
    }
    table
}

/// What one edit did.
struct EditStats {
    latency_s: f64,
    report: CompileReport,
    hits: u64,
    misses: u64,
    evictions: u64,
    surviving: usize,
    rss_growth_mb: f64,
    swap: SwapReport,
}

/// Applies one edit live: text → NFA → warm hybrid compile → remap →
/// swap. The new plan version is leaked (see the module docs).
fn apply(live: &mut Live, edit: &Edit, mut spans: Request<'_>) -> EditStats {
    let start = Instant::now();
    edit.apply(&mut live.rules);
    let nfa = spans.time("regex.compile_set", || compile_text(&live.rules));
    let before = live.cache.cache_stats();
    let rss_before = if spans.traced() { rss_mb().0 } else { 0.0 };
    let (plan, report) = spans.time("compile.hybrid", || {
        compile_hybrid_ruleset(&nfa, 1, &mut live.cache, &DfaPolicy::default())
    });
    let rss_growth_mb = if spans.traced() {
        rss_mb().0 - rss_before
    } else {
        0.0
    };
    let after = live.cache.cache_stats();
    let remap = spans.time("compile.remap", || match edit {
        Edit::Replace { .. } => PlanRemap::between(&live.nfa, &nfa),
        Edit::Append { .. } => PlanRemap::extend_append(&live.nfa, &nfa),
    });
    let plan: &'static ShardedAutomaton = Box::leak(Box::new(plan));
    let swap = spans.time("batch.swap", || live.table.swap_plan(plan, &remap));
    let latency_s = start.elapsed().as_secs_f64();
    spans.finish();
    live.nfa = nfa;
    live.plan = plan;
    let surviving = remap.surviving();
    live.remaps.push(remap);
    EditStats {
        latency_s,
        report,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        surviving,
        rss_growth_mb,
        swap,
    }
}

/// Payload bytes `table` has admitted to the datapath so far.
fn admitted(table: &ControlledBatch<'_, ShardedAutomaton>) -> u64 {
    table.usages().map(|(_, usage)| usage.bytes_admitted).sum()
}

/// Every open flow got exactly one swap verdict.
fn verdicts_account(swap: &SwapReport, open: usize) -> bool {
    swap.flows == open
        && swap.verdicts.len() == open
        && swap.migrated + swap.displaced + swap.idle + swap.deferred == open
}

/// After the script: the warm-cache plan, a cold compile of the final
/// text and the flat engine agree on a probe input.
fn final_check(live: &Live, seed: u64, out: &mut Outcome) -> Vec<u8> {
    let starts = gen::unanchored_starts(&live.nfa);
    let probe = flow(&live.nfa, &starts, PROBE_LEN, seed, FLOWS as u64);
    let run = |plan: &ShardedAutomaton| -> Vec<Report> {
        let mut session = ShardedSession::new(plan);
        session.feed(&probe);
        session.finish().reports
    };
    let warm = run(live.plan);
    let text = compile_text(&live.rules);
    let (cold_plan, _) =
        compile_hybrid_ruleset(&text, 1, &mut PlanCache::default(), &DfaPolicy::default());
    let cold = run(&cold_plan);
    let flat = Simulator::new(&text).run(&probe).reports;
    out.check(warm == cold && cold == flat);
    probe
}

/// Simulated CAMA-E energy per byte of `probe` on the final ruleset.
fn probe_energy(live: &Live, probe: &[u8], out: &mut Outcome) -> f64 {
    let encoding = EncodingPlan::for_nfa(&live.nfa);
    let report = evaluate_serving(DesignKind::CamaE, &live.nfa, &[probe], Some(&encoding));
    let flat = Simulator::new(&live.nfa).run(probe).reports.len();
    out.check(report.reports_per_stream == [flat]);
    report.energy_per_byte_nj()
}

/// The read slice edit `edit` lands before, in a script of `slices`
/// slices: the edits cut the reads into `EDITS + 1` equal parts.
fn edit_slot(edit: usize, slices: usize) -> usize {
    (edit + 1) * slices / (EDITS + 1)
}

/// Replays the script's reads and swaps through a narrower path and
/// returns the result each flow closes with: an uncapped raw
/// `BatchSimulator` on flat plans of every ruleset version, with every
/// flow resumed before each swap, so no flow parks and every swap
/// translates eagerly instead of through the lazy remap chain.
/// `swaps_at[i]` is the number of reads before edit `i`, at most
/// `reads`.
fn reference_closes(
    rules: &[String],
    script: &[Edit],
    remaps: &[PlanRemap],
    wire: &[u8],
    reads: usize,
    swaps_at: &[usize],
    out: &mut Outcome,
) -> Vec<RunResult> {
    let mut rules = rules.to_vec();
    let mut plans = vec![CompiledAutomaton::compile(&compile_text(&rules))];
    for edit in &script[..remaps.len()] {
        edit.apply(&mut rules);
        plans.push(CompiledAutomaton::compile(&compile_text(&rules)));
    }
    let mut table = BatchSimulator::new(&plans[0]);
    for flow in 0..FLOWS as StreamId {
        table.open(flow);
    }
    let mut decoder = layers::decoder();
    let mut buffers = wire.chunks(RECV_BUFFER).cycle().take(reads);
    let mut swapped = 0;
    for read in 0..=reads {
        while swapped < remaps.len() && swaps_at[swapped] == read {
            // Resume every flow first, so the swap translates them all.
            for flow in 0..FLOWS as StreamId {
                table.feed(flow, &[]);
            }
            let swap = table.swap_plan(&plans[swapped + 1], &remaps[swapped]);
            out.check(swap.deferred == 0 && verdicts_account(&swap, FLOWS));
            swapped += 1;
        }
        let Some(buffer) = buffers.next() else {
            break;
        };
        let decoded = decoder.feed(buffer, |event| match event {
            FrameEvent::Data { stream, chunk } => table.feed(stream, chunk),
            FrameEvent::Close { stream } => {
                table.close(stream);
            }
        });
        out.check(decoded.is_ok());
    }
    (0..FLOWS as StreamId)
        .map(|flow| table.close(flow))
        .collect()
}

/// Closes every flow of the live table and checks each result, reports
/// and activity, against [`reference_closes`]; returns the number of
/// reports the flows closed with.
fn close_and_check(
    live: &mut Live,
    initial_rules: &[String],
    script: &[Edit],
    wire: &[u8],
    reads: usize,
    swaps_at: &[usize],
    out: &mut Outcome,
) -> usize {
    let served: Vec<RunResult> = (0..FLOWS as StreamId)
        .map(|flow| live.table.close(flow))
        .collect();
    let reference = reference_closes(
        initial_rules,
        script,
        &live.remaps,
        wire,
        reads,
        swaps_at,
        out,
    );
    for (served, reference) in served.iter().zip(&reference) {
        out.check(served == reference);
    }
    served.iter().map(|result| result.reports.len()).sum()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &mut out);
        return out;
    }
    let set_up = repeat_setup(|| {
        let setup = setup(args.seed);
        let compile_s = setup.compile_s;
        (setup, compile_s)
    });
    let initial_rules = set_up.state.rules.clone();
    let wire = set_up.state.wire.clone();
    let mut live = Live::new(set_up.state);
    let script = gen::edits(args.seed, RULES, EDITS);

    // The timed phase: `--seconds` slices of reads with the edits
    // spread evenly between them. Reads time their `ingest` and `tick`
    // calls only, so edit time stays out of the read figures.
    let slices = args.seconds as usize;
    let mut buffers = wire.chunks(RECV_BUFFER).cycle();
    let mut pending = script.iter().enumerate().peekable();
    let (mut reads, mut edits, mut swaps_at) = (Vec::new(), Vec::new(), Vec::new());
    let mut read_s = 0.0;
    let mut slice_rates = Vec::new();
    let (mut closed, mut backpressure) = (Vec::new(), Vec::new());
    for slice in 0..slices {
        while let Some((_, edit)) = pending.next_if(|&(e, _)| edit_slot(e, slices) <= slice) {
            swaps_at.push(reads.len());
            let stats = apply(&mut live, edit, Request::new(None, 0, "rule.edit"));
            out.check(verdicts_account(&stats.swap, live.table.open_count()));
            edits.push(stats);
        }
        let admitted_before = admitted(&live.table);
        let mut slice_s = 0.0;
        for _ in 0..SLICE {
            let buffer = buffers.next().expect("the wire cycles");
            let received = layers::receive(
                &mut live.table,
                &mut live.decoder,
                buffer,
                &mut closed,
                &mut backpressure,
            );
            reads.push(received.ingest_s);
            read_s += received.busy_s;
            slice_s += received.busy_s;
            let rejected: usize = backpressure.drain(..).map(|(_, v)| v.rejected).sum();
            out.check(received.result.is_ok() && rejected == 0);
        }
        slice_rates.push((admitted(&live.table) - admitted_before) as f64 / slice_s);
    }
    let (bytes, deferred) = live.table.usages().fold((0, 0), |(b, d), (_, u)| {
        (b + u.bytes_admitted, d + u.bytes_deferred)
    });
    let peak_rss = rss_mb().1;

    // Every read byte reached the datapath at its read, so the
    // reference may feed it at the same point relative to the swaps.
    out.check(deferred == 0);
    let reports = close_and_check(
        &mut live,
        &initial_rules,
        &script,
        &wire,
        reads.len(),
        &swaps_at,
        &mut out,
    );
    let probe = final_check(&live, args.seed, &mut out);
    let energy = probe_energy(&live, &probe, &mut out);

    let latencies: Vec<f64> = edits.iter().map(|e| e.latency_s).collect();
    let update_p50 = median(&latencies);
    let serve = median(&slice_rates);
    out.e2e("setup_s", set_up.median_s);
    out.e2e("serve_bytes_per_s", serve);
    out.e2e("request_ms", mean(&latencies) * 1e3);
    out.e2e("sim_energy_nj_per_byte", energy);
    out.e2e("peak_rss_mb", peak_rss);
    let per_edit = |f: fn(&EditStats) -> u64| {
        edits.iter().map(f).sum::<u64>() as f64 / edits.len().max(1) as f64
    };
    out.note(format!(
        "rule_update: {} rules, {} states, {} components; {} edits, {} reads; {} flows \
         closed with {} reports, each flow's reports and activity checked against the replay",
        live.rules.len(),
        live.nfa.len(),
        live.plan.num_shards(),
        edits.len(),
        reads.len(),
        FLOWS,
        reports
    ));
    out.note(format!("  compile_cold_s  {:.3} s", set_up.compile_s));
    out.note(format!("  setup_first_s   {:.3} s", set_up.first_s));
    out.note(format!("  update_p50_ms   {:.1} ms", update_p50 * 1e3));
    out.note(format!(
        "  serve_bytes_per_s {serve:.1} B/s (median over slices; {:.1} B/s over all reads); \
         read ingest p50 {:.1} us, p90 {:.1} us",
        bytes as f64 / read_s,
        median(&reads) * 1e6,
        percentile(&reads, 0.9) * 1e6
    ));
    out.note(format!(
        "  per edit: {:.0} cache misses, {:.0} evictions, {:.0} hits (plan cache capacity {})",
        per_edit(|e| e.misses),
        per_edit(|e| e.evictions),
        per_edit(|e| e.hits),
        PlanCache::<CompiledAutomaton>::DEFAULT_CAPACITY
    ));
    out
}

/// One slice of reads on a fresh table over `plan`, through `ingest`
/// or through the traced calls; returns the sample name and seconds.
fn slice_reads(plan: &ShardedAutomaton, slice: &[&[u8]], traced: bool) -> (&'static str, f64) {
    let mut table = open_table(plan);
    if traced {
        let mut tracer = Tracer::default();
        let mut decoder = layers::decoder();
        let mut closed = Vec::new();
        for (i, buffer) in slice.iter().enumerate() {
            layers::traced_ingest(
                &mut tracer,
                &mut table,
                &mut decoder,
                buffer,
                i as u64,
                &mut closed,
            );
        }
        (
            "traced",
            tracer.total_s("frame.feed") + tracer.total_s("control.tick"),
        )
    } else {
        (
            "untraced",
            layers::receive_all(&mut table, slice.iter().copied()),
        )
    }
}

/// The script's last edit again, against an uncapped plan cache: the
/// cache is warmed on the text before the edit, then the edited text is
/// compiled. Returns the seconds of `compile_set` and the hybrid
/// compile, and the cache misses.
fn uncapped_edit(before: &[String], after: &[String]) -> (f64, u64) {
    let mut cache = PlanCache::new(usize::MAX);
    let policy = DfaPolicy::default();
    let _ = compile_hybrid_ruleset(&compile_text(before), 1, &mut cache, &policy);
    let misses = cache.cache_stats().misses;
    let start = Instant::now();
    let _ = compile_hybrid_ruleset(&compile_text(after), 1, &mut cache, &policy);
    let seconds = start.elapsed().as_secs_f64();
    (seconds, cache.cache_stats().misses - misses)
}

fn traced(args: &Args, out: &mut Outcome) {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut tracer = Tracer::default();
    let setup = tracer.time("rule.setup", 0, || setup(args.seed));
    let initial_rules = setup.rules.clone();
    let wire = setup.wire.clone();
    let mut buffers = wire.chunks(RECV_BUFFER);
    let mut live = Live::new(setup);
    let script = gen::edits(args.seed, RULES, EDITS);

    // The fixed script only: every edit and the slice of reads before it.
    let mut before_last = Vec::new();
    let mut edits = Vec::new();
    let mut closed = Vec::new();
    let mut request = 0;
    let mut backpressure_feeds = 0;
    let mut parked_peak = 0;
    let mut pending_remaps = 0;
    for (index, edit) in script.iter().enumerate() {
        for _ in 0..SLICE {
            request += 1;
            let buffer = buffers.next().expect("the wire holds the script's reads");
            let fed = layers::traced_ingest(
                &mut tracer,
                &mut live.table,
                &mut live.decoder,
                buffer,
                request,
                &mut closed,
            );
            backpressure_feeds += fed.backpressure_feeds;
            out.check(fed.error.is_none() && fed.rejected_bytes == 0);
            parked_peak = parked_peak.max(live.table.parked_count());
        }
        let id = index as u64 + 1;
        before_last.clone_from(&live.rules);
        let stats = apply(
            &mut live,
            edit,
            Request::new(Some(&mut tracer), id, "rule.edit"),
        );
        out.check(verdicts_account(&stats.swap, live.table.open_count()));
        pending_remaps = pending_remaps.max(live.table.pending_remap_count());
        // A narrow re-run of the split the hybrid compile makes.
        tracer.time("compile.split", id, || split_components(&live.nfa).len());
        edits.push(stats);
    }
    let cycles = edits.len() as f64;
    let (uncapped_s, uncapped_misses) = uncapped_edit(&before_last, &live.rules);
    let usage = live.table.usages().fold([0u64; 3], |acc, (_, u)| {
        [
            acc[0] + u.bytes_deferred,
            acc[1] + u.bytes_rejected,
            acc[2] + u.flows_rejected,
        ]
    });

    // Narrow replays of the script's reads on the final plan, and the
    // tracing overhead on one slice of them (fresh tables, one read
    // through `ingest`, one through the traced calls), round robin
    // until the deadline.
    let deliveries = layers::deliveries(&wire, EDITS * SLICE);
    let read_flows = layers::delivered_flows(&wire, &deliveries, FLOWS);
    // The flows the script's reads reached; the rest were never fed.
    let flows: Vec<&[u8]> = read_flows
        .iter()
        .filter(|flow| !flow.is_empty())
        .map(Vec::as_slice)
        .collect();
    let slice: Vec<&[u8]> = wire.chunks(RECV_BUFFER).take(SLICE).collect();
    let mut sim = Simulator::new(&live.nfa);
    let mut samples = Samples::default();
    let mut first_stats = None;
    let mut repeats = 0;
    let (sharded, flat) = loop {
        let replay = |cap| layers::raw_replay(live.plan, &wire, &deliveries, cap);
        samples.push("capped", replay(Some(RESIDENT_CAP)));
        samples.push("uncapped", replay(None));
        let sharded = layers::sharded_pass(live.plan, &flows);
        samples.push("sharded", sharded.exec_s);
        let flat = layers::flat_pass(&mut sim, &flows);
        samples.push("flat", flat.exec_s);
        out.check(sharded.reports == flat.reports);
        let stats = first_stats.get_or_insert_with(|| sharded.stats.clone());
        out.check(*stats == sharded.stats);

        // Alternate which side runs first, so first-touch costs of a
        // fresh table do not land on one side only.
        for traced in [repeats % 2 == 0, repeats % 2 == 1] {
            let (name, seconds) = slice_reads(live.plan, &slice, traced);
            samples.push(name, seconds);
        }
        repeats += 1;
        if repeats >= layers::MIN_REPEATS && Instant::now() >= deadline {
            break (sharded, flat);
        }
    };
    let styles = layers::style_counts(live.plan, &flows);
    let m = |name| samples.median(name);

    let swaps_at: Vec<usize> = (1..=EDITS).map(|edit| edit * SLICE).collect();
    out.check(usage[0] == 0);
    close_and_check(
        &mut live,
        &initial_rules,
        &script,
        &wire,
        EDITS * SLICE,
        &swaps_at,
        out,
    );
    final_check(&live, args.seed, out);

    let per_edit = |f: fn(&EditStats) -> u64| edits.iter().map(f).sum::<u64>() as f64 / cycles;
    let sum = |f: fn(&EditStats) -> usize| edits.iter().map(f).sum::<usize>() as f64;
    let (hits, misses) = (per_edit(|e| e.hits), per_edit(|e| e.misses));
    let last = edits.last().expect("the script has edits");
    out.layer("frame.decode_s", tracer.self_s("frame.feed") / cycles);
    out.layer("frame.frames", deliveries.len() as f64);
    out.layer(
        "control.self_s",
        (layers::control_s(&tracer) - m("capped")) / cycles,
    );
    out.layer("control.bytes_deferred", usage[0] as f64);
    out.layer("control.bytes_rejected", usage[1] as f64);
    out.layer("control.flows_rejected", usage[2] as f64);
    out.layer("control.backpressure_feeds", backpressure_feeds as f64);
    out.layer("batch.park_s", (m("capped") - m("uncapped")) / cycles);
    out.layer("batch.table_s", (m("uncapped") - m("sharded")) / cycles);
    out.layer("batch.parked_peak", parked_peak as f64);
    out.layer("batch.swap_s", tracer.total_s("batch.swap") / cycles);
    out.layer("batch.swap_migrated", sum(|e| e.swap.migrated));
    out.layer("batch.swap_deferred", sum(|e| e.swap.deferred));
    out.layer("batch.swap_displaced", sum(|e| e.swap.displaced));
    out.layer("batch.swap_idle", sum(|e| e.swap.idle));
    out.layer("batch.pending_remaps", pending_remaps as f64);
    layers::record(out, &sharded, &styles, &flat, &samples, cycles);
    out.layer(
        "regex.compile_set_s",
        tracer.total_s("regex.compile_set") / cycles,
    );
    out.layer("regex.states", live.nfa.len() as f64);
    out.layer("compile.split_s", tracer.total_s("compile.split") / cycles);
    out.layer(
        "compile.hybrid_s",
        tracer.total_s("compile.hybrid") / cycles,
    );
    out.layer("compile.components", last.report.components as f64);
    out.layer("compile.cache_hits", hits);
    out.layer("compile.cache_misses", misses);
    out.layer("compile.cache_evictions", per_edit(|e| e.evictions));
    out.layer("compile.cache_hit_ratio", hits / (hits + misses));
    out.layer("compile.dfa_shards", live.plan.num_dfa_shards() as f64);
    out.layer("compile.remap_s", tracer.total_s("compile.remap") / cycles);
    out.layer("compile.remap_surviving", sum(|e| e.surviving) / cycles);
    out.layer(
        "compile.plan_rss_mb",
        edits.iter().map(|e| e.rss_growth_mb).sum::<f64>() / cycles,
    );
    out.layer("trace.overhead_s", m("traced") - m("untraced"));
    out.layer(
        "trace.overhead_share",
        (m("traced") - m("untraced")) / m("untraced"),
    );

    out.note(format!(
        "rule_update traced: {} edits, {repeats} repeats of the narrow passes; per-layer times \
         and cache counts are per edit (one edit and the {SLICE} reads before it)",
        edits.len()
    ));
    out.note(format!(
        "  edit {:.3} s = compile_set {:.3} + hybrid compile {:.3} + remap {:.3} + swap {:.4}",
        edits.iter().map(|e| e.latency_s).sum::<f64>() / cycles,
        tracer.total_s("regex.compile_set") / cycles,
        tracer.total_s("compile.hybrid") / cycles,
        tracer.total_s("compile.remap") / cycles,
        tracer.total_s("batch.swap") / cycles
    ));
    out.note(format!(
        "  plan cache per edit: {misses:.0} misses, {:.0} evictions, {hits:.0} hits; \
         compile report per edit: {:.0} unit misses of {} components",
        per_edit(|e| e.evictions),
        per_edit(|e| e.report.cache_misses as u64),
        last.report.components
    ));
    out.note(format!(
        "  last edit: {:.3} s text to swap, {} cache misses at the default capacity; against \
         an uncapped cache its compile_set and hybrid compile take {uncapped_s:.3} s, \
         {uncapped_misses} misses",
        last.latency_s, last.misses
    ));
    out.note(format!(
        "  reads per edit {:.4} s traced = frame {:.4} + control {:.4} + batch park {:.4} \
         + batch table {:.4} + sharded exec {:.4} (replays on the final plan)",
        (tracer.total_s("frame.feed") + tracer.total_s("control.tick")) / cycles,
        tracer.self_s("frame.feed") / cycles,
        (layers::control_s(&tracer) - m("capped")) / cycles,
        (m("capped") - m("uncapped")) / cycles,
        (m("uncapped") - m("sharded")) / cycles,
        m("sharded") / cycles
    ));
    out.tracer = Some(tracer);
}
