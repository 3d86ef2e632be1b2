//! Per-(benchmark, design) evaluation rollups — the quantities plotted
//! in Figures 10–13 and tabulated in Tables IV/V.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::area::{area_report, AreaReport};
use crate::designs::DesignKind;
use crate::energy::{all_input, EnergyBreakdown, EnergyObserver};
use crate::mapping::{map_design, map_strided, Mapping};
use crate::tenant::{TenantAccountant, TenantEnergy};
use crate::timing::timing_report;
use cama_core::compile::work_steal;
use cama_core::compiled::ShardedAutomaton;
use cama_core::stride::StridedNfa;
use cama_core::Nfa;
use cama_encoding::{EncodingPlan, StridedEncoding};
use cama_mem::models::CircuitLibrary;
use cama_sim::control::TenantId;
use cama_sim::{
    worker_count, BatchSimulator, EncodedSession, EncodedStridedSession, RunResult, Session,
    ShardObserver, ShardedExecution, Simulator, StreamId, StridedSimulator,
};

/// Everything measured for one design on one workload.
#[derive(Clone, Debug)]
pub struct DesignReport {
    /// The design.
    pub design: DesignKind,
    /// The mapping (switch/global counts for Table V).
    pub mapping: Mapping,
    /// Area decomposition (Figure 10).
    pub area: AreaReport,
    /// Energy decomposition over the simulated input (Figures 11b/12).
    pub energy: EnergyBreakdown,
    /// Operated frequency in GHz (Table IV).
    pub frequency_ghz: f64,
    /// Reports observed during simulation.
    pub reports: usize,
}

impl DesignReport {
    /// Rolls one run up: area and frequency of `design` mapped as
    /// `mapping`, with the run's energy and report count.
    fn rollup(
        design: DesignKind,
        mapping: Mapping,
        lib: &CircuitLibrary,
        energy: EnergyBreakdown,
        reports: usize,
    ) -> Self {
        DesignReport {
            design,
            area: area_report(&mapping, lib),
            energy,
            frequency_ghz: timing_report(design, lib).operated_frequency_ghz,
            reports,
            mapping,
        }
    }

    /// Throughput in Gbit/s: frequency × bits consumed per cycle.
    pub fn throughput_gbps(&self) -> f64 {
        self.frequency_ghz * 8.0 * self.design.bytes_per_cycle()
    }

    /// Compute density in Gbps/mm² (Figure 11a).
    pub fn compute_density(&self) -> f64 {
        self.throughput_gbps() / self.area.total().to_mm2()
    }

    /// Energy per input byte in nJ (Figure 11b).
    pub fn energy_per_byte_nj(&self) -> f64 {
        self.energy.per_byte(self.design).to_nanojoules()
    }

    /// Average power in watts (Figure 11c).
    pub fn power_watts(&self) -> f64 {
        self.energy.power_watts(self.frequency_ghz)
    }
}

/// Evaluates a 1-stride design on a workload.
///
/// For CAM-based designs the encoding plan is computed (or pass one in
/// with [`evaluate_with_plan`] to amortize across designs).
pub fn evaluate(design: DesignKind, nfa: &Nfa, input: &[u8]) -> DesignReport {
    let plan = design.is_cama().then(|| EncodingPlan::for_nfa(nfa));
    evaluate_with_plan(design, nfa, input, plan.as_ref())
}

/// [`evaluate`] with a precomputed encoding plan.
///
/// CAMA designs execute on the *encoded* engine: the functional run
/// streams through the plan's codebook and matches the states' actual
/// CAM entry masks — the same image the energy model charges — with the
/// observer's per-state entry weights taken from that compiled encoded
/// plan. Non-CAM designs (which match raw bit vectors in hardware too)
/// run the byte engine. Results are bit-identical either way.
///
/// # Panics
///
/// Panics if a CAMA design is evaluated without a plan.
pub fn evaluate_with_plan(
    design: DesignKind,
    nfa: &Nfa,
    input: &[u8],
    plan: Option<&EncodingPlan>,
) -> DesignReport {
    let lib = CircuitLibrary::tsmc28();
    let mapping = map_design(design, nfa, plan);
    let encoded = design.is_cama().then(|| {
        plan.expect("CAMA evaluation requires an encoding plan")
            .compile(nfa)
    });
    let mut observer = match &encoded {
        Some(compiled) => {
            EnergyObserver::for_encoded(design, &mapping, &lib, nfa, compiled.entry_weights())
        }
        None => EnergyObserver::for_nfa(design, &mapping, &lib, nfa),
    };
    let result = match &encoded {
        Some(compiled) => {
            let mut session = EncodedSession::new(compiled);
            session.feed_with(input, &mut observer);
            session.finish_with(&mut observer)
        }
        None => Simulator::new(nfa).run_with(input, &mut observer),
    };
    let energy = observer.breakdown;
    DesignReport::rollup(design, mapping, &lib, energy, result.reports.len())
}

/// Evaluates a 2-stride design (Figure 13) on a strided workload.
///
/// `weights` are the per-strided-state slot counts (CAM entries for
/// 2-stride CAMA, rectangle quads for 4-stride Impala).
///
/// 2-stride CAMA designs execute on the *encoded strided* engine: the
/// functional run routes each half of every pair through its own
/// codebook ([`StridedEncoding`]) and matches the per-half entry
/// masks. Non-CAM strided designs run the byte-pair engine. Results
/// are bit-identical either way. Energy is charged against the
/// caller's `weights` in both cases — the Figure 13 convention, which
/// keeps design columns comparable under one estimate; use
/// [`evaluate_serving`] when charges should come off the *executed*
/// encoded plan's entry weights.
pub fn evaluate_strided(
    design: DesignKind,
    strided: &StridedNfa,
    weights: Vec<u32>,
    input: &[u8],
) -> DesignReport {
    let lib = CircuitLibrary::tsmc28();
    let mapping = map_strided(design, strided, weights);
    let starts = all_input(strided.states().iter().map(|s| s.start));
    let weights = mapping.weight_of.clone();
    let mut observer = EnergyObserver::with_weights(design, &mapping, &lib, &starts, weights);
    let result = if design.is_cama() {
        let compiled = StridedEncoding::for_strided(strided).compile(strided);
        let mut session = EncodedStridedSession::new(&compiled);
        session.feed_with(input, &mut observer);
        session.finish_with(&mut observer)
    } else {
        StridedSimulator::new(strided).run_with(input, &mut observer)
    };
    let energy = observer.breakdown;
    DesignReport::rollup(design, mapping, &lib, energy, result.reports.len())
}

/// Aggregate evaluation of one design serving a *batch* of independent
/// input streams over one shared compiled plan — the multi-stream
/// serving scenario the batched engine exists for.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// The single-design rollup, with energy accumulated across every
    /// stream in the batch.
    pub design_report: DesignReport,
    /// Reports per stream, in stream order.
    pub reports_per_stream: Vec<usize>,
    /// Total input bytes across the batch.
    pub total_bytes: usize,
}

impl ServingReport {
    /// Total reports across the batch.
    pub fn total_reports(&self) -> usize {
        self.reports_per_stream.iter().sum()
    }

    /// Mean energy per input byte across the batch, in nJ.
    pub fn energy_per_byte_nj(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.design_report.energy.total().to_nanojoules() / self.total_bytes as f64
        }
    }
}

/// Evaluates a design serving many streams: compiles the automaton
/// into a [`ShardedAutomaton`] whose shards *are* the mapping's
/// partitions (one simulated CAM array per partition), then serves each
/// stream open→feed→close through one [`BatchSimulator`] stream table,
/// a single energy observer accumulating over the whole batch. Only the
/// arrays a cycle powered up are scanned.
///
/// CAMA designs run encoded shards compiled from the encoding plan's
/// codebook ([`EncodingPlan::compile_sharded`]), charged with entry
/// weights read off the executed match rows; execution is bit-identical
/// to the byte engine, so the breakdown matches it to summation order
/// (1e-9, asserted in this module's tests). 2-stride designs serve the
/// strided automaton on the strided mapper's partitions — 2-stride CAMA
/// on encoded strided shards ([`StridedEncoding::compile_sharded`]),
/// 4-stride Impala on byte-pair shards with the [`strided_weights`]
/// estimates — and ignore the 1-stride plan. Reports equal the 1-stride
/// engines' on the same streams.
///
/// # Panics
///
/// Panics if a 1-stride CAMA design is evaluated without a plan.
pub fn evaluate_serving(
    design: DesignKind,
    nfa: &Nfa,
    streams: &[&[u8]],
    plan: Option<&EncodingPlan>,
) -> ServingReport {
    serve_design(design, nfa, streams, None, plan, 1).0
}

/// [`evaluate_serving`] fanned out across `workers` OS threads (`0` =
/// auto-detect via `CAMA_WORKERS`, then available parallelism): streams
/// are claimed by work-stealing threads ([`work_steal`]), each with its
/// own stream table and energy observer, and the breakdowns are summed
/// ([`EnergyBreakdown::accumulate`]) — equal to the sequential rollup
/// to summation order (1e-9, asserted in this module's tests).
///
/// # Panics
///
/// Panics if a 1-stride CAMA design is evaluated without a plan.
pub fn evaluate_serving_parallel(
    design: DesignKind,
    nfa: &Nfa,
    streams: &[&[u8]],
    plan: Option<&EncodingPlan>,
    workers: usize,
) -> ServingReport {
    serve_design(design, nfa, streams, None, plan, workers).0
}

/// Per-tenant slices in tenant-id order (empty for untagged flows).
type Ledger = Vec<(TenantId, TenantEnergy)>;

/// One serving run's functional results, table-wide energy and ledger.
type Served = (Vec<RunResult>, EnergyBreakdown, Ledger);

/// The one serving setup behind every serving evaluator: maps `design`,
/// compiles the sharded plan whose shards are the mapping's partitions,
/// and serves the streams on it — one arm per (stride, CAM) pair. With
/// `tenants`, stream `i` is charged to `tenants[i]`.
///
/// # Panics
///
/// Panics if a 1-stride CAMA design is evaluated without a plan.
pub(crate) fn serve_design(
    design: DesignKind,
    nfa: &Nfa,
    streams: &[&[u8]],
    tenants: Option<&[TenantId]>,
    plan: Option<&EncodingPlan>,
    workers: usize,
) -> (ServingReport, Ledger) {
    let strided = (design.bytes_per_cycle() == 2.0).then(|| StridedNfa::from_nfa(nfa));
    let starts = match &strided {
        Some(strided) => all_input(strided.states().iter().map(|s| s.start)),
        None => all_input(nfa.stes().iter().map(|s| s.start)),
    };
    let serving = Serving {
        design,
        lib: CircuitLibrary::tsmc28(),
        starts,
        streams,
        tenants,
        workers,
    };
    let (mapping, (results, energy, ledger)) = match (&strided, design.is_cama()) {
        (None, true) => {
            let encoding = plan.expect("CAMA serving requires an encoding plan");
            let mapping = map_design(design, nfa, plan);
            let compiled = encoding.compile_sharded(nfa, &mapping.partition_of);
            let served = serving.serve(&compiled, &mapping, compiled.entry_weights());
            (mapping, served)
        }
        (None, false) => {
            let mapping = map_design(design, nfa, plan);
            let compiled = ShardedAutomaton::compile_with_assignment(nfa, &mapping.partition_of);
            let served = serving.serve(&compiled, &mapping, mapping.weight_of.clone());
            (mapping, served)
        }
        (Some(strided), true) => {
            let encoding = StridedEncoding::for_strided(strided);
            let mapping = map_strided(design, strided, encoding.entry_weights());
            let compiled = encoding.compile_sharded(strided, &mapping.partition_of);
            let served = serving.serve(&compiled, &mapping, compiled.entry_weights());
            (mapping, served)
        }
        (Some(strided), false) => {
            let mapping = map_strided(design, strided, strided_weights(design, strided));
            let compiled =
                ShardedAutomaton::compile_with_assignment(strided, &mapping.partition_of);
            let served = serving.serve(&compiled, &mapping, mapping.weight_of.clone());
            (mapping, served)
        }
    };

    let reports_per_stream: Vec<usize> = results.iter().map(|r| r.reports.len()).collect();
    let reports = reports_per_stream.iter().sum();
    let report = ServingReport {
        design_report: DesignReport::rollup(design, mapping, &serving.lib, energy, reports),
        reports_per_stream,
        total_bytes: streams.iter().map(|s| s.len()).sum(),
    };
    (report, ledger)
}

/// A serving run's fixed inputs: the design, its circuit library, the
/// served automaton's start flags, and the flows with their optional
/// tenant tags and worker count.
struct Serving<'a> {
    design: DesignKind,
    lib: CircuitLibrary,
    starts: Vec<bool>,
    streams: &'a [&'a [u8]],
    tenants: Option<&'a [TenantId]>,
    workers: usize,
}

impl Serving<'_> {
    /// Serves every stream on `compiled` (sharded on `mapping`'s
    /// partitions) with one energy observer per worker charging
    /// `weights` per state, wrapped in a [`TenantAccountant`] when the
    /// streams are tagged.
    fn serve<P>(
        &self,
        compiled: &ShardedAutomaton<P>,
        mapping: &Mapping,
        weights: Vec<u32>,
    ) -> Served
    where
        P: ShardedExecution + Clone + std::fmt::Debug,
    {
        let energy = || {
            let weights = weights.clone();
            EnergyObserver::with_weights(self.design, mapping, &self.lib, &self.starts, weights)
        };
        match self.tenants {
            None => self.run(compiled, energy, |_, _| {}, |o| (o.breakdown, Vec::new())),
            Some(tenants) => self.run(
                compiled,
                || TenantAccountant::new(energy()),
                |accountant, i| accountant.set_tenant(tenants[i]),
                |accountant| (accountant.total(), accountant.finish()),
            ),
        }
    }

    /// The one serving loop: every stream runs open→feed→close through
    /// a stream table on `compiled`, its observer pointed at it by
    /// `start` first, so close-side flush cycles are charged like any
    /// other. One worker serves the streams in order; more claim them by
    /// work-stealing ([`work_steal`]), each with its own table and
    /// observer. Results return in stream order, and each observer's
    /// `finish` (energy, tenant ledger) is summed into the outcome.
    fn run<P, O: ShardObserver>(
        &self,
        compiled: &ShardedAutomaton<P>,
        observer: impl Fn() -> O + Sync,
        start: impl Fn(&mut O, usize) + Sync,
        finish: impl Fn(O) -> (EnergyBreakdown, Ledger) + Sync,
    ) -> Served
    where
        P: ShardedExecution + Clone + std::fmt::Debug,
    {
        let parts = Mutex::new(Vec::new());
        let init = || (BatchSimulator::new(compiled), observer());
        let flow = |(table, observer): &mut (BatchSimulator<'_, _>, O), i: usize| {
            let id = i as StreamId;
            start(observer, i);
            table.open(id);
            table.feed_sharded_with(id, self.streams[i], observer);
            table.close_sharded_with(id, observer)
        };
        let done = |(_, observer): (_, O)| {
            let part = finish(observer);
            parts
                .lock()
                .expect("serving merge mutex poisoned")
                .push(part);
        };
        let workers = worker_count(self.workers).min(self.streams.len());
        let results = work_steal(self.streams.len(), workers, init, flow, done);

        let mut energy = EnergyBreakdown::default();
        let mut ledger: BTreeMap<TenantId, TenantEnergy> = BTreeMap::new();
        for (part, tenants) in parts.into_inner().expect("serving merge mutex poisoned") {
            energy.accumulate(&part);
            for (id, tenant) in tenants {
                ledger.entry(id).or_default().accumulate(&tenant);
            }
        }
        (results, energy, ledger.into_iter().collect())
    }
}

/// Per-strided-state weights for the Figure 13 designs: the
/// [`paired_entries`](cama_core::stride::paired_entries) of the two
/// halves' CAM entry counts for CAMA (a 64-bit entry per first/second
/// combination), of the two halves' rectangle counts for Impala.
pub fn strided_weights(design: DesignKind, strided: &StridedNfa) -> Vec<u32> {
    strided
        .states()
        .iter()
        .map(|state| {
            let (a, b) = match design {
                DesignKind::Impala4 => (
                    cama_core::bitwidth::rectangles(&state.first).len(),
                    cama_core::bitwidth::rectangles(&state.second).len(),
                ),
                _ => (entry_estimate(&state.first), entry_estimate(&state.second)),
            };
            cama_core::stride::paired_entries(a, b)
        })
        .collect()
}

/// Entry-count estimate for one half of a strided rectangle under the
/// 2-stride CAM encoding (negation-optimized class size folded through
/// suffix compression).
fn entry_estimate(class: &cama_core::SymbolClass) -> usize {
    let no = class.negation_optimized_len().max(1);
    // Suffix compression packs ~one cluster (16 symbols) per entry.
    no.div_ceil(16).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cama_workloads::Benchmark;

    #[test]
    fn headline_designs_evaluate_consistently() {
        let bench = Benchmark::Bro217;
        let nfa = bench.generate(0.2);
        let input = bench.input(&nfa, 1024, 7);
        let reports: Vec<DesignReport> = DesignKind::HEADLINE
            .iter()
            .map(|&d| evaluate(d, &nfa, &input))
            .collect();
        // Same workload, same functional outcome.
        let first = reports[0].reports;
        assert!(reports.iter().all(|r| r.reports == first));
        // CAMA-T has the highest compute density.
        let camat = reports
            .iter()
            .find(|r| r.design == DesignKind::CamaT)
            .unwrap();
        for other in &reports {
            if other.design != DesignKind::CamaT {
                assert!(
                    camat.compute_density() >= other.compute_density(),
                    "{} density {} > CAMA-T {}",
                    other.design,
                    other.compute_density(),
                    camat.compute_density()
                );
            }
        }
        // CAMA-E has the lowest energy per byte.
        let camae = reports
            .iter()
            .find(|r| r.design == DesignKind::CamaE)
            .unwrap();
        for other in &reports {
            if other.design != DesignKind::CamaE {
                assert!(camae.energy_per_byte_nj() <= other.energy_per_byte_nj());
            }
        }
    }

    #[test]
    fn serving_batch_matches_per_stream_evaluation() {
        let bench = Benchmark::Bro217;
        let nfa = bench.generate(0.1);
        let streams: Vec<Vec<u8>> = (0..6).map(|seed| bench.input(&nfa, 256, seed)).collect();
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let plan = EncodingPlan::for_nfa(&nfa);
        let serving = evaluate_serving(DesignKind::CamaE, &nfa, &refs, Some(&plan));
        assert_eq!(serving.reports_per_stream.len(), 6);
        assert_eq!(serving.total_bytes, 6 * 256);
        // Per-stream report counts match independent single-stream runs.
        for (stream, &count) in refs.iter().zip(&serving.reports_per_stream) {
            let single = evaluate_with_plan(DesignKind::CamaE, &nfa, stream, Some(&plan));
            assert_eq!(single.reports, count);
        }
        assert_eq!(serving.total_reports(), serving.design_report.reports);
        assert!(serving.energy_per_byte_nj() > 0.0);
    }

    /// The parallel serving fan-out must reproduce the sequential
    /// rollup: identical per-stream reports, and an energy breakdown
    /// equal to 1e-9 relative (only floating-point summation order
    /// differs — per-worker partials are summed at the merge).
    #[test]
    fn parallel_serving_matches_sequential_within_tolerance() {
        let bench = Benchmark::Bro217;
        let nfa = bench.generate(0.1);
        let streams: Vec<Vec<u8>> = (0..5).map(|seed| bench.input(&nfa, 256, seed)).collect();
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let plan = EncodingPlan::for_nfa(&nfa);
        let close = |a: cama_mem::Energy, b: cama_mem::Energy| {
            (a.value() - b.value()).abs() <= 1e-9 * a.value().abs().max(1.0)
        };
        for design in [
            DesignKind::CamaE,
            DesignKind::Eap,
            DesignKind::Cama2E,
            DesignKind::Impala4,
        ] {
            let plan_opt = design.is_cama().then_some(&plan);
            let sequential = evaluate_serving(design, &nfa, &refs, plan_opt);
            for workers in [1, 3] {
                let parallel = evaluate_serving_parallel(design, &nfa, &refs, plan_opt, workers);
                assert_eq!(
                    parallel.reports_per_stream, sequential.reports_per_stream,
                    "{design} with {workers} workers"
                );
                let got = parallel.design_report.energy;
                let want = sequential.design_report.energy;
                assert_eq!(got.cycles, want.cycles, "{design} with {workers} workers");
                assert!(
                    close(got.state_match, want.state_match)
                        && close(got.switch_wire, want.switch_wire)
                        && close(got.encoder, want.encoder),
                    "{design} with {workers} workers: {got:?} vs {want:?}"
                );
            }
        }
    }

    /// The acceptance bar of the encoded rethreading: `evaluate_serving`
    /// breakdowns driven by encoded-engine activity must agree with the
    /// previous byte-engine path to 1e-9 on the four reference designs
    /// (CAMA designs switch engines; non-CAM designs are unchanged).
    #[test]
    fn encoded_serving_energy_matches_byte_serving_energy() {
        use crate::mapping::map_design;
        use cama_sim::{ShardedBatch, StreamId};
        let bench = Benchmark::Bro217;
        let nfa = bench.generate(0.1);
        let streams: Vec<Vec<u8>> = (0..4).map(|seed| bench.input(&nfa, 384, seed)).collect();
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let plan = EncodingPlan::for_nfa(&nfa);
        for design in [
            DesignKind::CamaE,
            DesignKind::CamaT,
            DesignKind::CacheAutomaton,
            DesignKind::Eap,
        ] {
            let plan_opt = design.is_cama().then_some(&plan);
            let serving = evaluate_serving(design, &nfa, &refs, plan_opt);

            // The previous path: byte sharded engine + mapping weights.
            let lib = CircuitLibrary::tsmc28();
            let mapping = map_design(design, &nfa, plan_opt);
            let compiled = cama_core::compiled::ShardedAutomaton::compile_with_assignment(
                &nfa,
                &mapping.partition_of,
            );
            let mut observer = EnergyObserver::for_nfa(design, &mapping, &lib, &nfa);
            let mut batch = ShardedBatch::new(&compiled);
            let byte_results: Vec<cama_sim::RunResult> = refs
                .iter()
                .enumerate()
                .map(|(id, stream)| {
                    let id = id as StreamId;
                    batch.open(id);
                    batch.feed_sharded_with(id, stream, &mut observer);
                    batch.close(id)
                })
                .collect();

            // Identical functional results...
            assert_eq!(
                serving.reports_per_stream,
                byte_results
                    .iter()
                    .map(|r| r.reports.len())
                    .collect::<Vec<_>>(),
                "{design}"
            );
            // ...and energy equal to 1e-9 relative.
            let got = serving.design_report.energy;
            let want = observer.breakdown;
            assert_eq!(got.cycles, want.cycles, "{design}");
            let close = |a: cama_mem::Energy, b: cama_mem::Energy| {
                (a.value() - b.value()).abs() <= 1e-9 * a.value().abs().max(1.0)
            };
            assert!(
                close(got.state_match, want.state_match),
                "{design}: {got:?} vs {want:?}"
            );
            assert!(
                close(got.switch_wire, want.switch_wire),
                "{design}: {got:?} vs {want:?}"
            );
            assert!(close(got.encoder, want.encoder), "{design}");
        }
    }

    /// The acceptance bar of the strided rethreading: `evaluate_serving`
    /// on the 2-stride reference designs (encoded strided sharded
    /// engine, per-half codebooks, entry weights off the executed plan)
    /// must agree with the byte-strided sharded path — same reports,
    /// energy equal to 1e-9 — and with the 1-stride engines' reports.
    #[test]
    fn encoded_strided_serving_matches_byte_strided_serving() {
        use crate::energy::EnergyObserver;
        use cama_core::compiled::ShardedAutomaton;
        use cama_encoding::StridedEncoding;
        use cama_sim::{BatchSimulator, Simulator, StreamId};
        let bench = Benchmark::Bro217;
        let nfa = bench.generate(0.1);
        // Mixed even and odd lengths: odd streams exercise the
        // zero-padded flush pair on the serving path.
        let streams: Vec<Vec<u8>> = (0..4)
            .map(|seed| bench.input(&nfa, 256 + (seed as usize % 2), seed))
            .collect();
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let strided = StridedNfa::from_nfa(&nfa);
        for design in [DesignKind::Cama2E, DesignKind::Cama2T] {
            let serving = evaluate_serving(design, &nfa, &refs, None);

            // The byte-strided path with the same (encoding-derived)
            // weights and the same partition sharding.
            let lib = CircuitLibrary::tsmc28();
            let encoding = StridedEncoding::for_strided(&strided);
            let mapping = map_strided(design, &strided, encoding.entry_weights());
            let compiled =
                ShardedAutomaton::compile_with_assignment(&strided, &mapping.partition_of);
            let starts = all_input(strided.states().iter().map(|s| s.start));
            let mut observer = EnergyObserver::with_weights(
                design,
                &mapping,
                &lib,
                &starts,
                encoding.entry_weights(),
            );
            let mut batch = BatchSimulator::new(&compiled);
            let byte_results: Vec<cama_sim::RunResult> = refs
                .iter()
                .enumerate()
                .map(|(id, stream)| {
                    let id = id as StreamId;
                    batch.open(id);
                    batch.feed_sharded_with(id, stream, &mut observer);
                    batch.close_sharded_with(id, &mut observer)
                })
                .collect();

            // Identical functional results, also equal to the 1-stride
            // engine's per-stream reports...
            assert_eq!(
                serving.reports_per_stream,
                byte_results
                    .iter()
                    .map(|r| r.reports.len())
                    .collect::<Vec<_>>(),
                "{design}"
            );
            let mut single = Simulator::new(&nfa);
            for (stream, &count) in refs.iter().zip(&serving.reports_per_stream) {
                assert_eq!(single.run(stream).reports.len(), count, "{design}");
            }
            // ...and energy equal to 1e-9 relative.
            let got = serving.design_report.energy;
            let want = observer.breakdown;
            assert_eq!(got.cycles, want.cycles, "{design}");
            let close = |a: cama_mem::Energy, b: cama_mem::Energy| {
                (a.value() - b.value()).abs() <= 1e-9 * a.value().abs().max(1.0)
            };
            assert!(
                close(got.state_match, want.state_match),
                "{design}: {got:?} vs {want:?}"
            );
            assert!(
                close(got.switch_wire, want.switch_wire),
                "{design}: {got:?} vs {want:?}"
            );
            assert!(close(got.encoder, want.encoder), "{design}");
        }
    }

    /// 4-stride Impala serves through the byte-pair sharded engine;
    /// report counts still match the 1-stride engine.
    #[test]
    fn non_cam_strided_serving_reports_match_flat_engine() {
        use cama_sim::Simulator;
        let bench = Benchmark::Brill;
        let nfa = bench.generate(0.02);
        let streams: Vec<Vec<u8>> = (0..3).map(|seed| bench.input(&nfa, 128, seed)).collect();
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let serving = evaluate_serving(DesignKind::Impala4, &nfa, &refs, None);
        let mut single = Simulator::new(&nfa);
        for (stream, &count) in refs.iter().zip(&serving.reports_per_stream) {
            assert_eq!(single.run(stream).reports.len(), count);
        }
        assert!(serving.energy_per_byte_nj() > 0.0);
        assert_eq!(serving.design_report.design.bytes_per_cycle(), 2.0);
    }

    #[test]
    fn strided_evaluation_runs() {
        let bench = Benchmark::Brill;
        let nfa = bench.generate(0.01);
        let input = bench.input(&nfa, 512, 3);
        let strided = StridedNfa::from_nfa(&nfa);
        for design in [DesignKind::Cama2E, DesignKind::Cama2T, DesignKind::Impala4] {
            let weights = strided_weights(design, &strided);
            let report = evaluate_strided(design, &strided, weights, &input);
            assert_eq!(report.energy.cycles, 256, "{design}");
            assert_eq!(report.design.bytes_per_cycle(), 2.0);
            assert!(report.energy_per_byte_nj() > 0.0);
        }
    }

    #[test]
    fn four_stride_impala_costs_more_than_two_stride_cama() {
        let bench = Benchmark::Tcp;
        let nfa = bench.generate(0.02);
        let input = bench.input(&nfa, 1024, 4);
        let strided = StridedNfa::from_nfa(&nfa);
        let cama = evaluate_strided(
            DesignKind::Cama2E,
            &strided,
            strided_weights(DesignKind::Cama2E, &strided),
            &input,
        );
        let impala = evaluate_strided(
            DesignKind::Impala4,
            &strided,
            strided_weights(DesignKind::Impala4, &strided),
            &input,
        );
        assert!(impala.energy_per_byte_nj() > cama.energy_per_byte_nj());
    }
}
