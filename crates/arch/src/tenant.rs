//! Per-tenant accounting over the energy model: the demuxing observer
//! that turns the table-wide [`EnergyObserver`] breakdown into
//! per-tenant reportable quantities, and the serving rollup wired
//! through the same engines as
//! [`evaluate_serving`](crate::report::evaluate_serving).
//!
//! The serving control plane (`cama_sim::control`) meters *bytes* per
//! tenant; this module meters the architectural quantities — energy,
//! visited words, active states, reports — by snapshot-delta over one
//! shared [`EnergyObserver`]: before each flow runs, the accountant is
//! pointed at the flow's tenant ([`set_tenant`]); every cycle's
//! increment of the inner breakdown is attributed to that tenant. Each
//! joule is attributed exactly once, so per-tenant totals sum to the
//! table-wide breakdown (to floating-point summation order; the tests
//! assert 1e-9 relative).
//!
//! [`set_tenant`]: TenantAccountant::set_tenant
//!
//! # Examples
//!
//! ```
//! use cama_arch::designs::DesignKind;
//! use cama_arch::tenant::evaluate_serving_by_tenant;
//! use cama_core::regex;
//! use cama_encoding::EncodingPlan;
//!
//! let nfa = regex::compile("ab+c")?;
//! let plan = EncodingPlan::for_nfa(&nfa);
//! let flows: Vec<(u32, &[u8])> = vec![(7, b"zabbc"), (9, b"abc"), (7, b"xx")];
//! let report = evaluate_serving_by_tenant(DesignKind::CamaE, &nfa, &flows, Some(&plan));
//! assert_eq!(report.tenants.len(), 2);
//! let t7 = report.energy_of(7);
//! assert_eq!(t7.energy.cycles, 7); // "zabbc" + "xx"
//! assert_eq!(t7.reports, 1);
//! # Ok::<(), cama_core::Error>(())
//! ```

use std::collections::BTreeMap;

use crate::designs::DesignKind;
use crate::energy::{EnergyBreakdown, EnergyObserver};
use crate::report::{serve_design, ServingReport};
use cama_core::Nfa;
use cama_encoding::EncodingPlan;
use cama_sim::control::TenantId;
use cama_sim::{LocalSet, ShardCycleSummary, ShardCycleView, ShardObserver};

/// One tenant's slice of a serving run's architectural activity.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenantEnergy {
    /// Energy (and cycles) attributed to this tenant's flows.
    pub energy: EnergyBreakdown,
    /// Reports emitted by this tenant's flows.
    pub reports: u64,
    /// 64-state words holding at least one active state, summed over
    /// this tenant's cycles — the visited-words signal at the
    /// observation layer (the engine-side `ShardStats` counterpart).
    pub active_words: u64,
    /// Active states summed over this tenant's cycles.
    pub active_states: u64,
}

impl TenantEnergy {
    fn fold_activity(&mut self, words: u64, states: u64, reports: u64) {
        self.active_words += words;
        self.active_states += states;
        self.reports += reports;
    }

    /// Folds another slice of the same tenant into this one.
    pub(crate) fn accumulate(&mut self, other: &TenantEnergy) {
        self.energy.accumulate(&other.energy);
        self.fold_activity(other.active_words, other.active_states, other.reports);
    }
}

/// A tenant-demuxing [`ShardObserver`] over [`EnergyObserver`]:
/// forwards every cycle to the inner model unchanged, then attributes
/// the breakdown's increment (plus visited-word/active-state/report
/// counts) to the current tenant.
#[derive(Debug)]
pub struct TenantAccountant<'a> {
    inner: EnergyObserver<'a>,
    current: TenantId,
    /// Inner breakdown at the last settlement — deltas from here are
    /// the not-yet-attributed slice.
    last: EnergyBreakdown,
    /// Activity counts of the in-flight cycle's shards (no energy),
    /// settled at `on_cycle_end`.
    pending: TenantEnergy,
    /// BTreeMap: ledger iteration is deterministic.
    per_tenant: BTreeMap<TenantId, TenantEnergy>,
}

impl<'a> TenantAccountant<'a> {
    /// Wraps an energy observer; attribution starts at tenant 0 until
    /// [`set_tenant`](Self::set_tenant) is called.
    pub fn new(inner: EnergyObserver<'a>) -> Self {
        let last = inner.breakdown;
        TenantAccountant {
            inner,
            current: 0,
            last,
            pending: TenantEnergy::default(),
            per_tenant: BTreeMap::new(),
        }
    }

    /// Directs subsequent cycles' charges to `tenant`. Call before each
    /// flow's traffic (any not-yet-settled delta belongs to the
    /// *previous* tenant and is settled first).
    pub fn set_tenant(&mut self, tenant: TenantId) {
        self.settle();
        self.current = tenant;
    }

    /// The tenant currently being charged.
    pub fn current_tenant(&self) -> TenantId {
        self.current
    }

    /// The inner observer (its `breakdown` is the table-wide total).
    pub fn inner(&self) -> &EnergyObserver<'a> {
        &self.inner
    }

    /// The table-wide breakdown, identical to what the bare
    /// [`EnergyObserver`] would have accumulated.
    pub fn total(&self) -> EnergyBreakdown {
        self.inner.breakdown
    }

    /// One tenant's slice (zeroed for tenants never charged).
    pub fn energy_of(&self, tenant: TenantId) -> TenantEnergy {
        self.per_tenant.get(&tenant).copied().unwrap_or_default()
    }

    /// Every charged tenant's slice, in tenant-id order.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, TenantEnergy)> + '_ {
        self.per_tenant.iter().map(|(&id, &e)| (id, e))
    }

    /// The sum of all per-tenant breakdowns — equals
    /// [`total`](Self::total) to floating-point summation order, since
    /// every delta is attributed exactly once.
    pub fn summed(&self) -> EnergyBreakdown {
        let mut sum = EnergyBreakdown::default();
        for tenant in self.per_tenant.values() {
            sum.accumulate(&tenant.energy);
        }
        sum
    }

    /// Consumes the accountant, settling any outstanding delta, and
    /// returns the per-tenant ledger in tenant-id order.
    pub fn finish(mut self) -> Vec<(TenantId, TenantEnergy)> {
        self.settle();
        self.per_tenant.into_iter().collect()
    }

    /// Attributes the inner breakdown's delta since the last settlement
    /// to the current tenant.
    fn settle(&mut self) {
        let delta = self.inner.breakdown.delta_since(&self.last);
        if delta.cycles > 0 || delta.total().value() != 0.0 {
            self.per_tenant
                .entry(self.current)
                .or_default()
                .energy
                .accumulate(&delta);
            self.last = self.inner.breakdown;
        }
    }

    fn settle_activity(&mut self, words: u64, states: u64, reports: u64) {
        self.settle();
        if words | states | reports != 0 {
            self.per_tenant
                .entry(self.current)
                .or_default()
                .fold_activity(words, states, reports);
        }
    }
}

/// The 64-state words an ascending set of local ids touches — active
/// words at observation granularity.
fn active_words(set: LocalSet<'_>) -> u64 {
    let mut words = 0;
    let mut last = usize::MAX;
    for local in set.iter() {
        if local / 64 != last {
            last = local / 64;
            words += 1;
        }
    }
    words
}

impl ShardObserver for TenantAccountant<'_> {
    fn on_shard_cycle(&mut self, view: &ShardCycleView<'_>) {
        let (words, states) = (active_words(view.active), view.active.count());
        self.pending
            .fold_activity(words, states as u64, view.reports as u64);
        self.inner.on_shard_cycle(view);
    }

    fn on_cycle_end(&mut self, summary: &ShardCycleSummary) {
        self.inner.on_cycle_end(summary);
        let cycle = std::mem::take(&mut self.pending);
        self.settle_activity(cycle.active_words, cycle.active_states, cycle.reports);
    }
}

/// [`ServingReport`] extended with the per-tenant ledger.
#[derive(Clone, Debug)]
pub struct TenantServingReport {
    /// The table-wide serving rollup, identical to what
    /// [`evaluate_serving`](crate::report::evaluate_serving) reports
    /// for the same streams.
    pub serving: ServingReport,
    /// Per-tenant slices, in tenant-id order. Their breakdowns sum to
    /// `serving.design_report.energy` (1e-9 relative).
    pub tenants: Vec<(TenantId, TenantEnergy)>,
}

impl TenantServingReport {
    /// One tenant's slice (zeroed for unknown tenants).
    pub fn energy_of(&self, tenant: TenantId) -> TenantEnergy {
        self.tenants
            .iter()
            .find(|(id, _)| *id == tenant)
            .map_or_else(TenantEnergy::default, |&(_, e)| e)
    }

    /// The sum of the per-tenant breakdowns.
    pub fn summed_energy(&self) -> EnergyBreakdown {
        let mut sum = EnergyBreakdown::default();
        for (_, tenant) in &self.tenants {
            sum.accumulate(&tenant.energy);
        }
        sum
    }
}

/// [`evaluate_serving`](crate::report::evaluate_serving) with each
/// stream tagged by tenant: same engines (encoded sharded for CAMA,
/// byte sharded for non-CAM, strided sharded for 2-stride designs),
/// same table-wide rollup, plus the per-tenant energy ledger. Streams
/// run in order; each flow's entire lifetime — including its close-side
/// flush cycles — is charged to its tenant.
///
/// # Panics
///
/// Panics if a 1-stride CAMA design is evaluated without a plan.
pub fn evaluate_serving_by_tenant(
    design: DesignKind,
    nfa: &Nfa,
    flows: &[(TenantId, &[u8])],
    plan: Option<&EncodingPlan>,
) -> TenantServingReport {
    let (tenants, streams): (Vec<TenantId>, Vec<&[u8]>) = flows.iter().copied().unzip();
    let (serving, tenants) = serve_design(design, nfa, &streams, Some(&tenants), plan, 1);
    TenantServingReport { serving, tenants }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::map_design;
    use crate::report::evaluate_serving;
    use cama_mem::models::CircuitLibrary;
    use cama_workloads::Benchmark;

    fn close(a: cama_mem::Energy, b: cama_mem::Energy) -> bool {
        (a.value() - b.value()).abs() <= 1e-9 * a.value().abs().max(1.0)
    }

    fn assert_breakdowns_close(got: &EnergyBreakdown, want: &EnergyBreakdown, label: &str) {
        assert_eq!(got.cycles, want.cycles, "{label}");
        assert!(
            close(got.state_match, want.state_match),
            "{label}: {got:?} vs {want:?}"
        );
        assert!(
            close(got.switch_wire, want.switch_wire),
            "{label}: {got:?} vs {want:?}"
        );
        assert!(close(got.encoder, want.encoder), "{label}");
    }

    /// The acceptance bar: per-tenant breakdowns must sum to the
    /// table-wide breakdown within 1e-9, and the table-wide breakdown
    /// must equal the tenant-blind `evaluate_serving` on the same
    /// streams — for CAMA (encoded engine), non-CAM (byte engine), and
    /// 2-stride (strided engine) designs alike.
    #[test]
    fn tenant_slices_sum_to_table_wide_breakdown() {
        let bench = Benchmark::Bro217;
        let nfa = bench.generate(0.1);
        let streams: Vec<Vec<u8>> = (0..6).map(|seed| bench.input(&nfa, 256, seed)).collect();
        let flows: Vec<(TenantId, &[u8])> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| ((i % 3) as TenantId, s.as_slice()))
            .collect();
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let plan = EncodingPlan::for_nfa(&nfa);
        for design in [
            DesignKind::CamaE,
            DesignKind::Eap,
            DesignKind::Cama2E,
            DesignKind::Impala4,
        ] {
            let plan_opt = design.is_cama().then_some(&plan);
            let by_tenant = evaluate_serving_by_tenant(design, &nfa, &flows, plan_opt);
            assert_eq!(by_tenant.tenants.len(), 3, "{design}");

            // Slices sum to the table-wide total.
            let summed = by_tenant.summed_energy();
            let total = by_tenant.serving.design_report.energy;
            assert_breakdowns_close(&summed, &total, &format!("{design} sum"));

            // The table-wide total equals the tenant-blind rollup.
            let blind = evaluate_serving(design, &nfa, &refs, plan_opt);
            assert_breakdowns_close(
                &total,
                &blind.design_report.energy,
                &format!("{design} vs blind"),
            );
            assert_eq!(
                by_tenant.serving.reports_per_stream, blind.reports_per_stream,
                "{design}"
            );

            // Reports demux exactly.
            let tenant_reports: u64 = by_tenant.tenants.iter().map(|(_, t)| t.reports).sum();
            assert_eq!(
                tenant_reports,
                blind.total_reports() as u64,
                "{design} reports"
            );
            // Visited-word and active-state signals only exist where
            // there was activity.
            let words: u64 = by_tenant.tenants.iter().map(|(_, t)| t.active_words).sum();
            let states: u64 = by_tenant.tenants.iter().map(|(_, t)| t.active_states).sum();
            assert!(states >= words, "{design}: a word holds ≥1 state");
        }
    }

    /// A flat run (its lane reported as shard 0) demuxes like a sharded
    /// one.
    #[test]
    fn flat_observer_demux_matches_totals() {
        use cama_sim::Simulator;
        let bench = Benchmark::Snort;
        let nfa = bench.generate(0.02);
        let lib = CircuitLibrary::tsmc28();
        let mapping = map_design(DesignKind::Eap, &nfa, None);
        let inner = EnergyObserver::for_nfa(DesignKind::Eap, &mapping, &lib, &nfa);
        let mut acct = TenantAccountant::new(inner);
        let mut sim = Simulator::new(&nfa);
        let a = bench.input(&nfa, 300, 1);
        let b = bench.input(&nfa, 200, 2);
        acct.set_tenant(10);
        sim.run_with(&a, &mut acct);
        acct.set_tenant(20);
        sim.run_with(&b, &mut acct);
        assert_eq!(acct.energy_of(10).energy.cycles, 300);
        assert_eq!(acct.energy_of(20).energy.cycles, 200);
        let total = acct.total();
        let summed = acct.summed();
        assert_breakdowns_close(&summed, &total, "flat demux");
        // An untouched tenant reads as zero.
        assert_eq!(acct.energy_of(99), TenantEnergy::default());
        let _ = acct.inner();
        assert_eq!(acct.current_tenant(), 20);
    }
}
