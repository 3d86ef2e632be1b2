//! The paper's headline quantitative claims, checked in *shape* (who
//! wins, roughly by how much) on scaled-down workloads. Absolute numbers
//! differ — the substrate is a simulator on synthetic inputs — but the
//! orderings and rough factors must hold (see "Modelling assumptions
//! and invariants" in `docs/ARCHITECTURE.md`).

use cama::arch::designs::DesignKind;
use cama::arch::report::{evaluate_strided, evaluate_with_plan, strided_weights, DesignReport};
use cama::arch::timing::timing_report;
use cama::core::stride::StridedNfa;
use cama::encoding::EncodingPlan;
use cama::mem::models::CircuitLibrary;
use cama::workloads::Benchmark;

const SCALE: f64 = 0.03;
const INPUT: usize = 4096;

fn reports_for(bench: Benchmark) -> Vec<DesignReport> {
    let nfa = bench.generate(SCALE);
    let input = bench.input(&nfa, INPUT, 21);
    let plan = EncodingPlan::for_nfa(&nfa);
    DesignKind::HEADLINE
        .iter()
        .map(|&d| evaluate_with_plan(d, &nfa, &input, d.is_cama().then_some(&plan)))
        .collect()
}

fn by_design(reports: &[DesignReport], design: DesignKind) -> &DesignReport {
    reports.iter().find(|r| r.design == design).unwrap()
}

#[test]
fn cama_e_has_the_lowest_energy_per_byte() {
    for bench in [Benchmark::Brill, Benchmark::Snort, Benchmark::Tcp] {
        let reports = reports_for(bench);
        let e = by_design(&reports, DesignKind::CamaE).energy_per_byte_nj();
        for report in &reports {
            if report.design != DesignKind::CamaE {
                assert!(
                    report.energy_per_byte_nj() > e,
                    "{bench}: {} not above CAMA-E",
                    report.design
                );
            }
        }
    }
}

#[test]
fn energy_factors_are_roughly_the_papers() {
    // Paper averages: CA 2.1x, Impala2 2.8x, eAP 2.04x, CAMA-T 2.04x
    // over CAMA-E. Allow a generous band.
    let mut factors = vec![Vec::new(); 4];
    for bench in [Benchmark::Brill, Benchmark::Dotstar06, Benchmark::PowerEn] {
        let reports = reports_for(bench);
        let e = by_design(&reports, DesignKind::CamaE).energy_per_byte_nj();
        factors[0].push(by_design(&reports, DesignKind::CacheAutomaton).energy_per_byte_nj() / e);
        factors[1].push(by_design(&reports, DesignKind::Impala2).energy_per_byte_nj() / e);
        factors[2].push(by_design(&reports, DesignKind::Eap).energy_per_byte_nj() / e);
        factors[3].push(by_design(&reports, DesignKind::CamaT).energy_per_byte_nj() / e);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (ca, impala, eap, camat) = (
        mean(&factors[0]),
        mean(&factors[1]),
        mean(&factors[2]),
        mean(&factors[3]),
    );
    assert!((1.3..5.0).contains(&ca), "CA factor {ca}");
    assert!((1.5..6.0).contains(&impala), "Impala factor {impala}");
    assert!((1.2..5.0).contains(&eap), "eAP factor {eap}");
    assert!((1.2..5.0).contains(&camat), "CAMA-T factor {camat}");
    // Impala's doubled periphery must cost more than CA (the paper's
    // central observation about Impala).
    assert!(impala > ca, "Impala {impala} vs CA {ca}");
}

#[test]
fn cama_t_has_the_highest_compute_density() {
    for bench in [Benchmark::Brill, Benchmark::ClamAv, Benchmark::Hamming] {
        let reports = reports_for(bench);
        let t = by_design(&reports, DesignKind::CamaT).compute_density();
        for report in &reports {
            if report.design != DesignKind::CamaT {
                assert!(
                    t > report.compute_density(),
                    "{bench}: CAMA-T {t} not above {} ({})",
                    report.design,
                    report.compute_density()
                );
            }
        }
    }
}

#[test]
fn wide_mode_benchmarks_lose_density() {
    // RandomForest runs in the 32-bit mode; its CAMA density advantage
    // over CA must shrink versus an RCB-mode benchmark (Figure 11a's
    // outliers).
    let rcb = reports_for(Benchmark::Brill);
    let wide = reports_for(Benchmark::RandomForest);
    let advantage = |reports: &[DesignReport]| {
        by_design(reports, DesignKind::CamaT).compute_density()
            / by_design(reports, DesignKind::CacheAutomaton).compute_density()
    };
    assert!(advantage(&rcb) > advantage(&wide));
}

#[test]
fn area_ratios_match_figure_10s_shape() {
    let reports = reports_for(Benchmark::Snort);
    let cama = by_design(&reports, DesignKind::CamaE).area.total().value();
    let ca = by_design(&reports, DesignKind::CacheAutomaton)
        .area
        .total()
        .value();
    let impala = by_design(&reports, DesignKind::Impala2)
        .area
        .total()
        .value();
    let eap = by_design(&reports, DesignKind::Eap).area.total().value();
    // Paper (largest benchmark): CA 2.48x, Impala2 1.91x, eAP 1.78x.
    assert!((1.5..4.5).contains(&(ca / cama)), "CA/CAMA {}", ca / cama);
    assert!(
        (1.2..3.5).contains(&(impala / cama)),
        "Impala/CAMA {}",
        impala / cama
    );
    assert!(
        (1.2..3.5).contains(&(eap / cama)),
        "eAP/CAMA {}",
        eap / cama
    );
}

#[test]
fn frequencies_match_table_iv() {
    let lib = CircuitLibrary::tsmc28();
    let expected = [
        (DesignKind::CamaE, 1.34, 1.21),
        (DesignKind::CamaT, 2.38, 2.14),
        (DesignKind::Impala2, 2.26, 2.03),
        (DesignKind::Eap, 1.94, 1.75),
        (DesignKind::CacheAutomaton, 2.03, 1.82),
    ];
    for (design, max, operated) in expected {
        let t = timing_report(design, &lib);
        assert!(
            (t.max_frequency_ghz - max).abs() < 0.011,
            "{design} max {}",
            t.max_frequency_ghz
        );
        assert!(
            (t.operated_frequency_ghz - operated).abs() < 0.011,
            "{design} operated {}",
            t.operated_frequency_ghz
        );
    }
}

#[test]
fn four_stride_impala_burns_more_than_two_stride_cama() {
    // Figure 13: 4-stride Impala ≈ 3.77x over 2-stride CAMA-E and
    // ≈ 2.18x over 2-stride CAMA-T on average.
    let mut vs_e = Vec::new();
    let mut vs_t = Vec::new();
    for bench in [Benchmark::Brill, Benchmark::Hamming] {
        let nfa = bench.generate(SCALE);
        let input = bench.input(&nfa, INPUT, 23);
        let strided = StridedNfa::from_nfa(&nfa);
        let run = |design| {
            let weights = strided_weights(design, &strided);
            evaluate_strided(design, &strided, weights, &input).energy_per_byte_nj()
        };
        let e = run(DesignKind::Cama2E);
        let t = run(DesignKind::Cama2T);
        let impala = run(DesignKind::Impala4);
        vs_e.push(impala / e);
        vs_t.push(impala / t);
    }
    for r in &vs_e {
        assert!(*r > 1.5, "Impala4/CAMA2-E {r}");
    }
    for r in &vs_t {
        assert!(*r > 1.0, "Impala4/CAMA2-T {r}");
    }
}

#[test]
fn encoding_entry_overhead_is_small() {
    // Table II: the proposed encoding increases entries by ~13 % on
    // average over one-hot states. Check the aggregate stays modest.
    let mut total_states = 0usize;
    let mut total_entries = 0usize;
    for bench in [
        Benchmark::Brill,
        Benchmark::ClamAv,
        Benchmark::Tcp,
        Benchmark::Bro217,
        Benchmark::ExactMatch,
    ] {
        let nfa = bench.generate(0.05);
        let plan = EncodingPlan::for_nfa(&nfa);
        total_states += nfa.len();
        total_entries += plan.total_entries();
    }
    let overhead = total_entries as f64 / total_states as f64;
    assert!((1.0..1.35).contains(&overhead), "entry overhead {overhead}");
}
