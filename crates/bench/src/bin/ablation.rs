//! Ablation study over CAMA's design choices: negation optimization
//! on/off, frequency-first clustering vs naive assignment, and the
//! reduced-crossbar group width `k_dia`. The encodings ablations 1 and
//! 2 compare are all exact (see "Modelling assumptions and invariants"
//! in `docs/ARCHITECTURE.md`), so those knobs trade CAM entries, not
//! behaviour.
//!
//! The paper fixes k_dia = 43 (two stacked groups per 128-column
//! switch); the sweep shows why — smaller groups break more components
//! out of RCB mode, larger groups no longer fit two-per-column.

use cama_bench::TextTable;
use cama_core::graph::connected_components;
use cama_encoding::{EncodingPlan, Scheme};
use cama_mem::ReducedCrossbar;
use cama_workloads::Benchmark;

fn main() {
    let scale = cama_bench::env_f64("CAMA_SCALE", 0.2);
    let benches = [
        Benchmark::Tcp,
        Benchmark::Snort,
        Benchmark::Spm,
        Benchmark::BlockRings,
        Benchmark::Protomata,
    ];

    // Ablation 1: negation optimization.
    let mut no_table = TextTable::new(["Benchmark", "Entries(raw)", "Entries(NO)", "saving"]);
    for bench in benches {
        let nfa = bench.generate(scale);
        let raw = EncodingPlan::without_negation(&nfa).total_entries();
        let no = EncodingPlan::for_nfa(&nfa).total_entries();
        no_table.row([
            bench.name().to_string(),
            raw.to_string(),
            no.to_string(),
            format!("{:.1}%", 100.0 * (1.0 - no as f64 / raw as f64)),
        ]);
    }
    println!(
        "Ablation 1 — negation optimization (scale {scale})\n{}",
        no_table.render()
    );

    // Ablation 2: frequency-first clustering vs naive symbol order.
    let mut cl_table = TextTable::new(["Benchmark", "clustered", "unclustered", "penalty"]);
    for bench in benches {
        let nfa = bench.generate(scale);
        let selected = EncodingPlan::for_nfa(&nfa);
        let scheme = selected.scheme();
        if matches!(scheme, Scheme::MultiZeros { .. } | Scheme::OneZero { .. }) {
            cl_table.row([
                bench.name().to_string(),
                selected.total_entries().to_string(),
                "-".to_string(),
                "no prefixes".to_string(),
            ]);
            continue;
        }
        let naive = EncodingPlan::with_scheme(&nfa, scheme, false).total_entries();
        cl_table.row([
            bench.name().to_string(),
            selected.total_entries().to_string(),
            naive.to_string(),
            format!(
                "{:+.1}%",
                100.0 * (naive as f64 / selected.total_entries() as f64 - 1.0)
            ),
        ]);
    }
    println!(
        "Ablation 2 — frequency-first symbol clustering (scale {scale})\n{}",
        cl_table.render()
    );

    // Ablation 3: k_dia sweep — fraction of components whose internal
    // edges fit the band when placed at a group boundary.
    let mut k_table = TextTable::new(["Benchmark", "k=21", "k=32", "k=43", "k=64"]);
    for bench in benches {
        let nfa = bench.generate(scale);
        let ccs = connected_components(&nfa);
        let mut row = vec![bench.name().to_string()];
        for k in [21usize, 32, 43, 64] {
            let fit = ccs
                .iter()
                .filter(|cc| {
                    let mut position = std::collections::HashMap::new();
                    for (i, &s) in cc.states.iter().enumerate() {
                        position.insert(s, i);
                    }
                    cc.states.iter().all(|&s| {
                        nfa.successors(s).iter().all(|t| {
                            position
                                .get(t)
                                .is_none_or(|&pt| ReducedCrossbar::supports(k, position[&s], pt))
                        })
                    })
                })
                .count();
            row.push(format!(
                "{:.1}%",
                100.0 * fit as f64 / ccs.len().max(1) as f64
            ));
        }
        k_table.row(row);
    }
    println!(
        "Ablation 3 — RCB band feasibility vs k_dia (components fitting the band)\n{}",
        k_table.render()
    );
    println!(
        "k_dia = 43 is the largest width for which two groups stack into one\n\
         128-column switch (6 x 43 = 258 >= 256 logical ports); larger k would\n\
         halve switch capacity, smaller k breaks more rings/back-edges out of\n\
         RCB mode (cf. eAP's k = 21)."
    );
}
