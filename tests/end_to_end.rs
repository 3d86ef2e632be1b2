//! Cross-crate integration: the full toolchain from pattern (or
//! interchange file) through encoding and mapping to mapped-hardware
//! execution, checked against the plain simulator at every step.

use cama::arch::designs::DesignKind;
use cama::arch::hardware::CamaHardware;
use cama::arch::mapping::map_design;
use cama::core::{anml, mnrl, regex};
use cama::encoding::EncodingPlan;
use cama::sim::Simulator;
use cama::workloads::Benchmark;

fn hardware_equals_simulator(nfa: &cama::core::Nfa, input: &[u8]) {
    let plan = EncodingPlan::for_nfa(nfa);
    plan.verify_exact(nfa).expect("encoding is exact");
    let mapping = map_design(DesignKind::CamaE, nfa, Some(&plan));
    let mut hardware = CamaHardware::build(nfa, &plan, &mapping);
    let hw = hardware.run(input);
    let mut sw = Simulator::new(nfa).run(input).reports;
    sw.sort_by_key(|r| (r.offset, r.ste));
    assert_eq!(hw, sw, "hardware/simulator divergence");
}

#[test]
fn regex_to_hardware_pipeline() {
    let patterns = [
        "(a|b)e*cd+",
        "GET /[a-z]+\\.html",
        "[0-9]{3}-[0-9]{4}",
        "x[^y]{2}z",
    ];
    let nfa = regex::compile_set(&patterns).unwrap();
    let input = b"GET /index.html 555-1234 beecd xaaz";
    hardware_equals_simulator(&nfa, input);
}

#[test]
fn anml_roundtrip_preserves_behaviour() {
    let nfa = Benchmark::Bro217.generate(0.05);
    let input = Benchmark::Bro217.input(&nfa, 2048, 9);
    let baseline = Simulator::new(&nfa).run(&input).report_offsets();

    let text = anml::to_string(&nfa);
    let parsed = anml::from_str(&text).unwrap();
    let reparsed = Simulator::new(&parsed).run(&input).report_offsets();
    assert_eq!(baseline, reparsed);
}

#[test]
fn mnrl_roundtrip_preserves_behaviour() {
    let nfa = Benchmark::Ranges1.generate(0.05);
    let input = Benchmark::Ranges1.input(&nfa, 2048, 10);
    let baseline = Simulator::new(&nfa).run(&input).report_offsets();

    let text = mnrl::to_string(&nfa);
    let parsed = mnrl::from_str(&text).unwrap();
    let reparsed = Simulator::new(&parsed).run(&input).report_offsets();
    assert_eq!(baseline, reparsed);
}

#[test]
fn every_benchmark_survives_the_full_pipeline() {
    for bench in Benchmark::ALL {
        let nfa = bench.generate(0.004);
        let input = bench.input(&nfa, 256, 11);
        hardware_equals_simulator(&nfa, &input);
    }
}

#[test]
fn encoding_is_exact_for_every_benchmark() {
    for bench in Benchmark::ALL {
        let nfa = bench.generate(0.01);
        let plan = EncodingPlan::for_nfa(&nfa);
        plan.verify_exact(&nfa)
            .unwrap_or_else(|e| panic!("{bench}: {e}"));
    }
}

#[test]
fn strided_execution_equals_byte_execution() {
    use cama::core::stride::StridedNfa;
    use cama::sim::StridedSimulator;
    for bench in [Benchmark::Brill, Benchmark::Tcp, Benchmark::BlockRings] {
        let nfa = bench.generate(0.005);
        let input = bench.input(&nfa, 1024, 12);
        let baseline = Simulator::new(&nfa).run(&input).report_offsets();
        let strided = StridedNfa::from_nfa(&nfa);
        let strided_offsets = StridedSimulator::new(&strided).run(&input).report_offsets();
        assert_eq!(baseline, strided_offsets, "{bench}");
    }
}
