//! Golden serving energy: `evaluate_serving` and the per-tenant slices
//! of `evaluate_serving_by_tenant`, pinned bit for bit on all seven
//! serving designs over two workloads with one odd-length stream each
//! (a 2-stride flow ending in a flush cycle). The energy model uses no
//! transcendental functions, so the bits hold on every IEEE-754
//! platform.

use cama_arch::{evaluate_serving, evaluate_serving_by_tenant, DesignKind, EnergyBreakdown};
use cama_core::{regex, Nfa};
use cama_encoding::EncodingPlan;
use cama_workloads::Benchmark;

const DESIGNS: [DesignKind; 7] = [
    DesignKind::CamaE,
    DesignKind::CamaT,
    DesignKind::CacheAutomaton,
    DesignKind::Eap,
    DesignKind::Cama2E,
    DesignKind::Cama2T,
    DesignKind::Impala4,
];

/// `head`, then the cycles and the state-match, switch+wire and encoder
/// energy bits of `energy`.
fn line(head: String, energy: &EnergyBreakdown) -> String {
    let bits = |energy: cama_mem::Energy| energy.value().to_bits();
    format!(
        "{head} {} {:016x} {:016x} {:016x}",
        energy.cycles,
        bits(energy.state_match),
        bits(energy.switch_wire),
        bits(energy.encoder)
    )
}

/// Serves `streams` on every design, untagged (report counts per
/// stream) and with stream `i` tagged tenant `i % 2` (each tenant's
/// reports, active words and active states), against `golden`.
fn check(nfa: &Nfa, streams: &[&[u8]], golden: &[&str]) {
    let plan = EncodingPlan::for_nfa(nfa);
    let flows: Vec<(u32, &[u8])> = (0..).zip(streams).map(|(i, &s)| (i % 2, s)).collect();
    let mut lines = Vec::new();
    for design in DESIGNS {
        let plan = design.is_cama().then_some(&plan);
        let serving = evaluate_serving(design, nfa, streams, plan);
        let by_tenant = evaluate_serving_by_tenant(design, nfa, &flows, plan);
        let (reports, energy) = (&serving.reports_per_stream, &serving.design_report.energy);
        let tagged = &by_tenant.serving;
        assert_eq!(&tagged.reports_per_stream, reports, "{design}");
        assert_eq!(&tagged.design_report.energy, energy, "{design}");
        lines.push(line(format!("{design}: {reports:?}"), energy));
        for (id, t) in &by_tenant.tenants {
            let head = format!("{design} tenant {id}: r{} w{}", t.reports, t.active_words);
            lines.push(line(format!("{head} s{}", t.active_states), &t.energy));
        }
    }
    assert_eq!(lines, golden);
}

/// Snort at scale 0.02: many partitions, no reports.
#[test]
fn snort_serving_energy_is_pinned() {
    let nfa = Benchmark::Snort.generate(0.02);
    let streams: Vec<Vec<u8>> = [(256, 1), (301, 2), (192, 3)]
        .iter()
        .map(|&(len, seed)| Benchmark::Snort.input(&nfa, len, seed))
        .collect();
    let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
    check(&nfa, &refs, &[
        "CAMA-E: [0, 0, 0] 749 40d0eec54ad70b77 40df3e712ef26a44 409d087cd37d3afb",
        "CAMA-E tenant 0: r0 w440 s445 448 40c441e782583dff 40d2b02ae49fc5ac 40915d999d99db81",
        "CAMA-E tenant 1: r0 w272 s273 301 40bb374626abb1dd 40c91c8c94a54930 408755c66bc6bef4",
        "CAMA-T: [0, 0, 0] 749 40f28c5c8733eabe 40dee5b6b5b49075 409cc7bce40827fe",
        "CAMA-T tenant 0: r0 w440 s445 448 40e6304868513f28 40d27b18aa75fe0a 409136df0996d28a",
        "CAMA-T tenant 1: r0 w272 s273 301 40ddd0e14c2d2ca8 40c8d53c167d24d7 408721bbb4e2aae8",
        "CA: [0, 0, 0] 749 40f5a0af7e564750 40f0079ff4fa8b10 0000000000000000",
        "CA tenant 0: r0 w434 s445 448 40e9df5321e60464 40e32d094bccaf32 0000000000000000",
        "CA tenant 1: r0 w267 s273 301 40e1620bdac68a3b 40d9c46d3c50cddc 0000000000000000",
        "eAP: [0, 0, 0] 749 40f3f81b105b6a33 40d70bc79228e4d6 0000000000000000",
        "eAP tenant 0: r0 w444 s445 448 40e7e36a8b318b02 40cb91c8df9242ed 0000000000000000",
        "eAP tenant 1: r0 w273 s273 301 40e00ccb95854964 40c285c644bf86bf 0000000000000000",
        "2-stride CAMA-E: [0, 0, 0] 375 40cf4df733180bc0 40e2f4c75d51aa73 409ccd9fd2b497c5",
        "2-stride CAMA-E tenant 0: r0 w214 s223 224 40c2b37d76057466 40d6a57d3d4e41f9 40913482f76044c7",
        "2-stride CAMA-E tenant 1: r0 w125 s133 151 40b934f37a252eb5 40ce8822faaa25db 40873239b6a8a5fb",
        "2-stride CAMA-T: [0, 0, 0] 375 40ec630de277e22c 40e2af246a04406a 409ca9603a31ed94",
        "2-stride CAMA-T tenant 0: r0 w214 s223 224 40e0f4da8e1a8df4 40d6524bf9df5755 40911edbf4572af4",
        "2-stride CAMA-T tenant 1: r0 w125 s133 151 40d6dc66a8baa86f 40ce17f9b45252fe 408715088bb58540",
        "4-stride Impala: [0, 0, 0] 375 4103c4237d47f64a 40e2b9893e913057 0000000000000000",
        "4-stride Impala tenant 0: r0 w212 s223 224 40f79d2dcfb22157 40d65eb6c8034709 0000000000000000",
        "4-stride Impala tenant 1: r0 w123 s133 151 40efd63255bb9679 40ce28b76a3e334b 0000000000000000",
    ]);
}

/// A small ruleset whose streams match: two reports on each of the
/// first three streams.
#[test]
fn ruleset_serving_energy_is_pinned() {
    let nfa = regex::compile_set(&["ab+c", "x[0-9]+y", "GET /[a-z]+\\.php", "[^a]zz"]).unwrap();
    let streams: [&[u8]; 4] = [
        b"zabbc  abc",
        b"x12y x9y--",
        b"GET /index.php GET /ab.php",
        b"azz",
    ];
    check(&nfa, &streams, &[
        "CAMA-E: [2, 2, 2, 0] 49 406550a62430e296 407671fe3a3c23c1 405e63ccd3cd402e",
        "CAMA-E tenant 0: r4 w36 s68 36 405f51ca0af6f4c0 40707d7be7be8302 405653c5817cac89",
        "CAMA-E tenant 1: r2 w13 s21 13 40469f047ad5a0d8 4057d20949f682fc 4040200ea4a1274a",
        "CAMA-T: [2, 2, 2, 0] 49 408a143bb9616b0a 4075f62907daa7ab 405e200650c7efec",
        "CAMA-T tenant 0: r4 w36 s68 36 408328fcdbca2f4b 407022813ae49ac8 405621fa30e67c06",
        "CAMA-T tenant 1: r2 w13 s21 13 406bacfb765ceefb 40574e9f33d8338c 403ff8307f85cf97",
        "CA: [2, 2, 2, 0] 49 408e2f3652370471 4086684225204af8 0000000000000000",
        "CA tenant 0: r4 w36 s68 36 40862d22af5770fa 408076afa7eb6bf3 0000000000000000",
        "CA tenant 1: r2 w13 s21 13 4070042745bf26ee 4067c649f4d37c16 0000000000000000",
        "eAP: [2, 2, 2, 0] 49 408bdea6f7b9cce9 4070266e986b0cb8 0000000000000000",
        "eAP tenant 0: r4 w36 s68 36 408479c909982e10 4067bc3500b730ea 0000000000000000",
        "eAP tenant 1: r2 w13 s21 13 406d9377b8867b64 40512150603dd10c 0000000000000000",
        "2-stride CAMA-E: [2, 2, 2, 0] 25 405e919bc35c5c9f 40772caf9fe39a86 405eb93302e2c42b",
        "2-stride CAMA-E tenant 0: r4 w18 s36 18 40562a65c8431857 4070b0adf69a0b51 40561ef18732a1b9",
        "2-stride CAMA-E tenant 1: r2 w7 s11 7 4040ce6bf6328891 4059f006a5263cd4 40413482f76044e4",
        "2-stride CAMA-T: [2, 2, 2, 0] 25 40814d714d15df16 4076d7cbb91ed4ed 405e9288c69ba7df",
        "2-stride CAMA-T tenant 0: r4 w18 s36 18 4078ea65b6aedad8 4070738efe873f9a 4056031acc701277",
        "2-stride CAMA-T tenant 1: r2 w7 s11 7 406360f9c6f9c6a8 405990f2ea5e554a 40411edbf4572ad0",
        "4-stride Impala: [2, 2, 2, 0] 25 4098188cc97c4c0e 4076e4b0ae938a2b 0000000000000000",
        "4-stride Impala tenant 0: r4 w18 s36 18 4091595b206df952 40707cae71682e3c 0000000000000000",
        "4-stride Impala tenant 1: r2 w7 s11 7 407afcc6a4394af2 4059a008f4ad6fbe 0000000000000000",
    ]);
}
