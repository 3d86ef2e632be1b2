//! Keeps the committed perf trajectory — `BENCH_ids_serve.json` and
//! `BENCH_rule_update.json` at the repository root, one record per perf
//! change taken from perfbench's `perfbench/out/*.json` — readable and in
//! step with the benchmark it quotes: both files parse, hold at least
//! one record, and name only metrics `BENCHMARK.json` declares
//! (end-to-end medians under `end_to_end`, traced counters and layer
//! times under `per_layer`).

use cama::core::json::{self, JsonValue};
use std::collections::BTreeSet;

fn read(name: &str) -> JsonValue {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The `name`s of one of `BENCHMARK.json`'s metric lists.
fn declared(benchmark: &JsonValue, list: &str) -> BTreeSet<String> {
    let metrics = benchmark.get(list).and_then(JsonValue::as_array);
    metrics
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{list}`"))
        .iter()
        .map(|metric| {
            let name = metric.get("name").and_then(JsonValue::as_str);
            name.unwrap_or_else(|| panic!("unnamed `{list}` metric"))
                .to_string()
        })
        .collect()
}

#[test]
fn bench_records_name_only_declared_metrics() {
    let benchmark = read("BENCHMARK.json");
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    let number = |value: &JsonValue, at: &str| {
        let n = value.as_f64();
        assert!(n.is_some_and(f64::is_finite), "{at}: not a number");
    };
    for workload in ["ids_serve", "rule_update"] {
        let file = format!("BENCH_{workload}.json");
        let doc = read(&file);
        assert_eq!(
            doc.get("workload").and_then(JsonValue::as_str),
            Some(workload),
            "{file}"
        );
        let records = doc.get("records").and_then(JsonValue::as_array);
        let records = records.unwrap_or_else(|| panic!("{file}: no `records` array"));
        assert!(!records.is_empty(), "{file}: no record");
        for (i, record) in records.iter().enumerate() {
            let at = format!("{file} record {i}");
            for key in ["change", "parent_commit"] {
                let value = record.get(key).and_then(JsonValue::as_str);
                assert!(value.is_some_and(|v| !v.is_empty()), "{at}: `{key}`");
            }
            let seeds = record.get("seeds").and_then(JsonValue::as_array);
            let seeds = seeds.unwrap_or_else(|| panic!("{at}: no `seeds`"));
            assert!(!seeds.is_empty(), "{at}: no seed");
            seeds.iter().for_each(|seed| number(seed, &at));

            // Parent and change quartiles of each end-to-end metric.
            let section = |key: &str| {
                let value = record.get(key).and_then(JsonValue::as_object);
                value.unwrap_or_else(|| panic!("{at}: no `{key}` object"))
            };
            for (name, sides) in section("end_to_end") {
                assert!(
                    end_to_end.contains(name),
                    "{at}: `{name}` is not an end_to_end metric of BENCHMARK.json"
                );
                for side in ["parent", "change"] {
                    for stat in ["q1", "median", "q3"] {
                        let value = sides.get(side).and_then(|s| s.get(stat));
                        let value =
                            value.unwrap_or_else(|| panic!("{at}: `{name}` lacks {side} {stat}"));
                        number(value, &format!("{at}: {name} {side} {stat}"));
                    }
                }
            }
            // Traced counters per seed, and traced layer times.
            for (seed, counters) in section("deterministic") {
                let counters = counters.as_object();
                let counters = counters.unwrap_or_else(|| panic!("{at}: seed {seed}"));
                assert!(!counters.is_empty(), "{at}: seed {seed} has no counter");
                for (name, value) in counters {
                    assert!(
                        per_layer.contains(name),
                        "{at}: `{name}` is not a per_layer metric of BENCHMARK.json"
                    );
                    number(value, &format!("{at}: seed {seed} {name}"));
                }
            }
            for name in section("traced").keys() {
                assert!(
                    per_layer.contains(name),
                    "{at}: `{name}` is not a per_layer metric of BENCHMARK.json"
                );
            }
        }
    }
}
