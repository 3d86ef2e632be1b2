//! Metric names, the run's environment stamp, and the result output.
//!
//! The metric lists here mirror `BENCHMARK.json` at the repository
//! root (a test keeps the two in step). Every run prints every
//! end-to-end metric untraced, or every per-layer metric traced; a
//! per-layer metric of a layer the workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::Tracer;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("serve_bytes_per_s", "B/s"),
    ("request_ms", "ms"),
    ("sim_energy_nj_per_byte", "nJ/B"),
    ("peak_rss_mb", "MiB"),
];

/// Whether a per-layer metric is a host-time measurement or a count
/// that must repeat exactly for a seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Wall,
    Counter,
}

/// Per-layer metrics: `(name, unit, kind)`.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("frame.decode_s", "s", Kind::Wall),
    ("frame.frames", "count", Kind::Counter),
    ("control.self_s", "s", Kind::Wall),
    ("control.bytes_deferred", "B", Kind::Counter),
    ("control.bytes_rejected", "B", Kind::Counter),
    ("control.flows_rejected", "count", Kind::Counter),
    ("control.backpressure_feeds", "count", Kind::Counter),
    ("batch.park_s", "s", Kind::Wall),
    ("batch.table_s", "s", Kind::Wall),
    ("batch.parked_peak", "count", Kind::Counter),
    ("batch.swap_s", "s", Kind::Wall),
    ("batch.swap_migrated", "count", Kind::Counter),
    ("batch.swap_deferred", "count", Kind::Counter),
    ("batch.swap_displaced", "count", Kind::Counter),
    ("batch.swap_idle", "count", Kind::Counter),
    ("batch.pending_remaps", "count", Kind::Counter),
    ("sharded.exec_s", "s", Kind::Wall),
    ("sharded.visited_shard_cycles", "count", Kind::Counter),
    ("sharded.skipped_shard_cycles", "count", Kind::Counter),
    ("sharded.skip_ratio", "ratio", Kind::Counter),
    ("sharded.words_visited", "count", Kind::Counter),
    ("sharded.words_per_byte", "words/B", Kind::Counter),
    ("sharded.cross_activations", "count", Kind::Counter),
    ("sharded.dfa_shard_cycles", "count", Kind::Counter),
    ("sharded.dfa_cycle_share", "ratio", Kind::Counter),
    ("engine.flat_exec_s", "s", Kind::Wall),
    ("sim.cycles", "count", Kind::Counter),
    ("sim.active_per_cycle", "states", Kind::Counter),
    ("sim.reports", "count", Kind::Counter),
    ("regex.compile_set_s", "s", Kind::Wall),
    ("regex.states", "count", Kind::Counter),
    ("compile.split_s", "s", Kind::Wall),
    ("compile.hybrid_s", "s", Kind::Wall),
    ("compile.components", "count", Kind::Counter),
    ("compile.cache_hits", "count", Kind::Counter),
    ("compile.cache_misses", "count", Kind::Counter),
    ("compile.cache_evictions", "count", Kind::Counter),
    ("compile.cache_hit_ratio", "ratio", Kind::Counter),
    ("compile.dfa_shards", "count", Kind::Counter),
    ("compile.remap_s", "s", Kind::Wall),
    ("compile.remap_surviving", "count", Kind::Counter),
    ("compile.plan_rss_mb", "MiB", Kind::Wall),
    ("encoding.plan_s", "s", Kind::Wall),
    ("encoding.compile_sharded_s", "s", Kind::Wall),
    ("encoding.code_len", "bits", Kind::Counter),
    ("encoding.entries", "count", Kind::Counter),
    ("arch.map_s", "s", Kind::Wall),
    ("arch.observer_s", "s", Kind::Wall),
    ("arch.partitions", "count", Kind::Counter),
    ("trace.overhead_s", "s", Kind::Wall),
    ("trace.overhead_share", "ratio", Kind::Wall),
];

/// The seed reserved for confirming a claimed gain: never used while
/// tuning the benchmark or a change.
pub const HELD_OUT_SEED: u64 = 9001;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked against an independent path.
    pub attempted: u64,
    /// Operations that failed a check, were refused, or lost bytes.
    pub failed: u64,
    /// End-to-end metric values (untraced runs).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|&(n, _)| n == name),
            "unknown end-to-end metric {name}"
        );
        self.e2e.insert(name, value);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, ..)| n == name),
            "unknown per-layer metric {name}"
        );
        self.layer.insert(name, value);
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The environment a result was measured in.
#[derive(Debug)]
pub struct Stamp {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Stamp {
    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unset".to_string());
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        format!(
            "{{\"workload\":{},\"seed\":{},\"held_out_seed\":{},\"seconds\":{},\"trace\":{},\
             \"commit\":{},\"kernel\":{},\"CAMA_KERNEL\":{},\"CAMA_DFA\":{},\
             \"CAMA_WORKERS\":{},\"nproc\":{}}}",
            quote(&self.workload),
            self.seed,
            HELD_OUT_SEED,
            self.seconds,
            self.trace,
            quote(&commit()),
            quote(&cama_core::kernel::describe()),
            quote(&env("CAMA_KERNEL")),
            quote(&env("CAMA_DFA")),
            quote(&env("CAMA_WORKERS")),
            nproc
        )
    }
}

/// The checked-out commit, read from the repository's `.git` when the
/// benchmark runs inside a git checkout, else `unknown`.
fn commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let Ok(head) = std::fs::read_to_string(format!("{git}/HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(format!("{git}/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(format!("{git}/packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number. Values are printed with every digit Rust's shortest
/// round-trip formatting gives; a non-finite value (a measurement bug)
/// prints as `null`.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` over `metrics`.
fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The metrics a run reports: every end-to-end metric untraced, every
/// per-layer metric traced (0 where the workload has no such layer).
pub fn reported(outcome: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, outcome.layer.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    outcome.e2e.get(name).copied().unwrap_or(f64::NAN),
                    unit,
                )
            })
            .collect()
    }
}

/// The final result line.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = reported(outcome, trace);
    let finite = metrics.iter().all(|&(_, v, _)| v.is_finite());
    let correct = outcome.failed == 0 && outcome.attempted > 0 && finite;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(metrics.into_iter())
    )
}

/// The result file: stamp, outcome, metrics split into host-time and
/// deterministic sections, and (traced) the spans.
pub fn result_file(stamp: &Stamp, outcome: &Outcome, trace: bool) -> String {
    let mut out = format!(
        "{{\n\"stamp\": {},\n\"attempted\": {},\n\"failed\": {},\n",
        stamp.to_json(),
        outcome.attempted,
        outcome.failed
    );
    if trace {
        let section = |kind: Kind| {
            metrics_json(PER_LAYER.iter().filter(|&&(_, _, k)| k == kind).map(
                |&(name, unit, _)| (name, outcome.layer.get(name).copied().unwrap_or(0.0), unit),
            ))
        };
        let _ = write!(
            out,
            "\"wall\": {},\n\"deterministic\": {},\n\"spans\": {}\n}}\n",
            section(Kind::Wall),
            section(Kind::Counter),
            outcome
                .tracer
                .as_ref()
                .map_or("[]".to_string(), Tracer::to_json)
        );
    } else {
        let _ = write!(
            out,
            "\"end_to_end\": {}\n}}\n",
            metrics_json(reported(outcome, false).into_iter())
        );
    }
    out
}

/// Resident-set figures of this process from `/proc/self/status`, in
/// MiB: `(current, peak)`.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map_or(f64::NAN, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this module reports.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        let mut expected: Vec<&str> = vec!["ids_serve", "rule_update"];
        expected.extend(END_TO_END.iter().map(|&(n, _)| n));
        expected.extend(PER_LAYER.iter().map(|&(n, ..)| n));
        let mut sorted_names = names.clone();
        sorted_names.sort_unstable();
        expected.sort_unstable();
        assert_eq!(sorted_names, expected);
        for &(name, unit) in END_TO_END {
            assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")));
        }
        for &(name, unit, _) in PER_LAYER {
            assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")));
        }
    }

    #[test]
    fn result_line_reports_every_listed_metric() {
        let mut outcome = Outcome::default();
        for &(name, _) in END_TO_END {
            outcome.e2e(name, 1.5);
        }
        outcome.check(true);
        let line = result_line(&outcome, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for &(name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        // A missing end-to-end value makes the run incorrect.
        outcome.e2e.remove("setup_s");
        assert!(result_line(&outcome, false).starts_with("{\"correct\": false"));
        // Traced: layers the workload lacks read 0.
        let traced = result_line(&outcome, true);
        assert!(traced.contains("\"arch.map_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }

    #[test]
    fn quote_escapes_json() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
