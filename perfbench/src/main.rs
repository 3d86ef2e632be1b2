//! The CAMA workspace benchmark: two workloads through the public
//! paths users call, every output checked against an independent path.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload ids_serve --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! same workload with spans around every layer call plus narrow
//! re-runs, and prints the per-layer metrics. The last stdout line is
//! the JSON result; a fuller record (environment stamp, deterministic
//! counters apart from host times, spans) goes to
//! `perfbench/out/<workload>-seed<seed>-trace<0|1>.json`. See
//! `perfbench/README.md` for every metric's definition.

mod gen;
mod ids_serve;
mod layers;
mod report;
mod rule_update;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Outcome, Stamp};

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <ids_serve|rule_update> --seed <n> --seconds <n> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    };
    if args.seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Set-up repetitions: at least [`SETUP_MIN`], more while they fit in
/// [`SETUP_BUDGET`], at most [`SETUP_MAX`].
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// A workload's state after [`repeat_setup`], with the set-ups' times.
pub struct SetUp<T> {
    pub state: T,
    /// Median seconds of one whole set-up.
    pub median_s: f64,
    /// Seconds of the first set-up, the only one that starts on a
    /// fresh heap.
    pub first_s: f64,
    /// Median seconds of the compile part.
    pub compile_s: f64,
}

/// Runs a workload's set-up several times and keeps the last one.
/// `setup` returns its state and the part of its time spent compiling.
/// Each earlier state is dropped before the next set-up starts, so
/// peak memory holds one.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> (T, f64)) -> SetUp<T> {
    let begin = Instant::now();
    let (mut totals, mut compiles) = (Vec::new(), Vec::new());
    let mut last = None;
    while totals.len() < SETUP_MIN || (begin.elapsed() < SETUP_BUDGET && totals.len() < SETUP_MAX) {
        drop(last.take());
        let start = Instant::now();
        let (state, compile_s) = setup();
        totals.push(start.elapsed().as_secs_f64());
        compiles.push(compile_s);
        last = Some(state);
    }
    SetUp {
        state: last.expect("set-up ran at least once"),
        median_s: stats::median(&totals),
        first_s: totals[0],
        compile_s: stats::median(&compiles),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "ids_serve" => ids_serve::run(&args),
        "rule_update" => rule_update::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = Stamp {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    for (name, value, unit) in report::reported(&outcome, args.trace) {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    println!("stamp {}", stamp.to_json());
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{dir}/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, report::result_file(&stamp, &outcome, args.trace)));
    if let Err(error) = written {
        eprintln!("could not write {path}: {error}");
    }
    println!("{}", report::result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let parsed = args("--workload ids_serve --seed 4 --seconds 10 --trace 1").unwrap();
        assert_eq!(parsed.workload, "ids_serve");
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (4, 10, true));
        assert!(args("--workload ids_serve --seed 4 --seconds 10").is_err());
        assert!(args("--workload ids_serve --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload ids_serve --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload ids_serve --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn repeat_setup_keeps_the_last_state_and_medians() {
        let mut calls = 0;
        let setup = repeat_setup(|| {
            calls += 1;
            (calls, f64::from(calls))
        });
        let state = setup.state;
        assert!(state >= SETUP_MIN as i32 && state <= SETUP_MAX as i32);
        assert_eq!(
            setup.compile_s,
            stats::median(&(1..=state).map(f64::from).collect::<Vec<_>>())
        );
        assert!(setup.first_s >= 0.0 && setup.median_s >= 0.0);
    }
}
