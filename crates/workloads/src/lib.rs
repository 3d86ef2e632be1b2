//! The 21-benchmark workload suite: synthetic stand-ins for ANMLZoo and
//! the Regex suite, matched to the statistics the paper publishes.
//!
//! The real benchmark files are large data artifacts that are not
//! redistributable here; every pipeline in this reproduction (encoding
//! selection, clustering, compression, mapping, energy) observes only
//! the statistics of Table I/II plus the connectivity shape — so each
//! benchmark is regenerated deterministically from those statistics
//! (see "Modelling assumptions and invariants" in
//! `docs/ARCHITECTURE.md` for the substitution argument).
//!
//! # Examples
//!
//! ```
//! use cama_workloads::Benchmark;
//!
//! let nfa = Benchmark::Brill.generate(0.02);
//! assert!(nfa.len() > 500);
//! let stream = Benchmark::Brill.input(&nfa, 4096, 1);
//! assert_eq!(stream.len(), 4096);
//! ```

#![forbid(unsafe_code)]

pub mod classgen;
pub mod input;
pub mod spec;
pub mod structure;

pub use spec::{BenchmarkSpec, Family, SPECS};

use cama_core::Nfa;
use classgen::ClassRecipe;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One of the paper's 21 benchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Benchmark {
    /// Brill tagging rules (ANMLZoo).
    Brill,
    /// ClamAV virus signatures (ANMLZoo).
    ClamAv,
    /// `.*`-heavy synthetic regexes (ANMLZoo).
    Dotstar,
    /// Fermi particle-track patterns (ANMLZoo).
    Fermi,
    /// TCP stream rules (Regex suite).
    Tcp,
    /// Protein motif signatures (ANMLZoo).
    Protomata,
    /// Snort network-intrusion rules (ANMLZoo).
    Snort,
    /// Hamming-distance template matching (ANMLZoo).
    Hamming,
    /// IBM PowerEN rule set (ANMLZoo).
    PowerEn,
    /// Levenshtein-distance automata (ANMLZoo).
    Levenshtein,
    /// Decision-forest classifier (ANMLZoo).
    RandomForest,
    /// Record-matching automata (ANMLZoo).
    EntityResolution,
    /// Bro IDS rules, 217 patterns (Regex suite).
    Bro217,
    /// Dotstar with 30 % `.*` (Regex suite).
    Dotstar03,
    /// Dotstar with 60 % `.*` (Regex suite).
    Dotstar06,
    /// Dotstar with 90 % `.*` (Regex suite).
    Dotstar09,
    /// Range-heavy rules, 1 range per pattern (Regex suite).
    Ranges1,
    /// Range-heavy rules, 0.5 ranges per pattern (Regex suite).
    Ranges05,
    /// Sequential pattern mining (ANMLZoo).
    Spm,
    /// Synthetic block rings (ANMLZoo).
    BlockRings,
    /// Exact string matching (Regex suite).
    ExactMatch,
}

impl Benchmark {
    /// All benchmarks in the paper's table order.
    pub const ALL: [Benchmark; 21] = [
        Benchmark::Brill,
        Benchmark::ClamAv,
        Benchmark::Dotstar,
        Benchmark::Fermi,
        Benchmark::Tcp,
        Benchmark::Protomata,
        Benchmark::Snort,
        Benchmark::Hamming,
        Benchmark::PowerEn,
        Benchmark::Levenshtein,
        Benchmark::RandomForest,
        Benchmark::EntityResolution,
        Benchmark::Bro217,
        Benchmark::Dotstar03,
        Benchmark::Dotstar06,
        Benchmark::Dotstar09,
        Benchmark::Ranges1,
        Benchmark::Ranges05,
        Benchmark::Spm,
        Benchmark::BlockRings,
        Benchmark::ExactMatch,
    ];

    /// Index into [`SPECS`].
    fn index(self) -> usize {
        Benchmark::ALL
            .iter()
            .position(|&b| b == self)
            .expect("benchmark is in ALL")
    }

    /// The published statistics for this benchmark.
    pub fn spec(self) -> &'static BenchmarkSpec {
        &SPECS[self.index()]
    }

    /// The canonical name.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Generates the benchmark automaton at `scale` (1.0 = the paper's
    /// state count). Deterministic: the same scale yields the same NFA.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn generate(self, scale: f64) -> Nfa {
        assert!(scale > 0.0, "scale must be positive");
        let spec = self.spec();
        let target = ((spec.states as f64 * scale) as usize).max(64);
        let mut rng = StdRng::seed_from_u64(0xCACA_0000 + self.index() as u64);
        // Real rule sets reuse a limited set of distinct classes that
        // tile the alphabet; the pool reproduces that.
        let recipe = ClassRecipe::for_targets(
            spec.alphabet_size,
            spec.avg_class_size,
            spec.avg_class_size_no,
        )
        .with_pool();
        match spec.family {
            Family::Chains => structure::build_chains(spec.name, target, &recipe, &mut rng),
            Family::Grid => {
                let (distance, length, insertions) = if self == Benchmark::Levenshtein {
                    (3, 24, true)
                } else {
                    (2, 20, false)
                };
                structure::build_grid(
                    spec.name, target, distance, length, insertions, &recipe, &mut rng,
                )
            }
            Family::Rings => structure::build_rings(spec.name, target, 33, &mut rng),
            Family::Trees => structure::build_trees(spec.name, target, 4, 5, &recipe, &mut rng),
            Family::DenseMesh => {
                structure::build_dense_mesh(spec.name, target, 190, &recipe, &mut rng)
            }
        }
    }

    /// Generates the full-scale benchmark automaton.
    pub fn generate_full(self) -> Nfa {
        self.generate(1.0)
    }

    /// Generates an input stream tuned to this benchmark's activity
    /// profile.
    pub fn input(self, nfa: &Nfa, len: usize, seed: u64) -> Vec<u8> {
        input::generate(nfa, len, self.spec().input_hit_rate, seed)
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cama_core::stats::class_stats;

    #[test]
    fn all_names_match_specs() {
        for bench in Benchmark::ALL {
            assert_eq!(bench.to_string(), bench.spec().name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Benchmark::Bro217.generate(0.5);
        let b = Benchmark::Bro217.generate(0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn scaled_state_counts_are_close() {
        for bench in [Benchmark::Brill, Benchmark::Snort, Benchmark::Spm] {
            let target = (bench.spec().states as f64 * 0.05) as usize;
            let nfa = bench.generate(0.05);
            let got = nfa.len();
            assert!(
                (got as f64) > 0.9 * target as f64 && (got as f64) < 1.15 * target as f64,
                "{bench}: target {target}, got {got}"
            );
        }
    }

    #[test]
    fn class_statistics_track_the_spec() {
        // Moderate scale keeps the sampling noise low.
        for bench in [
            Benchmark::Brill,
            Benchmark::Tcp,
            Benchmark::Fermi,
            Benchmark::Spm,
            Benchmark::RandomForest,
            Benchmark::EntityResolution,
        ] {
            let spec = bench.spec();
            let nfa = bench.generate(0.2);
            let stats = class_stats(&nfa);
            let raw_err =
                (stats.avg_class_size - spec.avg_class_size).abs() / spec.avg_class_size.max(1.0);
            let no_err = (stats.avg_class_size_no - spec.avg_class_size_no).abs()
                / spec.avg_class_size_no.max(1.0);
            assert!(
                raw_err < 0.25,
                "{bench}: raw {} vs spec {}",
                stats.avg_class_size,
                spec.avg_class_size
            );
            assert!(
                no_err < 0.25,
                "{bench}: NO {} vs spec {}",
                stats.avg_class_size_no,
                spec.avg_class_size_no
            );
        }
    }

    #[test]
    fn alphabets_match_the_spec() {
        for bench in [
            Benchmark::BlockRings,
            Benchmark::Ranges1,
            Benchmark::ExactMatch,
        ] {
            let nfa = bench.generate(0.2);
            let stats = class_stats(&nfa);
            let spec = bench.spec();
            assert!(
                stats.alphabet_size <= spec.alphabet_size,
                "{bench}: alphabet {} vs spec {}",
                stats.alphabet_size,
                spec.alphabet_size
            );
            assert!(
                stats.alphabet_size as f64 >= 0.8 * spec.alphabet_size as f64,
                "{bench}: alphabet {} vs spec {}",
                stats.alphabet_size,
                spec.alphabet_size
            );
        }
    }

    #[test]
    fn every_benchmark_generates_and_runs() {
        use cama_sim::Simulator;
        for bench in Benchmark::ALL {
            let nfa = bench.generate(0.01);
            assert!(!nfa.is_empty(), "{bench}");
            let stream = bench.input(&nfa, 512, 3);
            let result = Simulator::new(&nfa).run(&stream);
            assert_eq!(result.activity.cycles, 512, "{bench}");
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = Benchmark::Brill.generate(0.0);
    }
}
