//! # CAMA — CAM-enabled automata processing
//!
//! A reproduction of *CAMA: Energy and Memory Efficient Automata
//! Processing in Content-Addressable Memories* (HPCA 2022). This facade
//! crate re-exports the whole workspace:
//!
//! * [`core`] — homogeneous NFAs, regex compilation, ANML/MNRL
//!   I/O, stride and bit-width transforms;
//! * [`encoding`] — the paper's data-encoding schemes,
//!   selection algorithm, symbol clustering, and CAM compression;
//! * [`mem`] — 28 nm circuit models and functional CAM /
//!   crossbar arrays;
//! * [`sim`] — the cycle-accurate functional simulator, including the
//!   streaming-session layer and the multi-stream stream table;
//! * [`arch`] — full designs (CAMA-E/T, CA, Impala, eAP, AP),
//!   the mapping toolchain, and the timing/area/energy models;
//! * [`workloads`] — the 21-benchmark synthetic suite.
//!
//! # Quickstart
//!
//! ```
//! use cama::core::regex;
//! use cama::sim::Simulator;
//!
//! let nfa = regex::compile("(a|b)e*cd+")?;
//! let run = Simulator::new(&nfa).run(b"xbeecddy");
//! let offsets: Vec<usize> = run.reports.iter().map(|r| r.offset).collect();
//! assert_eq!(offsets, vec![5, 6]);
//! # Ok::<(), cama::core::Error>(())
//! ```

#![forbid(unsafe_code)]

pub use cama_arch as arch;
pub use cama_core as core;
pub use cama_encoding as encoding;
pub use cama_mem as mem;
pub use cama_sim as sim;
pub use cama_workloads as workloads;
