//! Data encoding schemes and the optimization framework of CAMA (§V).
//!
//! CAMA replaces the 256-bit one-hot state matching of prior in-memory
//! automata engines with short codes searched inside an 8T CAM. The CAM's
//! match rule (a stored `1` must see an input `1`; a stored `0` is a
//! don't-care) requires every symbol code to carry a *fixed number of
//! zeros*; compression of several symbols into one entry flips additional
//! ones to zeros.
//!
//! The pipeline implemented here mirrors the paper's toolchain:
//!
//! 1. [`negation`] — Negation Optimization (NO): store the complement of
//!    large classes and invert the row output;
//! 2. [`scheme`] — the four code families (One-Zero, Multi-Zeros,
//!    Two-Zeros-Prefix, One-Zero-Prefix) and the code-length equations;
//! 3. [`clustering`] — frequency-first symbol clustering so co-occurring
//!    symbols share a prefix;
//! 4. [`codebook`] — symbol → code assignment;
//! 5. [`compress`] — exact greedy compression of a symbol class into CAM
//!    entries (never a false positive or negative);
//! 6. [`plan`] — the end-to-end [`EncodingPlan`] that
//!    selects a scheme for an NFA and encodes every state;
//! 7. [`compile`] — lowering a plan into an executable
//!    [`CompiledEncodedAutomaton`](cama_core::compiled::CompiledEncodedAutomaton)
//!    (flat or sharded), so the functional engines run on the same CAM
//!    image the energy model charges for.
//!
//! # Examples
//!
//! ```
//! use cama_core::regex;
//! use cama_encoding::plan::EncodingPlan;
//!
//! let nfa = regex::compile("(a|b)e*cd+")?;
//! let plan = EncodingPlan::for_nfa(&nfa);
//! // Every state fits in one entry for this tiny alphabet.
//! assert_eq!(plan.total_entries(), nfa.len());
//! // Encoded matching is exact for every state and every byte.
//! plan.verify_exact(&nfa).unwrap();
//! # Ok::<(), cama_core::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod clustering;
pub mod code;
pub mod codebook;
pub mod compile;
pub mod compress;
pub mod negation;
pub mod plan;
pub mod scheme;
pub mod strided;

pub use code::{CamEntry, Code};
pub use codebook::Codebook;
pub use plan::{EncodedState, EncodingPlan};
pub use scheme::Scheme;
pub use strided::StridedEncoding;
