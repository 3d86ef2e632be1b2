//! Core automata substrate for the CAMA reproduction (HPCA 2022).
//!
//! This crate provides everything upstream of the hardware models:
//!
//! * [`SymbolClass`] — 256-bit symbol sets with negation support;
//! * [`Nfa`]/[`NfaBuilder`] — the homogeneous (ANML-style) NFA of STEs;
//! * [`compiled`] — dense CAM-friendly execution plans (full symbol →
//!   match-vector tables, CSR adjacency, packed report metadata) that
//!   the simulator engines run on;
//! * [`regex`] — a regex parser and Glushkov compiler to homogeneous NFAs;
//! * [`anml`] and [`mnrl`] — readers/writers for the interchange formats
//!   used by ANMLZoo and the automata-processing toolchains;
//! * [`kernel`] — the scalar whole-slice word loops (row summaries,
//!   union, intersection test, popcount, the non-selective 2-stride
//!   sweep);
//! * [`compile`] — ruleset-scale compilation: per-component units,
//!   structure-hashed plan caching, parallel compile drivers, and the
//!   [`PlanRemap`] that live hot swap translates state ids through;
//! * [`graph`] — connected components and BFS orderings for mapping;
//! * [`stats`] — the per-benchmark statistics reported in Table I;
//! * [`stride`] — the 2-stride (alphabet-squaring) transform;
//! * [`bitwidth`] — the 8-bit → 4-bit nibble rectangles that price
//!   Impala's 4-bit match rows;
//! * [`bitset::BitSet`] — the dynamic bit set shared by the simulator and
//!   the hardware models.
//!
//! # Examples
//!
//! Compile a regex and inspect the automaton:
//!
//! ```
//! use cama_core::regex::compile;
//!
//! let nfa = compile("(a|b)e*cd+")?;
//! assert_eq!(nfa.len(), 5);
//! assert_eq!(nfa.start_states().count(), 2);
//! # Ok::<(), cama_core::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod anml;
pub mod bitset;
pub mod bitwidth;
pub mod compile;
pub mod compiled;
pub mod error;
pub mod graph;
pub mod json;
pub mod kernel;
pub mod mnrl;
pub mod nfa;
pub mod regex;
pub mod stats;
pub mod stride;
pub mod symbol;
pub mod xml;

pub use compile::{CacheStats, CompileReport, PlanCache, PlanRemap, StructureHash};
pub use compiled::{CompiledAutomaton, CompiledEncodedStridedAutomaton, CompiledStridedAutomaton};
pub use error::{Error, Result};
pub use nfa::{BuildOptions, Nfa, NfaBuilder, StartKind, Ste, SteId};
pub use symbol::{SymbolClass, ALPHABET};

/// The deepest nesting the recursive-descent parsers accept: regex
/// groups plus stacked quantifiers ([`regex::parse`]), JSON arrays and
/// objects ([`json::parse`]), and XML elements
/// ([`xml::parse_document`]). Deeper input is untrusted and returns the
/// parser's syntax error instead of overflowing the stack.
pub const MAX_NESTING: usize = 256;
