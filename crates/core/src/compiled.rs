//! Compiled execution plans: the CAM-friendly dense layout of an
//! automaton that the simulator executes.
//!
//! The paper's premise is that automata processing gets fast and
//! energy-efficient when the NFA is *compiled down* to dense match and
//! routing structures instead of interpreted pointer-chasing structure:
//! a CAM array answers "which states accept this symbol" in one search,
//! and a local switch answers "which states do the active ones enable"
//! in one route.
//!
//! CAMA reconfigures one state-matching datapath instead of building one
//! per mode, and every plan here is likewise one [`CompiledPlan`] body:
//!
//! * a CSR adjacency — one offsets array plus one flat successor
//!   array — replacing per-state `Vec` chasing (the switch fabric);
//! * precomputed start masks for both start kinds;
//! * packed report metadata: a report mask plus rank-indexed codes (and,
//!   for 2-stride plans, report phases).
//!
//! The body is parameterized by its *match-row source*: the CAM search
//! result for every possible input symbol, stored as flat cache-blocked
//! row tables whose rows carry one-bit-per-word summaries.
//!
//! | plan | row source | a cycle's match vector |
//! |---|---|---|
//! | [`CompiledAutomaton`] | [`ByteRows`]`<`[`ByteClasses`]`>` | `rows[class(symbol)]` |
//! | [`CompiledEncodedAutomaton`] | [`ByteRows`]`<`[`Codebook`]`>` | `rows[code(symbol)]` |
//! | [`CompiledStridedAutomaton`] | [`PairRows`]`<`[`ByteClasses`]`>` | `first[class1(a)] & second[class2(b)]` |
//! | [`CompiledEncodedStridedAutomaton`] | [`PairRows`]`<`[`Codebook`]`>` | `first[code1(a)] & second[code2(b)]` |
//!
//! A byte-cycle source holds one row table plus precompiled start rows
//! (`rows & all-input`). A pair-cycle source holds one table per half of
//! the 2-stride search word plus the first half's start rows, which
//! avoids the 64 Ki-entry squared-alphabet table. Either is indexed
//! through a 256-entry lookup, the software form of CAMA's input
//! encoder. For raw-byte plans that lookup is [`ByteClasses`]: bytes
//! that every state accepts alike share one row, so a component that
//! tells `k` byte classes apart stores `k` rows, not 256 (CAMA's case
//! for storing narrow codes instead of one-hot symbol classes, made
//! lossless). For encoded plans it is a [`Codebook`], whose rows are
//! derived by evaluating every state's stored CAM entries (negated
//! entries included) against each code, so the functional engine
//! exercises exactly the entry layout the energy model charges for. The
//! index is a type parameter: the per-cycle lookup has no branch on the
//! flavour.
//!
//! With this plan the per-cycle step is word-level:
//! `active = match_vector & enabled`, 64 states at a time, which is what
//! `cama-sim`'s engines execute through [`ExecutionPlan`] (byte cycles)
//! and [`StridedPlan`] (pair cycles). [`ShardPlan`] adds the idle-skip
//! probes each cycle shape derives, which lets any flavour act as the
//! per-shard plan of a [`ShardedAutomaton`]. Its constructors are one
//! shell builder over [`Automaton`], so byte and 2-stride automata shard
//! through the same code.
//!
//! # Examples
//!
//! ```
//! use cama_core::compiled::{CompiledAutomaton, ShardedAutomaton};
//! use cama_core::regex;
//!
//! let nfa = regex::compile_set(&["ab+c", "xy+z"])?;
//! // The flat plan: one dense layout over the whole automaton.
//! let flat = CompiledAutomaton::compile(&nfa);
//! assert_eq!(flat.len(), nfa.len());
//! // The same states split across two simulated CAM arrays (shards
//! // never split a connected component); the engines produce
//! // bit-identical results on either.
//! let sharded = ShardedAutomaton::compile(&nfa, 2);
//! assert_eq!(sharded.num_shards(), 2);
//! assert_eq!(sharded.len(), nfa.len());
//! # Ok::<(), cama_core::Error>(())
//! ```

use crate::bitset::{BitSet, Row};
use crate::graph::{component_ids, Automaton};
use crate::kernel;
use crate::nfa::{Nfa, StartKind, SteId};
use crate::stride::{paired_entries, ReportPhase, StridedNfa, StridedSte};
use crate::symbol::{SymbolClass, ALPHABET};

/// Packed report metadata: a mask of reporting states plus their codes,
/// and for 2-stride plans their phases, stored rank-indexed (one entry
/// per reporting state, not per state).
#[derive(Clone, Debug, PartialEq, Eq)]
struct ReportTable {
    /// Bit `i` set iff state `i` reports.
    mask: BitSet,
    /// Number of reporting states in words `0..w` of `mask`, per word.
    word_rank: Vec<u32>,
    /// Report codes of reporting states, in state order.
    codes: Vec<u32>,
    /// Report phases of reporting states, in state order (empty for
    /// byte plans).
    phases: Vec<ReportPhase>,
}

impl ReportTable {
    /// The rank of a reporting `state`: its index into `codes` and
    /// `phases`.
    #[inline]
    fn rank(&self, state: usize) -> usize {
        let word = state / 64;
        let below = self.mask.as_words()[word] & ((1u64 << (state % 64)) - 1);
        self.word_rank[word] as usize + below.count_ones() as usize
    }
}

/// A flat table of fixed-width bit rows — the storage layout of every
/// per-symbol match table.
///
/// All rows live back to back in one `Vec<u64>`, each at its exact
/// `len.div_ceil(64)` words, so [`row`](RowTable::row) is one contiguous
/// slice and a table of `n` rows holds `n × len.div_ceil(64)` words. Each
/// row's one-bit-per-word nonzero summary (the selective-precharge
/// analogue: 64-state words that cannot match a symbol are never
/// visited) is packed the same way in a second flat array.
#[derive(Clone, Debug)]
struct RowTable {
    /// Bits per row.
    len: usize,
    /// Words per row (`len.div_ceil(64)`).
    words_per_row: usize,
    /// Words per row summary (`words_per_row.div_ceil(64)`).
    summary_words: usize,
    /// `num_rows * words_per_row` words.
    data: Vec<u64>,
    /// `num_rows * summary_words` words.
    summaries: Vec<u64>,
}

impl RowTable {
    /// Packs `rows` (each of capacity `len` bits) into the flat layout.
    ///
    /// # Panics
    ///
    /// Panics if any row's capacity differs from `len`.
    fn from_rows(len: usize, rows: &[BitSet]) -> RowTable {
        let words_per_row = len.div_ceil(64);
        let summary_words = words_per_row.div_ceil(64);
        let mut data = Vec::with_capacity(rows.len() * words_per_row);
        let mut summaries = vec![0u64; rows.len() * summary_words];
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), len, "row capacity mismatch");
            data.extend_from_slice(row.as_words());
            kernel::summarize(
                row.as_words(),
                &mut summaries[i * summary_words..(i + 1) * summary_words],
            );
        }
        RowTable {
            len,
            words_per_row,
            summary_words,
            data,
            summaries,
        }
    }

    /// Packs a match table together with its start rows
    /// (`table[row] & all_input`): the statically enabled states that
    /// accept each row's symbol, precompiled so the per-cycle start
    /// injection touches only the (typically very few) words where a
    /// start state actually matches.
    fn with_starts(table: &[BitSet], all_input: &BitSet) -> (RowTable, RowTable) {
        let starts: Vec<BitSet> = table
            .iter()
            .map(|row| {
                let mut statically_matched = row.clone();
                statically_matched.intersect_with(all_input);
                statically_matched
            })
            .collect();
        (
            RowTable::from_rows(all_input.len(), table),
            RowTable::from_rows(all_input.len(), &starts),
        )
    }

    /// Row `i` as a borrowed exact-length view.
    #[inline]
    fn row(&self, i: usize) -> Row<'_> {
        let start = i * self.words_per_row;
        Row::from_words(self.len, &self.data[start..start + self.words_per_row])
    }

    /// The one-bit-per-word nonzero summary of row `i`.
    #[inline]
    fn summary(&self, i: usize) -> &[u64] {
        &self.summaries[i * self.summary_words..(i + 1) * self.summary_words]
    }
}

/// The plan shape every compiled flavour shares — state count, start
/// masks, packed report mask, and the CSR successor adjacency — split
/// out of [`ExecutionPlan`] so the [`ShardedAutomaton`] shell (and any
/// other plan consumer that does not step cycles itself) can hold byte,
/// encoded, and strided plans behind one bound. Implemented once, by
/// [`CompiledPlan`].
pub trait PlanBase: Sync {
    /// Number of states.
    fn len(&self) -> usize;

    /// Returns `true` if the plan has no states.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of activation edges.
    fn num_edges(&self) -> usize;

    /// States statically enabled on every cycle (`all-input` starts).
    fn all_input_mask(&self) -> &BitSet;

    /// States enabled only on the first cycle (`start-of-data` starts).
    fn start_of_data_mask(&self) -> &BitSet;

    /// The word-level summary of
    /// [`start_of_data_mask`](Self::start_of_data_mask).
    fn start_of_data_any(&self) -> &[u64];

    /// The mask of reporting states.
    fn report_mask(&self) -> &BitSet;

    /// CSR successor slice of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    fn successors(&self, state: usize) -> &[u32];
}

/// The per-cycle row interface a byte-stream execution plan exposes to
/// the engines: per-symbol match and start-match rows with their
/// one-bit-per-word summaries, and packed report codes.
///
/// Implemented once, by every plan over a [`ByteRows`] source — rows
/// indexed by the byte class of the 8-bit symbol ([`CompiledAutomaton`])
/// or by the code the input encoder produces for it
/// ([`CompiledEncodedAutomaton`]) — so a single stepping loop in
/// `cama-sim`, and a single [`ShardedAutomaton`] shell, drives both
/// layouts. The paired-symbol counterpart is [`StridedPlan`].
pub trait ExecutionPlan: PlanBase {
    /// The match vector of `symbol`: every state accepting it, as a
    /// contiguous [`Row`] into the flat match table.
    fn match_vector(&self, symbol: u8) -> Row<'_>;

    /// The word-level summary of [`match_vector`](Self::match_vector):
    /// bit `j` set iff word `j` of the match vector is nonzero.
    fn match_any(&self, symbol: u8) -> &[u64];

    /// The statically matched start states for `symbol`:
    /// `match_vector(symbol) & all_input_mask()`.
    fn start_match(&self, symbol: u8) -> Row<'_>;

    /// The word-level summary of [`start_match`](Self::start_match).
    fn start_match_any(&self, symbol: u8) -> &[u64];

    /// The report code of a state known to report (O(1), packed).
    ///
    /// # Panics
    ///
    /// May panic or return an arbitrary code if `state` is not
    /// reporting; callers must consult [`report_mask`](PlanBase::report_mask)
    /// first.
    fn report_code_unchecked(&self, state: usize) -> u32;

    /// The match-row index of an input symbol: its [`ByteClasses`] class
    /// for byte plans, the encoder's code for encoded plans. Two symbols
    /// with equal row indices are indistinguishable to the plan, which
    /// is what [`CompiledDfa::determinize`] exploits to build one
    /// transition column per *row*, not per raw byte.
    fn row_of_symbol(&self, symbol: u8) -> u32;

    /// Number of distinct match-row indices
    /// ([`row_of_symbol`](Self::row_of_symbol) is always `< alphabet_rows`):
    /// the number of byte classes the plan tells apart (`1..=256`) for
    /// byte plans, `num_codes + 1` for encoded plans (one extra row for
    /// out-of-codebook symbols).
    fn alphabet_rows(&self) -> usize;
}

/// The paired-symbol flavour of [`ExecutionPlan`]: the per-cycle row
/// interface of a 2-stride plan, factored per half. A pair cycle's
/// activation is `first[a] & second[b] & enabled`, so the plan exposes
/// each half's match rows (and the *first* half's precompiled
/// start-match rows, `first[a] & all_input`) with their word summaries;
/// the engines fuse the three-way AND per dirty word, skipping 64-state
/// words either half's summary rules out — the strided form of CAMA's
/// selective precharge.
///
/// Implemented once, by every plan over a [`PairRows`] source — halves
/// each indexed by its own byte classes ([`CompiledStridedAutomaton`])
/// or each routed through its own codebook
/// ([`CompiledEncodedStridedAutomaton`]) — so a single paired stepping
/// loop in `cama-sim`, and the same [`ShardedAutomaton`] shell, drives
/// both.
pub trait StridedPlan: PlanBase {
    /// The first-half match vector: states whose first class accepts
    /// `a`, as a contiguous [`Row`] into the flat table.
    fn first_vector(&self, a: u8) -> Row<'_>;

    /// The word-level summary of [`first_vector`](Self::first_vector).
    fn first_any(&self, a: u8) -> &[u64];

    /// The second-half match vector: states whose second class accepts
    /// `b`.
    fn second_vector(&self, b: u8) -> Row<'_>;

    /// The word-level summary of [`second_vector`](Self::second_vector).
    fn second_any(&self, b: u8) -> &[u64];

    /// The statically matched start states for first symbol `a`:
    /// `first_vector(a) & all_input_mask()`. ANDed with
    /// [`second_vector`](Self::second_vector) this is the pair cycle's
    /// start injection.
    fn first_start_match(&self, a: u8) -> Row<'_>;

    /// The word-level summary of
    /// [`first_start_match`](Self::first_start_match).
    fn first_start_match_any(&self, a: u8) -> &[u64];

    /// The `(code, phase)` of a reporting state (O(1), packed).
    ///
    /// # Panics
    ///
    /// May panic or return arbitrary data if `state` is not reporting;
    /// callers must consult [`report_mask`](PlanBase::report_mask) first.
    fn report_pair_unchecked(&self, state: usize) -> (u32, ReportPhase);
}

/// A plan a [`Shard`] can hold: the [`PlanBase`] shape plus the O(1)
/// idle-skip start probes its cycle shape derives. Implemented once for
/// byte cycles (plans over [`ByteRows`]) and once for pair cycles (plans
/// over [`PairRows`]), so every shard builder derives the probes the
/// same way.
pub trait ShardPlan: PlanBase {
    /// `(start, pair)`: bit `sym` of `start` is set iff injecting starts
    /// on (first) symbol `sym` could fire. For pair cycles `pair[a]` is
    /// the exact mask of second symbols `b` for which
    /// `first_start_match(a) & second[b]` is non-empty — the per-pair
    /// start probe (the per-half probes alone are too conservative once
    /// odd-entry states with FULL first classes exist, which is every
    /// unanchored pattern). Byte cycles have no second symbol, so their
    /// `pair` is empty.
    fn start_probes(&self) -> ([u64; 4], Vec<[u64; 4]>);
}

/// How a match-row source turns an input symbol into a row index: the
/// byte's class ([`ByteClasses`]) or its learned code ([`Codebook`]).
pub trait SymbolIndex: Sync {
    /// The match row `symbol` selects.
    fn row(&self, symbol: u8) -> usize;

    /// Number of match rows; [`row`](Self::row) is always below it.
    fn num_rows(&self) -> usize;
}

/// The [`SymbolIndex`] of raw-byte plans: a 256-entry byte → class map.
/// Two bytes share a class, and so one match row, when every state of
/// the plan accepts both or neither, so a plan stores one row per class
/// its states tell apart instead of one per byte. Classes are numbered
/// by their lowest byte.
#[derive(Clone, Debug)]
pub struct ByteClasses {
    /// Byte → class row.
    map: [u8; ALPHABET],
    /// Number of classes (`1..=256`).
    classes: u16,
}

impl ByteClasses {
    /// The byte classes of `len` states, whose symbol classes
    /// `state_classes` yields in state order, and their class-indexed
    /// match table: row `c` holds every state accepting the bytes of
    /// class `c`.
    fn build(
        len: usize,
        state_classes: impl Iterator<Item = SymbolClass> + Clone,
    ) -> (ByteClasses, Vec<BitSet>) {
        // Split one block of all bytes by every state's class: two bytes
        // stay together iff no state accepts one and not the other.
        let mut blocks = vec![SymbolClass::FULL];
        for class in state_classes.clone() {
            for i in 0..blocks.len() {
                let (inside, outside) = (blocks[i] & class, blocks[i] & !class);
                if !inside.is_empty() && !outside.is_empty() {
                    blocks[i] = inside;
                    blocks.push(outside);
                }
            }
        }
        blocks.sort_by_key(SymbolClass::min_symbol);
        let mut map = [0u8; ALPHABET];
        for (row, block) in blocks.iter().enumerate() {
            for byte in block.iter() {
                map[byte as usize] = row as u8;
            }
        }
        let mut table = vec![BitSet::new(len); blocks.len()];
        for (state, class) in state_classes.enumerate() {
            for byte in class.iter() {
                table[map[byte as usize] as usize].insert(state);
            }
        }
        let classes = blocks.len() as u16;
        (ByteClasses { map, classes }, table)
    }
}

impl SymbolIndex for ByteClasses {
    #[inline]
    fn row(&self, symbol: u8) -> usize {
        self.map[symbol as usize] as usize
    }

    fn num_rows(&self) -> usize {
        self.classes as usize
    }
}

/// A codebook described as closures — how the encoded flavours receive
/// the encoding toolchain's output without `cama-core` depending on any
/// concrete toolchain. One spec describes an encoded byte plan's
/// codebook, or one half of an encoded 2-stride plan:
///
/// * `encode(symbol)` — the input-encoder lookup: the code row of a
///   symbol (`0..num_codes`), or `None` for the reserved out-of-domain
///   word;
/// * `matches(state, row)` — the CAM search outcome: whether the state's
///   stored entries (inverter included) match the code of `row`, where
///   `None` is the reserved word;
/// * `entries(state)` — CAM entries the state stores;
/// * `negated(state)` — whether the state's row output is inverted.
pub struct CodebookSpec<'a> {
    /// Code width in bits (the width of the simulated search word).
    pub code_len: usize,
    /// Number of in-domain code rows.
    pub num_codes: usize,
    /// The input-encoder lookup.
    pub encode: Box<dyn Fn(u8) -> Option<u16> + 'a>,
    /// The per-(state, row) CAM search outcome.
    pub matches: Box<dyn Fn(usize, Option<u16>) -> bool + 'a>,
    /// Entries stored per state.
    pub entries: Box<dyn Fn(usize) -> u32 + 'a>,
    /// Whether a state's row output is inverted.
    pub negated: Box<dyn Fn(usize) -> bool + 'a>,
}

/// A compiled codebook: the 256-entry symbol → code-row lookup (the
/// input-encoder image) plus the per-state CAM image metadata the energy
/// model charges for. The [`SymbolIndex`] of both encoded flavours.
#[derive(Clone, Debug)]
pub struct Codebook {
    code_len: usize,
    /// Number of in-domain code rows; row `num_codes` is the reserved
    /// out-of-domain row.
    num_codes: usize,
    /// Symbol → row index.
    encoder: Vec<u16>,
    /// CAM entries stored per state.
    entries_of: Vec<u32>,
    /// States whose row output is inverted (Negation Optimization).
    negated: BitSet,
}

impl Codebook {
    /// The one codebook builder: evaluates `spec` for `len` states into
    /// the codebook and its unpacked code-indexed match table — one row
    /// per code plus the reserved out-of-domain row, each the CAM search
    /// result of that code against every state's stored entries.
    ///
    /// # Panics
    ///
    /// Panics if `spec.encode` returns a row at or beyond
    /// `spec.num_codes`, or if `spec.num_codes` exceeds `u16::MAX`.
    fn build(len: usize, spec: &CodebookSpec<'_>) -> (Codebook, Vec<BitSet>) {
        let num_codes = spec.num_codes;
        assert!(num_codes < u16::MAX as usize, "too many codes");
        let encoder = (0..=u8::MAX)
            .map(|symbol| match (spec.encode)(symbol) {
                Some(row) => {
                    assert!(
                        (row as usize) < num_codes,
                        "code row {row} out of range (num_codes {num_codes})"
                    );
                    row
                }
                None => num_codes as u16,
            })
            .collect();
        let mut table = vec![BitSet::new(len); num_codes + 1];
        let mut negated = BitSet::new(len);
        for state in 0..len {
            for (row, vector) in table.iter_mut().enumerate() {
                if (spec.matches)(state, (row < num_codes).then_some(row as u16)) {
                    vector.insert(state);
                }
            }
            if (spec.negated)(state) {
                negated.insert(state);
            }
        }
        let codebook = Codebook {
            code_len: spec.code_len,
            num_codes,
            encoder,
            entries_of: (0..len).map(|state| (spec.entries)(state)).collect(),
            negated,
        };
        (codebook, table)
    }
}

impl SymbolIndex for Codebook {
    #[inline]
    fn row(&self, symbol: u8) -> usize {
        self.encoder[symbol as usize] as usize
    }

    fn num_rows(&self) -> usize {
        // Codes 0..num_codes plus the reserved out-of-codebook row.
        self.num_codes + 1
    }
}

/// The byte-cycle match-row source: one row table indexed through `I`,
/// plus the precompiled start rows (`rows & all-input`).
#[derive(Clone, Debug)]
pub struct ByteRows<I> {
    index: I,
    matches: RowTable,
    starts: RowTable,
}

impl<I> ByteRows<I> {
    fn new(index: I, table: &[BitSet], all_input: &BitSet) -> ByteRows<I> {
        let (matches, starts) = RowTable::with_starts(table, all_input);
        ByteRows {
            index,
            matches,
            starts,
        }
    }
}

/// The pair-cycle match-row source: one row table per half of the
/// 2-stride search word, each indexed through its own `I`, plus the
/// first half's start rows (`first & all-input`, pending the AND with
/// the second half's row).
#[derive(Clone, Debug)]
pub struct PairRows<I> {
    first_index: I,
    second_index: I,
    first: RowTable,
    second: RowTable,
    first_starts: RowTable,
}

impl<I> PairRows<I> {
    fn new(
        (first_index, first): (I, Vec<BitSet>),
        (second_index, second): (I, Vec<BitSet>),
        all_input: &BitSet,
    ) -> PairRows<I> {
        let (first, first_starts) = RowTable::with_starts(&first, all_input);
        PairRows {
            first_index,
            second_index,
            first,
            second: RowTable::from_rows(all_input.len(), &second),
            first_starts,
        }
    }
}

/// The dense, immutable execution plan every flavour compiles to: the
/// body shared by all of them, parameterized by its match-row source `R`
/// (see the [module docs](self) for the four aliases).
///
/// A plan is self-contained (it does not borrow the source automaton),
/// `Sync`, and intended to be shared: one compiled plan can drive any
/// number of concurrent stream simulations.
///
/// # Examples
///
/// ```
/// use cama_core::compiled::{CompiledAutomaton, ExecutionPlan};
/// use cama_core::regex;
///
/// let nfa = regex::compile("(a|b)e*cd+")?;
/// let plan = CompiledAutomaton::compile(&nfa);
/// assert_eq!(plan.len(), nfa.len());
/// // Every state whose class contains b'c' is in the match vector.
/// let matched = plan.match_vector(b'c');
/// assert_eq!(
///     matched.iter().count(),
///     nfa.stes().iter().filter(|s| s.class.contains(b'c')).count()
/// );
/// # Ok::<(), cama_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct CompiledPlan<R> {
    name: String,
    len: usize,
    /// CSR adjacency: successors of state `i` are
    /// `successors[succ_offsets[i]..succ_offsets[i + 1]]`.
    succ_offsets: Vec<u32>,
    successors: Vec<u32>,
    /// States enabled statically on every cycle (`all-input` starts).
    all_input: BitSet,
    /// States enabled only at cycle 0 (`start-of-data` starts).
    start_of_data: BitSet,
    /// Summary of `start_of_data`, one bit per 64-state word.
    start_of_data_any: Vec<u64>,
    reports: ReportTable,
    rows: R,
}

/// The byte plan: one row per byte class the states tell apart, indexed
/// through the 8-bit symbol's [`ByteClasses`] class.
pub type CompiledAutomaton = CompiledPlan<ByteRows<ByteClasses>>;

/// The encoding-aware byte plan: rows indexed by the codes of an
/// encoding codebook (CAMA's remapped input alphabet), built with
/// [`compile_with`](CompiledEncodedAutomaton::compile_with);
/// `cama_encoding::EncodingPlan::compile` is the canonical caller.
/// Symbols outside the codebook domain select the reserved row, and
/// execution is bit-identical to the byte plan exactly when the encoding
/// is exact (`verify_exact`) — which the differential harnesses in
/// `tests/property.rs` assert for every scheme.
pub type CompiledEncodedAutomaton = CompiledPlan<ByteRows<Codebook>>;

/// The 2-stride plan compiled from a [`StridedNfa`]: a state accepts
/// the pair `(a, b)` when its first class contains `a` and its second
/// class contains `b`, so the pair match vector is `first[a] & second[b]`,
/// each half indexed through its own [`ByteClasses`].
pub type CompiledStridedAutomaton = CompiledPlan<PairRows<ByteClasses>>;

/// The encoding-aware 2-stride plan: each half of the pair datapath gets
/// its own codebook, and a pair cycle ANDs the two halves' rows — the
/// software form of CAMA's two-segment match CAM searching the
/// concatenated per-half codes (cf. the banked arrays of Jarollahi et
/// al.'s clustered low-power CAM). Built with
/// [`compile_with`](CompiledEncodedStridedAutomaton::compile_with), one
/// [`CodebookSpec`] per half; `cama_encoding::StridedEncoding::compile`
/// is the canonical caller.
pub type CompiledEncodedStridedAutomaton = CompiledPlan<PairRows<Codebook>>;

impl<R> CompiledPlan<R> {
    /// The one body builder. `state(i, successors)` appends state `i`'s
    /// successors and returns its start kind and report (code, plus the
    /// phase of a 2-stride state); `rows` builds the match-row source
    /// given the `all-input` start mask.
    fn build(
        name: &str,
        len: usize,
        num_edges: usize,
        state: impl Fn(usize, &mut Vec<u32>) -> (StartKind, Option<(u32, Option<ReportPhase>)>),
        rows: impl FnOnce(&BitSet) -> R,
    ) -> CompiledPlan<R> {
        let mut all_input = BitSet::new(len);
        let mut start_of_data = BitSet::new(len);
        let mut mask = BitSet::new(len);
        let (mut codes, mut phases) = (Vec::new(), Vec::new());
        let mut succ_offsets = Vec::with_capacity(len + 1);
        let mut successors = Vec::with_capacity(num_edges);
        succ_offsets.push(0);
        for i in 0..len {
            let (start, report) = state(i, &mut successors);
            succ_offsets.push(successors.len() as u32);
            match start {
                StartKind::AllInput => all_input.insert(i),
                StartKind::StartOfData => start_of_data.insert(i),
                StartKind::None => {}
            }
            if let Some((code, phase)) = report {
                mask.insert(i);
                codes.push(code);
                phases.extend(phase);
            }
        }
        let mut word_rank = Vec::with_capacity(mask.as_words().len());
        let mut rank = 0u32;
        for &word in mask.as_words() {
            word_rank.push(rank);
            rank += word.count_ones();
        }
        let mut start_of_data_any = vec![0u64; len.div_ceil(64).div_ceil(64)];
        kernel::summarize(start_of_data.as_words(), &mut start_of_data_any);
        let rows = rows(&all_input);
        CompiledPlan {
            name: name.to_string(),
            len,
            succ_offsets,
            successors,
            all_input,
            start_of_data,
            start_of_data_any,
            reports: ReportTable {
                mask,
                word_rank,
                codes,
                phases,
            },
            rows,
        }
    }

    /// The body of `nfa`, around the row source `rows` builds.
    fn of_nfa(nfa: &Nfa, rows: impl FnOnce(&BitSet) -> R) -> CompiledPlan<R> {
        let state = |i: usize, successors: &mut Vec<u32>| {
            let id = SteId(i as u32);
            successors.extend(nfa.successors(id).iter().map(|s| s.0));
            let ste = nfa.ste(id);
            (ste.start, ste.report.map(|code| (code, None)))
        };
        Self::build(nfa.name(), nfa.len(), nfa.num_edges(), state, rows)
    }

    /// The body of a strided `nfa`, around the row source `rows` builds.
    fn of_strided(nfa: &StridedNfa, rows: impl FnOnce(&BitSet) -> R) -> CompiledPlan<R> {
        let state = |i: usize, successors: &mut Vec<u32>| {
            successors.extend_from_slice(nfa.successors(i));
            let state = nfa.state(i);
            (
                state.start,
                state.report.map(|(code, phase)| (code, Some(phase))),
            )
        };
        Self::build(nfa.name(), nfa.len(), nfa.num_edges(), state, rows)
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the plan has no states.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The compiled automaton's name (inherited from its source).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of activation edges.
    pub fn num_edges(&self) -> usize {
        self.successors.len()
    }

    /// The report code of `state`, or `None` if it does not report.
    pub fn report_code(&self, state: usize) -> Option<u32> {
        (state < self.len && self.reports.mask.contains(state))
            .then(|| self.reports.codes[self.reports.rank(state)])
    }
}

impl<R: Sync> PlanBase for CompiledPlan<R> {
    fn len(&self) -> usize {
        self.len
    }

    fn num_edges(&self) -> usize {
        self.successors.len()
    }

    fn all_input_mask(&self) -> &BitSet {
        &self.all_input
    }

    fn start_of_data_mask(&self) -> &BitSet {
        &self.start_of_data
    }

    fn start_of_data_any(&self) -> &[u64] {
        &self.start_of_data_any
    }

    fn report_mask(&self) -> &BitSet {
        &self.reports.mask
    }

    fn successors(&self, state: usize) -> &[u32] {
        &self.successors[self.succ_offsets[state] as usize..self.succ_offsets[state + 1] as usize]
    }
}

impl<I: SymbolIndex> ExecutionPlan for CompiledPlan<ByteRows<I>> {
    fn match_vector(&self, symbol: u8) -> Row<'_> {
        self.rows.matches.row(self.rows.index.row(symbol))
    }

    fn match_any(&self, symbol: u8) -> &[u64] {
        self.rows.matches.summary(self.rows.index.row(symbol))
    }

    fn start_match(&self, symbol: u8) -> Row<'_> {
        self.rows.starts.row(self.rows.index.row(symbol))
    }

    fn start_match_any(&self, symbol: u8) -> &[u64] {
        self.rows.starts.summary(self.rows.index.row(symbol))
    }

    fn report_code_unchecked(&self, state: usize) -> u32 {
        self.reports.codes[self.reports.rank(state)]
    }

    fn row_of_symbol(&self, symbol: u8) -> u32 {
        self.rows.index.row(symbol) as u32
    }

    fn alphabet_rows(&self) -> usize {
        self.rows.index.num_rows()
    }
}

impl<I: SymbolIndex> StridedPlan for CompiledPlan<PairRows<I>> {
    fn first_vector(&self, a: u8) -> Row<'_> {
        self.rows.first.row(self.rows.first_index.row(a))
    }

    fn first_any(&self, a: u8) -> &[u64] {
        self.rows.first.summary(self.rows.first_index.row(a))
    }

    fn second_vector(&self, b: u8) -> Row<'_> {
        self.rows.second.row(self.rows.second_index.row(b))
    }

    fn second_any(&self, b: u8) -> &[u64] {
        self.rows.second.summary(self.rows.second_index.row(b))
    }

    fn first_start_match(&self, a: u8) -> Row<'_> {
        self.rows.first_starts.row(self.rows.first_index.row(a))
    }

    fn first_start_match_any(&self, a: u8) -> &[u64] {
        self.rows.first_starts.summary(self.rows.first_index.row(a))
    }

    fn report_pair_unchecked(&self, state: usize) -> (u32, ReportPhase) {
        let rank = self.reports.rank(state);
        (self.reports.codes[rank], self.reports.phases[rank])
    }
}

/// Start-match occupancy per symbol.
impl<I: SymbolIndex> ShardPlan for CompiledPlan<ByteRows<I>> {
    fn start_probes(&self) -> ([u64; 4], Vec<[u64; 4]>) {
        let start = symbol_mask(|sym| self.start_match(sym).first_set().is_some());
        (start, Vec::new())
    }
}

/// First-half start-match occupancy plus the exact per-pair start
/// table, built by folding every statically enabled state's (first
/// class × second class) rectangle.
impl<I: SymbolIndex> ShardPlan for CompiledPlan<PairRows<I>> {
    fn start_probes(&self) -> ([u64; 4], Vec<[u64; 4]>) {
        let start = symbol_mask(|a| self.first_start_match(a).first_set().is_some());
        let mut pair = vec![[0u64; 4]; ALPHABET];
        for s in self.all_input_mask().iter() {
            let second = symbol_mask(|b| self.second_vector(b).contains(s));
            for (a, mask) in pair.iter_mut().enumerate() {
                if self.first_vector(a as u8).contains(s) {
                    for (word, bits) in mask.iter_mut().zip(second) {
                        *word |= bits;
                    }
                }
            }
        }
        (start, pair)
    }
}

/// The 256-bit mask of the symbols `member` accepts.
fn symbol_mask(mut member: impl FnMut(u8) -> bool) -> [u64; 4] {
    let mut mask = [0u64; 4];
    for sym in 0..ALPHABET {
        if member(sym as u8) {
            mask[sym / 64] |= 1u64 << (sym % 64);
        }
    }
    mask
}

impl CompiledAutomaton {
    /// Compiles `nfa` into its dense execution plan.
    pub fn compile(nfa: &Nfa) -> CompiledAutomaton {
        Self::of_nfa(nfa, |all_input| {
            let (classes, table) =
                ByteClasses::build(nfa.len(), nfa.stes().iter().map(|s| s.class));
            ByteRows::new(classes, &table, all_input)
        })
    }
}

impl CompiledEncodedAutomaton {
    /// Compiles `nfa` against the codebook `spec` describes (see
    /// [`CodebookSpec`]).
    ///
    /// # Panics
    ///
    /// Panics if `spec.encode` returns a row at or beyond
    /// `spec.num_codes`, or if `spec.num_codes` exceeds `u16::MAX`.
    pub fn compile_with(nfa: &Nfa, spec: CodebookSpec<'_>) -> CompiledEncodedAutomaton {
        Self::of_nfa(nfa, |all_input| {
            let (codebook, table) = Codebook::build(nfa.len(), &spec);
            ByteRows::new(codebook, &table, all_input)
        })
    }

    /// The code length in bits.
    pub fn code_len(&self) -> usize {
        self.rows.index.code_len
    }

    /// Number of distinct in-domain code rows (the reserved
    /// out-of-domain row is extra).
    pub fn num_codes(&self) -> usize {
        self.rows.index.num_codes
    }

    /// The input-encoder lookup: the code row `symbol` drives, or `None`
    /// when the symbol is outside the codebook domain. Such symbols
    /// select the reserved row, which holds exactly the states whose
    /// inverted (negated) output accepts the no-entry-matches search
    /// word; the encoding toolchain gives any automaton with negated
    /// states a full 256-symbol domain, so there the reserved row is
    /// only ever selected when it is empty (the symbol matches nothing).
    pub fn encode(&self, symbol: u8) -> Option<u16> {
        let row = self.rows.index.encoder[symbol as usize];
        ((row as usize) < self.num_codes()).then_some(row)
    }

    /// Whether `state`'s row output is inverted (Negation Optimization).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn is_negated(&self, state: usize) -> bool {
        self.rows.index.negated.contains(state)
    }

    /// Number of states using the NO inverter.
    pub fn negated_states(&self) -> usize {
        self.rows.index.negated.count()
    }
}

impl CompiledStridedAutomaton {
    /// Compiles a strided automaton into its dense execution plan.
    pub fn compile(nfa: &StridedNfa) -> CompiledStridedAutomaton {
        Self::of_strided(nfa, |all_input| {
            let half = |class: fn(&StridedSte) -> SymbolClass| {
                ByteClasses::build(nfa.len(), nfa.states().iter().map(class))
            };
            PairRows::new(half(|s| s.first), half(|s| s.second), all_input)
        })
    }
}

impl CompiledEncodedStridedAutomaton {
    /// Compiles `nfa` against one codebook per half.
    ///
    /// # Panics
    ///
    /// Panics if a half's `encode` returns a row at or beyond its
    /// `num_codes`, or if a half has more than `u16::MAX` codes.
    pub fn compile_with(
        nfa: &StridedNfa,
        first: CodebookSpec<'_>,
        second: CodebookSpec<'_>,
    ) -> CompiledEncodedStridedAutomaton {
        Self::of_strided(nfa, |all_input| {
            let first = Codebook::build(nfa.len(), &first);
            PairRows::new(first, Codebook::build(nfa.len(), &second), all_input)
        })
    }

    /// CAM entries stored by `state`, per half.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn half_entries_of(&self, state: usize) -> (u32, u32) {
        let rows = &self.rows;
        (
            rows.first_index.entries_of[state],
            rows.second_index.entries_of[state],
        )
    }
}

/// A match-row source indexed through learned codebooks: it knows how
/// many CAM entries each state occupies, the quantity the energy model
/// charges per enabled state. Implemented by both encoded sources.
pub trait EncodedRows: Sync {
    /// CAM entries `state` occupies in the match CAM.
    fn entries_of(&self, state: usize) -> u32;
}

impl EncodedRows for ByteRows<Codebook> {
    fn entries_of(&self, state: usize) -> u32 {
        self.index.entries_of[state]
    }
}

impl EncodedRows for PairRows<Codebook> {
    /// One concatenated entry per (first entry, second entry)
    /// combination, capped by [`paired_entries`].
    fn entries_of(&self, state: usize) -> u32 {
        paired_entries(
            self.first_index.entries_of[state] as usize,
            self.second_index.entries_of[state] as usize,
        )
    }
}

impl<R: EncodedRows> CompiledPlan<R> {
    /// CAM entries `state` occupies, taken from the actual encoded image
    /// (for 2-stride plans, the capped pair product of
    /// [`paired_entries`]).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn entries_of(&self, state: usize) -> u32 {
        self.rows.entries_of(state)
    }

    /// Per-state slot weights for the mapper/energy model: the stored
    /// entry count, at least 1 (an empty image still occupies a row).
    pub fn entry_weights(&self) -> Vec<u32> {
        (0..self.len).map(|s| self.entries_of(s).max(1)).collect()
    }

    /// Total CAM entries across all states.
    pub fn total_entries(&self) -> usize {
        (0..self.len).map(|s| self.entries_of(s) as usize).sum()
    }
}

/// The blow-up guard of [`CompiledDfa::determinize`]: subset
/// construction aborts — and the component stays NFA — the moment
/// either cap is exceeded. Both caps bound the *per-component* table;
/// a global cross-component memory budget is a selection-policy
/// concern (`crate::compile::DfaPolicy`), not a construction one, so
/// cached determinization outcomes stay deterministic under one budget
/// pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DfaBudget {
    /// Maximum subset states (the classic exponential-blow-up guard).
    pub max_states: usize,
    /// Maximum bytes of next-state table (`states × alphabet_rows × 4`),
    /// guarding wide-alphabet small-state blow-up too.
    pub max_table_bytes: usize,
}

impl Default for DfaBudget {
    fn default() -> Self {
        DfaBudget {
            max_states: 128,
            max_table_bytes: 256 * 1024,
        }
    }
}

/// A per-component deterministic fast path: the subset construction of
/// one self-contained [`Shard`]'s [`ExecutionPlan`], stepped with one
/// table load per input symbol instead of fused multi-word BitSet
/// sweeps.
///
/// A DFA state is an NFA *active set* under the sharded engine's exact
/// cycle semantics with starts injected every cycle: state 0 is the
/// empty set, and
/// `δ(S, row) = (succ(S) ∪ all_input) ∩ match[row]`. Cycle 0 — where
/// `start-of-data` states also inject — uses the separate
/// [`first`](CompiledDfa::first) column; it is only ever taken out of
/// state 0, because nothing has been fed yet. Each state carries its
/// precomputed member list (the active set — activity accounting),
/// report list (reporting members with codes — emitted verbatim, so
/// hybrid reports are bit-identical to NFA stepping), and dynamic list
/// (`succ(S)`, the enable set the *next* cycle sees). A lane stepping
/// the DFA holds only its state id: liveness, suspend and the
/// observers' enable and active sets are read from these lists.
///
/// Transition columns are indexed by *match row*
/// ([`ExecutionPlan::row_of_symbol`]): byte classes for byte plans,
/// encoder codes for encoded plans, so a byte component's table is
/// `states × classes` and an encoded one's `states × (num_codes + 1)`,
/// not `states × 256`.
///
/// # Examples
///
/// ```
/// use cama_core::compiled::{CompiledAutomaton, CompiledDfa, DfaBudget, ExecutionPlan};
/// use cama_core::regex;
///
/// let nfa = regex::compile("ab+c")?;
/// let plan = CompiledAutomaton::compile(&nfa);
/// let dfa = CompiledDfa::determinize(&plan, &DfaBudget::default()).unwrap();
/// // One column per byte class: `a`, `b`, `c` and every other byte.
/// assert_eq!(dfa.alphabet(), 4);
/// // State 0 is the empty active set; stepping is one table load.
/// let after_a = dfa.next(0, plan.row_of_symbol(b'a'));
/// assert_eq!(dfa.members(after_a).len(), 1);
/// # Ok::<(), cama_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct CompiledDfa {
    /// Transition-table row width ([`ExecutionPlan::alphabet_rows`]).
    alphabet: usize,
    /// Dense next-state table, `num_states × alphabet`.
    next: Vec<u32>,
    /// Cycle-0 transitions (start-of-data states inject), one per row.
    /// Only taken out of state 0: at cycle 0 nothing has been fed, so
    /// the lane is necessarily in state 0.
    first: Vec<u32>,
    /// CSR over states: members (the active set, sorted local ids).
    member_offsets: Vec<u32>,
    members: Vec<u32>,
    /// CSR over states: reporting members with their codes.
    report_offsets: Vec<u32>,
    report_locals: Vec<u32>,
    report_codes: Vec<u32>,
    /// CSR over states: `succ(S)`, sorted — the dynamic set the next
    /// cycle's enable vector contains.
    dynamic_offsets: Vec<u32>,
    dynamics: Vec<u32>,
    /// One state per distinct `succ` set — the first constructed — in
    /// ascending order of that set, for
    /// [`resume_state`](Self::resume_state)'s binary search. Two states
    /// with equal `succ` sets are forward-equivalent (their own
    /// members/reports were already emitted), which is all a resumed
    /// suspended flow needs.
    resume_order: Vec<u32>,
}

impl CompiledDfa {
    /// Subset-constructs `plan` under `budget`, or `None` when the
    /// construction would exceed either cap (the component then stays
    /// on the NFA kernels) or the plan is empty.
    pub fn determinize<P: ExecutionPlan>(plan: &P, budget: &DfaBudget) -> Option<CompiledDfa> {
        let n = plan.len();
        if n == 0 {
            return None;
        }
        let rows = plan.alphabet_rows();
        let words = n.div_ceil(64);

        // One representative byte per reachable match row; rows no byte
        // maps to are unreachable at runtime (the engine always indexes
        // through `row_of_symbol`) and keep next-state 0.
        let mut rep_of_row: Vec<Option<u8>> = vec![None; rows];
        for byte in 0..=255u8 {
            let row = plan.row_of_symbol(byte) as usize;
            debug_assert!(row < rows, "row_of_symbol out of alphabet_rows");
            rep_of_row[row].get_or_insert(byte);
        }
        let reachable: Vec<(usize, Vec<u64>)> = rep_of_row
            .iter()
            .enumerate()
            .filter_map(|(row, rep)| {
                rep.map(|byte| (row, plan.match_vector(byte).words().to_vec()))
            })
            .collect();

        let all_input = plan.all_input_mask().as_words();
        let start_of_data = plan.start_of_data_mask().as_words();
        let report_mask = plan.report_mask();

        let set_of = |set_words: &[u64]| -> Vec<u32> {
            let mut out = Vec::new();
            for (w, &word) in set_words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    out.push((w * 64 + bits.trailing_zeros() as usize) as u32);
                    bits &= bits - 1;
                }
            }
            out
        };

        let mut states: Vec<Vec<u32>> = vec![Vec::new()];
        let mut interned: std::collections::HashMap<Vec<u32>, u32> =
            std::collections::HashMap::new();
        interned.insert(Vec::new(), 0);
        let mut next: Vec<u32> = Vec::new();
        let mut first: Vec<u32> = vec![0; rows];

        let intern = |members: Vec<u32>,
                      states: &mut Vec<Vec<u32>>,
                      interned: &mut std::collections::HashMap<Vec<u32>, u32>|
         -> Option<u32> {
            if let Some(&id) = interned.get(&members) {
                return Some(id);
            }
            if states.len() >= budget.max_states
                || (states.len() + 1) * rows * size_of::<u32>() > budget.max_table_bytes
            {
                return None;
            }
            let id = states.len() as u32;
            states.push(members.clone());
            interned.insert(members, id);
            Some(id)
        };

        // Cycle-0 transitions: (all_input ∪ start_of_data) ∩ match[row].
        let mut scratch = vec![0u64; words];
        for (row, match_words) in &reachable {
            for w in 0..words {
                scratch[w] = (all_input[w] | start_of_data[w]) & match_words[w];
            }
            first[*row] = intern(set_of(&scratch), &mut states, &mut interned)?;
        }

        // Breadth of construction order: process states as they are
        // interned; every processed state gets its full transition row.
        let mut member_offsets = vec![0u32];
        let mut members_flat = Vec::new();
        let mut report_offsets = vec![0u32];
        let mut report_locals = Vec::new();
        let mut report_codes = Vec::new();
        let mut dynamic_offsets = vec![0u32];
        let mut dynamics_flat = Vec::new();

        let mut s = 0usize;
        while s < states.len() {
            // succ(S): the union of the members' successor lists.
            let mut succ = vec![0u64; words];
            for &m in &states[s] {
                for &t in plan.successors(m as usize) {
                    succ[t as usize / 64] |= 1 << (t % 64);
                }
            }

            // The dense transition row of S, appended at offset
            // `s × rows`; unreachable rows keep next-state 0.
            next.resize((s + 1) * rows, 0);
            for (row, match_words) in &reachable {
                for w in 0..words {
                    scratch[w] = (succ[w] | all_input[w]) & match_words[w];
                }
                next[s * rows + row] = intern(set_of(&scratch), &mut states, &mut interned)?;
            }

            // Per-state precomputed lists.
            for &m in &states[s] {
                members_flat.push(m);
                if report_mask.contains(m as usize) {
                    report_locals.push(m);
                    report_codes.push(plan.report_code_unchecked(m as usize));
                }
            }
            member_offsets.push(members_flat.len() as u32);
            report_offsets.push(report_locals.len() as u32);
            dynamics_flat.extend(set_of(&succ));
            dynamic_offsets.push(dynamics_flat.len() as u32);
            s += 1;
        }

        let mut dfa = CompiledDfa {
            alphabet: rows,
            next,
            first,
            member_offsets,
            members: members_flat,
            report_offsets,
            report_locals,
            report_codes,
            dynamic_offsets,
            dynamics: dynamics_flat,
            resume_order: Vec::new(),
        };
        // A stable sort keeps equal sets in construction order, so the
        // dedup keeps each set's first constructed state.
        let mut order: Vec<u32> = (0..dfa.num_states() as u32).collect();
        order.sort_by(|&a, &b| dfa.dynamics(a).cmp(dfa.dynamics(b)));
        order.dedup_by(|later, first| dfa.dynamics(*later) == dfa.dynamics(*first));
        dfa.resume_order = order;
        Some(dfa)
    }

    /// Number of subset states (state 0 is the empty active set).
    pub fn num_states(&self) -> usize {
        self.member_offsets.len() - 1
    }

    /// Transition-table row width: the plan's
    /// [`alphabet_rows`](ExecutionPlan::alphabet_rows) (its byte classes
    /// for byte plans, `num_codes + 1` for encoded plans).
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// Bytes held by the dense next-state table (the quantity a global
    /// DFA memory budget meters).
    pub fn table_bytes(&self) -> usize {
        (self.next.len() + self.first.len()) * size_of::<u32>()
    }

    /// One table load: the state after consuming a symbol whose match
    /// row ([`ExecutionPlan::row_of_symbol`], not the byte itself) is
    /// `row`, from `state`, on any cycle after the first.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `row` is not below
    /// [`alphabet`](Self::alphabet); release builds may then read
    /// another state's transitions.
    #[inline]
    pub fn next(&self, state: u32, row: u32) -> u32 {
        debug_assert!(
            (row as usize) < self.alphabet,
            "match row {row} out of the DFA's {} columns",
            self.alphabet
        );
        self.next[state as usize * self.alphabet + row as usize]
    }

    /// The cycle-0 transition for match row `row` (start-of-data states
    /// inject only there). Only meaningful out of state 0.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not below [`alphabet`](Self::alphabet).
    #[inline]
    pub fn first(&self, row: u32) -> u32 {
        debug_assert!(
            (row as usize) < self.alphabet,
            "match row {row} out of the DFA's {} columns",
            self.alphabet
        );
        self.first[row as usize]
    }

    /// The active set of `state`: sorted local state ids.
    #[inline]
    pub fn members(&self, state: u32) -> &[u32] {
        let s = state as usize;
        &self.members[self.member_offsets[s] as usize..self.member_offsets[s + 1] as usize]
    }

    /// The reporting members of `state` with their codes, as parallel
    /// slices `(locals, codes)` in ascending local order.
    #[inline]
    pub fn reports(&self, state: u32) -> (&[u32], &[u32]) {
        let s = state as usize;
        let span = self.report_offsets[s] as usize..self.report_offsets[s + 1] as usize;
        (&self.report_locals[span.clone()], &self.report_codes[span])
    }

    /// `succ(state)`: the sorted dynamic set the next cycle's enable
    /// vector contains. A lane in `state` is live exactly when this is
    /// non-empty.
    #[inline]
    pub fn dynamics(&self, state: u32) -> &[u32] {
        let s = state as usize;
        &self.dynamics[self.dynamic_offsets[s] as usize..self.dynamic_offsets[s + 1] as usize]
    }

    /// The state a suspended flow resumes into, given its sorted dynamic
    /// set: the first constructed state whose `succ` set equals it
    /// (forward-equivalent: everything the flow can still do depends
    /// only on the dynamic set). `None` if no constructed state has that
    /// `succ` set (e.g. the snapshot came from a different plan); the
    /// caller falls back to NFA stepping for the lane.
    pub fn resume_state(&self, dynamics: &[u32]) -> Option<u32> {
        let order = &self.resume_order;
        let at = order.partition_point(|&state| self.dynamics(state) < dynamics);
        order
            .get(at)
            .copied()
            .filter(|&state| self.dynamics(state) == dynamics)
    }
}

/// One end of a cross-shard activation edge: the receiving state,
/// addressed shard-locally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrossTarget {
    /// Index of the shard holding the target state.
    pub shard: u32,
    /// The target's local index within that shard.
    pub local: u32,
}

/// One partition of a [`ShardedAutomaton`]: a self-contained local
/// execution plan over a renumbered local state space, plus the shard's
/// share of the cross-shard edge table.
///
/// A shard is the software analogue of one CAM sub-array with its local
/// switch: everything in its local plan resolves without leaving the
/// array, and only [`cross_successors`](Shard::cross_successors) traffic
/// touches the (simulated) global switch. The local plan is a
/// [`CompiledAutomaton`] by default, or a [`CompiledEncodedAutomaton`]
/// for encoding-aware sharded execution — any [`ExecutionPlan`] works.
#[derive(Clone, Debug)]
pub struct Shard<P = CompiledAutomaton> {
    plan: P,
    /// Local index → global state id.
    global_states: Vec<u32>,
    /// CSR over local states: cross-shard successors of local state `i`
    /// are `cross_targets[cross_offsets[i]..cross_offsets[i + 1]]`.
    cross_offsets: Vec<u32>,
    cross_targets: Vec<CrossTarget>,
    /// Byte plans: bit `sym` set iff `plan.start_match(sym)` is
    /// non-empty. Strided plans: bit `a` set iff
    /// `plan.first_start_match(a)` is non-empty. Either way the O(1)
    /// "could injecting starts fire here" probe the engine's idle-shard
    /// skip uses.
    start_match_possible: [u64; 4],
    /// Strided plans: `pair_start_possible[a]` is the exact mask of
    /// second symbols completing a start-injected pair beginning with
    /// `a`. Empty for byte plans.
    pair_start_possible: Vec<[u64; 4]>,
    has_start_of_data: bool,
    /// The determinized fast path, when this component was nominated
    /// and subset construction stayed within budget. `Arc` so cached
    /// retargets share one table. Always `None` for shards with cross
    /// edges (a DFA state is a *whole-component* active set) and for
    /// strided plans.
    dfa: Option<std::sync::Arc<CompiledDfa>>,
}

impl<P: PlanBase> Shard<P> {
    /// The shard's local execution plan (states renumbered `0..len`).
    pub fn plan(&self) -> &P {
        &self.plan
    }

    /// Number of states placed in this shard.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// Returns `true` for a shard holding no states.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Local index → global state id, for all local states.
    pub fn global_states(&self) -> &[u32] {
        &self.global_states
    }

    /// Cross-shard successors of the local state `local`.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn cross_successors(&self, local: usize) -> &[CrossTarget] {
        &self.cross_targets
            [self.cross_offsets[local] as usize..self.cross_offsets[local + 1] as usize]
    }

    /// Total cross-shard edges leaving this shard.
    pub fn num_cross_edges(&self) -> usize {
        self.cross_targets.len()
    }

    /// `true` if any statically enabled (`all-input`) state of this shard
    /// matches `symbol` — i.e. injecting starts this cycle could activate
    /// something even with an empty dynamic vector. For strided shards
    /// `symbol` is the *first* symbol of the pair; use
    /// [`pair_start_possible`](Shard::pair_start_possible) for the full
    /// pair probe.
    pub fn start_match_possible(&self, symbol: u8) -> bool {
        self.start_match_possible[symbol as usize / 64] >> (symbol % 64) & 1 == 1
    }

    /// `true` if injecting starts could activate something on the pair
    /// `(a, b)` — exact for strided shards
    /// (`first_start_match(a) & second[b]` occupancy, precomputed), and
    /// the [`start_match_possible`](Shard::start_match_possible) probe
    /// for byte shards (where `b` is meaningless).
    pub fn pair_start_possible(&self, a: u8, b: u8) -> bool {
        match self.pair_start_possible.get(a as usize) {
            Some(mask) => mask[b as usize / 64] >> (b % 64) & 1 == 1,
            None => self.start_match_possible(a),
        }
    }

    /// `true` if the shard holds any `start-of-data` state (which fires
    /// only on cycle 0).
    pub fn has_start_of_data(&self) -> bool {
        self.has_start_of_data
    }

    /// The shard's determinized fast path, if one was compiled — the
    /// engine then steps this shard with one table load per cycle
    /// instead of the NFA word sweeps (hybrid execution; results are
    /// bit-identical either way).
    pub fn dfa(&self) -> Option<&CompiledDfa> {
        self.dfa.as_deref()
    }

    /// Attaches a determinized fast path to a self-contained component
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics if the shard has cross-shard edges: a [`CompiledDfa`]
    /// state is the component's whole active set, which cross traffic
    /// would invalidate.
    pub(crate) fn attach_dfa(&mut self, dfa: std::sync::Arc<CompiledDfa>) {
        assert!(
            self.cross_targets.is_empty(),
            "DFA fast paths require self-contained component shards"
        );
        self.dfa = Some(dfa);
    }

    /// Clones this shard with a different local → global table — how a
    /// cached component plan is re-targeted at the global ids it holds
    /// in the ruleset currently being compiled. Only valid for
    /// component shards (empty cross table), whose execution cannot
    /// observe global ids.
    pub(crate) fn retarget(&self, global_states: Vec<u32>) -> Shard<P>
    where
        P: Clone,
    {
        debug_assert!(
            self.cross_targets.is_empty(),
            "only component shards are cacheable"
        );
        debug_assert_eq!(self.global_states.len(), global_states.len());
        let mut shard = self.clone();
        shard.global_states = global_states;
        shard
    }
}

impl<P: ShardPlan> Shard<P> {
    /// Wraps a shard's compiled local plan with its local → global table
    /// and cross-shard CSR, deriving the idle-skip probes.
    fn new(
        plan: P,
        global_states: Vec<u32>,
        cross_offsets: Vec<u32>,
        cross_targets: Vec<CrossTarget>,
    ) -> Shard<P> {
        debug_assert_eq!(plan.len(), global_states.len());
        let (start_match_possible, pair_start_possible) = plan.start_probes();
        Shard {
            global_states,
            cross_offsets,
            cross_targets,
            start_match_possible,
            pair_start_possible,
            has_start_of_data: !plan.start_of_data_mask().is_empty(),
            dfa: None,
            plan,
        }
    }

    /// Builds the shard of one self-contained compilation unit (a
    /// connected component): no activation edge leaves a component, so
    /// its cross table is empty by construction. Used by
    /// `crate::compile`'s cached per-component compile path.
    pub(crate) fn from_component(plan: P, global_states: Vec<u32>) -> Shard<P> {
        let cross_offsets = vec![0; global_states.len() + 1];
        Shard::new(plan, global_states, cross_offsets, Vec::new())
    }
}

/// A compiled plan partitioned across simulated CAM arrays: per-shard
/// [`CompiledAutomaton`]s plus an explicit cross-shard edge table.
///
/// The flat [`CompiledAutomaton`] treats the automaton as one state
/// space, so the engine sweeps one set of match/enable vectors sized to
/// the whole design. The hardware does not: states live in many small
/// CAM sub-arrays, activations resolve inside an array's local switch,
/// and only cross-array activations ride the global switch. A
/// `ShardedAutomaton` mirrors that decomposition so the functional
/// engine can keep per-array state, skip arrays with nothing enabled
/// (the software form of powering idle arrays down), and expose
/// per-shard activity to the energy model directly.
///
/// Shard assignment strategies, each for byte ([`Nfa`]) and 2-stride
/// ([`StridedNfa`]) automata alike:
///
/// * [`compile`](ShardedAutomaton::compile) — balance connected
///   components over `num_shards` shards (largest-first greedy, the same
///   decreasing order the mapper packs in);
/// * [`compile_per_component`](ShardedAutomaton::compile_per_component)
///   — one shard per connected component;
/// * [`compile_with_assignment`](ShardedAutomaton::compile_with_assignment)
///   — an explicit per-state shard id, e.g. `Mapping::partition_of`
///   from `cama_arch::mapping::map_design`, so functional shards
///   coincide with the energy model's partitions.
///
/// Execution over any strategy is bit-identical to the flat plan
/// (asserted differentially in `tests/property.rs`).
///
/// # Examples
///
/// ```
/// use cama_core::compiled::ShardedAutomaton;
/// use cama_core::regex;
///
/// // Two independent patterns → two components.
/// let nfa = regex::compile_set(&["abc", "xyz"])?;
/// let sharded = ShardedAutomaton::compile_per_component(&nfa);
/// assert_eq!(sharded.num_shards(), 2);
/// assert_eq!(sharded.len(), nfa.len());
/// // Independent components have no cross-shard edges.
/// assert_eq!(sharded.num_cross_edges(), 0);
/// # Ok::<(), cama_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct ShardedAutomaton<P = CompiledAutomaton> {
    len: usize,
    name: String,
    shards: Vec<Shard<P>>,
    /// Global state id → owning shard.
    shard_of: Vec<u32>,
    /// Global state id → local index within its shard.
    local_of: Vec<u32>,
    num_cross_edges: usize,
    /// The start index: words `sym * w..(sym + 1) * w` (`w` =
    /// `ceil(num_shards / 64)`) mark the non-empty shards where
    /// injecting starts on (first) symbol `sym` could fire.
    start_shards: Vec<u64>,
    /// The shards holding a start-of-data state, one bit per shard.
    start_of_data_shards: Vec<u64>,
}

/// A [`ShardedAutomaton`] whose per-shard plans execute on an encoding
/// codebook — the encoding-aware counterpart of the byte sharded plan,
/// built with `cama_encoding::EncodingPlan::compile_sharded`.
pub type ShardedEncodedAutomaton = ShardedAutomaton<CompiledEncodedAutomaton>;

/// A [`ShardedAutomaton`] whose per-shard plans are 2-stride byte
/// plans — per-CAM-array strided execution, built by the same
/// constructors as the byte plan, over a [`StridedNfa`].
pub type ShardedStridedAutomaton = ShardedAutomaton<CompiledStridedAutomaton>;

/// A [`ShardedAutomaton`] whose per-shard plans execute on per-half
/// encoding codebooks — encoding-aware sharded 2-stride execution,
/// built with `cama_encoding::StridedEncoding::compile_sharded`.
pub type ShardedEncodedStridedAutomaton = ShardedAutomaton<CompiledEncodedStridedAutomaton>;

impl<R: EncodedRows> ShardedAutomaton<CompiledPlan<R>> {
    /// Per-state slot weights taken from the actual encoded shard plans
    /// (`entries_of`, at least 1 per state), indexed by *global* state
    /// id — what the energy model charges per enabled state.
    pub fn entry_weights(&self) -> Vec<u32> {
        let mut weights = vec![1u32; self.len];
        for shard in &self.shards {
            for (local, &global) in shard.global_states().iter().enumerate() {
                weights[global as usize] = shard.plan().entries_of(local).max(1);
            }
        }
        weights
    }
}

/// Groups `assignment` into per-shard state lists (shard count is
/// `max(assignment) + 1`, minimum 1).
fn order_of_assignment(assignment: &[u32]) -> Vec<Vec<u32>> {
    let num_shards = assignment
        .iter()
        .max()
        .map_or(0, |&m| m as usize + 1)
        .max(1);
    let mut order: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
    for (state, &shard) in assignment.iter().enumerate() {
        order[shard as usize].push(state as u32);
    }
    order
}

/// Balances components — ordered member lists, largest first — over at
/// most `num_shards` per-shard state lists: each component goes whole
/// onto the least-loaded shard, keeping its member order.
fn balance_components(components: Vec<Vec<u32>>, num_shards: usize) -> Vec<Vec<u32>> {
    let num_shards = num_shards.clamp(1, components.len().max(1));
    let mut loads = vec![0usize; num_shards];
    let mut order: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
    for cc in components {
        let lightest = (0..num_shards).min_by_key(|&i| loads[i]).unwrap();
        loads[lightest] += cc.len();
        order[lightest].extend(cc);
    }
    order
}

impl<P: ShardPlan> ShardedAutomaton<P> {
    /// Compiles `nfa` into at most `num_shards` shards by balancing
    /// connected components (largest first, onto the least-loaded shard).
    ///
    /// `num_shards` is clamped to `1..=components` — a component is
    /// never split across shards, so asking for more shards than
    /// components yields one shard per component.
    pub fn compile<A: Automaton<Plan = P>>(nfa: &A, num_shards: usize) -> ShardedAutomaton<P> {
        // Members keep the flavour's component layout order, which is
        // each shard's local layout.
        let order = balance_components(nfa.components(), num_shards);
        Self::build(nfa, order, |local, _| local.compile_plan())
    }

    /// One shard per connected component (the finest sharding that keeps
    /// every activation edge array-local): the shard assignment *is* the
    /// per-state component id.
    pub fn compile_per_component<A: Automaton<Plan = P>>(nfa: &A) -> ShardedAutomaton<P> {
        Self::compile_with_assignment(nfa, &component_ids(nfa).0)
    }

    /// Compiles with an explicit per-state shard id (shard count is
    /// `max(assignment) + 1`). Pass `Mapping::partition_of` from the
    /// architecture mapper to make functional shards coincide with the
    /// energy model's partitions. Cross-shard edges may point in any
    /// direction; shard ids may be sparse (unused ids become empty
    /// shards, which the engine skips unconditionally).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != nfa.len()`.
    pub fn compile_with_assignment<A: Automaton<Plan = P>>(
        nfa: &A,
        assignment: &[u32],
    ) -> ShardedAutomaton<P> {
        Self::compile_shards_with(nfa, assignment, |local, _| local.compile_plan())
    }

    /// Compiles with an explicit per-state shard id and a custom
    /// per-shard plan compiler. `compile_shard` receives each shard's
    /// renumbered local automaton together with its local-index →
    /// global-id table — which is how the encoding toolchain reuses one
    /// shared codebook (or one per half of a 2-stride plan) across every
    /// shard (`cama_encoding::EncodingPlan::compile_sharded`,
    /// `cama_encoding::StridedEncoding::compile_sharded`).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != nfa.len()`.
    pub fn compile_shards_with<A: Automaton>(
        nfa: &A,
        assignment: &[u32],
        compile_shard: impl Fn(&A, &[u32]) -> P,
    ) -> ShardedAutomaton<P> {
        assert_eq!(
            assignment.len(),
            nfa.len(),
            "shard assignment must cover every state"
        );
        Self::build(nfa, order_of_assignment(assignment), compile_shard)
    }

    /// The one shell builder: places states, splits edges into the
    /// in-shard and cross-shard halves, and compiles each shard's
    /// renumbered local automaton through `compile_shard`.
    fn build<A: Automaton>(
        nfa: &A,
        order: Vec<Vec<u32>>,
        compile_shard: impl Fn(&A, &[u32]) -> P,
    ) -> ShardedAutomaton<P> {
        let (shard_of, local_of) = placement(nfa.len(), order.iter().map(Vec::as_slice));
        let shards = order
            .into_iter()
            .enumerate()
            .map(|(shard, states)| {
                let mut local_edges = Vec::new();
                let mut cross_offsets = Vec::with_capacity(states.len() + 1);
                let mut cross_targets = Vec::new();
                cross_offsets.push(0);
                for (local, &g) in states.iter().enumerate() {
                    for t in nfa.successor_ids(g as usize) {
                        let t = t as usize;
                        if shard_of[t] as usize == shard {
                            local_edges.push((local as u32, local_of[t]));
                        } else {
                            cross_targets.push(CrossTarget {
                                shard: shard_of[t],
                                local: local_of[t],
                            });
                        }
                    }
                    cross_offsets.push(cross_targets.len() as u32);
                }
                let name = format!("{}/shard{shard}", nfa.name());
                let plan = compile_shard(&nfa.extract(name, &states, &local_edges), &states);
                Shard::new(plan, states, cross_offsets, cross_targets)
            })
            .collect();
        Self::assemble(nfa.len(), nfa.name().to_string(), shards)
    }
}

/// The global state id → (owning shard, local index) tables of per-shard
/// state lists.
///
/// # Panics
///
/// Debug builds panic if the lists do not cover `0..len` exactly once.
fn placement<'a>(len: usize, shards: impl Iterator<Item = &'a [u32]>) -> (Vec<u32>, Vec<u32>) {
    let mut shard_of = vec![u32::MAX; len];
    let mut local_of = vec![u32::MAX; len];
    for (shard, states) in shards.enumerate() {
        for (local, &g) in states.iter().enumerate() {
            debug_assert_eq!(shard_of[g as usize], u32::MAX, "state placed twice");
            shard_of[g as usize] = shard as u32;
            local_of[g as usize] = local as u32;
        }
    }
    debug_assert!(shard_of.iter().all(|&s| s != u32::MAX), "state unplaced");
    (shard_of, local_of)
}

impl<P: PlanBase> ShardedAutomaton<P> {
    /// Assembles a sharded plan from pre-built shards (one per
    /// compilation unit, in shard-id order), recomputing the global
    /// placement tables from each shard's local → global table. The
    /// cached-compilation counterpart of the shell builder.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the shards do not cover `0..len` exactly
    /// once.
    pub(crate) fn assemble(len: usize, name: String, shards: Vec<Shard<P>>) -> ShardedAutomaton<P> {
        let (shard_of, local_of) = placement(len, shards.iter().map(Shard::global_states));
        let words = shards.len().div_ceil(64);
        let mut start_shards = vec![0u64; ALPHABET * words];
        let mut start_of_data_shards = vec![0u64; words];
        // An empty shard has no start state, so it is never listed.
        for (si, shard) in shards.iter().enumerate() {
            let bit = 1u64 << (si % 64);
            for (w, &mask) in shard.start_match_possible.iter().enumerate() {
                let mut syms = mask;
                while syms != 0 {
                    let sym = w * 64 + syms.trailing_zeros() as usize;
                    syms &= syms - 1;
                    start_shards[sym * words + si / 64] |= bit;
                }
            }
            if shard.has_start_of_data() {
                start_of_data_shards[si / 64] |= bit;
            }
        }
        ShardedAutomaton {
            len,
            name,
            num_cross_edges: shards.iter().map(Shard::num_cross_edges).sum(),
            shards,
            shard_of,
            local_of,
            start_shards,
            start_of_data_shards,
        }
    }

    /// Number of global states.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the plan has no states.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The automaton's name (inherited from the NFA).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shards (including empty ones for sparse assignments).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// All shards, in shard-id order.
    pub fn shards(&self) -> &[Shard<P>] {
        &self.shards
    }

    /// One shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &Shard<P> {
        &self.shards[shard]
    }

    /// The `(shard, local)` placement of a global state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn placement_of(&self, state: usize) -> (u32, u32) {
        (self.shard_of[state], self.local_of[state])
    }

    /// Total activation edges whose endpoints live in different shards
    /// (the traffic the simulated global switch carries).
    pub fn num_cross_edges(&self) -> usize {
        self.num_cross_edges
    }

    /// The start index row of (first) symbol `symbol`: one bit per
    /// shard, set for the non-empty shards whose
    /// [`start_match_possible`](Shard::start_match_possible) probe fires
    /// — the shards a cycle must visit even when nothing is enabled in
    /// them. `ceil(num_shards / 64)` words; strided sessions refine each
    /// candidate with [`Shard::pair_start_possible`].
    pub fn start_shards(&self, symbol: u8) -> &[u64] {
        let words = self.start_of_data_shards.len();
        &self.start_shards[symbol as usize * words..][..words]
    }

    /// The shards holding a start-of-data state, one bit per shard — the
    /// extra candidates of cycle 0.
    pub fn start_of_data_shards(&self) -> &[u64] {
        &self.start_of_data_shards
    }

    /// Shards carrying a determinized fast path (see [`Shard::dfa`]).
    pub fn num_dfa_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.dfa().is_some()).count()
    }

    /// Total activation edges resolved inside shards.
    pub fn num_local_edges(&self) -> usize {
        self.shards.iter().map(|s| s.plan.num_edges()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex;
    use crate::symbol::SymbolClass;
    use crate::{NfaBuilder, SteId};

    #[test]
    fn row_table_packs_exact_width_rows_that_round_trip() {
        for words in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65, 127, 260] {
            // Full top words and a partial top word.
            for len in [words * 64, (words * 64).saturating_sub(5)] {
                let mut sparse = BitSet::new(len);
                for i in (0..len).filter(|i| i % 7 == 0 || i % 64 == 63) {
                    sparse.insert(i);
                }
                let mut high = BitSet::new(len);
                if let Some(last) = len.checked_sub(1) {
                    high.insert(last);
                }
                let rows = [BitSet::full(len), BitSet::new(len), sparse, high];
                let table = RowTable::from_rows(len, &rows);
                assert_eq!(table.data.len(), rows.len() * len.div_ceil(64), "len {len}");
                assert_eq!(
                    table.summaries.len(),
                    rows.len() * len.div_ceil(64).div_ceil(64),
                    "len {len}"
                );
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(table.row(i), *row, "len {len}, row {i}");
                    let summary = table.summary(i);
                    for (w, &word) in row.as_words().iter().enumerate() {
                        let bit = summary[w / 64] >> (w % 64) & 1 == 1;
                        assert_eq!(bit, word != 0, "len {len}, row {i}, word {w}");
                    }
                    let marked: u32 = summary.iter().map(|s| s.count_ones()).sum();
                    let nonzero = row.as_words().iter().filter(|&&w| w != 0).count();
                    assert_eq!(marked as usize, nonzero, "len {len}, row {i}");
                }
            }
        }
    }

    /// The 256 per-byte match columns of states accepting `classes`, one
    /// per state: what a class-indexed row source must reproduce.
    fn byte_columns(len: usize, classes: impl Iterator<Item = SymbolClass>) -> Vec<BitSet> {
        let mut columns = vec![BitSet::new(len); ALPHABET];
        for (state, class) in classes.enumerate() {
            for byte in class.iter() {
                columns[byte as usize].insert(state);
            }
        }
        columns
    }

    /// Checks a byte-class index against the per-byte `columns` it
    /// stands for: bytes share a row iff their columns are equal, rows
    /// are numbered by lowest byte, and there are as many as there are
    /// distinct columns.
    fn check_classes(index: &ByteClasses, columns: &[BitSet], what: &str) {
        let mut rows = 0;
        for byte in 0..=255u8 {
            let row = index.row(byte);
            match (0..byte).find(|&lower| columns[lower as usize] == columns[byte as usize]) {
                Some(lower) => assert_eq!(row, index.row(lower), "{what}: byte {byte}"),
                None => {
                    assert_eq!(row, rows, "{what}: byte {byte} opens the next class");
                    rows += 1;
                }
            }
        }
        assert_eq!(index.num_rows(), rows, "{what}");
    }

    /// Byte-class automata: negated classes, `.`, single bytes, ranges,
    /// the empty automaton, and 256 states each taking one distinct
    /// byte (256 classes, so the map's top index is used).
    fn class_automata() -> Vec<Nfa> {
        let sets: [&[&str]; 6] = [
            &["(a|b)e*cd+"],
            &["[^a-c]x", "a.b"],
            &[".", "q"],
            &["[0-9]+[a-f]", r"[\x80-\xff]\x00", "z"],
            &[r"x[^\n]*y", "[A-Z][a-z]+"],
            &["abc"],
        ];
        let mut nfas: Vec<Nfa> = sets
            .iter()
            .map(|set| regex::compile_set(set).unwrap())
            .collect();
        nfas.push(NfaBuilder::new().build().unwrap());
        let mut b = NfaBuilder::new();
        for byte in 0..=255u8 {
            let id = b.add_ste(SymbolClass::singleton(byte));
            b.set_start(id, StartKind::AllInput);
            b.set_report(id, byte.into());
        }
        nfas.push(b.build().unwrap());
        nfas
    }

    #[test]
    fn match_table_covers_all_states() {
        for nfa in class_automata() {
            let plan = CompiledAutomaton::compile(&nfa);
            let columns = byte_columns(nfa.len(), nfa.stes().iter().map(|s| s.class));
            check_classes(&plan.rows.index, &columns, "byte plan");
            for byte in 0..=255u8 {
                assert_eq!(
                    plan.match_vector(byte),
                    columns[byte as usize],
                    "byte {byte}"
                );
                let mut starts = columns[byte as usize].clone();
                starts.intersect_with(plan.all_input_mask());
                assert_eq!(plan.start_match(byte), starts, "byte {byte}");
            }
            // One stored row per class, not per byte.
            let k = plan.alphabet_rows();
            let words = nfa.len().div_ceil(64);
            assert_eq!(plan.rows.matches.data.len(), k * words);
            assert_eq!(plan.rows.starts.data.len(), k * words);
            if nfa.len() == ALPHABET {
                assert_eq!((k, plan.row_of_symbol(255)), (ALPHABET, 255));
            }
        }
    }

    #[test]
    fn strided_byte_class_rows_equal_per_byte_columns_per_half() {
        for nfa in class_automata() {
            let strided = StridedNfa::from_nfa(&nfa);
            let plan = CompiledStridedAutomaton::compile(&strided);
            let rows = &plan.rows;
            let first = byte_columns(strided.len(), strided.states().iter().map(|s| s.first));
            let second = byte_columns(strided.len(), strided.states().iter().map(|s| s.second));
            check_classes(&rows.first_index, &first, "first half");
            check_classes(&rows.second_index, &second, "second half");
            for byte in 0..=255u8 {
                let b = byte as usize;
                assert_eq!(plan.first_vector(byte), first[b], "first, byte {byte}");
                assert_eq!(plan.second_vector(byte), second[b], "second, byte {byte}");
                let mut starts = first[b].clone();
                starts.intersect_with(plan.all_input_mask());
                assert_eq!(StridedPlan::first_start_match(&plan, byte), starts);
            }
            let words = strided.len().div_ceil(64);
            let (k1, k2) = (rows.first_index.num_rows(), rows.second_index.num_rows());
            assert_eq!(rows.first.data.len(), k1 * words);
            assert_eq!(rows.first_starts.data.len(), k1 * words);
            assert_eq!(rows.second.data.len(), k2 * words);
        }
    }

    #[test]
    fn csr_matches_nfa_successors() {
        let nfa = regex::compile("x[0-9]+y").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        assert_eq!(plan.num_edges(), nfa.num_edges());
        for i in 0..nfa.len() {
            let expected: Vec<u32> = nfa
                .successors(SteId(i as u32))
                .iter()
                .map(|s| s.0)
                .collect();
            assert_eq!(plan.successors(i), expected.as_slice());
        }
    }

    #[test]
    fn start_masks_partition_start_kinds() {
        let mut b = NfaBuilder::new();
        let all = b.add_ste(SymbolClass::singleton(b'a'));
        let sod = b.add_ste(SymbolClass::singleton(b'b'));
        let plain = b.add_ste(SymbolClass::singleton(b'c'));
        b.set_start(all, StartKind::AllInput);
        b.set_start(sod, StartKind::StartOfData);
        b.add_edge(all, plain);
        let nfa = b.build().unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        assert_eq!(plan.all_input_mask().iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(
            plan.start_of_data_mask().iter().collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn packed_report_codes_are_recovered() {
        let mut b = NfaBuilder::new();
        let mut ids = Vec::new();
        for i in 0..200u32 {
            let id = b.add_ste(SymbolClass::singleton(b'a'));
            b.set_start(id, StartKind::AllInput);
            if i % 3 == 0 {
                b.set_report(id, i * 10 + 1);
            }
            ids.push(id);
        }
        let nfa = b.build().unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        for i in 0..200usize {
            let expected = nfa.ste(SteId(i as u32)).report;
            assert_eq!(plan.report_code(i), expected, "state {i}");
            if let Some(code) = expected {
                assert!(plan.report_mask().contains(i));
                assert_eq!(plan.report_code_unchecked(i), code);
            }
        }
    }

    #[test]
    fn strided_pair_match_factorizes() {
        let nfa = regex::compile("ab+c").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let plan = CompiledStridedAutomaton::compile(&strided);
        for &(a, b) in &[(b'a', b'b'), (b'b', b'c'), (b'z', b'z'), (b'a', b'a')] {
            let mut out = plan.first_vector(a).to_bitset();
            out.intersect_with(&plan.second_vector(b).to_bitset());
            let expected: Vec<usize> = strided
                .states()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.matches(a, b))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(out.iter().collect::<Vec<_>>(), expected, "pair {a},{b}");
        }
    }

    #[test]
    fn strided_summaries_track_tables() {
        let nfa = regex::compile_set(&["ab+c", "x[0-9]+y"]).unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let plan = CompiledStridedAutomaton::compile(&strided);
        for sym in [b'a', b'b', b'x', b'0', b'z', 0u8, 255u8] {
            for (words, any) in [
                (plan.first_vector(sym).words(), plan.first_any(sym)),
                (plan.second_vector(sym).words(), plan.second_any(sym)),
                (
                    StridedPlan::first_start_match(&plan, sym).words(),
                    StridedPlan::first_start_match_any(&plan, sym),
                ),
            ] {
                for (w, &word) in words.iter().enumerate() {
                    assert_eq!(
                        any[w / 64] >> (w % 64) & 1 == 1,
                        word != 0,
                        "symbol {sym}, word {w}"
                    );
                }
            }
            // The start rows are first_vector & all_input, exactly.
            let mut expected = plan.first_vector(sym).to_bitset();
            expected.intersect_with(plan.all_input_mask());
            assert_eq!(StridedPlan::first_start_match(&plan, sym), expected);
        }
    }

    /// A toy per-half identity codebook over explicit domains: the
    /// smallest exact strided encoding.
    fn identity_encoded_strided(
        nfa: &StridedNfa,
        first_domain: &[u8],
        second_domain: &[u8],
    ) -> CompiledEncodedStridedAutomaton {
        CompiledEncodedStridedAutomaton::compile_with(
            nfa,
            identity_spec(first_domain, |state| nfa.state(state).first),
            identity_spec(second_domain, |state| nfa.state(state).second),
        )
    }

    #[test]
    fn encoded_strided_rows_match_byte_rows_over_the_domain() {
        let nfa = regex::compile("(a|b)c+d").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let byte = CompiledStridedAutomaton::compile(&strided);
        // Odd-entry states have a FULL first class, so the first domain
        // must cover every byte for exactness; use 0..=255.
        let full: Vec<u8> = (0u8..=255).collect();
        let encoded = identity_encoded_strided(&strided, &full, &full);
        assert_eq!(encoded.len(), byte.len());
        assert_eq!(encoded.num_edges(), byte.num_edges());
        for sym in 0..=255u8 {
            assert_eq!(
                StridedPlan::first_vector(&encoded, sym),
                StridedPlan::first_vector(&byte, sym),
                "first, symbol {sym}"
            );
            assert_eq!(
                StridedPlan::second_vector(&encoded, sym),
                StridedPlan::second_vector(&byte, sym),
                "second, symbol {sym}"
            );
            assert_eq!(
                StridedPlan::first_start_match(&encoded, sym),
                StridedPlan::first_start_match(&byte, sym),
                "start, symbol {sym}"
            );
        }
        for state in 0..byte.len() {
            assert_eq!(encoded.successors(state), byte.successors(state));
            if byte.report_mask().contains(state) {
                assert_eq!(
                    encoded.report_pair_unchecked(state),
                    byte.report_pair_unchecked(state)
                );
            }
        }
    }

    #[test]
    fn encoded_strided_entry_accounting_is_the_capped_pair_product() {
        let nfa = regex::compile("ab").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let n = strided.len();
        let spec = |entries_per_state: u32| CodebookSpec {
            code_len: 8,
            num_codes: 256,
            encode: Box::new(|symbol| Some(symbol as u16)),
            matches: Box::new(|_, _| false),
            entries: Box::new(move |_| entries_per_state),
            negated: Box::new(|state| state == 0),
        };
        let encoded = CompiledEncodedStridedAutomaton::compile_with(&strided, spec(10), spec(9));
        let (first, second) = (&encoded.rows.first_index, &encoded.rows.second_index);
        assert_eq!((first.code_len, second.code_len), (8, 8));
        assert_eq!((first.num_codes, second.num_codes), (256, 256));
        for state in 0..n {
            assert_eq!(encoded.half_entries_of(state), (10, 9));
            // 10 × 9 = 90, capped at the 64-entry per-state budget.
            assert_eq!(encoded.entries_of(state), 64);
        }
        assert_eq!(encoded.entry_weights(), vec![64; n]);
        assert_eq!(encoded.total_entries(), 64 * n);
        assert_eq!((first.negated.count(), second.negated.count()), (1, 1));
    }

    #[test]
    fn strided_sharding_covers_states_and_edges() {
        let nfa = regex::compile_set(&["abc", "x[0-9]+y", "(ab)+z"]).unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        for shards in [1, 2, 3, usize::MAX] {
            let sharded = ShardedAutomaton::compile(&strided, shards);
            assert_eq!(sharded.len(), strided.len());
            let mut seen = vec![false; strided.len()];
            for (si, shard) in sharded.shards().iter().enumerate() {
                for (local, &g) in shard.global_states().iter().enumerate() {
                    assert!(!seen[g as usize], "state {g} placed twice");
                    seen[g as usize] = true;
                    assert_eq!(sharded.placement_of(g as usize), (si as u32, local as u32));
                }
            }
            assert!(seen.iter().all(|&s| s), "{shards} shards");
            assert_eq!(
                sharded.num_local_edges() + sharded.num_cross_edges(),
                strided.num_edges(),
                "{shards} shards"
            );
        }
        // Per-component strided sharding keeps all edges local.
        let per_cc = ShardedAutomaton::compile_per_component(&strided);
        assert_eq!(per_cc.num_cross_edges(), 0);
        assert!(per_cc.num_shards() >= 3);
    }

    #[test]
    fn strided_shard_probes_are_exact() {
        let nfa = regex::compile_set(&["ab", "cd"]).unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let sharded = ShardedAutomaton::compile_per_component(&strided);
        for shard in sharded.shards() {
            for sym in 0..=255u8 {
                assert_eq!(
                    shard.start_match_possible(sym),
                    !StridedPlan::first_start_match(shard.plan(), sym).is_empty(),
                    "first probe, symbol {sym}"
                );
            }
            // The pair probe is exact: true iff the pair's start row
            // intersects the second-half row.
            for &a in &[b'a', b'b', b'c', b'z', 0u8] {
                for &b in &[b'a', b'b', b'd', b'z', 255u8] {
                    let expected = !StridedPlan::first_start_match(shard.plan(), a)
                        .is_disjoint(StridedPlan::second_vector(shard.plan(), b));
                    assert_eq!(
                        shard.pair_start_possible(a, b),
                        expected,
                        "pair probe ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn strided_reports_pack_code_and_phase() {
        let nfa = regex::compile("ab").unwrap();
        let strided = StridedNfa::from_nfa(&nfa);
        let plan = CompiledStridedAutomaton::compile(&strided);
        for (i, state) in strided.states().iter().enumerate() {
            if let Some((code, phase)) = state.report {
                assert!(plan.report_mask().contains(i));
                assert_eq!(plan.report_pair_unchecked(i), (code, phase));
            } else {
                assert!(!plan.report_mask().contains(i));
            }
        }
    }

    #[test]
    fn empty_automaton_compiles() {
        let nfa = NfaBuilder::new().build().unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        assert!(plan.is_empty());
        assert_eq!(plan.num_edges(), 0);
    }

    #[test]
    fn sharded_covers_every_state_exactly_once() {
        let nfa = regex::compile_set(&["abc", "x[0-9]+y", "(ab)+z"]).unwrap();
        for shards in [1, 2, 3, 7] {
            let sharded = ShardedAutomaton::compile(&nfa, shards);
            assert_eq!(sharded.len(), nfa.len());
            let mut seen = vec![false; nfa.len()];
            for (si, shard) in sharded.shards().iter().enumerate() {
                for (local, &g) in shard.global_states().iter().enumerate() {
                    assert!(!seen[g as usize], "state {g} placed twice");
                    seen[g as usize] = true;
                    assert_eq!(sharded.placement_of(g as usize), (si as u32, local as u32));
                }
            }
            assert!(seen.iter().all(|&s| s), "{shards} shards");
            // Edge conservation: local + cross == total.
            assert_eq!(
                sharded.num_local_edges() + sharded.num_cross_edges(),
                nfa.num_edges(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn per_component_sharding_has_no_cross_edges() {
        let nfa = regex::compile_set(&["abc", "x[0-9]+y", "(ab)+z"]).unwrap();
        let sharded = ShardedAutomaton::compile_per_component(&nfa);
        assert_eq!(sharded.num_cross_edges(), 0);
        assert!(sharded.num_shards() >= 3);
        // Requesting more shards than components clamps.
        let more = ShardedAutomaton::compile(&nfa, 1000);
        assert_eq!(more.num_shards(), sharded.num_shards());
    }

    #[test]
    fn explicit_assignment_splits_components_with_cross_edges() {
        // A 4-state chain split down the middle: 1 cross edge.
        let nfa = regex::compile("abcd").unwrap();
        let assignment = vec![0, 0, 1, 1];
        let sharded = ShardedAutomaton::compile_with_assignment(&nfa, &assignment);
        assert_eq!(sharded.num_shards(), 2);
        assert_eq!(sharded.num_cross_edges(), 1);
        let (s0, l1) = sharded.placement_of(1);
        let cross = sharded.shard(s0 as usize).cross_successors(l1 as usize);
        assert_eq!(cross.len(), 1);
        assert_eq!(cross[0].shard, sharded.placement_of(2).0);
        assert_eq!(cross[0].local, sharded.placement_of(2).1);
    }

    #[test]
    fn sparse_assignment_yields_empty_shards() {
        let nfa = regex::compile("ab").unwrap();
        let sharded = ShardedAutomaton::compile_with_assignment(&nfa, &[0, 3]);
        assert_eq!(sharded.num_shards(), 4);
        assert!(sharded.shard(1).is_empty());
        assert!(sharded.shard(2).is_empty());
        assert_eq!(sharded.shard(0).len(), 1);
        assert_eq!(sharded.shard(3).len(), 1);
    }

    #[test]
    fn shard_local_plans_preserve_classes_starts_and_reports() {
        let nfa = regex::compile_set(&["a[bc]+d", "xy"]).unwrap();
        let sharded = ShardedAutomaton::compile(&nfa, 2);
        for shard in sharded.shards() {
            let plan = shard.plan();
            for (local, &g) in shard.global_states().iter().enumerate() {
                let ste = nfa.ste(SteId(g));
                for sym in 0..=255u8 {
                    assert_eq!(
                        plan.match_vector(sym).contains(local),
                        ste.class.contains(sym),
                        "state {g} symbol {sym}"
                    );
                }
                assert_eq!(plan.report_code(local), ste.report, "state {g}");
                assert_eq!(
                    plan.all_input_mask().contains(local),
                    ste.start == StartKind::AllInput
                );
            }
        }
    }

    #[test]
    fn start_match_possible_probe_matches_plan() {
        let nfa = regex::compile_set(&["ab", "cd"]).unwrap();
        let sharded = ShardedAutomaton::compile_per_component(&nfa);
        for shard in sharded.shards() {
            for sym in 0..=255u8 {
                assert_eq!(
                    shard.start_match_possible(sym),
                    !shard.plan().start_match(sym).is_empty(),
                    "symbol {sym}"
                );
            }
        }
    }

    #[test]
    fn start_index_lists_the_shards_each_probe_admits() {
        // Components: a→b (all-input a), c→d (start-of-data c), and a
        // self-looping all-input b.
        let mut b = NfaBuilder::new();
        let ids: Vec<SteId> = b"abcdb"
            .iter()
            .map(|&sym| b.add_ste(SymbolClass::singleton(sym)))
            .collect();
        b.set_start(ids[0], StartKind::AllInput);
        b.set_start(ids[2], StartKind::StartOfData);
        b.set_start(ids[4], StartKind::AllInput);
        b.add_edge(ids[0], ids[1]);
        b.add_edge(ids[2], ids[3]);
        b.add_edge(ids[4], ids[4]);
        for &report in &ids[3..] {
            b.set_report(report, 0);
        }
        let nfa = b.build().unwrap();
        let mut assignment = component_ids(&nfa).0;
        // Sparse ids leave empty shards, which the index never lists.
        assignment.iter_mut().for_each(|s| *s *= 2);
        let strided = StridedNfa::from_nfa(&nfa);
        let mut strided_assignment = component_ids(&strided).0;
        strided_assignment.iter_mut().for_each(|s| *s *= 2);
        fn check<P: PlanBase>(plan: &ShardedAutomaton<P>) {
            let bit = |mask: &[u64], si: usize| mask[si / 64] >> (si % 64) & 1 == 1;
            for sym in 0..=255u8 {
                let row = plan.start_shards(sym);
                assert_eq!(row.len(), plan.num_shards().div_ceil(64));
                for (si, shard) in plan.shards().iter().enumerate() {
                    let expect = !shard.is_empty() && shard.start_match_possible(sym);
                    assert_eq!(bit(row, si), expect, "shard {si} symbol {sym}");
                }
            }
            let sod = plan.start_of_data_shards();
            for (si, shard) in plan.shards().iter().enumerate() {
                assert_eq!(bit(sod, si), shard.has_start_of_data(), "shard {si}");
            }
            assert_eq!(sod.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        }
        check(&ShardedAutomaton::<CompiledAutomaton>::compile_with_assignment(&nfa, &assignment));
        check(
            &ShardedAutomaton::<CompiledStridedAutomaton>::compile_with_assignment(
                &strided,
                &strided_assignment,
            ),
        );
    }

    #[test]
    fn empty_automaton_shards() {
        let nfa = NfaBuilder::new().build().unwrap();
        let sharded = ShardedAutomaton::compile(&nfa, 4);
        assert!(sharded.is_empty());
        assert_eq!(sharded.num_shards(), 1);
        assert!(sharded.shard(0).is_empty());
    }

    /// A toy identity codebook over an explicit symbol domain: code row
    /// `i` stands for `domain[i]`, and a state matches a row iff its
    /// class contains that symbol — the smallest exact encoding.
    fn identity_encoded(nfa: &Nfa, domain: &[u8]) -> CompiledEncodedAutomaton {
        CompiledEncodedAutomaton::compile_with(
            nfa,
            identity_spec(domain, |state| nfa.ste(SteId(state as u32)).class),
        )
    }

    /// The [`CodebookSpec`] of the identity codebook over `domain`, for
    /// states whose classes `class_of` returns.
    fn identity_spec<'a>(
        domain: &'a [u8],
        class_of: impl Fn(usize) -> SymbolClass + 'a,
    ) -> CodebookSpec<'a> {
        CodebookSpec {
            code_len: domain.len(),
            num_codes: domain.len(),
            encode: Box::new(move |symbol| {
                domain
                    .iter()
                    .position(|&d| d == symbol)
                    .map(|row| row as u16)
            }),
            matches: Box::new(move |state, row| {
                row.is_some_and(|row| class_of(state).contains(domain[row as usize]))
            }),
            entries: Box::new(|_| 1),
            negated: Box::new(|_| false),
        }
    }

    #[test]
    fn encoded_rows_match_byte_rows_over_the_domain() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        let domain = [b'a', b'b', b'c', b'd', b'e'];
        let byte = CompiledAutomaton::compile(&nfa);
        let encoded = identity_encoded(&nfa, &domain);
        assert_eq!(encoded.len(), byte.len());
        assert_eq!(encoded.num_edges(), byte.num_edges());
        assert_eq!(encoded.num_codes(), domain.len());
        for &symbol in &domain {
            assert_eq!(
                encoded.match_vector(symbol).iter().collect::<Vec<_>>(),
                byte.match_vector(symbol).iter().collect::<Vec<_>>(),
                "symbol {symbol}"
            );
            assert_eq!(
                encoded.start_match(symbol).iter().collect::<Vec<_>>(),
                byte.start_match(symbol).iter().collect::<Vec<_>>(),
                "symbol {symbol}"
            );
            assert!(encoded.encode(symbol).is_some());
        }
        for i in 0..nfa.len() {
            assert_eq!(encoded.report_code(i), byte.report_code(i));
            assert_eq!(encoded.successors(i), byte.successors(i));
        }
    }

    #[test]
    fn encoded_out_of_domain_symbol_selects_the_empty_reserved_row() {
        let nfa = regex::compile("ab").unwrap();
        let encoded = identity_encoded(&nfa, b"ab");
        assert_eq!(encoded.encode(b'z'), None);
        assert_eq!(encoded.row_of_symbol(b'z') as usize, encoded.num_codes());
        assert!(encoded.match_vector(b'z').is_empty());
        assert!(encoded.start_match(b'z').is_empty());
        // The reserved row is shared by every out-of-domain symbol.
        assert_eq!(encoded.row_of_symbol(b'z'), encoded.row_of_symbol(b'q'));
    }

    #[test]
    fn encoded_entry_accounting() {
        let nfa = regex::compile("ab").unwrap();
        let encoded = CompiledEncodedAutomaton::compile_with(
            &nfa,
            CodebookSpec {
                code_len: 16,
                num_codes: 2,
                encode: Box::new(|s| (s == b'a').then_some(0).or((s == b'b').then_some(1))),
                matches: Box::new(|state, row| row == Some(state as u16)),
                // State 0 stores 0 entries, state 1 one.
                entries: Box::new(|state| state as u32),
                negated: Box::new(|state| state == 0),
            },
        );
        assert_eq!(encoded.code_len(), 16);
        assert_eq!(encoded.entries_of(0), 0);
        assert_eq!(encoded.entries_of(1), 1);
        assert_eq!(encoded.entry_weights(), vec![1, 1]);
        assert_eq!(encoded.total_entries(), 1);
        assert!(encoded.is_negated(0));
        assert!(!encoded.is_negated(1));
        assert_eq!(encoded.negated_states(), 1);
    }

    #[test]
    fn sharded_plan_accepts_encoded_shards() {
        let nfa = regex::compile_set(&["ab", "cd"]).unwrap();
        let domain = [b'a', b'b', b'c', b'd'];
        let assignment: Vec<u32> = (0..nfa.len() as u32).map(|i| i % 2).collect();
        let sharded: ShardedEncodedAutomaton =
            ShardedAutomaton::compile_shards_with(&nfa, &assignment, |local, globals| {
                // Reuse the global classes through the handed-in table.
                let class_of = |state: usize| nfa.ste(SteId(globals[state])).class;
                CompiledEncodedAutomaton::compile_with(local, identity_spec(&domain, class_of))
            });
        assert_eq!(sharded.num_shards(), 2);
        assert_eq!(sharded.len(), nfa.len());
        assert_eq!(sharded.entry_weights(), vec![1; nfa.len()]);
        // Each local plan's rows reflect the global classes.
        for shard in sharded.shards() {
            for (local, &global) in shard.global_states().iter().enumerate() {
                for &symbol in &domain {
                    assert_eq!(
                        shard.plan().match_vector(symbol).contains(local),
                        nfa.ste(SteId(global)).class.contains(symbol),
                        "state {global} symbol {symbol}"
                    );
                }
            }
        }
    }

    /// Walks a [`CompiledDfa`] over `input` collecting `(code, offset)`
    /// reports — the chain == 1 engine loop reduced to its essence.
    fn dfa_reports<P: ExecutionPlan>(
        dfa: &CompiledDfa,
        plan: &P,
        input: &[u8],
    ) -> Vec<(u32, usize)> {
        let mut state = 0u32;
        let mut out = Vec::new();
        for (offset, &byte) in input.iter().enumerate() {
            let row = plan.row_of_symbol(byte);
            state = if offset == 0 {
                dfa.first(row)
            } else {
                dfa.next(state, row)
            };
            let (_, codes) = dfa.reports(state);
            out.extend(codes.iter().map(|&code| (code, offset)));
        }
        out
    }

    #[test]
    fn determinize_declines_when_either_budget_cap_is_exceeded() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let full = CompiledDfa::determinize(&plan, &DfaBudget::default()).expect("fits");
        assert!(full.num_states() > 2);
        assert!(full.table_bytes() <= DfaBudget::default().max_table_bytes);

        let tight_states = DfaBudget {
            max_states: 2,
            ..DfaBudget::default()
        };
        assert!(
            CompiledDfa::determinize(&plan, &tight_states).is_none(),
            "state cap must decline the construction"
        );
        let tight_bytes = DfaBudget {
            max_table_bytes: 64,
            ..DfaBudget::default()
        };
        assert!(
            CompiledDfa::determinize(&plan, &tight_bytes).is_none(),
            "table-byte cap must decline the construction"
        );
        // The empty plan has nothing to determinize.
        let empty_nfa = NfaBuilder::new()
            .build_with_options(crate::BuildOptions {
                reject_empty_classes: false,
                reject_unreachable: false,
            })
            .unwrap();
        let empty = CompiledAutomaton::compile(&empty_nfa);
        assert!(CompiledDfa::determinize(&empty, &DfaBudget::default()).is_none());
    }

    #[test]
    fn determinize_all_input_starts_make_first_equal_next_from_empty() {
        // No start-of-data states: cycle 0 injects exactly what every
        // other cycle injects, so the first column is redundant with
        // stepping out of the empty state.
        let nfa = regex::compile("ab+c").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let dfa = CompiledDfa::determinize(&plan, &DfaBudget::default()).unwrap();
        for byte in 0..=255u8 {
            let row = plan.row_of_symbol(byte);
            assert_eq!(dfa.first(row), dfa.next(0, row), "byte {byte}");
        }
    }

    #[test]
    fn determinize_start_of_data_states_inject_only_in_the_first_column() {
        // Anchored `^ab`: the `a` state is start-of-data, enabled at
        // cycle 0 only; re-entering the empty state later must not
        // resurrect it.
        let mut builder = NfaBuilder::new();
        let a = builder.add_ste(SymbolClass::singleton(b'a'));
        let b = builder.add_ste(SymbolClass::singleton(b'b'));
        builder.set_start(a, crate::StartKind::StartOfData);
        builder.add_edge(a, b);
        builder.set_report(b, 7);
        let nfa = builder.build().unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let dfa = CompiledDfa::determinize(&plan, &DfaBudget::default()).unwrap();

        let row_a = plan.row_of_symbol(b'a');
        assert_eq!(dfa.members(dfa.first(row_a)), &[0], "anchored start fires");
        assert_eq!(dfa.next(0, row_a), 0, "mid-stream `a` enables nothing");
        assert_eq!(dfa_reports(&dfa, &plan, b"ab"), vec![(7, 1)]);
        assert_eq!(dfa_reports(&dfa, &plan, b"xab"), vec![]);
    }

    #[test]
    fn determinize_reports_on_start_state_at_cycle_zero() {
        let nfa = regex::compile_set(&["a", "ab+c"]).unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let dfa = CompiledDfa::determinize(&plan, &DfaBudget::default()).unwrap();
        // `a` is a reporting start state: its report must surface on the
        // very first byte, and again on every later `a`.
        assert_eq!(
            dfa_reports(&dfa, &plan, b"abca"),
            vec![(0, 0), (1, 2), (0, 3)]
        );
    }

    #[test]
    fn determinize_handles_negated_classes() {
        let nfa = regex::compile("[^a]b").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let dfa = CompiledDfa::determinize(&plan, &DfaBudget::default()).unwrap();
        assert_eq!(dfa_reports(&dfa, &plan, b"xb"), vec![(0, 1)]);
        // `a` fails the negated class, so no enable reaches `b`.
        assert_eq!(dfa_reports(&dfa, &plan, b"ab"), vec![]);
        // `b` itself satisfies `[^a]`, so `bb` matches at offset 1.
        assert_eq!(dfa_reports(&dfa, &plan, b"bb"), vec![(0, 1)]);
    }

    #[test]
    fn determinize_encoded_plan_indexes_by_code_row() {
        let nfa = regex::compile("ab").unwrap();
        let encoded = identity_encoded(&nfa, b"ab");
        let dfa = CompiledDfa::determinize(&encoded, &DfaBudget::default()).unwrap();
        // Columns are code rows plus the reserved out-of-domain row —
        // three, not 256.
        assert_eq!(dfa.alphabet(), encoded.num_codes() + 1);
        // next table plus the cycle-0 first column, all u32 entries.
        assert_eq!(
            dfa.table_bytes(),
            (dfa.num_states() + 1) * dfa.alphabet() * 4
        );
        assert_eq!(dfa_reports(&dfa, &encoded, b"ab"), vec![(0, 1)]);
        // Out-of-domain symbols all collapse onto the empty reserved
        // row: no state matches, so the walk stays in state 0.
        assert_eq!(dfa_reports(&dfa, &encoded, b"zb"), vec![]);
        let reserved = encoded.row_of_symbol(b'z');
        assert_eq!(reserved, encoded.num_codes() as u32);
        assert_eq!(dfa.next(0, reserved), 0);
        assert_eq!(dfa.first(reserved), 0);
    }

    #[test]
    fn determinize_byte_plan_has_one_column_per_class_in_per_byte_order() {
        // The per-byte construction: an identity codebook over every
        // byte gives one column per byte (plus an unreachable reserved
        // row).
        let full: Vec<u8> = (0u8..=255).collect();
        for pattern in ["(a|b)e*cd+", "[^a]b", "x[0-9]+.y", "ab+c"] {
            let nfa = regex::compile(pattern).unwrap();
            let plan = CompiledAutomaton::compile(&nfa);
            let dfa = CompiledDfa::determinize(&plan, &DfaBudget::default()).unwrap();
            assert_eq!(dfa.alphabet(), plan.alphabet_rows(), "{pattern}");
            assert!(dfa.alphabet() < 16, "{pattern}: {} columns", dfa.alphabet());
            assert_eq!(
                dfa.table_bytes(),
                (dfa.num_states() + 1) * dfa.alphabet() * 4
            );
            // Classes numbered by lowest byte intern the same states in
            // the same order as the per-byte construction.
            let per_byte = identity_encoded(&nfa, &full);
            let wide = CompiledDfa::determinize(&per_byte, &DfaBudget::default()).unwrap();
            assert_eq!(wide.alphabet(), 257);
            assert_eq!(dfa.num_states(), wide.num_states(), "{pattern}");
            for byte in 0..=255u8 {
                let (row, column) = (plan.row_of_symbol(byte), u32::from(byte));
                assert_eq!(dfa.first(row), wide.first(column), "{pattern}");
                for state in 0..dfa.num_states() as u32 {
                    assert_eq!(dfa.members(state), wide.members(state), "{pattern}");
                    assert_eq!(dfa.next(state, row), wide.next(state, column));
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of the DFA's")]
    fn dfa_next_rejects_a_row_beyond_its_columns() {
        let nfa = regex::compile("ab+c").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let dfa = CompiledDfa::determinize(&plan, &DfaBudget::default()).unwrap();
        // Row `alphabet` of state 0 is column 0 of state 1 in the flat
        // table: only the row check catches it.
        assert!(dfa.num_states() > 1);
        dfa.next(0, dfa.alphabet() as u32);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of the DFA's")]
    fn dfa_first_rejects_a_row_beyond_its_columns() {
        let nfa = regex::compile("ab+c").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let dfa = CompiledDfa::determinize(&plan, &DfaBudget::default()).unwrap();
        dfa.first(u32::from(b'a'));
    }

    #[test]
    fn determinize_resume_state_round_trips_dynamic_sets() {
        let nfa = regex::compile("ab+c").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let dfa = CompiledDfa::determinize(&plan, &DfaBudget::default()).unwrap();
        // Every constructed state's dynamic set must resolve back to a
        // forward-equivalent state.
        for state in 0..dfa.num_states() as u32 {
            let resumed = dfa
                .resume_state(dfa.dynamics(state))
                .expect("constructed dynamic sets are resumable");
            assert_eq!(
                dfa.dynamics(resumed),
                dfa.dynamics(state),
                "state {state} resumed to a different enable set"
            );
        }
        // A set the construction never produced is not resumable: no
        // edge targets the start state `a`, so `{a}` is never a
        // reachable `succ` set and such a snapshot must fall back to
        // NFA stepping.
        assert_eq!(dfa.resume_state(&[0]), None);
    }

    #[test]
    fn resume_state_picks_the_first_constructed_of_equal_sets() {
        // `a` and `b` both lead to `c`, so the states {a} and {b} share
        // the dynamic set {c}.
        let nfa = regex::compile("(a|b)c").unwrap();
        let plan = CompiledAutomaton::compile(&nfa);
        let dfa = CompiledDfa::determinize(&plan, &DfaBudget::default()).unwrap();
        let c = (0..nfa.len() as u32)
            .find(|&s| nfa.ste(SteId(s)).class.contains(b'c'))
            .unwrap();
        let sharing: Vec<u32> = (0..dfa.num_states() as u32)
            .filter(|&state| dfa.dynamics(state) == [c])
            .collect();
        assert!(sharing.len() >= 2, "{sharing:?}");
        assert_eq!(dfa.resume_state(&[c]), Some(sharing[0]));
        // Absent sets: below, between and above every constructed one.
        assert_eq!(dfa.resume_state(&[0, c]), None);
        assert_eq!(dfa.resume_state(&[u32::MAX]), None);
        assert_eq!(dfa.resume_state(&[]), Some(0));
    }
}
