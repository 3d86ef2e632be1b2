//! Ruleset-scale compilation: per-component compilation units, a
//! structure-hashed [`PlanCache`], parallel compilation across a worker
//! pool, and the old→new [`PlanRemap`] that live hot swap rides on —
//! each written once, generic over [`Automaton`], so byte ([`Nfa`]) and
//! 2-stride ([`StridedNfa`](crate::stride::StridedNfa)) rulesets take
//! the same path.
//!
//! [`ShardedAutomaton::compile_per_component`] compiles a whole ruleset
//! monolithically: every connected component is recompiled on every
//! call, serially, even when an updated ruleset changed one pattern out
//! of thousands. At production scale (tens of thousands of Snort-class
//! patterns) compilation becomes a serve-blocking step, so this module
//! splits it along the natural cache boundary — the connected component,
//! which shares no activation edge with any other component:
//!
//! * [`split_components`] extracts one [`ComponentUnit`] per connected
//!   component: the component's states (in the flavour's layout order,
//!   see [`Automaton::components`]), a renumbered local automaton under
//!   a canonical name, and a [`StructureHash`] over the *local*
//!   structure (symbol classes, start kinds, report codes and phases,
//!   and edges) — so two structurally identical components hash equal
//!   no matter where their states sit in the global id space;
//! * [`PlanCache`] holds one entry per structure hash (the component's
//!   compiled plan and determinization outcome) for the units of the
//!   last two rulesets, so recompiling an updated ruleset pays only for
//!   the components that actually changed;
//! * [`compile_ruleset`] drives cache misses across worker threads
//!   ([`worker_count`] resolves their number: explicit request →
//!   `CAMA_WORKERS` → [`detected_parallelism`], the one resolver the
//!   stream-parallel runs in `cama_sim` and `cama_arch` use too)
//!   and assembles the per-component shards into a
//!   [`ShardedAutomaton`] bit-identical to
//!   [`compile_per_component`](ShardedAutomaton::compile_per_component)
//!   execution;
//! * [`PlanRemap`] matches an old ruleset's components to a new one's by
//!   structure hash, yielding the old→new global-state-id translation
//!   that lets a live stream table swap plans without draining (see
//!   `cama_sim`'s `swap_plan`): a suspended flow's dynamic state ids
//!   survive on every unchanged component and are dropped (with an
//!   explicit verdict) on removed ones.
//!
//! # Examples
//!
//! Cached recompilation pays only for the changed component:
//!
//! ```
//! use cama_core::compile::{compile_ruleset, PlanCache};
//! use cama_core::regex;
//!
//! let v1 = regex::compile_set(&["ab+c", "xy+z"])?;
//! let mut cache = PlanCache::default();
//! let (_, report) = compile_ruleset(&v1, 1, &mut cache);
//! assert_eq!((report.cache_hits, report.cache_misses), (0, 2));
//!
//! // One pattern changed, one unchanged: one hit, one miss.
//! let v2 = regex::compile_set(&["ab+c", "xy+w"])?;
//! let (plan, report) = compile_ruleset(&v2, 1, &mut cache);
//! assert_eq!((report.cache_hits, report.cache_misses), (1, 1));
//! assert_eq!(plan.num_shards(), 2);
//! # Ok::<(), cama_core::Error>(())
//! ```
//!
//! A remap between ruleset versions translates surviving state ids:
//!
//! ```
//! use cama_core::compile::PlanRemap;
//! use cama_core::regex;
//!
//! let old = regex::compile_set(&["ab+c", "xy+z"])?;
//! let new = regex::compile_set(&["ab+d", "xy+z"])?; // pattern 0 changed
//! let remap = PlanRemap::between(&old, &new);
//! assert_eq!(remap.translate(0), None);    // ab+c state: component changed
//! assert_eq!(remap.translate(3), Some(3)); // xy+z's first state survives
//! # Ok::<(), cama_core::Error>(())
//! ```
//!
//! Report codes are part of a component's structure (a report *is*
//! semantics), and `regex::compile_set` assigns pattern-index codes —
//! so the cache-friendly ways to update a ruleset are appending
//! patterns and replacing patterns in place; reordering renumbers
//! report codes and recompiles everything downstream of the
//! reordering, as it must.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::compiled::{CompiledAutomaton, CompiledDfa, DfaBudget, Shard, ShardedAutomaton};
use crate::graph::Automaton;
use crate::nfa::Nfa;

/// The canonical name every compilation unit's local automaton carries,
/// so compiled plans (and their hashes) are independent of the ruleset
/// name and of where the component sits in it.
const UNIT_NAME: &str = "unit";

/// The machine's detected hardware parallelism
/// ([`std::thread::available_parallelism`]), defaulting to 1 when the
/// platform cannot say.
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resolves a requested worker count: an explicit positive request
/// wins; `0` consults the `CAMA_WORKERS` environment variable (a
/// positive integer) and falls back to [`detected_parallelism`]. Always
/// at least 1. Parallel ruleset compilation ([`compile_ruleset`]),
/// `cama_sim`'s `BatchSimulator::run_parallel` and `cama_arch`'s
/// `evaluate_serving_parallel` all size their threads with it.
pub fn worker_count(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(value) = std::env::var("CAMA_WORKERS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    detected_parallelism()
}

/// Work-stealing fan-out over `0..count`: `threads` scoped workers each
/// build their state with `init`, claim the next unclaimed index from a
/// shared atomic cursor and run `job` on it — so one expensive item
/// doesn't idle the pool the way contiguous chunking would — and hand
/// their state to `done` once the cursor runs dry. Results come back in
/// index order. With `threads <= 1` nothing is spawned: the caller's
/// thread runs every index in order on one state.
///
/// # Panics
///
/// Propagates a worker's panic.
pub fn work_steal<S, T: Send>(
    count: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
    done: impl Fn(S) + Sync,
) -> Vec<T> {
    if threads <= 1 {
        let mut state = init();
        let results = (0..count).map(|i| job(&mut state, i)).collect();
        done(state);
        return results;
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(count, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        claimed.push((i, job(&mut state, i)));
                    }
                    done(state);
                    claimed
                })
            })
            .collect();
        for handle in handles {
            let claimed = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in claimed {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

/// A 128-bit structural fingerprint of one compilation unit, computed
/// over the component's *local renumbered* form: state count, per-state
/// words ([`Automaton::state_words`]: symbol-class words, start kind,
/// report), and the local edge list. Independent of global state ids,
/// ruleset name, and component position, so identical patterns collide
/// on purpose — that collision is the cache hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructureHash([u64; 2]);

impl std::fmt::Display for StructureHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// Two independent FNV-1a-style 64-bit lanes fed word-at-a-time. Not
/// cryptographic — a cache key, where an adversarial collision costs a
/// recompile at worst (`PlanCache` never serves a wrong plan for a
/// *different* structure unless both lanes collide simultaneously).
struct StructureHasher {
    a: u64,
    b: u64,
}

impl StructureHasher {
    fn new() -> Self {
        StructureHasher {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.b = (self.b ^ w.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(mut self) -> StructureHash {
        // One final avalanche round so short inputs still diffuse.
        let (a, b) = (self.a, self.b);
        self.word(a ^ b.rotate_left(17));
        StructureHash([self.a, self.b])
    }
}

/// One connected component of an automaton, extracted as a
/// self-contained compilation unit by [`split_components`].
#[derive(Clone, Debug)]
pub struct ComponentUnit<A = Nfa> {
    /// Global state ids in local order (the component's layout order).
    states: Vec<u32>,
    /// The renumbered local automaton under the canonical unit name.
    local: A,
    hash: StructureHash,
}

impl<A> ComponentUnit<A> {
    /// Global state ids in local order.
    pub fn states(&self) -> &[u32] {
        &self.states
    }

    /// The renumbered local automaton.
    pub fn local(&self) -> &A {
        &self.local
    }

    /// The unit's structural fingerprint.
    pub fn hash(&self) -> StructureHash {
        self.hash
    }

    /// Number of states in the unit.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` for a unit holding no states (never produced by
    /// [`split_components`]).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Splits `nfa` into one [`ComponentUnit`] per connected component, in
/// the deterministic largest-component-first order of
/// [`Automaton::components`] that the sharding strategies use. Covers
/// every state exactly once.
pub fn split_components<A: Automaton>(nfa: &A) -> Vec<ComponentUnit<A>> {
    let mut local_of = vec![u32::MAX; nfa.len()];
    let mut edges = Vec::new();
    nfa.components()
        .into_iter()
        .map(|states| {
            for (local, &g) in states.iter().enumerate() {
                local_of[g as usize] = local as u32;
            }
            let mut hasher = StructureHasher::new();
            hasher.word(states.len() as u64);
            for &g in &states {
                for w in nfa.state_words(g as usize) {
                    hasher.word(w);
                }
            }
            edges.clear();
            for (local, &g) in states.iter().enumerate() {
                // Components are closed under activation edges, so
                // every successor is in this unit.
                for succ in nfa.successor_ids(g as usize) {
                    let to = local_of[succ as usize];
                    hasher.word((local as u64) << 32 | u64::from(to));
                    edges.push((local as u32, to));
                }
            }
            hasher.word(edges.len() as u64);
            ComponentUnit {
                local: nfa.extract(UNIT_NAME.to_string(), &states, &edges),
                states,
                hash: hasher.finish(),
            }
        })
        .collect()
}

/// Lifetime counters of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Unit lookups answered from the cache.
    pub hits: u64,
    /// Unit lookups that had to compile.
    pub misses: u64,
    /// Entries retired because the previous compile did not use them,
    /// plus stores refused because the cache was full.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// The capacity bound (entries never exceed it).
    pub capacity: usize,
}

/// The compiles whose units a [`PlanCache`] keeps: an entry survives
/// while this compile or the previous one used it.
const RETAINED_GENERATIONS: u64 = 2;

/// A determinization outcome: `None` when the caps declined it.
type Dfa = Option<Arc<CompiledDfa>>;

/// One cached component.
#[derive(Clone, Debug)]
struct CacheEntry<P> {
    /// The compiled NFA shard (no DFA attached).
    shard: Shard<P>,
    /// The caps the unit was last determinized under and the outcome
    /// (`None` = declined under them).
    dfa: Option<(DfaBudget, Dfa)>,
    /// The last compile that used this entry.
    generation: u64,
}

/// A bounded cache of compiled per-component shards, one entry per
/// [`StructureHash`]. An entry holds the component's compiled plan and,
/// once [`compile_hybrid_ruleset`] asked for it, its determinization
/// outcome under the [`DfaBudget`] caps it was built with.
///
/// **Retention bound:** each [`compile_ruleset`] or
/// [`compile_hybrid_ruleset`] call is one generation. A call first
/// retires every entry the previous call did not use, and a store into
/// a full cache is refused instead of evicting. After any compile the
/// cache holds at most `min(capacity, units of this ruleset ∪ units of
/// the previous one)` entries ([`DEFAULT_CAPACITY`](PlanCache::DEFAULT_CAPACITY)
/// = 4096 unless set via [`new`](PlanCache::new)). Retired entries and
/// refused stores both count as evictions in
/// [`cache_stats`](PlanCache::cache_stats). Memory follows the two most
/// recent rulesets, never the number of rulesets ever compiled.
#[derive(Clone, Debug)]
pub struct PlanCache<P = CompiledAutomaton> {
    capacity: usize,
    entries: HashMap<StructureHash, CacheEntry<P>>,
    generation: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<P> Default for PlanCache<P> {
    fn default() -> Self {
        PlanCache::new(Self::DEFAULT_CAPACITY)
    }
}

impl<P> PlanCache<P> {
    /// The default capacity bound (compiled components held at once).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A cache bounded to `capacity` compiled components.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a cache that cannot hold an entry
    /// would miss forever while still paying the bookkeeping).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be positive");
        PlanCache {
            capacity,
            entries: HashMap::new(),
            generation: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Lifetime hit/miss/eviction counters plus the current occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            capacity: self.capacity,
        }
    }

    /// Opens a generation, retiring what the previous one did not use.
    fn next_generation(&mut self) {
        self.generation += 1;
        let held = self.entries.len();
        let oldest = self.generation + 1 - RETAINED_GENERATIONS;
        self.entries.retain(|_, entry| entry.generation >= oldest);
        self.evictions += (held - self.entries.len()) as u64;
    }

    fn lookup(&mut self, hash: StructureHash) -> Option<&Shard<P>> {
        match self.entries.get_mut(&hash) {
            Some(entry) => {
                entry.generation = self.generation;
                self.hits += 1;
                Some(&entry.shard)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn store(&mut self, hash: StructureHash, shard: Shard<P>) {
        if self.entries.len() >= self.capacity {
            self.evictions += 1;
            return;
        }
        let entry = CacheEntry {
            shard,
            dfa: None,
            generation: self.generation,
        };
        self.entries.insert(hash, entry);
    }
}

impl PlanCache<CompiledAutomaton> {
    /// Unit `hash`'s determinization under `budget`: its entry's
    /// outcome under equal caps, else a subset construction of `shard`'s
    /// plan, recorded on the entry (if its store was not refused).
    fn determinize(&mut self, hash: StructureHash, shard: &Shard, budget: &DfaBudget) -> Dfa {
        let entry = self.entries.get_mut(&hash);
        match entry.as_ref().and_then(|entry| entry.dfa.as_ref()) {
            Some((cached, outcome)) if cached == budget => return outcome.clone(),
            _ => {}
        }
        let outcome = CompiledDfa::determinize(shard.plan(), budget).map(Arc::new);
        if let Some(entry) = entry {
            entry.dfa = Some((*budget, outcome.clone()));
        }
        outcome
    }
}

/// What one ruleset compilation did: unit counts, cache outcome, and
/// the resolved worker-pool size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileReport {
    /// Connected components in the ruleset (== shards of the plan).
    pub components: usize,
    /// Components served from the [`PlanCache`] without compiling.
    pub cache_hits: usize,
    /// Components compiled (and offered to the cache).
    pub cache_misses: usize,
    /// Worker threads the misses were compiled across.
    pub workers: usize,
}

/// The one cached-parallel compile path: open a cache generation, look
/// each unit up once, compile the misses across a worker pool, publish
/// them back to the cache, and return the per-component shards in unit
/// order.
fn compile_cached<A: Automaton>(
    units: &[ComponentUnit<A>],
    cache: &mut PlanCache<A::Plan>,
    workers: usize,
) -> (Vec<Shard<A::Plan>>, CompileReport) {
    let workers = worker_count(workers);
    cache.next_generation();
    let mut slots = Vec::with_capacity(units.len());
    let mut miss_indices = Vec::new();
    for (index, unit) in units.iter().enumerate() {
        let hit = cache
            .lookup(unit.hash)
            .map(|template| template.retarget(unit.states.clone()));
        if hit.is_none() {
            miss_indices.push(index);
        }
        slots.push(hit);
    }

    let report = CompileReport {
        components: units.len(),
        cache_hits: units.len() - miss_indices.len(),
        cache_misses: miss_indices.len(),
        workers,
    };

    let compiled = work_steal(
        miss_indices.len(),
        workers.min(miss_indices.len()),
        || (),
        |_, k| {
            let unit = &units[miss_indices[k]];
            Shard::from_component(unit.local.compile_plan(), unit.states.clone())
        },
        drop,
    );
    // Publish the fresh compilations so the next ruleset version hits.
    for (&index, shard) in miss_indices.iter().zip(compiled) {
        cache.store(units[index].hash, shard.clone());
        slots[index] = Some(shard);
    }
    let shards = slots
        .into_iter()
        .map(|slot| slot.expect("every unit slot filled"))
        .collect();
    (shards, report)
}

/// The ruleset plan over `shards`, one per unit in unit order.
fn assemble<A: Automaton>(nfa: &A, mut shards: Vec<Shard<A::Plan>>) -> ShardedAutomaton<A::Plan> {
    if shards.is_empty() {
        // Mirror compile_per_component on the empty ruleset: one empty
        // shard, so downstream shard-indexed consumers see a shard.
        let empty = nfa.extract(UNIT_NAME.to_string(), &[], &[]);
        shards.push(Shard::from_component(empty.compile_plan(), Vec::new()));
    }
    ShardedAutomaton::assemble(nfa.len(), nfa.name().to_string(), shards)
}

/// Compiles a ruleset per-component through `cache`, compiling misses
/// across `workers` threads (`0` = auto, see [`worker_count`]), for
/// byte and 2-stride automata alike. The plan executes bit-identically
/// to [`ShardedAutomaton::compile_per_component`] (asserted
/// differentially in `tests/property.rs`); the [`CompileReport`] says
/// how much of it was paid for.
pub fn compile_ruleset<A: Automaton>(
    nfa: &A,
    workers: usize,
    cache: &mut PlanCache<A::Plan>,
) -> (ShardedAutomaton<A::Plan>, CompileReport) {
    let (shards, report) = compile_cached(&split_components(nfa), cache, workers);
    (assemble(nfa, shards), report)
}

/// The profile-guided determinization policy [`compile_hybrid_ruleset`]
/// applies: which components become [`CompiledDfa`] fast paths and
/// under what blow-up caps.
///
/// Nomination is hottest-first — components ranked by summed observed
/// per-state heat (`cama_sim::profile::ShardingProfile::dfa_policy`
/// fills `heat` from measured `state_active` counters) — within a
/// global `memory_budget` over the accepted tables. The per-component
/// [`DfaBudget`] caps are separate: a [`PlanCache`] entry keeps its
/// determinization outcome with the caps it was built under and reuses
/// it only under equal caps. The global budget and the heat profile
/// only govern which outcomes one compilation accepts, so cache entries
/// never depend on what happened to be accepted before them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DfaPolicy {
    /// Per-component subset-construction caps.
    pub budget: DfaBudget,
    /// Global cap over accepted DFA table bytes across the ruleset.
    pub memory_budget: usize,
    /// Observed per-global-state activity (index = global state id of
    /// the ruleset being compiled). Empty = no profile: every component
    /// is considered hot, nominated in unit order.
    pub heat: Vec<u64>,
}

impl Default for DfaPolicy {
    fn default() -> Self {
        DfaPolicy {
            budget: DfaBudget::default(),
            memory_budget: 4 * 1024 * 1024,
            heat: Vec::new(),
        }
    }
}

/// `false` when the `CAMA_DFA` environment variable is `off` or `0`:
/// the pure-NFA override lane ([`compile_hybrid_ruleset`] then compiles
/// exactly what [`compile_ruleset`] compiles), so a whole test suite can
/// run with every component on the NFA word loops.
pub fn dfa_enabled() -> bool {
    match std::env::var("CAMA_DFA") {
        Ok(value) => {
            let value = value.trim();
            !(value.eq_ignore_ascii_case("off") || value == "0")
        }
        Err(_) => true,
    }
}

/// [`compile_ruleset`] with a profile-guided DFA fast path: components
/// `policy` nominates (hottest observed heat first) are subset-
/// constructed under the per-component [`DfaBudget`] caps, and the ones
/// that stay within budget — per-component *and* the running global
/// memory budget — carry a [`CompiledDfa`] the engines step with one
/// table load per cycle. Everything else (blown budgets, cold
/// components, components with cross edges) keeps the NFA kernels.
/// Execution of the hybrid plan is report-bit-identical to the pure-NFA
/// plan (asserted differentially in `tests/property.rs`).
///
/// Each unit is looked up in `cache` once, as in [`compile_ruleset`],
/// and its determinization outcome is kept on the same entry. With
/// `CAMA_DFA=off` (see [`dfa_enabled`]) this is exactly
/// [`compile_ruleset`].
///
/// # Examples
///
/// ```
/// use cama_core::compile::{compile_hybrid_ruleset, DfaPolicy, PlanCache};
/// use cama_core::regex;
///
/// let nfa = regex::compile_set(&["ab+c", "xy+z"])?;
/// let mut cache = PlanCache::default();
/// // No profile: every in-budget component is determinized.
/// let (plan, _) = compile_hybrid_ruleset(&nfa, 1, &mut cache, &DfaPolicy::default());
/// if cama_core::compile::dfa_enabled() {
///     assert_eq!(plan.num_dfa_shards(), 2);
/// }
/// # Ok::<(), cama_core::Error>(())
/// ```
pub fn compile_hybrid_ruleset(
    nfa: &Nfa,
    workers: usize,
    cache: &mut PlanCache<CompiledAutomaton>,
    policy: &DfaPolicy,
) -> (ShardedAutomaton, CompileReport) {
    if !dfa_enabled() {
        return compile_ruleset(nfa, workers, cache);
    }
    let units = split_components(nfa);
    let (mut shards, report) = compile_cached(&units, cache, workers);

    // Nomination: rank units hottest-first by summed observed state
    // heat (ties and the no-profile case fall back to unit order —
    // split_components orders largest component first).
    let heats: Vec<u64> = units
        .iter()
        .map(|unit| {
            unit.states
                .iter()
                .map(|&g| policy.heat.get(g as usize).copied().unwrap_or(0))
                .sum()
        })
        .collect();
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(heats[i]), i));

    // Determinize each nominated unit (or reuse its entry's outcome),
    // serially — hot components are few — and meter accepted tables
    // against the global memory budget.
    let mut remaining = policy.memory_budget;
    for i in order {
        // A measured profile marks never-active components cold; they
        // stay NFA (their shards are skipped wholesale anyway).
        if !policy.heat.is_empty() && heats[i] == 0 {
            continue;
        }
        // A decline under the caps keeps the NFA shard.
        let Some(dfa) = cache.determinize(units[i].hash, &shards[i], &policy.budget) else {
            continue;
        };
        // Accept while the global budget covers it (structurally
        // identical duplicates each meter the shared table, which keeps
        // acceptance independent of Arc sharing); over it, the DFA
        // stays cached and this compilation keeps the NFA shard.
        let bytes = dfa.table_bytes();
        if bytes <= remaining {
            remaining -= bytes;
            shards[i].attach_dfa(dfa);
        }
    }
    (assemble(nfa, shards), report)
}

/// The sentinel for a state with no image in the new plan.
const REMOVED: u32 = u32::MAX;

/// An old→new global-state-id translation between two ruleset versions,
/// built by matching connected components by [`StructureHash`].
///
/// This is the migration vehicle of live hot swap: a suspended flow's
/// dynamic state ids (and its reports' state ids) are rewritten through
/// [`translate`](PlanRemap::translate); states on components absent
/// from the new ruleset translate to `None` and are dropped by the
/// stream table with an explicit verdict. States on unchanged
/// components map positionally — both sides list a component's states
/// in the same deterministic BFS order, so position `i` of the old
/// component *is* position `i` of the structurally identical new one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanRemap {
    /// Old global id → new global id ([`REMOVED`] = dropped).
    map: Vec<u32>,
    new_len: usize,
}

impl PlanRemap {
    /// The identity remap for a plan of `len` states (swap to a
    /// recompiled but structurally identical ruleset — or literally the
    /// same plan).
    pub fn identity(len: usize) -> PlanRemap {
        PlanRemap {
            map: (0..len as u32).collect(),
            new_len: len,
        }
    }

    /// An explicit remap: `map[old] = Some(new)` keeps a state,
    /// `None` drops it.
    ///
    /// # Panics
    ///
    /// Panics if any kept target is `>= new_len`.
    pub fn from_map(map: Vec<Option<u32>>, new_len: usize) -> PlanRemap {
        let map = map
            .into_iter()
            .map(|entry| match entry {
                Some(new) => {
                    assert!(
                        (new as usize) < new_len,
                        "remap target {new} out of range for a {new_len}-state plan"
                    );
                    new
                }
                None => REMOVED,
            })
            .collect();
        PlanRemap { map, new_len }
    }

    /// Matches `old`'s components to `new`'s by structure hash (ties
    /// broken in component order, so duplicated patterns pair
    /// first-to-first) and derives the state translation. Components of
    /// `old` with no structurally identical partner in `new` translate
    /// to `None`. Byte and strided automata alike: a strided plan's
    /// global ids are strided-state ids, so remap its source
    /// [`StridedNfa`](crate::stride::StridedNfa)s.
    pub fn between<A: Automaton>(old: &A, new: &A) -> PlanRemap {
        let (old_units, new_units) = (split_components(old), split_components(new));
        Self::matched(new.len(), &old_units, &new_units, 0)
    }

    /// [`between`](PlanRemap::between) specialized for append-only
    /// ruleset updates: instead of hash-matching every component, the
    /// shared *prefix* of components — equal structure hash at equal
    /// global placement, the common case when patterns are only
    /// appended — is reused as identity entries without touching the
    /// matcher, and only the tail beyond the first divergence goes
    /// through the full FIFO hash match. Semantically always equal to
    /// [`between`](PlanRemap::between) (asserted in this module's
    /// tests); the win is the construction cost on tens-of-thousands-
    /// component rulesets where an append leaves almost everything in
    /// place.
    pub fn extend_append<A: Automaton>(old: &A, new: &A) -> PlanRemap {
        let (old_units, new_units) = (split_components(old), split_components(new));
        // The shared prefix: units whose structure AND global placement
        // are unchanged (units come largest first, so an append can
        // reorder the tail — placement equality is what makes the
        // identity reuse sound).
        let prefix = old_units
            .iter()
            .zip(&new_units)
            .take_while(|(o, n)| o.hash == n.hash && o.states == n.states)
            .count();
        Self::matched(new.len(), &old_units, &new_units, prefix)
    }

    /// Identity on the first `prefix` units of both sides, then the FIFO
    /// structure-hash match over the rest.
    fn matched<A>(
        new_len: usize,
        old_units: &[ComponentUnit<A>],
        new_units: &[ComponentUnit<A>],
        prefix: usize,
    ) -> PlanRemap {
        // The units cover every old state exactly once.
        let mut map = vec![REMOVED; old_units.iter().map(ComponentUnit::len).sum()];
        for unit in &old_units[..prefix] {
            for &g in &unit.states {
                map[g as usize] = g;
            }
        }
        let mut unmatched: HashMap<StructureHash, VecDeque<&[u32]>> = HashMap::new();
        for unit in &new_units[prefix..] {
            unmatched
                .entry(unit.hash)
                .or_default()
                .push_back(&unit.states);
        }
        for unit in &old_units[prefix..] {
            let Some(new_states) = unmatched.get_mut(&unit.hash).and_then(VecDeque::pop_front)
            else {
                continue;
            };
            debug_assert_eq!(unit.len(), new_states.len(), "hash-equal unit sizes");
            for (&old, &new) in unit.states.iter().zip(new_states) {
                map[old as usize] = new;
            }
        }
        PlanRemap { map, new_len }
    }

    /// The new global id of an old state, or `None` if its component
    /// was removed.
    pub fn translate(&self, old: u32) -> Option<u32> {
        match self.map.get(old as usize) {
            Some(&REMOVED) | None => None,
            Some(&new) => Some(new),
        }
    }

    /// States in the old plan.
    pub fn old_len(&self) -> usize {
        self.map.len()
    }

    /// States in the new plan.
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// Old states with an image in the new plan.
    pub fn surviving(&self) -> usize {
        self.map.iter().filter(|&&new| new != REMOVED).count()
    }

    /// `true` when every old state maps to itself (same-size plans,
    /// nothing moved — the swap translation is a no-op).
    pub fn is_identity(&self) -> bool {
        self.map.len() == self.new_len
            && self.map.iter().enumerate().all(|(i, &new)| new == i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{ExecutionPlan, PlanBase, ShardedStridedAutomaton};
    use crate::nfa::NfaBuilder;
    use crate::regex;
    use crate::stride::StridedNfa;

    fn ruleset(patterns: &[&str]) -> Nfa {
        regex::compile_set(patterns).expect("test ruleset compiles")
    }

    #[test]
    fn units_cover_every_state_exactly_once() {
        let nfa = ruleset(&["ab+c", "xy+z", "q"]);
        let units = split_components(&nfa);
        assert_eq!(units.len(), 3);
        let mut seen = vec![false; nfa.len()];
        for unit in &units {
            assert_eq!(unit.len(), unit.local().len());
            for &g in unit.states() {
                assert!(!seen[g as usize], "state {g} in two units");
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "state missing from every unit");
    }

    #[test]
    fn structure_hash_ignores_global_placement() {
        // "xy+z" sits at global offset 2 in one set and offset 4 in the
        // other, with the same report code both times: its unit hash
        // must be the one hash the two sets share.
        let a: Vec<StructureHash> = split_components(&ruleset(&["zz", "xy+z"]))
            .iter()
            .map(ComponentUnit::hash)
            .collect();
        let b: Vec<StructureHash> = split_components(&ruleset(&["ab+cd", "xy+z"]))
            .iter()
            .map(ComponentUnit::hash)
            .collect();
        let common: Vec<_> = a.iter().filter(|h| b.contains(h)).collect();
        assert_eq!(common.len(), 1);
        // A report-code change alone is a structural change: the same
        // pattern at a different set position hashes differently.
        let moved = split_components(&ruleset(&["zz", "qq", "xy+z"]));
        assert!(!a.contains(&moved[0].hash()));
    }

    /// Pins the structure hashes (the plan-cache keys) and local layouts
    /// of both flavours' units, and the strided shard layouts, on a
    /// ruleset with a duplicated pattern.
    #[test]
    fn unit_hashes_and_layouts_are_pinned() {
        let nfa = ruleset(&["ab+c", "x[yz]*w", "ab+c", "(q|r)s"]);
        let strided = StridedNfa::from_nfa(&nfa);
        let byte: Vec<(String, Vec<u32>)> = split_components(&nfa)
            .iter()
            .map(|u| (u.hash().to_string(), u.states().to_vec()))
            .collect();
        let pair: Vec<(String, Vec<u32>)> = split_components(&strided)
            .iter()
            .map(|u| (u.hash().to_string(), u.states().to_vec()))
            .collect();
        let layout = |plan: &ShardedStridedAutomaton| -> Vec<Vec<u32>> {
            plan.shards()
                .iter()
                .map(|s| s.global_states().to_vec())
                .collect()
        };
        let unit = |hash: &str, states: &[u32]| (hash.to_string(), states.to_vec());
        assert_eq!(
            byte,
            [
                unit("1a5ffdc0865caf5c6829e9f69c738eab", &[0, 1, 2]),
                unit("cb867e0e8a084499e46dabe40e34d800", &[3, 4, 5]),
                unit("e387a8c085f62aed5be0f2a90c1c7d94", &[6, 7, 8]),
                unit("30ebd1f28e24158769a5255497d4ab2c", &[9, 10, 11]),
            ]
        );
        assert_eq!(
            pair,
            [
                unit("38a88d63e1845341eb69a0c110d55d34", &[0, 1, 2, 12, 16]),
                unit("aa3ca1a0fafe800b5dbad0468b88b42b", &[3, 5, 6, 13, 17]),
                unit("e3f18963e126d7758b6dbeb1a371ecdb", &[7, 8, 9, 14, 18]),
                unit("4c85f53d10bb414b3675cb902785d31c", &[15, 19, 20]),
                unit("70e34022858ef639a4df108e9a3acaad", &[4]),
                unit("ba9d6e86849a090d9fb3f30a35124459", &[10]),
                unit("04207daa866458b5ff96cc72e314dc75", &[11]),
            ]
        );
        assert_eq!(
            layout(&ShardedAutomaton::compile(&strided, 3)),
            [
                vec![0, 1, 2, 12, 16, 15, 19, 20],
                vec![3, 5, 6, 13, 17, 4, 11],
                vec![7, 8, 9, 14, 18, 10],
            ]
        );
        assert_eq!(
            layout(&ShardedAutomaton::compile_per_component(&strided)),
            [
                vec![0, 1, 2, 12, 16],
                vec![3, 5, 6, 13, 17],
                vec![7, 8, 9, 14, 18],
                vec![15, 19, 20],
                vec![4],
                vec![10],
                vec![11],
            ]
        );
    }

    #[test]
    fn cached_recompile_pays_only_for_the_changed_component() {
        let v1 = ruleset(&["ab+c", "xy+z", "pq*r", "m[a-c]n"]);
        let mut cache = PlanCache::default();
        let (_, cold) = compile_ruleset(&v1, 1, &mut cache);
        assert_eq!(cold.components, 4);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses, 4);

        // One component changed: hits == unchanged component count.
        let v2 = ruleset(&["ab+c", "xy+z", "pq*r", "m[a-d]n"]);
        let (_, warm) = compile_ruleset(&v2, 1, &mut cache);
        assert_eq!(warm.cache_hits, 3);
        assert_eq!(warm.cache_misses, 1);
        let stats = cache.cache_stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.entries, 5);

        // A hybrid compile looks each unit up once, in the entries the
        // plain compile made; changed caps determinize afresh.
        let mut policy = DfaPolicy::default();
        for max_states in [policy.budget.max_states, 2] {
            policy.budget.max_states = max_states;
            let (plan, hybrid) = compile_hybrid_ruleset(&v2, 1, &mut cache, &policy);
            assert_eq!((hybrid.cache_hits, hybrid.cache_misses), (4, 0));
            if dfa_enabled() {
                assert_eq!(plan.num_dfa_shards(), if max_states == 2 { 0 } else { 4 });
            }
        }
        let stats = cache.cache_stats();
        assert_eq!((stats.hits, stats.misses), (11, 5));
    }

    #[test]
    fn cached_and_parallel_compiles_execute_identically() {
        let nfa = ruleset(&["ab+c", "xy+z", "a[bc]d", "zz+"]);
        let reference = ShardedAutomaton::compile_per_component(&nfa);
        let mut cache = PlanCache::default();
        let (cold, _) = compile_ruleset(&nfa, 1, &mut cache);
        let (cached, report) = compile_ruleset(&nfa, 4, &mut cache);
        assert_eq!(report.cache_hits, 4);
        for plan in [&cold, &cached] {
            assert_eq!(plan.len(), reference.len());
            assert_eq!(plan.num_shards(), reference.num_shards());
            assert_eq!(plan.num_cross_edges(), 0);
            for (shard, ref_shard) in plan.shards().iter().zip(reference.shards()) {
                assert_eq!(shard.global_states(), ref_shard.global_states());
            }
        }
    }

    #[test]
    fn strided_ruleset_compiles_and_caches() {
        let nfa = ruleset(&["ab+c", "xy+z"]);
        let strided = StridedNfa::from_nfa(&nfa);
        let mut cache = PlanCache::default();
        let (plan, cold) = compile_ruleset(&strided, 2, &mut cache);
        assert_eq!(plan.len(), strided.len());
        assert_eq!(cold.cache_hits, 0);
        let (_, warm) = compile_ruleset(&strided, 2, &mut cache);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.cache_hits, cold.components);
    }

    /// After every compile the cache holds at most `capacity` entries,
    /// all of them units of that ruleset or the previous one — also when
    /// one ruleset alone has more units than the capacity.
    #[test]
    fn cache_eviction_is_bounded_and_counted() {
        let mut cache: PlanCache<CompiledAutomaton> = PlanCache::new(3);
        let mut previous = Vec::new();
        for patterns in ["a", "b", "c", "d", "e f g h", "e f g h"] {
            let nfa = ruleset(&patterns.split(' ').collect::<Vec<_>>());
            let units: Vec<StructureHash> = split_components(&nfa).iter().map(|u| u.hash).collect();
            compile_ruleset(&nfa, 1, &mut cache);
            assert!(
                cache.entries.len() <= cache.capacity,
                "{patterns}: capacity bound held"
            );
            let recent = |hash: &StructureHash| units.contains(hash) || previous.contains(hash);
            assert!(
                cache.entries.keys().all(recent),
                "{patterns}: kept a unit neither of the last two rulesets used"
            );
            if patterns == "d" {
                let stats = cache.cache_stats();
                assert_eq!((stats.entries, stats.evictions, stats.misses), (2, 2, 4));
            }
            previous = units;
        }
        // "d" holds one of the three slots, so g and h are refused; the
        // repeat retires "d", hits e and f, stores g and refuses h.
        let stats = cache.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 10, 7));

        // An identical hybrid recompile with room for the n units but not
        // for 2n entries misses nothing (every table over the budget).
        let nfa = ruleset(&["ab+c", "xy+z", "pq*r", "m[a-c]n"]);
        let mut cache = PlanCache::new(6);
        let over = DfaPolicy {
            memory_budget: 0,
            ..DfaPolicy::default()
        };
        compile_hybrid_ruleset(&nfa, 1, &mut cache, &over);
        let (_, again) = compile_hybrid_ruleset(&nfa, 1, &mut cache, &over);
        assert_eq!((again.cache_hits, cache.cache_stats().misses), (4, 4));
    }

    /// Every `(global state, code, offset)` report of `plan` on `input`,
    /// each component shard stepped through its DFA when it carries one
    /// and through its match rows otherwise.
    fn walk_reports(plan: &ShardedAutomaton, input: &[u8]) -> Vec<(u32, u32, usize)> {
        let mut out = Vec::new();
        for shard in plan.shards() {
            let (local, globals) = (shard.plan(), shard.global_states());
            let mut emit = |state: usize, code, offset| out.push((globals[state], code, offset));
            if let Some(dfa) = shard.dfa() {
                let mut state = 0;
                for (offset, &byte) in input.iter().enumerate() {
                    let row = local.row_of_symbol(byte);
                    state = match offset {
                        0 => dfa.first(row),
                        _ => dfa.next(state, row),
                    };
                    let (locals, codes) = dfa.reports(state);
                    for (&l, &code) in locals.iter().zip(codes) {
                        emit(l as usize, code, offset);
                    }
                }
                continue;
            }
            let mut enabled = local.all_input_mask().clone();
            enabled.union_with(local.start_of_data_mask());
            for (offset, &byte) in input.iter().enumerate() {
                let mut active = local.match_vector(byte).to_bitset();
                active.intersect_with(&enabled);
                enabled.copy_from(local.all_input_mask());
                for state in active.iter() {
                    if let Some(code) = local.report_code(state) {
                        emit(state, code, offset);
                    }
                    for &next in local.successors(state) {
                        enabled.insert(next as usize);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// DFA tables are as wide as the byte classes a component tells
    /// apart, so a global budget that 256-column tables overflow admits
    /// every component, and the hybrid plan reports what the NFA plan
    /// reports.
    #[test]
    fn class_width_tables_fit_a_budget_per_byte_tables_overflow() {
        let letters = |i: u8| [b'a' + i, b'a' + (i + 1) % 26].map(char::from);
        let patterns: Vec<String> = (0..24u8)
            .map(|i| {
                let [a, b] = letters(i);
                format!("{a}{b}+[0-9]x")
            })
            .collect();
        let nfa = ruleset(&patterns.iter().map(String::as_str).collect::<Vec<_>>());
        let per_byte = |plan: &ShardedAutomaton| -> usize {
            let states = |s: &Shard| s.dfa().map_or(0, CompiledDfa::num_states);
            plan.shards()
                .iter()
                .map(|s| (states(s) + 1) * 256 * 4)
                .sum()
        };
        let policy = DfaPolicy {
            memory_budget: 16 * 1024,
            ..DfaPolicy::default()
        };
        let mut cache = PlanCache::default();
        let (hybrid, _) = compile_hybrid_ruleset(&nfa, 1, &mut cache, &policy);
        let (nfa_plan, _) = compile_ruleset(&nfa, 1, &mut PlanCache::default());
        if dfa_enabled() {
            assert_eq!(hybrid.num_dfa_shards(), patterns.len());
            let tables: usize = hybrid
                .shards()
                .iter()
                .filter_map(|s| s.dfa().map(CompiledDfa::table_bytes))
                .sum();
            assert!(tables <= policy.memory_budget, "{tables} table bytes");
            assert!(
                per_byte(&hybrid) > 4 * policy.memory_budget,
                "256-column tables would take {} bytes",
                per_byte(&hybrid)
            );
        }
        assert_eq!(nfa_plan.num_dfa_shards(), 0);
        // Every pattern once, with 1–3 repeats, then a near miss.
        let mut input = String::new();
        for i in 0..24u8 {
            let [a, b] = letters(i);
            let repeats = b.to_string().repeat(1 + i as usize % 3);
            input += &format!("{a}{repeats}{}x {a}{b}x ", i % 10);
        }
        let reports = walk_reports(&hybrid, input.as_bytes());
        assert_eq!(reports.len(), patterns.len());
        assert_eq!(reports, walk_reports(&nfa_plan, input.as_bytes()));
    }

    #[test]
    fn empty_ruleset_compiles_to_one_empty_shard() {
        let nfa = NfaBuilder::new().build().unwrap();
        let mut cache = PlanCache::default();
        let (plan, report) = compile_ruleset(&nfa, 1, &mut cache);
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.num_shards(), 1);
        assert_eq!(report.components, 0);
    }

    #[test]
    fn remap_between_grown_ruleset_is_identity_on_the_prefix() {
        let old = ruleset(&["ab+c", "xy+z"]);
        let new = ruleset(&["ab+c", "xy+z", "q+r"]);
        let remap = PlanRemap::between(&old, &new);
        assert_eq!(remap.old_len(), old.len());
        assert_eq!(remap.new_len(), new.len());
        assert_eq!(remap.surviving(), old.len());
        for state in 0..old.len() as u32 {
            assert_eq!(remap.translate(state), Some(state));
        }
        assert!(!remap.is_identity(), "sizes differ");
    }

    #[test]
    fn remap_drops_removed_components_and_tracks_moves() {
        // Pattern 0 replaced in place by a smaller one: "xy+z" keeps its
        // report code but its states shift down the global id space.
        let old = ruleset(&["ab+c", "xy+z"]);
        let new = ruleset(&["qq", "xy+z"]);
        let remap = PlanRemap::between(&old, &new);
        let old_xy: Vec<u32> = split_components(&old)
            .iter()
            .find(|u| u.states().iter().all(|&g| remap.translate(g).is_some()))
            .expect("xy+z survives")
            .states()
            .to_vec();
        let new_xy: Vec<u32> = split_components(&new)
            .iter()
            .find(|u| u.len() == old_xy.len())
            .expect("xy+z in the new set")
            .states()
            .to_vec();
        assert_ne!(old_xy, new_xy, "the component moved");
        for (&old_g, &new_g) in old_xy.iter().zip(&new_xy) {
            assert_eq!(remap.translate(old_g), Some(new_g));
        }
        for g in 0..old.len() as u32 {
            if !old_xy.contains(&g) {
                assert_eq!(remap.translate(g), None, "state {g} dropped");
            }
        }
        assert_eq!(remap.surviving(), old_xy.len());
    }

    #[test]
    fn remap_identity_detection() {
        let nfa = ruleset(&["ab+c", "xy+z"]);
        assert!(PlanRemap::identity(nfa.len()).is_identity());
        assert!(PlanRemap::between(&nfa, &nfa).is_identity());
        let strided = StridedNfa::from_nfa(&nfa);
        assert!(PlanRemap::between(&strided, &strided).is_identity());
    }

    #[test]
    fn duplicate_patterns_pair_first_to_first() {
        let old = ruleset(&["ab", "ab"]);
        let new = ruleset(&["ab", "ab"]);
        let remap = PlanRemap::between(&old, &new);
        assert!(remap.is_identity());
    }

    /// `(extend_append, between)` from `old` to `new`, for the byte
    /// rulesets and for their 2-stride automata.
    fn both_remaps(old: &Nfa, new: &Nfa) -> [(PlanRemap, PlanRemap); 2] {
        let (old_strided, new_strided) = (StridedNfa::from_nfa(old), StridedNfa::from_nfa(new));
        [
            (
                PlanRemap::extend_append(old, new),
                PlanRemap::between(old, new),
            ),
            (
                PlanRemap::extend_append(&old_strided, &new_strided),
                PlanRemap::between(&old_strided, &new_strided),
            ),
        ]
    }

    #[test]
    fn extend_append_matches_between_on_append_only_updates() {
        let old = ruleset(&["ab+c", "xy+z", "pq*r"]);
        for appended in [
            &["ab+c", "xy+z", "pq*r", "mm+n"][..],
            // The appended component is the largest, so the size-ordered
            // unit list reorders and the shared prefix shrinks to
            // nothing — the tail matcher must recover everything.
            &["ab+c", "xy+z", "pq*r", "a[bc]defgh+klm", "k"][..],
            &["ab+c", "xy+z", "pq*r", "ab", "ab"][..],
        ] {
            for (fast, full) in both_remaps(&old, &ruleset(appended)) {
                assert_eq!(fast, full, "{appended:?}");
                assert_eq!(
                    fast.surviving(),
                    fast.old_len(),
                    "append-only updates keep every state"
                );
            }
        }
        for (fast, _) in both_remaps(&old, &old) {
            assert!(fast.is_identity());
        }
    }

    #[test]
    fn extend_append_matches_between_when_the_prefix_changes() {
        // Not actually append-only: extend_append must still agree with
        // the full matcher when the head of the ruleset was edited.
        let old = ruleset(&["ab+c", "xy+z", "pq*r"]);
        for changed in [
            &["qb+c", "xy+z", "pq*r", "mm+n"][..], // head replaced
            &["xy+z", "pq*r"][..],                 // head removed
            &["pq*r", "xy+z", "ab+c"][..],         // reordered (codes move)
            &["zz"][..],                           // nothing survives
        ] {
            for (fast, full) in both_remaps(&old, &ruleset(changed)) {
                assert_eq!(fast, full, "{changed:?}");
            }
        }
    }

    #[test]
    fn from_map_round_trips() {
        let remap = PlanRemap::from_map(vec![Some(1), None, Some(0)], 2);
        assert_eq!(remap.translate(0), Some(1));
        assert_eq!(remap.translate(1), None);
        assert_eq!(remap.translate(2), Some(0));
        assert_eq!(remap.translate(99), None, "out of range is removed");
        assert_eq!(remap.surviving(), 2);
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(worker_count(3), 3);
        assert_eq!(worker_count(1), 1);
        // 0 resolves through env/auto-detect; always at least 1.
        assert!(worker_count(0) >= 1);
        assert!(detected_parallelism() >= 1);
    }
}
