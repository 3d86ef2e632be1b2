//! Seeded input generators: IDS-style pattern text, one-rule edits,
//! matches planted in flow payloads, framed wire traffic and its
//! receive buffers.
//!
//! Every generator is a pure function of the run's `--seed` (mixed with
//! a per-generator stream tag), so one seed reproduces every input of a
//! run while the generators stay independent of each other: adding a
//! flow never changes the ruleset text.

use std::ops::{Range, RangeInclusive};

use cama_core::{Nfa, StartKind, SteId};
use cama_sim::frame::{encode_close, encode_frame};
use cama_sim::StreamId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generator stream tags, mixed into the seed by [`rng`].
pub mod stream {
    /// Ruleset pattern text.
    pub const RULES: u64 = 1;
    /// The rule-edit script.
    pub const EDITS: u64 = 2;
    /// Flow payloads (one sub-stream per flow).
    pub const FLOWS: u64 = 3;
    /// Frame sizes and wire interleaving.
    pub const WIRE: u64 = 4;
    /// The profiling sample and probe inputs.
    pub const SAMPLE: u64 = 5;
    /// Matches planted in flow payloads (one sub-stream per flow).
    pub const MATCHES: u64 = 6;
}

/// An independent generator for `(seed, stream, index)`.
pub fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive(seed, stream, index))
}

/// A seed for `(seed, stream, index)`, for generators that take a
/// plain seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    // SplitMix64 finalizer over the mixed key: nearby seeds and indices
    // land on unrelated generator states.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Protocol tokens IDS signatures are built around.
const TOKENS: &[&str] = &[
    "GET",
    "POST",
    "HEAD",
    "admin",
    "login",
    "passwd",
    "cmd.exe",
    "select",
    "union",
    "script",
    "eval",
    "shell",
    "root",
    "wget",
    "curl",
    "User-Agent",
    "Host",
    "Cookie",
    "php",
    "cgi-bin",
    "etc",
    "bin",
    "exec",
    "alert",
    "onload",
    "iframe",
    "base64",
    "chmod",
    "tftp",
    "nc",
];

/// Character classes IDS signatures repeat.
const CLASSES: &[&str] = &["[0-9]", "[a-f0-9]", "\\d", "\\w", "[A-Za-z]", "[^\\n]"];

/// A literal of about `len` bytes mixing protocol tokens and
/// alphanumerics, escaped for the regex parser.
fn literal(rng: &mut StdRng, len: RangeInclusive<usize>) -> String {
    let target = rng.random_range(len);
    let mut text = String::new();
    while text.len() < target {
        if rng.random_bool(0.25) {
            text.push_str(TOKENS[rng.random_range(0..TOKENS.len())]);
        } else {
            let c = rng.random_range(0..36u8);
            text.push(if c < 26 { b'a' + c } else { b'0' + c - 26 } as char);
        }
    }
    let mut escaped = String::with_capacity(text.len());
    for c in text.chars() {
        if "\\.+*?()[]{}|^$".contains(c) {
            escaped.push('\\');
        }
        escaped.push(c);
    }
    escaped
}

/// One signature element after the leading literal.
fn element(rng: &mut StdRng) -> String {
    match rng.random_range(0..10u32) {
        0..=3 => literal(rng, 2..=5),
        4 => format!(
            "{}{{{},{}}}",
            CLASSES[rng.random_range(0..CLASSES.len())],
            rng.random_range(1..3u32),
            rng.random_range(3..6u32)
        ),
        5 => "\\x90{4}".to_string(),
        6 => ".*".to_string(),
        7 => format!("({}|{})", literal(rng, 2..=5), literal(rng, 2..=5)),
        8 => "[ \\t]+".to_string(),
        _ => literal(rng, 2..=4),
    }
}

/// One signature body: a literal anchor, one or two elements, and a
/// literal tail — never nullable, so `regex::compile_set` accepts it.
fn body(rng: &mut StdRng) -> String {
    let mut text = literal(rng, 3..=5);
    for _ in 0..rng.random_range(1..3u32) {
        text.push_str(&element(rng));
    }
    text.push_str(&literal(rng, 2..=4));
    text
}

/// One IDS-style pattern: literals, classes, counted repeats, `.*`
/// gaps and alternations. One in five is a top-level alternation of two
/// bodies, which compiles to two connected components.
pub fn pattern(rng: &mut StdRng) -> String {
    if rng.random_bool(0.2) {
        format!("{}|{}", body(rng), body(rng))
    } else {
        body(rng)
    }
}

/// A ruleset of `count` patterns for `seed`.
pub fn ruleset(seed: u64, count: usize) -> Vec<String> {
    let mut rng = rng(seed, stream::RULES, 0);
    (0..count).map(|_| pattern(&mut rng)).collect()
}

/// One rule edit. Both shapes keep every other rule's report code, so
/// they are the plan cache's friendly update shapes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Replace rule `index` in place.
    Replace { index: usize, pattern: String },
    /// Append a new rule at the end.
    Append { pattern: String },
}

impl Edit {
    /// Applies the edit to a ruleset's text.
    pub fn apply(&self, rules: &mut Vec<String>) {
        match self {
            Edit::Replace { index, pattern } => rules[*index] = pattern.clone(),
            Edit::Append { pattern } => rules.push(pattern.clone()),
        }
    }
}

/// An edit script of `count` edits against a ruleset of `rules`
/// patterns, alternating in-place replacements and appends.
pub fn edits(seed: u64, rules: usize, count: usize) -> Vec<Edit> {
    let mut rng = rng(seed, stream::EDITS, 0);
    let mut len = rules;
    (0..count)
        .map(|i| {
            let pattern = pattern(&mut rng);
            if i % 2 == 0 {
                Edit::Replace {
                    index: rng.random_range(0..len),
                    pattern,
                }
            } else {
                len += 1;
                Edit::Append { pattern }
            }
        })
        .collect()
}

/// The unanchored start states of `nfa`, where [`witness`] walks from.
pub fn unanchored_starts(nfa: &Nfa) -> Vec<SteId> {
    nfa.start_states()
        .filter(|&state| nfa.ste(state).start == StartKind::AllInput)
        .collect()
}

/// A string `nfa` reports on, from a random walk: one of `starts`, then
/// random successors other than the state itself, until a reporting
/// state. Also gives the index of the first symbol a gap state takes —
/// a `.*`-like state looping on at least 255 symbols — if the walk
/// passes one: any run of other symbols may follow that symbol without
/// breaking the match. `None` if the walk dead-ends.
pub fn witness(nfa: &Nfa, starts: &[SteId], rng: &mut StdRng) -> Option<(Vec<u8>, Option<usize>)> {
    let mut state = starts[rng.random_range(0..starts.len())];
    let mut text = Vec::new();
    let mut gap = None;
    loop {
        let ste = nfa.ste(state);
        let symbols: Vec<u8> = ste.class.iter().collect();
        text.push(symbols[rng.random_range(0..symbols.len())]);
        let successors = nfa.successors(state);
        if gap.is_none() && symbols.len() >= 255 && successors.contains(&state) {
            gap = Some(text.len() - 1);
        }
        if ste.is_reporting() {
            return Some((text, gap));
        }
        let onward: Vec<SteId> = successors.iter().copied().filter(|&s| s != state).collect();
        if onward.is_empty() || text.len() > 256 {
            return None;
        }
        state = onward[rng.random_range(0..onward.len())];
    }
}

/// Writes `count` witnesses of `nfa` over `flow` at random places. A
/// witness with a gap is split after its gap symbol and its rest lands
/// further on, so its match stays live across the bytes between: no
/// generated pattern names a newline, so the background, drawn from
/// the NFA's alphabet, never holds a symbol that leaves a gap state. A
/// later witness may overwrite an earlier one.
pub fn plant_matches(nfa: &Nfa, starts: &[SteId], flow: &mut [u8], count: usize, rng: &mut StdRng) {
    for _ in 0..count {
        let Some((text, gap)) = witness(nfa, starts, rng) else {
            continue;
        };
        if text.len() > flow.len() {
            continue;
        }
        let (head, tail) = text.split_at(gap.map_or(text.len(), |g| g + 1));
        let at = rng.random_range(0..=flow.len() - text.len());
        let rest = rng.random_range(at + head.len()..=flow.len() - tail.len());
        flow[at..at + head.len()].copy_from_slice(head);
        flow[rest..rest + tail.len()].copy_from_slice(tail);
    }
}

/// Payload bytes per frame on every generated wire.
pub const FRAME: RangeInclusive<usize> = 64..=1500;

/// Receive-buffer size the wire is delivered in.
pub const RECV_BUFFER: usize = 1024;

/// One framed wire event, in wire order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireEvent {
    /// A data frame carrying `range` of flow `flow`'s payload.
    Data { flow: usize, range: Range<usize> },
    /// The close frame of flow `flow`.
    Close { flow: usize },
}

/// Cuts every flow into frames of [`FRAME`] payload bytes and
/// interleaves the frames at random across flows; `index` picks one of
/// the seed's independent interleavings. With `close`, each flow's
/// close frame follows its last data frame.
pub fn interleave(seed: u64, index: u64, lens: &[usize], close: bool) -> Vec<WireEvent> {
    let mut rng = rng(seed, stream::WIRE, index);
    let mut sent = vec![0usize; lens.len()];
    let mut live: Vec<usize> = (0..lens.len()).filter(|&f| lens[f] > 0).collect();
    let mut events = Vec::new();
    while !live.is_empty() {
        let slot = rng.random_range(0..live.len());
        let flow = live[slot];
        let take = rng.random_range(FRAME).min(lens[flow] - sent[flow]);
        events.push(WireEvent::Data {
            flow,
            range: sent[flow]..sent[flow] + take,
        });
        sent[flow] += take;
        if sent[flow] == lens[flow] {
            live.swap_remove(slot);
            if close {
                events.push(WireEvent::Close { flow });
            }
        }
    }
    events
}

/// Encodes `events` as one length-prefixed wire, flow `i` travelling
/// as stream `ids[i]`.
pub fn encode(events: &[WireEvent], flows: &[Vec<u8>], ids: &[StreamId]) -> Vec<u8> {
    let mut wire = Vec::new();
    for event in events {
        match event {
            WireEvent::Data { flow, range } => {
                encode_frame(ids[*flow], &flows[*flow][range.clone()], &mut wire)
            }
            WireEvent::Close { flow } => encode_close(ids[*flow], &mut wire),
        }
    }
    wire
}

/// A length drawn from `range` for flow `index`.
pub fn flow_len(seed: u64, index: usize, range: RangeInclusive<usize>) -> usize {
    rng(seed, stream::FLOWS, index as u64).random_range(range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cama_sim::frame::{FrameDecoder, FrameEvent};

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(ruleset(7, 50), ruleset(7, 50));
        assert_ne!(ruleset(7, 50), ruleset(8, 50));
        assert_eq!(edits(7, 50, 6), edits(7, 50, 6));
        assert_ne!(edits(7, 50, 6), edits(8, 50, 6));
        let lens = [300, 5, 1200, 0, 64];
        assert_eq!(interleave(7, 0, &lens, true), interleave(7, 0, &lens, true));
        assert_ne!(interleave(7, 0, &lens, true), interleave(8, 0, &lens, true));
        assert_ne!(interleave(7, 0, &lens, true), interleave(7, 1, &lens, true));
        assert_eq!(flow_len(7, 3, 10..=5000), flow_len(7, 3, 10..=5000));
    }

    #[test]
    fn every_generated_pattern_compiles() {
        for seed in 0..4 {
            let rules = ruleset(seed, 500);
            let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
            cama_core::regex::compile_set(&refs).expect("generated ruleset compiles");
            for edit in edits(seed, rules.len(), 20) {
                let (Edit::Replace { pattern, .. } | Edit::Append { pattern }) = edit;
                cama_core::regex::compile_set(&[&pattern]).expect("edited rule compiles");
            }
        }
    }

    #[test]
    fn witnesses_make_the_nfa_report() {
        let rules = ruleset(5, 200);
        let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
        let nfa = cama_core::regex::compile_set(&refs).unwrap();
        let starts = unanchored_starts(&nfa);
        let mut sim = cama_sim::Simulator::new(&nfa);
        let (mut found, mut gaps) = (0, 0);
        let mut rng = rng(5, stream::MATCHES, 0);
        for _ in 0..100 {
            let Some((text, gap)) = witness(&nfa, &starts, &mut rng) else {
                continue;
            };
            found += 1;
            gaps += usize::from(gap.is_some());
            let reports = sim.run(&text).reports;
            assert!(
                reports.iter().any(|r| r.offset == text.len() - 1),
                "{text:?}"
            );
        }
        assert!(
            found >= 90 && gaps > 0,
            "{found} witnesses, {gaps} with a gap"
        );

        // Planted in a background flow, split across a gap or whole,
        // witnesses make the flow report; planting is seeded.
        let background = cama_workloads::input::generate(&nfa, 2048, 0.05, 9);
        let plant = |seed| {
            let mut flow = background.clone();
            plant_matches(
                &nfa,
                &starts,
                &mut flow,
                6,
                &mut super::rng(seed, stream::MATCHES, 0),
            );
            flow
        };
        assert_eq!(plant(1), plant(1));
        assert_ne!(plant(1), plant(2));
        assert!(sim.run(&background).reports.len() < sim.run(&plant(1)).reports.len());
    }

    #[test]
    fn edits_keep_replacements_in_range() {
        let mut rules = ruleset(3, 40);
        for edit in edits(3, rules.len(), 30) {
            if let Edit::Replace { index, .. } = &edit {
                assert!(*index < rules.len());
            }
            edit.apply(&mut rules);
        }
        assert_eq!(rules.len(), 40 + 15);
    }

    #[test]
    fn wire_round_trip_equals_generated_frames() {
        let lens: Vec<usize> = (0..9).map(|i| flow_len(11, i, 0..=4000)).collect();
        let flows: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|b| (b * 31 + i) as u8).collect())
            .collect();
        let ids: Vec<StreamId> = (0..flows.len() as StreamId).map(|i| 100 + i).collect();
        let events = interleave(11, 0, &lens, true);
        let wire = encode(&events, &flows, &ids);

        // Decode through 1 KiB receive buffers: every frame boundary may
        // fall mid-buffer, mid-header or mid-payload.
        let mut decoder = FrameDecoder::with_max_payload(*FRAME.end() as u32);
        let mut received: Vec<Vec<u8>> = vec![Vec::new(); flows.len()];
        let mut closed = Vec::new();
        for buffer in wire.chunks(1024) {
            decoder
                .feed(buffer, |event| match event {
                    FrameEvent::Data { stream, chunk } => {
                        received[(stream - 100) as usize].extend_from_slice(chunk)
                    }
                    FrameEvent::Close { stream } => closed.push((stream - 100) as usize),
                })
                .expect("generated wire is well formed");
        }
        assert!(decoder.is_idle());
        assert_eq!(received, flows);
        let expected_closes: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                WireEvent::Close { flow } => Some(*flow),
                WireEvent::Data { .. } => None,
            })
            .collect();
        assert_eq!(closed, expected_closes);
        // Every non-empty flow closes exactly once, after its last frame.
        let nonempty = lens.iter().filter(|&&l| l > 0).count();
        assert_eq!(closed.len(), nonempty);
    }
}
