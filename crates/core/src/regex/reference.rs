//! A deliberately naive regex matcher used as a test oracle.
//!
//! This module evaluates an [`Ast`] directly by structural recursion over
//! the input, with none of the position-automaton machinery, so that the
//! Glushkov compiler and the cycle simulator can be validated against an
//! independent implementation. It is exponential in the worst case and is
//! only intended for short test inputs.

use super::ast::Ast;
use std::collections::BTreeSet;

/// Returns the set of end offsets `e` such that `input[start..e]` is
/// accepted by `ast` (anchored at `start` on the left).
pub fn match_ends(ast: &Ast, input: &[u8], start: usize) -> BTreeSet<usize> {
    match ast {
        Ast::Empty => BTreeSet::from([start]),
        Ast::Class(class) => {
            let mut ends = BTreeSet::new();
            if let Some(&b) = input.get(start) {
                if class.contains(b) {
                    ends.insert(start + 1);
                }
            }
            ends
        }
        Ast::Concat(children) => {
            let mut fronts = BTreeSet::from([start]);
            for child in children {
                let mut next = BTreeSet::new();
                for &f in &fronts {
                    next.extend(match_ends(child, input, f));
                }
                fronts = next;
                if fronts.is_empty() {
                    break;
                }
            }
            fronts
        }
        Ast::Alternate(children) => children
            .iter()
            .flat_map(|child| match_ends(child, input, start))
            .collect(),
        Ast::Star(inner) => closure_ends(inner, input, start, true),
        // A nullable body can iterate once over nothing, so `+` then
        // matches empty too.
        Ast::Plus(inner) => closure_ends(inner, input, start, inner.is_nullable()),
        Ast::Optional(inner) => {
            let mut ends = match_ends(inner, input, start);
            ends.insert(start);
            ends
        }
    }
}

fn closure_ends(inner: &Ast, input: &[u8], start: usize, include_zero: bool) -> BTreeSet<usize> {
    let mut ends = BTreeSet::new();
    if include_zero {
        ends.insert(start);
    }
    let mut frontier = BTreeSet::from([start]);
    loop {
        let mut next = BTreeSet::new();
        for &f in &frontier {
            for e in match_ends(inner, input, f) {
                // Zero-length iterations would loop forever; the Glushkov
                // side never consumes zero symbols per iteration either.
                if e > f && !ends.contains(&e) {
                    next.insert(e);
                }
            }
        }
        if next.is_empty() {
            return ends;
        }
        ends.extend(next.iter().copied());
        frontier = next;
    }
}

/// Offsets (inclusive, of the last matched symbol) at which an unanchored
/// scan of `input` reports a match of `ast` — the oracle for the
/// simulator's report stream.
///
/// # Examples
///
/// ```
/// use cama_core::regex::{parse, reference};
///
/// let ast = parse("ab+")?;
/// let ends = reference::scan_report_offsets(&ast, b"zabbz");
/// assert_eq!(ends, vec![2, 3]);
/// # Ok::<(), cama_core::Error>(())
/// ```
pub fn scan_report_offsets(ast: &Ast, input: &[u8]) -> Vec<usize> {
    let mut offsets = BTreeSet::new();
    for start in 0..input.len() {
        for end in match_ends(ast, input, start) {
            if end > start {
                offsets.insert(end - 1);
            }
        }
    }
    offsets.into_iter().collect()
}

/// Like [`scan_report_offsets`] but anchored: matches must begin at
/// offset zero.
pub fn anchored_report_offsets(ast: &Ast, input: &[u8]) -> Vec<usize> {
    match_ends(ast, input, 0)
        .into_iter()
        .filter(|&e| e > 0)
        .map(|e| e - 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parse;

    #[test]
    fn literal_scan() {
        let ast = parse("abc").unwrap();
        assert_eq!(scan_report_offsets(&ast, b"xxabcxabc"), vec![4, 8]);
        assert!(scan_report_offsets(&ast, b"ab").is_empty());
    }

    #[test]
    fn star_and_plus() {
        let ast = parse("ae*c").unwrap();
        assert_eq!(scan_report_offsets(&ast, b"aeec"), vec![3]);
        assert_eq!(scan_report_offsets(&ast, b"ac"), vec![1]);
        let ast = parse("ae+c").unwrap();
        assert!(scan_report_offsets(&ast, b"ac").is_empty());
    }

    #[test]
    fn alternation() {
        let ast = parse("ab|cd").unwrap();
        assert_eq!(scan_report_offsets(&ast, b"abcd"), vec![1, 3]);
    }

    #[test]
    fn overlapping_matches_all_reported() {
        let ast = parse("aa").unwrap();
        assert_eq!(scan_report_offsets(&ast, b"aaaa"), vec![1, 2, 3]);
    }

    #[test]
    fn anchored_only_from_zero() {
        let ast = parse("ab").unwrap();
        assert_eq!(anchored_report_offsets(&ast, b"abab"), vec![1]);
        assert!(anchored_report_offsets(&ast, b"zab").is_empty());
    }

    #[test]
    fn paper_example() {
        let ast = parse("(a|b)e*cd+").unwrap();
        assert_eq!(scan_report_offsets(&ast, b"beecdd"), vec![4, 5]);
        assert_eq!(scan_report_offsets(&ast, b"acd"), vec![2]);
        assert!(scan_report_offsets(&ast, b"aed").is_empty());
    }

    #[test]
    fn plus_over_a_nullable_body_matches_empty() {
        let ast = parse("x(b*)+").unwrap();
        assert_eq!(scan_report_offsets(&ast, b"x"), vec![0]);
        assert_eq!(scan_report_offsets(&ast, b"xbb"), vec![0, 1, 2]);
        let ast = parse("x(b?)+y").unwrap();
        assert_eq!(scan_report_offsets(&ast, b"xy"), vec![1]);
        assert_eq!(scan_report_offsets(&ast, b"xbby"), vec![3]);
    }

    #[test]
    fn nested_closure_terminates() {
        let ast = parse("(a+b?)+c").unwrap();
        assert_eq!(scan_report_offsets(&ast, b"aabac"), vec![4]);
    }
}
