//! Whole-slice word loops over `u64` bit rows.
//!
//! The software analogue of a CAM row operation is a bitwise AND across a
//! whole match row, followed by the one-bit-per-word summary update (the
//! selective-precharge analogue: a 64-state word whose summary bit is
//! clear is never visited). The per-cycle loops that step a stream live
//! in `cama-sim`'s `lane.rs` and visit only the words those summaries
//! mark. What remains here are the loops that sweep a whole slice:
//! building a row table's summaries, the set algebra behind
//! [`BitSet`](crate::bitset::BitSet) and [`Row`](crate::bitset::Row),
//! and the fused sweep of the non-selective 2-stride baseline.
//!
//! Each is one plain scalar loop, because no SIMD tier showed a measured
//! end-to-end win over them. All of them take any slice length, zero
//! included.
//!
//! # Examples
//!
//! ```
//! use cama_core::kernel;
//!
//! // Which 64-state words of a row hold a set bit: the summary the
//! // per-cycle loops use to skip words that cannot match.
//! let row = [0b1010_u64, 0, 1];
//! let mut summary = [0_u64];
//! kernel::summarize(&row, &mut summary);
//! assert_eq!(summary, [0b101]);
//! assert_eq!(kernel::popcount(&row), 3);
//! ```

/// A one-line description of the word loops, for benchmark environment
/// stamps. There is one implementation, so it never changes at runtime.
pub fn describe() -> String {
    "kernel: scalar".to_string()
}

/// `dst[i] |= src[i]`.
pub fn or_into(src: &[u64], dst: &mut [u64]) {
    debug_assert_eq!(src.len(), dst.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Total set-bit count of `words`.
pub fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Rebuilds the one-bit-per-word summary: bit `i` of `summary` is set
/// iff `words[i] != 0`. `summary` must hold `words.len().div_ceil(64)`
/// words (it is fully overwritten).
pub fn summarize(words: &[u64], summary: &mut [u64]) {
    debug_assert_eq!(summary.len(), words.len().div_ceil(64));
    summary.fill(0);
    for (i, &w) in words.iter().enumerate() {
        if w != 0 {
            summary[i / 64] |= 1u64 << (i % 64);
        }
    }
}

/// Fused enable sweep: `out = a & b & (c | d)`, rebuild `summary` over
/// `out`, and return the popcount of `out`.
///
/// This is one non-selective 2-stride pair cycle in a single sweep:
/// both halves' match rows AND the enable vector (`dynamic | static
/// starts`) without ever materializing the OR.
pub fn and2_or2_summarize(
    a: &[u64],
    b: &[u64],
    c: &[u64],
    d: &[u64],
    out: &mut [u64],
    summary: &mut [u64],
) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    debug_assert_eq!(a.len(), d.len());
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(summary.len(), a.len().div_ceil(64));
    summary.fill(0);
    let mut count = 0u64;
    for (i, ((((o, &x), &y), &z), &e)) in out.iter_mut().zip(a).zip(b).zip(c).zip(d).enumerate() {
        let v = x & y & (z | e);
        *o = v;
        if v != 0 {
            summary[i / 64] |= 1u64 << (i % 64);
            count += u64::from(v.count_ones());
        }
    }
    count
}

/// Whether `a & b` has any set bit (report-mask scan).
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, salt: u64) -> Vec<u64> {
        (0..len)
            .map(|i| {
                let x = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ salt);
                // Mix in full-zero and full-one words.
                match i % 7 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => x ^ (x >> 31),
                }
            })
            .collect()
    }

    /// Bit-by-bit reference checks of every loop at `len` words: each
    /// summary bit against its word, each count against the bits.
    fn check_all(len: usize) {
        let a = pattern(len, 0x1111);
        let b = pattern(len, 0x2222);
        let c = pattern(len, 0x4444);
        let d = pattern(len, 0x8888);
        let summary_len = len.div_ceil(64);
        let bits = |words: &[u64]| -> u64 {
            (0..words.len() * 64)
                .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
                .count() as u64
        };
        let summary_matches = |words: &[u64], summary: &[u64]| {
            assert_eq!(summary.len(), summary_len, "summary length len={len}");
            for i in 0..summary_len * 64 {
                let set = summary[i / 64] >> (i % 64) & 1 == 1;
                assert_eq!(set, i < len && words[i] != 0, "summary bit {i} len={len}");
            }
        };

        let mut acc = a.clone();
        or_into(&b, &mut acc);
        for i in 0..len {
            assert_eq!(acc[i], a[i] | b[i], "or word {i} len={len}");
        }

        assert_eq!(popcount(&a), bits(&a), "popcount len={len}");

        let mut summary = vec![!0u64; summary_len];
        summarize(&a, &mut summary);
        summary_matches(&a, &summary);

        let mut fused = vec![!0u64; len];
        let mut fused_sum = vec![!0u64; summary_len];
        let n = and2_or2_summarize(&a, &b, &c, &d, &mut fused, &mut fused_sum);
        for i in 0..len {
            assert_eq!(fused[i], a[i] & b[i] & (c[i] | d[i]), "and2_or2 word {i}");
        }
        summary_matches(&fused, &fused_sum);
        assert_eq!(n, bits(&fused), "and2_or2 count len={len}");

        let overlap = (0..len).any(|i| a[i] & b[i] != 0);
        assert_eq!(intersects(&a, &b), overlap, "intersects len={len}");
        assert!(!intersects(&a, &vec![0u64; len]), "intersects zeros");
    }

    #[test]
    fn kernels_handle_empty_slices() {
        check_all(0);
    }

    #[test]
    fn kernels_handle_word_counts_across_summary_words() {
        // 1..=9 covers short rows, 64/65 and 127 the first summary-word
        // boundary, 260 a row spanning five summary words.
        for len in 1..=9 {
            check_all(len);
        }
        check_all(64);
        check_all(65);
        check_all(127);
        check_all(260);
    }

    #[test]
    fn kernels_handle_all_ones_and_all_zeros() {
        for len in [1usize, 4, 7, 64, 100] {
            let ones = vec![u64::MAX; len];
            let zeros = vec![0u64; len];
            let summary_len = len.div_ceil(64);
            let mut out = vec![0u64; len];
            let mut summary = vec![0u64; summary_len];
            let n = and2_or2_summarize(&ones, &ones, &zeros, &ones, &mut out, &mut summary);
            assert_eq!(n, 64 * len as u64);
            assert_eq!(out, ones);
            for (i, &s) in summary.iter().enumerate() {
                let bits = (len - i * 64).min(64);
                let want = if bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                assert_eq!(s, want, "summary word {i} len={len}");
            }

            let n = and2_or2_summarize(&ones, &ones, &zeros, &zeros, &mut out, &mut summary);
            assert_eq!(n, 0);
            assert_eq!(out, zeros);
            assert!(summary.iter().all(|&s| s == 0));
            assert_eq!(popcount(&zeros), 0);
            assert_eq!(popcount(&ones), 64 * len as u64);
            assert!(!intersects(&ones, &zeros));
            assert!(intersects(&ones, &ones));
        }
    }
}
