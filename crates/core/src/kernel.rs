//! Runtime-dispatched word-slice kernels for the match/AND hot loops.
//!
//! The software analogue of a CAM row operation is a bitwise AND across a
//! whole match row: `active = match_row & enable`, followed by the
//! one-bit-per-word summary update (the selective-precharge analogue) and a
//! popcount for the activity statistics. This module implements those
//! fused operations three times — portable scalar, SSE2, and AVX2 via
//! stable [`std::arch`] intrinsics — and picks an implementation at
//! runtime with [`is_x86_feature_detected!`].
//!
//! Dispatch order (first match wins):
//!
//! 1. a programmatic override installed with [`force`] (used by the
//!    differential tests to pin both paths in one process);
//! 2. the `CAMA_KERNEL` environment variable (`scalar`, `sse2`, `avx2`,
//!    or `auto`), read once per process;
//! 3. the widest instruction set the CPU reports.
//!
//! All kernels operate on `&[u64]` word slices and tolerate any length,
//! including zero and lengths that are not a multiple of the vector
//! width (the remainder is handled scalar). They make no alignment
//! assumption beyond `u64` (loads are unaligned); the compiled row
//! tables pad rows to a multiple of 4 words purely so that consecutive
//! rows do not share cache lines.
//!
//! # Examples
//!
//! ```
//! use cama_core::kernel;
//!
//! // The fused row AND of the per-cycle step: which enabled states
//! // accept this symbol. Dispatches to the widest tier the CPU has.
//! let match_row = [0b1010_u64];
//! let enabled = [0b0110_u64];
//! let mut active = [0_u64];
//! kernel::and2_into(&match_row, &enabled, &mut active);
//! assert_eq!(active, [0b0010]);
//! assert_eq!(kernel::popcount(&active), 1);
//! // Which implementation ran, e.g. "avx2 (detected)".
//! println!("{}", kernel::describe());
//! ```

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// One kernel implementation tier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Kernel {
    /// Portable scalar loop (the reference semantics).
    Scalar,
    /// 128-bit SSE2 (baseline on `x86_64`).
    Sse2,
    /// 256-bit AVX2 (requires `avx2` + `popcnt`).
    Avx2,
}

impl Kernel {
    /// The kernel's lowercase name (`scalar` / `sse2` / `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sse2 => "sse2",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Parses a kernel name; `auto` maps to `None` (use detection).
    pub fn parse(name: &str) -> Option<Option<Kernel>> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Some(Kernel::Scalar)),
            "sse2" => Some(Some(Kernel::Sse2)),
            "avx2" => Some(Some(Kernel::Avx2)),
            "auto" | "" => Some(None),
            _ => None,
        }
    }
}

/// The widest kernel the running CPU supports.
pub fn detected() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt") {
            Kernel::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline.
            Kernel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    Kernel::Scalar
}

/// Programmatic override: 0 = none, 1 + Kernel discriminant otherwise.
static FORCED: AtomicU8 = AtomicU8::new(0);

fn env_choice() -> Option<Kernel> {
    static ENV: OnceLock<Option<Kernel>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let var = std::env::var("CAMA_KERNEL").ok()?;
        match Kernel::parse(&var) {
            Some(choice) => choice,
            None => {
                eprintln!("warning: ignoring unknown CAMA_KERNEL value {var:?} (expected scalar, sse2, avx2, or auto)");
                None
            }
        }
    })
}

/// Forces a specific kernel (or `None` to return to env/auto selection).
///
/// A request for a tier wider than the CPU supports is clamped to
/// [`detected`]. This takes effect for subsequent operations in every
/// thread; differential tests that flip it concurrently must serialize.
pub fn force(kernel: Option<Kernel>) {
    let code = match kernel {
        None => 0,
        Some(k) => {
            let k = k.min(detected());
            1 + k as u8
        }
    };
    FORCED.store(code, Ordering::Relaxed);
}

/// The kernel the next operation will dispatch to.
pub fn active() -> Kernel {
    match FORCED.load(Ordering::Relaxed) {
        1 => return Kernel::Scalar,
        2 => return Kernel::Sse2,
        3 => return Kernel::Avx2,
        _ => {}
    }
    match env_choice() {
        Some(k) => k.min(detected()),
        None => detected(),
    }
}

/// A one-line description of the dispatch state, for bench headers.
pub fn describe() -> String {
    let forced = match FORCED.load(Ordering::Relaxed) {
        1 => "scalar",
        2 => "sse2",
        3 => "avx2",
        _ => "none",
    };
    let env = match std::env::var("CAMA_KERNEL") {
        Ok(v) => v,
        Err(_) => "unset".to_string(),
    };
    format!(
        "kernel: active={} detected={} env={} forced={}",
        active().name(),
        detected().name(),
        env,
        forced
    )
}

macro_rules! dispatch {
    ($op:ident ( $($arg:expr),* )) => {{
        #[cfg(target_arch = "x86_64")]
        match active() {
            // SAFETY: `active()` never exceeds `detected()`, so the
            // required CPU features are present.
            Kernel::Avx2 => unsafe { avx2::$op($($arg),*) },
            // SAFETY: as above — `Sse2` is only active when detected
            // (and SSE2 is baseline on x86_64 anyway).
            Kernel::Sse2 => unsafe { sse2::$op($($arg),*) },
            Kernel::Scalar => scalar::$op($($arg),*),
        }
        #[cfg(not(target_arch = "x86_64"))]
        scalar::$op($($arg),*)
    }};
}

/// `out[i] = a[i] & b[i]`.
///
/// # Panics
///
/// Panics (in debug builds) if the slice lengths differ.
pub fn and2_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    dispatch!(and2(a, b, out))
}

/// `out[i] = a[i] & b[i] & c[i]`.
pub fn and3_into(a: &[u64], b: &[u64], c: &[u64], out: &mut [u64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    debug_assert_eq!(a.len(), out.len());
    dispatch!(and3(a, b, c, out))
}

/// `dst[i] |= src[i]`.
pub fn or_into(src: &[u64], dst: &mut [u64]) {
    debug_assert_eq!(src.len(), dst.len());
    dispatch!(or2(src, dst))
}

/// Total set-bit count of `words`.
pub fn popcount(words: &[u64]) -> u64 {
    dispatch!(popcnt(words))
}

/// Rebuilds the one-bit-per-word summary: bit `i` of `summary` is set
/// iff `words[i] != 0`. `summary` must hold `words.len().div_ceil(64)`
/// words (it is fully overwritten).
pub fn summarize(words: &[u64], summary: &mut [u64]) {
    debug_assert_eq!(summary.len(), words.len().div_ceil(64));
    dispatch!(summary_of(words, summary))
}

/// Fused row kernel: `out = a & b`, rebuild `summary` over `out`, and
/// return the popcount of `out`.
pub fn and2_summarize(a: &[u64], b: &[u64], out: &mut [u64], summary: &mut [u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(summary.len(), a.len().div_ceil(64));
    dispatch!(and2_sum(a, b, out, summary))
}

/// Fused row kernel: `out = a & b & c`, rebuild `summary` over `out`,
/// and return the popcount of `out`.
pub fn and3_summarize(
    a: &[u64],
    b: &[u64],
    c: &[u64],
    out: &mut [u64],
    summary: &mut [u64],
) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(summary.len(), a.len().div_ceil(64));
    dispatch!(and3_sum(a, b, c, out, summary))
}

/// Fused enable kernel: `out = a & b & (c | d)`, rebuild `summary`
/// over `out`, and return the popcount of `out`.
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
    dispatch!(and2_or2_sum(a, b, c, d, out, summary))
}

/// Whether `a & b` has any set bit (report-mask scan).
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(overlap(a, b))
}

/// Portable reference implementations.
mod scalar {
    pub fn and2(a: &[u64], b: &[u64], out: &mut [u64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x & y;
        }
    }

    pub fn and3(a: &[u64], b: &[u64], c: &[u64], out: &mut [u64]) {
        for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
            *o = x & y & z;
        }
    }

    pub fn or2(src: &[u64], dst: &mut [u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d |= s;
        }
    }

    pub fn popcnt(words: &[u64]) -> u64 {
        words.iter().map(|w| w.count_ones() as u64).sum()
    }

    pub fn summary_of(words: &[u64], summary: &mut [u64]) {
        summary.fill(0);
        for (i, &w) in words.iter().enumerate() {
            if w != 0 {
                summary[i / 64] |= 1u64 << (i % 64);
            }
        }
    }

    pub fn and2_sum(a: &[u64], b: &[u64], out: &mut [u64], summary: &mut [u64]) -> u64 {
        summary.fill(0);
        let mut count = 0u64;
        for (i, ((o, &x), &y)) in out.iter_mut().zip(a).zip(b).enumerate() {
            let v = x & y;
            *o = v;
            if v != 0 {
                summary[i / 64] |= 1u64 << (i % 64);
                count += v.count_ones() as u64;
            }
        }
        count
    }

    pub fn and3_sum(a: &[u64], b: &[u64], c: &[u64], out: &mut [u64], summary: &mut [u64]) -> u64 {
        summary.fill(0);
        let mut count = 0u64;
        for (i, (((o, &x), &y), &z)) in out.iter_mut().zip(a).zip(b).zip(c).enumerate() {
            let v = x & y & z;
            *o = v;
            if v != 0 {
                summary[i / 64] |= 1u64 << (i % 64);
                count += v.count_ones() as u64;
            }
        }
        count
    }

    pub fn and2_or2_sum(
        a: &[u64],
        b: &[u64],
        c: &[u64],
        d: &[u64],
        out: &mut [u64],
        summary: &mut [u64],
    ) -> u64 {
        summary.fill(0);
        let mut count = 0u64;
        for (i, ((((o, &x), &y), &z), &e)) in out.iter_mut().zip(a).zip(b).zip(c).zip(d).enumerate()
        {
            let v = x & y & (z | e);
            *o = v;
            if v != 0 {
                summary[i / 64] |= 1u64 << (i % 64);
                count += v.count_ones() as u64;
            }
        }
        count
    }

    pub fn overlap(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).any(|(&x, &y)| x & y != 0)
    }
}

/// 128-bit SSE2 kernels (always available on `x86_64`).
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::scalar;
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Requires SSE2 (part of the `x86_64` baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn and2(a: &[u64], b: &[u64], out: &mut [u64]) {
        let pairs = a.len() / 2;
        for i in 0..pairs {
            let va = _mm_loadu_si128(a.as_ptr().add(2 * i) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(2 * i) as *const __m128i);
            _mm_storeu_si128(
                out.as_mut_ptr().add(2 * i) as *mut __m128i,
                _mm_and_si128(va, vb),
            );
        }
        let done = pairs * 2;
        scalar::and2(&a[done..], &b[done..], &mut out[done..]);
    }

    /// # Safety
    ///
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn and3(a: &[u64], b: &[u64], c: &[u64], out: &mut [u64]) {
        let pairs = a.len() / 2;
        for i in 0..pairs {
            let va = _mm_loadu_si128(a.as_ptr().add(2 * i) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(2 * i) as *const __m128i);
            let vc = _mm_loadu_si128(c.as_ptr().add(2 * i) as *const __m128i);
            _mm_storeu_si128(
                out.as_mut_ptr().add(2 * i) as *mut __m128i,
                _mm_and_si128(_mm_and_si128(va, vb), vc),
            );
        }
        let done = pairs * 2;
        scalar::and3(&a[done..], &b[done..], &c[done..], &mut out[done..]);
    }

    /// # Safety
    ///
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn or2(src: &[u64], dst: &mut [u64]) {
        let pairs = src.len() / 2;
        for i in 0..pairs {
            let vs = _mm_loadu_si128(src.as_ptr().add(2 * i) as *const __m128i);
            let vd = _mm_loadu_si128(dst.as_ptr().add(2 * i) as *const __m128i);
            _mm_storeu_si128(
                dst.as_mut_ptr().add(2 * i) as *mut __m128i,
                _mm_or_si128(vs, vd),
            );
        }
        let done = pairs * 2;
        scalar::or2(&src[done..], &mut dst[done..]);
    }

    /// # Safety
    ///
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn popcnt(words: &[u64]) -> u64 {
        scalar::popcnt(words)
    }

    /// # Safety
    ///
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn summary_of(words: &[u64], summary: &mut [u64]) {
        scalar::summary_of(words, summary)
    }

    /// # Safety
    ///
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn and2_sum(a: &[u64], b: &[u64], out: &mut [u64], summary: &mut [u64]) -> u64 {
        and2(a, b, out);
        scalar::summary_of(out, summary);
        scalar::popcnt(out)
    }

    /// # Safety
    ///
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn and3_sum(
        a: &[u64],
        b: &[u64],
        c: &[u64],
        out: &mut [u64],
        summary: &mut [u64],
    ) -> u64 {
        and3(a, b, c, out);
        scalar::summary_of(out, summary);
        scalar::popcnt(out)
    }

    /// # Safety
    ///
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn and2_or2_sum(
        a: &[u64],
        b: &[u64],
        c: &[u64],
        d: &[u64],
        out: &mut [u64],
        summary: &mut [u64],
    ) -> u64 {
        let pairs = a.len() / 2;
        for i in 0..pairs {
            let va = _mm_loadu_si128(a.as_ptr().add(2 * i) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(2 * i) as *const __m128i);
            let vc = _mm_loadu_si128(c.as_ptr().add(2 * i) as *const __m128i);
            let vd = _mm_loadu_si128(d.as_ptr().add(2 * i) as *const __m128i);
            _mm_storeu_si128(
                out.as_mut_ptr().add(2 * i) as *mut __m128i,
                _mm_and_si128(_mm_and_si128(va, vb), _mm_or_si128(vc, vd)),
            );
        }
        let done = pairs * 2;
        for i in done..a.len() {
            out[i] = a[i] & b[i] & (c[i] | d[i]);
        }
        scalar::summary_of(out, summary);
        scalar::popcnt(out)
    }

    /// # Safety
    ///
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn overlap(a: &[u64], b: &[u64]) -> bool {
        let pairs = a.len() / 2;
        for i in 0..pairs {
            let va = _mm_loadu_si128(a.as_ptr().add(2 * i) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(2 * i) as *const __m128i);
            let v = _mm_and_si128(va, vb);
            // No 128-bit test instruction in SSE2: compare against zero.
            let zero = _mm_cmpeq_epi32(v, _mm_setzero_si128());
            if _mm_movemask_epi8(zero) != 0xffff {
                return true;
            }
        }
        let done = pairs * 2;
        scalar::overlap(&a[done..], &b[done..])
    }
}

/// 256-bit AVX2 kernels with hardware popcount.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::scalar;
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and2(a: &[u64], b: &[u64], out: &mut [u64]) {
        let quads = a.len() / 4;
        for i in 0..quads {
            let va = _mm256_loadu_si256(a.as_ptr().add(4 * i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(4 * i) as *const __m256i);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(4 * i) as *mut __m256i,
                _mm256_and_si256(va, vb),
            );
        }
        let done = quads * 4;
        scalar::and2(&a[done..], &b[done..], &mut out[done..]);
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and3(a: &[u64], b: &[u64], c: &[u64], out: &mut [u64]) {
        let quads = a.len() / 4;
        for i in 0..quads {
            let va = _mm256_loadu_si256(a.as_ptr().add(4 * i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(4 * i) as *const __m256i);
            let vc = _mm256_loadu_si256(c.as_ptr().add(4 * i) as *const __m256i);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(4 * i) as *mut __m256i,
                _mm256_and_si256(_mm256_and_si256(va, vb), vc),
            );
        }
        let done = quads * 4;
        scalar::and3(&a[done..], &b[done..], &c[done..], &mut out[done..]);
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn or2(src: &[u64], dst: &mut [u64]) {
        let quads = src.len() / 4;
        for i in 0..quads {
            let vs = _mm256_loadu_si256(src.as_ptr().add(4 * i) as *const __m256i);
            let vd = _mm256_loadu_si256(dst.as_ptr().add(4 * i) as *const __m256i);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(4 * i) as *mut __m256i,
                _mm256_or_si256(vs, vd),
            );
        }
        let done = quads * 4;
        scalar::or2(&src[done..], &mut dst[done..]);
    }

    /// # Safety
    ///
    /// Requires `popcnt`.
    #[target_feature(enable = "popcnt")]
    pub unsafe fn popcnt(words: &[u64]) -> u64 {
        // `count_ones` lowers to the POPCNT instruction under this
        // target feature.
        scalar::popcnt(words)
    }

    /// 4-bit non-zero mask of one 256-bit lane group.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn nonzero_mask(v: __m256i) -> u64 {
        let zero = _mm256_cmpeq_epi64(v, _mm256_setzero_si256());
        // Sign bit of each 64-bit lane is 1 where the lane was zero.
        let zmask = _mm256_movemask_pd(_mm256_castsi256_pd(zero)) as u64;
        !zmask & 0xf
    }

    /// Lane-enable mask for a partial final group of `rem` (1..=3)
    /// words: enabled lanes read/store, disabled lanes load as zero.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        const MASKS: [[i64; 4]; 4] = [[0, 0, 0, 0], [-1, 0, 0, 0], [-1, -1, 0, 0], [-1, -1, -1, 0]];
        _mm256_loadu_si256(MASKS[rem].as_ptr() as *const __m256i)
    }

    /// Set-bit count of one 256-bit lane group, read from the register
    /// (avoids a store-to-load round trip through the output slice).
    /// Callers test the group's summary mask first: match rows are
    /// mostly zero, so the skip branch predicts well and the counting
    /// cost is only paid where state is actually active.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `popcnt`.
    #[inline]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn lane_popcount(v: __m256i) -> u64 {
        (_mm256_extract_epi64(v, 0) as u64).count_ones() as u64
            + (_mm256_extract_epi64(v, 1) as u64).count_ones() as u64
            + (_mm256_extract_epi64(v, 2) as u64).count_ones() as u64
            + (_mm256_extract_epi64(v, 3) as u64).count_ones() as u64
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn summary_of(words: &[u64], summary: &mut [u64]) {
        summary.fill(0);
        let quads = words.len() / 4;
        for i in 0..quads {
            let v = _mm256_loadu_si256(words.as_ptr().add(4 * i) as *const __m256i);
            let bit = 4 * i;
            summary[bit / 64] |= nonzero_mask(v) << (bit % 64);
        }
        for (i, &w) in words.iter().enumerate().skip(quads * 4) {
            if w != 0 {
                summary[i / 64] |= 1u64 << (i % 64);
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and `popcnt`.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn and2_sum(a: &[u64], b: &[u64], out: &mut [u64], summary: &mut [u64]) -> u64 {
        summary.fill(0);
        let mut count = 0u64;
        let quads = a.len() / 4;
        for i in 0..quads {
            let va = _mm256_loadu_si256(a.as_ptr().add(4 * i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(4 * i) as *const __m256i);
            let v = _mm256_and_si256(va, vb);
            _mm256_storeu_si256(out.as_mut_ptr().add(4 * i) as *mut __m256i, v);
            let mask = nonzero_mask(v);
            if mask != 0 {
                let bit = 4 * i;
                summary[bit / 64] |= mask << (bit % 64);
                count += lane_popcount(v);
            }
        }
        let done = quads * 4;
        let rem = a.len() - done;
        if rem != 0 {
            // Partial final group via masked load/store: disabled lanes
            // read as zero and are never written back. `done` is a
            // multiple of 4, so the summary bits stay in one word.
            let m = tail_mask(rem);
            let va = _mm256_maskload_epi64(a.as_ptr().add(done) as *const i64, m);
            let vb = _mm256_maskload_epi64(b.as_ptr().add(done) as *const i64, m);
            let v = _mm256_and_si256(va, vb);
            _mm256_maskstore_epi64(out.as_mut_ptr().add(done) as *mut i64, m, v);
            let mask = nonzero_mask(v);
            if mask != 0 {
                summary[done / 64] |= mask << (done % 64);
                count += lane_popcount(v);
            }
        }
        count
    }

    /// # Safety
    ///
    /// Requires AVX2 and `popcnt`.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn and3_sum(
        a: &[u64],
        b: &[u64],
        c: &[u64],
        out: &mut [u64],
        summary: &mut [u64],
    ) -> u64 {
        summary.fill(0);
        let mut count = 0u64;
        let quads = a.len() / 4;
        for i in 0..quads {
            let va = _mm256_loadu_si256(a.as_ptr().add(4 * i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(4 * i) as *const __m256i);
            let vc = _mm256_loadu_si256(c.as_ptr().add(4 * i) as *const __m256i);
            let v = _mm256_and_si256(_mm256_and_si256(va, vb), vc);
            _mm256_storeu_si256(out.as_mut_ptr().add(4 * i) as *mut __m256i, v);
            let mask = nonzero_mask(v);
            if mask != 0 {
                let bit = 4 * i;
                summary[bit / 64] |= mask << (bit % 64);
                count += lane_popcount(v);
            }
        }
        let done = quads * 4;
        let rem = a.len() - done;
        if rem != 0 {
            let m = tail_mask(rem);
            let va = _mm256_maskload_epi64(a.as_ptr().add(done) as *const i64, m);
            let vb = _mm256_maskload_epi64(b.as_ptr().add(done) as *const i64, m);
            let vc = _mm256_maskload_epi64(c.as_ptr().add(done) as *const i64, m);
            let v = _mm256_and_si256(_mm256_and_si256(va, vb), vc);
            _mm256_maskstore_epi64(out.as_mut_ptr().add(done) as *mut i64, m, v);
            let mask = nonzero_mask(v);
            if mask != 0 {
                summary[done / 64] |= mask << (done % 64);
                count += lane_popcount(v);
            }
        }
        count
    }

    /// # Safety
    ///
    /// Requires AVX2 and `popcnt`.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn and2_or2_sum(
        a: &[u64],
        b: &[u64],
        c: &[u64],
        d: &[u64],
        out: &mut [u64],
        summary: &mut [u64],
    ) -> u64 {
        summary.fill(0);
        let mut count = 0u64;
        let quads = a.len() / 4;
        // Two groups per iteration with a single combined skip test:
        // match rows are mostly zero, so one well-predicted branch
        // covers 8 words and the summary/count work runs only where
        // something matched.
        let mut i = 0;
        while i + 1 < quads {
            let v0 = _mm256_and_si256(
                _mm256_and_si256(
                    _mm256_loadu_si256(a.as_ptr().add(4 * i) as *const __m256i),
                    _mm256_loadu_si256(b.as_ptr().add(4 * i) as *const __m256i),
                ),
                _mm256_or_si256(
                    _mm256_loadu_si256(c.as_ptr().add(4 * i) as *const __m256i),
                    _mm256_loadu_si256(d.as_ptr().add(4 * i) as *const __m256i),
                ),
            );
            let v1 = _mm256_and_si256(
                _mm256_and_si256(
                    _mm256_loadu_si256(a.as_ptr().add(4 * i + 4) as *const __m256i),
                    _mm256_loadu_si256(b.as_ptr().add(4 * i + 4) as *const __m256i),
                ),
                _mm256_or_si256(
                    _mm256_loadu_si256(c.as_ptr().add(4 * i + 4) as *const __m256i),
                    _mm256_loadu_si256(d.as_ptr().add(4 * i + 4) as *const __m256i),
                ),
            );
            _mm256_storeu_si256(out.as_mut_ptr().add(4 * i) as *mut __m256i, v0);
            _mm256_storeu_si256(out.as_mut_ptr().add(4 * i + 4) as *mut __m256i, v1);
            if _mm256_testz_si256(_mm256_or_si256(v0, v1), _mm256_or_si256(v0, v1)) == 0 {
                let bit = 4 * i;
                let mask = nonzero_mask(v0) | (nonzero_mask(v1) << 4);
                summary[bit / 64] |= mask << (bit % 64);
                count += lane_popcount(v0) + lane_popcount(v1);
            }
            i += 2;
        }
        if i < quads {
            let va = _mm256_loadu_si256(a.as_ptr().add(4 * i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(4 * i) as *const __m256i);
            let vc = _mm256_loadu_si256(c.as_ptr().add(4 * i) as *const __m256i);
            let vd = _mm256_loadu_si256(d.as_ptr().add(4 * i) as *const __m256i);
            let v = _mm256_and_si256(_mm256_and_si256(va, vb), _mm256_or_si256(vc, vd));
            _mm256_storeu_si256(out.as_mut_ptr().add(4 * i) as *mut __m256i, v);
            let mask = nonzero_mask(v);
            if mask != 0 {
                let bit = 4 * i;
                summary[bit / 64] |= mask << (bit % 64);
                count += lane_popcount(v);
            }
        }
        let done = quads * 4;
        let rem = a.len() - done;
        if rem != 0 {
            let m = tail_mask(rem);
            let va = _mm256_maskload_epi64(a.as_ptr().add(done) as *const i64, m);
            let vb = _mm256_maskload_epi64(b.as_ptr().add(done) as *const i64, m);
            let vc = _mm256_maskload_epi64(c.as_ptr().add(done) as *const i64, m);
            let vd = _mm256_maskload_epi64(d.as_ptr().add(done) as *const i64, m);
            let v = _mm256_and_si256(_mm256_and_si256(va, vb), _mm256_or_si256(vc, vd));
            _mm256_maskstore_epi64(out.as_mut_ptr().add(done) as *mut i64, m, v);
            let mask = nonzero_mask(v);
            if mask != 0 {
                summary[done / 64] |= mask << (done % 64);
                count += lane_popcount(v);
            }
        }
        count
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn overlap(a: &[u64], b: &[u64]) -> bool {
        let quads = a.len() / 4;
        for i in 0..quads {
            let va = _mm256_loadu_si256(a.as_ptr().add(4 * i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(4 * i) as *const __m256i);
            if _mm256_testz_si256(va, vb) == 0 {
                return true;
            }
        }
        let done = quads * 4;
        scalar::overlap(&a[done..], &b[done..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serializes tests that flip the forced kernel.
    pub(crate) fn force_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

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

    fn check_all(len: usize) {
        let a = pattern(len, 0x1111);
        let b = pattern(len, 0x2222);
        let c = pattern(len, 0x4444);
        let d = pattern(len, 0x8888);
        let summary_len = len.div_ceil(64);

        // Reference results from the scalar implementation.
        let mut want_and2 = vec![0u64; len];
        let mut want_and3 = vec![0u64; len];
        scalar::and2(&a, &b, &mut want_and2);
        scalar::and3(&a, &b, &c, &mut want_and3);
        let mut want_or = a.clone();
        scalar::or2(&b, &mut want_or);
        let mut want_sum2 = vec![0u64; summary_len];
        scalar::summary_of(&want_and2, &mut want_sum2);
        let mut want_sum3 = vec![0u64; summary_len];
        scalar::summary_of(&want_and3, &mut want_sum3);
        let want_andor: Vec<u64> = (0..len).map(|i| a[i] & b[i] & (c[i] | d[i])).collect();
        let mut want_andor_sum = vec![0u64; summary_len];
        scalar::summary_of(&want_andor, &mut want_andor_sum);

        let _guard = force_lock();
        for kernel in [Kernel::Scalar, Kernel::Sse2, Kernel::Avx2] {
            force(Some(kernel));
            let active = active();

            let mut out = vec![!0u64; len];
            and2_into(&a, &b, &mut out);
            assert_eq!(out, want_and2, "{active:?} and2 len={len}");

            let mut out3 = vec![!0u64; len];
            and3_into(&a, &b, &c, &mut out3);
            assert_eq!(out3, want_and3, "{active:?} and3 len={len}");

            let mut acc = a.clone();
            or_into(&b, &mut acc);
            assert_eq!(acc, want_or, "{active:?} or len={len}");

            assert_eq!(
                popcount(&want_and3),
                scalar::popcnt(&want_and3),
                "{active:?} popcount len={len}"
            );

            let mut summary = vec![!0u64; summary_len];
            summarize(&want_and2, &mut summary);
            assert_eq!(summary, want_sum2, "{active:?} summarize len={len}");

            let mut fused = vec![!0u64; len];
            let mut fused_sum = vec![!0u64; summary_len];
            let n = and2_summarize(&a, &b, &mut fused, &mut fused_sum);
            assert_eq!(fused, want_and2, "{active:?} and2_sum out len={len}");
            assert_eq!(
                fused_sum, want_sum2,
                "{active:?} and2_sum summary len={len}"
            );
            assert_eq!(n, scalar::popcnt(&want_and2), "{active:?} and2_sum count");

            let mut fused3 = vec![!0u64; len];
            let mut fused3_sum = vec![!0u64; summary_len];
            let n3 = and3_summarize(&a, &b, &c, &mut fused3, &mut fused3_sum);
            assert_eq!(fused3, want_and3, "{active:?} and3_sum out len={len}");
            assert_eq!(
                fused3_sum, want_sum3,
                "{active:?} and3_sum summary len={len}"
            );
            assert_eq!(n3, scalar::popcnt(&want_and3), "{active:?} and3_sum count");

            let mut fusedor = vec![!0u64; len];
            let mut fusedor_sum = vec![!0u64; summary_len];
            let nor = and2_or2_summarize(&a, &b, &c, &d, &mut fusedor, &mut fusedor_sum);
            assert_eq!(fusedor, want_andor, "{active:?} and2_or2 out len={len}");
            assert_eq!(
                fusedor_sum, want_andor_sum,
                "{active:?} and2_or2 summary len={len}"
            );
            assert_eq!(
                nor,
                scalar::popcnt(&want_andor),
                "{active:?} and2_or2 count"
            );

            assert_eq!(
                intersects(&a, &b),
                scalar::overlap(&a, &b),
                "{active:?} intersects len={len}"
            );
            let zeros = vec![0u64; len];
            assert!(!intersects(&a, &zeros), "{active:?} intersects zeros");
        }
        force(None);
    }

    #[test]
    fn kernels_agree_on_empty_slices() {
        check_all(0);
    }

    #[test]
    fn kernels_agree_on_word_counts_off_the_vector_width() {
        // 1..=9 covers sub-width, exact-width, and remainder cases for
        // both the 2-word SSE2 and 4-word AVX2 strides.
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
        let _guard = force_lock();
        for len in [1usize, 4, 7, 64, 100] {
            let ones = vec![u64::MAX; len];
            let zeros = vec![0u64; len];
            let summary_len = len.div_ceil(64);
            for kernel in [Kernel::Scalar, Kernel::Sse2, Kernel::Avx2] {
                force(Some(kernel));
                let mut out = vec![0u64; len];
                let mut summary = vec![0u64; summary_len];
                let n = and2_summarize(&ones, &ones, &mut out, &mut summary);
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

                let n = and2_summarize(&ones, &zeros, &mut out, &mut summary);
                assert_eq!(n, 0);
                assert_eq!(out, zeros);
                assert!(summary.iter().all(|&s| s == 0));
                assert_eq!(popcount(&zeros), 0);
                assert_eq!(popcount(&ones), 64 * len as u64);
                assert!(!intersects(&ones, &zeros));
                assert!(intersects(&ones, &ones));
            }
        }
        force(None);
    }

    #[test]
    fn forced_kernel_is_clamped_to_detected() {
        let _guard = force_lock();
        force(Some(Kernel::Avx2));
        assert!(active() <= detected());
        force(Some(Kernel::Scalar));
        assert_eq!(active(), Kernel::Scalar);
        force(None);
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in [Kernel::Scalar, Kernel::Sse2, Kernel::Avx2] {
            assert_eq!(Kernel::parse(k.name()), Some(Some(k)));
        }
        assert_eq!(Kernel::parse("auto"), Some(None));
        assert_eq!(Kernel::parse("AVX2"), Some(Some(Kernel::Avx2)));
        assert_eq!(Kernel::parse("neon"), None);
    }
}
