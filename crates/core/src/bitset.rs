//! A compact dynamic bit set used throughout the simulator and hardware
//! models for active-state vectors, match vectors, and crossbar rows.
//!
//! The set is sized at construction time and never grows; every operation
//! that combines two sets requires them to have the same length. This
//! mirrors the fixed-width registers of the modeled hardware (match
//! vectors, next vectors, crossbar rows) and catches size mismatches early.

use crate::kernel;
use std::fmt;

const BITS: usize = 64;

/// A fixed-capacity set of bits backed by `u64` words.
///
/// # Examples
///
/// ```
/// use cama_core::bitset::BitSet;
///
/// let mut set = BitSet::new(128);
/// set.insert(3);
/// set.insert(77);
/// assert!(set.contains(77));
/// assert_eq!(set.count(), 2);
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 77]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    len: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set with capacity for `len` bits (indices `0..len`).
    pub fn new(len: usize) -> Self {
        BitSet {
            len,
            words: vec![0; len.div_ceil(BITS)],
        }
    }

    /// Creates a set of `len` bits with every bit set.
    pub fn full(len: usize) -> Self {
        let mut set = BitSet::new(len);
        for (i, word) in set.words.iter_mut().enumerate() {
            let lo = i * BITS;
            let n = (len - lo).min(BITS);
            *word = if n == BITS { !0 } else { (1u64 << n) - 1 };
        }
        set
    }

    /// Creates a set from an iterator of bit indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, indices: I) -> Self {
        let mut set = BitSet::new(len);
        for i in indices {
            set.insert(i);
        }
        set
    }

    /// Number of addressable bits (the capacity, not the population count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.first_set().is_none()
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / BITS] |= 1u64 << (i % BITS);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / BITS] &= !(1u64 << (i % BITS));
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / BITS] >> (i % BITS) & 1 == 1
    }

    /// Clears every bit, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// In-place union: `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different capacities.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        kernel::or_into(&other.words, &mut self.words);
    }

    /// In-place intersection: `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different capacities.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: `self &= !other`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different capacities.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns `true` if `self` and `other` share any set bit.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different capacities.
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        kernel::intersects(&self.words, &other.words)
    }

    /// Returns `true` if `self` and `other` share no set bit.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different capacities.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        !self.intersects(other)
    }

    /// The index of the lowest set bit, or `None` if the set is empty.
    pub fn first_set(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|i| i * BITS + self.words[i].trailing_zeros() as usize)
    }

    /// Returns `true` if every bit of `self` is also set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different capacities.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// A borrowed [`Row`] view of this set's words.
    pub fn as_row(&self) -> Row<'_> {
        Row {
            len: self.len,
            words: &self.words,
        }
    }

    /// Copies the contents of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different capacities.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Access to the raw words, mostly for hashing or fast comparisons.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the raw words, for fused word-level kernels
    /// (the compiled engine computes `active = match & enabled`, its
    /// popcounts, and the report scan in one pass over these words).
    ///
    /// Callers must keep bits at positions `>= len()` zero; every other
    /// operation relies on that invariant.
    pub fn as_words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Iterates over the indices of `self & mask` without materializing
    /// the intersection — e.g. picking the reporting states out of an
    /// active vector by masking with a report mask.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different capacities.
    pub fn iter_and<'a>(&'a self, mask: &'a BitSet) -> IterAnd<'a> {
        assert_eq!(self.len, mask.len, "bitset length mismatch");
        IterAnd {
            a: &self.words,
            b: &mask.words,
            word_idx: 0,
            current: match (self.words.first(), mask.words.first()) {
                (Some(&x), Some(&y)) => x & y,
                _ => 0,
            },
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a set sized to exactly fit the largest index.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let len = indices.iter().max().map_or(0, |&m| m + 1);
        BitSet::from_indices(len, indices)
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over set bit indices, created by [`BitSet::iter`] and
/// [`Row::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * BITS + bit)
    }
}

/// A borrowed, fixed-width row of bits — the view type returned by the
/// compiled plans' per-symbol match-table accessors.
///
/// Rows live back to back, each at its exact `len.div_ceil(64)` words,
/// inside one flat [`RowTable`](crate::compiled) `Vec<u64>`, so unlike
/// [`BitSet`] a row does not own its words; it is a `Copy` view that
/// exposes the same read-side API (`contains`, `iter`, `count`, …) plus
/// [`Row::words`] for the per-cycle word loops. Bits at positions
/// `>= len()` are always zero.
///
/// # Examples
///
/// ```
/// use cama_core::bitset::BitSet;
///
/// let set = BitSet::from_indices(100, [3, 77]);
/// let row = set.as_row();
/// assert!(row.contains(77));
/// assert_eq!(row.iter().collect::<Vec<_>>(), vec![3, 77]);
/// assert_eq!(row.count(), 2);
/// ```
#[derive(Clone, Copy)]
pub struct Row<'a> {
    len: usize,
    words: &'a [u64],
}

impl<'a> Row<'a> {
    /// Wraps a word slice as a row of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not hold exactly `len.div_ceil(64)`
    /// words.
    pub fn from_words(len: usize, words: &'a [u64]) -> Self {
        assert_eq!(words.len(), len.div_ceil(BITS), "row word count mismatch");
        Row { len, words }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        kernel::popcount(self.words) as usize
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / BITS] >> (i % BITS) & 1 == 1
    }

    /// The index of the lowest set bit, or `None` if the row is empty.
    pub fn first_set(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|i| i * BITS + self.words[i].trailing_zeros() as usize)
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter(&self) -> Iter<'a> {
        Iter {
            words: self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The backing words — the contiguous slice the word loops read.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Returns `true` if the rows share any set bit.
    ///
    /// # Panics
    ///
    /// Panics if the rows have different capacities.
    pub fn intersects(&self, other: Row<'_>) -> bool {
        assert_eq!(self.len, other.len, "row length mismatch");
        kernel::intersects(self.words, other.words)
    }

    /// Returns `true` if the rows share no set bit.
    ///
    /// # Panics
    ///
    /// Panics if the rows have different capacities.
    pub fn is_disjoint(&self, other: Row<'_>) -> bool {
        !self.intersects(other)
    }

    /// Materializes the row as an owned [`BitSet`].
    pub fn to_bitset(&self) -> BitSet {
        BitSet {
            len: self.len,
            words: self.words.to_vec(),
        }
    }
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl Eq for Row<'_> {}

impl PartialEq<BitSet> for Row<'_> {
    fn eq(&self, other: &BitSet) -> bool {
        self.len == other.len && self.words == other.words.as_slice()
    }
}

impl PartialEq<Row<'_>> for BitSet {
    fn eq(&self, other: &Row<'_>) -> bool {
        other == self
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the set bits of an intersection, created by
/// [`BitSet::iter_and`].
#[derive(Debug)]
pub struct IterAnd<'a> {
    a: &'a [u64],
    b: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for IterAnd<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.a.len() {
                return None;
            }
            self.current = self.a[self.word_idx] & self.b[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let set = BitSet::new(100);
        assert!(set.is_empty());
        assert_eq!(set.count(), 0);
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn insert_remove_contains() {
        let mut set = BitSet::new(130);
        set.insert(0);
        set.insert(64);
        set.insert(129);
        assert!(set.contains(0));
        assert!(set.contains(64));
        assert!(set.contains(129));
        assert!(!set.contains(1));
        set.remove(64);
        assert!(!set.contains(64));
        assert_eq!(set.count(), 2);
    }

    #[test]
    fn full_has_all_bits() {
        let set = BitSet::full(70);
        assert_eq!(set.count(), 70);
        assert!(set.contains(69));
    }

    #[test]
    fn full_zero_len() {
        let set = BitSet::full(0);
        assert_eq!(set.count(), 0);
        assert!(set.is_empty());
    }

    #[test]
    fn union_intersect_difference() {
        let a0 = BitSet::from_indices(10, [1, 3, 5]);
        let b = BitSet::from_indices(10, [3, 4]);

        let mut a = a0.clone();
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5]);

        let mut a = a0.clone();
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3]);

        let mut a = a0.clone();
        a.difference_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 5]);
    }

    #[test]
    fn subset_and_intersects() {
        let a = BitSet::from_indices(20, [2, 4]);
        let b = BitSet::from_indices(20, [2, 4, 8]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.intersects(&b));
        let c = BitSet::from_indices(20, [9]);
        assert!(!a.intersects(&c));
        assert!(BitSet::new(20).is_subset(&a));
    }

    #[test]
    fn disjoint_is_the_negation_of_intersects() {
        let a = BitSet::from_indices(200, [2, 70, 199]);
        let b = BitSet::from_indices(200, [3, 71, 198]);
        assert!(a.is_disjoint(&b));
        assert!(b.is_disjoint(&a));
        let c = BitSet::from_indices(200, [70]);
        assert!(!a.is_disjoint(&c));
        assert!(BitSet::new(200).is_disjoint(&a));
        assert!(BitSet::new(0).is_disjoint(&BitSet::new(0)));
    }

    #[test]
    fn first_set_finds_lowest_bit() {
        assert_eq!(BitSet::new(100).first_set(), None);
        assert_eq!(BitSet::new(0).first_set(), None);
        let set = BitSet::from_indices(200, [130, 67, 199]);
        assert_eq!(set.first_set(), Some(67));
        assert_eq!(BitSet::from_indices(65, [0]).first_set(), Some(0));
        assert_eq!(BitSet::from_indices(65, [64]).first_set(), Some(64));
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let indices = vec![0, 63, 64, 127, 128];
        let set = BitSet::from_indices(200, indices.iter().copied());
        assert_eq!(set.iter().collect::<Vec<_>>(), indices);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let set: BitSet = [5usize, 9, 2].into_iter().collect();
        assert_eq!(set.len(), 10);
        assert_eq!(set.count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut set = BitSet::new(8);
        set.insert(8);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn union_length_mismatch_panics() {
        let mut a = BitSet::new(8);
        let b = BitSet::new(16);
        a.union_with(&b);
    }

    #[test]
    fn iter_and_matches_materialized_intersection() {
        let a = BitSet::from_indices(200, [1, 64, 65, 127, 128, 199]);
        let b = BitSet::from_indices(200, [1, 65, 128, 130, 199]);
        let mut materialized = a.clone();
        materialized.intersect_with(&b);
        assert_eq!(
            a.iter_and(&b).collect::<Vec<_>>(),
            materialized.iter().collect::<Vec<_>>()
        );
        let empty = BitSet::new(200);
        assert_eq!(a.iter_and(&empty).count(), 0);
        let zero = BitSet::new(0);
        assert_eq!(zero.iter_and(&zero).count(), 0);
    }

    #[test]
    fn row_view_mirrors_the_bitset() {
        let set = BitSet::from_indices(130, [0, 63, 64, 129]);
        let row = set.as_row();
        assert_eq!(row.len(), 130);
        assert!(row.contains(64));
        assert!(!row.contains(1));
        assert_eq!(row.count(), 4);
        assert_eq!(row.first_set(), Some(0));
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert_eq!(row.to_bitset(), set);
        assert_eq!(row, set);
        assert_eq!(set, row);
        assert_eq!(row.words(), set.as_words());
        assert!(!row.is_empty());
        assert!(BitSet::new(130).as_row().is_empty());
        assert_eq!(BitSet::new(130).as_row().first_set(), None);
    }

    #[test]
    fn row_intersection_and_from_words() {
        let a = BitSet::from_indices(100, [5, 70]);
        let b = BitSet::from_indices(100, [70, 99]);
        let c = BitSet::from_indices(100, [6]);
        assert!(a.as_row().intersects(b.as_row()));
        assert!(a.as_row().is_disjoint(c.as_row()));
        let row = Row::from_words(100, a.as_words());
        assert_eq!(row, a);
        let zero = Row::from_words(0, &[]);
        assert!(zero.is_empty());
        assert_eq!(zero.count(), 0);
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn row_from_wrong_word_count_panics() {
        let words = [0u64; 3];
        let _ = Row::from_words(100, &words);
    }

    #[test]
    fn clear_and_copy_from() {
        let mut a = BitSet::from_indices(12, [1, 2, 3]);
        let b = BitSet::from_indices(12, [7]);
        a.copy_from(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![7]);
        a.clear();
        assert!(a.is_empty());
    }
}
