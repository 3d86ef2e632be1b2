//! Bit-width decomposition: split an 8-bit symbol class into 4-bit
//! nibble rectangles.
//!
//! Impala matches every byte as two 4-bit symbols (high nibble first),
//! which shrinks the state-matching memory from 256 rows to 16. A symbol
//! class `C ⊆ Σ` is decomposed into at most 16 *rectangles* `H × L` (high
//! nibble set × low nibble set); each rectangle costs one high row feeding
//! one low row. `cama_arch` prices Impala's 4-bit designs from these
//! rectangle counts on the byte and pair automata.

use crate::symbol::SymbolClass;

/// Splits a byte class into maximal `(high, low)` nibble rectangles.
///
/// Rectangles are disjoint in their high components and their union over
/// `(h, l)` pairs reproduces the class exactly. At most 16 rectangles are
/// produced (one per distinct low-set).
///
/// # Examples
///
/// ```
/// use cama_core::bitwidth::rectangles;
/// use cama_core::SymbolClass;
///
/// // [\x00-\x1f] = highs {0,1} × lows {0..15}: one rectangle
/// let rects = rectangles(&SymbolClass::from_range(0x00, 0x1f));
/// assert_eq!(rects.len(), 1);
/// assert_eq!(rects[0].0.len(), 2);
/// assert_eq!(rects[0].1.len(), 16);
/// ```
pub fn rectangles(class: &SymbolClass) -> Vec<(SymbolClass, SymbolClass)> {
    // Group high nibbles by identical low-sets.
    let mut low_sets: Vec<(u16, SymbolClass)> = Vec::new();
    for high in 0..16u8 {
        let mut lows: u16 = 0;
        for low in 0..16u8 {
            if class.contains(high << 4 | low) {
                lows |= 1 << low;
            }
        }
        if lows == 0 {
            continue;
        }
        match low_sets.iter_mut().find(|(mask, _)| *mask == lows) {
            Some((_, highs)) => highs.insert(high),
            None => {
                let mut highs = SymbolClass::EMPTY;
                highs.insert(high);
                low_sets.push((lows, highs));
            }
        }
    }
    low_sets
        .into_iter()
        .map(|(lows, highs)| {
            let low_class: SymbolClass = (0..16u8).filter(|&l| lows >> l & 1 == 1).collect();
            (highs, low_class)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangles_cover_exactly() {
        let class: SymbolClass = [0x12u8, 0x15, 0x32, 0x35, 0x4a].into_iter().collect();
        let rects = rectangles(&class);
        // {1,3} × {2,5} and {4} × {a}
        assert_eq!(rects.len(), 2);
        let mut covered = SymbolClass::EMPTY;
        for (h, l) in &rects {
            for hi in h.iter() {
                for lo in l.iter() {
                    assert!(class.contains(hi << 4 | lo));
                    covered.insert(hi << 4 | lo);
                }
            }
        }
        assert_eq!(covered, class);
    }

    #[test]
    fn rectangles_of_full_class() {
        let rects = rectangles(&SymbolClass::FULL);
        assert_eq!(rects.len(), 1);
        assert_eq!(rects[0].0.len(), 16);
        assert_eq!(rects[0].1.len(), 16);
    }

    #[test]
    fn rectangle_count_is_bounded() {
        // Diagonal class: each high nibble has a distinct low set.
        let class: SymbolClass = (0..16u8).map(|i| i << 4 | i).collect();
        let rects = rectangles(&class);
        assert_eq!(rects.len(), 16);
    }
}
