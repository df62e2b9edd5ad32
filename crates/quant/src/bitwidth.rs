//! Bit-width requirement classification (§III-B, Fig. 5).
//!
//! The paper defines the *bit-width requirement* as the minimum number of
//! bits needed to represent a quantized value, and buckets data elements
//! into **zero**, **≤4-bit** and **over-4-bit**. The Ditto hardware maps the
//! first two buckets onto single 4-bit multipliers and the third onto pairs
//! of 4-bit multipliers with shifters (8-bit path). Differences of two
//! signed 8-bit values can reach ±254; those rare cases are classified
//! [`BitWidthClass::Over8`] and cost two 8-bit operations in the models.

use ratio::u64_ratio;

/// Bit-width bucket of a single quantized value or temporal difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BitWidthClass {
    /// Exactly zero — skipped entirely by the Encoding Unit.
    Zero,
    /// Fits in a signed 4-bit value (`-8..=7`) — one 4-bit multiplier.
    Low4,
    /// Fits in a signed 8-bit value — two paired 4-bit multipliers + shift.
    Full8,
    /// Exceeds 8 bits (only possible for differences, up to ±254) —
    /// processed as two sequential 8-bit operations.
    Over8,
}

impl BitWidthClass {
    /// Classifies a value in the `i16` difference domain.
    pub fn of(v: i16) -> Self {
        if v == 0 {
            BitWidthClass::Zero
        } else if (-8..=7).contains(&v) {
            BitWidthClass::Low4
        } else if (-128..=127).contains(&v) {
            BitWidthClass::Full8
        } else {
            BitWidthClass::Over8
        }
    }

    /// Classifies an original (non-difference) 8-bit activation.
    pub fn of_i8(v: i8) -> Self {
        Self::of(v as i16)
    }

    /// Effective multiplier issue slots on the Ditto Compute Unit:
    /// zero costs 0, 4-bit costs 1, 8-bit costs 2 (high+low nibble),
    /// over-8-bit costs 4 (two 8-bit passes).
    pub fn lane_cost(self) -> u64 {
        match self {
            BitWidthClass::Zero => 0,
            BitWidthClass::Low4 => 1,
            BitWidthClass::Full8 => 2,
            BitWidthClass::Over8 => 4,
        }
    }

    /// Activation bit-width used for BOPs accounting (§III-B uses
    /// `BOPs = bits_act × bits_weight` per MAC).
    pub fn bops_bits(self) -> u64 {
        match self {
            BitWidthClass::Zero => 0,
            BitWidthClass::Low4 => 4,
            BitWidthClass::Full8 => 8,
            BitWidthClass::Over8 => 16,
        }
    }
}

/// Histogram of bit-width classes over a stream of values.
///
/// This is the per-layer statistic the Encoding Unit produces and everything
/// downstream (BOPs model, cycle model, Fig. 5) consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitWidthHistogram {
    /// Count of exactly-zero values.
    pub zero: u64,
    /// Count of values needing ≤4 bits (excluding zero).
    pub low4: u64,
    /// Count of values needing 5–8 bits.
    pub full8: u64,
    /// Count of values needing more than 8 bits (differences only).
    pub over8: u64,
}

impl BitWidthHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a histogram from `i16` difference values.
    pub fn from_deltas(deltas: &[i16]) -> Self {
        let mut h = Self::default();
        for block in deltas.chunks(Tally::BLOCK) {
            let mut t = Tally::default();
            for &d in block {
                t.add(d);
            }
            h.absorb(t, block.len());
        }
        h
    }

    /// Builds a histogram from original `i8` activations.
    pub fn from_activations(acts: &[i8]) -> Self {
        let mut h = Self::default();
        for block in acts.chunks(Tally::BLOCK) {
            let mut t = Tally::default();
            for &a in block {
                t.add_level(i16::from(a));
            }
            h.absorb(t.with_all_le8(block.len()), block.len());
        }
        h
    }

    /// Adds the class counts of one block of `n` values.
    pub(crate) fn absorb(&mut self, t: Tally, n: usize) {
        self.zero += u64::from(t.zero);
        self.low4 += u64::from(t.le4 - t.zero);
        self.full8 += u64::from(t.le8 - t.le4);
        self.over8 += n as u64 - u64::from(t.le8);
    }

    /// Adds one classified value.
    pub fn push(&mut self, class: BitWidthClass) {
        match class {
            BitWidthClass::Zero => self.zero += 1,
            BitWidthClass::Low4 => self.low4 += 1,
            BitWidthClass::Full8 => self.full8 += 1,
            BitWidthClass::Over8 => self.over8 += 1,
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &BitWidthHistogram) {
        self.zero += other.zero;
        self.low4 += other.low4;
        self.full8 += other.full8;
        self.over8 += other.over8;
    }

    /// Total number of classified values.
    pub fn total(&self) -> u64 {
        self.zero + self.low4 + self.full8 + self.over8
    }

    /// Fraction of zero values (Fig. 5's "Zero" band).
    pub fn zero_ratio(&self) -> f64 {
        u64_ratio(self.zero, self.total())
    }

    /// Fraction representable in ≤4 bits *including* zeros (the paper's
    /// "96.01% require half bit-width" statistic counts zero + 4-bit).
    pub fn le4_ratio(&self) -> f64 {
        u64_ratio(self.zero + self.low4, self.total())
    }

    /// Fraction of non-zero ≤4-bit values (Fig. 5's "4-bit" band).
    pub fn low4_ratio(&self) -> f64 {
        u64_ratio(self.low4, self.total())
    }

    /// Fraction requiring more than 4 bits (Fig. 5's "Over 4-bit" band).
    pub fn over4_ratio(&self) -> f64 {
        u64_ratio(self.full8 + self.over8, self.total())
    }

    /// Total multiplier lane slots needed on the Ditto Compute Unit.
    pub fn lane_cost(&self) -> u64 {
        self.low4 + 2 * self.full8 + 4 * self.over8
    }
}

/// Branchless class counter for one block of at most [`Tally::BLOCK`]
/// values — the Encoding Unit's comparators (Fig. 11) as lane sums.
///
/// The counts are cumulative (`zero ⊆ le4 ⊆ le8`), so each value costs the
/// same three mask tests whatever its class; the four histogram buckets
/// are their differences ([`BitWidthHistogram::absorb`]). The block bound
/// keeps every count inside a `u16`, the widest lane the baseline x86-64
/// target compares and sums eight at a time. [`BitWidthClass::of`] is the
/// specification the property tests hold this to.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    zero: u16,
    le4: u16,
    le8: u16,
}

impl Tally {
    /// Largest block one tally may count.
    pub(crate) const BLOCK: usize = 1 << 15;

    /// Counts one value of the `i16` difference domain.
    #[inline(always)]
    pub(crate) fn add(&mut self, v: i16) {
        self.add_level(v);
        self.le8 += u16::from(v.wrapping_add(128) & !255 == 0);
    }

    /// Counts one widened `i8` level, which always fits 8 bits: that count
    /// is the block length, supplied once by [`Tally::with_all_le8`].
    #[inline(always)]
    pub(crate) fn add_level(&mut self, v: i16) {
        self.zero += u16::from(v == 0);
        self.le4 += u16::from(v.wrapping_add(8) & !15 == 0);
    }

    /// A tally of `n` levels with its 8-bit count filled in.
    pub(crate) fn with_all_le8(mut self, n: usize) -> Self {
        debug_assert!(n <= Self::BLOCK);
        self.le8 = n as u16;
        self
    }
}

/// Tiny ratio helper kept dependency-free.
mod ratio {
    /// `a / b` as `f64`, `0.0` when `b == 0`.
    pub fn u64_ratio(a: u64, b: u64) -> f64 {
        if b == 0 {
            0.0
        } else {
            a as f64 / b as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_boundaries() {
        assert_eq!(BitWidthClass::of(0), BitWidthClass::Zero);
        assert_eq!(BitWidthClass::of(7), BitWidthClass::Low4);
        assert_eq!(BitWidthClass::of(-8), BitWidthClass::Low4);
        assert_eq!(BitWidthClass::of(8), BitWidthClass::Full8);
        assert_eq!(BitWidthClass::of(-9), BitWidthClass::Full8);
        assert_eq!(BitWidthClass::of(127), BitWidthClass::Full8);
        assert_eq!(BitWidthClass::of(-128), BitWidthClass::Full8);
        assert_eq!(BitWidthClass::of(128), BitWidthClass::Over8);
        assert_eq!(BitWidthClass::of(-254), BitWidthClass::Over8);
    }

    #[test]
    fn lane_and_bops_costs() {
        assert_eq!(BitWidthClass::Zero.lane_cost(), 0);
        assert_eq!(BitWidthClass::Low4.lane_cost(), 1);
        assert_eq!(BitWidthClass::Full8.lane_cost(), 2);
        assert_eq!(BitWidthClass::Over8.lane_cost(), 4);
        assert_eq!(BitWidthClass::Low4.bops_bits(), 4);
        assert_eq!(BitWidthClass::Full8.bops_bits(), 8);
    }

    #[test]
    fn histogram_from_deltas() {
        let h = BitWidthHistogram::from_deltas(&[0, 0, 3, -8, 100, 200]);
        assert_eq!(h.zero, 2);
        assert_eq!(h.low4, 2);
        assert_eq!(h.full8, 1);
        assert_eq!(h.over8, 1);
        assert_eq!(h.total(), 6);
        assert!((h.zero_ratio() - 2.0 / 6.0).abs() < 1e-12);
        assert!((h.le4_ratio() - 4.0 / 6.0).abs() < 1e-12);
        assert!((h.over4_ratio() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = BitWidthHistogram::from_deltas(&[0, 5]);
        let b = BitWidthHistogram::from_deltas(&[100]);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.full8, 1);
    }

    #[test]
    fn empty_histogram_ratios_are_zero() {
        let h = BitWidthHistogram::new();
        assert_eq!(h.zero_ratio(), 0.0);
        assert_eq!(h.le4_ratio(), 0.0);
    }

    #[test]
    fn lane_cost_weights() {
        let h = BitWidthHistogram { zero: 10, low4: 4, full8: 3, over8: 1 };
        assert_eq!(h.lane_cost(), 4 + 6 + 4);
    }

    #[test]
    fn activation_histogram_counts_zeros() {
        let h = BitWidthHistogram::from_activations(&[0, 1, -128, 64]);
        assert_eq!(h.zero, 1);
        assert_eq!(h.low4, 1);
        assert_eq!(h.full8, 2);
    }
}
