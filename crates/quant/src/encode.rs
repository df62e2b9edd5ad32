//! The Encoding Unit's software model (§V-B, Fig. 11): one fused pass over
//! a quantized operand that classifies it under the three processing views
//! and emits the `i16` operand the integer kernels consume.
//!
//! In hardware the Encoding Unit is a subtractor and two comparators per
//! lane in front of the Compute Unit. [`encode`] is the same thing per
//! element — one subtraction against the previous step, one against the
//! previous row, and three mask tests on each result — with no
//! data-dependent branch, so the compiler turns the tests into lane masks
//! and the counters into lane sums (the crate-private `bitwidth::Tally`).

use crate::bitwidth::Tally;
use crate::BitWidthHistogram;

/// Which `i16` operand [`encode`] writes for the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// The current levels, widened (dense integer execution).
    Levels,
    /// The temporal difference `cur − prev` (stage 1 of Fig. 7); the
    /// widened levels when there is no previous step.
    Delta,
}

/// The three statistics views of one operand (Fig. 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Encoded {
    /// Original activations.
    pub act: BitWidthHistogram,
    /// Row-wise spatial differences: the first row at its activation
    /// bit-width, row `r > 0` as `row_r − row_{r−1}` (the Diffy method
    /// extended to FC/attention rows, §III-B).
    pub spatial: BitWidthHistogram,
    /// Temporal differences against the previous step, when there is one.
    pub temporal: Option<BitWidthHistogram>,
}

/// One block of the fused pass: `cur` against the row `above` it (spatial
/// view) and the step `prev` (temporal view). An absent view is a const
/// `false` — its slice is then ignored — so every combination compiles to
/// its own straight loop.
fn block<const SPATIAL: bool, const TEMPORAL: bool, const DELTA: bool>(
    cur: &[i8],
    above: &[i8],
    prev: &[i8],
    out: &mut [i16],
    into: &mut Encoded,
) {
    let n = cur.len();
    let (above, prev, out) = (&above[..n], &prev[..n], &mut out[..n]);
    let (mut act, mut spatial, mut temporal) =
        (Tally::default(), Tally::default(), Tally::default());
    for i in 0..n {
        let c = i16::from(cur[i]);
        act.add_level(c);
        if SPATIAL {
            spatial.add(c - i16::from(above[i]));
        }
        let d = c - i16::from(prev[i]);
        if TEMPORAL {
            temporal.add(d);
        }
        out[i] = if DELTA { d } else { c };
    }
    let act = act.with_all_le8(n);
    into.act.absorb(act, n);
    // The first row has no row above it and counts at its own bit-width.
    into.spatial.absorb(if SPATIAL { spatial } else { act }, n);
    if let Some(hist) = &mut into.temporal {
        hist.absorb(temporal, n);
    }
}

/// The whole pass for one choice of views: the first row, then the rows
/// that have one above them, each in blocks a [`Tally`] can count.
fn pass<const TEMPORAL: bool, const DELTA: bool>(
    cur: &[i8],
    prev: &[i8],
    cols: usize,
    out: &mut [i16],
) -> Encoded {
    let mut enc = Encoded { temporal: TEMPORAL.then(BitWidthHistogram::new), ..Encoded::default() };
    let head = cols.min(cur.len());
    let mut start = 0;
    while start < cur.len() {
        let first_row = start < head;
        let end = (start + Tally::BLOCK).min(if first_row { head } else { cur.len() });
        let (c, p, o) = (&cur[start..end], &prev[start..end], &mut out[start..end]);
        if first_row {
            block::<false, TEMPORAL, DELTA>(c, c, p, o, &mut enc);
        } else {
            let above = &cur[start - cols..end - cols];
            block::<true, TEMPORAL, DELTA>(c, above, p, o, &mut enc);
        }
        start = end;
    }
    enc
}

/// Runs the fused pass over a `[rows, cols]` operand of quantized levels.
///
/// Returns the activation, spatial and (when `prev` is given) temporal
/// histograms, and leaves in `operand` the `i16` values the integer kernel
/// consumes: the widened levels, or under [`Emit::Delta`] with a previous
/// step the temporal differences.
///
/// # Panics
///
/// Panics if `cur` is not `rows · cols` long or `prev` differs in length.
pub fn encode(
    cur: &[i8],
    prev: Option<&[i8]>,
    rows: usize,
    cols: usize,
    emit: Emit,
    operand: &mut Vec<i16>,
) -> Encoded {
    assert_eq!(cur.len(), rows * cols, "operand length");
    operand.clear();
    operand.resize(cur.len(), 0);
    match (prev, emit) {
        (None, _) => pass::<false, false>(cur, cur, cols, operand),
        (Some(prev), emit) => {
            assert_eq!(prev.len(), cur.len(), "previous operand length");
            match emit {
                Emit::Levels => pass::<true, false>(cur, prev, cols, operand),
                Emit::Delta => pass::<true, true>(cur, prev, cols, operand),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_views_of_a_small_operand() {
        // Rows [10, 20], [10, 21], [10, 120]: base row 10, 20 (both 8-bit),
        // spatial deltas 0, 1, 0, 99; temporal deltas against all-tens.
        let cur = [10i8, 20, 10, 21, 10, 120];
        let prev = [10i8; 6];
        let mut op = Vec::new();
        let enc = encode(&cur, Some(&prev), 3, 2, Emit::Delta, &mut op);
        assert_eq!(enc.act, BitWidthHistogram { zero: 0, low4: 0, full8: 6, over8: 0 });
        assert_eq!(enc.spatial, BitWidthHistogram { zero: 2, low4: 1, full8: 3, over8: 0 });
        assert_eq!(enc.temporal, Some(BitWidthHistogram { zero: 3, low4: 0, full8: 3, over8: 0 }));
        assert_eq!(op, [0, 10, 0, 11, 0, 110]);
        let enc = encode(&cur, Some(&prev), 3, 2, Emit::Levels, &mut op);
        assert_eq!(op, [10, 20, 10, 21, 10, 120]);
        assert!(enc.temporal.is_some());
        let enc = encode(&cur, None, 3, 2, Emit::Delta, &mut op);
        assert_eq!(op, [10, 20, 10, 21, 10, 120], "no previous step: levels");
        assert_eq!(enc.temporal, None);
    }

    #[test]
    #[should_panic(expected = "previous operand length")]
    fn previous_step_must_match_in_length() {
        encode(&[0; 4], Some(&[0; 3]), 2, 2, Emit::Delta, &mut Vec::new());
    }
}
