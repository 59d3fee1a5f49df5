//! A relation written as the rows its reader reads: `x` after ascending `x`,
//! each row's `y`s ascending and distinct — what an expansion or a product
//! row produces, in order. The `x → [y]` index is written as the rows
//! arrive; when the last one is in, flat passes over the values check them
//! and count each `y`'s degree. The `y → [x]` index is left unbuilt, its
//! neighbor lists scattered from the rows by the first read that needs them
//! ([`Relation::by_y`]). Degree reads — [`Relation::y_degree`],
//! [`Relation::full_join_size`], [`Relation::active_y_count`] — never build
//! it.
//!
//! The writer checks what it is handed as [`Relation::from_sorted_edges`]
//! checks its edges, with real asserts: rows as they are closed, values
//! beside the count of the degrees, before any reader sees them.

use crate::csr::{prefix_sums, CsrIndex, LazyIndex};
use crate::{Relation, Value};
use std::ops::Range;
use std::sync::Arc;

/// Writes the rows of the `x`s in one range of a relation's `x` domain.
///
/// Append a row's values to [`RowWriter::values`] and close it with
/// [`RowWriter::end_row`]; rows not written are empty. [`RowWriter::finish`] makes the relation of one
/// writer, or of several over consecutive ranges — parallel workers' — in
/// range order.
#[derive(Debug)]
pub struct RowWriter {
    /// The `x`s this writer's rows are.
    xs: Range<usize>,
    y_domain: usize,
    /// `offsets[i]..offsets[i + 1]` holds row `xs.start + i`; rows up to
    /// `offsets.len() - 1` are closed.
    offsets: Vec<u32>,
    neighbors: Vec<Value>,
    x_nonempty: usize,
}

impl RowWriter {
    /// A writer of the rows of `xs`, each a subset of `0..y_domain`.
    pub fn new(xs: Range<usize>, y_domain: usize) -> Self {
        let mut offsets = Vec::with_capacity(xs.len() + 1);
        offsets.push(0);
        Self {
            xs,
            y_domain,
            offsets,
            neighbors: Vec::new(),
            x_nonempty: 0,
        }
    }

    /// The neighbor array: the values appended since the last
    /// [`RowWriter::end_row`] are the next row's.
    #[inline]
    pub fn values(&mut self) -> &mut Vec<Value> {
        &mut self.neighbors
    }

    /// Writes row `x`: [`RowWriter::end_row`] over `values`.
    #[cfg(test)]
    pub(crate) fn push_row(&mut self, x: Value, values: &[Value]) {
        self.neighbors.extend_from_slice(values);
        self.end_row(x);
    }

    /// Closes row `x` over the values appended since the previous row. The
    /// values are checked by [`RowWriter::finish`].
    ///
    /// # Panics
    /// Panics if `x` is outside the writer's range or not after the last
    /// row closed, and on more than `u32::MAX` values.
    #[inline]
    pub fn end_row(&mut self, x: Value) {
        let closed = self.offsets.len() - 1;
        // Below `xs.start`, `at` wraps past every range length.
        let at = (x as usize).wrapping_sub(self.xs.start);
        if at >= self.xs.len() || at < closed {
            self.reject_row(x);
        }
        let start = self.offsets[closed];
        let end = u32::try_from(self.neighbors.len()).expect("more than u32::MAX values");
        self.x_nonempty += usize::from(end > start);
        if at > closed {
            self.offsets.resize(at + 1, start);
        }
        self.offsets.push(end);
    }

    /// Panics on row `x`, outside the writer's range or not after the last
    /// row closed.
    #[cold]
    #[inline(never)]
    fn reject_row(&self, x: Value) -> ! {
        let xs = &self.xs;
        assert!(
            xs.contains(&(x as usize)),
            "row {x} out of bounds for the rows {xs:?}"
        );
        let last = xs.start + self.offsets.len() - 2;
        panic!("row {x} is not strictly after row {last}");
    }

    /// The relation of `parts`' rows, their ranges consecutive from `x = 0`
    /// (the last one's end is the `x` domain), all over one `y` domain:
    /// the `x` index is their rows concatenated, offsets rebased; the `y`
    /// index is the rows' `y` degrees, its neighbor lists deferred.
    ///
    /// # Panics
    /// Panics if `parts` is empty or their ranges are not consecutive from
    /// 0 over one `y` domain, if a row's values are not strictly ascending
    /// or one is outside `0..y_domain`, and on more than `u32::MAX` values
    /// in all.
    pub fn finish(parts: Vec<RowWriter>) -> Relation {
        let total: usize = parts.iter().map(|part| part.neighbors.len()).sum();
        assert!(u32::try_from(total).is_ok(), "more than u32::MAX values");
        let x_domain = parts.last().map_or(0, |part| part.xs.end);
        let mut parts = parts.into_iter();
        let mut all = parts.next().expect("at least one part");
        assert_eq!(all.xs.start, 0, "the first part starts at x = 0");
        all.close();
        all.offsets.reserve_exact(x_domain + 1 - all.offsets.len());
        all.neighbors.reserve_exact(total - all.neighbors.len());
        for part in parts {
            assert!(
                part.xs.start == all.xs.end && part.y_domain == all.y_domain,
                "a part over {:?} and {} y values after x = {} and {} y values",
                part.xs,
                part.y_domain,
                all.xs.end,
                all.y_domain
            );
            // No overflow: every end is at most `total`.
            let base = all.neighbors.len() as u32;
            all.offsets
                .extend(part.offsets[1..].iter().map(|&at| base + at));
            all.neighbors.extend_from_slice(&part.neighbors);
            all.xs.end = part.xs.end;
            all.close();
            all.x_nonempty += part.x_nonempty;
        }
        let mut y_offsets = all.y_counts();
        let y_nonempty = prefix_sums(&mut y_offsets);
        let x_index = CsrIndex::from_parts(all.offsets, all.neighbors, all.x_nonempty);
        Relation::from_indexes(
            Arc::new(LazyIndex::Built(x_index)),
            Arc::new(LazyIndex::deferred(y_offsets, y_nonempty)),
        )
    }

    /// Checks the closed rows' values and counts their `y`s: entry `y + 1`
    /// of the result is `y`'s degree (entry 0 is 0). Flat loops over the
    /// whole neighbor array, not one loop per row — rows are a few values
    /// each, and a loop per row costs more than its values.
    ///
    /// # Panics
    /// Panics if a row's values are not strictly ascending or one is
    /// outside `0..y_domain`.
    fn y_counts(&self) -> Vec<u32> {
        let (values, y_domain) = (&self.neighbors[..], self.y_domain);
        // Where a row starts, a value need not be above the one before it.
        let mut starts = vec![false; values.len() + 1];
        for &at in &self.offsets {
            starts[at as usize] = true;
        }
        // Folds, not short-circuits: they vectorise.
        let next = values.get(1..).unwrap_or_default();
        let pairs = values.iter().zip(next).zip(&starts[1..]);
        let ordered = pairs.fold(true, |ok, ((a, b), &starts_row)| {
            ok & (starts_row | (a < b))
        });
        let in_domain = values
            .iter()
            .fold(true, |ok, &y| ok & ((y as usize) < y_domain));
        if !(ordered && in_domain) {
            self.reject_values();
        }
        let mut counts = vec![0u32; y_domain + 1];
        for &y in values {
            counts[y as usize + 1] += 1;
        }
        counts
    }

    /// Panics on the first value not strictly after the one before it in
    /// its row, or outside `0..y_domain`.
    #[cold]
    #[inline(never)]
    fn reject_values(&self) -> ! {
        for (k, row) in self.offsets.windows(2).enumerate() {
            let (x, row) = (
                self.xs.start + k,
                &self.neighbors[row[0] as usize..row[1] as usize],
            );
            let mut before = None;
            for &y in row {
                assert!(
                    before < Some(y),
                    "({x}, {y}) is not strictly after ({x}, {})",
                    before.unwrap_or_default()
                );
                assert!(
                    (y as usize) < self.y_domain,
                    "({x}, {y}) out of bounds for {} y values",
                    self.y_domain
                );
                before = Some(y);
            }
        }
        unreachable!("a value was rejected, but every row is in order and in the domain")
    }

    /// Closes the rows after the last one written: they are empty.
    fn close(&mut self) {
        let end = *self.offsets.last().expect("offsets start at 0");
        self.offsets.resize(self.xs.len() + 1, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Edge, PackedForm, PackedRows};

    /// The relation of sorted, distinct `edges` written row by row through
    /// one writer per range `cuts[i]..cuts[i + 1]`, some empty rows closed
    /// explicitly and the rest left unwritten.
    fn written(y_domain: usize, edges: &[Edge], cuts: &[usize]) -> Relation {
        let parts = cuts.windows(2).map(|cut| {
            let mut rows = RowWriter::new(cut[0]..cut[1], y_domain);
            for x in cut[0]..cut[1] {
                let x = x as Value;
                let ys: Vec<Value> = edges.iter().filter(|e| e.0 == x).map(|e| e.1).collect();
                if !ys.is_empty() || x.is_multiple_of(3) {
                    rows.push_row(x, &ys);
                }
            }
            rows
        });
        RowWriter::finish(parts.collect())
    }

    fn same_packing(a: &PackedRows, b: &PackedRows) -> bool {
        (a.ids(), a.rows(), a.cols(), a.words(), a.universal())
            == (b.ids(), b.rows(), b.cols(), b.words(), b.universal())
    }

    #[test]
    fn a_written_relation_equals_the_built_one_in_every_accessor() {
        let mut state = 0x51f1_5eedu32;
        let mut next = |bound: u32| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) % bound
        };
        for case in 0..300 {
            let (xd, yd) = (1 + next(40), 1 + next(70));
            let mut edges: Vec<Edge> = (0..next(200)).map(|_| (next(xd), next(yd))).collect();
            if case % 2 == 0 {
                // The last `x` and the last `y` of the domains.
                edges.push((xd - 1, yd - 1));
            }
            edges.sort_unstable();
            edges.dedup();
            let slack = (case % 3) as usize;
            let (xd, yd) = (xd as usize + slack, yd as usize + slack);
            // One to four parts, cut anywhere: next to empty rows too.
            let mut cuts: Vec<usize> = (0..next(4)).map(|_| next(xd as u32 + 1) as usize).collect();
            cuts.extend([0, xd]);
            cuts.sort_unstable();
            let built = Relation::from_sorted_edges(xd, yd, edges.clone());
            let w = written(yd, &edges, &cuts);
            let at = format!("case {case}, cuts {cuts:?}");

            // What the writer wrote, and what the `y` degrees alone answer.
            assert_eq!(w.indexes_built(), (true, false), "{at}");
            assert_eq!(w.transposed().indexes_built(), (false, true), "{at}");
            assert_eq!(w.by_x(), built.by_x(), "{at}");
            assert!(
                (0..yd as Value).all(|y| w.y_degree(y) == built.y_degree(y)),
                "{at}"
            );
            let shape = |r: &Relation| {
                let counts = (r.active_x_count(), r.active_y_count());
                (r.x_domain(), r.y_domain(), r.len(), counts)
            };
            assert_eq!(shape(&w), shape(&built), "{at}");
            assert!(w.tuples().eq(edges.iter().copied()), "{at}");
            assert_eq!(w.full_join_size(&w), built.full_join_size(&built), "{at}");
            assert_eq!(w.full_join_size(&built), built.full_join_size(&w), "{at}");
            assert_eq!(w.heap_bytes() + 4 * w.len(), built.heap_bytes(), "{at}");
            assert_eq!(
                w.indexes_built(),
                (true, false),
                "degree reads build nothing"
            );

            // The first read of a `y` row builds the index, whichever way.
            match case % 3 {
                0 => _ = w.by_y(),
                1 => _ = w.transposed().by_x(),
                _ => _ = w.xs_of(next(yd as u32)),
            }
            assert_eq!(w.indexes_built(), (true, true), "{at}");
            assert_eq!(w.by_y(), built.by_y(), "{at}");
            // The built index holds a copy of the offsets the degrees read.
            let copy = 4 * (yd + 1);
            assert_eq!(w.heap_bytes(), built.heap_bytes() + copy, "{at}");
            let (wt, bt) = (w.transposed(), built.transposed());
            assert_eq!((wt.by_x(), wt.by_y()), (bt.by_x(), bt.by_y()), "{at}");
            let back = wt.transposed();
            assert_eq!(
                (back.by_x(), back.by_y()),
                (built.by_x(), built.by_y()),
                "{at}"
            );
            for form in [PackedForm::XMajor, PackedForm::YMajor] {
                assert!(same_packing(w.packed(form).0, built.packed(form).0), "{at}");
            }
            assert_eq!(w.heap_bytes(), built.heap_bytes() + copy, "{at}");
        }
    }

    #[test]
    #[should_panic(expected = "is not strictly after")]
    fn rejects_a_row_out_of_order() {
        let mut rows = RowWriter::new(0..3, 5);
        rows.push_row(1, &[3, 1]);
        RowWriter::finish(vec![rows]);
    }

    #[test]
    #[should_panic(expected = "is not strictly after")]
    fn rejects_a_repeated_value() {
        let mut rows = RowWriter::new(0..3, 5);
        rows.push_row(1, &[2, 2]);
        RowWriter::finish(vec![rows]);
    }

    #[test]
    #[should_panic(expected = "out of bounds for 5 y values")]
    fn rejects_a_value_outside_the_domain() {
        let mut rows = RowWriter::new(0..3, 5);
        rows.push_row(2, &[1, 5]);
        RowWriter::finish(vec![rows]);
    }

    #[test]
    #[should_panic(expected = "(3, 2) is not strictly after (3, 4)")]
    fn rejects_a_value_out_of_order_in_a_later_part() {
        // Rows may start below where the row before ended; not within one.
        let mut first = RowWriter::new(0..2, 5);
        first.push_row(0, &[1, 4]);
        let mut second = RowWriter::new(2..5, 5);
        second.push_row(2, &[0, 4]);
        second.push_row(3, &[4, 2]);
        RowWriter::finish(vec![first, second]);
    }

    #[test]
    #[should_panic(expected = "row 1 is not strictly after row 2")]
    fn rejects_rows_out_of_order() {
        let mut rows = RowWriter::new(0..3, 5);
        rows.push_row(2, &[0]);
        rows.push_row(1, &[0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds for the rows 2..4")]
    fn rejects_a_row_outside_its_range() {
        RowWriter::new(2..4, 5).push_row(1, &[0]);
    }

    #[test]
    #[should_panic(expected = "a part over 3..5")]
    fn rejects_parts_that_are_not_consecutive() {
        RowWriter::finish(vec![RowWriter::new(0..2, 5), RowWriter::new(3..5, 5)]);
    }
}
