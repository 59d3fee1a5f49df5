//! Compressed-sparse-row adjacency index with sorted neighbor lists.

use crate::{Edge, Value};

/// How many values [`CsrIndex::gather`] moves per row whatever the row's
/// length: eight `u32`s, one 32-byte move.
pub const GATHER_WIDTH: usize = 8;

/// A CSR (compressed sparse row) index mapping each key in a dense domain
/// `0..num_keys` to a sorted slice of neighbor values.
///
/// For a relation `R(x, y)` we build one `CsrIndex` keyed by `x` (neighbors
/// are `y` values) and one keyed by `y` (neighbors are `x` values). Sorted
/// neighbor lists make merge-style and galloping set intersections possible,
/// which both the worst-case-optimal join and the EmptyHeaded-style baseline
/// rely on.
///
/// Offsets are `u32`: a relation holds at most `u32::MAX` tuples (its
/// values are `u32` too), and a pass over the degrees — the full join, the
/// star planner — reads half the bytes it would at `usize`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrIndex {
    /// `offsets[k]..offsets[k+1]` delimits the neighbors of key `k`.
    offsets: Vec<u32>,
    /// Concatenated, per-key-sorted neighbor lists.
    neighbors: Vec<Value>,
    /// Keys with a non-empty row, counted while the rows are built.
    nonempty: usize,
}

impl CsrIndex {
    /// Builds both indexes of a relation — `x → [y]` and `y → [x]` — from
    /// its edges, which must be strictly ascending (sorted by `(x, y)`, no
    /// duplicates) and inside `x_domain × y_domain`; a larger domain is
    /// allowed and yields empty rows for the unused keys.
    ///
    /// `O(E + domains)`: the `x` rows are the edges' `y` column as it
    /// stands, the `y` rows a stable counting scatter of the `x` column, so
    /// every row comes out sorted and distinct with no per-row sort.
    ///
    /// # Panics
    /// Panics on an edge out of order, repeated, or outside the domains,
    /// and on more than `u32::MAX` edges.
    pub(crate) fn pair_from_sorted_edges(
        x_domain: usize,
        y_domain: usize,
        edges: &[Edge],
    ) -> (CsrIndex, CsrIndex) {
        assert!(
            u32::try_from(edges.len()).is_ok(),
            "{} edges do not fit u32 offsets",
            edges.len()
        );
        let mut x_offsets = vec![0u32; x_domain + 1];
        let mut y_offsets = vec![0u32; y_domain + 1];
        let mut prev = None;
        for &(x, y) in edges {
            assert!(
                prev < Some((x, y)),
                "edge ({x}, {y}) is not strictly after {prev:?}"
            );
            assert!(
                (x as usize) < x_domain && (y as usize) < y_domain,
                "edge ({x}, {y}) out of bounds for domains ({x_domain}, {y_domain})"
            );
            x_offsets[x as usize + 1] += 1;
            y_offsets[y as usize + 1] += 1;
            prev = Some((x, y));
        }
        // Row lengths → row starts, counting the non-empty rows on the way.
        let prefix_sums = |offsets: &mut [u32]| {
            let mut nonempty = 0;
            for k in 1..offsets.len() {
                nonempty += usize::from(offsets[k] > 0);
                offsets[k] += offsets[k - 1];
            }
            nonempty
        };
        let x_nonempty = prefix_sums(&mut x_offsets);
        let y_nonempty = prefix_sums(&mut y_offsets);
        let mut xs = vec![0 as Value; edges.len()];
        let mut cursor = y_offsets[..y_domain].to_vec();
        for &(x, y) in edges {
            xs[cursor[y as usize] as usize] = x;
            cursor[y as usize] += 1;
        }
        let by_x = CsrIndex {
            offsets: x_offsets,
            neighbors: edges.iter().map(|&(_, y)| y).collect(),
            nonempty: x_nonempty,
        };
        let by_y = CsrIndex {
            offsets: y_offsets,
            neighbors: xs,
            nonempty: y_nonempty,
        };
        (by_x, by_y)
    }

    /// Heap bytes of the offsets and the neighbor lists, from their
    /// lengths.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..]) + std::mem::size_of_val(&self.neighbors[..])
    }

    /// Number of keys in the (dense) domain.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored (deduplicated) pairs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of keys with at least one neighbor, in O(1): what
    /// [`CsrIndex::iter_nonempty`] would count.
    #[inline]
    pub fn num_nonempty(&self) -> usize {
        self.nonempty
    }

    /// The sorted neighbor list of `key`.
    #[inline]
    pub fn neighbors(&self, key: Value) -> &[Value] {
        let k = key as usize;
        &self.neighbors[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Degree (neighbor count) of `key`.
    #[inline]
    pub fn degree(&self, key: Value) -> usize {
        let k = key as usize;
        (self.offsets[k + 1] - self.offsets[k]) as usize
    }

    /// Every key's degree, in key order: one pass over adjacent offsets,
    /// with no bounds check, which the compiler vectorises where a loop of
    /// [`CsrIndex::degree`] calls is not.
    #[inline]
    pub fn degrees(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        let starts = &self.offsets[..self.num_keys()];
        self.offsets[1..]
            .iter()
            .zip(starts)
            .map(|(end, start)| end - start)
    }

    /// `offsets[key]` and `offsets[key + 1]`, or `None` past the domain.
    #[inline]
    fn row_bounds(&self, key: Value) -> Option<(usize, usize)> {
        match self.offsets.get(key as usize..)? {
            [start, end, ..] => Some((*start as usize, *end as usize)),
            _ => None,
        }
    }

    /// How many values [`CsrIndex::gather`] appends for `keys`: their rows'
    /// lengths summed, read from the offsets alone; a key past the domain
    /// adds nothing.
    #[inline]
    pub fn rows_len(&self, keys: &[Value]) -> usize {
        let bounds = keys.iter().filter_map(|&key| self.row_bounds(key));
        bounds.map(|(start, end)| end - start).sum()
    }

    /// Appends the rows of `keys`, in key order, to `out`, skipping keys
    /// past the domain; `len` is how many values they hold
    /// ([`CsrIndex::rows_len`]).
    ///
    /// Each row is copied [`GATHER_WIDTH`] values wide into slack past the
    /// end of what is written, and the write position then advances by the
    /// row's true length: a short row costs one fixed-width move, not a
    /// loop whose exit the branch predictor misses once per row. A row
    /// longer than that copies the rest of itself; one that starts within
    /// [`GATHER_WIDTH`] of the end of the neighbor array is copied exactly.
    ///
    /// # Panics
    /// Panics if the rows hold more than `len` values (and, with debug
    /// assertions, fewer).
    pub fn gather(&self, keys: &[Value], len: usize, out: &mut Vec<Value>) {
        const W: usize = GATHER_WIDTH;
        let mut at = out.len();
        out.resize(at + len + W, 0);
        for &key in keys {
            let Some((start, end)) = self.row_bounds(key) else {
                continue;
            };
            let row = end - start;
            if start + W <= self.neighbors.len() {
                out[at..at + W].copy_from_slice(&self.neighbors[start..start + W]);
                if row > W {
                    out[at + W..at + row].copy_from_slice(&self.neighbors[start + W..end]);
                }
            } else {
                out[at..at + row].copy_from_slice(&self.neighbors[start..end]);
            }
            at += row;
        }
        debug_assert_eq!(at + W, out.len(), "`len` is the rows' length");
        out.truncate(at);
    }

    /// Iterator over `(key, neighbors)` for all keys with non-empty rows.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (Value, &[Value])> + '_ {
        (0..self.num_keys()).filter_map(move |k| {
            let row = self.neighbors(k as Value);
            (!row.is_empty()).then_some((k as Value, row))
        })
    }

    /// True if `(key, value)` is present, via binary search on the row.
    #[inline]
    pub fn contains(&self, key: Value, value: Value) -> bool {
        self.neighbors(key).binary_search(&value).is_ok()
    }
}

#[cfg(test)]
impl CsrIndex {
    /// The construction this file had before edges arrived sorted: scatter
    /// arbitrary `(key, neighbor)` pairs, then sort and dedup every row. Kept
    /// as the reference [`CsrIndex::pair_from_sorted_edges`] must equal.
    pub(crate) fn from_pairs(num_keys: usize, pairs: &[(Value, Value)]) -> Self {
        let mut rows: Vec<Vec<Value>> = vec![Vec::new(); num_keys];
        for &(k, v) in pairs {
            rows[k as usize].push(v);
        }
        let mut offsets = vec![0u32];
        let mut neighbors = Vec::new();
        let mut nonempty = 0;
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
            nonempty += usize::from(!row.is_empty());
            neighbors.extend_from_slice(row);
            offsets.push(neighbors.len() as u32);
        }
        Self {
            offsets,
            neighbors,
            nonempty,
        }
    }
}

/// Size of the intersection of two sorted slices, by linear merge.
///
/// Used by verification steps (SCJ) and the EmptyHeaded-style baseline when
/// the two lists have comparable lengths.
pub fn intersect_count(a: &[Value], b: &[Value]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Size of the intersection of two sorted slices using galloping search from
/// the shorter into the longer. `O(|short| log |long|)` — the winning
/// strategy when lengths are very skewed (EmptyHeaded's key trick).
pub fn gallop_intersect_count(short: &[Value], long: &[Value]) -> usize {
    if short.len() > long.len() {
        return gallop_intersect_count(long, short);
    }
    let mut n = 0usize;
    let mut base = 0usize;
    for &v in short {
        // Doubling probe: find a window [base, base + hi] known to contain
        // the first element >= v (or run off the end).
        let mut hi = 1usize;
        while base + hi < long.len() && long[base + hi] < v {
            hi *= 2;
        }
        let end = (base + hi + 1).min(long.len());
        match long[base..end].binary_search(&v) {
            Ok(pos) => {
                n += 1;
                base += pos + 1;
            }
            Err(pos) => base += pos,
        }
        if base >= long.len() {
            break;
        }
    }
    n
}

/// Adaptive intersection count: picks merge or galloping based on the length
/// ratio (factor 16 is the usual crossover used by set-intersection engines).
pub fn adaptive_intersect_count(a: &[Value], b: &[Value]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() / (short.len().max(1)) >= 16 {
        gallop_intersect_count(short, long)
    } else {
        intersect_count(short, long)
    }
}

/// True iff sorted slice `sub` is a subset of sorted slice `sup`.
pub fn is_subset(sub: &[Value], sup: &[Value]) -> bool {
    if sub.len() > sup.len() {
        return false;
    }
    let mut j = 0usize;
    for &v in sub {
        while j < sup.len() && sup[j] < v {
            j += 1;
        }
        if j >= sup.len() || sup[j] != v {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_x(num_keys: usize, edges: &[Edge]) -> CsrIndex {
        CsrIndex::pair_from_sorted_edges(num_keys, 16, edges).0
    }

    #[test]
    fn builds_sorted_rows() {
        let edges = [(0, 3), (0, 7), (2, 1), (2, 5), (2, 9), (3, 5)];
        let (by_x, by_y) = CsrIndex::pair_from_sorted_edges(5, 10, &edges);
        assert_eq!(by_x.neighbors(0), &[3, 7]);
        assert_eq!(by_x.neighbors(1), &[] as &[Value]);
        assert_eq!(by_x.neighbors(2), &[1, 5, 9]);
        assert_eq!(by_x.neighbors(4), &[] as &[Value]);
        assert_eq!((by_x.num_keys(), by_x.num_edges()), (5, 6));
        assert_eq!(by_y.neighbors(5), &[2, 3]);
        assert_eq!(by_y.neighbors(9), &[2]);
        assert_eq!(by_y.neighbors(0), &[] as &[Value]);
        assert_eq!((by_y.num_keys(), by_y.num_edges()), (10, 6));
        assert_eq!((by_x.num_nonempty(), by_y.num_nonempty()), (3, 5));
    }

    #[test]
    fn equals_the_sort_per_row_construction() {
        // Sorted distinct edges of every density, domains from tight to
        // loose, from a fixed linear-congruential stream.
        let mut state = 0x2545_f491u32;
        let mut next = |bound: u32| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) % bound
        };
        for case in 0..200 {
            let (xd, yd) = (1 + next(40), 1 + next(70));
            let mut edges: Vec<Edge> = (0..next(300)).map(|_| (next(xd), next(yd))).collect();
            edges.sort_unstable();
            edges.dedup();
            let slack = (case % 3) as usize;
            let (xd, yd) = (xd as usize + slack, yd as usize + 2 * slack);
            let (by_x, by_y) = CsrIndex::pair_from_sorted_edges(xd, yd, &edges);
            let swapped: Vec<Edge> = edges.iter().map(|&(x, y)| (y, x)).collect();
            assert_eq!(by_x, CsrIndex::from_pairs(xd, &edges), "case {case}");
            assert_eq!(by_y, CsrIndex::from_pairs(yd, &swapped), "case {case}");
        }
    }

    #[test]
    fn degree_and_contains() {
        let idx = by_x(3, &[(1, 2), (1, 4), (1, 8)]);
        assert_eq!(idx.degree(1), 3);
        assert_eq!(idx.degree(0), 0);
        assert!(idx.contains(1, 4));
        assert!(!idx.contains(1, 5));
        assert!(!idx.contains(0, 4));
    }

    /// The gather equals the rows' concatenation on random indexes whose
    /// rows range from empty to several times the copy width, over keys
    /// drawn with repeats and past the domain — and the rows in the array's
    /// last [`GATHER_WIDTH`] slots, which are copied exactly, are always
    /// among them.
    #[test]
    fn gather_equals_the_concatenated_rows() {
        let mut state = 0x9e37_79b9u32;
        let mut next = |bound: u32| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) % bound
        };
        for case in 0..300 {
            let keys = 1 + next(30);
            let mut edges = Vec::new();
            for key in 0..keys {
                // Most rows short, some empty, some past three copy widths.
                let len = [next(4), 0, next(3 * GATHER_WIDTH as u32 + 2)][next(3) as usize];
                edges.extend((0..len).map(|v| (key, v * 3 + next(3))));
            }
            edges.sort_unstable();
            edges.dedup();
            let index = CsrIndex::pair_from_sorted_edges(keys as usize, 128, &edges).0;
            let tail = edges.len().saturating_sub(GATHER_WIDTH);
            let mut picks: Vec<Value> = edges[tail..].iter().map(|&(key, _)| key).collect();
            picks.extend((0..next(20)).map(|_| next(keys + 3)));
            picks.push(picks.first().copied().unwrap_or(0));
            let prefix = vec![7; next(3) as usize];
            let mut out = prefix.clone();
            index.gather(&picks, index.rows_len(&picks), &mut out);
            let mut expected = prefix;
            for &key in picks.iter().filter(|&&key| key < keys) {
                expected.extend_from_slice(index.neighbors(key));
            }
            assert_eq!(out, expected, "case {case}: keys {picks:?}");
        }
    }

    #[test]
    #[should_panic]
    fn gather_refuses_a_short_length() {
        let index = by_x(2, &[(0, 1), (0, 2), (1, 3)]);
        index.gather(&[0, 1], 2, &mut Vec::new());
    }

    #[test]
    fn empty_index() {
        let (idx, by_y) = CsrIndex::pair_from_sorted_edges(0, 0, &[]);
        assert_eq!(idx.num_keys(), 0);
        assert_eq!(idx.num_edges(), 0);
        assert_eq!(idx.iter_nonempty().count(), 0);
        assert_eq!(by_y, idx);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_domain_keys() {
        let _ = by_x(2, &[(2, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_domain_neighbors() {
        let _ = CsrIndex::pair_from_sorted_edges(2, 3, &[(1, 3)]);
    }

    #[test]
    #[should_panic(expected = "not strictly after")]
    fn rejects_unsorted_edges() {
        let _ = by_x(4, &[(2, 5), (0, 3)]);
    }

    #[test]
    #[should_panic(expected = "not strictly after")]
    fn rejects_unsorted_rows() {
        let _ = by_x(4, &[(2, 5), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "not strictly after")]
    fn rejects_duplicate_edges() {
        let _ = by_x(2, &[(0, 1), (0, 1)]);
    }

    #[test]
    fn iter_nonempty_skips_empty_rows() {
        let idx = by_x(5, &[(0, 1), (4, 2)]);
        let keys: Vec<Value> = idx.iter_nonempty().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, 4]);
        assert_eq!(idx.num_nonempty(), 2);
        let idx = by_x(3, &[(1, 2), (1, 7)]);
        assert_eq!(idx.num_nonempty(), idx.iter_nonempty().count());
    }

    #[test]
    fn intersections_agree() {
        let a: Vec<Value> = vec![1, 3, 5, 7, 9, 11, 13];
        let b: Vec<Value> = vec![2, 3, 5, 8, 13, 21];
        assert_eq!(intersect_count(&a, &b), 3);
        assert_eq!(gallop_intersect_count(&a, &b), 3);
        assert_eq!(adaptive_intersect_count(&a, &b), 3);
    }

    #[test]
    fn gallop_handles_extreme_skew() {
        let short: Vec<Value> = vec![500, 999];
        let long: Vec<Value> = (0..1000).collect();
        assert_eq!(gallop_intersect_count(&short, &long), 2);
        assert_eq!(gallop_intersect_count(&long, &short), 2);
    }

    #[test]
    fn gallop_empty_inputs() {
        assert_eq!(gallop_intersect_count(&[], &[1, 2, 3]), 0);
        assert_eq!(gallop_intersect_count(&[1, 2, 3], &[]), 0);
        assert_eq!(intersect_count(&[], &[]), 0);
    }

    #[test]
    fn subset_checks() {
        assert!(is_subset(&[2, 4], &[1, 2, 3, 4, 5]));
        assert!(!is_subset(&[2, 6], &[1, 2, 3, 4, 5]));
        assert!(is_subset(&[], &[1]));
        assert!(is_subset(&[], &[]));
        assert!(!is_subset(&[1], &[]));
        assert!(is_subset(&[1, 2, 3], &[1, 2, 3]));
    }
}
