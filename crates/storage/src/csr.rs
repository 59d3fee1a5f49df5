//! Compressed-sparse-row adjacency index with sorted neighbor lists.

use crate::Value;

/// A CSR (compressed sparse row) index mapping each key in a dense domain
/// `0..num_keys` to a sorted slice of neighbor values.
///
/// For a relation `R(x, y)` we build one `CsrIndex` keyed by `x` (neighbors
/// are `y` values) and one keyed by `y` (neighbors are `x` values). Sorted
/// neighbor lists make merge-style and galloping set intersections possible,
/// which both the worst-case-optimal join and the EmptyHeaded-style baseline
/// rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrIndex {
    /// `offsets[k]..offsets[k+1]` delimits the neighbors of key `k`.
    offsets: Vec<usize>,
    /// Concatenated, per-key-sorted neighbor lists.
    neighbors: Vec<Value>,
    /// Keys with a non-empty row, counted while the rows are built.
    nonempty: usize,
}

impl CsrIndex {
    /// Builds a CSR index from unsorted `(key, neighbor)` pairs.
    ///
    /// Duplicate pairs are collapsed. `num_keys` must be at least
    /// `max(key) + 1`; passing a larger domain is allowed and yields empty
    /// rows for the unused keys.
    ///
    /// Runs in `O(E log E)` due to the sort (the paper's `O(|D| log |D|)`
    /// preprocessing budget).
    ///
    /// # Panics
    /// Panics if any key is `>= num_keys`.
    pub fn from_pairs(num_keys: usize, pairs: &[(Value, Value)]) -> Self {
        let mut counts = vec![0usize; num_keys + 1];
        for &(k, _) in pairs {
            assert!(
                (k as usize) < num_keys,
                "key {k} out of bounds for domain of size {num_keys}"
            );
            counts[k as usize + 1] += 1;
        }
        for i in 0..num_keys {
            counts[i + 1] += counts[i];
        }
        let mut neighbors = vec![0 as Value; pairs.len()];
        let mut cursor = counts.clone();
        for &(k, v) in pairs {
            let slot = cursor[k as usize];
            neighbors[slot] = v;
            cursor[k as usize] += 1;
        }
        // Sort and dedup each row in place.
        let mut offsets = vec![0usize; num_keys + 1];
        let (mut write, mut nonempty) = (0usize, 0usize);
        for k in 0..num_keys {
            let (start, end) = (counts[k], counts[k + 1]);
            let row = &mut neighbors[start..end];
            row.sort_unstable();
            // Dedup the row while compacting the whole buffer.
            let row_start_write = write;
            let mut prev: Option<Value> = None;
            for i in start..end {
                let v = neighbors[i];
                if prev != Some(v) {
                    neighbors[write] = v;
                    write += 1;
                    prev = Some(v);
                }
            }
            offsets[k] = row_start_write;
            nonempty += usize::from(end > start);
        }
        offsets[num_keys] = write;
        // `offsets[k]` currently stores row starts; convert into standard
        // prefix form (start of row k == offsets[k], end == offsets[k+1]).
        neighbors.truncate(write);
        Self {
            offsets,
            neighbors,
            nonempty,
        }
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
        &self.neighbors[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Degree (neighbor count) of `key`.
    #[inline]
    pub fn degree(&self, key: Value) -> usize {
        let k = key as usize;
        self.offsets[k + 1] - self.offsets[k]
    }

    /// Iterator over `(key, neighbors)` for all keys with non-empty rows.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (Value, &[Value])> + '_ {
        (0..self.num_keys()).filter_map(move |k| {
            let row = self.neighbors(k as Value);
            (!row.is_empty()).then_some((k as Value, row))
        })
    }

    /// Iterator over all keys in the domain (including empty rows).
    pub fn iter_all(&self) -> impl Iterator<Item = (Value, &[Value])> + '_ {
        (0..self.num_keys()).map(move |k| (k as Value, self.neighbors(k as Value)))
    }

    /// True if `(key, value)` is present, via binary search on the row.
    #[inline]
    pub fn contains(&self, key: Value, value: Value) -> bool {
        self.neighbors(key).binary_search(&value).is_ok()
    }

    /// Flat access to the neighbor buffer (used by zero-copy matrix packing).
    #[inline]
    pub fn raw_neighbors(&self) -> &[Value] {
        &self.neighbors
    }

    /// Flat access to the offsets buffer.
    #[inline]
    pub fn raw_offsets(&self) -> &[usize] {
        &self.offsets
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

/// Writes the intersection of two sorted slices into `out`, returning the
/// number of elements written. `out` is cleared first.
pub fn intersect_into(a: &[Value], b: &[Value], out: &mut Vec<Value>) -> usize {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.len()
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

    #[test]
    fn builds_sorted_rows() {
        let idx = CsrIndex::from_pairs(4, &[(2, 5), (0, 3), (2, 1), (0, 7), (2, 9)]);
        assert_eq!(idx.neighbors(0), &[3, 7]);
        assert_eq!(idx.neighbors(1), &[] as &[Value]);
        assert_eq!(idx.neighbors(2), &[1, 5, 9]);
        assert_eq!(idx.neighbors(3), &[] as &[Value]);
        assert_eq!(idx.num_edges(), 5);
    }

    #[test]
    fn dedups_pairs() {
        let idx = CsrIndex::from_pairs(2, &[(0, 1), (0, 1), (1, 0), (0, 1)]);
        assert_eq!(idx.neighbors(0), &[1]);
        assert_eq!(idx.neighbors(1), &[0]);
        assert_eq!(idx.num_edges(), 2);
    }

    #[test]
    fn degree_and_contains() {
        let idx = CsrIndex::from_pairs(3, &[(1, 4), (1, 2), (1, 8)]);
        assert_eq!(idx.degree(1), 3);
        assert_eq!(idx.degree(0), 0);
        assert!(idx.contains(1, 4));
        assert!(!idx.contains(1, 5));
        assert!(!idx.contains(0, 4));
    }

    #[test]
    fn empty_index() {
        let idx = CsrIndex::from_pairs(0, &[]);
        assert_eq!(idx.num_keys(), 0);
        assert_eq!(idx.num_edges(), 0);
        assert_eq!(idx.iter_nonempty().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_domain_keys() {
        let _ = CsrIndex::from_pairs(2, &[(2, 0)]);
    }

    #[test]
    fn iter_nonempty_skips_empty_rows() {
        let idx = CsrIndex::from_pairs(5, &[(0, 1), (4, 2)]);
        let keys: Vec<Value> = idx.iter_nonempty().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, 4]);
        assert_eq!(idx.num_nonempty(), 2);
        // Duplicates collapse into one non-empty row.
        let idx = CsrIndex::from_pairs(3, &[(1, 7), (1, 7), (1, 2)]);
        assert_eq!(idx.num_nonempty(), idx.iter_nonempty().count());
    }

    #[test]
    fn intersections_agree() {
        let a: Vec<Value> = vec![1, 3, 5, 7, 9, 11, 13];
        let b: Vec<Value> = vec![2, 3, 5, 8, 13, 21];
        assert_eq!(intersect_count(&a, &b), 3);
        assert_eq!(gallop_intersect_count(&a, &b), 3);
        assert_eq!(adaptive_intersect_count(&a, &b), 3);
        let mut out = Vec::new();
        assert_eq!(intersect_into(&a, &b, &mut out), 3);
        assert_eq!(out, vec![3, 5, 13]);
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
