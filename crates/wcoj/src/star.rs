//! Worst-case optimal evaluation of star queries.

use crate::leapfrog::LeapfrogIter;
use mmjoin_api::FlatRows;
use mmjoin_storage::{Relation, Value};

/// Enumerates the *full* (pre-projection) result of the 2-path query
/// `R(x, y) ⋈ S(z, y)`, invoking `f(x, y, z)` once per witness tuple.
///
/// Iterates the shared `y` column with a 2-way leapfrog, then the product of
/// inverted lists — `O(N_R + N_S + |OUT⋈|)`.
pub fn two_path_for_each(r: &Relation, s: &Relation, mut f: impl FnMut(Value, Value, Value)) {
    let dom = r.y_domain().min(s.y_domain());
    for y in 0..dom as Value {
        let xs = r.xs_of(y);
        if xs.is_empty() {
            continue;
        }
        let zs = s.xs_of(y);
        if zs.is_empty() {
            continue;
        }
        for &x in xs {
            for &z in zs {
                f(x, y, z);
            }
        }
    }
}

/// Enumerates the full star join `R1(x1,y) ⋈ … ⋈ Rk(xk,y)`, calling
/// `f(y, &tuple)` once per witness, where `tuple[i] = xi`.
///
/// The `y` column intersection is a k-way leapfrog over the active-`y` lists;
/// per shared `y` the Cartesian product of the inverted lists is emitted by
/// an odometer loop with no allocation beyond the tuple buffer.
pub fn star_full_join_for_each<R: AsRef<Relation>>(
    relations: &[R],
    mut f: impl FnMut(Value, &[Value]),
) {
    assert!(
        !relations.is_empty(),
        "star query needs at least one relation"
    );
    // Sorted lists of active y values per relation.
    let active: Vec<Vec<Value>> = relations
        .iter()
        .map(|r| r.as_ref().by_y().iter_nonempty().map(|(y, _)| y).collect())
        .collect();
    let lists: Vec<&[Value]> = active.iter().map(|v| v.as_slice()).collect();
    let k = relations.len();
    let mut tuple = vec![0 as Value; k];
    for y in LeapfrogIter::new(lists) {
        let inv: Vec<&[Value]> = relations.iter().map(|r| r.as_ref().xs_of(y)).collect();
        debug_assert!(inv.iter().all(|l| !l.is_empty()));
        // Odometer over the product.
        let mut idx = vec![0usize; k];
        'outer: loop {
            for i in 0..k {
                tuple[i] = inv[i][idx[i]];
            }
            f(y, &tuple);
            // Increment odometer.
            let mut d = k;
            loop {
                if d == 0 {
                    break 'outer;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < inv[d].len() {
                    break;
                }
                idx[d] = 0;
            }
        }
    }
}

/// Full WCOJ star join *with projection onto the head variables*, i.e. the
/// baseline "compute the join, then deduplicate" of Proposition 1, returning
/// the sorted distinct result tuples.
///
/// This is the reference semantics every optimized engine in the workspace
/// is validated against.
pub fn star_join_project<R: AsRef<Relation>>(relations: &[R]) -> Vec<Vec<Value>> {
    let (arity, values) = (relations.len(), star_join_project_flat(relations));
    FlatRows::new(arity, values).to_rows()
}

/// [`star_join_project`] as one flat buffer, `relations.len()` values per
/// row — what the engines emit from.
pub fn star_join_project_flat<R: AsRef<Relation>>(relations: &[R]) -> Vec<Value> {
    let mut acc = ProjectionAccumulator::new(relations.len());
    star_full_join_for_each(relations, |_, tuple| acc.push(tuple));
    acc.finish()
}

/// Bounded-memory accumulator for projected star tuples with periodic
/// sort+dedup flushes.
///
/// Tuples of arity ≤ 4 are bit-packed into `u128` keys, so pushing a tuple
/// is allocation-free and deduplication is a plain integer sort — the
/// difference between ~3 ns and ~50 ns per enumerated witness, which
/// dominates the light steps of the star algorithms. Wider tuples are kept
/// back to back in one buffer and sorted through an index. Either way the
/// result is one flat buffer: no allocation per row, pushed or returned.
pub struct ProjectionAccumulator {
    k: usize,
    packed: Vec<u128>,
    packed_out: Vec<u128>,
    wide: Vec<Value>,
    wide_out: Vec<Value>,
}

impl ProjectionAccumulator {
    /// Tuples buffered between flushes.
    const CHUNK: usize = 1 << 21;
    /// Widest tuple a `u128` key holds.
    const PACKED_ARITY: usize = 4;

    /// New accumulator for arity-`k` tuples.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            packed: Vec::new(),
            packed_out: Vec::new(),
            wide: Vec::new(),
            wide_out: Vec::new(),
        }
    }

    #[inline]
    fn pack(tuple: &[Value]) -> u128 {
        let mut key = 0u128;
        for &v in tuple {
            key = key << 32 | v as u128;
        }
        key
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
            && self.packed_out.is_empty()
            && self.wide.is_empty()
            && self.wide_out.is_empty()
    }

    /// Appends one tuple (duplicates welcome).
    #[inline]
    pub fn push(&mut self, tuple: &[Value]) {
        debug_assert_eq!(tuple.len(), self.k);
        if self.k <= Self::PACKED_ARITY {
            self.packed.push(Self::pack(tuple));
            if self.packed.len() >= Self::CHUNK {
                self.flush();
            }
        } else {
            self.wide.extend_from_slice(tuple);
            if self.wide.len() >= Self::CHUNK * self.k {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        if self.k <= Self::PACKED_ARITY {
            self.packed.sort_unstable();
            self.packed.dedup();
            self.packed_out.append(&mut self.packed);
        } else {
            sort_dedup_rows(self.k, &mut self.wide);
            self.wide_out.append(&mut self.wide);
        }
    }

    /// Sorts, deduplicates and returns the distinct tuples in ascending
    /// order, `k` values per tuple, back to back.
    pub fn finish(mut self) -> Vec<Value> {
        self.flush();
        if self.k > Self::PACKED_ARITY {
            sort_dedup_rows(self.k, &mut self.wide_out);
            return self.wide_out;
        }
        self.packed_out.sort_unstable();
        self.packed_out.dedup();
        let mut flat = Vec::with_capacity(self.packed_out.len() * self.k);
        for &key in &self.packed_out {
            flat.extend((0..self.k).rev().map(|slot| (key >> (32 * slot)) as Value));
        }
        flat
    }
}

/// Sorts the arity-`k` rows of a flat buffer lexicographically and drops
/// duplicates, through a row index (the rows themselves move once).
fn sort_dedup_rows(k: usize, flat: &mut Vec<Value>) {
    let row = |i: usize| &flat[i * k..(i + 1) * k];
    let mut order: Vec<usize> = (0..flat.len() / k).collect();
    order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    order.dedup_by(|next, kept| row(*next) == row(*kept));
    *flat = order.iter().flat_map(|&i| row(i)).copied().collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Tuples of the full star join, enumerated.
    fn full_join(relations: &[Relation]) -> u64 {
        let mut n = 0;
        star_full_join_for_each(relations, |_, _| n += 1);
        n
    }

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    #[test]
    fn two_path_enumerates_witnesses() {
        let r = rel(&[(0, 10), (1, 10), (2, 11)]);
        let s = rel(&[(5, 10), (6, 11), (7, 12)]);
        let mut seen = Vec::new();
        two_path_for_each(&r, &s, |x, y, z| seen.push((x, y, z)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 10, 5), (1, 10, 5), (2, 11, 6)]);
    }

    #[test]
    fn two_path_empty_side() {
        let r = rel(&[(0, 1)]);
        let s = rel(&[]);
        let mut count = 0;
        two_path_for_each(&r, &s, |_, _, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn star_k1_is_identity() {
        let r = rel(&[(0, 5), (3, 5), (1, 7)]);
        let out = star_join_project(&[r]);
        assert_eq!(out, vec![vec![0], vec![1], vec![3]]);
    }

    #[test]
    fn star_k2_matches_two_path() {
        let r = rel(&[(0, 0), (1, 0), (2, 1)]);
        let s = rel(&[(8, 0), (9, 1)]);
        let out = star_join_project(&[r.clone(), s.clone()]);
        let mut expected = BTreeSet::new();
        two_path_for_each(&r, &s, |x, _, z| {
            expected.insert(vec![x, z]);
        });
        assert_eq!(out, expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn star_k3_product_per_y() {
        // y=0 shared by all three relations with 2, 1, 2 inverted entries.
        let r1 = rel(&[(0, 0), (1, 0)]);
        let r2 = rel(&[(5, 0)]);
        let r3 = rel(&[(7, 0), (8, 0)]);
        assert_eq!(full_join(&[r1.clone(), r2.clone(), r3.clone()]), 4);
        let out = star_join_project(&[r1, r2, r3]);
        assert_eq!(
            out,
            vec![vec![0, 5, 7], vec![0, 5, 8], vec![1, 5, 7], vec![1, 5, 8],]
        );
    }

    #[test]
    fn star_requires_shared_y_everywhere() {
        let r1 = rel(&[(0, 0)]);
        let r2 = rel(&[(1, 1)]); // no common y
        assert_eq!(full_join(&[r1.clone(), r2.clone()]), 0);
        assert!(star_join_project(&[r1, r2]).is_empty());
    }

    #[test]
    fn duplicates_in_projection_are_removed() {
        // (x=0, z=9) has two witnesses y=0 and y=1.
        let r = rel(&[(0, 0), (0, 1)]);
        let s = rel(&[(9, 0), (9, 1)]);
        let out = star_join_project(&[r.clone(), s.clone()]);
        assert_eq!(out, vec![vec![0, 9]]);
        assert_eq!(full_join(&[r, s]), 2);
    }

    proptest! {
        /// Packed (arity ≤ 4) and wide tuples alike finish as the sorted
        /// distinct rows, back to back in one buffer.
        #[test]
        fn accumulator_finishes_flat_sorted_distinct(
            arity in 1usize..7,
            values in proptest::collection::vec(0u32..6, 0..90),
        ) {
            let mut acc = ProjectionAccumulator::new(arity);
            prop_assert!(acc.is_empty());
            let mut expected = BTreeSet::new();
            for tuple in values.chunks_exact(arity) {
                acc.push(tuple);
                expected.insert(tuple.to_vec());
            }
            prop_assert_eq!(acc.is_empty(), expected.is_empty());
            prop_assert_eq!(acc.finish(), expected.into_iter().flatten().collect::<Vec<_>>());
        }

        /// star_join_project for k=2 must equal the brute-force nested-loop
        /// join-project.
        #[test]
        fn two_path_matches_bruteforce(
            r_edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
            s_edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
        ) {
            let r = rel(&r_edges);
            let s = rel(&s_edges);
            let mut brute = BTreeSet::new();
            for &(x, y) in &r_edges {
                for &(z, y2) in &s_edges {
                    if y == y2 {
                        brute.insert(vec![x, z]);
                    }
                }
            }
            let out = star_join_project(&[r, s]);
            prop_assert_eq!(out, brute.into_iter().collect::<Vec<_>>());
        }
    }
}
