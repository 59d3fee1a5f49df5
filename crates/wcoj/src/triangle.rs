//! Worst-case optimal evaluation of the batched BSI query
//! `Qbatch(x, z) = R(x, y), S(z, y), T(x, z)` (§3.3).
//!
//! The batch relation `T` holds the `C` queued `(a, b)` requests. The
//! worst-case optimal plan for this (triangle-shaped) query seeds from `T`
//! — by far the smallest relation — and intersects the adjacency lists
//! `R.ys_of(a) ∩ S.ys_of(b)` per request with the adaptive merge/galloping
//! kernel. Total cost `O(C · min(deg))`, i.e. the `O(N · C^{1/2})` bound of
//! §3.3 in the worst case.

use mmjoin_storage::csr::adaptive_intersect_count;
use mmjoin_storage::{Relation, Value};

/// For each request `(a, b)` in `batch`, reports whether
/// `R(a, y) ⋈ S(b, y)` is non-empty. Output is parallel to `batch`.
pub fn batch_filter_exists(r: &Relation, s: &Relation, batch: &[(Value, Value)]) -> Vec<bool> {
    batch
        .iter()
        .map(|&(a, b)| {
            let ys_a = if (a as usize) < r.x_domain() {
                r.ys_of(a)
            } else {
                &[]
            };
            let ys_b = if (b as usize) < s.x_domain() {
                s.ys_of(b)
            } else {
                &[]
            };
            if ys_a.is_empty() || ys_b.is_empty() {
                return false;
            }
            adaptive_intersect_count(ys_a, ys_b) > 0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    #[test]
    fn exists_basic() {
        let r = rel(&[(0, 1), (0, 2), (1, 3)]);
        let s = rel(&[(5, 2), (6, 4)]);
        let out = batch_filter_exists(&r, &s, &[(0, 5), (1, 5), (0, 6), (9, 5)]);
        assert_eq!(out, vec![true, false, false, false]);
    }

    #[test]
    fn out_of_domain_requests_are_false() {
        let r = rel(&[(0, 1)]);
        let s = rel(&[(0, 1)]);
        let out = batch_filter_exists(&r, &s, &[(100, 0), (0, 100)]);
        assert_eq!(out, vec![false, false]);
    }

    #[test]
    fn empty_batch() {
        let r = rel(&[(0, 1)]);
        let s = rel(&[(0, 1)]);
        assert!(batch_filter_exists(&r, &s, &[]).is_empty());
    }

    proptest! {
        #[test]
        fn exists_matches_witness_nonemptiness(
            r_edges in proptest::collection::vec((0u32..10, 0u32..10), 0..40),
            s_edges in proptest::collection::vec((0u32..10, 0u32..10), 0..40),
            batch in proptest::collection::vec((0u32..12, 0u32..12), 0..30),
        ) {
            let r = rel(&r_edges);
            let s = rel(&s_edges);
            let ex = batch_filter_exists(&r, &s, &batch);
            for (&e, &(a, b)) in ex.iter().zip(&batch) {
                let witness = r_edges.iter().any(|&(x, y)| x == a && s_edges.contains(&(b, y)));
                prop_assert_eq!(e, witness);
            }
        }
    }
}
