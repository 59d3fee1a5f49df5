//! Full-join-then-deduplicate engines — the relational-DBMS plans.
//!
//! §7.2 verifies that PostgreSQL and MySQL evaluate the 2-path query with a
//! HashJoin or MergeJoin that materialises the *full* join before
//! `DISTINCT`-ing it. These engines reproduce exactly that: the cost is
//! dominated by `|OUT⋈|` (hash insertions or sort comparisons over the full
//! join), which is why they lose by orders of magnitude on duplicate-heavy
//! data — the effect Figure 4a demonstrates.

use mmjoin_storage::{Relation, Value};
use std::collections::HashSet;

/// Hash join + incremental hash-set dedup: the PostgreSQL plan.
///
/// The build side is the (already indexed) `y → [x]` adjacency of `R`; the
/// probe streams `S`. Every witness pair goes through a `HashSet` insert —
/// including the rehash-on-growth behaviour §6 calls out as a key cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashJoinEngine;

impl HashJoinEngine {
    /// Evaluates `π_{x,z}(R ⋈ S)`, returning sorted distinct `(x, z)` pairs.
    pub fn join_project(&self, r: &Relation, s: &Relation) -> Vec<(Value, Value)> {
        // Probe S tuples against R's y-index; dedup incrementally in a
        // growing hash set (deliberately *not* pre-sized: Postgres cannot
        // know |OUT| either).
        let mut seen: HashSet<(Value, Value)> = HashSet::new();
        for (z, y) in s.tuples() {
            if (y as usize) >= r.y_domain() {
                continue;
            }
            for &x in r.xs_of(y) {
                seen.insert((x, z));
            }
        }
        let mut out: Vec<(Value, Value)> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }
}

/// Merge join + sort-based dedup: the MySQL plan.
///
/// Materialises every witness pair into a vector, then sorts and dedups —
/// the "sorting the full join result is expensive" path of §7.2.
#[derive(Debug, Default, Clone, Copy)]
pub struct SortMergeEngine;

impl SortMergeEngine {
    /// Evaluates `π_{x,z}(R ⋈ S)`, returning sorted distinct `(x, z)` pairs.
    pub fn join_project(&self, r: &Relation, s: &Relation) -> Vec<(Value, Value)> {
        let dom = r.y_domain().min(s.y_domain());
        let mut out: Vec<(Value, Value)> = Vec::new();
        // Merge on y: both CSR indexes iterate y in ascending order.
        for y in 0..dom as Value {
            let xs = r.xs_of(y);
            if xs.is_empty() {
                continue;
            }
            let zs = s.xs_of(y);
            for &x in xs {
                for &z in zs {
                    out.push((x, z));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Hash join with a pre-sized dedup table: the "System X" commercial engine,
/// marginally better than [`HashJoinEngine`] because it reserves capacity
/// from its cardinality estimate and avoids rehashing.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemXEngine;

impl SystemXEngine {
    /// Evaluates `π_{x,z}(R ⋈ S)`, returning sorted distinct `(x, z)` pairs.
    pub fn join_project(&self, r: &Relation, s: &Relation) -> Vec<(Value, Value)> {
        let estimate = r.full_join_size(s).min(16_000_000) as usize;
        let mut seen: HashSet<(Value, Value)> = HashSet::with_capacity(estimate);
        for (z, y) in s.tuples() {
            if (y as usize) >= r.y_domain() {
                continue;
            }
            for &x in r.xs_of(y) {
                seen.insert((x, z));
            }
        }
        let mut out: Vec<(Value, Value)> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_api::{Engine, PairSink, Query};

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    fn all_engines() -> Vec<Box<dyn Engine>> {
        vec![
            Box::new(HashJoinEngine),
            Box::new(SortMergeEngine),
            Box::new(SystemXEngine),
        ]
    }

    fn run(e: &dyn Engine, r: &Relation, s: &Relation) -> Vec<(Value, Value)> {
        let q = Query::two_path(r, s).build().unwrap();
        let mut sink = PairSink::new();
        e.execute(&q, &mut sink).unwrap();
        sink.pairs
    }

    #[test]
    fn engines_agree_on_small_instance() {
        let r = rel(&[(0, 0), (1, 0), (2, 1), (2, 0)]);
        let s = rel(&[(5, 0), (6, 1), (7, 2)]);
        let expected = vec![(0, 5), (1, 5), (2, 5), (2, 6)];
        for e in all_engines() {
            assert_eq!(run(e.as_ref(), &r, &s), expected, "{}", e.name());
        }
    }

    #[test]
    fn duplicates_collapsed() {
        // (0, 9) has witnesses y=0,1,2.
        let r = rel(&[(0, 0), (0, 1), (0, 2)]);
        let s = rel(&[(9, 0), (9, 1), (9, 2)]);
        for e in all_engines() {
            assert_eq!(run(e.as_ref(), &r, &s), vec![(0, 9)], "{}", e.name());
        }
    }

    #[test]
    fn empty_inputs() {
        let r = rel(&[]);
        let s = rel(&[(0, 0)]);
        for e in all_engines() {
            assert!(run(e.as_ref(), &r, &s).is_empty(), "{}", e.name());
            assert!(run(e.as_ref(), &s, &r).is_empty(), "{}", e.name());
        }
    }

    #[test]
    fn mismatched_y_domains() {
        let r = rel(&[(0, 100)]);
        let s = rel(&[(1, 100), (2, 5)]);
        for e in all_engines() {
            assert_eq!(run(e.as_ref(), &r, &s), vec![(0, 1)], "{}", e.name());
        }
    }

    #[test]
    fn self_join_two_path() {
        // Friend-of-friend on a tiny graph (Example 1 shape).
        let r = rel(&[(0, 0), (1, 0), (1, 1), (2, 1)]);
        let expected = vec![(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)];
        for e in all_engines() {
            assert_eq!(run(e.as_ref(), &r, &r), expected, "{}", e.name());
        }
    }
}
