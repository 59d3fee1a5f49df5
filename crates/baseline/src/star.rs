//! Full-join + dedup baselines generalised to star queries `Q*_k`.
//!
//! §7.2's star experiment (Figure 4b) reports that every DBMS except
//! EmptyHeaded timed out; the series that remain are `MMJoin` and
//! `Non-MMJoin`. For completeness we still provide the hash-dedup full-join
//! star engine (it is the one that times out) so the experiment driver can
//! run it under a budget and report the timeout honestly.

use mmjoin_storage::{Relation, Value};
use mmjoin_wcoj::star_full_join_for_each;
use std::collections::HashSet;

/// Full star join materialised into a hash set — the DBMS-style plan.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashDedupStarEngine;

impl HashDedupStarEngine {
    /// Evaluates `π_{x1..xk}(R1 ⋈ … ⋈ Rk)`, returning sorted distinct
    /// tuples.
    pub fn star_join_project<R: AsRef<Relation>>(&self, relations: &[R]) -> Vec<Vec<Value>> {
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        star_full_join_for_each(relations, |_, tuple| {
            seen.insert(tuple.to_vec());
        });
        let mut out: Vec<Vec<Value>> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// [`Self::star_join_project`] as one flat buffer, `relations.len()`
    /// values per row.
    pub fn star_join_project_flat<R: AsRef<Relation>>(&self, relations: &[R]) -> Vec<Value> {
        self.star_join_project(relations).concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    #[test]
    fn hash_and_sort_star_agree() {
        let r1 = rel(&[(0, 0), (1, 0), (1, 1)]);
        let r2 = rel(&[(3, 0), (4, 1)]);
        let r3 = rel(&[(7, 0), (7, 1), (8, 1)]);
        let rels = [r1, r2, r3];
        assert_eq!(
            HashDedupStarEngine.star_join_project(&rels),
            mmjoin_wcoj::star_join_project(&rels)
        );
    }

    #[test]
    fn star_k2_matches_pair_engines() {
        use crate::fulljoin::SortMergeEngine;
        let r = rel(&[(0, 0), (1, 1), (2, 0)]);
        let s = rel(&[(5, 0), (6, 1)]);
        let star = HashDedupStarEngine.star_join_project(&[r.clone(), s.clone()]);
        let pairs = SortMergeEngine.join_project(&r, &s);
        let star_as_pairs: Vec<(Value, Value)> = star.iter().map(|t| (t[0], t[1])).collect();
        assert_eq!(star_as_pairs, pairs);
    }
}
