//! Batched relation deltas — the mutable data path.
//!
//! [`Relation`] is immutable by design: every index assumes sorted,
//! deduplicated edge lists. Updates therefore arrive as a staged
//! [`RelationDelta`] (a batch of inserts and deletes) that is first
//! [normalized](RelationDelta::normalize) against the base relation —
//! inserts already present and deletes of absent tuples drop out — and
//! then [applied](Relation::apply_delta) to produce a fresh `Relation`.
//!
//! Normalization is what makes *incremental view maintenance* sound: the
//! surviving tuples form a signed delta (`+1` per genuine insert, `−1`
//! per genuine delete) whose join contributions can be added to a cached
//! result's per-tuple support counts without ever double-counting, per
//! the identity `(R+ΔR) ⋈ (S+ΔS) = R⋈S + ΔR⋈S + R⋈ΔS + ΔR⋈ΔS`.

use crate::relation::Relation;
use crate::{Edge, Value};

/// A staged batch of tuple inserts and deletes against one relation.
///
/// Within one batch, deletes win: a tuple both inserted and deleted nets
/// out to "absent after the batch". Duplicates are tolerated and collapse
/// during normalization.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RelationDelta {
    inserts: Vec<Edge>,
    deletes: Vec<Edge>,
}

impl RelationDelta {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch of only inserts.
    pub fn inserting(edges: impl IntoIterator<Item = Edge>) -> Self {
        Self {
            inserts: edges.into_iter().collect(),
            deletes: Vec::new(),
        }
    }

    /// A batch of only deletes.
    pub fn deleting(edges: impl IntoIterator<Item = Edge>) -> Self {
        Self {
            inserts: Vec::new(),
            deletes: edges.into_iter().collect(),
        }
    }

    /// Stages tuple `(x, y)` for insertion.
    pub fn insert(&mut self, x: Value, y: Value) -> &mut Self {
        self.inserts.push((x, y));
        self
    }

    /// Stages tuple `(x, y)` for deletion.
    pub fn delete(&mut self, x: Value, y: Value) -> &mut Self {
        self.deletes.push((x, y));
        self
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total staged tuples (before normalization).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Resolves the batch against `base` into its *effective* form:
    /// inserts that are genuinely new and deletes that genuinely hit.
    /// Everything else — re-inserts of present tuples, deletes of absent
    /// ones, duplicates, insert+delete of the same new tuple — drops out.
    ///
    /// An empty normalized delta means the batch is a semantic no-op and
    /// the caller can skip the epoch bump entirely.
    pub fn normalize(&self, base: &Relation) -> NormalizedDelta {
        // Arbitrary staged values may fall outside the base's dense
        // domains, where `Relation::contains` is out of bounds.
        let present = |(x, y): Edge| (x as usize) < base.x_domain() && base.contains(x, y);
        // All staged deletes, sorted, so the insert filter below is a
        // binary search instead of an O(|inserts| × |deletes|) scan.
        let mut all_deletes = self.deletes.clone();
        all_deletes.sort_unstable();
        let mut deletes: Vec<Edge> = self
            .deletes
            .iter()
            .copied()
            .filter(|&e| present(e))
            .collect();
        deletes.sort_unstable();
        deletes.dedup();
        let mut inserts: Vec<Edge> = self
            .inserts
            .iter()
            .copied()
            .filter(|&e| !present(e) && all_deletes.binary_search(&e).is_err())
            .collect();
        inserts.sort_unstable();
        inserts.dedup();
        NormalizedDelta { inserts, deletes }
    }
}

/// A delta resolved against a concrete base relation: sorted, deduplicated
/// inserts that are all absent from the base, and deletes that are all
/// present in it. Produced by [`RelationDelta::normalize`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NormalizedDelta {
    /// Tuples to add; sorted, none present in the base.
    pub inserts: Vec<Edge>,
    /// Tuples to remove; sorted, all present in the base.
    pub deletes: Vec<Edge>,
}

impl NormalizedDelta {
    /// True when the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Effective tuples touched (`|Δ⁺| + |Δ⁻|`).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// The delta as signed tuples: `+1` per insert, `−1` per delete — the
    /// form the maintenance identity consumes.
    pub fn signed(&self) -> impl Iterator<Item = (Value, Value, i64)> + '_ {
        self.inserts
            .iter()
            .map(|&(x, y)| (x, y, 1i64))
            .chain(self.deletes.iter().map(|&(x, y)| (x, y, -1i64)))
    }
}

impl Relation {
    /// Applies a staged batch, returning the updated relation. Shorthand
    /// for [`RelationDelta::normalize`] + [`Relation::apply_normalized`].
    pub fn apply_delta(&self, delta: &RelationDelta) -> Relation {
        self.apply_normalized(&delta.normalize(self))
    }

    /// Applies an already-normalized delta, returning the updated relation
    /// with both CSR indexes rebuilt.
    ///
    /// The base tuples and both halves of the delta are sorted, so the new
    /// list is one linear merge, `O(N + |Δ|)` whatever the delta's size,
    /// and the CSR build behind it is linear too.
    /// Value domains never shrink below the base's: downstream consumers
    /// (dense matrix backends) may hold the old domain shape.
    pub fn apply_normalized(&self, delta: &NormalizedDelta) -> Relation {
        if delta.is_empty() {
            return self.clone();
        }
        let merged = merge_edges(self, &delta.inserts, &delta.deletes);
        // Only an insert can grow a domain.
        let inserted = delta.inserts.iter();
        let x_domain = inserted
            .clone()
            .fold(self.x_domain(), |d, e| d.max(e.0 as usize + 1));
        let y_domain = inserted.fold(self.y_domain(), |d, e| d.max(e.1 as usize + 1));
        Relation::from_sorted_edges(x_domain, y_domain, merged)
    }
}

/// Merges a base relation's tuples with sorted inserts while dropping
/// sorted deletes, in one linear pass over its `x → [y]` rows. All three
/// inputs are sorted; the output is sorted and contains no duplicates
/// because the normalized inserts are disjoint from the base and the
/// deletes are a subset of it. A row no insert or delete reaches is copied
/// whole, without a comparison per tuple.
fn merge_edges(base: &Relation, inserts: &[Edge], deletes: &[Edge]) -> Vec<Edge> {
    let mut out = Vec::with_capacity(base.len() + inserts.len() - deletes.len());
    let (mut i, mut d) = (0usize, 0usize);
    for (x, ys) in base.by_x().iter_nonempty() {
        let untouched =
            inserts.get(i).is_none_or(|e| e.0 > x) && deletes.get(d).is_none_or(|e| e.0 > x);
        if untouched {
            out.extend(ys.iter().map(|&y| (x, y)));
            continue;
        }
        for edge in ys.iter().map(|&y| (x, y)) {
            while i < inserts.len() && inserts[i] < edge {
                out.push(inserts[i]);
                i += 1;
            }
            if d < deletes.len() && deletes[d] == edge {
                d += 1;
                continue;
            }
            out.push(edge);
        }
    }
    out.extend_from_slice(&inserts[i..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(edges: &[Edge]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    #[test]
    fn normalize_drops_noops() {
        let base = rel(&[(0, 0), (1, 1)]);
        let mut delta = RelationDelta::new();
        delta.insert(0, 0); // already present
        delta.insert(2, 2);
        delta.insert(2, 2); // duplicate
        delta.delete(1, 1);
        delta.delete(5, 5); // absent
        let norm = delta.normalize(&base);
        assert_eq!(norm.inserts, vec![(2, 2)]);
        assert_eq!(norm.deletes, vec![(1, 1)]);
        assert_eq!(norm.len(), 2);
    }

    #[test]
    fn normalize_delete_wins_within_batch() {
        let base = rel(&[(0, 0)]);
        // (3,3) inserted and deleted in one batch and absent from the
        // base: nets to nothing. (0,0) deleted and "re-inserted": the
        // delete wins by the documented batch semantics.
        let mut delta = RelationDelta::new();
        delta.insert(3, 3).delete(3, 3);
        delta.insert(0, 0).delete(0, 0);
        let norm = delta.normalize(&base);
        assert!(norm.inserts.is_empty());
        assert_eq!(norm.deletes, vec![(0, 0)]);
    }

    #[test]
    fn empty_batch_normalizes_empty() {
        let base = rel(&[(0, 0)]);
        let norm = RelationDelta::new().normalize(&base);
        assert!(norm.is_empty());
        assert!(RelationDelta::new().is_empty());
    }

    #[test]
    fn apply_delta_inserts_and_deletes() {
        let base = rel(&[(0, 0), (1, 0), (2, 1)]);
        let mut delta = RelationDelta::new();
        delta.insert(3, 1).delete(1, 0);
        let next = base.apply_delta(&delta);
        assert_eq!(next.edges(), &[(0, 0), (2, 1), (3, 1)]);
        assert_eq!(next.xs_of(1), &[2, 3]);
        assert_eq!(next.ys_of(1), &[] as &[Value]);
        // x = 1 lost its only tuple: the O(1) counts follow the rebuild.
        assert_eq!((base.active_x_count(), next.active_x_count()), (3, 3));
        assert_eq!(next.active_x_count(), next.by_x().iter_nonempty().count());
        assert_eq!(next.active_y_count(), next.by_y().iter_nonempty().count());
        // The base is untouched.
        assert_eq!(base.len(), 3);
    }

    #[test]
    fn merge_path_equals_rebuild_path() {
        // Deltas from a few tuples to more than the whole base (the last
        // deletes every base tuple and inserts more than it held) must
        // agree with building from scratch.
        let base = rel(&(0..100u32).map(|i| (i, i % 7)).collect::<Vec<_>>());
        for delta_size in [2u32, 60, 250] {
            let mut delta = RelationDelta::new();
            for j in 0..delta_size {
                delta.insert(200 + j, j % 5);
                delta.delete(j, j % 7);
            }
            let incremental = base.apply_delta(&delta);
            let norm = delta.normalize(&base);
            if delta_size > 100 {
                assert!(norm.inserts.len() > base.len() && norm.deletes.len() == base.len());
            }
            let reference: Vec<Edge> = base
                .edges()
                .iter()
                .copied()
                .filter(|e| !norm.deletes.contains(e))
                .chain(norm.inserts.iter().copied())
                .collect();
            let reference = Relation::from_edges(reference);
            assert_eq!(incremental.edges(), reference.edges(), "size {delta_size}");
            assert_eq!(incremental.x_domain(), reference.x_domain());
            crate::relation::tests::assert_indexed_like(&incremental, reference.edges());
        }
    }

    #[test]
    fn domains_grow_but_never_shrink() {
        let base = rel(&[(5, 5)]);
        let grown = base.apply_delta(RelationDelta::new().insert(9, 2));
        assert_eq!(grown.x_domain(), 10);
        assert_eq!(grown.y_domain(), 6);
        // Deleting the max value keeps the old domain shape.
        let shrunk = grown.apply_delta(RelationDelta::new().delete(9, 2));
        assert_eq!(shrunk.x_domain(), 10);
        assert_eq!(shrunk.edges(), base.edges());
    }

    #[test]
    fn signed_iterates_inserts_then_deletes() {
        let base = rel(&[(0, 0)]);
        let norm = RelationDelta::inserting([(1, 1)])
            .normalize(&base)
            .signed()
            .collect::<Vec<_>>();
        assert_eq!(norm, vec![(1, 1, 1)]);
        let norm = RelationDelta::deleting([(0, 0)]).normalize(&base);
        assert_eq!(norm.signed().collect::<Vec<_>>(), vec![(0, 0, -1)]);
    }

    #[test]
    fn apply_empty_delta_is_identity() {
        let base = rel(&[(0, 0), (1, 2)]);
        let next = base.apply_delta(&RelationDelta::new());
        assert_eq!(next.edges(), base.edges());
    }
}
