//! Binary relations: two CSR indexes, the tuple list they were built from,
//! and — built by the first query that multiplies them — their bit-packed
//! rows ([`crate::packed`]). All four sit behind `Arc`s, so a clone and a
//! transpose copy none of them.

use crate::csr::CsrIndex;
use crate::packed::PackedForms;
use crate::{Edge, Value};
use std::sync::{Arc, OnceLock};

/// An immutable binary relation `R(x, y)`, fully indexed.
///
/// Construction deduplicates tuples and builds two CSR indexes (`x → [y]`
/// and `y → [x]`) with sorted neighbor lists, satisfying the paper's §5
/// requirement that relations be "indexed over the variables" before any
/// worst-case-optimal join runs. All per-value degree lookups are O(1), and
/// so are the active-value counts.
///
/// A clone bumps reference counts and nothing more: it shares the indexes,
/// the tuple list and the packed forms ([`Relation::packed`]), which are
/// empty until a query reads them and never carried over to a relation
/// derived from this one. A transpose shares the indexes too.
#[derive(Debug, Clone)]
pub struct Relation {
    /// `x → sorted [y]`; shared with the transpose, whose `y` index it is.
    by_x: Arc<CsrIndex>,
    /// `y → sorted [x]`.
    by_y: Arc<CsrIndex>,
    /// The tuples sorted by `(x, y)`: the list a constructor was handed, or
    /// — for a transpose — `by_x` flattened by the first [`Relation::edges`].
    edges: Arc<OnceLock<Vec<Edge>>>,
    /// Bit-packed rows, built on first use.
    packed: Arc<PackedForms>,
}

impl Relation {
    /// Builds a relation from an arbitrary tuple list.
    ///
    /// The domain sizes are inferred as `max + 1` over each column. For an
    /// explicitly sized domain use [`RelationBuilder`].
    ///
    /// ```
    /// use mmjoin_storage::Relation;
    /// let r = Relation::from_edges([(0, 5), (0, 7), (1, 5), (0, 5)]);
    /// assert_eq!(r.len(), 3);              // duplicates collapse
    /// assert_eq!(r.ys_of(0), &[5, 7]);     // sorted adjacency
    /// assert_eq!(r.xs_of(5), &[0, 1]);     // inverted list
    /// ```
    pub fn from_edges(edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut b = RelationBuilder::new();
        for e in edges {
            b.push(e.0, e.1);
        }
        b.build()
    }

    /// Builds a relation over `x_domain × y_domain` from edges that are
    /// already sorted by `(x, y)` and distinct — what a join step, a merge
    /// or a filter of a relation's own edges leaves behind — in
    /// `O(N + domains)`: no sort, both indexes in one pass over the edges.
    ///
    /// # Panics
    /// Panics on an edge out of order, repeated, or outside the domains.
    pub fn from_sorted_edges(x_domain: usize, y_domain: usize, edges: Vec<Edge>) -> Self {
        let (by_x, by_y) = CsrIndex::pair_from_sorted_edges(x_domain, y_domain, &edges);
        Self::from_parts(Arc::new(by_x), Arc::new(by_y), OnceLock::from(edges))
    }

    fn from_parts(by_x: Arc<CsrIndex>, by_y: Arc<CsrIndex>, edges: OnceLock<Vec<Edge>>) -> Self {
        Self {
            by_x,
            by_y,
            edges: Arc::new(edges),
            packed: Arc::default(),
        }
    }

    pub(crate) fn packed_forms(&self) -> &PackedForms {
        &self.packed
    }

    /// Number of tuples `N` (after deduplication).
    #[inline]
    pub fn len(&self) -> usize {
        self.by_x.num_edges()
    }

    /// True if the relation has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deduplicated tuples, sorted by `(x, y)`, as one slice. A
    /// transpose flattens its `x` index into it on the first call; a pass
    /// over the tuples reads [`Relation::tuples`] instead.
    pub fn edges(&self) -> &[Edge] {
        self.edges.get_or_init(|| {
            let mut edges = Vec::with_capacity(self.len());
            edges.extend(self.tuples());
            edges
        })
    }

    /// The deduplicated tuples in ascending `(x, y)` order, read off the
    /// `x → [y]` rows.
    pub fn tuples(&self) -> impl Iterator<Item = Edge> + '_ {
        let rows = self.by_x.iter_nonempty();
        rows.flat_map(|(x, ys)| ys.iter().map(move |&y| (x, y)))
    }

    /// Size of the dense `x` domain (`max x + 1`, or the explicit domain).
    #[inline]
    pub fn x_domain(&self) -> usize {
        self.by_x.num_keys()
    }

    /// Size of the dense `y` domain.
    #[inline]
    pub fn y_domain(&self) -> usize {
        self.by_y.num_keys()
    }

    /// CSR index `x → sorted [y]`.
    #[inline]
    pub fn by_x(&self) -> &CsrIndex {
        &self.by_x
    }

    /// CSR index `y → sorted [x]`.
    #[inline]
    pub fn by_y(&self) -> &CsrIndex {
        &self.by_y
    }

    /// Sorted `y`-neighbors of `x = a` (the set `π_y σ_{x=a} R`).
    #[inline]
    pub fn ys_of(&self, x: Value) -> &[Value] {
        self.by_x.neighbors(x)
    }

    /// Sorted `x`-neighbors of `y = b` (the inverted list `L[b]`).
    #[inline]
    pub fn xs_of(&self, y: Value) -> &[Value] {
        self.by_y.neighbors(y)
    }

    /// Degree of an `x` value.
    #[inline]
    pub fn x_degree(&self, x: Value) -> usize {
        self.by_x.degree(x)
    }

    /// Degree of a `y` value (length of inverted list `L[b]`).
    #[inline]
    pub fn y_degree(&self, y: Value) -> usize {
        self.by_y.degree(y)
    }

    /// Membership test via binary search.
    #[inline]
    pub fn contains(&self, x: Value, y: Value) -> bool {
        self.by_x.contains(x, y)
    }

    /// Number of distinct `x` values that occur in at least one tuple.
    #[inline]
    pub fn active_x_count(&self) -> usize {
        self.by_x.num_nonempty()
    }

    /// Number of distinct `y` values that occur in at least one tuple.
    #[inline]
    pub fn active_y_count(&self) -> usize {
        self.by_y.num_nonempty()
    }

    /// The size of the *full join* `R(x,y) ⋈ S(z,y)` before projection:
    /// `Σ_y deg_R(y) · deg_S(y)`. Computed in one linear pass — the paper
    /// notes this is computable during the indexing pass (§5).
    pub fn full_join_size(&self, other: &Relation) -> u64 {
        let dom = self.y_domain().min(other.y_domain());
        let mut total = 0u64;
        for y in 0..dom as Value {
            total += self.y_degree(y) as u64 * other.y_degree(y) as u64;
        }
        total
    }

    /// The same relation with its columns swapped: `Rᵀ(y, x) = R(x, y)`.
    ///
    /// O(1): the two CSR indexes, shared with `self`, trade places. The
    /// transpose packs its own forms, and flattens its edge list only if
    /// [`Relation::edges`] asks for it.
    pub fn transposed(&self) -> Relation {
        let (by_x, by_y) = (Arc::clone(&self.by_y), Arc::clone(&self.by_x));
        Relation::from_parts(by_x, by_y, OnceLock::new())
    }

    /// Semi-join reduction for the 2-path query `R(x,y) ⋈ S(z,y)`: returns
    /// `(R', S')` where dangling tuples (whose `y` has no partner on the
    /// other side) are removed. The paper assumes this linear-time
    /// preprocessing before Algorithm 1 runs.
    pub fn reduce_pair(r: &Relation, s: &Relation) -> (Relation, Relation) {
        let keep = |of: &Relation, other: &Relation| {
            let kept = of
                .tuples()
                .filter(|&(_, y)| (y as usize) < other.y_domain() && other.y_degree(y) > 0);
            Relation::from_sorted_edges(of.x_domain(), of.y_domain(), kept.collect())
        };
        (keep(r, s), keep(s, r))
    }

    /// Semi-join reduction for a star query over `k` relations joined on `y`:
    /// keeps only tuples whose `y` appears in *every* relation.
    ///
    /// Generic over owned (`&[Relation]`) and borrowed (`&[&Relation]`)
    /// slices so callers holding `Arc<Relation>` handles never clone.
    pub fn reduce_star<R: AsRef<Relation>>(relations: &[R]) -> Vec<Relation> {
        assert!(!relations.is_empty());
        let dom = relations
            .iter()
            .map(|r| r.as_ref().y_domain())
            .min()
            .unwrap_or(0);
        let mut alive = vec![true; dom];
        for r in relations {
            for (y, live) in alive.iter_mut().enumerate() {
                if r.as_ref().y_degree(y as Value) == 0 {
                    *live = false;
                }
            }
        }
        relations
            .iter()
            .map(|r| {
                let r = r.as_ref();
                let kept = r
                    .tuples()
                    .filter(|&(_, y)| (y as usize) < dom && alive[y as usize]);
                Relation::from_sorted_edges(r.x_domain(), r.y_domain(), kept.collect())
            })
            .collect()
    }
}

impl AsRef<Relation> for Relation {
    fn as_ref(&self) -> &Relation {
        self
    }
}

/// Incremental builder for [`Relation`].
#[derive(Debug, Default, Clone)]
pub struct RelationBuilder {
    edges: Vec<Edge>,
    x_domain: usize,
    y_domain: usize,
    explicit_domains: bool,
}

impl RelationBuilder {
    /// A builder whose domains are inferred from the pushed tuples.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder with explicit dense domain sizes; pushed tuples may not
    /// exceed them.
    pub fn with_domains(x_domain: usize, y_domain: usize) -> Self {
        Self {
            edges: Vec::new(),
            x_domain,
            y_domain,
            explicit_domains: true,
        }
    }

    /// Pre-allocates capacity for `n` tuples.
    pub fn with_capacity(mut self, n: usize) -> Self {
        self.edges.reserve(n);
        self
    }

    /// Adds tuple `(x, y)`.
    ///
    /// # Panics
    /// With explicit domains, panics if a value falls outside them.
    pub fn push(&mut self, x: Value, y: Value) {
        if self.explicit_domains {
            assert!(
                (x as usize) < self.x_domain && (y as usize) < self.y_domain,
                "tuple ({x}, {y}) outside explicit domains ({}, {})",
                self.x_domain,
                self.y_domain
            );
        } else {
            self.x_domain = self.x_domain.max(x as usize + 1);
            self.y_domain = self.y_domain.max(y as usize + 1);
        }
        self.edges.push((x, y));
    }

    /// Finalizes: sorts, deduplicates, and builds both CSR indexes.
    pub fn build(mut self) -> Relation {
        self.edges.sort_unstable();
        self.edges.dedup();
        Relation::from_sorted_edges(self.x_domain, self.y_domain, self.edges)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::RelationDelta;

    fn rel(edges: &[Edge]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    #[test]
    fn builds_and_indexes() {
        let r = rel(&[(0, 1), (0, 2), (1, 2), (2, 0)]);
        assert_eq!(r.len(), 4);
        assert_eq!(r.ys_of(0), &[1, 2]);
        assert_eq!(r.xs_of(2), &[0, 1]);
        assert_eq!(r.x_degree(0), 2);
        assert_eq!(r.y_degree(2), 2);
        assert!(r.contains(1, 2));
        assert!(!r.contains(1, 1));
    }

    /// Both indexes of `r` equal the sort-every-row construction over the
    /// same tuples, in whatever order and multiplicity they are given.
    pub(crate) fn assert_indexed_like(r: &Relation, tuples: &[Edge]) {
        let swapped: Vec<Edge> = tuples.iter().map(|&(x, y)| (y, x)).collect();
        assert_eq!(r.by_x(), &CsrIndex::from_pairs(r.x_domain(), tuples));
        assert_eq!(r.by_y(), &CsrIndex::from_pairs(r.y_domain(), &swapped));
        assert_eq!(r.len(), r.by_x().num_edges());
    }

    #[test]
    fn build_equals_the_sort_per_row_construction() {
        // Unsorted, repeated input; inferred and loose explicit domains.
        let tuples: Vec<Edge> = (0..500u32)
            .map(|i| ((i * 37) % 23, (i * 101) % 67))
            .chain([(22, 63), (22, 64), (0, 64), (22, 63)])
            .collect();
        assert_indexed_like(&rel(&tuples), &tuples);
        let mut b = RelationBuilder::with_domains(40, 130);
        tuples.iter().for_each(|&(x, y)| b.push(x, y));
        let r = b.build();
        assert_eq!((r.x_domain(), r.y_domain()), (40, 130));
        assert_indexed_like(&r, &tuples);
        let t = r.transposed();
        assert_indexed_like(&t, t.edges());
    }

    #[test]
    #[should_panic(expected = "not strictly after")]
    fn from_sorted_edges_rejects_unsorted_input() {
        let _ = Relation::from_sorted_edges(3, 3, vec![(1, 0), (0, 2)]);
    }

    #[test]
    fn deduplicates_input() {
        let r = rel(&[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.edges(), &[(0, 1)]);
    }

    #[test]
    fn domains_inferred() {
        let r = rel(&[(3, 7)]);
        assert_eq!(r.x_domain(), 4);
        assert_eq!(r.y_domain(), 8);
        assert_eq!(r.active_x_count(), 1);
        assert_eq!(r.active_y_count(), 1);
    }

    #[test]
    fn explicit_domains_enforced() {
        let mut b = RelationBuilder::with_domains(2, 2);
        b.push(1, 1);
        let r = b.build();
        assert_eq!(r.x_domain(), 2);
    }

    #[test]
    #[should_panic(expected = "outside explicit domains")]
    fn explicit_domains_reject_overflow() {
        let mut b = RelationBuilder::with_domains(2, 2);
        b.push(2, 0);
    }

    #[test]
    fn full_join_size_counts_pairs_per_y() {
        // y=0 has deg 2 in r, 1 in s -> 2; y=1 has deg 1 and 2 -> 2. total 4.
        let r = rel(&[(0, 0), (1, 0), (2, 1)]);
        let s = rel(&[(5, 0), (6, 1), (7, 1)]);
        assert_eq!(r.full_join_size(&s), 4);
    }

    #[test]
    fn reduce_pair_drops_dangling() {
        let r = rel(&[(0, 0), (1, 5)]); // y=5 absent from s
        let s = rel(&[(9, 0)]);
        let (r2, s2) = Relation::reduce_pair(&r, &s);
        assert_eq!(r2.edges(), &[(0, 0)]);
        assert_eq!(s2.edges(), &[(9, 0)]);
    }

    #[test]
    fn reduce_star_keeps_common_y() {
        let a = rel(&[(0, 0), (1, 1), (2, 2)]);
        let b = rel(&[(0, 0), (1, 1)]);
        let c = rel(&[(3, 1), (4, 2)]);
        let reduced = Relation::reduce_star(&[a, b, c]);
        // only y=1 appears in all three
        assert_eq!(reduced[0].edges(), &[(1, 1)]);
        assert_eq!(reduced[1].edges(), &[(1, 1)]);
        assert_eq!(reduced[2].edges(), &[(3, 1)]);
    }

    #[test]
    fn transposed_swaps_columns_and_indexes() {
        let r = rel(&[(0, 5), (0, 7), (1, 5), (3, 2)]);
        let t = r.transposed();
        assert_eq!(t.edges(), &[(2, 3), (5, 0), (5, 1), (7, 0)]);
        assert_eq!(t.x_domain(), r.y_domain());
        assert_eq!(t.y_domain(), r.x_domain());
        assert_eq!(t.ys_of(5), r.xs_of(5));
        assert_eq!(t.xs_of(0), r.ys_of(0));
        // The indexes trade places without being copied.
        assert!(std::ptr::eq(t.by_x(), r.by_y()) && std::ptr::eq(t.by_y(), r.by_x()));
        // Involution: transposing twice restores the original indexes.
        let back = t.transposed();
        assert!(std::ptr::eq(back.by_x(), r.by_x()) && std::ptr::eq(back.by_y(), r.by_y()));
        assert_eq!(back.edges(), r.edges());
    }

    #[test]
    fn a_transposes_edges_are_built_once_and_shared_by_clones() {
        let r = rel(&[(0, 5), (0, 7), (1, 5), (3, 2)]);
        let t = r.transposed();
        let twin = t.clone();
        assert_eq!(t.edges(), &[(2, 3), (5, 0), (5, 1), (7, 0)]);
        assert!(std::ptr::eq(t.edges(), twin.edges()));
        assert!(t.tuples().eq(t.edges().iter().copied()));
        // A clone shares the list a constructor was handed.
        assert!(std::ptr::eq(r.edges(), r.clone().edges()));
        // A derived relation has its own.
        let next = t.apply_delta(RelationDelta::new().insert(4, 4));
        assert_eq!((next.len(), t.len()), (5, 4));
    }

    #[test]
    fn reduce_star_accepts_borrowed_slices() {
        let a = rel(&[(0, 0), (1, 1)]);
        let b = rel(&[(5, 1)]);
        let by_ref = Relation::reduce_star(&[&a, &b]);
        let by_val = Relation::reduce_star(&[a.clone(), b.clone()]);
        assert_eq!(by_ref[0].edges(), by_val[0].edges());
        assert_eq!(by_ref[1].edges(), &[(5, 1)]);
    }

    #[test]
    fn empty_relation() {
        let r = rel(&[]);
        assert!(r.is_empty());
        assert_eq!(r.x_domain(), 0);
        assert_eq!(r.full_join_size(&r), 0);
    }
}
