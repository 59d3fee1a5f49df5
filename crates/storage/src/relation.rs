//! Binary relations: two CSR indexes and — built by the first query that
//! multiplies them — their bit-packed rows ([`crate::packed`]). Both sit
//! behind `Arc`s, so a clone and a transpose copy neither. A relation keeps
//! no list of its tuples: every pass reads them off the `x` index
//! ([`Relation::tuples`]), and [`Relation::edges`] flattens them into a
//! slice only when a caller asks for one.

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
/// so are the active-value counts. The tuple list a constructor was handed
/// is dropped once the indexes are built.
///
/// A clone bumps reference counts and nothing more: it shares the indexes,
/// the flattened edge list if [`Relation::edges`] made one, and the packed
/// forms ([`Relation::packed`]), which are empty until a query reads them
/// and never carried over to a relation derived from this one. A transpose
/// shares the indexes too.
#[derive(Debug, Clone)]
pub struct Relation {
    /// `x → sorted [y]`; shared with the transpose, whose `y` index it is.
    by_x: Arc<CsrIndex>,
    /// `y → sorted [x]`.
    by_y: Arc<CsrIndex>,
    /// The tuples sorted by `(x, y)`, `by_x` flattened by the first
    /// [`Relation::edges`]; empty until then.
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
    /// Every constructor ends here, and `edges` is dropped on the way out.
    ///
    /// # Panics
    /// Panics on an edge out of order, repeated, or outside the domains.
    pub fn from_sorted_edges(x_domain: usize, y_domain: usize, edges: Vec<Edge>) -> Self {
        let (by_x, by_y) = CsrIndex::pair_from_sorted_edges(x_domain, y_domain, &edges);
        Self::from_indexes(Arc::new(by_x), Arc::new(by_y))
    }

    fn from_indexes(by_x: Arc<CsrIndex>, by_y: Arc<CsrIndex>) -> Self {
        Self {
            by_x,
            by_y,
            edges: Arc::default(),
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

    /// The deduplicated tuples, sorted by `(x, y)`, as one slice: the first
    /// call flattens the `x` index into a list of `8·N` bytes, which the
    /// relation and its clones then keep. Served code reads
    /// [`Relation::tuples`] instead, which holds nothing; mmjoin-lint's
    /// `edges-slice` rule keeps it that way outside tests and benchmarks.
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
    /// `Σ_y deg_R(y) · deg_S(y)` over the `y` ids both domains have — the
    /// count the paper computes "during the indexing pass" (§5), read off
    /// the indexes in one zipped pass over the two `by_y` degree arrays
    /// ([`CsrIndex::degrees`]), which the compiler vectorises.
    pub fn full_join_size(&self, other: &Relation) -> u64 {
        let pairs = self.by_y.degrees().zip(other.by_y.degrees());
        pairs.map(|(a, b)| u64::from(a) * u64::from(b)).sum()
    }

    /// The same relation with its columns swapped: `Rᵀ(y, x) = R(x, y)`.
    ///
    /// O(1): the two CSR indexes, shared with `self`, trade places. The
    /// transpose packs its own forms, and flattens its edge list only if
    /// [`Relation::edges`] asks for it.
    pub fn transposed(&self) -> Relation {
        Relation::from_indexes(Arc::clone(&self.by_y), Arc::clone(&self.by_x))
    }

    /// Heap bytes the relation holds, from lengths alone: its two indexes,
    /// the packed forms built so far (ids, rows and universal mask), and
    /// the edge list if [`Relation::edges`] has flattened one. Memory a
    /// clone or a transpose shares is counted again for each.
    pub fn heap_bytes(&self) -> usize {
        let edges = self
            .edges
            .get()
            .map_or(0, |e| std::mem::size_of_val(&e[..]));
        self.by_x.heap_bytes() + self.by_y.heap_bytes() + self.packed_heap_bytes() + edges
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

    /// The zipped pass equals `Σ_y deg_R(y) · deg_S(y)` by brute force —
    /// every tuple pair that meets on a `y` — over `y` domains of every
    /// relative size, unused ids in both, and empty relations.
    #[test]
    fn full_join_size_equals_brute_force_over_mismatched_domains() {
        let mut state = 0x9e37_79b9u32;
        let mut next = |bound: u32| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) % bound.max(1)
        };
        for case in 0..300 {
            let relation = |next: &mut dyn FnMut(u32) -> u32| {
                let (xd, yd) = (1 + next(30), next(150));
                let mut b =
                    RelationBuilder::with_domains(xd as usize, yd as usize + next(70) as usize);
                for _ in 0..next(200) * u32::from(yd > 0) {
                    b.push(next(xd), next(yd));
                }
                b.build()
            };
            let (r, s) = (relation(&mut next), relation(&mut next));
            let brute = r
                .tuples()
                .flat_map(|(_, y)| s.tuples().filter(move |&(_, z)| z == y))
                .count() as u64;
            assert_eq!(r.full_join_size(&s), brute, "case {case}");
            assert_eq!(s.full_join_size(&r), brute, "case {case}");
        }
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
        // A clone shares the list the first call flattened.
        assert!(std::ptr::eq(r.edges(), r.clone().edges()));
        // A derived relation has its own.
        let next = t.apply_delta(RelationDelta::new().insert(4, 4));
        assert_eq!((next.len(), t.len()), (5, 4));
    }

    #[test]
    fn no_constructor_keeps_an_edge_list_until_edges_is_called() {
        let tuples: Vec<Edge> = (0..300u32).map(|i| (i % 17, (i * 7) % 41)).collect();
        let built = rel(&tuples);
        let from_sorted = Relation::from_sorted_edges(20, 50, built.tuples().collect());
        let delta = RelationDelta::new()
            .insert(19, 49)
            .delete(3, built.ys_of(3)[0])
            .normalize(&built);
        let applied = built.apply_normalized(&delta);
        let transposed = built.transposed();
        for (what, r) in [
            ("builder", built),
            ("from_sorted_edges", from_sorted),
            ("apply_normalized", applied),
            ("transposed", transposed),
        ] {
            assert!(r.edges.get().is_none(), "{what} kept an edge list");
            let before = r.heap_bytes();
            let twin = r.clone();
            assert!(r.edges().iter().copied().eq(r.tuples()), "{what}");
            assert_eq!(r.heap_bytes(), before + 8 * r.len(), "{what}");
            assert!(std::ptr::eq(r.edges(), twin.edges()), "{what}");
        }
    }

    #[test]
    fn heap_bytes_counts_indexes_packed_forms_and_the_edge_list() {
        use crate::PackedForm;
        // x ∈ 0..3 (4 keys with the empty x = 3 row), y ∈ 0..70.
        let r = Relation::from_sorted_edges(4, 70, vec![(0, 0), (0, 69), (1, 5), (2, 5)]);
        let indexes = (5 + 71) * 4 + 2 * 4 * 4;
        assert_eq!(r.heap_bytes(), indexes);
        r.packed(PackedForm::XMajor);
        // 3 rows of 2 words, a 2-word mask, 3 ids.
        assert_eq!(r.heap_bytes(), indexes + 8 * (3 * 2 + 2) + 4 * 3);
        r.edges();
        assert_eq!(r.heap_bytes(), indexes + 8 * (3 * 2 + 2) + 4 * 3 + 8 * 4);
    }

    #[test]
    fn empty_relation() {
        let r = rel(&[]);
        assert!(r.is_empty());
        assert_eq!(r.x_domain(), 0);
        assert_eq!(r.full_join_size(&r), 0);
    }
}
