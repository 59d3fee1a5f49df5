//! Incremental maintenance of cached join-project results.
//!
//! A relation update used to be a cache-killer: the epoch bump made every
//! cached result over that relation unreachable, so an update-heavy
//! workload degenerated to recompute-from-scratch. This module instead
//! *upgrades* affected cache entries in place using the delta-join
//! identity
//!
//! ```text
//! Δ(R ⋈ S) = ΔR ⋈ S  ∪  R ⋈ ΔS  ∪  ΔR ⋈ ΔS      (signed)
//! ```
//!
//! where `ΔR`/`ΔS` are the normalized signed deltas of an update batch.
//! Because `|Δ|` is small, the delta joins live in the light/combinatorial
//! regime of the paper's cost model and cost `Σ_{(x,y)∈Δ} deg(y)` — far
//! below the `full_join` mass a recompute would pay.
//!
//! Deletion is the hard part: removing the last witness `y` of an output
//! pair `(x, z)` must remove the pair. [`DeltaResult`] therefore keeps a
//! *per-tuple support count* (the number of witnesses) for every output
//! row; signed delta contributions are added to the supports and rows
//! whose support reaches zero disappear.
//!
//! Per affected entry the service picks one of three actions from the
//! paper's output estimate (see [`decide`]):
//!
//! * **maintain** — patch the support counts with the delta joins; chosen
//!   when the entry already carries supports and the delta work is below
//!   the recompute estimate;
//! * **recompute** — eagerly re-execute (as a counting join) to build the
//!   support structure, keeping the cache warm; chosen on first touch or
//!   when the delta is too large, as long as the estimate fits the
//!   recompute budget;
//! * **invalidate** — drop the entry and let the next query pay; the
//!   fallback for non-maintainable shapes (star/similarity/containment,
//!   limits, pinned engines) and over-budget recomputes.

use mmjoin_api::{DeltaSink, Sink};
use mmjoin_storage::{NormalizedDelta, Relation, Value};
use std::collections::BTreeMap;

/// Tuning knobs for the maintenance path.
#[derive(Debug, Clone)]
pub struct MaintenancePolicy {
    /// Master switch. Disabled, every update falls back to invalidation —
    /// the pre-maintenance behaviour (and the baseline the `updates`
    /// experiment compares against).
    pub enabled: bool,
    /// Upper bound on the estimated `full_join` mass of an eager
    /// recompute. Entries whose refresh would exceed it are invalidated
    /// instead, so a huge join can never stall the update path.
    pub recompute_budget: u64,
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            recompute_budget: 50_000_000,
        }
    }
}

impl MaintenancePolicy {
    /// The invalidate-everything baseline (maintenance off).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// What happened to the cached entries affected by one update batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// The relation's epoch after the update (unchanged for no-op
    /// batches).
    pub epoch: u64,
    /// Effective tuples inserted (after normalization).
    pub inserted: usize,
    /// Effective tuples deleted (after normalization).
    pub deleted: usize,
    /// Cache entries patched in place via delta joins.
    pub maintained: usize,
    /// Cache entries eagerly re-executed (support structure built).
    pub recomputed: usize,
    /// Cache entries dropped.
    pub invalidated: usize,
}

impl MaintenanceReport {
    /// True when the batch changed nothing (no epoch bump happened).
    pub fn is_noop(&self) -> bool {
        self.inserted == 0 && self.deleted == 0
    }
}

/// A support-counted two-path result: every output pair `(x, z)` with its
/// number of join witnesses `|{y : R(x,y) ∧ S(z,y)}|`, as two parallel
/// arrays sorted by pair.
///
/// The support counts are what make deletion maintainable — a pair
/// survives exactly while its support is positive — and the sorted order
/// gives maintained results a canonical row order independent of which
/// engine originally produced them.
///
/// A cache entry serves the pairs whose support reaches its `min_count`
/// as flat `rows` (two values per row) and `counts`; [`DeltaResult::rows`]
/// builds those from scratch and [`DeltaResult::patch`] keeps them in
/// step with the supports under an update, touching only what the delta
/// touches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaResult {
    /// Pairs with positive support, ascending.
    pairs: Vec<(Value, Value)>,
    /// `support[i]` is the witness count of `pairs[i]`.
    support: Vec<u32>,
}

/// How many rows one [`DeltaResult::patch`] moved across the entry's
/// `min_count` visibility threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crossings {
    /// Rows that became visible.
    pub entered: usize,
    /// Rows that stopped being visible.
    pub left: usize,
}

/// One delta row located against the arrays it will change. Positions
/// refer to the arrays as they were before the patch.
struct Edit {
    pair: (Value, Value),
    /// Index in `pairs` (insertion point when the pair is new).
    at: usize,
    /// Support before and after.
    old: u32,
    new: u32,
    /// Index in `rows` (insertion point when the row is not visible).
    row_at: usize,
}

impl DeltaResult {
    /// Builds from the signed accumulation of a full counting execution
    /// ([`DeltaSink::into_deltas`]: ascending, distinct; all deltas must be
    /// positive — they are absolute witness counts).
    pub fn from_signed(deltas: &[((Value, Value), i64)]) -> Self {
        let (pairs, support) = deltas
            .iter()
            .filter(|&&(_, c)| c > 0)
            .map(|&(pair, c)| (pair, c as u32))
            .unzip();
        Self { pairs, support }
    }

    /// Materialises the rows with support `≥ min_count`, in sorted order,
    /// as one flat array (`x, z` per row). With `with_counts` the second
    /// array carries each row's support; uncounted families leave it empty.
    pub fn rows(&self, min_count: u32, with_counts: bool) -> (Vec<Value>, Vec<u32>) {
        let min = min_count.max(1);
        let mut rows = Vec::new();
        let mut counts = Vec::new();
        for (&(x, z), &c) in self.pairs.iter().zip(&self.support) {
            if c >= min {
                rows.extend([x, z]);
                if with_counts {
                    counts.push(c);
                }
            }
        }
        (rows, counts)
    }

    /// Applies signed support adjustments (ascending, distinct — what
    /// [`DeltaSink::into_deltas`] returns) in place, to the supports and
    /// to the `rows`/`counts` an entry serves from them, which must be
    /// what [`rows`](DeltaResult::rows) returns for the same `min_count`
    /// and `with_counts`. Afterwards all three are what a from-scratch
    /// build over the updated relations would hold.
    ///
    /// Costs a search per delta row — `O(log distance)` from the row
    /// before it — plus one move of the array tails behind the first row
    /// that enters or leaves; nothing is allocated per row.
    ///
    /// Returns `None`, having changed nothing, if a support would go
    /// negative or `rows` disagrees with the supports — a corrupt entry
    /// the caller must discard (it cannot happen for deltas normalized
    /// against the true base, but the cache must degrade to a recompute
    /// rather than serve wrong rows).
    #[must_use]
    pub fn patch(
        &mut self,
        rows: &mut Vec<Value>,
        counts: &mut Vec<u32>,
        deltas: &[((Value, Value), i64)],
        min_count: u32,
        with_counts: bool,
    ) -> Option<Crossings> {
        let min = min_count.max(1);
        let edits = self.locate(rows, counts, deltas, min, with_counts)?;

        let (mut gone, mut entering_pairs, mut entering_support) =
            (Vec::new(), Vec::new(), Vec::new());
        let (mut rows_gone, mut entering_rows, mut entering_counts) =
            (Vec::new(), Vec::new(), Vec::new());
        for e in &edits {
            match (e.old > 0, e.new > 0) {
                (true, true) => self.support[e.at] = e.new,
                (true, false) => gone.push(e.at),
                (false, _) => {
                    entering_pairs.push((e.at, [e.pair]));
                    entering_support.push((e.at, [e.new]));
                }
            }
            match (e.old >= min, e.new >= min) {
                (true, true) if with_counts => counts[e.row_at] = e.new,
                (true, false) => rows_gone.push(e.row_at),
                (false, true) => {
                    entering_rows.push((e.row_at, [e.pair.0, e.pair.1]));
                    entering_counts.push((e.row_at, [e.new]));
                }
                _ => {}
            }
        }
        let crossed = Crossings {
            entered: entering_rows.len(),
            left: rows_gone.len(),
        };
        splice_sorted(&mut self.pairs, &gone, &entering_pairs);
        splice_sorted(&mut self.support, &gone, &entering_support);
        splice_sorted(rows, &rows_gone, &entering_rows);
        if with_counts {
            splice_sorted(counts, &rows_gone, &entering_counts);
        }
        Some(crossed)
    }

    /// Finds every delta row in `pairs` and in `rows` and works out its
    /// new support, changing nothing.
    fn locate(
        &self,
        rows: &[Value],
        counts: &[u32],
        deltas: &[((Value, Value), i64)],
        min: u32,
        with_counts: bool,
    ) -> Option<Vec<Edit>> {
        let (rows, ragged) = rows.as_chunks::<2>();
        // With nothing hidden the rows are the pairs, position for position,
        // which spares a search through `rows`.
        let all_visible = min == 1;
        if !ragged.is_empty()
            || counts.len() != if with_counts { rows.len() } else { 0 }
            || (all_visible && rows.len() != self.pairs.len())
        {
            return None;
        }
        let mut edits = Vec::with_capacity(deltas.len());
        let (mut at, mut row_at) = (0, 0);
        for &(pair, d) in deltas {
            at = gallop(&self.pairs, at, |&p| p < pair);
            let old = match self.pairs.get(at) {
                Some(&p) if p == pair => self.support[at],
                _ => 0,
            };
            let new = u32::try_from(old as i64 + d).ok()?;
            if all_visible {
                row_at = at;
            } else {
                row_at = gallop(rows, row_at, |&[x, z]| (x, z) < pair);
                let visible = rows.get(row_at).is_some_and(|&[x, z]| (x, z) == pair);
                if visible != (old >= min) {
                    return None;
                }
            }
            edits.push(Edit {
                pair,
                at,
                old,
                new,
                row_at,
            });
        }
        Some(edits)
    }

    /// Support count of one pair (0 when absent) — test/introspection
    /// helper.
    pub fn support_of(&self, x: Value, z: Value) -> u32 {
        self.pairs
            .binary_search(&(x, z))
            .map_or(0, |i| self.support[i])
    }

    /// Distinct pairs with positive support.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pair has positive support.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// The first position at or after `from` whose element is not `below` the
/// target, for a sorted `v` with everything before `from` below it. Steps
/// double from `from`, so a target `d` places on costs `O(log d)` probes,
/// all of them near each other.
fn gallop<T>(v: &[T], from: usize, mut below: impl FnMut(&T) -> bool) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < v.len() && below(&v[hi]) {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    lo + v[lo..hi.min(v.len())].partition_point(below)
}

/// Edits a sorted vector of `N`-wide rows in place: drops the rows at the
/// ascending positions `gone` and inserts each `(at, row)` of `entering`
/// (ascending `at`) before the row that stood at `at`. Every position
/// counts rows of `v` as passed in. Only the tail behind the first edit
/// moves — the blocks between edits slide down over the dropped rows, then
/// up to open the new gaps — so a handful of edits costs about one
/// `memmove` of that tail.
fn splice_sorted<T: Copy + Default, const N: usize>(
    v: &mut Vec<T>,
    gone: &[usize],
    entering: &[(usize, [T; N])],
) {
    let mut kept = gone.first().map_or(v.len(), |&at| at * N);
    for (i, &at) in gone.iter().enumerate() {
        let block = (at + 1) * N..gone.get(i + 1).map_or(v.len(), |&next| next * N);
        v.copy_within(block.clone(), kept);
        kept += block.len();
    }
    v.truncate(kept);
    v.resize(kept + entering.len() * N, T::default());
    let mut end = kept;
    for (before, &(at, row)) in entering.iter().enumerate().rev() {
        let at = (at - gone.partition_point(|&g| g < at)) * N;
        v.copy_within(at..end, at + (before + 1) * N);
        v[at + before * N..][..N].copy_from_slice(&row);
        end = at;
    }
}

/// The three-way maintenance choice for one affected cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Patch the entry's support counts with the delta joins.
    Maintain,
    /// Eagerly re-execute the (counting) query and refresh the entry.
    Recompute,
    /// Drop the entry; the next query recomputes lazily.
    Invalidate,
}

/// The decision rule, driven by the paper's output estimate: maintain when
/// the delta work undercuts the recompute estimate (and supports exist to
/// patch), recompute when refreshing is affordable, invalidate otherwise.
pub fn decide(
    has_support: bool,
    delta_cost: u64,
    recompute_cost: u64,
    policy: &MaintenancePolicy,
) -> Decision {
    if !policy.enabled {
        return Decision::Invalidate;
    }
    if has_support && delta_cost <= recompute_cost {
        Decision::Maintain
    } else if recompute_cost <= policy.recompute_budget {
        Decision::Recompute
    } else {
        Decision::Invalidate
    }
}

/// Exact work of the delta joins for a two-path entry: every delta tuple
/// scans its join value's inverted list on the *old* other side, plus the
/// (tiny) `ΔR ⋈ ΔS` cross term when the update hits both sides of a self
/// join.
pub fn delta_cost(
    delta: &NormalizedDelta,
    r_old: &Relation,
    s_old: &Relation,
    delta_on_r: bool,
    delta_on_s: bool,
) -> u64 {
    let side = |other: &Relation| -> u64 {
        delta
            .signed()
            .map(|(_, y, _)| {
                if (y as usize) < other.y_domain() {
                    other.y_degree(y) as u64
                } else {
                    0
                }
            })
            .sum()
    };
    let mut cost = 0u64;
    if delta_on_r {
        cost += side(s_old);
    }
    if delta_on_s {
        cost += side(r_old);
    }
    if delta_on_r && delta_on_s {
        // Cross term: Σ_y |Δ_y|² ≤ |Δ|², but computed exactly.
        let mut per_y: BTreeMap<Value, u64> = BTreeMap::new();
        for (_, y, _) in delta.signed() {
            *per_y.entry(y).or_insert(0) += 1;
        }
        cost += per_y.values().map(|&c| c * c).sum::<u64>();
    }
    cost.max(delta.len() as u64)
}

/// Streams the signed delta-join terms of `Δ(π_{x,z}(R ⋈ S))` into
/// `sink`. `delta` is the update of the relation that changed;
/// `delta_on_r`/`delta_on_s` say which side(s) of the entry's query that
/// relation occupies (both, for a self join). `r_old`/`s_old` are the
/// relations *before* the update — the identity is expressed over the old
/// state plus the cross term.
pub fn accumulate_two_path_delta(
    sink: &mut DeltaSink,
    delta: &NormalizedDelta,
    r_old: &Relation,
    s_old: &Relation,
    delta_on_r: bool,
    delta_on_s: bool,
) {
    if delta_on_r {
        // π(ΔR ⋈ S): each delta tuple (x, y) pairs with S's inverted list
        // of y.
        for (x, y, sign) in delta.signed() {
            if (y as usize) >= s_old.y_domain() {
                continue;
            }
            sink.set_sign(sign);
            for &z in s_old.xs_of(y) {
                sink.row(&[x, z]);
            }
        }
    }
    if delta_on_s {
        // π(R ⋈ ΔS), symmetric.
        for (z, y, sign) in delta.signed() {
            if (y as usize) >= r_old.y_domain() {
                continue;
            }
            sink.set_sign(sign);
            for &x in r_old.xs_of(y) {
                sink.row(&[x, z]);
            }
        }
    }
    if delta_on_r && delta_on_s {
        // π(ΔR ⋈ ΔS): only reachable for self joins, where the one delta
        // plays both roles; group one side by join value.
        let mut by_y: BTreeMap<Value, Vec<(Value, i64)>> = BTreeMap::new();
        for (z, y, sign) in delta.signed() {
            by_y.entry(y).or_default().push((z, sign));
        }
        for (x, y, sign_r) in delta.signed() {
            if let Some(partners) = by_y.get(&y) {
                for &(z, sign_s) in partners {
                    sink.set_sign(sign_r * sign_s);
                    sink.row(&[x, z]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_storage::{Edge, RelationDelta};

    fn rel(edges: &[Edge]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    /// Reference: counting self-two-path via nested loops.
    fn brute_force(r: &Relation, s: &Relation) -> BTreeMap<(Value, Value), u32> {
        let mut out = BTreeMap::new();
        for &(x, y1) in r.edges() {
            for &(z, y2) in s.edges() {
                if y1 == y2 {
                    *out.entry((x, z)).or_insert(0) += 1;
                }
            }
        }
        out
    }

    /// What a counting engine run into a `DeltaSink` drains to.
    fn deltas_of(support: &BTreeMap<(Value, Value), u32>) -> Vec<((Value, Value), i64)> {
        support.iter().map(|(&pair, &c)| (pair, c as i64)).collect()
    }

    fn result_of(support: &BTreeMap<(Value, Value), u32>) -> DeltaResult {
        DeltaResult {
            pairs: support.keys().copied().collect(),
            support: support.values().copied().collect(),
        }
    }

    /// Patches the result of `r_old ⋈ s_old` with `norm` at every
    /// `min_count` × `with_counts`, checking supports, rows and counts
    /// against a from-scratch build over `r_new ⋈ s_new`. Returns the
    /// patched supports.
    fn patched(
        norm: &NormalizedDelta,
        (r_old, s_old): (&Relation, &Relation),
        (r_new, s_new): (&Relation, &Relation),
        (delta_on_r, delta_on_s): (bool, bool),
    ) -> DeltaResult {
        let mut sink = DeltaSink::new();
        accumulate_two_path_delta(&mut sink, norm, r_old, s_old, delta_on_r, delta_on_s);
        let deltas = sink.into_deltas();
        let expected = result_of(&brute_force(r_new, s_new));
        assert_eq!(
            DeltaResult::from_signed(&deltas_of(&brute_force(r_new, s_new))),
            expected
        );
        for min_count in 1..=3 {
            for with_counts in [false, true] {
                let mut result = result_of(&brute_force(r_old, s_old));
                let (mut rows, mut counts) = result.rows(min_count, with_counts);
                let before = rows.len() / 2;
                let crossed = result
                    .patch(&mut rows, &mut counts, &deltas, min_count, with_counts)
                    .expect("support went negative");
                assert_eq!(result, expected, "delta {norm:?}");
                assert_eq!((rows, counts), expected.rows(min_count, with_counts));
                assert_eq!(
                    before + crossed.entered - crossed.left,
                    expected.rows(min_count, with_counts).0.len() / 2
                );
            }
        }
        expected
    }

    fn maintained_equals_recompute(base: &[Edge], delta: &RelationDelta) -> DeltaResult {
        let old = rel(base);
        let norm = delta.normalize(&old);
        let new = old.apply_normalized(&norm);
        patched(&norm, (&old, &old), (&new, &new), (true, true))
    }

    #[test]
    fn insert_grows_self_join() {
        maintained_equals_recompute(&[(0, 0)], RelationDelta::new().insert(1, 0));
    }

    #[test]
    fn delete_below_support_removes_pair() {
        // (0,1) and (1,0) are supported only by witness y=0; deleting
        // (1,0) must erase them and decrement (1,1) to zero via the cross
        // term.
        maintained_equals_recompute(&[(0, 0), (1, 0)], RelationDelta::new().delete(1, 0));
    }

    #[test]
    fn surviving_support_keeps_pair() {
        // (0,1) has two witnesses (y=0, y=1); deleting one keeps the pair
        // at support 1.
        let base = &[(0, 0), (0, 1), (1, 0), (1, 1)];
        let result = maintained_equals_recompute(base, RelationDelta::new().delete(1, 1));
        assert_eq!(result.support_of(0, 1), 1);
        assert_eq!(result.support_of(1, 1), 1);
        assert_eq!(result.support_of(5, 5), 0);
    }

    #[test]
    fn mixed_batch_matches() {
        maintained_equals_recompute(
            &[(0, 0), (1, 0), (2, 1), (2, 0), (3, 2)],
            RelationDelta::new()
                .insert(4, 1)
                .insert(0, 2)
                .delete(2, 0)
                .delete(3, 2),
        );
    }

    #[test]
    fn one_sided_delta_matches() {
        // R ⋈ S with only R updated: delta_on_s = false.
        let r_old = rel(&[(0, 0), (1, 1)]);
        let s = rel(&[(5, 0), (6, 0), (7, 1)]);
        let mut delta = RelationDelta::new();
        delta.insert(2, 0).delete(1, 1);
        let norm = delta.normalize(&r_old);
        let r_new = r_old.apply_normalized(&norm);
        patched(&norm, (&r_old, &s), (&r_new, &s), (true, false));
    }

    #[test]
    fn rows_filter_by_min_count_and_zero_counts() {
        let result = DeltaResult {
            pairs: vec![(0, 1), (2, 2)],
            support: vec![3, 1],
        };
        let (rows, counts) = result.rows(2, true);
        assert_eq!(rows, [0, 1]);
        assert_eq!(counts, vec![3]);
        let (rows, counts) = result.rows(1, false);
        assert_eq!(rows, [0, 1, 2, 2]);
        assert!(counts.is_empty(), "uncounted families store no counts");
    }

    #[test]
    fn patch_rejects_a_corrupt_entry_untouched() {
        let original = DeltaResult {
            pairs: vec![(0, 0), (0, 1)],
            support: vec![2, 1],
        };
        let (rows, counts) = original.rows(1, true);

        // The second delta row would take a support below zero: the first
        // must not have been applied either.
        let mut result = original.clone();
        let (mut r, mut c) = (rows.clone(), counts.clone());
        let negative = [((0, 0), -1), ((0, 1), -2)];
        assert!(result.patch(&mut r, &mut c, &negative, 1, true).is_none());
        assert_eq!((&result, &r, &c), (&original, &rows, &counts));

        // Rows that are not the supports' visible subset are refused too:
        // a row short, half a row, a visible row the supports hide, or
        // counts that do not line up with the rows.
        let fine = [((0, 1), 1)];
        for (bad_rows, bad_counts, min) in [
            (vec![0, 0], vec![2], 1),
            (vec![0, 0, 0], vec![2, 1], 1),
            (vec![0, 0, 0, 1], vec![2, 1], 2),
            (vec![0, 0, 0, 1], vec![2], 1),
            (vec![0, 0, 0, 1], vec![], 1),
        ] {
            let (mut r, mut c) = (bad_rows.clone(), bad_counts.clone());
            assert!(result.patch(&mut r, &mut c, &fine, min, true).is_none());
            assert_eq!((&result, &r, &c), (&original, &bad_rows, &bad_counts));
        }
        // An uncounted entry carries no counts; one that does is corrupt.
        let mut c = counts.clone();
        assert!(result
            .patch(&mut rows.clone(), &mut c, &fine, 1, false)
            .is_none());
        assert_eq!((&result, &c), (&original, &counts));
    }

    #[test]
    fn support_crosses_the_threshold_both_ways() {
        // min_count 2: (0,1) is served at support 2, hidden at 1, served
        // again at 2 — while it never leaves the supports.
        let mut result = DeltaResult {
            pairs: vec![(0, 0), (0, 1), (1, 1)],
            support: vec![3, 2, 2],
        };
        let (mut rows, mut counts) = result.rows(2, true);
        let down = [((0, 1), -1)];
        let crossed = result.patch(&mut rows, &mut counts, &down, 2, true);
        assert_eq!(
            crossed,
            Some(Crossings {
                entered: 0,
                left: 1
            })
        );
        assert_eq!(rows, [0, 0, 1, 1]);
        assert_eq!(result.support_of(0, 1), 1);

        let up = [((0, 0), 1), ((0, 1), 1)];
        let crossed = result.patch(&mut rows, &mut counts, &up, 2, true);
        assert_eq!(
            crossed,
            Some(Crossings {
                entered: 1,
                left: 0
            })
        );
        assert_eq!(rows, [0, 0, 0, 1, 1, 1]);
        assert_eq!(counts, vec![4, 2, 2]);

        // The same two crossings on an uncounted entry: rows move, the
        // counts stay empty.
        let (mut rows, mut counts) = result.rows(2, false);
        assert!(result
            .patch(&mut rows, &mut counts, &down, 2, false)
            .is_some());
        assert!(result
            .patch(&mut rows, &mut counts, &[((0, 1), 1)], 2, false)
            .is_some());
        assert_eq!((rows, counts), result.rows(2, false));
    }

    #[test]
    fn gallop_finds_the_lower_bound_from_any_start() {
        let v: Vec<u32> = (0..100).map(|i| i * 2).collect();
        for from in [0, 1, 7, 50, 99, 100] {
            for target in [0, 1, 2, 15, 99, 198, 199, 500] {
                let expected = v.partition_point(|&x| x < target).max(from);
                assert_eq!(gallop(&v, from, |&x| x < target), expected);
            }
        }
        assert_eq!(gallop(&[] as &[u32], 0, |&x| x < 5), 0);
    }

    #[test]
    fn splice_sorted_edits_in_place() {
        let mut v = vec![10, 20, 30, 40, 50];
        splice_sorted(
            &mut v,
            &[1, 3],
            &[(0, [5]), (1, [15]), (1, [16]), (5, [60])],
        );
        assert_eq!(v, vec![5, 10, 15, 16, 30, 50, 60]);
        let mut v: Vec<u32> = Vec::new();
        splice_sorted(&mut v, &[], &[(0, [1, 1]), (0, [2, 2])]);
        assert_eq!(v, vec![1, 1, 2, 2]);
        splice_sorted::<_, 2>(&mut v, &[0, 1], &[]);
        assert!(v.is_empty());
    }

    #[test]
    fn splice_sorted_matches_a_rebuild() {
        // Dense and sparse edits, so blocks both longer and shorter than
        // the slots riding along with them; the same edits on one-wide rows
        // and on stride-2 rows of a flat array.
        for (n, stride) in [(40usize, 1usize), (40, 2), (200, 7), (200, 61)] {
            let old: Vec<usize> = (0..n).map(|i| i * 10).collect();
            let gone: Vec<usize> = (0..n).filter(|i| i % stride == 0).collect();
            let entering: Vec<(usize, usize)> = (0..=n)
                .filter(|i| (i + 1) % stride == 0)
                .flat_map(|i| [(i, 10_000 + 2 * i), (i, 10_001 + 2 * i)])
                .collect();

            let mut expected = Vec::new();
            for (i, &x) in old.iter().enumerate() {
                expected.extend(entering.iter().filter(|e| e.0 == i).map(|e| e.1));
                if !gone.contains(&i) {
                    expected.push(x);
                }
            }
            expected.extend(entering.iter().filter(|e| e.0 == n).map(|e| e.1));

            let mut v = old.clone();
            let one_wide: Vec<_> = entering.iter().map(|&(at, x)| (at, [x])).collect();
            splice_sorted(&mut v, &gone, &one_wide);
            assert_eq!(v, expected, "n {n} stride {stride}");

            let pair = |x: usize| [x, x + 1];
            let mut flat: Vec<usize> = old.iter().flat_map(|&x| pair(x)).collect();
            let two_wide: Vec<_> = entering.iter().map(|&(at, x)| (at, pair(x))).collect();
            splice_sorted(&mut flat, &gone, &two_wide);
            let rebuilt: Vec<usize> = expected.iter().flat_map(|&x| pair(x)).collect();
            assert_eq!(flat, rebuilt, "flat rows, n {n} stride {stride}");
        }
    }

    #[test]
    fn decision_rule() {
        let policy = MaintenancePolicy {
            enabled: true,
            recompute_budget: 1000,
        };
        assert_eq!(decide(true, 10, 100, &policy), Decision::Maintain);
        assert_eq!(decide(false, 10, 100, &policy), Decision::Recompute);
        assert_eq!(decide(true, 500, 100, &policy), Decision::Recompute);
        assert_eq!(decide(true, 5000, 2000, &policy), Decision::Invalidate);
        assert_eq!(
            decide(true, 10, 100, &MaintenancePolicy::disabled()),
            Decision::Invalidate
        );
    }

    #[test]
    fn delta_cost_counts_partner_degrees() {
        let r = rel(&[(0, 0), (1, 0), (2, 1)]); // deg(y=0)=2, deg(y=1)=1
        let delta = RelationDelta::new().insert(9, 0).normalize(&r);
        // One delta tuple on y=0 against both sides of a self join:
        // 2 (ΔR⋈S) + 2 (R⋈ΔS) + 1 (cross) = 5.
        assert_eq!(delta_cost(&delta, &r, &r, true, true), 5);
        assert_eq!(delta_cost(&delta, &r, &r, true, false), 2);
    }
}
