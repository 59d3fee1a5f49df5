//! Incremental maintenance of cached join-project results — opt-in.
//!
//! An update bumps its relation's epoch, which makes every cached result
//! over it unreachable. By default the service simply drops those entries
//! ([`MaintenancePolicy::default`]) and the next request for one
//! recomputes it: a cold two-path over a served relation costs tens of
//! microseconds, an update touches several entries, and the next request
//! reads at most one of them — so eagerly refreshing all of them is the
//! losing side of the incremental-or-rerun choice. Measured on the
//! `update_churn` workload, dropping serves 3.2× the throughput at a
//! third of the CPU per operation (DESIGN.md, "Incremental
//! maintenance").
//!
//! With [`MaintenancePolicy::enabled`] this module instead *upgrades*
//! affected cache entries in place using the delta-join identity
//!
//! ```text
//! Δ(R ⋈ S) = ΔR ⋈ S_after  +  R_before ⋈ ΔS      (signed)
//! ```
//!
//! where `ΔR`/`ΔS` are the normalized signed deltas of an update batch and
//! `S_after` absorbs `ΔR ⋈ ΔS`. [`two_path_delta`] sums the `±1` witnesses
//! one `x` group at a time and emits each group in ascending `z`: sorted
//! and coalesced as written, no row per witness, no sort of the whole.
//!
//! The joins cost `Σ_{(x,y)∈Δ} deg(y)` witnesses ([`delta_cost`]) — not
//! small because `|Δ|` is: a 2048-edge batch against a dense relation has
//! more witnesses than the entry has rows — so the choice below compares
//! seconds: witnesses at the cost model's prices against the *measured*
//! time of the execution that built the entry's supports.
//!
//! Deletion is the hard part: removing the last witness `y` of an output
//! pair `(x, z)` must remove the pair. [`DeltaResult`] therefore keeps a
//! *per-tuple support count* (the number of witnesses) for every output
//! row; signed delta contributions are added to the supports and rows
//! whose support reaches zero disappear.
//!
//! Per affected entry the maintaining service picks one of three actions
//! (see [`decide`]):
//!
//! * **maintain** — patch the support counts with the delta joins; chosen
//!   when the entry already carries supports and the predicted delta work
//!   undercuts the predicted recompute;
//! * **recompute** — eagerly re-execute (as a counting join) to build the
//!   support structure, keeping the cache warm; chosen on first touch or
//!   when the delta is too large, as long as the estimate fits the
//!   recompute budget;
//! * **invalidate** — drop the entry and let the next query pay; the
//!   fallback for non-maintainable shapes (star/similarity/containment,
//!   limits, pinned engines) and over-budget recomputes ([`DropReason`]).

use mmjoin_storage::{NormalizedDelta, Relation, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Tuning knobs for the maintenance path.
#[derive(Debug, Clone)]
pub struct MaintenancePolicy {
    /// Master switch, off by default: an update then drops the cached
    /// results over its relation without pricing or touching them.
    pub enabled: bool,
    /// Upper bound on the estimated `full_join` mass of an eager
    /// recompute. Entries whose refresh would exceed it are invalidated
    /// instead, so a huge join can never stall the update path.
    pub recompute_budget: u64,
}

impl Default for MaintenancePolicy {
    /// Invalidation: maintenance off.
    fn default() -> Self {
        Self {
            enabled: false,
            recompute_budget: 50_000_000,
        }
    }
}

impl MaintenancePolicy {
    /// Maintenance on, with the default recompute budget.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
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
    /// `invalidated` by rule, indexed by [`DropReason`] (`as usize`).
    pub dropped: [usize; DropReason::ALL.len()],
}

impl MaintenanceReport {
    /// True when the batch changed nothing (no epoch bump happened).
    pub fn is_noop(&self) -> bool {
        self.inserted == 0 && self.deleted == 0
    }
}

/// The rule that made a refresh drop its entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Not a two-path: no per-tuple supports to patch.
    Family,
    /// A row limit truncates the support set.
    Limit,
    /// A pinned engine promises that engine's stats and row order.
    Pinned,
    /// Not current before this update, or superseded by a later one.
    Stale,
    /// Maintenance is off, as it is by default ([`MaintenancePolicy::default`]).
    Disabled,
    /// The recompute estimate exceeds `recompute_budget`.
    OverBudget,
    /// The chosen maintain or recompute failed (corrupt entry, engine error).
    Failed,
}

impl DropReason {
    /// Every reason, in `as usize` order.
    pub const ALL: [DropReason; 7] = {
        use DropReason::*;
        [Family, Limit, Pinned, Stale, Disabled, OverBudget, Failed]
    };

    /// The name `stats` prints and the metrics registry files it under.
    pub fn name(self) -> String {
        format!("{self:?}").to_lowercase()
    }
}

/// What makes a cache entry patchable, and what a recompute of it costs.
#[derive(Debug, Clone)]
pub struct Supports {
    /// The per-tuple support counts.
    pub result: Arc<DeltaResult>,
    /// Measured seconds of the counting execution that built them — or the
    /// previous price at this mass, when that was lower: timing noise only
    /// ever inflates a sample.
    pub built_secs: f64,
    /// The `full_join + |R| + |S|` mass that execution ran over: a
    /// recompute now is priced at `built_secs` × today's mass / this one.
    pub built_cost: u64,
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
    /// (`DeltaSink::into_deltas`: ascending, distinct; all deltas must be
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

    /// Applies signed support adjustments (ascending, distinct, none zero
    /// — what [`two_path_delta`] returns) in place, to the supports and
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
    Invalidate(DropReason),
}

/// The decision rule. `predicted` is `(maintain, recompute)` in seconds:
/// the delta joins' exact witness count at the cost model's prices plus a
/// pass over the entry, against the measured time of the execution that
/// built the entry's supports scaled to today's relations ([`Supports`]).
/// An entry without supports has no prices and no choice: it recomputes.
/// `recompute_cost` is the `full_join + |R| + |S|` tuple mass the budget
/// bounds — a count, so the budget means the same on any machine.
pub fn decide(
    predicted: Option<(f64, f64)>,
    recompute_cost: u64,
    policy: &MaintenancePolicy,
) -> Decision {
    if !policy.enabled {
        return Decision::Invalidate(DropReason::Disabled);
    }
    match predicted {
        Some((maintain, recompute)) if maintain <= recompute => Decision::Maintain,
        _ if recompute_cost <= policy.recompute_budget => Decision::Recompute,
        _ => Decision::Invalidate(DropReason::OverBudget),
    }
}

/// Exact witness count of [`two_path_delta`]'s two terms: every delta
/// tuple scans its join value's inverted list in `S` *after* the update
/// when it plays `ΔR`, and in `R` *before* it when it plays `ΔS`.
pub fn delta_cost(
    delta: &NormalizedDelta,
    r_before: &Relation,
    s_after: &Relation,
    delta_on_r: bool,
    delta_on_s: bool,
) -> u64 {
    let side = |other: &Relation| -> u64 {
        delta
            .signed()
            .filter(|&(_, y, _)| (y as usize) < other.y_domain())
            .map(|(_, y, _)| other.y_degree(y) as u64)
            .sum()
    };
    let on_r = if delta_on_r { side(s_after) } else { 0 };
    on_r + if delta_on_s { side(r_before) } else { 0 }
}

/// Past one witness (or row) per `DENSE_FRACTION` values of a domain, an
/// array over the domain costs less than sorting; below, nothing is paid
/// per domain value.
const DENSE_FRACTION: usize = 32;

/// One row of a signed delta: an output pair and its support change.
type DeltaRow = ((Value, Value), i64);

/// The signed delta of `π_{x,z}(R ⋈ S)` under one update, as ascending
/// `((x, z), Δsupport)` with no zero rows: `ΔR ⋈ S_after + R_before ⋈ ΔS`.
/// `delta` is the update of the relation that changed; `delta_on_r` /
/// `delta_on_s` say which side(s) of the query it occupies (both, for a
/// self join). Work and memory are `O(witnesses + |Δ|)`.
pub fn two_path_delta(
    delta: &NormalizedDelta,
    r_before: &Relation,
    s_after: &Relation,
    delta_on_r: bool,
    delta_on_s: bool,
) -> Vec<DeltaRow> {
    let mut signed: Vec<_> = delta.signed().collect();
    // Inserts then deletes, each ascending: two runs for the stable sort.
    signed.sort_by_key(|&(x, ..)| x);
    let mut by_r = Vec::new();
    if delta_on_r {
        delta_term(&signed, s_after, &mut by_r);
    }
    if !delta_on_s {
        return by_r;
    }
    // `R_before ⋈ ΔS` grouped by the delta's value is `z`-major.
    let mut by_s = Vec::new();
    delta_term(&signed, r_before, &mut by_s);
    merge_summing(&by_r, &x_major(by_s, r_before.x_domain()))
}

/// `π(Δ ⋈ other)` grouped by the delta's first column: every `(g, y, ±1)`
/// of `signed` (ascending `g`) adds its sign to `(g, p)` for each `p` in
/// `other`'s inverted list of `y`; `((g, p), Σ ≠ 0)` is appended to `out`,
/// ascending. A small group sorts the list of its witnesses; a large one
/// ([`DENSE_FRACTION`]) adds them into an `i32` per partner, marks a bitmap
/// and walks the marked words in order, clearing both — array and bitmap
/// allocated by the first group that needs them.
fn delta_term(signed: &[(Value, Value, i64)], other: &Relation, out: &mut Vec<DeltaRow>) {
    let mut listed: Vec<(Value, i64)> = Vec::new();
    let (mut sums, mut marked): (Vec<i32>, Vec<u64>) = (Vec::new(), Vec::new());
    for group in signed.chunk_by(|a, b| a.0 == b.0) {
        let g = group[0].0;
        let partners = || {
            group
                .iter()
                .filter(|&&(_, y, _)| (y as usize) < other.y_domain())
                .map(|&(_, y, sign)| (other.xs_of(y), sign))
        };
        let witnesses: usize = partners().map(|(ps, _)| ps.len()).sum();
        if witnesses <= other.x_domain() / DENSE_FRACTION {
            listed.clear();
            for (ps, sign) in partners() {
                listed.extend(ps.iter().map(|&p| (p, sign)));
            }
            listed.sort_unstable_by_key(|&(p, _)| p);
            for same in listed.chunk_by(|a, b| a.0 == b.0) {
                let sum: i64 = same.iter().map(|&(_, sign)| sign).sum();
                if sum != 0 {
                    out.push(((g, same[0].0), sum));
                }
            }
            continue;
        }
        if sums.is_empty() {
            sums = vec![0; other.x_domain()];
            marked = vec![0; other.x_domain().div_ceil(64)];
        }
        let (mut lo, mut hi) = (usize::MAX, 0);
        for (ps, sign) in partners() {
            let (Some(&first), Some(&last)) = (ps.first(), ps.last()) else {
                continue;
            };
            (lo, hi) = (lo.min(first as usize / 64), hi.max(last as usize / 64));
            for &p in ps {
                sums[p as usize] += sign as i32;
                marked[p as usize / 64] |= 1 << (p % 64);
            }
        }
        for (at, word) in marked.iter_mut().enumerate().take(hi + 1).skip(lo) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let p = at * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let sum = std::mem::take(&mut sums[p]);
                if sum != 0 {
                    out.push(((g, p as Value), sum as i64));
                }
            }
        }
    }
}

/// Turns `((z, x), Δ)` rows ascending by `(z, x)` into `((x, z), Δ)`
/// ascending by `(x, z)`, every `x` below `x_domain`: a stable counting
/// scatter on `x`, or a sort when the rows are few beside the domain.
fn x_major(rows: Vec<DeltaRow>, x_domain: usize) -> Vec<DeltaRow> {
    if rows.len() <= x_domain / DENSE_FRACTION {
        let mut out: Vec<DeltaRow> = rows.iter().map(|&((z, x), d)| ((x, z), d)).collect();
        out.sort_unstable_by_key(|&(pair, _)| pair);
        return out;
    }
    let mut next = vec![0usize; x_domain + 1];
    for &((_, x), _) in &rows {
        next[x as usize + 1] += 1;
    }
    for x in 0..x_domain {
        next[x + 1] += next[x];
    }
    let mut out = vec![((0, 0), 0); rows.len()];
    for ((z, x), d) in rows {
        out[next[x as usize]] = ((x, z), d);
        next[x as usize] += 1;
    }
    out
}

/// Two-way merge of ascending delta rows, adding the changes of a pair
/// both sides carry and dropping it when they cancel.
fn merge_summing(a: &[DeltaRow], b: &[DeltaRow]) -> Vec<DeltaRow> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                if a[i].1 + b[j].1 != 0 {
                    out.push((a[i].0, a[i].1 + b[j].1));
                }
                (i, j) = (i + 1, j + 1);
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_api::DeltaSink;
    use mmjoin_storage::{Edge, RelationDelta};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rel(edges: &[Edge]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    /// The reference [`two_path_delta`] replaced: the three-term identity
    /// over the relations *before* the update, `ΔR ⋈ S + R ⋈ ΔS + ΔR ⋈ ΔS`,
    /// one buffered row per witness, sorted and coalesced at the end.
    fn accumulate_two_path_delta(
        delta: &NormalizedDelta,
        r_old: &Relation,
        s_old: &Relation,
        delta_on_r: bool,
        delta_on_s: bool,
    ) -> Vec<DeltaRow> {
        let mut sink = DeltaSink::new();
        let in_domain = |y: Value, other: &Relation| (y as usize) < other.y_domain();
        if delta_on_r {
            for (x, y, sign) in delta.signed().filter(|t| in_domain(t.1, s_old)) {
                for &z in s_old.xs_of(y) {
                    sink.add(&[x, z], sign);
                }
            }
        }
        if delta_on_s {
            for (z, y, sign) in delta.signed().filter(|t| in_domain(t.1, r_old)) {
                for &x in r_old.xs_of(y) {
                    sink.add(&[x, z], sign);
                }
            }
        }
        if delta_on_r && delta_on_s {
            for (x, y, sign_r) in delta.signed() {
                for (z, _, sign_s) in delta.signed().filter(|t| t.1 == y) {
                    sink.add(&[x, z], sign_r * sign_s);
                }
            }
        }
        sink.into_deltas()
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

    /// Patches the result of `r_old ⋈ s_old` with `norm`'s delta — which
    /// must be the reference's — at every `min_count` × `with_counts`,
    /// checking supports, rows and counts against a from-scratch build
    /// over `r_new ⋈ s_new`. Returns the patched supports.
    fn patched(
        norm: &NormalizedDelta,
        (r_old, s_old): (&Relation, &Relation),
        (r_new, s_new): (&Relation, &Relation),
        (delta_on_r, delta_on_s): (bool, bool),
    ) -> DeltaResult {
        let deltas = two_path_delta(norm, r_old, s_new, delta_on_r, delta_on_s);
        assert_eq!(
            deltas,
            accumulate_two_path_delta(norm, r_old, s_old, delta_on_r, delta_on_s),
            "delta {norm:?}"
        );
        let expected = result_of(&brute_force(r_new, s_new));
        assert_eq!(
            DeltaResult::from_signed(&deltas_of(&brute_force(r_new, s_new))),
            expected
        );
        for (min_count, with_counts) in (1..=3).flat_map(|m| [(m, false), (m, true)]) {
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
        // Seconds against seconds; the budget bounds the tuple mass.
        assert_eq!(decide(Some((1e-6, 1e-5)), 100, &policy), Decision::Maintain);
        assert_eq!(decide(None, 100, &policy), Decision::Recompute);
        assert_eq!(
            decide(Some((5e-5, 1e-5)), 100, &policy),
            Decision::Recompute
        );
        assert_eq!(
            decide(Some((5e-5, 1e-5)), 2000, &policy),
            Decision::Invalidate(DropReason::OverBudget)
        );
        assert_eq!(
            decide(Some((1e-6, 1e-5)), 2000, &policy),
            Decision::Maintain
        );
        assert_eq!(
            decide(Some((1e-6, 1e-5)), 100, &MaintenancePolicy::default()),
            Decision::Invalidate(DropReason::Disabled)
        );
        for (at, reason) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(reason as usize, at, "{}", reason.name());
        }
    }

    #[test]
    fn delta_cost_counts_partner_degrees() {
        let r = rel(&[(0, 0), (1, 0), (2, 1)]); // deg(y=0)=2, deg(y=1)=1
        let delta = RelationDelta::new().insert(9, 0).normalize(&r);
        let after = r.apply_normalized(&delta);
        // One delta tuple on y=0 against both sides of a self join: 3
        // (ΔR ⋈ S_after, the new tuple included) + 2 (R_before ⋈ ΔS).
        assert_eq!(delta_cost(&delta, &r, &after, true, true), 5);
        assert_eq!(delta_cost(&delta, &r, &r, true, false), 2);
        assert_eq!(delta_cost(&delta, &r, &after, false, true), 2);
        // A join value the other side has never seen has no partners.
        let fresh = RelationDelta::new().insert(9, 7).normalize(&r);
        assert_eq!(delta_cost(&fresh, &r, &r, true, false), 0);
    }

    /// A relation over `dom` × `ys` with a few hubs: `x` values holding
    /// every `y` in a range, so some delta groups expand past
    /// `dom / DENSE_FRACTION` witnesses and most stay under it.
    fn skewed(dom: Value, ys: Value, sparse: &[Edge], hubs: &[Value]) -> Relation {
        let hub_edges = hubs
            .iter()
            .flat_map(|&x| (0..ys).map(move |y| (x % dom, y)));
        rel(&sparse
            .iter()
            .map(|&(x, y)| (x % dom, y % ys))
            .chain(hub_edges)
            .collect::<Vec<_>>())
    }

    /// One group over the dense switch and one under it, partners on the
    /// bitmap's word boundaries (63, 64, `dom − 1`), inserted and deleted.
    #[test]
    fn both_group_branches_on_word_boundaries() {
        let dom = 256;
        let edges = [0, 63, 64, 127, 128, dom - 1];
        // y = 0: the boundary values and 20 more (dense); y = 1: three.
        let base: Vec<Edge> = edges
            .iter()
            .map(|&x| (x, 0))
            .chain((1..=20).map(|x| (x, 0)))
            .chain([(63, 1), (64, 1), (dom - 1, 1)])
            .collect();
        let r = rel(&base);
        let witnesses = |x, y| {
            let one = RelationDelta::new().insert(x, y).normalize(&r);
            delta_cost(&one, &r, &r, true, false) as usize
        };
        assert!(witnesses(300, 0) > r.x_domain() / DENSE_FRACTION);
        assert!(witnesses(301, 1) <= r.x_domain() / DENSE_FRACTION);
        let mut delta = RelationDelta::new();
        delta
            .insert(300, 0)
            .insert(301, 1)
            .delete(63, 0)
            .delete(64, 1);
        delta.insert(dom - 1, 2).insert(64, 2);
        let result = maintained_equals_recompute(&base, &delta);
        assert_eq!(result.support_of(300, dom - 1), 1);
        assert_eq!(result.support_of(63, 64), 0, "63 kept y=1, 64 kept y=0");
        assert_eq!(result.support_of(64, dom - 1), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `two_path_delta` against the reference it replaced, and the
        /// patched entry against a from-scratch one: a self join, an `R`-only and an `S`-only update, mixed
        /// inserts and deletes that grow either domain (`x` up to
        /// `dom + 3`, `y` up to `ys + 2`), empty a support (the hubs'
        /// tuples are deleted wholesale) and touch `z` on the bitmap's
        /// word boundaries. With domains of 64–200 the dense switch sits
        /// at 2–6 witnesses, so groups fall on both sides of it
        /// (`both_group_branches_on_word_boundaries` pins that).
        #[test]
        fn delta_equals_the_buffered_reference(
            dom in prop::sample::select(vec![64u32, 65, 128, 200]),
            r_sparse in prop::collection::vec((0u32..200, 0u32..12), 1..60),
            s_sparse in prop::collection::vec((0u32..200, 0u32..12), 1..60),
            hubs in prop::collection::vec(0u32..200, 0..4),
            batch in prop::collection::vec((0u32..203, 0u32..14, any::<bool>()), 1..40),
            wipe in any::<bool>(),
        ) {
            let ys = 12;
            // Partners on word boundaries, always present.
            let edge_xs = [63, 64 % dom, dom - 1];
            let boundary: Vec<Edge> = edge_xs.iter().map(|&x| (x, 0)).collect();
            let r = skewed(dom, ys, &[r_sparse, boundary.clone()].concat(), &hubs);
            let s = skewed(dom, ys, &[s_sparse, boundary].concat(), &hubs);
            for (updated, on_r, on_s) in [(&r, true, true), (&r, true, false), (&s, false, true)] {
                let mut delta = RelationDelta::new();
                for &(x, y, insert) in &batch {
                    if insert {
                        delta.insert(x % (dom + 3), y);
                    } else {
                        delta.delete(x % dom, y % ys);
                    }
                }
                if wipe {
                    // Every tuple of the first hub (or of x = 63) goes: its
                    // pairs' supports reach zero.
                    let x = hubs.first().map_or(63, |&h| h % dom);
                    for &y in updated.ys_of(x) {
                        delta.delete(x, y);
                    }
                }
                let norm = delta.normalize(updated);
                let new = updated.apply_normalized(&norm);
                let r_old = if on_r { updated } else { &r };
                let s_old = if on_s { updated } else { &s };
                let r_new = if on_r { &new } else { r_old };
                let s_new = if on_s { &new } else { s_old };
                patched(&norm, (r_old, s_old), (r_new, s_new), (on_r, on_s));
            }
        }
    }
}
