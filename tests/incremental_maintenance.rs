//! Property tests for the incremental-maintenance path: across random
//! insert/delete interleavings, delta-maintained cached results must be
//! identical to recomputing from scratch over the final relation — same
//! rows, same witness counts — including the delete-below-support edge
//! case where removing the last witness of an output pair must remove
//! the pair itself.
//!
//! Maintained entries serve rows in canonical sorted order while a fresh
//! engine execution uses its own emission order, so against a cold service
//! rows are compared as sorted sequences (the multiset-of-rows contract
//! both sides promise). Against a from-scratch *refresh* — the counting
//! execution an eager recompute runs — the patched entry must be equal
//! outright: rows, counts, row order and supports.

use mmjoin::{
    default_registry, DeltaResult, DeltaSink, MaintenancePolicy, Query, Relation, RelationDelta,
    Request, Response, Service, ServiceConfig, Value,
};
use mmjoin_datagen::{generate, DatasetKind};
use mmjoin_service::maintain::two_path_delta;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tallied;

type Edge = (Value, Value);

fn maintaining_service() -> Service {
    Service::with_default_registry()
}

fn sorted_rows(response: &Response) -> Vec<Vec<Value>> {
    let mut rows = response.rows.to_rows();
    rows.sort();
    rows
}

fn sorted_counted_rows(response: &Response) -> Vec<(Vec<Value>, u32)> {
    let mut rows: Vec<(Vec<Value>, u32)> = response
        .rows
        .iter()
        .map(<[Value]>::to_vec)
        .zip(response.counts.iter().copied())
        .collect();
    assert_eq!(rows.len(), response.rows.len(), "a count for every row");
    rows.sort();
    rows
}

/// One staged op: `(x, y, kind)` with kind 0 = insert, 1 = delete.
type Op = (Value, Value, u32);

fn delta_of(batch: &[Op]) -> RelationDelta {
    let mut delta = RelationDelta::new();
    for &(x, y, kind) in batch {
        if kind == 0 {
            delta.insert(x, y);
        } else {
            delta.delete(x, y);
        }
    }
    delta
}

/// Independent model of one batch: `(base ∪ inserts) \ deletes` (deletes
/// win within a batch, matching `RelationDelta`'s documented semantics).
fn apply_to_model(model: &mut BTreeSet<Edge>, batch: &[Op]) {
    for &(x, y, kind) in batch {
        if kind == 0 {
            model.insert((x, y));
        }
    }
    for &(x, y, kind) in batch {
        if kind != 0 {
            model.remove(&(x, y));
        }
    }
}

/// The rows a refreshed `π(R ⋈ S)` entry must serve for `request`-style
/// parameters, from the edge sets alone: supports by nested loops, the
/// visible pairs in ascending order as one flat array, and their counts
/// (none for an uncounted request).
fn expected_entry(
    r: &BTreeSet<Edge>,
    s: &BTreeSet<Edge>,
    min_count: u32,
    with_counts: bool,
) -> (Vec<Value>, Vec<u32>) {
    let mut support: BTreeMap<(Value, Value), u32> = BTreeMap::new();
    for &(x, y1) in r {
        for &(z, y2) in s {
            if y1 == y2 {
                *support.entry((x, z)).or_insert(0) += 1;
            }
        }
    }
    visible_rows(&support, min_count, with_counts)
}

/// [`expected_entry`] for relations too large for nested loops: `S` grouped
/// by `y` first. The same shape as the code under test, so only
/// `every_batch_class_agrees_with_recompute_and_reference` uses it, after
/// checking it against the nested loops.
fn expected_entry_grouped(
    r: &BTreeSet<Edge>,
    s: &BTreeSet<Edge>,
    min_count: u32,
    with_counts: bool,
) -> (Vec<Value>, Vec<u32>) {
    let mut by_y: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
    for &(z, y) in s {
        by_y.entry(y).or_default().push(z);
    }
    let mut support: BTreeMap<(Value, Value), u32> = BTreeMap::new();
    for &(x, y) in r {
        for &z in by_y.get(&y).into_iter().flatten() {
            *support.entry((x, z)).or_insert(0) += 1;
        }
    }
    visible_rows(&support, min_count, with_counts)
}

fn visible_rows(
    support: &BTreeMap<(Value, Value), u32>,
    min_count: u32,
    with_counts: bool,
) -> (Vec<Value>, Vec<u32>) {
    let visible = || support.iter().filter(|&(_, &c)| c >= min_count);
    (
        visible().flat_map(|(&(x, z), _)| [x, z]).collect(),
        visible().filter(|_| with_counts).map(|(_, &c)| c).collect(),
    )
}

/// What `recompute_entry` builds: the counting join run into a
/// `DeltaSink`, sorted and coalesced into supports.
fn recomputed(r: &Relation, s: &Relation) -> DeltaResult {
    let query = Query::TwoPath {
        r,
        s,
        with_counts: true,
        min_count: 1,
    };
    let mut sink = DeltaSink::new();
    default_registry(1)
        .execute("MMJoin", &query, &mut sink)
        .expect("counting two-path");
    DeltaResult::from_signed(&sink.into_deltas())
}

/// One cache entry's maintained state, patched in place step by step.
struct Entry {
    min_count: u32,
    with_counts: bool,
    support: DeltaResult,
    rows: Vec<Value>,
    counts: Vec<u32>,
}

/// Every `min_count` × `with_counts` entry over `r ⋈ s`, freshly built.
fn entries(r: &Relation, s: &Relation) -> Vec<Entry> {
    let support = recomputed(r, s);
    let mut all = Vec::new();
    for min_count in 1..=3 {
        for with_counts in [false, true] {
            let (rows, counts) = support.rows(min_count, with_counts);
            all.push(Entry {
                min_count,
                with_counts,
                support: support.clone(),
                rows,
                counts,
            });
        }
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The patch itself, below the service: after every step of a random
    /// interleaving of updates to `R` and to `S`, each in-place entry —
    /// `π(R ⋈ S)`, and the self join `π(R ⋈ R)` whose updates hit both
    /// sides, the `ΔR ⋈ ΔS` cross term inside `ΔR ⋈ R_after` — equals a
    /// from-scratch
    /// recompute in supports, rows, counts and row order, at every
    /// `min_count` × `with_counts`. Small domains keep supports crossing
    /// the thresholds in both directions.
    #[test]
    fn patched_entry_equals_recompute(
        r_base in prop::collection::vec((0u32..6, 0u32..4), 1..16),
        s_base in prop::collection::vec((0u32..6, 0u32..4), 1..16),
        steps in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0u32..7, 0u32..5, 0u32..2), 1..6)),
            1..8,
        ),
    ) {
        let mut r = Relation::from_edges(r_base);
        let mut s = Relation::from_edges(s_base);
        let mut cross = entries(&r, &s);
        let mut selfjoin = entries(&r, &r);
        for (on_r, batch) in &steps {
            let old = if *on_r { r.clone() } else { s.clone() };
            let norm = delta_of(batch).normalize(&old);
            let new = old.apply_normalized(&norm);
            if *on_r { r = new } else { s = new }

            let r_old = if *on_r { old } else { r.clone() };
            let deltas = two_path_delta(&norm, &r_old, &s, *on_r, !*on_r);
            let mut patches = vec![(&mut cross, deltas, recomputed(&r, &s))];
            if *on_r {
                let deltas = two_path_delta(&norm, &r_old, &r, true, true);
                patches.push((&mut selfjoin, deltas, recomputed(&r, &r)));
            }
            for (entries, deltas, fresh) in patches {
                for e in entries.iter_mut() {
                    let before = e.rows.len() / 2;
                    let crossed = e
                        .support
                        .patch(&mut e.rows, &mut e.counts, &deltas, e.min_count, e.with_counts);
                    let crossed = crossed.expect("normalized deltas never go negative");
                    prop_assert_eq!(&e.support, &fresh);
                    let (rows, counts) = fresh.rows(e.min_count, e.with_counts);
                    prop_assert_eq!(before + crossed.entered - crossed.left, rows.len() / 2);
                    prop_assert_eq!(&e.rows, &rows, "min {} counts {}", e.min_count, e.with_counts);
                    prop_assert_eq!(&e.counts, &counts);
                }
            }
        }
    }

    /// The storage layer alone: applying random delta batches yields
    /// exactly the model set, independent of merge-vs-rebuild path.
    #[test]
    fn apply_delta_matches_set_model(
        base in prop::collection::vec((0u32..8, 0u32..6), 0..24),
        batches in prop::collection::vec(
            prop::collection::vec((0u32..10, 0u32..7, 0u32..2), 0..8),
            1..5,
        ),
    ) {
        let mut relation = Relation::from_edges(base.iter().copied());
        let mut model: BTreeSet<Edge> = base.into_iter().collect();
        for batch in &batches {
            relation = relation.apply_delta(&delta_of(batch));
            apply_to_model(&mut model, batch);
            let expected: Vec<Edge> = model.iter().copied().collect();
            prop_assert_eq!(relation.edges(), &expected[..]);
        }
    }

    /// The full service path: after every random batch, the maintained
    /// cached results (plain and counting two-path self joins) are
    /// identical to a from-scratch service over the final relation.
    #[test]
    fn maintained_results_equal_recompute(
        base in prop::collection::vec((0u32..8, 0u32..6), 1..24),
        batches in prop::collection::vec(
            prop::collection::vec((0u32..10, 0u32..7, 0u32..2), 1..8),
            1..4,
        ),
    ) {
        let service = maintaining_service();
        service.register("R", Relation::from_edges(base.iter().copied()));
        let plain = Request::two_path("R", "R");
        let counting = Request::two_path_counts("R", "R", 1);
        // Populate the cache so there is something to maintain.
        service.query(plain.clone()).unwrap();
        service.query(counting.clone()).unwrap();

        let mut model: BTreeSet<Edge> = base.into_iter().collect();
        for batch in &batches {
            service.apply_delta("R", &delta_of(batch)).unwrap();
            apply_to_model(&mut model, batch);

            // The catalog relation matches the model exactly.
            let expected: Vec<Edge> = model.iter().copied().collect();
            prop_assert_eq!(service.relation_edges("R").unwrap(), expected);

            // Cached (maintained or eagerly recomputed) answers equal a
            // cold service over the final state.
            let reference = maintaining_service();
            reference.register("R", Relation::from_edges(model.iter().copied()));
            let got_plain = service.query(plain.clone()).unwrap();
            let want_plain = reference.query(plain.clone()).unwrap();
            prop_assert!(got_plain.cached, "update must keep the entry warm");
            prop_assert_eq!(sorted_rows(&got_plain), sorted_rows(&want_plain));

            let got_counts = service.query(counting.clone()).unwrap();
            let want_counts = reference.query(counting.clone()).unwrap();
            prop_assert_eq!(
                sorted_counted_rows(&got_counts),
                sorted_counted_rows(&want_counts),
                "witness counts must survive maintenance"
            );
        }
    }

    /// The served entry, at every reachable `min_count` × `with_counts`:
    /// once an update has refreshed it (first touch recomputes, later ones
    /// patch in place), the response is exactly the canonical entry over
    /// the model — same rows in the same order, same counts.
    #[test]
    fn served_entries_are_canonical_after_every_update(
        base in prop::collection::vec((0u32..6, 0u32..4), 1..20),
        batches in prop::collection::vec(
            prop::collection::vec((0u32..7, 0u32..5, 0u32..2), 1..6),
            1..6,
        ),
    ) {
        let service = maintaining_service();
        service.register("R", Relation::from_edges(base.iter().copied()));
        let requests = [
            (Request::two_path("R", "R"), 1, false),
            (Request::two_path_counts("R", "R", 1), 1, true),
            (Request::two_path_counts("R", "R", 2), 2, true),
            (Request::two_path_counts("R", "R", 3), 3, true),
        ];
        for (request, _, _) in &requests {
            service.query(request.clone()).unwrap();
        }
        let mut model: BTreeSet<Edge> = base.into_iter().collect();
        let mut refreshed = false;
        for batch in &batches {
            let report = service.apply_delta("R", &delta_of(batch)).unwrap();
            apply_to_model(&mut model, batch);
            if report.is_noop() {
                continue;
            }
            prop_assert_eq!(
                report.maintained + report.recomputed,
                requests.len(),
                "{:?}", report
            );
            prop_assert_eq!(report.maintained > 0, refreshed, "first touch recomputes");
            refreshed = true;
            for (request, min_count, with_counts) in &requests {
                let got = service.query(request.clone()).unwrap();
                prop_assert!(got.cached);
                let (rows, counts) = expected_entry(&model, &model, *min_count, *with_counts);
                prop_assert_eq!(got.rows.values(), &rows[..], "min {}", min_count);
                prop_assert_eq!(&*got.counts, &counts, "min {}", min_count);
            }
        }
    }

    /// The maintained service agrees with the invalidate-everything
    /// baseline (which always recomputes) query for query.
    #[test]
    fn maintain_and_invalidate_policies_agree(
        base in prop::collection::vec((0u32..6, 0u32..5), 1..16),
        batch in prop::collection::vec((0u32..8, 0u32..6, 0u32..2), 1..8),
    ) {
        let maintained = maintaining_service();
        let baseline = Service::with_config(ServiceConfig {
            maintenance: MaintenancePolicy::disabled(),
            ..ServiceConfig::default()
        });
        for service in [&maintained, &baseline] {
            service.register("R", Relation::from_edges(base.iter().copied()));
            service.query(Request::two_path("R", "R")).unwrap();
            service.apply_delta("R", &delta_of(&batch)).unwrap();
        }
        let a = maintained.query(Request::two_path("R", "R")).unwrap();
        let b = baseline.query(Request::two_path("R", "R")).unwrap();
        prop_assert_eq!(sorted_rows(&a), sorted_rows(&b));
    }
}

/// The delete-below-support edge case, pinned deterministically: an
/// output pair must survive exactly as long as it has a witness.
#[test]
fn delete_below_support_edge_case() {
    let service = maintaining_service();
    // Sets 0 and 1 share elements {0, 1}: pair (0,1) has support 2.
    service.register("R", Relation::from_edges([(0, 0), (0, 1), (1, 0), (1, 1)]));
    let request = Request::two_path_counts("R", "R", 1);
    service.query(request.clone()).unwrap();

    // Build the support structure (first touch recomputes), then delete
    // one witness: (0,1)/(1,0) drop to support 1 but survive.
    service.insert("R", [(2, 0)]).unwrap();
    let report = service.delete("R", [(1, 1)]).unwrap();
    assert_eq!(report.maintained, 1, "the counting entry is patched");
    let after_one = service.query(request.clone()).unwrap();
    assert!(after_one.maintained);
    let rows = sorted_counted_rows(&after_one);
    assert!(
        rows.contains(&(vec![0, 1], 1)),
        "support 2 → 1 keeps the pair: {rows:?}"
    );

    // Delete the last shared element: the pair's support hits zero and it
    // disappears, while each set keeps its self-pair.
    let report = service.delete("R", [(1, 0)]).unwrap();
    assert_eq!(report.maintained, 1);
    let after_two = service.query(request.clone()).unwrap();
    assert!(after_two.maintained);
    let rows = sorted_counted_rows(&after_two);
    assert!(
        !rows
            .iter()
            .any(|(row, _)| row == &vec![0, 1] || row == &vec![1, 0]),
        "support 0 must remove the pair: {rows:?}"
    );
    assert!(rows.contains(&(vec![0, 0], 2)), "{rows:?}");

    // Ground truth: set 1 is now empty; only sets 0 and 2 remain.
    let reference = maintaining_service();
    reference.register("R", Relation::from_edges([(0, 0), (0, 1), (2, 0)]));
    let expected = reference.query(request).unwrap();
    assert_eq!(
        sorted_counted_rows(&after_two),
        sorted_counted_rows(&expected)
    );
}

/// Copy-on-write: a `Response` taken before an update shares the entry's
/// buffers, so patching must leave it reading the rows it was given; with
/// no response alive the entry's own buffers are patched where they are.
#[test]
fn patching_copies_only_what_a_response_still_reads() {
    let service = maintaining_service();
    service.register("R", Relation::from_edges([(0, 0), (1, 0), (2, 1)]));
    let request = Request::two_path_counts("R", "R", 1);
    service.query(request.clone()).unwrap();
    // First touch builds the supports; from here on updates patch.
    assert_eq!(service.insert("R", [(3, 1)]).unwrap().recomputed, 1);

    let before = service.query(request.clone()).unwrap();
    let (rows_before, counts_before) = (before.rows.values().to_vec(), (*before.counts).clone());
    // (0,1) gives set 0 a second element shared with set 2 and a second
    // witness for (0,0): rows enter and a count changes.
    assert_eq!(service.insert("R", [(0, 1)]).unwrap().maintained, 1);
    assert_eq!(
        before.rows.values(),
        rows_before,
        "the response's rows moved"
    );
    assert_eq!(*before.counts, counts_before, "the response's counts moved");

    let after = service.query(request.clone()).unwrap();
    assert!(after.maintained);
    assert!(!Arc::ptr_eq(&before.rows, &after.rows));
    let model: BTreeSet<Edge> = [(0, 0), (0, 1), (1, 0), (2, 1), (3, 1)].into();
    let (rows, counts) = expected_entry(&model, &model, 1, true);
    assert_eq!((after.rows.values(), &*after.counts), (&rows[..], &counts));
    assert!(rows.len() > rows_before.len());

    // Nothing but the cache holds the entry now: the next patch reuses the
    // allocations instead of copying them.
    let (rows_at, counts_at) = (Arc::as_ptr(&after.rows), Arc::as_ptr(&after.counts));
    drop((before, after));
    assert_eq!(service.delete("R", [(0, 1)]).unwrap().maintained, 1);
    let patched = service.query(request).unwrap();
    assert_eq!(
        patched.rows.values(),
        rows_before,
        "the delete undoes the insert"
    );
    assert_eq!(Arc::as_ptr(&patched.rows), rows_at, "rows were copied");
    assert_eq!(
        Arc::as_ptr(&patched.counts),
        counts_at,
        "counts were copied"
    );
}

/// Every batch class of the served benchmark — one edge, a handful, a bulk
/// delta and one the size of the relation — inserted and then deleted
/// again on a dense and on a skewed generated relation. After every batch
/// the maintained answer, a from-scratch counting execution and the
/// witness-by-witness reference agree row for row and count for count.
/// The first touch recomputes for want of supports, and the closing batch —
/// which deletes all but a few tuples, so its delta joins are the whole old
/// result while a recompute has almost nothing to read — must recompute on
/// price, supports and all.
#[test]
fn every_batch_class_agrees_with_recompute_and_reference() {
    for (kind, scale) in [(DatasetKind::Jokes, 0.05), (DatasetKind::Words, 0.03)] {
        let base = generate(kind, scale, 22);
        let (x_dom, y_dom) = (base.x_domain() as u64, base.y_domain() as u64);
        let service = maintaining_service();
        service.register("R", base.clone());
        let requests = [
            (Request::two_path("R", "R"), 1, false),
            (Request::two_path_counts("R", "R", 2), 2, true),
        ];
        for (request, _, _) in &requests {
            service.query(request.clone()).unwrap();
        }
        let mut model: BTreeSet<Edge> = base.edges().iter().copied().collect();
        // The grouped reference is the nested loops, on a sample they can afford.
        let sample: BTreeSet<Edge> = model.iter().copied().step_by(7).take(300).collect();
        for (_, min_count, with_counts) in &requests {
            assert_eq!(
                expected_entry_grouped(&sample, &sample, *min_count, *with_counts),
                expected_entry(&sample, &sample, *min_count, *with_counts)
            );
        }
        let check = |model: &BTreeSet<Edge>, what: &str| {
            let current = service.relation("R").unwrap();
            let fresh = recomputed(&current, &current);
            for (request, min_count, with_counts) in &requests {
                let got = service.query(request.clone()).unwrap();
                assert!(got.cached, "{kind:?} {what}: the update kept the entry");
                let want = expected_entry_grouped(model, model, *min_count, *with_counts);
                assert_eq!(
                    fresh.rows(*min_count, *with_counts),
                    want,
                    "{kind:?} {what}"
                );
                assert_eq!(
                    (got.rows.values(), &*got.counts),
                    (&want.0[..], &want.1),
                    "{kind:?} {what}"
                );
            }
        };

        let mut state = 0x2545_f491_4f6c_dd1du64;
        let (mut maintained, mut recomputed_entries) = (0, 0);
        for class in [1usize, 8, 64, 2048] {
            // Absent tuples, some of them past either domain.
            let mut batch = BTreeSet::new();
            while batch.len() < class {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let edge = (
                    ((state >> 33) % (x_dom + 2)) as Value,
                    ((state >> 13) % (y_dom + 2)) as Value,
                );
                if !model.contains(&edge) {
                    batch.insert(edge);
                }
            }
            for insert in [true, false] {
                let report = if insert {
                    model.extend(&batch);
                    service.insert("R", batch.iter().copied())
                } else {
                    model.retain(|edge| !batch.contains(edge));
                    service.delete("R", batch.iter().copied())
                }
                .unwrap();
                assert_eq!(report.inserted + report.deleted, class);
                assert_eq!(report.maintained + report.recomputed, requests.len());
                maintained += report.maintained;
                recomputed_entries += report.recomputed;
                check(&model, &format!("batch of {class}, insert {insert}"));
            }
        }
        // The first touch recomputes for want of supports. Which of the
        // later refreshes patch compares a prediction with a measurement, so
        // only the one with orders of magnitude to spare is asserted: the
        // 1-edge delete that follows (tens of witnesses, under a microsecond
        // at the model's prices, against the milliseconds the first touch
        // just measured for the whole join).
        assert!(recomputed_entries >= requests.len(), "{kind:?}");
        assert!(maintained >= requests.len(), "{kind:?}: {maintained}");

        let doomed: Vec<Edge> = model.iter().copied().skip(3).collect();
        model.retain(|edge| !doomed.contains(edge));
        let report = service.delete("R", doomed).unwrap();
        // The same margin the other way: every witness of the old result
        // against a recompute over three tuples.
        assert_eq!(report.recomputed, requests.len(), "{kind:?}: {report:?}");
        check(&model, "all but three tuples deleted");
    }
}

/// A counting answer over a pair past line 2 is recomputed by AND-popcount
/// over the relation's `x`-major rows — the record says `bit popcount` —
/// and after every random batch of inserts and deletes (present and
/// absent tuples, some past either domain, mixed in one delta) the served
/// answer, a from-scratch counting execution and the nested-loop reference
/// agree, counts included.
#[test]
fn a_recompute_past_line_two_counts_by_popcount() {
    let base = generate(DatasetKind::Jokes, 0.03, 35);
    let (x_dom, y_dom) = (base.x_domain() as u64, base.y_domain() as u64);
    let service = maintaining_service();
    service.register("R", base.clone());
    let request = Request::two_path_counts("R", "R", 2);
    let kernel = |response: &Response| response.stats.plan.as_ref().unwrap().heavy_backend;
    assert_eq!(
        kernel(&service.query(request.clone()).unwrap()),
        Some("bit popcount")
    );

    let mut model: BTreeSet<Edge> = base.edges().iter().copied().collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut recomputes = 0;
    for round in 0..12 {
        let mut batch = Vec::new();
        for _ in 0..1 + next(40) {
            let edge = (next(x_dom + 2) as Value, next(y_dom + 2) as Value);
            batch.push((edge.0, edge.1, next(2) as u32));
        }
        apply_to_model(&mut model, &batch);
        let report = service.apply_delta("R", &delta_of(&batch)).unwrap();
        let got = service.query(request.clone()).unwrap();
        assert!(got.cached, "round {round}: the update kept the entry");
        if report.recomputed > 0 {
            recomputes += 1;
            assert_eq!(kernel(&got), Some("bit popcount"), "round {round}");
        }
        let current = service.relation("R").unwrap();
        let want = expected_entry_grouped(&model, &model, 2, true);
        assert_eq!(
            recomputed(&current, &current).rows(2, true),
            want,
            "round {round}"
        );
        assert_eq!(
            (got.rows.values(), &*got.counts),
            (&want.0[..], &want.1),
            "round {round}"
        );
    }
    assert!(recomputes > 0, "the first touch recomputes");
}

/// One edge against a relation whose domains hold a million values: the
/// refresh — delta joins and patch — makes no block that grows with a
/// domain (the dense sums would be 4 MB, the scatter's counters 8 MB).
#[test]
fn a_one_edge_refresh_allocates_nothing_per_domain_value() {
    const DOMAIN: usize = 1_000_000;
    // 500 sets spread over the domain, five to an element.
    let edges: Vec<Edge> = (0..500).map(|i| (i * 1999, (i % 100) * 9973)).collect();
    let r = Relation::from_sorted_edges(DOMAIN, DOMAIN, edges);
    let mut entry = recomputed(&r, &r);
    let (mut rows, mut counts) = entry.rows(1, true);

    let norm = RelationDelta::inserting([(777_777, 9973)]).normalize(&r);
    let after = r.apply_normalized(&norm);
    let ((deltas, crossed), tally) = tallied(64 << 10, || {
        let deltas = two_path_delta(&norm, &r, &after, true, true);
        let crossed = entry.patch(&mut rows, &mut counts, &deltas, 1, true);
        (deltas, crossed)
    });
    // The new set joins the five that hold its element, both ways round,
    // and itself.
    assert_eq!(deltas.len(), 11);
    assert_eq!(crossed.map(|c| (c.entered, c.left)), Some((11, 0)));
    assert_eq!(entry, recomputed(&after, &after));
    assert_eq!(tally.big, 0, "{tally:?}");
    assert!(tally.allocs <= 24, "{tally:?}");
}
