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
use mmjoin_service::maintain::accumulate_two_path_delta;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
    /// sides and need the `ΔR ⋈ ΔS` cross term — equals a from-scratch
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
            let (r_old, s_old) = (r.clone(), s.clone());
            if *on_r { r = new } else { s = new }

            let mut sink = DeltaSink::new();
            accumulate_two_path_delta(&mut sink, &norm, &r_old, &s_old, *on_r, !*on_r);
            let mut patches = vec![(&mut cross, sink.into_deltas(), recomputed(&r, &s))];
            if *on_r {
                let mut sink = DeltaSink::new();
                accumulate_two_path_delta(&mut sink, &norm, &r_old, &r_old, true, true);
                patches.push((&mut selfjoin, sink.into_deltas(), recomputed(&r, &r)));
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
                prop_assert_eq!(&got.rows.values, &rows, "min {}", min_count);
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
    let (rows_before, counts_before) = (before.rows.values.clone(), (*before.counts).clone());
    // (0,1) gives set 0 a second element shared with set 2 and a second
    // witness for (0,0): rows enter and a count changes.
    assert_eq!(service.insert("R", [(0, 1)]).unwrap().maintained, 1);
    assert_eq!(before.rows.values, rows_before, "the response's rows moved");
    assert_eq!(*before.counts, counts_before, "the response's counts moved");

    let after = service.query(request.clone()).unwrap();
    assert!(after.maintained);
    assert!(!Arc::ptr_eq(&before.rows, &after.rows));
    let model: BTreeSet<Edge> = [(0, 0), (0, 1), (1, 0), (2, 1), (3, 1)].into();
    let (rows, counts) = expected_entry(&model, &model, 1, true);
    assert_eq!((&after.rows.values, &*after.counts), (&rows, &counts));
    assert!(rows.len() > rows_before.len());

    // Nothing but the cache holds the entry now: the next patch reuses the
    // allocations instead of copying them.
    let (rows_at, counts_at) = (Arc::as_ptr(&after.rows), Arc::as_ptr(&after.counts));
    drop((before, after));
    assert_eq!(service.delete("R", [(0, 1)]).unwrap().maintained, 1);
    let patched = service.query(request).unwrap();
    assert_eq!(
        patched.rows.values, rows_before,
        "the delete undoes the insert"
    );
    assert_eq!(Arc::as_ptr(&patched.rows), rows_at, "rows were copied");
    assert_eq!(
        Arc::as_ptr(&patched.counts),
        counts_at,
        "counts were copied"
    );
}
