//! Properties of the update path: an insert or delete frees the cached
//! results over its relation, and whatever is asked next is computed over
//! the updated relation. Across random insert/delete interleavings every
//! answer — plain, counting, at a `min_count`, under a limit — equals
//! nested loops over the model of the relations, including the
//! delete-below-support edge case, where removing the last witness of an
//! output pair must remove the pair itself.
//!
//! A fresh engine execution serves rows in its own emission order, so rows
//! are compared as sorted sequences (the multiset-of-rows contract every
//! engine promises).

use mmjoin::{
    default_registry, Query, QuerySpec, Relation, RelationDelta, Request, Response, Service, Value,
    VecSink,
};
use mmjoin_datagen::{generate, DatasetKind};
use mmjoin_obs::trace::{Stage, Tracer};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type Edge = (Value, Value);

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

/// The answer `π(R ⋈ S)` must give for `request`-style parameters, from
/// the edge sets alone: supports by nested loops, the visible pairs in
/// ascending order as one flat array, and their counts (none for an
/// uncounted request).
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
/// by `y` first. Its tests check it against the nested loops on a sample
/// before they trust it.
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

/// Checks a served two-path answer against nested loops over the named edge
/// sets: the same rows, each with its count where the request counts, or —
/// under a limit — `min(limit, |answer|)` distinct rows of it.
fn assert_reference(got: &Response, request: &Request, models: &BTreeMap<&str, BTreeSet<Edge>>) {
    let QuerySpec::TwoPath {
        r,
        s,
        with_counts,
        min_count,
    } = &request.spec
    else {
        panic!("{request:?} is not a two-path");
    };
    let (rows, counts) = expected_entry(
        &models[r.as_str()],
        &models[s.as_str()],
        (*min_count).max(1),
        *with_counts,
    );
    let counted = |rows: &[Value], counts: &[u32]| -> Vec<(Vec<Value>, u32)> {
        let counts = counts.iter().copied().chain(std::iter::repeat(0));
        let mut all: Vec<_> = rows.chunks(2).map(<[Value]>::to_vec).zip(counts).collect();
        all.sort();
        all
    };
    let want = counted(&rows, &counts);
    let served = counted(got.rows.values(), &got.counts);
    let expected_counts = if *with_counts { got.rows.len() } else { 0 };
    assert_eq!(got.counts.len(), expected_counts, "{request:?}");
    match request.limit {
        None => assert_eq!(served, want, "{request:?}"),
        Some(limit) => {
            assert_eq!(served.len(), want.len().min(limit as usize), "{request:?}");
            assert!(served.windows(2).all(|w| w[0] < w[1]), "{request:?}");
            assert!(served.iter().all(|row| want.contains(row)), "{request:?}");
        }
    }
}

/// A served answer as [`expected_entry`] writes one: pairs ascending, one
/// flat array, and their counts.
fn ascending(rows: &[Value], counts: &[u32]) -> (Vec<Value>, Vec<u32>) {
    let counts = counts
        .iter()
        .copied()
        .map(Some)
        .chain(std::iter::repeat(None));
    let mut all: Vec<(&[Value], Option<u32>)> = rows.chunks(2).zip(counts).collect();
    all.sort_unstable();
    (
        all.iter()
            .flat_map(|(row, _)| row.iter().copied())
            .collect(),
        all.iter().filter_map(|&(_, count)| count).collect(),
    )
}

/// A from-scratch execution of `π(R ⋈ S)` on the engine the service routes
/// to, outside any service or cache.
fn executed(
    r: &Relation,
    s: &Relation,
    min_count: u32,
    with_counts: bool,
) -> (Vec<Value>, Vec<u32>) {
    let query = Query::TwoPath {
        r,
        s,
        with_counts,
        min_count,
    };
    let mut sink = VecSink::new();
    default_registry(1)
        .execute("MMJoin", &query, &mut sink)
        .expect("two-path");
    ascending(sink.rows.values(), &sink.counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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

    /// The oracle of the update path: after every step of a random interleaving of inserts and
    /// deletes over `R` and `S`, every two-path answer — self and cross,
    /// plain, counting, at a `min_count`, under a limit — equals nested loops
    /// over the model, and the update dropped exactly the entries over the
    /// relation it changed.
    #[test]
    fn default_policy_answers_equal_reference_after_every_update(
        r_base in prop::collection::vec((0u32..6, 0u32..4), 1..16),
        s_base in prop::collection::vec((0u32..6, 0u32..4), 1..16),
        steps in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0u32..7, 0u32..5, 0u32..2), 1..6)),
            1..8,
        ),
    ) {
        let mut models: BTreeMap<&str, BTreeSet<Edge>> = BTreeMap::from([
            ("R", r_base.into_iter().collect()),
            ("S", s_base.into_iter().collect()),
        ]);
        let service = Service::with_default_registry();
        for (name, edges) in &models {
            service.register(*name, Relation::from_edges(edges.iter().copied()));
        }
        let requests = [
            Request::two_path("R", "R"),
            Request::two_path("R", "S"),
            Request::two_path("S", "R"),
            Request::two_path_counts("R", "S", 1),
            Request::two_path_counts("R", "R", 2),
            Request::two_path_counts("S", "R", 3),
            Request::two_path("R", "S").limit(3),
            Request::two_path_counts("S", "S", 1).limit(2),
        ];
        for request in &requests {
            let got = service.query(request.clone()).unwrap();
            assert_reference(&got, request, &models);
        }
        for (on_r, batch) in &steps {
            let name = if *on_r { "R" } else { "S" };
            let report = service.apply_delta(name, &delta_of(batch)).unwrap();
            apply_to_model(models.get_mut(name).unwrap(), batch);
            let over = requests
                .iter()
                .filter(|q| q.relation_names().contains(&name))
                .count();
            let dropped = if report.is_noop() { 0 } else { over };
            prop_assert_eq!(report.invalidated, dropped, "{:?}", report);
            for request in &requests {
                let got = service.query(request.clone()).unwrap();
                assert_reference(&got, request, &models);
            }
        }
    }

}

/// An update drops the cached results over its relation and touches
/// nothing else. Per insert and per delete: the entries over `R` leave the
/// cache at once and their bytes with them, each counts as an
/// invalidation, no entry is refreshed (the
/// update's span says what it dropped and has no child), the entries over
/// `S` alone keep hitting, and the next query over `R` misses and answers
/// what nested loops over the updated relations answer.
///
/// The one test of this file that traces: the tracer is process-global, and
/// no other test here mints a trace.
#[test]
fn an_update_under_the_default_drops_what_it_touches() {
    let sets = |n: u32| -> BTreeSet<Edge> { (0..40u32).map(|i| (i % n, i % 5)).collect() };
    let mut models = BTreeMap::from([("R", sets(8)), ("S", sets(7))]);
    let service = Service::with_default_registry();
    for (name, edges) in &models {
        service.register(*name, Relation::from_edges(edges.iter().copied()));
    }
    let elsewhere = [
        Request::two_path("S", "S"),
        Request::two_path_counts("S", "S", 2),
    ];
    let over_r = [
        Request::two_path("R", "R"),
        Request::two_path("R", "S"),
        Request::two_path_counts("S", "R", 2),
        Request::two_path("R", "S").limit(3),
    ];
    let star = Request::star(["R", "S"]);
    for request in &elsewhere {
        assert!(!service.query(request.clone()).unwrap().cached);
    }
    let (entries, bytes) = service.cache_size();
    assert_eq!(entries, elsewhere.len());

    let tracer = Tracer::global();
    tracer.set_enabled(true);
    for (line, edge, insert) in [
        ("insert R 40,0", (40, 0), true),
        ("delete R 0,0", (0, 0), false),
    ] {
        for request in over_r.iter().chain([&star]) {
            service.query(request.clone()).unwrap();
        }
        let dropped = over_r.len() + 1;
        assert_eq!(service.cache_size().0, entries + dropped);
        let invalidations = service.cache_counters().3;

        let root = tracer.begin(line).expect("tracing is on");
        let report = if insert {
            service.insert("R", [edge]).unwrap()
        } else {
            service.delete("R", [edge]).unwrap()
        };
        drop(root);
        let model = models.get_mut("R").unwrap();
        assert!(if insert {
            model.insert(edge)
        } else {
            model.remove(&edge)
        });

        assert_eq!(report.inserted + report.deleted, 1, "{line}");
        assert_eq!(report.invalidated, dropped, "{line}");
        assert_eq!(
            service.cache_size(),
            (entries, bytes),
            "{line}: freed at once"
        );
        assert_eq!(service.cache_counters().3, invalidations + dropped as u64);

        let trace = tracer.last(1).pop().expect("the update's trace");
        assert_eq!(trace.label, line);
        let update = trace
            .spans
            .iter()
            .find(|s| s.stage == Stage::Maintain)
            .expect("the update's span");
        assert_eq!(update.label, format!("update R: dropped {dropped}"));
        assert!(
            trace.spans.iter().all(|s| s.parent != update.id),
            "no entry was refreshed: {:?}",
            trace.spans
        );

        for request in &elsewhere {
            assert!(service.query(request.clone()).unwrap().cached, "{line}");
        }
        for request in &over_r {
            let got = service.query(request.clone()).unwrap();
            assert!(!got.cached, "{line}: {request:?}");
            assert_reference(&got, request, &models);
        }
        let star_rows = sorted_rows(&service.query(star.clone()).unwrap());
        let pairs = sorted_rows(&service.query(Request::two_path("R", "S")).unwrap());
        assert_eq!(star_rows, pairs, "{line}: a two-leg star is the two-path");
    }
    tracer.set_enabled(false);
    let metrics = service.metrics();
    assert_eq!((metrics.updates, metrics.invalidated), (2, 10));
}

/// The delete-below-support edge case, pinned deterministically: an
/// output pair must survive exactly as long as it has a witness.
#[test]
fn delete_below_support_edge_case() {
    let service = Service::with_default_registry();
    // Sets 0 and 1 share elements {0, 1}: pair (0,1) has support 2.
    service.register("R", Relation::from_edges([(0, 0), (0, 1), (1, 0), (1, 1)]));
    let request = Request::two_path_counts("R", "R", 1);
    service.query(request.clone()).unwrap();
    service.insert("R", [(2, 0)]).unwrap();
    service.query(request.clone()).unwrap();

    // Delete one witness: (0,1)/(1,0) drop to support 1 but survive.
    let report = service.delete("R", [(1, 1)]).unwrap();
    assert_eq!(report.invalidated, 1, "the counting entry is dropped");
    let after_one = service.query(request.clone()).unwrap();
    assert!(!after_one.cached);
    let rows = sorted_counted_rows(&after_one);
    assert!(
        rows.contains(&(vec![0, 1], 1)),
        "support 2 → 1 keeps the pair: {rows:?}"
    );

    // Delete the last shared element: the pair's support hits zero and it
    // disappears, while each set keeps its self-pair.
    service.delete("R", [(1, 0)]).unwrap();
    let after_two = service.query(request.clone()).unwrap();
    let rows = sorted_counted_rows(&after_two);
    assert!(
        !rows
            .iter()
            .any(|(row, _)| row == &vec![0, 1] || row == &vec![1, 0]),
        "support 0 must remove the pair: {rows:?}"
    );
    assert!(rows.contains(&(vec![0, 0], 2)), "{rows:?}");

    // Ground truth: set 1 is now empty; only sets 0 and 2 remain.
    let reference = Service::with_default_registry();
    reference.register("R", Relation::from_edges([(0, 0), (0, 1), (2, 0)]));
    let expected = reference.query(request).unwrap();
    assert_eq!(
        sorted_counted_rows(&after_two),
        sorted_counted_rows(&expected)
    );
}

/// Every batch class of the served benchmark — one edge, a handful, a bulk
/// delta and one the size of the relation — inserted and then deleted
/// again on a dense and on a skewed generated relation. Each update drops
/// the entries over the relation, so the first read after it is `cached
/// false`; that answer, a from-scratch execution outside the service and
/// the witness-by-witness reference agree row for row and count for count,
/// and the next read is served from the cache. The closing batch deletes
/// all but three tuples.
#[test]
fn every_batch_class_agrees_with_recompute_and_reference() {
    for (kind, scale) in [(DatasetKind::Jokes, 0.05), (DatasetKind::Words, 0.03)] {
        let base = generate(kind, scale, 22);
        let (x_dom, y_dom) = (base.x_domain() as u64, base.y_domain() as u64);
        let service = Service::with_default_registry();
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
            for (request, min_count, with_counts) in &requests {
                let got = service.query(request.clone()).unwrap();
                assert!(!got.cached, "{kind:?} {what}: the update dropped the entry");
                let want = expected_entry_grouped(model, model, *min_count, *with_counts);
                assert_eq!(
                    executed(&current, &current, *min_count, *with_counts),
                    want,
                    "{kind:?} {what}"
                );
                assert_eq!(
                    ascending(got.rows.values(), &got.counts),
                    want,
                    "{kind:?} {what}"
                );
                let again = service.query(request.clone()).unwrap();
                assert!(again.cached, "{kind:?} {what}: the recompute was cached");
            }
        };

        let mut state = 0x2545_f491_4f6c_dd1du64;
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
                assert_eq!(report.invalidated, requests.len());
                check(&model, &format!("batch of {class}, insert {insert}"));
            }
        }

        let doomed: Vec<Edge> = model.iter().copied().skip(3).collect();
        model.retain(|edge| !doomed.contains(edge));
        let report = service.delete("R", doomed).unwrap();
        assert_eq!(report.invalidated, requests.len(), "{kind:?}: {report:?}");
        check(&model, "all but three tuples deleted");
    }
}

/// A counting answer over a pair past line 2 is computed by AND-popcount
/// over the relation's `x`-major rows — the record says `bit popcount` —
/// and after every random batch of inserts and deletes (present and
/// absent tuples, some past either domain, mixed in one delta) the update
/// drops it, and the recomputed answer, a from-scratch execution and the
/// nested-loop reference agree, counts included.
#[test]
fn a_recompute_past_line_two_counts_by_popcount() {
    let base = generate(DatasetKind::Jokes, 0.03, 35);
    let (x_dom, y_dom) = (base.x_domain() as u64, base.y_domain() as u64);
    let service = Service::with_default_registry();
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
        assert_eq!(got.cached, report.is_noop(), "round {round}: {report:?}");
        if !got.cached {
            recomputes += 1;
            assert_eq!(kernel(&got), Some("bit popcount"), "round {round}");
        }
        let current = service.relation("R").unwrap();
        let want = expected_entry_grouped(&model, &model, 2, true);
        assert_eq!(executed(&current, &current, 2, true), want, "round {round}");
        assert_eq!(
            ascending(got.rows.values(), &got.counts),
            want,
            "round {round}"
        );
    }
    assert!(recomputes > 0, "an effective update drops the answer");
}
