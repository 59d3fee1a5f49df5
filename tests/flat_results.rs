//! The flat result store, measured at the allocator: a result travels from
//! the engine's buffer to the cache entry to the `Response` as one flat
//! array, so what serving adds on top of the engine is a number of
//! allocations that does not depend on `|OUT|` — when the answer is
//! stored, when its entry is evicted, and when an update patches it.
//!
//! The allocator's counters (`support/counting_alloc.rs`) are per thread, and
//! every service here runs its queries on the calling thread with serial
//! engines, so the tests do not disturb each other under the parallel test
//! runner.

use mmjoin::{Query, Relation, Request, Response, Service, ServiceConfig, Value};
use mmjoin_api::{CountSink, ExecStats};
use mmjoin_service::{CacheEntry, CachedResult, ResultCache};
use std::sync::Arc;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tallied;

/// `sets` sets that all hold elements 0 and 1: any two of them join.
fn overlapping(sets: u32) -> Relation {
    Relation::from_edges((0..sets).flat_map(|x| [(x, 0), (x, 1)]))
}

/// Allocations a cold `request` costs on top of the engine run it
/// contains: the same query on the same engine into a sink that stores
/// nothing is the baseline. Also returns the response.
fn serving_allocs(service: &Service, request: Request, query: &Query<'_>) -> (Response, u64) {
    let (response, served) = tallied(usize::MAX, || service.query(request).unwrap());
    assert!(!response.cached);
    let (rows, engine) = tallied(usize::MAX, || {
        let mut sink = CountSink::new();
        service
            .registry()
            .execute(&response.stats.engine, query, &mut sink)
            .unwrap();
        sink.rows
    });
    assert_eq!(rows, response.rows.len() as u64);
    (response, served.allocs.saturating_sub(engine.allocs))
}

/// Growth doublings of two arrays, the entry, the cache slot, the request's
/// names, the stats — whatever it is, it is this much at any `|OUT|`.
const SERVING_ALLOCS: u64 = 32;

#[test]
fn a_cold_two_path_allocates_the_same_at_any_output_size() {
    let service = Service::with_default_registry();
    let mut costs = Vec::new();
    for (name, sets) in [("small", 150u32), ("large", 300)] {
        let r = overlapping(sets);
        // An equal relation, not a clone: a clone would share the packed
        // rows the served query leaves behind, and the baseline run must be
        // as cold as the served one.
        service.register(name, overlapping(sets));
        let query = Query::two_path(&r, &r).build().unwrap();
        let (response, allocs) = serving_allocs(&service, Request::two_path(name, name), &query);
        assert_eq!(response.rows.len(), (sets * sets) as usize);
        assert!(response.rows.len() >= 20_000);
        assert!(
            response.counts.is_empty(),
            "an uncounted family stores none"
        );
        assert!(
            allocs <= SERVING_ALLOCS,
            "{allocs} allocations to store {} rows",
            response.rows.len()
        );
        costs.push(allocs);
    }
    // Four times the rows: a couple more doublings at most.
    assert!(costs[1] <= costs[0] + 4, "{costs:?}");
}

#[test]
fn a_cold_star_allocates_the_same_at_any_output_size() {
    let service = Service::with_default_registry();
    let mut costs = Vec::new();
    for (tag, legs) in [("s", [30u32, 28, 26]), ("l", [48, 46, 44])] {
        let rels: Vec<Relation> = legs.iter().map(|&n| overlapping(n)).collect();
        let names: Vec<String> = (0..3).map(|i| format!("{tag}{i}")).collect();
        for (name, rel) in names.iter().zip(&rels) {
            service.register(name.clone(), rel.clone());
        }
        let query = Query::star(&rels).build().unwrap();
        let (response, allocs) = serving_allocs(&service, Request::star(&names), &query);
        assert_eq!(response.rows.len() as u32, legs.iter().product::<u32>());
        assert!(response.rows.len() >= 20_000);
        assert_eq!(response.rows.arity, 3);
        assert!(
            allocs <= SERVING_ALLOCS,
            "{allocs} allocations to store {} rows",
            response.rows.len()
        );
        costs.push(allocs);
    }
    assert!(costs[1] <= costs[0] + 4, "{costs:?}");
}

#[test]
fn evicting_an_entry_frees_the_same_at_any_output_size() {
    // A one-entry cache: the probe query displaces whatever came before
    // it, and frees it before returning.
    let frees_evicting = |sets: u32| {
        let service = Service::with_config(ServiceConfig {
            cache_capacity: 1,
            ..ServiceConfig::default()
        });
        service.register("victim", overlapping(sets));
        service.register("probe", overlapping(2));
        let rows = service
            .query(Request::two_path("victim", "victim"))
            .unwrap()
            .rows
            .len();
        assert_eq!(rows, (sets * sets) as usize);
        let (_, tally) = tallied(usize::MAX, || {
            service.query(Request::two_path("probe", "probe")).unwrap();
        });
        assert_eq!(service.cache_counters().2, 1, "one eviction");
        tally.frees
    };
    let (small, large) = (frees_evicting(3), frees_evicting(200));
    assert!(large <= small + 2, "{large} frees against {small}");
}

/// `sets` sets sharing element 0 — `sets²` pairs from `sets` edges, so
/// nothing about the relation is anywhere near the size of the answer —
/// queried, then taken through the first-touch recompute and one patch
/// that lets rows enter, which grows every array past its exact-fit
/// capacity. From there on an update patches arrays that have room, and a
/// one-edge insert on element 1 moves the same few rows whatever `sets` is.
fn maintained(sets: Value) -> (Service, Request) {
    let service = Service::with_default_registry();
    service.register("R", Relation::from_edges((0..sets).map(|x| (x, 0))));
    let request = Request::two_path("R", "R");
    service.query(request.clone()).unwrap();
    assert_eq!(service.insert("R", [(0, 1)]).unwrap().recomputed, 1);
    assert_eq!(
        service.insert("R", [(sets + 100, 1)]).unwrap().maintained,
        1
    );
    (service, request)
}

#[test]
fn a_one_edge_insert_patches_a_large_entry_in_place() {
    let sets = 200;
    let (service, request) = maintained(sets);
    let values_bytes = {
        let response = service.query(request.clone()).unwrap();
        assert!(response.maintained && response.rows.len() == 40_003);
        std::mem::size_of_val(&response.rows.values[..])
    };

    // The cache holds the only reference: five rows enter, no block the
    // size of the answer is allocated ...
    let insert = |service: &Service, x: Value| {
        let report = service.insert("R", [(x, 1)]).unwrap();
        assert_eq!((report.maintained, report.recomputed), (1, 0));
    };
    let ((), sole) = tallied(values_bytes, || insert(&service, sets + 200));
    assert_eq!(sole.big, 0, "a sole owner is patched where it is");
    // ... and the same update against an entry a sixteenth the size asks
    // the allocator as often: the count does not follow `|OUT|`.
    let (small, _) = maintained(sets / 4);
    let ((), baseline) = tallied(usize::MAX, || insert(&small, sets / 4 + 200));
    assert!(
        sole.allocs <= baseline.allocs + 4,
        "{} allocations against {} on a small entry",
        sole.allocs,
        baseline.allocs
    );

    // A response still reads the rows: they are copied once — one block the
    // size of the flat array — and the response keeps what it was given.
    let held = service.query(request.clone()).unwrap();
    let rows_held = held.rows.values.to_vec();
    let ((), shared) = tallied(values_bytes, || insert(&service, sets + 300));
    assert_eq!(shared.big, 1, "exactly the values are copied, exactly once");
    assert_eq!(held.rows.values, rows_held);

    // Maintained == recomputed, in canonical order.
    let after = service.query(request.clone()).unwrap();
    assert_eq!(after.rows.len(), rows_held.len() / 2 + 7);
    let fresh = Service::with_default_registry();
    fresh.register(
        "R",
        Relation::from_edges(service.relation_edges("R").unwrap()),
    );
    let recomputed = fresh.query(request).unwrap();
    let mut expected: Vec<&[Value]> = recomputed.rows.iter().collect();
    expected.sort_unstable();
    assert!(after.rows.iter().eq(expected));
}

#[test]
fn a_limit_cuts_through_the_bulk_path() {
    let service = Service::with_default_registry();
    let r = overlapping(40);
    for name in ["A", "B", "C"] {
        service.register(name, r.clone());
    }
    // 1600 pairs and 64 000 triples; limits inside the first pair chunk,
    // past it, at the full answer and beyond it.
    for (request, total) in [
        (Request::two_path("A", "B"), 1600usize),
        (Request::star(["A", "B", "C"]), 64_000),
    ] {
        let full = service.query(request.clone()).unwrap();
        assert_eq!(full.rows.len(), total);
        assert!(!full.truncated);
        for limit in [0usize, 1, 511, 513, 700, total, total + 5] {
            let cut = service.query(request.clone().limit(limit as u64)).unwrap();
            let kept = limit.min(total);
            assert_eq!(cut.rows.len(), kept, "limit {limit}");
            assert_eq!(cut.truncated, limit <= total, "limit {limit}");
            assert_eq!(cut.stats.rows, kept as u64);
            let arity = full.rows.arity;
            assert_eq!(cut.rows.values, &full.rows.values[..kept * arity]);
            if kept > 0 {
                assert_eq!(cut.rows.row(kept - 1), full.rows.row(kept - 1));
            }
        }
    }
}

/// The per-row literal `benchmark/trajectory` fills its probe cache with
/// still goes in, and comes out as one flat entry.
#[test]
fn the_per_row_literal_converts_to_one_flat_entry() {
    let request = Request::two_path("R", "R").canonical();
    let old = CachedResult {
        arity: 2,
        rows: Arc::new(vec![vec![1, 2], vec![3, 4]]),
        counts: Arc::new(vec![0, 0]),
        stats: ExecStats::new("MMJoin", 2),
        truncated: false,
        support: None,
        maintained: false,
    };
    let mut cache = ResultCache::new(1);
    assert!(cache.insert(7, request.clone(), vec![1, 1], old).is_none());
    let hit = cache.get(7, &request, &[1, 1]).expect("a hit");
    assert_eq!((hit.rows.arity, hit.rows.len()), (2, 2));
    assert_eq!(hit.rows.values, [1, 2, 3, 4]);
    assert_eq!(hit.rows.iter().nth(1), Some(&[3, 4][..]));
    assert_eq!(cache.bytes(), 16 + 8);
}

/// A hit under the cache lock — the one lock every warm request on every
/// reader thread takes — is a recency stamp and a reference-count bump per
/// shared part: nothing is allocated, whatever the stats carry (here a
/// planned chain's `PlanStats` with its steps), and nothing is freed when
/// the hit is dropped while the entry lives.
#[test]
fn a_cache_hit_allocates_nothing() {
    let service = Service::with_default_registry();
    service.register("R", overlapping(40));
    let cold = service.query(Request::chain(["R", "R", "R"])).unwrap();
    let plan = cold.stats.plan.as_ref().expect("MMJoin's record");
    assert!(!plan.steps.is_empty() && !cold.stats.engine.is_empty());

    let request = Request::chain(["R", "R", "R"]).canonical();
    let mut cache = ResultCache::new(4);
    let entry = CacheEntry {
        rows: Arc::clone(&cold.rows),
        counts: Arc::clone(&cold.counts),
        stats: Arc::clone(&cold.stats),
        truncated: false,
        support: None,
        maintained: false,
    };
    cache.insert(7, request.clone(), vec![1, 1, 1], entry);
    let (hit, probe) = tallied(usize::MAX, || cache.get(7, &request, &[1, 1, 1]));
    let hit = hit.expect("a hit");
    assert_eq!(probe.allocs, 0, "{probe:?}");
    assert!(Arc::ptr_eq(&hit.stats, &cold.stats) && Arc::ptr_eq(&hit.rows, &cold.rows));
    let ((), dropped) = tallied(usize::MAX, || drop(hit));
    assert_eq!((dropped.allocs, dropped.frees), (0, 0), "{dropped:?}");
}
