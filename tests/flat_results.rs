//! The result store, measured at the allocator: a result travels from the
//! engine to the cache entry to the `Response` as the engine handed it — its
//! own flat buffer, or a Boolean core's product kept as its cells — never
//! copied, so what serving adds on top of the engine is a number of
//! allocations and of bytes that does not depend on `|OUT|` — when the
//! answer is stored, shown, cut by a limit or evicted.
//!
//! The allocator's counters (`support/counting_alloc.rs`) are per thread, and
//! every service here runs its queries on the calling thread with serial
//! engines, so the tests do not disturb each other under the parallel test
//! runner.

use mmjoin::{Query, Relation, Request, Response, Service, ServiceConfig};
use mmjoin_api::{CountSink, ExecStats, QueryGraph};
use mmjoin_service::command::run_line;
use mmjoin_service::{CacheEntry, CachedResult, ResultCache};
use std::sync::Arc;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tallied;

/// `sets` sets that all hold elements 0 and 1: any two of them join.
fn overlapping(sets: u32) -> Relation {
    Relation::from_edges((0..sets).flat_map(|x| [(x, 0), (x, 1)]))
}

/// The three legs of a chain `A(a, b), B(b, c), C(c, d)` whose answer is
/// all `sets²` pairs `(a, d)`: `A` maps every `a` to 0 and 1, `B` is the
/// identity on them, `C` maps each back to every `d`.
fn chain_legs(sets: u32) -> [Relation; 3] {
    [
        overlapping(sets),
        Relation::from_edges([(0, 0), (1, 1)]),
        Relation::from_edges((0..sets).flat_map(|d| [(0, d), (1, d)])),
    ]
}

/// What a cold `request` asks of the allocator on top of the engine run it
/// contains — allocations and bytes: the same query on the same engine into
/// a sink that stores nothing is the baseline. Also returns the response.
fn serving_allocs(service: &Service, request: Request, query: &Query<'_>) -> (Response, u64, u64) {
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
    let allocs = served.allocs.saturating_sub(engine.allocs);
    let bytes = served.bytes.saturating_sub(engine.bytes);
    (response, allocs, bytes)
}

/// Growth doublings of two arrays, the entry, the cache slot, the request's
/// names, the stats — whatever it is, it is this much at any `|OUT|`.
const SERVING_ALLOCS: u64 = 32;

/// The bytes of those allocations: the answer itself is the engine's buffer,
/// so none of them is the size of the answer (at least 160 kB below).
const SERVING_BYTES: u64 = 4 << 10;

/// Checks what `serving_allocs` measured at a small and a large `|OUT|`:
/// a bounded overhead, the same at both sizes.
fn assert_flat_overhead(costs: &[(usize, u64, u64)]) {
    for &(rows, allocs, bytes) in costs {
        assert!(rows >= 20_000);
        assert!(
            allocs <= SERVING_ALLOCS,
            "{allocs} allocations to store {rows} rows"
        );
        assert!(bytes <= SERVING_BYTES, "{bytes} bytes to store {rows} rows");
    }
    let &[(_, small_allocs, small_bytes), (_, large_allocs, large_bytes)] = costs else {
        panic!("two sizes");
    };
    // Four times the rows: a couple more doublings of a small array at most,
    // and not a byte that follows the answer.
    assert!(large_allocs <= small_allocs + 4, "{costs:?}");
    assert!(large_bytes <= small_bytes + 512, "{costs:?}");
}

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
        let request = Request::two_path(name, name);
        let (response, allocs, bytes) = serving_allocs(&service, request, &query);
        assert_eq!(response.rows.len(), (sets * sets) as usize);
        assert!(
            response.counts.is_empty(),
            "an uncounted family stores none"
        );
        costs.push((response.rows.len(), allocs, bytes));
    }
    assert_flat_overhead(&costs);
}

#[test]
fn a_cold_star_allocates_the_same_at_any_output_size() {
    let service = Service::with_default_registry();
    let mut costs = Vec::new();
    for (tag, legs) in [("s", [30u32, 28, 26]), ("l", [48, 46, 44])] {
        let rels: Vec<Relation> = legs.iter().map(|&n| overlapping(n)).collect();
        let names: Vec<String> = (0..3).map(|i| format!("{tag}{i}")).collect();
        for (name, &n) in names.iter().zip(&legs) {
            service.register(name.clone(), overlapping(n));
        }
        let query = Query::star(&rels).build().unwrap();
        let (response, allocs, bytes) = serving_allocs(&service, Request::star(&names), &query);
        assert_eq!(response.rows.len() as u32, legs.iter().product::<u32>());
        assert_eq!(response.rows.arity(), 3);
        costs.push((response.rows.len(), allocs, bytes));
    }
    assert_flat_overhead(&costs);
}

#[test]
fn a_cold_chain_allocates_the_same_at_any_output_size() {
    let service = Service::with_default_registry();
    let mut costs = Vec::new();
    for (tag, sets) in [("s", 150u32), ("l", 300)] {
        let rels = chain_legs(sets);
        let names: Vec<String> = ["A", "B", "C"].map(|leg| format!("{tag}{leg}")).into();
        for (name, rel) in names.iter().zip(chain_legs(sets)) {
            service.register(name.clone(), rel);
        }
        let query = Query::general(QueryGraph::chain(&rels).unwrap()).unwrap();
        let (response, allocs, bytes) = serving_allocs(&service, Request::chain(&names), &query);
        assert_eq!(response.rows.len(), (sets * sets) as usize);
        costs.push((response.rows.len(), allocs, bytes));
    }
    assert_flat_overhead(&costs);
}

/// A matrix answer is served as its product: through the REPL grammar, a
/// cold two-path and star over relations the Boolean core multiplies cache
/// the product's cells, and `show 20` on the hit writes the twenty rows it
/// prints and nothing of the rest. Both ask the allocator for the same bytes
/// at either `|OUT|` — the cold one on top of its engine run.
#[test]
fn a_served_and_shown_matrix_answer_allocates_the_same_at_any_output_size() {
    let service = Service::with_default_registry();
    let mut costs = Vec::new();
    for (tag, sets, star_sets) in [("s", 150u32, 30u32), ("l", 300, 60)] {
        let two = format!("{tag}R");
        service.register(two.clone(), overlapping(sets));
        let legs: Vec<String> = (0..3).map(|i| format!("{tag}{i}")).collect();
        for leg in &legs {
            service.register(leg.clone(), overlapping(star_sets));
        }
        let r = overlapping(sets);
        let rels: Vec<Relation> = (0..3).map(|_| overlapping(star_sets)).collect();
        let two_path = Query::two_path(&r, &r).build().unwrap();
        let star = Query::star(&rels).build().unwrap();
        for (line, query, rows) in [
            (format!("query twopath {two} {two}"), &two_path, sets * sets),
            (
                format!("query star {}", legs.join(" ")),
                &star,
                star_sets.pow(3),
            ),
        ] {
            let (cold, served) = tallied(usize::MAX, || run_line(&service, &line).unwrap());
            assert!(cold.starts_with(&format!("ok rows {rows} engine MMJoin cached false")));
            let ((), engine) = tallied(usize::MAX, || {
                let mut sink = CountSink::new();
                service
                    .registry()
                    .execute("MMJoin", query, &mut sink)
                    .unwrap();
                assert_eq!(sink.rows, rows as u64);
            });
            let (entries, held) = service.cache_size();
            assert!(
                held < 4 * rows as usize,
                "{line}: {held} bytes for {rows} rows"
            );
            let (shown, show) = tallied(usize::MAX, || {
                run_line(&service, &format!("{line} show 20")).unwrap()
            });
            assert!(shown.contains("cached true"), "{shown}");
            assert_eq!(shown.lines().count(), 22, "{shown}");
            assert!(shown.ends_with(&format!("… {} more", rows - 20)), "{shown}");
            assert_eq!(
                service.cache_size(),
                (entries, held),
                "show wrote only its rows"
            );
            costs.push((line, served.bytes.saturating_sub(engine.bytes), show.bytes));
        }
    }
    let (small, large) = costs.split_at(2);
    for ((_, small_served, small_show), (line, served, show)) in small.iter().zip(large) {
        assert!(*served <= SERVING_BYTES, "{line}: {served} bytes");
        // The first query of the service pays its one-time allocations.
        assert!(*served <= small_served + 512, "{line}: {costs:?}");
        // The printed line counts the rows not shown: a digit more.
        assert!(show.abs_diff(*small_show) <= 64, "{line}: {costs:?}");
    }
}

/// An evicted entry is freed in a constant number of blocks, whatever its
/// size: flat rows (two relations whose join is its output, expanded) and a
/// product's cells (two dense relations).
#[test]
fn evicting_an_entry_frees_the_same_at_any_output_size() {
    // A one-entry cache: the probe query displaces whatever came before
    // it, and frees it before returning.
    let frees_evicting = |victim: Relation, rows: usize, product: bool| {
        let service = Service::with_config(ServiceConfig {
            cache_capacity: 1,
            ..ServiceConfig::default()
        });
        service.register("victim", victim);
        service.register("probe", overlapping(2));
        let answer = service
            .query(Request::two_path("victim", "victim"))
            .unwrap()
            .rows;
        assert_eq!((answer.len(), answer.is_product()), (rows, product));
        drop(answer);
        let (_, tally) = tallied(usize::MAX, || {
            service.query(Request::two_path("probe", "probe")).unwrap();
        });
        assert_eq!(service.cache_counters().2, 1, "one eviction");
        tally.frees
    };
    // Sets in tens, each ten sharing one element: 100 pairs a ten.
    let tens = |sets: u32| Relation::from_edges((0..sets).map(|x| (x, x / 10)));
    for (small, large) in [
        (
            frees_evicting(tens(10), 100, false),
            frees_evicting(tens(16_000), 160_000, false),
        ),
        (
            frees_evicting(overlapping(50), 2500, true),
            frees_evicting(overlapping(200), 40_000, true),
        ),
    ] {
        assert!(large <= small + 2, "{large} frees against {small}");
    }
}

/// A limit cuts the engine's rows in place — flat rows by truncation, a
/// product by writing exactly the rows that fit — and the service gives back
/// the capacity past the cut: the cached entry holds exactly its rows, and
/// `CacheEntry::bytes` is its true heap size. An answer the limit does not
/// cut is kept as the engine handed it: the two-path and the star as their
/// product's cells, smaller than their rows, the chain flat.
#[test]
fn a_limit_cuts_through_the_bulk_path() {
    let service = Service::with_default_registry();
    let r = overlapping(40);
    for name in ["A", "B", "C"] {
        service.register(name, r.clone());
    }
    for (name, rel) in ["CA", "CB", "CC"].into_iter().zip(chain_legs(40)) {
        service.register(name, rel);
    }
    // 1600 pairs, 64 000 triples and 1600 pairs; limits at nothing, one
    // row, the full answer and beyond it.
    for (request, total, product) in [
        (Request::two_path("A", "B"), 1600usize, true),
        (Request::star(["A", "B", "C"]), 64_000, true),
        (Request::chain(["CA", "CB", "CC"]), 1600, false),
    ] {
        let full = service.query(request.clone()).unwrap();
        assert_eq!(full.rows.len(), total);
        assert_eq!(full.rows.is_product(), product);
        assert!(!full.truncated);
        for limit in [0usize, 1, total, total + 5] {
            let (_, before) = service.cache_size();
            let cut = service.query(request.clone().limit(limit as u64)).unwrap();
            let (_, after) = service.cache_size();
            let kept = limit.min(total);
            assert_eq!(cut.rows.len(), kept, "limit {limit}");
            assert_eq!(cut.truncated, limit <= total, "limit {limit}");
            assert_eq!(cut.stats.rows, kept as u64);
            let arity = full.rows.arity();
            assert_eq!(cut.rows.first(kept), full.rows.first(kept));
            let (held, flat) = (cut.rows.heap_bytes(), 4 * kept * arity);
            if kept < total || !product {
                assert!(!cut.rows.is_product(), "limit {limit}");
                assert_eq!(held, flat, "limit {limit}: exact capacity");
            } else {
                assert!(cut.rows.is_product() && held < flat, "limit {limit}");
            }
            assert_eq!(cut.counts.capacity(), cut.counts.len());
            assert_eq!(after - before, held, "limit {limit}: bytes() is exact");
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
    assert_eq!((hit.rows.arity(), hit.rows.len()), (2, 2));
    assert_eq!(hit.rows.values(), [1, 2, 3, 4]);
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
    };
    cache.insert(7, request.clone(), vec![1, 1, 1], entry);
    let (hit, probe) = tallied(usize::MAX, || cache.get(7, &request, &[1, 1, 1]));
    let hit = hit.expect("a hit");
    assert_eq!(probe.allocs, 0, "{probe:?}");
    assert!(Arc::ptr_eq(&hit.stats, &cold.stats) && Arc::ptr_eq(&hit.rows, &cold.rows));
    let ((), dropped) = tallied(usize::MAX, || drop(hit));
    assert_eq!((dropped.allocs, dropped.frees), (0, 0), "{dropped:?}");
}
