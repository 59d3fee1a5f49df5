//! Service-layer integration tests: the acceptance smoke test (all four
//! families from concurrent clients with cache hits and invalidation),
//! fingerprint canonicalization properties, and byte-identical cache
//! semantics.

use mmjoin::{QuerySpec, Relation, Request, Service, Value};
use mmjoin_datagen::DatasetKind;
use proptest::prelude::*;

const SEED: u64 = 2020;

fn smoke_service() -> Service {
    let service = Service::with_default_registry();
    service.register(
        "jokes",
        mmjoin_datagen::generate(DatasetKind::Jokes, 0.02, SEED),
    );
    service.register(
        "dblp",
        mmjoin_datagen::generate(DatasetKind::Dblp, 0.02, SEED),
    );
    service
}

/// The acceptance-criteria smoke test: ≥ 2 relations, all four query
/// families, ≥ 4 concurrent client threads, ≥ 1 cache hit with identical
/// results, and invalidation after a relation update.
#[test]
fn concurrent_smoke_all_families() {
    let service = smoke_service();
    let workload = vec![
        Request::two_path("jokes", "jokes"),
        Request::two_path_counts("dblp", "dblp", 2),
        Request::star(["dblp", "dblp", "dblp"]),
        Request::similarity("jokes", 2),
        Request::containment("dblp"),
    ];

    // Cold reference pass (single-threaded) for row comparison.
    let reference: Vec<_> = workload
        .iter()
        .map(|r| service.query(r.clone()).expect("cold query"))
        .collect();

    // 4 client threads × the whole workload: every result must equal the
    // reference byte for byte, cached or not.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let service = &service;
            let workload = &workload;
            let reference = &reference;
            scope.spawn(move || {
                for (request, expected) in workload.iter().zip(reference) {
                    let got = service.query(request.clone()).expect("warm query");
                    assert_eq!(got.rows, expected.rows, "{request:?}");
                    assert_eq!(got.counts, expected.counts, "{request:?}");
                    assert_eq!(got.rows.arity(), expected.rows.arity());
                }
            });
        }
    });

    let metrics = service.metrics();
    assert_eq!(metrics.queries_served, 25, "5 cold + 4×5 warm");
    assert!(
        metrics.cache_hits >= 20,
        "all warm queries must hit: {metrics:?}"
    );
    assert_eq!(metrics.errors, 0);

    // Invalidation: a brand-new set sharing a fresh element with set 0
    // guarantees output pairs that did not exist before the update.
    let mut edges: Vec<(Value, Value)> = service.relation_edges("jokes").unwrap();
    let new_set = edges.iter().map(|&(x, _)| x).max().unwrap_or(0) + 1;
    let new_elem = edges.iter().map(|&(_, y)| y).max().unwrap_or(0) + 1;
    edges.push((new_set, new_elem));
    edges.push((0, new_elem));
    service
        .update("jokes", Relation::from_edges(edges))
        .unwrap();

    let fresh = service.query(Request::two_path("jokes", "jokes")).unwrap();
    assert!(!fresh.cached, "update must invalidate the cached result");
    assert_ne!(
        fresh.rows, reference[0].rows,
        "the hub element creates new output pairs"
    );
}

/// Cache hits return byte-identical rows (and counts) to cold execution,
/// across every family.
#[test]
fn cache_hits_are_byte_identical() {
    let service = smoke_service();
    for request in [
        Request::two_path("dblp", "dblp"),
        Request::two_path_counts("jokes", "jokes", 3),
        Request::star(["dblp", "dblp"]),
        Request::similarity("dblp", 1).ordered(),
        Request::containment("jokes"),
        Request::two_path("jokes", "jokes").limit(17),
    ] {
        let cold = service.query(request.clone()).unwrap();
        let warm = service.query(request.clone()).unwrap();
        assert!(!cold.cached && warm.cached, "{request:?}");
        assert_eq!(cold.rows, warm.rows, "{request:?}");
        assert_eq!(cold.counts, warm.counts, "{request:?}");
        assert_eq!(cold.stats.engine, warm.stats.engine);
    }
}

/// A catalog update never serves a stale cached result, even when an
/// unrelated relation is updated in between (which must NOT invalidate).
#[test]
fn unrelated_update_keeps_cache_warm() {
    let service = smoke_service();
    let request = Request::two_path("dblp", "dblp");
    let cold = service.query(request.clone()).unwrap();

    // Updating jokes must not evict dblp results…
    let jokes = service.relation_edges("jokes").unwrap();
    service
        .update("jokes", Relation::from_edges(jokes))
        .unwrap();
    let warm = service.query(request.clone()).unwrap();
    assert!(warm.cached, "unrelated update must not invalidate");
    assert_eq!(cold.rows, warm.rows);

    // …while updating dblp itself must.
    let mut dblp = service.relation_edges("dblp").unwrap();
    let max_y = dblp.iter().map(|&(_, y)| y).max().unwrap_or(0);
    dblp.push((0, max_y + 1));
    dblp.push((1, max_y + 1));
    service.update("dblp", Relation::from_edges(dblp)).unwrap();
    let fresh = service.query(request).unwrap();
    assert!(!fresh.cached, "own update must invalidate");
}

/// The pairs `(x, z)` of `R(x, y) ⋈ S(z, y)`, ascending.
fn reference_two_path(r: &[(Value, Value)], s: &[(Value, Value)]) -> Vec<(Value, Value)> {
    let mut pairs: Vec<(Value, Value)> = r
        .iter()
        .flat_map(|&(x, y)| s.iter().filter(move |e| e.1 == y).map(move |e| (x, e.0)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Replacing or removing a relation frees the cached results over it at
/// once — and only those — and counts them as invalidations; an update
/// that changes no tuple keeps them.
#[test]
fn a_replaced_relations_cached_results_are_freed_at_once() {
    let service = Service::with_default_registry();
    let r_edges: Vec<(Value, Value)> = (0..40).map(|i| (i % 9, i % 7)).collect();
    let s_edges: Vec<(Value, Value)> = (0..40).map(|i| (i % 5, (i * 3) % 7)).collect();
    service.register("R", Relation::from_edges(r_edges.clone()));
    service.register("S", Relation::from_edges(s_edges.clone()));
    let (rr, ss, rs) = (
        Request::two_path("R", "R"),
        Request::two_path("S", "S"),
        Request::two_path("R", "S"),
    );
    let star = Request::star(["S", "S"]);
    let bytes_of = |requests: &[&Request]| -> usize {
        let answers = requests.iter().map(|&q| service.query(q.clone()).unwrap());
        answers
            .map(|a| a.rows.heap_bytes() + 4 * a.counts.len())
            .sum()
    };
    let fill = |requests: &[&Request]| {
        for q in requests {
            service.query((*q).clone()).unwrap();
        }
    };
    let sorted = |request: &Request| {
        let answer = service.query(request.clone()).unwrap();
        let mut rows: Vec<(Value, Value)> = answer.rows.iter().map(|r| (r[0], r[1])).collect();
        rows.sort_unstable();
        (answer.cached, rows)
    };
    let invalidations = || service.cache_counters().3;
    fill(&[&rr, &ss, &rs, &star]);
    let (entries, bytes) = service.cache_size();
    assert_eq!(entries, 4);
    let over_r = bytes_of(&[&rr, &rs]);

    // Registering `R` again, even with the same tuples, frees both entries
    // over it and nothing else.
    service.register("R", Relation::from_edges(r_edges.clone()));
    assert_eq!(service.cache_size(), (2, bytes - over_r));
    assert_eq!(invalidations(), 2);
    assert!(service.query(ss.clone()).unwrap().cached);
    assert_eq!(
        sorted(&rr),
        (false, reference_two_path(&r_edges, &r_edges)),
        "the next query over R misses and answers afresh"
    );

    // An update with the same tuples keeps the epoch and the entries.
    fill(&[&rs]);
    let (epoch, held) = (service.relation_epoch("S"), service.cache_size());
    service
        .update("S", Relation::from_edges(s_edges.clone()))
        .unwrap();
    assert_eq!(service.relation_epoch("S"), epoch);
    assert_eq!((service.cache_size(), invalidations()), (held, 2));
    assert!(service.query(star.clone()).unwrap().cached);

    // One that changes a tuple frees the three entries over `S`.
    let over_s = bytes_of(&[&ss, &rs, &star]);
    let mut s_next = s_edges.clone();
    s_next.push((9, 1));
    service
        .update("S", Relation::from_edges(s_next.clone()))
        .unwrap();
    assert_eq!(service.cache_size(), (held.0 - 3, held.1 - over_s));
    assert_eq!(invalidations(), 5);
    assert_eq!(sorted(&rs), (false, reference_two_path(&r_edges, &s_next)));

    // Removing `R` frees what is left over it: `R ⋈ R` and `R ⋈ S`.
    assert!(service.remove("R"));
    assert_eq!(invalidations(), 7);
    assert_eq!(service.cache_size().0, 0);
    assert!(service.query(rr).is_err());
}

fn name_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "R".to_string(),
        "S".to_string(),
        " R ".to_string(),
        "R\t".to_string(),
        "rel_a".to_string(),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonicalization is idempotent and fingerprint-stable: hashing a
    /// request equals hashing its canonical form, and canonicalizing
    /// twice changes nothing.
    #[test]
    fn fingerprint_is_canonicalization_stable(
        r in name_strategy(),
        s in name_strategy(),
        with_counts in any::<bool>(),
        min_count in 0u32..5,
        limit in prop::option::of(0u64..100),
    ) {
        let request = Request {
            spec: QuerySpec::TwoPath { r, s, with_counts, min_count },
            limit,
            engine: None,
        };
        let canon = request.clone().canonical();
        prop_assert_eq!(canon.clone().canonical(), canon.clone(), "idempotent");
        prop_assert_eq!(request.fingerprint(), canon.fingerprint());
    }

    /// Semantically equal 2-path requests hash equal: `min_count` is dead
    /// when counts are off, and name whitespace never matters.
    #[test]
    fn semantically_equal_requests_hash_equal(
        min_a in 0u32..8,
        min_b in 0u32..8,
        pad_left in 0usize..3,
        pad_right in 0usize..3,
    ) {
        let a = Request {
            spec: QuerySpec::TwoPath {
                r: format!("{}R{}", " ".repeat(pad_left), " ".repeat(pad_right)),
                s: "S".into(),
                with_counts: false,
                min_count: min_a,
            },
            limit: None,
            engine: None,
        };
        let b = Request {
            spec: QuerySpec::TwoPath {
                r: "R".into(),
                s: "S".into(),
                with_counts: false,
                min_count: min_b,
            },
            limit: None,
            engine: None,
        };
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// Necessary distinctions are preserved: different relation names,
    /// thresholds, families, or limits never collapse to one entry.
    #[test]
    fn distinct_requests_hash_distinct(c1 in 1u32..50, c2 in 1u32..50) {
        prop_assume!(c1 != c2);
        prop_assert_ne!(
            Request::similarity("R", c1).fingerprint(),
            Request::similarity("R", c2).fingerprint()
        );
        prop_assert_ne!(
            Request::similarity("R", c1).fingerprint(),
            Request::similarity("S", c1).fingerprint()
        );
        prop_assert_ne!(
            Request::similarity("R", c1).fingerprint(),
            Request::containment("R").fingerprint()
        );
        prop_assert_ne!(
            Request::two_path("R", "S").limit(c1 as u64).fingerprint(),
            Request::two_path("R", "S").limit(c2 as u64).fingerprint()
        );
    }

    /// End-to-end: equal-fingerprint requests actually share one cache
    /// entry in a live service.
    #[test]
    fn equal_fingerprints_share_cache_entry(min_count in 0u32..5) {
        let service = Service::with_default_registry();
        service.register("R", Relation::from_edges([(0, 0), (1, 0), (2, 1)]));
        let sloppy = Request {
            spec: QuerySpec::TwoPath {
                r: " R".into(),
                s: "R ".into(),
                with_counts: false,
                min_count,
            },
            limit: None,
            engine: None,
        };
        let tidy = Request::two_path("R", "R");
        let a = service.query(sloppy).unwrap();
        let b = service.query(tidy).unwrap();
        prop_assert!(!a.cached && b.cached, "canonical forms must collide");
        prop_assert_eq!(a.rows, b.rows);
    }
}
