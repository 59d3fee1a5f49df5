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
                    assert_eq!(got.rows.arity, expected.rows.arity);
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
