//! Property tests for the query-graph IR and the decomposing planner:
//! composed-plan results must equal a naive materialize-everything
//! reference on random acyclic queries, the canonical 2-path graph must
//! degenerate to exactly the `Query::TwoPath` stream, and a 4-chain must
//! run end-to-end through the facade and the service (cached, then
//! epoch-invalidated).

use mmjoin::{
    Atom, Engine, JoinConfig, MmJoinEngine, Query, QueryGraph, Relation, Request, Service, VecSink,
};
use mmjoin_storage::Value;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn rel(edges: &[(Value, Value)]) -> Relation {
    Relation::from_edges(edges.iter().copied())
}

/// Brute-force reference: backtracking assignment over the atoms,
/// projected into a sorted distinct set.
fn naive(graph: &QueryGraph<'_>) -> Vec<Vec<Value>> {
    let mut remaining: Vec<&Atom> = graph.atoms().iter().collect();
    let mut ordered: Vec<&Atom> = vec![remaining.remove(0)];
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|a| {
                ordered
                    .iter()
                    .any(|o| [o.x, o.y].contains(&a.x) || [o.x, o.y].contains(&a.y))
            })
            .expect("connected graph");
        ordered.push(remaining.remove(pos));
    }
    fn go(
        ordered: &[&Atom],
        i: usize,
        bindings: &mut BTreeMap<u32, Value>,
        projection: &[u32],
        out: &mut BTreeSet<Vec<Value>>,
    ) {
        if i == ordered.len() {
            out.insert(projection.iter().map(|v| bindings[v]).collect());
            return;
        }
        let a = ordered[i];
        match (bindings.get(&a.x).copied(), bindings.get(&a.y).copied()) {
            (Some(x), Some(y)) => {
                if (x as usize) < a.relation.x_domain() && a.relation.contains(x, y) {
                    go(ordered, i + 1, bindings, projection, out);
                }
            }
            (Some(x), None) => {
                if (x as usize) < a.relation.x_domain() {
                    for &y in a.relation.ys_of(x) {
                        bindings.insert(a.y, y);
                        go(ordered, i + 1, bindings, projection, out);
                    }
                    bindings.remove(&a.y);
                }
            }
            (None, Some(y)) => {
                if (y as usize) < a.relation.y_domain() {
                    for &x in a.relation.xs_of(y) {
                        bindings.insert(a.x, x);
                        go(ordered, i + 1, bindings, projection, out);
                    }
                    bindings.remove(&a.x);
                }
            }
            (None, None) => {
                for &(x, y) in a.relation.edges() {
                    bindings.insert(a.x, x);
                    bindings.insert(a.y, y);
                    go(ordered, i + 1, bindings, projection, out);
                }
                bindings.remove(&a.x);
                bindings.remove(&a.y);
            }
        }
    }
    let mut out = BTreeSet::new();
    go(
        &ordered,
        0,
        &mut BTreeMap::new(),
        graph.projection(),
        &mut out,
    );
    out.into_iter().collect()
}

fn composed(graph: &QueryGraph<'_>) -> Vec<Vec<Value>> {
    let query = Query::general(graph.clone()).expect("valid graph");
    let mut sink = VecSink::new();
    MmJoinEngine::new(JoinConfig::default())
        .execute(&query, &mut sink)
        .expect("composed execution");
    sink.rows.to_rows()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random chains (k = 2..5) equal the naive reference.
    #[test]
    fn random_chains_match_reference(
        e1 in proptest::collection::vec((0u32..12, 0u32..10), 0..50),
        e2 in proptest::collection::vec((0u32..10, 0u32..12), 0..50),
        e3 in proptest::collection::vec((0u32..12, 0u32..10), 0..50),
        e4 in proptest::collection::vec((0u32..10, 0u32..12), 0..50),
        k in 2usize..5,
    ) {
        let pool = [rel(&e1), rel(&e2), rel(&e3), rel(&e4)];
        let rels: Vec<&Relation> = pool.iter().take(k.max(2)).collect();
        let graph = QueryGraph::chain(&rels).unwrap();
        prop_assert_eq!(composed(&graph), naive(&graph));
    }

    /// Random stars (k = 1..4 legs) equal the naive reference.
    #[test]
    fn random_stars_match_reference(
        e1 in proptest::collection::vec((0u32..12, 0u32..8), 0..40),
        e2 in proptest::collection::vec((0u32..12, 0u32..8), 0..40),
        e3 in proptest::collection::vec((0u32..12, 0u32..8), 0..40),
        k in 1usize..4,
    ) {
        let pool = [rel(&e1), rel(&e2), rel(&e3)];
        let rels: Vec<&Relation> = pool.iter().take(k.max(1)).collect();
        let graph = QueryGraph::star(&rels).unwrap();
        prop_assert_eq!(composed(&graph), naive(&graph));
    }

    /// Random snowflakes — rays of random length around one centre, plus
    /// a pendant (non-projected leaf) atom exercising the semijoin rule —
    /// equal the naive reference.
    #[test]
    fn random_snowflakes_match_reference(
        e1 in proptest::collection::vec((0u32..10, 0u32..10), 1..40),
        e2 in proptest::collection::vec((0u32..10, 0u32..10), 1..40),
        e3 in proptest::collection::vec((0u32..10, 0u32..10), 1..40),
        ray_lens in proptest::collection::vec(1usize..3, 2..4),
        with_pendant in any::<bool>(),
    ) {
        let pool = [rel(&e1), rel(&e2), rel(&e3)];
        const CENTER: u32 = 100;
        let mut atoms: Vec<Atom> = Vec::new();
        let mut projection: Vec<u32> = Vec::new();
        let mut interior = 10u32; // fresh interior variable ids
        for (i, &len) in ray_lens.iter().enumerate() {
            // Ray: tip (projected, var i) — interior… — CENTER.
            let tip = i as u32;
            projection.push(tip);
            let mut from = tip;
            for hop in 0..len {
                let to = if hop + 1 == len { CENTER } else {
                    interior += 1;
                    interior
                };
                atoms.push(Atom {
                    relation: &pool[(i + hop) % pool.len()],
                    x: from,
                    y: to,
                });
                from = to;
            }
        }
        if with_pendant {
            atoms.push(Atom { relation: &pool[0], x: CENTER, y: 200 });
        }
        let graph = QueryGraph::new(atoms, projection).unwrap();
        prop_assert_eq!(composed(&graph), naive(&graph));
    }

    /// The canonical 2-path graph degenerates to exactly the existing
    /// `Query::TwoPath` result — same rows, same order.
    #[test]
    fn two_path_graph_degenerates_exactly(
        r_edges in proptest::collection::vec((0u32..15, 0u32..12), 0..70),
        s_edges in proptest::collection::vec((0u32..15, 0u32..12), 0..70),
    ) {
        let (r, s) = (rel(&r_edges), rel(&s_edges));
        let engine = MmJoinEngine::new(JoinConfig::default());

        let mut classic = VecSink::new();
        engine
            .execute(&Query::two_path(&r, &s).build().unwrap(), &mut classic)
            .unwrap();

        let graph = QueryGraph::two_path(&r, &s);
        let mut general = VecSink::new();
        engine
            .execute(&Query::general(graph).unwrap(), &mut general)
            .unwrap();

        prop_assert_eq!(general.rows, classic.rows, "stream must match exactly");
    }
}

/// The acceptance-criterion path: a 4-path chain end-to-end through the
/// facade engine and the service — cold, cached, isomorphic-rewrite hit,
/// then epoch-invalidated by a delta on one referenced relation.
#[test]
fn four_chain_end_to_end_through_facade_and_service() {
    let chain_rels = mmjoin_datagen::generate_chain(0.02, 7, 4);
    let refs: Vec<&Relation> = chain_rels.iter().collect();

    // Facade: composed plan equals the naive reference.
    let graph = QueryGraph::chain(&refs).unwrap();
    let expected = naive(&graph);
    assert!(!expected.is_empty(), "instance must produce rows");
    assert_eq!(composed(&graph), expected);

    // Service: same rows, cached on repeat, invalidated by updates.
    let service = Service::with_default_registry();
    for (i, r) in chain_rels.iter().enumerate() {
        service.register(format!("C{i}"), r.clone());
    }
    let names = ["C0", "C1", "C2", "C3"];
    let cold = service.query(Request::chain(names)).unwrap();
    assert!(!cold.cached);
    let mut rows = cold.rows.to_rows();
    rows.sort();
    assert_eq!(rows, expected);

    let warm = service.query(Request::chain(names)).unwrap();
    assert!(warm.cached, "repeat must hit the cache");
    assert_eq!(warm.rows, cold.rows);

    // A delta on the *third* relation of the chain must invalidate.
    let epoch_before = service.catalog_epoch();
    service.insert("C2", [(9_999u32, 9_999u32)]).unwrap();
    assert!(service.catalog_epoch() > epoch_before);
    let after = service.query(Request::chain(names)).unwrap();
    assert!(!after.cached, "update to any referenced relation must miss");

    // Explain never executes but sees the now-warm entry afterwards.
    let lines = service.explain(Request::chain(names)).unwrap();
    assert!(lines.join("\n").contains("cache hit"));
}

/// Capability checks: only the composed MMJoin executor advertises
/// general queries; unplannable shapes are rejected by `supports`.
#[test]
fn registry_capabilities_for_general_queries() {
    let registry = mmjoin::default_registry(1);
    let r = rel(&[(0, 0), (1, 0)]);
    let pool = [r.clone(), r.clone(), r.clone()];
    let graph = QueryGraph::chain(&pool).unwrap();
    let query = Query::general(graph).unwrap();
    let supporting: Vec<&str> = registry
        .engines_for(&query)
        .iter()
        .map(|e| e.name())
        .collect();
    assert_eq!(supporting, vec!["MMJoin"]);

    // A projected interior variable is not plannable: nothing supports it.
    let atoms = vec![
        Atom {
            relation: &r,
            x: 0,
            y: 1,
        },
        Atom {
            relation: &r,
            x: 1,
            y: 2,
        },
    ];
    let graph = QueryGraph::new(atoms, vec![0, 1, 2]).unwrap();
    let query = Query::general(graph).unwrap();
    assert!(registry.engines_for(&query).is_empty());
}
