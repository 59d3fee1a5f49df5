//! Unified-API integration tests: registry round-trips, streaming sinks
//! vs materialisation, query-builder validation, and ExecStats contents.

use mmjoin::{
    default_registry, CountSink, Engine, EngineError, EngineRegistry, ForEachSink, PairSink,
    PlanKind, Query, QueryError, VecSink,
};
use mmjoin_core::{JoinConfig, MmJoinEngine};
use mmjoin_datagen::DatasetKind;
use mmjoin_storage::{Relation, Value};

fn rel(edges: &[(Value, Value)]) -> Relation {
    Relation::from_edges(edges.iter().copied())
}

#[test]
fn registry_register_lookup_execute_round_trip() {
    let mut registry = EngineRegistry::new();
    assert!(registry.is_empty());
    registry.register(Box::new(MmJoinEngine::serial()));
    assert_eq!(registry.names(), vec!["MMJoin"]);

    let r = rel(&[(0, 0), (1, 0), (2, 1)]);
    let q = Query::two_path(&r, &r).build().unwrap();

    // Lookup by name, execute, and compare with direct execution.
    let engine = registry.get("MMJoin").expect("registered engine resolves");
    let mut direct = PairSink::new();
    engine.execute(&q, &mut direct).unwrap();
    let mut by_name = PairSink::new();
    let stats = registry.execute("MMJoin", &q, &mut by_name).unwrap();
    assert_eq!(direct.pairs, by_name.pairs);
    assert_eq!(stats.rows, direct.pairs.len() as u64);

    // Unknown names fail with a dedicated error.
    let mut sink = CountSink::new();
    assert!(matches!(
        registry.execute("no-such-engine", &q, &mut sink),
        Err(EngineError::UnknownEngine(_))
    ));
}

#[test]
fn streaming_sink_agrees_with_materializing_sink() {
    let r = mmjoin_datagen::generate(DatasetKind::Jokes, 0.02, 5);
    let registry = default_registry(1);
    let queries = [
        Query::two_path(&r, &r).build().unwrap(),
        Query::two_path(&r, &r).min_count(2).build().unwrap(),
        Query::similarity(&r, 2).build().unwrap(),
        Query::similarity(&r, 2).ordered().build().unwrap(),
        Query::containment(&r).build().unwrap(),
    ];
    for q in &queries {
        for engine in registry.engines_for(q) {
            // Fully materialised…
            let mut vec_sink = VecSink::new();
            let vec_stats = engine.execute(q, &mut vec_sink).unwrap();
            // …streamed row-by-row without storing…
            let mut count_sink = CountSink::new();
            let count_stats = engine.execute(q, &mut count_sink).unwrap();
            // …and through a closure.
            let mut streamed: Vec<(Vec<Value>, u32)> = Vec::new();
            let mut each = ForEachSink(|row: &[Value], c| streamed.push((row.to_vec(), c)));
            engine.execute(q, &mut each).unwrap();

            assert_eq!(
                vec_sink.rows.len() as u64,
                count_sink.rows,
                "{}: streaming and materialising sinks disagree",
                engine.name()
            );
            assert_eq!(vec_stats.rows, count_stats.rows);
            let from_each: Vec<Vec<Value>> = streamed.iter().map(|(r, _)| r.clone()).collect();
            assert_eq!(vec_sink.rows.to_rows(), from_each, "{}", engine.name());
            // A closure sees 0 for a row without a count; the materialising
            // sink stores no counts at all when no row carried one.
            let mut counts_each: Vec<u32> = streamed.iter().map(|&(_, c)| c).collect();
            if counts_each.iter().all(|&c| c == 0) {
                counts_each.clear();
            }
            assert_eq!(vec_sink.counts, counts_each, "{}", engine.name());
        }
    }
}

#[test]
fn star_query_through_registry() {
    let rels = vec![
        rel(&[(0, 0), (1, 0), (2, 1)]),
        rel(&[(5, 0), (6, 1)]),
        rel(&[(8, 0), (9, 0), (9, 1)]),
    ];
    let registry = default_registry(2);
    let q = Query::star(&rels).build().unwrap();
    let engines = registry.engines_for(&q);
    assert_eq!(engines.len(), 4, "star roster: {:?}", registry.names());
    let mut reference = None;
    for e in engines {
        let mut sink = VecSink::new();
        e.execute(&q, &mut sink).unwrap();
        assert_eq!(sink.rows.arity(), 3, "{}", e.name());
        match &reference {
            None => reference = Some(sink.rows),
            Some(r0) => assert_eq!(&sink.rows, r0, "{}", e.name()),
        }
    }
}

#[test]
fn builder_validation_errors() {
    let r = rel(&[(0, 0)]);

    // Arity-0 star.
    let empty: Vec<Relation> = Vec::new();
    assert_eq!(
        Query::star(&empty).build().unwrap_err(),
        QueryError::EmptyStar
    );

    // c = 0 similarity threshold.
    assert_eq!(
        Query::similarity(&r, 0).build().unwrap_err(),
        QueryError::ZeroSimilarityThreshold
    );

    // min_count = 0 counting query.
    assert_eq!(
        Query::two_path(&r, &r).min_count(0).build().unwrap_err(),
        QueryError::ZeroMinCount
    );

    // Hand-built invalid queries are caught by execute() too, registry-wide.
    let registry = default_registry(1);
    let bad = Query::SimilarityJoin {
        r: &r,
        c: 0,
        ordered: false,
    };
    let probe = Query::SimilarityJoin {
        r: &r,
        c: 1,
        ordered: false,
    };
    for engine in registry.iter().filter(|e| e.supports(&probe)) {
        let mut sink = PairSink::new();
        assert!(
            matches!(
                engine.execute(&bad, &mut sink),
                Err(EngineError::InvalidQuery(
                    QueryError::ZeroSimilarityThreshold
                ))
            ),
            "{} accepted an invalid query",
            engine.name()
        );
    }
}

#[test]
fn unsupported_family_errors_carry_engine_and_family() {
    let registry = default_registry(1);
    let r = rel(&[(0, 0)]);
    let counting = Query::two_path(&r, &r).with_counts().build().unwrap();
    let engine = registry.get("HashJoin(Postgres)").unwrap();
    let mut sink = PairSink::new();
    match engine.execute(&counting, &mut sink).unwrap_err() {
        EngineError::Unsupported { engine, family } => {
            assert_eq!(engine, "HashJoin(Postgres)");
            assert_eq!(family.to_string(), "two-path");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn exec_stats_report_plan_for_mmjoin_runs() {
    // Dense generated data: the optimizer should partition and report
    // concrete thresholds through the registry.
    let r = mmjoin_datagen::generate(DatasetKind::Jokes, 0.04, 11);
    let registry = default_registry(1);
    let q = Query::two_path(&r, &r).build().unwrap();
    let mut sink = CountSink::new();
    let stats = registry.execute("MMJoin", &q, &mut sink).unwrap();
    let plan = stats.plan.expect("MMJoin reports its plan");
    match plan.kind {
        PlanKind::MatrixPartitioned => {
            // Thresholds are reported even at the everything-heavy boundary
            // (0, 0) an existence query over dense data usually lands on.
            plan.delta1.expect("Δ1 reported");
            plan.delta2.expect("Δ2 reported");
            assert_eq!(plan.heavy_backend, Some("bit row-or"));
            let (u, v, w) = plan.heavy_dims.expect("heavy split sizes reported");
            assert!(u > 0 && v > 0 && w > 0, "dense data must have a heavy core");
            let (light_r, light_s) = plan.light_tuples.expect("light split sizes reported");
            assert!(light_r <= r.len() as u64 && light_s <= r.len() as u64);
        }
        PlanKind::Wcoj => panic!("dense Jokes data should take the matrix plan"),
    }

    // A forced override must surface verbatim.
    let engine = MmJoinEngine::new(JoinConfig::with_deltas(4, 7));
    let mut sink = CountSink::new();
    let stats = Engine::execute(&engine, &q, &mut sink).unwrap();
    let plan = stats.plan.unwrap();
    assert_eq!((plan.delta1, plan.delta2), (Some(4), Some(7)));
}

#[test]
fn registry_replacement_is_latest_wins() {
    let mut registry = default_registry(1);
    let before = registry.len();
    // Re-register MMJoin with a forced-threshold configuration.
    registry.register(Box::new(MmJoinEngine::new(JoinConfig::with_deltas(2, 2))));
    assert_eq!(
        registry.len(),
        before,
        "replacement must not grow the roster"
    );
    let r = rel(&[(0, 0), (1, 0)]);
    let q = Query::two_path(&r, &r).build().unwrap();
    let mut sink = CountSink::new();
    let stats = registry.execute("MMJoin", &q, &mut sink).unwrap();
    assert_eq!(
        stats.plan.unwrap().delta1,
        Some(2),
        "replacement engine must serve"
    );
}
