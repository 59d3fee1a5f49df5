//! One decision per query, one record of it: the service routes, `MMJoin`
//! decides, and [`plan_query`]'s [`PlanStats`] is both what `explain`
//! prints and what the run returns.

use mmjoin::{
    plan_query, EngineError, EngineRegistry, JoinConfig, PlanKind, PlanStats, Query, QueryGraph,
    Relation, Request, Service, ServiceConfig, ServiceError,
};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_service::command;
use mmjoin_wcoj::WcojEngine;

/// `sets` sets that all hold elements `0..elems`.
fn clique(sets: u32, elems: u32) -> Relation {
    Relation::from_edges((0..sets).flat_map(|x| (0..elems).map(move |y| (x, y))))
}

/// The lines of `explain <query>` after `ok `, unindented.
fn explain(service: &Service, query: &str) -> Vec<String> {
    let answer = command::run_line(service, &format!("explain {query}")).expect("explain runs");
    let answer = answer.strip_prefix("ok ").expect("an ok answer");
    answer.split("\n  ").map(str::to_string).collect()
}

/// A star is routed by the star's own statistic. 40 shared `y`, six heads
/// under each in every leg: legs 0–1 alone have `full join / N = 6`, which
/// used to send the star to `Non-MMJoin`, while over all three legs the
/// ratio is `216 / 6 = 36 > 20` and the star engine partitions.
#[test]
fn a_star_is_routed_by_its_own_full_join() {
    let leg = Relation::from_edges((0..240u32).map(|x| (x, x / 6)));
    let service = Service::with_default_registry();
    for name in ["A", "B", "C"] {
        service.register(name, leg.clone());
    }
    let legs = [&leg, &leg, &leg];
    let star = Query::star(&legs).build().unwrap();
    let planned = plan_query(&star, &JoinConfig::default()).unwrap();
    assert_eq!(planned.full_join, Some(40 * 216));
    assert_eq!(planned.kind, PlanKind::MatrixPartitioned);

    let response = service.query(Request::star(["A", "B", "C"])).unwrap();
    assert_eq!(response.stats.engine, "MMJoin");
    assert_eq!(response.stats.plan.as_ref().unwrap().kind, planned.kind);
    assert_eq!(response.rows.len(), 40 * 216);
    assert_eq!(explain(&service, "star A B C")[0], "engine MMJoin (routed)");
}

/// The one engine that counts witnesses is where a counting two-path is
/// routed, output-like or not — it did not fall back from anywhere.
#[test]
fn a_counted_sparse_two_path_is_routed_not_fallen_back() {
    let service = Service::with_default_registry();
    service.register("R", Relation::from_edges((0..200u32).map(|i| (i, i))));
    let lines = explain(&service, "twopath R R counts");
    assert_eq!(lines[0], "engine MMJoin (routed)");
    assert!(lines[2].starts_with("plan: expand (WCOJ)"), "{lines:?}");
    let response = service
        .query(Request::two_path_counts("R", "R", 1))
        .unwrap();
    assert_eq!(response.stats.engine, "MMJoin");
}

/// The decision half of a record: everything planning fills in that does
/// not depend on the exact partition (the heavy-core dimensions are bounds
/// before the run, and the Boolean orientation is chosen again on them).
fn decision(plan: &PlanStats) -> impl PartialEq + std::fmt::Debug {
    (
        (plan.kind, plan.delta1, plan.delta2),
        plan.heavy_backend.map(|kernel| kernel.starts_with("bit ")),
        (plan.full_join, plan.estimated_out),
        (plan.predicted_light_secs, plan.predicted_heavy_secs),
        plan.line_two,
    )
}

/// What `explain` prints is what the run records: for every family the
/// plan lines of `explain` are `plan_query`'s record, displayed, and its
/// decision fields are those of the `Response` that follows.
#[test]
fn explain_prints_the_record_the_run_returns() {
    let config = JoinConfig::default();
    let (dense, sparse) = (
        clique(60, 8),
        Relation::from_edges((0..200u32).map(|i| (i, i))),
    );
    let leg = clique(30, 8);
    let service = Service::with_default_registry();
    service.register("Dense", dense.clone());
    service.register("Sparse", sparse.clone());
    service.register("Leg", leg.clone());

    let legs = [&leg, &leg, &leg];
    let cases = [
        (
            "twopath Dense Dense",
            Query::two_path(&dense, &dense).build().unwrap(),
            Request::two_path("Dense", "Dense"),
            PlanKind::MatrixPartitioned,
        ),
        (
            "twopath Sparse Sparse",
            Query::two_path(&sparse, &sparse).build().unwrap(),
            Request::two_path("Sparse", "Sparse"),
            PlanKind::Wcoj,
        ),
        (
            "twopath Dense Dense counts",
            Query::two_path(&dense, &dense)
                .with_counts()
                .build()
                .unwrap(),
            Request::two_path_counts("Dense", "Dense", 1),
            PlanKind::MatrixPartitioned,
        ),
        (
            "star Leg Leg Leg",
            Query::star(&legs).build().unwrap(),
            Request::star(["Leg", "Leg", "Leg"]),
            PlanKind::MatrixPartitioned,
        ),
    ];
    for (line, query, request, kind) in cases {
        let planned = plan_query(&query, &config).unwrap();
        assert_eq!(planned.kind, kind, "{line}");
        let explained = explain(&service, line);
        assert_eq!(explained[2..], [planned.to_string()], "{line}");
        // Both sides of line 2, the cheaper one taken.
        let prices = planned.line_two.expect("line 2 priced both sides");
        let core = prices.core_secs.expect("every core here fits");
        assert_eq!(
            core < prices.expand_secs,
            kind == PlanKind::MatrixPartitioned
        );
        let sign = if kind == PlanKind::Wcoj { '≤' } else { '>' };
        let (text, printed) = (&explained[2], prices.to_string());
        assert!(text.ends_with(&format!("; {printed}")), "{text}");
        assert!(printed.starts_with("line 2: expand "), "{printed}");
        assert!(printed.contains(&format!("us {sign} core ")), "{printed}");
        let response = service.query(request).unwrap();
        assert_eq!(response.stats.engine, "MMJoin", "{line}");
        let ran = response
            .stats
            .plan
            .as_ref()
            .expect("MMJoin returns its record");
        assert_eq!(decision(ran), decision(&planned), "{line}");
    }

    // A 3-chain: the first contraction joins two base relations and is
    // decided ahead of the run, the second joins its result and is not.
    let chain = [&dense, &sparse, &dense];
    let graph = QueryGraph::chain(&chain).unwrap();
    let planned = plan_query(&Query::General { graph }, &config).unwrap();
    let names = ["Dense", "Sparse", "Dense"];
    let lines: Vec<String> = planned
        .named(&names)
        .to_string()
        .lines()
        .map(String::from)
        .collect();
    let explained = explain(&service, "chain Dense Sparse Dense");
    let unindented: Vec<&str> = explained[2..].iter().map(|l| l.trim_start()).collect();
    assert_eq!(
        unindented,
        lines.iter().map(|l| l.trim_start()).collect::<Vec<_>>()
    );
    let response = service.query(Request::chain(names)).unwrap();
    let ran = response.stats.plan.as_ref().unwrap();
    assert_eq!(
        (ran.full_join, ran.estimated_out),
        (planned.full_join, planned.estimated_out)
    );
    assert_eq!(ran.steps.len(), 3, "two joins and the projection");
    let decided: Vec<_> = planned.steps.iter().filter(|s| s.kind.is_some()).collect();
    assert_eq!(decided.len(), 1);
    for (before, after) in planned.steps.iter().zip(&ran.steps) {
        assert_eq!(
            (
                before.op,
                before.on_var,
                &before.inputs,
                before.estimated_rows
            ),
            (after.op, after.on_var, &after.inputs, after.estimated_rows)
        );
        assert!(before.actual_rows.is_none() && after.actual_rows.is_some());
        if before.kind.is_some() {
            assert_eq!(
                (before.kind, before.delta1, before.delta2),
                (after.kind, after.delta1, after.delta2)
            );
        }
    }
}

/// A star's `explain` is its run: over legs of different `y` domains whose
/// every head also holds a `y` no other leg has, the line `explain` prints
/// is the record the query returns, its measurements aside — shape, kernel,
/// operands and both prices of line 2. A second star over the same legs in
/// another order is planned and run on operands the first one packed.
#[test]
fn a_stars_explain_equals_its_run() {
    let leg = |sets: u32, spare: u32| {
        let tuples = (0..sets).flat_map(move |x| [(x, 0), (x, 1 + x % 3), (x, 9 + spare + x)]);
        Relation::from_edges(tuples)
    };
    let service = Service::with_default_registry();
    service.register("A", leg(12, 0));
    service.register("B", leg(10, 5));
    service.register("C", leg(9, 40));
    for (names, operands) in [(["A", "B", "C"], "built"), (["B", "A", "C"], "reused")] {
        let explained = explain(&service, &format!("star {}", names.join(" ")));
        let shape = format!(" over operands {operands}/{operands} (");
        assert!(explained[2].contains(&shape), "{explained:?}");
        let response = service.query(Request::star(names)).unwrap();
        let mut ran = response
            .stats
            .plan
            .clone()
            .expect("MMJoin returns its record");
        assert!(ran.measured_phase_secs.take().is_some(), "{names:?}");
        ran.rows_filled = None;
        assert_eq!(explained[2..], [ran.to_string()], "{names:?}");
        assert_eq!(response.rows.len(), 12 * 10 * 9);
    }
}

/// `Display` keeps the strings CI and `tests/observability.rs` grep for.
#[test]
fn display_keeps_the_strings_operators_grep_for() {
    let config = JoinConfig::default();
    let plan = |rels: &[&Relation]| plan_query(&Query::star(rels).build().unwrap(), &config);

    let leg = clique(30, 8);
    let star = plan(&[&leg, &leg, &leg]).unwrap().to_string();
    assert!(
        star.starts_with("plan: matrix-partitioned Δ1=0 Δ2=0, heavy core bit "),
        "{star}"
    );
    assert!(
        star.contains(" 900 × 8 × 30 over operands built/built (predicted light 0us, heavy "),
        "{star}"
    );
    assert!(
        star.ends_with("us) — full join 216000, est out 27000; line 2: expand 540us > core 15.1us"),
        "{star}"
    );
    // The star of CI's REPL step: 30, 28 and 26 sets over elements 0 and 1.
    let (a, b, c) = (clique(30, 2), clique(28, 2), clique(26, 2));
    let star = plan(&[&a, &b, &c]).unwrap().to_string();
    assert!(star.contains(" 840 × 2 × 26 "), "{star}");

    // Two legs are their two-path, which plans without the dimensions.
    let pair = plan(&[&leg, &leg]).unwrap().to_string();
    assert!(
        pair.contains("heavy core bit") && pair.contains("(predicted light "),
        "{pair}"
    );
    assert!(!pair.contains('×'), "{pair}");
    let matching = Relation::from_edges((0..50u32).map(|i| (i, i)));
    let star = plan(&[&matching, &matching, &matching])
        .unwrap()
        .to_string();
    assert!(
        star.starts_with(
            "plan: expand (WCOJ) — full join 50 is output-like (est out 50); \
             line 2: expand 0.125us ≤ core "
        ),
        "{star}"
    );
    // A core over the memory cap is said so.
    let capped = JoinConfig {
        matrix_cell_cap: 0,
        ..JoinConfig::default()
    };
    let over = plan_query(&Query::star(&[&leg, &leg, &leg]).build().unwrap(), &capped);
    assert!(over
        .unwrap()
        .to_string()
        .ends_with("is output-like (est out 27000); line 2: expand 540us, core over cap"),);

    let chain = [&matching, &matching, &matching];
    let graph = QueryGraph::chain(&chain).unwrap();
    let composed = plan_query(&Query::General { graph }, &config).unwrap();
    let text = composed.to_string();
    assert!(
        text.starts_with("decomposition: 3 step(s), estimated output "),
        "{text}"
    );
    assert!(
        text.contains(
            "\n  step 0: join atom0(v0, v1) ⋈ atom1(v1, v2) on v1 -> t0(v0, v2) [est rows "
        ),
        "{text}"
    );
    assert!(text.contains("] [expand]\n  step 1: join "), "{text}");
    assert!(
        text.ends_with("[strategy decided at runtime]\n  final: project t1(v3, v0) -> (v0, v3)"),
        "{text}"
    );
}

/// A registry without `MMJoin` still serves: the first registered engine
/// that supports the query runs, and `explain` has no plan to print.
#[test]
fn a_registry_without_mmjoin_serves_through_the_fallback() {
    let mut registry = EngineRegistry::new();
    registry
        .register(Box::new(ExpandDedupEngine::serial()))
        .register(Box::new(WcojEngine));
    let service = Service::new(registry, ServiceConfig::default());
    service.register("R", clique(12, 3));
    let response = service.query(Request::two_path("R", "R")).unwrap();
    assert_eq!(response.stats.engine, "Non-MMJoin");
    assert_eq!(response.rows.len(), 144);
    let lines = explain(&service, "twopath R R");
    assert_eq!(lines[0], "engine Non-MMJoin (fallback)");
    assert_eq!(lines.len(), 2, "{lines:?}");
    // A pin still wins over the fallback, and a bad one is still an error.
    let pinned = service
        .query(Request::two_path("R", "R").on_engine("WCOJ"))
        .unwrap();
    assert_eq!(pinned.stats.engine, "WCOJ");
    assert!(matches!(
        service.query(Request::two_path("R", "R").on_engine("MMJoin")),
        Err(ServiceError::UnknownEngine(_))
    ));
    assert!(matches!(
        service.query(Request::two_path_counts("R", "R", 1).on_engine("WCOJ")),
        Err(ServiceError::Engine(EngineError::Unsupported { .. }))
    ));
    assert!(matches!(
        service.query(Request::similarity("R", 2)),
        Err(ServiceError::NoEngineFor(_))
    ));
}
