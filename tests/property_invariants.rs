//! Workspace-level property tests: algebraic invariants of the
//! join-project operator that every engine must satisfy, checked on
//! randomly generated relations.

use mmjoin_api::{Engine, PairSink, Query};
use mmjoin_baseline::fulljoin::SortMergeEngine;
use mmjoin_core::{
    estimate_output_size, star_join_project_mm, two_path_join_project, two_path_with_counts,
    JoinConfig, MmJoinEngine,
};
use mmjoin_ssj::{unordered_ssj, SsjAlgorithm};
use mmjoin_storage::{Relation, RelationBuilder, Value};
use mmjoin_wcoj::star_join_project;
use proptest::prelude::*;

fn rel(edges: &[(Value, Value)]) -> Relation {
    Relation::from_edges(edges.iter().copied())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The output-size estimator's bounds always bracket the true output.
    #[test]
    fn estimator_bounds_bracket_truth(
        r_edges in proptest::collection::vec((0u32..20, 0u32..16), 1..100),
        s_edges in proptest::collection::vec((0u32..20, 0u32..16), 1..100),
    ) {
        let r = rel(&r_edges);
        let s = rel(&s_edges);
        // Estimator bounds are derived for reduced (dangling-free) inputs.
        let (r, s) = Relation::reduce_pair(&r, &s);
        let truth = SortMergeEngine.join_project(&r, &s).len() as u64;
        let est = estimate_output_size(&r, &s);
        if truth > 0 {
            prop_assert!(est.lower <= truth, "lower {} > truth {truth}", est.lower);
            prop_assert!(est.upper >= truth, "upper {} < truth {truth}", est.upper);
        }
    }

    /// Join-project of a self join is symmetric: (a, b) ∈ OUT ⟺ (b, a) ∈ OUT.
    #[test]
    fn self_join_output_symmetric(
        edges in proptest::collection::vec((0u32..18, 0u32..14), 1..90),
    ) {
        let r = rel(&edges);
        let out = two_path_join_project(&r, &r, &JoinConfig::default());
        for &(a, b) in &out {
            prop_assert!(
                out.binary_search(&(b, a)).is_ok(),
                "({a},{b}) present but ({b},{a}) missing"
            );
        }
        // Diagonal: every active x joins with itself.
        for (x, _) in r.by_x().iter_nonempty() {
            prop_assert!(out.binary_search(&(x, x)).is_ok());
        }
    }

    /// Monotonicity: adding tuples never removes output pairs.
    #[test]
    fn join_project_monotone_under_insertion(
        base in proptest::collection::vec((0u32..15, 0u32..12), 1..60),
        extra in proptest::collection::vec((0u32..15, 0u32..12), 1..20),
    ) {
        let r1 = rel(&base);
        let mut all = base.clone();
        all.extend_from_slice(&extra);
        let r2 = rel(&all);
        let out1 = two_path_join_project(&r1, &r1, &JoinConfig::default());
        let out2 = two_path_join_project(&r2, &r2, &JoinConfig::default());
        for p in &out1 {
            prop_assert!(out2.binary_search(p).is_ok(), "{p:?} lost after insertion");
        }
    }

    /// Counting output, summed over all pairs, equals the full join size.
    #[test]
    fn counts_sum_to_full_join(
        r_edges in proptest::collection::vec((0u32..15, 0u32..12), 1..70),
        s_edges in proptest::collection::vec((0u32..15, 0u32..12), 1..70),
    ) {
        let r = rel(&r_edges);
        let s = rel(&s_edges);
        let counts = two_path_with_counts(&r, &s, 1, &JoinConfig::default());
        let total: u64 = counts.iter().map(|&(_, _, c)| c as u64).sum();
        prop_assert_eq!(total, r.full_join_size(&s));
    }

    /// SSJ with c = 1 equals the off-diagonal upper half of the
    /// join-project output.
    #[test]
    fn ssj_c1_equals_join_project(
        edges in proptest::collection::vec((0u32..14, 0u32..10), 1..60),
    ) {
        let r = rel(&edges);
        let ssj = unordered_ssj(&r, 1, &SsjAlgorithm::MmJoin, &JoinConfig::default());
        let jp: Vec<(Value, Value)> = two_path_join_project(&r, &r, &JoinConfig::default())
            .into_iter()
            .filter(|&(a, b)| a < b)
            .collect();
        prop_assert_eq!(ssj, jp);
    }

    /// SSJ output shrinks (weakly) as c grows.
    #[test]
    fn ssj_antitone_in_c(
        edges in proptest::collection::vec((0u32..14, 0u32..10), 1..60),
        c in 1u32..5,
    ) {
        let r = rel(&edges);
        let lo = unordered_ssj(&r, c, &SsjAlgorithm::MmJoin, &JoinConfig::default());
        let hi = unordered_ssj(&r, c + 1, &SsjAlgorithm::MmJoin, &JoinConfig::default());
        prop_assert!(hi.len() <= lo.len());
        for p in &hi {
            prop_assert!(lo.binary_search(p).is_ok());
        }
    }

    /// Star k=3 with one relation duplicated twice equals the 2-path result
    /// lifted to triples on the duplicated coordinates.
    #[test]
    fn star_with_duplicate_relation_consistent(
        edges in proptest::collection::vec((0u32..10, 0u32..8), 1..40),
    ) {
        let r = rel(&edges);
        let star = star_join_project_mm(
            &[r.clone(), r.clone(), r.clone()],
            &JoinConfig::default(),
        );
        let pairs = two_path_join_project(&r, &r, &JoinConfig::default());
        // Projection of the star result onto (x1, x2) must equal the 2-path.
        let mut projected: Vec<(Value, Value)> =
            star.iter().map(|t| (t[0], t[1])).collect();
        projected.sort_unstable();
        projected.dedup();
        prop_assert_eq!(projected, pairs);
    }

    /// The WCOJ reference and MMJoin agree for arbitrary k=3 instances
    /// under the default optimizer (not just forced thresholds).
    #[test]
    fn star_optimizer_path_correct(
        e1 in proptest::collection::vec((0u32..8, 0u32..6), 1..30),
        e2 in proptest::collection::vec((0u32..8, 0u32..6), 1..30),
        e3 in proptest::collection::vec((0u32..8, 0u32..6), 1..30),
    ) {
        let rels = vec![rel(&e1), rel(&e2), rel(&e3)];
        let cfg = JoinConfig { wcoj_fallback_factor: 2.0, ..JoinConfig::default() };
        prop_assert_eq!(
            star_join_project_mm(&rels, &cfg),
            star_join_project(&rels)
        );
    }

    /// A transpose shares its relation's indexes and copies nothing: on
    /// random relations with empty rows and domains looser than their
    /// tuples, its edge list is the relation's swapped and sorted, flattened
    /// once and shared by its clones; `tuples()` walks the same list; and
    /// transposing back returns the very same indexes.
    #[test]
    fn a_transpose_shares_the_relations_indexes(
        edges in proptest::collection::vec((0u32..12, 0u32..20), 0..60),
        slack in (0usize..4, 0usize..70),
    ) {
        let mut b = RelationBuilder::with_domains(12 + slack.0, 20 + slack.1);
        edges.iter().for_each(|&(x, y)| b.push(x, y));
        let r = b.build();
        prop_assert!(r.tuples().eq(r.edges().iter().copied()));
        let mut swapped: Vec<(Value, Value)> = r.edges().iter().map(|&(x, y)| (y, x)).collect();
        swapped.sort_unstable();
        let t = r.transposed();
        let twin = t.clone();
        prop_assert_eq!(t.edges(), &swapped[..]);
        prop_assert!(std::ptr::eq(t.edges(), twin.edges()), "flattened twice");
        prop_assert!(t.tuples().eq(swapped.iter().copied()));
        let back = t.transposed();
        prop_assert!(std::ptr::eq(back.by_x(), r.by_x()) && std::ptr::eq(back.by_y(), r.by_y()));
        prop_assert_eq!(back.edges(), r.edges());
    }

    /// The unified Engine front door and the free functions agree.
    #[test]
    fn engine_front_door_matches_free_function(
        edges in proptest::collection::vec((0u32..12, 0u32..10), 1..50),
    ) {
        let r = rel(&edges);
        let engine = MmJoinEngine::serial();
        let q = Query::two_path(&r, &r).build().unwrap();
        let mut sink = PairSink::new();
        engine.execute(&q, &mut sink).unwrap();
        prop_assert_eq!(
            sink.pairs,
            two_path_join_project(&r, &r, &JoinConfig::default())
        );
    }
}
