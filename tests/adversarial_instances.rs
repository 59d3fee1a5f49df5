//! Adversarial and boundary instances: shapes engineered to stress each
//! side of line 2 (all-light, all-heavy, maximally skewed, degenerate
//! domains), checked across engines. The paper prototype's forced
//! partitions are checked on the same shapes in `crates/bench`.

use mmjoin_api::{Engine, PairSink, Query};
use mmjoin_baseline::fulljoin::SortMergeEngine;
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_core::{
    two_path_join_project, two_path_with_counts, JoinConfig, MmJoinEngine, PlanChoice,
};
use mmjoin_storage::{Relation, Value};

fn rel(edges: &[(Value, Value)]) -> Relation {
    Relation::from_edges(edges.iter().copied())
}

fn assert_all_engines_agree(r: &Relation, s: &Relation, label: &str) {
    let reference = SortMergeEngine.join_project(r, s);
    let query = Query::two_path(r, s).build().unwrap();
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(MmJoinEngine::serial()),
        Box::new(MmJoinEngine::parallel(3)),
        Box::new(ExpandDedupEngine::serial()),
    ];
    for e in engines {
        let mut sink = PairSink::new();
        e.execute(&query, &mut sink).unwrap();
        assert_eq!(sink.pairs, reference, "{label}: {}", e.name());
    }
    // Line 2 forced either way, and a core over the cap, must also agree.
    for cfg in sides() {
        assert_eq!(
            two_path_join_project(r, s, &cfg),
            reference,
            "{label}: {cfg:?}"
        );
    }
}

/// Line 2 forced onto the core, onto expansion, and the core over the cap.
fn sides() -> [JoinConfig; 3] {
    let factor = |wcoj_fallback_factor| JoinConfig {
        wcoj_fallback_factor,
        ..JoinConfig::default()
    };
    let capped = JoinConfig {
        matrix_cell_cap: 0,
        ..factor(0.0)
    };
    [factor(0.0), factor(f64::INFINITY), capped]
}

/// One single `y` value shared by everything: the heaviest possible core.
#[test]
fn single_hub_element() {
    let edges: Vec<(Value, Value)> = (0..200).map(|x| (x, 0)).collect();
    let r = rel(&edges);
    assert_all_engines_agree(&r, &r, "single-hub");
    let out = two_path_join_project(&r, &r, &JoinConfig::default());
    assert_eq!(out.len(), 200 * 200);
}

/// A perfect matching: every value has degree exactly 1 (all light at any
/// threshold; full join == output).
#[test]
fn perfect_matching() {
    let edges: Vec<(Value, Value)> = (0..500).map(|i| (i, i)).collect();
    let r = rel(&edges);
    assert_all_engines_agree(&r, &r, "matching");
    let plan = mmjoin_core::choose_thresholds(&r, &r, &JoinConfig::default());
    assert_eq!(plan.choice, PlanChoice::Wcoj, "matching must pick WCOJ");
}

/// One gigantic set against many singletons: maximal head-degree skew.
#[test]
fn one_giant_set() {
    let mut edges: Vec<(Value, Value)> = (0..300).map(|e| (0, e)).collect();
    for i in 0..300u32 {
        edges.push((1 + i, i)); // singleton set per element
    }
    let r = rel(&edges);
    assert_all_engines_agree(&r, &r, "giant-set");
}

/// Star graph on the y side: element 0 in every set plus per-set private
/// elements — every pair connected through exactly one witness.
#[test]
fn shared_spine_private_tails() {
    let mut edges = Vec::new();
    for x in 0..150u32 {
        edges.push((x, 0));
        edges.push((x, 1 + x));
    }
    let r = rel(&edges);
    assert_all_engines_agree(&r, &r, "spine");
    for cfg in sides() {
        let counts = two_path_with_counts(&r, &r, 1, &cfg);
        assert_eq!(counts.len(), 150 * 150);
        for &(a, b, c) in &counts {
            let expected = if a == b { 2 } else { 1 };
            assert_eq!(c, expected, "pair ({a},{b})");
        }
    }
}

/// Bipartite-disjoint domains: R and S share no y value at all.
#[test]
fn disjoint_join_columns() {
    let r = rel(&[(0, 0), (1, 1), (2, 2)]);
    let s = rel(&[(0, 10), (1, 11)]);
    assert!(two_path_join_project(&r, &s, &JoinConfig::default()).is_empty());
    assert!(two_path_with_counts(&r, &s, 1, &JoinConfig::default()).is_empty());
}

/// Very large sparse ids (u32 towards the top of the domain) must not
/// overflow any index arithmetic.
#[test]
fn large_sparse_ids() {
    let big = 1_000_000u32;
    let r = rel(&[(big, big), (big - 1, big), (big, big - 1)]);
    let out = two_path_join_project(&r, &r, &JoinConfig::default());
    assert_eq!(
        out,
        vec![
            (big - 1, big - 1),
            (big - 1, big),
            (big, big - 1),
            (big, big)
        ]
    );
}

/// Two blocks whose degrees straddle any single threshold: forces output
/// pairs to be discovered jointly by light passes and the matrix.
#[test]
fn mixed_block_instance() {
    let mut edges = Vec::new();
    // Heavy block: 40 sets sharing elements 0..10.
    for x in 0..40u32 {
        for e in 0..10u32 {
            edges.push((x, e));
        }
    }
    // Light fringe: chains touching one heavy element each.
    for i in 0..60u32 {
        edges.push((100 + i, i % 10));
        edges.push((100 + i, 50 + i));
    }
    let r = rel(&edges);
    assert_all_engines_agree(&r, &r, "mixed-block");
    // Counting variant: spot check one heavy-light pair.
    for cfg in sides() {
        let counts = two_path_with_counts(&r, &r, 1, &cfg);
        let get = |a: Value, b: Value| {
            counts
                .iter()
                .find(|&&(x, z, _)| x == a && z == b)
                .map(|&(_, _, c)| c)
        };
        assert_eq!(
            get(0, 100),
            Some(1),
            "heavy set 0 meets light set 100 via one element"
        );
        assert_eq!(
            get(0, 1),
            Some(10),
            "heavy pair shares all 10 core elements"
        );
    }
}

/// Self-loops in graph form ((v, v) edges) are legal tuples and must not
/// confuse the set-view algorithms.
#[test]
fn self_loop_tuples() {
    let r = rel(&[(0, 0), (1, 1), (0, 1), (1, 0)]);
    assert_all_engines_agree(&r, &r, "self-loops");
}

/// Duplicate-free invariant: no plan may emit a pair twice, whichever side
/// of line 2 runs.
#[test]
fn no_duplicate_output_pairs() {
    let mut edges = Vec::new();
    for x in 0..30u32 {
        for e in 0..8u32 {
            edges.push((x, e));
        }
    }
    let r = rel(&edges);
    for cfg in sides() {
        let out = two_path_join_project(&r, &r, &cfg);
        let mut dedup = out.clone();
        dedup.dedup();
        assert_eq!(out.len(), 30 * 30);
        assert_eq!(out.len(), dedup.len(), "duplicates under {cfg:?}");
        assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "output must be strictly sorted"
        );
    }
}
