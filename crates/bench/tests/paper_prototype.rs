//! The paper's prototype (`mmjoin_bench::paper`): f32 SGEMM at forced
//! thresholds `(Δ1, Δ2)` against the things it must equal — plain
//! expansion, the reference engines, the capped fallback (a cell cap of 0
//! expands the heavy core instead of multiplying it) — and against the
//! served `MMJoin` over every generated dataset. CI runs this suite on both
//! feature legs: the SGEMM kernel is what differs between them.

use mmjoin_api::{CountSink, Engine, PairSink, PlanKind, Query, VecSink};
use mmjoin_baseline::fulljoin::SortMergeEngine;
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_bench::paper::MMJoin;
use mmjoin_bench::{dataset, star_dataset};
use mmjoin_core::{JoinConfig, MmJoinEngine};
use mmjoin_datagen::DatasetKind;
use mmjoin_storage::{Relation, Value};
use mmjoin_wcoj::star_join_project;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn rel(edges: &[(Value, Value)]) -> Relation {
    Relation::from_edges(edges.iter().copied())
}

fn clique(sets: u32, elems: u32) -> Relation {
    rel(&(0..sets)
        .flat_map(|x| (0..elems).map(move |y| (x, y)))
        .collect::<Vec<_>>())
}

/// The prototype at `deltas` on `threads`, with at most `cap` cells.
fn at(deltas: (u32, u32), threads: usize, cap: usize) -> MMJoin {
    MMJoin {
        config: JoinConfig {
            threads,
            matrix_cell_cap: cap,
            ..JoinConfig::default()
        },
        deltas: Some(deltas),
    }
}

/// Witness counts by nested loops: every `(x, z)` with at least
/// `max(min_count, 1)` common `y`, ascending.
fn brute_counts(r: &Relation, s: &Relation, min_count: u32) -> Vec<(Value, Value, u32)> {
    let mut counts: BTreeMap<(Value, Value), u32> = BTreeMap::new();
    for (x, y) in r.tuples() {
        for (z, _) in s.tuples().filter(|&(_, y2)| y2 == y) {
            *counts.entry((x, z)).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .filter(|&(_, count)| count >= min_count.max(1))
        .map(|((x, z), count)| (x, z, count))
        .collect()
}

/// SGEMM == capped fallback == expansion on `(r, s)` at `deltas`, pairs
/// and counts; returns the heavy dims the SGEMM run reported.
fn assert_sgemm_agrees(r: &Relation, s: &Relation, deltas: (u32, u32)) -> (usize, usize, usize) {
    let expected = ExpandDedupEngine::serial().join_project(r, s);
    let cap = JoinConfig::default().matrix_cell_cap;
    let (pairs, stats) = at(deltas, 1, cap).two_path(r, s);
    let (fallback, capped) = at(deltas, 1, 0).two_path(r, s);
    assert_eq!(pairs, expected, "SGEMM at {deltas:?}");
    assert_eq!(fallback, expected, "capped fallback at {deltas:?}");
    assert_eq!(capped.heavy_core_matrix, Some(false));
    let brute = brute_counts(r, s, 1);
    assert_eq!(
        at(deltas, 1, cap).counts(r, s, 1).0,
        brute,
        "counts at {deltas:?}"
    );
    assert_eq!(at(deltas, 1, 0).counts(r, s, 1).0, brute, "capped counts");
    assert_eq!(
        (stats.delta1, stats.delta2),
        (Some(deltas.0), Some(deltas.1))
    );
    let (u, v, w) = stats.heavy_dims.unwrap();
    assert_eq!(stats.heavy_core_matrix, Some(u * v * w > 0));
    assert_eq!(stats.heavy_backend, Some("f32"));
    (u, v, w)
}

/// SGEMM == capped fallback == the WCOJ reference on the star over `rels`
/// at `deltas`, rows and order.
fn assert_star_sgemm_agrees(rels: &[Relation], deltas: (u32, u32)) {
    let legs: Vec<&Relation> = rels.iter().collect();
    let expected = star_join_project(rels).concat();
    let cap = JoinConfig::default().matrix_cell_cap;
    let (rows, stats) = at(deltas, 1, cap).star(&legs);
    let (fallback, _) = at(deltas, 1, 0).star(&legs);
    assert_eq!(rows.into_values(), expected, "SGEMM at {deltas:?}");
    assert_eq!(fallback.into_values(), expected, "capped at {deltas:?}");
    assert_eq!(stats.heavy_backend, Some("f32"));
}

/// `sets` sets over `elems` elements, element `y` in set `x` when the
/// seeded coin says so.
fn coin_relation(sets: u32, elems: u32, keep_of_16: u32, seed: u32) -> Relation {
    let mut edges = Vec::new();
    for x in 0..sets {
        for y in 0..elems {
            let coin = (x.wrapping_mul(2_654_435_761) ^ y.wrapping_mul(40_503) ^ seed)
                .wrapping_mul(2_246_822_519)
                >> 28;
            if coin < keep_of_16 {
                edges.push((x, y));
            }
        }
    }
    Relation::from_edges(edges)
}

#[test]
fn matches_reference_with_forced_deltas() {
    let r = rel(&[(0, 0), (0, 1), (1, 0), (2, 1), (3, 2), (3, 0)]);
    let s = rel(&[(5, 0), (6, 1), (7, 0), (7, 2), (8, 1)]);
    let expected = SortMergeEngine.join_project(&r, &s);
    for deltas in [(1, 1), (1, 2), (2, 1), (3, 3), (100, 100)] {
        assert_eq!(
            MMJoin::at(deltas).two_path(&r, &s).0,
            expected,
            "{deltas:?}"
        );
    }
}

/// A mixed partition and everything heavy, where the light passes are
/// skipped and the product's cells are the answer as they come.
#[test]
fn sgemm_matches_at_mixed_and_all_heavy_partitions() {
    let r = clique(10, 5);
    let expected = SortMergeEngine.join_project(&r, &r);
    for deltas in [(2, 2), (0, 0)] {
        let (out, stats) = MMJoin::at(deltas).two_path(&r, &r);
        assert_eq!(out, expected, "{deltas:?}");
        assert_eq!(stats.heavy_core_matrix, Some(true));
        assert_eq!(stats.heavy_backend, Some("f32"));
    }
}

#[test]
fn memory_cap_fallback_matches() {
    let r = clique(10, 5);
    let (out, stats) = at((2, 2), 1, 0).two_path(&r, &r);
    assert_eq!(out, SortMergeEngine.join_project(&r, &r));
    assert_eq!(stats.heavy_core_matrix, Some(false));
}

#[test]
fn parallel_matches_serial() {
    let r = rel(&(0..600u32)
        .map(|i| ((i * 7) % 80, (i * 13) % 50))
        .collect::<Vec<_>>());
    let cap = JoinConfig::default().matrix_cell_cap;
    let serial = at((3, 3), 1, cap);
    let (pairs, counts) = (serial.two_path(&r, &r).0, serial.counts(&r, &r, 2).0);
    for threads in [2, 4, 8] {
        let parallel = at((3, 3), threads, cap);
        assert_eq!(parallel.two_path(&r, &r).0, pairs, "threads={threads}");
        assert_eq!(parallel.counts(&r, &r, 2).0, counts, "threads={threads}");
    }
}

#[test]
fn counts_exact_on_clique() {
    let r = clique(8, 4);
    assert_eq!(
        MMJoin::at((2, 2)).counts(&r, &r, 1).0,
        brute_counts(&r, &r, 1)
    );
}

#[test]
fn counts_min_count_filters() {
    // (0,1) share 3 elements; (0,2) share 1.
    let r = rel(&[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 2)]);
    let got = MMJoin::at((1, 1)).counts(&r, &r, 3).0;
    assert_eq!(got, vec![(0, 0, 3), (0, 1, 3), (1, 0, 3), (1, 1, 3)]);
}

/// A forced partition surfaces in the record verbatim, with its split.
#[test]
fn delta_override_is_reported_verbatim() {
    let r = clique(10, 4);
    let q = Query::two_path(&r, &r).build().unwrap();
    for deltas in [(3, 5), (4, 7)] {
        let plan = MMJoin::at(deltas)
            .execute(&q, &mut CountSink::new())
            .unwrap()
            .plan
            .unwrap();
        assert_eq!((plan.delta1, plan.delta2), (Some(deltas.0), Some(deltas.1)));
        assert!(plan.light_tuples.is_some());
    }
}

/// Registered over the served `MMJoin`, the prototype serves under its name
/// and the roster does not grow.
#[test]
fn a_registered_prototype_replaces_mmjoin() {
    let mut registry = mmjoin::default_registry(1);
    let before = registry.len();
    registry.register(Box::new(MMJoin::at((2, 2))));
    assert_eq!(registry.len(), before);
    let r = rel(&[(0, 0), (1, 0)]);
    let q = Query::two_path(&r, &r).build().unwrap();
    let stats = registry
        .execute("MMJoin", &q, &mut CountSink::new())
        .unwrap();
    assert_eq!(stats.plan.unwrap().delta1, Some(2));
}

/// Line 2 is the paper's count test: `|OUT⋈| / N = 15` expands, a full
/// join over `20·N` runs everything heavy, and the prototype never reads
/// or packs the relations' memoised bit rows.
#[test]
fn line_two_is_the_count_test_and_nothing_is_packed() {
    let under = clique(15, 40);
    let over = clique(60, 4);
    let prototype = MMJoin::default();
    let (_, plan) = prototype.two_path(&under, &under);
    assert_eq!((plan.kind, plan.full_join), (PlanKind::Wcoj, Some(9_000)));
    let (pairs, plan) = prototype.two_path(&over, &over);
    assert_eq!(pairs.len(), 3_600);
    assert_eq!((plan.delta1, plan.delta2), (Some(0), Some(0)));
    assert_eq!(plan.heavy_dims, Some((60, 4, 60)));
    assert_eq!(under.packed_bytes() + over.packed_bytes(), 0);
}

/// The shapes of the adversarial suite, at forced extreme thresholds.
#[test]
fn adversarial_instances_agree_at_forced_deltas() {
    let mut giant: Vec<(Value, Value)> = (0..300).map(|e| (0, e)).collect();
    giant.extend((0..300u32).map(|i| (1 + i, i)));
    let spine: Vec<_> = (0..150u32).flat_map(|x| [(x, 0), (x, 1 + x)]).collect();
    let mut block: Vec<_> = (0..40u32)
        .flat_map(|x| (0..10).map(move |e| (x, e)))
        .collect();
    block.extend((0..60u32).flat_map(|i| [(100 + i, i % 10), (100 + i, 50 + i)]));
    let shapes = [
        rel(&(0..200).map(|x| (x, 0)).collect::<Vec<_>>()),
        rel(&(0..500).map(|i| (i, i)).collect::<Vec<_>>()),
        rel(&giant),
        rel(&spine),
        rel(&block),
        rel(&[(0, 0), (1, 1), (0, 1), (1, 0)]),
        clique(30, 8),
    ];
    for r in &shapes {
        for deltas in [
            (1, 1),
            (1, 1000),
            (1000, 1),
            (1000, 1000),
            (3, 3),
            (7, 2),
            (2, 7),
        ] {
            let (out, _) = MMJoin::at(deltas).two_path(r, r);
            assert_eq!(out, SortMergeEngine.join_project(r, r), "{deltas:?}");
            assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        }
        for deltas in [(2, 2), (5, 5)] {
            assert_eq!(MMJoin::at(deltas).counts(r, r, 1).0, brute_counts(r, r, 1));
        }
    }
}

/// Heavy widths on both sides of the 64-bit word and the 512-bit block
/// boundaries, in the inner (`y`) and the output (`z`) dimension.
#[test]
fn sgemm_agrees_across_word_and_block_width_boundaries() {
    for width in [1u32, 63, 64, 65, 255, 256, 257, 511, 512, 513, 700] {
        let r = coin_relation(9, 24, 6, width);
        let s = coin_relation(width, 24, 5, width + 1);
        let (u, v, w) = assert_sgemm_agrees(&r, &s, (0, 0));
        assert!(u > 0 && v > 0 && w as u32 >= width * 9 / 10, "{width}");
        assert_sgemm_agrees(&r, &s, (2, 3));
        let r = coin_relation(9, width, 2, width + 2);
        let s = coin_relation(11, width, 2, width + 3);
        assert_sgemm_agrees(&r, &s, (0, 0));
        assert_sgemm_agrees(&r, &s, (1, 1));
    }
}

#[test]
fn sgemm_agrees_on_mismatched_domains_and_empty_heavy_sides() {
    let r = Relation::from_edges((0..300u32).map(|i| (i % 7, i % 90)));
    let s = Relation::from_edges((0..200u32).map(|i| (i % 23, (i * 3) % 40)));
    for deltas in [(0, 0), (1, 1), (3, 2), (2, 9)] {
        assert_sgemm_agrees(&r, &s, deltas);
        assert_sgemm_agrees(&s, &r, deltas);
    }
    // Thresholds above every degree: each heavy side in turn is empty.
    for deltas in [(1000, 0), (0, 1000), (1000, 1000)] {
        let (u, v, w) = assert_sgemm_agrees(&r, &s, deltas);
        assert!(u == 0 || v == 0 || w == 0, "{deltas:?}");
    }
    // Disjoint elements: nothing joins, and nothing is heavy in both.
    let far = Relation::from_edges((0..50u32).map(|i| (i % 5, 500 + i)));
    assert_eq!(assert_sgemm_agrees(&r, &far, (0, 0)), (0, 0, 0));
    assert_sgemm_agrees(&r, &Relation::from_edges(std::iter::empty()), (0, 0));
}

/// 40×200×40 is 17.6 k f32 cells: over a 2 000-cell cap, the core expands
/// (where the served bit core fits the same cap).
#[test]
fn byte_cap_trips_for_f32_cells() {
    let r = coin_relation(40, 200, 8, 7);
    let (out, stats) = at((0, 0), 1, 2_000).two_path(&r, &r);
    assert_eq!(out, ExpandDedupEngine::serial().join_project(&r, &r));
    assert_eq!(stats.heavy_core_matrix, Some(false));
}

/// k = 3, 4 and 5 at everything heavy, mixed partitions and everything
/// light; k = 4 at `(1, 1)` is Example 3 of the paper.
#[test]
fn star_sgemm_agrees_for_three_to_five_relations() {
    for (k, sets, elems, keep) in [
        (3, 14, 40, 5),
        (4, 9, 40, 5),
        (5, 6, 40, 5),
        (3, 10, 130, 13),
    ] {
        let rels: Vec<Relation> = (0..k)
            .map(|i| coin_relation(sets + i, elems, keep, 100 + k + i * 7919))
            .collect();
        assert!(!star_join_project(&rels).is_empty());
        for deltas in [(0, 0), (2, 3), (1, 1), (4, 2), (500, 500)] {
            assert_star_sgemm_agrees(&rels, deltas);
        }
    }
    let cliques = [clique(10, 5), clique(8, 5), clique(9, 5), clique(6, 5)];
    for deltas in [(1, 1), (2, 2), (1, 3), (4, 2), (50, 50)] {
        assert_star_sgemm_agrees(&cliques[..3], deltas);
        assert_star_sgemm_agrees(&cliques, deltas);
    }
}

/// Past line 2 a dense star is everything heavy: the prototype multiplies
/// the half-tuples of its first two legs by the heads of the third over
/// the `y`s they share.
#[test]
fn dense_star_runs_everything_heavy() {
    let rels = [clique(30, 8), clique(20, 8), clique(10, 8)];
    let legs: Vec<&Relation> = rels.iter().collect();
    let (rows, plan) = MMJoin::default().star(&legs);
    assert_eq!(rows.into_values(), star_join_project(&rels).concat());
    assert_eq!((plan.delta1, plan.delta2), (Some(0), Some(0)));
    assert_eq!(plan.full_join, Some(48_000));
    assert_eq!(plan.heavy_dims, Some((600, 8, 10)));
    assert_eq!(plan.heavy_core_matrix, Some(true));
}

/// The prototype and the served `MMJoin` return the same rows on every
/// generated dataset, serial and on two threads: two-path, counted
/// two-path, star k = 3, similarity (unordered and ordered) and
/// containment.
#[test]
fn prototype_and_served_mmjoin_agree_on_every_dataset() {
    const SCALE: f64 = 0.02;
    for kind in DatasetKind::ALL {
        let r = dataset(kind, SCALE);
        let stars = star_dataset(kind, SCALE, 3);
        let queries = [
            Query::two_path(&r, &r).build().unwrap(),
            Query::two_path(&r, &r).min_count(2).build().unwrap(),
            Query::star(&stars).build().unwrap(),
            Query::similarity(&r, 2).build().unwrap(),
            Query::similarity(&r, 2).ordered().build().unwrap(),
            Query::containment(&r).build().unwrap(),
        ];
        for threads in [1, 2] {
            let config = JoinConfig {
                threads,
                ..JoinConfig::default()
            };
            let engines: [&dyn Engine; 2] =
                [&MMJoin::new(config.clone()), &MmJoinEngine::new(config)];
            for q in &queries {
                let [paper, served] = engines.map(|engine| {
                    let mut sink = VecSink::new();
                    engine.execute(q, &mut sink).unwrap();
                    (sink.rows.to_rows(), sink.counts)
                });
                assert_eq!(paper, served, "{kind:?} {:?} threads={threads}", q.family());
            }
        }
        // The pair sink the figures' agreement checks read.
        let q = Query::two_path(&r, &r).build().unwrap();
        let mut sink = PairSink::new();
        MMJoin::default().execute(&q, &mut sink).unwrap();
        assert_eq!(sink.pairs, SortMergeEngine.join_project(&r, &r), "{kind:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All threshold choices produce the reference result.
    #[test]
    fn any_deltas_match_reference(
        r_edges in proptest::collection::vec((0u32..20, 0u32..15), 1..80),
        s_edges in proptest::collection::vec((0u32..20, 0u32..15), 1..80),
        d1 in 1u32..8,
        d2 in 1u32..8,
        threads in 1usize..3,
    ) {
        let (r, s) = (rel(&r_edges), rel(&s_edges));
        let cap = JoinConfig::default().matrix_cell_cap;
        prop_assert_eq!(
            at((d1, d2), threads, cap).two_path(&r, &s).0,
            SortMergeEngine.join_project(&r, &s)
        );
    }

    /// The counting passes are exact for every pair, at any thresholds,
    /// any `min_count` and either thread count.
    #[test]
    fn counts_always_exact(
        r_edges in proptest::collection::vec((0u32..15, 0u32..12), 1..60),
        s_edges in proptest::collection::vec((0u32..15, 0u32..12), 1..60),
        d1 in 0u32..6,
        d2 in 0u32..6,
        min_count in 0u32..4,
        threads in 1usize..3,
    ) {
        let (r, s) = (rel(&r_edges), rel(&s_edges));
        let cap = JoinConfig::default().matrix_cell_cap;
        let got = at((d1, d2), threads, cap).counts(&r, &s, min_count).0;
        prop_assert_eq!(got, brute_counts(&r, &s, min_count));
    }

    /// Random relations, random thresholds (everything heavy included):
    /// SGEMM == capped fallback == expansion.
    #[test]
    fn sgemm_agrees_on_random_relations(
        r_edges in proptest::collection::vec((0u32..40, 0u32..150), 0..400),
        s_edges in proptest::collection::vec((0u32..90, 0u32..130), 0..400),
        d1 in 0u32..6,
        d2 in 0u32..8,
    ) {
        let (r, s) = (Relation::from_edges(r_edges), Relation::from_edges(s_edges));
        assert_sgemm_agrees(&r, &s, (d1, d2));
        assert_sgemm_agrees(&r, &s, (0, 0));
    }

    /// Random stars, random thresholds: SGEMM == capped fallback == the
    /// WCOJ reference.
    #[test]
    fn star_sgemm_agrees_on_random_relations(
        e1 in proptest::collection::vec((0u32..9, 0u32..12), 1..50),
        e2 in proptest::collection::vec((0u32..11, 0u32..12), 1..50),
        e3 in proptest::collection::vec((0u32..7, 0u32..12), 1..50),
        e4 in proptest::collection::vec((0u32..5, 0u32..12), 1..40),
        d1 in 0u32..5,
        d2 in 0u32..5,
    ) {
        let rels: Vec<Relation> = [e1, e2, e3, e4].into_iter().map(Relation::from_edges).collect();
        assert_star_sgemm_agrees(&rels[..3], (d1, d2));
        assert_star_sgemm_agrees(&rels, (d1, d2));
        assert_star_sgemm_agrees(&rels, (0, 0));
    }
}
