//! A relation is packed once, not once per query: the optimizer-chosen
//! existence two-path multiplies the bit rows memoised on its `Relation`s
//! (`mmjoin_storage::packed`) instead of building operands per pair.
//!
//! (a) the memoised path equals expansion and the compact per-pair core on
//! relations whose domains disagree in every way; (b) a relation value is
//! packed once per form, whoever asks and however often; (c) an update can
//! never leave a stale form behind, because it makes a new relation; (d) the
//! memory cap is checked before anything is packed; (e) a query over packed
//! relations allocates its product, its output and O(1) more — which is
//! also how the suite holds that the per-pair builder (`HeavyIndex`, whose
//! vectors are sized by the domains) does not run on the served path; (f) a
//! relation is shared, never copied: a clone, a registration and the
//! transpose a chain step reads copy no edge array, and no constructor keeps
//! one.

use mmjoin::{
    plan_query, HeavyBackend, JoinConfig, OperandSource, PackedForm, PlanKind, PlanStats, Query,
    Relation, RelationDelta, Request, Service, ServiceConfig, Value,
};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_core::{star_join_project_mm_with_stats, two_path_join_project_with_stats};
use mmjoin_service::command;
use mmjoin_wcoj::star_join_project;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Barrier;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tallied;

/// The optimizer decides, and past line 2 always: `factor` 0 plans every
/// join that has a witness, a factor below 0 even an empty one.
fn served(factor: f64, threads: usize) -> JoinConfig {
    JoinConfig {
        wcoj_fallback_factor: factor,
        threads,
        ..JoinConfig::default()
    }
}

/// Everything heavy by fiat: the compact per-pair core on the same cells.
fn compact() -> JoinConfig {
    JoinConfig::with_deltas(0, 0)
}

/// `sets` sets starting at `x0` over `elems` elements starting at `y0`,
/// element `y` in set `x` when the seeded coin says so.
fn coin(sets: u32, x0: u32, elems: u32, y0: u32, keep_of_16: u32, seed: u32) -> Relation {
    let mut edges = Vec::new();
    for x in 0..sets {
        for y in 0..elems {
            let coin = (x.wrapping_mul(2_654_435_761) ^ y.wrapping_mul(40_503) ^ seed)
                .wrapping_mul(2_246_822_519)
                >> 28;
            if coin < keep_of_16 {
                edges.push((x0 + 3 * x, y0 + y));
            }
        }
    }
    Relation::from_edges(edges)
}

/// An equal relation that shares nothing with `r` — a clone would share its
/// packed rows.
fn fresh(r: &Relation) -> Relation {
    Relation::from_edges(r.edges().iter().copied())
}

fn forms_packed(r: &Relation) -> usize {
    [PackedForm::XMajor, PackedForm::YMajor]
        .into_iter()
        .filter(|&form| r.is_packed(form))
        .count()
}

fn built(stats: &PlanStats) -> usize {
    let operands = stats.heavy_operands.expect("a memoised core");
    operands
        .iter()
        .filter(|&&o| o == OperandSource::Built)
        .count()
}

/// Memoised == expansion == compact on `(r, s)`, serial and on two threads;
/// returns the kernel the memoised path ran, if it multiplied.
fn assert_memoised_agrees(r: &Relation, s: &Relation, factor: f64) -> Option<&'static str> {
    let expected = ExpandDedupEngine::serial().join_project(r, s);
    let (by_compact, _) = two_path_join_project_with_stats(r, s, &compact());
    assert_eq!(by_compact, expected, "compact core");
    let mut kernel = None;
    for threads in [1, 2] {
        // Each thread count packs for itself.
        let (r, s) = (fresh(r), fresh(s));
        let (rows, stats) = two_path_join_project_with_stats(&r, &s, &served(factor, threads));
        assert_eq!(rows, expected, "memoised core, threads={threads}");
        let Some(stats) = stats else {
            assert!(r.is_empty() || s.is_empty());
            continue;
        };
        if stats.kind == PlanKind::Wcoj {
            // Line 2 at factor 0: nothing joins.
            assert!(expected.is_empty() && factor >= 0.0);
            assert_eq!(r.packed_bytes() + s.packed_bytes(), 0);
            continue;
        }
        assert_eq!(
            stats.heavy_dims,
            Some((
                r.active_x_count(),
                r.y_domain().min(s.y_domain()),
                s.active_x_count()
            )),
            "raw coordinates, not a per-pair renumbering"
        );
        assert_eq!(stats.light_tuples, Some((0, 0)));
        assert_eq!(stats.heavy_core_matrix, Some(true));
        assert_eq!(built(&stats), 2, "both relations were fresh");
        kernel = stats.heavy_backend;
    }
    kernel
}

/// (a) The named corners: `y` domains that differ, neither a multiple of 64,
/// either side the wider; one side's `y`s entirely past the other's domain;
/// no common `y` inside overlapping domains; shapes that reach each
/// orientation.
#[test]
fn memoised_core_agrees_on_mismatched_domains_in_both_orientations() {
    let mut kernels = BTreeSet::new();
    let cases = [
        // Narrow inner, wide output: row-OR. R's domain the wider, then S's.
        (coin(9, 0, 150, 0, 5, 1), coin(70, 5, 90, 0, 5, 2)),
        (coin(9, 0, 90, 0, 5, 3), coin(70, 5, 150, 0, 5, 4)),
        // Dense and short: AND-any. 130 vs 65 columns: three words against two.
        (coin(40, 0, 130, 0, 12, 5), coin(35, 1, 65, 0, 12, 6)),
        (coin(40, 0, 65, 0, 12, 7), coin(35, 1, 130, 0, 12, 8)),
        // S starts inside R's last word and runs past R's domain.
        (coin(20, 0, 100, 0, 8, 9), coin(25, 0, 100, 70, 8, 10)),
    ];
    for (r, s) in &cases {
        assert_ne!(r.y_domain(), s.y_domain());
        assert!(r.y_domain() % 64 != 0 && s.y_domain() % 64 != 0);
        kernels.extend(assert_memoised_agrees(r, s, 0.0));
        kernels.extend(assert_memoised_agrees(s, r, 0.0));
    }
    assert_eq!(
        kernels.into_iter().collect::<Vec<_>>(),
        ["bit and-any", "bit row-or"]
    );
    // Nothing joins: S's elements lie entirely past R's domain, or between
    // R's. At factor 0 line 2 takes these; below 0 the kernels see them.
    let r = coin(12, 0, 50, 0, 8, 11);
    let past = coin(10, 0, 40, 50, 8, 12);
    let evens = Relation::from_edges((0..200u32).map(|i| (i % 9, 2 * (i % 40))));
    let odds = Relation::from_edges((0..200u32).map(|i| (i % 7, 2 * (i % 45) + 1)));
    for (a, b) in [(&r, &past), (&past, &r), (&evens, &odds), (&odds, &evens)] {
        assert_eq!(assert_memoised_agrees(a, b, 0.0), None);
        assert!(assert_memoised_agrees(a, b, -1.0).is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) Random relations whose four domains, offsets and densities are
    /// drawn independently.
    #[test]
    fn memoised_core_agrees_on_random_relations(
        r_shape in (1u32..40, 1u32..200, 0u32..90),
        s_shape in (1u32..40, 1u32..200, 0u32..90),
        keep in (1u32..14, 1u32..14),
        seed in any::<u32>(),
    ) {
        let r = coin(r_shape.0, 2, r_shape.1, r_shape.2, keep.0, seed);
        let s = coin(s_shape.0, 0, s_shape.1, s_shape.2, keep.1, seed ^ 0x9e37);
        for factor in [0.0, -1.0] {
            assert_memoised_agrees(&r, &s, factor);
        }
    }
}

/// (b) 24 two-paths read one relation — as either operand, against 24
/// partners — and it is packed once per form they used.
#[test]
fn a_relation_is_packed_once_however_many_queries_read_it() {
    let hub = coin(60, 0, 120, 0, 9, 21);
    let config = served(0.0, 1);
    let mut hub_builds = 0;
    for i in 0..12u32 {
        let partner = coin(30 + i, 0, 100 + i, 0, 9, 100 + i);
        let expected = ExpandDedupEngine::serial().join_project(&hub, &partner);
        let (rows, stats) = two_path_join_project_with_stats(&hub, &partner, &config);
        assert_eq!(rows, expected);
        let left = stats.unwrap().heavy_operands.unwrap()[0];
        hub_builds += usize::from(left == OperandSource::Built);
        let (rows, stats) = two_path_join_project_with_stats(&partner, &hub, &config);
        assert_eq!(rows.len(), expected.len());
        let right = stats.unwrap().heavy_operands.unwrap()[1];
        hub_builds += usize::from(right == OperandSource::Built);
    }
    assert!(forms_packed(&hub) >= 1);
    assert_eq!(hub_builds, forms_packed(&hub));
    // A clone is the same relation value; an equal relation is not.
    let (_, stats) = two_path_join_project_with_stats(&hub.clone(), &hub.clone(), &config);
    let reused = 2 - built(&stats.unwrap());
    assert!(reused >= 1);
    assert_eq!(fresh(&hub).packed_bytes(), 0);
}

/// (b) Stars read their legs' forms the same way: the first star over
/// three legs packs each in both forms, and every later star over them —
/// in another order, naming one leg twice — packs nothing, reads the same
/// rows and reports its operands reused.
#[test]
fn a_star_packs_each_leg_once_however_many_stars_read_it() {
    let legs = [
        coin(24, 0, 20, 0, 11, 41),
        coin(20, 1, 22, 0, 11, 42),
        coin(18, 0, 18, 2, 11, 43),
    ];
    let config = served(0.0, 1);
    let star = |order: [usize; 3]| {
        let rels = order.map(|i| &legs[i]);
        let (rows, stats) = star_join_project_mm_with_stats(&rels, &config);
        assert_eq!(rows, star_join_project(&rels), "{order:?}");
        let stats = stats.unwrap();
        assert_eq!(stats.kind, PlanKind::MatrixPartitioned, "{order:?}");
        stats.heavy_operands.expect("a memoised core")
    };
    assert_eq!(star([0, 1, 2]), [OperandSource::Built; 2]);
    assert!(legs.iter().all(|r| forms_packed(r) == 2));
    let words = |r: &Relation| r.packed(PackedForm::XMajor).0.words().as_ptr();
    let first: Vec<_> = legs.iter().map(words).collect();
    for order in [[2, 0, 1], [1, 2, 0], [0, 0, 2], [2, 1, 1]] {
        assert_eq!(star(order), [OperandSource::Reused; 2], "{order:?}");
    }
    assert_eq!(legs.iter().map(words).collect::<Vec<_>>(), first);
    // A two-path over two of the legs finds their forms too.
    let (_, stats) = two_path_join_project_with_stats(&legs[0], &legs[1], &config);
    assert_eq!(built(&stats.unwrap()), 0);
}

/// (b) Two threads touch a fresh relation at once: each form is packed by
/// exactly one of them, and both get the answer.
#[test]
fn racing_first_readers_pack_once_and_agree() {
    let config = served(0.0, 1);
    for round in 0..20u32 {
        let r = coin(50, 0, 90, 0, 9, 300 + round);
        let expected = ExpandDedupEngine::serial().join_project(&r, &r);
        let barrier = Barrier::new(2);
        let run = || {
            barrier.wait();
            let (rows, stats) = two_path_join_project_with_stats(&r, &r, &config);
            (rows, built(&stats.unwrap()))
        };
        let ((rows_a, built_a), (rows_b, built_b)) = std::thread::scope(|scope| {
            let other = scope.spawn(run);
            (run(), other.join().expect("the second reader ran"))
        });
        assert_eq!(rows_a, expected);
        assert_eq!(rows_b, expected);
        assert_eq!(built_a + built_b, forms_packed(&r), "round {round}");
    }
}

/// The lines of `explain twopath <a> <b>` that name the plan.
fn explain(service: &Service, a: &str, b: &str) -> String {
    command::run_line(service, &format!("explain twopath {a} {b}")).expect("explain runs")
}

/// (c) Inserts and deletes — effective, no-op and reverting — interleaved
/// with queries and `explain`: every answer is the reference's on the state
/// it was asked on, an effective update leaves an unpacked relation, and a
/// no-op keeps the forms. Once with the result cache off, so that every
/// query runs the engine, and once with it on, where an update drops the
/// cached answers it touches.
#[test]
fn updates_never_leave_a_stale_form() {
    for cache_capacity in [0, 64] {
        let service = Service::with_config(ServiceConfig {
            cache_capacity,
            join_config: served(0.0, 1),
            ..ServiceConfig::default()
        });
        let mut state: [BTreeSet<(Value, Value)>; 2] = [
            coin(30, 0, 70, 0, 8, 41).edges().iter().copied().collect(),
            coin(26, 1, 90, 0, 8, 42).edges().iter().copied().collect(),
        ];
        let names = ["A", "B"];
        for (name, edges) in names.iter().zip(&state) {
            service.register(*name, Relation::from_edges(edges.iter().copied()));
        }
        let check = |state: &[BTreeSet<(Value, Value)>; 2], step: &str| {
            let rels = state
                .each_ref()
                .map(|edges| Relation::from_edges(edges.iter().copied()));
            for (a, b) in [(0, 1), (1, 0), (0, 0)] {
                let expected = ExpandDedupEngine::serial().join_project(&rels[a], &rels[b]);
                let response = service
                    .query(Request::two_path(names[a], names[b]))
                    .unwrap();
                let rows: Vec<(Value, Value)> =
                    response.rows.iter().map(|row| (row[0], row[1])).collect();
                assert_eq!(rows, expected, "{step}: {} ⋈ {}", names[a], names[b]);
            }
        };
        let packed = |name: &str| service.relation(name).unwrap().packed_bytes();

        assert!(explain(&service, "A", "B").contains("operands built/built"));
        check(&state, "initial");
        assert!(packed("A") > 0 && packed("B") > 0);
        assert!(explain(&service, "A", "B").contains("operands reused/reused"));

        // (relation, edge, insert?) — fresh ids, present edges, absent
        // edges, and each effective step later undone.
        let present = *state[0].iter().next().unwrap();
        let steps = [
            (0, (200, 3), true),    // effective: a new set
            (0, (200, 3), true),    // no-op: already there
            (1, (4, 300), true),    // effective: a new element, domain grows
            (0, present, true),     // no-op
            (0, present, false),    // effective delete
            (0, (999, 999), false), // no-op: absent
            (0, present, true),     // reverts the delete
            (0, (200, 3), false),   // reverts the first insert
            (1, (4, 300), false),   // reverts the second
        ];
        for (i, &(which, edge, insert)) in steps.iter().enumerate() {
            let name = names[which];
            let before = packed(name);
            let effective = if insert {
                state[which].insert(edge)
            } else {
                state[which].remove(&edge)
            };
            let report = if insert {
                service.insert(name, [edge])
            } else {
                service.delete(name, [edge])
            }
            .unwrap();
            assert_eq!(report.inserted + report.deleted, usize::from(effective));
            let step = format!("cache {cache_capacity}, step {i}");
            if effective {
                assert_eq!(packed(name), 0, "{step}: a new relation value");
                let side = if which == 0 { "built/" } else { "/built" };
                assert!(explain(&service, "A", "B").contains(side), "{step}");
            } else if !effective {
                assert!(before > 0 || cache_capacity > 0);
                assert_eq!(packed(name), before, "{step}: a no-op keeps its forms");
            }
            check(&state, &step);
            if cache_capacity == 0 {
                assert!(packed(name) > 0, "{step}: the query packed it again");
            }
        }
        let metrics = service.metrics();
        assert!(metrics.operand_packs >= 2, "{metrics}");
        if cache_capacity == 0 {
            // Three queries a check, two operands each, all through the
            // engine; both relations were packed once to begin with, and
            // each of the six effective updates forced a repack.
            assert_eq!(
                metrics.operand_packs + metrics.operand_reuses,
                6 * (steps.len() as u64 + 1)
            );
            assert!(metrics.operand_packs >= 2 + 6, "{metrics}");
        }
    }
}

/// Bytes the memoised core of `r ⋈ s` takes in the orientation `kernel`.
fn core_bytes(r: &Relation, s: &Relation, kernel: &str) -> usize {
    let right = match kernel {
        "bit row-or" => PackedForm::YMajor,
        _ => PackedForm::XMajor,
    };
    let product = r.active_x_count() * s.active_x_count().div_ceil(64);
    8 * (r.packed_words(PackedForm::XMajor) + s.packed_words(right) + product)
}

/// (d) The cap is checked against the real packed size before anything is
/// packed: one cell under it the relations stay unpacked, the plan — run
/// and explained — is expansion, and the answer is right; at it, the core
/// runs.
#[test]
fn a_core_over_the_cap_packs_nothing_and_expands() {
    let r = coin(40, 0, 150, 0, 6, 51);
    let s = coin(70, 0, 100, 0, 6, 52);
    let expected = ExpandDedupEngine::serial().join_project(&r, &s);
    let (_, stats) = two_path_join_project_with_stats(&fresh(&r), &fresh(&s), &served(0.0, 1));
    let kernel = stats.unwrap().heavy_backend.unwrap();
    let cells = core_bytes(&r, &s, kernel) / 4;
    let capped = |matrix_cell_cap| JoinConfig {
        matrix_cell_cap,
        ..served(0.0, 1)
    };
    for (cap, fits) in [
        (cells, true),
        (cells - 1, false),
        (r.packed_words(PackedForm::XMajor) * 2 - 1, false),
        (0, false),
    ] {
        let (r, s) = (fresh(&r), fresh(&s));
        let query = Query::two_path(&r, &s).build().unwrap();
        let planned = plan_query(&query, &capped(cap)).unwrap();
        assert_eq!(
            r.packed_bytes() + s.packed_bytes(),
            0,
            "planning packs nothing"
        );
        let (rows, stats) = two_path_join_project_with_stats(&r, &s, &capped(cap));
        assert_eq!(rows, expected, "cap {cap}");
        let stats = stats.unwrap();
        assert_eq!(stats.kind, planned.kind);
        if fits {
            assert_eq!(stats.heavy_backend, Some(kernel));
            let product = 8 * r.active_x_count() * s.active_x_count().div_ceil(64);
            assert_eq!(r.packed_bytes() + s.packed_bytes() + product, 4 * cap);
        } else {
            assert_eq!(stats.kind, PlanKind::Wcoj, "cap {cap}");
            assert!(planned.to_string().starts_with("plan: expand (WCOJ)"));
            assert_eq!(r.packed_bytes() + s.packed_bytes(), 0, "cap {cap}");
        }
    }
    // The SGEMM pin never reads the packed rows.
    let pinned = JoinConfig {
        heavy_backend: HeavyBackend::DenseF32,
        ..served(0.0, 1)
    };
    let (rows, stats) = two_path_join_project_with_stats(&r, &s, &pinned);
    assert_eq!(rows, expected);
    assert_eq!(stats.unwrap().heavy_operands, None);
    assert_eq!(r.packed_bytes() + s.packed_bytes(), 0);
}

/// (d) A star whose middle leg is wide and mostly joins nothing: its heads
/// off the common `y`s never become candidates, and what the core asks of
/// the allocator per query stays within the cap's bytes beside the forms —
/// no buffer of every prefix by every head of the leg (here 2 000 × 1 563
/// words, 25 MB, against a 3 MB cap).
#[test]
fn a_wide_star_leg_that_mostly_joins_nothing_stays_within_the_cap() {
    // 2 000 heads on two of the common `y` 0..4 each, then 8 heads on them
    // and 100 000 on `y` 4..64, which no other leg holds, then 8 heads.
    let first = Relation::from_edges((0..2000).flat_map(|x| [(x, x % 4), (x, (x + 1) % 4)]));
    let common = (0..8).map(|x| (x, x % 4));
    let wide = Relation::from_edges(common.clone().chain((8..100_008).map(|x| (x, 4 + x % 60))));
    let last = Relation::from_edges(common);
    let rels = [&first, &wide, &last];
    let config = JoinConfig {
        matrix_cell_cap: 3 << 18,
        ..served(0.0, 1)
    };
    let expected: Vec<Value> = star_join_project(&rels).concat();
    let run = || mmjoin_core::star_join_project_mm_flat(&rels, &config);
    let (rows, stats) = run();
    assert_eq!(rows, expected);
    assert_eq!(stats.unwrap().heavy_core_matrix, Some(true));
    let forms: usize = rels.iter().map(|r| r.packed_bytes()).sum();
    let ((again, stats), asked) = tallied(usize::MAX, run);
    assert_eq!(again, expected);
    assert_eq!(
        stats.unwrap().heavy_operands,
        Some([OperandSource::Reused; 2])
    );
    let budget = 4 * config.matrix_cell_cap - forms;
    assert!(asked.bytes <= budget as u64, "{asked:?}, {budget} bytes");
}

/// (e) A query over packed relations allocates the product — its words and
/// the two id lists its answer keeps — the output and O(1) more, whatever
/// `|R| + |S|` — in particular none of the per-pair
/// builder's domain-sized vectors, which is how this holds that
/// `HeavyIndex::build` / `build_bit_matrices` stay off the served path: run
/// on the same relations (the forced partition), they show on the same
/// counter.
#[test]
fn a_reuse_query_allocates_the_product_the_output_and_a_constant() {
    /// Above any bookkeeping, below every domain-sized vector here.
    const BIG: usize = 4096;
    let mut reuse_costs = Vec::new();
    for scale in [1u32, 4] {
        let r = coin(300 * scale, 0, 1100 * scale, 0, 4, 61);
        let s = coin(280 * scale, 0, 1100 * scale, 0, 4, 62);
        let config = served(0.0, 1);
        let ((rows, stats), first) =
            tallied(BIG, || two_path_join_project_with_stats(&r, &s, &config));
        assert_eq!(built(&stats.unwrap()), 2);
        let ((again, stats), reuse) =
            tallied(BIG, || two_path_join_project_with_stats(&r, &s, &config));
        assert_eq!(again, rows);
        assert_eq!(built(&stats.unwrap()), 0);
        // The id lists are one value a row of `R` and of `S`: big blocks
        // only at the larger scale.
        let lists = [r.active_x_count(), s.active_x_count()];
        let big_lists = lists.iter().filter(|&&n| 4 * n >= BIG).count() as u64;
        assert_eq!(big_lists, if scale == 1 { 0 } else { 2 });
        assert_eq!(
            reuse.big,
            2 + big_lists,
            "the product, its id lists and the output: {reuse:?}"
        );
        assert!(reuse.allocs <= 6, "{reuse:?}");
        // Packing is the difference: ids, words and universal mask of each
        // form.
        assert_eq!(first.allocs, reuse.allocs + 6, "{first:?} vs {reuse:?}");
        reuse_costs.push(reuse.allocs);
        let ((by_compact, _), per_pair) =
            tallied(BIG, || two_path_join_project_with_stats(&r, &s, &compact()));
        assert_eq!(by_compact, rows);
        // Its two operands and its `y` map, at the least.
        assert!(per_pair.big >= reuse.big + 3, "{per_pair:?}");
    }
    assert_eq!(reuse_costs[0], reuse_costs[1], "independent of |R| + |S|");
}

/// Tuples of the base relations (f) copies nothing of.
const N: u32 = 1 << 14;
/// Their edge array, the first block a copy of their tuples allocates;
/// every index, intermediate and bitmap of (f) is smaller.
const EDGE_ARRAY: usize = 8 * N as usize;

/// (f) A relation is shared, never copied: a clone, a transpose, a transpose
/// transposed back and a registration of a clone allocate no block the size
/// of its edge array.
#[test]
fn a_relation_is_shared_not_copied() {
    let r = Relation::from_edges((0..N).map(|e| (e % 64, e / 2)));
    assert_eq!(r.len(), N as usize);
    let service = Service::with_default_registry();
    let copies_nothing = |what: &str, f: &dyn Fn()| {
        let tally = tallied(EDGE_ARRAY, f).1;
        assert_eq!(tally.big, 0, "{what} copied the edge array: {tally:?}");
    };
    copies_nothing("a clone", &|| drop(r.clone()));
    copies_nothing("a transpose", &|| drop(r.transposed()));
    copies_nothing("a double transpose", &|| drop(r.transposed().transposed()));
    copies_nothing("a registration", &|| {
        service.register("R", r.clone());
    });
    assert_eq!(service.relation_edges("R").as_deref(), Some(r.edges()));
}

/// (f) Nor does a relation keep the tuple list it was built from: what each
/// constructor returns — the builder, sorted edges, an applied delta, a
/// semi-join reduction, a transpose — holds no block the size of its edge
/// array until `edges()` flattens one, which dropping it then frees.
#[test]
fn construction_retains_no_edge_array() {
    let r = Relation::from_edges((0..N).map(|e| (e % 64, e / 2)));
    let sorted = || {
        let mut edges = Vec::with_capacity(r.len());
        edges.extend(r.tuples());
        Relation::from_sorted_edges(r.x_domain(), r.y_domain(), edges)
    };
    let mut delta = RelationDelta::new();
    delta.insert(70, 0);
    let builds: [(&str, &dyn Fn() -> Relation); 5] = [
        ("the builder", &|| Relation::from_edges(r.tuples())),
        ("sorted edges", &sorted),
        ("an applied delta", &|| r.apply_delta(&delta)),
        ("a reduction", &|| Relation::reduce_pair(&r, &r).0),
        ("a transpose", &|| r.transposed()),
    ];
    for (what, build) in builds {
        let built = build();
        assert!(built.len() >= N as usize, "{what}");
        let freed = tallied(EDGE_ARRAY, || drop(built)).1;
        assert_eq!(freed.big_frees, 0, "{what} kept an edge array: {freed:?}");
        let built = build();
        built.edges();
        let freed = tallied(EDGE_ARRAY, || drop(built)).1;
        assert_eq!(freed.big_frees, 1, "{what}, flattened: {freed:?}");
    }
}

/// (f) A chain step that joins on a relation's `x` column reads its
/// transpose, which copies nothing: no chain — the first over registered
/// relations, the second (the result cache is off, the engine runs again),
/// or one after an effective update — allocates a block the size of a base
/// relation's edge array.
#[test]
fn no_chain_copies_a_registered_relation() {
    // Every step expands: a step that multiplied would pack a form, which
    // after the update below is as large as an edge array.
    let service = Service::with_config(ServiceConfig {
        cache_capacity: 0,
        join_config: served(f64::INFINITY, 1),
        ..ServiceConfig::default()
    });
    let head = Relation::from_edges((0..8).map(|i| (i, i)));
    let mid = Relation::from_edges((0..N).map(|e| (e % 64, e / 2)));
    let tail = Relation::from_edges((0..N).map(|e| (e / 2, e % 64)));
    let expand = ExpandDedupEngine::serial();
    let two_hops = Relation::from_edges(expand.join_project(&head, &mid.transposed()));
    let expected = expand.join_project(&two_hops, &tail.transposed());
    for (name, relation) in [("Head", head), ("Mid", mid), ("Tail", tail)] {
        service.register(name, relation);
    }
    let chain = || {
        let response = service.query(Request::chain(["Head", "Mid", "Tail"]));
        response.expect("the chain runs")
    };

    let (first, cold) = tallied(EDGE_ARRAY, chain);
    let rows: Vec<(Value, Value)> = first.rows.iter().map(|row| (row[0], row[1])).collect();
    assert_eq!(rows, expected);
    assert!(!rows.is_empty());
    assert_eq!(cold.big, 0, "the first chain: {cold:?}");
    let (again, warm) = tallied(EDGE_ARRAY, chain);
    assert!(!again.cached);
    assert_eq!(again.rows, first.rows);
    assert_eq!(warm.big, 0, "the second chain: {warm:?}");

    for name in ["Mid", "Tail"] {
        service.insert(name, [(70, 70)]).expect("registered");
    }
    let (after, updated) = tallied(EDGE_ARRAY, chain);
    assert_eq!(after.rows, first.rows, "(70, 70) joins nothing");
    assert_eq!(updated.big, 0, "new relation values: {updated:?}");
}
