//! The served Boolean heavy core against plain expansion: line 2 forced onto
//! the everything-heavy core (a factor of 0), forced onto expansion (`∞`),
//! and the core over a zero memory cap, which expands instead — the same
//! rows each time. The paper prototype's SGEMM at forced partitions is
//! checked against the same three in `crates/bench/tests/paper_prototype.rs`;
//! CI runs both suites on both feature legs.
//!
//! The star section does the same for the grouped-variable core of §3.2 —
//! same kernels, fed by the same AND-ed half-tuple rows — and for how a
//! star's rows leave the engine: one flat buffer through `emit_flat`, in
//! order.
//!
//! The universal-mask section checks the fill: a dense two-path and star
//! whose every row meets an element all right-hand sets hold, and
//! community-structured ones whose rows never do, each against the
//! reference under both orientations.
//!
//! The product-answer section reads a Boolean core's answer kept as its
//! product's cells every way the service reads one — `len`, prefixes around
//! a word, a cut, the whole — against the same rows written out flat.
//!
//! The popcount section checks the counting core, AND-popcount over both
//! relations' `x`-major rows, against witness counts by brute force: `y`
//! domains whose strides differ, self-joins, every `min_count` from 0 to 3
//! (no zero count is ever written), pairs with no common `y`, and rows
//! through a universal `y`.

use mmjoin_api::{
    emit_flat, flatten_pairs, Engine, FlatRows, ForEachSink, LimitSink, PlanKind, Query, Sink,
    VecSink,
};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_core::{
    star_join_project_mm_with_stats, two_path_join_project_with_stats, two_path_with_counts_stats,
    JoinConfig, MmJoinEngine,
};
use mmjoin_executor::Executor;
use mmjoin_matrix::{BitRows, Orientation};
use mmjoin_storage::{PackedForm, PackedRows, Relation, Value};
use mmjoin_wcoj::star_join_project;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Line 2 forced onto the core (`0`) or onto expansion (`∞`).
fn factor(wcoj_fallback_factor: f64) -> JoinConfig {
    JoinConfig {
        wcoj_fallback_factor,
        ..JoinConfig::default()
    }
}

/// The everything-heavy core whenever it fits.
fn core() -> JoinConfig {
    factor(0.0)
}

/// Asserts bit core == capped fallback == expansion on `(r, s)`; returns
/// the heavy dims the core reported, `(0, 0, 0)` when the join expands.
fn assert_cores_agree(r: &Relation, s: &Relation) -> (usize, usize, usize) {
    let expected = ExpandDedupEngine::serial().join_project(r, s);
    let (bit, bit_stats) = two_path_join_project_with_stats(r, s, &core());
    let capped = JoinConfig {
        matrix_cell_cap: 0,
        ..core()
    };
    let (fallback, capped_stats) = two_path_join_project_with_stats(r, s, &capped);
    let (expanded, _) = two_path_join_project_with_stats(r, s, &factor(f64::INFINITY));
    assert_eq!(bit, expected, "bit core");
    assert_eq!(fallback, expected, "capped fallback");
    assert_eq!(expanded, expected, "expansion");
    if r.is_empty() || s.is_empty() {
        assert!(bit_stats.is_none());
        return (0, 0, 0);
    }
    assert_eq!(capped_stats.unwrap().kind, PlanKind::Wcoj);
    let bit_stats = bit_stats.unwrap();
    if bit_stats.kind == PlanKind::Wcoj {
        return (0, 0, 0);
    }
    assert!(bit_stats.heavy_backend.unwrap().starts_with("bit "));
    assert_eq!(bit_stats.heavy_core_matrix, Some(true));
    bit_stats.heavy_dims.unwrap()
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

/// Heavy widths on both sides of the 64-bit word and the 512-bit early-exit
/// block boundaries, in the inner (`y`) and the output (`z`) dimension.
#[test]
fn cores_agree_across_word_and_block_width_boundaries() {
    for width in [1u32, 63, 64, 65, 255, 256, 257, 511, 512, 513, 700] {
        // Wide output, narrow inner: row-OR over `⌈width/64⌉`-word rows.
        let r = coin_relation(9, 24, 6, width);
        let s = coin_relation(width, 24, 5, width + 1);
        let (u, v, w) = assert_cores_agree(&r, &s);
        assert!(u > 0 && v > 0 && w as u32 >= width * 9 / 10, "{width}");
        // Wide inner, narrow output: AND-any over `⌈width/64⌉`-word rows,
        // sparse enough that some pairs scan to the end without a witness.
        let r = coin_relation(9, width, 2, width + 2);
        let s = coin_relation(11, width, 2, width + 3);
        assert_cores_agree(&r, &s);
    }
}

#[test]
fn cores_agree_on_mismatched_domains_and_empty_heavy_sides() {
    // R's elements run past S's and the other way round; x and z domains
    // differ too.
    let r = Relation::from_edges((0..300u32).map(|i| (i % 7, i % 90)));
    let s = Relation::from_edges((0..200u32).map(|i| (i % 23, (i * 3) % 40)));
    assert_eq!(assert_cores_agree(&r, &s), (7, 40, 23));
    assert_eq!(assert_cores_agree(&s, &r), (23, 40, 7));
    // Disjoint elements: nothing joins, and the join expands.
    let far = Relation::from_edges((0..50u32).map(|i| (i % 5, 500 + i)));
    assert_eq!(assert_cores_agree(&r, &far), (0, 0, 0));
    let empty = Relation::from_edges(std::iter::empty());
    assert_cores_agree(&r, &empty);
}

/// The cap counts bytes of the representation that runs: 40×200×40 is
/// 17.6 k f32 cells, 70 k bytes, but two packed forms and a product of
/// 3.2 k bytes of bits, which fit a 2 000-cell (8 000-byte) budget.
#[test]
fn byte_cap_trips_per_representation() {
    let r = coin_relation(40, 200, 8, 7);
    let expected = ExpandDedupEngine::serial().join_project(&r, &r);
    let budget = JoinConfig {
        matrix_cell_cap: 2_000,
        ..core()
    };
    let (bit, bit_stats) = two_path_join_project_with_stats(&r, &r, &budget);
    assert_eq!(bit, expected);
    assert_eq!(bit_stats.unwrap().heavy_core_matrix, Some(true));
}

/// The rows do not depend on the thread count: the Boolean core runs on the
/// calling thread whatever the budget, and expansion is chunked over the
/// executor.
#[test]
fn bit_core_is_identical_at_every_thread_count() {
    let r = coin_relation(700, 900, 3, 11);
    let s = coin_relation(650, 900, 3, 12);
    let budget = Executor::global().budget();
    let serial = two_path_join_project_with_stats(&r, &s, &core());
    assert_eq!(serial.1.as_ref().unwrap().heavy_core_matrix, Some(true));
    for side in [0.0, f64::INFINITY] {
        for threads in [1, 2, budget, 7] {
            let config = JoinConfig {
                threads,
                executor: Some(Arc::new(Executor::new(threads))),
                ..factor(side)
            };
            let (rows, _) = two_path_join_project_with_stats(&r, &s, &config);
            assert_eq!(rows, serial.0, "factor={side} threads={threads}");
        }
    }
}

/// `k` relations over one element domain, a different coin each.
fn coin_star(k: u32, sets: u32, elems: u32, keep_of_16: u32, seed: u32) -> Vec<Relation> {
    (0..k)
        .map(|i| coin_relation(sets + i, elems, keep_of_16, seed.wrapping_add(i * 7919)))
        .collect()
}

/// Asserts bit core == capped fallback == expansion == the WCOJ reference
/// on the star over `rels`, rows and order; returns the Boolean kernel that
/// ran, if a matrix did.
fn assert_star_cores_agree(rels: &[Relation]) -> Option<&'static str> {
    let expected = star_join_project(rels);
    let (bit, bit_stats) = star_join_project_mm_with_stats(rels, &core());
    let capped = JoinConfig {
        matrix_cell_cap: 0,
        ..core()
    };
    let (fallback, capped_stats) = star_join_project_mm_with_stats(rels, &capped);
    let (expanded, _) = star_join_project_mm_with_stats(rels, &factor(f64::INFINITY));
    assert_eq!(bit, expected, "bit core");
    assert_eq!(fallback, expected, "capped fallback");
    assert_eq!(expanded, expected, "expansion");
    if expected.is_empty() {
        return None;
    }
    let bit_stats = bit_stats.unwrap();
    assert_ne!(capped_stats.unwrap().heavy_core_matrix, Some(true));
    if bit_stats.heavy_core_matrix != Some(true) {
        return None;
    }
    assert!(bit_stats.measured_phase_secs.is_some());
    assert!(bit_stats.heavy_backend.unwrap().starts_with("bit "));
    bit_stats.heavy_backend
}

/// k = 3, 4 and 5, sparse and dense enough for either orientation of the
/// Boolean product.
#[test]
fn star_cores_agree_for_three_to_five_relations() {
    let mut kernels = std::collections::BTreeSet::new();
    for (k, sets, elems, keep) in [
        (3, 14, 40, 5),
        (4, 9, 40, 5),
        (5, 6, 40, 5),
        (3, 10, 130, 13),
    ] {
        let rels = coin_star(k, sets, elems, keep, 100 + k);
        assert!(!star_join_project(&rels).is_empty());
        kernels.extend(assert_star_cores_agree(&rels));
    }
    assert_eq!(
        kernels.into_iter().collect::<Vec<_>>(),
        ["bit and-any", "bit row-or"]
    );
}

/// A star's rows do not depend on the thread count: the Boolean core runs
/// on the calling thread whatever the budget.
#[test]
fn star_is_identical_at_every_thread_count() {
    let rels = coin_star(3, 20, 60, 4, 31);
    let (serial, _) = star_join_project_mm_with_stats(&rels, &core());
    assert!(!serial.is_empty());
    for side in [0.0, f64::INFINITY] {
        for threads in [1, 2, 4] {
            let config = JoinConfig {
                threads,
                executor: Some(Arc::new(Executor::new(threads))),
                ..factor(side)
            };
            let (rows, _) = star_join_project_mm_with_stats(&rels, &config);
            assert_eq!(rows, serial, "factor={side} threads={threads}");
        }
    }
}

/// The cap counts the exact bytes of `V`, `W` and the product, not the
/// grouped full join: 40 sets a leg over 200 shared elements put all 200
/// columns under each of `V`'s 1560 rows (312 000 set cells), so a 2 MB
/// budget holds the core, though not 24 bytes a cell.
#[test]
fn a_dense_star_multiplies_within_its_exact_bytes() {
    let rels: Vec<Relation> = [40u32, 39, 38]
        .into_iter()
        .map(|sets| Relation::from_edges((0..sets).flat_map(|x| (0..200).map(move |y| (x, y)))))
        .collect();
    let config = JoinConfig {
        matrix_cell_cap: 500_000,
        ..JoinConfig::default()
    };
    let (rows, stats) = star_join_project_mm_with_stats(&rels, &config);
    assert_eq!(rows, star_join_project(&rels));
    let stats = stats.unwrap();
    assert_eq!((stats.delta1, stats.delta2), (Some(0), Some(0)));
    assert_eq!(stats.heavy_core_matrix, Some(true));
    assert_eq!(stats.heavy_dims, Some((1560, 200, 38)));
}

/// With everything heavy the rows go from the extractor to the sink: each
/// one arrives strictly above the one before it.
#[test]
fn everything_heavy_star_emits_in_ascending_order() {
    let rels = coin_star(4, 8, 30, 6, 77);
    let query = Query::star(&rels).build().unwrap();
    {
        let engine = MmJoinEngine::new(core());
        let mut last: Option<Vec<Value>> = None;
        let mut seen = 0u64;
        let mut sink = ForEachSink(|row: &[Value], _| {
            assert!(
                last.as_deref().is_none_or(|l| l < row),
                "{row:?} after {last:?}"
            );
            last = Some(row.to_vec());
            seen += 1;
        });
        let stats = engine.execute(&query, &mut sink).unwrap();
        assert_eq!(seen, star_join_project(&rels).len() as u64);
        assert_eq!(stats.rows, seen);
        let plan = stats.plan.unwrap();
        assert_eq!((plan.delta1, plan.delta2), (Some(0), Some(0)));
        assert_eq!(plan.heavy_core_matrix, Some(true));
    }
}

/// A limit stops the emission, and what got through is the head of the
/// unlimited answer.
#[test]
fn a_limited_star_gets_the_first_rows_and_no_more() {
    let rels = coin_star(3, 12, 40, 6, 5);
    let query = Query::star(&rels).build().unwrap();
    let engine = MmJoinEngine::serial();
    let mut all = VecSink::new();
    engine.execute(&query, &mut all).unwrap();
    assert!(all.rows.len() > 20);
    // Counts what the engine offered, not what the limit kept.
    struct Offered(LimitSink<VecSink>, u64);
    impl Sink for Offered {
        fn begin(&mut self, arity: usize) {
            self.0.begin(arity);
        }
        fn row(&mut self, row: &[Value]) {
            self.1 += 1;
            self.0.row(row);
        }
        fn wants_more(&self) -> bool {
            self.0.wants_more()
        }
    }
    for limit in [0, 1, 17] {
        let mut sink = Offered(LimitSink::new(VecSink::new(), limit), 0);
        let stats = engine.execute(&query, &mut sink).unwrap();
        assert_eq!(stats.rows, limit);
        assert_eq!(sink.1, limit, "emission went on past the limit");
        assert_eq!(
            sink.0.into_inner().rows.values(),
            &all.rows.values()[..3 * limit as usize]
        );
    }
}

/// `p`'s row ids as a one-column row list.
fn ids(p: &PackedRows) -> FlatRows {
    FlatRows::new(1, p.ids().to_vec())
}

/// Asserts that `rows` — a product answer, or flat rows the smaller-form
/// rule chose — reads as `reference`, `arity` values a row, every way the
/// service reads an answer: `len`; the first `n` rows around a word's 64
/// and all of them, written for the call or from the whole answer; a cut,
/// which keeps a product's rows flat at their exact size; the whole
/// answer; its values by
/// value; and equality with the flat rows, either way round. A product is
/// never larger than those flat rows.
fn assert_reads_as(rows: &FlatRows, arity: usize, reference: &[Value]) {
    let n = reference.len() / arity;
    assert_eq!(
        (rows.arity(), rows.len(), rows.is_empty()),
        (arity, n, n == 0)
    );
    let flat = FlatRows::new(arity, reference.to_vec());
    if rows.is_product() {
        assert!(rows.heap_bytes() <= flat.heap_bytes(), "{n} rows");
    }
    let prefixes = [0, 1, 63, 64, 65, n];
    for first in prefixes {
        let at = first.min(n) * arity;
        assert_eq!(&*rows.first(first), &reference[..at], "first {first}");
        let mut cut = rows.clone();
        cut.truncate(first);
        assert_eq!(cut.values(), &reference[..at], "truncate {first}");
        if rows.is_product() && first < n {
            assert!(
                !cut.is_product() && cut.heap_bytes() == 4 * at,
                "cut {first}"
            );
        }
    }
    assert_eq!(rows.clone().into_values(), reference);
    assert!(rows.iter().eq(reference.chunks_exact(arity)));
    for first in prefixes {
        let at = first.min(n) * arity;
        assert_eq!(&*rows.first(first), &reference[..at], "first {first}, read");
    }
    assert_eq!(*rows, flat, "equal across forms");
    assert_eq!(flat, *rows, "either way round");
}

/// A two-path's cells in both orientations, at output widths on both sides
/// of a word and past two: the product of the packed forms the served core
/// multiplies, kept as its cells where the rule keeps it.
#[test]
fn a_two_path_product_reads_as_its_rows_at_every_width() {
    fn view(p: &PackedRows) -> BitRows<'_> {
        BitRows::new(p.rows(), p.cols(), p.words())
    }
    for width in [1u32, 63, 64, 65, 130] {
        let r = coin_relation(9, 24, 6, width);
        let s = coin_relation(width, 24, 6, width + 1);
        let expected = flatten_pairs(ExpandDedupEngine::serial().join_project(&r, &s));
        let (left, _) = r.packed(PackedForm::XMajor);
        for (form, orientation) in [
            (PackedForm::YMajor, Orientation::RowOr),
            (PackedForm::XMajor, Orientation::AndAny),
        ] {
            let (right, _) = s.packed(form);
            let (product, _) = view(left).product(view(right), orientation, right.universal());
            let rows = FlatRows::product(product.into_words(), ids(left), ids(right));
            // Nine dense rows: one word a row outweighs the pairs it holds
            // only at width 1.
            assert_eq!(rows.is_product(), width > 1, "{width} {orientation:?}");
            assert_reads_as(&rows, 2, &expected);
        }
        // Both orientations of the query, as the engine serves it.
        for (a, b) in [(&r, &s), (&s, &r)] {
            let mut sink = VecSink::new();
            let query = Query::two_path(a, b).build().unwrap();
            MmJoinEngine::serial().execute(&query, &mut sink).unwrap();
            let expected = flatten_pairs(ExpandDedupEngine::serial().join_project(a, b));
            assert_reads_as(&sink.rows, 2, &expected);
        }
    }
}

/// Rows filled through the universal mask are cells like any other, and a
/// product with no set cell is no rows.
#[test]
fn filled_and_empty_products_read_as_their_rows() {
    let r = with_universal(&coin_relation(70, 150, 8, 3), 77);
    let s = with_universal(&coin_relation(40, 150, 8, 4), 77);
    let mut sink = VecSink::new();
    let stats = MmJoinEngine::serial()
        .execute(&Query::two_path(&r, &s).build().unwrap(), &mut sink)
        .unwrap();
    assert_eq!(stats.plan.unwrap().rows_filled, Some(70));
    assert!(sink.rows.is_product());
    let expected = flatten_pairs(ExpandDedupEngine::serial().join_project(&r, &s));
    assert_eq!(expected.len(), 2 * 70 * 40);
    assert_reads_as(&sink.rows, 2, &expected);
    let ten = FlatRows::new(1, (0..10).collect());
    let empty = FlatRows::product(vec![0; 10], ten.clone(), ten);
    assert_reads_as(&empty, 2, &[]);
    assert!(!empty.is_product(), "no rows are smaller than any cells");
}

/// Stars of 3, 4 and 5 legs: `V`'s and `W`'s half-tuples at arities
/// (2, 1), (2, 2) and (3, 2), the first two at compile-time arities, the
/// last at runtime ones.
#[test]
fn star_products_read_as_their_rows() {
    for (k, sets, keep) in [(3u32, 14, 9), (4, 9, 9), (5, 6, 9)] {
        let rels = coin_star(k, sets, 40, keep, 200 + k);
        let mut sink = VecSink::new();
        let query = Query::star(&rels).build().unwrap();
        let stats = MmJoinEngine::serial().execute(&query, &mut sink).unwrap();
        let plan = stats.plan.unwrap();
        assert_eq!((plan.delta1, plan.delta2), (Some(0), Some(0)), "k={k}");
        assert!(sink.rows.is_product(), "k={k}");
        assert_reads_as(&sink.rows, k as usize, &star_join_project(&rels).concat());
    }
}

/// The smaller form is kept: a product whose set cells are few is written
/// out flat at once, and one whose rows outweigh its words stays cells.
#[test]
fn a_sparse_product_is_kept_flat() {
    let hundred = || FlatRows::new(1, (0..100).collect());
    // 100 × 100 cells in 200 words: 1600 bytes of words and 800 of ids.
    let mut words = vec![0u64; 200];
    words[0] = 0b101;
    words[199] = 1 << 35;
    let sparse = FlatRows::product(words, hundred(), hundred());
    assert!(!sparse.is_product());
    assert_eq!(sparse.values(), [0, 0, 0, 2, 99, 99]);
    assert_eq!(sparse.heap_bytes(), 24);
    // 30 cells in each word of rows 0 to 4: 300 pairs are 2400 bytes, as
    // many as the cells take.
    let mut words = vec![0u64; 200];
    words.iter_mut().take(10).for_each(|w| *w = (1 << 30) - 1);
    let dense = FlatRows::product(words, hundred(), hundred());
    assert!(dense.is_product() && dense.len() == 300);
    assert_eq!(dense.heap_bytes(), 8 * 200 + 4 * 200);
    assert_eq!((dense.row(0), dense.row(299)), (&[0, 0][..], &[4, 93][..]));
}

/// `rel` with `y` added to every set: an element every set holds.
fn with_universal(rel: &Relation, y: Value) -> Relation {
    let xs: Vec<Value> = rel.by_x().iter_nonempty().map(|(x, _)| x).collect();
    Relation::from_edges(rel.tuples().chain(xs.into_iter().map(|x| (x, y))))
}

/// `sets` sets in `communities` communities: set `x` holds, by the seeded
/// coin, only elements of its own community (`y ≡ x` mod `communities`) —
/// dense within one, and no element is in every set.
fn community_relation(sets: u32, elems: u32, communities: u32, seed: u32) -> Relation {
    let rel = coin_relation(sets, elems, 12, seed);
    Relation::from_edges(
        rel.tuples()
            .filter(|&(x, y)| x % communities == y % communities),
    )
}

/// The served two-path's core under both orientations: `R`'s `x`-major rows
/// times each form of `S`, under `S`'s universal mask, equals expansion and
/// fills the same rows; the served run — everything heavy, from the packed
/// rows, once line 2 is out of the way — agrees and records that count.
/// Returns it and `R`'s row count.
fn assert_masked_two_path(r: &Relation, s: &Relation) -> (usize, usize) {
    let expected = ExpandDedupEngine::serial().join_project(r, s);
    fn view(p: &PackedRows) -> BitRows<'_> {
        BitRows::new(p.rows(), p.cols(), p.words())
    }
    let (left, _) = r.packed(PackedForm::XMajor);
    let mut filled = Vec::new();
    for (form, orientation) in [
        (PackedForm::YMajor, Orientation::RowOr),
        (PackedForm::XMajor, Orientation::AndAny),
    ] {
        let (right, _) = s.packed(form);
        let (product, rows) = view(left).product(view(right), orientation, right.universal());
        let cells = FlatRows::product(product.into_words(), ids(left), ids(right));
        assert_reads_as(&cells, 2, &flatten_pairs(expected.clone()));
        filled.push(rows);
    }
    assert_eq!(filled[0], filled[1]);
    let config = JoinConfig {
        wcoj_fallback_factor: 1.0,
        ..JoinConfig::default()
    };
    let (rows, stats) = two_path_join_project_with_stats(r, s, &config);
    assert_eq!(rows, expected);
    let stats = stats.unwrap();
    assert_eq!((stats.delta1, stats.delta2), (Some(0), Some(0)));
    assert_eq!(stats.rows_filled, Some(filled[0]));
    (filled[0], left.rows())
}

/// A dense two-path whose every left row holds an element all of `S`'s
/// sets hold is filled row by row, in either orientation; with the
/// element taken out of one set of `S` nothing is, and the answer is
/// the same product tested pair by pair.
#[test]
fn a_row_through_a_universal_element_is_filled() {
    let r = with_universal(&coin_relation(70, 150, 8, 3), 77);
    for s_sets in [40, 300] {
        let s = with_universal(&coin_relation(s_sets, 150, 8, 4), 77);
        assert_eq!(assert_masked_two_path(&r, &s), (70, 70));
        // Element 77 gone from set 0 of `S`: no longer universal.
        let broken = Relation::from_edges(s.tuples().filter(|&edge| edge != (0, 77)));
        assert_eq!(broken.len(), s.len() - 1);
        let filled = assert_masked_two_path(&r, &broken).0;
        assert!(filled < 70, "{filled} rows filled");
    }
}

/// Community-structured dense inputs, 2 and 8 communities: no element is
/// in every set, so no row is filled and every pair is tested — the same
/// answer in either orientation.
#[test]
fn community_rows_never_meet_a_universal_element() {
    for communities in [2, 8] {
        let r = community_relation(64, 400, communities, 11);
        let s = community_relation(96, 400, communities, 12);
        assert_eq!(assert_masked_two_path(&r, &s).0, 0, "{communities}");
        assert!(s
            .packed(PackedForm::XMajor)
            .0
            .universal()
            .iter()
            .all(|&w| w == 0));
    }
}

/// The star's mask is the AND of `W`'s rows. k = 3 stars in shapes that
/// run row-OR and AND-any, every leg holding element 0 in every set: every
/// row of `V` is filled. The same legs in communities: none is. Each
/// equals the reference on the core, under the cap's fallback and expanded.
#[test]
fn a_star_fills_the_rows_that_meet_every_w_row() {
    let mut kernels = std::collections::BTreeSet::new();
    for (sets, elems, seed) in [([40u32, 39, 12], 200, 5u32), ([12, 12, 300], 8, 6)] {
        let rels: Vec<Relation> = sets
            .iter()
            .zip(seed..)
            .map(|(&n, seed)| with_universal(&coin_relation(n, elems, 8, seed), 0))
            .collect();
        kernels.extend(assert_star_cores_agree(&rels));
        for config in [core(), JoinConfig::default()] {
            let (rows, stats) = star_join_project_mm_with_stats(&rels, &config);
            assert_eq!(rows, star_join_project(&rels));
            let stats = stats.unwrap();
            let (v_rows, _, _) = stats.heavy_dims.unwrap();
            assert_eq!(stats.rows_filled, Some(v_rows), "{sets:?}");
        }
    }
    assert_eq!(
        kernels.into_iter().collect::<Vec<_>>(),
        ["bit and-any", "bit row-or"]
    );
    for communities in [2, 8] {
        let rels: Vec<Relation> = (0..3)
            .map(|i| community_relation(24 + i, 64, communities, 20 + i))
            .collect();
        assert!(assert_star_cores_agree(&rels).is_some());
        let (_, stats) = star_join_project_mm_with_stats(&rels, &core());
        assert_eq!(stats.unwrap().rows_filled, Some(0), "{communities}");
    }
}

/// Witness counts of `r ⋈ s` by nested loops over the tuples: every
/// `(x, z)` with at least `max(min_count, 1)` common `y`, ascending.
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

/// The served counting two-path past line 2 — AND-popcount over both
/// relations' `x`-major rows — equals the brute-force counts at every
/// `min_count` from 0 to 3, writes no zero count, and records its kernel
/// and its shape: `(active x, min y domain, active z)`.
fn assert_popcount_counts(r: &Relation, s: &Relation) {
    let config = JoinConfig {
        wcoj_fallback_factor: 0.0,
        ..JoinConfig::default()
    };
    for min_count in 0..4 {
        let (got, stats) = two_path_with_counts_stats(r, s, min_count, &config);
        assert!(got.iter().all(|&(_, _, count)| count > 0), "a zero count");
        assert_eq!(got, brute_counts(r, s, min_count), "min_count {min_count}");
        let stats = stats.unwrap();
        assert_eq!(stats.heavy_backend, Some("bit popcount"));
        assert_eq!((stats.delta1, stats.delta2), (Some(0), Some(0)));
        let dims = (
            r.active_x_count(),
            r.y_domain().min(s.y_domain()),
            s.active_x_count(),
        );
        assert_eq!(stats.heavy_dims, Some(dims));
    }
}

/// `sets` sets over `elems` elements by the seeded coin, set 0 holding the
/// last element so that the `y` domain is exactly `elems`.
fn coin_over(sets: u32, elems: u32, seed: u32) -> Relation {
    let rel = coin_relation(sets, elems, 8, seed);
    Relation::from_edges(rel.tuples().chain([(0, elems - 1)]))
}

/// `y` domains of 63, 64, 65 and 130 on either side — packed strides of
/// one, two and three words that differ between the two operands — and
/// each relation joined with itself.
#[test]
fn popcount_counts_across_mismatched_y_domains_and_self_joins() {
    let domains = [63, 64, 65, 130];
    for (i, &ry) in domains.iter().enumerate() {
        let r = coin_over(30, ry, 40 + i as u32);
        assert_eq!(r.y_domain(), ry as usize);
        assert_popcount_counts(&r, &r);
        for (j, &sy) in domains.iter().enumerate() {
            let s = coin_over(25, sy, 50 + j as u32);
            assert_popcount_counts(&r, &s);
        }
    }
}

/// Pairs with no common `y` get no triple: sets in four communities share
/// elements only within one, and two relations over disjoint halves of one
/// domain — which line 2 sends to expansion — meet in no row of the kernel.
#[test]
fn popcount_writes_nothing_for_pairs_with_no_common_y() {
    let r = community_relation(40, 130, 4, 7);
    assert_popcount_counts(&r, &r);
    let counts = brute_counts(&r, &r, 1);
    assert!(counts.iter().all(|&(x, z, _)| x % 4 == z % 4));

    let low = Relation::from_edges((0..20u32).flat_map(|x| (0..64u32).map(move |y| (x, y))));
    let high = Relation::from_edges((0..20u32).flat_map(|x| (64..130u32).map(move |y| (x, y))));
    let (left, _) = low.packed(PackedForm::XMajor);
    let (right, _) = high.packed(PackedForm::XMajor);
    fn view(p: &PackedRows) -> BitRows<'_> {
        BitRows::new(p.rows(), p.cols(), p.words())
    }
    let mut written = 0;
    view(left).and_popcount(view(right), 0, |_, _, _| written += 1);
    assert_eq!(written, 0);
    let (triples, stats) = two_path_with_counts_stats(&low, &high, 0, &JoinConfig::default());
    assert!(triples.is_empty());
    assert_eq!(stats.unwrap().kind, PlanKind::Wcoj);
}

/// Rows through an element every set holds — on one side, on both — count
/// it like any other: popcount reads no universal mask.
#[test]
fn popcount_counts_rows_through_a_universal_y() {
    let r = with_universal(&coin_relation(50, 150, 6, 8), 77);
    let s = with_universal(&coin_relation(40, 150, 6, 9), 77);
    let plain = coin_relation(40, 150, 6, 9);
    for (a, b) in [(&r, &s), (&r, &plain), (&plain, &r), (&r, &r)] {
        assert_popcount_counts(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random relations: bit core == capped fallback == expansion.
    #[test]
    fn cores_agree_on_random_relations(
        r_edges in proptest::collection::vec((0u32..40, 0u32..150), 0..400),
        s_edges in proptest::collection::vec((0u32..90, 0u32..130), 0..400),
    ) {
        let r: Relation = Relation::from_edges(r_edges);
        let s: Relation = Relation::from_edges(s_edges);
        assert_cores_agree(&r, &s);
    }

    /// Whatever the optimizer picks by itself, the answer is the
    /// expansion's.
    #[test]
    fn optimizer_chosen_plans_agree(
        sets in 2u32..40,
        elems in 4u32..120,
        keep in 1u32..12,
        seed in any::<u32>(),
    ) {
        let r = coin_relation(sets, elems, keep, seed);
        let s = coin_relation(sets + 3, elems, keep, seed ^ 0x5bd1);
        let expected: Vec<(Value, Value)> = ExpandDedupEngine::serial().join_project(&r, &s);
        let (rows, _) = two_path_join_project_with_stats(&r, &s, &factor(1.0));
        prop_assert_eq!(&rows, &expected);
    }

    /// Random relations, any `min_count`: the counting core's triples are
    /// the brute-force counts.
    #[test]
    fn popcount_counts_equal_brute_force_on_random_relations(
        r_edges in proptest::collection::vec((0u32..40, 0u32..150), 1..400),
        s_edges in proptest::collection::vec((0u32..90, 0u32..130), 1..400),
    ) {
        let r: Relation = Relation::from_edges(r_edges);
        let s: Relation = Relation::from_edges(s_edges);
        let config = JoinConfig {
            wcoj_fallback_factor: 0.0,
            ..JoinConfig::default()
        };
        for min_count in 0..4 {
            let (got, _) = two_path_with_counts_stats(&r, &s, min_count, &config);
            prop_assert_eq!(got, brute_counts(&r, &s, min_count));
        }
    }

    /// Random stars: bit core == capped fallback == expansion == the WCOJ
    /// reference.
    #[test]
    fn star_cores_agree_on_random_relations(
        e1 in proptest::collection::vec((0u32..9, 0u32..12), 1..50),
        e2 in proptest::collection::vec((0u32..11, 0u32..12), 1..50),
        e3 in proptest::collection::vec((0u32..7, 0u32..12), 1..50),
        e4 in proptest::collection::vec((0u32..5, 0u32..12), 1..40),
    ) {
        let rels: Vec<Relation> = [e1, e2, e3, e4].into_iter().map(Relation::from_edges).collect();
        assert_star_cores_agree(&rels[..3]);
        assert_star_cores_agree(&rels);
    }

    /// Whatever the star planner picks by itself, the answer is the
    /// reference's — and what it picks is everything
    /// heavy or expansion, never a mixed partition.
    #[test]
    fn optimizer_chosen_star_plans_agree(
        sets in 2u32..14,
        elems in 4u32..40,
        keep in 1u32..12,
        seed in any::<u32>(),
    ) {
        for k in [3, 4] {
            let rels = coin_star(k, sets, elems, keep, seed);
            let expected = star_join_project(&rels);
            let (rows, stats) = star_join_project_mm_with_stats(&rels, &factor(1.0));
            prop_assert_eq!(&rows, &expected);
            let plan = stats.unwrap();
            prop_assert!(
                matches!(
                    (plan.kind, plan.delta1, plan.delta2),
                    (PlanKind::Wcoj, None, None)
                        | (PlanKind::MatrixPartitioned, Some(0), Some(0))
                ),
                "k={}: {:?}", k, plan
            );
        }
    }

    /// Handing `emit_flat` the whole buffer is the per-row emission loop it
    /// replaced: same rows, same count, same early stop — for any arity, any
    /// rows, any limit.
    #[test]
    fn emit_flat_equals_row_by_row_emission(
        arity in 1usize..7,
        values in proptest::collection::vec(0u32..50, 0..120),
        limit in 0u64..30,
    ) {
        let rows: Vec<Vec<Value>> = values.chunks_exact(arity).map(<[Value]>::to_vec).collect();
        let flat: Vec<Value> = rows.concat();
        let mut by_row = LimitSink::new(VecSink::new(), limit);
        by_row.begin(arity);
        let mut emitted = 0u64;
        for row in &rows {
            if !by_row.wants_more() {
                break;
            }
            by_row.row(row);
            emitted += 1;
        }
        let mut by_flat = LimitSink::new(VecSink::new(), limit);
        prop_assert_eq!(emit_flat(&mut by_flat, arity, flat.clone()), emitted);
        let (by_row, by_flat) = (by_row.into_inner(), by_flat.into_inner());
        prop_assert_eq!(by_flat.rows.arity(), arity);
        prop_assert_eq!(by_flat.rows, by_row.rows);
        let mut unlimited = VecSink::new();
        prop_assert_eq!(emit_flat(&mut unlimited, arity, flat), rows.len() as u64);
        prop_assert_eq!(unlimited.rows.to_rows(), rows);
    }
}
