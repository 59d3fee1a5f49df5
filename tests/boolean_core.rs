//! The Boolean heavy core against the two things it must equal: the f32
//! core it replaces for existence queries, and plain expansion.
//!
//! Every case forces the partition (`delta_override`), so the three
//! evaluations see the same `(Δ1, Δ2)` and differ only in how the heavy
//! block is multiplied: bit product, SGEMM, or — with the memory cap at
//! zero — the combinatorial fallback. CI runs this suite on both feature
//! legs: the bit kernel is the same portable code on each, the SGEMM it is
//! compared with is not.
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

use mmjoin_api::{
    emit_flat, flatten_pairs, Engine, FlatRows, ForEachSink, LimitSink, PlanKind, Query, Sink,
    VecSink,
};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_core::{
    star_join_project_mm_with_stats, two_path_join_project_with_stats, HeavyBackend, JoinConfig,
    MmJoinEngine,
};
use mmjoin_executor::Executor;
use mmjoin_matrix::{BitRows, Orientation};
use mmjoin_storage::{PackedForm, PackedRows, Relation, Value};
use mmjoin_wcoj::star_join_project;
use proptest::prelude::*;
use std::sync::Arc;

fn forced(backend: HeavyBackend, deltas: (u32, u32)) -> JoinConfig {
    JoinConfig {
        heavy_backend: backend,
        delta_override: Some(deltas),
        ..JoinConfig::default()
    }
}

/// Asserts bit core == f32 core == capped fallback == expansion on `(r, s)`
/// at `deltas`; returns the heavy dims the bit run reported.
fn assert_cores_agree(r: &Relation, s: &Relation, deltas: (u32, u32)) -> (usize, usize, usize) {
    let expected = ExpandDedupEngine::serial().join_project(r, s);
    let (bit, bit_stats) =
        two_path_join_project_with_stats(r, s, &forced(HeavyBackend::Auto, deltas));
    let (f32_out, f32_stats) =
        two_path_join_project_with_stats(r, s, &forced(HeavyBackend::DenseF32, deltas));
    let capped = JoinConfig {
        matrix_cell_cap: 0,
        ..forced(HeavyBackend::Auto, deltas)
    };
    let (fallback, capped_stats) = two_path_join_project_with_stats(r, s, &capped);
    assert_eq!(bit, expected, "bit core at {deltas:?}");
    assert_eq!(f32_out, expected, "f32 core at {deltas:?}");
    assert_eq!(fallback, expected, "capped fallback at {deltas:?}");
    if r.is_empty() || s.is_empty() {
        assert!(bit_stats.is_none());
        return (0, 0, 0);
    }
    let (bit_stats, f32_stats) = (bit_stats.unwrap(), f32_stats.unwrap());
    assert!(bit_stats.heavy_backend.unwrap().starts_with("bit "));
    assert_eq!(f32_stats.heavy_backend, Some("f32"));
    // Same partition, and the same verdict on whether a matrix ran — except
    // that nothing fits under a zero cap.
    assert_eq!(bit_stats.heavy_dims, f32_stats.heavy_dims);
    assert_eq!(bit_stats.heavy_core_matrix, f32_stats.heavy_core_matrix);
    assert_eq!(capped_stats.unwrap().heavy_core_matrix, Some(false));
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
        let (u, v, w) = assert_cores_agree(&r, &s, (0, 0));
        assert!(u > 0 && v > 0 && w as u32 >= width * 9 / 10, "{width}");
        assert_cores_agree(&r, &s, (2, 3));
        // Wide inner, narrow output: AND-any over `⌈width/64⌉`-word rows,
        // sparse enough that some pairs scan to the end without a witness.
        let r = coin_relation(9, width, 2, width + 2);
        let s = coin_relation(11, width, 2, width + 3);
        assert_cores_agree(&r, &s, (0, 0));
        assert_cores_agree(&r, &s, (1, 1));
    }
}

#[test]
fn cores_agree_on_mismatched_domains_and_empty_heavy_sides() {
    // R's elements run past S's and the other way round; x and z domains
    // differ too.
    let r = Relation::from_edges((0..300u32).map(|i| (i % 7, i % 90)));
    let s = Relation::from_edges((0..200u32).map(|i| (i % 23, (i * 3) % 40)));
    for deltas in [(0, 0), (1, 1), (3, 2), (2, 9)] {
        assert_cores_agree(&r, &s, deltas);
        assert_cores_agree(&s, &r, deltas);
    }
    // Thresholds above every degree: each heavy side in turn is empty.
    for deltas in [(1000, 0), (0, 1000), (1000, 1000)] {
        let (u, v, w) = assert_cores_agree(&r, &s, deltas);
        assert!(u == 0 || v == 0 || w == 0, "{deltas:?}");
    }
    // Disjoint elements: nothing joins, and nothing is heavy in both.
    let far = Relation::from_edges((0..50u32).map(|i| (i % 5, 500 + i)));
    assert_eq!(assert_cores_agree(&r, &far, (0, 0)), (0, 0, 0));
    let empty = Relation::from_edges(std::iter::empty());
    assert_cores_agree(&r, &empty, (0, 0));
}

/// The cap counts bytes of the representation that runs: one budget lets
/// the bit core multiply where the f32 core must fall back.
#[test]
fn byte_cap_trips_per_representation() {
    let r = coin_relation(40, 200, 8, 7);
    let expected = ExpandDedupEngine::serial().join_project(&r, &r);
    // 40×200×40: 17.6 k f32 cells = 70 k bytes; as bits, 3.2 k bytes.
    let budget = |backend| JoinConfig {
        matrix_cell_cap: 2_000,
        ..forced(backend, (0, 0))
    };
    let (bit, bit_stats) = two_path_join_project_with_stats(&r, &r, &budget(HeavyBackend::Auto));
    let (f32_out, f32_stats) =
        two_path_join_project_with_stats(&r, &r, &budget(HeavyBackend::DenseF32));
    assert_eq!(bit, expected);
    assert_eq!(f32_out, expected);
    assert_eq!(bit_stats.unwrap().heavy_core_matrix, Some(true));
    assert_eq!(f32_stats.unwrap().heavy_core_matrix, Some(false));
}

/// The rows do not depend on the thread count: the Boolean core runs on the
/// calling thread whatever the budget, and at a mixed partition the light
/// passes around it are chunked over the executor.
#[test]
fn bit_core_is_identical_at_every_thread_count() {
    let r = coin_relation(700, 900, 3, 11);
    let s = coin_relation(650, 900, 3, 12);
    let budget = Executor::global().budget();
    for deltas in [(0, 0), (40, 60)] {
        let serial = two_path_join_project_with_stats(&r, &s, &forced(HeavyBackend::Auto, deltas));
        assert_eq!(serial.1.as_ref().unwrap().heavy_core_matrix, Some(true));
        for threads in [1, 2, budget, 7] {
            let config = JoinConfig {
                threads,
                executor: Some(Arc::new(Executor::new(threads))),
                ..forced(HeavyBackend::Auto, deltas)
            };
            let (rows, _) = two_path_join_project_with_stats(&r, &s, &config);
            assert_eq!(rows, serial.0, "{deltas:?} threads={threads}");
        }
    }
}

/// `k` relations over one element domain, a different coin each.
fn coin_star(k: u32, sets: u32, elems: u32, keep_of_16: u32, seed: u32) -> Vec<Relation> {
    (0..k)
        .map(|i| coin_relation(sets + i, elems, keep_of_16, seed.wrapping_add(i * 7919)))
        .collect()
}

/// Asserts bit core == f32 core == capped fallback == the WCOJ reference on
/// the star over `rels` at `deltas`, rows and order; returns the Boolean
/// kernel that ran, if a matrix did.
fn assert_star_cores_agree(rels: &[Relation], deltas: (u32, u32)) -> Option<&'static str> {
    let expected = star_join_project(rels);
    let (bit, bit_stats) =
        star_join_project_mm_with_stats(rels, &forced(HeavyBackend::Auto, deltas));
    let (f32_out, f32_stats) =
        star_join_project_mm_with_stats(rels, &forced(HeavyBackend::DenseF32, deltas));
    let capped = JoinConfig {
        matrix_cell_cap: 0,
        ..forced(HeavyBackend::Auto, deltas)
    };
    let (fallback, capped_stats) = star_join_project_mm_with_stats(rels, &capped);
    assert_eq!(bit, expected, "bit core at {deltas:?}");
    assert_eq!(f32_out, expected, "f32 core at {deltas:?}");
    assert_eq!(fallback, expected, "capped fallback at {deltas:?}");
    if expected.is_empty() {
        return None;
    }
    let (bit_stats, f32_stats) = (bit_stats.unwrap(), f32_stats.unwrap());
    // The same half-tuple rows feed both kinds of operand: same shape, same
    // verdict on whether a matrix ran — except that nothing fits a zero cap.
    assert_eq!(bit_stats.heavy_dims, f32_stats.heavy_dims);
    assert_eq!(bit_stats.heavy_core_matrix, f32_stats.heavy_core_matrix);
    assert_eq!(capped_stats.unwrap().heavy_core_matrix, Some(false));
    assert!(bit_stats.measured_phase_secs.is_some());
    if bit_stats.heavy_core_matrix != Some(true) {
        return None;
    }
    assert!(bit_stats.heavy_backend.unwrap().starts_with("bit "));
    assert_eq!(f32_stats.heavy_backend, Some("f32"));
    bit_stats.heavy_backend
}

/// k = 3, 4 (packed tuples) and 5 (the wide-tuple path of the accumulator),
/// sparse and dense enough for either orientation of the Boolean product,
/// with everything heavy, mixed partitions, and everything light.
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
        for deltas in [(0, 0), (2, 3), (1, 1), (4, 2), (500, 500)] {
            kernels.extend(assert_star_cores_agree(&rels, deltas));
        }
    }
    assert_eq!(
        kernels.into_iter().collect::<Vec<_>>(),
        ["bit and-any", "bit row-or"]
    );
}

/// A star's rows do not depend on the thread count: the light steps and
/// the Boolean core run on the calling thread whatever the budget.
#[test]
fn star_is_identical_at_every_thread_count() {
    let rels = coin_star(3, 20, 60, 4, 31);
    for deltas in [(0, 0), (3, 3)] {
        let (serial, _) =
            star_join_project_mm_with_stats(&rels, &forced(HeavyBackend::Auto, deltas));
        assert!(!serial.is_empty());
        for threads in [1, 2, 4] {
            let config = JoinConfig {
                threads,
                executor: Some(Arc::new(Executor::new(threads))),
                ..forced(HeavyBackend::Auto, deltas)
            };
            let (rows, _) = star_join_project_mm_with_stats(&rels, &config);
            assert_eq!(rows, serial, "{deltas:?} threads={threads}");
        }
    }
}

/// The cap counts the exact bytes of `V`, `W` and the product, not the
/// grouped full join: 40 sets a leg over 200 shared elements put all 200
/// columns under each of `V`'s 1560 rows (312 000 set cells), so a 2 MB
/// budget holds even the f32 core (1.5 MB), though not 24 bytes a cell.
#[test]
fn a_dense_star_multiplies_within_its_exact_bytes() {
    let rels: Vec<Relation> = [40u32, 39, 38]
        .into_iter()
        .map(|sets| Relation::from_edges((0..sets).flat_map(|x| (0..200).map(move |y| (x, y)))))
        .collect();
    let expected = star_join_project(&rels);
    for backend in [HeavyBackend::Auto, HeavyBackend::DenseF32] {
        let config = JoinConfig {
            heavy_backend: backend,
            matrix_cell_cap: 500_000,
            ..JoinConfig::default()
        };
        let (rows, stats) = star_join_project_mm_with_stats(&rels, &config);
        assert_eq!(rows, expected, "{backend:?}");
        let stats = stats.unwrap();
        assert_eq!((stats.delta1, stats.delta2), (Some(0), Some(0)));
        assert_eq!(stats.heavy_core_matrix, Some(true), "{backend:?}");
        assert_eq!(stats.heavy_dims, Some((1560, 200, 38)), "{backend:?}");
    }
}

/// With everything heavy the rows go from the extractor to the sink: each
/// one arrives strictly above the one before it, for either kernel.
#[test]
fn everything_heavy_star_emits_in_ascending_order() {
    let rels = coin_star(4, 8, 30, 6, 77);
    let query = Query::star(&rels).build().unwrap();
    for backend in [HeavyBackend::Auto, HeavyBackend::DenseF32] {
        let engine = MmJoinEngine::new(forced(backend, (0, 0)));
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
/// equals the reference with either kernel and under the cap's fallback.
#[test]
fn a_star_fills_the_rows_that_meet_every_w_row() {
    let mut kernels = std::collections::BTreeSet::new();
    for (sets, elems, seed) in [([40u32, 39, 12], 200, 5u32), ([12, 12, 300], 8, 6)] {
        let rels: Vec<Relation> = sets
            .iter()
            .zip(seed..)
            .map(|(&n, seed)| with_universal(&coin_relation(n, elems, 8, seed), 0))
            .collect();
        kernels.extend(assert_star_cores_agree(&rels, (0, 0)));
        for config in [forced(HeavyBackend::Auto, (0, 0)), JoinConfig::default()] {
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
        assert!(assert_star_cores_agree(&rels, (0, 0)).is_some());
        let (_, stats) =
            star_join_project_mm_with_stats(&rels, &forced(HeavyBackend::Auto, (0, 0)));
        assert_eq!(stats.unwrap().rows_filled, Some(0), "{communities}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random relations, random forced thresholds (everything-heavy
    /// included): bit core == f32 core == capped fallback == expansion.
    #[test]
    fn cores_agree_on_random_relations(
        r_edges in proptest::collection::vec((0u32..40, 0u32..150), 0..400),
        s_edges in proptest::collection::vec((0u32..90, 0u32..130), 0..400),
        d1 in 0u32..6,
        d2 in 0u32..8,
    ) {
        let r: Relation = Relation::from_edges(r_edges);
        let s: Relation = Relation::from_edges(s_edges);
        assert_cores_agree(&r, &s, (d1, d2));
        assert_cores_agree(&r, &s, (0, 0));
    }

    /// Whatever the optimizer picks by itself, with either kernel priced,
    /// the answer is the expansion's.
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
        for backend in [HeavyBackend::Auto, HeavyBackend::DenseF32] {
            let config = JoinConfig {
                heavy_backend: backend,
                wcoj_fallback_factor: 1.0,
                ..JoinConfig::default()
            };
            let (rows, _) = two_path_join_project_with_stats(&r, &s, &config);
            prop_assert_eq!(&rows, &expected);
        }
    }

    /// Random stars, random forced thresholds (everything-heavy included):
    /// bit core == f32 core == capped fallback == the WCOJ reference.
    #[test]
    fn star_cores_agree_on_random_relations(
        e1 in proptest::collection::vec((0u32..9, 0u32..12), 1..50),
        e2 in proptest::collection::vec((0u32..11, 0u32..12), 1..50),
        e3 in proptest::collection::vec((0u32..7, 0u32..12), 1..50),
        e4 in proptest::collection::vec((0u32..5, 0u32..12), 1..40),
        d1 in 0u32..5,
        d2 in 0u32..5,
    ) {
        let rels: Vec<Relation> = [e1, e2, e3, e4].into_iter().map(Relation::from_edges).collect();
        assert_star_cores_agree(&rels[..3], (d1, d2));
        assert_star_cores_agree(&rels, (d1, d2));
        assert_star_cores_agree(&rels, (0, 0));
    }

    /// Whatever the star planner picks by itself, with either kernel priced,
    /// the answer is the reference's — and what it picks is everything
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
            for backend in [HeavyBackend::Auto, HeavyBackend::DenseF32] {
                let config = JoinConfig {
                    heavy_backend: backend,
                    wcoj_fallback_factor: 1.0,
                    ..JoinConfig::default()
                };
                let (rows, stats) = star_join_project_mm_with_stats(&rels, &config);
                prop_assert_eq!(&rows, &expected);
                let plan = stats.unwrap();
                prop_assert!(
                    matches!(
                        (plan.kind, plan.delta1, plan.delta2),
                        (PlanKind::Wcoj, None, None)
                            | (PlanKind::MatrixPartitioned, Some(0), Some(0))
                    ),
                    "k={} {:?}: {:?}", k, backend, plan
                );
            }
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
