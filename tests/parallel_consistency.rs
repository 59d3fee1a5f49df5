//! Parallel-vs-serial consistency: every multi-threaded code path must be
//! bit-identical to its serial counterpart (coordination-free parallelism
//! means no output may depend on scheduling).

use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_core::{star_join_project_mm, two_path_join_project, two_path_with_counts, JoinConfig};
use mmjoin_datagen::DatasetKind;
use mmjoin_matrix::{matmul, matmul_parallel, DenseMatrix};
use mmjoin_scj::{set_containment_join, ScjAlgorithm};
use mmjoin_ssj::{unordered_ssj, SizeAwarePPOpts, SsjAlgorithm};
use mmjoin_storage::Relation;

const SEED: u64 = 1234;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn cfg(threads: usize) -> JoinConfig {
    JoinConfig {
        threads,
        ..JoinConfig::default()
    }
}

#[test]
fn gemm_parallel_consistency_on_many_shapes() {
    for &(m, k, n) in &[
        (64usize, 64usize, 64usize),
        (33, 129, 65),
        (200, 17, 311),
        (1, 500, 1),
    ] {
        let a = DenseMatrix::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 4 == 0) as u8 as f32);
        let b = DenseMatrix::from_fn(k, n, |i, j| ((i * 5 + j * 11) % 3 == 0) as u8 as f32);
        let serial = matmul(&a, &b);
        for &t in &THREADS {
            assert_eq!(matmul_parallel(&a, &b, t), serial, "({m},{k},{n}) x{t}");
        }
    }
}

#[test]
fn mmjoin_two_path_parallel_consistency() {
    for kind in [DatasetKind::Jokes, DatasetKind::Words, DatasetKind::Dblp] {
        let r = mmjoin_datagen::generate(kind, 0.03, SEED);
        let serial = two_path_join_project(&r, &r, &cfg(1));
        for &t in &THREADS {
            assert_eq!(
                two_path_join_project(&r, &r, &cfg(t)),
                serial,
                "{kind:?} x{t}"
            );
        }
    }
}

#[test]
fn counting_parallel_consistency() {
    let r = mmjoin_datagen::generate(DatasetKind::Protein, 0.02, SEED);
    let serial = two_path_with_counts(&r, &r, 2, &JoinConfig::default());
    for &t in &THREADS {
        let cfg = JoinConfig {
            threads: t,
            ..JoinConfig::default()
        };
        assert_eq!(two_path_with_counts(&r, &r, 2, &cfg), serial, "threads={t}");
    }
}

#[test]
fn star_parallel_consistency() {
    let rels = mmjoin_datagen::generate_star(DatasetKind::Image, 0.01, SEED, 3);
    let serial = star_join_project_mm(&rels, &cfg(1));
    for &t in &THREADS {
        assert_eq!(star_join_project_mm(&rels, &cfg(t)), serial, "threads={t}");
    }
}

#[test]
fn nonmm_parallel_consistency() {
    let r = mmjoin_datagen::generate(DatasetKind::Words, 0.03, SEED);
    let serial = ExpandDedupEngine::serial().join_project(&r, &r);
    for &t in &THREADS {
        assert_eq!(
            ExpandDedupEngine::parallel(t).join_project(&r, &r),
            serial,
            "threads={t}"
        );
    }
}

/// A chain step's intermediate — the expansion written as `x` rows with
/// its `z` degrees — is identical at every thread count: offsets, neighbor
/// lists, non-empty counts and degrees. Every third `x` of `R` has a row,
/// and the last few have none, so the workers' ranges are cut next to
/// empty groups and the last range ends in them.
#[test]
fn intermediate_rows_parallel_consistency() {
    let exec = mmjoin_executor::Executor::new(8);
    for kind in [DatasetKind::Dblp, DatasetKind::Words] {
        let s = mmjoin_datagen::generate(kind, 0.03, SEED);
        let spaced = s.tuples().map(|(x, y)| (3 * x + 1, y)).collect();
        let r = Relation::from_sorted_edges(3 * s.x_domain() + 4, s.y_domain(), spaced);
        let serial = ExpandDedupEngine::serial().join_project_rows(&r, &s, &exec);
        let pairs = ExpandDedupEngine::serial().join_project(&r, &s);
        let reference = Relation::from_sorted_edges(r.x_domain(), s.x_domain(), pairs);
        assert_eq!(serial.by_x(), reference.by_x(), "{kind:?}");
        for &t in &[1, 2, 3, 8] {
            let rows = ExpandDedupEngine::parallel(t).join_project_rows(&r, &s, &exec);
            assert_eq!(rows.indexes_built(), (true, false), "{kind:?} threads={t}");
            assert_eq!(rows.by_x(), serial.by_x(), "{kind:?} threads={t}");
            let degrees = |rel: &Relation| -> Vec<usize> {
                (0..rel.y_domain() as u32)
                    .map(|z| rel.y_degree(z))
                    .collect()
            };
            assert_eq!(degrees(&rows), degrees(&reference), "{kind:?} threads={t}");
            assert_eq!(rows.active_y_count(), reference.active_y_count());
            assert_eq!(rows.by_y(), reference.by_y(), "{kind:?} threads={t}");
        }
    }
}

#[test]
fn ssj_parallel_consistency() {
    let r = mmjoin_datagen::generate(DatasetKind::Jokes, 0.02, SEED);
    for algo in [
        SsjAlgorithm::SizeAware,
        SsjAlgorithm::SizeAwarePP(SizeAwarePPOpts::all()),
        SsjAlgorithm::MmJoin,
    ] {
        let serial = unordered_ssj(&r, 2, &algo, &cfg(1));
        for &t in &THREADS {
            assert_eq!(
                unordered_ssj(&r, 2, &algo, &cfg(t)),
                serial,
                "{algo:?} x{t}"
            );
        }
    }
}

#[test]
fn scj_parallel_consistency() {
    let r = mmjoin_datagen::generate(DatasetKind::Image, 0.02, SEED);
    for algo in [
        ScjAlgorithm::Pretti,
        ScjAlgorithm::LimitPlus { limit: 2 },
        ScjAlgorithm::PieJoin,
        ScjAlgorithm::MmJoin,
    ] {
        let serial = set_containment_join(&r, &algo, &cfg(1));
        for &t in &THREADS {
            assert_eq!(
                set_containment_join(&r, &algo, &cfg(t)),
                serial,
                "{algo:?} x{t}"
            );
        }
    }
}

/// The registry's parallel roster must match its serial roster on every
/// family — the engine-level counterpart of the per-algorithm checks
/// above.
#[test]
fn registry_parallel_consistency() {
    use mmjoin::{default_registry, Query, VecSink};
    let r = mmjoin_datagen::generate(DatasetKind::Jokes, 0.02, SEED);
    let serial = default_registry(1);
    let q = Query::two_path(&r, &r).build().unwrap();
    for &t in &THREADS {
        let parallel = default_registry(t);
        for engine in serial.engines_for(&q) {
            let mut s1 = VecSink::new();
            engine.execute(&q, &mut s1).unwrap();
            let mut s2 = VecSink::new();
            parallel
                .get(engine.name())
                .expect("same roster")
                .execute(&q, &mut s2)
                .unwrap();
            assert_eq!(s1.rows, s2.rows, "{} x{t}", engine.name());
        }
    }
}
