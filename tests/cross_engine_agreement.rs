//! Cross-engine agreement: every engine in the workspace registry must
//! produce byte-identical results on every dataset family.
//!
//! This is the strongest correctness check the repository has, and it is
//! fully registry-driven: the engines under test are whatever
//! [`mmjoin::default_registry`] says supports each query — registering a
//! new engine automatically puts it under this microscope, with no
//! per-engine hard-coding here.

use mmjoin::{default_registry, Engine, EngineRegistry, PairSink, Query, VecSink};
use mmjoin_core::{two_path_with_counts, HeavyBackend, JoinConfig, MmJoinEngine};
use mmjoin_datagen::DatasetKind;
use mmjoin_storage::{Relation, Value};

const SCALE: f64 = 0.04;
const SEED: u64 = 77;

/// The default roster plus extra MMJoin configurations (parallel, each
/// heavy-core backend) registered under distinct names — the registry
/// makes widening the sweep a one-liner.
fn registry_under_test() -> EngineRegistry {
    let mut registry = default_registry(1);
    struct Renamed {
        name: &'static str,
        inner: MmJoinEngine,
    }
    impl Engine for Renamed {
        fn name(&self) -> &str {
            self.name
        }
        fn supports(&self, q: &Query<'_>) -> bool {
            self.inner.supports(q)
        }
        fn execute(
            &self,
            q: &Query<'_>,
            sink: &mut dyn mmjoin::Sink,
        ) -> Result<mmjoin::ExecStats, mmjoin::EngineError> {
            self.inner.execute(q, sink)
        }
    }
    let threads_cfg = |threads| JoinConfig {
        threads,
        ..JoinConfig::default()
    };
    for (name, config) in [
        // The executor-backed parallel paths at every budget the
        // acceptance sweep cares about (serial is the roster default).
        ("MMJoin(2 threads)", threads_cfg(2)),
        ("MMJoin(3 threads)", threads_cfg(3)),
        ("MMJoin(8 threads)", threads_cfg(8)),
        // The roster default multiplies existence queries as bits; pin
        // SGEMM too so each kernel is compared with every other engine.
        (
            "MMJoin(f32)",
            JoinConfig {
                heavy_backend: HeavyBackend::DenseF32,
                ..JoinConfig::default()
            },
        ),
    ] {
        registry.register(Box::new(Renamed {
            name,
            inner: MmJoinEngine::new(config),
        }));
    }
    registry
}

/// Executes `query` on every supporting engine and asserts the streamed
/// row sets are identical; returns the agreed rows.
fn assert_engines_agree(
    registry: &EngineRegistry,
    query: &Query<'_>,
    label: &str,
) -> Vec<Vec<Value>> {
    let engines = registry.engines_for(query);
    assert!(engines.len() >= 2, "{label}: roster too small");
    let mut reference: Option<(String, Vec<Vec<Value>>)> = None;
    for engine in engines {
        let mut sink = VecSink::new();
        let stats = engine
            .execute(query, &mut sink)
            .unwrap_or_else(|e| panic!("{label}: {} failed: {e}", engine.name()));
        assert_eq!(
            stats.rows,
            sink.rows.len() as u64,
            "{label}: {} misreported its row count",
            engine.name()
        );
        match &reference {
            None => reference = Some((engine.name().to_string(), sink.rows.to_rows())),
            Some((ref_name, ref_rows)) => assert_eq!(
                &sink.rows.to_rows(),
                ref_rows,
                "{label}: {} disagrees with {ref_name}",
                engine.name()
            ),
        }
    }
    reference.expect("at least one engine ran").1
}

#[test]
fn two_path_engines_agree_on_all_datasets() {
    let registry = registry_under_test();
    for kind in DatasetKind::ALL {
        let r = mmjoin_datagen::generate(kind, SCALE, SEED);
        let q = Query::two_path(&r, &r).build().unwrap();
        let rows = assert_engines_agree(&registry, &q, &format!("{kind:?}"));
        assert!(!rows.is_empty(), "{kind:?} produced empty output");
    }
}

#[test]
fn two_path_engines_agree_on_cross_join() {
    // Non-self join: R and S from different families sharing a y domain.
    let registry = registry_under_test();
    let r = mmjoin_datagen::generate(DatasetKind::Jokes, SCALE, SEED);
    let s = mmjoin_datagen::generate(DatasetKind::Jokes, SCALE, SEED + 1);
    let q = Query::two_path(&r, &s).build().unwrap();
    assert_engines_agree(&registry, &q, "cross-join");
}

#[test]
fn star_engines_agree_k3() {
    let registry = registry_under_test();
    for kind in [DatasetKind::Dblp, DatasetKind::Jokes, DatasetKind::Protein] {
        let scale = if kind.is_dense() { 0.012 } else { 0.03 };
        let rels = mmjoin_datagen::generate_star(kind, scale, SEED, 3);
        let q = Query::star(&rels).build().unwrap();
        assert_engines_agree(&registry, &q, &format!("{kind:?} star"));
    }
}

#[test]
fn star_engines_agree_k4() {
    let registry = registry_under_test();
    let rels = mmjoin_datagen::generate_star(DatasetKind::Protein, 0.008, SEED, 4);
    let q = Query::star(&rels).build().unwrap();
    assert_engines_agree(&registry, &q, "k=4 star");
}

#[test]
fn similarity_engines_agree() {
    let registry = registry_under_test();
    let r = mmjoin_datagen::generate(DatasetKind::Jokes, 0.02, SEED);
    for c in [2u32, 4] {
        let q = Query::similarity(&r, c).build().unwrap();
        assert_engines_agree(&registry, &q, &format!("similarity c={c}"));
    }
}

#[test]
fn containment_engines_agree() {
    let registry = registry_under_test();
    let r = mmjoin_datagen::generate(DatasetKind::Protein, 0.02, SEED);
    let q = Query::containment(&r).build().unwrap();
    let rows = assert_engines_agree(&registry, &q, "containment");
    assert!(!rows.is_empty(), "dense data should contain subsets");
}

#[test]
fn counting_variant_counts_match_bruteforce_on_generated_data() {
    let r = mmjoin_datagen::generate(DatasetKind::Protein, 0.02, SEED);
    let counts = two_path_with_counts(&r, &r, 1, &JoinConfig::default());
    // Spot-check 200 entries against direct intersections.
    let step = (counts.len() / 200).max(1);
    for (x, z, c) in counts.iter().step_by(step) {
        let truth = mmjoin_storage::csr::intersect_count(r.ys_of(*x), r.ys_of(*z)) as u32;
        assert_eq!(truth, *c, "count mismatch for pair ({x},{z})");
    }
    // And the pair set must equal the plain join-project through the
    // registry's reference engine.
    let registry = registry_under_test();
    let q = Query::two_path(&r, &r).build().unwrap();
    let mut sink = PairSink::new();
    registry.execute("MergeJoin(MySQL)", &q, &mut sink).unwrap();
    let pairs: Vec<(Value, Value)> = counts.iter().map(|&(x, z, _)| (x, z)).collect();
    assert_eq!(pairs, sink.pairs);
}

#[test]
fn reduce_pair_preserves_join_result() {
    let registry = registry_under_test();
    let r = mmjoin_datagen::generate(DatasetKind::Words, 0.03, SEED);
    let s = mmjoin_datagen::generate(DatasetKind::Words, 0.03, SEED + 5);
    let run = |r: &Relation, s: &Relation| {
        let q = Query::two_path(r, s).build().unwrap();
        let mut sink = PairSink::new();
        registry.execute("MergeJoin(MySQL)", &q, &mut sink).unwrap();
        sink.pairs
    };
    let before = run(&r, &s);
    let (r2, s2) = Relation::reduce_pair(&r, &s);
    let after = run(&r2, &s2);
    assert_eq!(before, after, "semi-join reduction changed the result");
    assert!(r2.len() <= r.len());
    assert!(s2.len() <= s.len());
}
