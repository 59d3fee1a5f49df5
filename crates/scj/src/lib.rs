//! Set-containment joins (SCJ) — §4 and Figure 4c/7 of the paper.
//!
//! Given sets encoded as `R(x, y)` ("set `x` contains element `y`"), the SCJ
//! reports all ordered pairs `(a, b)`, `a ≠ b`, with `set(a) ⊆ set(b)`.
//!
//! Four algorithms, each packaged as a [`ContainmentEngine`] behind the
//! unified [`Engine`](mmjoin_api::Engine) front door
//! (`Query::containment(&r)`):
//!
//! * [`ScjAlgorithm::Pretti`] — PRETTI-style inverted-list join: the
//!   supersets of `a` are exactly `⋂_{e ∈ a} L[e]`, computed with the k-way
//!   leapfrog intersection (infrequent-first order makes the smallest list
//!   drive the cost).
//! * [`ScjAlgorithm::LimitPlus`] — LIMIT+ \[15\]: intersect only the
//!   `limit` most infrequent elements (the blocking filter), then verify
//!   each candidate by sorted-list subset check. The paper runs `limit = 2`.
//! * [`ScjAlgorithm::PieJoin`] — PIEJoin \[28\]: a prefix tree over all
//!   sets (global infrequent-first element order) searched per probe set;
//!   the only parallel baseline (partition by probe ranges).
//! * [`ScjAlgorithm::MmJoin`] — the paper's approach: evaluate the counting
//!   join-project and keep pairs with `|a ∩ b| = |a|`, delegated to
//!   [`MmJoinEngine`](mmjoin_core::MmJoinEngine); fastest when the
//!   join-project output is close to the SCJ output (dense data).
//!
//! Parallelism — like every other execution knob — comes from the one
//! [`JoinConfig`] the engine is constructed with; there is no separate
//! thread parameter.

pub mod piejoin;
pub mod pretti;

use mmjoin_api::{Engine, EngineError, ExecStats, PairSink, Query, Sink};
use mmjoin_core::{JoinConfig, MmJoinEngine};
use mmjoin_storage::{Relation, Value};

/// Algorithm selector for [`set_containment_join`]. Pure strategy choice —
/// execution configuration comes from [`JoinConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScjAlgorithm {
    /// Full inverted-list intersection per probe set.
    Pretti,
    /// Blocking on the `limit` most infrequent elements + verification.
    LimitPlus {
        /// Number of leading (most infrequent) elements intersected before
        /// falling back to verification. The paper uses 2.
        limit: usize,
    },
    /// Prefix-tree (trie) containment search.
    PieJoin,
    /// Counting join-project filtered to containment (delegates to
    /// [`MmJoinEngine`]).
    MmJoin,
}

/// A set-containment engine: one [`ScjAlgorithm`] plus one [`JoinConfig`],
/// executing `Query::ContainmentJoin` through the unified front door.
#[derive(Debug, Clone)]
pub struct ContainmentEngine {
    algo: ScjAlgorithm,
    config: JoinConfig,
    name: String,
}

impl ContainmentEngine {
    /// Engine running `algo` under `config`.
    pub fn new(algo: ScjAlgorithm, config: JoinConfig) -> Self {
        let name = match algo {
            ScjAlgorithm::Pretti => "PRETTI".to_string(),
            ScjAlgorithm::LimitPlus { limit: 2 } => "LIMIT+".to_string(),
            ScjAlgorithm::LimitPlus { limit } => format!("LIMIT+[{limit}]"),
            ScjAlgorithm::PieJoin => "PIEJoin".to_string(),
            ScjAlgorithm::MmJoin => "MMJoin".to_string(),
        };
        Self { algo, config, name }
    }

    /// PRETTI under the default configuration.
    pub fn pretti() -> Self {
        Self::new(ScjAlgorithm::Pretti, JoinConfig::default())
    }

    /// LIMIT+ with the paper's `limit = 2` under the default configuration.
    pub fn limit_plus() -> Self {
        Self::new(ScjAlgorithm::LimitPlus { limit: 2 }, JoinConfig::default())
    }

    /// PIEJoin under the default configuration.
    pub fn pie_join() -> Self {
        Self::new(ScjAlgorithm::PieJoin, JoinConfig::default())
    }

    /// The algorithm this engine runs.
    pub fn algorithm(&self) -> &ScjAlgorithm {
        &self.algo
    }
}

impl Engine for ContainmentEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, query: &Query<'_>) -> bool {
        matches!(query, Query::ContainmentJoin { .. })
    }

    fn execute(&self, query: &Query<'_>, sink: &mut dyn Sink) -> Result<ExecStats, EngineError> {
        query.validate()?;
        let Query::ContainmentJoin { r } = *query else {
            return Err(self.unsupported(query));
        };
        if let ScjAlgorithm::MmJoin = self.algo {
            return MmJoinEngine::new(self.config.clone()).execute(query, sink);
        }
        let (threads, exec) = (self.config.effective_threads(), self.config.exec());
        let mut out = match self.algo {
            ScjAlgorithm::Pretti => pretti::pretti_join(r, threads, exec),
            ScjAlgorithm::LimitPlus { limit } => pretti::limit_plus_join(r, limit, threads, exec),
            ScjAlgorithm::PieJoin => piejoin::pie_join(r, threads, exec),
            ScjAlgorithm::MmJoin => unreachable!("MmJoin delegates to MmJoinEngine"),
        };
        out.sort_unstable();
        out.dedup();
        Ok(ExecStats::new(
            self.name(),
            mmjoin_api::emit_pairs(sink, out),
        ))
    }
}

/// Evaluates the self set-containment join of `r`, returning sorted
/// `(subset, superset)` pairs with `subset ≠ superset`. Thin wrapper
/// dispatching a [`Query::ContainmentJoin`] through the [`Engine`] front
/// door.
///
/// ```
/// use mmjoin_core::JoinConfig;
/// use mmjoin_scj::{set_containment_join, ScjAlgorithm};
/// use mmjoin_storage::Relation;
/// // 0 = {5}, 1 = {5, 6}.
/// let r = Relation::from_edges([(0, 5), (1, 5), (1, 6)]);
/// let pairs = set_containment_join(&r, &ScjAlgorithm::Pretti, &JoinConfig::default());
/// assert_eq!(pairs, vec![(0, 1)]);
/// ```
pub fn set_containment_join(
    r: &Relation,
    algo: &ScjAlgorithm,
    config: &JoinConfig,
) -> Vec<(Value, Value)> {
    let query = Query::containment(r)
        .build()
        .expect("containment queries have no invalid configurations");
    let engine = ContainmentEngine::new(*algo, config.clone());
    let mut sink = PairSink::new();
    engine
        .execute(&query, &mut sink)
        .expect("containment join cannot fail on a valid query");
    sink.into_pairs()
}

/// Brute-force reference SCJ for tests.
pub fn brute_force_scj(r: &Relation) -> Vec<(Value, Value)> {
    let sets: Vec<Value> = r.by_x().iter_nonempty().map(|(x, _)| x).collect();
    let mut out = Vec::new();
    for &a in &sets {
        for &b in &sets {
            if a != b && mmjoin_storage::csr::is_subset(r.ys_of(a), r.ys_of(b)) {
                out.push((a, b));
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    fn cfg() -> JoinConfig {
        JoinConfig::default()
    }

    fn cfg_threads(threads: usize) -> JoinConfig {
        JoinConfig {
            threads,
            ..JoinConfig::default()
        }
    }

    fn all_algorithms() -> Vec<ScjAlgorithm> {
        vec![
            ScjAlgorithm::Pretti,
            ScjAlgorithm::LimitPlus { limit: 2 },
            ScjAlgorithm::PieJoin,
            ScjAlgorithm::MmJoin,
        ]
    }

    fn sample() -> Relation {
        // 0={1,2}, 1={1,2,3}, 2={2}, 3={1,2,3,4}, 4={5}, 5={1,2}.
        rel(&[
            (0, 1),
            (0, 2),
            (1, 1),
            (1, 2),
            (1, 3),
            (2, 2),
            (3, 1),
            (3, 2),
            (3, 3),
            (3, 4),
            (4, 5),
            (5, 1),
            (5, 2),
        ])
    }

    #[test]
    fn all_algorithms_match_bruteforce() {
        let r = sample();
        let expected = brute_force_scj(&r);
        assert!(expected.contains(&(0, 1)));
        assert!(expected.contains(&(0, 5))); // equal sets contain each other
        assert!(expected.contains(&(5, 0)));
        for algo in all_algorithms() {
            assert_eq!(
                set_containment_join(&r, &algo, &cfg()),
                expected,
                "{algo:?}"
            );
        }
    }

    #[test]
    fn empty_relation() {
        let r = rel(&[]);
        for algo in all_algorithms() {
            assert!(
                set_containment_join(&r, &algo, &cfg()).is_empty(),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn no_containments() {
        let r = rel(&[(0, 0), (1, 1), (2, 2)]);
        for algo in all_algorithms() {
            assert!(
                set_containment_join(&r, &algo, &cfg()).is_empty(),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn chain_containment() {
        // 0={0} ⊂ 1={0,1} ⊂ 2={0,1,2}.
        let r = rel(&[(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]);
        let expected = vec![(0, 1), (0, 2), (1, 2)];
        for algo in all_algorithms() {
            assert_eq!(
                set_containment_join(&r, &algo, &cfg()),
                expected,
                "{algo:?}"
            );
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut edges = Vec::new();
        for i in 0..300u32 {
            let set = (i * 7) % 40;
            edges.push((set, (i * 3) % 25));
        }
        // Seed containment: every set also gets element 0.
        for s in 0..40u32 {
            edges.push((s, 0));
        }
        let r = rel(&edges);
        for algo in all_algorithms() {
            let serial = set_containment_join(&r, &algo, &cfg());
            let parallel = set_containment_join(&r, &algo, &cfg_threads(4));
            assert_eq!(serial, parallel, "{algo:?}");
        }
    }

    #[test]
    fn engine_names_are_stable() {
        assert_eq!(Engine::name(&ContainmentEngine::pretti()), "PRETTI");
        assert_eq!(Engine::name(&ContainmentEngine::limit_plus()), "LIMIT+");
        assert_eq!(Engine::name(&ContainmentEngine::pie_join()), "PIEJoin");
        let wide = ContainmentEngine::new(ScjAlgorithm::LimitPlus { limit: 5 }, cfg());
        assert_eq!(Engine::name(&wide), "LIMIT+[5]");
    }

    #[test]
    fn engine_rejects_other_families() {
        let r = rel(&[(0, 0)]);
        let q = Query::similarity(&r, 1).build().unwrap();
        let engine = ContainmentEngine::pretti();
        assert!(!engine.supports(&q));
        let mut sink = PairSink::new();
        assert!(engine.execute(&q, &mut sink).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn algorithms_agree_with_bruteforce(
            edges in proptest::collection::vec((0u32..12, 0u32..10), 1..60),
            limit in 1usize..4,
        ) {
            let r = rel(&edges);
            let expected = brute_force_scj(&r);
            prop_assert_eq!(set_containment_join(&r, &ScjAlgorithm::Pretti, &cfg()), expected.clone());
            prop_assert_eq!(
                set_containment_join(&r, &ScjAlgorithm::LimitPlus { limit }, &cfg()),
                expected.clone()
            );
            prop_assert_eq!(set_containment_join(&r, &ScjAlgorithm::PieJoin, &cfg()), expected.clone());
            prop_assert_eq!(set_containment_join(&r, &ScjAlgorithm::MmJoin, &cfg()), expected);
        }
    }
}
