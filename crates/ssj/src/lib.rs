//! Set-similarity joins (SSJ) — §4 of the paper.
//!
//! Given a family of sets encoded as a relation `R(x, y)` ("set `x` contains
//! element `y`") and an overlap threshold `c ≥ 1`, the SSJ reports all pairs
//! of distinct sets `{a, b}` with `|set(a) ∩ set(b)| ≥ c`. Pairs are
//! normalised as `a < b`.
//!
//! Three algorithm families are implemented, each packaged as a
//! [`SimilarityEngine`] behind the unified [`Engine`](mmjoin_api::Engine)
//! front door (`Query::similarity(&r, c)`):
//!
//! * [`SsjAlgorithm::SizeAware`] — Algorithm 2 of the paper, i.e. the
//!   size-aware join of Deng–Tao–Li \[20\]: a size boundary splits sets into
//!   heavy (verified by brute-force expansion) and light (all `c`-subsets
//!   are enumerated into an inverted index whose buckets are pair-scanned).
//! * [`SsjAlgorithm::SizeAwarePP`] — `SizeAware++` (§4): the three
//!   incremental optimizations of Figure 8 — `light` replaces the bucket
//!   pair-scan with a counting expansion join over light sets, `heavy`
//!   evaluates the heavy join with MMJoin counts, and `prefix` shares the
//!   light expansion across sets with common prefixes via the materialized
//!   prefix tree of Example 6.
//! * [`SsjAlgorithm::MmJoin`] — the paper's headline approach: the 2-path
//!   query with exact counts, delegated to
//!   [`MmJoinEngine`](mmjoin_core::MmJoinEngine).
//!
//! Both unordered enumeration and ordered (descending-overlap) variants are
//! provided (`Query::similarity(..).ordered()`); ordered output is where
//! the MM counts shine because the competing algorithms must re-verify
//! every pair to learn its overlap.
//!
//! Parallelism — like every other execution knob — comes from the one
//! [`JoinConfig`] the engine is constructed with; there is no separate
//! thread parameter.

pub mod prefix;
pub mod size_aware;
pub mod topk;

pub use topk::top_k_ssj;

use mmjoin_api::{Engine, EngineError, ExecStats, PairSink, Query, Sink, VecSink};
use mmjoin_core::{JoinConfig, MmJoinEngine};
use mmjoin_storage::{Relation, Value};

/// One similar pair with its exact overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SsjPair {
    /// Smaller set id.
    pub a: Value,
    /// Larger set id.
    pub b: Value,
    /// `|set(a) ∩ set(b)|`.
    pub overlap: u32,
}

/// Options for `SizeAware++` (the Figure 8 ablation knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeAwarePPOpts {
    /// Replace the light bucket pair-scan with the counting expansion join.
    pub light: bool,
    /// Evaluate the heavy join with MMJoin counts.
    pub heavy: bool,
    /// Share light expansions through the materialized prefix tree
    /// (requires `light`).
    pub prefix: bool,
}

impl SizeAwarePPOpts {
    /// All optimizations on (the `Prefix` bar of Figure 8).
    pub fn all() -> Self {
        Self {
            light: true,
            heavy: true,
            prefix: true,
        }
    }

    /// All off — identical to plain SizeAware (the `NO-OP` bar).
    pub fn none() -> Self {
        Self {
            light: false,
            heavy: false,
            prefix: false,
        }
    }
}

/// Algorithm selector for the SSJ entry points. Pure strategy choice —
/// execution configuration (threads, cost model) is supplied separately
/// through [`JoinConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsjAlgorithm {
    /// Algorithm 2 (SizeAware) of \[20\].
    SizeAware,
    /// SizeAware++ with the given optimization flags.
    SizeAwarePP(SizeAwarePPOpts),
    /// Matrix-multiplication counting join (delegates to
    /// [`MmJoinEngine`]).
    MmJoin,
}

/// A set-similarity engine: one [`SsjAlgorithm`] plus one [`JoinConfig`],
/// executing `Query::SimilarityJoin` through the unified front door.
#[derive(Debug, Clone)]
pub struct SimilarityEngine {
    algo: SsjAlgorithm,
    config: JoinConfig,
    name: String,
}

impl SimilarityEngine {
    /// Engine running `algo` under `config`.
    pub fn new(algo: SsjAlgorithm, config: JoinConfig) -> Self {
        let name = match algo {
            SsjAlgorithm::SizeAware => "SizeAware".to_string(),
            SsjAlgorithm::SizeAwarePP(opts) if opts == SizeAwarePPOpts::all() => {
                "SizeAware++".to_string()
            }
            SsjAlgorithm::SizeAwarePP(opts) => format!(
                "SizeAware++[{}{}{}]",
                if opts.light { "L" } else { "-" },
                if opts.heavy { "H" } else { "-" },
                if opts.prefix { "P" } else { "-" },
            ),
            SsjAlgorithm::MmJoin => "MMJoin".to_string(),
        };
        Self { algo, config, name }
    }

    /// Plain SizeAware under the default configuration.
    pub fn size_aware() -> Self {
        Self::new(SsjAlgorithm::SizeAware, JoinConfig::default())
    }

    /// SizeAware++ with all optimizations under the default configuration.
    pub fn size_aware_pp() -> Self {
        Self::new(
            SsjAlgorithm::SizeAwarePP(SizeAwarePPOpts::all()),
            JoinConfig::default(),
        )
    }

    /// The algorithm this engine runs.
    pub fn algorithm(&self) -> &SsjAlgorithm {
        &self.algo
    }

    /// Unordered pairs for the non-MM algorithms.
    fn pairs_unordered(&self, r: &Relation, c: u32) -> Vec<(Value, Value)> {
        match self.algo {
            SsjAlgorithm::SizeAware => {
                size_aware::size_aware_pairs(r, c, SizeAwarePPOpts::none(), &self.config)
            }
            SsjAlgorithm::SizeAwarePP(opts) => {
                size_aware::size_aware_pairs(r, c, opts, &self.config)
            }
            SsjAlgorithm::MmJoin => unreachable!("MmJoin delegates to MmJoinEngine"),
        }
    }
}

impl Engine for SimilarityEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, query: &Query<'_>) -> bool {
        matches!(query, Query::SimilarityJoin { .. })
    }

    fn execute(&self, query: &Query<'_>, sink: &mut dyn Sink) -> Result<ExecStats, EngineError> {
        query.validate()?;
        let Query::SimilarityJoin { r, c, ordered } = *query else {
            return Err(self.unsupported(query));
        };
        if let SsjAlgorithm::MmJoin = self.algo {
            return MmJoinEngine::new(self.config.clone()).execute(query, sink);
        }
        if !ordered {
            let pairs = self.pairs_unordered(r, c);
            return Ok(ExecStats::new(
                self.name(),
                mmjoin_api::emit_pairs(sink, pairs),
            ));
        }
        // Ordered: the non-MM algorithms discover pairs without counts, so
        // every overlap is re-verified by sorted-list intersection — the
        // extra cost §7.3 notes for SizeAware in the ordered setting.
        let mut pairs: Vec<SsjPair> = self
            .pairs_unordered(r, c)
            .into_iter()
            .map(|(a, b)| SsjPair {
                a,
                b,
                overlap: mmjoin_storage::csr::intersect_count(r.ys_of(a), r.ys_of(b)) as u32,
            })
            .collect();
        pairs.sort_unstable_by(|p, q| {
            q.overlap
                .cmp(&p.overlap)
                .then_with(|| (p.a, p.b).cmp(&(q.a, q.b)))
        });
        let triples: Vec<(Value, Value, u32)> =
            pairs.iter().map(|p| (p.a, p.b, p.overlap)).collect();
        Ok(ExecStats::new(
            self.name(),
            mmjoin_api::emit_counted_pairs(sink, &triples, true),
        ))
    }
}

/// Unordered SSJ: sorted distinct pairs `(a, b)`, `a < b`, with
/// `|set(a) ∩ set(b)| ≥ c`. Thin wrapper dispatching a
/// [`Query::SimilarityJoin`] through the [`Engine`] front door.
///
/// ```
/// use mmjoin_core::JoinConfig;
/// use mmjoin_ssj::{unordered_ssj, SsjAlgorithm};
/// use mmjoin_storage::Relation;
/// // Sets 0 = {1,2,3}, 1 = {2,3}, 2 = {9}.
/// let r = Relation::from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 9)]);
/// let pairs = unordered_ssj(&r, 2, &SsjAlgorithm::MmJoin, &JoinConfig::default());
/// assert_eq!(pairs, vec![(0, 1)]); // only sets 0 and 1 share ≥ 2 elements
/// ```
pub fn unordered_ssj(
    r: &Relation,
    c: u32,
    algo: &SsjAlgorithm,
    config: &JoinConfig,
) -> Vec<(Value, Value)> {
    let query = Query::similarity(r, c)
        .build()
        .expect("similarity threshold must be >= 1");
    let engine = SimilarityEngine::new(*algo, config.clone());
    let mut sink = PairSink::new();
    engine
        .execute(&query, &mut sink)
        .expect("similarity join cannot fail on a valid query");
    sink.into_pairs()
}

/// Ordered SSJ: pairs sorted by descending overlap (ties by `(a, b)`).
/// Thin wrapper dispatching an ordered [`Query::SimilarityJoin`] through
/// the [`Engine`] front door.
pub fn ordered_ssj(r: &Relation, c: u32, algo: &SsjAlgorithm, config: &JoinConfig) -> Vec<SsjPair> {
    let query = Query::similarity(r, c)
        .ordered()
        .build()
        .expect("similarity threshold must be >= 1");
    let engine = SimilarityEngine::new(*algo, config.clone());
    let mut sink = VecSink::new();
    engine
        .execute(&query, &mut sink)
        .expect("similarity join cannot fail on a valid query");
    sink.rows
        .iter()
        .zip(&sink.counts)
        .map(|(row, &overlap)| SsjPair {
            a: row[0],
            b: row[1],
            overlap,
        })
        .collect()
}

/// Reference brute-force SSJ used by the test-suites of this crate and the
/// integration tests.
pub fn brute_force_ssj(r: &Relation, c: u32) -> Vec<SsjPair> {
    let sets: Vec<Value> = r.by_x().iter_nonempty().map(|(x, _)| x).collect();
    let mut out = Vec::new();
    for (i, &a) in sets.iter().enumerate() {
        for &b in &sets[i + 1..] {
            let overlap = mmjoin_storage::csr::intersect_count(r.ys_of(a), r.ys_of(b)) as u32;
            if overlap >= c {
                out.push(SsjPair { a, b, overlap });
            }
        }
    }
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

    fn sample_instance() -> Relation {
        // Sets: 0={0,1,2,3}, 1={1,2,3}, 2={2,3,9}, 3={9}, 4={0,1,2,3,9}.
        rel(&[
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 1),
            (1, 2),
            (1, 3),
            (2, 2),
            (2, 3),
            (2, 9),
            (3, 9),
            (4, 0),
            (4, 1),
            (4, 2),
            (4, 3),
            (4, 9),
        ])
    }

    fn all_algorithms() -> Vec<SsjAlgorithm> {
        vec![
            SsjAlgorithm::SizeAware,
            SsjAlgorithm::SizeAwarePP(SizeAwarePPOpts {
                light: true,
                heavy: false,
                prefix: false,
            }),
            SsjAlgorithm::SizeAwarePP(SizeAwarePPOpts {
                light: true,
                heavy: true,
                prefix: false,
            }),
            SsjAlgorithm::SizeAwarePP(SizeAwarePPOpts::all()),
            SsjAlgorithm::MmJoin,
        ]
    }

    #[test]
    fn all_algorithms_match_bruteforce_c2() {
        let r = sample_instance();
        let expected: Vec<(Value, Value)> = brute_force_ssj(&r, 2)
            .into_iter()
            .map(|p| (p.a, p.b))
            .collect();
        for algo in all_algorithms() {
            let got = unordered_ssj(&r, 2, &algo, &cfg());
            assert_eq!(got, expected, "{algo:?}");
        }
    }

    #[test]
    fn all_algorithms_match_bruteforce_c1_and_c3() {
        let r = sample_instance();
        for c in [1u32, 3, 4] {
            let expected: Vec<(Value, Value)> = brute_force_ssj(&r, c)
                .into_iter()
                .map(|p| (p.a, p.b))
                .collect();
            for algo in all_algorithms() {
                assert_eq!(
                    unordered_ssj(&r, c, &algo, &cfg()),
                    expected,
                    "c={c} {algo:?}"
                );
            }
        }
    }

    #[test]
    fn ordered_output_sorted_by_overlap() {
        let r = sample_instance();
        for algo in all_algorithms() {
            let got = ordered_ssj(&r, 2, &algo, &cfg());
            for w in got.windows(2) {
                assert!(w[0].overlap >= w[1].overlap, "{algo:?}: {got:?}");
            }
            // Counts must be exact regardless of algorithm.
            let brute = brute_force_ssj(&r, 2);
            let mut sorted_got = got.clone();
            sorted_got.sort_unstable();
            let mut sorted_brute = brute;
            sorted_brute.sort_unstable();
            assert_eq!(sorted_got, sorted_brute, "{algo:?}");
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let empty = rel(&[]);
        for algo in all_algorithms() {
            assert!(
                unordered_ssj(&empty, 2, &algo, &cfg()).is_empty(),
                "{algo:?}"
            );
        }
        let single = rel(&[(0, 0)]);
        for algo in all_algorithms() {
            assert!(
                unordered_ssj(&single, 1, &algo, &cfg()).is_empty(),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut edges = Vec::new();
        for i in 0..500u32 {
            edges.push(((i * 3) % 60, (i * 7) % 35));
        }
        let r = rel(&edges);
        for algo in all_algorithms() {
            let serial = unordered_ssj(&r, 2, &algo, &cfg());
            let parallel = unordered_ssj(&r, 2, &algo, &cfg_threads(4));
            assert_eq!(serial, parallel, "{algo:?}");
        }
    }

    #[test]
    fn engine_names_are_stable() {
        assert_eq!(Engine::name(&SimilarityEngine::size_aware()), "SizeAware");
        assert_eq!(
            Engine::name(&SimilarityEngine::size_aware_pp()),
            "SizeAware++"
        );
        let partial = SimilarityEngine::new(
            SsjAlgorithm::SizeAwarePP(SizeAwarePPOpts {
                light: true,
                heavy: false,
                prefix: false,
            }),
            JoinConfig::default(),
        );
        assert_eq!(Engine::name(&partial), "SizeAware++[L--]");
    }

    #[test]
    fn engine_rejects_other_families() {
        let r = rel(&[(0, 0)]);
        let q = Query::containment(&r).build().unwrap();
        let engine = SimilarityEngine::size_aware();
        assert!(!engine.supports(&q));
        let mut sink = PairSink::new();
        assert!(engine.execute(&q, &mut sink).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn algorithms_agree_with_bruteforce(
            edges in proptest::collection::vec((0u32..14, 0u32..12), 1..70),
            c in 1u32..4,
        ) {
            let r = rel(&edges);
            let expected: Vec<(Value, Value)> =
                brute_force_ssj(&r, c).into_iter().map(|p| (p.a, p.b)).collect();
            for algo in all_algorithms() {
                prop_assert_eq!(unordered_ssj(&r, c, &algo, &cfg()), expected.clone());
            }
        }
    }
}
