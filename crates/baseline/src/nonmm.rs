//! The combinatorial output-sensitive join of Lemma 2 — the paper's
//! `Non-MMJoin` comparison series.
//!
//! Lemma 2 ([11], Amossen–Pagh) evaluates `Q*_k` in
//! `O(|D| · |OUT|^{1-1/k})` with purely combinatorial means. For the 2-path
//! query the algorithm partitions the join variable by degree with threshold
//! `Δ ≈ √|OUT|`:
//!
//! * **light `y`** (degree ≤ Δ in `S`): expanding `L_R[y] × L_S[y]` pairs
//!   grouped by `x` costs at most `|OUT| · Δ` and deduplicates with the
//!   dense per-`x` scratch buffer;
//! * **heavy `y`** (at most `N/Δ` of them): for each `x`, the heavy `y`s it
//!   touches are merged (their `S`-lists unioned) through the same buffer —
//!   each `x` pays `Σ_heavy |L_S[y]|`, bounded by `N/Δ · √|OUT|` overall.
//!
//! Both phases share the per-`x` grouping, so the practical implementation
//! below is one pass per active `x` over all its `y` lists with the
//! epoch-stamped dedup buffer — what the paper's prototype actually runs —
//! plus an explicit sort-based alternative chosen by the §6 heuristic.

use mmjoin_executor::Executor;
use mmjoin_storage::dedup::sort_dedup;
use mmjoin_storage::{DedupBuffer, Relation, Value};

/// The Lemma-2 combinatorial output-sensitive engine (`Non-MMJoin`).
#[derive(Debug, Clone)]
pub struct ExpandDedupEngine {
    /// Worker threads (1 = serial). Parallelism partitions active `x`
    /// values; each worker owns a private dedup buffer, so no coordination
    /// is needed (x-groups are disjoint).
    pub threads: usize,
    /// The executor the parallel partitions run on; `None` uses the
    /// process-global pool. Services install theirs so one budget
    /// governs this engine too (see [`ExpandDedupEngine::on_executor`]).
    pub executor: Option<std::sync::Arc<Executor>>,
}

impl Default for ExpandDedupEngine {
    fn default() -> Self {
        Self::serial()
    }
}

impl ExpandDedupEngine {
    /// Serial engine.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            executor: None,
        }
    }

    /// Parallel engine on `threads` workers.
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            executor: None,
        }
    }

    /// Pins the engine's parallel work to `exec` instead of the
    /// process-global pool.
    pub fn on_executor(mut self, exec: std::sync::Arc<Executor>) -> Self {
        self.executor = Some(exec);
        self
    }

    fn exec(&self) -> &Executor {
        match &self.executor {
            Some(exec) => exec,
            None => Executor::global(),
        }
    }

    /// Expands one `x` group through `S`'s inverted lists, appending fresh
    /// `(x, z)` pairs to `out`.
    fn expand_group(
        x: Value,
        ys: &[Value],
        s: &Relation,
        dedup: &mut DedupBuffer,
        scratch: &mut Vec<Value>,
        out: &mut Vec<(Value, Value)>,
    ) {
        // §6 strategy choice: dense random-access buffer vs append+sort.
        let expansion: usize = ys
            .iter()
            .map(|&y| {
                if (y as usize) < s.y_domain() {
                    s.xs_of(y).len()
                } else {
                    0
                }
            })
            .sum();
        if expansion == 0 {
            return;
        }
        if expansion <= dedup.sort_strategy_threshold() / 4 {
            // Sort strategy: cheap when the group is small relative to the
            // domain (avoids cold random access into the big buffer).
            scratch.clear();
            for &y in ys {
                if (y as usize) < s.y_domain() {
                    scratch.extend_from_slice(s.xs_of(y));
                }
            }
            sort_dedup(scratch);
            out.extend(scratch.iter().map(|&z| (x, z)));
        } else {
            dedup.clear();
            for &y in ys {
                if (y as usize) >= s.y_domain() {
                    continue;
                }
                for &z in s.xs_of(y) {
                    if dedup.insert(z) {
                        out.push((x, z));
                    }
                }
            }
        }
    }
}

impl ExpandDedupEngine {
    /// Evaluates `π_{x,z}(R ⋈ S)`, returning sorted distinct `(x, z)` pairs.
    pub fn join_project(&self, r: &Relation, s: &Relation) -> Vec<(Value, Value)> {
        self.join_project_on(r, s, self.exec())
    }

    /// [`join_project`](Self::join_project) on an explicit executor, so a
    /// caller-level thread budget governs the expansion workers.
    pub fn join_project_on(
        &self,
        r: &Relation,
        s: &Relation,
        exec: &Executor,
    ) -> Vec<(Value, Value)> {
        let groups: Vec<(Value, &[Value])> = r.by_x().iter_nonempty().collect();
        let mut out = if self.threads <= 1 {
            let mut dedup = DedupBuffer::new(s.x_domain());
            let mut scratch = Vec::new();
            let mut out = Vec::new();
            for (x, ys) in groups {
                Self::expand_group(x, ys, s, &mut dedup, &mut scratch, &mut out);
            }
            out
        } else {
            // Static partition of x-groups into contiguous chunks; merge
            // worker outputs at the end (disjoint x ⇒ no dedup across
            // workers needed).
            let results = exec.map_chunks(self.threads, &groups, |part| {
                let mut dedup = DedupBuffer::new(s.x_domain());
                let mut scratch = Vec::new();
                let mut out = Vec::new();
                for &(x, ys) in part {
                    Self::expand_group(x, ys, s, &mut dedup, &mut scratch, &mut out);
                }
                out
            });
            results.concat()
        };
        out.sort_unstable();
        out
    }
}

impl ExpandDedupEngine {
    /// Star generalisation: enumerate the full WCOJ join and deduplicate.
    /// Grouped by the leading variable the dedup is sort-based per chunk to
    /// bound memory; this matches the combinatorial `O(|D|·|OUT|^{1-1/k})`
    /// behaviour in practice.
    pub fn star_join_project<R: AsRef<Relation>>(&self, relations: &[R]) -> Vec<Vec<Value>> {
        mmjoin_wcoj::star_join_project(relations)
    }

    /// [`Self::star_join_project`] as one flat buffer, `relations.len()`
    /// values per row.
    pub fn star_join_project_flat<R: AsRef<Relation>>(&self, relations: &[R]) -> Vec<Value> {
        mmjoin_wcoj::star_join_project_flat(relations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fulljoin::SortMergeEngine;
    use proptest::prelude::*;

    fn rel(edges: &[(Value, Value)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    #[test]
    fn matches_reference_small() {
        let r = rel(&[(0, 0), (0, 1), (1, 0), (2, 2)]);
        let s = rel(&[(4, 0), (5, 1), (6, 2), (4, 1)]);
        assert_eq!(
            ExpandDedupEngine::serial().join_project(&r, &s),
            SortMergeEngine.join_project(&r, &s)
        );
    }

    #[test]
    fn parallel_matches_serial() {
        // A mid-sized random-ish instance exercising both dedup strategies.
        let edges: Vec<(Value, Value)> =
            (0..400u32).map(|i| ((i * 7) % 50, (i * 13) % 40)).collect();
        let r = rel(&edges);
        let serial = ExpandDedupEngine::serial().join_project(&r, &r);
        for threads in [2, 3, 8] {
            assert_eq!(
                ExpandDedupEngine::parallel(threads).join_project(&r, &r),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn star_k3_matches_wcoj_reference() {
        let r1 = rel(&[(0, 0), (1, 0), (2, 1)]);
        let r2 = rel(&[(5, 0), (6, 1)]);
        let r3 = rel(&[(8, 0), (9, 0), (9, 1)]);
        let got =
            ExpandDedupEngine::serial().star_join_project(&[r1.clone(), r2.clone(), r3.clone()]);
        let expected = mmjoin_wcoj::star_join_project(&[r1, r2, r3]);
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_input() {
        let r = rel(&[]);
        assert!(ExpandDedupEngine::serial().join_project(&r, &r).is_empty());
    }

    proptest! {
        #[test]
        fn agrees_with_sort_merge(
            r_edges in proptest::collection::vec((0u32..25, 0u32..25), 0..80),
            s_edges in proptest::collection::vec((0u32..25, 0u32..25), 0..80),
            threads in 1usize..4,
        ) {
            let r = rel(&r_edges);
            let s = rel(&s_edges);
            prop_assert_eq!(
                ExpandDedupEngine::parallel(threads).join_project(&r, &s),
                SortMergeEngine.join_project(&r, &s)
            );
        }
    }
}
