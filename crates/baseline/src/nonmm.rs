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
//! below is one pass per active `x` over all its `y` lists, deduplicated per
//! group by the cheaper of §6's two strategies — sort the appended values,
//! or mark them in a dense buffer (here a bitmap over `dom z`).
//!
//! **Cost.** A group's size, `Σ_y |L_S[y]|`, is read from `S`'s offsets as
//! the walk reaches its `x`; nothing is sized ahead of the walk. Both
//! strategies append the lists with `CsrIndex::gather`, one fixed-width
//! move per short list: a loop per list costs a mispredicted exit each,
//! which on relations that fit in L2 is more than their values cost. The
//! bitmap is marked from the gathered values, and a group of one list
//! (already sorted and distinct) or two (one merge) is not sorted at all.
//!
//! **Order.** `x` groups ascend and each group leaves in ascending `z`, so
//! the output is sorted and distinct as it is written: nothing sorts it
//! afterwards, and parallel workers, who own contiguous `x` ranges, are
//! simply concatenated.
//!
//! **Outputs.** The same walk writes either `(x, z)` pairs
//! ([`ExpandDedupEngine::join_project`]) or the answer as a relation
//! ([`ExpandDedupEngine::join_project_rows`]): each group's `z`s become row
//! `x` of a [`RowWriter`], which checks the order and counts the `z`
//! degrees once the rows are written, so a chain step hands the next step
//! its rows with no pair vector and no index build between them.

use mmjoin_executor::Executor;
use mmjoin_storage::dedup::sort_dedup;
use mmjoin_storage::{CsrIndex, Relation, RowWriter, Value};
use std::ops::Range;

/// A group expanding to more than `dom z / BITMAP_FRACTION` values marks
/// them in the bitmap: walking its `dom z / 64` words then costs less than
/// sorting the values would. Below it, a group pays nothing per domain.
const BITMAP_FRACTION: usize = 32;

/// Where the expansion writes each `x` group's distinct `z`s, ascending.
trait Groups {
    /// A group's values, sorted and distinct.
    fn extend(&mut self, x: Value, zs: &[Value]);
    /// The next value of a group.
    fn push(&mut self, x: Value, z: Value);
    /// Group `x` is written.
    fn end(&mut self, x: Value);
}

impl Groups for Vec<(Value, Value)> {
    #[inline]
    fn extend(&mut self, x: Value, zs: &[Value]) {
        Extend::extend(self, zs.iter().map(|&z| (x, z)));
    }

    #[inline]
    fn push(&mut self, x: Value, z: Value) {
        Vec::push(self, (x, z));
    }

    #[inline]
    fn end(&mut self, _: Value) {}
}

impl Groups for RowWriter {
    #[inline]
    fn extend(&mut self, _: Value, zs: &[Value]) {
        self.values().extend_from_slice(zs);
    }

    #[inline]
    fn push(&mut self, _: Value, z: Value) {
        self.values().push(z);
    }

    #[inline]
    fn end(&mut self, x: Value) {
        self.end_row(x);
    }
}

/// Appends the union of the sorted, distinct `a` and `b` to `out`, sorted
/// and distinct: one merge, each step taking the smaller head and passing
/// every list whose head it took.
fn union(a: &[Value], b: &[Value], out: &mut Vec<Value>) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&y), Some(&z)) = (a.get(i), b.get(j)) {
        out.push(y.min(z));
        i += usize::from(y <= z);
        j += usize::from(z <= y);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

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

    /// Expands one `x` group of `expansion` values — its `ys`' inverted
    /// lists in `S`, `S`'s `y` index `lists` — by the sort strategy, and
    /// writes the distinct `z`s to `out` in ascending order. One list is
    /// already the answer and two are unioned in one merge; more are
    /// gathered into `scratch`, sorted and deduped.
    fn sort_group(
        x: Value,
        ys: &[Value],
        expansion: usize,
        lists: &CsrIndex,
        scratch: &mut Vec<Value>,
        out: &mut impl Groups,
    ) {
        match *ys {
            [y] => out.extend(x, lists.neighbors(y)),
            [a, b] if (b as usize) < lists.num_keys() => {
                scratch.clear();
                union(lists.neighbors(a), lists.neighbors(b), scratch);
                out.extend(x, scratch);
            }
            _ => {
                scratch.clear();
                lists.gather(ys, expansion, scratch);
                sort_dedup(scratch);
                out.extend(x, scratch);
            }
        }
        out.end(x);
    }

    /// Expands one `x` group of `expansion` values by the bitmap strategy:
    /// gathers its `ys`' inverted lists in `S` (`S`'s `y` index `lists`)
    /// into `scratch`, marks them in `bitmap`, which covers `dom z` and is
    /// all zero between calls, then writes the distinct `z`s to `out` in
    /// ascending order, clearing the words it reads.
    fn bitmap_group(
        x: Value,
        ys: &[Value],
        expansion: usize,
        lists: &CsrIndex,
        bitmap: &mut [u64],
        scratch: &mut Vec<Value>,
        out: &mut impl Groups,
    ) {
        // Marking from one gathered array, not list by list: a sparse
        // group's lists are a few values each, and a loop per list costs
        // more than the marks.
        scratch.clear();
        lists.gather(ys, expansion, scratch);
        let (mut lo, mut hi) = (Value::MAX, 0);
        for &z in scratch.iter() {
            bitmap[z as usize / 64] |= 1 << (z % 64);
            (lo, hi) = (lo.min(z), hi.max(z));
        }
        let first = lo / 64;
        for (i, word) in (first..).zip(&mut bitmap[first as usize..=hi as usize / 64]) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(x, i * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        out.end(x);
    }

    /// Expands the `x` groups of `R` in `xs` on one thread into `out`, with
    /// one bitmap and one scratch list for all of them. A group expanding
    /// to at most `dom z / BITMAP_FRACTION` values is sorted, a larger one
    /// marked in the bitmap; its size is read from `S`'s offsets.
    fn expand_range<G: Groups>(r: &Relation, s: &Relation, xs: Range<usize>, mut out: G) -> G {
        let mut bitmap = vec![0u64; s.x_domain().div_ceil(64)];
        let mut scratch = Vec::new();
        let (rows, lists, sorted) = (r.by_x(), s.by_y(), s.x_domain() / BITMAP_FRACTION);
        for x in xs.map(|x| x as Value) {
            let ys = rows.neighbors(x);
            match lists.rows_len(ys) {
                0 => {}
                size if size <= sorted => {
                    Self::sort_group(x, ys, size, lists, &mut scratch, &mut out);
                }
                size => {
                    Self::bitmap_group(x, ys, size, lists, &mut bitmap, &mut scratch, &mut out);
                }
            }
        }
        debug_assert!(bitmap.iter().all(|&word| word == 0), "emission clears");
        out
    }

    /// The cuts between the `x` ranges of `R` the workers expand — range
    /// `i` is `cuts[i]..cuts[i + 1]`: one contiguous range of `x` groups
    /// each — disjoint, so no dedup across workers, and ascending, so their
    /// outputs concatenate into the answer — cut where the expansion sizes
    /// (read from `S`'s offsets; their total is the full join) sum to equal
    /// shares: a few prolific heads do not make one range the straggler.
    /// The walk stops at the last cut.
    fn cuts(&self, r: &Relation, s: &Relation) -> Vec<usize> {
        if self.threads <= 1 {
            return vec![0, r.x_domain()];
        }
        let share = (r.full_join_size(s) as usize).div_ceil(self.threads).max(1);
        let mut cuts = vec![0];
        let (mut done, lists) = (0, s.by_y());
        for (x, ys) in r.by_x().iter_nonempty() {
            if cuts.len() == self.threads {
                break;
            }
            if done >= cuts.len() * share {
                cuts.push(x as usize);
            }
            done += lists.rows_len(ys);
        }
        cuts.push(r.x_domain());
        cuts
    }

    /// Expands `R`'s groups over [`ExpandDedupEngine::cuts`]' ranges, each
    /// into the output `out` makes for it: on this thread when there is one
    /// range, else one executor task a range.
    fn expand<G: Groups + Send>(
        &self,
        r: &Relation,
        s: &Relation,
        exec: &Executor,
        out: impl Fn(Range<usize>) -> G + Sync,
    ) -> Vec<G> {
        let cuts = self.cuts(r, s);
        let run = |i: usize| {
            let xs = cuts[i]..cuts[i + 1];
            Self::expand_range(r, s, xs.clone(), out(xs))
        };
        if cuts.len() == 2 {
            return vec![run(0)];
        }
        exec.map(self.threads, cuts.len() - 1, run)
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
        let mut parts = self.expand(r, s, exec, |_| Vec::new());
        let out = if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            parts.concat()
        };
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        out
    }

    /// `π_{x,z}(R ⋈ S)` as a relation over `dom x × dom z`, written as its
    /// `x` rows with its `z` degrees ([`RowWriter`]); its `z` index is built
    /// only if something reads it. Equal to
    /// `Relation::from_sorted_edges` of [`Self::join_project_on`]'s pairs.
    pub fn join_project_rows(&self, r: &Relation, s: &Relation, exec: &Executor) -> Relation {
        let z_domain = s.x_domain();
        let parts = self.expand(r, s, exec, |xs| RowWriter::new(xs, z_domain));
        RowWriter::finish(parts)
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

    /// Groups reading the lists that end `S`'s `y`-major array — the last
    /// `GATHER_WIDTH` values, which the gather copies exactly rather than a
    /// full width — expand like any other, at any number of workers.
    #[test]
    fn the_last_lists_of_s_expand_exactly() {
        // `y` lists one to three `z`s of a 4000-wide domain, so the last
        // `y`s' lists end the array; every `x` reads some of the `y`s after
        // it, and the last `y`.
        let lists = (0..20u32).flat_map(|y| (0..1 + y % 3).map(move |i| (y * 37 + i * 311, y)));
        let s = rel(&lists.chain([(3999, 0)]).collect::<Vec<_>>());
        let reads = |x: u32| {
            (x..20)
                .step_by(1 + x as usize % 4)
                .chain([19])
                .map(move |y| (x, y))
        };
        let r = rel(&(0..20).flat_map(reads).collect::<Vec<_>>());
        assert!(s.len() > mmjoin_storage::csr::GATHER_WIDTH && r.y_degree(19) == 20);
        let sorts = |x: Value| s.by_y().rows_len(r.ys_of(x)) <= s.x_domain() / BITMAP_FRACTION;
        assert!((0..20).all(sorts), "every group takes the gather");

        let expected = SortMergeEngine.join_project(&r, &s);
        for threads in [1, 2, 3, 8] {
            let got = ExpandDedupEngine::parallel(threads).join_project(&r, &s);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    /// Every way a group expands — one list as it lies, two unioned in a
    /// merge, more gathered and sorted, or marked in the bitmap — gives the
    /// reference's pairs, and the same rows written as a relation.
    #[test]
    fn every_group_strategy_expands_exactly() {
        // `y` lists of one to five `z`s; `y`s `2k` and `2k + 1` start at
        // the same `z`, so their union drops a repeat.
        let lists = (0..40u32).flat_map(|y| (0..1 + y % 5).map(move |i| (y / 2 * 13 + i * 29, y)));
        let s = rel(&lists.collect::<Vec<_>>());
        // Groups of one list, of two (overlapping, disjoint, one `y` past
        // `S`'s domain), of five, of every list, and of nothing `S` has.
        let groups: [&[Value]; 8] = [
            &[3],
            &[39],
            &[4, 5],
            &[7, 30],
            &[12, 45],
            &[1, 9, 17, 25, 33],
            &(0..40).collect::<Vec<_>>(),
            &[50],
        ];
        let tuples = groups
            .iter()
            .zip(0..)
            .flat_map(|(ys, x)| ys.iter().map(move |&y| (x, y)));
        let r = rel(&tuples.collect::<Vec<_>>());
        let sorted = s.x_domain() / BITMAP_FRACTION;
        let size = |x: Value| s.by_y().rows_len(r.ys_of(x));
        assert!(size(4) <= sorted && size(6) > sorted, "both strategies run");

        let expected = SortMergeEngine.join_project(&r, &s);
        for threads in [1, 2, 3] {
            let engine = ExpandDedupEngine::parallel(threads);
            assert_eq!(engine.join_project(&r, &s), expected, "threads={threads}");
            let rows = engine.join_project_rows(&r, &s, engine.exec());
            assert!(
                rows.tuples().eq(expected.iter().copied()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn union_of_two_sorted_lists() {
        let mut out = vec![9];
        union(&[1, 4, 6, 10], &[2, 4, 10, 12, 13], &mut out);
        assert_eq!(out, [9, 1, 2, 4, 6, 10, 12, 13]);
        out.clear();
        union(&[], &[3], &mut out);
        union(&[5, 7], &[], &mut out);
        assert_eq!(out, [3, 5, 7]);
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

        /// One relation whose groups take both dedup branches — a hub `x`
        /// over every shared `y` marks the bitmap, a one-`z` `x` sorts —
        /// with `z` values on the bitmap's word boundaries: the output is
        /// strictly ascending as emitted, whatever the number of workers.
        #[test]
        fn ascending_on_both_branches_and_word_boundaries(
            r_edges in proptest::collection::vec((0u32..40, 0u32..12), 0..120),
            s_edges in proptest::collection::vec((0u32..130, 0u32..12), 0..400),
            z_domain in 129u32..200,
        ) {
            let ends = [0, 1, 62, 63, 64, 127, 128, z_domain - 1];
            // `y = 12` is read by `x = 41` alone and lists one `z`.
            let s_edges = s_edges.into_iter().chain(ends.map(|z| (z, z % 12)));
            let s = rel(&s_edges.chain([(z_domain - 1, 12)]).collect::<Vec<_>>());
            let hub = (0..12).map(|y| (40, y));
            let r = rel(&r_edges.into_iter().chain(hub).chain([(41, 12)]).collect::<Vec<_>>());
            let sorts =
                |x: Value| s.by_y().rows_len(r.ys_of(x)) <= s.x_domain() / BITMAP_FRACTION;
            prop_assert!(sorts(41) && !sorts(40));

            let expected = SortMergeEngine.join_project(&r, &s);
            prop_assert!(ends.iter().all(|&z| expected.contains(&(40, z))));
            for threads in [1, 2, 3, 8] {
                let got = ExpandDedupEngine::parallel(threads).join_project(&r, &s);
                prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "threads={}", threads);
                prop_assert_eq!(&got, &expected, "threads={}", threads);
            }
        }
    }
}
