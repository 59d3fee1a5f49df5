//! Shared experiment harness: timing helpers, dataset preparation and the
//! per-figure drivers used by both the `experiments` binary and the
//! Criterion benches.
//!
//! Every function here corresponds to a table or figure of §7 (see
//! DESIGN.md's experiment index); the binary simply dispatches to them and
//! prints their reports.

pub mod chains_bench;
pub mod crossover_bench;
pub mod figures;
pub mod gate;
pub mod paper;
pub mod report;
pub mod saturation_bench;
pub mod service_bench;

use mmjoin_datagen::DatasetKind;
use mmjoin_storage::Relation;
use std::time::Instant;

/// Default dataset scale for the full experiment sweep: small enough that
/// the whole suite (including the deliberately slow DBMS-style baselines)
/// finishes on a laptop, large enough that the dense datasets keep their
/// duplication-heavy behaviour.
pub const DEFAULT_SCALE: f64 = 0.25;

/// Fixed workspace-wide experiment seed.
pub const SEED: u64 = 2020;

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Times a closure over `warmup` discarded runs plus `trials` measured
/// runs, returning the last result and the **median** trial time. The
/// perf gate uses this (one warmup, three trials) so a single scheduler
/// hiccup cannot fake a regression.
pub fn timed_median<T>(warmup: usize, trials: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    for _ in 0..warmup {
        let _ = f();
    }
    let trials = trials.max(1);
    let mut times = Vec::with_capacity(trials);
    let (mut out, secs) = timed(&mut f);
    times.push(secs);
    for _ in 1..trials {
        let (next, secs) = timed(&mut f);
        out = next;
        times.push(secs);
    }
    times.sort_by(f64::total_cmp);
    (out, times[times.len() / 2])
}

/// Generates (and semi-join reduces) the self-join instance for a dataset.
pub fn dataset(kind: DatasetKind, scale: f64) -> Relation {
    mmjoin_datagen::generate(kind, scale, SEED)
}

/// Star-query instances are sampled further down (§7.2 samples "so that the
/// result can fit in main memory"): dense datasets get an extra shrink
/// because the full star join grows cubically in the shared-element degree,
/// and the per-relation set count is capped so near-all-pairs outputs stay
/// bounded (`sets^k` tuples otherwise).
pub fn star_dataset(kind: DatasetKind, scale: f64, k: usize) -> Vec<Relation> {
    let star_scale = if kind.is_dense() {
        scale * 0.12
    } else {
        scale * 0.5
    };
    let rels = mmjoin_datagen::generate_star(kind, star_scale, SEED, k);
    if !kind.is_dense() {
        return rels;
    }
    const MAX_SETS: u32 = 150;
    rels.into_iter()
        .map(|r| Relation::from_edges(r.edges().iter().copied().filter(|&(x, _)| x < MAX_SETS)))
        .collect()
}

/// Core counts to sweep in the multicore figures. On hosts with fewer than
/// 4 CPUs the sweep still covers 1–4 workers so the parallel code paths are
/// exercised (true scaling obviously needs the physical cores; see
/// EXPERIMENTS.md notes).
pub fn core_grid() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 8);
    (1..=max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn dataset_generation_cached_profile() {
        let r = dataset(DatasetKind::RoadNet, 0.05);
        assert!(!r.is_empty());
    }

    #[test]
    fn core_grid_nonempty_ascending() {
        let g = core_grid();
        assert!(!g.is_empty());
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(g[0], 1);
    }

    #[test]
    fn star_dataset_shrinks_dense() {
        let dense = star_dataset(DatasetKind::Protein, 0.25, 3);
        let sparse = star_dataset(DatasetKind::RoadNet, 0.25, 3);
        assert_eq!(dense.len(), 3);
        assert_eq!(sparse.len(), 3);
        assert!(dense[0].len() < sparse[0].len() * 50);
    }
}
