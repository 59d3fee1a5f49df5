//! Criterion bench for Figure 4a (and 4d/4e): 2-path join-project across
//! engines and datasets, single- and multi-core.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmjoin_api::{Engine, PairSink, Query};
use mmjoin_baseline::fulljoin::{HashJoinEngine, SortMergeEngine};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_baseline::setintersect::SetIntersectEngine;
use mmjoin_bench::paper::MMJoin;
use mmjoin_core::JoinConfig;
use mmjoin_datagen::DatasetKind;

const SCALE: f64 = 0.08;
const SEED: u64 = 2020;

/// MMJoin as the paper's prototype ran it: SGEMM for the heavy core of
/// these existence queries too (the served engine multiplies bits).
fn paper_mmjoin(threads: usize) -> MMJoin {
    MMJoin::new(JoinConfig {
        threads,
        ..JoinConfig::default()
    })
}

fn fig4a_engines(c: &mut Criterion) {
    for kind in [
        DatasetKind::Dblp,
        DatasetKind::Jokes,
        DatasetKind::Protein,
        DatasetKind::Image,
    ] {
        let r = mmjoin_datagen::generate(kind, SCALE, SEED);
        let mut g = c.benchmark_group(format!("fig4a_{}", kind.name()));
        let engines: Vec<Box<dyn Engine>> = vec![
            Box::new(paper_mmjoin(1)),
            Box::new(ExpandDedupEngine::serial()),
            Box::new(HashJoinEngine),
            Box::new(SortMergeEngine),
            Box::new(SetIntersectEngine),
        ];
        for e in engines {
            g.bench_with_input(BenchmarkId::new(e.name(), kind.name()), &r, |b, r| {
                let q = Query::two_path(r, r).build().unwrap();
                b.iter(|| {
                    let mut sink = PairSink::new();
                    e.execute(&q, &mut sink).unwrap();
                    sink.pairs.len()
                });
            });
        }
        g.finish();
    }
}

fn fig4de_multicore(c: &mut Criterion) {
    let r = mmjoin_datagen::generate(DatasetKind::Jokes, SCALE, SEED);
    let mut g = c.benchmark_group("fig4de_jokes_multicore");
    // Clamp ≥ 4 so the sweep stays non-degenerate (unique IDs) on 1-CPU hosts.
    let max = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4)
        .clamp(4, 8);
    for cores in [1usize, 2, max] {
        let q = Query::two_path(&r, &r).build().unwrap();
        g.bench_with_input(BenchmarkId::new("MMJoin", cores), &cores, |b, &cores| {
            let e = paper_mmjoin(cores);
            b.iter(|| {
                let mut sink = PairSink::new();
                e.execute(&q, &mut sink).unwrap();
                sink.pairs.len()
            });
        });
        g.bench_with_input(BenchmarkId::new("NonMM", cores), &cores, |b, &cores| {
            let e = ExpandDedupEngine::parallel(cores);
            b.iter(|| {
                let mut sink = PairSink::new();
                e.execute(&q, &mut sink).unwrap();
                sink.pairs.len()
            });
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = fig4a_engines, fig4de_multicore
);
criterion_main!(benches);
