//! Ablation benches: Figure 8 (SizeAware++ optimization levels) plus the
//! design-choice ablations DESIGN.md calls out (heavy-core backend,
//! threshold sensitivity, dedup strategy).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmjoin_bench::paper::MMJoin;
use mmjoin_core::{two_path_join_project, JoinConfig};
use mmjoin_datagen::DatasetKind;
use mmjoin_ssj::{unordered_ssj, SizeAwarePPOpts, SsjAlgorithm};

const SCALE: f64 = 0.06;
const SEED: u64 = 2020;

fn fig8_sizeaware_ablation(c: &mut Criterion) {
    let r = mmjoin_datagen::generate(DatasetKind::Words, SCALE, SEED);
    let mut g = c.benchmark_group("fig8_sizeaware_ablation_words");
    let variants: Vec<(&str, SizeAwarePPOpts)> = vec![
        ("noop", SizeAwarePPOpts::none()),
        (
            "light",
            SizeAwarePPOpts {
                light: true,
                heavy: false,
                prefix: false,
            },
        ),
        (
            "heavy",
            SizeAwarePPOpts {
                light: true,
                heavy: true,
                prefix: false,
            },
        ),
        ("prefix", SizeAwarePPOpts::all()),
    ];
    for (name, opts) in variants {
        let algo = SsjAlgorithm::SizeAwarePP(opts);
        g.bench_function(name, |b| {
            b.iter(|| unordered_ssj(&r, 2, &algo, &JoinConfig::default()))
        });
    }
    g.finish();
}

fn heavy_backend_ablation(c: &mut Criterion) {
    let r = mmjoin_datagen::generate(DatasetKind::Protein, SCALE, SEED);
    let mut g = c.benchmark_group("heavy_backend_protein");
    g.bench_function("f32_gemm", |b| {
        // The paper's prototype: SGEMM for an existence query.
        let prototype = MMJoin::default();
        b.iter(|| prototype.two_path(&r, &r));
    });
    g.bench_function("bitmatrix", |b| {
        // The default: an existence query multiplies bits.
        let cfg = JoinConfig::default();
        b.iter(|| two_path_join_project(&r, &r, &cfg));
    });
    g.bench_function("combinatorial_cap", |b| {
        // Memory cap 0 forces the expansion fallback for the heavy core.
        let cfg = JoinConfig {
            matrix_cell_cap: 0,
            ..JoinConfig::default()
        };
        b.iter(|| two_path_join_project(&r, &r, &cfg));
    });
    g.finish();
}

fn threshold_sensitivity(c: &mut Criterion) {
    let r = mmjoin_datagen::generate(DatasetKind::Jokes, SCALE, SEED);
    let mut g = c.benchmark_group("threshold_sensitivity_jokes");
    for delta in [1u32, 8, 64, 100_000] {
        g.bench_with_input(BenchmarkId::from_parameter(delta), &delta, |b, &d| {
            let prototype = MMJoin::at((d, d));
            b.iter(|| prototype.two_path(&r, &r));
        });
    }
    // The optimizer's pick, for comparison against the grid.
    g.bench_function("optimizer", |b| {
        let cfg = JoinConfig::default();
        b.iter(|| two_path_join_project(&r, &r, &cfg));
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = fig8_sizeaware_ablation, heavy_backend_ablation, threshold_sensitivity
);
criterion_main!(benches);
