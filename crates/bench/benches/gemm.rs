//! Criterion bench for Figure 3: matrix-multiplication kernel scaling
//! (single-core vs dimension, and vs core count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmjoin_matrix::{
    available_kernels, matmul_parallel, matmul_with_kernel, BitMatrix, DenseMatrix,
};

fn adjacency(n: usize, phase: usize) -> DenseMatrix {
    DenseMatrix::from_fn(n, n, |i, j| {
        ((i + phase) * 31 + j * 17).is_multiple_of(4) as u8 as f32
    })
}

fn fig3a_single_core(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3a_gemm_single_core");
    for n in [128usize, 256, 512, 1024] {
        let a = adjacency(n, 0);
        let b = adjacency(n, 1);
        g.throughput(Throughput::Elements((n * n * n) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| matmul_parallel(&a, &b, 1));
        });
    }
    g.finish();
}

fn fig3b_multicore(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3b_gemm_multicore");
    let n = 768usize;
    let a = adjacency(n, 0);
    let b = adjacency(n, 1);
    let max = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4)
        .min(8);
    for cores in 1..=max {
        g.bench_with_input(
            BenchmarkId::from_parameter(cores),
            &cores,
            |bench, &cores| {
                bench.iter(|| matmul_parallel(&a, &b, cores));
            },
        );
    }
    g.finish();
}

/// Every dispatchable kernel (scalar always; AVX2/AVX-512 under
/// `--features simd` on capable hardware) on the same product — the
/// per-kernel ladder behind the crossover gate's ≥ 1.5× requirement.
fn kernel_ladder(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_kernel_ladder");
    for n in [256usize, 512] {
        let a = adjacency(n, 0);
        let b = adjacency(n, 1);
        g.throughput(Throughput::Elements((n * n * n) as u64));
        for kernel in available_kernels() {
            g.bench_with_input(BenchmarkId::new(kernel.name(), n), &n, |bench, _| {
                bench.iter(|| matmul_with_kernel(kernel, &a, &b));
            });
        }
    }
    g.finish();
}

fn backend_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_backend_ablation");
    let n = 512usize;
    let a = adjacency(n, 0);
    let b = adjacency(n, 1);
    g.bench_function("f32_blocked", |bench| {
        bench.iter(|| matmul_parallel(&a, &b, 1))
    });
    let mut ab = BitMatrix::zeros(n, n);
    let mut bb = BitMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if a.get(i, j) != 0.0 {
                ab.set(i, j);
            }
            if b.get(i, j) != 0.0 {
                bb.set(i, j);
            }
        }
    }
    g.bench_function("bitmatrix_boolean", |bench| {
        bench.iter(|| ab.bool_product(&bb))
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = fig3a_single_core, fig3b_multicore, kernel_ladder, backend_ablation
);
criterion_main!(benches);
