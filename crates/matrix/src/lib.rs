#![cfg_attr(feature = "portable-simd", feature(portable_simd))]
//! Dense matrix engine for the `mmjoin` workspace.
//!
//! The paper's prototype uses Eigen backed by Intel MKL SGEMM (§6). This
//! crate is the from-scratch Rust substitute:
//!
//! * [`DenseMatrix`] — row-major `f32` matrices. Floats, not integers,
//!   mirror the paper's deliberate choice of `SGEMM` over integer paths for
//!   throughput; counts stay exact below 2²⁴, far above any set size here.
//! * [`kernel`] — register-tiled, cache-blocked GEMM microkernels with a
//!   runtime dispatch ladder: explicit AVX-512/AVX2 intrinsics under the
//!   `simd` feature, nightly `std::simd` under `portable-simd`, blocked
//!   scalar otherwise. `MMJOIN_KERNEL` overrides the pick.
//! * [`gemm`] — the public matmul API over the dispatched kernel, plus a
//!   tiled parallel scheduler on the shared [`mmjoin_executor::Executor`]
//!   pool: B packed once into a shared slab, MR-aligned bands × NC
//!   panels claimed via chunk stealing, bit-identical to the serial path
//!   (the coordination-free parallelism the paper highlights in §6,
//!   under the global thread budget).
//! * [`arena`] — reusable thread-local scratch buffers backing the
//!   scheduler's packing slabs.
//! * [`bitmat`] — bit-packed boolean matrices and their product over the
//!   Boolean semiring, in two orientations picked from the operand counts,
//!   each filling the rows that meet the right operand's universal mask:
//!   the heavy core of every existence-only join-project (an extension over the paper's prototype,
//!   which always ran SGEMM; counting queries still do).
//! * [`cost`] — the calibrated matmul cost estimator `M̂(u, v, w, co)` of
//!   Table 1 / Algorithm 3, built by measuring this crate's own kernel at a
//!   few sizes and interpolating, exactly as §5 describes.

pub mod arena;
pub mod bitmat;
pub mod cost;
pub mod dense;
pub mod gemm;
pub mod kernel;

pub use bitmat::{BitMatrix, BitProductPlan, BitRows, Orientation};
pub use cost::{CostModel, SystemConstants, REFERENCE_BIT_WORD_SECS, REFERENCE_GFLOPS};
pub use dense::DenseMatrix;
pub use gemm::{
    matmul, matmul_into, matmul_naive, matmul_parallel, matmul_parallel_on,
    matmul_parallel_with_kernel, matmul_with_kernel,
};
pub use kernel::{active_kernel, available_kernels, Kernel};
