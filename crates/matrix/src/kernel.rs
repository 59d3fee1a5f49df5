//! Register-tiled GEMM microkernels with runtime dispatch.
//!
//! One dense kernel family computes `C += A · B` over row-major `f32`
//! buffers, cache-blocked over `k` ([`KC`]) and `j` ([`NC`]) panels. Inside
//! a panel the work runs as [`MR`]-row register tiles: the C tile lives in
//! vector registers for the whole k-panel, so C traffic drops from one
//! load+store per `k` step (the old auto-vectorized loop) to one per
//! panel — the classic BLIS/GotoBLAS shape, scaled down to two vector
//! columns per tile.
//!
//! The dispatch ladder, best first:
//!
//! 1. `Avx512` — 2×16-lane `__m512` columns (`simd` feature, x86-64 with
//!    AVX-512F at runtime),
//! 2. `Avx2` — 2×8-lane `__m256` columns with FMA (`simd` feature, x86-64
//!    with AVX2+FMA at runtime),
//! 3. `Portable` — `std::simd::f32x8` (`portable-simd` feature, nightly
//!    toolchains only),
//! 4. `Scalar` — the auto-vectorizable fallback, always available.
//!
//! [`active_kernel`] picks once per process (override with the
//! `MMJOIN_KERNEL` environment variable); every public matmul entry point
//! routes through it, so engines and the parallel tile scheduler's bands
//! all hit the same microkernel. All kernels skip zero entries of
//! `A` per register-tile row — adjacency matrices are sparse-ish 0/1 and
//! the skip is a large practical win the cost model prices via
//! `estimate_effective`.
//!
//! Products of 0/1 adjacency matrices are bit-identical across every
//! kernel: all intermediates are small integers, exact in `f32`, and FMA
//! contraction cannot change an exact result. For general floats the
//! kernels may differ from the naive triple loop by FMA rounding only.

use std::sync::OnceLock;

/// k-panel height: 256 f32 ≈ 1 KiB per B-row slab touched per panel.
pub const KC: usize = 256;
/// j-panel width: 1024 f32 = 4 KiB, a comfortable L1 slab alongside C's
/// register tile. Must stay a multiple of every kernel's tile width.
pub const NC: usize = 1024;
/// Rows per register tile (accumulators held live across the k loop).
pub const MR: usize = 4;

/// One dispatchable GEMM implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Blocked scalar loop (LLVM auto-vectorizes for the *baseline*
    /// target features only — SSE2 on x86-64).
    Scalar,
    /// AVX2 + FMA intrinsics, 4×16 register tiles.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
    /// AVX-512F intrinsics, 4×32 register tiles.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx512,
    /// Nightly portable `std::simd`, 8-lane chunks.
    #[cfg(feature = "portable-simd")]
    Portable,
}

impl Kernel {
    /// Stable lower-case name (used in calibration manifests, reports and
    /// the `MMJOIN_KERNEL` override).
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Kernel::Avx2 => "avx2",
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Kernel::Avx512 => "avx512",
            #[cfg(feature = "portable-simd")]
            Kernel::Portable => "portable",
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every kernel the current build *and* machine can run, best first.
#[allow(clippy::vec_init_then_push)] // push sequence is cfg-dependent
pub fn available_kernels() -> Vec<Kernel> {
    let mut kernels = Vec::new();
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            kernels.push(Kernel::Avx512);
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            kernels.push(Kernel::Avx2);
        }
    }
    #[cfg(feature = "portable-simd")]
    kernels.push(Kernel::Portable);
    kernels.push(Kernel::Scalar);
    kernels
}

/// The kernel every matmul entry point dispatches to, chosen once per
/// process: the best available, unless the `MMJOIN_KERNEL` environment
/// variable names an available one explicitly.
pub fn active_kernel() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let available = available_kernels();
        if let Ok(want) = std::env::var("MMJOIN_KERNEL") {
            if let Some(&k) = available.iter().find(|k| k.name() == want) {
                return k;
            }
            eprintln!(
                "MMJOIN_KERNEL={want} is not available in this build/machine; \
                 using {}",
                available[0]
            );
        }
        available[0]
    })
}

/// The k-panel depth `kind` steps through for a product with `n` output
/// columns — the depth the SIMD kernels derive from their 32 KiB L1
/// budget, `KC` for the scalar/portable kernels. Exported so the tiled
/// parallel scheduler can cut `k` at exactly the panel boundaries the
/// serial kernel would use, which is what keeps the parallel product
/// bit-identical to the serial one.
#[cfg_attr(
    not(all(feature = "simd", target_arch = "x86_64")),
    allow(unused_variables)
)]
pub fn k_panel(kind: Kernel, n: usize) -> usize {
    match kind {
        Kernel::Scalar => KC,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Kernel::Avx2 | Kernel::Avx512 => simd_k_panel(n),
        #[cfg(feature = "portable-simd")]
        Kernel::Portable => KC,
    }
}

/// L1-derived k-panel depth of the SIMD kernels: the packed B slab
/// (`4·kc·min(n, NC)` bytes) must fit a 32 KiB L1 budget; multiple of 16
/// so every full panel divides into whole mask groups for both lane
/// widths. See the rationale inside `simd_kernel!`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn simd_k_panel(n: usize) -> usize {
    let panel_cols = if n < NC { n.max(1) } else { NC };
    (((32 * 1024) / (4 * panel_cols)) & !15).clamp(16, KC)
}

/// `C += A · B` for row-major flat buffers: `a` is `m×k`, `b` is `k×n`,
/// `c` is `m×n`. The single entry the public matmul API and the
/// parallel tile scheduler call; `kind` must come from
/// [`available_kernels`].
pub fn gemm_block(kind: Kernel, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    // SAFETY: the slices are exactly the dense views the strided entry
    // expects, and the borrow rules guarantee they don't alias.
    unsafe {
        gemm_block_strided(
            kind,
            a.as_ptr(),
            k,
            b.as_ptr(),
            n,
            c.as_mut_ptr(),
            n,
            m,
            k,
            n,
            n,
        )
    }
}

/// [`gemm_block`] over strided sub-matrix views: row `i` of A starts at
/// `a + i·lda`, row `kk` of B at `b + kk·ldb`, row `i` of C at
/// `c + i·ldc`. `kc_cols` is the column count used to size the SIMD
/// kernels' L1 k-panel — a tile scheduler passes the *full* product's
/// `n` so every tile reproduces the serial panel schedule (and hence
/// the serial bit patterns) exactly; dense callers pass `n`.
///
/// # Safety
/// All `m`/`k`/`n` rows at the given strides must be readable (writable
/// for `c`), the regions must not overlap, and `kind` must come from
/// [`available_kernels`] (dispatching an unavailable SIMD kernel is UB).
#[allow(clippy::too_many_arguments)]
#[cfg_attr(
    not(all(feature = "simd", target_arch = "x86_64")),
    allow(unused_variables)
)]
pub unsafe fn gemm_block_strided(
    kind: Kernel,
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
    kc_cols: usize,
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    // Runtime contract (debug builds only): a stride narrower than its
    // row width makes consecutive rows alias — UB the type system can't
    // see at this raw-pointer boundary, and exactly what the sanitizer
    // legs in CI are hunting for.
    debug_assert!(
        !a.is_null() && !b.is_null() && !c.is_null(),
        "gemm_block_strided: null matrix pointer"
    );
    debug_assert!(lda >= k, "gemm_block_strided: lda {lda} < k {k}");
    debug_assert!(ldb >= n, "gemm_block_strided: ldb {ldb} < n {n}");
    debug_assert!(ldc >= n, "gemm_block_strided: ldc {ldc} < n {n}");
    debug_assert!(
        kc_cols >= n,
        "gemm_block_strided: kc_cols {kc_cols} < tile width {n}"
    );
    match kind {
        Kernel::Scalar => gemm_scalar(a, lda, b, ldb, c, ldc, m, k, n),
        // SAFETY: the variant only exists when the `simd` feature compiled
        // the intrinsics in, and only enters `available_kernels()` when
        // the CPU reports the matching feature at runtime.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Kernel::Avx2 => gemm_avx2(a, lda, b, ldb, c, ldc, m, k, n, kc_cols),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Kernel::Avx512 => gemm_avx512(a, lda, b, ldb, c, ldc, m, k, n, kc_cols),
        #[cfg(feature = "portable-simd")]
        Kernel::Portable => gemm_portable(a, lda, b, ldb, c, ldc, m, k, n),
    }
}

/// Blocked scalar kernel: `i → k → j` with a contiguous inner `j` loop
/// that auto-vectorizes to whatever the *compile-time* target allows.
/// The k-panel depth is the fixed `KC` (no `kc_cols` dependence), so
/// tile-sliced calls match the dense call bit-for-bit by construction.
///
/// # Safety
/// See [`gemm_block_strided`].
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_scalar(
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    for kb in (0..k).step_by(KC) {
        let k_end = (kb + KC).min(k);
        for jb in (0..n).step_by(NC) {
            let j_end = (jb + NC).min(n);
            for i in 0..m {
                let a_row = std::slice::from_raw_parts(a.add(i * lda), k);
                let c_row = std::slice::from_raw_parts_mut(c.add(i * ldc + jb), j_end - jb);
                for (dk, &aik) in a_row[kb..k_end].iter().enumerate() {
                    if aik == 0.0 {
                        // Adjacency matrices are sparse-ish 0/1; skipping
                        // zero A-entries is a large practical win and
                        // costs one predictable branch per k.
                        continue;
                    }
                    let kk = kb + dk;
                    let b_row = std::slice::from_raw_parts(b.add(kk * ldb + jb), j_end - jb);
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aik * bv;
                    }
                }
            }
        }
    }
}

/// Bitmask of nonzero (by bit pattern — `-0.0` counts as nonzero, which
/// only costs an exact no-op FMA) f32 lanes in the 16 floats at `p`.
/// Lets the sparse AXPY path test a whole group of A entries in three
/// uops instead of a load + test + branch per element.
///
/// # Safety
/// `p..p+16` must be readable and the CPU must support AVX-512F.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn nonzero_mask_avx512(p: *const f32) -> u32 {
    use std::arch::x86_64::*;
    let v = _mm512_castps_si512(_mm512_loadu_ps(p));
    _mm512_test_epi32_mask(v, v) as u32
}

/// Bitmask of nonzero f32 lanes (by bit pattern) in the 8 floats at `p`.
///
/// # Safety
/// `p..p+8` must be readable and the CPU must support AVX2.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn nonzero_mask_avx2(p: *const f32) -> u32 {
    use std::arch::x86_64::*;
    let v = _mm256_castps_si256(_mm256_loadu_ps(p));
    let zeroed = _mm256_cmpeq_epi32(v, _mm256_setzero_si256());
    !(_mm256_movemask_ps(_mm256_castsi256_ps(zeroed)) as u32) & 0xff
}

/// Expands to one explicit-SIMD blocked kernel: `$fname` with
/// `#[target_feature(enable = $features)]`, using `$load`/`$store`/
/// `$splat`/`$fma` over `$vec` vectors of `$lanes` f32 lanes, and
/// `$maskfn` to test `$lanes` A entries for zero at once. The tile is
/// [`MR`] rows × 2 vectors; remainder rows shrink the tile, remainder
/// columns fall through to a scalar tail inside the same feature region.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
macro_rules! simd_kernel {
    ($fname:ident, $features:literal, $vec:ty, $lanes:expr,
     $load:ident, $store:ident, $splat:ident, $fma:ident, $zero:ident, $maskfn:ident) => {
        /// # Safety
        /// The CPU must support the target features this kernel enables.
        ///
        /// Two inner formulations, chosen per `MR`-row A-block from its
        /// measured nonzero density over the k-panel:
        ///
        /// * **dense** (≥ 50% nonzero): register-tiled — the C tile lives
        ///   in vector registers for the whole k-panel, so each B row load
        ///   is amortized over `MR` rows and C traffic drops to one
        ///   load+store per panel;
        /// * **sparse**: zero-skipping vector AXPY — one full-width
        ///   `C[i, jb..] += a·B[kk, jb..]` sweep per nonzero, amortizing
        ///   the per-`k` branch over the whole `NC` panel the way the
        ///   scalar kernel does, but with $lanes-lane FMA instead of the
        ///   baseline-target auto-vectorization.
        ///
        /// Adjacency matrices sit far below 50%, so joins take the AXPY
        /// path; dense float workloads (and the heavy cores of genuinely
        /// dense instances) take the tile path. Both run inside the same
        /// `#[target_feature]` region.
        #[target_feature(enable = $features)]
        #[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
        unsafe fn $fname(
            ap: *const f32,
            lda: usize,
            bp: *const f32,
            ldb: usize,
            cp: *mut f32,
            ldc: usize,
            m: usize,
            k: usize,
            n: usize,
            kc_cols: usize,
        ) {
            use std::arch::x86_64::*;
            const NR: usize = 2 * $lanes; // dense-tile width in f32 columns
                                          // Size the k-panel so its B slab (`kc × min(n, NC)` f32)
                                          // fits L1. The AXPY path touches each B row once per nonzero
                                          // of A, so an L2-resident slab (the scalar kernel's KC = 256
                                          // at n ≥ 256) caps both kernels at the same L2-bandwidth
                                          // floor and erases the vector win; an L1-resident slab is
                                          // read from L2 once per panel instead.
                                          // Multiple-of-16 so every full panel divides into whole mask
                                          // groups for both lane widths. Sized from `kc_cols`, not `n`:
                                          // a tile call covering one j-panel of a wider product passes
                                          // the full-product width so its panel depth — and therefore
                                          // its float contraction order — matches the dense call. This
                                          // formula is mirrored by `simd_k_panel`, which schedulers use
                                          // to slice `k` on exactly these boundaries.
            let kc = {
                let panel_cols = if kc_cols < NC { kc_cols.max(1) } else { NC };
                (((32 * 1024) / (4 * panel_cols)) & !15).clamp(16, KC)
            };
            for kb in (0..k).step_by(kc) {
                let k_end = (kb + kc).min(k);
                let mut it = 0;
                while it < m {
                    let rows = MR.min(m - it);
                    // Density probe for the path choice: a pure count is
                    // a vectorizable reduction (~0.2 cycles/element),
                    // unlike a nonzero-index list whose compress-store
                    // serializes at ~3.5 cycles/element and would rival
                    // the AXPY work itself. Zero tests compare bit
                    // patterns: cheaper than a float compare, and
                    // treating `-0.0` as nonzero only adds an exact
                    // no-op FMA.
                    let mut nnz = 0usize;
                    for r in 0..rows {
                        let arow = ap.add((it + r) * lda);
                        for kk in kb..k_end {
                            nnz += ((*arow.add(kk)).to_bits() != 0) as usize;
                        }
                    }
                    let dense = nnz * 2 >= rows * (k_end - kb);
                    for jb in (0..n).step_by(NC) {
                        let j_end = (jb + NC).min(n);
                        if !dense {
                            // Sparse path: zero-skipping AXPY — one
                            // full-panel `C[i, jb..] += a · B[kk, jb..]`
                            // sweep per nonzero, 4 vectors per step. The
                            // nonzeros are found `$lanes` at a time via
                            // `$maskfn` + bit iteration, so the skip cost
                            // is ~3 uops per group instead of ~3 per
                            // element; a ragged final group (k not a
                            // multiple of `$lanes`) falls back to
                            // per-element tests.
                            for r in 0..rows {
                                let i = it + r;
                                let crow = cp.add(i * ldc);
                                let arow = ap.add(i * lda);
                                let mut kk = kb;
                                while kk + $lanes <= k_end {
                                    let mut mbits = $maskfn(arow.add(kk));
                                    while mbits != 0 {
                                        let kki = kk + mbits.trailing_zeros() as usize;
                                        mbits &= mbits - 1;
                                        let av = *arow.add(kki);
                                        let va = $splat(av);
                                        let brow = bp.add(kki * ldb);
                                        let mut j = jb;
                                        while j + 4 * $lanes <= j_end {
                                            let c0 = crow.add(j);
                                            let c1 = crow.add(j + $lanes);
                                            let c2 = crow.add(j + 2 * $lanes);
                                            let c3 = crow.add(j + 3 * $lanes);
                                            $store(c0, $fma(va, $load(brow.add(j)), $load(c0)));
                                            $store(
                                                c1,
                                                $fma(va, $load(brow.add(j + $lanes)), $load(c1)),
                                            );
                                            $store(
                                                c2,
                                                $fma(
                                                    va,
                                                    $load(brow.add(j + 2 * $lanes)),
                                                    $load(c2),
                                                ),
                                            );
                                            $store(
                                                c3,
                                                $fma(
                                                    va,
                                                    $load(brow.add(j + 3 * $lanes)),
                                                    $load(c3),
                                                ),
                                            );
                                            j += 4 * $lanes;
                                        }
                                        while j + $lanes <= j_end {
                                            let cj = crow.add(j);
                                            $store(cj, $fma(va, $load(brow.add(j)), $load(cj)));
                                            j += $lanes;
                                        }
                                        while j < j_end {
                                            *crow.add(j) += av * *brow.add(j);
                                            j += 1;
                                        }
                                    }
                                    kk += $lanes;
                                }
                                while kk < k_end {
                                    let av = *arow.add(kk);
                                    if av.to_bits() != 0 {
                                        let brow = bp.add(kk * ldb);
                                        for j in jb..j_end {
                                            *crow.add(j) += av * *brow.add(j);
                                        }
                                    }
                                    kk += 1;
                                }
                            }
                            continue;
                        }
                        let mut j = jb;
                        while j + NR <= j_end {
                            // Dense path: the C tile lives in registers
                            // for the whole k-panel — one load + one
                            // store per panel, B rows amortized over all
                            // `rows` accumulator rows.
                            let mut acc = [[$zero(); 2]; MR];
                            for r in 0..rows {
                                let crow = cp.add((it + r) * ldc + j);
                                acc[r][0] = $load(crow);
                                acc[r][1] = $load(crow.add($lanes));
                            }
                            for kk in kb..k_end {
                                let brow = bp.add(kk * ldb + j);
                                let b0 = $load(brow);
                                let b1 = $load(brow.add($lanes));
                                for r in 0..rows {
                                    let av = *ap.add((it + r) * lda + kk);
                                    if av.to_bits() != 0 {
                                        let va = $splat(av);
                                        acc[r][0] = $fma(va, b0, acc[r][0]);
                                        acc[r][1] = $fma(va, b1, acc[r][1]);
                                    }
                                }
                            }
                            for r in 0..rows {
                                let crow = cp.add((it + r) * ldc + j);
                                $store(crow, acc[r][0]);
                                $store(crow.add($lanes), acc[r][1]);
                            }
                            j += NR;
                        }
                        // Column tail narrower than a tile: scalar loop,
                        // still inside the feature region.
                        if j < j_end {
                            for r in 0..rows {
                                let i = it + r;
                                for kk in kb..k_end {
                                    let av = *ap.add(i * lda + kk);
                                    if av.to_bits() == 0 {
                                        continue;
                                    }
                                    for jj in j..j_end {
                                        *cp.add(i * ldc + jj) += av * *bp.add(kk * ldb + jj);
                                    }
                                }
                            }
                        }
                    }
                    it += rows;
                }
            }
        }
    };
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
simd_kernel!(
    gemm_avx2,
    "avx2,fma",
    __m256,
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_fmadd_ps,
    _mm256_setzero_ps,
    nonzero_mask_avx2
);

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
simd_kernel!(
    gemm_avx512,
    "avx512f",
    __m512,
    16,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_set1_ps,
    _mm512_fmadd_ps,
    _mm512_setzero_ps,
    nonzero_mask_avx512
);

/// Nightly portable-SIMD kernel: the scalar blocking with an explicit
/// `f32x8` inner loop (no register tiling — this path exists to prove the
/// `std::simd` formulation, not to beat the intrinsics).
///
/// # Safety
/// See [`gemm_block_strided`].
#[cfg(feature = "portable-simd")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_portable(
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    use std::simd::f32x8;
    for kb in (0..k).step_by(KC) {
        let k_end = (kb + KC).min(k);
        for jb in (0..n).step_by(NC) {
            let j_end = (jb + NC).min(n);
            for i in 0..m {
                let a_row = std::slice::from_raw_parts(a.add(i * lda), k);
                for kk in kb..k_end {
                    let aik = a_row[kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let va = f32x8::splat(aik);
                    let c_row = std::slice::from_raw_parts_mut(c.add(i * ldc + jb), j_end - jb);
                    let b_row = std::slice::from_raw_parts(b.add(kk * ldb + jb), j_end - jb);
                    let mut cc = c_row.chunks_exact_mut(8);
                    let mut bc = b_row.chunks_exact(8);
                    for (cv, bv) in (&mut cc).zip(&mut bc) {
                        let v = va * f32x8::from_slice(bv) + f32x8::from_slice(cv);
                        v.copy_to_slice(cv);
                    }
                    for (cv, &bv) in cc.into_remainder().iter_mut().zip(bc.remainder()) {
                        *cv += aik * bv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available_and_last() {
        let ks = available_kernels();
        assert_eq!(*ks.last().unwrap(), Kernel::Scalar);
        assert!(ks.contains(&active_kernel()));
    }

    #[test]
    fn panel_width_is_tile_aligned() {
        // Every SIMD tile width divides NC, so full tiles never straddle
        // a cache panel boundary.
        assert_eq!(NC % 16, 0);
        assert_eq!(NC % 32, 0);
    }

    #[test]
    fn names_are_stable() {
        for k in available_kernels() {
            assert_eq!(k.to_string(), k.name());
            assert!(!k.name().is_empty());
        }
    }
}
