//! Tiled ("AMX-class") GEMM and lightweight ("AVX-512-class") GEMV.
//!
//! Both kernels consume the packed tile-major weight layout from
//! `kt-tensor` and implement the execution process of Figure 6:
//!
//! 1. The weight matrix is vertically partitioned into **panel tasks**
//!    that are dynamically scheduled across threads: one
//!    [`kt_tensor::NR`]-wide panel each in [`gemm_tiled`], one group of
//!    [`PANEL_GROUP`] panels each in the vector kernel and the fused MoE
//!    operator.
//! 2. Each task walks the reduction dimension in **L2-sized blocks**
//!    ([`KC`] K-steps), staging (dequantizing) the packed weights for
//!    the block exactly once. F32 panels are already in staged form and
//!    are read in place.
//! 3. Within a block, a register-blocked **microkernel** processes
//!    [`simd::TILE_ROWS`] activation rows at a time against the 16-wide
//!    panel, accumulating into local tiles before spilling to the
//!    output.
//!
//! The vector kernel reuses the identical packed bytes but decodes them
//! inline per K-step with no staging or M-padding — the paper's
//! "lightweight AVX-512 kernel fully compatible with the AMX memory
//! layout", which wins whenever tokens-per-expert is small (Figure 7).
//! Its register tile is up to [`simd::TILE_ROWS`] rows by
//! [`simd::tile_panels`] panels: every (row, panel) output is one
//! zero-initialized multiply-accumulate chain over ascending K (one FMA
//! per K-step at the SIMD levels), the same chain a single
//! row computes alone, so a row's bits never depend on the other rows of
//! the batch or on the tile shape — only more chains run at once.

use std::ops::Range;

use kt_tensor::{Matrix, PackedWeights, WeightDtype, NR};

use crate::error::KernelError;
use crate::schedule::ThreadPool;
use crate::simd;

/// K-steps per cache block (staging granularity); `KC * NR * 4` bytes of
/// staged weights (16 KiB) plus `TILE_ROWS * KC` activations fit
/// comfortably in a per-core L2.
pub const KC: usize = 256;

/// Output panels per task of the vector kernel and of the fused MoE
/// phases: the widest register tile of any SIMD level, so the task
/// split is the same at every level.
pub const PANEL_GROUP: usize = simd::MAX_TILE_PANELS;

/// Shared mutable output pointer for disjoint-column panel writes.
///
/// Panels write non-overlapping column ranges of the output matrix, so
/// concurrent use is race-free by construction.
#[derive(Clone, Copy)]
pub(crate) struct OutPtr(pub(crate) *mut f32);
// SAFETY: Each panel task touches a disjoint set of output columns (its
// own `p * NR ..` lanes), so no two threads write the same element.
unsafe impl Send for OutPtr {}
unsafe impl Sync for OutPtr {}

/// K-steps `k0..k1` of panel `p` in staged form (K-major f32,
/// `[(kk - k0) * NR + j]`): the f32 panel itself, read in place, or the
/// quantized codes decoded into `buf`.
///
/// Quantized dtypes route through the SIMD staging helpers in
/// [`crate::simd`]; each staged value is the same `widen(code) * scale`
/// the scalar decode produces, so staged buffers — and hence tiled GEMM
/// outputs — are bitwise independent of the SIMD level.
fn panel_block<'a>(w: &'a PackedWeights, p: usize, k0: usize, k1: usize, buf: &'a mut [f32]) -> &'a [f32] {
    match w.dtype() {
        WeightDtype::F32 => return &w.panel_f32(p)[k0 * NR..k1 * NR],
        WeightDtype::Bf16 => simd::stage_bf16(w.panel_bf16(p), k0, k1, buf),
        WeightDtype::Int8 { group } => {
            simd::stage_int8(w.panel_bytes(p), w.panel_scales(p), group, k0, k1, buf);
        }
        WeightDtype::Int4 { group } => {
            simd::stage_int4(w.panel_bytes(p), w.panel_scales(p), group, k0, k1, buf);
        }
    }
    &buf[..(k1 - k0) * NR]
}

/// Number of [`PANEL_GROUP`]-panel tasks covering `w`'s output.
pub(crate) fn n_panel_groups(w: &PackedWeights) -> usize {
    w.n_panels().div_ceil(PANEL_GROUP)
}

/// The panels of group `g`.
fn group_panels(w: &PackedWeights, g: usize) -> Range<usize> {
    g * PANEL_GROUP..((g + 1) * PANEL_GROUP).min(w.n_panels())
}

/// Executes panel group `g` with the given kernel class, writing output
/// columns `g*PANEL_GROUP*NR ..` (up to `w.n()`) of an
/// `a.rows() x out_cols` output.
///
/// This is the task granule of the fused MoE operator: one (expert
/// matrix, panel group) pair, dispatched dynamically across worker
/// threads.
pub(crate) fn run_panel_group(
    a: &Matrix,
    w: &PackedWeights,
    out: OutPtr,
    out_cols: usize,
    g: usize,
    class: crate::dispatch::KernelClass,
) {
    match class {
        crate::dispatch::KernelClass::Tiled => {
            for p in group_panels(w, g) {
                panel_task(a, w, out, out_cols, p);
            }
        }
        crate::dispatch::KernelClass::Vector => {
            vector_task(a.as_slice(), a.rows(), w, out, out_cols, group_panels(w, g));
        }
    }
}

/// Executes one panel task of the tiled GEMM: all M rows, all K blocks,
/// writing output columns `p*NR .. p*NR+valid`.
#[allow(clippy::needless_range_loop)] // raw-pointer writes, see SAFETY
fn panel_task(a: &Matrix, w: &PackedWeights, out: OutPtr, out_cols: usize, p: usize) {
    let m = a.rows();
    let k = a.cols();
    let level = simd::effective_simd_level();
    let valid = NR.min(w.n() - p * NR);
    // Only quantized panels need a staging buffer (16 KiB to zero).
    let mut buf;
    let staged: &mut [f32] = if w.dtype() == WeightDtype::F32 {
        &mut []
    } else {
        buf = [0.0f32; KC * NR];
        &mut buf
    };

    // Accumulators spill into the output; zero our columns first.
    for i in 0..m {
        // SAFETY: `out` points to an `m x out_cols` matrix that outlives
        // this call; this task exclusively owns columns
        // `p*NR .. p*NR+valid` (see `OutPtr`).
        unsafe {
            let row = out.0.add(i * out_cols + p * NR);
            std::ptr::write_bytes(row, 0, valid);
        }
    }

    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + KC).min(k);
        let kb = k1 - k0;
        let block = panel_block(w, p, k0, k1, staged);

        let mut i = 0;
        while i < m {
            let mb = simd::TILE_ROWS.min(m - i);
            let rows: [&[f32]; simd::TILE_ROWS] = std::array::from_fn(|r| &a.row(i + r.min(mb - 1))[k0..k1]);
            let mut acc = [[0.0f32; NR]; simd::TILE_ROWS];
            simd::f32_tile(level, &rows[..mb], &[block], kb, &mut acc);
            for (r, tile) in acc.iter().enumerate().take(mb) {
                // SAFETY: As above — exclusive column ownership; row
                // index `i + r < m` by the loop bounds.
                unsafe {
                    let row = out.0.add((i + r) * out_cols + p * NR);
                    for j in 0..valid {
                        *row.add(j) += tile[j];
                    }
                }
            }
            i += mb;
        }
        k0 = k1;
    }
}

/// Executes one vector task: the `m` rows of `x` (row-major, `w.k()`
/// values each) against `panels` of `w`, in register tiles of up to
/// [`simd::TILE_ROWS`] rows by [`simd::tile_panels`] panels, writing
/// output columns `panels.start*NR ..` (up to `w.n()`).
fn vector_task(x: &[f32], m: usize, w: &PackedWeights, out: OutPtr, out_cols: usize, panels: Range<usize>) {
    let level = simd::effective_simd_level();
    let k = w.k();
    let row = |i: usize| &x[i * k..(i + 1) * k];
    let mut acc = [[0.0f32; NR]; simd::TILE_ROWS * simd::MAX_TILE_PANELS];
    let mut p0 = panels.start;
    while p0 < panels.end {
        let np = simd::tile_panels(level).min(panels.end - p0);
        let mut i0 = 0;
        while i0 < m {
            let mr = simd::TILE_ROWS.min(m - i0);
            let rows: [&[f32]; simd::TILE_ROWS] = std::array::from_fn(|r| row(i0 + r.min(mr - 1)));
            simd::vector_tile(level, &rows[..mr], w, p0, np, &mut acc);
            for r in 0..mr {
                for p in 0..np {
                    let col = (p0 + p) * NR;
                    let valid = NR.min(w.n() - col);
                    // SAFETY: `out` points to an `m x out_cols` matrix
                    // with `out_cols >= w.n()` that outlives this call;
                    // this task exclusively owns the columns of
                    // `panels` (see `OutPtr`), and row `i0 + r < m`.
                    unsafe {
                        let dst = out.0.add((i0 + r) * out_cols + col);
                        std::ptr::copy_nonoverlapping(acc[r * np + p].as_ptr(), dst, valid);
                    }
                }
            }
            i0 += mr;
        }
        p0 += np;
    }
}

/// Runs `task` over every panel group of `w`, on `pool` when given.
fn for_each_group(w: &PackedWeights, pool: Option<&ThreadPool>, task: impl Fn(usize) + Sync) {
    match pool {
        Some(pool) => pool.run_dynamic(n_panel_groups(w), task),
        None => (0..n_panel_groups(w)).for_each(task),
    }
}

/// Tiled GEMM: `out = a * w^T` (`a`: `m x k`, `w`: packed `n x k`,
/// `out`: `m x n`), parallelized over panel tasks.
///
/// # Errors
///
/// Returns [`KernelError::Shape`] when `a.cols() != w.k()` or `out` has
/// the wrong shape.
pub fn gemm_tiled(
    a: &Matrix,
    w: &PackedWeights,
    out: &mut Matrix,
    pool: Option<&ThreadPool>,
) -> Result<(), KernelError> {
    check_shapes(a, w, out)?;
    let out_cols = out.cols();
    let outp = OutPtr(out.as_mut_slice().as_mut_ptr());
    let n_panels = w.n_panels();
    match pool {
        Some(pool) => pool.run_dynamic(n_panels, |p| panel_task(a, w, outp, out_cols, p)),
        None => {
            for p in 0..n_panels {
                panel_task(a, w, outp, out_cols, p);
            }
        }
    }
    Ok(())
}

/// Vector kernel: `y = w * x` for a single activation row, decoding the
/// packed weights inline with no staging or M-padding (the one-row case
/// of [`gemm_rowwise`]).
///
/// # Errors
///
/// Returns [`KernelError::Shape`] when `x.len() != w.k()` or
/// `y.len() != w.n()`.
pub fn gemv_vector(
    x: &[f32],
    w: &PackedWeights,
    y: &mut [f32],
    pool: Option<&ThreadPool>,
) -> Result<(), KernelError> {
    if x.len() != w.k() {
        return Err(KernelError::shape(format!(
            "gemv: x.len()={} but w.k()={}",
            x.len(),
            w.k()
        )));
    }
    if y.len() != w.n() {
        return Err(KernelError::shape(format!(
            "gemv: y.len()={} but w.n()={}",
            y.len(),
            w.n()
        )));
    }
    let yp = OutPtr(y.as_mut_ptr());
    for_each_group(w, pool, |g| vector_task(x, 1, w, yp, w.n(), group_panels(w, g)));
    Ok(())
}

/// Hybrid dispatch: uses the vector kernel when `a.rows()` is at or
/// below the arithmetic-intensity crossover, the tiled kernel otherwise
/// (§3.2, Figure 7).
///
/// # Examples
///
/// ```
/// use kt_kernels::gemm::gemm_auto;
/// use kt_tensor::{Matrix, PackedWeights, WeightDtype};
///
/// let a = Matrix::from_rows(1, 2, &[1.0, 2.0]).unwrap();
/// let w = Matrix::from_rows(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
/// let packed = PackedWeights::pack(&w, WeightDtype::F32).unwrap();
/// let mut out = Matrix::zeros(1, 3).unwrap();
/// gemm_auto(&a, &packed, &mut out, None).unwrap();
/// assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
/// ```
///
/// # Errors
///
/// Propagates shape errors from the selected kernel.
pub fn gemm_auto(
    a: &Matrix,
    w: &PackedWeights,
    out: &mut Matrix,
    pool: Option<&ThreadPool>,
) -> Result<(), KernelError> {
    if a.rows() <= crate::dispatch::ARI_CROSSOVER {
        gemm_rowwise(a, w, out, pool)
    } else {
        gemm_tiled(a, w, out, pool)
    }
}

/// Row-stable GEMM: every output row is computed by the vector kernel
/// regardless of how many rows the batch holds, so row `i` of `out` is
/// a function of row `i` of `a` **only** — bit-for-bit independent of
/// the batch composition, for every dtype and every `k`. Each task runs
/// all rows against one panel group.
///
/// `gemm_auto` cannot promise this in general: its gemv/tiled dispatch
/// flips at the arithmetic-intensity crossover, and the two kernel
/// classes only agree bitwise for f32 weights whose `k` fits a single
/// tiled k-block. Position-dependent computations that must be
/// invariant under re-chunking (attention projections, the LM head —
/// the chunked-prefill contract) use this entry point; throughput-bound
/// batch work (expert FFNs) keeps the hybrid dispatch.
///
/// # Errors
///
/// Returns [`KernelError::Shape`] on the same mismatches as
/// [`gemm_auto`].
pub fn gemm_rowwise(
    a: &Matrix,
    w: &PackedWeights,
    out: &mut Matrix,
    pool: Option<&ThreadPool>,
) -> Result<(), KernelError> {
    check_shapes(a, w, out)?;
    let out_cols = out.cols();
    let outp = OutPtr(out.as_mut_slice().as_mut_ptr());
    for_each_group(w, pool, |g| {
        vector_task(a.as_slice(), a.rows(), w, outp, out_cols, group_panels(w, g));
    });
    Ok(())
}

fn check_shapes(a: &Matrix, w: &PackedWeights, out: &Matrix) -> Result<(), KernelError> {
    if a.cols() != w.k() {
        return Err(KernelError::shape(format!(
            "a is {}x{} but w.k()={}",
            a.rows(),
            a.cols(),
            w.k()
        )));
    }
    if out.rows() != a.rows() || out.cols() != w.n() {
        return Err(KernelError::shape(format!(
            "out is {}x{} but expected {}x{}",
            out.rows(),
            out.cols(),
            a.rows(),
            w.n()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_tensor::rng::seeded;

    fn dtypes() -> Vec<(WeightDtype, f32)> {
        vec![
            (WeightDtype::F32, 1e-4),
            (WeightDtype::Bf16, 2e-2),
            (WeightDtype::Int8 { group: 32 }, 2e-2),
            (WeightDtype::Int4 { group: 32 }, 2e-1),
        ]
    }

    /// Golden check: optimized kernel vs dequantized reference matmul.
    fn check_gemm(m: usize, n: usize, k: usize, seed: u64) {
        let mut rng = seeded(seed);
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
        for (dt, _tol) in dtypes() {
            let w = PackedWeights::pack(&wmat, dt).unwrap();
            // Reference on the *dequantized* weights so only kernel
            // arithmetic (not quantization) is under test.
            let wref = w.unpack();
            let expect = a.matmul_wt(&wref).unwrap();
            let mut out = Matrix::zeros(m, n).unwrap();
            gemm_tiled(&a, &w, &mut out, None).unwrap();
            let err = expect.relative_error(&out);
            assert!(err < 1e-4, "tiled {dt:?} m={m} n={n} k={k} err={err}");

            let mut out2 = Matrix::zeros(m, n).unwrap();
            gemm_auto(&a, &w, &mut out2, None).unwrap();
            let err2 = expect.relative_error(&out2);
            assert!(err2 < 1e-4, "auto {dt:?} err={err2}");
        }
    }

    #[test]
    fn gemm_matches_reference_small() {
        check_gemm(1, 16, 32, 1);
        check_gemm(3, 17, 64, 2);
        check_gemm(4, 16, 32, 3);
    }

    #[test]
    fn gemm_matches_reference_odd_shapes() {
        check_gemm(5, 33, 96, 4);
        check_gemm(7, 48, 160, 5);
        check_gemm(13, 31, 320, 6); // K spans multiple KC? (no, KC=256: 320 does)
    }

    #[test]
    fn gemm_handles_multiple_k_blocks() {
        check_gemm(6, 32, 2 * KC + 64, 7);
    }

    #[test]
    fn gemv_matches_tiled_for_single_row() {
        let mut rng = seeded(8);
        let k = 128;
        let n = 48;
        let a = Matrix::random_uniform(1, k, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
        for (dt, _) in dtypes() {
            let w = PackedWeights::pack(&wmat, dt).unwrap();
            let mut tiled = Matrix::zeros(1, n).unwrap();
            gemm_tiled(&a, &w, &mut tiled, None).unwrap();
            let mut y = vec![0.0f32; n];
            gemv_vector(a.row(0), &w, &mut y, None).unwrap();
            for (x, t) in y.iter().zip(tiled.row(0)) {
                assert!((x - t).abs() <= 1e-3 * t.abs().max(1.0), "{dt:?}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = seeded(9);
        let a = Matrix::random_uniform(9, 384, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(100, 384, 1.0, &mut rng).unwrap();
        let w = PackedWeights::pack(&wmat, WeightDtype::Int8 { group: 64 }).unwrap();
        let pool = ThreadPool::new(4).unwrap();
        let mut serial = Matrix::zeros(9, 100).unwrap();
        let mut parallel = Matrix::zeros(9, 100).unwrap();
        gemm_tiled(&a, &w, &mut serial, None).unwrap();
        gemm_tiled(&a, &w, &mut parallel, Some(&pool)).unwrap();
        assert_eq!(serial.as_slice(), parallel.as_slice());

        let mut ys = vec![0.0f32; 100];
        let mut yp = vec![0.0f32; 100];
        gemv_vector(a.row(0), &w, &mut ys, None).unwrap();
        gemv_vector(a.row(0), &w, &mut yp, Some(&pool)).unwrap();
        assert_eq!(ys, yp);
    }

    #[test]
    fn rowwise_is_batch_invariant_bitwise() {
        // The whole point of `gemm_rowwise`: row i of a 13-row batch
        // carries exactly the bits of the same row computed alone, for
        // every dtype — including the multi-k-block and quantized cases
        // where gemv and tiled kernels legitimately disagree.
        let mut rng = seeded(11);
        let m = 13;
        let n = 48;
        let k = 2 * KC + 64;
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
        for (dt, _) in dtypes() {
            let w = PackedWeights::pack(&wmat, dt).unwrap();
            let mut batch = Matrix::zeros(m, n).unwrap();
            gemm_rowwise(&a, &w, &mut batch, None).unwrap();
            // Against each row alone, and against direct gemv.
            for i in 0..m {
                let one = Matrix::from_rows(1, k, a.row(i)).unwrap();
                let mut alone = Matrix::zeros(1, n).unwrap();
                gemm_rowwise(&one, &w, &mut alone, None).unwrap();
                assert_eq!(batch.row(i), alone.row(0), "{dt:?} row {i}");
                let mut y = vec![0.0f32; n];
                gemv_vector(a.row(i), &w, &mut y, None).unwrap();
                assert_eq!(batch.row(i), &y[..], "{dt:?} row {i} vs gemv");
            }
        }
    }

    #[test]
    fn rowwise_row_is_bitwise_independent_of_the_rest_of_the_batch() {
        // A probe row lands at every position of batches of 1..=9 rows
        // (crossing the 4-row register tile) among random neighbours; its
        // output bits must equal the probe computed alone.
        let mut rng = seeded(13);
        let (n, k) = (5 * NR + 7, 64);
        let wmat = Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
        let probe = Matrix::random_uniform(1, k, 1.0, &mut rng).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (dt, _) in dtypes() {
            let w = PackedWeights::pack(&wmat, dt).unwrap();
            let mut alone = Matrix::zeros(1, n).unwrap();
            gemm_rowwise(&probe, &w, &mut alone, None).unwrap();
            for m in 1..=9 {
                for i in 0..m {
                    let mut a = Matrix::random_uniform(m, k, 1.0, &mut rng).unwrap();
                    a.row_mut(i).copy_from_slice(probe.row(0));
                    let mut out = Matrix::zeros(m, n).unwrap();
                    gemm_rowwise(&a, &w, &mut out, None).unwrap();
                    assert_eq!(bits(out.row(i)), bits(alone.row(0)), "{dt:?} m={m} row {i}");
                }
            }
        }
    }

    #[test]
    fn rowwise_matches_reference() {
        let mut rng = seeded(12);
        let a = Matrix::random_uniform(6, 96, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(33, 96, 1.0, &mut rng).unwrap();
        let w = PackedWeights::pack(&wmat, WeightDtype::F32).unwrap();
        let expect = a.matmul_wt(&w.unpack()).unwrap();
        let mut out = Matrix::zeros(6, 33).unwrap();
        gemm_rowwise(&a, &w, &mut out, None).unwrap();
        let err = expect.relative_error(&out);
        assert!(err < 1e-4, "err={err}");
        assert!(gemm_rowwise(&a, &w, &mut Matrix::zeros(7, 33).unwrap(), None).is_err());
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = Matrix::zeros(2, 8).unwrap();
        let wmat = Matrix::zeros(16, 16).unwrap();
        let w = PackedWeights::pack(&wmat, WeightDtype::F32).unwrap();
        let mut out = Matrix::zeros(2, 16).unwrap();
        assert!(gemm_tiled(&a, &w, &mut out, None).is_err());
        let a2 = Matrix::zeros(2, 16).unwrap();
        let mut bad_out = Matrix::zeros(3, 16).unwrap();
        assert!(gemm_tiled(&a2, &w, &mut bad_out, None).is_err());
        let mut y = vec![0.0; 8];
        assert!(gemv_vector(&[0.0; 16], &w, &mut y, None).is_err());
        assert!(gemv_vector(&[0.0; 8], &w, &mut [0.0; 16], None).is_err());
    }

    #[test]
    fn quantized_gemm_is_close_to_full_precision() {
        // End-to-end quantization error should stay small in relative
        // Frobenius norm: Int8 ~ group absmax / 127.
        let mut rng = seeded(10);
        let a = Matrix::random_uniform(8, 256, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(64, 256, 0.1, &mut rng).unwrap();
        let wf = PackedWeights::pack(&wmat, WeightDtype::F32).unwrap();
        let wq = PackedWeights::pack(&wmat, WeightDtype::Int8 { group: 64 }).unwrap();
        let mut of = Matrix::zeros(8, 64).unwrap();
        let mut oq = Matrix::zeros(8, 64).unwrap();
        gemm_tiled(&a, &wf, &mut of, None).unwrap();
        gemm_tiled(&a, &wq, &mut oq, None).unwrap();
        let err = of.relative_error(&oq);
        assert!(err < 0.02, "int8 end-to-end err={err}");
    }
}
