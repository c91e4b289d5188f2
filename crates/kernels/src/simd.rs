//! SIMD microkernels with runtime feature detection.
//!
//! The packed layout's [`kt_tensor::NR`] = 16 panel width was chosen to
//! match one AMX tile row — and it is also exactly one AVX-512 `zmm`
//! register of `f32`, or two AVX2 `ymm` registers. These microkernels
//! exploit that: per K-step they broadcast one activation, load the
//! staged 16-wide weight row and issue fused multiply-adds into
//! register-resident accumulator tiles, which is precisely the inner
//! loop of the paper's §3.2 kernels.
//!
//! Dispatch is by runtime detection (cached), with the portable scalar
//! kernel as both the fallback and the golden reference; results differ
//! from scalar only by FMA rounding.
//!
//! # Register-blocked vector kernel (decode GEMV)
//!
//! The vector kernel computes a tile of up to [`TILE_ROWS`] activation
//! rows by [`tile_panels`] packed panels per call, one accumulator per
//! (row, panel): [`TILE_PANELS_AVX512`] panels on AVX-512, where a 4x4
//! tile's 16 `zmm` accumulators fit the 32 registers with room for the
//! weights and broadcasts, and [`TILE_PANELS_AVX2`] on AVX2, whose
//! chains take two of its 16 `ymm` registers each. Every accumulator
//! runs the one-row, one-panel chain unchanged, so blocking only puts
//! independent FMA chains in flight together.
//!
//! For every dtype but f32 the quantized serving hot path decodes
//! packed Int8/Int4 codes (and BF16 halves) **in-register**, once per
//! (K-step, panel) for all rows of the tile: codes are widened with
//! exact integer conversions, the group scale multiply is a single
//! IEEE `mul`, and the activation multiply-accumulate is one fused
//! multiply-add. The scalar golden references perform the *same*
//! per-lane operation sequence with `f32::mul_add` (correctly rounded,
//! like the hardware FMA), so the SIMD kernels are **bitwise
//! identical** to scalar at every level — the property the
//! chunked-prefill and forced-level proptests pin.
//!
//! Tests can cap dispatch on the current thread with
//! [`with_forced_simd_level`]; the disabled-path cost is one relaxed
//! atomic load.

use kt_tensor::{Bf16, PackedWeights, WeightDtype, NR};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Available instruction level, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar fallback.
    Scalar,
    /// AVX2 + FMA (two 8-lane registers per panel row).
    Avx2Fma,
    /// AVX-512F (one 16-lane register per panel row).
    Avx512,
}

/// Detects the best available level (cached after first call).
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx2Fma;
            }
        }
        SimdLevel::Scalar
    })
}

/// Count of live [`with_forced_simd_level`] scopes across all threads.
/// Zero (the overwhelmingly common case) means dispatch can skip the
/// thread-local lookup entirely.
static FORCE_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread dispatch cap installed by [`with_forced_simd_level`].
    static FORCED_LEVEL: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// Runs `f` with SIMD dispatch on the **calling thread** capped at
/// `level`. Kernels executed by other threads (e.g. a `ThreadPool`)
/// are unaffected, so tests that need a pinned level call kernels with
/// `pool = None`. Scopes nest; the outer cap is restored on exit.
pub fn with_forced_simd_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    struct Guard(Option<SimdLevel>);
    impl Drop for Guard {
        fn drop(&mut self) {
            FORCED_LEVEL.with(|c| c.set(self.0));
            FORCE_SCOPES.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let prev = FORCED_LEVEL.with(|c| c.replace(Some(level)));
    FORCE_SCOPES.fetch_add(1, Ordering::Relaxed);
    let _restore = Guard(prev);
    f()
}

/// The level dispatch actually uses: the detected level, capped by the
/// current thread's forced level when a forcing scope is active.
#[inline]
pub fn effective_simd_level() -> SimdLevel {
    let detected = simd_level();
    if FORCE_SCOPES.load(Ordering::Relaxed) == 0 {
        return detected;
    }
    FORCED_LEVEL.with(|c| c.get()).map_or(detected, |l| l.min(detected))
}

/// Portable scalar f32 microkernel (the golden reference, and the f32
/// tile at the scalar level): accumulates `M` activation rows against
/// one staged K-major panel block.
#[allow(clippy::needless_range_loop)] // fixed-trip loops vectorize best
#[inline]
pub fn microkernel_scalar<const M: usize>(
    a: [&[f32]; M],
    staged: &[f32],
    kb: usize,
    acc: &mut [[f32; NR]; M],
) {
    for kk in 0..kb {
        let wrow = &staged[kk * NR..kk * NR + NR];
        for i in 0..M {
            let ai = a[i][kk];
            let t = &mut acc[i];
            for j in 0..NR {
                t[j] += ai * wrow[j];
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fused-dequant GEMV golden references (quantized serving hot path).
//
// Contract shared by these references and every vector tile below: for
// each K-step `kk`
// and each lane `j`, exactly
//
//     w      = widen(code[kk][j])            (exact int/bf16 -> f32)
//     wv     = w * scale[kk/group][j]        (one IEEE mul; skipped for bf16)
//     acc[j] = fma(x[kk], wv, acc[j])        (correctly rounded FMA)
//
// in ascending `kk` order. `f32::mul_add` is correctly rounded, as are
// the AVX FMA instructions, and the widenings are exact, so scalar,
// AVX2 and AVX-512 paths agree bit for bit.
// ---------------------------------------------------------------------

/// Scalar golden reference: fused-dequant GEMV over one BF16 panel.
#[allow(clippy::needless_range_loop)]
pub fn gemv_bf16_scalar(x: &[f32], panel: &[Bf16], acc: &mut [f32; NR]) {
    debug_assert!(panel.len() >= x.len() * NR);
    for (kk, &xv) in x.iter().enumerate() {
        let wrow = &panel[kk * NR..kk * NR + NR];
        for j in 0..NR {
            acc[j] = xv.mul_add(wrow[j].to_f32(), acc[j]);
        }
    }
}

/// Scalar golden reference: fused-dequant GEMV over one Int8 panel.
#[allow(clippy::needless_range_loop)]
pub fn gemv_int8_scalar(x: &[f32], bytes: &[u8], scales: &[f32], group: usize, acc: &mut [f32; NR]) {
    debug_assert!(bytes.len() >= x.len() * NR);
    for (kk, &xv) in x.iter().enumerate() {
        let srow = &scales[(kk / group) * NR..(kk / group) * NR + NR];
        let brow = &bytes[kk * NR..kk * NR + NR];
        for j in 0..NR {
            let wv = (brow[j] as i8) as f32 * srow[j];
            acc[j] = xv.mul_add(wv, acc[j]);
        }
    }
}

/// Scalar golden reference: fused-dequant GEMV over one Int4 panel
/// (two codes per byte: low nibble = even `kk`, high nibble = odd).
#[allow(clippy::needless_range_loop)]
pub fn gemv_int4_scalar(x: &[f32], bytes: &[u8], scales: &[f32], group: usize, acc: &mut [f32; NR]) {
    for (kk, &xv) in x.iter().enumerate() {
        let srow = &scales[(kk / group) * NR..(kk / group) * NR + NR];
        let brow = &bytes[(kk / 2) * NR..(kk / 2) * NR + NR];
        if kk % 2 == 0 {
            for j in 0..NR {
                let code = ((brow[j] & 0x0F) as i8) << 4 >> 4;
                acc[j] = xv.mul_add(code as f32 * srow[j], acc[j]);
            }
        } else {
            for j in 0..NR {
                let code = (brow[j] as i8) >> 4;
                acc[j] = xv.mul_add(code as f32 * srow[j], acc[j]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Register-blocked vector tile (the decode GEMV kernel).
//
// A tile is M activation rows (M <= TILE_ROWS) by P packed panels. Each
// of its M*P accumulators runs exactly the one-row, one-panel chain of
// the contract above: a zeroed accumulator, then one FMA per K-step in
// ascending `kk` — so every (row, panel) output carries the same bits
// as that chain computed alone, at every level. Blocking changes only
// how many independent chains are in flight: the M*P FMAs of one K-step
// do not depend on each other, so they fill the FMA pipes instead of
// each waiting out the previous FMA's latency. Quantized panels decode
// `widen(code) * scale` once per (kk, panel) and reuse that value for
// all M rows. F32 at the scalar level keeps the tiled microkernel's
// unfused `acc += x * w` (`microkernel_scalar`), as it always has.
// ---------------------------------------------------------------------

/// Most activation rows one vector tile carries.
pub const TILE_ROWS: usize = 4;

/// Panels per vector tile on AVX-512: a full 4x4 tile keeps 16 `zmm`
/// accumulators, plus the panels' weight rows and scales and the rows'
/// broadcasts, inside the 32 registers.
pub const TILE_PANELS_AVX512: usize = 4;

/// Panels per vector tile on AVX2: each chain takes two `ymm`
/// registers, so two panels of up to two rows already fill 8 of the 16
/// with accumulators.
pub const TILE_PANELS_AVX2: usize = 2;

/// The widest tile of any level: the panel group one vector task
/// covers, so the task split does not depend on the SIMD level.
pub const MAX_TILE_PANELS: usize = TILE_PANELS_AVX512;

/// Panels per vector tile at `level` (the scalar level has no register
/// budget and takes the whole group).
pub const fn tile_panels(level: SimdLevel) -> usize {
    match level {
        SimdLevel::Avx512 => TILE_PANELS_AVX512,
        SimdLevel::Avx2Fma => TILE_PANELS_AVX2,
        SimdLevel::Scalar => MAX_TILE_PANELS,
    }
}

/// Dispatches a runtime `(m, np)` tile shape to the `<M, P>`
/// monomorphization of a tile body, for `P` in the listed widths.
macro_rules! dispatch_tile {
    ($body:ident, $m:expr, $np:expr, [$($p:literal),*], $args:tt) => {
        match $m {
            1 => dispatch_tile!(@p $body, 1, $np, [$($p),*], $args),
            2 => dispatch_tile!(@p $body, 2, $np, [$($p),*], $args),
            3 => dispatch_tile!(@p $body, 3, $np, [$($p),*], $args),
            _ => dispatch_tile!(@p $body, 4, $np, [$($p),*], $args),
        }
    };
    (@p $body:ident, $m:literal, $np:expr, [$($p:literal),*], $args:tt) => {
        match $np {
            $($p => $body::<$m, $p> $args,)*
            _ => unreachable!("tile width checked by check_tile"),
        }
    };
}

/// Checks a tile shape against `level`'s register budget and `acc`.
fn check_tile(level: SimdLevel, m: usize, np: usize, acc: &[[f32; NR]]) {
    assert!(level <= simd_level(), "{level:?} not available on this host");
    assert!((1..=TILE_ROWS).contains(&m), "tile of {m} rows");
    assert!((1..=tile_panels(level)).contains(&np), "tile of {np} panels at {level:?}");
    assert!(acc.len() >= m * np, "accumulator holds {} tiles", acc.len());
}

/// Computes one f32 tile: rows `x` (1 to [`TILE_ROWS`] of them, each at
/// least `k` long) against K-major `panels` (each at least `k * NR`
/// long, at most `tile_panels(level)` of them). The chain of row `i`,
/// panel `p` lands in `acc[i * panels.len() + p]`. Both kernel classes
/// run f32 through it: the vector kernel on whole packed panels, the
/// tiled kernel on one panel's K-block.
///
/// # Panics
///
/// Panics when `level` exceeds the detected level, or the tile shape, a
/// row or panel length or `acc` is out of range.
pub(crate) fn f32_tile(level: SimdLevel, x: &[&[f32]], panels: &[&[f32]], k: usize, acc: &mut [[f32; NR]]) {
    let (m, np) = (x.len(), panels.len());
    check_tile(level, m, np, acc);
    assert!(x.iter().all(|row| row.len() >= k) && panels.iter().all(|p| p.len() >= k * NR));
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F is available (checked above); the asserts
        // bound every row and panel read, and `acc` holds `m * np` tiles.
        SimdLevel::Avx512 => unsafe {
            dispatch_tile!(tile_f32_avx512, m, np, [1, 2, 3, 4], (x, panels, k, acc))
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: As above for AVX2+FMA.
        SimdLevel::Avx2Fma => unsafe { dispatch_tile!(tile_f32_avx2, m, np, [1, 2], (x, panels, k, acc)) },
        _ => {
            for (i, row) in x.iter().enumerate() {
                for (p, panel) in panels.iter().enumerate() {
                    let t = &mut acc[i * np + p];
                    *t = [0.0; NR];
                    microkernel_scalar::<1>([&row[..k]], panel, k, std::array::from_mut(t));
                }
            }
        }
    }
}

/// Computes one vector tile: rows `x` (1 to [`TILE_ROWS`] of them, each
/// at least `w.k()` long) against panels `p0 .. p0 + np` of `w`, where
/// `np <= tile_panels(level)`. The chain of row `i`, panel `p0 + p`
/// lands in `acc[i * np + p]`.
///
/// # Panics
///
/// Panics when `level` exceeds the detected level, or the tile shape, a
/// row length or `acc` is out of range.
pub(crate) fn vector_tile(
    level: SimdLevel,
    x: &[&[f32]],
    w: &PackedWeights,
    p0: usize,
    np: usize,
    acc: &mut [[f32; NR]],
) {
    let m = x.len();
    check_tile(level, m, np, acc);
    assert!(p0 + np <= w.n_panels(), "panels {p0}..{} of {}", p0 + np, w.n_panels());
    if w.dtype() == WeightDtype::F32 {
        let panels: [&[f32]; MAX_TILE_PANELS] = std::array::from_fn(|p| w.panel_f32(p0 + p.min(np - 1)));
        return f32_tile(level, x, &panels[..np], w.k(), acc);
    }
    assert!(x.iter().all(|row| row.len() >= w.k()));
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F is available (level check above); the asserts
        // bound every row read, `PackedWeights` bounds every panel and
        // scale read (see each body), and `acc` holds `m * np` tiles.
        SimdLevel::Avx512 => unsafe {
            match w.dtype() {
                WeightDtype::Bf16 => dispatch_tile!(tile_bf16_avx512, m, np, [1, 2, 3, 4], (x, w, p0, acc)),
                WeightDtype::Int8 { .. } => dispatch_tile!(tile_int8_avx512, m, np, [1, 2, 3, 4], (x, w, p0, acc)),
                WeightDtype::Int4 { .. } => dispatch_tile!(tile_int4_avx512, m, np, [1, 2, 3, 4], (x, w, p0, acc)),
                WeightDtype::F32 => unreachable!("f32 runs through f32_tile"),
            }
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: As above for AVX2+FMA.
        SimdLevel::Avx2Fma => unsafe {
            match w.dtype() {
                WeightDtype::Bf16 => dispatch_tile!(tile_bf16_avx2, m, np, [1, 2], (x, w, p0, acc)),
                WeightDtype::Int8 { .. } => dispatch_tile!(tile_int8_avx2, m, np, [1, 2], (x, w, p0, acc)),
                WeightDtype::Int4 { .. } => dispatch_tile!(tile_int4_avx2, m, np, [1, 2], (x, w, p0, acc)),
                WeightDtype::F32 => unreachable!("f32 runs through f32_tile"),
            }
        },
        _ => tile_scalar(x, w, p0, np, acc),
    }
}

/// Scalar quantized tile: every (row, panel) chain through its golden
/// reference.
fn tile_scalar(x: &[&[f32]], w: &PackedWeights, p0: usize, np: usize, acc: &mut [[f32; NR]]) {
    let k = w.k();
    for (i, row) in x.iter().enumerate() {
        let xi = &row[..k];
        for p in 0..np {
            let t = &mut acc[i * np + p];
            *t = [0.0; NR];
            let panel = p0 + p;
            match w.dtype() {
                WeightDtype::F32 => unreachable!("f32 runs through f32_tile"),
                WeightDtype::Bf16 => gemv_bf16_scalar(xi, w.panel_bf16(panel), t),
                WeightDtype::Int8 { group } => {
                    gemv_int8_scalar(xi, w.panel_bytes(panel), w.panel_scales(panel), group, t);
                }
                WeightDtype::Int4 { group } => {
                    gemv_int4_scalar(xi, w.panel_bytes(panel), w.panel_scales(panel), group, t);
                }
            }
        }
    }
}

/// Base pointers of the tile's activation rows.
fn row_ptrs<const M: usize>(x: &[&[f32]]) -> [*const f32; M] {
    let mut xp = [std::ptr::null(); M];
    for (ptr, row) in xp.iter_mut().zip(x) {
        *ptr = row.as_ptr();
    }
    xp
}

/// Payload and scale base pointers of panels `p0 .. p0 + P`, with the
/// quantization group (0 for float dtypes).
fn panel_ptrs<const P: usize>(w: &PackedWeights, p0: usize) -> ([*const u8; P], [*const f32; P], usize) {
    let mut bp = [std::ptr::null(); P];
    let mut sp = [std::ptr::null(); P];
    for p in 0..P {
        bp[p] = w.panel_bytes(p0 + p).as_ptr();
        sp[p] = w.panel_scales(p0 + p).as_ptr();
    }
    (bp, sp, w.dtype().group().unwrap_or(0))
}

/// AVX-512 f32 tile: one `zmm` accumulator per (row, panel).
///
/// # Safety
///
/// AVX-512F must be available; `x` holds `M` rows of at least `k`
/// values, `panels` holds `P` K-major panels of at least `k * NR`
/// values, and `acc` holds `M * P` tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_f32_avx512<const M: usize, const P: usize>(
    x: &[&[f32]],
    panels: &[&[f32]],
    k: usize,
    acc: &mut [[f32; NR]],
) {
    use std::arch::x86_64::*;
    let xp = row_ptrs::<M>(x);
    let mut wp = [std::ptr::null::<f32>(); P];
    for (ptr, panel) in wp.iter_mut().zip(panels) {
        *ptr = panel.as_ptr();
    }
    // SAFETY: Row reads stay below `k`, panel reads at `kk * NR` below
    // `k * NR`, per the function's contract; NR == 16 == one __m512.
    unsafe {
        let mut c = [[_mm512_setzero_ps(); P]; M];
        for kk in 0..k {
            let mut xb = [_mm512_setzero_ps(); M];
            for i in 0..M {
                xb[i] = _mm512_set1_ps(*xp[i].add(kk));
            }
            for p in 0..P {
                let wv = _mm512_loadu_ps(wp[p].add(kk * NR));
                for i in 0..M {
                    c[i][p] = _mm512_fmadd_ps(xb[i], wv, c[i][p]);
                }
            }
        }
        for i in 0..M {
            for p in 0..P {
                _mm512_storeu_ps(acc[i * P + p].as_mut_ptr(), c[i][p]);
            }
        }
    }
}

/// AVX2+FMA f32 tile (two 8-lane halves per chain).
///
/// # Safety
///
/// AVX2 and FMA must be available; otherwise as for
/// [`tile_f32_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_f32_avx2<const M: usize, const P: usize>(
    x: &[&[f32]],
    panels: &[&[f32]],
    k: usize,
    acc: &mut [[f32; NR]],
) {
    use std::arch::x86_64::*;
    let xp = row_ptrs::<M>(x);
    let mut wp = [std::ptr::null::<f32>(); P];
    for (ptr, panel) in wp.iter_mut().zip(panels) {
        *ptr = panel.as_ptr();
    }
    // SAFETY: As for `tile_f32_avx512`; NR == 16 == 2 x __m256.
    unsafe {
        let mut lo = [[_mm256_setzero_ps(); P]; M];
        let mut hi = [[_mm256_setzero_ps(); P]; M];
        for kk in 0..k {
            let mut xb = [_mm256_setzero_ps(); M];
            for i in 0..M {
                xb[i] = _mm256_set1_ps(*xp[i].add(kk));
            }
            for p in 0..P {
                let w = wp[p].add(kk * NR);
                let (wlo, whi) = (_mm256_loadu_ps(w), _mm256_loadu_ps(w.add(8)));
                for i in 0..M {
                    lo[i][p] = _mm256_fmadd_ps(xb[i], wlo, lo[i][p]);
                    hi[i][p] = _mm256_fmadd_ps(xb[i], whi, hi[i][p]);
                }
            }
        }
        for i in 0..M {
            for p in 0..P {
                _mm256_storeu_ps(acc[i * P + p].as_mut_ptr(), lo[i][p]);
                _mm256_storeu_ps(acc[i * P + p].as_mut_ptr().add(8), hi[i][p]);
            }
        }
    }
}

/// AVX-512 fused-dequant BF16 tile: 16 halves zero-extend to `i32` and
/// shift into f32 position (exact).
///
/// # Safety
///
/// AVX-512F must be available; `x` holds `M` rows of at least `w.k()`
/// values, panels `p0 .. p0 + P` exist, `acc` holds `M * P` tiles, and
/// `w` is bf16 (`k * NR` halves a panel).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_bf16_avx512<const M: usize, const P: usize>(
    x: &[&[f32]],
    w: &PackedWeights,
    p0: usize,
    acc: &mut [[f32; NR]],
) {
    use std::arch::x86_64::*;
    let k = w.k();
    let xp = row_ptrs::<M>(x);
    let (bp, _, _) = panel_ptrs::<P>(w, p0);
    // SAFETY: One 16-half row per K-step at `kk * NR`, below `k * NR`.
    unsafe {
        let mut c = [[_mm512_setzero_ps(); P]; M];
        for kk in 0..k {
            let mut xb = [_mm512_setzero_ps(); M];
            for i in 0..M {
                xb[i] = _mm512_set1_ps(*xp[i].add(kk));
            }
            for p in 0..P {
                let h = _mm256_loadu_si256(bp[p].cast::<u16>().add(kk * NR).cast());
                let wv = _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_cvtepu16_epi32(h), 16));
                for i in 0..M {
                    c[i][p] = _mm512_fmadd_ps(xb[i], wv, c[i][p]);
                }
            }
        }
        for i in 0..M {
            for p in 0..P {
                _mm512_storeu_ps(acc[i * P + p].as_mut_ptr(), c[i][p]);
            }
        }
    }
}

/// AVX2+FMA fused-dequant BF16 tile (two 8-lane halves per chain).
///
/// # Safety
///
/// As for [`tile_bf16_avx512`], with AVX2 and FMA available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_bf16_avx2<const M: usize, const P: usize>(
    x: &[&[f32]],
    w: &PackedWeights,
    p0: usize,
    acc: &mut [[f32; NR]],
) {
    use std::arch::x86_64::*;
    let k = w.k();
    let xp = row_ptrs::<M>(x);
    let (bp, _, _) = panel_ptrs::<P>(w, p0);
    // SAFETY: As for `tile_bf16_avx512`.
    unsafe {
        let mut lo = [[_mm256_setzero_ps(); P]; M];
        let mut hi = [[_mm256_setzero_ps(); P]; M];
        for kk in 0..k {
            let mut xb = [_mm256_setzero_ps(); M];
            for i in 0..M {
                xb[i] = _mm256_set1_ps(*xp[i].add(kk));
            }
            for p in 0..P {
                let h = _mm256_loadu_si256(bp[p].cast::<u16>().add(kk * NR).cast());
                let wlo = _mm256_castsi256_ps(_mm256_slli_epi32(
                    _mm256_cvtepu16_epi32(_mm256_castsi256_si128(h)),
                    16,
                ));
                let whi = _mm256_castsi256_ps(_mm256_slli_epi32(
                    _mm256_cvtepu16_epi32(_mm256_extracti128_si256(h, 1)),
                    16,
                ));
                for i in 0..M {
                    lo[i][p] = _mm256_fmadd_ps(xb[i], wlo, lo[i][p]);
                    hi[i][p] = _mm256_fmadd_ps(xb[i], whi, hi[i][p]);
                }
            }
        }
        for i in 0..M {
            for p in 0..P {
                _mm256_storeu_ps(acc[i * P + p].as_mut_ptr(), lo[i][p]);
                _mm256_storeu_ps(acc[i * P + p].as_mut_ptr().add(8), hi[i][p]);
            }
        }
    }
}

/// AVX-512 fused-dequant Int8 tile: 16 codes sign-extend to `i32`
/// in-register, one scale mul per (K-step, panel) with the scale row
/// reloaded once per group, then one FMA per row.
///
/// # Safety
///
/// As for [`tile_bf16_avx512`], with `w` int8: `k * NR` codes and one
/// 16-wide scale row per group a panel, the group dividing `k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_int8_avx512<const M: usize, const P: usize>(
    x: &[&[f32]],
    w: &PackedWeights,
    p0: usize,
    acc: &mut [[f32; NR]],
) {
    use std::arch::x86_64::*;
    let k = w.k();
    let xp = row_ptrs::<M>(x);
    let (bp, sp, group) = panel_ptrs::<P>(w, p0);
    // SAFETY: Code rows are 16 bytes at `kk * NR < k * NR`; scale rows 16
    // floats at `gi * NR` for `gi < k / group`, per the layout contract.
    unsafe {
        let mut c = [[_mm512_setzero_ps(); P]; M];
        for gi in 0..k / group {
            let mut s = [_mm512_setzero_ps(); P];
            for p in 0..P {
                s[p] = _mm512_loadu_ps(sp[p].add(gi * NR));
            }
            for kk in gi * group..(gi + 1) * group {
                let mut xb = [_mm512_setzero_ps(); M];
                for i in 0..M {
                    xb[i] = _mm512_set1_ps(*xp[i].add(kk));
                }
                for p in 0..P {
                    let codes = _mm_loadu_si128(bp[p].add(kk * NR).cast());
                    let wv = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(codes)), s[p]);
                    for i in 0..M {
                        c[i][p] = _mm512_fmadd_ps(xb[i], wv, c[i][p]);
                    }
                }
            }
        }
        for i in 0..M {
            for p in 0..P {
                _mm512_storeu_ps(acc[i * P + p].as_mut_ptr(), c[i][p]);
            }
        }
    }
}

/// AVX2+FMA fused-dequant Int8 tile (two 8-lane halves per chain).
///
/// # Safety
///
/// As for [`tile_int8_avx512`], with AVX2 and FMA available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_int8_avx2<const M: usize, const P: usize>(
    x: &[&[f32]],
    w: &PackedWeights,
    p0: usize,
    acc: &mut [[f32; NR]],
) {
    use std::arch::x86_64::*;
    let k = w.k();
    let xp = row_ptrs::<M>(x);
    let (bp, sp, group) = panel_ptrs::<P>(w, p0);
    // SAFETY: As for `tile_int8_avx512`.
    unsafe {
        let mut lo = [[_mm256_setzero_ps(); P]; M];
        let mut hi = [[_mm256_setzero_ps(); P]; M];
        for gi in 0..k / group {
            let mut slo = [_mm256_setzero_ps(); P];
            let mut shi = [_mm256_setzero_ps(); P];
            for p in 0..P {
                slo[p] = _mm256_loadu_ps(sp[p].add(gi * NR));
                shi[p] = _mm256_loadu_ps(sp[p].add(gi * NR + 8));
            }
            for kk in gi * group..(gi + 1) * group {
                let mut xb = [_mm256_setzero_ps(); M];
                for i in 0..M {
                    xb[i] = _mm256_set1_ps(*xp[i].add(kk));
                }
                for p in 0..P {
                    let codes = _mm_loadu_si128(bp[p].add(kk * NR).cast());
                    let wlo = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes));
                    let whi = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(codes, 8)));
                    let (wlo, whi) = (_mm256_mul_ps(wlo, slo[p]), _mm256_mul_ps(whi, shi[p]));
                    for i in 0..M {
                        lo[i][p] = _mm256_fmadd_ps(xb[i], wlo, lo[i][p]);
                        hi[i][p] = _mm256_fmadd_ps(xb[i], whi, hi[i][p]);
                    }
                }
            }
        }
        for i in 0..M {
            for p in 0..P {
                _mm256_storeu_ps(acc[i * P + p].as_mut_ptr(), lo[i][p]);
                _mm256_storeu_ps(acc[i * P + p].as_mut_ptr().add(8), hi[i][p]);
            }
        }
    }
}

/// AVX-512 fused-dequant Int4 tile. Each 16-byte row holds the codes of
/// two adjacent K-steps; nibbles sign-extend via shift pairs (even:
/// `<< 28 >> 28`, odd: `<< 24 >> 28`). Int4 groups are even, so both
/// K-steps of a byte row share one scale row.
///
/// # Safety
///
/// As for [`tile_int8_avx512`], with `w` int4: `k / 2 * NR` packed bytes
/// a panel and an even group.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_int4_avx512<const M: usize, const P: usize>(
    x: &[&[f32]],
    w: &PackedWeights,
    p0: usize,
    acc: &mut [[f32; NR]],
) {
    use std::arch::x86_64::*;
    let k = w.k();
    let xp = row_ptrs::<M>(x);
    let (bp, sp, group) = panel_ptrs::<P>(w, p0);
    // SAFETY: Byte rows are 16 bytes at `(kk / 2) * NR < k / 2 * NR`;
    // scale rows as for `tile_int8_avx512`.
    unsafe {
        let mut c = [[_mm512_setzero_ps(); P]; M];
        for gi in 0..k / group {
            let mut s = [_mm512_setzero_ps(); P];
            for p in 0..P {
                s[p] = _mm512_loadu_ps(sp[p].add(gi * NR));
            }
            for kk in (gi * group..(gi + 1) * group).step_by(2) {
                let mut xe = [_mm512_setzero_ps(); M];
                let mut xo = [_mm512_setzero_ps(); M];
                for i in 0..M {
                    xe[i] = _mm512_set1_ps(*xp[i].add(kk));
                    xo[i] = _mm512_set1_ps(*xp[i].add(kk + 1));
                }
                for p in 0..P {
                    let w32 = _mm512_cvtepu8_epi32(_mm_loadu_si128(bp[p].add((kk / 2) * NR).cast()));
                    let we = _mm512_srai_epi32(_mm512_slli_epi32(w32, 28), 28);
                    let wo = _mm512_srai_epi32(_mm512_slli_epi32(w32, 24), 28);
                    let wve = _mm512_mul_ps(_mm512_cvtepi32_ps(we), s[p]);
                    let wvo = _mm512_mul_ps(_mm512_cvtepi32_ps(wo), s[p]);
                    for i in 0..M {
                        c[i][p] = _mm512_fmadd_ps(xe[i], wve, c[i][p]);
                        c[i][p] = _mm512_fmadd_ps(xo[i], wvo, c[i][p]);
                    }
                }
            }
        }
        for i in 0..M {
            for p in 0..P {
                _mm512_storeu_ps(acc[i * P + p].as_mut_ptr(), c[i][p]);
            }
        }
    }
}

/// AVX2+FMA fused-dequant Int4 tile (two 8-lane halves per chain).
///
/// # Safety
///
/// As for [`tile_int4_avx512`], with AVX2 and FMA available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_int4_avx2<const M: usize, const P: usize>(
    x: &[&[f32]],
    w: &PackedWeights,
    p0: usize,
    acc: &mut [[f32; NR]],
) {
    use std::arch::x86_64::*;
    let k = w.k();
    let xp = row_ptrs::<M>(x);
    let (bp, sp, group) = panel_ptrs::<P>(w, p0);
    // SAFETY: As for `tile_int4_avx512`.
    unsafe {
        let mut lo = [[_mm256_setzero_ps(); P]; M];
        let mut hi = [[_mm256_setzero_ps(); P]; M];
        for gi in 0..k / group {
            let mut slo = [_mm256_setzero_ps(); P];
            let mut shi = [_mm256_setzero_ps(); P];
            for p in 0..P {
                slo[p] = _mm256_loadu_ps(sp[p].add(gi * NR));
                shi[p] = _mm256_loadu_ps(sp[p].add(gi * NR + 8));
            }
            for kk in (gi * group..(gi + 1) * group).step_by(2) {
                let mut xe = [_mm256_setzero_ps(); M];
                let mut xo = [_mm256_setzero_ps(); M];
                for i in 0..M {
                    xe[i] = _mm256_set1_ps(*xp[i].add(kk));
                    xo[i] = _mm256_set1_ps(*xp[i].add(kk + 1));
                }
                for p in 0..P {
                    let b = _mm_loadu_si128(bp[p].add((kk / 2) * NR).cast());
                    let blo = _mm256_cvtepu8_epi32(b);
                    let bhi = _mm256_cvtepu8_epi32(_mm_srli_si128(b, 8));
                    let elo = _mm256_srai_epi32(_mm256_slli_epi32(blo, 28), 28);
                    let ehi = _mm256_srai_epi32(_mm256_slli_epi32(bhi, 28), 28);
                    let olo = _mm256_srai_epi32(_mm256_slli_epi32(blo, 24), 28);
                    let ohi = _mm256_srai_epi32(_mm256_slli_epi32(bhi, 24), 28);
                    let elo = _mm256_mul_ps(_mm256_cvtepi32_ps(elo), slo[p]);
                    let ehi = _mm256_mul_ps(_mm256_cvtepi32_ps(ehi), shi[p]);
                    let olo = _mm256_mul_ps(_mm256_cvtepi32_ps(olo), slo[p]);
                    let ohi = _mm256_mul_ps(_mm256_cvtepi32_ps(ohi), shi[p]);
                    for i in 0..M {
                        lo[i][p] = _mm256_fmadd_ps(xe[i], elo, lo[i][p]);
                        hi[i][p] = _mm256_fmadd_ps(xe[i], ehi, hi[i][p]);
                        lo[i][p] = _mm256_fmadd_ps(xo[i], olo, lo[i][p]);
                        hi[i][p] = _mm256_fmadd_ps(xo[i], ohi, hi[i][p]);
                    }
                }
            }
        }
        for i in 0..M {
            for p in 0..P {
                _mm256_storeu_ps(acc[i * P + p].as_mut_ptr(), lo[i][p]);
                _mm256_storeu_ps(acc[i * P + p].as_mut_ptr().add(8), hi[i][p]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// SIMD dequant-to-buffer (staging) helpers for the tiled GEMM path.
//
// The tiled kernel dequantizes one KC-block of a panel exactly once and
// reuses it for every activation row — that staging pass is where its
// dequant cost lives, so it gets the same in-register treatment. Every
// staged value is exactly `widen(code) * scale` (one IEEE mul), the
// same value the scalar staging produced, so the staged buffer is
// bitwise level-independent.
// ---------------------------------------------------------------------

/// Dequantizes BF16 K-steps `k0..k1` into `buf` (K-major, NR lanes).
pub fn stage_bf16(panel: &[Bf16], k0: usize, k1: usize, buf: &mut [f32]) {
    debug_assert!(buf.len() >= (k1 - k0) * NR);
    #[cfg(target_arch = "x86_64")]
    if effective_simd_level() >= SimdLevel::Avx2Fma {
        // SAFETY: AVX2 verified by the level check; bounds per the
        // debug assertion and the panel layout.
        unsafe { stage_bf16_avx2(panel, k0, k1, buf) };
        return;
    }
    for (dst, src) in buf[..(k1 - k0) * NR].iter_mut().zip(&panel[k0 * NR..k1 * NR]) {
        *dst = src.to_f32();
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stage_bf16_avx2(panel: &[Bf16], k0: usize, k1: usize, buf: &mut [f32]) {
    use std::arch::x86_64::*;
    // SAFETY: Caller verified AVX2; each iteration reads one 16-lane
    // u16 row and writes one 16-lane f32 row, in bounds.
    unsafe {
        let wp = panel.as_ptr().cast::<u16>();
        let dp = buf.as_mut_ptr();
        for kk in k0..k1 {
            let h = _mm256_loadu_si256(wp.add(kk * NR).cast());
            let lo = _mm256_castsi256_ps(_mm256_slli_epi32(
                _mm256_cvtepu16_epi32(_mm256_castsi256_si128(h)),
                16,
            ));
            let hi = _mm256_castsi256_ps(_mm256_slli_epi32(
                _mm256_cvtepu16_epi32(_mm256_extracti128_si256(h, 1)),
                16,
            ));
            _mm256_storeu_ps(dp.add((kk - k0) * NR), lo);
            _mm256_storeu_ps(dp.add((kk - k0) * NR + 8), hi);
        }
    }
}

/// Dequantizes Int8 K-steps `k0..k1` into `buf` (K-major, NR lanes).
#[allow(clippy::needless_range_loop)]
pub fn stage_int8(bytes: &[u8], scales: &[f32], group: usize, k0: usize, k1: usize, buf: &mut [f32]) {
    debug_assert!(buf.len() >= (k1 - k0) * NR);
    #[cfg(target_arch = "x86_64")]
    if effective_simd_level() >= SimdLevel::Avx2Fma {
        // SAFETY: AVX2 verified by the level check; bounds per the
        // debug assertion and the panel layout.
        unsafe { stage_int8_avx2(bytes, scales, group, k0, k1, buf) };
        return;
    }
    for kk in k0..k1 {
        let srow = &scales[(kk / group) * NR..(kk / group) * NR + NR];
        let brow = &bytes[kk * NR..kk * NR + NR];
        let drow = &mut buf[(kk - k0) * NR..(kk - k0) * NR + NR];
        for j in 0..NR {
            drow[j] = (brow[j] as i8) as f32 * srow[j];
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stage_int8_avx2(
    bytes: &[u8],
    scales: &[f32],
    group: usize,
    k0: usize,
    k1: usize,
    buf: &mut [f32],
) {
    use std::arch::x86_64::*;
    // SAFETY: Caller verified AVX2; loads/stores are one 16-lane row
    // per K-step, in bounds per the layout contract.
    unsafe {
        let bp = bytes.as_ptr();
        let sp = scales.as_ptr();
        let dp = buf.as_mut_ptr();
        for kk in k0..k1 {
            let codes = _mm_loadu_si128(bp.add(kk * NR).cast());
            let wlo = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes));
            let whi = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(codes, 8)));
            let slo = _mm256_loadu_ps(sp.add((kk / group) * NR));
            let shi = _mm256_loadu_ps(sp.add((kk / group) * NR + 8));
            _mm256_storeu_ps(dp.add((kk - k0) * NR), _mm256_mul_ps(wlo, slo));
            _mm256_storeu_ps(dp.add((kk - k0) * NR + 8), _mm256_mul_ps(whi, shi));
        }
    }
}

/// Dequantizes Int4 K-steps `k0..k1` into `buf` (K-major, NR lanes).
#[allow(clippy::needless_range_loop)]
pub fn stage_int4(bytes: &[u8], scales: &[f32], group: usize, k0: usize, k1: usize, buf: &mut [f32]) {
    debug_assert!(buf.len() >= (k1 - k0) * NR);
    #[cfg(target_arch = "x86_64")]
    if effective_simd_level() >= SimdLevel::Avx2Fma {
        // SAFETY: AVX2 verified by the level check; bounds per the
        // debug assertion and the panel layout.
        unsafe { stage_int4_avx2(bytes, scales, group, k0, k1, buf) };
        return;
    }
    for kk in k0..k1 {
        let srow = &scales[(kk / group) * NR..(kk / group) * NR + NR];
        let brow = &bytes[(kk / 2) * NR..(kk / 2) * NR + NR];
        let drow = &mut buf[(kk - k0) * NR..(kk - k0) * NR + NR];
        if kk % 2 == 0 {
            for j in 0..NR {
                let code = ((brow[j] & 0x0F) as i8) << 4 >> 4;
                drow[j] = code as f32 * srow[j];
            }
        } else {
            for j in 0..NR {
                let code = (brow[j] as i8) >> 4;
                drow[j] = code as f32 * srow[j];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stage_int4_avx2(
    bytes: &[u8],
    scales: &[f32],
    group: usize,
    k0: usize,
    k1: usize,
    buf: &mut [f32],
) {
    use std::arch::x86_64::*;
    // SAFETY: Caller verified AVX2; byte-row loads are 16 bytes at
    // `(kk/2) * NR`, in bounds per the layout contract.
    unsafe {
        let bp = bytes.as_ptr();
        let sp = scales.as_ptr();
        let dp = buf.as_mut_ptr();
        for kk in k0..k1 {
            let b = _mm_loadu_si128(bp.add((kk / 2) * NR).cast());
            let blo = _mm256_cvtepu8_epi32(b);
            let bhi = _mm256_cvtepu8_epi32(_mm_srli_si128(b, 8));
            let (clo, chi) = if kk % 2 == 0 {
                (
                    _mm256_srai_epi32(_mm256_slli_epi32(blo, 28), 28),
                    _mm256_srai_epi32(_mm256_slli_epi32(bhi, 28), 28),
                )
            } else {
                (
                    _mm256_srai_epi32(_mm256_slli_epi32(blo, 24), 28),
                    _mm256_srai_epi32(_mm256_slli_epi32(bhi, 24), 28),
                )
            };
            let slo = _mm256_loadu_ps(sp.add((kk / group) * NR));
            let shi = _mm256_loadu_ps(sp.add((kk / group) * NR + 8));
            _mm256_storeu_ps(dp.add((kk - k0) * NR), _mm256_mul_ps(_mm256_cvtepi32_ps(clo), slo));
            _mm256_storeu_ps(
                dp.add((kk - k0) * NR + 8),
                _mm256_mul_ps(_mm256_cvtepi32_ps(chi), shi),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_tensor::rng::seeded;

    fn random_inputs(kb: usize, m: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rng = seeded(seed);
        let mut staged = vec![0.0f32; kb * NR];
        kt_tensor::rng::fill_uniform(&mut rng, &mut staged, 1.0);
        let a = (0..m)
            .map(|_| {
                let mut row = vec![0.0f32; kb];
                kt_tensor::rng::fill_uniform(&mut rng, &mut row, 1.0);
                row
            })
            .collect();
        (a, staged)
    }

    fn check_level<const M: usize>(level: SimdLevel, kb: usize, seed: u64) {
        if simd_level() < level {
            return; // feature not available on this host
        }
        let (a_rows, staged) = random_inputs(kb, M, seed);
        let a: [&[f32]; M] = std::array::from_fn(|i| a_rows[i].as_slice());
        let mut expect = [[0.0f32; NR]; M];
        let mut got = [[f32::NAN; NR]; M];
        microkernel_scalar::<M>(a, &staged, kb, &mut expect);
        f32_tile(level, &a, &[&staged], kb, &mut got);
        for i in 0..M {
            for j in 0..NR {
                let e = expect[i][j];
                let g = got[i][j];
                // FMA changes rounding; tolerance scales with kb.
                assert!(
                    (e - g).abs() <= 1e-5 * (kb as f32) * e.abs().max(1.0),
                    "{level:?} M={M} kb={kb} [{i}][{j}]: {e} vs {g}"
                );
            }
        }
    }

    #[test]
    fn detection_is_stable() {
        assert_eq!(simd_level(), simd_level());
    }

    #[test]
    fn avx512_matches_scalar() {
        for kb in [1usize, 3, 17, 256] {
            check_level::<1>(SimdLevel::Avx512, kb, 1);
            check_level::<2>(SimdLevel::Avx512, kb, 2);
            check_level::<4>(SimdLevel::Avx512, kb, 3);
        }
    }

    #[test]
    fn avx2_matches_scalar() {
        for kb in [1usize, 5, 64] {
            check_level::<1>(SimdLevel::Avx2Fma, kb, 4);
            check_level::<3>(SimdLevel::Avx2Fma, kb, 5);
            check_level::<4>(SimdLevel::Avx2Fma, kb, 6);
        }
    }

    #[test]
    fn forced_level_caps_at_detected_and_restores() {
        let detected = simd_level();
        assert_eq!(effective_simd_level(), detected);
        with_forced_simd_level(SimdLevel::Scalar, || {
            assert_eq!(effective_simd_level(), SimdLevel::Scalar);
            with_forced_simd_level(SimdLevel::Avx512, || {
                // Forcing above the host level clamps to detected.
                assert_eq!(effective_simd_level(), SimdLevel::Avx512.min(detected));
            });
            assert_eq!(effective_simd_level(), SimdLevel::Scalar);
        });
        assert_eq!(effective_simd_level(), detected);
    }

    /// Random quantized panel material: codes for `k` K-steps (Int8
    /// layout k*NR bytes, Int4 ceil(k/2)*NR), scales per group row.
    fn quant_fixture(k: usize, group: usize, seed: u64) -> (Vec<f32>, Vec<u8>, Vec<f32>) {
        let mut rng = seeded(seed);
        let mut x = vec![0.0f32; k];
        kt_tensor::rng::fill_uniform(&mut rng, &mut x, 1.0);
        let mut raw = vec![0.0f32; k * NR];
        kt_tensor::rng::fill_uniform(&mut rng, &mut raw, 128.0);
        let bytes: Vec<u8> = raw.iter().map(|&v| v as i32 as u8).collect();
        let groups = k.div_ceil(group);
        let mut scales = vec![0.0f32; groups * NR];
        kt_tensor::rng::fill_uniform(&mut rng, &mut scales, 0.1);
        (x, bytes, scales)
    }

    fn assert_acc_bits_eq(a: &[f32; NR], b: &[f32; NR], what: &str) {
        for j in 0..NR {
            assert_eq!(
                a[j].to_bits(),
                b[j].to_bits(),
                "{what} lane {j}: {} vs {}",
                a[j],
                b[j]
            );
        }
    }

    #[test]
    fn vector_tile_bitwise_matches_scalar_at_every_level() {
        // Every tile shape the dispatcher can pick, against the chain of
        // each (row, panel) computed alone by the scalar reference.
        let (k, n, m) = (48usize, 5 * NR - 3, TILE_ROWS);
        let mut rng = seeded(11);
        let wmat = kt_tensor::Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
        let rows: Vec<Vec<f32>> = (0..m)
            .map(|_| {
                let mut row = vec![0.0f32; k];
                kt_tensor::rng::fill_uniform(&mut rng, &mut row, 1.0);
                row
            })
            .collect();
        for dtype in [
            WeightDtype::F32,
            WeightDtype::Bf16,
            WeightDtype::Int8 { group: 16 },
            WeightDtype::Int4 { group: 8 },
        ] {
            let w = PackedWeights::pack(&wmat, dtype).unwrap();
            let x: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            for level in [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512] {
                if simd_level() < level {
                    continue;
                }
                let mut want = vec![[0.0f32; NR]; m * w.n_panels()];
                if dtype != WeightDtype::F32 {
                    tile_scalar(&x, &w, 0, w.n_panels(), &mut want);
                }
                for (i, row) in x.iter().enumerate() {
                    for p in 0..w.n_panels() {
                        let t = &mut want[i * w.n_panels() + p];
                        match dtype {
                            WeightDtype::F32 if level == SimdLevel::Scalar => {
                                microkernel_scalar::<1>([row], w.panel_f32(p), k, std::array::from_mut(t));
                            }
                            // The SIMD f32 chain is fused: one `mul_add`
                            // per K-step.
                            WeightDtype::F32 => {
                                let panel = w.panel_f32(p);
                                for (kk, &xv) in row.iter().enumerate() {
                                    for j in 0..NR {
                                        t[j] = xv.mul_add(panel[kk * NR + j], t[j]);
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                }
                for mr in 1..=m {
                    for np in 1..=tile_panels(level) {
                        for p0 in 0..=w.n_panels() - np {
                            let mut got = [[f32::NAN; NR]; TILE_ROWS * MAX_TILE_PANELS];
                            vector_tile(level, &x[..mr], &w, p0, np, &mut got);
                            for i in 0..mr {
                                for p in 0..np {
                                    assert_acc_bits_eq(
                                        &want[i * w.n_panels() + p0 + p],
                                        &got[i * np + p],
                                        &format!("{dtype:?} {level:?} {mr}x{np} row {i} panel {}", p0 + p),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn staged_dequant_bitwise_matches_scalar_at_every_level() {
        let k = 64usize;
        let group = 16usize;
        let (x, bytes, scales) = quant_fixture(k, group, 99);
        let panel: Vec<Bf16> = x
            .iter()
            .cycle()
            .take(k * NR)
            .map(|&v| Bf16::from_f32(v))
            .collect();
        for (k0, k1) in [(0usize, k), (16, 48), (8, 24)] {
            let mut want = vec![0.0f32; (k1 - k0) * NR];
            with_forced_simd_level(SimdLevel::Scalar, || {
                stage_int8(&bytes, &scales, group, k0, k1, &mut want)
            });
            for level in [SimdLevel::Avx2Fma, SimdLevel::Avx512] {
                if simd_level() < level {
                    continue;
                }
                let mut got = vec![f32::NAN; (k1 - k0) * NR];
                with_forced_simd_level(level, || {
                    stage_int8(&bytes, &scales, group, k0, k1, &mut got)
                });
                assert!(
                    want.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "stage_int8 {level:?} [{k0},{k1})"
                );
            }

            let mut want4 = vec![0.0f32; (k1 - k0) * NR];
            with_forced_simd_level(SimdLevel::Scalar, || {
                stage_int4(&bytes, &scales, group, k0, k1, &mut want4)
            });
            let mut wantb = vec![0.0f32; (k1 - k0) * NR];
            with_forced_simd_level(SimdLevel::Scalar, || stage_bf16(&panel, k0, k1, &mut wantb));
            for level in [SimdLevel::Avx2Fma, SimdLevel::Avx512] {
                if simd_level() < level {
                    continue;
                }
                let mut got4 = vec![f32::NAN; (k1 - k0) * NR];
                with_forced_simd_level(level, || {
                    stage_int4(&bytes, &scales, group, k0, k1, &mut got4)
                });
                assert!(
                    want4.iter().zip(&got4).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "stage_int4 {level:?} [{k0},{k1})"
                );
                let mut gotb = vec![f32::NAN; (k1 - k0) * NR];
                with_forced_simd_level(level, || stage_bf16(&panel, k0, k1, &mut gotb));
                assert!(
                    wantb.iter().zip(&gotb).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "stage_bf16 {level:?} [{k0},{k1})"
                );
            }
        }
    }
}
