//! Property tests for the vector (GEMV) kernel across weight dtypes and
//! the quantized checkpoint round-trip.
//!
//! The serving contract of the vector kernel is **bitwise** tile-shape
//! and SIMD-level independence: for every batch size, panel count,
//! group size, reduction length and forced SIMD level, each (row,
//! panel) output must be exactly the bytes of that row and panel
//! computed alone by the scalar golden reference (same widen, one IEEE
//! scale multiply, one correctly-rounded FMA per K-step, ascending
//! order). That property is what keeps chunked prefill bitwise-identical
//! to monolithic prefill on quantized models regardless of which
//! microkernel the dispatcher picks, and a row's logits independent of
//! the rows batched with it.
//!
//! The round-trip property pins the checkpoint format: pack →
//! write_to → read_from must reproduce the packed payload exactly
//! (same panel bytes, scales and stored size), so a model loaded from
//! disk serves bit-identical logits to the freshly packed one.

use kt_kernels::gemm::{gemm_rowwise, gemv_vector};
use kt_kernels::simd::{
    self, gemv_bf16_scalar, gemv_int4_scalar, gemv_int8_scalar, microkernel_scalar,
    with_forced_simd_level,
};
use kt_kernels::SimdLevel;
use kt_tensor::rng::seeded;
use kt_tensor::{Matrix, PackedWeights, WeightDtype, NR};
use proptest::prelude::*;

const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512];

/// A random matrix packed at `dtype`, plus `m` random input rows.
fn packed_fixture(n: usize, k: usize, m: usize, dtype: WeightDtype, seed: u64) -> (PackedWeights, Matrix) {
    let mut rng = seeded(seed);
    let w = Matrix::random_uniform(n, k, 1.0, &mut rng).expect("weights");
    let packed = PackedWeights::pack(&w, dtype).expect("pack");
    let x = Matrix::random_uniform(m, k, 1.0, &mut rng).expect("inputs");
    (packed, x)
}

/// Dequantized matvec on the unpacked weights (independent reference;
/// plain mul/add, so compared with a tolerance, not bitwise).
fn unpacked_matvec(packed: &PackedWeights, x: &[f32]) -> Vec<f32> {
    let w = packed.unpack();
    (0..packed.n())
        .map(|r| {
            w.row(r)
                .iter()
                .zip(x)
                .map(|(&wv, &xv)| wv as f64 * xv as f64)
                .sum::<f64>() as f32
        })
        .collect()
}

/// The chain of row `x` against panel `p` computed alone at `level`:
/// the scalar golden reference of the dtype. F32 is the one dtype whose
/// scalar kernel (`microkernel_scalar`, unfused `acc += x * w`) differs
/// from its SIMD kernels, which run a correctly-rounded FMA per K-step.
fn reference_chain(x: &[f32], packed: &PackedWeights, p: usize, level: SimdLevel) -> [f32; NR] {
    let mut acc = [0.0f32; NR];
    match packed.dtype() {
        WeightDtype::F32 if level == SimdLevel::Scalar => {
            microkernel_scalar::<1>([x], packed.panel_f32(p), x.len(), std::array::from_mut(&mut acc));
        }
        WeightDtype::F32 => {
            let panel = packed.panel_f32(p);
            for (kk, &xv) in x.iter().enumerate() {
                for (j, a) in acc.iter_mut().enumerate() {
                    *a = xv.mul_add(panel[kk * NR + j], *a);
                }
            }
        }
        WeightDtype::Bf16 => gemv_bf16_scalar(x, packed.panel_bf16(p), &mut acc),
        WeightDtype::Int8 { group } => gemv_int8_scalar(
            x, packed.panel_bytes(p), packed.panel_scales(p), group, &mut acc,
        ),
        WeightDtype::Int4 { group } => gemv_int4_scalar(
            x, packed.panel_bytes(p), packed.panel_scales(p), group, &mut acc,
        ),
    }
    acc
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At every forced SIMD level and for every dtype, each (row, panel)
    /// output of the register-blocked vector kernel — batches of 1 to 9
    /// rows (crossing the 4-row tile), panel counts that are not a
    /// multiple of the tile width, `n % 16 != 0` — is exactly the bytes
    /// of that row and panel computed alone by the scalar reference,
    /// and the quantized dtypes' bytes do not depend on the level. The
    /// result tracks the unpacked-weight matvec within rounding error.
    #[test]
    fn fused_dequant_gemv_is_bitwise_simd_level_independent(
        seed in 0u64..1_000,
        n in 1usize..120,
        m in 1usize..10,
        group_sel in 0usize..3,
        mult in 1usize..5,
        which in 0usize..4,
    ) {
        let group = [8usize, 16, 32][group_sel];
        let k = group * mult;
        let dtype = match which {
            0 => WeightDtype::F32,
            1 => WeightDtype::Bf16,
            2 => WeightDtype::Int8 { group },
            _ => WeightDtype::Int4 { group },
        };
        let (packed, x) = packed_fixture(n, k, m, dtype, seed);

        for level in LEVELS {
            let level = level.min(simd::simd_level());
            let mut out = Matrix::zeros(m, n).expect("out");
            let mut y = vec![f32::NAN; n];
            with_forced_simd_level(level, || {
                gemm_rowwise(&x, &packed, &mut out, None).expect("rowwise");
                gemv_vector(x.row(0), &packed, &mut y, None).expect("gemv");
            });
            prop_assert_eq!(bits(&y), bits(out.row(0)), "gemv_vector vs row 0 at {:?}", level);
            for i in 0..m {
                for p in 0..packed.n_panels() {
                    let cols = p * NR..((p + 1) * NR).min(n);
                    let want = reference_chain(x.row(i), &packed, p, level);
                    prop_assert_eq!(
                        bits(&want[..cols.len()]), bits(&out.row(i)[cols]),
                        "row {} panel {} diverged from scalar at {:?} ({:?}, m={})",
                        i, p, level, dtype, m
                    );
                }
            }
        }

        // Semantic cross-check against the unpacked weights.
        let mut out = Matrix::zeros(m, n).expect("out");
        gemm_rowwise(&x, &packed, &mut out, None).expect("rowwise");
        for i in 0..m {
            let reference = unpacked_matvec(&packed, x.row(i));
            for (r, &got) in out.row(i).iter().enumerate() {
                let err = (got as f64 - reference[r] as f64).abs();
                let tol = 1e-4 * (1.0 + reference[r].abs() as f64) * k as f64;
                prop_assert!(
                    err <= tol,
                    "row {} col {} off by {} (got {}, want {})", i, r, err, got, reference[r]
                );
            }
        }
    }

    /// Staged dequantization (the tiled-GEMM path) is bitwise
    /// SIMD-level independent over arbitrary `[k0, k1)` windows.
    #[test]
    fn staged_dequant_is_bitwise_simd_level_independent(
        seed in 0u64..1_000,
        group_sel in 0usize..3,
        mult in 1usize..5,
        cut_a in 0usize..160,
        cut_b in 0usize..160,
        which in 0usize..3,
    ) {
        let group = [8usize, 16, 32][group_sel];
        let k = group * mult;
        let (k0, k1) = {
            let a = cut_a % (k + 1);
            let b = cut_b % (k + 1);
            (a.min(b), a.max(b))
        };
        let dtype = match which {
            0 => WeightDtype::Bf16,
            1 => WeightDtype::Int8 { group },
            _ => WeightDtype::Int4 { group },
        };
        let (packed, _x) = packed_fixture(20, k, 1, dtype, seed);

        for p in 0..packed.n_panels() {
            let mut want = vec![f32::NAN; (k1 - k0) * NR];
            with_forced_simd_level(SimdLevel::Scalar, || match dtype {
                WeightDtype::Bf16 => simd::stage_bf16(packed.panel_bf16(p), k0, k1, &mut want),
                WeightDtype::Int8 { group } => simd::stage_int8(
                    packed.panel_bytes(p), packed.panel_scales(p), group, k0, k1, &mut want,
                ),
                WeightDtype::Int4 { group } => simd::stage_int4(
                    packed.panel_bytes(p), packed.panel_scales(p), group, k0, k1, &mut want,
                ),
                WeightDtype::F32 => unreachable!(),
            });
            for level in LEVELS {
                let mut buf = vec![f32::NAN; (k1 - k0) * NR];
                with_forced_simd_level(level, || match dtype {
                    WeightDtype::Bf16 => simd::stage_bf16(packed.panel_bf16(p), k0, k1, &mut buf),
                    WeightDtype::Int8 { group } => simd::stage_int8(
                        packed.panel_bytes(p), packed.panel_scales(p), group, k0, k1, &mut buf,
                    ),
                    WeightDtype::Int4 { group } => simd::stage_int4(
                        packed.panel_bytes(p), packed.panel_scales(p), group, k0, k1, &mut buf,
                    ),
                    WeightDtype::F32 => unreachable!(),
                });
                let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let buf_bits: Vec<u32> = buf.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(
                    &want_bits, &buf_bits,
                    "stage window [{}, {}) diverged at {:?} ({:?})", k0, k1, level, dtype
                );
            }
        }
    }

    /// The checkpoint round-trip of quantized weights is exact: the
    /// reloaded `PackedWeights` has the same dtype, shape, stored
    /// size, panel payloads and scales — and therefore serves bitwise
    /// the same GEMV results.
    #[test]
    fn quantized_checkpoint_roundtrip_is_exact(
        seed in 0u64..1_000,
        n in 1usize..40,
        group_sel in 0usize..3,
        mult in 1usize..5,
        which in 0usize..4,
    ) {
        let group = [8usize, 16, 32][group_sel];
        let k = group * mult;
        let dtype = match which {
            0 => WeightDtype::F32,
            1 => WeightDtype::Bf16,
            2 => WeightDtype::Int8 { group },
            _ => WeightDtype::Int4 { group },
        };
        let (packed, x) = packed_fixture(n, k, 1, dtype, seed);

        let mut blob = Vec::new();
        packed.write_to(&mut blob).expect("serialize");
        let reloaded = PackedWeights::read_from(&mut blob.as_slice()).expect("deserialize");

        prop_assert_eq!(reloaded.dtype(), packed.dtype());
        prop_assert_eq!(reloaded.n(), packed.n());
        prop_assert_eq!(reloaded.k(), packed.k());
        prop_assert_eq!(reloaded.stored_bytes(), packed.stored_bytes());
        for p in 0..packed.n_panels() {
            prop_assert_eq!(reloaded.panel_bytes(p), packed.panel_bytes(p), "panel {} payload", p);
            prop_assert_eq!(reloaded.panel_scales(p), packed.panel_scales(p), "panel {} scales", p);
        }

        // The reloaded weights serve the same bits.
        let mut a = vec![0.0f32; n];
        let mut b = vec![0.0f32; n];
        gemv_vector(x.row(0), &packed, &mut a, None).expect("gemv");
        gemv_vector(x.row(0), &reloaded, &mut b, None).expect("gemv");
        prop_assert_eq!(bits(&a), bits(&b));
    }
}
