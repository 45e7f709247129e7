//! Branch-free transcendental kernels for the inference hot path.
//!
//! The FFC's LSTM evaluates hundreds of sigmoids and tanhs per vehicle
//! tick. `f64::exp`/`f64::tanh` go through libm: an opaque scalar call
//! with internal branching that the compiler can neither inline nor
//! auto-vectorize, so a batched gate loop over 64 sessions pays 240
//! serial library calls per tick no matter how wide the registers are.
//! This module provides drop-in replacements built from straight-line
//! IEEE arithmetic (multiply, add, divide, compare-select, and exponent
//! bit assembly) with **no data-dependent branches**, so LLVM vectorizes
//! the surrounding panel loops and the batched path evaluates eight
//! lanes per instruction.
//!
//! # One definition, every path
//!
//! The fleet's determinism and batching gates require the streaming
//! scalar path, the batched panel path, and the training-time forward
//! pass to produce `to_bits`-identical results. That holds here for the
//! same reason the GEMM kernels are exact (see [`crate::gemm`]): these
//! functions perform a fixed per-element sequence of individually
//! rounded IEEE operations, and vectorizing that sequence changes which
//! *register* each element sits in, never the arithmetic. The one rule
//! is that every inference path must call **these** functions — mixing
//! `fast_sigmoid` on one path with a libm sigmoid on another would
//! diverge in the low bits. `pidpiper-ml` therefore routes all of its
//! activation call sites (scalar, batched, and BPTT) through this
//! module.
//!
//! # Accuracy and edge cases
//!
//! `exp` uses the standard reduction `x = k·ln2 + r` with `|r| ≤ ln2/2`:
//! `k` is recovered branch-free with the round-to-nearest shifter
//! constant `1.5·2^52`, `r` via a two-term Cody–Waite subtraction, the
//! core `e^r` via an order-11 Horner polynomial (truncation error
//! ~6e-15 relative), and the `2^k` scale is assembled directly in the
//! exponent bits. Relative error is ≲1e-14 across the clamped domain —
//! indistinguishable from libm for the model (whose tolerances are many
//! orders looser) but not bit-equal to it, which is why the swap had to
//! reach every path at once.
//!
//! - Inputs are clamped to the non-overflowing domain (`±708`); beyond it
//!   the functions saturate instead of returning `inf`/`0` — the
//!   saturated activation values are exactly the limits (`1.0`, `±1.0`)
//!   well before the clamp engages.
//! - `NaN` propagates: `clamp` keeps NaN, every polynomial step keeps
//!   NaN, and the final scale multiply keeps NaN. The NaN-burst
//!   bit-identity suite in `pidpiper-ml` leans on this.
//! - `fast_sigmoid` is strictly inside `[0, 1]` and `fast_tanh` inside
//!   `[-1, 1]` (the closed endpoints are reached by rounding at
//!   saturation, as with libm).

// The polynomial and Cody–Waite constants below carry their full
// published precision; truncating to the shortest round-tripping
// literal would parse to the same float but lose the provenance of the
// coefficients against fdlibm and the minimax tables.
#![allow(clippy::excessive_precision)]

/// Round-to-nearest shifter: `1.5 * 2^52`. Adding it to a f64 whose
/// magnitude is below `2^51` forces rounding to an integer; the low
/// mantissa bits of the sum then hold that integer in two's complement.
const SHIFT_F64: f64 = 6_755_399_441_055_744.0;

/// High half of `ln 2` (fdlibm split): exact in the upper bits so that
/// `k * LN2_HI` rounds without error for the `k` range we produce.
const LN2_HI_F64: f64 = 6.931_471_803_691_238_164_9e-1;
/// Low half of `ln 2`; mops up the tail of the Cody–Waite reduction.
const LN2_LO_F64: f64 = 1.908_214_929_270_587_700_02e-10;

/// `exp(x)` as straight-line IEEE arithmetic (relative error ≲ 1e-14).
///
/// Saturates at the edges of `[-708, 708]` instead of under/overflowing
/// and propagates NaN. See the module docs for the derivation and for
/// why every inference path must share this definition.
#[inline(always)]
pub fn fast_exp(x: f64) -> f64 {
    // clamp keeps NaN (self-propagating) and bounds k so the exponent
    // assembly below cannot wrap.
    let x = x.clamp(-708.0, 708.0);
    let shifted = x * std::f64::consts::LOG2_E + SHIFT_F64;
    let k = shifted - SHIFT_F64;
    let r = (x - k * LN2_HI_F64) - k * LN2_LO_F64;
    // e^r on |r| <= ln2/2 ~ 0.3466: order-11 Taylor, Horner form. Each
    // coefficient is 1/n! rounded to nearest.
    let mut p = 2.505_210_838_544_171_9e-8; // 1/11!
    p = p * r + 2.755_731_922_398_589_1e-7; // 1/10!
    p = p * r + 2.755_731_922_398_589_4e-6; // 1/9!
    p = p * r + 2.480_158_730_158_730_2e-5; // 1/8!
    p = p * r + 1.984_126_984_126_984_1e-4; // 1/7!
    p = p * r + 1.388_888_888_888_889_0e-3; // 1/6!
    p = p * r + 8.333_333_333_333_333_0e-3; // 1/5!
    p = p * r + 4.166_666_666_666_666_4e-2; // 1/4!
    p = p * r + 1.666_666_666_666_666_6e-1; // 1/3!
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2^k from the integer hiding in `shifted`'s low mantissa bits:
    // (bits << 52) leaves k in the exponent field (two's complement
    // wrap-around included), and adding the bias 1023<<52 finishes the
    // IEEE encoding. For NaN input the bits are garbage but the final
    // multiply against a NaN polynomial restores NaN.
    let scale = f64::from_bits((shifted.to_bits() << 52).wrapping_add(0x3FF0_0000_0000_0000));
    p * scale
}

/// `1 / (1 + e^(-z))` via [`fast_exp`] — the logistic gate activation.
#[inline(always)]
pub fn fast_sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + fast_exp(-z))
}

/// `tanh(z) = (e^(2z) - 1) / (e^(2z) + 1)` via [`fast_exp`].
///
/// Absolute error ≲ 1e-14; relative error degrades toward `|z| → 0`
/// (the `e^(2z) - 1` subtraction cancels), which is harmless at the
/// model's tolerances. Saturates to exactly `±1.0` for `|z| ≳ 19`.
#[inline(always)]
pub fn fast_tanh(z: f64) -> f64 {
    let t = fast_exp(2.0 * z.clamp(-20.0, 20.0));
    (t - 1.0) / (t + 1.0)
}

macro_rules! slice_kernel {
    ($scalar:ident, $impl_name:ident, $avx2_name:ident, $avx512_name:ident, $pub_name:ident) => {
        #[inline(always)]
        fn $impl_name(xs: &mut [f64]) {
            for v in xs.iter_mut() {
                *v = $scalar(*v);
            }
        }

        /// The portable loop recompiled with AVX2 enabled.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2_name(xs: &mut [f64]) {
            $impl_name(xs)
        }

        /// The portable loop recompiled with AVX-512F enabled.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        fn $avx512_name(xs: &mut [f64]) {
            $impl_name(xs)
        }

        #[doc = concat!(
            "Applies [`", stringify!($scalar), "`] to every element in ",
            "place, routed through the widest vector ISA the running CPU ",
            "supports. Bit-identical to calling the scalar function per ",
            "element (the per-element op sequence is fixed; see the ",
            "module docs), but several times faster on contiguous panel ",
            "rows."
        )]
        #[inline]
        pub fn $pub_name(xs: &mut [f64]) {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the wrapper only requires AVX-512F, which
                    // the runtime check just confirmed on this CPU.
                    return unsafe { $avx512_name(xs) };
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: the wrapper only requires AVX2, which the
                    // runtime check just confirmed on this CPU.
                    return unsafe { $avx2_name(xs) };
                }
            }
            $impl_name(xs)
        }
    };
}

slice_kernel!(
    fast_sigmoid,
    sigmoid_slice_impl, sigmoid_slice_avx2, sigmoid_slice_avx512,
    fast_sigmoid_slice
);
slice_kernel!(
    fast_tanh,
    tanh_slice_impl, tanh_slice_avx2, tanh_slice_avx512,
    fast_tanh_slice
);

/// Applies a slice kernel to rows `rows` of a lane-major panel
/// (`panel[row * width + lane]`), touching only the `active` leading
/// lanes of each row.
///
/// When the batch is full (`active == width`) the rows are contiguous
/// and the kernel runs once over the whole block; ragged batches fall
/// back to one call per row so masked lanes `active..width` are never
/// read or written — the same masking contract as the GEMM kernels.
/// Either shape applies the same per-element ops, so the results are
/// bit-identical.
pub fn apply_rows(
    panel: &mut [f64],
    rows: core::ops::Range<usize>,
    width: usize,
    active: usize,
    kernel: fn(&mut [f64]),
) {
    assert!(active <= width, "active={active} exceeds width={width}");
    if active == width {
        kernel(&mut panel[rows.start * width..rows.end * width]);
    } else {
        for r in rows {
            kernel(&mut panel[r * width..r * width + active]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(lo: f64, hi: f64, steps: usize) -> impl Iterator<Item = f64> {
        let span = hi - lo;
        (0..=steps).map(move |i| lo + span * (i as f64) / (steps as f64))
    }

    #[test]
    fn exp_tracks_libm_to_fourteen_digits() {
        for x in sweep(-700.0, 700.0, 40_000) {
            let got = fast_exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-13, "x={x}: got {got:e}, libm {want:e}, rel {rel:e}");
        }
    }

    #[test]
    fn sigmoid_tracks_libm_and_stays_in_unit_interval() {
        let mut prev = 0.0;
        for z in sweep(-60.0, 60.0, 20_000) {
            let got = fast_sigmoid(z);
            let want = 1.0 / (1.0 + (-z).exp());
            assert!((got - want).abs() < 1e-14, "z={z}: {got} vs {want}");
            assert!((0.0..=1.0).contains(&got), "z={z}: {got} out of [0,1]");
            assert!(got >= prev, "z={z}: sigmoid not monotone");
            prev = got;
        }
        assert_eq!(fast_sigmoid(60.0), 1.0);
        assert!(fast_sigmoid(-60.0) > 0.0);
    }

    #[test]
    fn tanh_tracks_libm_and_saturates_exactly() {
        for z in sweep(-25.0, 25.0, 20_000) {
            let got = fast_tanh(z);
            let want = z.tanh();
            assert!((got - want).abs() < 1e-14, "z={z}: {got} vs {want}");
            assert!((-1.0..=1.0).contains(&got), "z={z}: {got} out of [-1,1]");
        }
        assert_eq!(fast_tanh(20.0), 1.0);
        assert_eq!(fast_tanh(-20.0), -1.0);
        assert_eq!(fast_tanh(0.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn nan_propagates_through_every_kernel() {
        assert!(fast_exp(f64::NAN).is_nan());
        assert!(fast_sigmoid(f64::NAN).is_nan());
        assert!(fast_tanh(f64::NAN).is_nan());
    }

    #[test]
    fn extremes_saturate_instead_of_overflowing() {
        assert!(fast_exp(1e6).is_finite());
        assert!(fast_exp(-1e6) >= 0.0);
        assert_eq!(fast_sigmoid(1e6), 1.0);
        // exp saturates at e^708 ~ 3e307, so the deep-negative logistic
        // bottoms out subnormal-positive rather than at exactly zero.
        let deep = fast_sigmoid(-1e6);
        assert!(deep > 0.0 && deep < 1e-300, "got {deep:e}");
        assert_eq!(fast_tanh(1e6), 1.0);
        assert_eq!(fast_tanh(-1e6), -1.0);
        assert!(fast_exp(f64::INFINITY).is_finite());
        assert!(fast_exp(f64::NEG_INFINITY) >= 0.0);
    }

    #[test]
    fn scalar_and_slice_evaluation_agree_bitwise() {
        // The whole point of the module: evaluating the same inputs
        // one-at-a-time or through the ISA-dispatched slice kernels
        // yields identical bits, because the per-element op sequence is
        // fixed. On an AVX-512 host this exercises the widest path; on
        // older CPUs it degrades to checking the portable loop.
        let inputs: Vec<f64> = sweep(-8.0, 8.0, 257).collect();
        let mut sig = inputs.clone();
        fast_sigmoid_slice(&mut sig);
        let mut tan = inputs.clone();
        fast_tanh_slice(&mut tan);
        for (i, &z) in inputs.iter().enumerate() {
            assert_eq!(sig[i].to_bits(), fast_sigmoid(z).to_bits());
            assert_eq!(tan[i].to_bits(), fast_tanh(z).to_bits());
        }
    }
}
