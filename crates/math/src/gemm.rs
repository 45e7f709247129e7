//! Cache-blocked matrix–matrix micro-kernels for batched FFC inference.
//!
//! The streaming inference path (`pidpiper-ml`) computes one matrix–vector
//! product per session per layer. At fleet scale thousands of sessions
//! share the same weights, so the batched path gathers their input vectors
//! into a column-major *panel* (`x[j * x_stride + lane]`: feature `j` of
//! lane/session `lane`) and computes all columns in one sweep over the
//! weight rows. Each weight element is then loaded once per [`LANES`]
//! sessions instead of once per session, which is where the batched
//! speedup comes from.
//!
//! # Bit-identity contract
//!
//! These kernels are *op-order preserving*: for every output element
//! `(r, c)` the products `a[r][j] * x[j][c]` are summed left to right
//! (ascending `j`) into one scalar accumulator, and the bias (if any) is
//! added exactly once after the sweep — the same shape as
//! `Param::matvec_into` (`acc = Σ w·x; out[r] += acc`) and the fused LSTM
//! step (`z = (bias + w·x) + u·h`, realised here as [`gemm_bias`] for the
//! `w·x` pass followed by [`gemm_acc`] for the `u·h` pass: the two
//! accumulators of the reference reduction). The `k` dimension is **never
//! tiled or split** — that would reassociate the sum and break `to_bits`
//! equality with the per-session path. Columns are blocked [`LANES`] at a
//! time and rows [`ROW_BLOCK`] at a time purely for instruction-level
//! parallelism: every `(r, c)` accumulator is still its own serial chain
//! over `j`, so blocking changes no f64 operation — it only gives the CPU
//! `ROW_BLOCK` independent chains to overlap the FP-add latency with (a
//! single chain caps the whole kernel at one vector-add per ~4 cycles).
//! Remainder rows (`m % ROW_BLOCK`) run one chain, remainder columns
//! (`n % LANES`) one scalar accumulator per column — slower, still
//! bit-identical.
//!
//! Rust does not contract `a * b + c` into a fused multiply-add without an
//! explicit `mul_add`, so the kernels round after every multiply and every
//! add, exactly like the scalar path. That also makes the ISA dispatch
//! below safe: AVX2/AVX-512 lanes perform the same individually-rounded
//! IEEE multiply and add as the scalar baseline, so every path returns the
//! same bits — a property `generic_and_dispatched_paths_agree_bitwise`
//! pins on whatever hardware the tests run on.
//!
//! # Runtime ISA dispatch
//!
//! The portable body is compiled three times on `x86_64` — baseline,
//! `avx2`, `avx512f` — and the public entry points select the widest
//! variant the running CPU supports (`is_x86_feature_detected!`). The
//! crate keeps its safety story trivial: the `unsafe` blocks below are
//! *only* the feature-gated calls, each guarded by the corresponding
//! runtime check, and the kernel bodies themselves are ordinary safe Rust.
//!
//! All kernels take explicit row strides (`lda`, `x_stride`, `out_stride`)
//! so a panel allocated for a capacity-`B` batch can process any
//! `n <= B` active columns in place; columns `n..B` are simply never read
//! or written (masked lanes).

/// Column-block width of the micro-kernels.
///
/// Eight f64 lanes span one 512-bit or two 256-bit vector registers; the
/// accumulator tile fits in registers on every target we care about, and
/// the remainder loop handles `n % LANES` columns scalar-wise.
pub const LANES: usize = 8;

/// Row-block height: independent accumulator chains per column block.
///
/// Four rows × [`LANES`] lanes is 32 accumulators — four 512-bit (or
/// eight 256-bit) registers, enough in-flight FP-add chains to hide the
/// ~4-cycle add latency without spilling on AVX2's 16-register file.
pub const ROW_BLOCK: usize = 4;

/// A [`LANES`]-wide view starting at `base`, as a fixed-size array
/// reference. The array type carries the length into the loop bodies, so
/// LLVM sees constant-trip-count lane loops (one bounds check here, none
/// inside) and vectorizes them; a plain sub-slice leaves a length the
/// optimizer must re-prove at every use.
#[inline(always)]
fn lanes<T>(s: &[T], base: usize) -> &[T; LANES] {
    s[base..base + LANES].try_into().expect("LANES-wide view")
}

/// Mutable counterpart of [`lanes`].
#[inline(always)]
fn lanes_mut<T>(s: &mut [T], base: usize) -> &mut [T; LANES] {
    (&mut s[base..base + LANES]).try_into().expect("LANES-wide view")
}

/// Portable kernel body (monomorphic, `#[inline(always)]` so the
/// feature-gated wrappers recompile it under their ISA). `bias`
/// selects the store flavour: `Some` writes `bias[r] + acc`,
/// `None` performs `out += acc` — both a single rounding step, as
/// the reference reductions require.
#[allow(clippy::too_many_arguments)] // a GEMM is its shape; a config struct would just rename the arguments
#[inline(always)]
fn gemm_impl(
    a: &[f64],
    lda: usize,
    m: usize,
    k: usize,
    bias: Option<&[f64]>,
    x: &[f64],
    x_stride: usize,
    out: &mut [f64],
    out_stride: usize,
    n: usize,
) {
    let mut cc = 0;
    // Quad-width column tiles first: 4 rows x 32 lanes keeps 16
    // accumulator vectors in flight (fits AVX-512's 32-register
    // file), amortizes the four weight broadcasts over 128 MACs
    // per `j`, and sweeps the weight rows a quarter as often per
    // active column.
    while cc + 4 * LANES <= n {
        let mut r = 0;
        while r + ROW_BLOCK <= m {
            let (b0, b1) = (r * lda, (r + 1) * lda);
            let (b2, b3) = ((r + 2) * lda, (r + 3) * lda);
            let r0 = &a[b0..b0 + k];
            let r1 = &a[b1..b1 + k];
            let r2 = &a[b2..b2 + k];
            let r3 = &a[b3..b3 + k];
            let mut acc = [[0.0; LANES]; 16];
            for j in 0..k {
                let base = j * x_stride + cc;
                let (w0, w1, w2, w3) = (r0[j], r1[j], r2[j], r3[j]);
                for q in 0..4 {
                    let xq = lanes(x, base + q * LANES);
                    for l in 0..LANES {
                        acc[4 * q][l] += w0 * xq[l];
                        acc[4 * q + 1][l] += w1 * xq[l];
                        acc[4 * q + 2][l] += w2 * xq[l];
                        acc[4 * q + 3][l] += w3 * xq[l];
                    }
                }
            }
            for q in 0..4 {
                for i in 0..ROW_BLOCK {
                    let o = lanes_mut(out, (r + i) * out_stride + cc + q * LANES);
                    let av = &acc[4 * q + i];
                    match bias {
                        Some(b) => {
                            let br = b[r + i];
                            for l in 0..LANES {
                                o[l] = br + av[l];
                            }
                        }
                        None => {
                            for l in 0..LANES {
                                o[l] += av[l];
                            }
                        }
                    }
                }
            }
            r += ROW_BLOCK;
        }
        while r < m {
            let row = &a[r * lda..r * lda + k];
            let mut acc = [[0.0; LANES]; 4];
            for (j, &w) in row.iter().enumerate() {
                let base = j * x_stride + cc;
                for (q, av) in acc.iter_mut().enumerate() {
                    let xq = lanes(x, base + q * LANES);
                    for l in 0..LANES {
                        av[l] += w * xq[l];
                    }
                }
            }
            for (q, av) in acc.iter().enumerate() {
                let o = lanes_mut(out, r * out_stride + cc + q * LANES);
                match bias {
                    Some(b) => {
                        let br = b[r];
                        for (o_l, &a_l) in o.iter_mut().zip(av) {
                            *o_l = br + a_l;
                        }
                    }
                    None => {
                        for (o_l, &a_l) in o.iter_mut().zip(av) {
                            *o_l += a_l;
                        }
                    }
                }
            }
            r += 1;
        }
        cc += 4 * LANES;
    }
    // Single-width column tile for a remaining LANES-wide block.
    while cc + LANES <= n {
        let mut r = 0;
        while r + ROW_BLOCK <= m {
            let (b0, b1) = (r * lda, (r + 1) * lda);
            let (b2, b3) = ((r + 2) * lda, (r + 3) * lda);
            let r0 = &a[b0..b0 + k];
            let r1 = &a[b1..b1 + k];
            let r2 = &a[b2..b2 + k];
            let r3 = &a[b3..b3 + k];
            let mut acc0 = [0.0; LANES];
            let mut acc1 = [0.0; LANES];
            let mut acc2 = [0.0; LANES];
            let mut acc3 = [0.0; LANES];
            for j in 0..k {
                let xr = lanes(x, j * x_stride + cc);
                let (w0, w1, w2, w3) = (r0[j], r1[j], r2[j], r3[j]);
                for l in 0..LANES {
                    acc0[l] += w0 * xr[l];
                    acc1[l] += w1 * xr[l];
                    acc2[l] += w2 * xr[l];
                    acc3[l] += w3 * xr[l];
                }
            }
            for (i, acc) in [&acc0, &acc1, &acc2, &acc3].into_iter().enumerate() {
                let o = lanes_mut(out, (r + i) * out_stride + cc);
                match bias {
                    Some(b) => {
                        let br = b[r + i];
                        for l in 0..LANES {
                            o[l] = br + acc[l];
                        }
                    }
                    None => {
                        for l in 0..LANES {
                            o[l] += acc[l];
                        }
                    }
                }
            }
            r += ROW_BLOCK;
        }
        while r < m {
            let row = &a[r * lda..r * lda + k];
            let mut acc = [0.0; LANES];
            for (j, &w) in row.iter().enumerate() {
                let xr = lanes(x, j * x_stride + cc);
                for (a_l, &x_l) in acc.iter_mut().zip(xr) {
                    *a_l += w * x_l;
                }
            }
            let o = lanes_mut(out, r * out_stride + cc);
            match bias {
                Some(b) => {
                    let br = b[r];
                    for (o_l, &a_l) in o.iter_mut().zip(&acc) {
                        *o_l = br + a_l;
                    }
                }
                None => {
                    for (o_l, &a_l) in o.iter_mut().zip(&acc) {
                        *o_l += a_l;
                    }
                }
            }
            r += 1;
        }
        cc += LANES;
    }
    // Scalar remainder columns (n % LANES).
    for c in cc..n {
        for r in 0..m {
            let row = &a[r * lda..r * lda + k];
            let mut acc = 0.0;
            for (j, &w) in row.iter().enumerate() {
                acc += w * x[j * x_stride + c];
            }
            match bias {
                Some(b) => out[r * out_stride + c] = b[r] + acc,
                None => out[r * out_stride + c] += acc,
            }
        }
    }
}

/// The portable body recompiled with AVX2 enabled (same IEEE ops,
/// wider registers).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn gemm_avx2(
    a: &[f64],
    lda: usize,
    m: usize,
    k: usize,
    bias: Option<&[f64]>,
    x: &[f64],
    x_stride: usize,
    out: &mut [f64],
    out_stride: usize,
    n: usize,
) {
    gemm_impl(a, lda, m, k, bias, x, x_stride, out, out_stride, n)
}

/// The portable body recompiled with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn gemm_avx512(
    a: &[f64],
    lda: usize,
    m: usize,
    k: usize,
    bias: Option<&[f64]>,
    x: &[f64],
    x_stride: usize,
    out: &mut [f64],
    out_stride: usize,
    n: usize,
) {
    gemm_impl(a, lda, m, k, bias, x, x_stride, out, out_stride, n)
}

/// Selects the widest ISA variant the running CPU supports.
#[allow(clippy::too_many_arguments)]
fn gemm_dispatch(
    a: &[f64],
    lda: usize,
    m: usize,
    k: usize,
    bias: Option<&[f64]>,
    x: &[f64],
    x_stride: usize,
    out: &mut [f64],
    out_stride: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f wrapper only requires the
            // AVX-512F target feature, which the runtime check
            // just confirmed on this CPU.
            return unsafe {
                gemm_avx512(a, lda, m, k, bias, x, x_stride, out, out_stride, n)
            };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the avx2 wrapper only requires the AVX2
            // target feature, which the runtime check just
            // confirmed on this CPU.
            return unsafe {
                gemm_avx2(a, lda, m, k, bias, x, x_stride, out, out_stride, n)
            };
        }
    }
    gemm_impl(a, lda, m, k, bias, x, x_stride, out, out_stride, n)
}

/// Panel product with bias preload: for every `r < m`, `c < n` sets
/// `out[r * out_stride + c] = bias[r] + Σ_j a[r * lda + j] * x[j * x_stride + c]`
/// (ascending `j`, one accumulator per element — see the module docs for
/// the bit-identity argument).
///
/// # Panics
///
/// Panics if any slice is too short for the requested shape or if
/// `n` exceeds `x_stride` / `out_stride`.
#[allow(clippy::too_many_arguments)] // a GEMM is its shape; a config struct would just rename the arguments
pub fn gemm_bias(
    a: &[f64],
    lda: usize,
    m: usize,
    k: usize,
    bias: &[f64],
    x: &[f64],
    x_stride: usize,
    out: &mut [f64],
    out_stride: usize,
    n: usize,
) {
    check_shapes(a.len(), lda, m, k, x.len(), x_stride, out.len(), out_stride, n);
    assert!(bias.len() >= m, "bias too short: {} < {m}", bias.len());
    gemm_dispatch(a, lda, m, k, Some(bias), x, x_stride, out, out_stride, n)
}

/// Accumulating panel product: for every `r < m`, `c < n` performs
/// `out[r * out_stride + c] += Σ_j a[r * lda + j] * x[j * x_stride + c]`
/// (ascending `j`, one accumulator per element, added to `out` in a single
/// `+=` — the second accumulator of the fused-LSTM reduction).
///
/// # Panics
///
/// Panics if any slice is too short for the requested shape or if
/// `n` exceeds `x_stride` / `out_stride`.
#[allow(clippy::too_many_arguments)] // a GEMM is its shape; a config struct would just rename the arguments
pub fn gemm_acc(
    a: &[f64],
    lda: usize,
    m: usize,
    k: usize,
    x: &[f64],
    x_stride: usize,
    out: &mut [f64],
    out_stride: usize,
    n: usize,
) {
    check_shapes(a.len(), lda, m, k, x.len(), x_stride, out.len(), out_stride, n);
    gemm_dispatch(a, lda, m, k, None, x, x_stride, out, out_stride, n)
}

/// Shared bounds checks: `a` must hold `m` rows of `k` at stride `lda`,
/// `x` must hold `k` panel rows at `x_stride`, `out` must hold `m` panel
/// rows at `out_stride`, and `n` active columns must fit both strides.
/// The final row of each panel may be truncated after its `n` active
/// columns, so column-offset sub-panel views (`&panel[off..]`) are
/// valid inputs as long as the active width still fits.
#[allow(clippy::too_many_arguments)] // mirrors the kernel signatures it validates
fn check_shapes(
    a_len: usize,
    lda: usize,
    m: usize,
    k: usize,
    x_len: usize,
    x_stride: usize,
    out_len: usize,
    out_stride: usize,
    n: usize,
) {
    assert!(lda >= k, "row stride lda={lda} shorter than k={k}");
    assert!(n <= x_stride, "n={n} exceeds x_stride={x_stride}");
    assert!(n <= out_stride, "n={n} exceeds out_stride={out_stride}");
    if m > 0 && k > 0 {
        assert!(
            a_len >= (m - 1) * lda + k,
            "a too short: {a_len} < {}",
            (m - 1) * lda + k
        );
    }
    if k > 0 && n > 0 {
        assert!(
            x_len >= (k - 1) * x_stride + n,
            "x too short: {x_len} < {}",
            (k - 1) * x_stride + n
        );
    }
    if m > 0 && n > 0 {
        assert!(
            out_len >= (m - 1) * out_stride + n,
            "out too short: {out_len} < {}",
            (m - 1) * out_stride + n
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference: `Param::matvec_into`'s op order per column.
    fn matvec_ref(a: &[f64], lda: usize, m: usize, k: usize, x_col: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|r| {
                let mut acc = 0.0;
                for (j, xv) in x_col.iter().enumerate().take(k) {
                    acc += a[r * lda + j] * xv;
                }
                acc
            })
            .collect()
    }

    fn fill(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn gemm_bias_matches_per_column_matvec_bitwise() {
        // Exercise lane-multiple, remainder, and singleton widths, with
        // row counts straddling the ROW_BLOCK tiles.
        for &n in &[1usize, 7, 8, 9, 24, 61] {
            for &m in &[1usize, 3, 4, 5, 8, 11] {
                let (k, lda) = (11usize, 13usize); // lda > k: fused-row sub-view
                let stride = n + 3; // panel wider than the active width
                let a = fill(1, m * lda);
                let bias = fill(2, m);
                let x = fill(3, k * stride);
                let mut out = vec![f64::NAN; m * stride];
                gemm_bias(&a, lda, m, k, &bias, &x, stride, &mut out, stride, n);
                for c in 0..n {
                    let col: Vec<f64> = (0..k).map(|j| x[j * stride + c]).collect();
                    let want = matvec_ref(&a, lda, m, k, &col);
                    for r in 0..m {
                        let got = out[r * stride + c];
                        let expect = bias[r] + want[r];
                        assert_eq!(got.to_bits(), expect.to_bits(), "n={n} m={m} r={r} c={c}");
                    }
                }
                // Masked lanes beyond n stay untouched.
                for r in 0..m {
                    for c in n..stride {
                        assert!(out[r * stride + c].is_nan(), "lane {c} written at n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_acc_accumulates_on_existing_out_bitwise() {
        let (m, k, n) = (6usize, 9usize, 17usize);
        let a = fill(4, m * k);
        let x = fill(5, k * n);
        let base = fill(6, m * n);
        let mut out = base.clone();
        gemm_acc(&a, k, m, k, &x, n, &mut out, n, n);
        for c in 0..n {
            let col: Vec<f64> = (0..k).map(|j| x[j * n + c]).collect();
            let want = matvec_ref(&a, k, m, k, &col);
            for r in 0..m {
                let expect = base[r * n + c] + want[r];
                assert_eq!(out[r * n + c].to_bits(), expect.to_bits(), "r={r} c={c}");
            }
        }
    }

    #[test]
    fn two_pass_bias_then_acc_matches_fused_lstm_reduction() {
        // (bias + w·x) + u·h with two accumulators, per column.
        let (m, kw, ku, n) = (8usize, 6usize, 8usize, 10usize);
        let lda = kw + ku; // fused rows [w_row | u_row]
        let rows = fill(7, m * lda);
        let bias = fill(8, m);
        let xp = fill(9, kw * n);
        let hp = fill(10, ku * n);
        let mut out = vec![0.0; m * n];
        gemm_bias(&rows, lda, m, kw, &bias, &xp, n, &mut out, n, n);
        gemm_acc(&rows[kw..], lda, m, ku, &hp, n, &mut out, n, n);
        for c in 0..n {
            for r in 0..m {
                let row = &rows[r * lda..(r + 1) * lda];
                let (wx, uh) = row.split_at(kw);
                let mut acc = 0.0;
                for (j, w) in wx.iter().enumerate() {
                    acc += w * xp[j * n + c];
                }
                let mut z = bias[r] + acc;
                let mut acc = 0.0;
                for (j, w) in uh.iter().enumerate() {
                    acc += w * hp[j * n + c];
                }
                z += acc;
                assert_eq!(out[r * n + c].to_bits(), z.to_bits(), "r={r} c={c}");
            }
        }
    }

    #[test]
    fn generic_and_dispatched_paths_agree_bitwise() {
        // The public entry points may route through AVX2/AVX-512 on this
        // machine; their output must match the portable body exactly.
        let (m, k, n) = (9usize, 14usize, 19usize);
        let a = fill(20, m * k);
        let bias = fill(21, m);
        let x = fill(22, k * n);
        let mut dispatched = vec![0.0; m * n];
        let mut portable = vec![0.0; m * n];
        gemm_bias(&a, k, m, k, &bias, &x, n, &mut dispatched, n, n);
        gemm_impl(&a, k, m, k, Some(&bias), &x, n, &mut portable, n, n);
        for (d, p) in dispatched.iter().zip(&portable) {
            assert_eq!(d.to_bits(), p.to_bits());
        }
        gemm_acc(&a, k, m, k, &x, n, &mut dispatched, n, n);
        gemm_impl(&a, k, m, k, None, &x, n, &mut portable, n, n);
        for (d, p) in dispatched.iter().zip(&portable) {
            assert_eq!(d.to_bits(), p.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds x_stride")]
    fn rejects_active_width_beyond_panel_stride() {
        let a = vec![0.0; 4];
        let x = vec![0.0; 4];
        let mut out = vec![0.0; 4];
        gemm_acc(&a, 2, 2, 2, &x, 2, &mut out, 4, 3);
    }
}
