//! Int8 GEMM with f32 accumulate: `i8 × i8 → i32 → f32`.
//!
//! Both operands are quantized per tensor with the codec's `QuantQ8` affine
//! format (`crate::ops::quant`, 256 levels, `scale = (max − min)/255`), the
//! level indices are centered to `i8` range (`q − 128`, widened to `i16` so
//! the inner loop needs no sign-extension work), and the product is an
//! **exact** integer dot accumulated in `i32` plus a closed-form affine
//! correction applied once per output element:
//!
//! ```text
//! â[i][t] = minA' + sA·qa[i][t]        (minA' = minA + 128·sA)
//! b̂[t][j] = minB' + sB·qb[t][j]
//! Σt â·b̂ = sA·sB·dot[i][j] + sA·minB'·rowsum(qa[i]) + sB·minA'·colsum(qb[j])
//!          + k·minA'·minB'
//! ```
//!
//! `rowsum`/`colsum` are precomputed in `i32`; the correction is combined
//! in `f64` and rounded once into the `f32` output. Because every term is
//! integer arithmetic or a fixed scalar expression, the result is exactly
//! reproducible for any thread count and any row partition — the int8 path
//! is *trivially* deterministic, with none of the FP-ordering care the f32
//! kernels need.
//!
//! All three layouts (`nn`/`nt`/`tn`) are normalized to one shape before
//! the kernel runs: the A operand as row-major `[m, k]` and the B operand
//! as row-major `[n, k]` (transposing whichever operand needs it, once,
//! before the row partition forks). Every output element is then one
//! contiguous·contiguous `i16` dot — the form LLVM turns into `vpmaddwd`
//! under AVX2, which measures ~2× the broadcast-style integer tile on the
//! same host. Integer accumulation is order-free, so the normalization
//! cannot change results.
//!
//! The error versus the f32 product is the codec's per-element `scale/2`
//! quantization bound accumulated over the contraction (property-tested in
//! `tests/properties.rs`). That is wrong for training, and it measured
//! slower than the dispatched f32 kernels on whole runs, which is why no
//! layer engages `ComputeFormat::Int8`: only an explicit `gemm_*_with`
//! call reaches this module.
//!
//! Overflow: centered levels are in `[-128, 127]`, so `|qa·qb| ≤ 16384` and
//! an `i32` accumulator is exact for `k ≤ 131071` — far beyond any layer in
//! the model zoo; debug-asserted at entry.

use super::row_partitioned;
use crate::ops::quant::{quant_range, quantize, Q8_LEVELS};

/// Largest contraction dimension the `i32` accumulator is exact for.
const K_MAX: usize = (i32::MAX / (128 * 128)) as usize;

/// Centered level offset: level indices `0..=255` shift to `-128..=127`.
const CENTER: i32 = 128;

/// One operand, quantized: centered levels plus the affine params needed
/// for the correction terms.
struct QuantMat {
    /// Centered level indices `q − 128`, one per source element, in the
    /// source layout. `i16` so the kernels widen cheaply to `i32`.
    q: Vec<i16>,
    /// Centered minimum `min + 128·scale` (f64 for the correction math).
    min_c: f64,
    /// Quantization step.
    scale: f64,
}

/// Quantize a whole operand. Dispatches to a lane-blocked AVX2-compiled
/// body when the host supports it (the scalar `quantize` call chain does
/// not vectorize under the baseline target, and operand quantization is a
/// measurable fraction of a 256³ int8 GEMM); both bodies produce
/// value-identical `(q, min, scale)`.
fn quantize_mat(data: &[f32]) -> QuantMat {
    #[cfg(target_arch = "x86_64")]
    if super::vector::available() {
        // SAFETY: gated on runtime AVX2 detection.
        let (q, min, scale) = unsafe { quantize_levels_avx2(data) };
        return QuantMat {
            q,
            min_c: f64::from(min) + f64::from(CENTER) * f64::from(scale),
            scale: f64::from(scale),
        };
    }
    let (min, scale) = quant_range(data, Q8_LEVELS);
    let q = data
        .iter()
        .map(|&v| (quantize(v, min, scale, Q8_LEVELS) as i32 - CENTER) as i16)
        .collect();
    QuantMat {
        q,
        min_c: f64::from(min) + f64::from(CENTER) * f64::from(scale),
        scale: f64::from(scale),
    }
}

/// Lane-blocked fused `quant_range` + `quantize` loop, compiled with AVX2
/// enabled so the divide/round/clamp chain vectorizes.
///
/// Value-identical to the scalar path: min/max over a multiset do not
/// depend on visit order (up to the sign of an IEEE zero, which the level
/// arithmetic cannot observe), and the per-element level expression is the
/// same `((v − min)/scale).round().clamp(..)` as [`quantize`].
///
/// # Safety
/// The caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_levels_avx2(data: &[f32]) -> (Vec<i16>, f32, f32) {
    const L: usize = 8;
    let mut mins = [f32::INFINITY; L];
    let mut maxs = [f32::NEG_INFINITY; L];
    let mut chunks = data.chunks_exact(L);
    for chunk in &mut chunks {
        for l in 0..L {
            let v = chunk[l];
            let lo = if v.is_finite() { v } else { f32::INFINITY };
            let hi = if v.is_finite() { v } else { f32::NEG_INFINITY };
            mins[l] = mins[l].min(lo);
            maxs[l] = maxs[l].max(hi);
        }
    }
    let mut min = mins.iter().copied().fold(f32::INFINITY, f32::min);
    let mut max = maxs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for &v in chunks.remainder() {
        if v.is_finite() {
            min = min.min(v);
            max = max.max(v);
        }
    }
    if !min.is_finite() || !max.is_finite() {
        // All-non-finite range: the scalar path's (0, 0) — every level 0.
        return (vec![-(CENTER as i16); data.len()], 0.0, 0.0);
    }
    let scale = ((f64::from(max) - f64::from(min)) / f64::from(Q8_LEVELS)) as f32;
    if scale == 0.0 {
        return (vec![-(CENTER as i16); data.len()], min, 0.0);
    }
    let mut out = vec![0i16; data.len()];
    let mut src = data.chunks_exact(L);
    let mut dst = out.chunks_exact_mut(L);
    for (ci, co) in (&mut src).zip(&mut dst) {
        for l in 0..L {
            let v = if ci[l].is_nan() { min } else { ci[l] };
            co[l] = ((v - min) / scale).round().clamp(0.0, Q8_LEVELS) as u8 as i16
                - CENTER as i16;
        }
    }
    for (&v, o) in src.remainder().iter().zip(dst.into_remainder()) {
        let v = if v.is_nan() { min } else { v };
        *o = ((v - min) / scale).round().clamp(0.0, Q8_LEVELS) as u8 as i16 - CENTER as i16;
    }
    (out, min, scale)
}

/// Per-element affine correction constants shared by all three kernels.
struct Affine {
    /// Multiplies the integer dot: `sA·sB`.
    dot: f64,
    /// Multiplies the A row sum: `sA·minB'`.
    row: f64,
    /// Multiplies the B column sum: `sB·minA'`.
    col: f64,
    /// Constant term: `k·minA'·minB'`.
    base: f64,
}

impl Affine {
    fn new(qa: &QuantMat, qb: &QuantMat, k: usize) -> Affine {
        Affine {
            dot: qa.scale * qb.scale,
            row: qa.scale * qb.min_c,
            col: qb.scale * qa.min_c,
            base: k as f64 * qa.min_c * qb.min_c,
        }
    }

    /// `out += f32(dot·cdot + rs·crow + cs·ccol + base)`.
    #[inline(always)]
    fn apply(&self, out: &mut f32, dot: i32, rs: i32, cs: i32) {
        *out += (self.dot * f64::from(dot)
            + self.row * f64::from(rs)
            + self.col * f64::from(cs)
            + self.base) as f32;
    }
}

/// Sum each contiguous length-`k` row of `q`.
fn row_sums(q: &[i16], k: usize) -> Vec<i32> {
    if k == 0 {
        return vec![0; 0];
    }
    q.chunks_exact(k).map(|r| r.iter().map(|&v| i32::from(v)).sum()).collect()
}

/// Row-major `[rows, cols]` → row-major `[cols, rows]`.
fn transpose(q: &[i16], rows: usize, cols: usize) -> Vec<i16> {
    let mut out = vec![0i16; q.len()];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = q[r * cols + c];
        }
    }
    out
}

/// Int8 `out += A × B` (`A: [m, k]`, `B: [k, n]`).
pub(super) fn gemm_nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(k <= K_MAX, "int8 gemm contraction {k} exceeds exact i32 range");
    if m * n == 0 || k == 0 {
        return; // Nothing to add: the affine correction is also k-scaled.
    }
    let (qa, qb) = (quantize_mat(a), quantize_mat(b));
    let aff = Affine::new(&qa, &qb, k);
    let qbt = transpose(&qb.q, k, n); // [n, k]: one row per output column.
    let rsums = row_sums(&qa.q, k);
    let csums = row_sums(&qbt, k);
    row_partitioned(out, m, k, n, |row0, rows| {
        dots_chunk(&qa.q, &qbt, row0, rows, k, n, &aff, &rsums, &csums);
    });
}

/// Int8 `out += A × Bᵀ` (`A: [m, k]`, `B: [n, k]`).
pub(super) fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(k <= K_MAX, "int8 gemm contraction {k} exceeds exact i32 range");
    if m * n == 0 || k == 0 {
        return;
    }
    let (qa, qb) = (quantize_mat(a), quantize_mat(b));
    let aff = Affine::new(&qa, &qb, k);
    // Both operands are already one contiguous length-k row per output
    // row/column — the kernel's native shape.
    let rsums = row_sums(&qa.q, k);
    let csums = row_sums(&qb.q, k);
    row_partitioned(out, m, k, n, |row0, rows| {
        dots_chunk(&qa.q, &qb.q, row0, rows, k, n, &aff, &rsums, &csums);
    });
}

/// Int8 `out += Aᵀ × B` (`A: [k, m]`, `B: [k, n]`).
pub(super) fn gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    debug_assert!(k <= K_MAX, "int8 gemm contraction {k} exceeds exact i32 range");
    if m * n == 0 || k == 0 {
        return;
    }
    let (qa, qb) = (quantize_mat(a), quantize_mat(b));
    let aff = Affine::new(&qa, &qb, k);
    let qat = transpose(&qa.q, k, m); // [m, k]: one row per output row.
    let qbt = transpose(&qb.q, k, n); // [n, k]: one row per output column.
    let rsums = row_sums(&qat, k);
    let csums = row_sums(&qbt, k);
    row_partitioned(out, m, k, n, |row0, rows| {
        dots_chunk(&qat, &qbt, row0, rows, k, n, &aff, &rsums, &csums);
    });
}

/// One worker's rows of the shared integer kernel: operands normalized to
/// row-major `[m, k]` × row-major `[n, k]`, each output element one
/// contiguous `i16` dot plus the affine correction. Dispatches to an
/// AVX2-compiled copy of itself when the host supports it.
#[allow(clippy::too_many_arguments)]
fn dots_chunk(
    qa: &[i16],
    qbt: &[i16],
    row0: usize,
    rows: &mut [f32],
    k: usize,
    n: usize,
    aff: &Affine,
    rsums: &[i32],
    csums: &[i32],
) {
    #[cfg(target_arch = "x86_64")]
    if super::vector::available() {
        // SAFETY: gated on runtime AVX2 detection.
        unsafe { dots_chunk_avx2(qa, qbt, row0, rows, k, n, aff, rsums, csums) };
        return;
    }
    dots_chunk_body(qa, qbt, row0, rows, k, n, aff, rsums, csums);
}

/// See [`dots_chunk`].
///
/// # Safety
/// The caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn dots_chunk_avx2(
    qa: &[i16],
    qbt: &[i16],
    row0: usize,
    rows: &mut [f32],
    k: usize,
    n: usize,
    aff: &Affine,
    rsums: &[i32],
    csums: &[i32],
) {
    dots_chunk_body(qa, qbt, row0, rows, k, n, aff, rsums, csums);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dots_chunk_body(
    qa: &[i16],
    qbt: &[i16],
    row0: usize,
    rows: &mut [f32],
    k: usize,
    n: usize,
    aff: &Affine,
    rsums: &[i32],
    csums: &[i32],
) {
    for (i, or) in rows.chunks_exact_mut(n).enumerate() {
        let ar = &qa[(row0 + i) * k..(row0 + i + 1) * k];
        for ((o, br), &cs) in or.iter_mut().zip(qbt.chunks_exact(k)).zip(csums) {
            let mut dot = 0i32;
            for (&x, &y) in ar.iter().zip(br) {
                dot += i32::from(x) * i32::from(y);
            }
            aff.apply(o, dot, rsums[row0 + i], cs);
        }
    }
}
