//! The scalar reference kernels — the workspace's original cache-blocked
//! GEMM bodies, kept verbatim as (a) the portable fallback on hosts without
//! the CPU features the vectorized microkernels require, and (b) the
//! baseline the benchmark harness and property tests compare every other
//! backend against.
//!
//! `gemm_nn`/`gemm_tn` here define the *bit-exact* float sequence the
//! vectorized microkernels must reproduce (each output element accumulates
//! the contraction dimension in ascending order, K-panel by K-panel).
//! `gemm_nt`'s single-accumulator dot is the scalar reference; the
//! vectorized `nt` kernel uses a documented multi-accumulator reduction
//! tree and is *not* bit-identical to this one (both are deterministic).

use super::{row_partitioned, K_BLOCK};

/// `out += A × B` on the scalar path; see [`super::gemm_nn`] for the
/// contract. Public so benchmarks and tests can pin the baseline.
pub fn gemm_nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    row_partitioned(out, m, k, n, |row0, rows| nn_chunk(a, b, |t| t * n, row0, rows, k, n));
}

/// `out += A × Bᵀ` on the scalar path; see [`super::gemm_nt`].
pub fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    row_partitioned(out, m, k, n, |row0, rows| nt_chunk(a, b, row0, rows, k, n));
}

/// `out += Aᵀ × B` on the scalar path; see [`super::gemm_tn`].
pub fn gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    row_partitioned(out, m, k, n, |row0, rows| tn_chunk(a, b, row0, rows, k, n, m));
}

/// One worker's share of `gemm_nn`: rows `row0..` of the output.
pub(super) fn nn_chunk(
    a: &[f32],
    b: &[f32],
    b_row: impl Fn(usize) -> usize,
    row0: usize,
    rows: &mut [f32],
    k: usize,
    n: usize,
) {
    // i–k–j with K panels: the B panel is reused across every row of
    // the worker's chunk; out[i][j] accumulates k in ascending order.
    for k0 in (0..k).step_by(K_BLOCK) {
        let k1 = (k0 + K_BLOCK).min(k);
        for (i, or) in rows.chunks_exact_mut(n).enumerate() {
            let ar = &a[(row0 + i) * k..(row0 + i + 1) * k];
            for t in k0..k1 {
                let av = ar[t];
                let br = &b[b_row(t)..][..n];
                for (o, &bv) in or.iter_mut().zip(br) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// One worker's share of `gemm_nt`: single-accumulator row·row dots.
pub(super) fn nt_chunk(a: &[f32], b: &[f32], row0: usize, rows: &mut [f32], k: usize, n: usize) {
    for (i, or) in rows.chunks_exact_mut(n).enumerate() {
        let ar = &a[(row0 + i) * k..(row0 + i + 1) * k];
        for (j, o) in or.iter_mut().enumerate() {
            let br = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in ar.iter().zip(br) {
                acc += x * y;
            }
            *o += acc;
        }
    }
}

/// One worker's share of `gemm_tn`.
pub(super) fn tn_chunk(
    a: &[f32],
    b: &[f32],
    row0: usize,
    rows: &mut [f32],
    k: usize,
    n: usize,
    m: usize,
) {
    // t outer keeps both source rows streaming; each out[i][j] still
    // accumulates t in ascending order whatever the row partition.
    for t in 0..k {
        let ar = &a[t * m..(t + 1) * m];
        let br = &b[t * n..(t + 1) * n];
        for (i, or) in rows.chunks_exact_mut(n).enumerate() {
            let av = ar[row0 + i];
            for (o, &bv) in or.iter_mut().zip(br) {
                *o += av * bv;
            }
        }
    }
}
