//! Register-tiled vectorized f32 microkernels (x86-64, AVX2).
//!
//! Pure-Rust, autovectorization-friendly fixed-width kernels: the inner
//! loops work on `[f32; LANES]` blocks with all trip counts known at
//! compile time, and the whole module is compiled twice — once at the
//! crate's baseline features and once under
//! `#[target_feature(enable = "avx2")]` — with the AVX2 version selected at
//! runtime by the dispatch layer in `super`. No intrinsics are written by
//! hand; LLVM vectorizes the fixed-shape loops. AVX2 deliberately does
//! **not** enable `fma`: fused multiply-add contracts `a*b + c` into one
//! differently-rounded operation, which would break bit-identity with the
//! scalar reference kernels.
//!
//! ## Bit-exactness (`nn`/`tn`)
//!
//! The `nn`/`tn` microkernel computes an `MR × NR` output tile per K panel
//! by **loading the output tile into register accumulators, accumulating
//! the panel's products in ascending-k order, and storing the tile back**.
//! Per output element that is the exact float sequence of the scalar
//! reference (`scalar::nn_chunk` / `tn_chunk`): one rounding per
//! multiply-add, k ascending, panel by panel. Lane tiling spans the N
//! dimension only, so vector width never changes the per-element order,
//! and the test suite asserts bit-identity against the scalar kernels.
//! The `n mod NR` columns past the last whole tile take the same register
//! tile over a zero-extended copy of their B panel (a conv's per-sample
//! product is a few tiles wide, so a scalar edge would be a third of it);
//! the padding lanes are computed and never stored.
//!
//! ## The `nt` reduction tree
//!
//! A row·row dot product has no N dimension to tile, so the vectorized
//! `nt` kernel uses `NT_ACCS = 32` partial accumulators with a **fixed,
//! documented reduction**: element `t` of the contraction accumulates into
//! lane `t mod 32` (ascending `t` within each lane), and the lanes are
//! combined by pairwise halving — 32 → 16 → 8 → 4 → 2 → 1, `acc[l] +=
//! acc[l + width]` at each step. This is a *different* (deterministic)
//! rounding sequence from the scalar single-accumulator dot: `gemm_nt`
//! results change bits when the vectorized path is active, which is why
//! the backend is fixed per host and benchmark artifacts were regenerated
//! when this module landed.
//!
//! The kernel computes the outputs of a row **in pairs**: one pass over the
//! `A` row feeds two `B` rows, each into its own 32 lanes and its own
//! halving (`dot_trees`), so every output keeps the tree above whatever it
//! is paired with, and an odd last column takes the tree alone. The pair
//! shares the loads of the `A` row and runs eight independent add chains
//! instead of four; the test suite pins every output bitwise against a
//! scalar model of the tree.

#![cfg(target_arch = "x86_64")]

use super::K_BLOCK;
use crate::ops::copy_run;

/// Vector register width in f32 lanes the microkernels are shaped for
/// (AVX2 ymm = 8 × f32).
pub const LANES: usize = 8;

/// Microkernel tile rows: A rows processed together, sharing B loads.
const MR: usize = 4;

/// Microkernel tile columns: two LANES-wide vectors per row, so the
/// `MR × NR` accumulator block fills 8 of the 16 ymm registers.
const NR: usize = super::NN_TILE_COLUMNS;
const _: () = assert!(NR == 2 * LANES);

/// Partial accumulators in the vectorized `nt` dot (4 × LANES).
const NT_ACCS: usize = 32;

/// Whether the running CPU supports the AVX2 microkernels.
pub fn available() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// AVX2 entry for one worker's rows of `gemm_nn`.
///
/// # Safety
/// The caller must ensure AVX2 is available ([`available`] returned true).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn nn_chunk_avx2(
    a: &[f32],
    b: &[f32],
    b_row: impl Fn(usize) -> usize,
    row0: usize,
    rows: &mut [f32],
    k: usize,
    n: usize,
) {
    blocked_chunk(APanel::RowMajor { a, k }, b, b_row, row0, rows, k, n);
}

/// AVX2 entry for one worker's rows of `gemm_tn` (`A` stored `[k, m]`).
///
/// # Safety
/// The caller must ensure AVX2 is available ([`available`] returned true).
#[target_feature(enable = "avx2")]
pub unsafe fn tn_chunk_avx2(
    a: &[f32],
    b: &[f32],
    row0: usize,
    rows: &mut [f32],
    k: usize,
    n: usize,
    m: usize,
) {
    blocked_chunk(APanel::ColMajor { a, m }, b, move |t| t * n, row0, rows, k, n);
}

/// AVX2 entry for one worker's rows of `gemm_nt` (`B` stored `[n, k]`).
///
/// # Safety
/// The caller must ensure AVX2 is available ([`available`] returned true).
#[target_feature(enable = "avx2")]
pub unsafe fn nt_chunk_avx2(
    a: &[f32],
    b: &[f32],
    row0: usize,
    rows: &mut [f32],
    k: usize,
    n: usize,
) {
    for (i, or) in rows.chunks_exact_mut(n).enumerate() {
        let ar = &a[(row0 + i) * k..(row0 + i + 1) * k];
        let mut pairs = or.chunks_exact_mut(2);
        for (p, o) in (&mut pairs).enumerate() {
            let [d0, d1] = dot_trees(ar, [&b[2 * p * k..][..k], &b[(2 * p + 1) * k..][..k]]);
            o[0] += d0;
            o[1] += d1;
        }
        if let [o] = pairs.into_remainder() {
            let [d] = dot_trees(ar, [&b[(n - 1) * k..][..k]]);
            *o += d;
        }
    }
}

/// How the microkernel reads its `A` operand when packing a panel.
enum APanel<'a> {
    /// `A: [m, k]` row-major (the `nn` case): panel rows are contiguous.
    RowMajor { a: &'a [f32], k: usize },
    /// `A: [k, m]` (the `tn` case): panel rows are strided gathers.
    ColMajor { a: &'a [f32], m: usize },
}

impl APanel<'_> {
    /// Copy `kl` contraction values of logical A row `i`, columns
    /// `k0..k0+kl`, into `dst`. Pure copies — packing never changes bits.
    #[inline(always)]
    fn pack_row(&self, i: usize, k0: usize, kl: usize, dst: &mut [f32]) {
        match *self {
            APanel::RowMajor { a, k } => {
                dst[..kl].copy_from_slice(&a[i * k + k0..i * k + k0 + kl]);
            }
            APanel::ColMajor { a, m } => {
                for (t, d) in dst[..kl].iter_mut().enumerate() {
                    *d = a[(k0 + t) * m + i];
                }
            }
        }
    }
}

/// Shared body of the `nn`/`tn` vectorized chunk kernels: K panels, MR-row
/// groups with a packed A panel, NR-column register tiles (the last one
/// over a zero-extended edge panel), and a scalar row remainder that replays
/// the reference kernel's loop order exactly. Row `t` of `B` is the `n`
/// floats from `b[b_row(t)]`.
#[inline(always)]
fn blocked_chunk(
    a: APanel<'_>,
    b: &[f32],
    b_row: impl Fn(usize) -> usize,
    row0: usize,
    rows: &mut [f32],
    k: usize,
    n: usize,
) {
    let chunk_rows = rows.len().checked_div(n).unwrap_or(0);
    let n_main = n - n % NR;
    let mut pack = [0.0f32; MR * K_BLOCK];
    // The last `n % NR` columns of the B panel, zero-extended to a full
    // tile's width so they take the register tile like every other column;
    // zero-filled only for a chunk that has both such columns and a tile row.
    let mut edge =
        if n_main < n && chunk_rows >= MR { Some([0.0f32; K_BLOCK * NR]) } else { None };
    for k0 in (0..k).step_by(K_BLOCK) {
        let k1 = (k0 + K_BLOCK).min(k);
        let kl = k1 - k0;
        if let Some(edge) = &mut edge {
            for (t, dst) in edge.chunks_exact_mut(NR).take(kl).enumerate() {
                copy_run(&mut dst[..n - n_main], &b[b_row(k0 + t)..][n_main..n]);
            }
        }
        let mut i0 = 0;
        while i0 + MR <= chunk_rows {
            for r in 0..MR {
                a.pack_row(row0 + i0 + r, k0, kl, &mut pack[r * kl..(r + 1) * kl]);
            }
            let mut j0 = 0;
            while j0 + NR <= n {
                let b_at = |t: usize| b[b_row(k0 + t) + j0..].first_chunk::<NR>().unwrap();
                tile(&pack, kl, b_at, n, rows, i0, j0, NR);
                j0 += NR;
            }
            if let Some(edge) = &edge {
                // The padding lanes accumulate `a · 0.0` and are never
                // stored; the real ones follow the reference sequence.
                let b_at = |t: usize| edge[t * NR..].first_chunk::<NR>().unwrap();
                tile(&pack, kl, b_at, n, rows, i0, n_main, n - n_main);
            }
            i0 += MR;
        }
        // Row remainder (< MR rows): reference kernel loop order.
        for i in i0..chunk_rows {
            a.pack_row(row0 + i, k0, kl, &mut pack[..kl]);
            let or = &mut rows[i * n..(i + 1) * n];
            for (t, &av) in pack[..kl].iter().enumerate() {
                let br = &b[b_row(k0 + t)..][..n];
                for (o, &bv) in or.iter_mut().zip(br) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// One `MR × NR` register tile over output columns `j0..j0 + width`
/// (`width ≤ NR`; `b_at(t)` is row `t` of the matching B columns): load the
/// output tile into accumulators, add the K panel's products in ascending-k
/// order, store the tile back. Loading `out` first (rather than summing into
/// fresh zeros) keeps the per-element rounding sequence identical to the
/// scalar reference.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile<'b>(
    pack: &[f32],
    kl: usize,
    b_at: impl Fn(usize) -> &'b [f32; NR],
    n: usize,
    rows: &mut [f32],
    i0: usize,
    j0: usize,
    width: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc.iter_mut().enumerate() {
        copy_run(&mut accr[..width], &rows[(i0 + r) * n + j0..][..width]);
    }
    for t in 0..kl {
        let br = b_at(t);
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = pack[r * kl + t];
            for (x, &y) in accr.iter_mut().zip(br.iter()) {
                *x += av * y;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        copy_run(&mut rows[(i0 + r) * n + j0..][..width], &accr[..width]);
    }
}

/// `P` multi-accumulator dot products of `x` with each of `ys`, in one pass
/// over `x`, each by the fixed reduction tree documented in the module docs:
/// element `t` lands in lane `t mod NT_ACCS`, lanes combine by pairwise
/// halving. The outputs share loads of `x` and nothing else, so each is
/// bitwise what it would be computed alone.
#[inline(always)]
fn dot_trees<const P: usize>(x: &[f32], ys: [&[f32]; P]) -> [f32; P] {
    let mut acc = [[0.0f32; NT_ACCS]; P];
    let whole = x.len() - x.len() % NT_ACCS;
    for t0 in (0..whole).step_by(NT_ACCS) {
        let xs = x[t0..].first_chunk::<NT_ACCS>().expect("a whole pass of x");
        for (lanes, y) in acc.iter_mut().zip(ys) {
            let ys = y[t0..].first_chunk::<NT_ACCS>().expect("each y as long as x");
            for (a, (&xv, &yv)) in lanes.iter_mut().zip(xs.iter().zip(ys)) {
                *a += xv * yv;
            }
        }
    }
    for (lanes, y) in acc.iter_mut().zip(ys) {
        for (a, (&xv, &yv)) in lanes.iter_mut().zip(x[whole..].iter().zip(&y[whole..])) {
            *a += xv * yv;
        }
    }
    let mut dots = [0.0f32; P];
    for (dot, lanes) in dots.iter_mut().zip(acc) {
        *dot = halve(lanes);
    }
    dots
}

/// The tree's last stage: lanes combine by pairwise halving, 32 → 16 → 8 →
/// 4 → 2 → 1, `lanes[l] += lanes[l + width]` at each step.
#[inline(always)]
fn halve(mut lanes: [f32; NT_ACCS]) -> f32 {
    let mut width = NT_ACCS / 2;
    while width > 0 {
        for l in 0..width {
            lanes[l] += lanes[l + width];
        }
        width /= 2;
    }
    lanes[0]
}
