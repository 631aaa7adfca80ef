//! Direct depthwise convolution: one `KH×KW` filter per channel
//! (`groups == C`, `OC == C`), the MobileNetV2/ShuffleNetV2 building block.
//!
//! Lowering such a conv through `im2col` + GEMM (see [`super::image`])
//! degenerates into `C` separate `[1 × KH·KW] · [KH·KW × N·OH·OW]` products:
//! the GEMM has one output row, so nothing is reused and the column matrix
//! costs more to build than to consume. The kernels here work on the
//! `[H, W]` planes directly and **reproduce the lowering's float sequence
//! exactly**, so which path ran is never visible in a result bit:
//!
//! * [`depthwise_conv2d`] — each output element accumulates its taps in
//!   ascending `(ky, kx)` order from `0.0`, and taps that fall on padding
//!   multiply an explicit `0.0` (as the zero-filled column matrix does), so
//!   non-finite weights propagate identically;
//! * [`depthwise_conv2d_dx`] — each input-gradient element accumulates its
//!   taps in the same ascending order `col2im` scatters them. Out-of-range
//!   taps multiply `0.0` where `col2im` skips them: for finite weights that
//!   adds `±0.0` to an accumulator that is never `-0.0`, which changes
//!   nothing; callers keep the lowering when a weight is non-finite;
//! * [`depthwise_conv2d_dw`] — builds, tap by tap, the very row of the
//!   column matrix the lowering would, and reduces it through the same
//!   [`gemm::gemm_nt`] dispatch (`m = 1`), so the AVX2 reduction tree
//!   and the scalar dot stay matched per backend by construction.
//!
//! ## Layout
//!
//! All three kernels share one scratch layout, [`Layout`]: the zero-padded
//! plane split into `stride²` *phase planes* (padded row `R`, column `C`
//! lives in phase `(R mod s, C mod s)` at `(R div s, C div s)`). In that
//! layout tap `(ky, kx)` of output pixel `(oy, ox)` sits at a fixed offset
//! from `oy·q + ox` (`q` = phase-plane pitch) for **every** stride, so a
//! whole plane is one flat, branch-free, vectorizable loop per tap — the
//! few elements computed for the pitch gap are discarded.
//!
//! ## Parallelism
//!
//! Forward and `dX` partition samples, `dW` partitions channels, under the
//! same thresholds as the lowering. Every output element is computed by
//! exactly one worker with a fixed float sequence, so results are
//! bit-identical for every thread count.

use super::gemm;
use super::image::Conv2dGeometry;
use crate::par;

/// Elements per register-tiled block of [`correlate`]'s main loop.
const BLOCK: usize = 32;

/// Elements per block of [`correlate`]'s tail loop; flat lengths are rounded
/// up to this, and scratch buffers carry this much slack for the overhang.
const TAIL: usize = 8;

/// The phase-split, zero-padded plane layout (module docs).
struct Layout {
    stride: usize,
    pad: usize,
    in_w: usize,
    out_w: usize,
    /// Phase-plane pitch: `ceil((W + 2·pad) / stride)`.
    pitch: usize,
    /// Elements per phase plane: `ceil((H + 2·pad) / stride) · pitch`.
    plane: usize,
    /// Output pixels addressed with the phase pitch, rounded up to [`TAIL`]:
    /// `(OH − 1)·pitch + OW`.
    flat: usize,
}

impl Layout {
    fn new(g: &Conv2dGeometry) -> Self {
        let pitch = (g.in_w + 2 * g.pad).div_ceil(g.stride);
        Layout {
            stride: g.stride,
            pad: g.pad,
            in_w: g.in_w,
            out_w: g.out_w,
            pitch,
            plane: (g.in_h + 2 * g.pad).div_ceil(g.stride) * pitch,
            flat: ((g.out_h - 1) * pitch + g.out_w).next_multiple_of(TAIL),
        }
    }

    /// Scratch length for one split plane, overhang slack included.
    fn buf_len(&self) -> usize {
        self.stride * self.stride * self.plane + TAIL
    }

    /// Index of padded-plane element `(row, col)`.
    fn at(&self, row: usize, col: usize) -> usize {
        let s = self.stride;
        ((row % s) * s + col % s) * self.plane + (row / s) * self.pitch + col / s
    }

    /// For input row `iy`, the `(first ix, scratch index)` of each column
    /// phase: elements `ix, ix + s, ix + 2s, …` of the row are contiguous in
    /// the scratch from that index on.
    fn row_runs(&self, iy: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let s = self.stride;
        (0..s.min(self.in_w)).map(move |ix0| (ix0, self.at(iy + self.pad, ix0 + self.pad)))
    }

    /// Write an `[H, W]` plane into the interior of a split scratch plane.
    /// The border is never written, so a zero-initialised scratch can be
    /// reused plane after plane.
    fn split(&self, src: &[f32], buf: &mut [f32]) {
        for (iy, row) in src.chunks_exact(self.in_w).enumerate() {
            if self.stride == 1 {
                buf[self.at(iy + self.pad, self.pad)..][..self.in_w].copy_from_slice(row);
                continue;
            }
            for (ix0, at) in self.row_runs(iy) {
                for (d, &v) in buf[at..].iter_mut().zip(row[ix0..].iter().step_by(self.stride)) {
                    *d = v;
                }
            }
        }
    }

    /// Read the interior of a split scratch plane back into `[H, W]`.
    fn unsplit(&self, buf: &[f32], dst: &mut [f32]) {
        for (iy, row) in dst.chunks_exact_mut(self.in_w).enumerate() {
            if self.stride == 1 {
                row.copy_from_slice(&buf[self.at(iy + self.pad, self.pad)..][..self.in_w]);
                continue;
            }
            for (ix0, at) in self.row_runs(iy) {
                for (d, &v) in row[ix0..].iter_mut().step_by(self.stride).zip(&buf[at..]) {
                    *d = v;
                }
            }
        }
    }

    /// Copy the `OH` rows of `OW` valid pixels out of a pitch-addressed
    /// buffer into a dense `[OH, OW]` plane.
    fn compact(&self, flat: &[f32], dst: &mut [f32]) {
        for (d, s) in dst.chunks_exact_mut(self.out_w).zip(flat.chunks(self.pitch)) {
            d.copy_from_slice(&s[..self.out_w]);
        }
    }
}

/// `dst[i] = Σ_t w_t · src[i + off_t]` for `taps = [(off_t, w_t)]`, each
/// element accumulated from `0.0` in slice order — one rounding per
/// multiply and per add, no FMA, the sequence of the scalar GEMM reference.
/// `dst.len()` must be a multiple of [`TAIL`].
fn correlate(src: &[f32], taps: &[(usize, f32)], dst: &mut [f32]) {
    debug_assert!(dst.len().is_multiple_of(TAIL));
    let mut blocks = dst.chunks_exact_mut(BLOCK);
    let mut i = 0;
    for block in &mut blocks {
        correlate_block::<BLOCK>(src, taps, i, block);
        i += BLOCK;
    }
    for block in blocks.into_remainder().chunks_exact_mut(TAIL) {
        correlate_block::<TAIL>(src, taps, i, block);
        i += TAIL;
    }
}

/// One register tile of [`correlate`]: `B` accumulators live across the
/// whole tap loop and are stored once.
#[inline(always)]
fn correlate_block<const B: usize>(src: &[f32], taps: &[(usize, f32)], i: usize, dst: &mut [f32]) {
    let mut acc = [0.0f32; B];
    for &(off, w) in taps {
        let s: &[f32; B] = src[i + off..].first_chunk().expect("scratch slack covers the block");
        for (a, &v) in acc.iter_mut().zip(s) {
            *a += w * v;
        }
    }
    dst.copy_from_slice(&acc);
}

/// Validate the operand lengths of a depthwise problem (always on, like the
/// GEMM entry guards) and return `(H·W, OH·OW, KH·KW)`.
fn check(
    kernel: &str,
    n: usize,
    c: usize,
    g: &Conv2dGeometry,
    input_like: usize,
    weight_like: usize,
    output_like: usize,
) -> (usize, usize, usize) {
    assert_eq!(g.channels, 1, "{kernel}: geometry must describe one channel per group");
    let (hw_in, hw_out, ktaps) = (g.in_h * g.in_w, g.col_cols(), g.kernel_h * g.kernel_w);
    assert!(
        input_like == n * c * hw_in && weight_like == c * ktaps && output_like == n * c * hw_out,
        "{kernel}: operand lengths ({input_like}, {weight_like}, {output_like}) do not match \
         n={n}, c={c}, {g:?}"
    );
    (hw_in, hw_out, ktaps)
}

/// Depthwise forward: `out[s, ch] = x[s, ch] ⋆ w[ch]` for `x: [N, C, H, W]`,
/// `w: [C, 1, KH, KW]`, `out: [N, C, OH, OW]` (overwritten), with `g` the
/// single-channel geometry (`g.channels == 1`).
///
/// Bit-identical to the `im2col` + `gemm_nn` lowering (module docs).
///
/// # Panics
/// When a slice length disagrees with `(n, c, g)` or `g.channels != 1`.
pub fn depthwise_conv2d(
    x: &[f32],
    w: &[f32],
    n: usize,
    c: usize,
    g: &Conv2dGeometry,
    out: &mut [f32],
) {
    let (hw_in, hw_out, ktaps) = check("depthwise_conv2d", n, c, g, x.len(), w.len(), out.len());
    let lay = Layout::new(g);
    let taps: Vec<(usize, f32)> = w
        .iter()
        .enumerate()
        .map(|(i, &wv)| (lay.at(i % ktaps / g.kernel_w, i % ktaps % g.kernel_w), wv))
        .collect();
    let threads = if out.len() * ktaps >= gemm::PAR_MIN_MACS { par::max_threads() } else { 1 };
    par::for_each_chunk_mut(out, c * hw_out, threads, |s0, chunk| {
        let mut buf = vec![0.0f32; lay.buf_len()];
        let mut flat = vec![0.0f32; lay.flat];
        // Planes of the worker's samples are consecutive in both tensors.
        let planes = x[s0 * c * hw_in..].chunks_exact(hw_in);
        for (p, (dst, src)) in chunk.chunks_exact_mut(hw_out).zip(planes).enumerate() {
            lay.split(src, &mut buf);
            correlate(&buf, &taps[p % c * ktaps..][..ktaps], &mut flat);
            lay.compact(&flat, dst);
        }
    });
}

/// Depthwise input gradient: `gx: [N, C, H, W]` (overwritten) from the
/// output gradient `go: [N, C, OH, OW]` and the weights `w: [C, 1, KH, KW]`.
///
/// Bit-identical to the `gemm_tn` + `col2im` lowering **for finite
/// weights** (module docs); a non-finite weight reaches more elements here
/// than there, so callers route that case to the lowering.
///
/// # Panics
/// When a slice length disagrees with `(n, c, g)` or `g.channels != 1`.
pub fn depthwise_conv2d_dx(
    go: &[f32],
    w: &[f32],
    n: usize,
    c: usize,
    g: &Conv2dGeometry,
    gx: &mut [f32],
) {
    let (hw_in, hw_out, ktaps) =
        check("depthwise_conv2d_dx", n, c, g, gx.len(), w.len(), go.len());
    let lay = Layout::new(g);
    let (s, q) = (lay.stride, lay.pitch);
    // The output gradient sits in a zero frame of `top` rows and `left`
    // columns at the phase pitch, so that input phase plane (py, px) is a
    // correlation of that frame with the taps of matching parity: padded
    // element (r·s + py, j·s + px) receives tap (ky, kx) from output pixel
    // (r − ky div s, j − kx div s).
    let (top, left) = ((g.kernel_h - 1) / s, (g.kernel_w - 1) / s);
    // Per channel: the taps grouped by input phase, ascending within each.
    let mut phase_ends = Vec::with_capacity(s * s);
    let mut order = Vec::with_capacity(ktaps);
    for phase in 0..s * s {
        for t in 0..ktaps {
            let (ky, kx) = (t / g.kernel_w, t % g.kernel_w);
            if (ky % s) * s + kx % s == phase {
                order.push((t, (top - ky / s) * q + left - kx / s));
            }
        }
        phase_ends.push(order.len());
    }
    let taps: Vec<(usize, f32)> = w
        .chunks_exact(ktaps)
        .flat_map(|wc| order.iter().map(|&(t, off)| (off, wc[t])))
        .collect();
    let plane_flat = lay.plane.next_multiple_of(TAIL);
    let threads = if go.len() * ktaps >= par::PAR_MIN_ELEMS { par::max_threads() } else { 1 };
    par::for_each_chunk_mut(gx, c * hw_in, threads, |s0, chunk| {
        let mut frame = vec![0.0f32; top * q + left + plane_flat];
        let mut buf = vec![0.0f32; lay.buf_len()];
        let planes = go[s0 * c * hw_out..].chunks_exact(hw_out);
        for (p, (dst, src)) in chunk.chunks_exact_mut(hw_in).zip(planes).enumerate() {
            for (d, row) in frame[top * q + left..].chunks_mut(q).zip(src.chunks_exact(lay.out_w))
            {
                d[..lay.out_w].copy_from_slice(row);
            }
            let taps = &taps[p % c * ktaps..][..ktaps];
            let mut t0 = 0;
            for (phase, &t1) in phase_ends.iter().enumerate() {
                // A phase plane's rounded-up tail spills into the next one
                // (or the slack) and is overwritten by it.
                correlate(&frame, &taps[t0..t1], &mut buf[phase * lay.plane..][..plane_flat]);
                t0 = t1;
            }
            lay.unsplit(&buf, dst);
        }
    });
}

/// Depthwise weight gradient: `gw[ch, t] += Σ go[·, ch] · x[·, ch]` shifted
/// by tap `t`, for `gw: [C, 1, KH, KW]` (accumulated into, like the GEMMs).
///
/// Bit-identical to the `im2col` + `gemm_nt` lowering on every backend: the
/// column-matrix row of each tap is rebuilt verbatim (sample-major, explicit
/// zeros on padding) and reduced by the same `gemm_nt` dispatch.
///
/// # Panics
/// When a slice length disagrees with `(n, c, g)` or `g.channels != 1`.
pub fn depthwise_conv2d_dw(
    x: &[f32],
    go: &[f32],
    n: usize,
    c: usize,
    g: &Conv2dGeometry,
    gw: &mut [f32],
) {
    let (hw_in, hw_out, ktaps) =
        check("depthwise_conv2d_dw", n, c, g, x.len(), gw.len(), go.len());
    let lay = Layout::new(g);
    let offs: Vec<usize> = (0..ktaps).map(|t| lay.at(t / g.kernel_w, t % g.kernel_w)).collect();
    let (ncols, buf_len) = (n * hw_out, lay.buf_len());
    let threads = if go.len() * ktaps >= gemm::PAR_MIN_MACS { par::max_threads() } else { 1 };
    par::for_each_chunk_mut(gw, ktaps, threads, |c0, chunk| {
        let mut bufs = vec![0.0f32; n * buf_len];
        let mut go_row = vec![0.0f32; ncols];
        let mut col_row = vec![0.0f32; ncols];
        for (dc, dst) in chunk.chunks_exact_mut(ktaps).enumerate() {
            let ch = c0 + dc;
            for (s, buf) in bufs.chunks_exact_mut(buf_len).enumerate() {
                lay.split(&x[(s * c + ch) * hw_in..][..hw_in], buf);
                go_row[s * hw_out..][..hw_out]
                    .copy_from_slice(&go[(s * c + ch) * hw_out..][..hw_out]);
            }
            for (d, &off) in dst.iter_mut().zip(&offs) {
                for (row, buf) in col_row.chunks_exact_mut(hw_out).zip(bufs.chunks_exact(buf_len))
                {
                    lay.compact(&buf[off..], row);
                }
                gemm::gemm_nt(&go_row, &col_row, std::slice::from_mut(d), 1, ncols, 1);
            }
        }
    });
}
