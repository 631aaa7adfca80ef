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
//! * [`depthwise_conv2d_dw`] — builds the very `KH·KW` rows of the column
//!   matrix the lowering would for a channel, and reduces them with one call
//!   into the same [`gemm::gemm_nt`] dispatch (`m = 1`, one output per tap),
//!   so the AVX2 reduction tree and the scalar dot stay matched per backend
//!   by construction.
//!
//! ## Layout
//!
//! The forward and `dX` share one scratch layout, [`Layout`]: the
//! zero-padded plane split into `stride²` *phase planes* (padded row `R`,
//! column `C` lives in phase `(R mod s, C mod s)` at `(R div s, C div s)`).
//! In that layout tap `(ky, kx)` of output pixel `(oy, ox)` sits at a fixed
//! offset from `oy·q + ox` (`q` = phase-plane pitch) for **every** stride, so
//! a whole plane is one flat, branch-free, vectorizable loop per tap — the
//! few elements computed for the pitch gap are discarded.
//!
//! ## Copies
//!
//! On the zoo's planes (12×12 down to 3×3) moving a plane into and out of
//! the scratch costs as much as the arithmetic, so every move follows a
//! plan made once per call, [`Placement`]. It holds the scratch index of
//! each element of the dense plane. Rows that are contiguous in the scratch
//! and at least [`BLOCK_COPY_MIN`] long move as block copies. The others
//! move element by element through the indices: a stride-2 phase split,
//! and 3-wide rows.
//!
//! `dW` needs each tap's row dense, so it copies twice as much. At stride 1
//! with an output the size of its input (the zoo's `k3 p1`), tap `(ky, kx)`'s
//! row is the plane itself moved by `(ky − p)·W + kx − p`. That is one block
//! copy per tap and plane, followed by writing zeros at the positions where
//! the tap falls on padding, the row's ends and its wraps across a row edge.
//! Other geometries split the plane once and gather each tap's row out of
//! the scratch. Either way a channel's rows are reduced by one `gemm_nt`
//! call.
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

/// Rows at least this long move as block copies; shorter rows, and rows
/// that are not contiguous in the scratch (stride > 1), move element by
/// element through an index map. On the zoo's planes a block copy pays
/// from 6-wide rows on and loses on 3-wide ones.
const BLOCK_COPY_MIN: usize = 4;

/// Where each element of a dense `[rows, len]` plane sits in a scratch
/// buffer, with the copies in both directions.
#[derive(Default)]
struct Placement {
    /// Scratch index of every element, row-major.
    at: Vec<usize>,
    /// The row length when rows move as block copies.
    block: Option<usize>,
}

impl Placement {
    /// Element `(r, i)` at `at(r, i)`; `contiguous` says that each row
    /// occupies consecutive scratch indices.
    fn new(rows: usize, len: usize, contiguous: bool, at: impl Fn(usize, usize) -> usize) -> Self {
        Placement {
            at: (0..rows * len).map(|e| at(e / len, e % len)).collect(),
            block: (contiguous && len >= BLOCK_COPY_MIN).then_some(len),
        }
    }

    /// Write the dense plane `src` into `buf`, touching nothing else.
    fn scatter(&self, src: &[f32], buf: &mut [f32]) {
        match self.block {
            Some(len) => {
                for (row, &at) in src.chunks_exact(len).zip(self.at.iter().step_by(len)) {
                    buf[at..at + len].copy_from_slice(row);
                }
            }
            None => {
                for (&at, &v) in self.at.iter().zip(src) {
                    buf[at] = v;
                }
            }
        }
    }

    /// Read the dense plane `dst` out of `buf`.
    fn gather(&self, buf: &[f32], dst: &mut [f32]) {
        match self.block {
            Some(len) => {
                for (row, &at) in dst.chunks_exact_mut(len).zip(self.at.iter().step_by(len)) {
                    row.copy_from_slice(&buf[at..at + len]);
                }
            }
            None => {
                for (d, &at) in dst.iter_mut().zip(&self.at) {
                    *d = buf[at];
                }
            }
        }
    }
}

/// The phase-split, zero-padded plane layout (module docs).
struct Layout {
    stride: usize,
    /// Phase-plane pitch: `ceil((W + 2·pad) / stride)`.
    pitch: usize,
    /// Elements per phase plane: `ceil((H + 2·pad) / stride) · pitch`.
    plane: usize,
    /// Output pixels addressed with the phase pitch, rounded up to [`TAIL`]:
    /// `(OH − 1)·pitch + OW`.
    flat: usize,
    /// The `[H, W]` input pixels in the split scratch.
    input: Placement,
    /// The `[OH, OW]` output pixels at the phase pitch: `(oy, ox)` at
    /// `oy·pitch + ox`.
    output: Placement,
}

impl Layout {
    fn new(g: &Conv2dGeometry) -> Self {
        let (s, pad) = (g.stride, g.pad);
        let pitch = (g.in_w + 2 * pad).div_ceil(s);
        let mut lay = Layout {
            stride: s,
            pitch,
            plane: (g.in_h + 2 * pad).div_ceil(s) * pitch,
            flat: ((g.out_h - 1) * pitch + g.out_w).next_multiple_of(TAIL),
            input: Placement::default(),
            output: Placement::new(g.out_h, g.out_w, true, |oy, ox| oy * pitch + ox),
        };
        lay.input = Placement::new(g.in_h, g.in_w, s == 1, |iy, ix| lay.at(iy + pad, ix + pad));
        lay
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
        // Planes of the worker's samples are consecutive in both tensors,
        // and their channels cycle from 0.
        let planes = x[s0 * c * hw_in..].chunks_exact(hw_in).zip(taps.chunks_exact(ktaps).cycle());
        for (dst, (src, taps)) in chunk.chunks_exact_mut(hw_out).zip(planes) {
            lay.input.scatter(src, &mut buf);
            correlate(&buf, taps, &mut flat);
            lay.output.gather(&flat, dst);
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
        let planes =
            go[s0 * c * hw_out..].chunks_exact(hw_out).zip(taps.chunks_exact(ktaps).cycle());
        for (dst, (src, taps)) in chunk.chunks_exact_mut(hw_in).zip(planes) {
            lay.output.scatter(src, &mut frame[top * q + left..]);
            let mut t0 = 0;
            for (phase, &t1) in phase_ends.iter().enumerate() {
                // A phase plane's rounded-up tail spills into the next one
                // (or the slack) and is overwritten by it.
                correlate(&frame, &taps[t0..t1], &mut buf[phase * lay.plane..][..plane_flat]);
                t0 = t1;
            }
            lay.input.gather(&buf, dst);
        }
    });
}

/// Depthwise weight gradient: `gw[ch, t] += Σ go[·, ch] · x[·, ch]` shifted
/// by tap `t`, for `gw: [C, 1, KH, KW]` (accumulated into, like the GEMMs).
///
/// Bit-identical to the `im2col` + `gemm_nt` lowering on every backend: the
/// `KH·KW` column-matrix rows of a channel are built verbatim (sample-major,
/// explicit zeros on padding) and reduced by one call into the same
/// `gemm_nt` dispatch, which dots each row with the output gradient exactly
/// as the lowering's per-channel product does.
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
    let rows = ColumnRows::new(g);
    let ncols = n * hw_out;
    let threads = if go.len() * ktaps >= gemm::PAR_MIN_MACS { par::max_threads() } else { 1 };
    par::for_each_chunk_mut(gw, ktaps, threads, |c0, chunk| {
        let mut buf = rows.scratch();
        let mut go_row = vec![0.0f32; ncols];
        let mut cols = vec![0.0f32; ktaps * ncols];
        for (dc, dst) in chunk.chunks_exact_mut(ktaps).enumerate() {
            let ch = c0 + dc;
            for s in 0..n {
                go_row[s * hw_out..][..hw_out]
                    .copy_from_slice(&go[(s * c + ch) * hw_out..][..hw_out]);
                let plane = &x[(s * c + ch) * hw_in..][..hw_in];
                let at = s * hw_out..(s + 1) * hw_out;
                let tap_rows = cols.chunks_exact_mut(ncols).map(|r| &mut r[at.clone()]);
                rows.emit(plane, &mut buf, tap_rows);
            }
            gemm::gemm_nt(&go_row, &cols, dst, 1, ncols, ktaps);
        }
    });
}

/// How [`depthwise_conv2d_dw`] writes the `KH·KW` column-matrix rows of
/// one plane, each `OH·OW` long.
enum ColumnRows {
    /// Stride 1 with an output the size of the input (the zoo's `k3 p1`),
    /// rows long enough for block copies: tap `t`'s row is the plane itself
    /// moved by a fixed shift, one block copy, with zeros written where the
    /// tap falls on padding.
    Shifted(Vec<(isize, Vec<usize>)>),
    /// Every other geometry: split the plane once, then gather each tap's
    /// row out of the scratch at the tap's offset.
    Split(Layout, Vec<usize>),
}

impl ColumnRows {
    fn new(g: &Conv2dGeometry) -> Self {
        let taps = (0..g.kernel_h).flat_map(|ky| (0..g.kernel_w).map(move |kx| (ky, kx)));
        if g.stride == 1 && (g.out_h, g.out_w) == (g.in_h, g.in_w) && g.in_w >= BLOCK_COPY_MIN {
            let (h, w, pad) = (g.in_h as isize, g.in_w as isize, g.pad as isize);
            ColumnRows::Shifted(
                taps.map(|(ky, kx)| {
                    let (dy, dx) = (ky as isize - pad, kx as isize - pad);
                    let padding = (0..h * w)
                        .filter(|j| {
                            !(0..h).contains(&(j / w + dy)) || !(0..w).contains(&(j % w + dx))
                        })
                        .map(|j| j as usize)
                        .collect();
                    (dy * w + dx, padding)
                })
                .collect(),
            )
        } else {
            let lay = Layout::new(g);
            let offs = taps.map(|(ky, kx)| lay.at(ky, kx)).collect();
            ColumnRows::Split(lay, offs)
        }
    }

    /// Per-worker scratch for [`ColumnRows::emit`].
    fn scratch(&self) -> Vec<f32> {
        match self {
            ColumnRows::Shifted(_) => Vec::new(),
            ColumnRows::Split(lay, _) => vec![0.0f32; lay.buf_len()],
        }
    }

    /// Write the row of every tap of the `[H, W]` plane `plane`, in tap
    /// order, into `rows`.
    fn emit<'a>(
        &self,
        plane: &[f32],
        buf: &mut [f32],
        rows: impl Iterator<Item = &'a mut [f32]>,
    ) {
        match self {
            ColumnRows::Shifted(taps) => {
                for (row, (shift, padding)) in rows.zip(taps) {
                    // Row element `j` is plane element `j + shift`. The ends
                    // the shift leaves uncovered, and every wrap across a
                    // row edge, fall on padding and are zeroed after.
                    let (len, by) = (plane.len(), shift.unsigned_abs().min(plane.len()));
                    if *shift < 0 {
                        row[by..].copy_from_slice(&plane[..len - by]);
                    } else {
                        row[..len - by].copy_from_slice(&plane[by..]);
                    }
                    for &j in padding {
                        row[j] = 0.0;
                    }
                }
            }
            ColumnRows::Split(lay, offs) => {
                lay.input.scatter(plane, buf);
                for (row, &off) in rows.zip(offs) {
                    lay.output.gather(&buf[off..], row);
                }
            }
        }
    }
}
