//! 2-D convolution (with groups): three paths, one result.
//!
//! [`Var::conv2d`] chooses per call, from nothing but the call's own shape
//! and weights, between three implementations that produce **the same
//! bits** — forward, `dX` and `dW` — so the choice is invisible in every
//! result and the lowering can serve as the oracle for the other two.
//!
//! ## Which path
//!
//! | call | path | because |
//! |---|---|---|
//! | depthwise: `C / groups == 1`, `OC == C` | direct kernels ([`depthwise_conv2d`] and its `_dx`/`_dw`) | lowered, it is `C` one-row GEMMs with nothing to reuse |
//! | dense (`groups == 1`), stride 1, few enough output channels for its plane (below) | the padded path, `conv2d_padded` | the column matrix costs more to copy than to multiply |
//! | the rest: grouped, strided dense, dense under many output channels on small planes | the fused lowering, `conv2d_lowered` | one wide GEMM per panel wastes no lanes |
//! | any of the above with a non-finite weight | the fused lowering | the other two `dX`s match it for finite weights only |
//!
//! The dense rule (`padded_pays`) is a two-term cost model. Both paths do
//! the same `OC · kvol` multiplies per column; the lowering does them for
//! `OH·OW` columns a sample and pays, on top, for copying each of those
//! columns `kvol` times in and out of the column matrix — a cost that does
//! not depend on `OC`. The padded path copies nothing but multiplies
//! columns it then throws away: the gaps of the pitch layout (below), the
//! round-up of each sample's product to whole register tiles
//! ([`gemm::NN_TILE_COLUMNS`] = 16 columns), and a per-sample set-up worth
//! about two columns. So it pays when
//!
//! ```text
//! OC · (ceil16((OH−1)·(W+2p) + OW) + 2 − OH·OW)  ≤  20 · OH·OW
//! ```
//!
//! — the wasted multiplies, which grow with `OC`, against the copies saved,
//! which do not. The constant (one column's copies ≈ 20 output channels'
//! multiplies) is measured: the two paths break even near 40 on a sweep of
//! 468 shapes (planes 2–16, kernels 1/3/5, 3–64 → 8–256 channels, batch 2
//! and 32), and half of that leaves every shape taken a win, forward alone
//! and whole step. One training step at batch 32 (forward + `dX` + `dW`,
//! one thread, AVX2, µs; the lowering column already has the padded path's
//! own GEMM fixes, without which it is slower still). The table was measured
//! before the paired `nt` kernel and the in-register short copies
//! (`fedzkt_tensor::ops::copy_run`), which speed up both paths' copies and
//! `dW`; it has not been re-measured since, and the rule is unchanged:
//!
//! | shape | lowering | padded | lowering / padded | taken |
//! |---|---|---|---|---|
//! | `[32,1,12,12]*[3,1,5,5]` p2 (LeNet conv1, no `dX`) | 325 | 132 | 2.5× | yes |
//! | `[32,3,6,6]*[8,3,5,5]` p2 (LeNet conv2) | 535 | 318 | 1.7× | yes |
//! | `[32,3,12,12]*[16,3,3,3]` p1 | 1033 | 606 | 1.7× | yes |
//! | `[32,8,12,12]*[8,8,3,3]` p1 | 2074 | 973 | 2.1× | yes |
//! | `[32,16,12,12]*[32,16,3,3]` p1 | 7596 | 5541 | 1.4× | yes |
//! | `[32,16,12,12]*[64,16,1,1]` | 1685 | 1368 | 1.2× | yes |
//! | `[32,12,6,6]*[12,12,1,1]` | 132 | 82 | 1.6× | yes |
//! | `[32,32,6,6]*[64,32,3,3]` p1 | 6360 | 5426 | 1.2× | no (the rule is conservative) |
//! | `[32,64,6,6]*[128,64,1,1]` | 2505 | 2417 | even | no |
//! | `[32,32,3,3]*[64,32,1,1]` | 285 | 298 | 0.96× | no |
//! | `[32,32,6,6]*[64,32,5,5]` p2 | 17634 | 17671 | even; forward alone 0.79× | no |
//! | `[32,128,4,4]*[128,128,3,3]` p1 | 21227 | 26847 | 0.79× | no |
//!
//! The rule was fitted on the AVX2 backend only. The scalar backend has no
//! register tile to round up to and a different per-sample overhead, and one
//! rule serves both, so there it is a worse fit: replayed with the scalar
//! kernels forced (135 batch-32 shapes, planes 3–12), the 83 shapes it takes
//! run at a median 1.15× the lowering — every 12×12 plane wins (1.01–1.57×),
//! LeNet's two layers 1.60× and 1.27× — but 9 of them lose by more than 3 %,
//! all 3×3 or 5×5 kernels on planes of 8×8 or less, the worst
//! `[32,32,3,3]*[16,32,3,3]` p1 at 0.73×. The bits are the lowering's on
//! either backend.
//!
//! ## Depthwise (`C / groups == 1`, `OC == C`)
//!
//! A depthwise conv lowered like the others is `C` one-row GEMMs with
//! nothing to reuse, so [`Var::conv2d`] hands those shapes to the direct
//! kernels in `fedzkt_tensor::ops`
//! ([`depthwise_conv2d`], [`depthwise_conv2d_dx`], [`depthwise_conv2d_dw`]).
//! They reproduce the lowering's float sequence exactly — forward, `dX`
//! and `dW` are bitwise the lowering's (pinned by
//! `depthwise_direct_matches_lowering` below, with the lowering as the
//! oracle). Non-finite weights keep the lowering.
//!
//! ## The padded path (dense, stride 1)
//!
//! LeNet's first layer lowers a 1-channel 12×12 image to a 25-row column
//! matrix — 25× the input — to feed a 3-row GEMM; copying is most of the
//! time. With stride 1 the copy is unnecessary, because the column matrix
//! is already in memory, overlapping itself:
//!
//! * **Layout.** The batch is copied once into zero-padded planes
//!   `Xp[N, C, H+2p, W+2p]` (`1×` the input, not `KH·KW×`; an unpadded conv
//!   reads the input where it lies). Write `P = W+2p` for the padded row
//!   pitch. Address the *output* plane with the same pitch — column
//!   `j = oy·P + ox`, `flat = (OH−1)·P + OW` columns a sample, of which the
//!   `ox ≥ OW` ones are gaps — and row `(c, kh, kw)` of the sample's column
//!   matrix is the `flat` floats of `Xp` starting at `c·plane + kh·P + kw`:
//!   tap `(kh, kw)` of output pixel `(oy, ox)` is at `(oy+kh)·P + ox+kw`.
//!   The last row ends exactly on the sample's last padded element.
//! * **Forward.** One [`gemm::gemm_nn_rows`] per sample, `W[OC, kvol]`
//!   against those rows located through a table of `kvol` starts; the real
//!   columns are then copied out (`KW = 1` has no gaps and writes the
//!   output directly). *Float order:* each output element is the lowering's
//!   own sum — from `0.0`, `+= w·x` over `(c, kh, kw)` ascending, taps on
//!   padding multiplying an explicit `0.0` in both — because a GEMM's
//!   per-element sequence does not depend on which other columns sit beside
//!   it. This holds for non-finite weights too.
//! * **`dX`.** Per sample, the output gradient is spread to pitch layout
//!   (zeros in the gaps) and `dcol_s[kvol, flat] = Wᵀ · go_s` is one GEMM
//!   into a cache-sized buffer (`Wᵀ` is written out once and multiplied
//!   by `gemm_nn`, which shares `gemm_tn`'s kernel and its ascending-`OC`
//!   order but packs contiguous rows); then row `(c, kh, kw)` is one flat `+=` of
//!   `flat` floats into a zero-padded gradient plane at that row's start,
//!   rows ascending, and the interior is copied out. *Float order:* the real
//!   columns of `dcol_s` are the lowering's `dcol` (same GEMM sequence over
//!   `OC`), and they land on each input pixel in `col2im`'s order, `(kh, kw)`
//!   ascending. What differs is only what the lowering skips: gap columns
//!   hold `Σ w·0.0 = +0.0` for finite `w` and add `+0.0` to accumulators
//!   that started at `+0.0` and therefore never hold `-0.0`, which changes
//!   no bit; taps on padding land outside the interior. A non-finite weight
//!   makes the gap columns `NaN`, which is why such weights stay lowered.
//! * **`dW`.** The output gradient is gathered `[OC, N·OH·OW]` as the
//!   lowering gathers it, and the lowering's column matrix is rebuilt
//!   compactly from `Xp` — but only `DW_BLOCK` floats' worth of rows at a
//!   time, each block reduced by the same [`gemm::gemm_nt`] dispatch and
//!   dropped. *Float order:* every `dW` element is one row·row reduction of
//!   the same two rows the lowering reduces, through the same backend
//!   (reduction tree on AVX2, single accumulator on scalar), and how many
//!   rows share a call never enters a reduction.
//!
//! Forward and `dX` partition samples and `dW` partitions row blocks, under
//! the lowering's thresholds; every element is computed by one worker with
//! a fixed sequence, so results are bit-identical for every thread count
//! (`padded_path_matches_lowering` below runs at one worker and at four).
//!
//! ## The fused lowering
//!
//! The forward pass never materialises the full `[kvol, N·OH·OW]` column
//! matrix: it lowers and consumes the batch **panel by panel**
//! ([`im2col_panel`] builds [`FUSE_PANEL`] columns at a time, one GEMM per
//! panel against the group's weight matrix), so peak lowering memory is
//! `O(kvol · FUSE_PANEL)` per worker instead of `O(kvol · N·OH·OW)` — a
//! `KH·KW`-fold saving over the input itself, which matters most in the
//! inference-heavy phases (eval, the distillation game) where the old
//! implementation also *retained* the column matrices for a backward pass
//! that never came. Panels are the unit of parallelism (`par::map_indexed`,
//! one panel per worker at a time) and every panel is computed by the same
//! float sequence regardless of thread assignment, so results stay
//! bit-identical for every thread count — and, because a GEMM's per-element
//! accumulation order is independent of how the N dimension is split, the
//! fused forward is bit-identical to the unfused whole-batch GEMM it
//! replaced.
//!
//! The backward pass still wants whole-batch column matrices (`dW += go ×
//! colᵀ` is one big `nt` GEMM), so it **recomputes** `im2col_batch` from
//! the input's value instead of retaining it from the forward — trading one
//! extra lowering per backward for not holding a `KH·KW`-times-input-sized
//! buffer across the whole forward/backward gap. The recomputed matrix is
//! bitwise the one the old code retained, so gradients are unchanged.
//!
//! ## What the backward reads
//!
//! No path saves a copy of its operands. The backward reads the input (for
//! `dW`) and the weights (for `dX`) from the tape, through a
//! [`ParentRef`] on each parent, and only the one a requested gradient
//! needs: a frozen weight's conv keeps no input alive, a constant input's
//! conv no weights. The reader keeps what it reads alive, so a copy would
//! only double the conv's operands for the forward/backward gap. Writing
//! either operand between the forward and the backward (an optimizer
//! step) makes the backward panic rather than read the new value.

use crate::var::ParentRef;
use crate::Var;
use std::borrow::Cow;
use fedzkt_tensor::ops::{
    col2im, copy_run, depthwise_conv2d, depthwise_conv2d_dw, depthwise_conv2d_dx, gemm,
    im2col_batch, im2col_panel, Conv2dGeometry,
};
use fedzkt_tensor::{par, Tensor};

/// Columns lowered and consumed per fused-forward panel. 256 output pixels
/// keeps a worker's column panel (`kvol × 256` floats, ≤ 1.2 MiB for the
/// zoo's widest `kvol = 1152`) L2-resident next to the weight matrix while
/// still amortising the per-panel GEMM setup.
const FUSE_PANEL: usize = 256;

/// Per-sample set-up of the padded path (weight packing, the offset-table
/// check), in columns' worth of multiplies.
const PADDED_SETUP: usize = 2;

/// What the lowering pays to copy one column in and out of the column
/// matrix, in output channels' worth of multiplies. Measured break-even is
/// about 40; 20 keeps every shape the padded path takes a win.
const PADDED_COPY: usize = 20;

/// Column-matrix elements the padded path's `dW` holds at once (256 KiB): a
/// block of rows stays L2-resident while every row of the output gradient
/// is reduced against it, and the gradient is re-read once per block, not
/// once per row (one row at a time is 0.88× the lowering at `OC = 256`).
const DW_BLOCK: usize = 1 << 16;

impl Var {
    /// 2-D convolution over an NCHW batch.
    ///
    /// * `self`: input `[N, C, H, W]`
    /// * `weight`: kernels `[OC, C / groups, KH, KW]`
    /// * `stride`, `pad`: applied to both spatial dims
    /// * `groups`: channel groups; `groups == C` with `OC == C` gives a
    ///   depthwise convolution (MobileNetV2/ShuffleNetV2 building block)
    ///
    /// # Panics
    /// Panics when shapes are inconsistent, `groups` does not divide both
    /// `C` and `OC`, or the kernel does not fit the padded input.
    #[track_caller]
    pub fn conv2d(&self, weight: &Var, stride: usize, pad: usize, groups: usize) -> Var {
        let (xs, ws) = (self.shape(), weight.shape());
        assert_eq!(xs.len(), 4, "conv2d input must be [N, C, H, W], got {xs:?}");
        assert_eq!(ws.len(), 4, "conv2d weight must be [OC, C/g, KH, KW], got {ws:?}");
        let (c, oc, c_per_g) = (xs[1], ws[0], ws[1]);
        assert!(groups > 0 && c.is_multiple_of(groups) && oc.is_multiple_of(groups), "groups {groups} must divide C={c} and OC={oc}");
        assert_eq!(c / groups, c_per_g, "weight in-channels {c_per_g} != C/groups {}", c / groups);
        let geom = Conv2dGeometry::new(c_per_g, xs[2], xs[3], ws[2], ws[3], stride, pad)
            .expect("conv2d geometry");
        // Non-finite weights keep the lowering: the dX of both other paths is
        // bitwise the lowering's for finite weights only.
        let finite = || weight.value().data().iter().all(|v| v.is_finite());
        if c_per_g == 1 && oc == c && finite() {
            conv2d_depthwise(self, weight, &geom)
        } else if groups == 1 && padded_pays(&geom, oc) && finite() {
            conv2d_padded(self, weight, &geom)
        } else {
            conv2d_lowered(self, weight, &geom, groups)
        }
    }

    /// Add a per-channel bias `[C]` over an NCHW batch.
    ///
    /// # Panics
    /// Panics when `self` is not 4-D or `bias` is not `[C]`.
    pub fn add_channel_bias(&self, bias: &Var) -> Var {
        let xs = self.shape();
        assert_eq!(xs.len(), 4, "add_channel_bias input must be NCHW");
        let (n, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
        assert_eq!(bias.shape(), vec![c], "bias must be [C]");
        let hw = h * w;
        let mut out = Vec::with_capacity(n * c * hw);
        {
            let (x, b) = (self.value(), bias.value());
            for (i, &bv) in (0..n * c).zip(b.data().iter().cycle()) {
                out.extend(x.data()[i * hw..(i + 1) * hw].iter().map(|&v| v + bv));
            }
        }
        let value = Tensor::from_vec(out, &xs).expect("add_channel_bias");
        let need = (self.requires_grad(), bias.param_requires_grad());
        Var::from_op(value, vec![self.clone(), bias.clone()], move |g| {
            let gb = need.1.then(|| {
                let mut acc = vec![0.0f32; c];
                for s in 0..n {
                    for (ch, a) in acc.iter_mut().enumerate() {
                        let base = s * c * hw + ch * hw;
                        *a += g.data()[base..base + hw].iter().sum::<f32>();
                    }
                }
                Tensor::from_vec(acc, &[c]).expect("channel bias grad")
            });
            vec![need.0.then(|| g.clone()), gb]
        })
    }
}

/// Depthwise `conv2d` on the direct kernels: `weight` is `[C, 1, KH, KW]`,
/// `geom` the single-channel geometry. Bitwise [`conv2d_lowered`] with
/// `groups = C` for finite weights.
#[track_caller]
fn conv2d_depthwise(input: &Var, weight: &Var, geom: &Conv2dGeometry) -> Var {
    let geom = *geom;
    let (xs, ws) = (input.shape(), weight.shape());
    let (n, c) = (xs[0], xs[1]);
    let out_shape = [n, c, geom.out_h, geom.out_w];
    let mut out = vec![0.0f32; out_shape.iter().product()];
    depthwise_conv2d(input.value().data(), weight.value().data(), n, c, &geom, &mut out);
    let value = Tensor::from_vec(out, &out_shape).expect("conv2d output");

    let (saved_x, saved_w) = saved_for_backward(input, weight);
    Var::from_op(value, vec![input.clone(), weight.clone()], move |grad| {
        let gx = saved_w.as_ref().map(|w| {
            let mut gx = vec![0.0f32; xs.iter().product()];
            w.with_value(|w| depthwise_conv2d_dx(grad.data(), w.data(), n, c, &geom, &mut gx));
            Tensor::from_vec(gx, &xs).expect("conv2d dX")
        });
        let gw = saved_x.as_ref().map(|x| {
            let mut gw = vec![0.0f32; ws.iter().product()];
            x.with_value(|x| depthwise_conv2d_dw(x.data(), grad.data(), n, c, &geom, &mut gw));
            Tensor::from_vec(gw, &ws).expect("conv2d dW")
        });
        vec![gx, gw]
    })
}

/// Whether [`conv2d_padded`] beats the lowering on a `groups = 1` conv: the
/// multiplies it wastes, which grow with `OC`, against the copies it saves,
/// which do not (module docs, "Which path").
fn padded_pays(geom: &Conv2dGeometry, oc: usize) -> bool {
    if geom.stride != 1 {
        return false;
    }
    let hw_out = geom.out_h * geom.out_w;
    let extra = pitch_columns(geom).next_multiple_of(gemm::NN_TILE_COLUMNS) + PADDED_SETUP - hw_out;
    oc * extra <= PADDED_COPY * hw_out
}

/// Pitch-layout columns of one sample: `(OH − 1)·(W + 2·pad) + OW`, the
/// output plane addressed with the padded input's row pitch, minus the gap
/// after the last row.
fn pitch_columns(g: &Conv2dGeometry) -> usize {
    (g.out_h - 1) * (g.in_w + 2 * g.pad) + g.out_w
}

/// The padded path's view of one stride-1 conv: where everything sits in
/// the zero-padded planes and in pitch-layout columns (module docs).
#[derive(Clone, Copy)]
struct PaddedLayout {
    /// Whole-conv geometry: `channels` is `C`.
    g: Conv2dGeometry,
    n: usize,
    oc: usize,
    /// Padded row length `W + 2·pad`: the distance between vertically
    /// adjacent pixels of the input *and* of a pitch-layout output row.
    pitch: usize,
    /// Elements per padded plane, `(H + 2·pad) · pitch`.
    plane: usize,
    /// [`pitch_columns`].
    flat: usize,
}

impl PaddedLayout {
    fn new(n: usize, oc: usize, g: &Conv2dGeometry) -> Self {
        let pitch = g.in_w + 2 * g.pad;
        let plane = (g.in_h + 2 * g.pad) * pitch;
        PaddedLayout { g: *g, n, oc, pitch, plane, flat: pitch_columns(g) }
    }

    fn kvol(&self) -> usize {
        self.g.col_rows()
    }

    /// Start of column-matrix row `(c, kh, kw)` within one sample's padded
    /// planes: its `flat` values are the plane read from tap `(kh, kw)` on.
    /// The last row ends exactly at the sample's last padded element.
    fn row_starts(&self) -> Vec<usize> {
        let g = &self.g;
        let mut starts = Vec::with_capacity(self.kvol());
        for c in 0..g.channels {
            for kh in 0..g.kernel_h {
                starts.extend((0..g.kernel_w).map(|kw| c * self.plane + kh * self.pitch + kw));
            }
        }
        starts
    }

    /// The batch as zero-padded planes `[N, C, H + 2·pad, W + 2·pad]`; an
    /// unpadded conv reads the input where it lies.
    fn padded<'a>(&self, x: &'a [f32]) -> Cow<'a, [f32]> {
        let g = &self.g;
        if g.pad == 0 {
            return Cow::Borrowed(x);
        }
        let mut xp = vec![0.0f32; self.n * g.channels * self.plane];
        for (src, dst) in x.chunks_exact(g.in_h * g.in_w).zip(xp.chunks_exact_mut(self.plane)) {
            self.interior(dst, |y, row| copy_run(row, &src[y * g.in_w..][..g.in_w]));
        }
        Cow::Owned(xp)
    }

    /// Visit the `H` interior rows (`W` elements each) of one padded plane.
    fn interior<'a>(&self, plane: &'a mut [f32], mut f: impl FnMut(usize, &'a mut [f32])) {
        let g = &self.g;
        let rows = plane.chunks_exact_mut(self.pitch).skip(g.pad).take(g.in_h);
        for (y, row) in rows.enumerate() {
            f(y, &mut row[g.pad..g.pad + g.in_w]);
        }
    }

    /// Visit, for each of `channels` pitch-layout rows of `flat` elements,
    /// its `OH` runs of `OW` real columns: `f(channel · OH + oy, run)`.
    fn real_columns<'a>(&self, wide: &'a mut [f32], mut f: impl FnMut(usize, &'a mut [f32])) {
        for (ch, row) in wide.chunks_exact_mut(self.flat).enumerate() {
            // The last run has no gap after it, hence `chunks`, not `_exact`.
            for (oy, run) in row.chunks_mut(self.pitch).enumerate() {
                f(ch * self.g.out_h + oy, &mut run[..self.g.out_w]);
            }
        }
    }
}

/// What a conv's backward will read from the tape: the input (for `dW`)
/// and the weights (for `dX`), each only when that gradient is asked for —
/// so a frozen forward keeps no input alive and a constant input no
/// weights.
#[track_caller]
fn saved_for_backward(input: &Var, weight: &Var) -> (Option<ParentRef>, Option<ParentRef>) {
    (
        input.parent_ref_if(weight.param_requires_grad(), "conv2d"),
        weight.parent_ref_if(input.requires_grad(), "conv2d"),
    )
}

/// Dense stride-1 `conv2d` (`groups = 1`) straight from the zero-padded
/// batch — no column matrix (module docs). Bitwise [`conv2d_lowered`] for
/// finite weights.
#[track_caller]
fn conv2d_padded(input: &Var, weight: &Var, geom: &Conv2dGeometry) -> Var {
    let (x, w) = (input.value(), weight.value());
    let xs = x.shape().to_vec();
    let ws = w.shape().to_vec();
    let l = PaddedLayout::new(xs[0], ws[0], geom);
    let (n, c, oc, kvol, flat) = (l.n, geom.channels, l.oc, l.kvol(), l.flat);
    let (in_len, ow, hw_out) = (geom.input_len(), geom.out_w, geom.col_cols());
    let starts = l.row_starts();
    let threads = |macs: usize| if macs >= gemm::PAR_MIN_MACS { par::max_threads() } else { 1 };

    // Forward, per sample: out_s [OC, flat] = W [OC, kvol] x col_s, where row
    // (c, kh, kw) of col_s is the padded sample read from `starts` on.
    let (xp, wd) = (l.padded(x.data()), w.data());
    let mut out = vec![0.0f32; n * oc * hw_out];
    par::for_each_chunk_mut(&mut out, oc * hw_out, threads(n * oc * kvol * flat), |s0, chunk| {
        let mut wide = vec![0.0f32; if flat == hw_out { 0 } else { oc * flat }];
        for (s, out_s) in (s0..).zip(chunk.chunks_exact_mut(oc * hw_out)) {
            let xp_s = &xp[s * c * l.plane..(s + 1) * c * l.plane];
            if flat == hw_out {
                // KW = 1: no gap columns, the product is the output.
                gemm::gemm_nn_rows(wd, xp_s, &starts, out_s, oc, kvol, flat);
                continue;
            }
            wide.fill(0.0);
            gemm::gemm_nn_rows(wd, xp_s, &starts, &mut wide, oc, kvol, flat);
            l.real_columns(&mut wide, |r, run| copy_run(&mut out_s[r * ow..][..ow], run));
        }
    });
    drop(xp);
    let value = Tensor::from_vec(out, &[n, oc, geom.out_h, ow]).expect("conv2d output");

    let (saved_x, saved_w) = saved_for_backward(input, weight);
    Var::from_op(value, vec![input.clone(), weight.clone()], move |grad| {
        let gx = saved_w.as_ref().map(|w| {
            w.with_value(|w| {
                // Per sample: dcol_s [kvol, flat] = W^T x go_s, with go_s in pitch
                // layout (zeros in the gap columns); then row (c, kh, kw) is one
                // flat += into the padded gradient at that row's start — the
                // order col2im scatters in — and the interior is the answer.
                let mut gx = vec![0.0f32; n * in_len];
                // W^T once, so every sample's product packs contiguous rows.
                let mut wt = vec![0.0f32; kvol * oc];
                for (o, row) in w.data().chunks_exact(kvol).enumerate() {
                    for (t, &v) in row.iter().enumerate() {
                        wt[t * oc + o] = v;
                    }
                }
                par::for_each_chunk_mut(
                    &mut gx,
                    in_len,
                    threads(n * oc * kvol * flat),
                    |s0, chunk| {
                        let mut go_wide = vec![0.0f32; if flat == hw_out { 0 } else { oc * flat }];
                        let mut dcol = vec![0.0f32; kvol * flat];
                        let mut gxp = vec![0.0f32; if l.g.pad == 0 { 0 } else { c * l.plane }];
                        for (s, gx_s) in (s0..).zip(chunk.chunks_exact_mut(in_len)) {
                            let go_s = &grad.data()[s * oc * hw_out..(s + 1) * oc * hw_out];
                            let go_s = if flat == hw_out {
                                go_s
                            } else {
                                l.real_columns(&mut go_wide, |r, run| {
                                    copy_run(run, &go_s[r * ow..][..ow]);
                                });
                                &go_wide[..]
                            };
                            dcol.fill(0.0);
                            gemm::gemm_nn(&wt, go_s, &mut dcol, kvol, oc, flat);
                            gxp.fill(0.0);
                            let acc = if l.g.pad == 0 { &mut *gx_s } else { &mut gxp[..] };
                            for (row, &start) in dcol.chunks_exact(flat).zip(&starts) {
                                for (a, &v) in acc[start..start + flat].iter_mut().zip(row) {
                                    *a += v;
                                }
                            }
                            if l.g.pad != 0 {
                                let (h, w) = (l.g.in_h, l.g.in_w);
                                for (src, dst) in
                                    gxp.chunks_exact_mut(l.plane).zip(gx_s.chunks_exact_mut(h * w))
                                {
                                    l.interior(src, |y, row| {
                                        copy_run(&mut dst[y * w..][..w], row)
                                    });
                                }
                            }
                        }
                    },
                );
                Tensor::from_vec(gx, &xs).expect("conv2d dX")
            })
        });
        let gw = saved_x.as_ref().map(|x| {
            x.with_value(|x| {
                // go gathered [OC, N·OHOW] as the lowering gathers it; then the
                // lowering's column matrix a few compact rows at a time, each
                // block reduced against go by the same `gemm_nt` dispatch.
                let ncols = n * hw_out;
                let mut go = vec![0.0f32; oc * ncols];
                for s in 0..n {
                    for o in 0..oc {
                        copy_run(
                            &mut go[o * ncols + s * hw_out..][..hw_out],
                            &grad.data()[(s * oc + o) * hw_out..][..hw_out],
                        );
                    }
                }
                let xp = l.padded(x.data());
                let block = (DW_BLOCK / ncols.max(1)).clamp(1, kvol.max(1));
                let blocks = kvol.div_ceil(block);
                let parts = par::map_indexed(blocks, threads(oc * kvol * ncols), |b| {
                    let starts = &starts[b * block..kvol.min((b + 1) * block)];
                    let mut cols = vec![0.0f32; starts.len() * ncols];
                    for (&start, col_row) in starts.iter().zip(cols.chunks_exact_mut(ncols.max(1)))
                    {
                        let mut runs = col_row.chunks_exact_mut(ow);
                        for xp_s in xp.chunks_exact(c * l.plane) {
                            // (`rows` first: a spent zip must not draw another run.)
                            let rows = xp_s[start..].chunks(l.pitch).take(l.g.out_h);
                            for (src, run) in rows.zip(&mut runs) {
                                copy_run(run, &src[..ow]);
                            }
                        }
                    }
                    let mut part = vec![0.0f32; oc * starts.len()];
                    gemm::gemm_nt(&go, &cols, &mut part, oc, ncols, starts.len());
                    part
                });
                let mut gw = vec![0.0f32; oc * kvol];
                for (b, part) in parts.iter().enumerate() {
                    let rows = block.min(kvol - b * block);
                    for (o, part_row) in part.chunks_exact(rows).enumerate() {
                        copy_run(&mut gw[o * kvol + b * block..][..rows], part_row);
                    }
                }
                Tensor::from_vec(gw, &ws).expect("conv2d dW")
            })
        });
        vec![gx, gw]
    })
}

/// `conv2d` by fused im2col + GEMM lowering (module docs), for any `groups`
/// dividing `C` and `OC`; `geom` describes one group (`channels = C/groups`).
/// Production path for dense and grouped shapes, and the oracle the direct
/// depthwise kernels are tested against.
#[track_caller]
fn conv2d_lowered(input: &Var, weight: &Var, geom: &Conv2dGeometry, groups: usize) -> Var {
    let (x, w) = (input.value(), weight.value());
    let geom = *geom;
    let xs = x.shape().to_vec();
    let ws = w.shape().to_vec();
    let (n, c, h, width) = (xs[0], xs[1], xs[2], xs[3]);
    let (oc, c_per_g, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);

    let (oh, ow) = (geom.out_h, geom.out_w);
    let oc_per_g = oc / groups;
    let group_in = c_per_g * h * width;
    let kvol = c_per_g * kh * kw;

    // Forward: fused lowering. Per group, the column matrix is built
    // and consumed FUSE_PANEL columns at a time:
    //   out_g[:, c0..c0+pw] = W_g [OCg, kvol] x col_g[:, c0..c0+pw],
    // with col_g's columns sample-major (im2col_panel). Panels are
    // independent, so they run one-per-worker; splitting N this way
    // leaves each output element's k-accumulation order untouched, so
    // the result is bit-identical to the unfused whole-batch GEMM.
    let hw_out = oh * ow;
    let ncols = n * hw_out;
    let sample_stride = c * h * width;
    let mut out = vec![0.0f32; n * oc * hw_out];
    let panels = ncols.div_ceil(FUSE_PANEL.max(1));
    // Panels fork once per group, so the gate is the per-group product.
    let threads =
        if oc_per_g * kvol * ncols >= gemm::PAR_MIN_MACS { par::max_threads() } else { 1 };
    let xd = x.data();
    for g in 0..groups {
        let wg = &w.data()[g * oc_per_g * kvol..(g + 1) * oc_per_g * kvol];
        let panel_outs: Vec<Vec<f32>> = par::map_indexed(panels, threads, |p| {
            let c0 = p * FUSE_PANEL;
            let pw = FUSE_PANEL.min(ncols - c0);
            let mut col = vec![0.0f32; kvol * pw];
            im2col_panel(xd, g * group_in, sample_stride, n, &geom, c0, &mut col);
            let mut og = vec![0.0f32; oc_per_g * pw];
            gemm::gemm_nn(wg, &col, &mut og, oc_per_g, kvol, pw);
            og
        });
        // Scatter [OCg, panel] blocks (sample-major columns) into NCHW.
        for (p, og) in panel_outs.iter().enumerate() {
            let c0 = p * FUSE_PANEL;
            let pw = FUSE_PANEL.min(ncols - c0);
            for ol in 0..oc_per_g {
                let src_row = &og[ol * pw..(ol + 1) * pw];
                let mut j = 0usize;
                while j < pw {
                    let s = (c0 + j) / hw_out;
                    let px = (c0 + j) % hw_out;
                    let run = (hw_out - px).min(pw - j);
                    copy_run(
                        &mut out[s * oc * hw_out + (g * oc_per_g + ol) * hw_out + px..][..run],
                        &src_row[j..j + run],
                    );
                    j += run;
                }
            }
        }
    }
    let value = Tensor::from_vec(out, &[n, oc, oh, ow]).expect("conv2d output");

    let (saved_x, saved_w) = saved_for_backward(input, weight);
    let (xs, ws) = ([n, c, h, width], [oc, c_per_g, kh, kw]);
    Var::from_op(value, vec![input.clone(), weight.clone()], move |grad| {
        ParentRef::with_opt(saved_x.as_ref(), |x| {
            ParentRef::with_opt(saved_w.as_ref(), |w| {
                lowered_grads(grad, x, w, &geom, &xs, &ws, groups)
            })
        })
    })
}

/// The lowering's backward: `dX` when given the weights `w`, `dW` when given
/// the input `x`, for the output gradient `grad`. `xs` and `ws` are the
/// input and weight shapes, `geom` one group's geometry.
pub(crate) fn lowered_grads(
    grad: &Tensor,
    x: Option<&Tensor>,
    w: Option<&Tensor>,
    geom: &Conv2dGeometry,
    xs: &[usize; 4],
    ws: &[usize; 4],
    groups: usize,
) -> Vec<Option<Tensor>> {
    let ([n, c, h, width], [oc, c_per_g, kh, kw]) = (*xs, *ws);
    let (hw_out, kvol, oc_per_g) = (geom.col_cols(), c_per_g * kh * kw, oc / groups);
    let (ncols, sample_stride, group_in) = (n * hw_out, c * h * width, c_per_g * h * width);
    let mut gx = w.map(|_| vec![0.0f32; n * sample_stride]);
    let mut gw = x.map(|_| vec![0.0f32; oc * kvol]);
    // dcol_g is needed per group before the sample-parallel col2im
    // scatter, so groups are processed in two phases.
    let mut dcols: Vec<Vec<f32>> = Vec::with_capacity(if gx.is_some() { groups } else { 0 });
    for g in 0..groups {
        // Gather grad group g into [OCg, N·OHOW] sample-major columns.
        let mut go = vec![0.0f32; oc_per_g * ncols];
        for s in 0..n {
            for ol in 0..oc_per_g {
                let src = &grad.data()[s * oc * hw_out + (g * oc_per_g + ol) * hw_out..][..hw_out];
                copy_run(&mut go[ol * ncols + s * hw_out..][..hw_out], src);
            }
        }
        if let (Some(gw), Some(x)) = (gw.as_mut(), x) {
            // Recompute this group's whole-batch column matrix from the
            // input on the tape — the forward consumed it panel by panel and
            // deliberately retained nothing (see module docs). Bitwise
            // the matrix the pre-fusion code kept alive.
            let col = im2col_batch(x.data(), g * group_in, sample_stride, n, geom);
            // dW_g += go [OCg, N·OHOW] x col_g^T [N·OHOW, kvol].
            let dst = &mut gw[g * oc_per_g * kvol..(g + 1) * oc_per_g * kvol];
            gemm::gemm_nt(&go, &col, dst, oc_per_g, ncols, kvol);
        }
        if let Some(w) = w {
            // dcol_g = W_g^T [kvol, OCg] x go [OCg, N·OHOW]
            let wg = &w.data()[g * oc_per_g * kvol..(g + 1) * oc_per_g * kvol];
            let mut dcol = vec![0.0f32; kvol * ncols];
            gemm::gemm_tn(wg, &go, &mut dcol, oc_per_g, kvol, ncols);
            dcols.push(dcol);
        }
    }
    if let Some(gx) = gx.as_mut() {
        // col2im is independent per sample; samples own disjoint
        // contiguous [C, H, W] gradient slices, so they scatter in
        // parallel (bit-identical for any thread count).
        let threads =
            if n * groups * kvol * hw_out >= par::PAR_MIN_ELEMS { par::max_threads() } else { 1 };
        par::for_each_chunk_mut(gx, sample_stride, threads, |s0, chunk| {
            let mut dcol_s = vec![0.0f32; kvol * hw_out];
            for (ds, slice) in chunk.chunks_mut(sample_stride).enumerate() {
                let s = s0 + ds;
                for (g, dcol) in dcols.iter().enumerate() {
                    for r in 0..kvol {
                        copy_run(
                            &mut dcol_s[r * hw_out..(r + 1) * hw_out],
                            &dcol[r * ncols + s * hw_out..][..hw_out],
                        );
                    }
                    let gslice = col2im(&dcol_s, geom);
                    let dst = &mut slice[g * group_in..(g + 1) * group_in];
                    for (d, v) in dst.iter_mut().zip(gslice) {
                        *d += v;
                    }
                }
            }
        });
    }
    vec![
        gx.map(|v| Tensor::from_vec(v, &[n, c, h, width]).expect("conv2d dX")),
        gw.map(|v| Tensor::from_vec(v, &[oc, c_per_g, kh, kw]).expect("conv2d dW")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_tensor::seeded_rng;

    /// Direct (definition-level) convolution for cross-checking.
    fn conv_naive(
        x: &Tensor,
        w: &Tensor,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Tensor {
        let (n, _c, h, wid) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oc, cpg, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (wid + 2 * pad - kw) / stride + 1;
        let ocpg = oc / groups;
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for s in 0..n {
            for o in 0..oc {
                let g = o / ocpg;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ci in 0..cpg {
                            let cin = g * cpg + ci;
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= wid as isize {
                                        continue;
                                    }
                                    acc += x.at(&[s, cin, iy as usize, ix as usize]).unwrap()
                                        * w.at(&[o, ci, ky, kx]).unwrap();
                                }
                            }
                        }
                        out.set(&[s, o, oy, ox], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv2d_matches_naive_dense() {
        let mut rng = seeded_rng(21);
        let x = Tensor::randn(&[2, 3, 6, 5], &mut rng);
        let w = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let out = Var::constant(x.clone())
                .conv2d(&Var::constant(w.clone()), stride, pad, 1);
            let expected = conv_naive(&x, &w, stride, pad, 1);
            assert_eq!(out.shape(), expected.shape().to_vec());
            for (a, b) in out.value().data().iter().zip(expected.data()) {
                assert!((a - b).abs() < 1e-3, "{a} vs {b} (stride {stride} pad {pad})");
            }
        }
    }

    #[test]
    fn conv2d_matches_naive_grouped_and_depthwise() {
        let mut rng = seeded_rng(22);
        let x = Tensor::randn(&[1, 4, 5, 5], &mut rng);
        // Grouped: groups=2.
        let wg = Tensor::randn(&[6, 2, 3, 3], &mut rng);
        let out = Var::constant(x.clone()).conv2d(&Var::constant(wg.clone()), 1, 1, 2);
        let expected = conv_naive(&x, &wg, 1, 1, 2);
        for (a, b) in out.value().data().iter().zip(expected.data()) {
            assert!((a - b).abs() < 1e-3);
        }
        // Depthwise: groups=C=4, OC=4.
        let wd = Tensor::randn(&[4, 1, 3, 3], &mut rng);
        let out = Var::constant(x.clone()).conv2d(&Var::constant(wd.clone()), 1, 1, 4);
        let expected = conv_naive(&x, &wd, 1, 1, 4);
        for (a, b) in out.value().data().iter().zip(expected.data()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn conv2d_1x1_is_channel_mixing() {
        let mut rng = seeded_rng(23);
        let x = Tensor::randn(&[1, 2, 3, 3], &mut rng);
        let w = Tensor::randn(&[3, 2, 1, 1], &mut rng);
        let out = Var::constant(x.clone()).conv2d(&Var::constant(w.clone()), 1, 0, 1);
        let expected = conv_naive(&x, &w, 1, 0, 1);
        for (a, b) in out.value().data().iter().zip(expected.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    /// Output, dX and dW bits of `build(x, w)` under the loss `Σ y·r`, where
    /// `r` is a fixed random tensor so the output gradient is not flat.
    fn conv_bits(
        x: &Tensor,
        w: &Tensor,
        build: impl Fn(&Var, &Var) -> Var,
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let (xv, wv) = (Var::parameter(x.clone()), Var::parameter(w.clone()));
        let y = build(&xv, &wv);
        let r = Tensor::randn(&y.shape(), &mut seeded_rng(77));
        y.mul(&Var::constant(r)).sum_all().backward();
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        (bits(y.value_clone()), bits(xv.grad().unwrap()), bits(wv.grad().unwrap()))
    }

    /// The direct depthwise kernels against the lowering oracle, **bitwise**
    /// on forward, dX and dW, over remainder-heavy shapes (batch and channel
    /// counts off every block size, H ≠ W, every kernel/stride/pad the zoo
    /// could ask for, plus non-square kernels, stride 3 and a plane narrower
    /// than the stride) and over the zoo's own: its 12×12, 6×6 and 3×3
    /// planes and odd 7×7 and 5×5 ones at `k3 p1`, both strides, its channel
    /// counts, batch 1 and 32, with inputs laced with `-0.0` and subnormals.
    /// At one worker thread and at four — the larger shapes cross the fork
    /// thresholds of all three kernels. A debug build runs the batch-32 zoo
    /// cells at the two smaller channel counts only; CI's thread-count loop
    /// runs the whole product optimised.
    #[test]
    fn depthwise_direct_matches_lowering() {
        // (N, C, H, W, KH, KW, stride, pad, laced)
        let mut cases = Vec::new();
        for n in [1usize, 3, 32] {
            for c in [1usize, 5, 32] {
                for k in [1usize, 3, 5] {
                    for stride in [1usize, 2] {
                        for pad in [0usize, 1, 2] {
                            cases.push((n, c, 9, 7, k, k, stride, pad, false));
                        }
                    }
                }
            }
        }
        cases.extend([
            (3, 5, 9, 7, 3, 1, 1, 0, false),
            (3, 5, 9, 7, 1, 3, 2, 1, false),
            (3, 5, 9, 7, 5, 3, 2, 2, false),
            (3, 5, 9, 7, 3, 3, 3, 1, false),
            (3, 5, 8, 8, 3, 3, 2, 1, false),
            (2, 3, 5, 1, 3, 3, 2, 1, false),
            (2, 3, 5, 1, 3, 3, 1, 1, false),
            (2, 3, 2, 2, 3, 3, 1, 1, false),
        ]);
        for n in [1usize, 32] {
            for c in [6usize, 13, 48, 64] {
                if cfg!(debug_assertions) && n == 32 && c > 13 {
                    continue;
                }
                for side in [12usize, 6, 3, 7, 5] {
                    for stride in [1usize, 2] {
                        cases.push((n, c, side, side, 3, 3, stride, 1, true));
                    }
                }
            }
        }
        let mut rng = seeded_rng(41);
        for threads in [1usize, 4] {
            par::set_threads(threads);
            for &(n, c, h, wid, kh, kw, stride, pad, laced) in &cases {
                let mut x = Tensor::randn(&[n, c, h, wid], &mut rng);
                if laced {
                    for (i, v) in x.data_mut().iter_mut().enumerate() {
                        match i % 7 {
                            2 => *v = -0.0,
                            4 => *v = 3.0e-40,
                            6 => *v = -1.0e-39,
                            _ => {}
                        }
                    }
                }
                let w = Tensor::randn(&[c, 1, kh, kw], &mut rng);
                let geom = Conv2dGeometry::new(1, h, wid, kh, kw, stride, pad).unwrap();
                let direct = conv_bits(&x, &w, |x, w| conv2d_depthwise(x, w, &geom));
                let oracle = conv_bits(&x, &w, |x, w| conv2d_lowered(x, w, &geom, c));
                let case = format!(
                    "n={n} c={c} {h}x{wid} k={kh}x{kw} s={stride} p={pad} laced={laced} t={threads}"
                );
                assert_eq!(direct.0, oracle.0, "forward, {case}");
                assert_eq!(direct.1, oracle.1, "dX, {case}");
                assert_eq!(direct.2, oracle.2, "dW, {case}");
            }
        }
        par::set_threads(0);
    }

    /// `conv2d` routes depthwise shapes to the direct kernels only where they
    /// are bitwise the lowering: a non-finite weight (the direct dX would
    /// spread it further than `col2im` does) stays lowered.
    #[test]
    fn depthwise_selection_keeps_the_lowering_where_it_must() {
        let mut rng = seeded_rng(42);
        let x = Tensor::randn(&[2, 3, 6, 5], &mut rng);
        let geom = Conv2dGeometry::new(1, 6, 5, 3, 3, 1, 1).unwrap();
        for bad in [f32::INFINITY, f32::NAN] {
            let mut w = Tensor::randn(&[3, 1, 3, 3], &mut rng);
            w.data_mut()[4] = bad;
            let routed = conv_bits(&x, &w, |x, w| x.conv2d(w, 1, 1, 3));
            let oracle = conv_bits(&x, &w, |x, w| conv2d_lowered(x, w, &geom, 3));
            assert_eq!(routed, oracle, "weight {bad}");
        }
        // ...and a finite depthwise conv does take the direct path's bits
        // (which are the oracle's — the point of the whole exercise).
        let w = Tensor::randn(&[3, 1, 3, 3], &mut rng);
        assert_eq!(
            conv_bits(&x, &w, |x, w| x.conv2d(w, 1, 1, 3)),
            conv_bits(&x, &w, |x, w| conv2d_lowered(x, w, &geom, 3))
        );
    }

    /// The padded path against the lowering oracle, **bitwise** on forward,
    /// dX and dW: batch, channel and filter counts on and off every GEMM
    /// tile (MR = 4 rows, NR = 16 columns), H ≠ W, pointwise to 5×5 with
    /// every padding the zoo uses, plus non-square kernels and planes
    /// narrower than the kernel — at one worker thread and at four. Batch 32
    /// repeats the small batches' tile and edge conditions at ten times their
    /// cost, so a debug build runs only the batch-32 cells that cross the fork
    /// threshold of all three passes; the whole batch-32 product runs
    /// optimised, which is how CI's thread-count loop runs this test.
    #[test]
    fn padded_path_matches_lowering() {
        // (N, C, OC, H, W, KH, KW, pad)
        let mut cases = Vec::new();
        let batches: &[usize] = if cfg!(debug_assertions) { &[1, 3] } else { &[1, 3, 32] };
        for &n in batches {
            for c in [1usize, 3, 16] {
                for oc in [1usize, 3, 5, 32] {
                    for k in [1usize, 3, 5] {
                        for pad in [0usize, 1, 2] {
                            cases.push((n, c, oc, 9, 7, k, k, pad));
                        }
                    }
                }
            }
        }
        cases.extend([
            (32, 16, 32, 9, 7, 3, 3, 1),
            (32, 16, 32, 9, 7, 1, 1, 1),
            (32, 3, 32, 9, 7, 5, 5, 2),
            (32, 16, 5, 9, 7, 3, 3, 0),
            (3, 3, 5, 9, 7, 3, 1, 0),
            (3, 3, 5, 9, 7, 1, 3, 1),
            (3, 3, 5, 9, 7, 5, 3, 2),
            (3, 3, 5, 9, 7, 2, 4, 1),
            (2, 3, 4, 5, 1, 3, 3, 1),
            (2, 3, 4, 1, 6, 3, 5, 2),
            (2, 3, 4, 2, 2, 5, 5, 2),
        ]);
        let mut rng = seeded_rng(43);
        for threads in [1usize, 4] {
            par::set_threads(threads);
            for &(n, c, oc, h, wid, kh, kw, pad) in &cases {
                let x = Tensor::randn(&[n, c, h, wid], &mut rng);
                let w = Tensor::randn(&[oc, c, kh, kw], &mut rng);
                let geom = Conv2dGeometry::new(c, h, wid, kh, kw, 1, pad).unwrap();
                let padded = conv_bits(&x, &w, |x, w| conv2d_padded(x, w, &geom));
                let oracle = conv_bits(&x, &w, |x, w| conv2d_lowered(x, w, &geom, 1));
                let case = format!("n={n} c={c} oc={oc} {h}x{wid} k={kh}x{kw} p={pad} t={threads}");
                assert_eq!(padded.0, oracle.0, "forward, {case}");
                assert_eq!(padded.1, oracle.1, "dX, {case}");
                assert_eq!(padded.2, oracle.2, "dW, {case}");
            }
        }
        par::set_threads(0);
    }

    /// `conv2d` hands a dense conv to the padded path only where that is
    /// both valid and measured faster: a non-finite weight (its dX would
    /// spread further than `col2im` does), stride 2 and `groups > 1` (shapes
    /// it cannot express) all produce the lowering's bits, and the shape rule
    /// keeps the measured losers — small planes under many output channels —
    /// on the lowering while taking LeNet's two layers.
    #[test]
    fn padded_selection_keeps_the_lowering_where_it_must() {
        let mut rng = seeded_rng(44);
        let x = Tensor::randn(&[2, 4, 6, 5], &mut rng);
        let dense = Conv2dGeometry::new(4, 6, 5, 3, 3, 1, 1).unwrap();
        for bad in [f32::INFINITY, f32::NAN] {
            let mut w = Tensor::randn(&[3, 4, 3, 3], &mut rng);
            // Tap (2, 2): its gap columns wrap onto the next row's first pixel.
            w.data_mut()[8] = bad;
            let routed = conv_bits(&x, &w, |x, w| x.conv2d(w, 1, 1, 1));
            let oracle = conv_bits(&x, &w, |x, w| conv2d_lowered(x, w, &dense, 1));
            assert_eq!(routed, oracle, "weight {bad}");
            let padded = conv_bits(&x, &w, |x, w| conv2d_padded(x, w, &dense));
            assert_ne!(padded.1, oracle.1, "the guard is there for a reason ({bad})");
        }
        let w = Tensor::randn(&[3, 4, 3, 3], &mut rng);
        let strided = Conv2dGeometry::new(4, 6, 5, 3, 3, 2, 1).unwrap();
        assert_eq!(
            conv_bits(&x, &w, |x, w| x.conv2d(w, 2, 1, 1)),
            conv_bits(&x, &w, |x, w| conv2d_lowered(x, w, &strided, 1))
        );
        let wg = Tensor::randn(&[6, 2, 3, 3], &mut rng);
        let grouped = Conv2dGeometry::new(2, 6, 5, 3, 3, 1, 1).unwrap();
        assert_eq!(
            conv_bits(&x, &wg, |x, w| x.conv2d(w, 1, 1, 2)),
            conv_bits(&x, &wg, |x, w| conv2d_lowered(x, w, &grouped, 2))
        );
        // ...and a finite dense stride-1 conv has the oracle's bits too.
        assert_eq!(
            conv_bits(&x, &w, |x, w| x.conv2d(w, 1, 1, 1)),
            conv_bits(&x, &w, |x, w| conv2d_lowered(x, w, &dense, 1))
        );

        // The shape rule, on the shapes it was measured on (module docs):
        // (C, H = W, K, pad, OC) -> padded?
        for (c, hw, k, pad, oc, pays) in [
            (1, 12, 5, 2, 3, true),     // LeNet conv1
            (3, 6, 5, 2, 8, true),      // LeNet conv2
            (3, 12, 3, 1, 16, true),    // the zoo's stems
            (16, 12, 3, 1, 32, true),   // the generator
            (16, 12, 1, 0, 64, true),   // pointwise at full resolution
            (64, 6, 1, 0, 128, false),  // pointwise, 36 columns a sample
            (32, 6, 3, 0, 64, false),   // 4x4 outputs under 64 channels
            (128, 4, 3, 1, 128, false), // more gap than plane
            (256, 2, 1, 0, 256, false), // a quarter of one register tile
            (32, 6, 5, 2, 64, false),   // wide gaps under many channels
        ] {
            let geom = Conv2dGeometry::new(c, hw, hw, k, k, 1, pad).unwrap();
            assert_eq!(padded_pays(&geom, oc), pays, "c={c} {hw}x{hw} k={k} p={pad} oc={oc}");
        }
        let strided = Conv2dGeometry::new(1, 12, 12, 5, 5, 2, 2).unwrap();
        assert!(!padded_pays(&strided, 3), "stride 2 is not the padded path's to take");
    }

    /// The fused panel-by-panel forward must reproduce the unfused
    /// whole-batch lowering bit for bit (column splitting never touches an
    /// output element's k-accumulation order). Built here by hand the way
    /// the pre-fusion code did it: one im2col_batch + one GEMM per group.
    #[test]
    fn fused_forward_bit_identical_to_unfused_reference() {
        let mut rng = seeded_rng(31);
        // 2 groups; ncols = 2·6·6 = 72 per... sized so ncols spans several
        // panels only when FUSE_PANEL is small — also run a big case that
        // genuinely straddles panel boundaries (ncols = 4·144 = 576).
        for (xs, ws, groups) in [
            ([2usize, 4, 6, 6], [6usize, 2, 3, 3], 2usize),
            ([4, 3, 12, 12], [8, 3, 3, 3], 1),
        ] {
            let x = Tensor::randn(&xs, &mut rng);
            let w = Tensor::randn(&ws, &mut rng);
            let fused = Var::constant(x.clone()).conv2d(&Var::constant(w.clone()), 1, 1, groups);
            let (n, c, h, wid) = (xs[0], xs[1], xs[2], xs[3]);
            let (oc, cpg, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
            let geom = Conv2dGeometry::new(cpg, h, wid, kh, kw, 1, 1).unwrap();
            let (oh, ow) = (geom.out_h, geom.out_w);
            let (hw_out, kvol) = (oh * ow, cpg * kh * kw);
            let (ncols, oc_per_g) = (n * hw_out, oc / groups);
            let mut expected = vec![0.0f32; n * oc * hw_out];
            for g in 0..groups {
                let col =
                    im2col_batch(x.data(), g * cpg * h * wid, c * h * wid, n, &geom);
                let wg = &w.data()[g * oc_per_g * kvol..(g + 1) * oc_per_g * kvol];
                let mut og = vec![0.0f32; oc_per_g * ncols];
                gemm::gemm_nn(wg, &col, &mut og, oc_per_g, kvol, ncols);
                for s in 0..n {
                    for ol in 0..oc_per_g {
                        expected[s * oc * hw_out + (g * oc_per_g + ol) * hw_out..][..hw_out]
                            .copy_from_slice(&og[ol * ncols + s * hw_out..][..hw_out]);
                    }
                }
            }
            for (a, b) in fused.value().data().iter().zip(&expected) {
                assert_eq!(a.to_bits(), b.to_bits(), "{xs:?} x {ws:?}");
            }
        }
    }

    #[test]
    fn channel_bias_grad() {
        let x = Var::parameter(Tensor::zeros(&[2, 3, 2, 2]));
        let b = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap());
        let y = x.add_channel_bias(&b);
        assert_eq!(y.value().at(&[0, 1, 0, 0]).unwrap(), 2.0);
        y.sum_all().backward();
        // Each channel has N * H * W = 2*2*2 = 8 contributing pixels.
        assert_eq!(b.grad().unwrap().data(), &[8.0, 8.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "groups")]
    fn conv2d_rejects_bad_groups() {
        let x = Var::constant(Tensor::zeros(&[1, 3, 4, 4]));
        let w = Var::constant(Tensor::zeros(&[4, 1, 3, 3]));
        let _ = x.conv2d(&w, 1, 1, 2); // 2 does not divide C=3
    }
}
