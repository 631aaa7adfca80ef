//! 2-D convolution (with groups) — **fused** im2col + GEMM lowering for
//! dense and grouped shapes, direct kernels for depthwise ones.
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
//! oracle) — so the selection is invisible in every result. Non-finite
//! weights keep the lowering.
//!
//! ## Everything else: the fused lowering
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
//! the saved input instead of retaining it from the forward — trading one
//! extra lowering per backward for not holding a `KH·KW`-times-input-sized
//! buffer across the whole forward/backward gap. The recomputed matrix is
//! bitwise the one the old code retained, so gradients are unchanged.

use crate::Var;
use fedzkt_tensor::ops::{
    col2im, depthwise_conv2d, depthwise_conv2d_dw, depthwise_conv2d_dx, gemm, im2col_batch,
    im2col_panel, Conv2dGeometry,
};
use fedzkt_tensor::{par, Tensor};

/// Columns lowered and consumed per fused-forward panel. 256 output pixels
/// keeps a worker's column panel (`kvol × 256` floats, ≤ 1.2 MiB for the
/// zoo's widest `kvol = 1152`) L2-resident next to the weight matrix while
/// still amortising the per-panel GEMM setup.
const FUSE_PANEL: usize = 256;

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
    pub fn conv2d(&self, weight: &Var, stride: usize, pad: usize, groups: usize) -> Var {
        let (xs, ws) = (self.shape(), weight.shape());
        assert_eq!(xs.len(), 4, "conv2d input must be [N, C, H, W], got {xs:?}");
        assert_eq!(ws.len(), 4, "conv2d weight must be [OC, C/g, KH, KW], got {ws:?}");
        let (c, oc, c_per_g) = (xs[1], ws[0], ws[1]);
        assert!(groups > 0 && c.is_multiple_of(groups) && oc.is_multiple_of(groups), "groups {groups} must divide C={c} and OC={oc}");
        assert_eq!(c / groups, c_per_g, "weight in-channels {c_per_g} != C/groups {}", c / groups);
        let geom = Conv2dGeometry::new(c_per_g, xs[2], xs[3], ws[2], ws[3], stride, pad)
            .expect("conv2d geometry");
        // Non-finite weights keep the lowering: the direct dX kernel is
        // bitwise the lowering's for finite weights only.
        let direct = c_per_g == 1
            && oc == c
            && weight.value().data().iter().all(|v| v.is_finite());
        if direct {
            conv2d_depthwise(self, weight, &geom)
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
        let mut out = self.value_clone().into_vec();
        {
            let b = bias.value();
            for s in 0..n {
                for ch in 0..c {
                    let base = s * c * hw + ch * hw;
                    let bv = b.data()[ch];
                    for px in &mut out[base..base + hw] {
                        *px += bv;
                    }
                }
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
fn conv2d_depthwise(input: &Var, weight: &Var, geom: &Conv2dGeometry) -> Var {
    let geom = *geom;
    let w = weight.value_clone();
    let xs = input.shape();
    let (n, c) = (xs[0], xs[1]);
    let out_shape = [n, c, geom.out_h, geom.out_w];
    let mut out = vec![0.0f32; out_shape.iter().product()];
    depthwise_conv2d(input.value().data(), w.data(), n, c, &geom, &mut out);
    let value = Tensor::from_vec(out, &out_shape).expect("conv2d output");

    let need = (input.requires_grad(), weight.param_requires_grad());
    // Only dW reads the input, so it is copied only for a pass that will
    // record a tape node and differentiate the weights — never on tape-free
    // or frozen-parameter forwards.
    let saved_x = (crate::var::grad_enabled() && need.1).then(|| input.value_clone());
    Var::from_op(value, vec![input.clone(), weight.clone()], move |grad| {
        let gx = need.0.then(|| {
            let mut gx = vec![0.0f32; xs.iter().product()];
            depthwise_conv2d_dx(grad.data(), w.data(), n, c, &geom, &mut gx);
            Tensor::from_vec(gx, &xs).expect("conv2d dX")
        });
        let gw = saved_x.as_ref().map(|x| {
            let mut gw = vec![0.0f32; w.len()];
            depthwise_conv2d_dw(x.data(), grad.data(), n, c, &geom, &mut gw);
            Tensor::from_vec(gw, w.shape()).expect("conv2d dW")
        });
        vec![gx, gw]
    })
}

/// `conv2d` by fused im2col + GEMM lowering (module docs), for any `groups`
/// dividing `C` and `OC`; `geom` describes one group (`channels = C/groups`).
/// Production path for dense and grouped shapes, and the oracle the direct
/// depthwise kernels are tested against.
fn conv2d_lowered(input: &Var, weight: &Var, geom: &Conv2dGeometry, groups: usize) -> Var {
    let x = input.value_clone();
    let w = weight.value_clone();
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
    for g in 0..groups {
        let wg = &w.data()[g * oc_per_g * kvol..(g + 1) * oc_per_g * kvol];
        let panel_outs: Vec<Vec<f32>> = par::map_indexed(panels, threads, |p| {
            let c0 = p * FUSE_PANEL;
            let pw = FUSE_PANEL.min(ncols - c0);
            let mut col = vec![0.0f32; kvol * pw];
            im2col_panel(x.data(), g * group_in, sample_stride, n, &geom, c0, &mut col);
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
                    out[s * oc * hw_out + (g * oc_per_g + ol) * hw_out + px..][..run]
                        .copy_from_slice(&src_row[j..j + run]);
                    j += run;
                }
            }
        }
    }
    let value = Tensor::from_vec(out, &[n, oc, oh, ow]).expect("conv2d output");

    let need = (input.requires_grad(), weight.param_requires_grad());
    Var::from_op(value, vec![input.clone(), weight.clone()], move |grad| {
        let mut gx = need.0.then(|| vec![0.0f32; n * sample_stride]);
        let mut gw = need.1.then(|| vec![0.0f32; oc * kvol]);
        // dcol_g is needed per group before the sample-parallel col2im
        // scatter, so groups are processed in two phases.
        let mut dcols: Vec<Vec<f32>> = Vec::with_capacity(if need.0 { groups } else { 0 });
        for g in 0..groups {
            // Recompute this group's whole-batch column matrix from the
            // saved input — the forward consumed it panel by panel and
            // deliberately retained nothing (see module docs). Bitwise
            // the matrix the pre-fusion code kept alive.
            let col = im2col_batch(x.data(), g * group_in, sample_stride, n, &geom);
            let col = &col;
            // Gather grad group g into [OCg, N·OHOW] sample-major columns.
            let mut go = vec![0.0f32; oc_per_g * ncols];
            for s in 0..n {
                for ol in 0..oc_per_g {
                    let src = &grad.data()
                        [s * oc * hw_out + (g * oc_per_g + ol) * hw_out..][..hw_out];
                    go[ol * ncols + s * hw_out..][..hw_out].copy_from_slice(src);
                }
            }
            if let Some(gw) = gw.as_mut() {
                // dW_g += go [OCg, N·OHOW] x col_g^T [N·OHOW, kvol].
                let dst = &mut gw[g * oc_per_g * kvol..(g + 1) * oc_per_g * kvol];
                gemm::gemm_nt(&go, col, dst, oc_per_g, ncols, kvol);
            }
            if need.0 {
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
            let threads = if n * groups * kvol * hw_out >= par::PAR_MIN_ELEMS {
                par::max_threads()
            } else {
                1
            };
            par::for_each_chunk_mut(gx, sample_stride, threads, |s0, chunk| {
                let mut dcol_s = vec![0.0f32; kvol * hw_out];
                for (ds, slice) in chunk.chunks_mut(sample_stride).enumerate() {
                    let s = s0 + ds;
                    for (g, dcol) in dcols.iter().enumerate() {
                        for r in 0..kvol {
                            dcol_s[r * hw_out..(r + 1) * hw_out].copy_from_slice(
                                &dcol[r * ncols + s * hw_out..][..hw_out],
                            );
                        }
                        let gslice = col2im(&dcol_s, &geom);
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
    })
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
    /// than the stride), at one worker thread and at four — the larger
    /// shapes cross the fork thresholds of all three kernels.
    #[test]
    fn depthwise_direct_matches_lowering() {
        // (N, C, H, W, KH, KW, stride, pad)
        let mut cases = Vec::new();
        for n in [1usize, 3, 32] {
            for c in [1usize, 5, 32] {
                for k in [1usize, 3, 5] {
                    for stride in [1usize, 2] {
                        for pad in [0usize, 1, 2] {
                            cases.push((n, c, 9, 7, k, k, stride, pad));
                        }
                    }
                }
            }
        }
        cases.extend([
            (3, 5, 9, 7, 3, 1, 1, 0),
            (3, 5, 9, 7, 1, 3, 2, 1),
            (3, 5, 9, 7, 5, 3, 2, 2),
            (3, 5, 9, 7, 3, 3, 3, 1),
            (3, 5, 8, 8, 3, 3, 2, 1),
            (2, 3, 5, 1, 3, 3, 2, 1),
        ]);
        let mut rng = seeded_rng(41);
        for threads in [1usize, 4] {
            par::set_threads(threads);
            for &(n, c, h, wid, kh, kw, stride, pad) in &cases {
                let x = Tensor::randn(&[n, c, h, wid], &mut rng);
                let w = Tensor::randn(&[c, 1, kh, kw], &mut rng);
                let geom = Conv2dGeometry::new(1, h, wid, kh, kw, stride, pad).unwrap();
                let direct = conv_bits(&x, &w, |x, w| conv2d_depthwise(x, w, &geom));
                let oracle = conv_bits(&x, &w, |x, w| conv2d_lowered(x, w, &geom, c));
                let case = format!(
                    "n={n} c={c} {h}x{wid} k={kh}x{kw} s={stride} p={pad} t={threads}"
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
