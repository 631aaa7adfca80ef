//! Batch normalisation over NCHW batches.
//!
//! ## Float-sequence contract
//!
//! Every result bit is fixed by the sequences below, whatever order the
//! kernels schedule them in. The test oracle at the bottom of this file
//! computes them one plane at a time, and the kernels match it bit for bit.
//!
//! **Ordered:**
//! * *Batch statistics.* Each `(sample, channel)` plane is one serial chain
//!   over its pixels in ascending order, from `-0.0` (the sequence of
//!   `Iterator::sum`): of `x` for the mean, of `(x − μ)·(x − μ)` for the
//!   variance. A channel's total starts at `0.0`, adds its plane sums in
//!   ascending sample order, and is divided by `N·H·W`.
//! * *`dγ` and `dβ`.* One serial chain per channel, from `0.0`, over
//!   `(sample, pixel)` in ascending order: of `g·x̂` and of `g`.
//! * *Elementwise terms.* `x̂ = (x − μ)·inv_std`, the output `γ·x̂ + β` and
//!   `dX` are one fixed expression per element. The backward recomputes x̂
//!   from the input the tape holds instead of storing it; the same
//!   expression on the same operands gives the same bits.
//!
//! **Free:** which chains run side by side. A serial chain is bound by the
//! latency of its adds, so the kernels advance [`CHAINS`] independent
//! chains at once: planes in storage order (across sample boundaries) for
//! the statistics, consecutive channels for `dγ`/`dβ`. When the count is not
//! a multiple of [`CHAINS`], the last group overlaps the one before it and
//! recomputes a few chains to the same bits.
//!
//! Nothing is copied out of the tape, and a node that is not recorded
//! saves nothing: its backward closure, holding only per-channel vectors
//! and a [`ParentRef`](crate::var::ParentRef) on the input and on `γ`, is
//! dropped with it.

use crate::Var;
use fedzkt_tensor::Tensor;

/// Serial chains advanced together. Over the zoo's shapes eight measured
/// best on the training forward, ahead of four (+3 %) and sixteen (+20 %).
const CHAINS: usize = 8;

/// Start index of every [`CHAINS`]-wide group over `count` items (`count ≥
/// CHAINS`). When the count is not a multiple, the last group is moved back
/// to end at `count`.
fn group_starts(count: usize) -> impl Iterator<Item = usize> {
    (0..count).step_by(CHAINS).map(move |i| i.min(count - CHAINS))
}

/// `Σ term(param[ch], v)` over the pixels `v` of every `hw`-pixel plane of
/// `x`, in storage order, with `ch` the plane's channel out of `c`: each
/// one serial chain from `-0.0` (module docs).
fn plane_sums(
    x: &[f32],
    c: usize,
    hw: usize,
    param: &[f32],
    term: impl Fn(f32, f32) -> f32,
) -> Vec<f32> {
    let count = x.len().checked_div(hw).unwrap_or(0);
    if count < CHAINS {
        let chains = planes(x, hw).zip((0..c).cycle());
        return chains.map(|(plane, ch)| plane_chains(plane, hw, [param[ch]], &term)[0]).collect();
    }
    let mut sums = vec![0.0f32; count];
    for p0 in group_starts(count) {
        // One division per group: a `%` per plane costs as much as a 3×3
        // plane's adds.
        let mut ch = p0 % c;
        let params: [f32; CHAINS] = std::array::from_fn(|_| {
            let v = param[ch];
            ch = if ch + 1 == c { 0 } else { ch + 1 };
            v
        });
        sums[p0..p0 + CHAINS].copy_from_slice(&plane_chains(&x[p0 * hw..], hw, params, &term));
    }
    sums
}

/// The chains of [`plane_sums`] for the `K` planes at the start of `x`.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // pixel `i` of all `K` planes per step
fn plane_chains<const K: usize>(
    x: &[f32],
    hw: usize,
    params: [f32; K],
    term: impl Fn(f32, f32) -> f32,
) -> [f32; K] {
    let planes: [&[f32]; K] = std::array::from_fn(|j| &x[j * hw..][..hw]);
    let mut acc = [-0.0f32; K];
    for i in 0..hw {
        for j in 0..K {
            acc[j] += term(params[j], planes[j][i]);
        }
    }
    acc
}

/// Per-channel totals of `sums` (one per `(sample, channel)` plane), folded
/// in ascending sample order from `0.0` and divided by `m`.
fn channel_totals(sums: &[f32], c: usize, m: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; c];
    for row in sums.chunks_exact(c.max(1)) {
        for (o, s) in out.iter_mut().zip(row) {
            *o += s;
        }
    }
    for v in &mut out {
        *v /= m;
    }
    out
}

/// Per channel, `(Σ g·x̂, Σ g)` over `(sample, pixel)` with `x̂ = (x −
/// mean)·inv_std`: two serial chains per channel from `0.0` (module docs).
fn grad_sums(
    g: &[f32],
    x: &[f32],
    c: usize,
    hw: usize,
    mean: &[f32],
    inv_std: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
    let mut put = |ch0: usize, (dg, db): (&[f32], &[f32])| {
        dgamma[ch0..ch0 + dg.len()].copy_from_slice(dg);
        dbeta[ch0..ch0 + db.len()].copy_from_slice(db);
    };
    if c < CHAINS {
        for ch in 0..c {
            let (dg, db) = grad_chains::<1>(g, x, c, hw, ch, mean, inv_std);
            put(ch, (&dg, &db));
        }
    } else {
        for ch0 in group_starts(c) {
            let (dg, db) = grad_chains::<CHAINS>(g, x, c, hw, ch0, mean, inv_std);
            put(ch0, (&dg, &db));
        }
    }
    (dgamma, dbeta)
}

/// The chains of [`grad_sums`] for channels `ch0..ch0 + K`.
#[inline(always)]
fn grad_chains<const K: usize>(
    g: &[f32],
    x: &[f32],
    c: usize,
    hw: usize,
    ch0: usize,
    mean: &[f32],
    inv_std: &[f32],
) -> ([f32; K], [f32; K]) {
    let mu: [f32; K] = std::array::from_fn(|j| mean[ch0 + j]);
    let is: [f32; K] = std::array::from_fn(|j| inv_std[ch0 + j]);
    let (mut dg, mut db) = ([0.0f32; K], [0.0f32; K]);
    for (gs, xs) in planes(g, c * hw).zip(planes(x, c * hw)) {
        let gp: [&[f32]; K] = std::array::from_fn(|j| &gs[(ch0 + j) * hw..][..hw]);
        let xp: [&[f32]; K] = std::array::from_fn(|j| &xs[(ch0 + j) * hw..][..hw]);
        for i in 0..hw {
            for j in 0..K {
                let gi = gp[j][i];
                dg[j] += gi * ((xp[j][i] - mu[j]) * is[j]);
                db[j] += gi;
            }
        }
    }
    (dg, db)
}

/// `f(ch)(a[i], b[i])` for every element of two NCHW buffers of `hw`-pixel
/// planes, with `ch` the plane's channel out of `c`.
fn map_planes<F: Fn(f32, f32) -> f32>(
    a: &[f32],
    b: &[f32],
    c: usize,
    hw: usize,
    f: impl Fn(usize) -> F,
) -> Vec<f32> {
    // Filling a zeroed buffer beats `extend` on the 3×3 planes.
    let mut out = vec![0.0f32; a.len()];
    let rows = out.chunks_exact_mut(hw.max(1)).zip(planes(a, hw)).zip(planes(b, hw));
    for (((o, a), b), ch) in rows.zip((0..c).cycle()) {
        let f = f(ch);
        for ((o, &a), &b) in o.iter_mut().zip(a).zip(b) {
            *o = f(a, b);
        }
    }
    out
}

/// `γ·x̂ + β` over an NCHW batch, with `x̂ = (x − mean)·inv_std`.
fn normalize(x: &[f32], c: usize, hw: usize, stats: [&[f32]; 4]) -> Vec<f32> {
    let [mean, inv_std, gamma, beta] = stats;
    map_planes(x, x, c, hw, |ch| {
        let (mu, is, gv, bv) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
        move |v, _| gv * ((v - mu) * is) + bv
    })
}

/// The `hw`-pixel planes of an NCHW buffer, in storage order (none when
/// the batch is empty).
fn planes(x: &[f32], hw: usize) -> std::slice::ChunksExact<'_, f32> {
    x.chunks_exact(hw.max(1))
}

impl Var {
    /// Training-mode batch normalisation.
    ///
    /// Normalises each channel with the **batch** statistics and returns
    /// `(output, batch_mean, batch_var)` so the owning layer can update its
    /// running estimates. Gradients flow to the input, `gamma` and `beta`,
    /// correctly accounting for the dependence of μ and σ² on the input.
    ///
    /// # Panics
    /// Panics when `self` is not NCHW or `gamma`/`beta` are not `[C]`.
    #[track_caller]
    pub fn batch_norm2d_train(
        &self,
        gamma: &Var,
        beta: &Var,
        eps: f32,
    ) -> (Var, Tensor, Tensor) {
        let s = self.shape();
        assert_eq!(s.len(), 4, "batch_norm2d input must be NCHW");
        let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
        assert_eq!(gamma.shape(), vec![c], "gamma must be [C]");
        assert_eq!(beta.shape(), vec![c], "beta must be [C]");
        let m = (n * hw) as f32;
        let (mean, var, inv_std, out) = {
            let (x, gm, bt) = (self.value(), gamma.value(), beta.value());
            let x = x.data();
            let mean = channel_totals(&plane_sums(x, c, hw, &vec![0.0; c], |_, v| v), c, m);
            let sq = |mu: f32, v: f32| (v - mu) * (v - mu);
            let var = channel_totals(&plane_sums(x, c, hw, &mean, sq), c, m);
            let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
            let out = normalize(x, c, hw, [&mean, &inv_std, gm.data(), bt.data()]);
            (mean, var, inv_std, out)
        };
        let value = Tensor::from_vec(out, &s).expect("bn output");
        let batch_mean = Tensor::from_vec(mean.clone(), &[c]).expect("bn mean");
        let batch_var = Tensor::from_vec(var, &[c]).expect("bn var");

        let need =
            (self.requires_grad(), gamma.param_requires_grad(), beta.param_requires_grad());
        let input = self.parent_ref("batch_norm2d_train");
        // Only dX reads γ.
        let gamma_ref = gamma.parent_ref_if(need.0, "batch_norm2d_train");
        let node = Var::from_op(
            value,
            vec![self.clone(), gamma.clone(), beta.clone()],
            move |g| {
                let gd = g.data();
                let (dgamma, dbeta, dx) = input.with_value(|x| {
                    let xd = x.data();
                    let (dgamma, dbeta) = grad_sums(gd, xd, c, hw, &mean, &inv_std);
                    // dx = (gamma * inv_std / m) * (m*g - dbeta - xhat * dgamma)
                    let dx = gamma_ref.as_ref().map(|gamma| {
                        gamma.with_value(|gm| {
                            map_planes(gd, xd, c, hw, |ch| {
                                let (mu, is, db, dg) =
                                    (mean[ch], inv_std[ch], dbeta[ch], dgamma[ch]);
                                let k = gm.data()[ch] * is / m;
                                move |gi, v| k * (m * gi - db - (v - mu) * is * dg)
                            })
                        })
                    });
                    (dgamma, dbeta, dx)
                });
                vec![
                    dx.map(|dx| Tensor::from_vec(dx, &s).expect("bn dX")),
                    need.1.then(|| Tensor::from_vec(dgamma, &[c]).expect("bn dgamma")),
                    need.2.then(|| Tensor::from_vec(dbeta, &[c]).expect("bn dbeta")),
                ]
            },
        );
        (node, batch_mean, batch_var)
    }

    /// Evaluation-mode batch normalisation using fixed running statistics.
    ///
    /// # Panics
    /// Panics when shapes are inconsistent (see
    /// [`Var::batch_norm2d_train`]).
    #[track_caller]
    pub fn batch_norm2d_eval(
        &self,
        gamma: &Var,
        beta: &Var,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> Var {
        let s = self.shape();
        assert_eq!(s.len(), 4, "batch_norm2d input must be NCHW");
        let (c, hw) = (s[1], s[2] * s[3]);
        assert_eq!(running_mean.len(), c, "running_mean must be [C]");
        assert_eq!(running_var.len(), c, "running_var must be [C]");
        let mean = running_mean.data().to_vec();
        let inv_std: Vec<f32> =
            running_var.data().iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
        let out = {
            let (x, gm, bt) = (self.value(), gamma.value(), beta.value());
            normalize(x.data(), c, hw, [&mean, &inv_std, gm.data(), bt.data()])
        };
        let value = Tensor::from_vec(out, &s).expect("bn eval output");
        let need =
            (self.requires_grad(), gamma.param_requires_grad(), beta.param_requires_grad());
        // dX reads γ and dγ/dβ the input.
        let input = self.parent_ref_if(need.1 || need.2, "batch_norm2d_eval");
        let gamma_ref = gamma.parent_ref_if(need.0, "batch_norm2d_eval");
        Var::from_op(
            value,
            vec![self.clone(), gamma.clone(), beta.clone()],
            move |g| {
                let gd = g.data();
                let dx = gamma_ref.as_ref().map(|gamma| {
                    gamma.with_value(|gm| {
                        let dx = map_planes(gd, gd, c, hw, |ch| {
                            let k = gm.data()[ch] * inv_std[ch];
                            move |gi, _| k * gi
                        });
                        Tensor::from_vec(dx, &s).expect("bn eval dX")
                    })
                });
                let (dgamma, dbeta) = match &input {
                    Some(x) => x.with_value(|x| grad_sums(gd, x.data(), c, hw, &mean, &inv_std)),
                    None => Default::default(),
                };
                vec![
                    dx,
                    need.1.then(|| Tensor::from_vec(dgamma, &[c]).expect("dgamma")),
                    need.2.then(|| Tensor::from_vec(dbeta, &[c]).expect("dbeta")),
                ]
            },
        )
    }
}

/// The one-plane-at-a-time batch norm the kernels above replaced, kept as
/// the oracle their float sequences are pinned against.
#[cfg(test)]
mod oracle {
    use crate::Var;
    use fedzkt_tensor::Tensor;

    /// Per-channel mean over an NCHW batch (`N·H·W` samples per channel).
    pub(super) fn channel_mean(x: &Tensor) -> Vec<f32> {
        let s = x.shape();
        let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
        let m = (n * hw) as f32;
        let mut out = vec![0.0f32; c];
        for smp in 0..n {
            for (ch, o) in out.iter_mut().enumerate() {
                let base = smp * c * hw + ch * hw;
                *o += x.data()[base..base + hw].iter().sum::<f32>();
            }
        }
        for v in &mut out {
            *v /= m;
        }
        out
    }

    /// Per-channel biased variance over an NCHW batch.
    pub(super) fn channel_var(x: &Tensor, mean: &[f32]) -> Vec<f32> {
        let s = x.shape();
        let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
        let m = (n * hw) as f32;
        let mut out = vec![0.0f32; c];
        for smp in 0..n {
            for ch in 0..c {
                let base = smp * c * hw + ch * hw;
                let mu = mean[ch];
                out[ch] +=
                    x.data()[base..base + hw].iter().map(|v| (v - mu) * (v - mu)).sum::<f32>();
            }
        }
        for v in &mut out {
            *v /= m;
        }
        out
    }

    /// Per-channel `Σ term(i)` over an NCHW batch, in (sample, pixel) order.
    fn channel_sums(n: usize, c: usize, hw: usize, term: impl Fn(usize) -> f32) -> Vec<f32> {
        let mut out = vec![0.0f32; c];
        for smp in 0..n {
            for (ch, o) in out.iter_mut().enumerate() {
                let base = smp * c * hw + ch * hw;
                for i in base..base + hw {
                    *o += term(i);
                }
            }
        }
        out
    }

    /// [`Var::batch_norm2d_train`], one plane at a time, x̂ stored.
    pub(super) fn batch_norm2d_train(
        input: &Var,
        gamma: &Var,
        beta: &Var,
        eps: f32,
    ) -> (Var, Tensor, Tensor) {
        let x = input.value_clone();
        let s = x.shape().to_vec();
        let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
        let mean = channel_mean(&x);
        let var = channel_var(&x, &mean);
        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();

        let mut xhat = vec![0.0f32; x.len()];
        let mut out = vec![0.0f32; x.len()];
        {
            let gm = gamma.value();
            let bt = beta.value();
            for smp in 0..n {
                for ch in 0..c {
                    let base = smp * c * hw + ch * hw;
                    let (mu, is) = (mean[ch], inv_std[ch]);
                    let (gv, bv) = (gm.data()[ch], bt.data()[ch]);
                    for i in 0..hw {
                        let xh = (x.data()[base + i] - mu) * is;
                        xhat[base + i] = xh;
                        out[base + i] = gv * xh + bv;
                    }
                }
            }
        }
        let value = Tensor::from_vec(out, &s).expect("bn output");
        let batch_mean = Tensor::from_vec(mean, &[c]).expect("bn mean");
        let batch_var = Tensor::from_vec(var.clone(), &[c]).expect("bn var");

        let gamma_val = gamma.value_clone();
        let need =
            (input.requires_grad(), gamma.param_requires_grad(), beta.param_requires_grad());
        let node = Var::from_op(
            value,
            vec![input.clone(), gamma.clone(), beta.clone()],
            move |g| {
                let m = (n * hw) as f32;
                let mut dgamma = vec![0.0f32; c];
                let mut dbeta = vec![0.0f32; c];
                for smp in 0..n {
                    for ch in 0..c {
                        let base = smp * c * hw + ch * hw;
                        for i in 0..hw {
                            let gi = g.data()[base + i];
                            dgamma[ch] += gi * xhat[base + i];
                            dbeta[ch] += gi;
                        }
                    }
                }
                let dx = need.0.then(|| {
                    let mut dx = vec![0.0f32; g.len()];
                    for smp in 0..n {
                        for ch in 0..c {
                            let base = smp * c * hw + ch * hw;
                            let k = gamma_val.data()[ch] * inv_std[ch] / m;
                            for i in 0..hw {
                                dx[base + i] = k
                                    * (m * g.data()[base + i]
                                        - dbeta[ch]
                                        - xhat[base + i] * dgamma[ch]);
                            }
                        }
                    }
                    Tensor::from_vec(dx, &s).expect("bn dX")
                });
                vec![
                    dx,
                    need.1.then(|| Tensor::from_vec(dgamma, &[c]).expect("bn dgamma")),
                    need.2.then(|| Tensor::from_vec(dbeta, &[c]).expect("bn dbeta")),
                ]
            },
        );
        (node, batch_mean, batch_var)
    }

    /// [`Var::batch_norm2d_eval`], one plane at a time, x̂ stored.
    pub(super) fn batch_norm2d_eval(
        input: &Var,
        gamma: &Var,
        beta: &Var,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> Var {
        let x = input.value_clone();
        let s = x.shape().to_vec();
        let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
        let inv_std: Vec<f32> =
            running_var.data().iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
        let need =
            (input.requires_grad(), gamma.param_requires_grad(), beta.param_requires_grad());
        let mut xhat = (crate::var::grad_enabled() && need.1).then(|| vec![0.0f32; x.len()]);
        let mut out = vec![0.0f32; x.len()];
        {
            let gm = gamma.value();
            let bt = beta.value();
            for smp in 0..n {
                for (ch, &is) in inv_std.iter().enumerate() {
                    let base = smp * c * hw + ch * hw;
                    let mu = running_mean.data()[ch];
                    let (gv, bv) = (gm.data()[ch], bt.data()[ch]);
                    let xs = &x.data()[base..base + hw];
                    for (o, &xv) in out[base..base + hw].iter_mut().zip(xs) {
                        *o = gv * ((xv - mu) * is) + bv;
                    }
                    if let Some(xhat) = xhat.as_mut() {
                        for (xh, &xv) in xhat[base..base + hw].iter_mut().zip(xs) {
                            *xh = (xv - mu) * is;
                        }
                    }
                }
            }
        }
        let value = Tensor::from_vec(out, &s).expect("bn eval output");
        let gamma_val = gamma.value_clone();
        Var::from_op(
            value,
            vec![input.clone(), gamma.clone(), beta.clone()],
            move |g| {
                let dx = need.0.then(|| {
                    let mut dx = vec![0.0f32; g.len()];
                    for smp in 0..n {
                        for (ch, &is) in inv_std.iter().enumerate() {
                            let base = smp * c * hw + ch * hw;
                            let k = gamma_val.data()[ch] * is;
                            for i in 0..hw {
                                dx[base + i] = k * g.data()[base + i];
                            }
                        }
                    }
                    Tensor::from_vec(dx, &s).expect("bn eval dX")
                });
                let gd = g.data();
                let dgamma =
                    xhat.as_deref().map(|xhat| channel_sums(n, c, hw, |i| gd[i] * xhat[i]));
                let dbeta = need.2.then(|| channel_sums(n, c, hw, |i| gd[i]));
                vec![
                    dx,
                    dgamma.map(|v| Tensor::from_vec(v, &[c]).expect("dgamma")),
                    dbeta.map(|v| Tensor::from_vec(v, &[c]).expect("dbeta")),
                ]
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{self, channel_mean, channel_var};
    use super::*;
    use crate::{frozen_params, no_grad};
    use fedzkt_tensor::{par, seeded_rng, Prng};

    #[test]
    fn train_mode_normalises_channels() {
        let mut rng = seeded_rng(31);
        let x = Var::constant(Tensor::randn(&[4, 3, 5, 5], &mut rng).mul_scalar(3.0).add_scalar(2.0));
        let gamma = Var::constant(Tensor::ones(&[3]));
        let beta = Var::constant(Tensor::zeros(&[3]));
        let (y, mean, var) = x.batch_norm2d_train(&gamma, &beta, 1e-5);
        // Output channels have ~zero mean, ~unit variance.
        let out = y.value_clone();
        let m = channel_mean(&out);
        let v = channel_var(&out, &m);
        for ch in 0..3 {
            assert!(m[ch].abs() < 1e-4, "mean {}", m[ch]);
            assert!((v[ch] - 1.0).abs() < 1e-2, "var {}", v[ch]);
        }
        // Batch stats reflect the input distribution (loose statistical
        // bounds: 100 samples per channel).
        assert!(mean.data().iter().all(|&x| (x - 2.0).abs() < 1.0), "{:?}", mean.data());
        assert!(var.data().iter().all(|&x| (x - 9.0).abs() < 4.0), "{:?}", var.data());
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let x = Var::constant(Tensor::full(&[1, 2, 1, 1], 4.0));
        let gamma = Var::constant(Tensor::ones(&[2]));
        let beta = Var::constant(Tensor::zeros(&[2]));
        let rm = Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap();
        let rv = Tensor::from_vec(vec![4.0, 1.0], &[2]).unwrap();
        let y = x.batch_norm2d_eval(&gamma, &beta, &rm, &rv, 0.0);
        let d = y.value_clone();
        assert!((d.data()[0] - 1.0).abs() < 1e-5); // (4-2)/2
        assert!(d.data()[1].abs() < 1e-5); // (4-4)/1
    }

    #[test]
    fn train_mode_grad_sums_to_zero_per_channel() {
        // BN output is invariant to adding a constant to a channel, so the
        // input gradient must sum to zero per channel.
        let mut rng = seeded_rng(33);
        let x = Var::parameter(Tensor::randn(&[3, 2, 4, 4], &mut rng));
        let gamma = Var::parameter(Tensor::ones(&[2]));
        let beta = Var::parameter(Tensor::zeros(&[2]));
        let (y, _, _) = x.batch_norm2d_train(&gamma, &beta, 1e-5);
        // Non-uniform downstream gradient.
        let w = Var::constant(Tensor::randn(&[3, 2, 4, 4], &mut rng));
        y.mul(&w).sum_all().backward();
        let g = x.grad().unwrap();
        for ch in 0..2 {
            let mut sum = 0.0f32;
            for s in 0..3 {
                for i in 0..16 {
                    sum += g.data()[s * 32 + ch * 16 + i];
                }
            }
            assert!(sum.abs() < 1e-3, "channel {ch} grad sum {sum}");
        }
        assert!(gamma.grad().is_some());
        assert!(beta.grad().is_some());
    }

    /// How a differential case runs the op: recorded with every operand
    /// differentiated, recorded with a constant input (dγ/dβ only), inside
    /// [`frozen_params`] (dX only), or inside [`no_grad`] (forward only).
    #[derive(Clone, Copy, Debug)]
    enum Pass {
        Recorded,
        ConstantInput,
        Frozen,
        NoGrad,
    }

    const PASSES: [Pass; 4] = [Pass::Recorded, Pass::ConstantInput, Pass::Frozen, Pass::NoGrad];

    /// A result's bits, each NaN written as the one canonical quiet NaN:
    /// Rust leaves a NaN's payload unspecified, so only NaN-ness is pinned.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() }).collect()
    }

    /// Every result of `op(x, γ, β)` under `pass`: the outputs it returns,
    /// then — for a recorded pass, under the loss `Σ y·r` — dX, dγ and dβ
    /// (`None` where no gradient arrives).
    fn run(
        pass: Pass,
        x: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        r: &Tensor,
        op: impl Fn(&Var, &Var, &Var) -> Vec<Var>,
    ) -> Vec<Option<Vec<u32>>> {
        let xv = match pass {
            Pass::ConstantInput => Var::constant(x.clone()),
            _ => Var::parameter(x.clone()),
        };
        let (gv, bv) = (Var::parameter(gamma.clone()), Var::parameter(beta.clone()));
        let go = || {
            let outs = op(&xv, &gv, &bv);
            if !matches!(pass, Pass::NoGrad) {
                outs[0].mul(&Var::constant(r.clone())).sum_all().backward();
            }
            outs.iter().map(|o| Some(bits(&o.value()))).collect::<Vec<_>>()
        };
        let mut results = match pass {
            Pass::Frozen => frozen_params(go),
            Pass::NoGrad => no_grad(go),
            _ => go(),
        };
        results.extend([&xv, &gv, &bv].map(|v| v.grad().map(|g| bits(&g))));
        results
    }

    /// An NCHW input for the differentials: standard normal, or — `special`
    /// — laced with ±0.0 and subnormals, with one plane all `-0.0`, and one
    /// each of +∞, −∞ and NaN.
    fn input(shape: &[usize], special: bool, rng: &mut Prng) -> Tensor {
        let mut x = Tensor::randn(shape, rng);
        if special {
            let d = x.data_mut();
            let len = d.len();
            for (i, v) in d.iter_mut().enumerate() {
                match i % 11 {
                    3 => *v = -0.0,
                    5 => *v = 0.0,
                    7 => *v = 1.0e-40,
                    9 => *v = -3.0e-39,
                    _ => {}
                }
            }
            let hw = shape[2] * shape[3];
            d[..hw].fill(-0.0);
            let non_finite = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
            for (at, v) in [len / 2, len / 3, len - 1].into_iter().zip(non_finite) {
                if at >= hw {
                    d[at] = v;
                }
            }
        }
        x
    }

    /// N ∈ {1, 3, 32} × C ∈ {1, 7, 8, 9, 48, 64} × H·W ∈ {1, 4, 9, 36,
    /// 144}: channel and plane counts on and off the chain width, below it,
    /// and the zoo's planes (12×12, 6×6, 3×3).
    fn shapes() -> Vec<[usize; 4]> {
        let mut shapes = Vec::new();
        for n in [1, 3, 32] {
            for c in [1, 7, 8, 9, 48, 64] {
                for (h, w) in [(1, 1), (1, 4), (3, 3), (6, 6), (12, 12)] {
                    shapes.push([n, c, h, w]);
                }
            }
        }
        shapes
    }

    /// Run `check(shape, special, rng)` over [`shapes`], finite and
    /// special inputs, at one worker thread and at four.
    fn differential(check: impl Fn(&[usize; 4], bool, &mut Prng)) {
        let mut rng = seeded_rng(61);
        for threads in [1usize, 4] {
            par::set_threads(threads);
            for shape in shapes() {
                for special in [false, true] {
                    check(&shape, special, &mut rng);
                }
            }
        }
        par::set_threads(0);
    }

    /// Training-mode batch norm against the oracle, **bitwise**: output,
    /// batch mean and variance, dX, dγ and dβ, on every pass.
    #[test]
    fn batch_norm_train_matches_oracle() {
        differential(|shape, special, rng| {
            let c = shape[1];
            let x = input(shape, special, rng);
            let (gamma, beta) = (Tensor::randn(&[c], rng), Tensor::randn(&[c], rng));
            let r = Tensor::randn(shape, rng);
            for pass in PASSES {
                let got = run(pass, &x, &gamma, &beta, &r, |x, g, b| {
                    let (y, m, v) = x.batch_norm2d_train(g, b, 1e-5);
                    vec![y, Var::constant(m), Var::constant(v)]
                });
                let want = run(pass, &x, &gamma, &beta, &r, |x, g, b| {
                    let (y, m, v) = oracle::batch_norm2d_train(x, g, b, 1e-5);
                    vec![y, Var::constant(m), Var::constant(v)]
                });
                assert_eq!(got, want, "{shape:?} special={special} {pass:?}");
            }
        });
    }

    /// Evaluation-mode batch norm against the oracle, **bitwise**: output,
    /// dX, dγ and dβ, on every pass.
    #[test]
    fn batch_norm_eval_matches_oracle() {
        differential(|shape, special, rng| {
            let c = shape[1];
            let x = input(shape, special, rng);
            let (gamma, beta) = (Tensor::randn(&[c], rng), Tensor::randn(&[c], rng));
            let rm = Tensor::randn(&[c], rng);
            let rv = Tensor::randn(&[c], rng).map(|v| v.abs() + 0.5);
            let r = Tensor::randn(shape, rng);
            for pass in PASSES {
                let got = run(pass, &x, &gamma, &beta, &r, |x, g, b| {
                    vec![x.batch_norm2d_eval(g, b, &rm, &rv, 1e-5)]
                });
                let want = run(pass, &x, &gamma, &beta, &r, |x, g, b| {
                    vec![oracle::batch_norm2d_eval(x, g, b, &rm, &rv, 1e-5)]
                });
                assert_eq!(got, want, "{shape:?} special={special} {pass:?}");
            }
        });
    }
}
