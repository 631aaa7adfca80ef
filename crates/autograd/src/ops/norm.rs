//! Batch normalisation over NCHW batches.

use crate::Var;
use fedzkt_tensor::Tensor;

/// Per-channel mean over an NCHW batch (`N·H·W` samples per channel).
fn channel_mean(x: &Tensor) -> Vec<f32> {
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
fn channel_var(x: &Tensor, mean: &[f32]) -> Vec<f32> {
    let s = x.shape();
    let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
    let m = (n * hw) as f32;
    let mut out = vec![0.0f32; c];
    for smp in 0..n {
        for ch in 0..c {
            let base = smp * c * hw + ch * hw;
            let mu = mean[ch];
            out[ch] += x.data()[base..base + hw].iter().map(|v| (v - mu) * (v - mu)).sum::<f32>();
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
    pub fn batch_norm2d_train(
        &self,
        gamma: &Var,
        beta: &Var,
        eps: f32,
    ) -> (Var, Tensor, Tensor) {
        let x = self.value_clone();
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 4, "batch_norm2d input must be NCHW");
        let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
        assert_eq!(gamma.shape(), vec![c], "gamma must be [C]");
        assert_eq!(beta.shape(), vec![c], "beta must be [C]");
        let mean = channel_mean(&x);
        let var = channel_var(&x, &mean);
        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();

        // xhat and output.
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
        let xhat_t = xhat;
        let shape = s.clone();
        let need =
            (self.requires_grad(), gamma.param_requires_grad(), beta.param_requires_grad());
        let node = Var::from_op(
            value,
            vec![self.clone(), gamma.clone(), beta.clone()],
            move |g| {
                let m = (n * hw) as f32;
                let mut dgamma = vec![0.0f32; c];
                let mut dbeta = vec![0.0f32; c];
                for smp in 0..n {
                    for ch in 0..c {
                        let base = smp * c * hw + ch * hw;
                        for i in 0..hw {
                            let gi = g.data()[base + i];
                            dgamma[ch] += gi * xhat_t[base + i];
                            dbeta[ch] += gi;
                        }
                    }
                }
                let dx = need.0.then(|| {
                    // dx = (gamma * inv_std / m) * (m*g - dbeta - xhat * dgamma)
                    let mut dx = vec![0.0f32; g.len()];
                    for smp in 0..n {
                        for ch in 0..c {
                            let base = smp * c * hw + ch * hw;
                            let k = gamma_val.data()[ch] * inv_std[ch] / m;
                            for i in 0..hw {
                                dx[base + i] = k
                                    * (m * g.data()[base + i]
                                        - dbeta[ch]
                                        - xhat_t[base + i] * dgamma[ch]);
                            }
                        }
                    }
                    Tensor::from_vec(dx, &shape).expect("bn dX")
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

    /// Evaluation-mode batch normalisation using fixed running statistics.
    ///
    /// # Panics
    /// Panics when shapes are inconsistent (see
    /// [`Var::batch_norm2d_train`]).
    pub fn batch_norm2d_eval(
        &self,
        gamma: &Var,
        beta: &Var,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> Var {
        let x = self.value_clone();
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 4, "batch_norm2d input must be NCHW");
        let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
        assert_eq!(running_mean.len(), c, "running_mean must be [C]");
        assert_eq!(running_var.len(), c, "running_var must be [C]");
        let inv_std: Vec<f32> =
            running_var.data().iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
        let need =
            (self.requires_grad(), gamma.param_requires_grad(), beta.param_requires_grad());
        // Only dγ reads x̂, so it is kept only for a pass that will record a
        // tape node and differentiate γ — never on teacher or eval forwards.
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
        let shape = s.clone();
        Var::from_op(
            value,
            vec![self.clone(), gamma.clone(), beta.clone()],
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
                    Tensor::from_vec(dx, &shape).expect("bn eval dX")
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
    use super::*;
    use fedzkt_tensor::seeded_rng;

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
}
