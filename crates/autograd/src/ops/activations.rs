//! Activation functions and (log-)softmax.

use crate::Var;
use fedzkt_tensor::Tensor;

impl Var {
    /// Rectified linear unit `max(x, 0)`. NaN propagates, as in PyTorch.
    pub fn relu(&self) -> Var {
        // `f32::max` returns the other operand for NaN, which would hide it.
        self.masked(|v| if v.is_nan() { v } else { v.max(0.0) }, |v| v > 0.0, |_| 0.0)
    }

    /// Leaky ReLU with negative slope `slope` (generator default 0.2).
    pub fn leaky_relu(&self, slope: f32) -> Var {
        self.masked(move |v| if v > 0.0 { v } else { slope * v }, |v| v > 0.0, move |g| slope * g)
    }

    /// ReLU6 `min(max(x, 0), 6)` — the MobileNetV2 activation.
    pub fn relu6(&self) -> Var {
        self.masked(|v| v.clamp(0.0, 6.0), |v| v > 0.0 && v < 6.0, |_| 0.0)
    }

    /// The activation `f`, whose gradient is `g` where `pass(x)` holds and
    /// `stop(g)` elsewhere. A recorded op writes the one-byte mask `pass(x)`
    /// in the pass that writes its output, and its backward reads the mask,
    /// not `x`: the input is free to go with its last handle. An op that is
    /// not recorded builds no mask.
    fn masked(
        &self,
        f: impl Fn(f32) -> f32,
        pass: impl Fn(f32) -> bool,
        stop: impl Fn(f32) -> f32 + 'static,
    ) -> Var {
        let x = self.value();
        if !Var::records(std::slice::from_ref(self)) {
            return Var::constant(x.map(f));
        }
        // One pass writes both; only the mask is zeroed first.
        let mut mask = vec![0u8; x.len()];
        let out = x.data().iter().zip(&mut mask).map(|(&v, m)| {
            *m = u8::from(pass(v));
            f(v)
        });
        let value = Tensor::from_vec(out.collect(), x.shape()).expect("activation output");
        Var::from_op(value, vec![self.clone()], move |g| {
            let dx = g.data().iter().zip(&mask).map(|(&gi, &m)| if m != 0 { gi } else { stop(gi) });
            vec![Some(Tensor::from_vec(dx.collect(), g.shape()).expect("activation backward"))]
        })
    }

    /// Hyperbolic tangent (generator output squashing).
    #[track_caller]
    pub fn tanh(&self) -> Var {
        let value = self.value().map(f32::tanh);
        Var::from_op_reading_output(value, vec![self.clone()], "tanh", |g, y| {
            vec![Some(g.zip_map(y, |gi, yi| gi * (1.0 - yi * yi)).expect("tanh backward"))]
        })
    }

    /// Logistic sigmoid.
    #[track_caller]
    pub fn sigmoid(&self) -> Var {
        let value = self.value().map(|v| 1.0 / (1.0 + (-v).exp()));
        Var::from_op_reading_output(value, vec![self.clone()], "sigmoid", |g, y| {
            vec![Some(g.zip_map(y, |gi, yi| gi * yi * (1.0 - yi)).expect("sigmoid backward"))]
        })
    }

    /// Row-wise softmax of a `[N, K]` node (class probabilities).
    ///
    /// # Panics
    /// Panics when the node is not 2-D.
    #[track_caller]
    pub fn softmax(&self) -> Var {
        let value = self.value().softmax_rows().expect("softmax requires [N, K]");
        Var::from_op_reading_output(value, vec![self.clone()], "softmax", |g, y| {
            let (n, k) = (y.shape()[0], y.shape()[1]);
            let mut out = vec![0.0f32; n * k];
            for i in 0..n {
                let yr = &y.data()[i * k..(i + 1) * k];
                let gr = &g.data()[i * k..(i + 1) * k];
                let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                for j in 0..k {
                    out[i * k + j] = yr[j] * (gr[j] - dot);
                }
            }
            vec![Some(Tensor::from_vec(out, &[n, k]).expect("softmax backward"))]
        })
    }

    /// Row-wise log-softmax of a `[N, K]` node.
    ///
    /// # Panics
    /// Panics when the node is not 2-D.
    pub fn log_softmax(&self) -> Var {
        let probs = self.value().softmax_rows().expect("log_softmax requires [N, K]");
        let value = probs.map(|p| p.max(1e-30).ln());
        let p = probs;
        Var::from_op(value, vec![self.clone()], move |g| {
            let (n, k) = (p.shape()[0], p.shape()[1]);
            let mut out = vec![0.0f32; n * k];
            for i in 0..n {
                let pr = &p.data()[i * k..(i + 1) * k];
                let gr = &g.data()[i * k..(i + 1) * k];
                let gsum: f32 = gr.iter().sum();
                for j in 0..k {
                    out[i * k + j] = gr[j] - pr[j] * gsum;
                }
            }
            vec![Some(Tensor::from_vec(out, &[n, k]).expect("log_softmax backward"))]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v2(data: Vec<f32>, shape: &[usize]) -> Var {
        Var::parameter(Tensor::from_vec(data, shape).unwrap())
    }

    #[test]
    fn relu_masks_negative() {
        let x = v2(vec![-1.0, 2.0], &[2]);
        let y = x.relu();
        assert_eq!(y.value().data(), &[0.0, 2.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0]);
    }

    /// NaN passes through `relu` as through `relu6` and `leaky_relu`
    /// (PyTorch's rule), so a diverged value shows where it arises; every
    /// other input, signed zeros and subnormals included, keeps the bits of
    /// the plain `max(x, 0)` it replaced.
    #[test]
    fn relu_propagates_nan_and_keeps_every_other_bit() {
        let nan = f32::NAN;
        for y in [v2(vec![nan], &[1]).relu(), v2(vec![nan], &[1]).relu6()] {
            assert!(y.value().data()[0].is_nan());
        }
        assert!(v2(vec![nan], &[1]).leaky_relu(0.2).value().data()[0].is_nan());
        let finite = [-0.0, 0.0, -1.0e-39, 1.0e-39, -3.5, 2.25, f32::MAX, f32::NEG_INFINITY];
        let y = v2(finite.to_vec(), &[finite.len()]).relu();
        for (v, r) in finite.iter().zip(y.value().data()) {
            assert_eq!(r.to_bits(), v.max(0.0).to_bits(), "relu({v})");
        }
    }

    #[test]
    fn relu6_saturates() {
        let x = v2(vec![-1.0, 3.0, 7.0], &[3]);
        let y = x.relu6();
        assert_eq!(y.value().data(), &[0.0, 3.0, 6.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn leaky_relu_passes_scaled_negative() {
        let x = v2(vec![-2.0, 2.0], &[2]);
        let y = x.leaky_relu(0.1);
        assert!((y.value().data()[0] + 0.2).abs() < 1e-6);
        y.sum_all().backward();
        let g = x.grad().unwrap();
        assert!((g.data()[0] - 0.1).abs() < 1e-6);
        assert!((g.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_grad_matches_identity() {
        let x = v2(vec![0.3], &[1]);
        x.tanh().sum_all().backward();
        let y = 0.3f32.tanh();
        let expected = 1.0 - y * y;
        assert!((x.grad().unwrap().data()[0] - expected).abs() < 1e-5);
    }

    #[test]
    fn sigmoid_at_zero() {
        let x = v2(vec![0.0], &[1]);
        let y = x.sigmoid();
        assert!((y.value().item() - 0.5).abs() < 1e-6);
        y.sum_all().backward();
        assert!((x.grad().unwrap().data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_grad_sums_to_zero() {
        let x = v2(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let y = x.softmax();
        let rows = y.value_clone();
        for i in 0..2 {
            let s: f32 = rows.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Uniform output grad: softmax gradient must vanish per row.
        y.sum_all().backward();
        let g = x.grad().unwrap();
        for i in 0..2 {
            let s: f32 = g.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let x = v2(vec![0.5, -1.0, 2.0], &[1, 3]);
        let a = x.log_softmax().value_clone();
        let b = x.softmax().value_clone().map(|p| p.ln());
        for (u, w) in a.data().iter().zip(b.data()) {
            assert!((u - w).abs() < 1e-5);
        }
    }
}
