//! Elementwise arithmetic ops.

use crate::Var;
use fedzkt_tensor::Tensor;

impl Var {
    /// Elementwise sum of two same-shaped nodes.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Var) -> Var {
        let value = self.value().add(&rhs.value()).expect("add");
        let need = (self.requires_grad(), rhs.requires_grad());
        Var::from_op(value, vec![self.clone(), rhs.clone()], move |g| {
            vec![
                need.0.then(|| g.clone()),
                need.1.then(|| g.clone()),
            ]
        })
    }

    /// Elementwise difference of two same-shaped nodes.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Var) -> Var {
        let value = self.value().sub(&rhs.value()).expect("sub");
        let need = (self.requires_grad(), rhs.requires_grad());
        Var::from_op(value, vec![self.clone(), rhs.clone()], move |g| {
            vec![
                need.0.then(|| g.clone()),
                need.1.then(|| g.mul_scalar(-1.0)),
            ]
        })
    }

    /// Elementwise (Hadamard) product of two same-shaped nodes.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[track_caller]
    pub fn mul(&self, rhs: &Var) -> Var {
        let value = self.value().mul(&rhs.value()).expect("mul");
        // Each operand is read only for the other's gradient.
        let a = self.parent_ref_if(rhs.requires_grad(), "mul");
        let b = rhs.parent_ref_if(self.requires_grad(), "mul");
        Var::from_op(value, vec![self.clone(), rhs.clone()], move |g| {
            vec![
                b.as_ref().map(|b| b.with_value(|b| g.mul(b).expect("mul backward"))),
                a.as_ref().map(|a| a.with_value(|a| g.mul(a).expect("mul backward"))),
            ]
        })
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Var {
        let value = self.value().mul_scalar(s);
        Var::from_op(value, vec![self.clone()], move |g| vec![Some(g.mul_scalar(s))])
    }

    /// Negate every element.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Var {
        let value = self.value().add_scalar(s);
        Var::from_op(value, vec![self.clone()], |g| vec![Some(g.clone())])
    }

    /// Elementwise absolute value. The subgradient at zero is taken as 0.
    #[track_caller]
    pub fn abs(&self) -> Var {
        let value = self.value().map(f32::abs);
        let x = self.parent_ref("abs");
        Var::from_op(value, vec![self.clone()], move |g| {
            vec![Some(x.with_value(|x| {
                g.zip_map(x, |gi, xi| gi * xi.signum() * f32::from(xi != 0.0))
                    .expect("abs backward")
            }))]
        })
    }

    /// Elementwise square.
    #[track_caller]
    pub fn square(&self) -> Var {
        let value = self.value().map(|v| v * v);
        let x = self.parent_ref("square");
        Var::from_op(value, vec![self.clone()], move |g| {
            vec![Some(
                x.with_value(|x| g.zip_map(x, |gi, xi| gi * 2.0 * xi).expect("square backward")),
            )]
        })
    }

    /// Elementwise natural logarithm of `x + eps` (clamped below at `eps`
    /// for numerical safety — used by the KL distillation loss on softmax
    /// probabilities).
    #[track_caller]
    pub fn ln_eps(&self, eps: f32) -> Var {
        let value = self.value().map(|v| (v.max(0.0) + eps).ln());
        let x = self.parent_ref("ln_eps");
        Var::from_op(value, vec![self.clone()], move |g| {
            vec![Some(x.with_value(|x| {
                g.zip_map(x, |gi, xi| gi / (xi.max(0.0) + eps)).expect("ln backward")
            }))]
        })
    }

    /// Elementwise exponential.
    #[track_caller]
    pub fn exp(&self) -> Var {
        let value = self.value().map(f32::exp);
        Var::from_op_reading_output(value, vec![self.clone()], "exp", |g, y| {
            vec![Some(g.mul(y).expect("exp backward"))]
        })
    }

    /// Add a bias vector over the last dimension: `[.., D] + [D]`.
    ///
    /// # Panics
    /// Panics when `bias` is not `[D]`.
    pub fn add_bias(&self, bias: &Var) -> Var {
        let value = self.value().add_bias(&bias.value()).expect("add_bias");
        let d = bias.value().len();
        let need = (self.requires_grad(), bias.param_requires_grad());
        Var::from_op(value, vec![self.clone(), bias.clone()], move |g| {
            let gb = need.1.then(|| {
                let mut acc = vec![0.0f32; d];
                for (i, &gi) in g.data().iter().enumerate() {
                    acc[i % d] += gi;
                }
                Tensor::from_vec(acc, &[d]).expect("bias grad")
            });
            vec![need.0.then(|| g.clone()), gb]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(data: Vec<f32>) -> Var {
        let n = data.len();
        Var::parameter(Tensor::from_vec(data, &[n]).unwrap())
    }

    #[test]
    fn add_sub_grads() {
        let a = v(vec![1.0, 2.0]);
        let b = v(vec![3.0, 4.0]);
        a.add(&b).sub(&b).sum_all().backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0, 1.0]);
        assert_eq!(b.grad().unwrap().data(), &[0.0, 0.0]);
    }

    #[test]
    fn mul_grads_are_cross_values() {
        let a = v(vec![2.0, 3.0]);
        let b = v(vec![5.0, 7.0]);
        a.mul(&b).sum_all().backward();
        assert_eq!(a.grad().unwrap().data(), &[5.0, 7.0]);
        assert_eq!(b.grad().unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn abs_subgradient() {
        let a = v(vec![-2.0, 0.0, 3.0]);
        a.abs().sum_all().backward();
        assert_eq!(a.grad().unwrap().data(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn square_grad() {
        let a = v(vec![3.0]);
        a.square().sum_all().backward();
        assert_eq!(a.grad().unwrap().data(), &[6.0]);
    }

    #[test]
    fn exp_ln_inverse_grad() {
        let a = v(vec![0.5]);
        let y = a.exp().ln_eps(0.0).sum_all();
        y.backward();
        let g = a.grad().unwrap().data()[0];
        assert!((g - 1.0).abs() < 1e-4, "{g}");
    }

    #[test]
    fn add_bias_reduces_over_batch() {
        let x = Var::parameter(Tensor::zeros(&[3, 2]));
        let b = v(vec![1.0, 2.0]);
        x.add_bias(&b).sum_all().backward();
        assert_eq!(b.grad().unwrap().data(), &[3.0, 3.0]);
        assert_eq!(x.grad().unwrap().shape(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "add")]
    fn add_panics_on_shape_mismatch() {
        let a = v(vec![1.0, 2.0]);
        let b = v(vec![1.0, 2.0, 3.0]);
        let _ = a.add(&b);
    }
}
