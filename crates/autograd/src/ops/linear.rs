//! Dense (fully connected) operations.

use crate::Var;

impl Var {
    /// Matrix product `[M, K] x [K, N] -> [M, N]`.
    ///
    /// # Panics
    /// Panics on rank or inner-dimension mismatch.
    #[track_caller]
    pub fn matmul(&self, rhs: &Var) -> Var {
        let value = self.value().matmul(&rhs.value()).expect("matmul");
        // dA = g B^T reads B, dB = A^T g reads A.
        let a = self.parent_ref_if(rhs.requires_grad(), "matmul");
        let b = rhs.parent_ref_if(self.requires_grad(), "matmul");
        Var::from_op(value, vec![self.clone(), rhs.clone()], move |g| {
            vec![
                b.as_ref().map(|b| b.with_value(|b| g.matmul_nt(b).expect("matmul backward dA"))),
                a.as_ref().map(|a| a.with_value(|a| a.matmul_tn(g).expect("matmul backward dB"))),
            ]
        })
    }

    /// Affine layer `x W^T + b` with the PyTorch weight convention
    /// `W: [out_features, in_features]`, `x: [N, in_features]`.
    ///
    /// `bias` may be `None` for bias-free layers.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[track_caller]
    pub fn linear(&self, weight: &Var, bias: Option<&Var>) -> Var {
        let value = self.value().matmul_nt(&weight.value()).expect("linear forward");
        // dX = g W reads W, dW = g^T X reads X.
        let x = self.parent_ref_if(weight.param_requires_grad(), "linear");
        let w = weight.parent_ref_if(self.requires_grad(), "linear");
        let out = Var::from_op(value, vec![self.clone(), weight.clone()], move |g| {
            vec![
                w.as_ref().map(|w| w.with_value(|w| g.matmul(w).expect("linear backward dX"))),
                x.as_ref().map(|x| x.with_value(|x| g.matmul_tn(x).expect("linear backward dW"))),
            ]
        });
        match bias {
            Some(b) => out.add_bias(b),
            None => out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_tensor::{seeded_rng, Tensor};

    #[test]
    fn matmul_grads_match_manual() {
        // f = sum(A B); dA = 1 B^T, dB = A^T 1.
        let a = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let b = Var::parameter(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap());
        a.matmul(&b).sum_all().backward();
        assert_eq!(a.grad().unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad().unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn linear_matches_matmul_plus_bias() {
        let mut rng = seeded_rng(3);
        let x = Var::constant(Tensor::randn(&[4, 3], &mut rng));
        let w = Var::parameter(Tensor::randn(&[2, 3], &mut rng));
        let b = Var::parameter(Tensor::randn(&[2], &mut rng));
        let y1 = x.linear(&w, Some(&b));
        let wt = Var::constant(w.value_clone().transpose2d().unwrap());
        let y2 = x.matmul(&wt).add_bias(&b);
        for (p, q) in y1.value().data().iter().zip(y2.value().data()) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    /// The `n = 0` FedGKT bundle shape: an empty batch must flow through
    /// the linear forward/backward as a well-defined no-op.
    #[test]
    fn linear_empty_batch() {
        let x = Var::parameter(Tensor::zeros(&[0, 3]));
        let w = Var::parameter(Tensor::zeros(&[2, 3]));
        let y = x.linear(&w, None);
        assert_eq!(y.shape(), vec![0, 2]);
        y.sum_all().backward();
        assert_eq!(w.grad().unwrap().data(), &[0.0; 6]);
    }

    #[test]
    fn linear_bias_grad_is_batch_sum() {
        let x = Var::constant(Tensor::ones(&[5, 3]));
        let w = Var::parameter(Tensor::zeros(&[2, 3]));
        let b = Var::parameter(Tensor::zeros(&[2]));
        x.linear(&w, Some(&b)).sum_all().backward();
        assert_eq!(b.grad().unwrap().data(), &[5.0, 5.0]);
        // dW = g^T X = ones[5,2]^T ones[5,3] = 5s
        assert_eq!(w.grad().unwrap().data(), &[5.0; 6]);
    }
}
