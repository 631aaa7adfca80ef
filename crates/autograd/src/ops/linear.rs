//! Dense (fully connected) operations.

use crate::Var;
use fedzkt_tensor::typed::{self, Rows2D, RowsMut2D, View2D, ViewMut2D};
use fedzkt_tensor::Tensor;

impl Var {
    /// Matrix product `[M, K] x [K, N] -> [M, N]`.
    ///
    /// # Panics
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Var) -> Var {
        let a = self.value_clone();
        let b = rhs.value_clone();
        let value = a.matmul(&b).expect("matmul");
        let need = (self.requires_grad(), rhs.requires_grad());
        Var::from_op(value, vec![self.clone(), rhs.clone()], move |g| {
            // dA = g B^T, dB = A^T g.
            vec![
                need.0.then(|| g.matmul_nt(&b).expect("matmul backward dA")),
                need.1.then(|| a.matmul_tn(g).expect("matmul backward dB")),
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
    pub fn linear(&self, weight: &Var, bias: Option<&Var>) -> Var {
        let x = self.value_clone();
        let w = weight.value_clone();
        let value = x.matmul_nt(&w).expect("linear forward");
        let need = (self.requires_grad(), weight.param_requires_grad());
        let out = Var::from_op(value, vec![self.clone(), weight.clone()], move |g| {
            vec![
                // dX = g W
                need.0.then(|| g.matmul(&w).expect("linear backward dX")),
                // dW = g^T X
                need.1.then(|| g.matmul_tn(&x).expect("linear backward dW")),
            ]
        });
        match bias {
            Some(b) => out.add_bias(b),
            None => out,
        }
    }

    /// [`Var::linear`] with const-generic feature widths: `x: [batch, IN]`,
    /// `W: [OUT, IN]`. The batch stays a runtime value; the widths become
    /// part of the type, so a layer pairing whose widths disagree is a
    /// compile error and the three GEMMs (forward, `dX`, `dW`) enter the
    /// kernel dispatch below the runtime shape guards — operand lengths
    /// are proven by view construction at this boundary, once.
    ///
    /// Bit-identity contract: same kernels, same `(m, k, n)`, same
    /// accumulation order as [`Var::linear`] — results are byte-identical.
    ///
    /// # Panics
    /// If `x` is not `[batch, IN]` or `weight` is not `[OUT, IN]`
    /// (with an optional `[OUT]` bias), checked here instead of per GEMM.
    pub fn linear_typed<const IN: usize, const OUT: usize>(
        &self,
        weight: &Var,
        bias: Option<&Var>,
    ) -> Var {
        let x = self.value_clone();
        let w = weight.value_clone();
        assert!(
            x.shape().len() == 2 && x.shape()[1] == IN,
            "linear_typed: x shape {:?}, expected [batch, {IN}]",
            x.shape()
        );
        let batch = x.shape()[0];
        let wv = View2D::<OUT, IN>::new(w.data()); // proves W is [OUT, IN]
        let mut y = vec![0.0f32; batch * OUT];
        typed::gemm_nt_rows::<IN, OUT>(
            Rows2D::with_rows(x.data(), batch),
            wv,
            RowsMut2D::with_rows(&mut y, batch),
        );
        let value = Tensor::from_vec(y, &[batch, OUT]).expect("linear_typed forward");
        let need = (self.requires_grad(), weight.param_requires_grad());
        let out = Var::from_op(value, vec![self.clone(), weight.clone()], move |g| {
            let gr = Rows2D::<OUT>::with_rows(g.data(), batch);
            vec![
                // dX = g W
                need.0.then(|| {
                    let mut dx = vec![0.0f32; batch * IN];
                    typed::gemm_nn_rows::<OUT, IN>(
                        gr,
                        View2D::new(w.data()),
                        RowsMut2D::with_rows(&mut dx, batch),
                    );
                    Tensor::from_vec(dx, &[batch, IN]).expect("linear_typed backward dX")
                }),
                // dW = g^T X
                need.1.then(|| {
                    let mut dw = vec![0.0f32; OUT * IN];
                    typed::gemm_tn_rows::<OUT, IN>(
                        gr,
                        Rows2D::with_rows(x.data(), batch),
                        ViewMut2D::new(&mut dw),
                    );
                    Tensor::from_vec(dw, &[OUT, IN]).expect("linear_typed backward dW")
                }),
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

    /// `linear_typed` must be byte-identical to `linear` — value and both
    /// gradients — since it shims onto the same kernels in the same order.
    #[test]
    fn linear_typed_bit_identical_to_dynamic() {
        let mut rng = seeded_rng(17);
        let xt = Tensor::randn(&[5, 3], &mut rng);
        let wt = Tensor::randn(&[2, 3], &mut rng);
        let bt = Tensor::randn(&[2], &mut rng);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let x1 = Var::parameter(xt.clone());
        let w1 = Var::parameter(wt.clone());
        let b1 = Var::parameter(bt.clone());
        let y1 = x1.linear(&w1, Some(&b1));
        y1.sum_all().backward();

        let x2 = Var::parameter(xt.clone());
        let w2 = Var::parameter(wt.clone());
        let b2 = Var::parameter(bt.clone());
        let y2 = x2.linear_typed::<3, 2>(&w2, Some(&b2));
        y2.sum_all().backward();

        assert_eq!(bits(&y1.value_clone()), bits(&y2.value_clone()));
        assert_eq!(bits(&x1.grad().unwrap()), bits(&x2.grad().unwrap()));
        assert_eq!(bits(&w1.grad().unwrap()), bits(&w2.grad().unwrap()));
        assert_eq!(bits(&b1.grad().unwrap()), bits(&b2.grad().unwrap()));
    }

    /// The `n = 0` FedGKT bundle shape: an empty batch must flow through
    /// the typed linear forward/backward as a well-defined no-op.
    #[test]
    fn linear_typed_empty_batch() {
        let x = Var::parameter(Tensor::zeros(&[0, 3]));
        let w = Var::parameter(Tensor::zeros(&[2, 3]));
        let y = x.linear_typed::<3, 2>(&w, None);
        assert_eq!(y.shape(), vec![0, 2]);
        y.sum_all().backward();
        assert_eq!(w.grad().unwrap().data(), &[0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "View2D<2, 3>")]
    fn linear_typed_rejects_mis_sized_weight() {
        // Boundary check fires at view construction, naming the shape.
        let x = Var::constant(Tensor::zeros(&[4, 3]));
        let w = Var::constant(Tensor::zeros(&[2, 4])); // should be [2, 3]
        let _ = x.linear_typed::<3, 2>(&w, None);
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
