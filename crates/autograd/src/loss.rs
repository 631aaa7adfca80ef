//! Loss functions, including the three distillation losses compared in
//! §III-B2 of the FedZKT paper (Eqs. 3–5).
//!
//! All losses are **means over the batch** of per-sample values, matching
//! the paper's expectation formulation. They are built so gradients flow
//! into *every* `Var` argument — student, teacher(s) and, transitively, the
//! generated input batch — which the adversarial generator update (Eq. 2)
//! requires.

use crate::Var;
use fedzkt_tensor::Tensor;

/// Numerical floor inside logarithms of probabilities.
const LN_EPS: f32 = 1e-8;

/// Elementwise mean of several same-shaped nodes, e.g. the on-device
/// ensemble `f_ens(x) = (1/|K|) Σ_k f_k(x)`.
///
/// # Panics
/// Panics when `vars` is empty or shapes disagree.
pub fn mean_vars(vars: &[&Var]) -> Var {
    assert!(!vars.is_empty(), "mean_vars of zero nodes");
    let mut acc = vars[0].clone();
    for v in &vars[1..] {
        acc = acc.add(v);
    }
    acc.scale(1.0 / vars.len() as f32)
}

/// Mean cross-entropy between `logits` (`[N, K]`) and integer labels.
///
/// Fused, numerically stable forward (log-sum-exp) and backward
/// (`softmax − onehot`). This is `L_CE` in Algorithm 2 of the paper.
///
/// # Panics
/// Panics when shapes disagree or a label is out of range.
pub fn cross_entropy(logits: &Var, labels: &[usize]) -> Var {
    let shape = logits.shape();
    assert_eq!(shape.len(), 2, "cross_entropy expects [N, K] logits");
    let (n, k) = (shape[0], shape[1]);
    assert_eq!(labels.len(), n, "labels/batch size mismatch");
    assert!(labels.iter().all(|&l| l < k), "label out of range");

    let probs = logits.value().softmax_rows().expect("softmax");
    let mut total = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        total -= probs.data()[i * k + label].max(1e-30).ln();
    }
    let value = Tensor::scalar(total / n as f32);
    let labels = labels.to_vec();
    Var::from_op(value, vec![logits.clone()], move |g| {
        let scale = g.item() / n as f32;
        let mut dx = probs.data().to_vec();
        for (i, &label) in labels.iter().enumerate() {
            dx[i * k + label] -= 1.0;
        }
        for v in &mut dx {
            *v *= scale;
        }
        vec![Some(Tensor::from_vec(dx, &[n, k]).expect("ce backward"))]
    })
}

/// Mean squared error between two same-shaped nodes.
///
/// # Panics
/// Panics on shape mismatch.
pub fn mse(a: &Var, b: &Var) -> Var {
    a.sub(b).square().mean_all()
}

/// KL divergence `KL(p ‖ q)` between two probability nodes (post-softmax),
/// summed over classes and averaged over the batch.
///
/// With `p` the global model's probabilities and `q` the device ensemble's,
/// this is exactly Eq. 3 of the paper. Gradients flow into both `p` and `q`.
///
/// # Panics
/// Panics on shape mismatch.
pub fn kl_div_probs(p: &Var, q: &Var) -> Var {
    let batch = p.shape()[0].max(1) as f32;
    p.mul(&p.ln_eps(LN_EPS).sub(&q.ln_eps(LN_EPS))).sum_all().scale(1.0 / batch)
}

/// Proximal penalty `‖w − w_ref‖²` of Eq. 9, summed over a parameter list.
///
/// Used by the FedZKT device update to damp drift under non-IID data.
/// `references` are the parameter values received from the server at the
/// previous round.
///
/// # Panics
/// Panics when the lists have different lengths or shapes disagree.
pub fn l2_penalty(params: &[Var], references: &[Tensor]) -> Var {
    assert_eq!(params.len(), references.len(), "params/references length mismatch");
    let mut total: Option<Var> = None;
    for (w, r) in params.iter().zip(references) {
        let term = w.sub(&Var::constant(r.clone())).square().sum_all();
        total = Some(match total {
            Some(t) => t.add(&term),
            None => term,
        });
    }
    total.expect("l2_penalty over empty parameter list")
}

/// The disagreement loss `L` of the zero-shot distillation game (Eq. 2),
/// selecting between the paper's three candidates (§III-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistillLoss {
    /// KL divergence on softmax outputs (Eq. 3) — suffers gradient
    /// vanishing as the student converges to the teacher.
    Kl,
    /// ℓ1 distance on raw logits (Eq. 4) — large, unstable gradients when
    /// averaging heterogeneous on-device logits.
    LogitL1,
    /// **Softmax-ℓ1 (SL) loss** (Eq. 5) — the paper's proposal: ℓ1 distance
    /// on softmax outputs; bounded gradients that do not vanish.
    Sl,
}

impl std::fmt::Display for DistillLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistillLoss::Kl => write!(f, "KL-divergence"),
            DistillLoss::LogitL1 => write!(f, "l1-norm"),
            DistillLoss::Sl => write!(f, "SL"),
        }
    }
}

impl DistillLoss {
    /// Evaluate the disagreement between student logits `u` (`[N, K]`) and
    /// the per-device teacher logits `v_k`, averaged per the paper:
    ///
    /// * `Kl`, `Sl` — the teacher signal is the mean of the device
    ///   **softmax** outputs;
    /// * `LogitL1` — the teacher signal is the mean of the device
    ///   **logits** (Eq. 4).
    ///
    /// Gradients flow into the student and every teacher (and through them
    /// into a generated input batch, when one is on the tape).
    ///
    /// # Panics
    /// Panics when `teacher_logits` is empty or shapes disagree.
    pub fn eval(&self, student_logits: &Var, teacher_logits: &[&Var]) -> Var {
        assert!(!teacher_logits.is_empty(), "distill loss needs at least one teacher");
        let batch = student_logits.shape()[0].max(1) as f32;
        match self {
            DistillLoss::Kl => {
                let u = student_logits.softmax();
                let probs: Vec<Var> = teacher_logits.iter().map(|t| t.softmax()).collect();
                let refs: Vec<&Var> = probs.iter().collect();
                let v_bar = mean_vars(&refs);
                kl_div_probs(&u, &v_bar)
            }
            DistillLoss::LogitL1 => {
                let v_bar = mean_vars(teacher_logits);
                student_logits.sub(&v_bar).abs().sum_all().scale(1.0 / batch)
            }
            DistillLoss::Sl => {
                let u = student_logits.softmax();
                let probs: Vec<Var> = teacher_logits.iter().map(|t| t.softmax()).collect();
                let refs: Vec<&Var> = probs.iter().collect();
                let v_bar = mean_vars(&refs);
                u.sub(&v_bar).abs().sum_all().scale(1.0 / batch)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_tensor::seeded_rng;

    fn logits(data: Vec<f32>, n: usize, k: usize) -> Var {
        Var::parameter(Tensor::from_vec(data, &[n, k]).unwrap())
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let l = logits(vec![10.0, -10.0, -10.0, 10.0], 2, 2);
        let loss = cross_entropy(&l, &[0, 1]);
        assert!(loss.value().item() < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_is_ln_k() {
        let l = logits(vec![0.0; 6], 2, 3);
        let loss = cross_entropy(&l, &[0, 2]);
        assert!((loss.value().item() - 3.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let l = logits(vec![0.0, 0.0], 1, 2);
        let loss = cross_entropy(&l, &[0]);
        loss.backward();
        let g = l.grad().unwrap();
        assert!((g.data()[0] - (0.5 - 1.0)).abs() < 1e-5);
        assert!((g.data()[1] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn kl_of_identical_distributions_is_zero() {
        let a = logits(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], 2, 3);
        let pa = a.softmax();
        let loss = kl_div_probs(&pa, &pa.detach());
        assert!(loss.value().item().abs() < 1e-5);
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        let a = logits(vec![2.0, 0.0], 1, 2).softmax();
        let b = logits(vec![0.0, 2.0], 1, 2).softmax();
        assert!(kl_div_probs(&a, &b).value().item() > 0.1);
    }

    #[test]
    fn sl_loss_zero_iff_equal_softmax() {
        let s = logits(vec![1.0, 2.0], 1, 2);
        // Teacher with shifted logits has the same softmax.
        let t = logits(vec![2.0, 3.0], 1, 2);
        let loss = DistillLoss::Sl.eval(&s, &[&t]);
        assert!(loss.value().item() < 1e-5);
        // But logit-l1 sees the shift.
        let loss = DistillLoss::LogitL1.eval(&s, &[&t]);
        assert!((loss.value().item() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn distill_losses_flow_gradients_to_teachers() {
        let mut rng = seeded_rng(5);
        for loss_kind in [DistillLoss::Kl, DistillLoss::LogitL1, DistillLoss::Sl] {
            let s = Var::parameter(Tensor::randn(&[3, 4], &mut rng));
            let t1 = Var::parameter(Tensor::randn(&[3, 4], &mut rng));
            let t2 = Var::parameter(Tensor::randn(&[3, 4], &mut rng));
            let loss = loss_kind.eval(&s, &[&t1, &t2]);
            loss.backward();
            assert!(s.grad().is_some(), "{loss_kind}: no student grad");
            assert!(t1.grad().is_some(), "{loss_kind}: no teacher grad");
            assert!(t2.grad().is_some(), "{loss_kind}: no teacher grad");
        }
    }

    #[test]
    fn l2_penalty_matches_manual() {
        let w = Var::parameter(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let r = Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap();
        let p = l2_penalty(std::slice::from_ref(&w), &[r]);
        assert!((p.value().item() - 5.0).abs() < 1e-6);
        p.backward();
        assert_eq!(w.grad().unwrap().data(), &[2.0, 4.0]);
    }

    #[test]
    fn mse_zero_for_identical() {
        let a = logits(vec![1.0, 2.0], 1, 2);
        assert_eq!(mse(&a, &a.detach()).value().item(), 0.0);
    }

    #[test]
    fn mean_vars_averages() {
        let a = Var::constant(Tensor::full(&[2], 1.0));
        let b = Var::constant(Tensor::full(&[2], 3.0));
        assert_eq!(mean_vars(&[&a, &b]).value().data(), &[2.0, 2.0]);
    }
}
