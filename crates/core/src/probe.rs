//! The gradient-norm probe behind Figure 2.
//!
//! For a synthetic batch `x`, the probe evaluates the disagreement
//! `L(F(x), f_ens(x))` under each candidate loss (KL, logit-ℓ1, SL) and
//! records `‖∇ₓ L‖₂`. The paper's Hypotheses 1–2 predict, as `F → f_ens`:
//! `‖∇ₓ L_KL‖ ≤ ‖∇ₓ L_SL‖ ≤ ‖∇ₓ L_ℓ1‖`.

use fedzkt_autograd::{frozen_params, DistillLoss, Var};
use fedzkt_nn::Module;
use fedzkt_tensor::Tensor;

/// One probe measurement (a point on Figure 2's three curves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradNormRecord {
    /// Communication round (1-based).
    pub round: usize,
    /// `‖∇ₓ L‖₂` for the KL-divergence loss (Eq. 3).
    pub kl: f32,
    /// `‖∇ₓ L‖₂` for the logit-ℓ1 loss (Eq. 4).
    pub logit_l1: f32,
    /// `‖∇ₓ L‖₂` for the SL loss (Eq. 5).
    pub sl: f32,
}

/// Collects [`GradNormRecord`]s across a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GradNormProbe {
    records: Vec<GradNormRecord>,
}

impl GradNormProbe {
    /// An empty probe.
    pub fn new() -> Self {
        GradNormProbe::default()
    }

    /// Measure all three losses on batch `x` against the global model and
    /// the device ensemble, and record the result for `round`.
    ///
    /// Gradients flow through *both* the student and every teacher into
    /// `x`, exactly as in the generator's objective.
    pub fn measure(
        &mut self,
        round: usize,
        global: &dyn Module,
        devices: &[&dyn Module],
        x: &Tensor,
    ) -> GradNormRecord {
        // Measure in eval mode so batch-norm running statistics are not
        // perturbed — the probe must be side-effect free on training.
        global.set_training(false);
        for d in devices {
            d.set_training(false);
        }
        let norm_for = |loss: DistillLoss| -> f32 {
            let input = Var::parameter(x.clone());
            // Only ∇ₓ is wanted: with the models' parameters frozen the pass
            // leaves no parameter gradient behind to perturb training.
            let (student, teacher_logits) = frozen_params(|| {
                let student = global.forward(&input);
                let teachers: Vec<Var> = devices.iter().map(|d| d.forward(&input)).collect();
                (student, teachers)
            });
            let teacher_refs: Vec<&Var> = teacher_logits.iter().collect();
            let l = loss.eval(&student, &teacher_refs);
            l.backward();
            let g = input.grad().expect("input gradient");
            g.norm_l2()
        };
        let record = GradNormRecord {
            round,
            kl: norm_for(DistillLoss::Kl),
            logit_l1: norm_for(DistillLoss::LogitL1),
            sl: norm_for(DistillLoss::Sl),
        };
        global.set_training(true);
        for d in devices {
            d.set_training(true);
        }
        self.records.push(record);
        record
    }

    /// All measurements so far.
    pub fn records(&self) -> &[GradNormRecord] {
        &self.records
    }

    /// Render as CSV (`round,kl,logit_l1,sl`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,kl,logit_l1,sl\n");
        for r in &self.records {
            out.push_str(&format!("{},{:.6},{:.6},{:.6}\n", r.round, r.kl, r.logit_l1, r.sl));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_models::ModelSpec;
    use fedzkt_nn::{load_state_dict, state_dict};
    use fedzkt_tensor::seeded_rng;

    #[test]
    fn probe_records_positive_norms() {
        let global = ModelSpec::Mlp { hidden: 16 }.build(1, 4, 8, 1);
        let dev_a = ModelSpec::Mlp { hidden: 8 }.build(1, 4, 8, 2);
        let dev_b = ModelSpec::SmallCnn { base_channels: 2 }.build(1, 4, 8, 3);
        let mut rng = seeded_rng(4);
        let x = Tensor::randn(&[4, 1, 8, 8], &mut rng);
        let mut probe = GradNormProbe::new();
        let r = probe.measure(1, global.as_ref(), &[dev_a.as_ref(), dev_b.as_ref()], &x);
        assert!(r.kl > 0.0 && r.logit_l1 > 0.0 && r.sl > 0.0);
        assert_eq!(probe.records().len(), 1);
    }

    #[test]
    fn hypotheses_ordering_holds_near_convergence() {
        // Student == teacher (same weights): F has converged to f_ens.
        // Hypothesis 1: KL grads vanish relative to SL; Hypothesis 2:
        // logit-l1 grads dominate SL.
        let spec = ModelSpec::Mlp { hidden: 16 };
        let student = spec.build(1, 4, 8, 7);
        let teacher = spec.build(1, 4, 8, 8);
        load_state_dict(teacher.as_ref(), &state_dict(student.as_ref())).unwrap();
        // Perturb the teacher slightly: near-convergence, not identical
        // (at exact equality every loss has zero gradient).
        let mut rng = seeded_rng(11);
        for p in teacher.params() {
            let noise = Tensor::randn(&p.shape(), &mut rng).mul_scalar(0.01);
            p.set_value(p.value_clone().add(&noise).unwrap());
        }
        let mut rng = seeded_rng(9);
        let x = Tensor::randn(&[8, 1, 8, 8], &mut rng);
        let mut probe = GradNormProbe::new();
        let r = probe.measure(1, student.as_ref(), &[teacher.as_ref()], &x);
        assert!(r.kl <= r.sl + 1e-6, "KL {} should not exceed SL {}", r.kl, r.sl);
        assert!(r.logit_l1 >= r.sl, "l1 {} should dominate SL {}", r.logit_l1, r.sl);
    }

    /// Over the whole CIFAR zoo (depthwise and dense convs, batch norm,
    /// linear heads): no layer deposits a parameter gradient under the
    /// probe's `frozen_params` scope, and the norm it records is bitwise
    /// the one an unfrozen pass computes.
    #[test]
    fn probe_does_not_leave_gradients_behind() {
        let global = ModelSpec::SmallCnn { base_channels: 4 }.build(3, 4, 8, 1);
        let zoo: Vec<_> = ModelSpec::paper_zoo_cifar()
            .iter()
            .zip(2u64..)
            .map(|(spec, seed)| spec.build(3, 4, 8, seed))
            .collect();
        let devices: Vec<&dyn Module> = zoo.iter().map(|m| m.as_ref()).collect();
        let mut rng = seeded_rng(5);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let r = GradNormProbe::new().measure(1, global.as_ref(), &devices, &x);
        let all = || devices.iter().copied().chain([global.as_ref()]);
        assert!(all().all(|m| m.params().iter().all(|p| p.grad().is_none())));

        all().for_each(|m| m.set_training(false));
        let input = Var::parameter(x.clone());
        let teachers: Vec<Var> = devices.iter().map(|d| d.forward(&input)).collect();
        let loss = DistillLoss::Sl.eval(&global.forward(&input), &teachers.iter().collect::<Vec<_>>());
        loss.backward();
        assert!(all().all(|m| m.params().iter().all(|p| p.grad().is_some())));
        assert_eq!(input.grad().unwrap().norm_l2().to_bits(), r.sl.to_bits());
    }

    #[test]
    fn csv_shape() {
        let mut probe = GradNormProbe::new();
        probe.records.push(GradNormRecord { round: 1, kl: 0.1, logit_l1: 0.3, sl: 0.2 });
        let csv = probe.to_csv();
        assert!(csv.starts_with("round,kl"));
        assert_eq!(csv.lines().count(), 2);
    }
}
