//! Optimizers and learning-rate schedules.
//!
//! The FedZKT paper (§IV-A3) trains on-device and global models with SGD
//! (lr 0.01) and the generator with Adam (lr 1e-3), decaying both server
//! learning rates by ×0.3 at 1/2 and 3/4 of the distillation iterations —
//! [`MultiStepLr::paper_schedule`] reproduces exactly that.

use fedzkt_autograd::Var;
use fedzkt_tensor::Tensor;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Common optimizer interface over a fixed parameter list.
pub trait Optimizer {
    /// Apply one update using the gradients currently stored on the
    /// parameters; parameters without a gradient are skipped.
    fn step(&self);

    /// Clear the gradients of all managed parameters.
    fn zero_grad(&self);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Replace the learning rate (used by schedulers).
    fn set_lr(&self, lr: f32);
}

/// Configuration for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Classical momentum coefficient (0 disables).
    pub momentum: f32,
    /// ℓ2 weight decay added to gradients (0 disables).
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { lr: 0.01, momentum: 0.0, weight_decay: 0.0 }
    }
}

/// Stochastic gradient descent with optional momentum and weight decay.
pub struct Sgd {
    params: Vec<Var>,
    lr: Cell<f32>,
    momentum: f32,
    weight_decay: f32,
    velocity: RefCell<HashMap<u64, Tensor>>,
}

impl Sgd {
    /// Create an SGD optimizer over `params`.
    pub fn new(params: Vec<Var>, cfg: SgdConfig) -> Self {
        Sgd {
            params,
            lr: Cell::new(cfg.lr),
            momentum: cfg.momentum,
            weight_decay: cfg.weight_decay,
            velocity: RefCell::new(HashMap::new()),
        }
    }
}

impl Optimizer for Sgd {
    /// `w ← w − lr·v` with `v ← μ·v + (g + wd·w)` (`v = g + wd·w` without
    /// momentum), updated in place: no copy of a gradient, velocity or
    /// weight is made. Per element the float sequence is `g += w·wd`,
    /// `v *= μ`, `v += g·1`, `w += v·(−lr)`, each rounded to `f32`.
    fn step(&self) {
        let (lr, momentum, decay) = (self.lr.get(), self.momentum, self.weight_decay);
        let decayed = |g: f32, w: f32| if decay != 0.0 { g + w * decay } else { g };
        let mut velocity = self.velocity.borrow_mut();
        for p in &self.params {
            let grad = p.grad_ref();
            let Some(grad) = grad.as_ref() else { continue };
            let mut w = p.value_mut();
            assert_eq!(w.len(), grad.len(), "gradient and parameter sizes differ");
            let pairs = w.iter_mut().zip(grad.data());
            if momentum == 0.0 {
                for (w, &g) in pairs {
                    *w += decayed(g, *w) * -lr;
                }
            } else {
                let v = velocity.entry(p.id()).or_insert_with(|| Tensor::zeros(grad.shape()));
                for ((w, &g), v) in pairs.zip(v.data_mut()) {
                    *v *= momentum;
                    *v += decayed(g, *w) * 1.0;
                    *w += *v * -lr;
                }
            }
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn lr(&self) -> f32 {
        self.lr.get()
    }

    fn set_lr(&self, lr: f32) {
        self.lr.set(lr);
    }
}

/// Configuration for [`Adam`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate (paper: 1e-3 for the generator).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
pub struct Adam {
    params: Vec<Var>,
    lr: Cell<f32>,
    cfg: AdamConfig,
    state: RefCell<HashMap<u64, (Tensor, Tensor)>>,
    t: Cell<u64>,
}

impl Adam {
    /// Create an Adam optimizer over `params`.
    pub fn new(params: Vec<Var>, cfg: AdamConfig) -> Self {
        Adam {
            params,
            lr: Cell::new(cfg.lr),
            cfg,
            state: RefCell::new(HashMap::new()),
            t: Cell::new(0),
        }
    }

    /// Export the optimizer state for checkpointing: the step counter and,
    /// **in parameter order**, each parameter's `(m, v)` moments (`None`
    /// while the parameter has never received a gradient).
    ///
    /// Moments are keyed internally by [`Var::id`], which is a
    /// process-local counter — it does not survive a restart — so the
    /// portable representation is positional.
    pub fn export_state(&self) -> (u64, Vec<Option<(Tensor, Tensor)>>) {
        let state = self.state.borrow();
        let moments = self.params.iter().map(|p| state.get(&p.id()).cloned()).collect();
        (self.t.get(), moments)
    }

    /// Restore state captured by [`Adam::export_state`] into this
    /// optimizer (whose parameter list must have the same length and
    /// per-parameter shapes as the exporting one).
    ///
    /// # Errors
    /// Returns a message when the moment list length or any moment shape
    /// disagrees with the managed parameters.
    pub fn import_state(
        &self,
        t: u64,
        moments: Vec<Option<(Tensor, Tensor)>>,
    ) -> Result<(), String> {
        if moments.len() != self.params.len() {
            return Err(format!(
                "adam state covers {} params, optimizer manages {}",
                moments.len(),
                self.params.len()
            ));
        }
        let mut state = self.state.borrow_mut();
        state.clear();
        for (p, entry) in self.params.iter().zip(moments) {
            let Some((m, v)) = entry else { continue };
            if m.shape() != p.shape() || v.shape() != p.shape() {
                return Err(format!(
                    "adam moment shape {:?}/{:?} does not match param shape {:?}",
                    m.shape(),
                    v.shape(),
                    p.shape()
                ));
            }
            state.insert(p.id(), (m, v));
        }
        self.t.set(t);
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&self) {
        let t = self.t.get() + 1;
        self.t.set(t);
        let lr = self.lr.get();
        let (b1, b2, eps) = (self.cfg.beta1, self.cfg.beta2, self.cfg.eps);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        let mut state = self.state.borrow_mut();
        for p in &self.params {
            let Some(g) = p.grad() else { continue };
            let (m, v) = state
                .entry(p.id())
                .or_insert_with(|| (Tensor::zeros(&p.shape()), Tensor::zeros(&p.shape())));
            let new_m = m
                .mul_scalar(b1)
                .add(&g.mul_scalar(1.0 - b1))
                .expect("adam m");
            let new_v = v
                .mul_scalar(b2)
                .add(&g.map(|x| x * x).mul_scalar(1.0 - b2))
                .expect("adam v");
            *m = new_m.clone();
            *v = new_v.clone();
            let mut w = p.value_clone();
            let mhat = new_m.mul_scalar(1.0 / bc1);
            let vhat = new_v.mul_scalar(1.0 / bc2);
            let update = mhat
                .zip_map(&vhat, |mi, vi| mi / (vi.sqrt() + eps))
                .expect("adam update");
            w.add_scaled_inplace(&update, -lr).expect("adam step");
            p.set_value(w);
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn lr(&self) -> f32 {
        self.lr.get()
    }

    fn set_lr(&self, lr: f32) {
        self.lr.set(lr);
    }
}

/// Multi-step learning-rate decay: multiply the base rate by `gamma` at
/// each milestone iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStepLr {
    base_lr: f32,
    milestones: Vec<usize>,
    gamma: f32,
}

impl MultiStepLr {
    /// Create a schedule from explicit milestones.
    pub fn new(base_lr: f32, milestones: Vec<usize>, gamma: f32) -> Self {
        MultiStepLr { base_lr, milestones, gamma }
    }

    /// The schedule used in the paper's server update: decay ×0.3 at 1/2
    /// and 3/4 of the total iterations.
    pub fn paper_schedule(base_lr: f32, total_iters: usize) -> Self {
        MultiStepLr::new(base_lr, vec![total_iters / 2, total_iters * 3 / 4], 0.3)
    }

    /// Learning rate at iteration `iter` (0-based).
    pub fn lr_at(&self, iter: usize) -> f32 {
        let passed = self.milestones.iter().filter(|&&m| iter >= m).count();
        self.base_lr * self.gamma.powi(passed as i32)
    }

    /// Update an optimizer's learning rate for iteration `iter`.
    pub fn apply(&self, opt: &dyn Optimizer, iter: usize) {
        opt.set_lr(self.lr_at(iter));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_autograd::loss::mse;
    use fedzkt_tensor::seeded_rng;

    #[test]
    fn sgd_descends_quadratic() {
        let w = Var::parameter(Tensor::from_vec(vec![5.0], &[1]).unwrap());
        let opt = Sgd::new(vec![w.clone()], SgdConfig { lr: 0.1, ..Default::default() });
        for _ in 0..100 {
            opt.zero_grad();
            w.square().sum_all().backward();
            opt.step();
        }
        assert!(w.value().item().abs() < 1e-3);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |momentum: f32| {
            let w = Var::parameter(Tensor::from_vec(vec![5.0], &[1]).unwrap());
            let opt = Sgd::new(
                vec![w.clone()],
                SgdConfig { lr: 0.02, momentum, ..Default::default() },
            );
            for _ in 0..20 {
                opt.zero_grad();
                w.square().sum_all().backward();
                opt.step();
            }
            let endpoint = w.value().item().abs();
            endpoint
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let w = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let opt = Sgd::new(
            vec![w.clone()],
            SgdConfig { lr: 0.1, weight_decay: 0.5, ..Default::default() },
        );
        // Zero loss gradient: decay alone should shrink the weight.
        opt.zero_grad();
        w.scale(0.0).sum_all().backward();
        opt.step();
        assert!(w.value().item() < 1.0);
    }

    /// The SGD step as it was written before it went in place: clone the
    /// gradient, decay it, build the new velocity, clone the weight and
    /// set it back. The in-place step must match it bit for bit.
    struct CloneSgd {
        params: Vec<Var>,
        cfg: SgdConfig,
        velocity: RefCell<HashMap<u64, Tensor>>,
    }

    impl CloneSgd {
        fn step(&self) {
            let mut velocity = self.velocity.borrow_mut();
            for p in &self.params {
                let Some(mut g) = p.grad() else { continue };
                if self.cfg.weight_decay != 0.0 {
                    g.add_scaled_inplace(&p.value(), self.cfg.weight_decay).unwrap();
                }
                let update = if self.cfg.momentum != 0.0 {
                    let v = velocity.entry(p.id()).or_insert_with(|| Tensor::zeros(&p.shape()));
                    let mut new_v = v.mul_scalar(self.cfg.momentum);
                    new_v.add_scaled_inplace(&g, 1.0).unwrap();
                    *v = new_v.clone();
                    new_v
                } else {
                    g
                };
                let mut w = p.value_clone();
                w.add_scaled_inplace(&update, -self.cfg.lr).unwrap();
                p.set_value(w);
            }
        }
    }

    #[test]
    fn in_place_sgd_matches_the_clone_based_step() {
        let params = |seed: u64| -> Vec<Var> {
            let mut rng = seeded_rng(seed);
            vec![
                Var::parameter(Tensor::randn(&[4, 3], &mut rng)),
                Var::parameter(Tensor::randn(&[3], &mut rng)),
                // Never in the loss: no gradient, skipped by both steps.
                Var::parameter(Tensor::randn(&[2], &mut rng)),
            ]
        };
        let mut rng = seeded_rng(3);
        let x = Tensor::randn(&[5, 4], &mut rng);
        let y = Tensor::randn(&[5, 3], &mut rng);
        let loss = |p: &[Var]| {
            let pred = Var::constant(x.clone()).matmul(&p[0]).add_bias(&p[1]);
            mse(&pred, &Var::constant(y.clone()))
        };
        for momentum in [0.0f32, 0.9] {
            for weight_decay in [0.0f32, 1e-4] {
                let cfg = SgdConfig { lr: 0.1, momentum, weight_decay };
                let (a, b) = (params(11), params(11));
                let in_place = Sgd::new(a.clone(), cfg);
                let cloned =
                    CloneSgd { params: b.clone(), cfg, velocity: RefCell::new(HashMap::new()) };
                for step in 0..5 {
                    in_place.zero_grad();
                    loss(&a).backward();
                    in_place.step();
                    for p in &b {
                        p.zero_grad();
                    }
                    loss(&b).backward();
                    cloned.step();
                    for (pa, pb) in a.iter().zip(&b) {
                        let bits = |p: &Var| -> Vec<u32> {
                            p.value().data().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(pa), bits(pb), "{cfg:?} step {step}");
                    }
                }
            }
        }
    }

    /// An optimizer step between a recorded forward and its backward
    /// overwrites a weight the backward reads in place: the backward panics,
    /// naming the op, instead of differentiating against the stepped weight.
    #[test]
    #[should_panic(expected = "linear recorded at")]
    fn a_step_between_forward_and_backward_panics() {
        let mut rng = seeded_rng(4);
        let w = Var::parameter(Tensor::randn(&[2, 3], &mut rng));
        let x = Var::parameter(Tensor::randn(&[4, 3], &mut rng));
        let opt = Sgd::new(vec![w.clone()], SgdConfig { lr: 0.1, ..Default::default() });
        let loss = x.linear(&w, None).square().sum_all();
        loss.backward();
        opt.step();
        loss.backward();
    }

    #[test]
    fn adam_fits_linear_regression() {
        let mut rng = seeded_rng(7);
        let x = Tensor::randn(&[32, 3], &mut rng);
        let w_true = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[1, 3]).unwrap();
        let y_true = x.matmul_nt(&w_true).unwrap();
        let w = Var::parameter(Tensor::zeros(&[1, 3]));
        let opt = Adam::new(vec![w.clone()], AdamConfig { lr: 0.05, ..Default::default() });
        for _ in 0..300 {
            opt.zero_grad();
            let pred = Var::constant(x.clone()).matmul(&w.reshape(&[3, 1]));
            mse(&pred, &Var::constant(y_true.clone())).backward();
            opt.step();
        }
        let learned = w.value_clone();
        for (a, b) in learned.data().iter().zip(w_true.data()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn adam_state_round_trip_resumes_identically() {
        let fit = |w: &Var, opt: &Adam, iters: usize| {
            for _ in 0..iters {
                opt.zero_grad();
                w.square().sum_all().backward();
                opt.step();
            }
        };
        // Uninterrupted reference: 10 steps.
        let w_ref = Var::parameter(Tensor::from_vec(vec![5.0], &[1]).unwrap());
        let opt_ref = Adam::new(vec![w_ref.clone()], AdamConfig::default());
        fit(&w_ref, &opt_ref, 10);
        // Checkpointed run: 4 steps, export, import into a fresh
        // optimizer (new Var => new id), 6 more steps.
        let w = Var::parameter(Tensor::from_vec(vec![5.0], &[1]).unwrap());
        let opt = Adam::new(vec![w.clone()], AdamConfig::default());
        fit(&w, &opt, 4);
        let (t, moments) = opt.export_state();
        let w2 = Var::parameter(w.value_clone());
        let opt2 = Adam::new(vec![w2.clone()], AdamConfig::default());
        opt2.import_state(t, moments).unwrap();
        fit(&w2, &opt2, 6);
        assert_eq!(w2.value().item().to_bits(), w_ref.value().item().to_bits());
    }

    #[test]
    fn adam_import_rejects_mismatched_state() {
        let w = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let opt = Adam::new(vec![w.clone()], AdamConfig::default());
        assert!(opt.import_state(1, vec![]).is_err());
        let bad = Tensor::zeros(&[2]);
        assert!(opt.import_state(1, vec![Some((bad.clone(), bad))]).is_err());
    }

    #[test]
    fn step_skips_params_without_grad() {
        let w = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let opt = Sgd::new(vec![w.clone()], SgdConfig::default());
        opt.step(); // no backward ran
        assert_eq!(w.value().item(), 1.0);
    }

    #[test]
    fn multistep_schedule_matches_paper() {
        let s = MultiStepLr::paper_schedule(0.01, 200);
        assert!((s.lr_at(0) - 0.01).abs() < 1e-8);
        assert!((s.lr_at(99) - 0.01).abs() < 1e-8);
        assert!((s.lr_at(100) - 0.003).abs() < 1e-6);
        assert!((s.lr_at(150) - 0.0009).abs() < 1e-7);
        assert!((s.lr_at(199) - 0.0009).abs() < 1e-7);
    }

    #[test]
    fn scheduler_applies_to_optimizer() {
        let opt = Sgd::new(vec![], SgdConfig { lr: 1.0, ..Default::default() });
        let s = MultiStepLr::new(1.0, vec![10], 0.1);
        s.apply(&opt, 5);
        assert!((opt.lr() - 1.0).abs() < 1e-8);
        s.apply(&opt, 10);
        assert!((opt.lr() - 0.1).abs() < 1e-8);
    }
}
