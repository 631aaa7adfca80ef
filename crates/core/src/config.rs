//! FedZKT hyperparameters.

use fedzkt_autograd::DistillLoss;
use fedzkt_models::{GeneratorSpec, ModelSpec};

/// The knobs of FedZKT's update rules (defaults follow §IV-A3, scaled to
/// the synthetic quick workloads; the `paper-small` / `paper-cifar`
/// presets of the scenario registry restore paper values such as
/// `nD = 200/500` and batch 256).
///
/// Protocol-level knobs — rounds, participation, seed, worker threads,
/// evaluation — live in [`SimConfig`](fedzkt_fl::SimConfig): they are
/// owned by the [`Simulation`](fedzkt_fl::Simulation) driver and shared by
/// every algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedZktConfig {
    /// Local epochs per round `T_l` (paper: 5 small / 10 CIFAR).
    pub local_epochs: usize,
    /// Server distillation iterations `nD = nG = nS` per round
    /// (paper: 200 small / 500 CIFAR).
    pub distill_iters: usize,
    /// Bidirectional-transfer iterations (global → devices, Eq. 8);
    /// the paper reuses `nD`.
    pub transfer_iters: usize,
    /// On-device mini-batch size (paper: 256).
    pub device_batch: usize,
    /// Generated-batch size for distillation (paper: 256).
    pub distill_batch: usize,
    /// On-device SGD learning rate (paper: 0.01).
    pub device_lr: f32,
    /// On-device SGD momentum.
    pub device_momentum: f32,
    /// Server/global-model SGD learning rate `η_S` (paper: 0.01).
    pub server_lr: f32,
    /// Learning rate for the global→device bidirectional transfer (Eq. 8).
    /// The paper reuses `η_S`; exposed separately because it controls how
    /// hard devices are pulled toward the (possibly still-weak) global
    /// model — ablated in the bench harness.
    pub transfer_lr: f32,
    /// Generator Adam learning rate `η_G` (paper: 0.001).
    pub generator_lr: f32,
    /// Disagreement loss `L` for the zero-shot game (paper proposal: SL).
    pub loss: DistillLoss,
    /// Simulated server throughput (samples/second) used to charge the
    /// zero-shot game's compute to the simulated clock when a
    /// [`Simulation`](fedzkt_fl::Simulation) has device resources
    /// attached: the server processes `2·nD + transfer_iters` generated
    /// batches per round. Datacenter-class by default (~100× the
    /// simulator's smartphone profile); `f32::INFINITY` models a free
    /// server.
    pub server_samples_per_sec: f32,
    /// ℓ2 proximal coefficient μ of Eq. 9 (0 disables; the paper uses the
    /// plain `‖·‖²` term, i.e. μ = 1, for non-IID runs).
    pub prox_mu: f32,
    /// Generator architecture.
    pub generator: GeneratorSpec,
    /// Global (server) model architecture `F`.
    pub global_model: ModelSpec,
    /// Record `‖∇ₓL‖` for all three candidate losses every round (Fig. 2).
    pub probe_grad_norms: bool,
    /// Ablation switch: use a *freshly initialised* generator for the
    /// global→device transfer instead of reusing the adversarially trained
    /// one. The paper's design (§III-B3) argues reuse is what makes Eq. 8
    /// effective; this knob lets the bench harness test that claim.
    pub fresh_generator_for_transfer: bool,
}

impl Default for FedZktConfig {
    fn default() -> Self {
        FedZktConfig {
            local_epochs: 2,
            distill_iters: 30,
            transfer_iters: 30,
            device_batch: 32,
            distill_batch: 32,
            device_lr: 0.01,
            device_momentum: 0.9,
            server_lr: 0.01,
            transfer_lr: 0.01,
            generator_lr: 1e-3,
            loss: DistillLoss::Sl,
            server_samples_per_sec: 50_000.0,
            prox_mu: 0.0,
            generator: GeneratorSpec::default(),
            global_model: ModelSpec::SmallCnn { base_channels: 8 },
            probe_grad_norms: false,
            fresh_generator_for_transfer: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_fl::SimConfig;

    #[test]
    fn defaults_use_sl_loss() {
        let cfg = FedZktConfig::default();
        assert_eq!(cfg.loss, DistillLoss::Sl);
        assert_eq!(cfg.prox_mu, 0.0);
        // Full participation is the protocol-level default.
        assert_eq!(SimConfig::default().participation, 1.0);
    }
}
