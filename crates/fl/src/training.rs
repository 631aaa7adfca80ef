//! Local (on-device) training — Algorithm 2 of the paper, with the
//! optional ℓ2 proximal term of Eq. 9 — the FedMD-style logit-digest
//! phase, and the device-parallel fleet driver used by the federated
//! orchestrators.

use fedzkt_autograd::loss::{cross_entropy, l2_penalty};
use fedzkt_autograd::Var;
use fedzkt_data::{BatchIter, Dataset};
use fedzkt_models::ModelSpec;
use fedzkt_nn::{load_state_dict, state_dict, Module, Optimizer, Sgd, SgdConfig, StateDict};
use fedzkt_tensor::{par, Tensor};

/// Configuration of one local-training call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalTrainConfig {
    /// Local epochs `T_l`.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate (paper: 0.01).
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// Coefficient of the ℓ2 proximal term `μ‖w − w_received‖²` (Eq. 9);
    /// 0 disables it (plain Algorithm 2).
    pub prox_mu: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for LocalTrainConfig {
    fn default() -> Self {
        LocalTrainConfig {
            epochs: 1,
            batch_size: 32,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
            prox_mu: 0.0,
            seed: 0,
        }
    }
}

/// Train `model` on `data` with cross-entropy (Algorithm 2). When
/// `cfg.prox_mu > 0`, adds `μ‖w − w_received‖²` where `w_received` is the
/// parameter snapshot **at entry** — exactly the "parameter set transferred
/// from the server in the last iteration" of Eq. 9.
///
/// Returns the mean training loss of the final epoch (0 for empty shards,
/// which are silently skipped — a straggler that never collected data).
pub fn train_local(model: &dyn Module, data: &Dataset, cfg: &LocalTrainConfig) -> f32 {
    if data.is_empty() || cfg.epochs == 0 {
        return 0.0;
    }
    model.set_training(true);
    let reference: Option<Vec<Tensor>> = (cfg.prox_mu > 0.0)
        .then(|| model.params().iter().map(Var::value_clone).collect());
    let opt = Sgd::new(
        model.params(),
        SgdConfig { lr: cfg.lr, momentum: cfg.momentum, weight_decay: cfg.weight_decay },
    );
    let mut last_epoch_loss = 0.0f32;
    for epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for batch in BatchIter::new(data.len(), cfg.batch_size, cfg.seed.wrapping_add(epoch as u64))
        {
            let (x, y) = data.batch(&batch);
            opt.zero_grad();
            let logits = model.forward(&Var::constant(x));
            let mut loss = cross_entropy(&logits, &y);
            if let Some(reference) = &reference {
                loss = loss.add(&l2_penalty(&model.params(), reference).scale(cfg.prox_mu));
            }
            epoch_loss += loss.value().item();
            batches += 1;
            loss.backward();
            opt.step();
        }
        last_epoch_loss = epoch_loss / batches.max(1) as f32;
    }
    last_epoch_loss
}

/// One device's unit of work for [`train_local_fleet`].
///
/// The autodiff tape is `Rc`-based and cannot cross threads, so a fleet job
/// carries everything needed to *rebuild* the device's model on a worker: the
/// architecture, a [`StateDict`] snapshot of its current parameters and
/// buffers (the snapshot round trip restores both bit-for-bit — guarded by
/// the checkpoint tests in `fedzkt-nn`), and `rebuild_seed`.
///
/// `rebuild_seed` seeds the rebuild's construction: the weight/buffer
/// initialisation it produces is immediately overwritten by the snapshot,
/// but any layer state *outside* the state dict (e.g. a stochastic layer's
/// internal RNG — no layer in the workspace has one) is re-derived from it
/// rather than carried over from the live model. Callers must therefore
/// derive `rebuild_seed` from their run seed **per round and device** so
/// such state gets a fresh deterministic stream each round instead of
/// replaying one sequence forever.
///
/// FedAvg no longer rebuilds per device: its devices share one
/// architecture and start from one broadcast snapshot, so each worker
/// loads that snapshot into a single model per device (see
/// `fedavg::train_from_snapshot`), which is exact because no layer holds
/// state outside its state dict. The other algorithms still rebuild per
/// job; per-architecture scratch models for them wait for a shared
/// teacher set (ROADMAP item 4).
pub struct FleetJob<'a> {
    /// Architecture to rebuild on the worker thread.
    pub spec: ModelSpec,
    /// Parameter/buffer snapshot loaded into the rebuilt model.
    pub snapshot: StateDict,
    /// The device's private shard.
    pub data: &'a Dataset,
    /// Local-training hyperparameters (including the device's RNG stream).
    pub cfg: LocalTrainConfig,
    /// Optional extra training pass over another dataset run *first*
    /// (FedMD's public→private transfer-learning warm-up); one fleet
    /// dispatch then covers both phases instead of paying the
    /// snapshot→rebuild→load round-trip twice.
    pub pretrain: Option<(&'a Dataset, LocalTrainConfig)>,
    /// Optional consensus-digest phase run *before* local training (FedMD's
    /// digest→revisit round structure); `None` for plain local SGD.
    pub digest: Option<DigestConfig<'a>>,
    /// Seed for the rebuild's (immediately overwritten) initialisation.
    pub rebuild_seed: u64,
}

/// Configuration of one FedMD-style digest phase: regress a device model's
/// logits on the alignment inputs toward the server's consensus with an ℓ1
/// loss (the MAE the FedMD paper prescribes). The alignment inputs and the
/// consensus are shared across the fleet, so jobs borrow them.
#[derive(Debug, Clone, Copy)]
pub struct DigestConfig<'a> {
    /// Alignment inputs scored by every device (NCHW).
    pub inputs: &'a Tensor,
    /// Consensus logits to regress toward, row-aligned with `inputs`.
    pub targets: &'a Tensor,
    /// Digestion epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate (FedMD digests with a fraction of the base rate:
    /// raw-logit ℓ1 gradients dwarf cross-entropy's).
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
}

/// Run one digest phase on `model` (see [`DigestConfig`]).
pub fn digest_logits(model: &dyn Module, cfg: &DigestConfig<'_>) {
    let n = cfg.inputs.shape()[0];
    if n == 0 || cfg.epochs == 0 {
        return;
    }
    model.set_training(true);
    let opt = Sgd::new(model.params(), SgdConfig { lr: cfg.lr, momentum: 0.9, weight_decay: 0.0 });
    for epoch in 0..cfg.epochs {
        for batch in BatchIter::new(n, cfg.batch_size, cfg.seed.wrapping_add(epoch as u64)) {
            let x = cfg.inputs.gather_first(&batch).expect("alignment batch");
            let target = cfg.targets.gather_first(&batch).expect("consensus batch");
            opt.zero_grad();
            let pred = model.forward(&Var::constant(x));
            let loss = pred
                .sub(&Var::constant(target))
                .abs()
                .sum_all()
                .scale(1.0 / batch.len() as f32);
            loss.backward();
            opt.step();
        }
    }
}

/// Train a fleet of devices concurrently on up to `threads` scoped worker
/// threads, returning `(final-epoch loss, trained snapshot)` per job **in
/// job order**.
///
/// `io` is the data geometry `(channels, classes, img_size)` every model is
/// built for. Each job is an independent computation seeded by its own
/// `cfg.seed` stream, and every thread count — including 1 — runs the same
/// rebuild-load-pretrain-digest-train-snapshot sequence, so results are bit-identical
/// regardless of `threads` (the workspace determinism suite asserts this
/// across whole federated runs).
///
/// # Panics
/// Panics when a snapshot does not match its spec's architecture.
pub fn train_local_fleet(
    jobs: &[FleetJob<'_>],
    io: (usize, usize, usize),
    threads: usize,
) -> Vec<(f32, StateDict)> {
    let (channels, classes, img) = io;
    par::map_indexed(jobs.len(), threads, |i| {
        let job = &jobs[i];
        let model = job.spec.build(channels, classes, img, job.rebuild_seed);
        load_state_dict(model.as_ref(), &job.snapshot).expect("fleet snapshot matches spec");
        if let Some((data, cfg)) = &job.pretrain {
            train_local(model.as_ref(), data, cfg);
        }
        if let Some(digest) = &job.digest {
            digest_logits(model.as_ref(), digest);
        }
        let loss = train_local(model.as_ref(), job.data, &job.cfg);
        (loss, state_dict(model.as_ref()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use fedzkt_data::{DataFamily, SynthConfig};
    use fedzkt_models::ModelSpec;

    fn toy_data(seed: u64) -> (Dataset, Dataset) {
        SynthConfig {
            family: DataFamily::MnistLike,
            img: 8,
            train_n: 80,
            test_n: 40,
            classes: 4,
            seed,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn training_improves_accuracy() {
        let (train, test) = toy_data(1);
        let model = ModelSpec::SmallCnn { base_channels: 4 }.build(1, 4, 8, 2);
        let before = evaluate(model.as_ref(), &test, 32);
        let loss = train_local(
            model.as_ref(),
            &train,
            &LocalTrainConfig { epochs: 8, batch_size: 16, lr: 0.05, ..Default::default() },
        );
        let after = evaluate(model.as_ref(), &test, 32);
        assert!(loss.is_finite());
        assert!(after > before + 0.15, "before {before}, after {after}");
    }

    #[test]
    fn prox_term_limits_drift() {
        let (train, _) = toy_data(2);
        let free = ModelSpec::Mlp { hidden: 16 }.build(1, 4, 8, 3);
        let prox = ModelSpec::Mlp { hidden: 16 }.build(1, 4, 8, 3);
        let start: Vec<Tensor> = free.params().iter().map(Var::value_clone).collect();
        let cfg = LocalTrainConfig { epochs: 4, batch_size: 16, lr: 0.05, ..Default::default() };
        train_local(free.as_ref(), &train, &cfg);
        train_local(prox.as_ref(), &train, &LocalTrainConfig { prox_mu: 1.0, ..cfg });
        let drift = |m: &dyn Module| -> f32 {
            m.params()
                .iter()
                .zip(&start)
                .map(|(p, s)| p.value_clone().sub(s).unwrap().norm_l2())
                .sum()
        };
        assert!(drift(prox.as_ref()) < drift(free.as_ref()), "prox should reduce drift");
    }

    #[test]
    fn empty_shard_is_a_noop() {
        let model = ModelSpec::Mlp { hidden: 8 }.build(1, 2, 8, 4);
        let before: Vec<Tensor> = model.params().iter().map(Var::value_clone).collect();
        let data = Dataset::new(fedzkt_tensor::Tensor::zeros(&[0, 1, 8, 8]), vec![], 2);
        let loss = train_local(model.as_ref(), &data, &LocalTrainConfig::default());
        assert_eq!(loss, 0.0);
        for (p, b) in model.params().iter().zip(&before) {
            assert_eq!(&p.value_clone(), b);
        }
    }

    #[test]
    fn fleet_results_are_bit_identical_across_thread_counts() {
        let (train, _) = toy_data(4);
        let spec = ModelSpec::Mlp { hidden: 8 };
        let io = (1usize, 4usize, 8usize);
        let run = |threads: usize| {
            let jobs: Vec<FleetJob> = (0..3)
                .map(|k| FleetJob {
                    spec,
                    snapshot: state_dict(spec.build(io.0, io.1, io.2, 50 + k).as_ref()),
                    data: &train,
                    cfg: LocalTrainConfig { epochs: 1, seed: 90 + k, ..Default::default() },
                    pretrain: None,
                    digest: None,
                    rebuild_seed: 1000 + k,
                })
                .collect();
            train_local_fleet(&jobs, io, threads)
        };
        let serial = run(1);
        for threads in [2usize, 4] {
            let parallel = run(threads);
            assert_eq!(serial.len(), parallel.len());
            for ((ls, sds), (lp, sdp)) in serial.iter().zip(&parallel) {
                assert_eq!(ls.to_bits(), lp.to_bits(), "threads={threads}");
                assert_eq!(sds, sdp, "threads={threads}");
            }
        }
        // Devices trained with different seeds must actually diverge.
        assert_ne!(serial[0].1, serial[1].1);
    }

    #[test]
    fn fleet_matches_direct_local_training() {
        let (train, _) = toy_data(5);
        let spec = ModelSpec::Mlp { hidden: 8 };
        let io = (1usize, 4usize, 8usize);
        let cfg = LocalTrainConfig { epochs: 2, seed: 7, ..Default::default() };
        // Reference: train a model in place.
        let reference = spec.build(io.0, io.1, io.2, 42);
        let snapshot = state_dict(reference.as_ref());
        let ref_loss = train_local(reference.as_ref(), &train, &cfg);
        // Fleet: same snapshot, rebuilt on a worker.
        let jobs =
            [FleetJob {
                spec,
                snapshot,
                data: &train,
                cfg,
                pretrain: None,
                digest: None,
                rebuild_seed: 9,
            }];
        let out = train_local_fleet(&jobs, io, 2);
        assert_eq!(out[0].0.to_bits(), ref_loss.to_bits());
        assert_eq!(out[0].1, state_dict(reference.as_ref()));
    }

    #[test]
    fn fleet_digest_matches_direct_digest() {
        let (train, _) = toy_data(6);
        let spec = ModelSpec::Mlp { hidden: 8 };
        let io = (1usize, 4usize, 8usize);
        let mut rng = fedzkt_tensor::seeded_rng(11);
        let inputs = Tensor::randn(&[12, 1, 8, 8], &mut rng);
        let targets = Tensor::randn(&[12, 4], &mut rng);
        let digest_cfg = DigestConfig {
            inputs: &inputs,
            targets: &targets,
            epochs: 2,
            batch_size: 4,
            lr: 0.01,
            seed: 5,
        };
        let cfg = LocalTrainConfig { epochs: 1, seed: 8, ..Default::default() };
        // Reference: digest then train, in place.
        let reference = spec.build(io.0, io.1, io.2, 77);
        let snapshot = state_dict(reference.as_ref());
        digest_logits(reference.as_ref(), &digest_cfg);
        let ref_loss = train_local(reference.as_ref(), &train, &cfg);
        // Fleet: identical job, rebuilt on a worker.
        let jobs = [FleetJob {
            spec,
            snapshot,
            data: &train,
            cfg,
            pretrain: None,
            digest: Some(digest_cfg),
            rebuild_seed: 3,
        }];
        let out = train_local_fleet(&jobs, io, 2);
        assert_eq!(out[0].0.to_bits(), ref_loss.to_bits());
        assert_eq!(out[0].1, state_dict(reference.as_ref()));
    }

    /// FedAvg's device step — one model per worker, the broadcast
    /// snapshot loaded before each device — returns per device the loss
    /// and state a one-job fleet dispatch (a fresh seeded build per
    /// device) does, bit for bit, at 1 and 4 threads, for a dense, a
    /// convolutional and a batch-norm model, with and without the
    /// proximal term and with an empty shard among the devices.
    #[test]
    fn per_worker_model_matches_a_rebuild_per_device() {
        let (train, _) = toy_data(8);
        let io = (1usize, 4usize, 8usize);
        let shards: Vec<Dataset> = (0..6)
            .map(|k| train.subset(&(0..80).filter(|i| i % 6 == k && k != 4).collect::<Vec<_>>()))
            .collect();
        let cfg = |k: usize| LocalTrainConfig {
            epochs: 2,
            batch_size: 8,
            lr: 0.05,
            prox_mu: if k % 2 == 1 { 0.3 } else { 0.0 },
            seed: 400 + k as u64,
            ..Default::default()
        };
        let specs = [
            ModelSpec::Mlp { hidden: 8 },
            ModelSpec::LeNet { scale: 0.5, deep: false },
            ModelSpec::SmallCnn { base_channels: 4 },
        ];
        for spec in specs {
            let snapshot = state_dict(spec.build(io.0, io.1, io.2, 31).as_ref());
            let oracle: Vec<(f32, StateDict)> = (0..shards.len())
                .map(|k| {
                    let job = FleetJob {
                        spec,
                        snapshot: snapshot.clone(),
                        data: &shards[k],
                        cfg: cfg(k),
                        pretrain: None,
                        digest: None,
                        rebuild_seed: 900 + k as u64,
                    };
                    train_local_fleet(std::slice::from_ref(&job), io, 1).pop().expect("one job")
                })
                .collect();
            for threads in [1usize, 4] {
                let shared = crate::fedavg::train_from_snapshot(
                    spec,
                    io,
                    &snapshot,
                    shards.len(),
                    threads,
                    |k| (shards[k].clone(), cfg(k)),
                );
                assert_eq!(shared.len(), oracle.len());
                for (k, ((lo, so), (ls, ss))) in oracle.iter().zip(&shared).enumerate() {
                    assert_eq!(lo.to_bits(), ls.to_bits(), "{spec:?} threads {threads} device {k}");
                    assert_eq!(so, ss, "{spec:?} threads {threads} device {k}");
                }
            }
            // The devices really differ, so a stale model would show.
            assert_ne!(oracle[0].1, oracle[2].1, "{spec:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, _) = toy_data(3);
        let run = || {
            let model = ModelSpec::Mlp { hidden: 8 }.build(1, 4, 8, 9);
            train_local(
                model.as_ref(),
                &train,
                &LocalTrainConfig { epochs: 2, seed: 77, ..Default::default() },
            );
            model.params()[0].value_clone()
        };
        assert_eq!(run(), run());
    }
}
