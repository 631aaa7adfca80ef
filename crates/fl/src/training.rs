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
/// The autodiff tape is `Rc`-based and cannot cross threads, so a job
/// carries the device's architecture and a [`StateDict`] snapshot of its
/// parameters and buffers (the round trip restores both bit-for-bit —
/// guarded by the checkpoint tests in `fedzkt-nn`), which a worker loads
/// into its one scratch model of that architecture.
pub struct FleetJob<'a> {
    /// The device's architecture: picks the worker's scratch model.
    pub spec: ModelSpec,
    /// Parameter/buffer snapshot loaded into the scratch model.
    pub snapshot: StateDict,
    /// The device's private shard.
    pub data: &'a Dataset,
    /// Local-training hyperparameters (including the device's RNG stream).
    pub cfg: LocalTrainConfig,
    /// Optional extra training pass over another dataset run *first*
    /// (FedMD's public→private transfer-learning warm-up); one fleet
    /// dispatch then covers both phases instead of paying the
    /// snapshot→load→read round trip twice.
    pub pretrain: Option<(&'a Dataset, LocalTrainConfig)>,
    /// Optional consensus-digest phase run *before* local training (FedMD's
    /// digest→revisit round structure); `None` for plain local SGD.
    pub digest: Option<DigestConfig<'a>>,
    /// Unread: the scratch model's initialisation is always overwritten
    /// by `snapshot`, so no seed reaches the result. Library callers pass
    /// 0; the field stays until the benchmark harness stops setting it.
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

/// Run `work(i, model)` for every `i` in `0..n` on up to `threads` scoped
/// workers, returning the results in index order.
///
/// Each worker takes a contiguous share of the indices, as
/// [`par::for_each_chunk_mut`] splits them, and builds a model of geometry
/// `io` the first time it meets an architecture `spec_of(i)` in its share.
/// That scratch model serves every index of the architecture, so `work`
/// loads each state it reads first; this computes what a fresh build per
/// index would, bit for bit, because no layer holds state outside its state
/// dict except the training flag. The gradients `work` leaves are dropped,
/// so an idle scratch model holds its state only.
pub(crate) fn on_scratch<R: Send>(
    n: usize,
    io: (usize, usize, usize),
    threads: usize,
    spec_of: impl Fn(usize) -> ModelSpec + Sync,
    work: impl Fn(usize, &dyn Module) -> R + Sync,
) -> Vec<R> {
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    par::for_each_chunk_mut(&mut results, 1, threads, |first, share| {
        let mut scratch: Vec<(ModelSpec, Box<dyn Module>)> = Vec::new();
        for (i, slot) in (first..).zip(share) {
            let spec = spec_of(i);
            let at = scratch.iter().position(|(s, _)| *s == spec).unwrap_or_else(|| {
                scratch.push((spec, spec.build(io.0, io.1, io.2, 0)));
                scratch.len() - 1
            });
            let model = scratch[at].1.as_ref();
            *slot = Some(work(i, model));
            model.params().iter().for_each(Var::zero_grad);
        }
    });
    results.into_iter().map(|r| r.expect("every index is run")).collect()
}

/// Train a fleet of devices concurrently on up to `threads` scoped worker
/// threads, returning `(final-epoch loss, trained snapshot)` per job **in
/// job order**, bit-identical for every thread count.
///
/// `io` is the data geometry `(channels, classes, img_size)`. Each job
/// loads its snapshot into its worker's scratch model of its architecture,
/// runs its pretrain, digest and training phases, each seeded by its own
/// config, and reads the state back.
///
/// # Panics
/// Panics when a snapshot does not match its spec's architecture.
pub fn train_local_fleet(
    jobs: &[FleetJob<'_>],
    io: (usize, usize, usize),
    threads: usize,
) -> Vec<(f32, StateDict)> {
    on_scratch(jobs.len(), io, threads, |i| jobs[i].spec, |i, model| {
        let job = &jobs[i];
        load_state_dict(model, &job.snapshot).expect("fleet snapshot matches spec");
        if let Some((data, cfg)) = &job.pretrain {
            train_local(model, data, cfg);
        }
        if let Some(digest) = &job.digest {
            digest_logits(model, digest);
        }
        let loss = train_local(model, job.data, &job.cfg);
        (loss, state_dict(model))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        evaluate, CodecSpec, FedAvg, FedAvgConfig, FederatedAlgorithm, RoundContext, SimConfig,
        StreamingAverage,
    };
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
                    rebuild_seed: 0,
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

    /// Every device-side dispatch trains on one scratch model per
    /// architecture per worker, and returns what a fresh seeded build per
    /// job computes with `train_local` / `digest_logits` called directly,
    /// bit for bit, at 1 and 4 threads. `train_local_fleet` runs interleaved
    /// architectures of both paper zoos (the batch-norm MobileNetV2 and
    /// ShuffleNetV2 among them) with pretrain and digest phases, an empty
    /// shard, and proximal and plain configs; FedAvg's round runs a
    /// small-zoo and a batch-norm architecture, plain and proximal, over
    /// shards that include an empty one.
    #[test]
    fn per_worker_model_matches_a_rebuild_per_device() {
        let (train, _) = toy_data(8);
        let io = (1usize, 4usize, 8usize);
        let empty = train.subset(&[]);
        let shards: Vec<Dataset> = (0..4)
            .map(|k| train.subset(&(0..40).filter(|i| i % 4 == k).collect::<Vec<_>>()))
            .collect();
        let mut rng = fedzkt_tensor::seeded_rng(11);
        let inputs = Tensor::randn(&[6, 1, 8, 8], &mut rng);
        let targets = Tensor::randn(&[6, 4], &mut rng);
        let cfg = |j: usize| LocalTrainConfig {
            epochs: 1,
            batch_size: 4,
            lr: 0.05,
            prox_mu: if j % 3 == 1 { 0.3 } else { 0.0 },
            seed: 400 + j as u64,
            ..Default::default()
        };
        let (small, cifar) = (ModelSpec::paper_zoo_small(), ModelSpec::paper_zoo_cifar());
        // Sixteen jobs in four shares of four at 4 threads, each share two
        // architectures of each zoo visited twice, so every scratch model
        // is reused with another job's state.
        let jobs: Vec<FleetJob> = (0..16)
            .map(|j| {
                let spec = if j % 2 == 0 { small[j / 4] } else { cifar[j / 4] };
                FleetJob {
                    spec,
                    snapshot: state_dict(spec.build(io.0, io.1, io.2, 50 + j as u64).as_ref()),
                    data: if j == 6 { &empty } else { &shards[j % 4] },
                    cfg: cfg(j),
                    pretrain: (j % 4 == 2).then(|| (&shards[(j + 1) % 4], cfg(j + 100))),
                    digest: (j % 4 == 3).then_some(DigestConfig {
                        inputs: &inputs,
                        targets: &targets,
                        epochs: 1,
                        batch_size: 3,
                        lr: 0.01,
                        seed: 700 + j as u64,
                    }),
                    rebuild_seed: 0,
                }
            })
            .collect();
        let oracle: Vec<(f32, StateDict)> = jobs
            .iter()
            .enumerate()
            .map(|(j, job)| {
                let model = job.spec.build(io.0, io.1, io.2, 900 + j as u64);
                load_state_dict(model.as_ref(), &job.snapshot).unwrap();
                if let Some((data, cfg)) = &job.pretrain {
                    train_local(model.as_ref(), data, cfg);
                }
                if let Some(digest) = &job.digest {
                    digest_logits(model.as_ref(), digest);
                }
                let loss = train_local(model.as_ref(), job.data, &job.cfg);
                (loss, state_dict(model.as_ref()))
            })
            .collect();
        // The jobs really differ, so a stale model would show.
        assert_ne!(oracle[0].1, oracle[2].1);
        for threads in [1usize, 4] {
            let fleet = train_local_fleet(&jobs, io, threads);
            for (j, ((lo, so), (lf, sf))) in oracle.iter().zip(&fleet).enumerate() {
                assert_eq!(lo.to_bits(), lf.to_bits(), "threads {threads} job {j}");
                assert_eq!(so, sf, "threads {threads} job {j}");
            }
        }

        // FedAvg: one round, then the global model, which is the
        // shard-weighted fold of every device's trained state.
        let (corpus, _) = SynthConfig {
            family: DataFamily::MnistLike,
            img: 8,
            train_n: 50,
            test_n: 4,
            classes: 4,
            seed: 8,
            ..Default::default()
        }
        .generate_corpus();
        let index: Vec<Vec<usize>> = (0..6)
            .map(|k| (0..50).filter(|i| i % 6 == k && k != 4).collect())
            .collect();
        let sim = SimConfig { seed: 21, ..Default::default() };
        let (round, active) = (3usize, [0usize, 1, 2, 3, 4, 5]);
        for (spec, prox_mu) in [(small[2], 0.0), (cifar[0], 0.3)] {
            let fcfg = FedAvgConfig { batch_size: 4, prox_mu, ..Default::default() };
            let fedavg = || FedAvg::new(spec, &corpus, &index, fcfg, &sim);
            let reference = fedavg();
            let broadcast = state_dict(reference.global_model().unwrap());
            let total: usize = index.iter().map(Vec::len).sum();
            let mut fold = StreamingAverage::new(total as f32);
            let mut loss_sum = 0.0f32;
            for dev in active {
                let model = spec.build(io.0, io.1, io.2, 900 + dev as u64);
                load_state_dict(model.as_ref(), &broadcast).unwrap();
                let local = LocalTrainConfig {
                    epochs: fcfg.local_epochs,
                    batch_size: fcfg.batch_size,
                    lr: fcfg.lr,
                    momentum: fcfg.momentum,
                    weight_decay: 0.0,
                    prox_mu,
                    seed: fedzkt_tensor::split_seed(sim.seed, (round * 1000 + dev) as u64),
                };
                let shard = reference.shards().shard(dev);
                loss_sum += train_local(model.as_ref(), &shard, &local);
                fold.fold(shard.len() as f32, &state_dict(model.as_ref()));
            }
            let (loss, global) = (loss_sum / active.len() as f32, fold.finish());
            for threads in [1usize, 4] {
                let mut fed = fedavg();
                let mut ctx = RoundContext::new(active.len(), CodecSpec::Raw, threads);
                let got = fed.local_update(round, &active, &mut ctx);
                fed.server_update(round, &active, &mut ctx);
                assert_eq!(got.to_bits(), loss.to_bits(), "{spec:?} threads {threads}");
                let got = state_dict(fed.global_model().unwrap());
                assert_eq!(got, global, "{spec:?} threads {threads}");
            }
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
