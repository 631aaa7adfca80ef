//! FedAvg and FedProx reference implementations (homogeneous on-device
//! models).
//!
//! These are the "classical federated learning" baselines of the paper's
//! §II-A: all devices share one architecture, and the server element-wise
//! averages parameters. They double as substrate validation (the FedZKT
//! claim is precisely that this paradigm breaks when architectures differ).
//!
//! Run under the [`Simulation`](crate::Simulation) driver — see
//! [`FederatedAlgorithm`] for the phase contract.
//!
//! ## Scale model
//!
//! FedAvg's devices are *stateless between rounds*: every round starts
//! from the broadcast global snapshot, so the only per-device state is the
//! data shard. The federation therefore needs only the [`ShardStore`] from
//! [`crate::fleet`] (see its "Scale model" section) and a
//! [`DeviceRegistry`] gauge: a device's shard is synthesized into the
//! store's cache the first time it is sampled, copied out on the worker
//! that trains it and dropped when that device is done, and the server
//! folds decoded uplinks into a [`StreamingAverage`] as they arrive
//! instead of collecting them.
//! Peak memory is O(sampled-per-round), never O(registered fleet) — the
//! bound the workspace memory-bound regression test enforces on the
//! registry counters.

use crate::training::on_scratch;
use crate::{
    train_local, AlgoState, DeviceRegistry, FederatedAlgorithm, LocalTrainConfig, RoundContext,
    ShardStore, SimConfig, StreamingAverage,
};
use fedzkt_data::Corpus;
use fedzkt_models::ModelSpec;
use fedzkt_nn::{load_state_dict, state_dict, Module, StateDict};
use fedzkt_tensor::split_seed;

/// Hyperparameters of [`FedAvg`]'s update rules. Protocol-level knobs
/// (rounds, participation, seed, threads, evaluation) live in
/// [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedAvgConfig {
    /// Local epochs per round `T_l`.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Local SGD learning rate.
    pub lr: f32,
    /// Local SGD momentum.
    pub momentum: f32,
    /// FedProx proximal coefficient μ (0 = plain FedAvg).
    pub prox_mu: f32,
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        FedAvgConfig { local_epochs: 1, batch_size: 32, lr: 0.05, momentum: 0.9, prox_mu: 0.0 }
    }
}

/// A FedAvg (or, with `prox_mu > 0`, FedProx) federation over homogeneous
/// on-device models.
pub struct FedAvg {
    cfg: FedAvgConfig,
    seed: u64,
    spec: ModelSpec,
    io: (usize, usize, usize),
    global: Box<dyn Module>,
    shards: ShardStore,
    registry: DeviceRegistry,
    /// Running weighted fold of the round's decoded uplinks, built in
    /// `local_update` (ascending device-id order), consumed by
    /// `server_update`.
    pending: Option<StreamingAverage>,
}

impl FedAvg {
    /// Build the federation: every device runs `spec`; `shards[i]` is the
    /// index set of device `i` in `train`. `sim` supplies the run seed.
    ///
    /// # Panics
    /// Panics when `shards` is empty.
    pub fn new(
        spec: ModelSpec,
        train: &Corpus,
        shards: &[Vec<usize>],
        cfg: FedAvgConfig,
        sim: &SimConfig,
    ) -> Self {
        let io = (train.channels(), train.num_classes(), train.img_size());
        FedAvg {
            cfg,
            seed: sim.seed,
            spec,
            io,
            global: spec.build(io.0, io.1, io.2, sim.seed),
            shards: ShardStore::new(train, shards),
            registry: DeviceRegistry::default(),
            pending: None,
        }
    }

    /// The devices' private data and its first-touch cache.
    pub fn shards(&self) -> &ShardStore {
        &self.shards
    }
}

impl FederatedAlgorithm for FedAvg {
    fn devices(&self) -> usize {
        self.shards.devices()
    }

    /// Every active device starts from the broadcast global snapshot —
    /// **as decoded from the wire**, so a lossy codec's quantization error
    /// is what the devices actually train from — and trains independently;
    /// they run on worker threads and their updates come back in
    /// `active` order (ascending device ids), so folding each decoded
    /// uplink into the running [`StreamingAverage`] as it is consumed is
    /// bit-deterministic for any thread count **and** bit-identical to a
    /// batch average.
    fn local_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) -> f32 {
        // One broadcast payload: encoded once, every recipient charged its
        // wire size and handed the same decoded state.
        let global_sd = ctx.broadcast(active, state_dict(self.global.as_ref()));
        // The data is the only per-device state: each worker loads the
        // broadcast snapshot into its one scratch model before each device
        // it trains. Shards sampled for the first time are synthesized into
        // the store's cache here, and each worker copies a device's shard
        // out right before training on it: at most `threads` shards and
        // models are live at a time, however many devices the round
        // samples. The registry counts the whole sampled set, which must
        // not repeat a device (the fold order below relies on ascending
        // ids too).
        assert!(active.windows(2).all(|w| w[0] < w[1]), "active ids must be strictly ascending");
        for _ in active {
            self.registry.checkout();
        }
        self.shards.cache(active);
        let (shards, cfg, seed, spec) = (&self.shards, self.cfg, self.seed, self.spec);
        let results = on_scratch(active.len(), self.io, ctx.threads(), |_| spec, |i, model| {
            let dev = active[i];
            let local = LocalTrainConfig {
                epochs: cfg.local_epochs,
                batch_size: cfg.batch_size,
                lr: cfg.lr,
                momentum: cfg.momentum,
                weight_decay: 0.0,
                prox_mu: cfg.prox_mu,
                seed: split_seed(seed, (round * 1000 + dev) as u64),
            };
            load_state_dict(model, &global_sd).expect("broadcast snapshot matches spec");
            let loss = train_local(model, &shards.shard(dev), &local);
            (loss, state_dict(model))
        });
        for _ in active {
            self.registry.release();
        }
        // Stream the aggregation: the total weight is known before any
        // uplink arrives (shard sizes), so each decoded update is folded
        // into the running weighted sum and dropped — the server never
        // holds more than the accumulator plus one in-flight state.
        let total: f32 = active.iter().map(|&dev| self.shards.shard_len(dev) as f32).sum();
        let mut fold = StreamingAverage::new(total);
        let mut loss_sum = 0.0f32;
        for (&dev, (loss, sd)) in active.iter().zip(results) {
            loss_sum += loss;
            let weight = self.shards.shard_len(dev) as f32;
            // The server aggregates what it received over the wire, not
            // the device's exact local state.
            fold.fold(weight, &ctx.upload(dev, sd));
        }
        self.pending = Some(fold);
        loss_sum / active.len().max(1) as f32
    }

    /// Load the round's completed streaming fold (weights = shard sizes)
    /// into the global model.
    fn server_update(&mut self, _round: usize, _active: &[usize], _ctx: &mut RoundContext) {
        let Some(fold) = self.pending.take() else { return };
        if fold.folded() == 0 {
            return;
        }
        load_state_dict(self.global.as_ref(), &fold.finish()).expect("averaged state dict");
    }

    /// Homogeneous setting: every device ends the round holding the global
    /// model, so the driver's identity-deduplicated evaluation charges one
    /// evaluation for the whole fleet.
    fn device_model(&self, _k: usize) -> &dyn Module {
        self.global.as_ref()
    }

    fn global_model(&self) -> Option<&dyn Module> {
        Some(self.global.as_ref())
    }

    fn payload_template(&self, _k: usize) -> StateDict {
        state_dict(self.global.as_ref())
    }

    fn local_samples(&self, k: usize) -> usize {
        self.cfg.local_epochs * self.shards.shard_len(k)
    }

    fn construction_seed(&self) -> Option<u64> {
        Some(self.seed)
    }

    fn registry(&self) -> Option<&DeviceRegistry> {
        Some(&self.registry)
    }

    /// FedAvg's only evolving state is the global model — devices are
    /// stateless between rounds and `pending` never survives a round —
    /// plus the registry's monotone residency counters.
    fn save_state(&self) -> AlgoState {
        let mut state = AlgoState::new();
        state.put_dict("global", &state_dict(self.global.as_ref()));
        self.registry.save_into(&mut state);
        state
    }

    fn load_state(&mut self, state: &AlgoState) -> Result<(), String> {
        load_state_dict(self.global.as_ref(), &state.dict("global")?)
            .map_err(|e| format!("global model: {e}"))?;
        self.registry.load_from(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{average_state_dicts, CodecSpec, ErasedSimulation, PayloadCodec, Simulation};
    use fedzkt_data::{DataFamily, Partition, SynthConfig};

    fn setup(prox_mu: f32, participation: f32) -> Simulation<FedAvg> {
        let (train, test) = SynthConfig {
            family: DataFamily::MnistLike,
            img: 8,
            train_n: 120,
            test_n: 60,
            classes: 4,
            seed: 5,
            ..Default::default()
        }
        .generate_corpus();
        let shards = Partition::Iid.split(train.labels(), 4, 3, 7).unwrap();
        let sim = SimConfig { rounds: 4, participation, seed: 1, ..Default::default() };
        let fed = FedAvg::new(
            ModelSpec::Mlp { hidden: 24 },
            &train,
            &shards,
            FedAvgConfig { local_epochs: 2, batch_size: 16, lr: 0.05, prox_mu, ..Default::default() },
            &sim,
        );
        Simulation::builder(fed, test, sim).build()
    }

    #[test]
    fn fedavg_learns_above_chance() {
        let mut sim = setup(0.0, 1.0);
        let log = sim.run();
        assert_eq!(log.rounds.len(), 4);
        assert!(log.final_accuracy() > 0.4, "accuracy {}", log.final_accuracy());
    }

    #[test]
    fn fedprox_also_learns() {
        let mut sim = setup(0.5, 1.0);
        assert!(sim.run().final_accuracy() > 0.35);
    }

    #[test]
    fn partial_participation_still_progresses() {
        let mut sim = setup(0.0, 0.67);
        let log = sim.run();
        assert!(log.rounds.iter().all(|r| r.active_devices.len() == 2));
        assert!(log.final_accuracy() > 0.3);
    }

    #[test]
    fn lazy_registry_peaks_at_the_sampled_count() {
        let mut sim = setup(0.0, 0.67);
        sim.run();
        let reg = sim.algorithm().registry().expect("fedavg exposes its registry");
        assert_eq!(reg.peak_resident(), 2, "peak must be the 2 sampled devices");
        assert_eq!(reg.resident(), 0, "everything released after merge");
    }

    /// The registry counts checkouts without device ids, so a repeated id
    /// in `active` is caught by the ascending-ids assert instead.
    #[test]
    #[should_panic]
    fn repeated_active_id_panics() {
        let mut sim = setup(0.0, 1.0);
        let mut ctx = RoundContext::new(3, CodecSpec::Raw, 1);
        sim.algorithm_mut().local_update(0, &[1, 1], &mut ctx);
    }

    #[test]
    fn checkpoint_resume_matches_the_uninterrupted_run_bit_for_bit() {
        let reference = setup(0.0, 0.67).run().clone();
        let mut first = setup(0.0, 0.67);
        first.round(0);
        first.round(1);
        // Through the serialized form, as a real kill/restart would go.
        let ck = crate::SimCheckpoint::from_json(&first.checkpoint().to_json()).unwrap();
        drop(first);
        let mut resumed = setup(0.0, 0.67);
        resumed.resume_from(&ck).expect("resume");
        let log = resumed.run().clone();
        assert_eq!(log.to_json(), reference.to_json());
    }

    #[test]
    fn checkpoint_with_an_overflowing_shape_is_refused_on_resume() {
        let mut first = setup(0.0, 0.67);
        first.round(0);
        // The global model replaced by a 28-byte FZKT header claiming one
        // [2^31, 2^31] tensor: resume must refuse it, not panic.
        let mut blob = b"FZKT".to_vec();
        for word in [1u32, 1, 0, 2, 1 << 31, 1 << 31] {
            blob.extend_from_slice(&word.to_le_bytes());
        }
        let mut ck = first.checkpoint();
        ck.algo.blobs.iter_mut().find(|(name, _)| name == "global").expect("global blob").1 = blob;
        let ck = crate::SimCheckpoint::from_json(&ck.to_json()).unwrap();
        let err = setup(0.0, 0.67).resume_from(&ck).unwrap_err();
        assert!(err.contains("global"), "{err}");
    }

    #[test]
    fn comm_bytes_match_model_wire_size() {
        let mut sim = setup(0.0, 1.0);
        let metrics = sim.round(0);
        let wire = CodecSpec::Raw.wire_bytes(&sim.algorithm().payload_template(0)) as u64;
        assert_eq!(metrics.upload_bytes, 3 * wire);
        assert_eq!(metrics.download_bytes, 3 * wire);
    }

    #[test]
    fn lossy_codec_error_flows_into_training() {
        // Same seed, different codec: the Q4 run aggregates from decoded
        // (quantized) uploads and broadcasts a quantized global, so its
        // global model must genuinely diverge from the raw run's.
        let run = |codec: CodecSpec| {
            let (train, test) = SynthConfig {
                family: DataFamily::MnistLike,
                img: 8,
                train_n: 120,
                test_n: 60,
                classes: 4,
                seed: 5,
                ..Default::default()
            }
            .generate_corpus();
            let shards = Partition::Iid.split(train.labels(), 4, 3, 7).unwrap();
            let sim = SimConfig { rounds: 1, seed: 1, codec, ..Default::default() };
            let fed = FedAvg::new(
                ModelSpec::Mlp { hidden: 24 },
                &train,
                &shards,
                FedAvgConfig { local_epochs: 1, batch_size: 16, ..Default::default() },
                &sim,
            );
            let mut sim = Simulation::builder(fed, test, sim).build();
            sim.round(0);
            state_dict(sim.algorithm().global_model().unwrap())
        };
        let raw = run(CodecSpec::Raw);
        let q4 = run(CodecSpec::QuantQ4);
        assert_ne!(raw, q4, "quantization error never reached the aggregate");
        // But quantization is a small perturbation, not a rewrite.
        for (a, b) in raw.params.iter().zip(&q4.params) {
            let diff = a.sub(b).unwrap();
            assert!(diff.norm_l2() < 0.5 * a.norm_l2().max(1e-3), "implausibly large drift");
        }
    }

    #[test]
    fn device_accuracy_equals_global_accuracy() {
        let mut sim = setup(0.0, 1.0);
        let metrics = sim.round(0);
        // One shared model: every device reports the same accuracy, stored
        // once, which is also the global accuracy (the average may differ
        // by an ulp from the summation).
        assert_eq!(metrics.device_accuracy.uniform(), metrics.global_accuracy);
        assert!((metrics.avg_device_accuracy - metrics.device_accuracy[0]).abs() < 1e-5);
    }

    #[test]
    fn average_state_dicts_weighted() {
        use fedzkt_tensor::Tensor;
        let a = StateDict { params: vec![Tensor::full(&[2], 0.0)], buffers: vec![] };
        let b = StateDict { params: vec![Tensor::full(&[2], 3.0)], buffers: vec![] };
        let avg = average_state_dicts(&[(1.0, &a), (2.0, &b)]);
        assert_eq!(avg.params[0].data(), &[2.0, 2.0]);
    }
}
