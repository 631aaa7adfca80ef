//! FedGKT (He et al., 2020) — group knowledge transfer over split models
//! with per-sample feature/logit wire payloads.
//!
//! FedGKT splits the network: each device trains a small **feature
//! extractor** plus a throwaway local classifier head on its private
//! shard, then uplinks a bundle of *per-sample* quantities — the extracted
//! features, its local logits and the ground-truth labels — instead of any
//! model state. The server trains the (larger) **classifier head** on the
//! pooled features, supervised by the true labels and distilled toward the
//! device logits, and downlinks its own **soft labels** per sample; the
//! device digests them at the start of its *next* round — the paper's
//! alternating knowledge-transfer loop, phase-shifted by one round so both
//! phases fit the driver's local→server order.
//!
//! This is the protocol that stresses the workspace's payload abstraction
//! hardest: neither wire direction carries a model, and the two directions
//! carry *differently shaped* bundles. The uplink template is a
//! three-tensor bundle `{features [n,d], logits [n,C], labels [n]}`, the
//! downlink template a single `[n,C]` soft-label tensor
//! ([`FederatedAlgorithm::downlink_template`]) — both flow through the
//! session [`PayloadCodec`](crate::PayloadCodec) like any state dict, and
//! under a lossy codec the *decoded* features train the server head and
//! the *decoded* soft labels teach the device.
//!
//! Device models here are composites (extractor + head) that the
//! single-spec fleet dispatcher cannot rebuild, so local training runs
//! serially on the driver thread; every step is a pure function of
//! `(seed, round, k)`, which keeps runs bit-identical across thread
//! counts and kill/resume boundaries.
//!
//! ## Scale model
//!
//! The device phase trains the active set only, so the
//! [`DeviceFleet`]`<`[`SplitModel`]`>` (see the "Scale model" section of
//! [`crate::fleet`]) stays at O(active) resident devices outside
//! evaluation.

use crate::checkpoint::AlgoState;
use crate::registry::DeviceRegistry;
use crate::{
    digest_logits, train_local, DeviceFleet, DigestConfig, FederatedAlgorithm, LocalTrainConfig,
    RoundContext, ShardStore, SimConfig,
};
use fedzkt_autograd::loss::cross_entropy;
use fedzkt_autograd::{no_grad, Var};
use fedzkt_data::{BatchIter, Corpus, Dataset};
use fedzkt_models::ModelSpec;
use fedzkt_nn::{
    load_state_dict, state_dict, Activation, Linear, Module, Optimizer, Sequential, Sgd,
    SgdConfig, StateDict,
};
use fedzkt_tensor::{seeded_rng, split_seed, Tensor};

/// Hyperparameters of [`FedGkt`]'s update rules. Protocol-level knobs
/// (rounds, participation, seed, threads, codec) live in [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedGktConfig {
    /// Local cross-entropy epochs per round (extractor + local head).
    pub local_epochs: usize,
    /// Epochs a device spends digesting the server's soft labels at the
    /// start of the round after receiving them.
    pub kd_epochs: usize,
    /// Server-head training epochs per device bundle per round.
    pub server_epochs: usize,
    /// Mini-batch size on both sides.
    pub batch_size: usize,
    /// Device learning rate.
    pub lr: f32,
    /// Server-head learning rate.
    pub server_lr: f32,
    /// Width of the exchanged feature vectors — the extractor's output
    /// dimension and the server head's input dimension.
    pub feature_dim: usize,
    /// Hidden width of the server's two-layer classifier head.
    pub server_hidden: usize,
}

impl Default for FedGktConfig {
    fn default() -> Self {
        FedGktConfig {
            local_epochs: 1,
            kd_epochs: 1,
            server_epochs: 2,
            batch_size: 32,
            lr: 0.01,
            server_lr: 0.01,
            feature_dim: 32,
            server_hidden: 64,
        }
    }
}

/// A device's split network: its zoo architecture repurposed as a feature
/// extractor (built with `feature_dim` outputs instead of class logits)
/// and a throwaway local linear head that lets it train end-to-end — and
/// lets the driver evaluate it as an image classifier.
pub struct SplitModel {
    extractor: Box<dyn Module>,
    head: Linear,
}

impl SplitModel {
    /// The deterministic split-model build for device `k` of a run seeded
    /// `seed`: `spec` with `feature_dim` outputs as the extractor, plus a
    /// fresh linear head onto the classes of `io = (channels, classes,
    /// img_size)`.
    pub fn build(
        spec: ModelSpec,
        io: (usize, usize, usize),
        feature_dim: usize,
        seed: u64,
        k: usize,
    ) -> Self {
        let (channels, classes, img) = io;
        let extractor =
            spec.build(channels, feature_dim, img, split_seed(seed, 0x6C7_0000 + k as u64));
        let mut rng = seeded_rng(split_seed(seed, 0x6C7_1000 + k as u64));
        let head = Linear::new(feature_dim, classes, true, &mut rng);
        SplitModel { extractor, head }
    }
}

impl Module for SplitModel {
    fn forward(&self, x: &Var) -> Var {
        self.head.forward(&self.extractor.forward(x))
    }

    fn children(&self) -> Vec<&dyn Module> {
        vec![self.extractor.as_ref(), &self.head]
    }
}

/// A FedGKT federation: heterogeneous split devices and one shared server
/// classifier head.
pub struct FedGkt {
    cfg: FedGktConfig,
    seed: u64,
    io: (usize, usize, usize),
    fleet: DeviceFleet<SplitModel>,
    shards: ShardStore,
    /// The server's classifier head over the exchanged feature space:
    /// `Linear(d, hidden) → ReLU → Linear(hidden, classes)`.
    head: Sequential,
    /// Per-device soft labels downlinked last round, digested next round
    /// (`None` until the device's first exchange) — the cross-round state
    /// of the alternating transfer.
    soft: Vec<Option<Tensor>>,
    /// Which devices digested soft labels this round (compute accounting).
    digested_this_round: Vec<bool>,
    /// The round's decoded uplink bundles, produced by `local_update` and
    /// consumed by `server_update` — intra-round scratch.
    pending: Vec<(usize, StateDict)>,
}

impl FedGkt {
    /// Build the federation over `zoo` extractor architectures and the
    /// private `shards` of `train`. `sim` supplies the run seed.
    ///
    /// # Panics
    /// Panics when `zoo`/`shards` lengths differ or are empty.
    pub fn new(
        zoo: &[ModelSpec],
        train: &Corpus,
        shards: &[Vec<usize>],
        cfg: FedGktConfig,
        sim: &SimConfig,
    ) -> Self {
        assert_eq!(zoo.len(), shards.len(), "zoo/shards length mismatch");
        let io = (train.channels(), train.num_classes(), train.img_size());
        let (seed, feature_dim) = (sim.seed, cfg.feature_dim);
        let fleet = DeviceFleet::new(zoo, move |k, spec| {
            SplitModel::build(spec, io, feature_dim, seed, k)
        });
        let (_, classes, _) = io;
        let mut rng = seeded_rng(split_seed(sim.seed, 0x6C7_5EED));
        let head = Sequential::new(vec![
            Box::new(Linear::new(cfg.feature_dim, cfg.server_hidden, true, &mut rng)),
            Box::new(Activation::Relu),
            Box::new(Linear::new(cfg.server_hidden, classes, true, &mut rng)),
        ]);
        FedGkt {
            cfg,
            seed,
            io,
            soft: vec![None; zoo.len()],
            digested_this_round: vec![false; zoo.len()],
            fleet,
            shards: ShardStore::new(train, shards),
            head,
            pending: Vec::new(),
        }
    }

    /// The server's classifier head.
    pub fn server_head(&self) -> &dyn Module {
        &self.head
    }

    /// Device `k`'s uplink bundle over its shard: extracted features,
    /// local logits and ground-truth labels, one row per private sample.
    /// An empty shard yields the zero-row bundle without touching the
    /// model (forwarding an empty batch is undefined).
    fn bundle(&self, k: usize, shard: &Dataset) -> StateDict {
        let (_, classes, _) = self.io;
        let d = self.cfg.feature_dim;
        let n = shard.len();
        if n == 0 {
            return StateDict {
                params: vec![
                    Tensor::zeros(&[0, d]),
                    Tensor::zeros(&[0, classes]),
                    Tensor::zeros(&[0]),
                ],
                buffers: vec![],
            };
        }
        let model = self.fleet.model(k);
        model.set_training(false);
        let x = Var::constant(shard.images().clone());
        let (features, logits) = no_grad(|| {
            let f = model.extractor.forward(&x);
            let l = model.head.forward(&f);
            (f.value_clone(), l.value_clone())
        });
        model.set_training(true);
        let labels = Tensor::from_vec(
            shard.labels().iter().map(|&l| l as f32).collect(),
            &[n],
        )
        .expect("label tensor");
        StateDict { params: vec![features, logits, labels], buffers: vec![] }
    }

    /// Train the server head on one decoded device bundle: cross-entropy
    /// against the shipped labels plus an ℓ1 pull toward the device's own
    /// logits (the paper's bidirectional distillation, server side).
    fn train_head(&mut self, features: &Tensor, logits: &Tensor, labels: &[usize], seed: u64) {
        let n = features.shape()[0];
        if n == 0 || self.cfg.server_epochs == 0 {
            return;
        }
        self.head.set_training(true);
        let opt = Sgd::new(
            self.head.params(),
            SgdConfig { lr: self.cfg.server_lr, momentum: 0.9, weight_decay: 0.0 },
        );
        for epoch in 0..self.cfg.server_epochs {
            for batch in BatchIter::new(n, self.cfg.batch_size, seed.wrapping_add(epoch as u64)) {
                let x = Var::constant(features.gather_first(&batch).expect("feature batch"));
                let target = logits.gather_first(&batch).expect("logit batch");
                let y: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
                let pred = self.head.forward(&x);
                // Raw-logit ℓ1 gradients dwarf cross-entropy's; keep the
                // distillation term a fraction of the supervised one.
                let kd = pred
                    .sub(&Var::constant(target))
                    .abs()
                    .sum_all()
                    .scale(0.1 / (batch.len() as f32));
                let loss = cross_entropy(&pred, &y).add(&kd);
                opt.zero_grad();
                loss.backward();
                opt.step();
            }
        }
    }
}

impl FederatedAlgorithm for FedGkt {
    fn devices(&self) -> usize {
        self.fleet.devices()
    }

    /// Device phase: digest last round's soft labels (if any), train the
    /// split model on the private shard, then uplink the per-sample
    /// feature/logit/label bundle.
    fn local_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) -> f32 {
        for &k in active {
            self.fleet.ensure_resident(k);
        }
        let staged = self.shards.stage(active);
        let mut digested = vec![false; self.fleet.devices()];
        let mut pending = Vec::with_capacity(active.len());
        let mut loss_sum = 0.0f32;
        for (&k, shard) in active.iter().zip(&staged) {
            if let Some(soft) = &self.soft[k] {
                digest_logits(
                    self.fleet.model(k),
                    &DigestConfig {
                        inputs: shard.images(),
                        targets: soft,
                        epochs: self.cfg.kd_epochs,
                        batch_size: self.cfg.batch_size,
                        // The workspace digest idiom: a fraction of the
                        // base rate (raw-logit ℓ1 gradients are large).
                        lr: self.cfg.lr * 0.2,
                        seed: split_seed(self.seed, 0x6C7_3000 + (round * 31 + k) as u64),
                    },
                );
                digested[k] = !shard.is_empty() && self.cfg.kd_epochs > 0;
            }
            loss_sum += train_local(
                self.fleet.model(k),
                shard,
                &LocalTrainConfig {
                    epochs: self.cfg.local_epochs,
                    batch_size: self.cfg.batch_size,
                    lr: self.cfg.lr,
                    momentum: 0.9,
                    seed: split_seed(self.seed, 0x6C7_2000 + (round * 31 + k) as u64),
                    ..Default::default()
                },
            );
            pending.push((k, ctx.upload(k, self.bundle(k, shard))));
        }
        self.digested_this_round = digested;
        self.pending = pending;
        loss_sum / active.len().max(1) as f32
    }

    /// Server phase: per uploaded bundle, train the classifier head on the
    /// decoded features (cross-entropy + distillation toward the device
    /// logits), then downlink the head's soft labels for the device to
    /// digest next round.
    fn server_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) {
        debug_assert_eq!(self.pending.len(), active.len());
        let uploads = std::mem::take(&mut self.pending);
        let (_, classes, _) = self.io;
        for (k, bundle) in uploads {
            let [features, logits, labels_f32] = <[Tensor; 3]>::try_from(bundle.params)
                .expect("fedgkt uplink is a three-tensor bundle");
            // Labels ride the same (possibly lossy) wire as everything
            // else: decode by rounding back onto the class lattice.
            let labels: Vec<usize> = labels_f32
                .data()
                .iter()
                .map(|&v| (v.round().max(0.0) as usize).min(classes - 1))
                .collect();
            self.train_head(
                &features,
                &logits,
                &labels,
                split_seed(self.seed, 0x6C7_4000 + (round * 31 + k) as u64),
            );
            let soft = if features.shape()[0] == 0 {
                Tensor::zeros(&[0, classes])
            } else {
                self.head.set_training(false);
                let x = Var::constant(features);
                let soft = no_grad(|| self.head.forward(&x).value_clone());
                self.head.set_training(true);
                soft
            };
            let reply = StateDict { params: vec![soft], buffers: vec![] };
            let mut decoded = ctx.download(k, reply);
            self.soft[k] = Some(decoded.params.pop().expect("soft-label tensor"));
        }
    }

    fn device_model(&self, k: usize) -> &dyn Module {
        self.fleet.model(k)
    }

    /// The uplink claim: O(n_k) per-sample rows — features `[n,d]`,
    /// logits `[n,C]` and labels `[n]` — never model state.
    fn payload_template(&self, k: usize) -> StateDict {
        let (_, classes, _) = self.io;
        let n = self.shards.shard_len(k);
        StateDict {
            params: vec![
                Tensor::zeros(&[n, self.cfg.feature_dim]),
                Tensor::zeros(&[n, classes]),
                Tensor::zeros(&[n]),
            ],
            buffers: vec![],
        }
    }

    /// The downlink carries only the server's soft labels: one `[n,C]`
    /// tensor — the asymmetry that motivates the split template API.
    fn downlink_template(&self, k: usize) -> StateDict {
        let (_, classes, _) = self.io;
        StateDict {
            params: vec![Tensor::zeros(&[self.shards.shard_len(k), classes])],
            buffers: vec![],
        }
    }

    fn local_samples(&self, k: usize) -> usize {
        let shard = self.shards.shard_len(k);
        let kd = if self.digested_this_round[k] { self.cfg.kd_epochs * shard } else { 0 };
        self.cfg.local_epochs * shard + kd
    }

    fn construction_seed(&self) -> Option<u64> {
        Some(self.seed)
    }

    fn registry(&self) -> Option<&DeviceRegistry> {
        Some(self.fleet.registry())
    }

    fn prepare_eval(&mut self) {
        self.fleet.ensure_all_resident();
    }

    fn end_round(&mut self, _round: usize) {
        self.fleet.release_all();
    }

    /// What FedGKT carries across rounds: the fleet (every split model
    /// that has ever been materialized, plus the registry's monotone
    /// counters), the server head, and each device's pending soft labels
    /// (the phase-shifted half of the alternating transfer).
    fn save_state(&self) -> AlgoState {
        let mut state = AlgoState::new();
        self.fleet.save_into(&mut state);
        state.put_dict("server_head", &state_dict(&self.head));
        for (k, soft) in self.soft.iter().enumerate() {
            if let Some(t) = soft {
                state.put_dict(
                    format!("soft_{k}"),
                    &StateDict { params: vec![t.clone()], buffers: vec![] },
                );
            }
        }
        state
    }

    fn load_state(&mut self, state: &AlgoState) -> Result<(), String> {
        self.fleet.load_from(state)?;
        let (_, classes, _) = self.io;
        for k in 0..self.soft.len() {
            let soft_name = format!("soft_{k}");
            self.soft[k] = if state.has_blob(&soft_name) {
                // Next round's digest gathers one soft-label row per shard
                // sample, so any other shape is a stale checkpoint.
                let shape = [self.shards.shard_len(k), classes];
                let mut sd = state.dict(&soft_name)?;
                if sd.params.len() != 1 || sd.params[0].shape() != shape {
                    return Err(format!("soft_{k} must hold exactly one {shape:?} tensor"));
                }
                Some(sd.params.pop().expect("checked above"))
            } else {
                None
            };
        }
        load_state_dict(&self.head, &state.dict("server_head")?)
            .map_err(|e| format!("server head: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecSpec, ErasedSimulation, PayloadCodec, SimCheckpoint, Simulation};
    use fedzkt_data::{DataFamily, Partition, SynthConfig};

    fn setup(sim: SimConfig) -> Simulation<FedGkt> {
        let (train, test) = SynthConfig {
            family: DataFamily::Cifar10Like,
            img: 8,
            train_n: 96,
            test_n: 48,
            classes: 4,
            seed: 3,
            ..Default::default()
        }
        .generate_corpus();
        let shards = Partition::Iid.split(train.labels(), 4, 3, 5).unwrap();
        let zoo = vec![
            ModelSpec::Mlp { hidden: 16 },
            ModelSpec::SmallCnn { base_channels: 2 },
            ModelSpec::LeNet { scale: 0.5, deep: false },
        ];
        let fed = FedGkt::new(
            &zoo,
            &train,
            &shards,
            FedGktConfig {
                local_epochs: 2,
                kd_epochs: 2,
                server_epochs: 1,
                batch_size: 16,
                lr: 0.05,
                server_lr: 0.02,
                feature_dim: 8,
                server_hidden: 16,
            },
            &sim,
        );
        Simulation::builder(fed, test, sim).build()
    }

    fn default_sim() -> SimConfig {
        SimConfig { rounds: 2, seed: 1, ..Default::default() }
    }

    #[test]
    fn fedgkt_learns_above_chance() {
        let mut sim = setup(default_sim());
        let log = sim.run();
        assert_eq!(log.rounds.len(), 2);
        assert!(log.final_accuracy() > 0.3, "accuracy {}", log.final_accuracy());
    }

    #[test]
    fn uplink_is_per_sample_and_downlink_is_soft_labels_only() {
        let mut sim = setup(default_sim());
        let metrics = sim.round(0);
        // 32-sample IID shards of 96, feature_dim 8, 4 classes:
        // uplink = {[32,8], [32,4], [32]} and downlink = {[32,4]} per
        // device, under the self-describing raw wire format (10-byte
        // payload header, then 1 + 4·ndim shape record + 4 bytes a value
        // per tensor).
        let up = CodecSpec::Raw.wire_bytes(&sim.algorithm().payload_template(0)) as u64;
        let down = CodecSpec::Raw.wire_bytes(&sim.algorithm().downlink_template(0)) as u64;
        assert_eq!(up, 10 + (9 + 32 * 8 * 4) + (9 + 32 * 4 * 4) + (5 + 32 * 4));
        assert_eq!(down, 10 + (9 + 32 * 4 * 4));
        assert_eq!(metrics.upload_bytes, 3 * up);
        assert_eq!(metrics.download_bytes, 3 * down);
        assert!(up > down, "the bundle asymmetry is the point of the protocol");
    }

    #[test]
    fn soft_labels_arrive_after_round_one_and_digest_next_round() {
        let mut sim = setup(default_sim());
        assert!((0..3).all(|k| sim.algorithm().soft[k].is_none()));
        sim.round(0);
        assert!((0..3).all(|k| sim.algorithm().soft[k].is_some()));
        // Round 0 had nothing to digest; round 1 digests on every device.
        assert!((0..3).all(|k| !sim.algorithm().digested_this_round[k]));
        let s0 = sim.algorithm().local_samples(0);
        sim.round(1);
        assert!((0..3).all(|k| sim.algorithm().digested_this_round[k]));
        assert_eq!(sim.algorithm().local_samples(0), 2 * s0, "kd_epochs == local_epochs here");
    }

    #[test]
    fn lossy_codec_error_flows_into_training() {
        // Same seed, Raw vs Q8: the server head trains on decoded
        // features, and the device digests decoded soft labels — both
        // must diverge from the lossless run.
        let run = |codec: CodecSpec| {
            let mut sim = setup(SimConfig { codec, ..default_sim() });
            sim.round(0);
            sim.round(1);
            (
                state_dict(sim.algorithm().server_head()),
                state_dict(sim.algorithm_for_eval().device_model(0)),
            )
        };
        let raw = run(CodecSpec::Raw);
        let q8 = run(CodecSpec::QuantQ8);
        assert_ne!(raw.0, q8.0, "server head saw decoded features");
        assert_ne!(raw.1, q8.1, "device digested decoded soft labels");
    }

    #[test]
    fn every_codec_round_trips_the_bundle() {
        for codec in
            [CodecSpec::Raw, CodecSpec::QuantQ8, CodecSpec::QuantQ4, CodecSpec::TopK { density: 0.25 }]
        {
            let mut sim = setup(SimConfig { codec, ..default_sim() });
            let log = sim.run();
            assert!(log.final_accuracy().is_finite(), "{codec:?}");
            assert!(log.rounds[1].upload_bytes > 0 && log.rounds[1].download_bytes > 0);
        }
    }

    #[test]
    fn straggler_state_is_bit_unchanged() {
        // participation 0.34 of 3 devices → exactly 1 active per round.
        let mut sim = setup(SimConfig {
            rounds: 1,
            participation: 0.34,
            seed: 1,
            ..Default::default()
        });
        let before: Vec<StateDict> =
            (0..3).map(|k| state_dict(sim.algorithm_for_eval().device_model(k))).collect();
        let metrics = sim.round(0);
        assert_eq!(metrics.active_devices.len(), 1);
        for (k, snapshot) in before.iter().enumerate() {
            let same = state_dict(sim.algorithm_for_eval().device_model(k)) == *snapshot;
            assert_eq!(same, !metrics.active_devices.contains(&k), "device {k}");
            assert_eq!(sim.algorithm().soft[k].is_some(), metrics.active_devices.contains(&k));
        }
    }

    #[test]
    fn checkpoint_resume_matches_the_uninterrupted_run_bit_for_bit() {
        // Partial participation so a pending soft-label tensor has to
        // survive the checkpoint boundary.
        let sim_cfg = SimConfig { rounds: 2, participation: 0.67, seed: 1, ..Default::default() };
        let reference = setup(sim_cfg).run().clone();
        let mut first = setup(sim_cfg);
        first.round(0);
        let ck = SimCheckpoint::from_json(&first.checkpoint().to_json()).unwrap();
        drop(first);
        let mut resumed = setup(sim_cfg);
        resumed.resume_from(&ck).expect("resume");
        let log = resumed.run().clone();
        assert_eq!(log.to_json(), reference.to_json());
    }

    #[test]
    fn resume_refuses_a_soft_label_tensor_of_the_wrong_shape() {
        let mut first = setup(default_sim());
        first.round(0);
        let ck = first.checkpoint();
        let rows = first.algorithm().shards.shard_len(0);
        for shape in [[rows - 1, 4], [rows, 3]] {
            let mut stale = ck.clone();
            stale.algo.blobs.retain(|(name, _)| name != "soft_0");
            stale.algo.put_dict(
                "soft_0",
                &StateDict {
                    params: vec![Tensor::zeros(&shape)],
                    buffers: vec![],
                },
            );
            let err = setup(default_sim()).resume_from(&stale).unwrap_err();
            assert!(err.contains("soft_0"), "{shape:?}: {err}");
        }
        setup(default_sim()).resume_from(&ck).expect("the unedited checkpoint resumes");
    }

    /// A MobileNetV2 split model (inverted residuals with and without an
    /// expansion conv, under the local head) and a batch of 4 images.
    fn split_model() -> (SplitModel, Tensor) {
        let m = SplitModel::build(ModelSpec::MobileNetV2 { width: 0.6 }, (3, 10, 12), 8, 21, 2);
        (m, Tensor::randn(&[4, 3, 12, 12], &mut seeded_rng(22)))
    }

    /// FNV-1a over a state dict: the param and buffer counts, then each
    /// tensor's rank, dims and f32 bits, params first.
    fn state_fnv64(m: &dyn Module) -> u64 {
        let sd = state_dict(m);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(sd.params.len() as u64);
        eat(sd.buffers.len() as u64);
        for t in sd.iter_tensors() {
            eat(t.shape().len() as u64);
            t.shape().iter().for_each(|&d| eat(d as u64));
            t.data().iter().for_each(|v| eat(u64::from(v.to_bits())));
        }
        h
    }

    /// The split model's state order (extractor, then head) is what its
    /// checkpoints encode; pinned after one training-mode forward so every
    /// batch norm's running statistics are distinct.
    #[test]
    fn split_model_state_order_is_pinned() {
        let (m, x) = split_model();
        let _ = m.forward(&Var::constant(x));
        assert_eq!(state_fnv64(&m), 0x5660_c97a_6edb_89a0);
    }

    /// `set_training` reaches every batch norm inside the extractor: eval
    /// mode moves no buffer and keeps samples independent, training mode
    /// moves every buffer.
    #[test]
    fn split_model_set_training_reaches_every_batch_norm() {
        let (m, x) = split_model();
        let buffers = |m: &SplitModel| state_dict(m).buffers;
        m.set_training(false);
        let before = buffers(&m);
        let y = no_grad(|| m.forward(&Var::constant(x.clone()))).value_clone();
        assert_eq!(buffers(&m), before, "eval mode moved a buffer");
        let mut other = Tensor::randn(x.shape(), &mut seeded_rng(23)).data().to_vec();
        let row = x.len() / 4;
        other[..row].copy_from_slice(&x.data()[..row]);
        let y2 = no_grad(|| m.forward(&Var::constant(Tensor::from_vec(other, x.shape()).unwrap())))
            .value_clone();
        assert_eq!(y.data()[..10], y2.data()[..10], "eval-mode sample 0 depends on its batch");
        m.set_training(true);
        let _ = m.forward(&Var::constant(x));
        assert!(!before.is_empty());
        for (i, (a, b)) in before.iter().zip(buffers(&m)).enumerate() {
            assert_ne!(*a, b, "training-mode forward left buffer {i} unchanged");
        }
    }

    #[test]
    fn lazy_fleet_stays_at_the_active_count_without_eval() {
        let mut sim = setup(SimConfig {
            rounds: 2,
            participation: 0.67,
            seed: 1,
            eval_every: 0,
            ..Default::default()
        });
        sim.round(0);
        let reg = sim.algorithm().registry().expect("fedgkt exposes its registry");
        assert_eq!(reg.resident(), 0);
        assert_eq!(reg.peak_resident(), 2, "eval off → peak stays at the active count");
    }
}
