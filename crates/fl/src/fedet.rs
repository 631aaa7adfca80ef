//! Fed-ET (Cho et al., 2022) — ensemble knowledge transfer with
//! diversity-weighted consensus distillation.
//!
//! Fed-ET keeps the paper's heterogeneous-device premise but transfers
//! knowledge through a **public transfer set** and a large **server
//! model**: each round the active devices train locally and upload their
//! (small) models; the server scores a transfer subset with every uploaded
//! model, folds the logits into a consensus whose per-device weights are
//! boosted by *diversity* — a device whose predictions stray from the
//! ensemble mean carries information the mean lacks — distills the
//! consensus into the server model, and finally transfers the refreshed
//! server knowledge back into each device architecture before the
//! downlink.
//!
//! Runs under the generic [`Simulation`](crate::Simulation) driver like
//! every other algorithm in the workspace — zero protocol machinery of its
//! own. Both wire directions carry the device's own model state dict, so
//! the default [`downlink_template`](FederatedAlgorithm::downlink_template)
//! applies; the decoded uplink (not the device's bit-exact state) is what
//! the server ensembles, and the decoded downlink is what the device keeps
//! — lossy-codec error enters both sides of the transfer.
//!
//! ## Scale model
//!
//! Nothing in a Fed-ET round touches an inactive device: local training,
//! scoring, distillation and transfer all run over the active set, so the
//! [`DeviceFleet`] (see the "Scale model" section of [`crate::fleet`])
//! stays at O(active) resident devices outside evaluation, exactly like
//! FedMD.

use crate::checkpoint::AlgoState;
use crate::registry::DeviceRegistry;
use crate::{
    digest_logits, train_local_fleet, DeviceFleet, DigestConfig, FederatedAlgorithm, FleetJob,
    LocalTrainConfig, RoundContext, ShardStore, SimConfig,
};
use fedzkt_autograd::{no_grad, Var};
use fedzkt_data::{Corpus, Dataset};
use fedzkt_models::ModelSpec;
use fedzkt_nn::{load_state_dict, state_dict, Module, StateDict};
use fedzkt_tensor::{seeded_rng, split_seed, Tensor};
use rand::seq::SliceRandom;

/// Hyperparameters of [`FedEt`]'s update rules. Protocol-level knobs
/// (rounds, participation, seed, threads, codec) live in [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedEtConfig {
    /// Local training epochs per round.
    pub local_epochs: usize,
    /// Mini-batch size (local training, distillation and transfer).
    pub batch_size: usize,
    /// Device learning rate.
    pub lr: f32,
    /// Public samples scored per round (the transfer subset).
    pub transfer_size: usize,
    /// Epochs of consensus distillation into the server model per round.
    pub distill_epochs: usize,
    /// Epochs of server→device knowledge transfer per round.
    pub transfer_epochs: usize,
    /// Server-model distillation learning rate.
    pub server_lr: f32,
    /// Diversity boost λ in the consensus weights `α_k ∝ n_k (1 + λ d_k)`;
    /// 0 recovers plain sample-count weighting.
    pub diversity_lambda: f32,
    /// The (large) server model the ensemble is distilled into.
    pub server_model: ModelSpec,
}

impl Default for FedEtConfig {
    fn default() -> Self {
        FedEtConfig {
            local_epochs: 1,
            batch_size: 32,
            lr: 0.01,
            transfer_size: 128,
            distill_epochs: 2,
            transfer_epochs: 2,
            server_lr: 0.01,
            diversity_lambda: 1.0,
            server_model: ModelSpec::SmallCnn { base_channels: 8 },
        }
    }
}

/// A Fed-ET federation over heterogeneous on-device models, a public
/// transfer set and one server model.
pub struct FedEt {
    cfg: FedEtConfig,
    seed: u64,
    io: (usize, usize, usize),
    fleet: DeviceFleet<Box<dyn Module>>,
    shards: ShardStore,
    public: Dataset,
    server: Box<dyn Module>,
    /// Zero-sample dataset handed to transfer-only fleet jobs (their
    /// `epochs: 0` local pass is a no-op by contract).
    empty: Dataset,
    /// The round's decoded uploads, produced by `local_update` and
    /// consumed by `server_update` — intra-round scratch, never
    /// checkpointed.
    pending: Vec<(usize, StateDict)>,
}

impl FedEt {
    /// Build the federation. `public` provides the transfer set; its
    /// labels are taken modulo the private class count (only its inputs
    /// are ever scored, but the relabelling keeps the dataset well-formed
    /// for the class-count accessors). `sim` supplies the run seed.
    ///
    /// # Panics
    /// Panics when `zoo`/`shards` lengths differ or are empty, or when the
    /// public set's image geometry differs from the private one.
    pub fn new(
        zoo: &[ModelSpec],
        train: &Corpus,
        shards: &[Vec<usize>],
        public: Dataset,
        cfg: FedEtConfig,
        sim: &SimConfig,
    ) -> Self {
        assert_eq!(zoo.len(), shards.len(), "zoo/shards length mismatch");
        assert_eq!(
            (public.channels(), public.img_size()),
            (train.channels(), train.img_size()),
            "public/private image geometry mismatch"
        );
        let (channels, classes, img) = (train.channels(), train.num_classes(), train.img_size());
        let public = Dataset::new(
            public.images().clone(),
            public.labels().iter().map(|&l| l % classes).collect(),
            classes,
        );
        let seed = sim.seed;
        let fleet = DeviceFleet::new(zoo, move |k, spec| {
            spec.build(channels, classes, img, split_seed(seed, 0xE7_0000 + k as u64))
        });
        let server = cfg.server_model.build(channels, classes, img, split_seed(seed, 0xE7_5EED));
        FedEt {
            cfg,
            seed,
            io: (channels, classes, img),
            fleet,
            shards: ShardStore::new(train, shards),
            public,
            server,
            empty: Dataset::new(Tensor::zeros(&[0, channels, img, img]), Vec::new(), classes),
            pending: Vec::new(),
        }
    }

    /// The relabelled public transfer set.
    pub fn public(&self) -> &Dataset {
        &self.public
    }

    /// The server model the ensemble is distilled into.
    pub fn server(&self) -> &dyn Module {
        self.server.as_ref()
    }

    /// Size of the round's transfer subset.
    fn transfer_len(&self) -> usize {
        self.cfg.transfer_size.min(self.public.len())
    }
}

impl FederatedAlgorithm for FedEt {
    fn devices(&self) -> usize {
        self.fleet.devices()
    }

    /// Device phase: local cross-entropy training on the fleet, then each
    /// active device uploads its model. The device keeps its bit-exact
    /// trained state; the server receives the wire (decoded) copy.
    fn local_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) -> f32 {
        for &k in active {
            self.fleet.ensure_resident(k);
        }
        let staged = self.shards.stage(active);
        let jobs: Vec<FleetJob> = active
            .iter()
            .zip(&staged)
            .map(|(&k, data)| FleetJob {
                spec: self.fleet.spec(k),
                snapshot: state_dict(self.fleet.model(k)),
                data,
                cfg: LocalTrainConfig {
                    epochs: self.cfg.local_epochs,
                    batch_size: self.cfg.batch_size,
                    lr: self.cfg.lr,
                    momentum: 0.9,
                    seed: split_seed(self.seed, 0xE7_1000 + (round * 31 + k) as u64),
                    ..Default::default()
                },
                pretrain: None,
                digest: None,
                rebuild_seed: split_seed(self.seed, 0xE7_2000 + (round * 31 + k) as u64),
            })
            .collect();
        let results = train_local_fleet(&jobs, self.io, ctx.threads());
        drop(jobs);
        drop(staged);
        let mut loss_sum = 0.0f32;
        self.pending.clear();
        for (&k, (loss, sd)) in active.iter().zip(results) {
            loss_sum += loss;
            load_state_dict(self.fleet.model(k), &sd)
                .expect("fleet result matches device architecture");
            self.pending.push((k, ctx.upload(k, sd)));
        }
        loss_sum / active.len().max(1) as f32
    }

    /// Server phase: score the round's transfer subset with every uploaded
    /// model, fold the logits into the diversity-weighted consensus,
    /// distill it into the server model, transfer the refreshed knowledge
    /// back into each device architecture, and downlink the result.
    fn server_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) {
        debug_assert_eq!(self.pending.len(), active.len());
        let uploads = std::mem::take(&mut self.pending);
        let (channels, classes, img) = self.io;

        // 1. Sample the transfer subset of the public data.
        let mut rng = seeded_rng(split_seed(self.seed, 0xE7_3000 + round as u64));
        let mut indices: Vec<usize> = (0..self.public.len()).collect();
        indices.shuffle(&mut rng);
        indices.truncate(self.transfer_len());
        let (align_x, _) = self.public.batch(&indices);
        let align_var = Var::constant(align_x.clone());

        // 2. Ensemble logits, from what the wire delivered: each uploaded
        // (decoded) state is loaded into a scratch rebuild and scored.
        let scores: Vec<Tensor> = uploads
            .iter()
            .map(|(k, sd)| {
                let scratch = self.fleet.spec(*k).build(
                    channels,
                    classes,
                    img,
                    split_seed(self.seed, 0xE7_7000 + (round * 31 + k) as u64),
                );
                load_state_dict(scratch.as_ref(), sd)
                    .expect("uploaded state matches device architecture");
                scratch.set_training(false);
                no_grad(|| scratch.forward(&align_var).value_clone())
            })
            .collect();

        // 3. Diversity-weighted consensus, `α_k ∝ n_k (1 + λ d_k)` where
        // `d_k` is device k's mean absolute deviation from the uniform
        // ensemble mean — a device that disagrees with the crowd carries
        // information the crowd lacks (arXiv 2204.12703's weighted
        // consensus, over logits).
        let mut mean = scores[0].clone();
        for s in &scores[1..] {
            mean.add_scaled_inplace(s, 1.0).expect("ensemble logit shapes agree");
        }
        let mean = mean.mul_scalar(1.0 / scores.len() as f32);
        let weights: Vec<f32> = uploads
            .iter()
            .zip(&scores)
            .map(|((k, _), s)| {
                let deviation: f32 =
                    s.data().iter().zip(mean.data()).map(|(a, b)| (a - b).abs()).sum();
                let d = deviation / s.data().len().max(1) as f32;
                self.shards.shard_len(*k).max(1) as f32 * (1.0 + self.cfg.diversity_lambda * d)
            })
            .collect();
        let total: f32 = weights.iter().sum();
        let mut consensus = Tensor::zeros(scores[0].shape());
        for (s, w) in scores.iter().zip(&weights) {
            consensus.add_scaled_inplace(s, w / total).expect("ensemble logit shapes agree");
        }

        // 4. Distill the consensus into the server model.
        digest_logits(
            self.server.as_ref(),
            &DigestConfig {
                inputs: &align_x,
                targets: &consensus,
                epochs: self.cfg.distill_epochs,
                batch_size: self.cfg.batch_size,
                lr: self.cfg.server_lr,
                seed: split_seed(self.seed, 0xE7_4000 + round as u64),
            },
        );

        // 5. The refreshed server knowledge on the transfer subset.
        self.server.set_training(false);
        let teacher = no_grad(|| self.server.forward(&align_var).value_clone());
        self.server.set_training(true);

        // 6. Transfer back into each device architecture (on the fleet —
        // a digest-only job: the `epochs: 0` local pass is a no-op), then
        // downlink; the device keeps the decoded copy.
        let (ids, states): (Vec<usize>, Vec<StateDict>) = uploads.into_iter().unzip();
        let jobs: Vec<FleetJob> = ids
            .iter()
            .zip(states)
            .map(|(&k, snapshot)| FleetJob {
                spec: self.fleet.spec(k),
                snapshot,
                data: &self.empty,
                cfg: LocalTrainConfig { epochs: 0, ..Default::default() },
                pretrain: None,
                digest: Some(DigestConfig {
                    inputs: &align_x,
                    targets: &teacher,
                    epochs: self.cfg.transfer_epochs,
                    batch_size: self.cfg.batch_size,
                    // Raw-logit ℓ1 gradients dwarf cross-entropy's; the
                    // fraction of the base rate is the workspace's digest
                    // idiom (see FedMD).
                    lr: self.cfg.lr * 0.2,
                    seed: split_seed(self.seed, 0xE7_5000 + (round * 31 + k) as u64),
                }),
                rebuild_seed: split_seed(self.seed, 0xE7_6000 + (round * 31 + k) as u64),
            })
            .collect();
        let results = train_local_fleet(&jobs, self.io, ctx.threads());
        drop(jobs);
        for (&k, (_, sd)) in ids.iter().zip(results) {
            load_state_dict(self.fleet.model(k), &ctx.download(k, sd))
                .expect("transfer result matches device architecture");
        }
    }

    fn device_model(&self, k: usize) -> &dyn Module {
        self.fleet.model(k).as_ref()
    }

    fn global_model(&self) -> Option<&dyn Module> {
        Some(self.server.as_ref())
    }

    /// The O(|w_k|) claim: device `k` only ever exchanges its own model,
    /// in both directions.
    fn payload_template(&self, k: usize) -> StateDict {
        self.fleet.template(k)
    }

    fn local_samples(&self, k: usize) -> usize {
        self.cfg.local_epochs * self.shards.shard_len(k)
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

    /// What Fed-ET carries across rounds: the fleet (every device model
    /// that has ever been materialized, plus the registry's monotone
    /// counters) and the server model. `pending` is intra-round scratch; the transfer
    /// subset and all RNG streams are pure functions of `(seed, round)`.
    fn save_state(&self) -> AlgoState {
        let mut state = AlgoState::new();
        self.fleet.save_into(&mut state);
        state.put_dict("server", &state_dict(self.server.as_ref()));
        state
    }

    fn load_state(&mut self, state: &AlgoState) -> Result<(), String> {
        self.fleet.load_from(state)?;
        load_state_dict(self.server.as_ref(), &state.dict("server")?)
            .map_err(|e| format!("server: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecSpec, ErasedSimulation, PayloadCodec, SimCheckpoint, Simulation};
    use fedzkt_data::{DataFamily, Partition, SynthConfig};

    fn setup(sim: SimConfig) -> Simulation<FedEt> {
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
        let (public, _) = SynthConfig {
            family: DataFamily::Cifar100Like,
            img: 8,
            train_n: 64,
            test_n: 8,
            classes: 8,
            seed: 9,
            ..Default::default()
        }
        .generate();
        let shards = Partition::Iid.split(train.labels(), 4, 3, 5).unwrap();
        let zoo = vec![
            ModelSpec::Mlp { hidden: 16 },
            ModelSpec::SmallCnn { base_channels: 2 },
            ModelSpec::LeNet { scale: 0.5, deep: false },
        ];
        let fed = FedEt::new(
            &zoo,
            &train,
            &shards,
            public,
            FedEtConfig {
                local_epochs: 2,
                batch_size: 16,
                lr: 0.05,
                transfer_size: 32,
                distill_epochs: 1,
                transfer_epochs: 1,
                server_lr: 0.02,
                diversity_lambda: 1.0,
                server_model: ModelSpec::SmallCnn { base_channels: 4 },
            },
            &sim,
        );
        Simulation::builder(fed, test, sim).build()
    }

    fn default_sim() -> SimConfig {
        SimConfig { rounds: 2, seed: 1, ..Default::default() }
    }

    #[test]
    fn fedet_learns_above_chance() {
        let mut sim = setup(default_sim());
        let log = sim.run();
        assert_eq!(log.rounds.len(), 2);
        assert!(log.final_accuracy() > 0.3, "accuracy {}", log.final_accuracy());
        assert!(log.rounds[1].global_accuracy.expect("server model evaluated") > 0.0);
    }

    #[test]
    fn communication_is_model_sized_in_both_directions() {
        let mut sim = setup(default_sim());
        let metrics = sim.round(0);
        let expected: u64 = (0..3)
            .map(|k| CodecSpec::Raw.wire_bytes(&sim.algorithm().payload_template(k)) as u64)
            .sum();
        assert_eq!(metrics.upload_bytes, expected);
        assert_eq!(metrics.download_bytes, expected, "both directions carry the device model");
    }

    #[test]
    fn lossy_codec_error_flows_into_training() {
        // The same seed under Raw vs Q8 must diverge: the server ensembles
        // the decoded uploads and the devices keep the decoded downlink.
        let run = |codec: CodecSpec| {
            let mut sim = setup(SimConfig { codec, ..default_sim() });
            sim.round(0);
            state_dict(sim.algorithm_for_eval().device_model(0))
        };
        assert_ne!(run(CodecSpec::Raw), run(CodecSpec::QuantQ8));
    }

    #[test]
    fn transfer_moves_devices_toward_the_server_view() {
        // After a round, every active device must have changed state (local
        // training + transfer both ran).
        let mut sim = setup(default_sim());
        let before: Vec<StateDict> =
            (0..3).map(|k| state_dict(sim.algorithm_for_eval().device_model(k))).collect();
        sim.round(0);
        for (k, b) in before.iter().enumerate() {
            assert_ne!(&state_dict(sim.algorithm_for_eval().device_model(k)), b, "device {k}");
        }
    }

    #[test]
    fn checkpoint_resume_matches_the_uninterrupted_run_bit_for_bit() {
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
    fn lazy_fleet_stays_at_the_active_count_without_eval() {
        let mut sim = setup(SimConfig {
            rounds: 2,
            participation: 0.67,
            seed: 1,
            eval_every: 0,
            ..Default::default()
        });
        sim.round(0);
        let reg = sim.algorithm().registry().expect("fedet exposes its registry");
        assert_eq!(reg.resident(), 0);
        assert_eq!(reg.peak_resident(), 2, "eval off → peak stays at the active count");
    }
}
