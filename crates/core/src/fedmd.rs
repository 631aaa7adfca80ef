//! The FedMD baseline (Li & Wang, 2019) — the representative
//! *data-dependent* heterogeneous-FL algorithm the paper compares against
//! in Table I and Figures 3–4.
//!
//! FedMD also lets every device choose its own architecture, but transfers
//! knowledge through a **public dataset**: each round the active devices
//! share their class scores (logits) on a public subset, the server folds
//! them one device at a time into a running consensus, and each device
//! *digests* the consensus before *revisiting* its private data. The
//! quality of the public dataset is FedMD's Achilles' heel — reproduced
//! here by running it with a similar-distribution public set
//! (`Cifar100Like`) and a different-distribution one (`SvhnLike`).
//!
//! FedMD anchors the workspace's knowledge-transfer family: Fed-ET
//! (`fedzkt_fl::FedEt`) keeps the public-set dependence but distills the
//! device ensemble into a large server-only model with diversity-weighted
//! consensus, and FedGKT (`fedzkt_fl::FedGkt`) drops the public set
//! entirely by splitting each model and exchanging per-sample
//! features/soft labels instead of logits on shared data.
//!
//! Runs under the [`Simulation`](fedzkt_fl::Simulation) driver like the
//! other algorithms: the transfer-learning warm-up happens lazily, per
//! device, the first round a device participates (a straggler that never
//! participates never trains), and the digest/revisit phases execute
//! device-parallel on the [`train_local_fleet`] worker pool.
//!
//! ## Scale model
//!
//! Unlike FedZKT, nothing in a FedMD round touches an inactive device:
//! scoring, digest and revisit all run over the active set, and the
//! consensus accumulates incrementally. The [`DeviceFleet`] (see the
//! "Scale model" section of [`fedzkt_fl::fleet`]) therefore stays at
//! O(active-per-round) resident devices on non-evaluation rounds — only
//! [`prepare_eval`](FederatedAlgorithm::prepare_eval) materializes
//! everyone.

use fedzkt_autograd::Var;
use fedzkt_data::{Corpus, Dataset};
use fedzkt_fl::{
    train_local_fleet, AlgoState, DeviceFleet, DeviceRegistry, DigestConfig, FederatedAlgorithm,
    FleetJob, LocalTrainConfig, RoundContext, ShardStore, SimConfig,
};
use fedzkt_models::ModelSpec;
use fedzkt_nn::{load_state_dict, state_dict, Module, StateDict};
use fedzkt_tensor::{seeded_rng, split_seed, Tensor};
use rand::seq::SliceRandom;

/// Hyperparameters of [`FedMd`]'s update rules. Protocol-level knobs
/// (rounds, participation, seed, threads, evaluation) live in
/// [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedMdConfig {
    /// Warm-up epochs on the public dataset (transfer-learning phase).
    pub public_warmup_epochs: usize,
    /// Warm-up epochs on the private shard after the public phase.
    pub private_warmup_epochs: usize,
    /// Public samples scored per round (the "alignment set").
    pub alignment_size: usize,
    /// Epochs of consensus digestion per round.
    pub digest_epochs: usize,
    /// Epochs of private revisit per round.
    pub revisit_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
}

impl Default for FedMdConfig {
    fn default() -> Self {
        FedMdConfig {
            public_warmup_epochs: 2,
            private_warmup_epochs: 2,
            alignment_size: 128,
            digest_epochs: 2,
            revisit_epochs: 2,
            batch_size: 32,
            lr: 0.01,
        }
    }
}

/// Alignment state produced by `local_update`, consumed by
/// `server_update`.
struct Alignment {
    inputs: Tensor,
    consensus: Tensor,
}

/// A FedMD federation over heterogeneous on-device models and a public
/// dataset.
pub struct FedMd {
    cfg: FedMdConfig,
    seed: u64,
    io: (usize, usize, usize),
    fleet: DeviceFleet<Box<dyn Module>>,
    shards: ShardStore,
    /// Set the first round a device participates.
    warmed_up: Vec<bool>,
    /// Did the warm-up run in the round currently being accounted? The
    /// simulated clock reads `local_samples` after the phases, so the
    /// one-off warm-up compute must be charged to that round.
    warmed_this_round: Vec<bool>,
    public: Dataset,
    pending: Option<Alignment>,
}

impl FedMd {
    /// Build the federation. `public` provides the alignment inputs; its
    /// labels are taken modulo the private class count for the
    /// transfer-learning warm-up (the public task may have more classes,
    /// e.g. CIFAR-100 vs CIFAR-10). `sim` supplies the run seed.
    ///
    /// # Panics
    /// Panics when `zoo`/`shards` lengths differ or are empty, or when the
    /// public set's image geometry differs from the private one.
    pub fn new(
        zoo: &[ModelSpec],
        train: &Corpus,
        shards: &[Vec<usize>],
        public: Dataset,
        cfg: FedMdConfig,
        sim: &SimConfig,
    ) -> Self {
        assert_eq!(zoo.len(), shards.len(), "zoo/shards length mismatch");
        assert_eq!(
            (public.channels(), public.img_size()),
            (train.channels(), train.img_size()),
            "public/private image geometry mismatch"
        );
        let (channels, classes, img) = (train.channels(), train.num_classes(), train.img_size());
        // Re-label the public set into the private class space.
        let public = Dataset::new(
            public.images().clone(),
            public.labels().iter().map(|&l| l % classes).collect(),
            classes,
        );
        let seed = sim.seed;
        let fleet = DeviceFleet::new(zoo, move |k, spec| {
            spec.build(channels, classes, img, split_seed(seed, 200 + k as u64))
        });
        FedMd {
            cfg,
            seed,
            io: (channels, classes, img),
            fleet,
            shards: ShardStore::new(train, shards),
            warmed_up: vec![false; zoo.len()],
            warmed_this_round: vec![false; zoo.len()],
            public,
            pending: None,
        }
    }

    /// The re-labelled public dataset.
    pub fn public(&self) -> &Dataset {
        &self.public
    }

    /// Has device `k` gone through its transfer-learning warm-up yet?
    pub fn warmed_up(&self, k: usize) -> bool {
        self.warmed_up[k]
    }

    /// Transfer-learning warm-up for the not-yet-warmed devices of
    /// `active`: public data, then private data, both phases in **one**
    /// device-parallel fleet dispatch (the public pass rides as the job's
    /// `pretrain`, so each cold device pays the snapshot→rebuild→load
    /// round-trip once). Lazy so stragglers that never participate stay
    /// untouched.
    fn warmup(&mut self, active: &[usize], threads: usize) {
        let cold: Vec<usize> = active.iter().copied().filter(|&k| !self.warmed_up[k]).collect();
        if cold.is_empty() {
            return;
        }
        let staged = self.shards.stage(&cold);
        let jobs: Vec<FleetJob> = cold
            .iter()
            .zip(&staged)
            .map(|(&k, data)| {
                let phase_cfg = |epochs: usize, seed_base: u64| LocalTrainConfig {
                    epochs,
                    batch_size: self.cfg.batch_size,
                    lr: self.cfg.lr,
                    momentum: 0.9,
                    seed: split_seed(self.seed, seed_base + k as u64),
                    ..Default::default()
                };
                FleetJob {
                    spec: self.fleet.spec(k),
                    snapshot: state_dict(self.fleet.model(k)),
                    data,
                    cfg: phase_cfg(self.cfg.private_warmup_epochs, 400),
                    pretrain: Some((&self.public, phase_cfg(self.cfg.public_warmup_epochs, 300))),
                    digest: None,
                    rebuild_seed: split_seed(self.seed, 0xFD_0000 + k as u64),
                }
            })
            .collect();
        let results = train_local_fleet(&jobs, self.io, threads);
        drop(jobs);
        for (&k, (_, sd)) in cold.iter().zip(results) {
            load_state_dict(self.fleet.model(k), &sd)
                .expect("warmup result matches device architecture");
        }
        for &k in &cold {
            self.warmed_up[k] = true;
            self.warmed_this_round[k] = true;
        }
    }

    /// Size of the round's alignment subset.
    fn alignment_len(&self) -> usize {
        self.cfg.alignment_size.min(self.public.len())
    }

    /// Wrap a logit tensor as the single-tensor [`StateDict`] the wire
    /// codecs operate on.
    fn logit_payload(scores: Tensor) -> StateDict {
        StateDict { params: vec![scores], buffers: Vec::new() }
    }
}

impl FederatedAlgorithm for FedMd {
    fn devices(&self) -> usize {
        self.fleet.devices()
    }

    /// FedMD steps 1–3: warm up first-time participants, sample the
    /// round's alignment subset, have every active device score it, and
    /// fold the scores into the consensus one device at a time.
    fn local_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) -> f32 {
        self.warmed_this_round.iter_mut().for_each(|w| *w = false);
        for &k in active {
            self.fleet.ensure_resident(k);
        }
        self.warmup(active, ctx.threads());

        // 1. Server samples the alignment subset of the public data.
        let mut rng = seeded_rng(split_seed(self.seed, 500 + round as u64));
        let mut indices: Vec<usize> = (0..self.public.len()).collect();
        indices.shuffle(&mut rng);
        indices.truncate(self.alignment_len());
        let (align_x, _) = self.public.batch(&indices);
        let align_var = Var::constant(align_x.clone());

        // 2–3. Communicate and aggregate, streamed: each active device in
        // turn scores the subset, ships its logits over the wire, and the
        // server folds the *decoded* copy straight into the running
        // consensus (lossy-codec error enters it; no per-device logit set
        // is ever held). The fold accumulates in active order and divides
        // once at the end — the same op order as a batch average.
        let mut consensus: Option<Tensor> = None;
        for &k in active {
            let model = self.fleet.model(k);
            model.set_training(false);
            let scores = fedzkt_autograd::no_grad(|| model.forward(&align_var).value_clone());
            model.set_training(true);
            let decoded = ctx.upload(k, Self::logit_payload(scores));
            let decoded = decoded.params.into_iter().next().expect("one logit tensor");
            match &mut consensus {
                None => consensus = Some(decoded),
                Some(acc) => {
                    acc.add_scaled_inplace(&decoded, 1.0).expect("logit shapes");
                }
            }
        }
        let consensus =
            consensus.expect("at least one active device").mul_scalar(1.0 / active.len() as f32);
        self.pending = Some(Alignment { inputs: align_x, consensus });

        // The loss-bearing device phase (revisit) runs after aggregation;
        // `server_update` reports it through the context.
        0.0
    }

    /// FedMD steps 4–5: broadcast the consensus, then each active device
    /// digests it and revisits its private data — both phases run
    /// device-parallel on the fleet.
    fn server_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) {
        let Alignment { inputs, consensus } =
            self.pending.take().expect("local_update ran this round");
        // The consensus broadcast goes through the wire once; every active
        // device digests the decoded copy and is charged its wire size.
        let decoded = ctx.broadcast(active, Self::logit_payload(consensus));
        let consensus = decoded.params.into_iter().next().expect("one consensus tensor");
        let staged = self.shards.stage(active);
        let jobs: Vec<FleetJob> = active
            .iter()
            .zip(&staged)
            .map(|(&k, data)| FleetJob {
                spec: self.fleet.spec(k),
                snapshot: state_dict(self.fleet.model(k)),
                data,
                cfg: LocalTrainConfig {
                    epochs: self.cfg.revisit_epochs,
                    batch_size: self.cfg.batch_size,
                    lr: self.cfg.lr,
                    momentum: 0.9,
                    seed: split_seed(self.seed, 700 + (round * 31 + k) as u64),
                    ..Default::default()
                },
                pretrain: None,
                digest: Some(DigestConfig {
                    inputs: &inputs,
                    targets: &consensus,
                    epochs: self.cfg.digest_epochs,
                    batch_size: self.cfg.batch_size,
                    // The digest step matches raw logits with an ℓ1
                    // loss, whose gradients are much larger than
                    // cross-entropy's; a fraction of the base learning
                    // rate keeps it from erasing local features.
                    lr: self.cfg.lr * 0.2,
                    seed: split_seed(self.seed, 600 + (round * 31 + k) as u64),
                }),
                rebuild_seed: split_seed(self.seed, 0xB11D_0000 + (round * 31 + k) as u64),
            })
            .collect();
        let results = train_local_fleet(&jobs, self.io, ctx.threads());
        drop(jobs);
        drop(staged);
        let mut loss_sum = 0.0f32;
        for (&k, (loss, sd)) in active.iter().zip(results) {
            loss_sum += loss;
            load_state_dict(self.fleet.model(k), &sd)
                .expect("fleet result matches device architecture");
        }
        ctx.set_train_loss(loss_sum / active.len().max(1) as f32);
    }

    fn device_model(&self, k: usize) -> &dyn Module {
        self.fleet.model(k).as_ref()
    }

    /// FedMD's payload is logit-shaped, not model-shaped: the alignment
    /// subset's class scores. (No device model needed — nothing is
    /// materialized to answer this.)
    fn payload_template(&self, _k: usize) -> StateDict {
        Self::logit_payload(Tensor::zeros(&[self.alignment_len(), self.public.num_classes()]))
    }

    /// Digest over the alignment set plus the private revisit — and, in a
    /// device's first participating round, the one-off transfer-learning
    /// warm-up it just ran (public + private epochs).
    fn local_samples(&self, k: usize) -> usize {
        let shard = self.shards.shard_len(k);
        let warmup = if self.warmed_this_round[k] {
            self.cfg.public_warmup_epochs * self.public.len()
                + self.cfg.private_warmup_epochs * shard
        } else {
            0
        };
        warmup + self.cfg.revisit_epochs * shard + self.cfg.digest_epochs * self.alignment_len()
    }

    fn construction_seed(&self) -> Option<u64> {
        Some(self.seed)
    }

    fn registry(&self) -> Option<&DeviceRegistry> {
        Some(self.fleet.registry())
    }

    /// Evaluation borrows every device model; nothing else in a FedMD
    /// round does, so this is the only place the fleet goes beyond
    /// O(active) resident devices.
    fn prepare_eval(&mut self) {
        self.fleet.ensure_all_resident();
    }

    fn end_round(&mut self, _round: usize) {
        self.fleet.release_all();
    }

    /// What FedMD carries across rounds: the warm-up ledger and the fleet
    /// (every device model that has ever been materialized, plus the
    /// registry's monotone counters). `pending`/`warmed_this_round` are
    /// intra-round scratch and never survive to a checkpoint boundary; the
    /// alignment subset and consensus fold are pure functions of
    /// `(seed, round)`.
    fn save_state(&self) -> AlgoState {
        let mut state = AlgoState::new();
        state.put_words("warmed_up", self.warmed_up.iter().map(|&w| w as u64).collect());
        self.fleet.save_into(&mut state);
        state
    }

    fn load_state(&mut self, state: &AlgoState) -> Result<(), String> {
        self.fleet.load_from(state)?;
        let warmed = state.words("warmed_up")?;
        if warmed.len() != self.fleet.devices() {
            return Err(format!(
                "warm-up ledger holds {} devices, fleet has {}",
                warmed.len(),
                self.fleet.devices()
            ));
        }
        self.warmed_up = warmed.iter().map(|&w| w != 0).collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_data::{DataFamily, Partition, SynthConfig};
    use fedzkt_fl::{ErasedSimulation, Simulation};

    fn setup(public_family: DataFamily) -> Simulation<FedMd> {
        setup_with(public_family, SimConfig { rounds: 2, seed: 1, ..Default::default() })
    }

    fn setup_with(public_family: DataFamily, sim: SimConfig) -> Simulation<FedMd> {
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
            family: public_family,
            img: 8,
            train_n: 64,
            test_n: 8,
            classes: if public_family == DataFamily::Cifar100Like { 8 } else { 4 },
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
        let fed = FedMd::new(
            &zoo,
            &train,
            &shards,
            public,
            FedMdConfig {
                public_warmup_epochs: 1,
                private_warmup_epochs: 1,
                alignment_size: 32,
                digest_epochs: 1,
                revisit_epochs: 1,
                batch_size: 16,
                lr: 0.05,
            },
            &sim,
        );
        Simulation::builder(fed, test, sim).build()
    }

    #[test]
    fn fedmd_learns_above_chance() {
        let mut sim = setup(DataFamily::Cifar100Like);
        let log = sim.run();
        assert_eq!(log.rounds.len(), 2);
        assert!(log.final_accuracy() > 0.3, "accuracy {}", log.final_accuracy());
    }

    #[test]
    fn public_labels_are_remapped() {
        let sim = setup(DataFamily::Cifar100Like);
        assert!(sim.algorithm().public().labels().iter().all(|&l| l < 4));
    }

    #[test]
    fn communication_is_logit_sized_not_model_sized() {
        use fedzkt_fl::{CodecSpec, PayloadCodec};
        let mut sim = setup(DataFamily::Cifar100Like);
        let metrics = sim.round(0);
        // 3 devices × the raw wire size of a 32-sample × 4-class logit
        // payload (4 bytes a value + the self-describing header).
        let wire = CodecSpec::Raw.wire_bytes(&sim.algorithm().payload_template(0)) as u64;
        assert_eq!(wire, 19 + 32 * 4 * 4, "one [32,4] tensor behind a 19-byte header");
        assert_eq!(metrics.upload_bytes, 3 * wire);
        assert_eq!(metrics.download_bytes, 3 * wire);
    }

    #[test]
    fn warmup_is_lazy_and_runs_once() {
        let mut sim = setup(DataFamily::Cifar100Like);
        assert!((0..3).all(|k| !sim.algorithm().warmed_up(k)));
        sim.round(0);
        assert!((0..3).all(|k| sim.algorithm().warmed_up(k)));
        // A second round with everyone already warm: models keep training
        // (no panic, no re-warmup divergence across identical runs).
        sim.round(1);
    }

    #[test]
    fn straggler_is_never_warmed_up() {
        // participation 0.34 of 3 devices → exactly 1 active per round.
        let mut sim = setup_with(
            DataFamily::Cifar100Like,
            SimConfig { rounds: 1, participation: 0.34, seed: 1, ..Default::default() },
        );
        let metrics = sim.round(0);
        assert_eq!(metrics.active_devices.len(), 1);
        for k in 0..3 {
            assert_eq!(
                sim.algorithm().warmed_up(k),
                metrics.active_devices.contains(&k),
                "device {k}"
            );
        }
    }

    #[test]
    fn warmup_compute_is_charged_to_the_first_round() {
        use fedzkt_fl::FederatedAlgorithm as _;
        let mut sim = setup(DataFamily::Cifar100Like);
        sim.round(0);
        // Warm-up just ran: round-0 accounting includes it.
        let first = sim.algorithm().local_samples(0);
        sim.round(1);
        let steady = sim.algorithm().local_samples(0);
        // Steady state is shard×1 revisit epoch + 32×1 digest epoch; the
        // first round adds public(64)×1 + shard×1 of warm-up. Eliminating
        // the shard size: first = 2·steady + 64 − 32.
        assert!(first > steady, "warm-up compute must be charged: {first} vs {steady}");
        assert_eq!(first, 2 * steady + 32);
    }

    #[test]
    fn svhn_public_also_runs() {
        let mut sim = setup(DataFamily::SvhnLike);
        let log = sim.run();
        assert!(log.final_accuracy().is_finite());
    }

    #[test]
    fn checkpoint_resume_matches_the_uninterrupted_run_bit_for_bit() {
        // Partial participation so a straggler's warm-up ledger has to
        // survive the checkpoint boundary.
        let sim_cfg = SimConfig { rounds: 2, participation: 0.67, seed: 1, ..Default::default() };
        let reference = setup_with(DataFamily::Cifar100Like, sim_cfg).run().clone();
        let mut first = setup_with(DataFamily::Cifar100Like, sim_cfg);
        first.round(0);
        // Through the serialized form, as a real kill/restart would go.
        let ck = fedzkt_fl::SimCheckpoint::from_json(&first.checkpoint().to_json()).unwrap();
        drop(first);
        let mut resumed = setup_with(DataFamily::Cifar100Like, sim_cfg);
        resumed.resume_from(&ck).expect("resume");
        let log = resumed.run().clone();
        assert_eq!(log.to_json(), reference.to_json());
    }

    #[test]
    fn lazy_fleet_stays_at_the_active_count_without_eval() {
        // 2 of 3 active, evaluation off (and round 0 is not the final
        // round, which always evaluates): the whole round runs at
        // O(active) resident devices and ends at zero.
        let mut sim = setup_with(
            DataFamily::Cifar100Like,
            SimConfig {
                rounds: 2,
                participation: 0.67,
                seed: 1,
                eval_every: 0,
                ..Default::default()
            },
        );
        sim.round(0);
        let reg = sim.algorithm().registry().expect("fedmd exposes its registry");
        assert_eq!(reg.resident(), 0);
        assert_eq!(reg.peak_resident(), 2, "eval off → peak stays at the active count");
    }
}
