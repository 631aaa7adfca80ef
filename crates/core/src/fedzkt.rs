//! The FedZKT orchestrator (Algorithms 1–3 of the paper), as a
//! [`FederatedAlgorithm`] run by the [`Simulation`](fedzkt_fl::Simulation)
//! driver.
//!
//! ## Scale model
//!
//! Devices live in a [`DeviceFleet`] (see the "Scale model" section of
//! [`fedzkt_fl::fleet`]), each materialized by its first read in a round.
//! The zero-shot distillation game reads **every** device model as a
//! teacher (the ensemble of Eq. 2), so the server phase materializes the
//! stragglers too: FedZKT's in-round peak is inherently O(fleet), and only
//! the *between-rounds* footprint is O(1). A game over fewer teachers
//! would lower the peak by reading fewer devices, with no residency call
//! to change.

use crate::{FedZktConfig, GradNormProbe};
use fedzkt_autograd::loss::kl_div_probs;
use fedzkt_autograd::{frozen_params, no_grad, Var};
use fedzkt_data::Corpus;
use fedzkt_fl::{
    train_local_fleet, AlgoState, DeviceFleet, DeviceRegistry, FederatedAlgorithm, FleetJob,
    LocalTrainConfig, RoundContext, ShardStore, SimConfig,
};
use fedzkt_models::{Generator, ModelSpec};
use fedzkt_nn::{
    load_state_dict, state_dict, Adam, AdamConfig, Module, MultiStepLr, Optimizer, Sgd,
    SgdConfig, StateDict,
};
use fedzkt_tensor::{seeded_rng, split_seed, Prng, Tensor};

/// Every device model, in device order, each materialized on its first
/// read. Borrows only the fleet, so the caller may hold other fields
/// mutably.
fn models(fleet: &DeviceFleet<Box<dyn Module>>) -> impl Iterator<Item = &dyn Module> {
    (0..fleet.devices()).map(|k| fleet.model(k).as_ref())
}

/// The FedZKT federated-learning algorithm.
///
/// See the crate docs for the protocol; construct with [`FedZkt::new`] and
/// run it under a [`Simulation`](fedzkt_fl::Simulation):
///
/// ```no_run
/// # use fedzkt_core::{FedZkt, FedZktConfig};
/// # use fedzkt_data::{DataFamily, Partition, SynthConfig};
/// # use fedzkt_fl::{ErasedSimulation, SimConfig, Simulation};
/// # use fedzkt_models::ModelSpec;
/// # let (train, test) = SynthConfig { family: DataFamily::MnistLike, ..Default::default() }.generate_corpus();
/// # let shards = Partition::Iid.split(train.labels(), train.num_classes(), 5, 1).unwrap();
/// # let zoo = ModelSpec::assign_round_robin(&ModelSpec::paper_zoo_small(), 5);
/// let sim_cfg = SimConfig::default();
/// let fed = FedZkt::new(&zoo, &train, &shards, FedZktConfig::default(), &sim_cfg);
/// let mut sim = Simulation::builder(fed, test, sim_cfg).build();
/// let log = sim.run();
/// ```
pub struct FedZkt {
    cfg: FedZktConfig,
    seed: u64,
    /// Data geometry `(channels, classes, img_size)`; worker threads rebuild
    /// device models against it during the parallel device update.
    io: (usize, usize, usize),
    /// One device per zoo entry, each with an architecture chosen
    /// independently of its peers (the paper's core premise).
    fleet: DeviceFleet<Box<dyn Module>>,
    shards: ShardStore,
    global: Box<dyn Module>,
    generator: Generator,
    generator_opt: Adam,
    probe: GradNormProbe,
    rng: Prng,
}

impl FedZkt {
    /// Build the federation.
    ///
    /// * `zoo[i]` — architecture of device `i` (heterogeneous by design);
    /// * `shards[i]` — index set of device `i`'s private data in `train`;
    /// * `sim` — the protocol config (supplies the run seed).
    ///
    /// # Panics
    /// Panics when `zoo`/`shards` lengths differ or are empty.
    pub fn new(
        zoo: &[ModelSpec],
        train: &Corpus,
        shards: &[Vec<usize>],
        cfg: FedZktConfig,
        sim: &SimConfig,
    ) -> Self {
        assert_eq!(zoo.len(), shards.len(), "zoo/shards length mismatch");
        let seed = sim.seed;
        let (channels, classes, img) = (train.channels(), train.num_classes(), train.img_size());
        // Footnote 1 of Algorithm 1: all models Glorot-initialised; the
        // same initialisation is not required across devices, so each
        // device gets its own stream.
        let fleet = DeviceFleet::new(zoo, move |k, spec| {
            spec.build(channels, classes, img, split_seed(seed, 100 + k as u64))
        });
        let global = cfg.global_model.build(channels, classes, img, split_seed(seed, 7));
        let generator = cfg.generator.build(channels, img, split_seed(seed, 8));
        let generator_opt = Adam::new(
            generator.params(),
            AdamConfig { lr: cfg.generator_lr, ..Default::default() },
        );
        FedZkt {
            cfg,
            seed,
            io: (channels, classes, img),
            fleet,
            shards: ShardStore::new(train, shards),
            global,
            generator,
            generator_opt,
            probe: GradNormProbe::new(),
            rng: seeded_rng(split_seed(seed, 10)),
        }
    }

    /// The architecture of device `k`.
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn device_spec(&self, k: usize) -> ModelSpec {
        self.fleet.spec(k)
    }

    /// The server-side generator `G`.
    pub fn generator(&self) -> &Generator {
        &self.generator
    }

    /// The Figure-2 gradient-norm probe (populated when
    /// `cfg.probe_grad_norms` is set).
    pub fn probe(&self) -> &GradNormProbe {
        &self.probe
    }

    /// Algorithm 3: the zero-shot distillation game followed by the
    /// bidirectional transfer. Teachers run in eval mode (their running
    /// statistics must not absorb synthetic data).
    fn distillation_game(&mut self, active: &[usize]) {
        let n_d = self.cfg.distill_iters;
        if n_d == 0 {
            return;
        }
        let gen_schedule = MultiStepLr::paper_schedule(self.cfg.generator_lr, n_d);
        let server_schedule = MultiStepLr::paper_schedule(self.cfg.server_lr, n_d);
        let global_opt = Sgd::new(
            self.global.params(),
            SgdConfig { lr: self.cfg.server_lr, momentum: 0.9, weight_decay: 0.0 },
        );
        for m in models(&self.fleet) {
            m.set_training(false);
        }
        self.global.set_training(true);
        self.generator.set_training(true);

        // ---- Knowledge transfer: devices -> global model (Eq. 2) ----
        for iter in 0..n_d {
            gen_schedule.apply(&self.generator_opt, iter);
            server_schedule.apply(&global_opt, iter);

            // Generator step: maximise disagreement. Gradients flow through
            // the student AND the teachers into x = G(z), then into θ; the
            // student's and teachers' own parameters are frozen for the
            // pass, so their gradients are never computed and their
            // optimizers have nothing to discard. The block ends the
            // step's graph before the global step records its own.
            {
                self.generator_opt.zero_grad();
                let z =
                    Var::constant(self.generator.sample_z(self.cfg.distill_batch, &mut self.rng));
                let x = self.generator.forward(&z);
                let (student, teacher_logits) = frozen_params(|| {
                    let student = self.global.forward(&x);
                    let teachers: Vec<Var> = models(&self.fleet).map(|m| m.forward(&x)).collect();
                    (student, teachers)
                });
                let teacher_refs: Vec<&Var> = teacher_logits.iter().collect();
                let l_g = self.cfg.loss.eval(&student, &teacher_refs).neg();
                l_g.backward();
                self.generator_opt.step();
            }

            // Global-model step: minimise disagreement on a fresh batch.
            // x is fixed here, so the generator and teachers run without
            // tape and the teacher signal enters as constants.
            global_opt.zero_grad();
            let z = Var::constant(self.generator.sample_z(self.cfg.distill_batch, &mut self.rng));
            let (x, teacher_logits) = no_grad(|| {
                let x = self.generator.forward(&z);
                let t: Vec<Tensor> =
                    models(&self.fleet).map(|m| m.forward(&x).value_clone()).collect();
                (x.value_clone(), t)
            });
            let x = Var::constant(x);
            let student = self.global.forward(&x);
            let teacher_vars: Vec<Var> = teacher_logits.into_iter().map(Var::constant).collect();
            let teacher_refs: Vec<&Var> = teacher_vars.iter().collect();
            let l_s = self.cfg.loss.eval(&student, &teacher_refs);
            l_s.backward();
            global_opt.step();
        }

        // ---- Knowledge transfer: global model -> on-device models (Eq. 8) ----
        // The well-trained generator is reused; the KL loss distills the
        // (fixed) global model into each active device's architecture.
        self.global.set_training(false);
        // Device models distill in train mode, as in the data-free
        // distillation literature the paper builds on: batch statistics of
        // the generated batch normalise the student's activations while it
        // absorbs the central knowledge. (The subsequent DeviceUpdate on
        // real data re-estimates the running statistics.)
        let transfer_schedule =
            MultiStepLr::paper_schedule(self.cfg.transfer_lr, self.cfg.transfer_iters.max(1));
        let device_opts: Vec<(usize, Sgd)> = active
            .iter()
            .map(|&k| {
                self.fleet.model(k).set_training(true);
                (
                    k,
                    Sgd::new(
                        self.fleet.model(k).params(),
                        SgdConfig { lr: self.cfg.transfer_lr, momentum: 0.9, weight_decay: 0.0 },
                    ),
                )
            })
            .collect();
        // Ablation: optionally replace the trained generator with a fresh
        // random one for this phase (cfg.fresh_generator_for_transfer).
        let fresh_generator = self.cfg.fresh_generator_for_transfer.then(|| {
            self.cfg.generator.build(self.io.0, self.io.2, split_seed(self.seed, 0xF4E5))
        });
        let transfer_generator: &Generator = fresh_generator.as_ref().unwrap_or(&self.generator);
        for iter in 0..self.cfg.transfer_iters {
            let z =
                Var::constant(transfer_generator.sample_z(self.cfg.distill_batch, &mut self.rng));
            // Tape-free teacher side of Eq. 8; the per-device student steps
            // below carry gradients.
            let (x, global_probs) = no_grad(|| {
                let x = transfer_generator.forward(&z);
                let p = self.global.forward(&x).softmax().value_clone();
                (x.value_clone(), p)
            });
            let x = Var::constant(x);
            let teacher_probs = Var::constant(global_probs);
            for (k, opt) in &device_opts {
                transfer_schedule.apply(opt, iter);
                opt.zero_grad();
                let student_probs = self.fleet.model(*k).forward(&x).softmax();
                // Eq. 8 with KL loss: minimise KL(F ‖ f'_k) over f'_k.
                let loss = kl_div_probs(&teacher_probs, &student_probs);
                loss.backward();
                opt.step();
            }
        }
        self.global.set_training(true);
        for m in models(&self.fleet) {
            m.set_training(true);
        }
    }
}

impl FederatedAlgorithm for FedZkt {
    fn devices(&self) -> usize {
        self.fleet.devices()
    }

    /// On-device update (Algorithm 2). Devices are independent (the
    /// paper's premise), so the active set trains as a fleet on worker
    /// threads: each worker rebuilds its device's model from a snapshot
    /// (the tape is thread-local), trains on the device's own `split_seed`
    /// stream, and results are merged back in device order — bit-identical
    /// for any thread count.
    fn local_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) -> f32 {
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
                    batch_size: self.cfg.device_batch,
                    lr: self.cfg.device_lr,
                    momentum: self.cfg.device_momentum,
                    weight_decay: 0.0,
                    prox_mu: self.cfg.prox_mu,
                    seed: split_seed(self.seed, (round * 1009 + k) as u64),
                },
                pretrain: None,
                digest: None,
                rebuild_seed: split_seed(self.seed, 0xB11D_0000 + (round * 1009 + k) as u64),
            })
            .collect();
        let results = train_local_fleet(&jobs, self.io, ctx.threads());
        drop(jobs);
        drop(staged);
        let mut loss_sum = 0.0f32;
        for (&k, (loss, sd)) in active.iter().zip(results) {
            loss_sum += loss;
            // Upload ŵ_k: the device's own (small) parameters only, pushed
            // through the round's wire codec — the server distills from
            // what it *received*, so lossy-codec error reaches the game
            // (a lossless codec receives the fleet result verbatim).
            load_state_dict(self.fleet.model(k), &ctx.upload(k, sd))
                .expect("fleet result matches device architecture");
        }
        loss_sum / active.len().max(1) as f32
    }

    /// Server update (Algorithm 3) and the transfer of `w_k` back to the
    /// active devices (Algorithm 1, line 12).
    fn server_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) {
        self.distillation_game(active);

        // Charge the game's compute to the simulated clock: the generator
        // and student each see one generated batch per distillation
        // iteration, plus one per transfer iteration (Eq. 8).
        let server_batches = 2 * self.cfg.distill_iters + self.cfg.transfer_iters;
        let server_samples = (server_batches * self.cfg.distill_batch) as f64;
        ctx.add_server_seconds(server_samples / self.cfg.server_samples_per_sec as f64);

        // Figure-2 probe: measured after the adversarial game so it sees
        // the current F / f_ens disagreement landscape.
        if self.cfg.probe_grad_norms {
            // Dedicated RNG stream: probing must not shift the training
            // run's random sequence.
            let mut probe_rng = seeded_rng(split_seed(self.seed, 0xF160 + round as u64));
            let z = self.generator.sample_z(self.cfg.distill_batch.min(16), &mut probe_rng);
            let x = no_grad(|| self.generator.forward(&Var::constant(z))).value_clone();
            let teachers: Vec<&dyn Module> = models(&self.fleet).collect();
            self.probe.measure(round + 1, self.global.as_ref(), &teachers, &x);
        }

        // Transfer w_k back (Algorithm 1, line 12): each active device
        // receives its own updated model over the wire, and keeps the
        // *decoded* state — under a lossy codec the device trains next
        // round from the quantized/sparsified transfer it actually got.
        for &k in active {
            let model = self.fleet.model(k).as_ref();
            load_state_dict(model, &ctx.download(k, state_dict(model)))
                .expect("wire round-trip preserves the device architecture");
        }
    }

    fn device_model(&self, k: usize) -> &dyn Module {
        self.fleet.model(k).as_ref()
    }

    fn global_model(&self) -> Option<&dyn Module> {
        Some(self.global.as_ref())
    }

    /// The O(|w_k|) claim: device `k` only ever exchanges its own model.
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

    fn end_round(&mut self, _round: usize) {
        self.fleet.release_all();
    }

    /// Everything Algorithms 1–3 mutate across rounds: the global model,
    /// the generator and its Adam moments, the shared distillation RNG
    /// cursor, and the fleet (every device model that has ever been
    /// materialized, plus the registry's monotone counters). The
    /// Figure-2 probe is a diagnostic side channel and is deliberately
    /// not checkpointed: its records never feed back into training or
    /// the `RunLog`.
    fn save_state(&self) -> AlgoState {
        let mut state = AlgoState::new();
        state.put_dict("global", &state_dict(self.global.as_ref()));
        state.put_dict("generator", &state_dict(&self.generator));
        let (t, moments) = self.generator_opt.export_state();
        let mut mask = Vec::with_capacity(moments.len());
        let mut packed = StateDict { params: Vec::new(), buffers: Vec::new() };
        for entry in moments {
            match entry {
                Some((m, v)) => {
                    mask.push(1);
                    packed.params.push(m);
                    packed.params.push(v);
                }
                None => mask.push(0),
            }
        }
        state.put_words("adam", vec![t]);
        state.put_words("adam_mask", mask);
        state.put_dict("adam_moments", &packed);
        state.put_words("rng", self.rng.state().to_vec());
        self.fleet.save_into(&mut state);
        state
    }

    fn load_state(&mut self, state: &AlgoState) -> Result<(), String> {
        load_state_dict(self.global.as_ref(), &state.dict("global")?)
            .map_err(|e| format!("global model: {e}"))?;
        load_state_dict(&self.generator, &state.dict("generator")?)
            .map_err(|e| format!("generator: {e}"))?;
        let t = state.words("adam")?.first().copied().ok_or("empty \"adam\" entry")?;
        let mask = state.words("adam_mask")?;
        let mut packed = state.dict("adam_moments")?.params.into_iter();
        let mut moments = Vec::with_capacity(mask.len());
        for &m in mask {
            moments.push(if m != 0 {
                match (packed.next(), packed.next()) {
                    (Some(first), Some(second)) => Some((first, second)),
                    _ => return Err("truncated \"adam_moments\"".into()),
                }
            } else {
                None
            });
        }
        self.generator_opt
            .import_state(t, moments)
            .map_err(|e| format!("generator optimizer: {e}"))?;
        let rng: [u64; 4] = state
            .words("rng")?
            .try_into()
            .map_err(|_| "\"rng\" must hold 4 words".to_string())?;
        if rng.iter().all(|&w| w == 0) {
            return Err("all-zero RNG state".into());
        }
        self.rng = Prng::from_state(rng);
        self.fleet.load_from(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_autograd::DistillLoss;
    use fedzkt_data::{DataFamily, Partition, SynthConfig};
    use fedzkt_fl::{ErasedSimulation, Simulation};
    use fedzkt_models::GeneratorSpec;

    fn tiny_setup(cfg: FedZktConfig, sim: SimConfig) -> Simulation<FedZkt> {
        let (train, test) = SynthConfig {
            family: DataFamily::MnistLike,
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
        let fed = FedZkt::new(&zoo, &train, &shards, cfg, &sim);
        Simulation::builder(fed, test, sim).build()
    }

    fn tiny_cfg() -> FedZktConfig {
        FedZktConfig {
            local_epochs: 2,
            distill_iters: 4,
            transfer_iters: 4,
            device_batch: 16,
            distill_batch: 8,
            device_lr: 0.05,
            generator: GeneratorSpec { z_dim: 16, ngf: 4 },
            global_model: ModelSpec::SmallCnn { base_channels: 4 },
            ..Default::default()
        }
    }

    fn tiny_sim() -> SimConfig {
        SimConfig { rounds: 2, seed: 1, ..Default::default() }
    }

    #[test]
    fn runs_heterogeneous_round_and_improves() {
        let mut sim = tiny_setup(tiny_cfg(), SimConfig { rounds: 3, ..tiny_sim() });
        let log = sim.run();
        assert_eq!(log.rounds.len(), 3);
        // Above-chance (0.25 for 4 classes) after a few rounds.
        assert!(log.final_accuracy() > 0.3, "accuracy {}", log.final_accuracy());
        assert!(log.rounds.iter().all(|r| r.avg_device_accuracy.is_finite()));
    }

    #[test]
    fn probe_collects_when_enabled() {
        let mut sim = tiny_setup(
            FedZktConfig { probe_grad_norms: true, ..tiny_cfg() },
            tiny_sim(),
        );
        sim.run();
        let probe = sim.algorithm().probe();
        assert_eq!(probe.records().len(), 2);
        assert!(probe.records().iter().all(|r| r.kl >= 0.0 && r.sl >= 0.0));
    }

    #[test]
    fn all_three_losses_run() {
        for loss in [DistillLoss::Kl, DistillLoss::LogitL1, DistillLoss::Sl] {
            let mut sim =
                tiny_setup(FedZktConfig { loss, ..tiny_cfg() }, SimConfig { rounds: 1, ..tiny_sim() });
            let log = sim.run();
            assert!(log.final_accuracy().is_finite(), "{loss} produced NaN");
        }
    }

    #[test]
    fn zero_distill_iters_degenerates_to_local_training() {
        let mut sim = tiny_setup(
            FedZktConfig { distill_iters: 0, transfer_iters: 0, ..tiny_cfg() },
            SimConfig { rounds: 1, ..tiny_sim() },
        );
        let log = sim.run();
        assert_eq!(log.rounds.len(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = tiny_setup(tiny_cfg(), SimConfig { rounds: 1, ..tiny_sim() });
            sim.run().final_accuracy()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpoint_resume_matches_the_uninterrupted_run_bit_for_bit() {
        let sim_cfg = SimConfig { participation: 0.67, ..tiny_sim() };
        let reference = tiny_setup(tiny_cfg(), sim_cfg).run().clone();
        let mut first = tiny_setup(tiny_cfg(), sim_cfg);
        first.round(0);
        // Through the serialized form, as a real kill/restart would go.
        let ck = fedzkt_fl::SimCheckpoint::from_json(&first.checkpoint().to_json()).unwrap();
        drop(first);
        let mut resumed = tiny_setup(tiny_cfg(), sim_cfg);
        resumed.resume_from(&ck).expect("resume");
        let log = resumed.run().clone();
        assert_eq!(log.to_json(), reference.to_json());
    }

    #[test]
    fn lazy_fleet_releases_between_rounds() {
        let sim_cfg = SimConfig {
            rounds: 2,
            participation: 0.67,
            seed: 1,
            eval_every: 0,
            ..Default::default()
        };
        let mut sim = tiny_setup(tiny_cfg(), sim_cfg);
        sim.round(0);
        let reg = sim.algorithm().registry().expect("fedzkt exposes its registry");
        assert_eq!(reg.resident(), 0, "everything drops back to summaries at end of round");
        // The game's teacher ensemble touches the whole fleet.
        assert_eq!(reg.peak_resident(), 3);
    }
}
