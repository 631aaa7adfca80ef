//! Per-layer replays: the harness builds the workload's own objects
//! (`Materialized`, zoo models, generator, codec) and times public calls
//! on them at the workload's batch size and image geometry — one
//! calibration call, then the median of N timed calls, N stamped.
//!
//! Every replay runs on every workload so a traced run always reports the
//! same metric set; where the workload does not use a piece (a generator
//! on FedAvg, a churn model on a static fleet) the replay uses the
//! standard configuration for the workload's data family and says so in
//! the stamps.

use crate::timed::{build, BenchSim};
use fedzkt_autograd::loss::{cross_entropy, kl_div_probs};
use fedzkt_autograd::{no_grad, DistillLoss, Var};
use fedzkt_core::FedZktConfig;
use fedzkt_data::SynthConfig;
use fedzkt_fl::{
    evaluate, train_local, ChurnProcess, ChurnSpec, LocalTrainConfig, ParticipationSampler,
    PayloadCodec, SimCheckpoint, StreamingAverage,
};
use fedzkt_models::{GeneratorSpec, ModelSpec};
use fedzkt_nn::{
    load_state_dict, param_count, state_dict, Adam, AdamConfig, Module, Optimizer, Sgd, SgdConfig,
};
use fedzkt_scenario::{standard_algorithm, Algo, Materialized, Scenario};
use fedzkt_tensor::ops::gemm::{gemm_nn, gemm_nn_with, gemm_nt, gemm_tn};
use fedzkt_tensor::ops::{col2im, im2col, Conv2dGeometry};
use fedzkt_tensor::{par, seeded_rng, ComputeFormat, Prng, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget of one replayed call site.
const ITEM_BUDGET: Duration = Duration::from_millis(60);
const MIN_ITERS: usize = 5;
const MAX_ITERS: usize = 2000;

/// Architectures whose forward / forward+backward cost is replayed, with
/// the suffix used in metric names.
pub const ARCHS: [(&str, ModelSpec); 7] = [
    ("shufflenet_05", ModelSpec::ShuffleNetV2 { size: 0.5 }),
    ("shufflenet_10", ModelSpec::ShuffleNetV2 { size: 1.0 }),
    ("mobilenet_08", ModelSpec::MobileNetV2 { width: 0.8 }),
    ("mobilenet_06", ModelSpec::MobileNetV2 { width: 0.6 }),
    ("lenet_deep", ModelSpec::LeNet { scale: 1.0, deep: true }),
    ("lenet", ModelSpec::LeNet { scale: 0.5, deep: false }),
    ("mlp", ModelSpec::Mlp { hidden: 8 }),
];

/// Named GEMM problem sizes `(m, k, n)` derived from the workload.
pub const GEMM_SHAPES: [&str; 3] = ["sq256", "conv_panel", "fc"];

/// Metric values and the shapes / iteration counts behind them.
#[derive(Default)]
pub struct Layers {
    /// `(name, value, unit)`, in the order measured.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// `(what, shape or N)` — every replay shape and iteration count.
    pub stamps: Vec<(String, String)>,
}

impl Layers {
    /// Record a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record a shape or count behind a metric.
    pub fn stamp(&mut self, what: impl Into<String>, text: impl std::fmt::Display) {
        self.stamps.push((what.into(), text.to_string()));
    }

    /// Median seconds per call of `f`, recorded iterations stamped under
    /// `name`.
    fn time(&mut self, name: &str, f: impl FnMut()) -> f64 {
        let (seconds, iters) = time_calls(ITEM_BUDGET, f);
        self.stamp(format!("{name}.n"), iters);
        seconds
    }

    /// Time `f` and record it in milliseconds.
    fn put_ms(&mut self, name: &str, f: impl FnMut()) -> f64 {
        let seconds = self.time(name, f);
        self.put(name, seconds * 1e3, "ms");
        seconds
    }

    /// Time `f`, which moves `bytes` per call, and record MB/s.
    fn put_mb_s(&mut self, name: &str, bytes: usize, f: impl FnMut()) {
        let seconds = self.time(name, f);
        self.put(name, bytes as f64 / 1e6 / seconds, "MB/s");
    }
}

/// One calibration call (which is also the warm-up), then as many timed
/// calls as fit `budget` (at least [`MIN_ITERS`]); returns the median
/// seconds per call and the number of timed calls.
pub fn time_calls(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let t = Instant::now();
    f();
    let first = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget.as_secs_f64() / first) as usize).clamp(MIN_ITERS, MAX_ITERS);
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    (crate::stats::median(&samples).max(1e-12), iters)
}

/// What the replays need to know about the workload.
pub struct ReplayInput<'a> {
    /// The workload's (first) scenario.
    pub scenario: &'a Scenario,
    /// Its finished simulation, for the payload template and the log.
    pub sim: &'a dyn BenchSim,
    /// Measured `fl.server_update_s` of the traced unit, which the game
    /// replay is held against.
    pub server_update_s: f64,
}

/// Image geometry and batch size every replay runs at.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    channels: usize,
    classes: usize,
    img: usize,
    batch: usize,
}

fn batch_size(sc: &Scenario) -> usize {
    match &sc.algorithm {
        Algo::FedZkt(cfg) => cfg.device_batch,
        Algo::FedAvg(cfg) | Algo::FedProx(cfg) => cfg.batch_size,
        Algo::FedMd { cfg, .. } => cfg.batch_size,
        Algo::FedEt { cfg, .. } => cfg.batch_size,
        Algo::FedGkt(cfg) => cfg.batch_size,
    }
}

/// The FedZKT configuration the game replay uses: the workload's own when
/// it runs FedZKT, the standard one for its data family otherwise.
fn game_config(sc: &Scenario) -> (FedZktConfig, bool) {
    match sc.fedzkt_cfg() {
        Some(cfg) => (*cfg, true),
        None => match standard_algorithm(sc, "fedzkt") {
            Some(Algo::FedZkt(cfg)) => (cfg, false),
            _ => unreachable!("\"fedzkt\" always maps to a FedZKT config"),
        },
    }
}

fn random_batch(g: Geometry, rng: &mut Prng) -> Tensor {
    Tensor::randn(&[g.batch, g.channels, g.img, g.img], rng)
}

fn zero_grads(params: &[Var]) {
    for p in params {
        p.zero_grad();
    }
}

/// Run every replay for one workload.
pub fn replay_all(input: &ReplayInput<'_>, layers: &mut Layers) {
    let sc = input.scenario;
    let m = sc.materialize().expect("the workload's scenario is well-formed");
    let g = Geometry {
        channels: m.train.channels(),
        classes: m.train.num_classes(),
        img: m.train.img_size(),
        batch: batch_size(sc),
    };
    layers.stamp("geometry", format!("{g:?}"));
    let mut rng = seeded_rng(sc.sim.seed ^ 0xBE7C);

    data_layer(sc, &m, g, layers);
    fl_layer(input, &m, g, layers);
    core_layer(input, &m, g, &mut rng, layers);
    models_layer(sc, g, &mut rng, layers);
    nn_layer(&m, g, &mut rng, layers);
    autograd_layer(&m, g, &mut rng, layers);
    tensor_layer(g, &mut rng, layers);
}

/// Checkpoint write **and** read on the workload's finished simulation:
/// snapshot, atomic save, load, resume into a fresh build, and the RunLog
/// serializer every checkpoint embeds.
pub fn checkpoint_layer(input: &ReplayInput<'_>, scratch: &std::path::Path, layers: &mut Layers) {
    let sim = input.sim;
    let path = scratch.join("replay.ckpt");
    layers.put_ms("fl.checkpoint_snapshot_ms", || {
        black_box(sim.checkpoint());
    });
    let ck = sim.checkpoint();
    layers.put_ms("fl.checkpoint_save_ms", || ck.save(&path).expect("checkpoint save"));
    let bytes = std::fs::metadata(&path).expect("the checkpoint was just written").len();
    layers.put("fl.checkpoint_bytes", bytes as f64, "bytes");
    layers.put_ms("fl.checkpoint_load_ms", || {
        black_box(SimCheckpoint::load(&path).expect("checkpoint load"));
    });
    // `resume_from` overwrites the log, clock and algorithm state, so one
    // fresh build can take it repeatedly.
    let mut fresh = build(input.scenario, None).expect("rebuild for resume").sim;
    layers.put_ms("fl.resume_from_ms", || fresh.resume_from(&ck).expect("resume"));
    layers.put_ms("fl.runlog_to_json_ms", || {
        black_box(sim.log().to_json());
    });
}

fn data_layer(sc: &Scenario, m: &Materialized, g: Geometry, layers: &mut Layers) {
    // Synthesis at the workload's geometry, capped so a 10⁶-sample family
    // is sampled rather than regenerated N times.
    let synth = SynthConfig {
        family: sc.data.family,
        img: sc.data.img,
        train_n: sc.data.train_n.min(4096),
        test_n: sc.data.test_n.min(512),
        classes: sc.data.classes,
        noise_std: sc.data.noise_std,
        seed: sc.sim.seed,
    };
    let samples = synth.train_n + synth.test_n;
    layers.stamp("data.synth_samples_per_s.samples", samples);
    let seconds = layers.time("data.synth_samples_per_s", || {
        black_box(synth.generate());
    });
    layers.put("data.synth_samples_per_s", samples as f64 / seconds, "1/s");

    layers.stamp("data.partition_ms.devices", sc.devices());
    layers.put_ms("data.partition_ms", || {
        black_box(
            sc.partition
                .split(m.train.labels(), m.train.num_classes(), sc.devices(), sc.sim.seed)
                .expect("the workload's partition is feasible"),
        );
    });

    let indices: Vec<usize> = (0..g.batch).map(|i| (i * 7919) % m.train.len()).collect();
    let bytes = g.batch * g.channels * g.img * g.img * 4;
    layers.put_mb_s("data.batch_gather_mb_s", bytes, || {
        black_box(m.train.batch(&indices));
    });
}

fn fl_layer(input: &ReplayInput<'_>, m: &Materialized, g: Geometry, layers: &mut Layers) {
    let sc = input.scenario;
    let spec = m.zoo[0];
    let build = || spec.build(g.channels, g.classes, g.img, sc.sim.seed);

    // Device 0's shard, topped up from the train set to at least four
    // batches so a one-sample mega-fleet shard still measures a loop.
    let mut shard = m.shards[0].clone();
    shard.extend((0..m.train.len()).take((4 * g.batch).saturating_sub(shard.len())));
    let shard = m.train.subset(&shard);
    layers.stamp("fl.train_local_samples_per_s.samples", shard.len());
    let model = build();
    let cfg = LocalTrainConfig { epochs: 1, batch_size: g.batch, lr: 0.01, ..Default::default() };
    let seconds = layers.time("fl.train_local_samples_per_s", || {
        black_box(train_local(model.as_ref(), &shard, &cfg));
    });
    layers.put("fl.train_local_samples_per_s", shard.len() as f64 / seconds, "1/s");

    layers.stamp("fl.evaluate_samples_per_s.samples", m.test.len());
    let seconds = layers.time("fl.evaluate_samples_per_s", || {
        black_box(evaluate(model.as_ref(), &m.test, sc.sim.eval_batch));
    });
    layers.put("fl.evaluate_samples_per_s", m.test.len() as f64 / seconds, "1/s");

    // Thread scaling is a per-layer number only, and only where the host
    // can show it.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if host_cpus >= 2 {
        let jobs: Vec<fedzkt_fl::FleetJob> = (0..4)
            .map(|i| fedzkt_fl::FleetJob {
                spec,
                snapshot: state_dict(model.as_ref()),
                data: &shard,
                cfg,
                pretrain: None,
                digest: None,
                rebuild_seed: i,
            })
            .collect();
        let io = (g.channels, g.classes, g.img);
        let at = |threads: usize| {
            time_calls(ITEM_BUDGET, || {
                black_box(fedzkt_fl::train_local_fleet(&jobs, io, threads));
            })
            .0
        };
        let (one, two) = (at(1), at(2));
        layers.put("fl.fleet_speedup_t2", one / two, "x");
    }

    // Codec on the workload's own uplink bundle.
    let codec = sc.sim.codec;
    let template = input.sim.payload_template(0);
    let raw = template.byte_size();
    layers.stamp("fl.codec.template_bytes", raw);
    layers.stamp("fl.codec.kind", codec.name());
    layers.put_mb_s("fl.codec_encode_mb_s", raw, || {
        black_box(codec.encode(&template));
    });
    let wire = codec.encode(&template);
    layers.put_mb_s("fl.codec_decode_mb_s", raw, || {
        black_box(codec.decode(&wire).expect("a payload this codec just encoded decodes"));
    });
    layers.put("fl.codec_wire_ratio", wire.len() as f64 / raw as f64, "ratio");
    layers.put_mb_s("fl.aggregate_fold_mb_s", 2 * raw, || {
        let mut avg = StreamingAverage::new(2.0);
        avg.fold(1.0, &template);
        avg.fold(1.0, &template);
        black_box(avg.finish());
    });

    // Sampling: the workload's churn model, or the fleet_wire reference
    // dynamics over this workload's fleet when it has none.
    let spec = sc.churn.unwrap_or(ChurnSpec {
        duty_period: 4,
        duty_on: 3,
        dropout: 0.1,
        bandwidth_floor: 0.4,
        ..ChurnSpec::default()
    });
    layers.stamp("fl.churn.devices", sc.devices());
    layers.stamp("fl.churn.own_spec", sc.churn.is_some());
    let churn = ChurnProcess::new(spec, sc.devices());
    let mut round = 0;
    layers.put_ms("fl.churn_available_ms", || {
        round += 1;
        black_box(churn.available(round));
    });
    let sampler = ParticipationSampler::new(sc.devices(), sc.sim.participation, sc.sim.seed);
    let pool = churn.available(0);
    layers.put_ms("fl.sampler_active_ms", || {
        round += 1;
        black_box(match sc.churn {
            Some(_) => sampler.active_among(round, &pool),
            None => sampler.active(round),
        });
    });
}

/// One distillation-game iteration rebuilt from public pieces, timed in
/// its three parts and held against the measured server phase.
fn core_layer(
    input: &ReplayInput<'_>,
    m: &Materialized,
    g: Geometry,
    rng: &mut Prng,
    layers: &mut Layers,
) {
    let sc = input.scenario;
    let (cfg, own) = game_config(sc);
    // Teachers: the workload's device models (capped: a registered
    // mega-fleet is one architecture a million times).
    let teachers: Vec<Box<dyn Module>> = m
        .zoo
        .iter()
        .take(10)
        .enumerate()
        .map(|(k, spec)| spec.build(g.channels, g.classes, g.img, k as u64))
        .collect();
    layers.stamp("core.replay.own_config", own);
    layers.stamp("core.replay.teachers", teachers.len());
    layers.stamp("core.replay.batch", cfg.distill_batch);
    let global = cfg.global_model.build(g.channels, g.classes, g.img, 7);
    let generator = cfg.generator.build(g.channels, g.img, 8);
    let generator_opt =
        Adam::new(generator.params(), AdamConfig { lr: cfg.generator_lr, ..Default::default() });
    let global_opt = Sgd::new(
        global.params(),
        SgdConfig { lr: cfg.server_lr, momentum: 0.9, weight_decay: 0.0 },
    );
    for t in &teachers {
        t.set_training(false);
    }
    global.set_training(true);
    generator.set_training(true);

    let gen_step = layers.put_ms("core.replay.gen_step_ms", || {
        generator_opt.zero_grad();
        let z = Var::constant(generator.sample_z(cfg.distill_batch, rng));
        let x = generator.forward(&z);
        let student = global.forward(&x);
        let logits: Vec<Var> = teachers.iter().map(|t| t.forward(&x)).collect();
        let refs: Vec<&Var> = logits.iter().collect();
        cfg.loss.eval(&student, &refs).neg().backward();
        generator_opt.step();
        zero_grads(&global.params());
        for t in &teachers {
            zero_grads(&t.params());
        }
    });
    let global_step = layers.put_ms("core.replay.global_step_ms", || {
        global_opt.zero_grad();
        let z = Var::constant(generator.sample_z(cfg.distill_batch, rng));
        let (x, logits) = no_grad(|| {
            let x = generator.forward(&z);
            let t: Vec<Tensor> = teachers.iter().map(|t| t.forward(&x).value_clone()).collect();
            (x.value_clone(), t)
        });
        let student = global.forward(&Var::constant(x));
        let vars: Vec<Var> = logits.into_iter().map(Var::constant).collect();
        let refs: Vec<&Var> = vars.iter().collect();
        cfg.loss.eval(&student, &refs).backward();
        global_opt.step();
    });

    global.set_training(false);
    let device_opts: Vec<Sgd> = teachers
        .iter()
        .map(|t| {
            t.set_training(true);
            Sgd::new(
                t.params(),
                SgdConfig { lr: cfg.transfer_lr, momentum: 0.9, weight_decay: 0.0 },
            )
        })
        .collect();
    let transfer_iter = layers.put_ms("core.replay.transfer_iter_ms", || {
        let z = Var::constant(generator.sample_z(cfg.distill_batch, rng));
        let (x, probs) = no_grad(|| {
            let x = generator.forward(&z);
            let p = global.forward(&x).softmax().value_clone();
            (x.value_clone(), p)
        });
        let (x, probs) = (Var::constant(x), Var::constant(probs));
        for (t, opt) in teachers.iter().zip(&device_opts) {
            opt.zero_grad();
            kl_div_probs(&probs, &t.forward(&x).softmax()).backward();
            opt.step();
        }
    });

    // Replay × the iteration counts the workload actually ran. The
    // remainder is what a per-iteration replay cannot see: allocation
    // churn, schedules, the transfer back. Zero when the workload runs no
    // game.
    let explained = if own && input.server_update_s > 0.0 {
        let rounds = input.sim.log().rounds.len() as f64;
        let per_round = cfg.distill_iters as f64 * (gen_step + global_step)
            + cfg.transfer_iters as f64 * transfer_iter;
        rounds * per_round / input.server_update_s
    } else {
        0.0
    };
    layers.put("core.replay.explained_share", explained, "share");
}

fn models_layer(sc: &Scenario, g: Geometry, rng: &mut Prng, layers: &mut Layers) {
    let x = random_batch(g, rng);
    let labels: Vec<usize> = (0..g.batch).map(|i| i % g.classes).collect();
    for (suffix, spec) in ARCHS {
        let model = spec.build(g.channels, g.classes, g.img, 1);
        model.set_training(true);
        layers.stamp(format!("models.{suffix}.params"), param_count(model.as_ref()));
        layers.put_ms(&format!("models.fwd_ms.{suffix}"), || {
            black_box(no_grad(|| model.forward(&Var::constant(x.clone()))));
        });
        let params = model.params();
        layers.put_ms(&format!("models.fwd_bwd_ms.{suffix}"), || {
            zero_grads(&params);
            cross_entropy(&model.forward(&Var::constant(x.clone())), &labels).backward();
        });
    }
    let (cfg, _) = game_config(sc);
    let spec: GeneratorSpec = cfg.generator;
    let generator = spec.build(g.channels, g.img, 1);
    generator.set_training(true);
    let z = generator.sample_z(g.batch, rng);
    layers.put_ms("models.fwd_ms.generator", || {
        black_box(no_grad(|| generator.forward(&Var::constant(z.clone()))));
    });
    let params = generator.params();
    layers.put_ms("models.fwd_bwd_ms.generator", || {
        zero_grads(&params);
        generator.forward(&Var::constant(z.clone())).mean_all().backward();
    });
}

fn nn_layer(m: &Materialized, g: Geometry, rng: &mut Prng, layers: &mut Layers) {
    let model = m.zoo[0].build(g.channels, g.classes, g.img, 1);
    let params = param_count(model.as_ref());
    layers.stamp("nn.params", params);
    // One backward to populate every gradient; the optimizers then step
    // on them repeatedly (a step reads gradients, it does not clear them).
    let labels: Vec<usize> = (0..g.batch).map(|i| i % g.classes).collect();
    cross_entropy(&model.forward(&Var::constant(random_batch(g, rng))), &labels).backward();
    let sgd = Sgd::new(model.params(), SgdConfig { lr: 1e-4, momentum: 0.9, weight_decay: 0.0 });
    let seconds = layers.time("nn.sgd_step_ns_per_param", || sgd.step());
    layers.put("nn.sgd_step_ns_per_param", seconds * 1e9 / params as f64, "ns");
    let adam = Adam::new(model.params(), AdamConfig { lr: 1e-4, ..Default::default() });
    let seconds = layers.time("nn.adam_step_ns_per_param", || adam.step());
    layers.put("nn.adam_step_ns_per_param", seconds * 1e9 / params as f64, "ns");

    let bytes = state_dict(model.as_ref()).byte_size();
    layers.put_mb_s("nn.state_dict_roundtrip_mb_s", bytes, || {
        let sd = state_dict(model.as_ref());
        load_state_dict(model.as_ref(), &sd).expect("a model loads its own state");
    });
}

fn autograd_layer(m: &Materialized, g: Geometry, rng: &mut Prng, layers: &mut Layers) {
    // Zoo-typical activations at the workload's geometry: the stem conv
    // sees the image, the depthwise/pointwise/BN stack sees 32 channels at
    // half resolution.
    let half = g.img / 2;
    let image = random_batch(g, rng);
    let stem_w = Var::parameter(Tensor::randn(&[16, g.channels, 3, 3], rng));
    layers.stamp("autograd.conv2d", format!("{:?} * [16,{},3,3]", image.shape(), g.channels));
    layers.put_ms("autograd.conv2d_fwd_ms", || {
        black_box(no_grad(|| Var::constant(image.clone()).conv2d(&stem_w, 1, 1, 1)));
    });
    conv_bwd_ms(layers, "autograd.conv2d_bwd_ms", &stem_w, 1, &image);

    let act = Tensor::randn(&[g.batch, 32, half, half], rng);
    let dw_w = Var::parameter(Tensor::randn(&[32, 1, 3, 3], rng));
    layers.stamp("autograd.dwconv", format!("{:?} * [32,1,3,3] groups=32", act.shape()));
    layers.put_ms("autograd.dwconv_fwd_ms", || {
        black_box(no_grad(|| Var::constant(act.clone()).conv2d(&dw_w, 1, 1, 32)));
    });
    conv_bwd_ms(layers, "autograd.dwconv_bwd_ms", &dw_w, 32, &act);

    let pw_w = Var::parameter(Tensor::randn(&[64, 32, 1, 1], rng));
    layers.stamp("autograd.pwconv", format!("{:?} * [64,32,1,1]", act.shape()));
    layers.put_ms("autograd.pwconv_fwd_bwd_ms", || {
        zero_grads(std::slice::from_ref(&pw_w));
        Var::parameter(act.clone()).conv2d(&pw_w, 1, 0, 1).mean_all().backward();
    });

    let gamma = Var::parameter(Tensor::ones(&[32]));
    let beta = Var::parameter(Tensor::zeros(&[32]));
    layers.put_ms("autograd.batch_norm_train_fwd_bwd_ms", || {
        zero_grads(&[gamma.clone(), beta.clone()]);
        let (y, _, _) = Var::parameter(act.clone()).batch_norm2d_train(&gamma, &beta, 1e-5);
        y.mean_all().backward();
    });

    let features = Tensor::randn(&[g.batch, 128], rng);
    let w = Var::parameter(Tensor::randn(&[64, 128], rng));
    let b = Var::parameter(Tensor::zeros(&[64]));
    layers.stamp("autograd.linear", format!("[{},128] -> 64", g.batch));
    layers.put_ms("autograd.linear_fwd_bwd_ms", || {
        zero_grads(&[w.clone(), b.clone()]);
        Var::parameter(features.clone()).linear(&w, Some(&b)).mean_all().backward();
    });

    let teachers = m.zoo.len().clamp(1, 10);
    layers.stamp(
        "autograd.distill_loss",
        format!("[{},{}] x {teachers} teachers", g.batch, g.classes),
    );
    let logits = |rng: &mut Prng| Tensor::randn(&[g.batch, g.classes], rng);
    let student = logits(rng);
    let teacher_logits: Vec<Tensor> = (0..teachers).map(|_| logits(rng)).collect();
    layers.put_ms("autograd.distill_loss_fwd_bwd_ms", || {
        let s = Var::parameter(student.clone());
        let t: Vec<Var> = teacher_logits.iter().cloned().map(Var::parameter).collect();
        let refs: Vec<&Var> = t.iter().collect();
        DistillLoss::Sl.eval(&s, &refs).backward();
    });
    let labels: Vec<usize> = (0..g.batch).map(|i| i % g.classes).collect();
    layers.put_ms("autograd.cross_entropy_fwd_bwd_ms", || {
        cross_entropy(&Var::parameter(student.clone()), &labels).backward();
    });
}

/// Record `name` = (forward + backward) − forward of a same-padded 3×3
/// convolution: the library exposes backward only through a full tape
/// walk, so the backward cost is a difference of two medians (floored at
/// 1 ns).
fn conv_bwd_ms(layers: &mut Layers, name: &str, weight: &Var, groups: usize, input: &Tensor) {
    let forward = || Var::parameter(input.clone()).conv2d(weight, 1, 1, groups);
    let fwd = layers.time(&format!("{name}.fwd"), || {
        black_box(forward());
    });
    let both = layers.time(name, || {
        weight.zero_grad();
        forward().mean_all().backward();
    });
    layers.put(name, (both - fwd).max(1e-9) * 1e3, "ms");
}

fn tensor_layer(g: Geometry, rng: &mut Prng, layers: &mut Layers) {
    // (m, k, n): a square reference, the stem convolution's im2col panel
    // (out channels × in·3·3 × batch·H·W), and a dense layer.
    let shapes: [(usize, usize, usize); 3] =
        [(256, 256, 256), (16, g.channels * 9, g.batch * g.img * g.img), (g.batch, 128, 64)];
    let mut rand = |len: usize| Tensor::randn(&[len], rng).data().to_vec();
    for (label, (m, k, n)) in GEMM_SHAPES.into_iter().zip(shapes) {
        layers.stamp(format!("tensor.gemm.{label}"), format!("m={m} k={k} n={n}"));
        let (a, b) = (rand(m * k), rand(k * n));
        let mut out = vec![0.0f32; m * n];
        let gflop = 2.0 * (m * k * n) as f64 / 1e9;
        type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        // nt reads B as [n, k]; tn reads A as [k, m] and takes k first.
        let kernels: [(&str, Kernel, (usize, usize, usize)); 3] =
            [("nn", gemm_nn, (m, k, n)), ("nt", gemm_nt, (m, k, n)), ("tn", gemm_tn, (k, m, n))];
        for (layout, kernel, (d0, d1, d2)) in kernels {
            let name = format!("tensor.gemm_{layout}_gflops.{label}");
            let seconds = layers.time(&name, || {
                kernel(black_box(&a), black_box(&b), &mut out, d0, d1, d2);
                black_box(&mut out);
            });
            layers.put(name, gflop / seconds, "GFLOP/s");
        }
        if label == "sq256" {
            let name = "tensor.gemm_int8_nn_gflops.sq256";
            let seconds = layers.time(name, || {
                gemm_nn_with(ComputeFormat::Int8, black_box(&a), black_box(&b), &mut out, m, k, n);
                black_box(&mut out);
            });
            layers.put(name, gflop / seconds, "GFLOP/s");
        }
    }

    let geometry = Conv2dGeometry::new(g.channels.max(16), g.img, g.img, 3, 3, 1, 1)
        .expect("a 3x3 same-padded convolution fits every zoo image");
    layers.stamp("tensor.im2col", format!("{geometry:?}"));
    let image = rand(geometry.input_len());
    let col = im2col(&image, &geometry);
    layers.put_mb_s("tensor.im2col_mb_s", col.len() * 4, || {
        black_box(im2col(black_box(&image), &geometry));
    });
    layers.put_mb_s("tensor.col2im_mb_s", col.len() * 4, || {
        black_box(col2im(black_box(&col), &geometry));
    });

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    layers.stamp("tensor.par_dispatch_us.threads", threads);
    let seconds = layers.time("tensor.par_dispatch_us", || {
        black_box(par::map_indexed(threads, threads, |i| i));
    });
    layers.put("tensor.par_dispatch_us", seconds * 1e6, "us");
}
