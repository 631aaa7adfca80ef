//! Cross-crate integration tests: tiny but complete federated runs of
//! every algorithm in the workspace, all through the `Simulation` driver.

use fedzkt::core::{FedMd, FedMdConfig, FedZkt, FedZktConfig};
use fedzkt::data::{Corpus, DataFamily, Dataset, Partition, SynthConfig};
use fedzkt::fl::{
    DeviceResources, FedAvg, FedAvgConfig, RunLog, SimConfig, Simulation,
};
use fedzkt::models::{GeneratorSpec, ModelSpec};

fn mnist_like(seed: u64) -> (Corpus, Dataset) {
    SynthConfig {
        family: DataFamily::MnistLike,
        img: 8,
        train_n: 120,
        test_n: 60,
        classes: 4,
        seed,
        ..Default::default()
    }
    .generate_corpus()
}

fn tiny_zkt_cfg() -> FedZktConfig {
    FedZktConfig {
        local_epochs: 1,
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

fn tiny_zoo() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Mlp { hidden: 16 },
        ModelSpec::SmallCnn { base_channels: 2 },
        ModelSpec::LeNet { scale: 0.5, deep: false },
    ]
}

fn tiny_fedzkt(seed: u64, rounds: usize) -> Simulation<FedZkt> {
    let (train, test) = mnist_like(seed);
    let shards = Partition::Iid.split(train.labels(), 4, 3, seed.wrapping_add(1)).unwrap();
    let sim_cfg = SimConfig { rounds, seed, ..Default::default() };
    let fed = FedZkt::new(&tiny_zoo(), &train, &shards, tiny_zkt_cfg(), &sim_cfg);
    Simulation::builder(fed, test, sim_cfg).build()
}

#[test]
fn fedzkt_full_pipeline_heterogeneous() {
    let mut sim = tiny_fedzkt(1, 2);
    let log = sim.run();
    assert_eq!(log.rounds.len(), 2);
    assert!(log.rounds.iter().all(|r| r.avg_device_accuracy.is_finite()));
    assert!(log.rounds.iter().all(|r| r.upload_bytes > 0 && r.download_bytes > 0));
}

/// Acceptance for the SimClock integration: attach device resources and
/// the driver populates `sim_seconds` — nonzero, accumulating, and read
/// straight from the `RunLog` (no hand-driven clock anywhere).
#[test]
fn fedzkt_sim_seconds_positive_with_resources() {
    let (train, test) = mnist_like(4);
    let shards = Partition::Iid.split(train.labels(), 4, 3, 4).unwrap();
    let sim_cfg = SimConfig { rounds: 2, seed: 4, ..Default::default() };
    let fed = FedZkt::new(&tiny_zoo(), &train, &shards, tiny_zkt_cfg(), &sim_cfg);
    let mut sim = Simulation::builder(fed, test, sim_cfg)
        .resources(DeviceResources::heterogeneous_population(3, 4))
        .server_seconds(0.25)
        .build();
    let log = sim.run().clone();
    for r in &log.rounds {
        assert!(r.sim_seconds > 0.0, "round {} has sim_seconds {}", r.round, r.sim_seconds);
        // The constant server time alone bounds every round from below.
        assert!(r.sim_seconds >= 0.25);
    }
    let total: f64 = log.rounds.iter().map(|r| r.sim_seconds).sum();
    assert!((sim.clock().expect("clock attached").now() - total).abs() < 1e-9);
    // Without resources, the field stays zero.
    let mut plain = tiny_fedzkt(4, 1);
    assert_eq!(plain.round(0).sim_seconds, 0.0);
}

/// The server's distillation compute is charged to the clock: more
/// distillation iterations ⇒ longer simulated rounds, all else equal.
#[test]
fn sim_seconds_scale_with_server_distillation_budget() {
    let run = |distill_iters: usize| {
        let (train, test) = mnist_like(4);
        let shards = Partition::Iid.split(train.labels(), 4, 3, 4).unwrap();
        let sim_cfg = SimConfig { rounds: 1, seed: 4, ..Default::default() };
        let cfg = FedZktConfig {
            distill_iters,
            transfer_iters: distill_iters,
            ..tiny_zkt_cfg()
        };
        let fed = FedZkt::new(&tiny_zoo(), &train, &shards, cfg, &sim_cfg);
        let mut sim = Simulation::builder(fed, test, sim_cfg)
            .resources(DeviceResources::heterogeneous_population(3, 4))
            .build();
        sim.round(0).sim_seconds
    };
    let small = run(2);
    let big = run(8);
    assert!(big > small, "nD=8 must cost more simulated time than nD=2: {big} vs {small}");
}

/// The run log round-trips through its JSON artifact format at full
/// fidelity, straight off a real heterogeneous run.
#[test]
fn runlog_json_roundtrips_from_real_run() {
    let mut sim = tiny_fedzkt(6, 2);
    let log = sim.run().clone();
    let back = RunLog::from_json(&log.to_json()).expect("parse emitted JSON");
    assert_eq!(log, back);
    // CSV and JSON agree on the round count.
    assert_eq!(log.to_csv().lines().count(), 1 + back.rounds.len());
}

/// Acceptance for the wire-format layer, on the `paper-small` scenario
/// (miniaturized: the zoo, algorithm, partition and data family are the
/// preset's own — all four codec-relevant payload shapes are the paper
/// configuration's — while rounds/samples/iterations are scaled down so
/// the tier-1 suite stays minutes-fast; the uplink ratio is a pure
/// function of the zoo's tensor shapes, so it is exactly paper-small's):
///
/// * int8-quantized payloads report ≥ 3.5× less uplink traffic than raw;
/// * final accuracy stays within 2 percentage points of the raw run;
/// * `sim_seconds` strictly increases once links have finite bandwidth
///   (vs the unlimited-bandwidth spelling of the same resources).
#[test]
fn quantized_uplink_on_paper_small_saves_traffic_without_losing_accuracy() {
    use fedzkt::fl::CodecSpec;
    use fedzkt::scenario::{preset, LinkBandwidth, ResourceAssignment, ResourceSpec};

    let mut base = preset("paper-small").expect("registry preset");
    // Miniaturize the scale knobs only; everything the codec sees (the
    // paper zoo's architectures, and hence every payload's tensor shapes)
    // is untouched.
    base.data.img = 8;
    base.data.train_n = 200;
    base.data.test_n = 400;
    base.sim.rounds = 2;
    base.sim.eval_every = 0; // accuracy is read from the final round only
    base.set_device_count(5);
    {
        let cfg = base.fedzkt_cfg_mut().expect("paper-small runs fedzkt");
        cfg.local_epochs = 1;
        cfg.distill_iters = 3;
        cfg.transfer_iters = 3;
        cfg.device_batch = 16;
        cfg.distill_batch = 16;
        cfg.device_lr = 0.05;
    }

    let raw = base.run().expect("raw run");
    let mut quant = base.clone();
    quant.sim.codec = CodecSpec::QuantQ8;
    let q8 = quant.run().expect("q8 run");

    let uplink = |log: &fedzkt::fl::RunLog| -> u64 {
        log.rounds.iter().map(|r| r.upload_bytes).sum()
    };
    let ratio = uplink(&raw) as f64 / uplink(&q8) as f64;
    assert!(
        ratio >= 3.5,
        "QuantQ8 must report ≥3.5× less uplink than raw, got {ratio:.2} ({} vs {})",
        uplink(&raw),
        uplink(&q8)
    );
    let gap = (raw.final_accuracy() - q8.final_accuracy()).abs();
    assert!(
        gap <= 0.02,
        "quantization moved accuracy by {:.2} points (raw {:.4}, q8 {:.4})",
        100.0 * gap,
        raw.final_accuracy(),
        q8.final_accuracy()
    );

    // Finite links must strictly lengthen the simulated rounds relative to
    // unlimited links over the *same* population and run.
    let with_bandwidth = |bw: LinkBandwidth| {
        let mut sc = quant.clone();
        sc.sim.rounds = 1;
        sc.resources = Some(ResourceSpec {
            assignment: ResourceAssignment::Smartphone,
            bandwidth: Some(bw),
            server_seconds: 0.0,
        });
        sc.run().expect("clocked run").rounds[0].sim_seconds
    };
    let unlimited = with_bandwidth(LinkBandwidth::unlimited());
    let finite = with_bandwidth(LinkBandwidth {
        up_bytes_per_sec: 5e4,
        down_bytes_per_sec: 2e5,
    });
    assert!(unlimited > 0.0, "compute time alone keeps the clock moving");
    assert!(
        finite > unlimited,
        "finite bandwidth must add transfer time: {finite} vs {unlimited}"
    );
}

#[test]
fn fedzkt_beats_local_only_on_skewed_data() {
    // With 2 classes per device out of 4, federation must help: each
    // device alone can never classify the classes it has never seen.
    let (train, test) = SynthConfig {
        family: DataFamily::MnistLike,
        img: 8,
        train_n: 240,
        test_n: 120,
        classes: 4,
        seed: 3,
        ..Default::default()
    }
    .generate_corpus();
    let shards = Partition::QuantitySkew { classes_per_device: 2 }
        .split(train.labels(), 4, 4, 3)
        .unwrap();
    let zoo = ModelSpec::assign_round_robin(&ModelSpec::paper_zoo_small(), 4);

    // Local-only: train each device on its shard, average accuracies.
    let mut local_acc = 0.0f32;
    for (i, shard) in shards.iter().enumerate() {
        let spec = zoo[i];
        let acc = fedzkt::core::local_only_bound(
            spec,
            &train.subset(shard),
            &test,
            &fedzkt::core::BoundConfig { epochs: 4, lr: 0.05, seed: 7, ..Default::default() },
        );
        local_acc += acc / shards.len() as f32;
    }

    let sim_cfg = SimConfig { rounds: 4, seed: 3, ..Default::default() };
    let cfg = FedZktConfig { local_epochs: 1, prox_mu: 1.0, ..tiny_zkt_cfg() };
    let fed = FedZkt::new(&zoo, &train, &shards, cfg, &sim_cfg);
    let mut sim = Simulation::builder(fed, test, sim_cfg).build();
    let fed_acc = sim.run().final_accuracy();
    // Local-only models top out near 50% (they see half the classes).
    assert!(local_acc < 0.62, "local-only unexpectedly strong: {local_acc}");
    assert!(
        fed_acc > local_acc - 0.05,
        "federation should not be far below local-only: fed {fed_acc} vs local {local_acc}"
    );
}

#[test]
fn fedmd_full_pipeline_with_public_data() {
    let (train, test) = mnist_like(5);
    let (public, _) = SynthConfig {
        family: DataFamily::FashionLike,
        img: 8,
        train_n: 80,
        test_n: 8,
        classes: 4,
        seed: 6,
        ..Default::default()
    }
    .generate();
    let shards = Partition::Iid.split(train.labels(), 4, 3, 5).unwrap();
    let sim_cfg = SimConfig { rounds: 2, seed: 5, ..Default::default() };
    let fed = FedMd::new(
        &tiny_zoo(),
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
        &sim_cfg,
    );
    let mut sim = Simulation::builder(fed, test, sim_cfg).build();
    let log = sim.run();
    assert_eq!(log.rounds.len(), 2);
    assert!(log.final_accuracy() > 0.25, "acc {}", log.final_accuracy());
}

#[test]
fn fedavg_homogeneous_baseline() {
    let (train, test) = mnist_like(8);
    let shards = Partition::Iid.split(train.labels(), 4, 3, 8).unwrap();
    let sim_cfg = SimConfig { rounds: 3, seed: 8, ..Default::default() };
    let fed = FedAvg::new(
        ModelSpec::Mlp { hidden: 16 },
        &train,
        &shards,
        FedAvgConfig { local_epochs: 2, batch_size: 16, lr: 0.05, ..Default::default() },
        &sim_cfg,
    );
    let mut sim = Simulation::builder(fed, test, sim_cfg).build();
    let log = sim.run();
    assert!(log.final_accuracy() > 0.3, "acc {}", log.final_accuracy());
}

#[test]
fn same_seed_reproduces_entire_run() {
    let run = || {
        let (train, test) = mnist_like(9);
        let shards = Partition::Dirichlet { beta: 0.5 }.split(train.labels(), 4, 3, 9).unwrap();
        let sim_cfg = SimConfig { rounds: 2, seed: 9, ..Default::default() };
        let fed = FedZkt::new(&tiny_zoo(), &train, &shards, tiny_zkt_cfg(), &sim_cfg);
        Simulation::builder(fed, test, sim_cfg).build().run().clone()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce the full log bit-for-bit");
}

#[test]
fn single_device_federation_degenerates_gracefully() {
    let (train, test) = mnist_like(10);
    let shards = Partition::Iid.split(train.labels(), 4, 1, 10).unwrap();
    let zoo = vec![ModelSpec::Mlp { hidden: 16 }];
    let sim_cfg = SimConfig { rounds: 2, seed: 10, ..Default::default() };
    let fed = FedZkt::new(&zoo, &train, &shards, tiny_zkt_cfg(), &sim_cfg);
    let mut sim = Simulation::builder(fed, test, sim_cfg).build();
    let log = sim.run();
    assert!(log.final_accuracy().is_finite());
}

/// The evaluation cadence skips accuracy computation on off-cadence rounds
/// but never skips protocol work: traffic accrues every round and the
/// final round always reports fresh accuracies.
#[test]
fn eval_cadence_spans_a_real_run() {
    let (train, test) = mnist_like(12);
    let shards = Partition::Iid.split(train.labels(), 4, 3, 12).unwrap();
    let sim_cfg = SimConfig { rounds: 4, eval_every: 0, seed: 12, ..Default::default() };
    let fed = FedZkt::new(&tiny_zoo(), &train, &shards, tiny_zkt_cfg(), &sim_cfg);
    let mut sim = Simulation::builder(fed, test, sim_cfg).build();
    let log = sim.run().clone();
    for r in &log.rounds[..3] {
        assert!(r.device_accuracy.is_empty(), "round {} evaluated off cadence", r.round);
        assert!(r.upload_bytes > 0, "protocol work must not be skipped");
    }
    let last = log.rounds.last().unwrap();
    assert_eq!(last.device_accuracy.len(), 3);
    assert!(last.avg_device_accuracy > 0.0);
}

/// The two knowledge-transfer presets run end-to-end through the scenario
/// layer (miniaturized like the resume sweep — same family, partition,
/// algorithm and codec, tiny sizes). Fed-ET's symmetric state-dict traffic
/// and FedGKT's asymmetric feature/soft-label exchange must both show up
/// in the RunLog exactly as the protocol defines them.
#[test]
fn knowledge_transfer_presets_run_end_to_end() {
    let shrink = |name: &str| {
        let mut sc = fedzkt::scenario::preset(name).expect("registry preset");
        sc.data.img = 8;
        sc.data.train_n = 96;
        sc.data.test_n = 32;
        sc.set_device_count(3);
        sc.sim.rounds = 2;
        sc.sim.eval_batch = 32;
        if let Some(cfg) = sc.fedet_cfg_mut() {
            cfg.local_epochs = 1;
            cfg.batch_size = 8;
            cfg.transfer_size = 16;
            cfg.distill_epochs = 1;
            cfg.transfer_epochs = 1;
            cfg.server_model = ModelSpec::SmallCnn { base_channels: 4 };
        }
        if let Some(cfg) = sc.fedgkt_cfg_mut() {
            cfg.local_epochs = 1;
            cfg.kd_epochs = 1;
            cfg.server_epochs = 1;
            cfg.batch_size = 8;
            cfg.feature_dim = 8;
            cfg.server_hidden = 16;
        }
        sc
    };

    let fedet = shrink("fedet-hetero").run().expect("fedet-hetero runs");
    assert_eq!(fedet.rounds.len(), 2);
    assert!(fedet.rounds.iter().all(|r| r.avg_device_accuracy.is_finite()));
    for r in &fedet.rounds {
        // Fed-ET downlinks what it uplinked: full device state dicts.
        assert_eq!(r.upload_bytes, r.download_bytes, "round {}", r.round);
        assert!(r.upload_bytes > 0);
    }

    let fedgkt = shrink("fedgkt-split").run().expect("fedgkt-split runs");
    assert_eq!(fedgkt.rounds.len(), 2);
    assert!(fedgkt.rounds.iter().all(|r| r.avg_device_accuracy.is_finite()));
    for r in &fedgkt.rounds {
        // FedGKT uplinks per-sample features+logits+labels but downlinks
        // only [n, C] soft labels — strictly less, every round.
        assert!(
            r.download_bytes < r.upload_bytes,
            "round {}: downlink {} must be under uplink {}",
            r.round,
            r.download_bytes,
            r.upload_bytes
        );
        assert!(r.download_bytes > 0);
    }
}
