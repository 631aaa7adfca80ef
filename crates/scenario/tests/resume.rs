//! Checkpoint/resume equivalence at the scenario level: a run killed
//! after *any* round and resumed from its serialized checkpoint must
//! finish with a `RunLog` bit-identical to the uninterrupted run.
//!
//! This is the durability guarantee the `scenarios run --halt-at-round /
//! --resume` flags and the `scenarios serve` queue stand on, exercised
//! through the same algorithm-erased interface the CLI uses — for a
//! static fleet (`tiny`) and a dynamic one (`churn-lossy`, which adds
//! mid-round dropout and wandering links on top of the quantized wire
//! path), plus every checked-in scenario file at miniature size.
//! Checkpoints cross a JSON round-trip on the way, so the serialized form
//! — not just the in-memory struct — carries the full simulation state.
//!
//! Every device is dropped to its state summary at the end of every
//! round, so each of these runs also rematerializes the whole fleet from
//! summaries (uninterrupted) and from checkpoint blobs (resumed).

use fedzkt_core::FedMdConfig;
use fedzkt_fl::SimCheckpoint;
use fedzkt_models::{GeneratorSpec, ModelSpec};
use fedzkt_scenario::{preset, standard_algorithm, Scenario};

fn assert_resume_equivalence(name: &str) {
    let scenario = preset(name).unwrap_or_else(|| panic!("preset {name} exists"));
    assert_scenario_resumes(&scenario);
}

fn assert_scenario_resumes(scenario: &Scenario) {
    let name = &scenario.name;
    let rounds = scenario.sim.rounds;

    let mut reference = scenario.build().expect("reference build");
    reference.run();
    let reference_json = reference.log().to_json();

    // Kill after round k, for every k — including k = 0, a checkpoint
    // taken before any training at all.
    for k in 0..rounds {
        let mut first = scenario.build().expect("first life builds");
        for round in 0..k {
            first.round(round);
        }
        let wire = first.checkpoint().to_json();
        let ck = SimCheckpoint::from_json(&wire)
            .unwrap_or_else(|e| panic!("{name}: checkpoint at round {k} re-parses: {e}"));
        assert_eq!(ck.rounds_done, k);

        let mut second = scenario.build().expect("second life builds");
        second
            .resume_from(&ck)
            .unwrap_or_else(|e| panic!("{name}: resume at round {k} accepted: {e}"));
        second.run();
        assert_eq!(
            second.log().to_json(),
            reference_json,
            "{name}: resume after round {k} diverged from the uninterrupted run"
        );
    }
}

#[test]
fn tiny_resumes_bit_identically_from_every_round() {
    assert_resume_equivalence("tiny");
}

#[test]
fn churn_lossy_resumes_bit_identically_from_every_round() {
    assert_resume_equivalence("churn-lossy");
}

#[test]
fn fedet_hetero_resumes_bit_identically_from_every_round() {
    // Fed-ET's checkpoint carries the server model next to the device
    // ensemble; a resumed run must re-enter the consensus-distillation
    // loop exactly where the first life left it.
    assert_resume_equivalence("fedet-hetero");
}

#[test]
fn fedgkt_split_resumes_bit_identically_from_every_round() {
    // FedGKT is the interesting case: its cross-round state includes the
    // per-device soft labels the server downlinked (consumed one round
    // later), so a kill between downlink and digest must not lose them.
    assert_resume_equivalence("fedgkt-split");
}

/// Shrink a scenario to seconds-scale while preserving its shape: the same
/// family, partition, algorithm, codec and resource model, over tiny data
/// and a three-device re-cycle of its zoo.
fn miniaturize(sc: &mut Scenario) {
    sc.data.img = 8;
    sc.data.train_n = 96;
    sc.data.test_n = 32;
    sc.set_device_count(3);
    sc.sim.rounds = 2;
    sc.sim.eval_batch = 32;
    if let Some(cfg) = sc.fedzkt_cfg_mut() {
        cfg.local_epochs = 1;
        cfg.distill_iters = 2;
        cfg.transfer_iters = 2;
        cfg.device_batch = 8;
        cfg.distill_batch = 8;
        cfg.generator = GeneratorSpec { z_dim: 8, ngf: 4 };
        cfg.global_model = ModelSpec::SmallCnn { base_channels: 4 };
    }
    if let Some(cfg) = sc.fedavg_cfg_mut() {
        cfg.local_epochs = 1;
        cfg.batch_size = 8;
    }
    if let Some(cfg) = sc.fedmd_cfg_mut() {
        *cfg = FedMdConfig {
            public_warmup_epochs: 1,
            private_warmup_epochs: 1,
            alignment_size: 16,
            digest_epochs: 1,
            revisit_epochs: 1,
            batch_size: 8,
            lr: cfg.lr,
        };
    }
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
}

#[test]
fn every_scenario_file_resumes_bit_identically_miniaturized() {
    // The paper-scale presets are hours of CPU at their written size, so
    // every checked-in file runs through one uniform miniaturization.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("checked-in scenarios directory")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no scenario files found");
    for path in files {
        let mut sc = Scenario::load(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        miniaturize(&mut sc);
        assert_scenario_resumes(&sc);
    }
}

#[test]
fn a_checkpoint_from_a_different_zoo_is_an_error_not_a_panic() {
    // Same seed, same fleet size, same round count — everything
    // `resume_from` itself compares — but every device runs a different
    // architecture than the one its blob was saved from.
    for algo in ["fedzkt", "fedmd", "fedet", "fedgkt"] {
        let mut zoo_a = preset("tiny").expect("tiny preset exists");
        zoo_a.algorithm = standard_algorithm(&zoo_a, algo).expect("a standard config exists");
        miniaturize(&mut zoo_a);
        let mut zoo_b = zoo_a.clone();
        zoo_b.zoo.rotate_left(1);
        assert_ne!(zoo_a.effective_zoo(), zoo_b.effective_zoo());

        let mut first = zoo_a.build().expect("zoo A builds");
        first.round(0);
        let ck = SimCheckpoint::from_json(&first.checkpoint().to_json()).expect("re-parses");

        let mut second = zoo_b.build().expect("zoo B builds");
        let err = second.resume_from(&ck).expect_err("a blob of another architecture must not load");
        assert!(err.starts_with("device 0: "), "{algo}: {err}");
    }
}

#[test]
fn checkpoints_from_a_different_scenario_are_rejected() {
    let tiny = preset("tiny").unwrap();
    let other = preset("churn-lossy").unwrap();
    let ck = other.build().expect("builds").checkpoint();
    let mut sim = tiny.build().expect("builds");
    let err = sim.resume_from(&ck).expect_err("foreign checkpoint must not load");
    assert!(!err.is_empty(), "rejection carries a reason");
}
