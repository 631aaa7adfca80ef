//! Invariants of the federated protocol that hold by design and must hold
//! in the implementation (see the README's "Architecture" section).
//!
//! Since the `Simulation` redesign these are stated once, **at the trait
//! level**, and checked for the whole algorithm family (FedZKT,
//! FedAvg/FedProx, FedMD, Fed-ET, FedGKT): stragglers stay bit-unchanged,
//! and per-round traffic equals the sum of the active devices' own
//! payloads' wire sizes — uplink from `payload_template`, downlink from
//! `downlink_template`, which FedGKT's asymmetric protocol (per-sample
//! features up, soft labels down) keeps honest. FedZKT-specific
//! invariants (server-side size independence, architectural
//! incompatibility of the zoo, distillation effectiveness, probe
//! side-effect freedom) follow below.

use fedzkt::core::{FedMd, FedMdConfig, FedZkt, FedZktConfig};
use fedzkt::data::{Corpus, DataFamily, Dataset, Partition, SynthConfig};
use fedzkt::fl::{
    CodecSpec, ErasedSimulation, FedAvg, FedAvgConfig, FedEt, FedEtConfig, FedGkt, FedGktConfig,
    FederatedAlgorithm, PayloadCodec, SimConfig, Simulation,
};
use fedzkt::models::{GeneratorSpec, ModelSpec};
use fedzkt::nn::{param_bytes, state_dict, StateDict};

/// The full codec grid every trait-level invariant is checked under.
const CODECS: [CodecSpec; 4] = [
    CodecSpec::Raw,
    CodecSpec::QuantQ8,
    CodecSpec::QuantQ4,
    CodecSpec::TopK { density: 0.25 },
];

fn data(seed: u64) -> (Corpus, Dataset) {
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

fn zoo() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Mlp { hidden: 16 },
        ModelSpec::SmallCnn { base_channels: 2 },
        ModelSpec::LeNet { scale: 0.5, deep: false },
    ]
}

fn tiny_cfg() -> FedZktConfig {
    FedZktConfig {
        local_epochs: 1,
        distill_iters: 3,
        transfer_iters: 3,
        device_batch: 16,
        distill_batch: 8,
        device_lr: 0.05,
        generator: GeneratorSpec { z_dim: 16, ngf: 4 },
        global_model: ModelSpec::SmallCnn { base_channels: 4 },
        ..Default::default()
    }
}

fn fedzkt_sim(cfg: FedZktConfig, sim: SimConfig) -> Simulation<FedZkt> {
    let (train, test) = data(21);
    let shards = Partition::Iid.split(train.labels(), 4, 3, 21).unwrap();
    let fed = FedZkt::new(&zoo(), &train, &shards, cfg, &sim);
    Simulation::builder(fed, test, sim).build()
}

fn fedavg_sim(sim: SimConfig) -> Simulation<FedAvg> {
    let (train, test) = data(22);
    let shards = Partition::Iid.split(train.labels(), 4, 3, 22).unwrap();
    let fed = FedAvg::new(
        ModelSpec::Mlp { hidden: 16 },
        &train,
        &shards,
        FedAvgConfig { local_epochs: 1, batch_size: 16, ..Default::default() },
        &sim,
    );
    Simulation::builder(fed, test, sim).build()
}

fn fedmd_sim(sim: SimConfig) -> Simulation<FedMd> {
    let (train, test) = data(23);
    let (public, _) = SynthConfig {
        family: DataFamily::FashionLike,
        img: 8,
        train_n: 64,
        test_n: 8,
        classes: 4,
        seed: 24,
        ..Default::default()
    }
    .generate();
    let shards = Partition::Iid.split(train.labels(), 4, 3, 23).unwrap();
    let fed = FedMd::new(
        &zoo(),
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

fn fedet_sim(sim: SimConfig) -> Simulation<FedEt> {
    let (train, test) = data(25);
    let (public, _) = SynthConfig {
        family: DataFamily::FashionLike,
        img: 8,
        train_n: 64,
        test_n: 8,
        classes: 4,
        seed: 26,
        ..Default::default()
    }
    .generate();
    let shards = Partition::Iid.split(train.labels(), 4, 3, 25).unwrap();
    let fed = FedEt::new(
        &zoo(),
        &train,
        &shards,
        public,
        FedEtConfig {
            local_epochs: 1,
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

fn fedgkt_sim(sim: SimConfig) -> Simulation<FedGkt> {
    let (train, test) = data(27);
    let shards = Partition::Iid.split(train.labels(), 4, 3, 27).unwrap();
    let fed = FedGkt::new(
        &zoo(),
        &train,
        &shards,
        FedGktConfig {
            local_epochs: 1,
            kd_epochs: 1,
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

/// Trait-level invariant 1: devices outside the active set are
/// bit-unchanged by a round — stragglers neither train nor receive
/// updates, in every algorithm.
fn assert_stragglers_untouched<A: FederatedAlgorithm + 'static>(sim: &mut Simulation<A>) {
    let n = sim.devices();
    let before: Vec<_> = (0..n).map(|k| state_dict(sim.algorithm().device_model(k))).collect();
    let metrics = sim.round(0);
    assert!(
        metrics.active_devices.len() < n,
        "test needs genuine stragglers (got {} active of {n})",
        metrics.active_devices.len()
    );
    for (k, snapshot) in before.iter().enumerate() {
        let unchanged = state_dict(sim.algorithm().device_model(k)) == *snapshot;
        assert_eq!(
            unchanged,
            !metrics.active_devices.contains(&k),
            "device {k} active={} unchanged={unchanged}",
            metrics.active_devices.contains(&k)
        );
    }
}

/// Trait-level invariant 2: per-round traffic equals the sum of the
/// active devices' own payloads' **encoded wire sizes** under the run's
/// codec — uplink sized by `payload_template`, downlink by
/// `downlink_template` — and never a function of server-side state.
/// `O(|w_k|)` per device for the model-exchanging algorithms,
/// logit-shaped for FedMD, per-sample-bundle up / soft-labels down for
/// FedGKT. (Every codec's wire size is a pure function of a template's
/// shapes, so both expectations are computable without replaying the
/// round.)
fn assert_traffic_is_wire_sized<A: FederatedAlgorithm + 'static>(sim: &mut Simulation<A>) {
    let codec = sim.config().codec;
    let metrics = sim.round(0);
    let expected_up: u64 = metrics
        .active_devices
        .iter()
        .map(|&k| codec.wire_bytes(&sim.algorithm().payload_template(k)) as u64)
        .sum();
    let expected_down: u64 = metrics
        .active_devices
        .iter()
        .map(|&k| codec.wire_bytes(&sim.algorithm().downlink_template(k)) as u64)
        .sum();
    assert!(expected_up > 0, "payloads must be non-trivial");
    assert!(expected_down > 0, "downlinks must be non-trivial");
    assert_eq!(metrics.upload_bytes, expected_up, "uplink under {codec:?}");
    assert_eq!(metrics.download_bytes, expected_down, "downlink under {codec:?}");
}

/// Every f32 of `sd` in transfer order, as raw bits.
fn bits(sd: &StateDict) -> Vec<u32> {
    sd.iter_tensors().flat_map(|t| t.data().iter().map(|v| v.to_bits())).collect()
}

/// Trait-level invariant 3: between rounds, any device model can be read
/// through [`Simulation::algorithm`] — a straggler as well as an active
/// device — and the read shows the device's `device_{k}` blob in a
/// checkpoint taken just before it, or, for a device the checkpoint holds
/// no blob of, the seeded build (read from `fresh`, a never-run twin).
/// Each distinct device read raises the residency gauge by exactly one.
fn assert_device_models_readable_between_rounds<A: FederatedAlgorithm + 'static>(
    mut sim: Simulation<A>,
    fresh: Simulation<A>,
) {
    let metrics = sim.round(0);
    let active = metrics.active_devices[0];
    let straggler = (0..sim.devices())
        .find(|k| !metrics.active_devices.contains(k))
        .expect("test needs a straggler");
    let ck = sim.checkpoint();
    let registry = || sim.algorithm().registry().expect("a fleet registry");
    let resident = registry().resident();
    for (reads, k) in [straggler, active, straggler, active].into_iter().enumerate() {
        let read = bits(&state_dict(sim.algorithm().device_model(k)));
        let name = format!("device_{k}");
        let expected = if ck.algo.has_blob(&name) {
            ck.algo.dict(&name).expect("a well-formed blob")
        } else {
            state_dict(fresh.algorithm().device_model(k))
        };
        assert_eq!(read, bits(&expected), "device {k} (straggler {straggler})");
        let distinct = reads.min(1) + 1;
        assert_eq!(registry().resident(), resident + distinct, "after reading device {k}");
    }
}

// participation 0.34 of 3 devices → exactly 1 active, 2 stragglers.
fn partial() -> SimConfig {
    SimConfig { rounds: 1, participation: 0.34, seed: 2, ..Default::default() }
}

fn full() -> SimConfig {
    SimConfig { rounds: 1, seed: 2, ..Default::default() }
}

#[test]
fn stragglers_keep_their_stale_models_fedzkt() {
    assert_stragglers_untouched(&mut fedzkt_sim(tiny_cfg(), partial()));
}

/// Device models are read between rounds with no preparation step,
/// in every algorithm that keeps its devices in a fleet.
#[test]
fn device_models_read_between_rounds_show_their_checkpointed_state() {
    // Two rounds with no evaluation before the last: after round one a
    // straggler has been read only where the round itself reads it
    // (FedZKT's game), so both the blob and the seeded-build case occur.
    let cfg = || SimConfig { rounds: 2, eval_every: 0, ..partial() };
    assert_device_models_readable_between_rounds(
        fedzkt_sim(tiny_cfg(), cfg()),
        fedzkt_sim(tiny_cfg(), cfg()),
    );
    assert_device_models_readable_between_rounds(fedmd_sim(cfg()), fedmd_sim(cfg()));
    assert_device_models_readable_between_rounds(fedet_sim(cfg()), fedet_sim(cfg()));
    assert_device_models_readable_between_rounds(fedgkt_sim(cfg()), fedgkt_sim(cfg()));
}

/// Stragglers stay bit-unchanged even when the codec is lossy: the wire
/// round-trip only ever touches *active* devices, in every algorithm.
#[test]
fn stragglers_untouched_under_every_lossy_codec() {
    for codec in CODECS {
        assert_stragglers_untouched(&mut fedzkt_sim(
            tiny_cfg(),
            SimConfig { codec, ..partial() },
        ));
        assert_stragglers_untouched(&mut fedmd_sim(SimConfig { codec, ..partial() }));
        assert_stragglers_untouched(&mut fedet_sim(SimConfig { codec, ..partial() }));
        assert_stragglers_untouched(&mut fedgkt_sim(SimConfig { codec, ..partial() }));
        // FedAvg's shared-model degeneration of the invariant, as above:
        // one active device must still be able to move the global model.
        let mut sim = fedavg_sim(SimConfig { codec, ..partial() });
        let before = state_dict(sim.algorithm().device_model(0));
        sim.round(0);
        assert_ne!(state_dict(sim.algorithm().device_model(0)), before, "{codec:?}");
    }
}

#[test]
fn stragglers_keep_their_stale_models_fedavg() {
    // FedAvg shares one global model across devices, so "device k's model"
    // is the global model for every k; the invariant degenerates to the
    // global model changing only through active devices. A round with one
    // active device must still change it (that device trains).
    let mut sim = fedavg_sim(partial());
    let before = state_dict(sim.algorithm().device_model(0));
    let metrics = sim.round(0);
    assert_eq!(metrics.active_devices.len(), 1);
    assert_ne!(state_dict(sim.algorithm().device_model(0)), before);
}

#[test]
fn stragglers_keep_their_stale_models_fedmd() {
    assert_stragglers_untouched(&mut fedmd_sim(partial()));
}

#[test]
fn traffic_is_wire_sized_fedzkt() {
    for codec in CODECS {
        assert_traffic_is_wire_sized(&mut fedzkt_sim(tiny_cfg(), SimConfig { codec, ..full() }));
    }
    assert_traffic_is_wire_sized(&mut fedzkt_sim(tiny_cfg(), partial()));
}

#[test]
fn traffic_is_wire_sized_fedavg() {
    for codec in CODECS {
        assert_traffic_is_wire_sized(&mut fedavg_sim(SimConfig { codec, ..full() }));
    }
    assert_traffic_is_wire_sized(&mut fedavg_sim(partial()));
}

#[test]
fn traffic_is_wire_sized_fedmd() {
    for codec in CODECS {
        assert_traffic_is_wire_sized(&mut fedmd_sim(SimConfig { codec, ..full() }));
    }
    assert_traffic_is_wire_sized(&mut fedmd_sim(partial()));
}

#[test]
fn stragglers_keep_their_stale_models_fedet() {
    assert_stragglers_untouched(&mut fedet_sim(partial()));
}

#[test]
fn stragglers_keep_their_stale_models_fedgkt() {
    assert_stragglers_untouched(&mut fedgkt_sim(partial()));
}

#[test]
fn traffic_is_wire_sized_fedet() {
    for codec in CODECS {
        assert_traffic_is_wire_sized(&mut fedet_sim(SimConfig { codec, ..full() }));
    }
    assert_traffic_is_wire_sized(&mut fedet_sim(partial()));
}

#[test]
fn traffic_is_wire_sized_fedgkt() {
    for codec in CODECS {
        assert_traffic_is_wire_sized(&mut fedgkt_sim(SimConfig { codec, ..full() }));
    }
    assert_traffic_is_wire_sized(&mut fedgkt_sim(partial()));
}

/// FedGKT's wire payloads are shard-shaped, not model-shaped: the uplink
/// bundle rows scale with the device's sample count, the downlink is
/// soft labels only — so the generalized invariant 2 above genuinely
/// exercises asymmetric templates.
#[test]
fn fedgkt_templates_are_per_sample_and_asymmetric() {
    let sim = fedgkt_sim(full());
    for k in 0..sim.devices() {
        let up = sim.algorithm().payload_template(k);
        let down = sim.algorithm().downlink_template(k);
        let n = sim.algorithm().local_samples(k);
        // features [n, d] + logits [n, C] + labels [n] up; logits [n, C] down.
        assert_eq!(up.params.len(), 3, "device {k}");
        assert_eq!(up.params[0].shape(), &[n, 8], "device {k} features");
        assert_eq!(up.params[1].shape(), &[n, 4], "device {k} logits");
        assert_eq!(up.params[2].shape(), &[n], "device {k} labels");
        assert_eq!(down.params.len(), 1, "device {k}");
        assert_eq!(down.params[0].shape(), &[n, 4], "device {k} soft labels");
        assert!(up.byte_size() > down.byte_size(), "device {k}: uplink must dominate");
    }
}

/// The lossy codecs genuinely shrink what the round charges — the
/// invariant above is not satisfied by everything reporting raw sizes.
#[test]
fn lossy_codecs_record_less_traffic_than_raw() {
    let uplink = |codec| {
        fedzkt_sim(tiny_cfg(), SimConfig { codec, ..full() }).round(0).upload_bytes
    };
    let raw = uplink(CodecSpec::Raw);
    for codec in &CODECS[1..] {
        let lossy = uplink(*codec);
        // The weakest grid member is top-k at density 0.25 (8 bytes per
        // kept element ⇒ asymptotically 2×); everything must clear 1.5×.
        assert!(3 * lossy < 2 * raw, "{codec:?}: {lossy} vs raw {raw}");
    }
}

/// FedZKT's payloads really are state-dict shaped (the `O(|w_k|)` claim
/// in its concrete form), and FedMD's really are logit-shaped — so
/// invariant 2 above is not vacuously true.
#[test]
fn payload_semantics_per_algorithm() {
    let sim = fedzkt_sim(tiny_cfg(), full());
    for k in 0..sim.devices() {
        assert_eq!(
            sim.algorithm().payload_template(k).byte_size(),
            state_dict(sim.algorithm().device_model(k)).byte_size()
        );
    }
    let sim = fedmd_sim(full());
    // 32 alignment samples × 4 classes × 4 bytes, identical for every k.
    for k in 0..sim.devices() {
        let template = sim.algorithm().payload_template(k);
        assert_eq!(template.byte_size(), 32 * 4 * 4);
        assert_eq!(template.params[0].shape(), &[32, 4]);
    }
}

/// The resource-constrained-device claim: per-device traffic is the size of
/// that device's own model — independent of the global model and generator
/// sizes, which live only at the server.
#[test]
fn device_traffic_independent_of_server_model_sizes() {
    let mut sim = fedzkt_sim(tiny_cfg(), full());
    let metrics = sim.round(0);

    // Inflating the server-side models must not change device traffic.
    let big_cfg = FedZktConfig {
        generator: GeneratorSpec { z_dim: 64, ngf: 16 },
        global_model: ModelSpec::SmallCnn { base_channels: 16 },
        ..tiny_cfg()
    };
    let mut big_sim = fedzkt_sim(big_cfg, full());
    let big_metrics = big_sim.round(0);
    assert_eq!(big_metrics.upload_bytes, metrics.upload_bytes);
    assert_eq!(big_metrics.download_bytes, metrics.download_bytes);
    assert!(
        param_bytes(big_sim.algorithm().global_model().unwrap())
            > param_bytes(sim.algorithm().global_model().unwrap()),
        "sanity: the big config really is bigger"
    );
}

/// Model heterogeneity is real: the zoo members have pairwise different
/// parameter layouts, so FedAvg-style element-wise averaging is impossible.
#[test]
fn zoo_is_architecturally_incompatible() {
    let sim = fedzkt_sim(tiny_cfg(), full());
    let k = sim.devices();
    for a in 0..k {
        for b in (a + 1)..k {
            let sa = state_dict(sim.algorithm().device_model(a));
            let sb = state_dict(sim.algorithm().device_model(b));
            let layout = |sd: &StateDict| -> Vec<Vec<usize>> {
                sd.params.iter().map(|t| t.shape().to_vec()).collect()
            };
            assert_ne!(layout(&sa), layout(&sb), "devices {a} and {b} share a layout");
        }
    }
}

/// The server's bidirectional transfer must actually move information:
/// after one round every *active* device's parameters differ from the
/// pure-local-training counterfactual.
#[test]
fn server_distillation_changes_device_models() {
    let with_server = {
        let mut sim = fedzkt_sim(tiny_cfg(), full());
        sim.round(0);
        state_dict(sim.algorithm().device_model(0))
    };
    let without_server = {
        let cfg = FedZktConfig { distill_iters: 0, transfer_iters: 0, ..tiny_cfg() };
        let mut sim = fedzkt_sim(cfg, full());
        sim.round(0);
        state_dict(sim.algorithm().device_model(0))
    };
    assert_ne!(with_server, without_server, "server update had no effect on device 0");
}

/// All models stay finite through the adversarial game (failure injection:
/// the logit-ℓ1 loss with a high LR is the most explosion-prone setting).
#[test]
fn training_stays_finite_under_aggressive_settings() {
    let cfg = FedZktConfig {
        loss: fedzkt::core::DistillLoss::LogitL1,
        server_lr: 0.1,
        generator_lr: 0.01,
        ..tiny_cfg()
    };
    let mut sim = fedzkt_sim(cfg, SimConfig { rounds: 2, ..full() });
    sim.run();
    let k = sim.devices();
    for d in 0..k {
        for p in sim.algorithm().device_model(d).params() {
            assert!(p.value().all_finite(), "device {d} has non-finite parameters");
        }
    }
    for p in sim.algorithm().global_model().unwrap().params() {
        assert!(p.value().all_finite(), "global model has non-finite parameters");
    }
}

/// Probing gradients (Fig. 2) must not perturb training: a probed run and
/// an unprobed run produce identical models.
#[test]
fn probe_is_side_effect_free() {
    let mut probed = fedzkt_sim(FedZktConfig { probe_grad_norms: true, ..tiny_cfg() }, full());
    let mut plain = fedzkt_sim(FedZktConfig { probe_grad_norms: false, ..tiny_cfg() }, full());
    probed.round(0);
    plain.round(0);
    assert_eq!(
        state_dict(probed.algorithm().device_model(0)),
        state_dict(plain.algorithm().device_model(0)),
        "probe changed training trajectory"
    );
}
