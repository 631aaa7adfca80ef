//! Checkpointing a live federated run through the binary wire format:
//! the round-trip a real deployment would do when persisting device models
//! between rounds (or actually transmitting them).

use fedzkt::core::{FedZkt, FedZktConfig};
use fedzkt::data::{DataFamily, Partition, SynthConfig};
use fedzkt::fl::{
    ErasedSimulation, FedGkt, FedGktConfig, FederatedAlgorithm, SimConfig, Simulation,
};
use fedzkt::models::{GeneratorSpec, ModelSpec};
use fedzkt::nn::{
    decode_state_dict, encode_state_dict, load_state_dict, state_dict,
};

fn tiny_run() -> Simulation<FedZkt> {
    let (train, test) = SynthConfig {
        family: DataFamily::MnistLike,
        img: 8,
        train_n: 96,
        test_n: 48,
        classes: 4,
        seed: 31,
        ..Default::default()
    }
    .generate_corpus();
    let shards = Partition::Iid.split(train.labels(), 4, 3, 31).unwrap();
    let zoo = vec![
        ModelSpec::Mlp { hidden: 16 },
        ModelSpec::SmallCnn { base_channels: 2 },
        ModelSpec::LeNet { scale: 0.5, deep: false },
    ];
    let sim_cfg = SimConfig { rounds: 1, seed: 31, ..Default::default() };
    let fed = FedZkt::new(
        &zoo,
        &train,
        &shards,
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
        },
        &sim_cfg,
    );
    Simulation::builder(fed, test, sim_cfg).build()
}

#[test]
fn mid_run_device_models_survive_the_wire_format() {
    let mut sim = tiny_run();
    sim.round(0);
    let fed = sim.algorithm();
    // "Transmit" every trained device model through the binary format and
    // load it into a freshly built twin of the same architecture.
    for k in 0..fed.devices() {
        let sd = state_dict(fed.device_model(k));
        let bytes = encode_state_dict(&sd);
        // On-wire size is exactly what the comm accounting assumes, plus a
        // bounded header (16 B) and per-tensor dims.
        assert!(bytes.len() >= sd.byte_size());
        assert!(bytes.len() <= sd.byte_size() + 64 * (sd.params.len() + sd.buffers.len() + 1));
        let decoded = decode_state_dict(&bytes).unwrap();
        assert_eq!(sd, decoded, "device {k}: wire round-trip lost data");
        let twin = fed.device_spec(k).build(1, 4, 8, 999);
        load_state_dict(twin.as_ref(), &decoded).unwrap();
        assert_eq!(state_dict(twin.as_ref()), sd, "device {k}: twin differs");
    }
}

fn tiny_gkt_run(seed: u64) -> Simulation<FedGkt> {
    let (train, test) = SynthConfig {
        family: DataFamily::MnistLike,
        img: 8,
        train_n: 96,
        test_n: 48,
        classes: 4,
        seed: 31,
        ..Default::default()
    }
    .generate_corpus();
    let shards = Partition::Iid.split(train.labels(), 4, 3, 31).unwrap();
    let zoo = vec![
        ModelSpec::Mlp { hidden: 16 },
        ModelSpec::SmallCnn { base_channels: 2 },
        ModelSpec::LeNet { scale: 0.5, deep: false },
    ];
    let sim_cfg = SimConfig { rounds: 1, seed, ..Default::default() };
    let fed = FedGkt::new(
        &zoo,
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
        &sim_cfg,
    );
    Simulation::builder(fed, test, sim_cfg).build()
}

#[test]
fn fedgkt_split_models_survive_the_wire_format() {
    // FedGKT's per-device state is a *composite* — zoo extractor plus a
    // linear head trained against server soft labels — and the server
    // carries its own classifier head. Both sides must survive the same
    // binary format the monolithic models use, and restore into a
    // differently-seeded twin federation bit for bit.
    let mut sim = tiny_gkt_run(31);
    sim.round(0);
    let twin = tiny_gkt_run(777);
    for k in 0..sim.devices() {
        let sd = state_dict(sim.algorithm().device_model(k));
        let decoded = decode_state_dict(&encode_state_dict(&sd)).unwrap();
        assert_eq!(sd, decoded, "device {k}: split-model wire round-trip lost data");
        assert_ne!(
            state_dict(twin.algorithm().device_model(k)),
            sd,
            "device {k}: twin seed must actually differ for the restore to mean anything"
        );
        load_state_dict(twin.algorithm().device_model(k), &decoded).unwrap();
        assert_eq!(state_dict(twin.algorithm().device_model(k)), sd, "device {k}: twin differs");
    }
    // The server head travels the same path.
    let head = state_dict(sim.algorithm().server_head());
    let decoded = decode_state_dict(&encode_state_dict(&head)).unwrap();
    load_state_dict(twin.algorithm().server_head(), &decoded).unwrap();
    assert_eq!(state_dict(twin.algorithm().server_head()), head, "server head differs");
}

#[test]
fn checkpoint_files_resume_training() {
    // Run one round and encode device 0 as a checkpoint file embeds it.
    let mut sim = tiny_run();
    sim.round(0);
    let fed = sim.algorithm();
    let bytes = encode_state_dict(&state_dict(fed.device_model(0)));

    // "Restart": rebuild the architecture, restore, verify behavioural
    // equivalence on a fixed input.
    let restored = fed.device_spec(0).build(1, 4, 8, 12345);
    let loaded = decode_state_dict(&bytes).unwrap();
    load_state_dict(restored.as_ref(), &loaded).unwrap();
    let x = fedzkt::autograd::Var::constant(fedzkt::tensor::Tensor::ones(&[2, 1, 8, 8]));
    restored.set_training(false);
    fed.device_model(0).set_training(false);
    let a = fedzkt::autograd::no_grad(|| restored.forward(&x)).value_clone();
    let b = fedzkt::autograd::no_grad(|| fed.device_model(0).forward(&x)).value_clone();
    assert_eq!(a.data(), b.data());
}

#[test]
fn corrupted_checkpoint_is_rejected_not_loaded() {
    let mut sim = tiny_run();
    sim.round(0);
    let fed = sim.algorithm();
    let sd = state_dict(fed.device_model(1));
    let mut bytes = encode_state_dict(&sd).to_vec();
    // Flip a header byte (tensor count) — must fail cleanly.
    bytes[8] = bytes[8].wrapping_add(1);
    assert!(decode_state_dict(&bytes).is_err());
    // Loading a valid dict of the WRONG architecture must also fail and
    // leave the target untouched.
    let other_arch = fed.device_spec(0).build(1, 4, 8, 7);
    let before = state_dict(other_arch.as_ref());
    assert!(load_state_dict(other_arch.as_ref(), &sd).is_err());
    assert_eq!(state_dict(other_arch.as_ref()), before);
}

#[test]
fn every_paper_zoo_architecture_survives_a_file_roundtrip() {
    // The encode→decode path checkpoint files embed must be lossless for
    // every architecture a device can pick: the small zoo (1-channel
    // input) and the CIFAR zoo, whose ShuffleNetV2/MobileNetV2 members
    // carry batch-norm running-stat buffers — the part of a state dict
    // most easily lost in a wire format.
    let zoos = [
        (ModelSpec::paper_zoo_small(), 1usize),
        (ModelSpec::paper_zoo_cifar(), 3usize),
    ];
    for (zoo, in_channels) in &zoos {
        for (i, spec) in zoo.iter().enumerate() {
            let model = spec.build(*in_channels, 10, 8, 1000 + i as u64);
            let sd = state_dict(model.as_ref());
            let loaded = decode_state_dict(&encode_state_dict(&sd)).unwrap();
            assert_eq!(sd, loaded, "{}: round-trip lost data", spec.name());
            // Restoring into a differently-seeded twin reproduces the exact
            // state dict, so a checkpoint fully determines the model.
            let twin = spec.build(*in_channels, 10, 8, 9_999);
            load_state_dict(twin.as_ref(), &loaded).unwrap();
            assert_eq!(
                state_dict(twin.as_ref()),
                sd,
                "{}: restored twin differs",
                spec.name()
            );
        }
    }
}
