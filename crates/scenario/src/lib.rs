//! # fedzkt-scenario
//!
//! The declarative experiment layer of the FedZKT reproduction: one
//! serializable [`Scenario`] value describes everything the paper's
//! evaluation grid (§IV) varies — dataset family, partition skew
//! (IID / c-quantity / Dirichlet β), heterogeneous device zoo, simulated
//! hardware, straggler portion, device count, algorithm — and one erased
//! runner executes it:
//!
//! ```
//! use fedzkt_scenario::{preset, Scenario};
//!
//! // By name from the registry, or from JSON on disk:
//! let scenario = preset("tiny").unwrap();
//! let json = scenario.to_json();
//! assert_eq!(Scenario::from_json(&json).unwrap(), scenario);
//!
//! // One call from description to RunLog, regardless of the algorithm:
//! let log = scenario.run().unwrap();
//! assert_eq!(log.rounds.len(), scenario.sim.rounds);
//! ```
//!
//! ## Anatomy of a scenario
//!
//! * [`Scenario::data`] — a [`DataSpec`] naming the synthetic family and
//!   its geometry; datasets are derived from the run seed at run time, so
//!   a seed sweep re-derives everything.
//! * [`Scenario::partition`] — the §IV-A4 skew
//!   ([`Partition`](fedzkt_data::Partition)).
//! * [`Scenario::zoo`] — `(architecture, count)` pairs; the paper's core
//!   premise is that these need not agree across devices.
//! * [`Scenario::registered_devices`] — optional cross-device population
//!   override: `0` means the zoo expansion *is* the fleet; a positive
//!   value registers that many devices, re-cycling the zoo's
//!   architectures over them ([`Scenario::effective_zoo`]). A device is
//!   a spec and a small slot, not a resident model
//!   (`fedzkt_fl::fleet`), so the `mega-fleet` preset registers 10⁶
//!   devices this way.
//! * [`Scenario::resources`] — optional simulated hardware
//!   ([`ResourceSpec`]); attaching it populates `sim_seconds` in the log,
//!   including transfer time for the codec-encoded payloads over each
//!   device's links (optionally pinned by a [`LinkBandwidth`] override,
//!   where `+∞` spells an unlimited link).
//! * [`Scenario::churn`] — optional fleet dynamics
//!   ([`ChurnSpec`](fedzkt_fl::ChurnSpec)): device arrival/departure,
//!   duty-cycle availability, mid-round dropout, time-varying link
//!   bandwidth. Every draw is a pure function of `(spec, device, round)`,
//!   so the timeline is identical across thread counts, shard sizes and
//!   checkpoint/resume, and a million-device fleet pays O(1) memory for
//!   it. `None` (the field is omitted from JSON) is the static fleet
//!   every pre-churn file describes.
//! * [`Scenario::algorithm`] — [`Algo`]: FedZKT, FedAvg, FedProx or FedMD
//!   with their hyperparameters.
//! * [`Scenario::sim`] — the protocol knobs every algorithm shares
//!   ([`SimConfig`](fedzkt_fl::SimConfig)), including the wire-format
//!   codec ([`CodecSpec`](fedzkt_fl::CodecSpec)) every payload passes
//!   through.
//!
//! Degenerate descriptions (empty zoo, more devices than samples, a
//! quantity skew asking for more classes than exist…) are rejected by
//! [`Scenario::validate`] with a typed [`ScenarioError`] before any data
//! is generated.
//!
//! ## Adding a new preset
//!
//! 1. Write a `fn my_preset() -> Scenario` in `registry.rs` — start from
//!    [`Scenario::standard`] (the paper's standard setup for a family /
//!    partition / [`Tier`]) and override fields. For a cross-device
//!    preset, set `registered_devices` to the population size (the zoo
//!    then describes the architecture mix, not the head count) — see
//!    `mega_fleet()` for the pattern; leave it at `0` for paper-scale
//!    fleets. For a dynamic fleet, attach a
//!    [`ChurnSpec`](fedzkt_fl::ChurnSpec): start from
//!    `ChurnSpec::default()` (quiescent) and set only the dynamics you
//!    want — an `arrival_window`/`mean_lifetime` for flash crowds
//!    (`churn_flash_crowd()`), a `dropout` probability and
//!    `bandwidth_floor` for lossy fleets (`churn_lossy()`). Give the
//!    churn model its own `seed` so a master-seed sweep can hold the
//!    fleet dynamics fixed. A quiescent spec is dropped at build time, so
//!    it is always safe to attach.
//! 2. Append a [`Preset`] entry to [`presets`] with a unique name and a
//!    one-line description.
//! 3. Regenerate its golden file:
//!    `cargo run -p fedzkt_scenario --bin scenarios -- describe my-preset --json > scenarios/my-preset.json`.
//!    The golden-file test (`tests/golden.rs`) and CI keep the file in
//!    sync with the registry from then on.
//!
//! ## The `scenarios` CLI
//!
//! `cargo run -p fedzkt_scenario --bin scenarios -- <subcommand>`:
//!
//! * `list` — the preset registry;
//! * `describe <name|file> [--json]` — summary or canonical JSON;
//! * `run <name|file>` — execute, writing `<name>.csv` + `<name>.json`
//!   artifacts (`--codec q8` overrides the wire format for one run;
//!   `--checkpoint-every N` snapshots
//!   `<out>/<name>.ckpt`, `--halt-at-round K` stops early with a
//!   checkpoint, and `--resume FILE` continues one — the resumed log is
//!   bit-identical to an uninterrupted run; a snapshot is resumed only
//!   beside the `<name>.stamp` of the scenario being run);
//! * `sweep <name|file> --seeds 1,2 --codecs raw,q8,q4,topk:0.1 …` —
//!   expand grid axes into child scenarios and execute them
//!   fleet-parallel;
//! * `serve <name|file> [axes]` — the durable form of `sweep`: a job
//!   queue whose state is the artifact directory itself (a
//!   `<name>.stamp` naming the cell's scenario by the FNV-64 of its
//!   canonical JSON, plus `<name>.json` holding every round = done, or
//!   `<name>.ckpt` = half-run; anything else, an edited scenario under
//!   the same name included, = fresh), so a killed process loses at most
//!   `--checkpoint-every` rounds per in-flight cell and a restart picks
//!   up exactly where it stopped; panicking cells are isolated and
//!   reported, and
//!   `--stop-after N` bounds one invocation's work;
//! * `repro <target|list> [--scale tiny|quick|paper] [--seed N]
//!   [--threads N] [--out DIR]` — regenerate one table or figure of the
//!   paper's evaluation from the [`repro`] table of targets.

#![warn(missing_docs)]

mod error;
mod registry;
pub mod repro;
mod serial;
mod spec;

pub use error::ScenarioError;
pub use registry::{
    fedmd_public_family, preset, presets, resolve, standard_algorithm, standard_zoo, Preset, Scale,
    Tier,
};
pub use spec::{
    run_cells, Algo, DataSpec, LinkBandwidth, Materialized, ResourceAssignment, ResourceSpec,
    Scenario,
};

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_data::{Partition, PartitionError};
    use fedzkt_fl::FedAvgConfig;
    use fedzkt_models::ModelSpec;

    fn base() -> Scenario {
        preset("tiny").expect("tiny preset exists")
    }

    #[test]
    fn tiny_preset_runs_end_to_end() {
        let sc = base();
        let log = sc.run().unwrap();
        assert_eq!(log.rounds.len(), sc.sim.rounds);
        assert!(log.final_accuracy() >= 0.0);
    }

    #[test]
    fn empty_zoo_is_a_typed_error() {
        let mut sc = base();
        sc.zoo.clear();
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidZoo(_))));
    }

    #[test]
    fn zero_count_zoo_entry_is_a_typed_error() {
        let mut sc = base();
        sc.zoo[0].1 = 0;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidZoo(_))));
    }

    #[test]
    fn more_devices_than_samples_is_a_typed_error() {
        let mut sc = base();
        sc.data.train_n = 2;
        assert!(matches!(
            sc.validate(),
            Err(ScenarioError::Partition(PartitionError::NotEnoughSamples { samples: 2, .. }))
        ));
    }

    #[test]
    fn zero_samples_is_a_typed_error() {
        let mut sc = base();
        sc.data.train_n = 0;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidData(_))));
        let mut sc = base();
        sc.data.test_n = 0;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidData(_))));
    }

    #[test]
    fn indivisible_image_side_is_a_typed_error() {
        let mut sc = base();
        sc.data.img = 10;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidData(_))));
    }

    #[test]
    fn overflowing_image_geometry_is_a_typed_error() {
        // `img²` alone overflows a 64-bit `usize` here.
        let mut sc = base();
        sc.data.img = 1 << 32;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidData(_))));
        assert!(matches!(sc.materialize(), Err(ScenarioError::InvalidData(_))));
        // `img²·C` fits, `img²·C·n` does not, for either split.
        let mut sc = base();
        sc.data.img = 1 << 16;
        sc.data.train_n = 1 << 32;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidData(_))));
        let mut sc = base();
        sc.data.img = 1 << 16;
        sc.data.test_n = 1 << 32;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidData(_))));
    }

    #[test]
    fn too_many_classes_per_device_is_a_typed_error() {
        let mut sc = base();
        sc.partition = Partition::QuantitySkew { classes_per_device: 11 };
        assert!(matches!(
            sc.validate(),
            Err(ScenarioError::Partition(PartitionError::InvalidParameter(_)))
        ));
        sc.partition = Partition::QuantitySkew { classes_per_device: 0 };
        assert!(sc.validate().is_err());
    }

    #[test]
    fn non_positive_beta_is_a_typed_error() {
        for beta in [0.0f32, -1.0, f32::NAN] {
            let mut sc = base();
            sc.partition = Partition::Dirichlet { beta };
            assert!(
                matches!(
                    sc.validate(),
                    Err(ScenarioError::Partition(PartitionError::InvalidParameter(_)))
                ),
                "beta {beta}"
            );
        }
    }

    #[test]
    fn degenerate_sim_config_is_a_typed_error() {
        let mut sc = base();
        sc.sim.rounds = 0;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidSim(_))));
        let mut sc = base();
        sc.sim.participation = 0.0;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidSim(_))));
        let mut sc = base();
        sc.sim.participation = 1.5;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidSim(_))));
    }

    #[test]
    fn explicit_resource_mismatch_is_a_typed_error() {
        let mut sc = base();
        sc.resources = Some(ResourceSpec {
            assignment: ResourceAssignment::Explicit(vec![
                fedzkt_fl::DeviceResources::smartphone(),
            ]),
            bandwidth: None,
            server_seconds: 0.0,
        });
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidResources(_))));
    }

    #[test]
    fn malformed_codec_is_a_typed_error() {
        use fedzkt_fl::CodecSpec;
        for density in [0.0f32, -0.5, 1.5, f32::NAN] {
            let mut sc = base();
            sc.sim.codec = CodecSpec::TopK { density };
            assert!(
                matches!(sc.validate(), Err(ScenarioError::InvalidSim(_))),
                "density {density}"
            );
        }
        let mut sc = base();
        sc.sim.codec = CodecSpec::TopK { density: 0.5 };
        sc.validate().unwrap();
    }

    #[test]
    fn malformed_bandwidth_is_a_typed_error() {
        let with_bw = |up: f32, down: f32| {
            let mut sc = base();
            sc.resources = Some(ResourceSpec {
                assignment: ResourceAssignment::Smartphone,
                bandwidth: Some(LinkBandwidth { up_bytes_per_sec: up, down_bytes_per_sec: down }),
                server_seconds: 0.0,
            });
            sc
        };
        for (up, down) in [(0.0f32, 1e5), (1e5, -1.0), (f32::NAN, 1e5), (1e5, f32::NEG_INFINITY)]
        {
            assert!(
                matches!(with_bw(up, down).validate(), Err(ScenarioError::InvalidResources(_))),
                "({up}, {down})"
            );
        }
        // +inf is the documented unlimited-link spelling, and it survives
        // a save/load cycle as such (serialized as null).
        let sc = with_bw(f32::INFINITY, 4e6);
        sc.validate().unwrap();
        let back = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(back, sc);
        back.validate().unwrap();
    }

    /// Satellite regression for the raw-f32 accounting bug: the reported
    /// traffic must be the *codec wire size*, so int8 quantization shows
    /// up as ≈¼ the raw traffic on the same scenario — in the RunLog and
    /// therefore in every artifact derived from it.
    #[test]
    fn quant_q8_traffic_is_about_a_quarter_of_raw_on_tiny() {
        use fedzkt_fl::CodecSpec;
        let mut sc = base();
        sc.sim.rounds = 1;
        let raw = sc.run().unwrap();
        sc.sim.codec = CodecSpec::QuantQ8;
        let q8 = sc.run().unwrap();
        let ratio = raw.rounds[0].upload_bytes as f64 / q8.rounds[0].upload_bytes as f64;
        assert!(
            (3.2..=4.0).contains(&ratio),
            "expected ≈4× uplink shrink under q8, got {ratio:.2} ({} vs {} bytes)",
            raw.rounds[0].upload_bytes,
            q8.rounds[0].upload_bytes
        );
        let down_ratio = raw.rounds[0].download_bytes as f64 / q8.rounds[0].download_bytes as f64;
        assert!((3.2..=4.0).contains(&down_ratio), "downlink ratio {down_ratio:.2}");
    }

    #[test]
    fn heterogeneous_zoo_under_fedavg_is_a_typed_error() {
        let mut sc = base();
        sc.algorithm = Algo::FedAvg(FedAvgConfig::default());
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidZoo(_))));
        // Homogeneous zoo: accepted.
        sc.zoo = vec![(ModelSpec::Mlp { hidden: 8 }, 3)];
        sc.validate().unwrap();
        // …but a proximal term under the plain FedAvg variant is not.
        sc.algorithm = Algo::FedAvg(FedAvgConfig { prox_mu: 0.1, ..Default::default() });
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidAlgorithm(_))));
        sc.algorithm = Algo::FedProx(FedAvgConfig { prox_mu: 0.0, ..Default::default() });
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidAlgorithm(_))));
    }

    #[test]
    fn non_finite_hyperparameters_are_a_typed_error() {
        let mut sc = base();
        sc.fedzkt_cfg_mut().unwrap().device_lr = f32::NAN;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidAlgorithm(_))));
        // The canonical serialization has no non-finite literal; the null
        // it emits reads back as NaN, which validation then rejects — so a
        // degenerate description cannot slip through a save/load cycle.
        let back = Scenario::from_json(&sc.to_json()).expect("null parses back");
        assert!(back.fedzkt_cfg().unwrap().device_lr.is_nan());
        assert!(matches!(back.validate(), Err(ScenarioError::InvalidAlgorithm(_))));
        // +inf server throughput is the documented exception and is legal.
        let mut sc = base();
        sc.fedzkt_cfg_mut().unwrap().server_samples_per_sec = f32::INFINITY;
        sc.validate().unwrap();
        // …but only +inf: a NaN throughput must not come back from a
        // save/load cycle wearing the free-server spelling.
        sc.fedzkt_cfg_mut().unwrap().server_samples_per_sec = f32::NAN;
        assert!(sc.validate().is_err());
        let back = Scenario::from_json(&sc.to_json()).unwrap();
        assert!(back.validate().is_err(), "NaN throughput resurfaced as valid");
    }

    #[test]
    fn path_escaping_names_are_a_typed_error() {
        for name in ["../evil", "a/b", "..", ".hidden", "-flag", "", "a b"] {
            let mut sc = base();
            sc.name = name.to_string();
            assert!(
                matches!(sc.validate(), Err(ScenarioError::InvalidData(_))),
                "name {name:?} should be rejected"
            );
        }
        let mut sc = base();
        sc.name = "tiny_s1_p0.5".to_string();
        sc.validate().unwrap();
    }

    #[test]
    fn one_sample_shards_are_legal_not_an_error() {
        // train_n == devices is extreme but well-formed: every device gets
        // exactly one sample and the run proceeds.
        let mut sc = base();
        sc.data.train_n = sc.devices();
        sc.validate().unwrap();
        let m = sc.materialize().unwrap();
        assert!(m.shards.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn erased_runner_covers_all_four_algorithms() {
        // One Vec, four algorithms — the collection the erased runner
        // exists for. Kept tiny so the whole matrix stays test-suite fast.
        let mut scenarios = Vec::new();
        let mut zkt = base();
        zkt.sim.rounds = 1;
        scenarios.push(zkt);
        for name in ["fedavg-lcd", "fedprox-noniid", "fedmd-public"] {
            let mut sc = preset(name).unwrap();
            sc.data = base().data;
            sc.set_device_count(3);
            sc.sim.rounds = 1;
            if let Some(cfg) = sc.fedmd_cfg_mut() {
                cfg.alignment_size = 16;
                cfg.public_warmup_epochs = 1;
                cfg.private_warmup_epochs = 1;
                cfg.revisit_epochs = 1;
            }
            scenarios.push(sc);
        }
        let sims: Vec<_> = scenarios.iter().map(|sc| sc.build().unwrap()).collect();
        for (sc, mut sim) in scenarios.iter().zip(sims) {
            let log = sim.run();
            assert_eq!(log.rounds.len(), 1, "{}", sc.name);
        }
    }

    #[test]
    fn degenerate_model_specs_are_a_typed_error() {
        let mut sc = base();
        sc.zoo[0].0 = ModelSpec::LeNet { scale: f32::NAN, deep: false };
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidZoo(_))));
        let mut sc = base();
        sc.zoo[0].0 = ModelSpec::MobileNetV2 { width: -0.5 };
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidZoo(_))));
        let mut sc = base();
        sc.fedzkt_cfg_mut().unwrap().global_model = ModelSpec::ShuffleNetV2 { size: 0.0 };
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidAlgorithm(_))));
        let mut sc = base();
        sc.fedzkt_cfg_mut().unwrap().generator.z_dim = 0;
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidAlgorithm(_))));
    }

    #[test]
    fn fedmd_channel_mismatch_is_a_typed_error() {
        // MNIST private data (1 channel) cannot be paired with a CIFAR-100
        // public corpus (3 channels): devices score the public set with
        // models built for the private geometry.
        let mut sc = preset("fedmd-public").unwrap();
        match &mut sc.algorithm {
            Algo::FedMd { public, .. } => *public = fedzkt_data::DataFamily::Cifar100Like,
            other => panic!("fedmd-public runs {}", other.name()),
        }
        assert!(matches!(sc.validate(), Err(ScenarioError::InvalidAlgorithm(_))));
    }

    #[test]
    fn unknown_preset_is_a_typed_error() {
        assert!(matches!(
            resolve("no-such-preset"),
            Err(ScenarioError::UnknownPreset(_))
        ));
        assert!(matches!(
            resolve("definitely/not/a/file.json"),
            Err(ScenarioError::Io(_))
        ));
    }
}
