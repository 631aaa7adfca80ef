//! Workload tiers, standard scenario construction, and the named preset
//! registry.
//!
//! [`Scenario::standard`] is the single place the paper's standard
//! evaluation setup (§IV-A) is encoded — the per-family model zoos, the
//! tier-scaled dataset/round/iteration sizes, and the learning rates tuned
//! for each tier. Everything downstream (examples, the
//! [`repro`](crate::repro) targets, sweeps) derives its scenarios from here
//! or from the [`presets`] built on top, instead of hand-wiring datasets
//! and configs.

use crate::{
    Algo, DataSpec, LinkBandwidth, ResourceAssignment, ResourceSpec, Scenario, ScenarioError,
};
use fedzkt_core::{FedMdConfig, FedZktConfig};
use fedzkt_data::{DataFamily, Partition};
use fedzkt_fl::{
    ChurnSpec, CodecSpec, FedAvgConfig, FedEtConfig, FedGktConfig, SimConfig,
};
use fedzkt_models::{GeneratorSpec, ModelSpec};

/// Workload tier: how much compute an experiment spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Minutes-scale CPU runs (default), preserving the paper's qualitative
    /// shapes.
    Quick,
    /// Seconds-scale smoke runs (CI-friendly).
    Tiny,
    /// The paper's §IV-A3 parameters (hours on CPU).
    Paper,
}

/// Tier-dependent scale parameters for one dataset family.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Device count `K`.
    pub devices: usize,
    /// Communication rounds `T`.
    pub rounds: usize,
    /// Local epochs `T_l`.
    pub local_epochs: usize,
    /// Server distillation iterations `nD`.
    pub distill_iters: usize,
    /// Image side length.
    pub img: usize,
    /// Training samples.
    pub train_n: usize,
    /// Test samples.
    pub test_n: usize,
    /// Batch size.
    pub batch: usize,
}

impl Scale {
    /// Scale for a family and tier.
    pub fn for_family(family: DataFamily, tier: Tier) -> Scale {
        let cifar = matches!(family, DataFamily::Cifar10Like);
        match tier {
            Tier::Paper => Scale {
                devices: 10,
                rounds: if cifar { 100 } else { 50 },
                local_epochs: if cifar { 10 } else { 5 },
                distill_iters: if cifar { 500 } else { 200 },
                img: if cifar { 32 } else { 28 },
                train_n: 50_000,
                test_n: 10_000,
                batch: 256,
            },
            Tier::Quick => Scale {
                devices: 5,
                rounds: if cifar { 8 } else { 7 },
                local_epochs: 2,
                distill_iters: if cifar { 20 } else { 14 },
                img: 12,
                train_n: 600,
                test_n: 300,
                batch: 32,
            },
            Tier::Tiny => Scale {
                devices: 3,
                rounds: 2,
                local_epochs: 1,
                distill_iters: 4,
                img: 8,
                train_n: 120,
                test_n: 60,
                batch: 16,
            },
        }
    }

    /// The standard FedZKT configuration at this scale.
    ///
    /// Learning rates: the paper's values (0.01 / 1e-3) are tuned for
    /// `nD` = 200–500 server iterations; the reduced tiers compensate with
    /// proportionally larger steps.
    pub fn fedzkt_config(&self, family: DataFamily, tier: Tier) -> FedZktConfig {
        let global_model = if family == DataFamily::Cifar10Like {
            ModelSpec::MobileNetV2 { width: 1.0 }
        } else {
            ModelSpec::SmallCnn { base_channels: 8 }
        };
        let generator = match tier {
            Tier::Paper => GeneratorSpec { z_dim: 100, ngf: 32 },
            Tier::Quick => GeneratorSpec { z_dim: 32, ngf: 8 },
            Tier::Tiny => GeneratorSpec { z_dim: 16, ngf: 4 },
        };
        FedZktConfig {
            local_epochs: self.local_epochs,
            distill_iters: self.distill_iters,
            transfer_iters: self.distill_iters,
            device_batch: self.batch,
            distill_batch: self.batch,
            device_lr: if tier == Tier::Paper { 0.01 } else { 0.05 },
            server_lr: 0.01,
            transfer_lr: 0.01,
            generator_lr: 1e-3,
            generator,
            global_model,
            ..Default::default()
        }
    }

    /// The standard FedMD configuration at this scale.
    pub fn fedmd_config(&self, tier: Tier) -> FedMdConfig {
        FedMdConfig {
            public_warmup_epochs: self.local_epochs,
            private_warmup_epochs: self.local_epochs,
            alignment_size: (self.train_n / 4).clamp(32, 5000),
            digest_epochs: 1,
            revisit_epochs: self.local_epochs,
            batch_size: self.batch,
            lr: if tier == Tier::Paper { 0.01 } else { 0.05 },
        }
    }

    /// The standard homogeneous-baseline (FedAvg/FedProx) configuration at
    /// this scale.
    pub fn fedavg_config(&self, tier: Tier) -> FedAvgConfig {
        FedAvgConfig {
            local_epochs: self.local_epochs,
            batch_size: self.batch,
            lr: if tier == Tier::Paper { 0.01 } else { 0.05 },
            ..Default::default()
        }
    }

    /// The standard Fed-ET configuration at this scale. The server model
    /// mirrors [`Scale::fedzkt_config`]'s global-model choice, so the two
    /// ensemble-to-server protocols distill onto the same architecture.
    pub fn fedet_config(&self, family: DataFamily, tier: Tier) -> FedEtConfig {
        let server_model = if family == DataFamily::Cifar10Like {
            ModelSpec::MobileNetV2 { width: 1.0 }
        } else {
            ModelSpec::SmallCnn { base_channels: 8 }
        };
        FedEtConfig {
            local_epochs: self.local_epochs,
            batch_size: self.batch,
            lr: if tier == Tier::Paper { 0.01 } else { 0.05 },
            transfer_size: (self.train_n / 4).clamp(32, 5000),
            distill_epochs: self.local_epochs,
            transfer_epochs: self.local_epochs,
            server_lr: 0.01,
            diversity_lambda: 1.0,
            server_model,
        }
    }

    /// The standard FedGKT configuration at this scale.
    pub fn fedgkt_config(&self, tier: Tier) -> FedGktConfig {
        FedGktConfig {
            local_epochs: self.local_epochs,
            kd_epochs: 1,
            server_epochs: 2,
            batch_size: self.batch,
            lr: if tier == Tier::Paper { 0.01 } else { 0.05 },
            server_lr: 0.01,
            feature_dim: 32,
            server_hidden: 64,
        }
    }
}

/// The paper's per-family zoo, cycled over `devices` as `(spec, count)`
/// pairs. The per-architecture *counts* match §IV-C2's round-robin
/// assignment of ten devices through Models A–E; note that the expanded
/// device order groups by architecture (`[A, A, B, B, …]`, the natural
/// reading of `(spec, count)`), so which device *index* — and therefore
/// which shard and which `DeviceResources` entry — carries which
/// architecture differs from an interleaved `[A, B, C, …]` assignment.
pub fn standard_zoo(family: DataFamily, devices: usize) -> Vec<(ModelSpec, usize)> {
    let base = if family == DataFamily::Cifar10Like {
        ModelSpec::paper_zoo_cifar()
    } else {
        ModelSpec::paper_zoo_small()
    };
    crate::spec::cycle_counts(&base, devices)
}

/// The public dataset FedMD pairs with a private family in Table I
/// (MNIST↔FASHION, FASHION↔MNIST, KMNIST↔FASHION; CIFAR-10 defaults to
/// CIFAR-100, with SVHN as the deliberately mismatched alternative).
pub fn fedmd_public_family(private: DataFamily) -> DataFamily {
    match private {
        DataFamily::MnistLike => DataFamily::FashionLike,
        DataFamily::FashionLike => DataFamily::MnistLike,
        DataFamily::KmnistLike => DataFamily::FashionLike,
        _ => DataFamily::Cifar100Like,
    }
}

/// The [`Scale`]-derived standard configuration of a named algorithm for
/// an existing scenario — the `scenarios sweep --algos` axis and the
/// `repro algos` target share this mapping. The scale is rebuilt from the
/// scenario's *own* data geometry (train/test sizes, image side, device
/// count, rounds), so the swapped-in algorithm stays a controlled
/// comparison with whatever the base cell runs; the tier — which only
/// picks learning rates and epoch/iteration counts — is inferred from the
/// training-set size. Returns `None` for an unknown name.
pub fn standard_algorithm(scenario: &Scenario, name: &str) -> Option<Algo> {
    let family = scenario.data.family;
    let tier = if scenario.data.train_n >= 10_000 {
        Tier::Paper
    } else if scenario.data.train_n >= 400 {
        Tier::Quick
    } else {
        Tier::Tiny
    };
    let mut scale = Scale::for_family(family, tier);
    scale.devices = scenario.devices();
    scale.rounds = scenario.sim.rounds;
    scale.img = scenario.data.img;
    scale.train_n = scenario.data.train_n;
    scale.test_n = scenario.data.test_n;
    Some(match name {
        "fedzkt" => Algo::FedZkt(scale.fedzkt_config(family, tier)),
        "fedavg" => Algo::FedAvg(scale.fedavg_config(tier)),
        "fedprox" => Algo::FedProx(FedAvgConfig { prox_mu: 0.01, ..scale.fedavg_config(tier) }),
        "fedmd" => {
            Algo::FedMd { public: fedmd_public_family(family), cfg: scale.fedmd_config(tier) }
        }
        "fedet" => Algo::FedEt {
            public: fedmd_public_family(family),
            cfg: scale.fedet_config(family, tier),
        },
        "fedgkt" => Algo::FedGkt(scale.fedgkt_config(tier)),
        _ => return None,
    })
}

impl Scenario {
    /// The standard FedZKT scenario for a family, partition and tier —
    /// the cell every [`repro`](crate::repro) target starts from.
    pub fn standard(family: DataFamily, partition: Partition, tier: Tier, seed: u64) -> Scenario {
        Scenario::standard_scaled(family, partition, tier, seed, Scale::for_family(family, tier))
    }

    /// [`Scenario::standard`] with explicit scale overrides (device-count
    /// and round sweeps).
    pub fn standard_scaled(
        family: DataFamily,
        partition: Partition,
        tier: Tier,
        seed: u64,
        scale: Scale,
    ) -> Scenario {
        let tier_slug = match tier {
            Tier::Quick => "quick",
            Tier::Tiny => "tiny",
            Tier::Paper => "paper",
        };
        let partition_slug = match partition {
            Partition::Iid => "iid".to_string(),
            Partition::QuantitySkew { classes_per_device } => format!("c{classes_per_device}"),
            Partition::Dirichlet { beta } => format!("dir{beta}"),
        };
        let family_slug = family.name().to_lowercase().replace('-', "");
        Scenario {
            name: format!("{family_slug}-{partition_slug}-{tier_slug}"),
            data: DataSpec {
                family,
                img: scale.img,
                train_n: scale.train_n,
                test_n: scale.test_n,
                classes: 0,
                noise_std: -1.0,
            },
            partition,
            zoo: standard_zoo(family, scale.devices),
            registered_devices: 0,
            resources: None,
            churn: None,
            algorithm: Algo::FedZkt(scale.fedzkt_config(family, tier)),
            sim: SimConfig { rounds: scale.rounds, seed, ..Default::default() },
        }
    }

    /// The FedMD leg of a comparison: same data, partition, zoo and
    /// protocol as `self`, with `public` as the alignment corpus. The
    /// FedMD hyperparameters are derived from the *base scenario's own*
    /// numbers — its train_n, and its FedZKT epochs/batch when the base
    /// runs FedZKT — so the two legs stay a controlled comparison even for
    /// non-standard bases; `tier` only picks the learning rate.
    pub fn fedmd_counterpart(&self, tier: Tier, public: DataFamily) -> Scenario {
        let scale = Scale {
            local_epochs: self.fedzkt_cfg().map_or(2, |c| c.local_epochs),
            batch: self.fedzkt_cfg().map_or(32, |c| c.device_batch),
            train_n: self.data.train_n,
            ..Scale::for_family(self.data.family, tier)
        };
        let cfg = scale.fedmd_config(tier);
        let mut counterpart = self.clone().with_algorithm(Algo::FedMd { public, cfg });
        counterpart.name = format!("{}-fedmd", self.name);
        counterpart
    }
}

/// One entry of the named-preset registry.
pub struct Preset {
    /// Registry key (also the checked-in `scenarios/<name>.json` file).
    pub name: &'static str,
    /// One-line description for `scenarios list`.
    pub about: &'static str,
    /// True for the paper-scale presets (hours of CPU; sweep/run harnesses
    /// skip them unless asked).
    pub paper_scale: bool,
    build: fn() -> Scenario,
}

impl Preset {
    /// Construct the preset's scenario.
    pub fn scenario(&self) -> Scenario {
        let mut scenario = (self.build)();
        scenario.name = self.name.to_string();
        scenario
    }
}

fn tiny() -> Scenario {
    Scenario::standard(DataFamily::MnistLike, Partition::Iid, Tier::Tiny, 1)
}

fn quickstart() -> Scenario {
    Scenario::standard(DataFamily::MnistLike, Partition::Iid, Tier::Quick, 7)
}

fn noniid_dirichlet() -> Scenario {
    let mut sc = Scenario::standard(
        DataFamily::FashionLike,
        Partition::Dirichlet { beta: 0.3 },
        Tier::Quick,
        3,
    );
    // Non-IID runs enable the paper's ℓ2 regularizer (Eq. 9).
    sc.fedzkt_cfg_mut().expect("standard scenarios run fedzkt").prox_mu = 1.0;
    sc
}

fn hetero_cifar() -> Scenario {
    let mut sc = Scenario::standard(DataFamily::Cifar10Like, Partition::Iid, Tier::Quick, 11);
    sc.set_device_count(10);
    sc.sim.rounds = 6;
    sc.resources = Some(ResourceSpec {
        assignment: ResourceAssignment::Heterogeneous { seed: 11 },
        bandwidth: None,
        server_seconds: 1.0,
    });
    sc
}

fn straggler() -> Scenario {
    let mut sc = Scenario::standard(DataFamily::MnistLike, Partition::Iid, Tier::Quick, 5);
    sc.sim.rounds = 6;
    sc.sim.participation = 0.6;
    sc.resources = Some(ResourceSpec {
        assignment: ResourceAssignment::Heterogeneous { seed: 5 },
        bandwidth: None,
        server_seconds: 1.0,
    });
    sc
}

fn fedavg_lcd() -> Scenario {
    let mut sc = Scenario::standard(DataFamily::MnistLike, Partition::Iid, Tier::Quick, 13);
    // Classical FL is constrained by the weakest participant: everyone
    // runs the lowest-common-denominator architecture.
    let scale = Scale::for_family(DataFamily::MnistLike, Tier::Quick);
    sc.zoo = vec![(ModelSpec::LeNet { scale: 0.5, deep: false }, scale.devices)];
    sc.sim.rounds = 6;
    sc.algorithm = Algo::FedAvg(scale.fedavg_config(Tier::Quick));
    sc
}

fn fedprox_noniid() -> Scenario {
    let mut sc = Scenario::standard(
        DataFamily::MnistLike,
        Partition::Dirichlet { beta: 0.5 },
        Tier::Quick,
        13,
    );
    let scale = Scale::for_family(DataFamily::MnistLike, Tier::Quick);
    sc.zoo = vec![(ModelSpec::LeNet { scale: 0.5, deep: false }, scale.devices)];
    sc.sim.rounds = 6;
    sc.algorithm = Algo::FedProx(FedAvgConfig {
        prox_mu: 0.5,
        ..scale.fedavg_config(Tier::Quick)
    });
    sc
}

fn fedmd_public() -> Scenario {
    let sc = Scenario::standard(DataFamily::MnistLike, Partition::Iid, Tier::Quick, 2);
    sc.fedmd_counterpart(Tier::Quick, fedmd_public_family(DataFamily::MnistLike))
}

fn quant_uplink() -> Scenario {
    // Seconds-scale on purpose: this is the codec path's determinism and
    // CI workhorse (the quantized analogue of `tiny`). Smartphone-class
    // links are uniform, so transfer time is wholly payload-driven and a
    // codec change moves `sim_seconds` visibly.
    let mut sc = Scenario::standard(DataFamily::MnistLike, Partition::Iid, Tier::Tiny, 17);
    sc.sim.codec = CodecSpec::QuantQ8;
    sc.resources = Some(ResourceSpec {
        assignment: ResourceAssignment::Smartphone,
        bandwidth: None,
        server_seconds: 0.5,
    });
    sc
}

fn lowband_straggler() -> Scenario {
    // The straggler preset under harsh links: a uniform 20 kB/s up /
    // 100 kB/s down override dominates the round time, and top-k
    // sparsification (25% density) is what keeps the uplink usable —
    // Fed-ET-style per-client communication budgets in miniature.
    let mut sc = Scenario::standard(DataFamily::MnistLike, Partition::Iid, Tier::Quick, 5);
    sc.sim.rounds = 6;
    sc.sim.participation = 0.6;
    sc.sim.codec = CodecSpec::TopK { density: 0.25 };
    sc.resources = Some(ResourceSpec {
        assignment: ResourceAssignment::Heterogeneous { seed: 5 },
        bandwidth: Some(LinkBandwidth { up_bytes_per_sec: 2e4, down_bytes_per_sec: 1e5 }),
        server_seconds: 1.0,
    });
    sc
}

fn churn_flash_crowd() -> Scenario {
    // A flash crowd: the fleet trickles online over the first three
    // rounds and early arrivals age out (mean lifetime 6 rounds), so
    // every round sees a different available population. Seconds-scale
    // on purpose — the churn path's determinism and CI workhorse (the
    // dynamic-fleet analogue of `tiny`).
    let mut sc = Scenario::standard(DataFamily::MnistLike, Partition::Iid, Tier::Tiny, 19);
    sc.set_device_count(6);
    sc.sim.rounds = 4;
    sc.sim.participation = 0.8;
    sc.churn = Some(ChurnSpec {
        seed: 19,
        arrival_window: 3,
        mean_lifetime: 6.0,
        ..Default::default()
    });
    sc
}

fn churn_lossy() -> Scenario {
    // A dropout-heavy fleet on a quantized uplink: every sampled device
    // receives the Q8 payload and burns partial compute, but fails to
    // report with probability 0.25, while its link wanders down to 40%
    // of nominal — the `quant-uplink` anchor under hostile dynamics.
    let mut sc = Scenario::standard(DataFamily::MnistLike, Partition::Iid, Tier::Tiny, 23);
    sc.sim.rounds = 4;
    sc.sim.codec = CodecSpec::QuantQ8;
    sc.resources = Some(ResourceSpec {
        assignment: ResourceAssignment::Smartphone,
        bandwidth: None,
        server_seconds: 0.5,
    });
    sc.churn = Some(ChurnSpec {
        seed: 23,
        dropout: 0.25,
        bandwidth_floor: 0.4,
        ..Default::default()
    });
    sc
}

fn fedet_hetero() -> Scenario {
    // Fed-ET on the CIFAR hetero zoo: five devices across the paper's
    // Models A-E ensemble into one MobileNet server over a CIFAR-100-like
    // transfer set, on heterogeneous simulated hardware. Seconds-scale on
    // purpose — the ensemble-transfer path's determinism and CI anchor.
    let mut sc = Scenario::standard(DataFamily::Cifar10Like, Partition::Iid, Tier::Tiny, 29);
    sc.set_device_count(5);
    sc.sim.rounds = 3;
    sc.resources = Some(ResourceSpec {
        assignment: ResourceAssignment::Heterogeneous { seed: 29 },
        bandwidth: None,
        server_seconds: 1.0,
    });
    let scale = Scale::for_family(DataFamily::Cifar10Like, Tier::Tiny);
    sc.algorithm = Algo::FedEt {
        public: DataFamily::Cifar100Like,
        cfg: scale.fedet_config(DataFamily::Cifar10Like, Tier::Tiny),
    };
    sc
}

fn fedgkt_split() -> Scenario {
    // FedGKT on the CIFAR hetero zoo under label skew: devices keep small
    // feature extractors, ship per-sample feature/logit bundles uplink and
    // digest the server head's soft labels downlink. Seconds-scale on
    // purpose — the split-payload path's determinism and CI anchor.
    let mut sc = Scenario::standard(
        DataFamily::Cifar10Like,
        Partition::QuantitySkew { classes_per_device: 5 },
        Tier::Tiny,
        31,
    );
    sc.set_device_count(5);
    sc.sim.rounds = 3;
    let scale = Scale::for_family(DataFamily::Cifar10Like, Tier::Tiny);
    sc.algorithm = Algo::FedGkt(scale.fedgkt_config(Tier::Tiny));
    sc
}

fn mega_fleet() -> Scenario {
    // The device registry's acceptance anchor: one **million** registered
    // devices, ~1000 sampled per round, each holding one sample and a
    // micro-MLP. The fleet keeps only the sampled count resident, so the
    // run completes in bounded memory.
    Scenario {
        name: "mega-fleet".into(),
        data: DataSpec {
            family: DataFamily::MnistLike,
            img: 4,
            train_n: 1_000_000,
            test_n: 64,
            classes: 0,
            noise_std: -1.0,
        },
        partition: Partition::Iid,
        zoo: vec![(ModelSpec::Mlp { hidden: 8 }, 1)],
        registered_devices: 1_000_000,
        resources: None,
        churn: None,
        algorithm: Algo::FedAvg(FedAvgConfig {
            local_epochs: 1,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        }),
        sim: SimConfig {
            rounds: 2,
            participation: 0.001,
            eval_every: 0,
            seed: 21,
            ..Default::default()
        },
    }
}

fn paper_small() -> Scenario {
    Scenario::standard(DataFamily::MnistLike, Partition::Iid, Tier::Paper, 42)
}

fn paper_cifar() -> Scenario {
    Scenario::standard(DataFamily::Cifar10Like, Partition::Iid, Tier::Paper, 42)
}

/// The named-preset registry — the successor of the scattered
/// `FedZktConfig::paper_*` constructors and per-example setup blocks.
pub fn presets() -> Vec<Preset> {
    vec![
        Preset {
            name: "tiny",
            about: "seconds-scale MNIST/IID FedZKT smoke run (CI, determinism tests)",
            paper_scale: false,
            build: tiny,
        },
        Preset {
            name: "quickstart",
            about: "the smallest instructive FedZKT run: 5 devices, 5 architectures, MNIST-like IID",
            paper_scale: false,
            build: quickstart,
        },
        Preset {
            name: "noniid-dirichlet",
            about: "FASHION-like with Dirichlet(0.3) label skew and the Eq. 9 l2 regularizer",
            paper_scale: false,
            build: noniid_dirichlet,
        },
        Preset {
            name: "hetero-cifar",
            about: "ten devices, Models A-E, heterogeneous simulated hardware (SS IV-C2)",
            paper_scale: false,
            build: hetero_cifar,
        },
        Preset {
            name: "straggler",
            about: "participation 0.6 over a heterogeneous population (Figure 6 in miniature)",
            paper_scale: false,
            build: straggler,
        },
        Preset {
            name: "fedavg-lcd",
            about: "FedAvg baseline: every device on the lowest-common-denominator LeNet",
            paper_scale: false,
            build: fedavg_lcd,
        },
        Preset {
            name: "fedprox-noniid",
            about: "FedProx (mu=0.5) on Dirichlet(0.5) skew, homogeneous LeNet zoo",
            paper_scale: false,
            build: fedprox_noniid,
        },
        Preset {
            name: "fedmd-public",
            about: "FedMD baseline: MNIST-like private data, FASHION-like public corpus",
            paper_scale: false,
            build: fedmd_public,
        },
        Preset {
            name: "quant-uplink",
            about: "tiny MNIST run with int8-quantized payloads and smartphone links (codec CI anchor)",
            paper_scale: false,
            build: quant_uplink,
        },
        Preset {
            name: "lowband-straggler",
            about: "straggler run on 20 kB/s uplinks with top-k(0.25) sparsified payloads",
            paper_scale: false,
            build: lowband_straggler,
        },
        Preset {
            name: "churn-flash-crowd",
            about: "six devices arriving over three rounds and aging out (dynamic-fleet CI anchor)",
            paper_scale: false,
            build: churn_flash_crowd,
        },
        Preset {
            name: "churn-lossy",
            about: "25% mid-round dropout and wandering links over Q8-quantized payloads",
            paper_scale: false,
            build: churn_lossy,
        },
        Preset {
            name: "fedet-hetero",
            about: "Fed-ET: Models A-E ensemble into a MobileNet server via weighted-consensus distillation",
            paper_scale: false,
            build: fedet_hetero,
        },
        Preset {
            name: "fedgkt-split",
            about: "FedGKT: split training shipping per-sample features+logits up, soft labels down",
            paper_scale: false,
            build: fedgkt_split,
        },
        Preset {
            name: "mega-fleet",
            about: "one million registered devices, ~1k sampled/round, bounded resident set",
            paper_scale: false,
            build: mega_fleet,
        },
        Preset {
            name: "paper-small",
            about: "paper-scale small-dataset parameters (T=50, T_l=5, nD=200, batch 256)",
            paper_scale: true,
            build: paper_small,
        },
        Preset {
            name: "paper-cifar",
            about: "paper-scale CIFAR-10 parameters (T=100, T_l=10, nD=500, batch 256)",
            paper_scale: true,
            build: paper_cifar,
        },
    ]
}

/// Look up a preset scenario by name.
pub fn preset(name: &str) -> Option<Scenario> {
    presets().into_iter().find(|p| p.name == name).map(|p| p.scenario())
}

/// Resolve a CLI-style scenario reference: a preset name, or a path to a
/// scenario JSON file (anything containing a path separator or ending in
/// `.json` is treated as a path).
///
/// # Errors
/// [`ScenarioError::UnknownPreset`] for an unknown name; I/O and parse
/// errors for a file reference.
pub fn resolve(reference: &str) -> Result<Scenario, ScenarioError> {
    if reference.ends_with(".json") || reference.contains(std::path::MAIN_SEPARATOR) {
        Scenario::load(reference)
    } else {
        preset(reference).ok_or_else(|| ScenarioError::UnknownPreset(reference.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_validates() {
        for p in presets() {
            let sc = p.scenario();
            assert_eq!(sc.name, p.name);
            sc.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn preset_names_are_unique() {
        let mut names: Vec<&str> = presets().iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), presets().len());
    }

    #[test]
    fn paper_presets_match_section_iv_a3() {
        let small = preset("paper-small").unwrap();
        let cfg = match &small.algorithm {
            Algo::FedZkt(cfg) => *cfg,
            other => panic!("paper-small runs {}", other.name()),
        };
        assert_eq!((small.sim.rounds, cfg.local_epochs, cfg.distill_iters), (50, 5, 200));
        assert_eq!(cfg.device_batch, 256);
        let cifar = preset("paper-cifar").unwrap();
        let cfg = match &cifar.algorithm {
            Algo::FedZkt(cfg) => *cfg,
            other => panic!("paper-cifar runs {}", other.name()),
        };
        assert_eq!((cifar.sim.rounds, cfg.local_epochs, cfg.distill_iters), (100, 10, 500));
        assert!((cfg.generator_lr - 1e-3).abs() < 1e-9);
        assert!((cfg.server_lr - 0.01).abs() < 1e-9);
    }

    #[test]
    fn standard_cifar_uses_the_cifar_zoo() {
        let sc = Scenario::standard(DataFamily::Cifar10Like, Partition::Iid, Tier::Tiny, 1);
        assert!(matches!(sc.zoo[0].0, ModelSpec::ShuffleNetV2 { .. }));
        assert_eq!(sc.devices(), 3);
        let m = sc.materialize().unwrap();
        assert_eq!(m.train.channels(), 3);
        assert_eq!(m.shards.len(), 3);
    }

    #[test]
    fn public_family_pairing_matches_table1() {
        assert_eq!(fedmd_public_family(DataFamily::MnistLike), DataFamily::FashionLike);
        assert_eq!(fedmd_public_family(DataFamily::FashionLike), DataFamily::MnistLike);
        assert_eq!(fedmd_public_family(DataFamily::KmnistLike), DataFamily::FashionLike);
        assert_eq!(fedmd_public_family(DataFamily::Cifar10Like), DataFamily::Cifar100Like);
    }

    #[test]
    fn set_device_count_recycles_the_zoo() {
        let mut sc = Scenario::standard(DataFamily::Cifar10Like, Partition::Iid, Tier::Quick, 1);
        sc.set_device_count(12);
        assert_eq!(sc.devices(), 12);
        assert_eq!(sc.zoo.len(), 5, "all five architectures stay represented");
        sc.set_device_count(2);
        assert_eq!(sc.devices(), 2);
        assert_eq!(sc.zoo.len(), 2);
    }
}
