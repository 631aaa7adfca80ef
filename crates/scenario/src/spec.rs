//! The declarative [`Scenario`] description and its runner.

use crate::ScenarioError;
use fedzkt_core::{FedMd, FedMdConfig, FedZkt, FedZktConfig};
use fedzkt_data::{Corpus, DataFamily, Dataset, Partition, PartitionError, SynthConfig};
use fedzkt_fl::{
    ChurnSpec, DeviceResources, ErasedSimulation, FedAvg, FedAvgConfig, FedEt, FedEtConfig,
    FedGkt, FedGktConfig, RoundMetrics, RunLog, SimConfig, Simulation,
};
use fedzkt_models::ModelSpec;
use fedzkt_tensor::par;

/// The private (and, for FedMD, public) dataset description — a
/// [`SynthConfig`] without a seed: the data is derived from the scenario's
/// master seed so that sweeping the seed re-derives everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataSpec {
    /// Synthetic family standing in for one of the paper's corpora.
    pub family: DataFamily,
    /// Image side length (must be a positive multiple of 4: every zoo
    /// member downsamples twice).
    pub img: usize,
    /// Training samples.
    pub train_n: usize,
    /// Held-out test samples.
    pub test_n: usize,
    /// Class-count override (0 = family default).
    pub classes: usize,
    /// Pixel-noise override (negative = family default).
    pub noise_std: f32,
}

impl DataSpec {
    /// The effective class count after applying the family default.
    pub fn effective_classes(&self) -> usize {
        if self.classes == 0 {
            self.family.default_classes()
        } else {
            self.classes
        }
    }

    fn synth(&self, seed: u64) -> SynthConfig {
        SynthConfig {
            family: self.family,
            img: self.img,
            train_n: self.train_n,
            test_n: self.test_n,
            classes: self.classes,
            noise_std: self.noise_std,
            seed,
        }
    }
}

/// How simulated compute/link resources are assigned across the device
/// population.
#[derive(Debug, Clone, PartialEq)]
pub enum ResourceAssignment {
    /// Every device is smartphone-class.
    Smartphone,
    /// Every device is MCU-class.
    Microcontroller,
    /// A log-normally heterogeneous MCU↔smartphone population,
    /// deterministic in `seed`.
    Heterogeneous {
        /// Population seed (independent of the run seed, so the same
        /// hardware mix can be held fixed across a seed sweep).
        seed: u64,
    },
    /// An explicit per-device list (must match the device count).
    Explicit(Vec<DeviceResources>),
}

/// A uniform link-bandwidth override applied to every device of the
/// resource population (bytes/second), replacing whatever the assignment
/// itself would give each device. `f32::INFINITY` spells an *unlimited*
/// link (transfer time zero — the pre-codec accounting), serialized as
/// `null`; finite values make `sim_seconds` include real transfer time
/// for the codec-encoded payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBandwidth {
    /// Device → server link (bytes/second).
    pub up_bytes_per_sec: f32,
    /// Server → device link (bytes/second).
    pub down_bytes_per_sec: f32,
}

impl LinkBandwidth {
    /// Unlimited links in both directions: transfer time is zero no
    /// matter how many bytes a codec puts on the wire.
    pub fn unlimited() -> Self {
        LinkBandwidth {
            up_bytes_per_sec: f32::INFINITY,
            down_bytes_per_sec: f32::INFINITY,
        }
    }
}

/// Simulated-time modelling: a resource assignment plus the constant
/// server-side orchestration latency added to every round.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSpec {
    /// Per-device compute/link capabilities.
    pub assignment: ResourceAssignment,
    /// Optional uniform link-bandwidth override (`None` keeps each
    /// device's own link speeds from the assignment).
    pub bandwidth: Option<LinkBandwidth>,
    /// Constant simulated server seconds added to every round.
    pub server_seconds: f64,
}

impl ResourceSpec {
    fn population(&self, devices: usize) -> Vec<DeviceResources> {
        let mut population = match &self.assignment {
            ResourceAssignment::Smartphone => vec![DeviceResources::smartphone(); devices],
            ResourceAssignment::Microcontroller => {
                vec![DeviceResources::microcontroller(); devices]
            }
            ResourceAssignment::Heterogeneous { seed } => {
                DeviceResources::heterogeneous_population(devices, *seed)
            }
            ResourceAssignment::Explicit(list) => list.clone(),
        };
        if let Some(bw) = self.bandwidth {
            for device in &mut population {
                device.uplink_bytes_per_sec = bw.up_bytes_per_sec;
                device.downlink_bytes_per_sec = bw.down_bytes_per_sec;
            }
        }
        population
    }
}

/// Which federated algorithm runs the scenario, with its hyperparameters.
///
/// The device architectures always come from [`Scenario::zoo`]; the
/// homogeneous algorithms (FedAvg/FedProx) require every zoo entry to name
/// the same architecture, which [`Scenario::validate`] enforces.
#[derive(Debug, Clone, PartialEq)]
pub enum Algo {
    /// FedZKT (the paper's Algorithms 1–3).
    FedZkt(FedZktConfig),
    /// FedAvg over a homogeneous zoo (`prox_mu` must be 0 — spell a
    /// proximal run as [`Algo::FedProx`]).
    FedAvg(FedAvgConfig),
    /// FedProx over a homogeneous zoo (`prox_mu` must be positive).
    FedProx(FedAvgConfig),
    /// FedMD with a public dataset drawn from `public`.
    FedMd {
        /// Family the public (logit-alignment) dataset is drawn from.
        public: DataFamily,
        /// FedMD hyperparameters.
        cfg: FedMdConfig,
    },
    /// Fed-ET: ensemble transfer onto a large server model through
    /// diversity-weighted consensus distillation on a public transfer set
    /// drawn from `public`.
    FedEt {
        /// Family the public (transfer) dataset is drawn from.
        public: DataFamily,
        /// Fed-ET hyperparameters.
        cfg: FedEtConfig,
    },
    /// FedGKT: split training exchanging per-sample feature/logit bundles
    /// uplink and soft labels downlink — no public data, no model on the
    /// wire.
    FedGkt(FedGktConfig),
}

impl Algo {
    /// Short lowercase name ("fedzkt", "fedavg", "fedprox", "fedmd",
    /// "fedet", "fedgkt").
    pub fn name(&self) -> &'static str {
        match self {
            Algo::FedZkt(_) => "fedzkt",
            Algo::FedAvg(_) => "fedavg",
            Algo::FedProx(_) => "fedprox",
            Algo::FedMd { .. } => "fedmd",
            Algo::FedEt { .. } => "fedet",
            Algo::FedGkt(_) => "fedgkt",
        }
    }
}

/// A model description's own knobs must be well-formed before it is built:
/// a NaN or non-positive width multiplier would silently clamp to the
/// minimum architecture instead of the one described.
fn check_model_spec(spec: &ModelSpec) -> Result<(), String> {
    let positive = |name: &str, v: f32| -> Result<(), String> {
        if v.is_finite() && v > 0.0 {
            Ok(())
        } else {
            Err(format!("{name} {v} must be finite and positive"))
        }
    };
    match *spec {
        ModelSpec::SmallCnn { base_channels: 0 } => Err("base_channels must be positive".into()),
        ModelSpec::Mlp { hidden: 0 } => Err("hidden width must be positive".into()),
        ModelSpec::LeNet { scale, .. } => positive("scale", scale),
        ModelSpec::MobileNetV2 { width } => positive("width", width),
        ModelSpec::ShuffleNetV2 { size } => positive("size", size),
        _ => Ok(()),
    }
}

/// Cycle `specs` over `k` devices as `(spec, count)` pairs — the one
/// definition of the count expansion shared by [`crate::standard_zoo`] and
/// [`Scenario::set_device_count`] (per-architecture counts as in §IV-C2's
/// round-robin assignment; device order grouped by architecture).
///
/// # Panics
/// Panics when `specs` is empty.
pub(crate) fn cycle_counts(specs: &[ModelSpec], k: usize) -> Vec<(ModelSpec, usize)> {
    let mut counts = vec![0usize; specs.len()];
    for i in 0..k {
        counts[i % specs.len()] += 1;
    }
    specs
        .iter()
        .copied()
        .zip(counts)
        .filter(|(_, count)| *count > 0)
        .collect()
}

/// One fully specified federated experiment, as data.
///
/// A `Scenario` is everything the paper's evaluation grid varies — dataset
/// family, partition skew, device zoo, resource population, algorithm and
/// protocol configuration — in one serializable value. It materializes
/// datasets and models only when run, so a description can be loaded,
/// edited (swept) and validated cheaply.
///
/// ```
/// use fedzkt_scenario::preset;
///
/// let scenario = preset("tiny").unwrap();
/// let log = scenario.run().unwrap();
/// assert_eq!(log.rounds.len(), scenario.sim.rounds);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Identifier; used for artifact file names (printable ASCII).
    pub name: String,
    /// Private-dataset description.
    pub data: DataSpec,
    /// How the private data is split across devices (§IV-A4).
    pub partition: Partition,
    /// The device zoo as `(architecture, device count)` pairs; the device
    /// population is the expansion in order.
    pub zoo: Vec<(ModelSpec, usize)>,
    /// Registered-fleet override: `0` keeps the zoo expansion as the
    /// population; a positive value re-cycles the zoo's architectures over
    /// this many devices instead (per-architecture counts as in §IV-C2's
    /// round-robin assignment). The idiom for cross-device scale: a
    /// one-line zoo plus `"registered_devices": 1000000` describes a
    /// million-device fleet without a million-entry expansion, and the
    /// fleet keeps a device resident only while it is sampled.
    pub registered_devices: usize,
    /// Simulated device resources (None = no simulated clock).
    pub resources: Option<ResourceSpec>,
    /// Fleet dynamics — arrival/departure, duty cycling, mid-round
    /// dropout, time-varying links (None = the static fleet every
    /// pre-churn scenario implies). Serialized only when present, so
    /// static-fleet files are byte-identical to the pre-churn schema.
    pub churn: Option<ChurnSpec>,
    /// The algorithm and its hyperparameters.
    pub algorithm: Algo,
    /// Protocol-level knobs shared by every algorithm.
    pub sim: SimConfig,
}

/// The concrete objects a [`Scenario`] describes, produced by
/// [`Scenario::materialize`] — what experiment harnesses use when they need
/// the datasets or shard layout themselves (bound trainers, shard
/// statistics) rather than a full run.
pub struct Materialized {
    /// Private training data, synthesized on demand.
    pub train: Corpus,
    /// Held-out test data.
    pub test: Dataset,
    /// The public dataset, when the algorithm needs one (FedMD's
    /// logit-alignment corpus, Fed-ET's transfer set).
    pub public: Option<Dataset>,
    /// Device shards (index sets into `train`).
    pub shards: Vec<Vec<usize>>,
    /// Per-device architectures (the zoo expansion).
    pub zoo: Vec<ModelSpec>,
    /// Per-device resources, when the scenario attaches them.
    pub resources: Option<Vec<DeviceResources>>,
}

impl Scenario {
    /// Number of devices in the federation: the `registered_devices`
    /// override when set, the zoo expansion's length otherwise.
    pub fn devices(&self) -> usize {
        if self.registered_devices > 0 {
            self.registered_devices
        } else {
            self.zoo.iter().map(|(_, count)| count).sum()
        }
    }

    /// The effective `(architecture, count)` zoo: the written zoo, or its
    /// architectures re-cycled over [`Scenario::devices`] when
    /// `registered_devices` overrides the population size.
    pub fn effective_zoo(&self) -> Vec<(ModelSpec, usize)> {
        if self.registered_devices > 0 {
            let specs: Vec<ModelSpec> = self.zoo.iter().map(|(s, _)| *s).collect();
            if specs.is_empty() {
                return Vec::new(); // validation reports the empty zoo
            }
            cycle_counts(&specs, self.registered_devices)
        } else {
            self.zoo.clone()
        }
    }

    /// Per-device architectures: each effective-zoo entry repeated `count`
    /// times, in order.
    pub fn device_specs(&self) -> Vec<ModelSpec> {
        self.effective_zoo()
            .iter()
            .flat_map(|(spec, count)| std::iter::repeat_n(*spec, *count))
            .collect()
    }

    /// Re-cycle the current distinct architectures over `k` devices,
    /// replacing the zoo counts (per-architecture counts as in §IV-C2's
    /// round-robin assignment; device order grouped by architecture, like
    /// every zoo expansion). Used by device-count sweeps. Clears any
    /// `registered_devices` override — the explicit count wins.
    pub fn set_device_count(&mut self, k: usize) {
        self.registered_devices = 0;
        let specs: Vec<ModelSpec> = self.zoo.iter().map(|(s, _)| *s).collect();
        if specs.is_empty() {
            return; // validation reports the empty zoo
        }
        self.zoo = cycle_counts(&specs, k);
    }

    /// The FedZKT config, when this scenario runs FedZKT.
    pub fn fedzkt_cfg(&self) -> Option<&FedZktConfig> {
        match &self.algorithm {
            Algo::FedZkt(cfg) => Some(cfg),
            _ => None,
        }
    }

    /// Mutable form of [`Scenario::fedzkt_cfg`] (for sweeps and ablations
    /// that edit hyperparameters in place).
    pub fn fedzkt_cfg_mut(&mut self) -> Option<&mut FedZktConfig> {
        match &mut self.algorithm {
            Algo::FedZkt(cfg) => Some(cfg),
            _ => None,
        }
    }

    /// The FedAvg/FedProx config, when this scenario runs either, for
    /// editing in place.
    pub fn fedavg_cfg_mut(&mut self) -> Option<&mut FedAvgConfig> {
        match &mut self.algorithm {
            Algo::FedAvg(cfg) | Algo::FedProx(cfg) => Some(cfg),
            _ => None,
        }
    }

    /// The FedMD config, when this scenario runs FedMD, for editing in
    /// place.
    pub fn fedmd_cfg_mut(&mut self) -> Option<&mut FedMdConfig> {
        match &mut self.algorithm {
            Algo::FedMd { cfg, .. } => Some(cfg),
            _ => None,
        }
    }

    /// The Fed-ET config, when this scenario runs Fed-ET, for editing in
    /// place.
    pub fn fedet_cfg_mut(&mut self) -> Option<&mut FedEtConfig> {
        match &mut self.algorithm {
            Algo::FedEt { cfg, .. } => Some(cfg),
            _ => None,
        }
    }

    /// The FedGKT config, when this scenario runs FedGKT, for editing in
    /// place.
    pub fn fedgkt_cfg_mut(&mut self) -> Option<&mut FedGktConfig> {
        match &mut self.algorithm {
            Algo::FedGkt(cfg) => Some(cfg),
            _ => None,
        }
    }

    /// Replace the algorithm, keeping data/partition/zoo/sim — how a
    /// comparison harness derives the FedMD (or FedAvg) leg of an
    /// experiment from its FedZKT leg.
    pub fn with_algorithm(mut self, algorithm: Algo) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Check the description for degenerate or impossible requests without
    /// generating any data.
    ///
    /// # Errors
    /// Returns the typed [`ScenarioError`] a run would otherwise hit as a
    /// panic deep inside the data or training layers.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        // The name becomes an artifact *file name* verbatim, so it must not
        // be able to escape the chosen output directory (`../`, absolute
        // paths) or hide as a dotfile.
        let name_char_ok =
            |c: char| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.');
        if self.name.is_empty()
            || !self.name.chars().all(name_char_ok)
            || self.name.contains("..")
            || self.name.starts_with(['.', '-'])
        {
            return Err(ScenarioError::InvalidData(
                "scenario name must be non-empty [A-Za-z0-9._-], free of \"..\", and not start \
                 with '.' or '-' (it names the artifact files)"
                    .into(),
            ));
        }
        let d = &self.data;
        if d.train_n == 0 || d.test_n == 0 {
            return Err(ScenarioError::InvalidData(format!(
                "need at least one training and one test sample (train_n {}, test_n {})",
                d.train_n, d.test_n
            )));
        }
        if d.img == 0 || !d.img.is_multiple_of(4) {
            return Err(ScenarioError::InvalidData(format!(
                "img {} must be a positive multiple of 4 (every zoo member downsamples twice)",
                d.img
            )));
        }
        // Each split is one `[n, C, img, img]` allocation: its length must
        // be a `usize` before anything multiplies it unchecked.
        let split_fits = |n: usize| {
            d.img
                .checked_mul(d.img)
                .and_then(|plane| plane.checked_mul(d.family.channels()))
                .and_then(|sample| sample.checked_mul(n))
                .is_some()
        };
        if !split_fits(d.train_n) || !split_fits(d.test_n) {
            return Err(ScenarioError::InvalidData(format!(
                "img {}² × {} channel(s) × {} train / {} test samples overflows the address space",
                d.img,
                d.family.channels(),
                d.train_n,
                d.test_n
            )));
        }
        let classes = d.effective_classes();
        if classes < 2 {
            return Err(ScenarioError::InvalidData(format!(
                "need at least 2 classes, got {classes}"
            )));
        }
        if !d.noise_std.is_finite() {
            return Err(ScenarioError::InvalidData(format!(
                "noise_std {} must be finite (negative = family default)",
                d.noise_std
            )));
        }
        if self.zoo.is_empty() {
            return Err(ScenarioError::InvalidZoo("the device zoo is empty".into()));
        }
        if self.zoo.iter().any(|(_, count)| *count == 0) {
            return Err(ScenarioError::InvalidZoo(
                "every zoo entry needs a positive device count".into(),
            ));
        }
        for (spec, _) in &self.zoo {
            check_model_spec(spec)
                .map_err(|msg| ScenarioError::InvalidZoo(format!("{}: {msg}", spec.name())))?;
        }
        let devices = self.devices();
        if d.train_n < devices {
            return Err(ScenarioError::Partition(PartitionError::NotEnoughSamples {
                samples: d.train_n,
                devices,
            }));
        }
        match self.partition {
            Partition::QuantitySkew { classes_per_device }
                if classes_per_device == 0 || classes_per_device > classes =>
            {
                return Err(ScenarioError::Partition(PartitionError::InvalidParameter(
                    format!("classes_per_device {classes_per_device} outside 1..={classes}"),
                )));
            }
            Partition::Dirichlet { beta } if !beta.is_finite() || beta <= 0.0 => {
                return Err(ScenarioError::Partition(PartitionError::InvalidParameter(
                    format!("beta {beta} must be > 0"),
                )));
            }
            _ => {}
        }
        if self.sim.rounds == 0 {
            return Err(ScenarioError::InvalidSim("rounds must be at least 1".into()));
        }
        if !(self.sim.participation > 0.0 && self.sim.participation <= 1.0) {
            return Err(ScenarioError::InvalidSim(format!(
                "participation {} outside (0, 1]",
                self.sim.participation
            )));
        }
        if self.sim.eval_batch == 0 {
            return Err(ScenarioError::InvalidSim("eval_batch must be positive".into()));
        }
        if !self.sim.codec.is_valid() {
            return Err(ScenarioError::InvalidSim(format!(
                "codec {:?} is malformed (top-k density must be finite and in (0, 1])",
                self.sim.codec
            )));
        }
        if let Some(resources) = &self.resources {
            if !resources.server_seconds.is_finite() || resources.server_seconds < 0.0 {
                return Err(ScenarioError::InvalidResources(format!(
                    "server_seconds {} must be finite and non-negative",
                    resources.server_seconds
                )));
            }
            if let Some(bw) = resources.bandwidth {
                // +∞ is the documented "unlimited link" spelling; NaN and
                // non-positive speeds are never meaningful.
                let link_ok = |v: f32| !v.is_nan() && v > 0.0;
                if !link_ok(bw.up_bytes_per_sec) || !link_ok(bw.down_bytes_per_sec) {
                    return Err(ScenarioError::InvalidResources(format!(
                        "bandwidth override ({}, {}) must be positive (+inf = unlimited)",
                        bw.up_bytes_per_sec, bw.down_bytes_per_sec
                    )));
                }
            }
            if let ResourceAssignment::Explicit(list) = &resources.assignment {
                if list.len() != devices {
                    return Err(ScenarioError::InvalidResources(format!(
                        "explicit assignment lists {} devices, the zoo has {devices}",
                        list.len()
                    )));
                }
                let throughput_ok = |v: f32| v.is_finite() && v > 0.0;
                if list.iter().any(|r| {
                    !throughput_ok(r.compute_samples_per_sec)
                        || !throughput_ok(r.uplink_bytes_per_sec)
                        || !throughput_ok(r.downlink_bytes_per_sec)
                }) {
                    return Err(ScenarioError::InvalidResources(
                        "explicit device throughputs must be finite and positive".into(),
                    ));
                }
            }
        }
        if let Some(churn) = &self.churn {
            churn
                .validate()
                .map_err(|msg| ScenarioError::InvalidSim(format!("churn: {msg}")))?;
        }
        // Hyperparameter floats must be finite: a NaN/∞ learning rate only
        // fails much later (as a diverged run or unreloadable JSON — the
        // canonical serialization has no non-finite literals). The one
        // documented exception is FedZKT's server throughput, where +∞
        // spells a free server.
        let finite = |name: &str, v: f32| -> Result<(), ScenarioError> {
            if v.is_finite() {
                Ok(())
            } else {
                Err(ScenarioError::InvalidAlgorithm(format!("{name} {v} must be finite")))
            }
        };
        match &self.algorithm {
            Algo::FedZkt(cfg) => {
                if cfg.device_batch == 0 || cfg.distill_batch == 0 {
                    return Err(ScenarioError::InvalidAlgorithm(
                        "fedzkt batch sizes must be positive".into(),
                    ));
                }
                check_model_spec(&cfg.global_model).map_err(|msg| {
                    ScenarioError::InvalidAlgorithm(format!(
                        "global model {}: {msg}",
                        cfg.global_model.name()
                    ))
                })?;
                if cfg.generator.z_dim == 0 || cfg.generator.ngf == 0 {
                    return Err(ScenarioError::InvalidAlgorithm(
                        "generator z_dim and ngf must be positive".into(),
                    ));
                }
                for (name, v) in [
                    ("device_lr", cfg.device_lr),
                    ("device_momentum", cfg.device_momentum),
                    ("server_lr", cfg.server_lr),
                    ("transfer_lr", cfg.transfer_lr),
                    ("generator_lr", cfg.generator_lr),
                    ("prox_mu", cfg.prox_mu),
                ] {
                    finite(name, v)?;
                }
                if cfg.server_samples_per_sec.is_nan() || cfg.server_samples_per_sec <= 0.0 {
                    return Err(ScenarioError::InvalidAlgorithm(format!(
                        "server_samples_per_sec {} must be positive (+inf = free server)",
                        cfg.server_samples_per_sec
                    )));
                }
            }
            Algo::FedAvg(cfg) => {
                self.require_homogeneous_zoo("fedavg")?;
                if cfg.batch_size == 0 {
                    return Err(ScenarioError::InvalidAlgorithm(
                        "fedavg batch size must be positive".into(),
                    ));
                }
                finite("lr", cfg.lr)?;
                finite("momentum", cfg.momentum)?;
                if cfg.prox_mu != 0.0 {
                    return Err(ScenarioError::InvalidAlgorithm(
                        "fedavg with prox_mu != 0 is FedProx; use the fedprox variant".into(),
                    ));
                }
            }
            Algo::FedProx(cfg) => {
                self.require_homogeneous_zoo("fedprox")?;
                if cfg.batch_size == 0 {
                    return Err(ScenarioError::InvalidAlgorithm(
                        "fedprox batch size must be positive".into(),
                    ));
                }
                finite("lr", cfg.lr)?;
                finite("momentum", cfg.momentum)?;
                if cfg.prox_mu.is_nan() || cfg.prox_mu.is_infinite() || cfg.prox_mu <= 0.0 {
                    return Err(ScenarioError::InvalidAlgorithm(format!(
                        "fedprox needs a finite prox_mu > 0, got {}",
                        cfg.prox_mu
                    )));
                }
            }
            Algo::FedMd { public, cfg } => {
                if cfg.batch_size == 0 || cfg.alignment_size == 0 {
                    return Err(ScenarioError::InvalidAlgorithm(
                        "fedmd batch and alignment sizes must be positive".into(),
                    ));
                }
                finite("lr", cfg.lr)?;
                // Devices score the public corpus with models built for the
                // private geometry, so the channel counts must agree.
                if public.channels() != d.family.channels() {
                    return Err(ScenarioError::InvalidAlgorithm(format!(
                        "fedmd public family {} has {} channel(s) but the private family {} has \
                         {}; pick a public family with matching image geometry",
                        public.name(),
                        public.channels(),
                        d.family.name(),
                        d.family.channels()
                    )));
                }
            }
            Algo::FedEt { public, cfg } => {
                if cfg.batch_size == 0 || cfg.transfer_size == 0 {
                    return Err(ScenarioError::InvalidAlgorithm(
                        "fedet batch and transfer sizes must be positive".into(),
                    ));
                }
                check_model_spec(&cfg.server_model).map_err(|msg| {
                    ScenarioError::InvalidAlgorithm(format!(
                        "server model {}: {msg}",
                        cfg.server_model.name()
                    ))
                })?;
                finite("lr", cfg.lr)?;
                finite("server_lr", cfg.server_lr)?;
                if !cfg.diversity_lambda.is_finite() || cfg.diversity_lambda < 0.0 {
                    return Err(ScenarioError::InvalidAlgorithm(format!(
                        "diversity_lambda {} must be finite and non-negative (0 = plain \
                         sample-count weighting)",
                        cfg.diversity_lambda
                    )));
                }
                // Devices and the server score the public transfer set with
                // models built for the private geometry.
                if public.channels() != d.family.channels() {
                    return Err(ScenarioError::InvalidAlgorithm(format!(
                        "fedet public family {} has {} channel(s) but the private family {} has \
                         {}; pick a public family with matching image geometry",
                        public.name(),
                        public.channels(),
                        d.family.name(),
                        d.family.channels()
                    )));
                }
            }
            Algo::FedGkt(cfg) => {
                if cfg.batch_size == 0 {
                    return Err(ScenarioError::InvalidAlgorithm(
                        "fedgkt batch size must be positive".into(),
                    ));
                }
                if cfg.feature_dim == 0 || cfg.server_hidden == 0 {
                    return Err(ScenarioError::InvalidAlgorithm(
                        "fedgkt feature_dim and server_hidden must be positive".into(),
                    ));
                }
                finite("lr", cfg.lr)?;
                finite("server_lr", cfg.server_lr)?;
            }
        }
        Ok(())
    }

    fn require_homogeneous_zoo(&self, algo: &str) -> Result<(), ScenarioError> {
        let first = self.zoo[0].0;
        if self.zoo.iter().any(|(spec, _)| *spec != first) {
            return Err(ScenarioError::InvalidZoo(format!(
                "{algo} averages parameters element-wise and requires a homogeneous zoo"
            )));
        }
        Ok(())
    }

    /// Generate the datasets, shards, zoo expansion and resource population
    /// this scenario describes (validating first).
    ///
    /// # Errors
    /// Everything [`Scenario::validate`] reports, plus partition failures
    /// that depend on the realized labels (e.g. a quantity skew that drops
    /// every sample of an unowned class).
    pub fn materialize(&self) -> Result<Materialized, ScenarioError> {
        self.validate()?;
        let (train, test) = self.data.synth(self.sim.seed).generate_corpus();
        let shards = self.partition.split(
            train.labels(),
            train.num_classes(),
            self.devices(),
            self.sim.seed.wrapping_add(17),
        )?;
        let public = match &self.algorithm {
            Algo::FedMd { public, .. } | Algo::FedEt { public, .. } => {
                // Geometry-compatible with the private data; its own seed
                // stream so the public corpus is not a relabelled private
                // one.
                let (public, _) = SynthConfig {
                    family: *public,
                    img: self.data.img,
                    train_n: self.data.train_n,
                    test_n: 8,
                    seed: self.sim.seed.wrapping_add(0x9999),
                    ..Default::default()
                }
                .generate();
                Some(public)
            }
            _ => None,
        };
        let resources = self.resources.as_ref().map(|r| r.population(self.devices()));
        Ok(Materialized {
            train,
            test,
            public,
            shards,
            zoo: self.device_specs(),
            resources,
        })
    }

    /// Build the described simulation behind the algorithm-erased driver
    /// interface — the scenario analogue of `Simulation::builder`, usable
    /// without naming the algorithm type. Use
    /// [`ErasedSimulation::as_any`] to reach algorithm-specific accessors
    /// (e.g. FedZKT's gradient-norm probe).
    ///
    /// # Errors
    /// Everything [`Scenario::materialize`] reports.
    pub fn build(&self) -> Result<Box<dyn ErasedSimulation>, ScenarioError> {
        let m = self.materialize()?;
        let sim = self.sim;
        let server_seconds = self.resources.as_ref().map_or(0.0, |r| r.server_seconds);
        fn finish<A: fedzkt_fl::FederatedAlgorithm + 'static>(
            algo: A,
            test: Dataset,
            sim: SimConfig,
            resources: Option<Vec<DeviceResources>>,
            server_seconds: f64,
            churn: Option<ChurnSpec>,
        ) -> Box<dyn ErasedSimulation> {
            let mut builder = Simulation::builder(algo, test, sim);
            if let Some(resources) = resources {
                builder = builder.resources(resources).server_seconds(server_seconds);
            }
            if let Some(churn) = churn {
                builder = builder.churn(churn);
            }
            Box::new(builder.build())
        }
        Ok(match &self.algorithm {
            Algo::FedZkt(cfg) => {
                let fed = FedZkt::new(&m.zoo, &m.train, &m.shards, *cfg, &sim);
                finish(fed, m.test, sim, m.resources, server_seconds, self.churn)
            }
            Algo::FedAvg(cfg) | Algo::FedProx(cfg) => {
                let fed = FedAvg::new(m.zoo[0], &m.train, &m.shards, *cfg, &sim);
                finish(fed, m.test, sim, m.resources, server_seconds, self.churn)
            }
            Algo::FedMd { cfg, .. } => {
                let public = m.public.expect("materialize provides a public set for fedmd");
                let fed = FedMd::new(&m.zoo, &m.train, &m.shards, public, *cfg, &sim);
                finish(fed, m.test, sim, m.resources, server_seconds, self.churn)
            }
            Algo::FedEt { cfg, .. } => {
                let public = m.public.expect("materialize provides a public set for fedet");
                let fed = FedEt::new(&m.zoo, &m.train, &m.shards, public, *cfg, &sim);
                finish(fed, m.test, sim, m.resources, server_seconds, self.churn)
            }
            Algo::FedGkt(cfg) => {
                let fed = FedGkt::new(&m.zoo, &m.train, &m.shards, *cfg, &sim);
                finish(fed, m.test, sim, m.resources, server_seconds, self.churn)
            }
        })
    }

    /// Run the scenario to completion and return its log.
    ///
    /// # Errors
    /// Everything [`Scenario::build`] reports.
    pub fn run(&self) -> Result<RunLog, ScenarioError> {
        self.run_with(&mut |_| {})
    }

    /// Run the scenario, invoking `observer` with each round's metrics as
    /// it completes.
    ///
    /// # Errors
    /// Everything [`Scenario::build`] reports.
    pub fn run_with(
        &self,
        observer: &mut dyn FnMut(&RoundMetrics),
    ) -> Result<RunLog, ScenarioError> {
        let mut sim = self.build()?;
        Ok(sim.run_with(observer).clone())
    }
}

/// Run a grid of `n` scenarios (`cell(i)` is the `i`-th) fleet-parallel —
/// one cell per worker on up to `threads` workers (0 = the workspace
/// default) — returning the results in cell order. This is the one cell runner behind `scenarios sweep` and
/// `scenarios repro`; a worker executes its cells' device-parallel phases
/// inline (nested `par` regions run serially), and the logs are
/// bit-identical for every thread count.
pub fn run_cells<'a>(
    n: usize,
    threads: usize,
    cell: impl Fn(usize) -> &'a Scenario + Sync,
) -> Vec<Result<RunLog, ScenarioError>> {
    par::map_indexed(n, par::resolve_threads(threads), |i| cell(i).run())
}
