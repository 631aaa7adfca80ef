//! # fedzkt-core
//!
//! The FedZKT algorithm (Zhang, Wu & Yuan, ICDCS 2022) and its evaluation
//! counterparts.
//!
//! FedZKT enables federated learning across devices running **independently
//! chosen model architectures**, with **no public dataset and no
//! pre-trained generator**. Per round (Algorithm 1):
//!
//! 1. **DeviceUpdate** (Algorithm 2 + Eq. 9): each active device runs plain
//!    local SGD with cross-entropy, optionally adding the ℓ2 proximal term
//!    `‖w − w_received‖²` against non-IID drift, then uploads its own model
//!    parameters.
//! 2. **ServerUpdate** (Algorithm 3): the server plays a zero-sum game
//!    between a generator `G` and the global model `F` against the
//!    ensemble of uploaded on-device models (Eq. 2): `G` *maximises* the
//!    disagreement `L(F(G(z)), f_ens(G(z)))` while `F` *minimises* it,
//!    with `L` the paper's Softmax-ℓ1 (SL) loss by default (Eq. 5).
//! 3. **Bidirectional transfer** (Eq. 8): the trained generator's samples
//!    are reused to distill the updated global knowledge *into each
//!    on-device architecture* (KL loss), and only those per-device
//!    parameters are sent back.
//!
//! This crate also implements the **FedMD** baseline (public-dataset logit
//! consensus), the local-only / centralized bound trainers of Table III,
//! and the gradient-norm probe behind Figure 2.
//!
//! Both [`FedZkt`] and [`FedMd`] are
//! [`FederatedAlgorithm`](fedzkt_fl::FederatedAlgorithm) implementations:
//! the round loop, participation sampling, communication accounting,
//! simulated time and evaluation are owned by the
//! [`Simulation`](fedzkt_fl::Simulation) driver in `fedzkt-fl`, shared
//! with the FedAvg/FedProx baselines.
//!
//! ## Example
//!
//! ```no_run
//! use fedzkt_core::{FedZkt, FedZktConfig};
//! use fedzkt_data::{DataFamily, Partition, SynthConfig};
//! use fedzkt_fl::{ErasedSimulation, SimConfig, Simulation};
//! use fedzkt_models::ModelSpec;
//!
//! let (train, test) = SynthConfig { family: DataFamily::MnistLike, ..Default::default() }.generate_corpus();
//! let shards = Partition::Iid.split(train.labels(), train.num_classes(), 5, 1).unwrap();
//! let zoo = ModelSpec::assign_round_robin(&ModelSpec::paper_zoo_small(), 5);
//! let sim_cfg = SimConfig::default();
//! let fed = FedZkt::new(&zoo, &train, &shards, FedZktConfig::default(), &sim_cfg);
//! let mut sim = Simulation::builder(fed, test, sim_cfg).build();
//! let log = sim.run();
//! println!("final average on-device accuracy: {:.1}%", 100.0 * log.final_accuracy());
//! ```

#![warn(missing_docs)]

mod bounds;
mod config;
mod fedmd;
mod fedzkt;
mod probe;

pub use bounds::{centralized_bound, local_only_bound, BoundConfig};
pub use config::FedZktConfig;
pub use fedmd::{FedMd, FedMdConfig};
pub use fedzkt::FedZkt;
pub use probe::{GradNormProbe, GradNormRecord};

// Re-export the loss selector: it is part of this crate's configuration
// surface even though it lives with the autograd losses.
pub use fedzkt_autograd::DistillLoss;
