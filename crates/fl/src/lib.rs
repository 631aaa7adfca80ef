//! # fedzkt-fl
//!
//! Federated-learning simulation substrate, built around one generic
//! driver:
//!
//! * [`Simulation`] — the round loop shared by **every** algorithm in the
//!   workspace: participation sampling (straggler modelling), local
//!   training, accuracy evaluation with a configurable cadence,
//!   communication accounting, a simulated wall clock over heterogeneous
//!   [`DeviceResources`], and per-round metrics with CSV/JSON export;
//! * [`ErasedSimulation`] — the driver's one face, for typed and
//!   type-erased callers alike: stepping (`round`), the run loop (`run`,
//!   `run_with`, the library's only loop over `round`), snapshots
//!   (`checkpoint`, `resume_from`) and the log. `Simulation` itself keeps
//!   only its builder and typed accessors. The names are the ones the
//!   benchmark harness compiles against, so they stay until it changes;
//! * [`FederatedAlgorithm`] — the trait an algorithm implements to run
//!   under the driver: a device-side phase, a server-side phase, and
//!   accessors for its evaluable models and per-device payload shapes;
//! * [`codec`] — the wire-format payload codecs ([`PayloadCodec`]):
//!   every transmitted payload is pushed through the run's [`CodecSpec`]
//!   (raw f32, int8/int4 quantization, top-k sparsification), so the
//!   accounted traffic is the *encoded* size and lossy-decode error flows
//!   into training;
//! * [`fleet`] — the one device fleet every algorithm runs on
//!   ([`ShardStore`] + [`DeviceFleet`]): a device's shard is synthesized
//!   the first time it is staged, and its model materialized from its
//!   spec + deterministic per-device seed only while a phase needs it and
//!   dropped back to a state summary at end of round (the "Scale model"
//!   section there is the reference);
//! * [`registry`] — the [`DeviceRegistry`] residency gauge: the
//!   resident/peak/touched counters of the fleet, the peak exported into
//!   every [`RoundMetrics`] row;
//! * [`churn`] — seeded, deterministic fleet dynamics ([`ChurnSpec`] /
//!   [`ChurnProcess`]): device arrival/departure, per-device availability
//!   schedules, mid-round dropout and time-varying link bandwidth, all
//!   pure functions of `(spec, device, round)` so availability timelines
//!   survive resharding and restarts unchanged;
//! * [`checkpoint`] — versioned whole-simulation snapshots
//!   ([`SimCheckpoint`]): `RunLog`, RNG cursors, round index, device
//!   summaries, registry counters and clock serialized so that kill-at-round-k + resume
//!   reproduces the uninterrupted `RunLog` bit for bit;
//! * [`FedAvg`] — FedAvg (McMahan et al.) and FedProx (ℓ2-proximal local
//!   objective) over homogeneous models, used both as substrate validation
//!   and as conceptual baselines for the FedZKT comparison in
//!   `fedzkt-core` (which contributes `FedZkt` and `FedMd` as further
//!   [`FederatedAlgorithm`] implementations);
//! * [`FedEt`] — Fed-ET (Cho et al.): device-ensemble knowledge transfer
//!   onto one large server model through diversity-weighted consensus
//!   distillation on a public transfer set;
//! * [`FedGkt`] — FedGKT (He et al.): split training whose wire payloads
//!   are *per-sample feature/logit bundles* rather than model state —
//!   the algorithm that exercises the named-tensor-bundle payload
//!   contract hardest.
//!
//! ## Writing a new algorithm
//!
//! Implement [`FederatedAlgorithm`]: put device-side work (local SGD,
//! logit scoring, …) in `local_update`, server-side aggregation in
//! `server_update`, send every transmitted payload with
//! [`RoundContext::upload`], [`RoundContext::download`] or
//! [`RoundContext::broadcast`] (each encodes it once, charges its wire
//! size, and returns the *decoded* state to hand the receiving side),
//! and keep inactive devices untouched. The driver then gives you
//! stragglers, wire-format codecs, comm accounting, simulated time,
//! evaluation cadence and run logging for free — and the workspace's
//! protocol-invariant and determinism suites apply to your algorithm
//! unchanged.
//!
//! ### The payload contract: named tensor bundles
//!
//! `payload_template(k)` describes device `k`'s per-round **uplink** as a
//! *named tensor bundle* — a [`StateDict`](fedzkt_nn::StateDict) whose
//! tensors are whatever your protocol ships, in a fixed order. That may
//! be a model's parameters ([`FedAvg`], [`FedEt`]), a single
//! alignment-sized logit tensor (FedMD), or a per-sample
//! feature/logit/label triple ([`FedGkt`]) — the template does **not**
//! have to match any module's state. Because every codec's wire size is a
//! pure function of the template's tensor *shapes*, the protocol suite
//! can assert `Σ wire_bytes(template) == recorded traffic` without
//! knowing your protocol. When the two directions carry differently
//! shaped bundles, also override `downlink_template(k)` (it defaults to
//! the uplink template); the driver charges mid-round dropouts their
//! downlink at that template's size, and the invariant suite checks
//! downlink totals against it.
//!
//! ## Example
//!
//! ```
//! use fedzkt_data::{DataFamily, Partition, SynthConfig};
//! use fedzkt_fl::{ErasedSimulation, FedAvg, FedAvgConfig, SimConfig, Simulation};
//! use fedzkt_models::ModelSpec;
//!
//! let (train, test) = SynthConfig {
//!     family: DataFamily::MnistLike, img: 8, train_n: 64, test_n: 32, seed: 1,
//!     ..Default::default()
//! }.generate_corpus();
//! let shards = Partition::Iid.split(train.labels(), 10, 2, 3).unwrap();
//! let sim_cfg = SimConfig { rounds: 1, ..Default::default() };
//! let fed = FedAvg::new(
//!     ModelSpec::Mlp { hidden: 16 },
//!     &train, &shards,
//!     FedAvgConfig { local_epochs: 1, ..Default::default() },
//!     &sim_cfg,
//! );
//! let mut sim = Simulation::builder(fed, test, sim_cfg).build();
//! let log = sim.run();
//! assert_eq!(log.rounds.len(), 1);
//! ```

#![warn(missing_docs)]

mod aggregate;
pub mod checkpoint;
pub mod churn;
pub mod codec;
mod comm;
mod driver;
mod eval;
mod fedavg;
mod fedet;
mod fedgkt;
pub mod fleet;
pub mod json;
mod metrics;
mod participation;
pub mod registry;
mod simclock;
mod training;

pub use aggregate::{average_state_dicts, StreamingAverage};
pub use checkpoint::{AlgoState, SimCheckpoint};
pub use churn::{ChurnProcess, ChurnSpec};
pub use codec::{CodecError, CodecSpec, PayloadCodec};
pub use driver::{
    ErasedSimulation, FederatedAlgorithm, RoundContext, SimConfig, Simulation, SimulationBuilder,
};
pub use eval::{accuracy, evaluate};
pub use fedavg::{FedAvg, FedAvgConfig};
pub use fedet::{FedEt, FedEtConfig};
pub use fedgkt::{FedGkt, FedGktConfig, SplitModel};
pub use fleet::{DeviceFleet, ShardStore};
pub use metrics::{AccuracyRow, RoundMetrics, RunLog};
pub use participation::ParticipationSampler;
pub use registry::DeviceRegistry;
pub use simclock::{DeviceResources, RoundParticipant, SimClock};
pub use training::{
    digest_logits, train_local, train_local_fleet, DigestConfig, FleetJob, LocalTrainConfig,
};
