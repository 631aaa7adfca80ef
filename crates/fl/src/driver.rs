//! The algorithm-agnostic simulation driver.
//!
//! Every federated algorithm in the workspace — FedZKT, FedAvg/FedProx,
//! FedMD — runs under **one** round loop, [`Simulation`]. The driver owns
//! the protocol machinery the paper holds constant when comparing
//! algorithms: participation sampling (straggler model), communication
//! accounting, the simulated wall clock over heterogeneous
//! [`DeviceResources`], evaluation cadence, and the [`RunLog`]. An
//! algorithm only supplies its two protocol phases through
//! [`FederatedAlgorithm`]:
//!
//! * [`local_update`](FederatedAlgorithm::local_update) — device-side work
//!   for the round's active set (local SGD, logit scoring, …);
//! * [`server_update`](FederatedAlgorithm::server_update) — server-side
//!   aggregation / distillation and the transfer back to devices;
//!
//! plus accessors for its evaluable models and per-device payload shapes.
//! A new scenario — a straggler model, an evaluation cadence, a
//! communication budget, a new algorithm — is written once here and
//! applies to every algorithm.

use crate::checkpoint::{AlgoState, SimCheckpoint, CHECKPOINT_VERSION};
use crate::comm::CommTracker;
use crate::{
    evaluate, AccuracyRow, ChurnProcess, ChurnSpec, CodecSpec, DeviceRegistry, DeviceResources,
    ParticipationSampler, PayloadCodec, RoundMetrics, RoundParticipant, RunLog, SimClock,
};
use fedzkt_data::Dataset;
use fedzkt_nn::{Module, StateDict};
use fedzkt_tensor::{par, split_seed};
use std::any::Any;

/// Protocol-level knobs shared by every federated algorithm. Algorithm
/// configs (`FedZktConfig`, `FedAvgConfig`, `FedMdConfig`) keep only the
/// hyperparameters specific to their update rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Communication rounds `T`.
    pub rounds: usize,
    /// Fraction of devices active per round (the straggler model; 1.0 =
    /// everyone, every round).
    pub participation: f32,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// Evaluate every `eval_every`-th round (the final round is always
    /// evaluated; `0` means *only* the final round). Skipped rounds carry
    /// the most recent accuracies forward in the [`RunLog`] — at paper
    /// scale, evaluating every round is pure overhead.
    pub eval_every: usize,
    /// Master seed: the run is a pure function of it.
    pub seed: u64,
    /// Worker threads for device-parallel phases; 0 resolves via
    /// [`fedzkt_tensor::par::max_threads`] (`FEDZKT_THREADS`, then
    /// available parallelism). Results are bit-identical for every value.
    pub threads: usize,
    /// Wire-format codec every transmitted payload passes through
    /// ([`crate::codec`]). [`CodecSpec::Raw`] (the default) is bit-exact;
    /// the lossy codecs shrink the accounted traffic *and* perturb the
    /// decoded states the receiving side trains on.
    pub codec: CodecSpec,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rounds: 10,
            participation: 1.0,
            eval_batch: 64,
            eval_every: 1,
            seed: 0,
            threads: 0,
            codec: CodecSpec::Raw,
        }
    }
}

impl SimConfig {
    /// The worker-thread count device-parallel phases actually use:
    /// `threads`, or — when 0 — the workspace default from
    /// [`fedzkt_tensor::par::max_threads`].
    pub fn resolved_threads(&self) -> usize {
        par::resolve_threads(self.threads)
    }
}

/// Per-round state the driver hands to an algorithm's phases.
///
/// Every payload crosses the wire through [`RoundContext::upload`],
/// [`RoundContext::download`] or [`RoundContext::broadcast`]: each call
/// encodes the payload once with the round's codec ([`SimConfig::codec`]),
/// charges the encoded size to the device(s) it names, and returns what
/// the receiving side decodes. The driver totals the charges into the
/// metrics and feeds the per-device byte counts to the simulated clock.
/// Algorithms read the resolved worker-thread count from
/// [`RoundContext::threads`].
pub struct RoundContext {
    comm: CommTracker,
    codec: CodecSpec,
    threads: usize,
    server_seconds: f64,
    train_loss: Option<f32>,
}

impl RoundContext {
    pub(crate) fn new(devices: usize, codec: CodecSpec, threads: usize) -> Self {
        RoundContext {
            comm: CommTracker::new(devices),
            codec,
            threads,
            server_seconds: 0.0,
            train_loss: None,
        }
    }

    /// Resolved worker threads for device-parallel work
    /// ([`crate::train_local_fleet`] and friends).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Device `k` sends `sd` to the server: charged to `k`'s uplink at its
    /// encoded size; returns the state the server decodes.
    pub fn upload(&mut self, k: usize, sd: StateDict) -> StateDict {
        let (received, wire) = self.cross(sd);
        self.comm.record_upload(k, wire);
        received
    }

    /// The server sends `sd` to device `k`: charged to `k`'s downlink at
    /// its encoded size; returns the state the device decodes.
    pub fn download(&mut self, k: usize, sd: StateDict) -> StateDict {
        let (received, wire) = self.cross(sd);
        self.comm.record_download(k, wire);
        received
    }

    /// The server sends one payload to every device in `ids`: encoded
    /// once, charged once to each recipient's downlink; returns the state
    /// every recipient decodes.
    pub fn broadcast(&mut self, ids: &[usize], sd: StateDict) -> StateDict {
        let (received, wire) = self.cross(sd);
        for &k in ids {
            self.comm.record_download(k, wire);
        }
        received
    }

    /// One wire crossing: the decoded payload and its wire size. Raw is
    /// bit-exact by contract (property-tested), so it moves the payload
    /// through and charges its size without the encode/decode memcpys.
    fn cross(&self, sd: StateDict) -> (StateDict, usize) {
        if matches!(self.codec, CodecSpec::Raw) {
            let wire = self.codec.wire_bytes(&sd);
            return (sd, wire);
        }
        let bytes = self.codec.encode(&sd);
        let decoded =
            self.codec.decode(&bytes).expect("a payload this codec just encoded must decode");
        (decoded, bytes.len())
    }

    /// Add simulated *server-side* compute time for this round (seconds);
    /// it is added to the slowest active device's time when a clock is
    /// attached.
    pub fn add_server_seconds(&mut self, seconds: f64) {
        self.server_seconds += seconds;
    }

    /// Override the round's reported training loss. By default the driver
    /// records [`FederatedAlgorithm::local_update`]'s return value; an
    /// algorithm whose loss-bearing device phase runs *after* aggregation
    /// (FedMD's revisit) reports it here from `server_update` instead.
    pub fn set_train_loss(&mut self, loss: f32) {
        self.train_loss = Some(loss);
    }
}

/// One federated algorithm, as seen by the [`Simulation`] driver.
///
/// Implementations own their devices, models and data shards; the driver
/// owns the round loop, sampling, accounting, the clock and evaluation.
/// The contract every implementation must honour (enforced by the
/// workspace's protocol-invariant suite):
///
/// * only devices in `active` may change state during a round — stragglers
///   stay bit-identical;
/// * every payload a device sends or receives crosses the wire through
///   [`RoundContext::upload`], [`RoundContext::download`] or
///   [`RoundContext::broadcast`], which charge its encoded size and hand
///   the receiver the decoded state; a device's per-round traffic is the
///   wire size of its own named tensor bundle — uplink per
///   [`FederatedAlgorithm::payload_template`], downlink per
///   [`FederatedAlgorithm::downlink_template`] — never a function of
///   server-side state;
/// * same seed ⇒ same run, for every worker-thread count and codec.
pub trait FederatedAlgorithm {
    /// Number of devices in the federation.
    fn devices(&self) -> usize;

    /// Device-side phase: train the `active` devices locally, send their
    /// uplinks with [`RoundContext::upload`], and return the mean training
    /// loss over them.
    fn local_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) -> f32;

    /// Server-side phase: aggregate / distill, and transfer state back to
    /// the `active` devices with [`RoundContext::download`] or
    /// [`RoundContext::broadcast`].
    fn server_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext);

    /// Device `k`'s current evaluable model.
    ///
    /// Homogeneous algorithms may return one shared model for every `k`;
    /// the driver evaluates each distinct model once per evaluation.
    fn device_model(&self, k: usize) -> &dyn Module;

    /// The server/global model, when the algorithm maintains one.
    fn global_model(&self) -> Option<&dyn Module> {
        None
    }

    /// A template of device `k`'s per-round **uplink** payload — the
    /// quantity the paper's communication claims are stated in. The
    /// template is a *named tensor bundle*: a [`StateDict`] whose tensors
    /// are whatever the protocol ships, in a fixed order — a model's
    /// parameters (FedZKT: `O(|w_k|)`), a single alignment-sized logit
    /// tensor (FedMD), or a per-sample feature/logit/label triple
    /// (FedGKT) — not necessarily any module's state. Every codec's wire
    /// size is a pure function of the template's tensor *shapes*, so
    /// [`PayloadCodec::wire_bytes`]`(template)` is the device's expected
    /// per-round uplink — the invariant the workspace protocol suite
    /// checks against the round's charged traffic. Values need not
    /// match what a live round ships.
    fn payload_template(&self, k: usize) -> StateDict;

    /// A template of device `k`'s per-round **downlink** payload, for the
    /// protocols whose two directions carry differently shaped bundles
    /// (FedGKT uplinks per-sample features+logits but downlinks only
    /// soft labels). Defaults to [`FederatedAlgorithm::payload_template`]
    /// — correct for every symmetric protocol. The driver charges
    /// mid-round dropouts their downlink at this template's wire size,
    /// and the protocol suite checks recorded downlink totals against it.
    fn downlink_template(&self, k: usize) -> StateDict {
        self.payload_template(k)
    }

    /// Training samples device `k` processes locally in one round (drives
    /// the simulated clock's compute time).
    fn local_samples(&self, k: usize) -> usize;

    /// The [`SimConfig::seed`] this algorithm was constructed with, when it
    /// derives its RNG streams from one. [`SimulationBuilder::build`]
    /// asserts it matches the driver's config, so a call site cannot
    /// silently hand the constructor and the builder two different
    /// protocol configs.
    fn construction_seed(&self) -> Option<u64> {
        None
    }

    /// The algorithm's [`DeviceRegistry`], when it runs its fleet through
    /// one. The driver exports the registry's residency counters into
    /// every round's metrics; algorithms without a registry report the
    /// whole fleet as resident.
    fn registry(&self) -> Option<&DeviceRegistry> {
        None
    }

    /// Called by the driver right before it evaluates device models, so
    /// the fleet can make every model the evaluation will borrow resident
    /// ([`FederatedAlgorithm::device_model`] hands out `&dyn Module`,
    /// which cannot materialize on demand). Anything else that reads
    /// device models between rounds calls this first. Default: no-op.
    fn prepare_eval(&mut self) {}

    /// Called by the driver at the very end of a round — after evaluation
    /// and clock advancement — so the fleet can drop the round's
    /// materialized device state back to state summaries. Default:
    /// no-op.
    fn end_round(&mut self, _round: usize) {}

    /// Serialize the algorithm's evolving state into a checkpoint bag:
    /// everything `local_update`/`server_update` mutate across rounds
    /// (model state dicts, RNG cursors, optimizer moments, registry
    /// counters). State that is a pure function of the construction
    /// config — specs, shards, seeds — must *not* be stored; resume
    /// reconstructs the algorithm from the same config first and then
    /// overlays this bag. Default: an empty bag, correct for an
    /// algorithm whose rounds mutate nothing.
    fn save_state(&self) -> AlgoState {
        AlgoState::new()
    }

    /// Restore the state captured by [`FederatedAlgorithm::save_state`]
    /// into a freshly constructed instance of the same config. The
    /// implementation must fully overwrite every piece of state
    /// `save_state` covers — resume-equivalence is only as good as this
    /// round trip. Default: accept the empty bag.
    ///
    /// # Errors
    /// Returns a message when the bag is missing entries or holds
    /// payloads that do not fit this algorithm's shapes.
    fn load_state(&mut self, _state: &AlgoState) -> Result<(), String> {
        Ok(())
    }
}

/// The driver's one face: stepping, the run loop, snapshots and the log
/// of a [`Simulation`], independent of the algorithm type parameter.
///
/// `Simulation<FedZkt>` and `Simulation<FedAvg>` are distinct types, so a
/// harness that compares algorithms — or executes a declaratively described
/// experiment whose algorithm is chosen at runtime — cannot hold them in
/// one collection or return them from one constructor. Every
/// `Simulation<A>` implements this trait, and the trait is the *only*
/// place the driver surface lives: typed callers import it just as
/// `Box<dyn ErasedSimulation>` callers do, and [`ErasedSimulation::run_with`]
/// is the library's one loop over [`ErasedSimulation::round`]. The names
/// (`round`, `run_with`, `checkpoint`, `resume_from`) are the ones the
/// benchmark harness compiles against, so they stay until that harness
/// changes with them.
///
/// The algorithm itself is reachable through [`ErasedSimulation::as_any`]:
/// downcast to the concrete `Simulation<A>` when an experiment needs an
/// algorithm-specific accessor (e.g. FedZKT's gradient-norm probe).
pub trait ErasedSimulation {
    /// Number of devices in the federation.
    fn devices(&self) -> usize;

    /// The protocol configuration.
    fn config(&self) -> &SimConfig;

    /// The run log so far.
    fn log(&self) -> &RunLog;

    /// Execute one communication round (0-based `round`): sample the
    /// active set, run the algorithm's two phases, evaluate (per cadence),
    /// advance the clock, and append the metrics to the log.
    ///
    /// # Panics
    /// Rounds must be driven in order: `round` is required to be the next
    /// undriven index (`log().rounds.len()`). Skipping or replaying an
    /// index would silently desync the participation sampler, the
    /// per-round seed streams, and the log.
    fn round(&mut self, round: usize) -> RoundMetrics;

    /// Run the remaining configured rounds, invoking `observer` with each
    /// round's metrics as it completes — the hook experiments use for
    /// live progress, early stopping criteria collection, or custom
    /// artifact streaming.
    fn run_with(&mut self, observer: &mut dyn FnMut(&RoundMetrics)) -> &RunLog {
        for round in self.log().rounds.len()..self.config().rounds {
            let metrics = self.round(round);
            observer(&metrics);
        }
        self.log()
    }

    /// Run the remaining configured rounds, returning the full log.
    fn run(&mut self) -> &RunLog {
        self.run_with(&mut |_| {})
    }

    /// Snapshot the full simulation state between rounds: the log (which
    /// doubles as the round cursor), the clock instant, and the
    /// algorithm's [`FederatedAlgorithm::save_state`] bag. The sampler
    /// and churn model are pure functions of `(seed, round)` and need no
    /// snapshot. Resuming the checkpoint into a freshly built simulation
    /// of the same configuration continues the run bit-identically.
    fn checkpoint(&self) -> SimCheckpoint;

    /// Restore a [`ErasedSimulation::checkpoint`] snapshot into this —
    /// freshly built, not yet stepped — simulation: the log, clock and
    /// algorithm state are overwritten and the next
    /// [`ErasedSimulation::round`] index is `ck.rounds_done`. The
    /// carried-forward evaluation snapshot is reconstructed from the last
    /// logged round (the log carries accuracies forward over skipped
    /// rounds by design).
    ///
    /// # Errors
    /// Returns a message when the checkpoint's seed, fleet size, depth or
    /// clock presence does not match this simulation's configuration,
    /// when its log is not rounds `1..=rounds_done` in order or holds an
    /// accuracy row that is not one entry per device, or when the
    /// algorithm rejects its state bag. On error the simulation may be
    /// partially overwritten and must be discarded.
    fn resume_from(&mut self, ck: &SimCheckpoint) -> Result<(), String>;

    /// The concrete `Simulation<A>` behind the erasure, for downcasting.
    fn as_any(&self) -> &dyn Any;
}

/// Accuracies from the most recent evaluation, carried forward over
/// rounds the cadence skips (a copy per round, O(1) for a fleet that
/// scores alike).
struct EvalSnapshot {
    device_accuracy: AccuracyRow,
    avg: f32,
    global: Option<f32>,
}

/// The generic simulation driver: one round loop for any
/// [`FederatedAlgorithm`].
///
/// Construct with [`Simulation::builder`]; drive, snapshot and resume
/// through [`ErasedSimulation`], its one face ([`ErasedSimulation::run`],
/// [`ErasedSimulation::run_with`] for a per-round observer,
/// [`ErasedSimulation::round`] for manual stepping). The driver appends
/// every round's [`RoundMetrics`] to its [`RunLog`]; when device resources
/// are attached, `sim_seconds` is populated from the simulated clock.
pub struct Simulation<A: FederatedAlgorithm> {
    algo: A,
    cfg: SimConfig,
    test: Dataset,
    sampler: ParticipationSampler,
    clock: Option<SimClock>,
    churn: Option<ChurnProcess>,
    server_seconds: f64,
    log: RunLog,
    last_eval: Option<EvalSnapshot>,
}

/// Configures a [`Simulation`] before it starts; created by
/// [`Simulation::builder`].
pub struct SimulationBuilder<A: FederatedAlgorithm> {
    algo: A,
    test: Dataset,
    cfg: SimConfig,
    resources: Option<Vec<DeviceResources>>,
    churn: Option<ChurnSpec>,
    server_seconds: f64,
}

impl<A: FederatedAlgorithm> SimulationBuilder<A> {
    /// Attach per-device compute/link resources: a [`SimClock`] is created
    /// over them and every round's `sim_seconds` is populated.
    ///
    /// # Panics
    /// Panics when the population size differs from the algorithm's device
    /// count.
    pub fn resources(mut self, resources: Vec<DeviceResources>) -> Self {
        assert_eq!(
            resources.len(),
            self.algo.devices(),
            "resource population must match the device count"
        );
        self.resources = Some(resources);
        self
    }

    /// Constant simulated server-side seconds added to every round (e.g.
    /// the server's distillation time on datacenter hardware). Only
    /// meaningful together with [`SimulationBuilder::resources`].
    pub fn server_seconds(mut self, seconds: f64) -> Self {
        self.server_seconds = seconds;
        self
    }

    /// Attach a churn model ([`crate::churn`]): the participation sampler
    /// draws from each round's *available* devices, sampled devices may
    /// drop out mid-round (charged partial compute, contributing no
    /// update), and link bandwidths vary per round. A quiescent spec
    /// ([`ChurnSpec::is_quiescent`]) is dropped here, so attaching one is
    /// bit-identical to attaching none.
    ///
    /// # Panics
    /// [`SimulationBuilder::build`] panics when the spec fails
    /// [`ChurnSpec::validate`].
    pub fn churn(mut self, spec: ChurnSpec) -> Self {
        self.churn = Some(spec);
        self
    }

    /// Finish configuration.
    ///
    /// # Panics
    /// Panics when the algorithm reports zero devices, or when it was
    /// constructed from a [`SimConfig`] with a different seed than the one
    /// handed to [`Simulation::builder`] (an inconsistent config pair
    /// would make the run silently non-reproducible).
    pub fn build(self) -> Simulation<A> {
        let devices = self.algo.devices();
        assert!(devices > 0, "need at least one device");
        if let Some(seed) = self.algo.construction_seed() {
            assert_eq!(
                seed, self.cfg.seed,
                "algorithm was constructed with a different SimConfig seed than the driver's"
            );
        }
        let sampler = ParticipationSampler::new(
            devices,
            self.cfg.participation,
            split_seed(self.cfg.seed, 0x5A3),
        );
        Simulation {
            algo: self.algo,
            cfg: self.cfg,
            test: self.test,
            sampler,
            clock: self.resources.map(SimClock::new),
            churn: self
                .churn
                .filter(|spec| !spec.is_quiescent())
                .map(|spec| ChurnProcess::new(spec, devices)),
            server_seconds: self.server_seconds,
            log: RunLog::new(),
            last_eval: None,
        }
    }
}

impl<A: FederatedAlgorithm> Simulation<A> {
    /// Start configuring a simulation of `algo`, evaluated on `test`.
    pub fn builder(algo: A, test: Dataset, cfg: SimConfig) -> SimulationBuilder<A> {
        SimulationBuilder { algo, test, cfg, resources: None, churn: None, server_seconds: 0.0 }
    }

    /// The wrapped algorithm (for its accessors: models, probes, specs).
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// Mutable access to the wrapped algorithm.
    pub fn algorithm_mut(&mut self) -> &mut A {
        &mut self.algo
    }

    /// The wrapped algorithm after [`FederatedAlgorithm::prepare_eval`] —
    /// the form whose [`device_model`](FederatedAlgorithm::device_model)s
    /// may be read between rounds, where device models are otherwise not
    /// held ([`crate::fleet`]). The fleet then stays materialized until
    /// the next round ends, and the residency gauge counts it.
    pub fn algorithm_for_eval(&mut self) -> &A {
        self.algo.prepare_eval();
        &self.algo
    }

    /// The simulated clock, when resources are attached.
    pub fn clock(&self) -> Option<&SimClock> {
        self.clock.as_ref()
    }

    /// The churn model, when a non-quiescent one is attached.
    pub fn churn(&self) -> Option<&ChurnProcess> {
        self.churn.as_ref()
    }

    /// Is `round` (0-based) one the evaluation cadence covers?
    fn eval_due(&self, round: usize) -> bool {
        let r = round + 1;
        r == self.cfg.rounds || (self.cfg.eval_every > 0 && r.is_multiple_of(self.cfg.eval_every))
    }

    /// Evaluate every distinct device model (deduplicated by identity, so
    /// homogeneous algorithms sharing one model pay one evaluation) and
    /// the global model.
    fn evaluate_all(&self) -> EvalSnapshot {
        let n = self.algo.devices();
        let mut cache: Vec<(*const u8, f32)> = Vec::new();
        let mut eval_cached = |model: &dyn Module| -> f32 {
            let ptr = model as *const dyn Module as *const u8;
            match cache.iter().find(|(p, _)| std::ptr::eq(*p, ptr)) {
                Some((_, acc)) => *acc,
                None => {
                    let acc = evaluate(model, &self.test, self.cfg.eval_batch);
                    cache.push((ptr, acc));
                    acc
                }
            }
        };
        let device_accuracy: AccuracyRow =
            (0..n).map(|k| eval_cached(self.algo.device_model(k))).collect();
        let avg = device_accuracy.iter().sum::<f32>() / n.max(1) as f32;
        let global = self.algo.global_model().map(&mut eval_cached);
        EvalSnapshot { device_accuracy, avg, global }
    }
}

impl<A: FederatedAlgorithm + 'static> ErasedSimulation for Simulation<A> {
    fn devices(&self) -> usize {
        self.algo.devices()
    }

    fn config(&self) -> &SimConfig {
        &self.cfg
    }

    fn log(&self) -> &RunLog {
        &self.log
    }

    fn round(&mut self, round: usize) -> RoundMetrics {
        assert_eq!(
            round,
            self.log.rounds.len(),
            "rounds must be driven in order; the next round index is {}",
            self.log.rounds.len()
        );
        // Sample from the round's available pool. Without churn the pool
        // is the whole fleet, over which `active_among` and `active` take
        // the same draws over the same positions and return the same set.
        let (available, sampled) = match &self.churn {
            Some(churn) => {
                let pool = churn.available(round);
                let sampled = self.sampler.active_among(round, &pool);
                (pool.len(), sampled)
            }
            None => (self.algo.devices(), self.sampler.active(round)),
        };
        // Partition the sampled set into survivors (the algorithm's active
        // set) and mid-round dropouts, which are charged their download
        // and partial compute below but never touch algorithm state.
        let mut active = Vec::with_capacity(sampled.len());
        let mut dropouts: Vec<(usize, f64)> = Vec::new();
        match &self.churn {
            Some(churn) => {
                for &k in &sampled {
                    match churn.dropout(k, round) {
                        Some(fraction) => dropouts.push((k, fraction)),
                        None => active.push(k),
                    }
                }
            }
            None => active = sampled,
        }
        let mut ctx =
            RoundContext::new(self.algo.devices(), self.cfg.codec, self.cfg.resolved_threads());

        // A round can be empty under churn (nobody online, or everyone
        // sampled dropped): both algorithm phases are skipped — an empty
        // active set must leave algorithm state untouched anyway — but
        // evaluation cadence, the clock and the log still advance.
        let local_loss = if active.is_empty() {
            0.0
        } else {
            self.algo.local_update(round, &active, &mut ctx)
        };
        if !active.is_empty() {
            self.algo.server_update(round, &active, &mut ctx);
        }
        // A dropout received the round's broadcast before dying: charge
        // its downlink as its own downlink template crossing the wire.
        for &(k, _) in &dropouts {
            ctx.download(k, self.algo.downlink_template(k));
        }
        let RoundContext { comm, server_seconds, train_loss, .. } = ctx;

        let mut metrics = RoundMetrics::new(round + 1);
        metrics.train_loss = train_loss.unwrap_or(local_loss);
        metrics.upload_bytes = comm.total_upload();
        metrics.download_bytes = comm.total_download();
        metrics.available_devices = available;
        metrics.dropped_devices = dropouts.len();

        if self.eval_due(round) {
            self.algo.prepare_eval();
            self.last_eval = Some(self.evaluate_all());
        }
        if let Some(snapshot) = &self.last_eval {
            metrics.device_accuracy = snapshot.device_accuracy.clone();
            metrics.avg_device_accuracy = snapshot.avg;
            metrics.global_accuracy = snapshot.global;
        }

        if let Some(clock) = &mut self.clock {
            let algo = &self.algo;
            let participants: Vec<RoundParticipant> = match &self.churn {
                Some(churn) => active
                    .iter()
                    .map(|&k| RoundParticipant {
                        device: k,
                        completion: 1.0,
                        link_scale: churn.link_scale(k, round),
                    })
                    .chain(dropouts.iter().map(|&(k, fraction)| RoundParticipant {
                        device: k,
                        completion: fraction,
                        link_scale: churn.link_scale(k, round),
                    }))
                    .collect(),
                None => active.iter().copied().map(RoundParticipant::full).collect(),
            };
            metrics.sim_seconds = clock.advance_round(
                &participants,
                &|d| algo.local_samples(d),
                &|d| comm.download_bytes(d) as usize,
                &|d| comm.upload_bytes(d) as usize,
                self.server_seconds + server_seconds,
            );
        }

        // Let the fleet drop the round's materialized state, then read
        // the residency gauge (peak is a monotone high-water mark, so it
        // is unaffected by the release; `resident` intentionally reflects
        // the *between-rounds* footprint).
        self.algo.end_round(round);
        metrics.registered_devices = self.algo.devices();
        metrics.peak_resident_devices = match self.algo.registry() {
            Some(reg) => reg.peak_resident(),
            None => self.algo.devices(),
        };

        metrics.active_devices = active;
        self.log.push(metrics.clone());
        metrics
    }

    fn checkpoint(&self) -> SimCheckpoint {
        SimCheckpoint {
            version: CHECKPOINT_VERSION,
            seed: self.cfg.seed,
            devices: self.algo.devices(),
            rounds_done: self.log.rounds.len(),
            clock_now: self.clock.as_ref().map(SimClock::now),
            algo: self.algo.save_state(),
            log: self.log.clone(),
        }
    }

    fn resume_from(&mut self, ck: &SimCheckpoint) -> Result<(), String> {
        if ck.seed != self.cfg.seed {
            return Err(format!(
                "checkpoint seed {} does not match this run's seed {}",
                ck.seed, self.cfg.seed
            ));
        }
        if ck.devices != self.algo.devices() {
            return Err(format!(
                "checkpoint fleet size {} does not match this run's {}",
                ck.devices,
                self.algo.devices()
            ));
        }
        if ck.rounds_done > self.cfg.rounds {
            return Err(format!(
                "checkpoint is {} rounds deep but this run is configured for {}",
                ck.rounds_done, self.cfg.rounds
            ));
        }
        // The log is the round cursor and the source of the carried-forward
        // accuracies, so it must be this run's shape too.
        let rounds = &ck.log.rounds;
        if rounds.len() != ck.rounds_done || rounds.iter().zip(1..).any(|(r, k)| r.round != k) {
            return Err(format!("checkpoint log is not rounds 1..={} in order", ck.rounds_done));
        }
        let ragged = |r: &&RoundMetrics| {
            !r.device_accuracy.is_empty() && r.device_accuracy.len() != ck.devices
        };
        if let Some(r) = rounds.iter().find(ragged) {
            return Err(format!(
                "checkpoint round {} holds {} device accuracies for {} devices",
                r.round,
                r.device_accuracy.len(),
                ck.devices
            ));
        }
        match (&mut self.clock, ck.clock_now) {
            (Some(clock), Some(now)) => clock.set_now(now),
            (None, None) => {}
            (Some(_), None) => {
                return Err("checkpoint has no clock instant but this run has resources".into())
            }
            (None, Some(_)) => {
                return Err("checkpoint has a clock instant but this run has no resources".into())
            }
        }
        self.algo.load_state(&ck.algo)?;
        self.log = ck.log.clone();
        self.last_eval = self.log.rounds.last().filter(|r| !r.device_accuracy.is_empty()).map(
            |r| EvalSnapshot {
                device_accuracy: r.device_accuracy.clone(),
                avg: r.avg_device_accuracy,
                global: r.global_accuracy,
            },
        );
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_models::ModelSpec;
    use fedzkt_nn::state_dict;

    /// A minimal deterministic algorithm for driver-level tests: each
    /// "device" owns a scalar model (an MLP) that never trains; payloads
    /// and sample counts are synthetic.
    struct Stub {
        models: Vec<Box<dyn Module>>,
        local_calls: Vec<Vec<usize>>,
        server_calls: Vec<Vec<usize>>,
    }

    impl Stub {
        fn new(devices: usize) -> Self {
            Stub {
                models: (0..devices)
                    .map(|k| ModelSpec::Mlp { hidden: 4 }.build(1, 2, 8, k as u64))
                    .collect(),
                local_calls: Vec::new(),
                server_calls: Vec::new(),
            }
        }
    }

    impl FederatedAlgorithm for Stub {
        fn devices(&self) -> usize {
            self.models.len()
        }
        fn local_update(&mut self, _r: usize, active: &[usize], ctx: &mut RoundContext) -> f32 {
            self.local_calls.push(active.to_vec());
            for &k in active {
                ctx.upload(k, self.payload_template(k));
            }
            0.5
        }
        fn server_update(&mut self, _r: usize, active: &[usize], ctx: &mut RoundContext) {
            self.server_calls.push(active.to_vec());
            for &k in active {
                ctx.download(k, self.payload_template(k));
            }
        }
        fn device_model(&self, k: usize) -> &dyn Module {
            self.models[k].as_ref()
        }
        fn payload_template(&self, k: usize) -> StateDict {
            // 25·(k+1) raw f32 values → a per-device payload size gradient.
            StateDict {
                params: vec![fedzkt_tensor::Tensor::zeros(&[25 * (k + 1)])],
                buffers: Vec::new(),
            }
        }
        fn local_samples(&self, _k: usize) -> usize {
            40
        }
    }

    /// Raw wire size of the Stub's payload for device `k`: a 15-byte
    /// header (codec id, version, counts, one 1-d shape) + 4 bytes/value.
    fn stub_wire(k: usize) -> u64 {
        (15 + 100 * (k + 1)) as u64
    }

    fn test_set() -> Dataset {
        Dataset::new(fedzkt_tensor::Tensor::zeros(&[6, 1, 8, 8]), vec![0, 1, 0, 1, 0, 1], 2)
    }

    /// A two-tensor payload with a signed zero, a NaN and a subnormal, so
    /// "bit-identical" means more than `==`.
    fn wire_payload() -> StateDict {
        let mut values: Vec<f32> = (0..15).map(|i| (i as f32 - 7.0) * 0.37).collect();
        values[3] = -0.0;
        values[8] = f32::NAN;
        values[11] = f32::MIN_POSITIVE / 4.0;
        StateDict {
            params: vec![fedzkt_tensor::Tensor::from_vec(values, &[3, 5]).unwrap()],
            buffers: vec![
                fedzkt_tensor::Tensor::from_vec(vec![1.5, -2.0, 0.25, 9.0], &[4]).unwrap()
            ],
        }
    }

    /// The param and buffer counts, then each tensor's rank, dims and f32
    /// bits, params first.
    fn bits(sd: &StateDict) -> Vec<u64> {
        let mut words = vec![sd.params.len() as u64, sd.buffers.len() as u64];
        for t in sd.iter_tensors() {
            words.push(t.shape().len() as u64);
            words.extend(t.shape().iter().map(|&d| d as u64));
            words.extend(t.data().iter().map(|v| u64::from(v.to_bits())));
        }
        words
    }

    /// Per-device (uplink, downlink) bytes charged so far.
    fn charged(ctx: &RoundContext, devices: usize) -> (Vec<u64>, Vec<u64>) {
        let RoundContext { comm, .. } = ctx;
        (
            (0..devices).map(|k| comm.upload_bytes(k)).collect(),
            (0..devices).map(|k| comm.download_bytes(k)).collect(),
        )
    }

    #[test]
    fn wire_calls_return_the_decoded_payload_and_charge_its_encoded_size() {
        let codecs = [
            CodecSpec::Raw,
            CodecSpec::QuantQ8,
            CodecSpec::QuantQ4,
            CodecSpec::TopK { density: 0.5 },
        ];
        for codec in codecs {
            let bytes = codec.encode(&wire_payload());
            let received = bits(&codec.decode(&bytes).unwrap());
            let wire = bytes.len() as u64;
            if matches!(codec, CodecSpec::Raw) {
                // Raw hands every receiver the sender's payload bit for bit.
                assert_eq!(received, bits(&wire_payload()));
            }

            let mut ctx = RoundContext::new(4, codec, 1);
            assert_eq!(bits(&ctx.upload(1, wire_payload())), received, "{codec:?}");
            assert_eq!(charged(&ctx, 4), (vec![0, wire, 0, 0], vec![0; 4]), "{codec:?}");

            let mut ctx = RoundContext::new(4, codec, 1);
            assert_eq!(bits(&ctx.download(2, wire_payload())), received, "{codec:?}");
            assert_eq!(charged(&ctx, 4), (vec![0; 4], vec![0, 0, wire, 0]), "{codec:?}");

            // One encode, and each recipient is charged exactly once.
            let mut ctx = RoundContext::new(4, codec, 1);
            assert_eq!(bits(&ctx.broadcast(&[0, 2, 3], wire_payload())), received, "{codec:?}");
            assert_eq!(charged(&ctx, 4), (vec![0; 4], vec![wire, 0, wire, wire]), "{codec:?}");
        }
    }

    #[test]
    fn driver_runs_all_rounds_and_totals_traffic() {
        let cfg = SimConfig { rounds: 3, ..Default::default() };
        let mut sim = Simulation::builder(Stub::new(2), test_set(), cfg).build();
        let log = sim.run().clone();
        assert_eq!(log.rounds.len(), 3);
        for r in &log.rounds {
            assert_eq!(r.upload_bytes, stub_wire(0) + stub_wire(1));
            assert_eq!(r.download_bytes, stub_wire(0) + stub_wire(1));
            assert_eq!(r.active_devices, vec![0, 1]);
            assert_eq!(r.train_loss, 0.5);
            assert_eq!(r.sim_seconds, 0.0, "no clock attached");
        }
        assert_eq!(sim.algorithm().local_calls.len(), 3);
        assert_eq!(sim.algorithm().server_calls.len(), 3);
    }

    #[test]
    fn codec_shrinks_accounted_traffic() {
        let raw_cfg = SimConfig { rounds: 1, ..Default::default() };
        let q8_cfg = SimConfig { rounds: 1, codec: CodecSpec::QuantQ8, ..Default::default() };
        let mut raw = Simulation::builder(Stub::new(2), test_set(), raw_cfg).build();
        let mut q8 = Simulation::builder(Stub::new(2), test_set(), q8_cfg).build();
        let raw_up = raw.round(0).upload_bytes;
        let q8_up = q8.round(0).upload_bytes;
        // (The Stub's payloads are tiny — 25/50 values — so the fixed
        // header keeps the ratio below the asymptotic ~4×.)
        assert!(2 * q8_up < raw_up, "q8 {q8_up} vs raw {raw_up}");
        // The accounted traffic is exactly the codec's wire size of each
        // active device's payload template.
        let expected: u64 = (0..2)
            .map(|k| CodecSpec::QuantQ8.wire_bytes(&q8.algorithm().payload_template(k)) as u64)
            .sum();
        assert_eq!(q8_up, expected);
    }

    #[test]
    fn participation_restricts_phases_to_the_active_set() {
        let cfg = SimConfig { rounds: 4, participation: 0.5, ..Default::default() };
        let mut sim = Simulation::builder(Stub::new(4), test_set(), cfg).build();
        sim.run();
        for (local, server) in
            sim.algorithm().local_calls.iter().zip(&sim.algorithm().server_calls)
        {
            assert_eq!(local.len(), 2);
            assert_eq!(local, server, "both phases see the same active set");
        }
        // Different rounds sample different sets (with overwhelming
        // probability over 4 rounds of 4C2).
        assert!(
            sim.algorithm().local_calls.windows(2).any(|w| w[0] != w[1]),
            "sampler never varied: {:?}",
            sim.algorithm().local_calls
        );
    }

    #[test]
    fn eval_cadence_carries_accuracies_forward() {
        let cfg = SimConfig { rounds: 5, eval_every: 2, ..Default::default() };
        let mut sim = Simulation::builder(Stub::new(2), test_set(), cfg).build();
        let log = sim.run().clone();
        // Rounds 2 and 4 evaluate per cadence; 5 is the final round.
        // Round 1 has no snapshot yet; round 3 carries round 2's forward.
        assert!(log.rounds[0].device_accuracy.is_empty());
        assert_eq!(log.rounds[1].device_accuracy.len(), 2);
        assert_eq!(log.rounds[2].device_accuracy, log.rounds[1].device_accuracy);
        assert_eq!(log.rounds[4].device_accuracy.len(), 2);
        // Stub models never train, so every evaluation agrees.
        assert_eq!(log.rounds[3].avg_device_accuracy, log.rounds[1].avg_device_accuracy);
    }

    #[test]
    fn eval_every_zero_evaluates_only_the_final_round() {
        let cfg = SimConfig { rounds: 3, eval_every: 0, ..Default::default() };
        let mut sim = Simulation::builder(Stub::new(2), test_set(), cfg).build();
        let log = sim.run().clone();
        assert!(log.rounds[0].device_accuracy.is_empty());
        assert!(log.rounds[1].device_accuracy.is_empty());
        assert_eq!(log.rounds[2].device_accuracy.len(), 2);
    }

    #[test]
    fn attached_resources_populate_sim_seconds() {
        let cfg = SimConfig { rounds: 2, ..Default::default() };
        let mut sim = Simulation::builder(Stub::new(2), test_set(), cfg)
            .resources(vec![DeviceResources::smartphone(), DeviceResources::microcontroller()])
            .server_seconds(1.0)
            .build();
        let log = sim.run().clone();
        for r in &log.rounds {
            // MCU: 40 samples at 5/s = 8 s compute alone, plus server time.
            assert!(r.sim_seconds > 8.0, "sim_seconds {}", r.sim_seconds);
        }
        let total: f64 = log.rounds.iter().map(|r| r.sim_seconds).sum();
        assert!((sim.clock().expect("clock").now() - total).abs() < 1e-9);
    }

    #[test]
    fn observer_sees_every_round_in_order() {
        let cfg = SimConfig { rounds: 3, ..Default::default() };
        let mut sim = Simulation::builder(Stub::new(2), test_set(), cfg).build();
        let mut seen = Vec::new();
        sim.run_with(&mut |m| seen.push(m.round));
        assert_eq!(seen, vec![1, 2, 3]);
        // A second run() is a no-op: all configured rounds are done.
        sim.run_with(&mut |m| seen.push(m.round));
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn manual_stepping_then_run_continues_where_left_off() {
        let cfg = SimConfig { rounds: 3, ..Default::default() };
        let mut sim = Simulation::builder(Stub::new(2), test_set(), cfg).build();
        sim.round(0);
        assert_eq!(sim.log().rounds.len(), 1);
        sim.run();
        assert_eq!(sim.log().rounds.len(), 3);
        assert_eq!(sim.algorithm().local_calls.len(), 3);
    }

    #[test]
    fn erased_simulation_runs_and_downcasts() {
        let cfg = SimConfig { rounds: 2, ..Default::default() };
        // Two erased simulations of *different* concrete types in one Vec —
        // the collection PR 3's typed driver could not express.
        let mut sims: Vec<Box<dyn ErasedSimulation>> = vec![
            Box::new(Simulation::builder(Stub::new(2), test_set(), cfg).build()),
            Box::new(Simulation::builder(Stub::new(3), test_set(), cfg).build()),
        ];
        let mut seen = Vec::new();
        for sim in &mut sims {
            sim.run_with(&mut |m| seen.push(m.round));
            assert_eq!(sim.log().rounds.len(), 2);
        }
        assert_eq!(seen, vec![1, 2, 1, 2]);
        assert_eq!(sims[0].devices(), 2);
        assert_eq!(sims[1].devices(), 3);
        // The typed algorithm stays reachable through the erasure.
        let typed = sims[0]
            .as_any()
            .downcast_ref::<Simulation<Stub>>()
            .expect("downcast to the concrete simulation");
        assert_eq!(typed.algorithm().local_calls.len(), 2);
        assert!(sims[0].as_any().downcast_ref::<Simulation<Stub>>().is_some());
    }

    #[test]
    fn erased_stepping_matches_typed_stepping() {
        let cfg = SimConfig { rounds: 2, ..Default::default() };
        let mut typed = Simulation::builder(Stub::new(2), test_set(), cfg).build();
        let mut erased: Box<dyn ErasedSimulation> =
            Box::new(Simulation::builder(Stub::new(2), test_set(), cfg).build());
        let a = typed.round(0);
        let b = erased.round(0);
        assert_eq!(a, b);
        assert_eq!(typed.run(), erased.run());
    }

    #[test]
    fn residency_columns_fall_back_to_the_fleet_size() {
        // Stub has no registry: both columns report the fleet.
        let cfg = SimConfig { rounds: 2, ..Default::default() };
        let mut sim = Simulation::builder(Stub::new(3), test_set(), cfg).build();
        let log = sim.run().clone();
        for r in &log.rounds {
            assert_eq!(r.registered_devices, 3);
            assert_eq!(r.peak_resident_devices, 3);
        }
    }

    #[test]
    fn lifecycle_hooks_fire_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Hooked {
            model: Box<dyn Module>,
            events: Rc<RefCell<Vec<&'static str>>>,
        }
        impl FederatedAlgorithm for Hooked {
            fn devices(&self) -> usize {
                2
            }
            fn local_update(&mut self, _: usize, _: &[usize], _: &mut RoundContext) -> f32 {
                self.events.borrow_mut().push("local");
                0.0
            }
            fn server_update(&mut self, _: usize, _: &[usize], _: &mut RoundContext) {
                self.events.borrow_mut().push("server");
            }
            fn device_model(&self, _k: usize) -> &dyn Module {
                self.model.as_ref()
            }
            fn payload_template(&self, _k: usize) -> StateDict {
                StateDict { params: Vec::new(), buffers: Vec::new() }
            }
            fn local_samples(&self, _k: usize) -> usize {
                0
            }
            fn prepare_eval(&mut self) {
                self.events.borrow_mut().push("prepare_eval");
            }
            fn end_round(&mut self, _round: usize) {
                self.events.borrow_mut().push("end_round");
            }
        }
        let events = Rc::new(RefCell::new(Vec::new()));
        let algo = Hooked {
            model: ModelSpec::Mlp { hidden: 4 }.build(1, 2, 8, 1),
            events: Rc::clone(&events),
        };
        // eval_every = 0: only the final round evaluates, so prepare_eval
        // must fire exactly once, between server_update and end_round.
        let cfg = SimConfig { rounds: 2, eval_every: 0, ..Default::default() };
        Simulation::builder(algo, test_set(), cfg).build().run();
        assert_eq!(
            *events.borrow(),
            vec!["local", "server", "end_round", "local", "server", "prepare_eval", "end_round"]
        );
    }

    fn clocked(devices: usize, cfg: SimConfig) -> Simulation<Stub> {
        Simulation::builder(Stub::new(devices), test_set(), cfg)
            .resources(vec![DeviceResources::smartphone(); devices])
            .build()
    }

    #[test]
    fn checkpoint_at_every_round_resumes_bit_identically() {
        let cfg = SimConfig { rounds: 4, participation: 0.5, eval_every: 2, ..Default::default() };
        let mut uninterrupted = clocked(4, cfg);
        let reference = uninterrupted.run().clone();
        for k in 0..=4 {
            let mut first = clocked(4, cfg);
            for r in 0..k {
                first.round(r);
            }
            // Through the serialized form, as a real kill/restart would go.
            let ck = SimCheckpoint::from_json(&first.checkpoint().to_json()).expect("parse");
            assert_eq!(ck.rounds_done, k);
            let mut resumed = clocked(4, cfg);
            resumed.resume_from(&ck).expect("resume");
            assert_eq!(resumed.run(), &reference, "killed at round {k}");
        }
    }

    #[test]
    fn resume_refuses_a_foreign_checkpoint() {
        let cfg = SimConfig { rounds: 2, ..Default::default() };
        let ck = clocked(2, cfg).checkpoint();
        // Wrong seed.
        let other = SimConfig { seed: 99, ..cfg };
        let mut sim = clocked(2, other);
        assert!(sim.resume_from(&ck).unwrap_err().contains("seed"));
        // Wrong fleet size.
        let mut sim = clocked(3, cfg);
        assert!(sim.resume_from(&ck).unwrap_err().contains("fleet size"));
        // Clock presence mismatch, both ways.
        let mut sim = Simulation::builder(Stub::new(2), test_set(), cfg).build();
        assert!(sim.resume_from(&ck).unwrap_err().contains("clock"));
        let unclocked = Simulation::builder(Stub::new(2), test_set(), cfg).build().checkpoint();
        let mut sim = clocked(2, cfg);
        assert!(sim.resume_from(&unclocked).unwrap_err().contains("clock"));
        // Deeper than the configured run.
        let shallow = SimConfig { rounds: 1, ..cfg };
        let mut deep = clocked(2, cfg);
        deep.round(0);
        deep.round(1);
        let ck = deep.checkpoint();
        let mut sim = clocked(2, shallow);
        assert!(sim.resume_from(&ck).unwrap_err().contains("rounds deep"));
        // A log whose rounds are not 1..=rounds_done in order.
        let mut renumbered = ck.clone();
        renumbered.log.rounds[1].round = 1;
        assert!(clocked(2, cfg).resume_from(&renumbered).unwrap_err().contains("in order"));
        let mut short = ck.clone();
        short.log.rounds.pop();
        assert!(clocked(2, cfg).resume_from(&short).unwrap_err().contains("in order"));
        // An accuracy row that is not one entry per device.
        let mut ragged = ck;
        ragged.log.rounds[0].device_accuracy = vec![0.5, 0.25, 0.5].into();
        assert!(clocked(2, cfg).resume_from(&ragged).unwrap_err().contains("device accuracies"));
    }

    #[test]
    fn quiescent_churn_is_dropped_and_bit_identical_to_none() {
        let cfg = SimConfig { rounds: 3, participation: 0.5, ..Default::default() };
        let mut plain = Simulation::builder(Stub::new(4), test_set(), cfg).build();
        let mut quiet =
            Simulation::builder(Stub::new(4), test_set(), cfg).churn(ChurnSpec::default()).build();
        assert!(quiet.churn().is_none(), "a quiescent spec must be dropped at build time");
        assert_eq!(plain.run(), quiet.run());
    }

    #[test]
    fn churn_empties_rounds_without_touching_the_algorithm() {
        // mean_lifetime = 0.1 rounds to a 1-round lifetime for every
        // device: round 0 is fully populated, every later pool is empty.
        let spec = ChurnSpec { seed: 1, mean_lifetime: 0.1, ..Default::default() };
        let cfg = SimConfig { rounds: 3, ..Default::default() };
        let mut sim = Simulation::builder(Stub::new(3), test_set(), cfg).churn(spec).build();
        let log = sim.run().clone();
        assert_eq!(log.rounds[0].available_devices, 3);
        assert_eq!(log.rounds[0].active_devices, vec![0, 1, 2]);
        assert_eq!(log.rounds[1].available_devices, 0);
        assert!(log.rounds[1].active_devices.is_empty());
        assert_eq!(log.rounds[1].upload_bytes, 0);
        assert_eq!(log.rounds[1].train_loss, 0.0);
        // The algorithm's phases ran only in the populated round…
        assert_eq!(sim.algorithm().local_calls.len(), 1);
        assert_eq!(sim.algorithm().server_calls.len(), 1);
        // …but the evaluation cadence is driver business and still fires.
        assert_eq!(log.rounds[2].device_accuracy.len(), 3);
    }

    #[test]
    fn dropouts_are_charged_download_but_never_upload_or_update() {
        let spec = ChurnSpec { seed: 9, dropout: 0.5, ..Default::default() };
        let cfg = SimConfig { rounds: 6, ..Default::default() };
        let mut sim = Simulation::builder(Stub::new(4), test_set(), cfg)
            .resources(vec![DeviceResources::smartphone(); 4])
            .churn(spec)
            .build();
        let log = sim.run().clone();
        let dropped: usize = log.rounds.iter().map(|r| r.dropped_devices).sum();
        let survived: usize = log.rounds.iter().map(|r| r.active_devices.len()).sum();
        assert!(dropped > 0, "p = 0.5 over 24 draws must drop someone");
        assert!(survived > 0, "p = 0.5 over 24 draws must spare someone");
        let mut li = 0;
        for r in &log.rounds {
            assert_eq!(r.active_devices.len() + r.dropped_devices, 4);
            if !r.active_devices.is_empty() {
                assert_eq!(r.active_devices, sim.algorithm().local_calls[li]);
                li += 1;
            }
            // Upload comes from survivors only; every sampled device —
            // survivor or dropout — is charged its download.
            let up: u64 = r.active_devices.iter().map(|&k| stub_wire(k)).sum();
            assert_eq!(r.upload_bytes, up);
            assert_eq!(r.download_bytes, (0..4).map(stub_wire).sum::<u64>());
            assert!(r.sim_seconds > 0.0);
        }
        assert_eq!(li, sim.algorithm().local_calls.len());
    }

    #[test]
    fn shared_device_model_is_evaluated_once() {
        // A homogeneous stub: one model served for every device index.
        struct Homogeneous {
            model: Box<dyn Module>,
        }
        impl FederatedAlgorithm for Homogeneous {
            fn devices(&self) -> usize {
                3
            }
            fn local_update(&mut self, _: usize, _: &[usize], _: &mut RoundContext) -> f32 {
                0.0
            }
            fn server_update(&mut self, _: usize, _: &[usize], _: &mut RoundContext) {}
            fn device_model(&self, _k: usize) -> &dyn Module {
                self.model.as_ref()
            }
            fn global_model(&self) -> Option<&dyn Module> {
                Some(self.model.as_ref())
            }
            fn payload_template(&self, _k: usize) -> StateDict {
                StateDict { params: Vec::new(), buffers: Vec::new() }
            }
            fn local_samples(&self, _k: usize) -> usize {
                0
            }
        }
        let algo = Homogeneous { model: ModelSpec::Mlp { hidden: 4 }.build(1, 2, 8, 3) };
        let before = state_dict(algo.model.as_ref());
        let cfg = SimConfig { rounds: 1, ..Default::default() };
        let mut sim = Simulation::builder(algo, test_set(), cfg).build();
        let log = sim.run().clone();
        let r = &log.rounds[0];
        assert_eq!(r.device_accuracy.uniform(), r.global_accuracy, "one model, one stored score");
        assert!((r.avg_device_accuracy - r.device_accuracy[0]).abs() < 1e-5);
        // Evaluation is side-effect-free on the model.
        assert_eq!(state_dict(sim.algorithm().model.as_ref()), before);
    }
}
