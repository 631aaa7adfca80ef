//! The seam between the harness and the library: a transparent
//! [`FederatedAlgorithm`] wrapper that records phase spans, and a build
//! path that mirrors `Scenario::build` step by step so each set-up stage
//! can be timed from outside.

use crate::trace::Tracer;
use fedzkt_core::{FedMd, FedZkt};
use fedzkt_data::Dataset;
use fedzkt_fl::{
    AlgoState, ChurnSpec, DeviceRegistry, DeviceResources, ErasedSimulation, FedAvg, FedEt, FedGkt,
    FederatedAlgorithm, PayloadCodec, RoundContext, SimConfig, Simulation,
};
use fedzkt_nn::{Module, StateDict};
use fedzkt_scenario::{Algo, Scenario, ScenarioError};
use std::rc::Rc;
use std::time::Instant;

/// Delegates every trait method to `inner` and records a span around the
/// four phases the driver calls once per round. It touches nothing the
/// simulation can observe, so a run through it yields the same `RunLog`
/// as a run without it (pinned by the self-tests).
pub struct Timed<A> {
    inner: A,
    tracer: Rc<Tracer>,
}

impl<A: FederatedAlgorithm> FederatedAlgorithm for Timed<A> {
    fn devices(&self) -> usize {
        self.inner.devices()
    }
    fn local_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) -> f32 {
        let inner = &mut self.inner;
        self.tracer.span("fl.local_update", || inner.local_update(round, active, ctx))
    }
    fn server_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) {
        let inner = &mut self.inner;
        self.tracer.span("fl.server_update", || inner.server_update(round, active, ctx))
    }
    fn device_model(&self, k: usize) -> &dyn Module {
        self.inner.device_model(k)
    }
    fn global_model(&self) -> Option<&dyn Module> {
        self.inner.global_model()
    }
    fn payload_template(&self, k: usize) -> StateDict {
        self.inner.payload_template(k)
    }
    fn downlink_template(&self, k: usize) -> StateDict {
        self.inner.downlink_template(k)
    }
    fn local_samples(&self, k: usize) -> usize {
        self.inner.local_samples(k)
    }
    fn construction_seed(&self) -> Option<u64> {
        self.inner.construction_seed()
    }
    fn registry(&self) -> Option<&DeviceRegistry> {
        self.inner.registry()
    }
    fn prepare_eval(&mut self) {
        let inner = &mut self.inner;
        self.tracer.span("fl.prepare_eval", || inner.prepare_eval())
    }
    fn end_round(&mut self, round: usize) {
        let inner = &mut self.inner;
        self.tracer.span("fl.end_round", || inner.end_round(round))
    }
    fn save_state(&self) -> AlgoState {
        self.inner.save_state()
    }
    fn load_state(&mut self, state: &AlgoState) -> Result<(), String> {
        self.inner.load_state(state)
    }
}

/// What the harness needs from a simulation beyond the erased driver
/// surface: the algorithm's payload templates, for the traffic gate and
/// the codec replays.
pub trait BenchSim: ErasedSimulation {
    /// Device `k`'s uplink bundle template.
    fn payload_template(&self, k: usize) -> StateDict;

    /// Σ over logged rounds and their active devices of the codec wire
    /// size of the device's uplink template — what the log's
    /// `upload_bytes` must add up to on a fleet without churn.
    fn expected_upload_bytes(&self) -> u64;
}

impl<A: FederatedAlgorithm + 'static> BenchSim for Simulation<A> {
    fn payload_template(&self, k: usize) -> StateDict {
        self.algorithm().payload_template(k)
    }

    fn expected_upload_bytes(&self) -> u64 {
        let codec = self.config().codec;
        let mut per_device = std::collections::BTreeMap::new();
        self.log()
            .rounds
            .iter()
            .flat_map(|r| r.active_devices.iter().copied())
            .map(|k| {
                *per_device.entry(k).or_insert_with(|| {
                    codec.wire_bytes(&self.algorithm().payload_template(k)) as u64
                })
            })
            .sum()
    }
}

/// Wall-clock seconds of each set-up stage of one build.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Scenario::materialize` (validate + synthesize + partition).
    pub materialize_s: f64,
    /// The algorithm constructor.
    pub algo_new_s: f64,
    /// `Simulation::builder(..).build()`.
    pub sim_build_s: f64,
}

impl SetupTimes {
    /// The three stages added up.
    pub fn total(&self) -> f64 {
        self.materialize_s + self.algo_new_s + self.sim_build_s
    }
}

/// One finished build and what each of its stages cost.
pub struct Built {
    /// The simulation, ready for its first round.
    pub sim: Box<dyn BenchSim>,
    /// Stage timings of this build.
    pub setup: SetupTimes,
}

/// What `Simulation::builder` takes besides the algorithm.
struct DriverParts {
    test: Dataset,
    sim: SimConfig,
    resources: Option<Vec<DeviceResources>>,
    server_seconds: f64,
    churn: Option<ChurnSpec>,
}

fn finish<A: FederatedAlgorithm + 'static>(algo: A, parts: DriverParts) -> Box<dyn BenchSim> {
    let mut builder = Simulation::builder(algo, parts.test, parts.sim);
    if let Some(resources) = parts.resources {
        builder = builder.resources(resources).server_seconds(parts.server_seconds);
    }
    if let Some(churn) = parts.churn {
        builder = builder.churn(churn);
    }
    Box::new(builder.build())
}

/// `Scenario::build`, stage by stage, optionally with the algorithm
/// wrapped in [`Timed`]. Kept in step with the library's version by the
/// transparency self-test (same RunLog as `Scenario::run`).
///
/// # Errors
/// Everything `Scenario::materialize` reports.
pub fn build(sc: &Scenario, tracer: Option<&Rc<Tracer>>) -> Result<Built, ScenarioError> {
    let t = Instant::now();
    let m = sc.materialize()?;
    let materialize_s = t.elapsed().as_secs_f64();
    let sim = sc.sim;
    let parts = DriverParts {
        test: m.test,
        sim,
        resources: m.resources,
        server_seconds: sc.resources.as_ref().map_or(0.0, |r| r.server_seconds),
        churn: sc.churn,
    };

    // Each arm times its constructor, then the driver build — around the
    // wrapped algorithm when tracing.
    macro_rules! arm {
        ($ctor:expr) => {{
            let t = Instant::now();
            let algo = $ctor;
            let algo_new_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let built = match tracer {
                Some(tracer) => finish(Timed { inner: algo, tracer: Rc::clone(tracer) }, parts),
                None => finish(algo, parts),
            };
            (built, algo_new_s, t.elapsed().as_secs_f64())
        }};
    }
    let (built, algo_new_s, sim_build_s) = match &sc.algorithm {
        Algo::FedZkt(cfg) => arm!(FedZkt::new(&m.zoo, &m.train, &m.shards, *cfg, &sim)),
        Algo::FedAvg(cfg) | Algo::FedProx(cfg) => {
            arm!(FedAvg::new(m.zoo[0], &m.train, &m.shards, *cfg, &sim))
        }
        Algo::FedMd { cfg, .. } => {
            let public = m.public.expect("materialize provides a public set for fedmd");
            arm!(FedMd::new(&m.zoo, &m.train, &m.shards, public, *cfg, &sim))
        }
        Algo::FedEt { cfg, .. } => {
            let public = m.public.expect("materialize provides a public set for fedet");
            arm!(FedEt::new(&m.zoo, &m.train, &m.shards, public, *cfg, &sim))
        }
        Algo::FedGkt(cfg) => arm!(FedGkt::new(&m.zoo, &m.train, &m.shards, *cfg, &sim)),
    };
    Ok(Built { sim: built, setup: SetupTimes { materialize_s, algo_new_s, sim_build_s } })
}
