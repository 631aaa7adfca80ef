//! The four workloads: what each runs, why it is here, and how one unit
//! of it is driven and timed. Sizes are constants in this file; every
//! unit of a workload does the same work, so the time of segment *i* can
//! be compared across units.

use crate::timed::{build, BenchSim};
use crate::trace::Tracer;
use fedzkt_data::{DataFamily, Partition};
use fedzkt_fl::{ChurnSpec, CodecSpec, RunLog, SimCheckpoint};
use fedzkt_scenario::{
    resolve, standard_algorithm, ResourceAssignment, ResourceSpec, Scenario, Tier,
};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

// Unit sizes. A unit is cut to about a second so that a run holds tens
// of them: on a shared host, interference from other tenants comes in
// sub-second bursts, and only a statistic over many short repetitions can
// step around it (see the README's section on steadiness). Each cut keeps
// the preset's phase mix — the per-iteration and per-sample *rates* are
// what an optimisation moves — not its accuracy.

/// `zkt_hetero`: devices (one each of Models A–E) and rounds per unit.
pub const ZKT_DEVICES: usize = 5;
/// See [`ZKT_DEVICES`].
pub const ZKT_ROUNDS: usize = 1;
/// `zkt_hetero`: distillation and transfer iterations per round (preset:
/// 20), local epochs (preset: 2) and train/test samples (preset: 600/300),
/// all cut by the same factor so the server phase keeps its share.
pub const ZKT_GAME_ITERS: usize = 5;
/// See [`ZKT_GAME_ITERS`].
pub const ZKT_LOCAL_EPOCHS: usize = 1;
/// See [`ZKT_GAME_ITERS`].
pub const ZKT_SAMPLES: (usize, usize) = (200, 100);
/// `avg_local`: FedAvg rounds per unit.
pub const AVG_ROUNDS: usize = 15;
/// `kt_family`: devices, rounds and train/test samples of each of the
/// three legs (`bench_algos`: 5 devices, 4 rounds, 600/300).
pub const KT_DEVICES: usize = 5;
/// See [`KT_DEVICES`].
pub const KT_ROUNDS: usize = 1;
/// See [`KT_DEVICES`].
pub const KT_SAMPLES: (usize, usize) = (200, 100);
/// `fleet_wire`: rounds per unit, and the round after which the process
/// state is dropped and rebuilt from the checkpoint file.
pub const FLEET_ROUNDS: usize = 40;
/// See [`FLEET_ROUNDS`].
pub const FLEET_HALT_AT: usize = 20;

/// One scenario of a workload; `kt_family` has three, the others one.
pub struct Leg {
    /// Short name used in span and metric names.
    pub label: &'static str,
    /// What runs.
    pub scenario: Scenario,
}

/// A named workload.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why it is part of the benchmark.
    pub why: &'static str,
    /// Build the legs for a benchmark seed (added to each master seed).
    /// This is the `resolve` stage of set-up and is timed as such.
    pub legs: fn(u64) -> Vec<Leg>,
    /// Drop the simulation after this many rounds and rebuild it from the
    /// checkpoint file (also turns on a checkpoint save after every round).
    pub halt_at: Option<usize>,
    /// Correctness floor on the mean final accuracy of the legs, chosen
    /// well below every seed seen so that it trips on collapsed learning,
    /// not on seed noise. Units this short barely leave chance level on
    /// the CIFAR-like workloads, so there the floor only catches a model
    /// that predicts nothing; the RunLog identities are the strong gates.
    pub acc_floor: f32,
    /// Whether the traffic invariant `upload == Σ wire_bytes(template)`
    /// applies (it does not under churn: dropouts upload nothing).
    pub check_uplink: bool,
}

fn single_thread(mut sc: Scenario, rounds: usize, seed: u64) -> Scenario {
    sc.sim.rounds = rounds;
    sc.sim.threads = 1;
    sc.sim.seed = sc.sim.seed.wrapping_add(seed);
    sc
}

fn zkt_hetero(seed: u64) -> Vec<Leg> {
    let mut sc = resolve("hetero-cifar").expect("hetero-cifar is a registered preset");
    sc.set_device_count(ZKT_DEVICES);
    (sc.data.train_n, sc.data.test_n) = ZKT_SAMPLES;
    let cfg = sc.fedzkt_cfg_mut().expect("hetero-cifar runs FedZKT");
    cfg.distill_iters = ZKT_GAME_ITERS;
    cfg.transfer_iters = ZKT_GAME_ITERS;
    cfg.local_epochs = ZKT_LOCAL_EPOCHS;
    vec![Leg { label: "fedzkt", scenario: single_thread(sc, ZKT_ROUNDS, seed) }]
}

fn avg_local(seed: u64) -> Vec<Leg> {
    let sc = resolve("fedavg-lcd").expect("fedavg-lcd is a registered preset");
    vec![Leg { label: "fedavg", scenario: single_thread(sc, AVG_ROUNDS, seed) }]
}

fn kt_family(seed: u64) -> Vec<Leg> {
    // The `bench_algos` shared scenario: same data, partition, zoo and
    // simulated hardware for every algorithm, only the algorithm swapped.
    let mut base = Scenario::standard(
        DataFamily::Cifar10Like,
        Partition::QuantitySkew { classes_per_device: 5 },
        Tier::Quick,
        7,
    );
    base.set_device_count(KT_DEVICES);
    (base.data.train_n, base.data.test_n) = KT_SAMPLES;
    base.resources = Some(ResourceSpec {
        assignment: ResourceAssignment::Heterogeneous { seed: 7 },
        bandwidth: None,
        server_seconds: 1.0,
    });
    let base = single_thread(base, KT_ROUNDS, seed);
    ["fedmd", "fedet", "fedgkt"]
        .into_iter()
        .map(|label| {
            let mut scenario = base.clone();
            scenario.algorithm =
                standard_algorithm(&scenario, label).expect("a standard config exists");
            scenario.name = format!("kt-{label}");
            Leg { label, scenario }
        })
        .collect()
}

fn fleet_wire(seed: u64) -> Vec<Leg> {
    let mut sc = resolve("mega-fleet").expect("mega-fleet is a registered preset");
    sc.sim.codec = CodecSpec::QuantQ8;
    // Final-round evaluation only: the 10⁶-entry `device_accuracy`
    // snapshot is cloned into every later round and every checkpoint once
    // it exists (see the README's sizing note).
    sc.sim.eval_every = 0;
    sc.churn = Some(ChurnSpec {
        duty_period: 4,
        duty_on: 3,
        dropout: 0.1,
        bandwidth_floor: 0.4,
        ..ChurnSpec::default()
    });
    vec![Leg { label: "fedavg", scenario: single_thread(sc, FLEET_ROUNDS, seed) }]
}

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "zkt_hetero",
        why: "FedZKT on Models A-E with heterogeneous resources: the server's zero-shot distillation game is ~85% of wall, so game, depthwise-conv, generator and allocation changes must show here",
        legs: zkt_hetero,
        halt_at: None,
        acc_floor: 0.05,
        check_uplink: true,
    },
    Workload {
        name: "avg_local",
        why: "FedAvg on one small LeNet: local SGD (dense conv, linear, optimizer step, loader) is ~90% of wall and the server ~0%, so a game-only change predicts no change here",
        legs: avg_local,
        halt_at: None,
        acc_floor: 0.4,
        check_uplink: true,
    },
    Workload {
        name: "kt_family",
        why: "FedMD, Fed-ET and FedGKT back to back on one shared scenario: the same kernels used differently, so a FedZKT win that costs its comparators shows here",
        legs: kt_family,
        halt_at: None,
        acc_floor: 0.05,
        check_uplink: true,
    },
    Workload {
        name: "fleet_wire",
        why: "10^6 registered devices, ~10^3 sampled per round, churn, q8 codec, a checkpoint per round and a mid-run rebuild from the file: set-up, sampling, codec and checkpoint I/O dominate, GEMM barely matters",
        legs: fleet_wire,
        halt_at: Some(FLEET_HALT_AT),
        acc_floor: 0.03,
        check_uplink: false,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One leg of one unit, after its last round.
pub struct LegOutcome {
    /// The finished simulation (kept for the gates and the replays).
    pub sim: Box<dyn BenchSim>,
    /// Wall-clock seconds, first round → last round.
    pub wall_s: f64,
}

/// One unit of a workload: every leg run once, start to finish.
pub struct Unit {
    /// Per-leg outcomes, in leg order.
    pub legs: Vec<LegOutcome>,
    /// Seconds per segment, in execution order. A segment is one round
    /// (with its checkpoint save, where the workload has one) or the
    /// mid-run rebuild; unit *u*'s segment *i* does the same work as any
    /// other unit's.
    pub segments: Vec<f64>,
}

impl Unit {
    /// The timed section of the unit: Σ over legs of first round → last
    /// round.
    pub fn wall_s(&self) -> f64 {
        self.legs.iter().map(|l| l.wall_s).sum()
    }

    /// The legs' RunLogs.
    pub fn logs(&self) -> Vec<&RunLog> {
        self.legs.iter().map(|l| l.sim.log()).collect()
    }
}

/// Drive one unit of `w`. With a tracer, the algorithm is wrapped in
/// `Timed` and a `run > round > phase` span tree is recorded; the spans
/// are on the wall-clock path only. `scratch` holds the checkpoint file.
///
/// # Panics
/// Panics when a scenario fails to build or a checkpoint fails to
/// round-trip; the caller counts that as failed operations.
pub fn run_unit(w: &Workload, legs: &[Leg], tracer: Option<&Rc<Tracer>>, scratch: &Path) -> Unit {
    let mut unit = Unit { legs: Vec::new(), segments: Vec::new() };
    for leg in legs {
        let sc = &leg.scenario;
        let rounds = sc.sim.rounds;
        let mut sim = build(sc, tracer).expect("the workload's scenario is well-formed").sim;

        let run_span = tracer.map(|t| t.open("run"));
        let start = Instant::now();
        let mut laps = Laps { last: start, segments: &mut unit.segments };
        match w.halt_at {
            None => {
                let mut round_span = tracer.map(|t| t.open("round"));
                sim.run_with(&mut |m| {
                    if let (Some(t), Some(id)) = (tracer, round_span.take()) {
                        t.close(id);
                        if m.round < rounds {
                            round_span = Some(t.open("round"));
                        }
                    }
                    laps.lap();
                });
            }
            Some(halt_at) => {
                let ckpt = scratch.join(format!("{}.ckpt", w.name));
                drive_with_checkpoints(sim.as_mut(), 0..halt_at, tracer, &ckpt, &mut laps);
                // Kill: every in-memory object of the run goes away; what
                // survives is the file.
                drop(sim);
                sim = spanned(tracer, "fl.resume", || {
                    let mut sim = build(sc, tracer).expect("rebuild for resume").sim;
                    let ck = SimCheckpoint::load(&ckpt).expect("checkpoint load");
                    sim.resume_from(&ck).expect("resume from the checkpoint just written");
                    sim
                });
                laps.lap();
                drive_with_checkpoints(sim.as_mut(), halt_at..rounds, tracer, &ckpt, &mut laps);
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (tracer, run_span) {
            t.close(id);
        }
        unit.legs.push(LegOutcome { sim, wall_s });
    }
    unit
}

/// Segment stopwatch: each `lap` appends the time since the previous one.
struct Laps<'a> {
    last: Instant,
    segments: &'a mut Vec<f64>,
}

impl Laps<'_> {
    fn lap(&mut self) {
        let now = Instant::now();
        self.segments.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// Run `f`, as a span when tracing.
fn spanned<R>(tracer: Option<&Rc<Tracer>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Drive `rounds` one at a time, saving a checkpoint after each; one
/// segment per round, save included.
fn drive_with_checkpoints(
    sim: &mut dyn BenchSim,
    rounds: std::ops::Range<usize>,
    tracer: Option<&Rc<Tracer>>,
    ckpt: &Path,
    laps: &mut Laps<'_>,
) {
    for round in rounds {
        spanned(tracer, "round", || {
            sim.round(round);
            spanned(tracer, "fl.checkpoint_save", || {
                sim.checkpoint().save(ckpt).expect("checkpoint save")
            });
        });
        laps.lap();
    }
}

/// The straight-through form of a halting workload's leg — no checkpoint,
/// no rebuild — whose RunLog the halted-and-resumed units must reproduce.
pub fn run_straight(leg: &Leg) -> RunLog {
    let mut sim = build(&leg.scenario, None).expect("the workload's scenario is well-formed").sim;
    sim.run().clone()
}
