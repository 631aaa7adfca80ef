//! Whole-run determinism: the `seeded_rng`/`split_seed` contract promises
//! that a federated run is a pure function of its seed. Guarded here at the
//! outermost API — two `ErasedSimulation::run` invocations with the same seed
//! must produce bit-identical `RunLog` metrics, and different seeds must
//! not.
//!
//! Since the execution model went multi-threaded, the contract has a second
//! axis: the thread count is a throughput knob, never a semantics knob.
//! `threads = 1` and `threads = 4` must produce bit-identical logs — for
//! **every** algorithm running under the driver (FedZKT, FedMD and Fed-ET
//! dispatch their device phases onto the fleet; FedGKT's composite split
//! models train serially but still evaluate on the pool) — and the
//! parallel tensor kernels (GEMM, conv2d) must produce bit-identical
//! buffers.

use fedzkt::autograd::Var;
use fedzkt::core::{FedMd, FedMdConfig, FedZkt, FedZktConfig};
use fedzkt::data::{DataFamily, Partition, SynthConfig};
use fedzkt::fl::{ErasedSimulation, RunLog, SimConfig, Simulation};
use fedzkt::models::{GeneratorSpec, ModelSpec};
use fedzkt::tensor::{par, seeded_rng, Tensor};
use std::sync::Mutex;

/// Serialises the tests in this binary: `par::set_threads` is process-global
/// state, so a kernel-level thread sweep must not interleave with another
/// test's run (libtest runs tests concurrently on multi-core hosts). Every
/// test takes this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn run_once(seed: u64) -> RunLog {
    run_with_threads(seed, 0)
}

fn run_with_threads(seed: u64, threads: usize) -> RunLog {
    let (train, test) = SynthConfig {
        family: DataFamily::MnistLike,
        img: 8,
        train_n: 96,
        test_n: 48,
        classes: 4,
        seed: 7,
        ..Default::default()
    }
    .generate_corpus();
    let shards = Partition::Dirichlet { beta: 0.5 }
        .split(train.labels(), 4, 3, 7)
        .unwrap();
    let zoo = vec![
        ModelSpec::Mlp { hidden: 16 },
        ModelSpec::SmallCnn { base_channels: 2 },
        ModelSpec::LeNet { scale: 0.5, deep: false },
    ];
    let sim_cfg = SimConfig { rounds: 2, seed, threads, ..Default::default() };
    let cfg = FedZktConfig {
        local_epochs: 1,
        distill_iters: 3,
        transfer_iters: 3,
        device_batch: 16,
        distill_batch: 8,
        device_lr: 0.05,
        generator: GeneratorSpec { z_dim: 16, ngf: 4 },
        global_model: ModelSpec::SmallCnn { base_channels: 4 },
        ..Default::default()
    };
    let fed = FedZkt::new(&zoo, &train, &shards, cfg, &sim_cfg);
    Simulation::builder(fed, test, sim_cfg).build().run().clone()
}

/// A FedMD run with partial participation, so lazy warmup, logit scoring,
/// and the fleet-dispatched digest/revisit phases are all exercised.
fn run_fedmd_with_threads(seed: u64, threads: usize) -> RunLog {
    let (train, test) = SynthConfig {
        family: DataFamily::Cifar10Like,
        img: 8,
        train_n: 96,
        test_n: 48,
        classes: 4,
        seed: 3,
        ..Default::default()
    }
    .generate_corpus();
    let (public, _) = SynthConfig {
        family: DataFamily::Cifar100Like,
        img: 8,
        train_n: 64,
        test_n: 8,
        classes: 8,
        seed: 9,
        ..Default::default()
    }
    .generate();
    let shards = Partition::Iid.split(train.labels(), 4, 3, 5).unwrap();
    let zoo = vec![
        ModelSpec::Mlp { hidden: 16 },
        ModelSpec::SmallCnn { base_channels: 2 },
        ModelSpec::LeNet { scale: 0.5, deep: false },
    ];
    let sim_cfg =
        SimConfig { rounds: 2, participation: 0.67, seed, threads, ..Default::default() };
    let cfg = FedMdConfig {
        public_warmup_epochs: 1,
        private_warmup_epochs: 1,
        alignment_size: 32,
        digest_epochs: 1,
        revisit_epochs: 1,
        batch_size: 16,
        lr: 0.05,
    };
    let fed = FedMd::new(&zoo, &train, &shards, public, cfg, &sim_cfg);
    Simulation::builder(fed, test, sim_cfg).build().run().clone()
}

/// Bit-level equality of every floating-point metric, so that a -0.0 vs 0.0
/// or NaN regression cannot hide behind `PartialEq`.
fn assert_bit_identical(a: &RunLog, b: &RunLog) {
    assert_eq!(a.rounds.len(), b.rounds.len());
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.round, rb.round);
        assert_eq!(ra.train_loss.to_bits(), rb.train_loss.to_bits());
        assert_eq!(
            ra.avg_device_accuracy.to_bits(),
            rb.avg_device_accuracy.to_bits()
        );
        assert_eq!(ra.device_accuracy.len(), rb.device_accuracy.len());
        for (x, y) in ra.device_accuracy.iter().zip(rb.device_accuracy.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        match (ra.global_accuracy, rb.global_accuracy) {
            (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits()),
            (None, None) => {}
            other => panic!("global accuracy presence diverged: {other:?}"),
        }
        assert_eq!(ra.upload_bytes, rb.upload_bytes);
        assert_eq!(ra.download_bytes, rb.download_bytes);
        assert_eq!(ra.sim_seconds.to_bits(), rb.sim_seconds.to_bits());
        assert_eq!(ra.active_devices, rb.active_devices);
        assert_eq!(ra.registered_devices, rb.registered_devices);
        assert_eq!(ra.peak_resident_devices, rb.peak_resident_devices);
    }
}

#[test]
fn same_seed_produces_bit_identical_runlog() {
    let _guard = serial_guard();
    let a = run_once(11);
    let b = run_once(11);
    // Structural equality first (clear failure messages)...
    assert_eq!(a, b, "same-seed runs diverged");
    assert_bit_identical(&a, &b);
}

#[test]
fn runlog_is_bit_identical_across_thread_counts() {
    let _guard = serial_guard();
    // The determinism guarantee of the execution model: worker-thread count
    // partitions work but never reorders a single floating-point operation
    // within an output element, and fleet results merge in device order.
    let one = run_with_threads(11, 1);
    let four = run_with_threads(11, 4);
    assert_eq!(one, four, "threads=1 vs threads=4 diverged");
    assert_bit_identical(&one, &four);
}

#[test]
fn fedmd_runlog_is_bit_identical_across_thread_counts() {
    let _guard = serial_guard();
    // FedMD's digest/revisit (and lazy warmup) run on the same fleet
    // machinery as the other algorithms, so the same guarantee applies.
    let one = run_fedmd_with_threads(13, 1);
    let four = run_fedmd_with_threads(13, 4);
    assert_eq!(one, four, "FedMD threads=1 vs threads=4 diverged");
    assert_bit_identical(&one, &four);
    // Sanity: partial participation really is in effect.
    assert!(one.rounds.iter().all(|r| r.active_devices.len() == 2));
}

#[test]
fn scenario_file_runs_bit_identically_across_thread_counts() {
    let _guard = serial_guard();
    // The declarative path end to end: a checked-in scenario *file* parsed
    // and executed through the erased runner must carry the same guarantee
    // as the hand-wired runs above — the description layer cannot introduce
    // nondeterminism. (Nor can the fleet: checkout/release bookkeeping and
    // on-demand rebuilds happen on the driver thread, outside the parallel
    // region.)
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/tiny.json");
    let mut scenario = fedzkt::scenario::Scenario::load(path).expect("checked-in tiny scenario");
    scenario.sim.threads = 1;
    let one = scenario.run().expect("runnable scenario");
    scenario.sim.threads = 4;
    let four = scenario.run().expect("runnable scenario");
    assert_eq!(one, four, "scenario threads=1 vs threads=4 diverged");
    assert_bit_identical(&one, &four);
    // And the artifact layer too: serialized logs agree byte for byte.
    assert_eq!(one.to_json(), four.to_json());
    assert_eq!(one.rounds.len(), scenario.sim.rounds);
}

#[test]
fn lossy_codec_scenario_runs_bit_identically_across_thread_counts() {
    let _guard = serial_guard();
    // The quantized analogue of the tiny-scenario guarantee above: the
    // checked-in `quant-uplink` preset pushes every payload through the
    // int8 codec, so this asserts that *lossy* encode/decode — quantized
    // uploads feeding the distillation game, quantized transfers loaded
    // back into devices — is bit-deterministic across worker-thread
    // counts, not just the raw path.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/quant-uplink.json");
    let mut scenario =
        fedzkt::scenario::Scenario::load(path).expect("checked-in quant-uplink scenario");
    assert_eq!(
        scenario.sim.codec,
        fedzkt::fl::CodecSpec::QuantQ8,
        "preset must exercise a lossy codec"
    );
    scenario.sim.threads = 1;
    let one = scenario.run().expect("runnable scenario");
    scenario.sim.threads = 4;
    let four = scenario.run().expect("runnable scenario");
    assert_eq!(one, four, "quant-uplink threads=1 vs threads=4 diverged");
    assert_bit_identical(&one, &four);
    assert_eq!(one.to_json(), four.to_json());
    // The preset attaches smartphone links, so transfer time is charged.
    assert!(one.rounds.iter().all(|r| r.sim_seconds > 0.0));
}

#[test]
fn fedet_scenario_runs_bit_identically_across_thread_counts() {
    let _guard = serial_guard();
    // Fed-ET fans its devices' CE training and transfer-back digests onto
    // the same fleet machinery as FedZKT, and folds the uploaded ensemble
    // in device order on the driver thread — so the checked-in preset
    // must carry the thread-count guarantee end to end.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/fedet-hetero.json");
    let mut scenario =
        fedzkt::scenario::Scenario::load(path).expect("checked-in fedet-hetero scenario");
    scenario.sim.threads = 1;
    let one = scenario.run().expect("runnable scenario");
    scenario.sim.threads = 4;
    let four = scenario.run().expect("runnable scenario");
    assert_eq!(one, four, "Fed-ET threads=1 vs threads=4 diverged");
    assert_bit_identical(&one, &four);
    assert_eq!(one.to_json(), four.to_json());
}

#[test]
fn fedgkt_scenario_runs_bit_identically_across_thread_counts() {
    let _guard = serial_guard();
    // FedGKT's split training runs its composite extractor+head models
    // serially on the driver thread, but evaluation and the server's head
    // training still see the worker pool — the preset must be invariant
    // to its size like every other algorithm.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/fedgkt-split.json");
    let mut scenario =
        fedzkt::scenario::Scenario::load(path).expect("checked-in fedgkt-split scenario");
    scenario.sim.threads = 1;
    let one = scenario.run().expect("runnable scenario");
    scenario.sim.threads = 4;
    let four = scenario.run().expect("runnable scenario");
    assert_eq!(one, four, "FedGKT threads=1 vs threads=4 diverged");
    assert_bit_identical(&one, &four);
    assert_eq!(one.to_json(), four.to_json());
}

#[test]
fn tensor_kernels_bit_identical_across_thread_counts() {
    let _guard = serial_guard();
    // Above the GEMM parallel threshold (128^3 = 2 MMACs) so the row
    // partition genuinely engages at threads > 1.
    let mut rng = seeded_rng(41);
    let a = Tensor::randn(&[128, 128], &mut rng);
    let b = Tensor::randn(&[128, 128], &mut rng);
    // A conv workload big enough for the batched-lowering parallel paths.
    let x = Tensor::randn(&[8, 4, 12, 12], &mut rng);
    let w = Tensor::randn(&[8, 2, 3, 3], &mut rng);
    let run = |threads: usize| {
        par::set_threads(threads);
        let nn = a.matmul(&b).unwrap();
        let nt = a.matmul_nt(&b).unwrap();
        let tn = a.matmul_tn(&b).unwrap();
        let xv = Var::parameter(x.clone());
        let wv = Var::parameter(w.clone());
        let y = xv.conv2d(&wv, 1, 1, 2);
        y.sum_all().backward();
        let out = (
            nn,
            nt,
            tn,
            y.value_clone(),
            xv.grad().unwrap(),
            wv.grad().unwrap(),
        );
        par::set_threads(0);
        out
    };
    let serial = run(1);
    let parallel = run(4);
    for (s, p) in [
        (&serial.0, &parallel.0),
        (&serial.1, &parallel.1),
        (&serial.2, &parallel.2),
        (&serial.3, &parallel.3),
        (&serial.4, &parallel.4),
        (&serial.5, &parallel.5),
    ] {
        assert_eq!(s.shape(), p.shape());
        for (x, y) in s.data().iter().zip(p.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "kernel output diverged across thread counts");
        }
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    let _guard = serial_guard();
    // Guards `split_seed` actually reaching the run: if the seed were
    // dropped somewhere, every run would be identical and the test above
    // would pass vacuously.
    let a = run_once(11);
    let c = run_once(12);
    assert_ne!(a, c, "different seeds produced identical runs");
}
