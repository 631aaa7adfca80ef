//! End-to-end and per-layer benchmark of the FedZKT workspace, measured
//! from outside the library: every number comes from timing calls into
//! public functions. See `README.md` beside this crate.
//!
//! ```text
//! fedzkt_benchmark --workload W --seed N --seconds S --trace 0|1   one run of one workload
//! fedzkt_benchmark [--seed N] [--reps R] [--seconds S] [--out F]   every workload, R fresh processes each
//! fedzkt_benchmark compare A.json B.json                           apply the bounds to two result files
//! fedzkt_benchmark schema                                          print the text of BENCHMARK.json
//! ```

mod compare;
mod procfs;
mod replay;
mod run;
mod schema;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run measures for; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 20;
const DEFAULT_SEED: u64 = 7;
const DEFAULT_REPS: usize = 5;

/// Where sidecar files (traces, checkpoints, result sets) go: `out/`
/// beside this crate's manifest.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out/ directory");
    dir
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fedzkt_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  \
         fedzkt_benchmark [--seed <n>] [--reps <r>] [--seconds <s>] [--out <file>]\n  \
         fedzkt_benchmark compare <a.json> <b.json>\n  fedzkt_benchmark schema\nworkloads: {}",
        workloads::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    if let Err(e) = schema::validate_names() {
        eprintln!("metric catalogue is broken: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("schema") {
        print!("{}", schema::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::main(a.as_ref(), b.as_ref()),
            _ => usage(),
        };
    }

    let (mut workload, mut seed, mut reps, mut seconds, mut trace, mut out) =
        (None, DEFAULT_SEED, DEFAULT_REPS, RUN_SECONDS as f64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = workloads::workload(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--reps" => value.parse().map(|v| reps = v).is_ok_and(|()| reps > 0),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok_and(|()| seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            "--out" => {
                out = Some(PathBuf::from(value));
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }
    match workload {
        Some(w) => run::one(w, seed, seconds, trace),
        None => {
            run::all(seed, reps, seconds, out.unwrap_or_else(|| out_dir().join("results.json")))
        }
    }
}
