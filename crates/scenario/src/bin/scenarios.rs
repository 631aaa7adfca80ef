//! The `scenarios` CLI: list, describe, run, sweep and serve declarative
//! experiment scenarios, and regenerate the paper's tables and figures.
//!
//! ```sh
//! scenarios list
//! scenarios describe quickstart [--json]
//! scenarios run tiny --out target/scenarios
//! scenarios run tiny --halt-at-round 1 --out target/ck   # kill mid-run…
//! scenarios run tiny --resume target/ck/tiny.ckpt --out target/ck  # …resume
//! scenarios sweep tiny --seeds 1,2 --participations 0.5,1 --out target/sweep
//! scenarios serve tiny --seeds 1,2,3,4 --out target/jobs   # durable queue
//! scenarios repro list                                     # paper artifacts
//! scenarios repro table1 --scale tiny --out target/experiments
//! ```
//!
//! `run` and `sweep` write one `<name>.csv` + `<name>.json` artifact pair
//! per executed scenario. `sweep` expands the requested grid axes (seed,
//! Dirichlet β, quantity-skew c, participation p, device count K, zoo)
//! into child scenarios and executes them fleet-parallel on the workspace
//! worker pool (`fedzkt_tensor::par`); results are bit-identical for every
//! thread count.
//!
//! `serve` is the long-run form of `sweep`: the same grid expansion, but
//! the queue's state lives on disk in `--out`, so a killed process loses
//! at most `--checkpoint-every` rounds per in-flight cell. Each cell's
//! `<name>.stamp` holds the FNV-64 of the canonical JSON of the scenario
//! its artifacts belong to. On restart `serve` skips cells whose stamp
//! matches and whose `<name>.json` artifact holds all of the cell's
//! rounds, resumes stamped cells with a `<name>.ckpt` snapshot from that
//! exact round, and starts the rest fresh, so an edited scenario that
//! reuses a cell name runs again; a cell that panics is isolated and
//! reported without taking down the queue.
//!
//! `repro <target>` regenerates one artifact of the paper's evaluation
//! (`fedzkt_scenario::repro` holds the table of targets): it builds the
//! target's cells, runs them through the same fleet-parallel runner as
//! `sweep`, and writes the target's CSV (or JSON) into `--out`.

use fedzkt_data::Partition;
use fedzkt_fl::{CodecSpec, ErasedSimulation, RoundMetrics, RunLog, SimCheckpoint};
use fedzkt_scenario::{
    presets, repro, resolve, run_cells, standard_algorithm, standard_zoo, Scenario, Tier,
};
use fedzkt_tensor::par;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Human-readable codec label for `describe` and cell tables.
fn codec_label(codec: &CodecSpec) -> String {
    match *codec {
        CodecSpec::TopK { density } => format!("topk(density {density})"),
        other => other.name().to_string(),
    }
}

const USAGE: &str = "\
usage: scenarios <subcommand> [options]

subcommands:
  list                           the preset registry
  describe <name|file> [--json]  summary (or canonical JSON) of a scenario
  run <name|file> [options]      execute one scenario
  sweep <name|file> [axes]       expand grid axes and execute fleet-parallel
  serve <name|file> [axes]       durable job queue over the expanded grid:
                                 skips finished cells, resumes half-done ones
                                 from their checkpoints, survives kills
  repro <target|list> [options]  regenerate one table/figure of the paper's
                                 evaluation (`repro list` names them)

run/sweep/serve/repro options:
  --out DIR          artifact directory (default target/scenarios)
  --threads N        worker threads (0 = FEDZKT_THREADS / all cores)
  --seed N           override the scenario's master seed (run, repro)
  --codec C          override the wire codec: raw|q8|q4|topk[:density] (run only)

run durability options:
  --checkpoint-every N  snapshot <out>/<name>.ckpt every N completed rounds
  --halt-at-round K     stop once K rounds are done, leaving a checkpoint
  --resume FILE         restore a checkpoint and run the remaining rounds

repro options:
  --scale tiny|quick|paper  workload tier (default quick)

serve options:
  --checkpoint-every N  per-cell snapshot cadence in rounds (default 1)
  --stop-after N        exit after completing N cells (the queue state is on
                        disk; a later serve picks up the rest)

sweep/serve axes (comma-separated values; absent axes keep the base value):
  --seeds 1,2,3      master seeds
  --betas 0.1,0.5    Dirichlet concentration (conflicts with --cs)
  --cs 2,3,5         quantity-skew classes per device (conflicts with --betas)
  --participations 0.2,1.0
  --devices 5,10     device counts (re-cycles the zoo)
  --zoos small,cifar paper zoo families
  --algos fedzkt,fedmd,fedet,fedgkt   algorithms (also fedavg, fedprox),
                     each at its standard config for the cell's scale
  --codecs raw,q8,q4,topk:0.1   wire codecs
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("describe") => cmd_describe(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("repro") => cmd_repro(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand \"{other}\"\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("scenarios: {message}");
            ExitCode::from(1)
        }
    }
}

fn cmd_list() -> Result<(), String> {
    println!("{:<18} {:<7} {:<8} description", "name", "scale", "algo");
    for preset in presets() {
        println!(
            "{:<18} {:<7} {:<8} {}",
            preset.name,
            if preset.paper_scale { "paper" } else { "quick" },
            preset.scenario().algorithm.name(),
            preset.about
        );
    }
    println!("\nrun one with: scenarios run <name>   (files work too: scenarios run scenarios/tiny.json)");
    Ok(())
}

fn load(reference: &str) -> Result<Scenario, String> {
    resolve(reference).map_err(|e| e.to_string())
}

fn cmd_describe(args: &[String]) -> Result<(), String> {
    let reference = args.first().ok_or("describe needs a scenario name or file")?;
    let scenario = load(reference)?;
    if args.iter().any(|a| a == "--json") {
        print!("{}", scenario.to_json());
        return Ok(());
    }
    scenario.validate().map_err(|e| e.to_string())?;
    println!("scenario:   {}", scenario.name);
    println!("algorithm:  {}", scenario.algorithm.name());
    println!(
        "data:       {} {}x{}px, {} train / {} test",
        scenario.data.family.name(),
        scenario.data.img,
        scenario.data.img,
        scenario.data.train_n,
        scenario.data.test_n
    );
    println!("partition:  {}", scenario.partition);
    match scenario.registered_devices {
        0 => println!("devices:    {}", scenario.devices()),
        n => println!("devices:    {n} registered (zoo re-cycled)"),
    }
    for (spec, count) in &scenario.effective_zoo() {
        println!("  {:<22} x{count}", spec.name());
    }
    match &scenario.resources {
        Some(r) => {
            let links = match r.bandwidth {
                Some(bw) => {
                    format!(", links {}/{} B/s up/down", bw.up_bytes_per_sec, bw.down_bytes_per_sec)
                }
                None => String::new(),
            };
            println!(
                "resources:  attached (+{}s server time per round{links})",
                r.server_seconds
            );
        }
        None => println!("resources:  none (no simulated clock)"),
    }
    if let Some(churn) = &scenario.churn {
        println!(
            "churn:      arrival window {}, mean lifetime {} rounds, duty {}/{}, dropout {}, \
             bandwidth floor {} (seed {})",
            churn.arrival_window,
            churn.mean_lifetime,
            churn.duty_on,
            churn.duty_period,
            churn.dropout,
            churn.bandwidth_floor,
            churn.seed
        );
    }
    println!("codec:      {}", codec_label(&scenario.sim.codec));
    println!(
        "protocol:   {} rounds, participation {}, seed {}, threads {}",
        scenario.sim.rounds,
        scenario.sim.participation,
        scenario.sim.seed,
        scenario.sim.threads
    );
    Ok(())
}

/// Shared `--out` / `--threads` / `--seed` parsing for run and sweep.
/// `threads`/`seed` stay `None` when not given, so the scenario file's own
/// values are only overridden when the user asks.
struct RunOptions {
    out_dir: PathBuf,
    threads: Option<usize>,
    seed: Option<u64>,
    codec: Option<CodecSpec>,
    checkpoint_every: Option<usize>,
    halt_at_round: Option<usize>,
    resume: Option<PathBuf>,
    stop_after: Option<usize>,
    rest: Vec<(String, String)>,
}

/// The named flags, the subcommands that take each, and where a refused
/// one's intent lives instead. The one place that decides which subcommand
/// takes which flag; a flag not listed here lands in `rest` for the
/// subcommand's own axes (`--seeds`, `--scale`, ...).
const FLAGS: [(&str, &[&str], &str); 8] = [
    ("--out", &["run", "sweep", "serve", "repro"], ""),
    ("--threads", &["run", "sweep", "serve", "repro"], ""),
    ("--seed", &["run", "repro"], "; sweep/serve take --seeds a,b,c"),
    ("--codec", &["run"], "; sweep/serve take --codecs a,b,c"),
    ("--checkpoint-every", &["run", "serve"], ""),
    ("--halt-at-round", &["run"], "; serve checkpoints its cells itself"),
    ("--resume", &["run"], "; serve checkpoints its cells itself"),
    ("--stop-after", &["serve"], ""),
];

fn parse_options(cmd: &str, args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        out_dir: PathBuf::from("target/scenarios"),
        threads: None,
        seed: None,
        codec: None,
        checkpoint_every: None,
        halt_at_round: None,
        resume: None,
        stop_after: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if let Some((_, takers, instead)) = FLAGS.iter().find(|(name, ..)| name == flag) {
            if !takers.contains(&cmd) {
                return Err(format!(
                    "{flag} is a {} option, not a {cmd} option{instead}",
                    takers.join("/")
                ));
            }
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--out" => opts.out_dir = PathBuf::from(value),
            "--threads" => {
                opts.threads = Some(
                    value.parse().map_err(|_| format!("--threads: bad count \"{value}\""))?,
                );
            }
            "--seed" => {
                opts.seed =
                    Some(value.parse().map_err(|_| format!("--seed: bad seed \"{value}\""))?);
            }
            "--codec" => {
                opts.codec = Some(CodecSpec::parse(&value).map_err(|e| format!("--codec: {e}"))?);
            }
            "--checkpoint-every" => {
                let every: usize = value
                    .parse()
                    .map_err(|_| format!("--checkpoint-every: bad round count \"{value}\""))?;
                if every == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                opts.checkpoint_every = Some(every);
            }
            "--halt-at-round" => {
                opts.halt_at_round = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--halt-at-round: bad round count \"{value}\""))?,
                );
            }
            "--resume" => opts.resume = Some(PathBuf::from(value)),
            "--stop-after" => {
                let cells: usize = value
                    .parse()
                    .map_err(|_| format!("--stop-after: bad cell count \"{value}\""))?;
                if cells == 0 {
                    return Err("--stop-after must be at least 1".into());
                }
                opts.stop_after = Some(cells);
            }
            other => opts.rest.push((other.to_string(), value)),
        }
    }
    Ok(opts)
}

fn write_artifacts(log: &RunLog, dir: &PathBuf, name: &str) -> Result<(), String> {
    log.write_artifacts(dir, name)
        .map_err(|e| format!("writing artifacts for {name}: {e}"))?;
    println!("  [artifacts] {}/{name}.{{csv,json}}", dir.display());
    Ok(())
}

/// The checkpoint file a run or serve cell writes for a scenario.
fn checkpoint_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.ckpt"))
}

fn save_checkpoint(sim: &dyn ErasedSimulation, path: &Path) -> Result<(), String> {
    sim.checkpoint().save(path).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Restore the checkpoint at `path` into the freshly built `sim`; returns
/// the rounds it already holds.
fn resume(sim: &mut dyn ErasedSimulation, path: &Path) -> Result<usize, String> {
    let ck = SimCheckpoint::load(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    sim.resume_from(&ck)
        .map_err(|e| format!("{}: checkpoint does not fit this scenario: {e}", path.display()))?;
    Ok(ck.rounds_done)
}

/// The one checkpointed loop behind `run` and `serve`: step `sim` from its
/// next round until `halt` rounds are done, snapshotting to `ckpt` after
/// every `every`-th round short of the configured total (a final-round
/// snapshot would have nothing left to resume). `report` sees each round's
/// metrics and whether a snapshot followed them.
fn drive(
    sim: &mut dyn ErasedSimulation,
    halt: usize,
    every: Option<usize>,
    ckpt: &Path,
    report: &mut dyn FnMut(&RoundMetrics, bool),
) -> Result<(), String> {
    let total = sim.config().rounds;
    for round in sim.log().rounds.len()..halt {
        let metrics = sim.round(round);
        let done = round + 1;
        let snapshot = done < total && every.is_some_and(|every| done.is_multiple_of(every));
        if snapshot {
            save_checkpoint(sim, ckpt)?;
        }
        report(&metrics, snapshot);
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let reference = args.first().ok_or("run needs a scenario name or file")?;
    let mut scenario = load(reference)?;
    let opts = parse_options("run", &args[1..])?;
    if let Some((flag, _)) = opts.rest.first() {
        return Err(format!("unknown flag {flag} for run"));
    }
    if let Some(threads) = opts.threads {
        scenario.sim.threads = threads;
    }
    if let Some(seed) = opts.seed {
        scenario.sim.seed = seed;
    }
    if let Some(codec) = opts.codec {
        scenario.sim.codec = codec;
    }
    println!(
        "running {} ({}, {} rounds, seed {}, codec {})",
        scenario.name,
        scenario.algorithm.name(),
        scenario.sim.rounds,
        scenario.sim.seed,
        codec_label(&scenario.sim.codec)
    );
    let total = scenario.sim.rounds;
    let halt = opts.halt_at_round.map_or(total, |k| k.min(total));
    let mut sim = scenario.build().map_err(|e| e.to_string())?;
    if let Some(path) = &opts.resume {
        let done = resume(sim.as_mut(), path)?;
        if halt < done {
            return Err(format!(
                "--halt-at-round {halt}: {} already holds {done} rounds",
                path.display()
            ));
        }
        println!("resumed from {} ({done} rounds already done)", path.display());
    }
    let ckpt = checkpoint_path(&opts.out_dir, &scenario.name);
    println!("{:>6} {:>9} {:>11} {:>12} {:>10}", "round", "avg-acc", "train-loss", "uplink-KiB", "sim-time");
    drive(sim.as_mut(), halt, opts.checkpoint_every, &ckpt, &mut |m, snapshot| {
        println!(
            "{:>6} {:>8.1}% {:>11.4} {:>12.1} {:>9.0}s",
            m.round,
            100.0 * m.avg_device_accuracy,
            m.train_loss,
            m.upload_bytes as f64 / 1024.0,
            m.sim_seconds
        );
        if snapshot {
            println!("  [checkpoint] {} ({} rounds)", ckpt.display(), m.round);
        }
    })?;
    if halt < total {
        // A deliberate mid-run stop always leaves a snapshot, whether or
        // not a periodic cadence was requested.
        save_checkpoint(sim.as_ref(), &ckpt)?;
        println!(
            "halted after {halt} of {total} rounds; resume with: scenarios run {reference} \
             --resume {} --out {}",
            ckpt.display(),
            opts.out_dir.display()
        );
        return Ok(());
    }
    let log = sim.log().clone();
    println!("final average device accuracy: {:.2}%", 100.0 * log.final_accuracy());
    write_artifacts(&log, &opts.out_dir, &scenario.name)?;
    // The run is complete: its snapshot has nothing left to resume.
    let _ = std::fs::remove_file(&ckpt);
    Ok(())
}

fn parse_list<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|item| item.trim().parse().map_err(|_| format!("{flag}: bad value \"{item}\"")))
        .collect()
}

/// Expand one axis: every scenario in `cells` crossed with every value.
fn expand<T: Clone>(
    cells: Vec<Scenario>,
    values: &[T],
    suffix: impl Fn(&T) -> String,
    apply: impl Fn(&mut Scenario, &T),
) -> Vec<Scenario> {
    if values.is_empty() {
        return cells;
    }
    let mut out = Vec::with_capacity(cells.len() * values.len());
    for cell in cells {
        for value in values {
            let mut child = cell.clone();
            apply(&mut child, value);
            child.name = format!("{}_{}", child.name, suffix(value));
            out.push(child);
        }
    }
    out
}

/// Expand the grid axes in `rest` over `base` — the one cell-expansion
/// shared by `sweep` and `serve` — and validate every cell up front: a
/// typo in one axis value should fail fast, not after the other cells
/// have burned compute.
fn expand_cells(base: Scenario, rest: &[(String, String)]) -> Result<Vec<Scenario>, String> {
    let mut seeds: Vec<u64> = Vec::new();
    let mut betas: Vec<f32> = Vec::new();
    let mut cs: Vec<usize> = Vec::new();
    let mut participations: Vec<f32> = Vec::new();
    let mut devices: Vec<usize> = Vec::new();
    let mut zoos: Vec<String> = Vec::new();
    let mut algos: Vec<String> = Vec::new();
    let mut codecs: Vec<CodecSpec> = Vec::new();
    for (flag, value) in rest {
        match flag.as_str() {
            "--seeds" => seeds = parse_list(flag, value)?,
            "--betas" => betas = parse_list(flag, value)?,
            "--cs" => cs = parse_list(flag, value)?,
            "--participations" => participations = parse_list(flag, value)?,
            "--devices" => devices = parse_list(flag, value)?,
            "--zoos" => zoos = parse_list(flag, value)?,
            "--algos" => algos = parse_list(flag, value)?,
            "--codecs" => {
                codecs = value
                    .split(',')
                    .map(|item| CodecSpec::parse(item.trim()).map_err(|e| format!("--codecs: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            other => return Err(format!("unknown sweep axis {other}\n{USAGE}")),
        }
    }
    if !betas.is_empty() && !cs.is_empty() {
        return Err("--betas and --cs both redefine the partition; sweep one at a time".into());
    }
    for algo in &algos {
        if standard_algorithm(&base, algo).is_none() {
            return Err(format!(
                "--algos: unknown algorithm \"{algo}\" \
                 (fedzkt|fedavg|fedprox|fedmd|fedet|fedgkt)"
            ));
        }
    }

    let mut cells = vec![base];
    cells = expand(cells, &seeds, |s| format!("s{s}"), |sc, &s| sc.sim.seed = s);
    cells = expand(
        cells,
        &betas,
        |b| format!("b{b}"),
        |sc, &beta| sc.partition = Partition::Dirichlet { beta },
    );
    cells = expand(
        cells,
        &cs,
        |c| format!("c{c}"),
        |sc, &c| sc.partition = Partition::QuantitySkew { classes_per_device: c },
    );
    cells = expand(
        cells,
        &participations,
        |p| format!("p{p}"),
        |sc, &p| sc.sim.participation = p,
    );
    cells = expand(cells, &devices, |k| format!("k{k}"), |sc, &k| sc.set_device_count(k));
    cells = expand(
        cells,
        &zoos,
        |z| format!("z{z}"),
        |sc, zoo| {
            let family = match zoo.as_str() {
                "cifar" => fedzkt_data::DataFamily::Cifar10Like,
                _ => fedzkt_data::DataFamily::MnistLike,
            };
            sc.zoo = standard_zoo(family, sc.devices());
        },
    );
    cells = expand(
        cells,
        &algos,
        |a| format!("a{a}"),
        |sc, algo| {
            // Unknown names were rejected above, before any expansion.
            if let Some(algorithm) = standard_algorithm(sc, algo) {
                sc.algorithm = algorithm;
            }
        },
    );
    cells = expand(
        cells,
        &codecs,
        |codec| {
            // File-safe suffix (the cell name becomes the artifact name).
            match *codec {
                CodecSpec::TopK { density } => format!("ctopk{density}"),
                other => format!("c{}", other.name()),
            }
        },
        |sc, &codec| sc.sim.codec = codec,
    );
    for zoo in &zoos {
        if zoo != "small" && zoo != "cifar" {
            return Err(format!("--zoos: unknown zoo \"{zoo}\" (small|cifar)"));
        }
    }
    for cell in &mut cells {
        cell.sim.threads = 1; // fleet-level parallelism owns the workers
        cell.validate().map_err(|e| format!("cell {}: {e}", cell.name))?;
    }
    Ok(cells)
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let reference = args.first().ok_or("sweep needs a scenario name or file")?;
    let base = load(reference)?;
    let opts = parse_options("sweep", &args[1..])?;
    let cells = expand_cells(base, &opts.rest)?;

    let threads = opts.threads.unwrap_or(0);
    println!(
        "sweep: {} cells from \"{}\", {} worker thread(s)",
        cells.len(),
        reference,
        par::resolve_threads(threads)
    );
    let results = run_cells(cells.len(), threads, |i| &cells[i]);

    // A failed cell (e.g. a partition that only turns out impossible for
    // the realized labels) must not discard the rest of the grid: write
    // every successful cell's artifacts and the summary first, then report
    // the failures.
    let mut summary = String::from(
        "cell,algorithm,codec,rounds,final_accuracy,best_accuracy,upload_bytes,download_bytes,sim_seconds,error\n",
    );
    let mut failures = Vec::new();
    println!("{:<44} {:>10} {:>10} {:>12}", "cell", "final", "best", "uplink-KiB");
    for (cell, result) in cells.iter().zip(results) {
        match result {
            Ok(log) => {
                let upload: u64 = log.rounds.iter().map(|r| r.upload_bytes).sum();
                let download: u64 = log.rounds.iter().map(|r| r.download_bytes).sum();
                let sim_seconds: f64 = log.rounds.iter().map(|r| r.sim_seconds).sum();
                println!(
                    "{:<44} {:>9.2}% {:>9.2}% {:>12.1}",
                    cell.name,
                    100.0 * log.final_accuracy(),
                    100.0 * log.best_accuracy(),
                    upload as f64 / 1024.0
                );
                summary.push_str(&format!(
                    "{},{},{},{},{:.4},{:.4},{},{},{:.2},\n",
                    cell.name,
                    cell.algorithm.name(),
                    codec_label(&cell.sim.codec),
                    log.rounds.len(),
                    log.final_accuracy(),
                    log.best_accuracy(),
                    upload,
                    download,
                    sim_seconds
                ));
                // An artifact I/O error for one cell (disk full, permission
                // flip) is a failure of that cell, not of the whole sweep.
                if let Err(e) = write_artifacts(&log, &opts.out_dir, &cell.name) {
                    failures.push(format!("{}: {e}", cell.name));
                }
            }
            Err(e) => {
                println!("{:<44} {:>10} {:>10} {:>12}", cell.name, "FAILED", "", "");
                summary.push_str(&format!(
                    "{},{},{},0,,,,,,\"{e}\"\n",
                    cell.name,
                    cell.algorithm.name(),
                    codec_label(&cell.sim.codec),
                ));
                failures.push(format!("{}: {e}", cell.name));
            }
        }
    }
    // The summary must land even when every cell failed (write_artifacts,
    // which normally creates the directory, never ran in that case).
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let summary_path = opts.out_dir.join("sweep_summary.csv");
    std::fs::write(&summary_path, summary).map_err(|e| format!("writing sweep summary: {e}"))?;
    println!("  [summary] {}", summary_path.display());
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} of {} cells failed:\n  {}", failures.len(), cells.len(), failures.join("\n  ")))
    }
}

/// How a serve cell stands, derived entirely from the artifact directory —
/// the queue has no state file to corrupt or lose.
enum CellStatus {
    /// `<name>.json` holds the cell's complete log: nothing to do.
    Done,
    /// `<name>.ckpt` present: continue from its round.
    Resumable,
    /// Neither: start from round 0.
    Fresh,
}

/// The file naming the scenario that a serve cell's `.json`, `.csv` and
/// `.ckpt` belong to. It is written before any of them, and replaced only
/// after they are removed, so it never vouches for another scenario's.
fn stamp_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.stamp"))
}

/// The FNV-1a 64 of the cell's canonical scenario JSON, in hex.
fn scenario_stamp(cell: &Scenario) -> String {
    let hash = cell.to_json().bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}\n")
}

/// Does `<name>.stamp` name this cell's scenario?
fn stamped(dir: &Path, cell: &Scenario) -> bool {
    std::fs::read_to_string(stamp_path(dir, &cell.name)).is_ok_and(|s| s == scenario_stamp(cell))
}

fn cell_status(dir: &Path, cell: &Scenario) -> CellStatus {
    // Artifacts without this scenario's stamp (an edited scenario that
    // reuses the cell name, or files `serve` did not write) count for
    // nothing: the cell starts again.
    if !stamped(dir, cell) {
        return CellStatus::Fresh;
    }
    // Done means a complete log of this cell: a torn file is run again.
    let done = std::fs::read_to_string(dir.join(format!("{}.json", cell.name)))
        .ok()
        .and_then(|text| RunLog::from_json(&text).ok())
        .is_some_and(|log| log.rounds.len() == cell.sim.rounds);
    if done {
        CellStatus::Done
    } else if checkpoint_path(dir, &cell.name).exists() {
        CellStatus::Resumable
    } else {
        CellStatus::Fresh
    }
}

/// Execute one serve cell to completion: build, resume from its snapshot
/// when one fits, checkpoint every `every` rounds, and write the final
/// artifacts (dropping the snapshot) on success. Returns a one-line
/// completion summary.
fn serve_cell(cell: &Scenario, dir: &Path, every: usize) -> Result<String, String> {
    let mut sim = cell.build().map_err(|e| e.to_string())?;
    let ckpt = checkpoint_path(dir, &cell.name);
    if !stamped(dir, cell) {
        // Another scenario's artifacts go before this one's stamp lands.
        for ext in ["json", "csv", "ckpt"] {
            let path = dir.join(format!("{}.{ext}", cell.name));
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("removing {}: {e}", path.display()));
                }
                _ => {}
            }
        }
        // A torn stamp matches no scenario, so it needs no atomic write.
        let stamp = stamp_path(dir, &cell.name);
        std::fs::write(&stamp, scenario_stamp(cell))
            .map_err(|e| format!("writing {}: {e}", stamp.display()))?;
    }
    let mut resumed = 0;
    if ckpt.exists() {
        // A snapshot that fails to load or fit (schema drift, a file from
        // another build) falls back to a fresh start — a stale file must
        // not wedge the queue forever.
        match resume(sim.as_mut(), &ckpt) {
            Ok(rounds) => resumed = rounds,
            Err(e) => {
                eprintln!("  [{}] discarding stale checkpoint: {e}", cell.name);
                sim = cell.build().map_err(|e| e.to_string())?;
            }
        }
    }
    let total = cell.sim.rounds;
    drive(sim.as_mut(), total, Some(every), &ckpt, &mut |_, _| {})?;
    let log = sim.log().clone();
    log.write_artifacts(dir, &cell.name)
        .map_err(|e| format!("writing artifacts for {}: {e}", cell.name))?;
    let _ = std::fs::remove_file(&ckpt);
    Ok(format!(
        "{}: {:.2}% final accuracy ({} rounds, {} resumed)",
        cell.name,
        100.0 * log.final_accuracy(),
        total,
        resumed
    ))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let reference = args.first().ok_or("serve needs a scenario name or file")?;
    let base = load(reference)?;
    let opts = parse_options("serve", &args[1..])?;
    let cells = expand_cells(base, &opts.rest)?;
    let every = opts.checkpoint_every.unwrap_or(1);
    let dir = opts.out_dir.clone();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let mut done = 0;
    let mut resuming = 0;
    let mut pending: Vec<&Scenario> = Vec::new();
    for cell in &cells {
        match cell_status(&dir, cell) {
            CellStatus::Done => done += 1,
            CellStatus::Resumable => {
                resuming += 1;
                pending.push(cell);
            }
            CellStatus::Fresh => pending.push(cell),
        }
    }
    let fresh = pending.len() - resuming;
    let deferred = match opts.stop_after {
        Some(limit) if pending.len() > limit => pending.split_off(limit).len(),
        _ => 0,
    };
    println!(
        "serve: {} cells from \"{}\" ({} already done, {} resuming, {} fresh, {} deferred)",
        cells.len(),
        reference,
        done,
        resuming,
        fresh,
        deferred
    );
    if pending.is_empty() {
        println!("queue drained: artifacts in {}", dir.display());
        return Ok(());
    }

    let workers = par::resolve_threads(opts.threads.unwrap_or(0));
    let results: Vec<Result<String, String>> =
        par::map_indexed(pending.len(), workers, |i| {
            // Per-cell crash isolation: one diverged or buggy cell is a
            // reported failure, not the end of the queue (the worker
            // never unwinds into the pool).
            let cell = pending[i];
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                serve_cell(cell, &dir, every)
            }))
            .unwrap_or_else(|panic| {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".into());
                Err(format!("panicked: {message}"))
            })
        });

    let mut failures = Vec::new();
    for (cell, result) in pending.iter().zip(results) {
        match result {
            Ok(summary) => println!("  [done] {summary}"),
            Err(e) => {
                println!("  [FAILED] {}: {e}", cell.name);
                failures.push(format!("{}: {e}", cell.name));
            }
        }
    }
    if deferred > 0 {
        println!(
            "{deferred} cell(s) deferred by --stop-after; run serve again to continue"
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} attempted cells failed:\n  {}",
            failures.len(),
            pending.len(),
            failures.join("\n  ")
        ))
    }
}

fn cmd_repro(args: &[String]) -> Result<(), String> {
    let names = || repro::targets().iter().map(|t| t.name).collect::<Vec<_>>().join("|");
    let name = args.first().ok_or_else(|| format!("repro needs a target: list|{}", names()))?;
    if name == "list" {
        println!("{:<10} {:<20} paper artifact", "target", "writes");
        for target in repro::targets() {
            println!("{:<10} {:<20} {}", target.name, target.artifact, target.title);
        }
        return Ok(());
    }
    let target = repro::target(name)
        .ok_or_else(|| format!("unknown repro target \"{name}\" (list|{})", names()))?;
    let opts = parse_options("repro", &args[1..])?;
    let mut tier = Tier::Quick;
    for (flag, value) in &opts.rest {
        tier = match (flag.as_str(), value.as_str()) {
            ("--scale", "tiny") => Tier::Tiny,
            ("--scale", "quick") => Tier::Quick,
            ("--scale", "paper") => Tier::Paper,
            ("--scale", other) => {
                return Err(format!("--scale: unknown scale \"{other}\" (tiny|quick|paper)"))
            }
            _ => return Err(format!("unknown flag {flag} for repro")),
        };
    }
    let threads = opts.threads.unwrap_or(0);
    println!(
        "{}\nrepro {name}: tier {tier:?}, seed {}, {} worker thread(s)",
        target.title,
        opts.seed.map_or("default".into(), |seed| seed.to_string()),
        par::resolve_threads(threads)
    );
    let files = target.run(tier, opts.seed, threads).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    for (file, contents) in &files {
        let path = opts.out_dir.join(file);
        std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  [artifact] {}", path.display());
    }
    // The target's own artifact comes last; it is small enough to read.
    if let Some((_, contents)) = files.last() {
        print!("{contents}");
    }
    Ok(())
}
