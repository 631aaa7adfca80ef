//! The paper's evaluation (§IV) as one table of reproduction targets.
//!
//! Every table and figure of the FedZKT paper is a *scenario grid*: a
//! handful of [`Scenario::standard`] cells that differ in one field, run
//! to completion, and tabulated. A [`Target`] is therefore data — a name,
//! the paper artifact it regenerates, a function from `(tier, seed)` to
//! labelled `Cell`s, and how the cells' `RunLog`s become the artifact —
//! and [`targets`] is the whole evaluation. `scenarios repro <target>`
//! executes one; cells run fleet-parallel through [`run_cells`], the same
//! runner `scenarios sweep` uses.
//!
//! ## Adding a target
//!
//! Write a `fn(Tier, Option<u64>) -> Vec<Cell>` that derives its cells
//! from [`Scenario::standard`], [`Scenario::fedmd_counterpart`],
//! [`standard_algorithm`] or [`presets`]; pick the `Report` that matches
//! the artifact's shape (cells sharing a `row` label are tabulated
//! together); append one entry to `TARGETS` and one row to README's target
//! table (a test keeps the two equal).

use crate::{
    fedmd_public_family, presets, run_cells, standard_algorithm, ResourceAssignment, ResourceSpec,
    Scale, Scenario, ScenarioError, Tier,
};
use fedzkt_core::{centralized_bound, local_only_bound, BoundConfig, DistillLoss, FedZkt};
use fedzkt_data::{DataFamily, Dataset, Partition};
use fedzkt_fl::{RunLog, Simulation};
use fedzkt_tensor::par;

/// Seed of the paper targets when none is given.
const PAPER_SEED: u64 = 42;
/// Seed of the `algos` target when none is given — the one the committed
/// `BENCH_algos.json` records.
const ALGOS_SEED: u64 = 7;

/// One grid point of a target: a scenario plus where its result lands in
/// the artifact. Consecutive cells with equal `row` are tabulated as one
/// block (one CSV line, or one family of curves); `col` names the cell
/// inside its block.
struct Cell {
    /// The leading CSV columns shared by the cell's block.
    row: String,
    /// What distinguishes the cell inside its block.
    col: String,
    /// The experiment description.
    scenario: Scenario,
}

fn cell(row: impl Into<String>, col: impl ToString, scenario: Scenario) -> Cell {
    Cell { row: row.into(), col: col.to_string(), scenario }
}

/// How a target's cells become its artifact.
enum Report {
    /// One line per block: the row label, then every cell's final (and,
    /// with `best`, best) average device accuracy.
    Final { header: &'static str, best: bool },
    /// Accuracy per round. `wide`: one line per round holding the block's
    /// cells side by side; otherwise one `row,col,round,accuracy` line per
    /// cell and round.
    Series { header: &'static str, wide: bool },
    /// Per-device accuracy per round of a single cell.
    PerDevice,
    /// `BENCH_algos.json`: accuracy, traffic and simulated time per cell.
    Algos,
    /// [`Report::Final`] over the preset registry, plus each preset's own
    /// `RunLog` CSV+JSON pair.
    Presets,
    /// Figure 2: the gradient-norm probe of a FedZKT run, not its log.
    Probe,
    /// Table III: local-only and centralized training bounds per device;
    /// no federated run at all.
    Bounds,
}

/// One reproducible artifact of the evaluation.
pub struct Target {
    /// The `scenarios repro <name>` key.
    pub name: &'static str,
    /// The paper artifact the target regenerates.
    pub title: &'static str,
    /// File name of the artifact inside the output directory.
    pub artifact: &'static str,
    cells: fn(Tier, Option<u64>) -> Vec<Cell>,
    report: Report,
}

static TARGETS: [Target; 13] = [
    Target {
        name: "table1",
        title: "Table I: IID accuracy, FedZKT vs FedMD (incl. public-dataset sensitivity)",
        artifact: "table1.csv",
        cells: table1,
        report: Report::Final {
            header: "private,public,algorithm,final_accuracy,best_accuracy",
            best: true,
        },
    },
    Target {
        name: "table2",
        title: "Table II: distillation-loss ablation under non-IID (CIFAR-10)",
        artifact: "table2.csv",
        cells: table2,
        report: Report::Final { header: "scenario,loss,final_accuracy", best: false },
    },
    Target {
        name: "table3",
        title: "Table III: per-device lower/upper bounds (CIFAR-10, IID)",
        artifact: "table3.csv",
        cells: ten_device_cifar,
        report: Report::Bounds,
    },
    Target {
        name: "table4",
        title: "Table IV: l2-regularization ablation under non-IID (CIFAR-10)",
        artifact: "table4.csv",
        cells: table4,
        report: Report::Final { header: "scenario,prox_mu,final_accuracy", best: false },
    },
    Target {
        name: "fig2",
        title: "Figure 2: ||grad_x L|| per round for KL / l1 / SL (MNIST, IID)",
        artifact: "fig2.csv",
        cells: fig2,
        report: Report::Probe,
    },
    Target {
        name: "fig3",
        title: "Figure 3: learning curves, FedZKT vs FedMD (CIFAR-10, IID)",
        artifact: "fig3.csv",
        cells: fig3,
        report: Report::Series { header: "round,fedmd,fedzkt", wide: true },
    },
    Target {
        name: "fig4",
        title: "Figure 4: non-IID accuracy across c and beta, four families",
        artifact: "fig4.csv",
        cells: fig4,
        report: Report::Final { header: "family,skew,parameter,fedmd,fedzkt", best: false },
    },
    Target {
        name: "fig5",
        title: "Figure 5: per-device learning curves, Models A-E (CIFAR-10, IID)",
        artifact: "fig5.csv",
        cells: ten_device_cifar,
        report: Report::PerDevice,
    },
    Target {
        name: "fig6",
        title: "Figure 6: straggler portions p (MNIST & CIFAR-10, IID)",
        artifact: "fig6.csv",
        cells: fig6,
        report: Report::Series { header: "family,p,round,accuracy", wide: false },
    },
    Target {
        name: "fig7",
        title: "Figure 7: device counts K (MNIST & CIFAR-10, IID)",
        artifact: "fig7.csv",
        cells: fig7,
        report: Report::Series { header: "family,devices,round,accuracy", wide: false },
    },
    Target {
        name: "ablation",
        title: "Beyond the paper: transfer LR, generator reuse, distillation budget",
        artifact: "ablation.csv",
        cells: ablation,
        report: Report::Final { header: "ablation,setting,final_accuracy", best: false },
    },
    Target {
        name: "algos",
        title: "FedZKT / FedMD / Fed-ET / FedGKT on one hetero-cifar workload",
        artifact: "BENCH_algos.json",
        cells: algos,
        report: Report::Algos,
    },
    Target {
        name: "presets",
        title: "Every preset of the scenario registry",
        artifact: "run_all_summary.csv",
        cells: preset_cells,
        report: Report::Presets,
    },
];

/// Every target, in the order of README's target table.
pub fn targets() -> &'static [Target] {
    &TARGETS
}

/// Look a target up by name.
pub fn target(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

const FAMILIES: [DataFamily; 4] = [
    DataFamily::MnistLike,
    DataFamily::FashionLike,
    DataFamily::KmnistLike,
    DataFamily::Cifar10Like,
];

/// The two non-IID settings Tables II and IV share.
const NON_IID: [(&str, Partition); 2] = [
    ("C = 5", Partition::QuantitySkew { classes_per_device: 5 }),
    ("beta = 0.5", Partition::Dirichlet { beta: 0.5 }),
];

/// The standard FedZKT scenario of the paper targets.
fn standard(family: DataFamily, partition: Partition, tier: Tier, seed: Option<u64>) -> Scenario {
    Scenario::standard(family, partition, tier, seed.unwrap_or(PAPER_SEED))
}

/// A clone of `base` with its FedZKT configuration edited.
fn with_fedzkt(base: &Scenario, edit: impl FnOnce(&mut fedzkt_core::FedZktConfig)) -> Scenario {
    let mut scenario = base.clone();
    edit(scenario.fedzkt_cfg_mut().expect("standard scenarios run fedzkt"));
    scenario
}

fn table1(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    let mut cells = Vec::new();
    for private in FAMILIES {
        let zkt = standard(private, Partition::Iid, tier, seed);
        let mut publics = vec![fedmd_public_family(private)];
        if private == DataFamily::Cifar10Like {
            // The deliberately mismatched public set.
            publics.push(DataFamily::SvhnLike);
        }
        cells.push(cell(format!("{},-,FedZKT", private.name()), "", zkt.clone()));
        for public in publics {
            let row = format!("{},{},FedMD", private.name(), public.name());
            cells.push(cell(row, "", zkt.fedmd_counterpart(tier, public)));
        }
    }
    cells
}

fn table2(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (label, partition) in NON_IID {
        let base = standard(DataFamily::Cifar10Like, partition, tier, seed);
        for loss in [DistillLoss::Kl, DistillLoss::LogitL1, DistillLoss::Sl] {
            let scenario = with_fedzkt(&base, |cfg| {
                cfg.loss = loss;
                cfg.prox_mu = 1.0;
            });
            cells.push(cell(format!("{label},{loss}"), "", scenario));
        }
    }
    cells
}

fn table4(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (label, partition) in NON_IID {
        let base = standard(DataFamily::Cifar10Like, partition, tier, seed);
        for mu in [0.0f32, 1.0] {
            let scenario = with_fedzkt(&base, |cfg| cfg.prox_mu = mu);
            cells.push(cell(format!("{label},{mu:.1}"), "", scenario));
        }
    }
    cells
}

/// Ten devices, two per Model A–E — the fleet of Figure 5 and Table III.
fn ten_device_cifar(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    let family = DataFamily::Cifar10Like;
    let scale = Scale { devices: 10, ..Scale::for_family(family, tier) };
    let scenario = Scenario::standard_scaled(
        family,
        Partition::Iid,
        tier,
        seed.unwrap_or(PAPER_SEED),
        scale,
    );
    vec![cell("", "", scenario)]
}

fn fig2(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    let base = standard(DataFamily::MnistLike, Partition::Iid, tier, seed);
    vec![cell("", "", with_fedzkt(&base, |cfg| cfg.probe_grad_norms = true))]
}

fn fig3(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    let zkt = standard(DataFamily::Cifar10Like, Partition::Iid, tier, seed);
    let fedmd = zkt.fedmd_counterpart(tier, DataFamily::Cifar100Like);
    vec![cell("", "fedmd", fedmd), cell("", "fedzkt", zkt)]
}

fn fig4(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    let quantity = [2usize, 3, 4, 5].map(|c| {
        (format!("quantity,{c}"), Partition::QuantitySkew { classes_per_device: c })
    });
    let dirichlet = [0.1f32, 0.5, 1.0, 5.0]
        .map(|beta| (format!("dirichlet,{beta}"), Partition::Dirichlet { beta }));
    let mut cells = Vec::new();
    for skew in [quantity, dirichlet] {
        for family in FAMILIES {
            for (label, partition) in &skew {
                let row = format!("{},{label}", family.name());
                let base = standard(family, *partition, tier, seed);
                let fedmd = base.fedmd_counterpart(tier, fedmd_public_family(family));
                // Non-IID runs enable the paper's l2 regularizer (Eq. 9).
                let zkt = with_fedzkt(&base, |cfg| cfg.prox_mu = 1.0);
                cells.push(cell(row.clone(), "fedmd", fedmd));
                cells.push(cell(row, "fedzkt", zkt));
            }
        }
    }
    cells
}

/// One block of curves per family for Figures 6 and 7: the standard IID
/// scenario with one field varied per cell.
fn curves_per_family<T: ToString + Copy>(
    tier: Tier,
    seed: Option<u64>,
    values: &[T],
    apply: fn(&mut Scenario, T),
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for family in [DataFamily::MnistLike, DataFamily::Cifar10Like] {
        let mut base = standard(family, Partition::Iid, tier, seed);
        if tier == Tier::Quick {
            // Up to five runs of up to 20 devices per family: cap rounds
            // so the grid stays within the quick-tier time budget.
            base.sim.rounds = base.sim.rounds.min(6);
        }
        for &value in values {
            let mut scenario = base.clone();
            apply(&mut scenario, value);
            cells.push(cell(family.name(), value, scenario));
        }
    }
    cells
}

fn fig6(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    curves_per_family(tier, seed, &[0.2f32, 0.4, 0.6, 0.8, 1.0], |sc, p| sc.sim.participation = p)
}

fn fig7(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    curves_per_family(tier, seed, &[5usize, 10, 15, 20], Scenario::set_device_count)
}

fn ablation(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    let base = standard(DataFamily::MnistLike, Partition::Iid, tier, seed);
    let distill_iters = base.fedzkt_cfg().expect("standard scenarios run fedzkt").distill_iters;
    let mut cells = Vec::new();
    for lr in [0.002f32, 0.01, 0.05] {
        let scenario = with_fedzkt(&base, |cfg| cfg.transfer_lr = lr);
        cells.push(cell(format!("transfer_lr,{lr}"), "", scenario));
    }
    for (label, fresh) in [("trained (paper)", false), ("fresh random", true)] {
        let scenario = with_fedzkt(&base, |cfg| cfg.fresh_generator_for_transfer = fresh);
        cells.push(cell(format!("transfer_generator,{label}"), "", scenario));
    }
    for factor in [0usize, 1, 2] {
        let n_d = distill_iters * factor;
        let scenario = with_fedzkt(&base, |cfg| {
            cfg.distill_iters = n_d;
            cfg.transfer_iters = n_d;
        });
        cells.push(cell(format!("distill_iters,{n_d}"), "", scenario));
    }
    cells
}

/// The four knowledge-transfer algorithms on one shared workload: the
/// `hetero-cifar` shape miniaturized (five devices, half the tier's
/// rounds), quantity-skewed shards, and simulated heterogeneous hardware
/// so `sim_seconds` reflects compute *and* transfer time per algorithm.
/// Only the algorithm differs between cells.
fn algos(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    let seed = seed.unwrap_or(ALGOS_SEED);
    let mut base = Scenario::standard(
        DataFamily::Cifar10Like,
        Partition::QuantitySkew { classes_per_device: 5 },
        tier,
        seed,
    );
    base.set_device_count(5);
    base.sim.rounds = (base.sim.rounds / 2).max(1);
    base.resources = Some(ResourceSpec {
        assignment: ResourceAssignment::Heterogeneous { seed },
        bandwidth: None,
        server_seconds: 1.0,
    });
    ["fedzkt", "fedmd", "fedet", "fedgkt"]
        .into_iter()
        .map(|name| {
            let mut scenario = base.clone();
            scenario.algorithm = standard_algorithm(&scenario, name)
                .expect("every benched algorithm has a standard config");
            scenario.name = format!("bench-{name}");
            cell(name, "", scenario)
        })
        .collect()
}

/// The registry presets the tier can afford. Presets carry their own
/// seeds so their artifacts are stable; an explicit seed overrides them
/// all (for seed sweeps).
fn preset_cells(tier: Tier, seed: Option<u64>) -> Vec<Cell> {
    presets()
        .into_iter()
        .filter(|preset| tier == Tier::Paper || !preset.paper_scale)
        .map(|preset| {
            let mut scenario = preset.scenario();
            if let Some(seed) = seed {
                scenario.sim.seed = seed;
            }
            let row =
                format!("{},{},{}", preset.name, scenario.algorithm.name(), scenario.sim.rounds);
            cell(row, "", scenario)
        })
        .collect()
}

impl Target {
    /// The target's cells at a tier, seed (`None` = the target's default:
    /// 42 for the paper artifacts, 7 for `algos`, each preset's own for
    /// `presets`) and worker-thread count.
    fn cells(&self, tier: Tier, seed: Option<u64>, threads: usize) -> Vec<Cell> {
        let mut cells = (self.cells)(tier, seed);
        for cell in &mut cells {
            cell.scenario.sim.threads = threads;
        }
        cells
    }

    /// Execute the target and return its files as `(name, contents)`
    /// pairs, the target's own [`Target::artifact`] last. Cells run
    /// fleet-parallel on `threads` workers (0 = workspace default); the
    /// contents are identical for every thread count.
    ///
    /// # Errors
    /// The first cell that fails to validate or build.
    pub fn run(
        &self,
        tier: Tier,
        seed: Option<u64>,
        threads: usize,
    ) -> Result<Vec<(String, String)>, ScenarioError> {
        let cells = self.cells(tier, seed, threads);
        // A malformed cell fails before its siblings burn compute.
        for cell in &cells {
            cell.scenario.validate()?;
        }
        let logs = || -> Result<Vec<RunLog>, ScenarioError> {
            run_cells(cells.len(), threads, |i| &cells[i].scenario).into_iter().collect()
        };
        let mut files = Vec::new();
        let artifact = match self.report {
            Report::Final { header, best } => final_pivot(header, best, &cells, &logs()?),
            Report::Series { header, wide } => series_pivot(header, wide, &cells, &logs()?),
            Report::PerDevice => per_device_series(&cells[0].scenario, &logs()?[0]),
            Report::Algos => algos_json(&cells, &logs()?),
            Report::Presets => {
                let logs = logs()?;
                for (cell, log) in cells.iter().zip(&logs) {
                    files.push((format!("{}.csv", cell.scenario.name), log.to_csv()));
                    files.push((format!("{}.json", cell.scenario.name), log.to_json()));
                }
                let header = "preset,algorithm,rounds,final_accuracy,best_accuracy";
                final_pivot(header, true, &cells, &logs)
            }
            Report::Probe => grad_norm_probe(&cells[0].scenario)?,
            Report::Bounds => device_bounds(tier, &cells[0].scenario)?,
        };
        files.push((self.artifact.to_string(), artifact));
        Ok(files)
    }
}

/// Cells and their logs grouped into blocks of equal `row`.
fn blocks<'a>(
    cells: &'a [Cell],
    logs: &'a [RunLog],
) -> impl Iterator<Item = (&'a [Cell], &'a [RunLog])> {
    let mut start = 0;
    cells.chunk_by(|a, b| a.row == b.row).map(move |block| {
        let logs = &logs[start..start + block.len()];
        start += block.len();
        (block, logs)
    })
}

fn final_pivot(header: &str, best: bool, cells: &[Cell], logs: &[RunLog]) -> String {
    let mut csv = format!("{header}\n");
    for (block, logs) in blocks(cells, logs) {
        csv.push_str(&block[0].row);
        for log in logs {
            csv.push_str(&format!(",{:.4}", log.final_accuracy()));
            if best {
                csv.push_str(&format!(",{:.4}", log.best_accuracy()));
            }
        }
        csv.push('\n');
    }
    csv
}

fn series_pivot(header: &str, wide: bool, cells: &[Cell], logs: &[RunLog]) -> String {
    let mut csv = format!("{header}\n");
    for (block, logs) in blocks(cells, logs) {
        let rounds = logs.iter().map(|log| log.rounds.len()).max().unwrap_or(0);
        for r in 0..rounds {
            if wide {
                csv.push_str(&(r + 1).to_string());
            }
            for (cell, log) in block.iter().zip(logs) {
                let acc = log.rounds.get(r).map_or(f32::NAN, |m| m.avg_device_accuracy);
                if wide {
                    csv.push_str(&format!(",{acc:.4}"));
                } else {
                    csv.push_str(&format!("{},{},{},{acc:.4}\n", cell.row, cell.col, r + 1));
                }
            }
            if wide {
                csv.push('\n');
            }
        }
    }
    csv
}

fn per_device_series(scenario: &Scenario, log: &RunLog) -> String {
    let mut csv = String::from("round");
    for device in 1..=scenario.devices() {
        csv.push_str(&format!(",device{device}"));
    }
    csv.push('\n');
    for round in &log.rounds {
        csv.push_str(&round.round.to_string());
        for acc in round.device_accuracy.iter() {
            csv.push_str(&format!(",{acc:.4}"));
        }
        csv.push('\n');
    }
    csv
}

fn algos_json(cells: &[Cell], logs: &[RunLog]) -> String {
    let rows: Vec<String> = cells
        .iter()
        .zip(logs)
        .map(|(cell, log)| {
            let upload: u64 = log.rounds.iter().map(|r| r.upload_bytes).sum();
            let download: u64 = log.rounds.iter().map(|r| r.download_bytes).sum();
            let sim_seconds: f64 = log.rounds.iter().map(|r| r.sim_seconds).sum();
            format!(
                "    \"{}\": {{ \"final_accuracy\": {:.4}, \"best_accuracy\": {:.4}, \
                 \"upload_bytes\": {upload}, \"download_bytes\": {download}, \
                 \"sim_seconds\": {sim_seconds:.2} }}",
                cell.row,
                log.final_accuracy(),
                log.best_accuracy(),
            )
        })
        .collect();
    let base = &cells[0].scenario;
    format!(
        r#"{{
  "generated_by": "cargo run --release -p fedzkt_scenario --bin scenarios -- repro algos",
  "workload": {{
    "family": "{family}",
    "partition": "{partition}",
    "devices": {devices},
    "rounds": {rounds},
    "img": {img},
    "train_n": {train_n},
    "test_n": {test_n},
    "seed": {seed}
  }},
  "algorithms": {{
{rows}
  }},
  "note": "One shared hetero-cifar workload, only the algorithm swapped (each at its standard config for this scale). Every field is simulated and bit-deterministic across hosts and thread counts: accuracy and traffic come from the seeded run, sim_seconds from the simulated hardware clock (wall-clock is measured by benchmark/, workloads kt_family and zkt_hetero). Traffic profiles differ by design: FedZKT and Fed-ET ship each device's own model weights w_k both ways, FedMD exchanges logits over a public corpus, FedGKT uplinks per-sample features+logits but downlinks only soft labels."
}}
"#,
        family = base.data.family.name(),
        partition = base.partition,
        devices = base.devices(),
        rounds = base.sim.rounds,
        img = base.data.img,
        train_n = base.data.train_n,
        test_n = base.data.test_n,
        seed = base.sim.seed,
        rows = rows.join(",\n"),
    )
}

fn grad_norm_probe(scenario: &Scenario) -> Result<String, ScenarioError> {
    let mut sim = scenario.build()?;
    sim.run();
    // The probe is FedZKT-specific: reach through the erased runner.
    let typed = sim
        .as_any()
        .downcast_ref::<Simulation<FedZkt>>()
        .expect("the fig2 cell runs fedzkt");
    Ok(typed.algorithm().probe().to_csv())
}

fn device_bounds(tier: Tier, scenario: &Scenario) -> Result<String, ScenarioError> {
    // The bound trainers consume the raw materials — corpus, shards and
    // zoo — rather than a federated run.
    let m = scenario.materialize()?;
    let fedzkt = scenario.fedzkt_cfg().expect("standard scenarios run fedzkt");
    let shards: Vec<Dataset> = m.shards.iter().map(|idx| m.train.subset(idx)).collect();
    let refs: Vec<&Dataset> = shards.iter().collect();
    let cfg = BoundConfig {
        epochs: match tier {
            Tier::Paper => 100,
            Tier::Quick => 10,
            Tier::Tiny => 2,
        },
        batch_size: fedzkt.device_batch,
        lr: fedzkt.device_lr,
        seed: scenario.sim.seed,
        ..Default::default()
    };
    let bounds = par::map_indexed(m.zoo.len(), par::resolve_threads(scenario.sim.threads), |i| {
        let lower = local_only_bound(m.zoo[i], &shards[i], &m.test, &cfg);
        let upper = centralized_bound(m.zoo[i], &refs, &m.test, &cfg);
        (upper, lower)
    });
    let mut csv = String::from("device,architecture,upper,lower\n");
    for (i, (spec, (upper, lower))) in m.zoo.iter().zip(bounds).enumerate() {
        csv.push_str(&format!("{},{},{upper:.4},{lower:.4}\n", i + 1, spec.name()));
    }
    Ok(csv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_fl::RoundMetrics;

    #[test]
    fn target_names_are_unique_and_match_the_readme_table() {
        let readme = include_str!("../../../README.md");
        let section = readme
            .split("### Paper artifacts: `scenarios repro`")
            .nth(1)
            .expect("README has the target table");
        // Rows read "| `name` | paper artifact | `file` |".
        let documented: Vec<(&str, &str)> = section
            .lines()
            .skip_while(|line| !line.starts_with("| `"))
            .take_while(|line| line.starts_with("| `"))
            .map(|line| {
                let ticked: Vec<&str> = line.split('`').collect();
                (ticked[1], ticked[ticked.len() - 2])
            })
            .collect();
        let registered: Vec<(&str, &str)> =
            targets().iter().map(|t| (t.name, t.artifact)).collect();
        assert_eq!(documented, registered);
        for (i, t) in targets().iter().enumerate() {
            assert!(targets()[..i].iter().all(|u| u.name != t.name), "duplicate {}", t.name);
            assert!(std::ptr::eq(target(t.name).unwrap(), t));
        }
        assert!(target("nope").is_none());
    }

    #[test]
    fn every_cell_validates_at_tiny_and_quick() {
        for t in targets() {
            for tier in [Tier::Tiny, Tier::Quick] {
                let cells = t.cells(tier, None, 0);
                assert!(!cells.is_empty(), "{} has no cells at {tier:?}", t.name);
                for c in cells {
                    c.scenario.validate().unwrap_or_else(|e| {
                        panic!("{} {},{} at {tier:?}: {e}", t.name, c.row, c.col)
                    });
                }
            }
        }
    }

    #[test]
    fn seed_and_threads_reach_every_cell() {
        for t in targets() {
            for c in t.cells(Tier::Tiny, Some(5), 3) {
                assert_eq!((c.scenario.sim.seed, c.scenario.sim.threads), (5, 3), "{}", t.name);
            }
            // Without a seed: 42 for the paper artifacts, the committed
            // baseline's 7 for `algos`, each preset's own for `presets`.
            let seeds: Vec<u64> =
                t.cells(Tier::Tiny, None, 0).iter().map(|c| c.scenario.sim.seed).collect();
            match t.name {
                "algos" => assert!(seeds.iter().all(|&s| s == ALGOS_SEED)),
                "presets" => assert_eq!(seeds[0], crate::preset("tiny").unwrap().sim.seed),
                _ => assert!(seeds.iter().all(|&s| s == PAPER_SEED), "{}", t.name),
            }
        }
    }

    #[test]
    fn paper_scale_presets_wait_for_the_paper_tier() {
        let quick = target("presets").unwrap().cells(Tier::Quick, None, 0);
        let paper = target("presets").unwrap().cells(Tier::Paper, None, 0);
        assert!(quick.iter().all(|c| !c.scenario.name.starts_with("paper-")));
        assert_eq!(paper.len(), presets().len());
        assert!(quick.len() < paper.len());
    }

    fn log_with(accuracies: &[f32]) -> RunLog {
        let mut log = RunLog::new();
        for (i, &acc) in accuracies.iter().enumerate() {
            log.push(RoundMetrics { avg_device_accuracy: acc, ..RoundMetrics::new(i + 1) });
        }
        log
    }

    #[test]
    fn pivots_tabulate_cells_block_by_block() {
        let sc = crate::preset("tiny").unwrap();
        let cells = [
            cell("A", "x", sc.clone()),
            cell("A", "y", sc.clone()),
            cell("B", "x", sc.clone()),
        ];
        let logs = [log_with(&[0.1, 0.5]), log_with(&[0.75]), log_with(&[0.3, 0.2])];
        assert_eq!(final_pivot("h", false, &cells, &logs), "h\nA,0.5000,0.7500\nB,0.2000\n");
        assert_eq!(
            final_pivot("h", true, &cells[2..], &logs[2..]),
            "h\nB,0.2000,0.3000\n"
        );
        // A cell that stopped early pads its column with NaN.
        assert_eq!(
            series_pivot("h", true, &cells[..2], &logs[..2]),
            "h\n1,0.1000,0.7500\n2,0.5000,NaN\n"
        );
        assert_eq!(
            series_pivot("h", false, &cells[1..], &logs[1..]),
            "h\nA,y,1,0.7500\nB,x,1,0.3000\nB,x,2,0.2000\n"
        );
    }

    #[test]
    fn table4_runs_end_to_end_at_tiny() {
        let t = target("table4").unwrap();
        let files = t.run(Tier::Tiny, None, 0).expect("table4 runs");
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].0, "table4.csv");
        let lines: Vec<&str> = files[0].1.lines().collect();
        assert_eq!(lines[0], "scenario,prox_mu,final_accuracy");
        assert_eq!(lines.len(), 1 + t.cells(Tier::Tiny, None, 0).len());
        assert!(lines[1].starts_with("C = 5,0.0,") && lines[4].starts_with("beta = 0.5,1.0,"));
    }

    #[test]
    fn fig2_yields_one_probe_record_per_round() {
        let t = target("fig2").unwrap();
        let rounds = t.cells(Tier::Tiny, None, 0)[0].scenario.sim.rounds;
        let files = t.run(Tier::Tiny, None, 0).expect("fig2 runs");
        let lines: Vec<&str> = files[0].1.lines().collect();
        assert_eq!(lines[0], "round,kl,logit_l1,sl");
        assert_eq!(lines.len(), 1 + rounds);
    }
}
