//! # fedzkt-bench
//!
//! Experiment harness reproducing every table and figure of the FedZKT
//! paper's evaluation (§IV). Each `src/bin/*` binary regenerates one
//! artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table I — IID accuracy, FedZKT vs FedMD (incl. public-dataset sensitivity) |
//! | `fig2`   | Figure 2 — ‖∇ₓL‖ for SL / KL / ℓ1 over rounds |
//! | `fig3`   | Figure 3 — learning curves, FedZKT vs FedMD (CIFAR-10) |
//! | `fig4`   | Figure 4 — non-IID accuracy across c and β |
//! | `table2` | Table II — loss-function ablation under non-IID |
//! | `fig5`   | Figure 5 — per-device learning curves, heterogeneous zoo |
//! | `table3` | Table III — per-device lower/upper bounds |
//! | `fig6`   | Figure 6 — straggler portions p |
//! | `table4` | Table IV — ℓ2-regularization ablation |
//! | `fig7`   | Figure 7 — device counts K |
//! | `run_all`| every preset of the `fedzkt_scenario` registry |
//!
//! Every binary constructs its workloads declaratively through
//! [`Scenario`] (see [`ExpOptions::scenario`]) — the experiment grid is
//! data, not hand-wired setup code — and shares one flag parser:
//! `--paper` / `--scale quick|tiny|paper`, `--seed N`, `--out DIR`,
//! `--threads N`. Results print as aligned tables and are written as CSV
//! under `target/experiments/`.

#![warn(missing_docs)]

use fedzkt_data::{DataFamily, Partition};
use fedzkt_scenario::Scenario;
use std::io::Write as _;
use std::path::PathBuf;

pub use fedzkt_scenario::{fedmd_public_family, Scale, Tier};

/// Parsed command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Workload tier.
    pub tier: Tier,
    /// Master seed.
    pub seed: u64,
    /// Was `--seed` given explicitly? Binaries whose workloads carry their
    /// own curated seeds (`run_all` over the preset registry) only
    /// override them when the user actually asked.
    pub seed_explicit: bool,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Worker threads for device-parallel phases (0 = `FEDZKT_THREADS`,
    /// then available parallelism). Applied to every scenario the binary
    /// builds through [`ExpOptions::scenario`] / [`ExpOptions::tune`].
    pub threads: usize,
    /// Binary-specific flags the common parser did not recognise
    /// (e.g. fig4's `--skew quantity`).
    pub extras: Vec<String>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            tier: Tier::Quick,
            seed: 42,
            seed_explicit: false,
            out_dir: PathBuf::from("target/experiments"),
            threads: 0,
            extras: Vec::new(),
        }
    }
}

impl ExpOptions {
    /// Parse `--paper`, `--scale quick|tiny|paper`, `--seed N`, `--out DIR`,
    /// `--threads N` from `std::env::args`; unrecognised arguments are
    /// collected into [`ExpOptions::extras`] for binary-specific flags.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse from an explicit argument list (testable form of
    /// [`ExpOptions::from_args`]).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = ExpOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper" => opts.tier = Tier::Paper,
                "--scale" => {
                    let v = args.next().unwrap_or_default();
                    opts.tier = match v.as_str() {
                        "quick" => Tier::Quick,
                        "tiny" => Tier::Tiny,
                        "paper" => Tier::Paper,
                        other => {
                            eprintln!("unknown scale '{other}' (quick|tiny|paper)");
                            std::process::exit(2);
                        }
                    };
                }
                "--seed" => {
                    opts.seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--seed needs an integer");
                        std::process::exit(2);
                    });
                    opts.seed_explicit = true;
                }
                "--threads" => {
                    opts.threads = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--threads needs an integer");
                        std::process::exit(2);
                    });
                }
                "--out" => {
                    opts.out_dir = PathBuf::from(args.next().unwrap_or_default());
                }
                "--help" | "-h" => {
                    println!(
                        "usage: [--paper | --scale quick|tiny|paper] [--seed N] [--out DIR] [--threads N]"
                    );
                    std::process::exit(0);
                }
                other => opts.extras.push(other.to_string()),
            }
        }
        opts
    }

    /// Value following `flag` among the extra arguments, if present.
    pub fn extra_value(&self, flag: &str) -> Option<&str> {
        self.extras
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.extras.get(i + 1))
            .map(String::as_str)
    }

    /// The standard FedZKT scenario for a family and partition at this
    /// invocation's tier, seed and thread count — the declarative
    /// starting point of every experiment binary.
    pub fn scenario(&self, family: DataFamily, partition: Partition) -> Scenario {
        let mut sc = Scenario::standard(family, partition, self.tier, self.seed);
        self.tune(&mut sc);
        sc
    }

    /// [`ExpOptions::scenario`] with explicit scale overrides (device-count
    /// and round sweeps).
    pub fn scenario_scaled(
        &self,
        family: DataFamily,
        partition: Partition,
        scale: Scale,
    ) -> Scenario {
        let mut sc = Scenario::standard_scaled(family, partition, self.tier, self.seed, scale);
        self.tune(&mut sc);
        sc
    }

    /// Apply this invocation's seed and worker-thread count to a scenario
    /// built elsewhere (e.g. a registry preset).
    pub fn tune(&self, scenario: &mut Scenario) {
        scenario.sim.seed = self.seed;
        scenario.sim.threads = self.threads;
    }

    /// Write a CSV artifact, creating the output directory if needed.
    pub fn write_csv(&self, name: &str, contents: &str) {
        std::fs::create_dir_all(&self.out_dir).expect("create output dir");
        let path = self.out_dir.join(name);
        let mut f = std::fs::File::create(&path).expect("create CSV");
        f.write_all(contents.as_bytes()).expect("write CSV");
        println!("  [csv] {}", path.display());
    }
}

/// Format an accuracy as the paper prints them.
pub fn pct(x: f32) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Print a named experiment header.
pub fn banner(name: &str, opts: &ExpOptions) {
    println!("================================================================");
    println!("{name}   (tier: {:?}, seed: {})", opts.tier, opts.seed);
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_scenario::Algo;

    #[test]
    fn options_parse_the_shared_flags() {
        let opts = ExpOptions::parse(
            ["--scale", "tiny", "--seed", "9", "--threads", "3", "--out", "/tmp/x", "--skew", "quantity"]
                .map(String::from),
        );
        assert_eq!(opts.tier, Tier::Tiny);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(opts.extra_value("--skew"), Some("quantity"));
    }

    #[test]
    fn scenario_carries_the_invocation_knobs() {
        let opts = ExpOptions {
            tier: Tier::Tiny,
            seed: 5,
            threads: 2,
            ..Default::default()
        };
        let sc = opts.scenario(DataFamily::MnistLike, Partition::Iid);
        assert_eq!(sc.sim.seed, 5);
        assert_eq!(sc.sim.threads, 2);
        assert_eq!(sc.devices(), 3);
        assert!(matches!(sc.algorithm, Algo::FedZkt(_)));
        sc.validate().expect("standard scenario validates");
    }

    #[test]
    fn tiny_fedzkt_and_fedmd_run_end_to_end() {
        let opts = ExpOptions { tier: Tier::Tiny, seed: 2, ..Default::default() };
        let sc = opts.scenario(DataFamily::MnistLike, Partition::Iid);
        let log = sc.run().expect("fedzkt leg");
        assert_eq!(log.rounds.len(), 2);
        let mut md = sc.fedmd_counterpart(opts.tier, fedmd_public_family(DataFamily::MnistLike));
        md.sim.rounds = 1;
        let log = md.run().expect("fedmd leg");
        assert_eq!(log.rounds.len(), 1);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.9776), "97.76%");
    }
}
