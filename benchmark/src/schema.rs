//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! lists the same names; a self-test holds the two together.

use crate::replay::{ARCHS, GEMM_SHAPES};

/// One metric's static description.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` reports a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound: None }
}

/// The end-to-end metrics, reported by every workload with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded =
        |name: &str, unit, bound| MetricDef { bound: Some(bound), ..def(name, unit, "lower") };
    vec![
        bounded("wall_s", "s", 0.25),
        bounded("setup_s", "s", 0.25),
        bounded("peak_rss_mb", "MB", 0.10),
        bounded("wire_mb", "MB", 0.02),
    ]
}

/// The per-layer metrics, reported by every workload's traced run.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("scenario.resolve_ms", "ms", "lower"),
        def("scenario.materialize_s", "s", "lower"),
        def("scenario.algo_new_s", "s", "lower"),
        def("data.synth_samples_per_s", "1/s", "higher"),
        def("data.partition_ms", "ms", "lower"),
        def("data.batch_gather_mb_s", "MB/s", "higher"),
        def("fl.local_update_s", "s", "lower"),
        def("fl.server_update_s", "s", "lower"),
        def("fl.prepare_eval_s", "s", "lower"),
        def("fl.end_round_s", "s", "lower"),
        def("fl.driver_rest_s", "s", "lower"),
        def("fl.round_ms_p50", "ms", "lower"),
        def("fl.round_ms_max", "ms", "lower"),
        def("fl.train_local_samples_per_s", "1/s", "higher"),
        def("fl.evaluate_samples_per_s", "1/s", "higher"),
        def("fl.codec_encode_mb_s", "MB/s", "higher"),
        def("fl.codec_decode_mb_s", "MB/s", "higher"),
        def("fl.codec_wire_ratio", "ratio", "lower"),
        def("fl.aggregate_fold_mb_s", "MB/s", "higher"),
        def("fl.churn_available_ms", "ms", "lower"),
        def("fl.sampler_active_ms", "ms", "lower"),
        def("fl.checkpoint_snapshot_ms", "ms", "lower"),
        def("fl.checkpoint_save_ms", "ms", "lower"),
        def("fl.checkpoint_load_ms", "ms", "lower"),
        def("fl.resume_from_ms", "ms", "lower"),
        def("fl.checkpoint_bytes", "bytes", "lower"),
        def("fl.runlog_to_json_ms", "ms", "lower"),
        def("fl.upload_bytes", "bytes", "lower"),
        def("fl.download_bytes", "bytes", "lower"),
        def("fl.peak_resident_devices", "count", "lower"),
        def("fl.active_device_rounds", "count", "higher"),
        def("fl.dropped_device_rounds", "count", "lower"),
        def("fl.final_acc", "share", "higher"),
        def("fl.sim_s", "simsec", "lower"),
        def("core.server_share", "share", "lower"),
        def("core.replay.gen_step_ms", "ms", "lower"),
        def("core.replay.global_step_ms", "ms", "lower"),
        def("core.replay.transfer_iter_ms", "ms", "lower"),
        def("core.replay.explained_share", "share", "higher"),
    ];
    let archs = ARCHS.iter().map(|(suffix, _)| *suffix).chain(["generator"]);
    for suffix in archs {
        defs.push(def(format!("models.fwd_ms.{suffix}"), "ms", "lower"));
        defs.push(def(format!("models.fwd_bwd_ms.{suffix}"), "ms", "lower"));
    }
    defs.extend([
        def("nn.sgd_step_ns_per_param", "ns", "lower"),
        def("nn.adam_step_ns_per_param", "ns", "lower"),
        def("nn.state_dict_roundtrip_mb_s", "MB/s", "higher"),
        def("autograd.conv2d_fwd_ms", "ms", "lower"),
        def("autograd.conv2d_bwd_ms", "ms", "lower"),
        def("autograd.dwconv_fwd_ms", "ms", "lower"),
        def("autograd.dwconv_bwd_ms", "ms", "lower"),
        def("autograd.pwconv_fwd_bwd_ms", "ms", "lower"),
        def("autograd.batch_norm_train_fwd_bwd_ms", "ms", "lower"),
        def("autograd.linear_fwd_bwd_ms", "ms", "lower"),
        def("autograd.distill_loss_fwd_bwd_ms", "ms", "lower"),
        def("autograd.cross_entropy_fwd_bwd_ms", "ms", "lower"),
    ]);
    for shape in GEMM_SHAPES {
        for layout in ["nn", "nt", "tn"] {
            defs.push(def(format!("tensor.gemm_{layout}_gflops.{shape}"), "GFLOP/s", "higher"));
        }
    }
    defs.extend([
        def("tensor.gemm_int8_nn_gflops.sq256", "GFLOP/s", "higher"),
        def("tensor.im2col_mb_s", "MB/s", "higher"),
        def("tensor.col2im_mb_s", "MB/s", "higher"),
        def("tensor.par_dispatch_us", "us", "lower"),
        def("proc.cpu_s", "s", "lower"),
        def("proc.runq_wait_s", "s", "lower"),
        def("proc.cpu_sys_share", "share", "lower"),
        def("proc.minor_faults", "count", "lower"),
        def("proc.ctx_switches", "count", "lower"),
        def("trace.overhead_share", "share", "lower"),
    ]);
    defs
}

/// The program the driver runs, relative to the repository root.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`: the command, the workloads with their
/// reasons, and both metric catalogues. Printed by the `schema`
/// subcommand; the file at the repository root is exactly this.
pub fn benchmark_json() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let block = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = crate::workloads::WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metric = |d: &MetricDef| {
        let bound = d.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            d.name, d.unit, d.better
        )
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        quoted(&COMMAND),
        crate::RUN_SECONDS,
        block(workloads),
        block(end_to_end().iter().map(metric).collect()),
        block(per_layer().iter().map(metric).collect()),
    )
}

/// Is `name` a legal metric or workload name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit?
pub fn valid_name(name: &str) -> bool {
    let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(legal)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Check every catalogue and workload name once at start-up.
///
/// # Errors
/// Names the first illegal or duplicated name.
pub fn validate_names() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let workloads = crate::workloads::WORKLOADS.iter().map(|w| w.name.to_string());
    let metrics = end_to_end().into_iter().chain(per_layer()).map(|d| d.name);
    for name in workloads.chain(metrics) {
        if !valid_name(&name) {
            return Err(format!("illegal name {name:?}"));
        }
        if !seen.insert(name.clone()) {
            return Err(format!("duplicate name {name:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_fl::json::parse;

    #[test]
    fn names_are_legal_and_unique() {
        validate_names().unwrap();
        assert!(valid_name("fl.round_ms_p50"));
        for bad in ["", ".hidden", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` is this program's `schema` output, byte for byte:
    /// the file and the catalogue cannot drift apart.
    #[test]
    fn benchmark_json_is_the_schema_output() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(text, benchmark_json(), "regenerate with `-- schema > BENCHMARK.json`");
        assert!(text.len() < 64 * 1024);
        parse(&text).expect("BENCHMARK.json parses");
        for w in crate::workloads::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']), "{}", w.name);
        }
        assert!((1..=16).contains(&end_to_end().len()) && (1..=128).contains(&per_layer().len()));
        assert!(end_to_end().iter().all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }
}
