//! What the three JSON readers accept and refuse, key by key.
//!
//! Every preset's canonical scenario JSON (plus two derived scenarios that
//! reach the schema arms no preset uses), a sample RunLog and a sample
//! simulation checkpoint are probed at every key and leaf:
//!
//! * **delete the key** — an error, except for the documented optional
//!   keys, which parse to their default;
//! * **change the leaf's JSON type** (number → `"1"`, string → `1`,
//!   bool → `1`) — always an error;
//! * **replace the node with `null`** — accepted only where the schema
//!   allows it: float fields read NaN, optional fields read `None`, and
//!   the unlimited fields (`server_samples_per_sec`, the two link speeds)
//!   read +∞; an error everywhere else;
//! * **add an unknown key to an object** — ignored.
//!
//! An accepted probe is checked by writing the parsed value back out: the
//! document must be the probed one with the documented default in place,
//! and the value's `Debug` form must gain exactly the NaN or +∞ the rule
//! predicts.

use fedzkt_fl::json::{self, Value};
use fedzkt_fl::{AlgoState, CodecSpec, DeviceResources, RoundMetrics, RunLog, SimCheckpoint};
use fedzkt_scenario::{presets, LinkBandwidth, ResourceAssignment, ResourceSpec, Scenario};

#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// An edit applied at one path while re-rendering a tree.
#[derive(Clone, Copy)]
enum Op {
    Delete,
    Replace(&'static str),
    AddKey,
}

/// Render `v` compactly, applying `at`'s edit at its path.
fn render(v: &Value, at: Option<(&[Step], Op)>, out: &mut String) {
    if let Some(([], Op::Replace(literal))) = at {
        out.push_str(literal);
        return;
    }
    let here = |step: &Step| match at {
        Some(([first, rest @ ..], op)) => {
            let hit = match (first, step) {
                (Step::Key(a), Step::Key(b)) => a == b,
                (Step::Index(a), Step::Index(b)) => a == b,
                _ => false,
            };
            hit.then_some((rest, op))
        }
        _ => None,
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(raw) => out.push_str(raw),
        Value::String(s) => {
            out.push('"');
            out.push_str(&json::escape(s));
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            let mut first = true;
            for (i, item) in items.iter().enumerate() {
                let sub = here(&Step::Index(i));
                if let Some(([], Op::Delete)) = sub {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                render(item, sub, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            let mut first = true;
            for (key, item) in fields {
                let sub = here(&Step::Key(key.to_string()));
                if let Some(([], Op::Delete)) = sub {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                out.push_str(key);
                out.push_str("\":");
                render(item, sub, out);
            }
            if let Some(([], Op::AddKey)) = at {
                if !first {
                    out.push(',');
                }
                out.push_str("\"zz_unknown_key\":[1,{\"x\":null}]");
            }
            out.push('}');
        }
    }
}

fn edited(v: &Value, path: &[Step], op: Op) -> String {
    let mut out = String::new();
    render(v, Some((path, op)), &mut out);
    out
}

fn canonical(text: &str) -> String {
    let mut out = String::new();
    render(&json::parse(text).expect("writer output parses"), None, &mut out);
    out
}

/// Every node below the root, with its path.
fn walk<'v, 'a>(v: &'v Value<'a>, path: &mut Vec<Step>, out: &mut Vec<(Vec<Step>, &'v Value<'a>)>) {
    if !path.is_empty() {
        out.push((path.clone(), v));
    }
    match v {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(Step::Index(i));
                walk(item, path, out);
                path.pop();
            }
        }
        Value::Object(fields) => {
            for (key, item) in fields {
                path.push(Step::Key(key.to_string()));
                walk(item, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn dotted(path: &[Step]) -> String {
    let mut s = String::new();
    for step in path {
        match step {
            Step::Key(k) if s.is_empty() => s.push_str(k),
            Step::Key(k) => {
                s.push('.');
                s.push_str(k);
            }
            Step::Index(i) => s.push_str(&format!("[{i}]")),
        }
    }
    s
}

fn last_key(path: &[Step]) -> &str {
    path.iter()
        .rev()
        .find_map(|s| match s {
            Step::Key(k) => Some(k.as_str()),
            Step::Index(_) => None,
        })
        .unwrap_or("")
}

#[derive(Clone, Copy)]
enum Probe {
    Delete,
    Retype,
    Null,
}

/// The documented outcome of one probe.
enum Expect {
    Err,
    /// Accepted; the written-back document equals the original with `edit`
    /// at the probed path, and `Debug` gains `nan` NaNs (and `inf` +∞s,
    /// when given).
    Ok {
        edit: Op,
        nan: usize,
        inf: Option<usize>,
    },
}

const NULL_READS_NONE: Expect = Expect::Ok { edit: Op::Replace("null"), nan: 0, inf: None };
const NULL_READS_NAN: Expect = Expect::Ok { edit: Op::Replace("null"), nan: 1, inf: None };
const NULL_READS_INF: Expect = Expect::Ok { edit: Op::Replace("null"), nan: 0, inf: Some(1) };

#[derive(Clone, Copy)]
enum Kind {
    Scenario,
    RunLog,
    Checkpoint,
}

const SCENARIO_FLOATS: &[&str] = &[
    "noise_std",
    "beta",
    "scale",
    "width",
    "size",
    "compute_samples_per_sec",
    "uplink_bytes_per_sec",
    "downlink_bytes_per_sec",
    "server_seconds",
    "mean_lifetime",
    "dropout",
    "bandwidth_floor",
    "device_lr",
    "device_momentum",
    "server_lr",
    "transfer_lr",
    "generator_lr",
    "prox_mu",
    "lr",
    "momentum",
    "diversity_lambda",
    "participation",
    "density",
];
const SCENARIO_UNLIMITED: &[&str] =
    &["server_samples_per_sec", "up_bytes_per_sec", "down_bytes_per_sec"];
const RUNLOG_FLOATS: &[&str] =
    &["avg_device_accuracy", "device_accuracy", "train_loss", "sim_seconds"];
const RUNLOG_COUNTS: &[&str] =
    &["registered_devices", "peak_resident_devices", "available_devices", "dropped_devices"];

fn rule(kind: Kind, path: &[Step], node: &Value, probe: Probe) -> Expect {
    let dotted = dotted(path);
    let key = last_key(path);
    let number = matches!(node, Value::Number(_));
    match (kind, probe) {
        (_, Probe::Retype) => Expect::Err,
        (Kind::Scenario, Probe::Delete) => match dotted.as_str() {
            "registered_devices" => Expect::Ok { edit: Op::Replace("0"), nan: 0, inf: None },
            "churn" => Expect::Ok { edit: Op::Delete, nan: 0, inf: None },
            "sim.codec" => {
                Expect::Ok { edit: Op::Replace("{\"kind\":\"raw\"}"), nan: 0, inf: None }
            }
            "resources.bandwidth" => NULL_READS_NONE,
            _ => Expect::Err,
        },
        (Kind::Scenario, Probe::Null) => match dotted.as_str() {
            "resources" | "resources.bandwidth" => NULL_READS_NONE,
            // The writer omits a static fleet's churn block.
            "churn" => Expect::Ok { edit: Op::Delete, nan: 0, inf: None },
            _ if number && SCENARIO_UNLIMITED.contains(&key) => NULL_READS_INF,
            _ if number && SCENARIO_FLOATS.contains(&key) => NULL_READS_NAN,
            _ => Expect::Err,
        },
        (Kind::RunLog, probe) => {
            let in_round = matches!(path, [Step::Key(r), Step::Index(_), ..] if r == "rounds");
            match probe {
                Probe::Delete if in_round && path.len() == 3 && RUNLOG_COUNTS.contains(&key) => {
                    Expect::Ok { edit: Op::Replace("0"), nan: 0, inf: None }
                }
                Probe::Delete | Probe::Null
                    if in_round && path.len() == 3 && key == "global_accuracy" =>
                {
                    NULL_READS_NONE
                }
                Probe::Null if in_round && number && RUNLOG_FLOATS.contains(&key) => NULL_READS_NAN,
                _ => Expect::Err,
            }
        }
        (Kind::Checkpoint, probe) => match path {
            [Step::Key(k), rest @ ..] if k == "log" && !rest.is_empty() => {
                rule(Kind::RunLog, rest, node, probe)
            }
            [Step::Key(k)] if k == "clock_now" => NULL_READS_NONE,
            _ => Expect::Err,
        },
    }
}

struct Doc {
    label: String,
    kind: Kind,
    text: String,
    /// Parse, and on success return the written-back document and the
    /// value's `Debug` form.
    read: fn(&str) -> Result<(String, String), String>,
}

fn read_scenario(text: &str) -> Result<(String, String), String> {
    Scenario::from_json(text).map(|s| (s.to_json(), format!("{s:?}"))).map_err(|e| e.to_string())
}

fn read_runlog(text: &str) -> Result<(String, String), String> {
    RunLog::from_json(text).map(|l| (l.to_json(), format!("{l:?}")))
}

fn read_checkpoint(text: &str) -> Result<(String, String), String> {
    SimCheckpoint::from_json(text).map(|c| (c.to_json(), format!("{c:?}")))
}

fn sample_log() -> RunLog {
    let mut log = RunLog::new();
    log.push(RoundMetrics {
        round: 1,
        avg_device_accuracy: 0.5,
        device_accuracy: vec![0.25, 0.75].into(),
        global_accuracy: Some(0.625),
        train_loss: 1.5,
        upload_bytes: 1_000,
        download_bytes: 2_000,
        sim_seconds: 12.25,
        active_devices: vec![0, 1],
        registered_devices: 1_000,
        peak_resident_devices: 2,
        available_devices: 900,
        dropped_devices: 1,
    });
    log.push(RoundMetrics {
        avg_device_accuracy: 0.125,
        device_accuracy: vec![0.125].into(),
        sim_seconds: 3.0,
        active_devices: vec![1],
        registered_devices: 7,
        ..RoundMetrics::new(2)
    });
    log
}

fn sample_checkpoint() -> SimCheckpoint {
    let mut algo = AlgoState::new();
    algo.put_blob("global", vec![0x46, 0x5a, 0x4b, 0x54, 0, 1]);
    algo.put_blob("empty", vec![]);
    algo.put_words("rng", vec![u64::MAX, 0, 7]);
    algo.put_words("none", vec![]);
    let log = sample_log();
    SimCheckpoint {
        version: fedzkt_fl::checkpoint::CHECKPOINT_VERSION,
        seed: 9,
        devices: 1_000,
        rounds_done: log.rounds.len(),
        clock_now: Some(15.25),
        algo,
        log,
    }
}

/// Two scenarios reaching the arms no preset uses: an explicit resource
/// list, the MCU assignment, a finite and an unlimited link, a free server,
/// the q4 and top-k codecs, and churn on a FedAvg run.
fn derived_scenarios() -> Vec<Scenario> {
    let mut explicit = fedzkt_scenario::preset("straggler").expect("preset");
    let devices = explicit.devices();
    explicit.name = "derived-explicit".into();
    explicit.resources = Some(ResourceSpec {
        assignment: ResourceAssignment::Explicit(
            (0..devices)
                .map(|i| DeviceResources {
                    compute_samples_per_sec: 100.0 + i as f32,
                    ..DeviceResources::smartphone()
                })
                .collect(),
        ),
        bandwidth: Some(LinkBandwidth { up_bytes_per_sec: f32::INFINITY, down_bytes_per_sec: 2e6 }),
        server_seconds: 0.5,
    });
    explicit.sim.codec = CodecSpec::QuantQ4;
    explicit.fedzkt_cfg_mut().expect("straggler runs fedzkt").server_samples_per_sec =
        f32::INFINITY;
    let mut mcu = fedzkt_scenario::preset("fedavg-lcd").expect("preset");
    mcu.name = "derived-mcu".into();
    mcu.resources = Some(ResourceSpec {
        assignment: ResourceAssignment::Microcontroller,
        bandwidth: None,
        server_seconds: 0.0,
    });
    mcu.churn = fedzkt_scenario::preset("churn-lossy").expect("preset").churn;
    mcu.sim.codec = CodecSpec::TopK { density: 0.25 };
    mcu.registered_devices = 64;
    vec![explicit, mcu]
}

fn docs() -> Vec<Doc> {
    let mut docs: Vec<Doc> = presets()
        .into_iter()
        .map(|p| p.scenario())
        .chain(derived_scenarios())
        .map(|s| Doc {
            label: format!("scenario {}", s.name),
            kind: Kind::Scenario,
            text: s.to_json(),
            read: read_scenario,
        })
        .collect();
    docs.push(Doc {
        label: "runlog".into(),
        kind: Kind::RunLog,
        text: sample_log().to_json(),
        read: read_runlog,
    });
    docs.push(Doc {
        label: "checkpoint".into(),
        kind: Kind::Checkpoint,
        text: sample_checkpoint().to_json(),
        read: read_checkpoint,
    });
    docs
}

fn check(doc: &Doc, tree: &Value, base_debug: &str, node: (&[Step], &Value), probe: Probe) {
    let (path, value) = node;
    let (op, what) = match probe {
        Probe::Delete => (Op::Delete, "deleting"),
        Probe::Null => (Op::Replace("null"), "nulling"),
        Probe::Retype if matches!(value, Value::Number(_)) => (Op::Replace("\"1\""), "retyping"),
        Probe::Retype => (Op::Replace("1"), "retyping"),
    };
    let at = format!("{}: {what} `{}`", doc.label, dotted(path));
    let result = (doc.read)(&edited(tree, path, op));
    let count = |s: &str, needle: &str| s.matches(needle).count();
    match rule(doc.kind, path, value, probe) {
        Expect::Err => assert!(result.is_err(), "{at} was accepted, must be refused"),
        Expect::Ok { edit, nan, inf } => {
            let (written, debug) =
                result.unwrap_or_else(|e| panic!("{at} was refused ({e}), must be accepted"));
            assert_eq!(canonical(&written), edited(tree, path, edit), "{at}: read the wrong value");
            assert_eq!(count(&debug, "NaN"), count(base_debug, "NaN") + nan, "{at}: NaN count");
            if let Some(inf) = inf {
                assert_eq!(
                    count(&debug, "inf"),
                    count(base_debug, "inf") + inf,
                    "{at}: +inf count"
                );
            }
        }
    }
}

#[test]
fn every_key_and_leaf_is_accepted_or_refused_as_documented() {
    let mut probes = 0;
    for doc in docs() {
        let tree = json::parse(&doc.text).expect("canonical document parses");
        let (_, base_debug) = (doc.read)(&doc.text).expect("canonical document reads");
        let mut nodes = Vec::new();
        walk(&tree, &mut Vec::new(), &mut nodes);
        for (path, value) in &nodes {
            let node = (path.as_slice(), *value);
            if let Some(Step::Key(_)) = path.last() {
                check(&doc, &tree, &base_debug, node, Probe::Delete);
                probes += 1;
            }
            if matches!(value, Value::Number(_) | Value::String(_) | Value::Bool(_)) {
                check(&doc, &tree, &base_debug, node, Probe::Retype);
                probes += 1;
            }
            if !matches!(value, Value::Null) {
                check(&doc, &tree, &base_debug, node, Probe::Null);
                probes += 1;
            }
        }
        let objects = std::iter::once((Vec::new(), &tree))
            .chain(nodes.iter().map(|(p, n)| (p.clone(), *n)))
            .filter(|(_, n)| matches!(n, Value::Object(_)));
        for (path, _) in objects {
            let at = format!("{}: unknown key in `{}`", doc.label, dotted(&path));
            let (_, debug) = (doc.read)(&edited(&tree, &path, Op::AddKey))
                .unwrap_or_else(|e| panic!("{at} was refused ({e}), must be ignored"));
            assert_eq!(debug, base_debug, "{at} changed the value read");
            probes += 1;
        }
    }
    assert!(probes > 3_500, "only {probes} probes ran");
}

#[test]
fn removed_compute_key_reads_f32_and_refuses_everything_else() {
    let sc = presets()[0].scenario();
    let with = |literal: &str| {
        canonical(&sc.to_json()).replacen(
            "\"sim\":{",
            &format!("\"sim\":{{\"compute\":{literal},"),
            1,
        )
    };
    assert_eq!(Scenario::from_json(&with("\"f32\"")).unwrap(), sc);
    for refused in ["\"int8\"", "\"F32\"", "1", "null", "true", "[]"] {
        assert!(Scenario::from_json(&with(refused)).is_err(), "sim.compute {refused}");
    }
}
