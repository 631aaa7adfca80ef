//! Canonical JSON serialization for [`Scenario`].
//!
//! The offline vendored `serde` is a derive-only shim, so the wire format
//! is owned here: a hand-rolled writer emitting one canonical pretty
//! form (2-space indent, struct field order, Rust's shortest round-trip
//! float formatting) and a reader over the workspace JSON parser
//! ([`fedzkt_fl::json`]). Canonical output is what makes the checked-in
//! preset files *golden*: `parse → to_json` reproduces them byte for byte.

use crate::{
    Algo, DataSpec, LinkBandwidth, ResourceAssignment, ResourceSpec, Scenario, ScenarioError,
};
use fedzkt_core::{DistillLoss, FedMdConfig, FedZktConfig};
use fedzkt_data::{DataFamily, Partition};
use fedzkt_fl::json::{self, Value};
use fedzkt_fl::{
    ChurnSpec, CodecSpec, DeviceResources, FedAvgConfig, FedEtConfig,
    FedGktConfig, SimConfig,
};
use fedzkt_models::{GeneratorSpec, ModelSpec};

/// An owned JSON tree, built by the writer and pretty-printed canonically.
enum J {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(&'static str, J)>),
}

fn us(v: usize) -> J {
    J::Num(v.to_string())
}

fn u64j(v: u64) -> J {
    J::Num(v.to_string())
}

fn f32j(v: f32) -> J {
    if v.is_finite() {
        J::Num(format!("{v}"))
    } else {
        J::Null // no JSON literal; readers of fields that allow it map it back
    }
}

fn f64j(v: f64) -> J {
    if v.is_finite() {
        J::Num(format!("{v}"))
    } else {
        J::Null
    }
}

fn sj(v: &str) -> J {
    J::Str(v.to_string())
}

fn pretty(j: &J, indent: usize, out: &mut String) {
    match j {
        J::Null => out.push_str("null"),
        J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        J::Num(raw) => out.push_str(raw),
        J::Str(s) => {
            out.push('"');
            out.push_str(&json::escape(s));
            out.push('"');
        }
        J::Arr(items) if items.is_empty() => out.push_str("[]"),
        J::Arr(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                for _ in 0..indent + 1 {
                    out.push_str("  ");
                }
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            for _ in 0..indent {
                out.push_str("  ");
            }
            out.push(']');
        }
        J::Obj(fields) if fields.is_empty() => out.push_str("{}"),
        J::Obj(fields) => {
            out.push_str("{\n");
            for (i, (key, value)) in fields.iter().enumerate() {
                for _ in 0..indent + 1 {
                    out.push_str("  ");
                }
                out.push('"');
                out.push_str(key);
                out.push_str("\": ");
                pretty(value, indent + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            for _ in 0..indent {
                out.push_str("  ");
            }
            out.push('}');
        }
    }
}

fn family_slug(f: DataFamily) -> &'static str {
    match f {
        DataFamily::MnistLike => "mnist",
        DataFamily::KmnistLike => "kmnist",
        DataFamily::FashionLike => "fashion",
        DataFamily::Cifar10Like => "cifar10",
        DataFamily::Cifar100Like => "cifar100",
        DataFamily::SvhnLike => "svhn",
    }
}

fn family_from_slug(s: &str) -> Result<DataFamily, String> {
    Ok(match s {
        "mnist" => DataFamily::MnistLike,
        "kmnist" => DataFamily::KmnistLike,
        "fashion" => DataFamily::FashionLike,
        "cifar10" => DataFamily::Cifar10Like,
        "cifar100" => DataFamily::Cifar100Like,
        "svhn" => DataFamily::SvhnLike,
        other => return Err(format!("unknown data family \"{other}\"")),
    })
}

fn loss_slug(l: DistillLoss) -> &'static str {
    match l {
        DistillLoss::Kl => "kl",
        DistillLoss::LogitL1 => "logit_l1",
        DistillLoss::Sl => "sl",
    }
}

fn loss_from_slug(s: &str) -> Result<DistillLoss, String> {
    Ok(match s {
        "kl" => DistillLoss::Kl,
        "logit_l1" => DistillLoss::LogitL1,
        "sl" => DistillLoss::Sl,
        other => return Err(format!("unknown distill loss \"{other}\"")),
    })
}

fn model_j(m: &ModelSpec) -> J {
    J::Obj(match *m {
        ModelSpec::SmallCnn { base_channels } => {
            vec![("kind", sj("small_cnn")), ("base_channels", us(base_channels))]
        }
        ModelSpec::Mlp { hidden } => vec![("kind", sj("mlp")), ("hidden", us(hidden))],
        ModelSpec::LeNet { scale, deep } => {
            vec![("kind", sj("lenet")), ("scale", f32j(scale)), ("deep", J::Bool(deep))]
        }
        ModelSpec::MobileNetV2 { width } => {
            vec![("kind", sj("mobilenet_v2")), ("width", f32j(width))]
        }
        ModelSpec::ShuffleNetV2 { size } => {
            vec![("kind", sj("shufflenet_v2")), ("size", f32j(size))]
        }
    })
}

fn partition_j(p: &Partition) -> J {
    J::Obj(match *p {
        Partition::Iid => vec![("kind", sj("iid"))],
        Partition::QuantitySkew { classes_per_device } => {
            vec![("kind", sj("quantity_skew")), ("classes_per_device", us(classes_per_device))]
        }
        Partition::Dirichlet { beta } => {
            vec![("kind", sj("dirichlet")), ("beta", f32j(beta))]
        }
    })
}

fn generator_j(g: &GeneratorSpec) -> J {
    J::Obj(vec![("z_dim", us(g.z_dim)), ("ngf", us(g.ngf))])
}

fn fedzkt_cfg_j(c: &FedZktConfig) -> J {
    J::Obj(vec![
        ("local_epochs", us(c.local_epochs)),
        ("distill_iters", us(c.distill_iters)),
        ("transfer_iters", us(c.transfer_iters)),
        ("device_batch", us(c.device_batch)),
        ("distill_batch", us(c.distill_batch)),
        ("device_lr", f32j(c.device_lr)),
        ("device_momentum", f32j(c.device_momentum)),
        ("server_lr", f32j(c.server_lr)),
        ("transfer_lr", f32j(c.transfer_lr)),
        ("generator_lr", f32j(c.generator_lr)),
        ("loss", sj(loss_slug(c.loss))),
        // `null` spells an infinitely fast (free) server — +∞ only. The
        // other non-finite values are invalid (validate() rejects them);
        // they serialize as -1 so they read back as a *rejected* config
        // rather than borrowing the free-server spelling.
        (
            "server_samples_per_sec",
            if c.server_samples_per_sec == f32::INFINITY {
                J::Null
            } else if c.server_samples_per_sec.is_finite() {
                f32j(c.server_samples_per_sec)
            } else {
                J::Num("-1".into())
            },
        ),
        ("prox_mu", f32j(c.prox_mu)),
        ("generator", generator_j(&c.generator)),
        ("global_model", model_j(&c.global_model)),
        ("probe_grad_norms", J::Bool(c.probe_grad_norms)),
        ("fresh_generator_for_transfer", J::Bool(c.fresh_generator_for_transfer)),
    ])
}

fn fedavg_cfg_j(c: &FedAvgConfig) -> J {
    J::Obj(vec![
        ("local_epochs", us(c.local_epochs)),
        ("batch_size", us(c.batch_size)),
        ("lr", f32j(c.lr)),
        ("momentum", f32j(c.momentum)),
        ("prox_mu", f32j(c.prox_mu)),
    ])
}

fn fedmd_cfg_j(c: &FedMdConfig) -> J {
    J::Obj(vec![
        ("public_warmup_epochs", us(c.public_warmup_epochs)),
        ("private_warmup_epochs", us(c.private_warmup_epochs)),
        ("alignment_size", us(c.alignment_size)),
        ("digest_epochs", us(c.digest_epochs)),
        ("revisit_epochs", us(c.revisit_epochs)),
        ("batch_size", us(c.batch_size)),
        ("lr", f32j(c.lr)),
    ])
}

fn fedet_cfg_j(c: &FedEtConfig) -> J {
    J::Obj(vec![
        ("local_epochs", us(c.local_epochs)),
        ("batch_size", us(c.batch_size)),
        ("lr", f32j(c.lr)),
        ("transfer_size", us(c.transfer_size)),
        ("distill_epochs", us(c.distill_epochs)),
        ("transfer_epochs", us(c.transfer_epochs)),
        ("server_lr", f32j(c.server_lr)),
        ("diversity_lambda", f32j(c.diversity_lambda)),
        ("server_model", model_j(&c.server_model)),
    ])
}

fn fedgkt_cfg_j(c: &FedGktConfig) -> J {
    J::Obj(vec![
        ("local_epochs", us(c.local_epochs)),
        ("kd_epochs", us(c.kd_epochs)),
        ("server_epochs", us(c.server_epochs)),
        ("batch_size", us(c.batch_size)),
        ("lr", f32j(c.lr)),
        ("server_lr", f32j(c.server_lr)),
        ("feature_dim", us(c.feature_dim)),
        ("server_hidden", us(c.server_hidden)),
    ])
}

fn device_resources_j(r: &DeviceResources) -> J {
    J::Obj(vec![
        ("compute_samples_per_sec", f32j(r.compute_samples_per_sec)),
        ("uplink_bytes_per_sec", f32j(r.uplink_bytes_per_sec)),
        ("downlink_bytes_per_sec", f32j(r.downlink_bytes_per_sec)),
    ])
}

/// An unlimited link (`+∞`) serializes as `null`, mirroring the
/// free-server spelling of `server_samples_per_sec`; other non-finite
/// values write `-1` so they come back *rejected* rather than unlimited.
fn link_j(v: f32) -> J {
    if v == f32::INFINITY {
        J::Null
    } else if v.is_finite() {
        f32j(v)
    } else {
        J::Num("-1".into())
    }
}

fn bandwidth_j(b: &LinkBandwidth) -> J {
    J::Obj(vec![
        ("up_bytes_per_sec", link_j(b.up_bytes_per_sec)),
        ("down_bytes_per_sec", link_j(b.down_bytes_per_sec)),
    ])
}

fn resources_j(r: &ResourceSpec) -> J {
    let assignment = J::Obj(match &r.assignment {
        ResourceAssignment::Smartphone => vec![("kind", sj("smartphone"))],
        ResourceAssignment::Microcontroller => vec![("kind", sj("microcontroller"))],
        ResourceAssignment::Heterogeneous { seed } => {
            vec![("kind", sj("heterogeneous")), ("seed", u64j(*seed))]
        }
        ResourceAssignment::Explicit(list) => vec![
            ("kind", sj("explicit")),
            ("devices", J::Arr(list.iter().map(device_resources_j).collect())),
        ],
    });
    J::Obj(vec![
        ("assignment", assignment),
        ("bandwidth", r.bandwidth.as_ref().map_or(J::Null, bandwidth_j)),
        ("server_seconds", f64j(r.server_seconds)),
    ])
}

fn churn_j(c: &ChurnSpec) -> J {
    J::Obj(vec![
        ("seed", u64j(c.seed)),
        ("arrival_window", us(c.arrival_window)),
        ("mean_lifetime", f32j(c.mean_lifetime)),
        ("duty_period", us(c.duty_period)),
        ("duty_on", us(c.duty_on)),
        ("dropout", f32j(c.dropout)),
        ("bandwidth_floor", f32j(c.bandwidth_floor)),
    ])
}

fn codec_j(c: &CodecSpec) -> J {
    J::Obj(match *c {
        CodecSpec::Raw => vec![("kind", sj("raw"))],
        CodecSpec::QuantQ8 => vec![("kind", sj("quant_q8"))],
        CodecSpec::QuantQ4 => vec![("kind", sj("quant_q4"))],
        CodecSpec::TopK { density } => {
            vec![("kind", sj("top_k")), ("density", f32j(density))]
        }
    })
}

fn algo_j(a: &Algo) -> J {
    J::Obj(match a {
        Algo::FedZkt(cfg) => vec![("kind", sj("fedzkt")), ("config", fedzkt_cfg_j(cfg))],
        Algo::FedAvg(cfg) => vec![("kind", sj("fedavg")), ("config", fedavg_cfg_j(cfg))],
        Algo::FedProx(cfg) => vec![("kind", sj("fedprox")), ("config", fedavg_cfg_j(cfg))],
        Algo::FedMd { public, cfg } => vec![
            ("kind", sj("fedmd")),
            ("public", sj(family_slug(*public))),
            ("config", fedmd_cfg_j(cfg)),
        ],
        Algo::FedEt { public, cfg } => vec![
            ("kind", sj("fedet")),
            ("public", sj(family_slug(*public))),
            ("config", fedet_cfg_j(cfg)),
        ],
        Algo::FedGkt(cfg) => vec![("kind", sj("fedgkt")), ("config", fedgkt_cfg_j(cfg))],
    })
}

fn sim_j(s: &SimConfig) -> J {
    J::Obj(vec![
        ("rounds", us(s.rounds)),
        ("participation", f32j(s.participation)),
        ("eval_batch", us(s.eval_batch)),
        ("eval_every", us(s.eval_every)),
        ("seed", u64j(s.seed)),
        ("threads", us(s.threads)),
        ("codec", codec_j(&s.codec)),
    ])
}

// ---- reader helpers ------------------------------------------------------

fn req<'a, 'b>(v: &'a Value<'b>, key: &str) -> Result<&'a Value<'b>, String> {
    v.get(key).ok_or_else(|| format!("missing field \"{key}\""))
}

fn usize_f(v: &Value, key: &str) -> Result<usize, String> {
    req(v, key)?
        .as_number()
        .and_then(|raw| raw.parse().ok())
        .ok_or_else(|| format!("field \"{key}\" is not a non-negative integer"))
}

fn u64_f(v: &Value, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_number()
        .and_then(|raw| raw.parse().ok())
        .ok_or_else(|| format!("field \"{key}\" is not a 64-bit unsigned integer"))
}

/// `null` (the writer's spelling of a non-finite value — like
/// `RunLog::to_json`) reads back as NaN; [`Scenario::validate`] rejects it
/// everywhere NaN is not meaningful.
fn f32_f(v: &Value, key: &str) -> Result<f32, String> {
    match req(v, key)? {
        Value::Null => Ok(f32::NAN),
        other => other
            .as_number()
            .and_then(|raw| raw.parse().ok())
            .ok_or_else(|| format!("field \"{key}\" is not a number")),
    }
}

/// Same `null` → NaN convention as [`f32_f`], for the schema's f64 fields.
fn f64_f(v: &Value, key: &str) -> Result<f64, String> {
    match req(v, key)? {
        Value::Null => Ok(f64::NAN),
        other => other
            .as_number()
            .and_then(|raw| raw.parse().ok())
            .ok_or_else(|| format!("field \"{key}\" is not a number")),
    }
}

fn bool_f(v: &Value, key: &str) -> Result<bool, String> {
    req(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field \"{key}\" is not a boolean"))
}

fn str_f<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    req(v, key)?
        .as_str()
        .ok_or_else(|| format!("field \"{key}\" is not a string"))
}

fn model_from(v: &Value) -> Result<ModelSpec, String> {
    Ok(match str_f(v, "kind")? {
        "small_cnn" => ModelSpec::SmallCnn { base_channels: usize_f(v, "base_channels")? },
        "mlp" => ModelSpec::Mlp { hidden: usize_f(v, "hidden")? },
        "lenet" => ModelSpec::LeNet { scale: f32_f(v, "scale")?, deep: bool_f(v, "deep")? },
        "mobilenet_v2" => ModelSpec::MobileNetV2 { width: f32_f(v, "width")? },
        "shufflenet_v2" => ModelSpec::ShuffleNetV2 { size: f32_f(v, "size")? },
        other => return Err(format!("unknown model kind \"{other}\"")),
    })
}

fn partition_from(v: &Value) -> Result<Partition, String> {
    Ok(match str_f(v, "kind")? {
        "iid" => Partition::Iid,
        "quantity_skew" => Partition::QuantitySkew {
            classes_per_device: usize_f(v, "classes_per_device")?,
        },
        "dirichlet" => Partition::Dirichlet { beta: f32_f(v, "beta")? },
        other => return Err(format!("unknown partition kind \"{other}\"")),
    })
}

fn fedzkt_cfg_from(v: &Value) -> Result<FedZktConfig, String> {
    let generator = req(v, "generator")?;
    let server_sps = match req(v, "server_samples_per_sec")? {
        Value::Null => f32::INFINITY, // the "free server" spelling
        _ => f32_f(v, "server_samples_per_sec")?,
    };
    Ok(FedZktConfig {
        local_epochs: usize_f(v, "local_epochs")?,
        distill_iters: usize_f(v, "distill_iters")?,
        transfer_iters: usize_f(v, "transfer_iters")?,
        device_batch: usize_f(v, "device_batch")?,
        distill_batch: usize_f(v, "distill_batch")?,
        device_lr: f32_f(v, "device_lr")?,
        device_momentum: f32_f(v, "device_momentum")?,
        server_lr: f32_f(v, "server_lr")?,
        transfer_lr: f32_f(v, "transfer_lr")?,
        generator_lr: f32_f(v, "generator_lr")?,
        loss: loss_from_slug(str_f(v, "loss")?)?,
        server_samples_per_sec: server_sps,
        prox_mu: f32_f(v, "prox_mu")?,
        generator: GeneratorSpec {
            z_dim: usize_f(generator, "z_dim")?,
            ngf: usize_f(generator, "ngf")?,
        },
        global_model: model_from(req(v, "global_model")?)?,
        probe_grad_norms: bool_f(v, "probe_grad_norms")?,
        fresh_generator_for_transfer: bool_f(v, "fresh_generator_for_transfer")?,
    })
}

fn fedavg_cfg_from(v: &Value) -> Result<FedAvgConfig, String> {
    Ok(FedAvgConfig {
        local_epochs: usize_f(v, "local_epochs")?,
        batch_size: usize_f(v, "batch_size")?,
        lr: f32_f(v, "lr")?,
        momentum: f32_f(v, "momentum")?,
        prox_mu: f32_f(v, "prox_mu")?,
    })
}

fn fedmd_cfg_from(v: &Value) -> Result<FedMdConfig, String> {
    Ok(FedMdConfig {
        public_warmup_epochs: usize_f(v, "public_warmup_epochs")?,
        private_warmup_epochs: usize_f(v, "private_warmup_epochs")?,
        alignment_size: usize_f(v, "alignment_size")?,
        digest_epochs: usize_f(v, "digest_epochs")?,
        revisit_epochs: usize_f(v, "revisit_epochs")?,
        batch_size: usize_f(v, "batch_size")?,
        lr: f32_f(v, "lr")?,
    })
}

fn fedet_cfg_from(v: &Value) -> Result<FedEtConfig, String> {
    Ok(FedEtConfig {
        local_epochs: usize_f(v, "local_epochs")?,
        batch_size: usize_f(v, "batch_size")?,
        lr: f32_f(v, "lr")?,
        transfer_size: usize_f(v, "transfer_size")?,
        distill_epochs: usize_f(v, "distill_epochs")?,
        transfer_epochs: usize_f(v, "transfer_epochs")?,
        server_lr: f32_f(v, "server_lr")?,
        diversity_lambda: f32_f(v, "diversity_lambda")?,
        server_model: model_from(req(v, "server_model")?)?,
    })
}

fn fedgkt_cfg_from(v: &Value) -> Result<FedGktConfig, String> {
    Ok(FedGktConfig {
        local_epochs: usize_f(v, "local_epochs")?,
        kd_epochs: usize_f(v, "kd_epochs")?,
        server_epochs: usize_f(v, "server_epochs")?,
        batch_size: usize_f(v, "batch_size")?,
        lr: f32_f(v, "lr")?,
        server_lr: f32_f(v, "server_lr")?,
        feature_dim: usize_f(v, "feature_dim")?,
        server_hidden: usize_f(v, "server_hidden")?,
    })
}

fn device_resources_from(v: &Value) -> Result<DeviceResources, String> {
    Ok(DeviceResources {
        compute_samples_per_sec: f32_f(v, "compute_samples_per_sec")?,
        uplink_bytes_per_sec: f32_f(v, "uplink_bytes_per_sec")?,
        downlink_bytes_per_sec: f32_f(v, "downlink_bytes_per_sec")?,
    })
}

/// `null` reads back as the unlimited-link spelling (`+∞`), inverting
/// [`link_j`].
fn link_f(v: &Value, key: &str) -> Result<f32, String> {
    match req(v, key)? {
        Value::Null => Ok(f32::INFINITY),
        _ => f32_f(v, key),
    }
}

fn bandwidth_from(v: &Value) -> Result<LinkBandwidth, String> {
    Ok(LinkBandwidth {
        up_bytes_per_sec: link_f(v, "up_bytes_per_sec")?,
        down_bytes_per_sec: link_f(v, "down_bytes_per_sec")?,
    })
}

fn resources_from(v: &Value) -> Result<ResourceSpec, String> {
    let assignment = req(v, "assignment")?;
    let assignment = match str_f(assignment, "kind")? {
        "smartphone" => ResourceAssignment::Smartphone,
        "microcontroller" => ResourceAssignment::Microcontroller,
        "heterogeneous" => ResourceAssignment::Heterogeneous { seed: u64_f(assignment, "seed")? },
        "explicit" => ResourceAssignment::Explicit(
            req(assignment, "devices")?
                .as_array()
                .ok_or_else(|| "\"devices\" is not an array".to_string())?
                .iter()
                .map(device_resources_from)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        other => return Err(format!("unknown resource assignment \"{other}\"")),
    };
    // Absent (a pre-codec-era file) reads like `null`: no override.
    let bandwidth = match v.get("bandwidth") {
        None | Some(Value::Null) => None,
        Some(other) => Some(bandwidth_from(other)?),
    };
    Ok(ResourceSpec { assignment, bandwidth, server_seconds: f64_f(v, "server_seconds")? })
}

fn churn_from(v: &Value) -> Result<ChurnSpec, String> {
    Ok(ChurnSpec {
        seed: u64_f(v, "seed")?,
        arrival_window: usize_f(v, "arrival_window")?,
        mean_lifetime: f32_f(v, "mean_lifetime")?,
        duty_period: usize_f(v, "duty_period")?,
        duty_on: usize_f(v, "duty_on")?,
        dropout: f32_f(v, "dropout")?,
        bandwidth_floor: f32_f(v, "bandwidth_floor")?,
    })
}

fn codec_from(v: &Value) -> Result<CodecSpec, String> {
    Ok(match str_f(v, "kind")? {
        "raw" => CodecSpec::Raw,
        "quant_q8" => CodecSpec::QuantQ8,
        "quant_q4" => CodecSpec::QuantQ4,
        "top_k" => CodecSpec::TopK { density: f32_f(v, "density")? },
        other => return Err(format!("unknown codec kind \"{other}\"")),
    })
}

fn algo_from(v: &Value) -> Result<Algo, String> {
    let config = req(v, "config")?;
    Ok(match str_f(v, "kind")? {
        "fedzkt" => Algo::FedZkt(fedzkt_cfg_from(config)?),
        "fedavg" => Algo::FedAvg(fedavg_cfg_from(config)?),
        "fedprox" => Algo::FedProx(fedavg_cfg_from(config)?),
        "fedmd" => Algo::FedMd {
            public: family_from_slug(str_f(v, "public")?)?,
            cfg: fedmd_cfg_from(config)?,
        },
        "fedet" => Algo::FedEt {
            public: family_from_slug(str_f(v, "public")?)?,
            cfg: fedet_cfg_from(config)?,
        },
        "fedgkt" => Algo::FedGkt(fedgkt_cfg_from(config)?),
        other => return Err(format!("unknown algorithm kind \"{other}\"")),
    })
}

fn scenario_from(v: &Value) -> Result<Scenario, String> {
    let data = req(v, "data")?;
    let sim = req(v, "sim")?;
    let zoo = req(v, "zoo")?
        .as_array()
        .ok_or_else(|| "\"zoo\" is not an array".to_string())?
        .iter()
        .map(|entry| {
            Ok::<_, String>((model_from(req(entry, "model")?)?, usize_f(entry, "count")?))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let resources = match req(v, "resources")? {
        Value::Null => None,
        other => Some(resources_from(other)?),
    };
    // Absent (a pre-churn-era file, or any static-fleet file — the
    // writer omits the field for `None`) means no fleet dynamics.
    let churn = match v.get("churn") {
        None | Some(Value::Null) => None,
        Some(other) => Some(churn_from(other)?),
    };
    // `sim.compute` used to select the numeric format of the inference
    // phases. Every run is f32 now, so a legacy `"f32"` means what it always
    // did; any other value must not be dropped like an unknown key, or the
    // file would silently run as something it did not ask for.
    if sim.get("compute").is_some() {
        let format = str_f(sim, "compute")?;
        if format != "f32" {
            return Err(format!(
                "sim.compute \"{format}\": that compute format was removed, every run is f32"
            ));
        }
    }
    Ok(Scenario {
        name: str_f(v, "name")?.to_string(),
        data: DataSpec {
            family: family_from_slug(str_f(data, "family")?)?,
            img: usize_f(data, "img")?,
            train_n: usize_f(data, "train_n")?,
            test_n: usize_f(data, "test_n")?,
            classes: usize_f(data, "classes")?,
            noise_std: f32_f(data, "noise_std")?,
        },
        partition: partition_from(req(v, "partition")?)?,
        zoo,
        // Absent (a pre-registry-era file) means the zoo expansion *is*
        // the population — no override.
        registered_devices: match v.get("registered_devices") {
            None => 0,
            Some(_) => usize_f(v, "registered_devices")?,
        },
        resources,
        churn,
        algorithm: algo_from(req(v, "algorithm")?)?,
        sim: SimConfig {
            rounds: usize_f(sim, "rounds")?,
            participation: f32_f(sim, "participation")?,
            eval_batch: usize_f(sim, "eval_batch")?,
            eval_every: usize_f(sim, "eval_every")?,
            seed: u64_f(sim, "seed")?,
            threads: usize_f(sim, "threads")?,
            // Absent (a pre-codec-era file) means raw — the wire format
            // those files were written against.
            codec: match sim.get("codec") {
                None => CodecSpec::Raw,
                Some(v) => codec_from(v)?,
            },
        },
    })
}

impl Scenario {
    /// Render the scenario in the canonical pretty JSON form (2-space
    /// indent, struct field order, shortest round-trip float formatting,
    /// trailing newline). [`Scenario::from_json`] recovers the value
    /// exactly, and re-serializing a parsed canonical document reproduces
    /// it byte for byte — the property the checked-in `scenarios/*.json`
    /// golden files are tested under.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("name", sj(&self.name)),
            (
                "data",
                J::Obj(vec![
                    ("family", sj(family_slug(self.data.family))),
                    ("img", us(self.data.img)),
                    ("train_n", us(self.data.train_n)),
                    ("test_n", us(self.data.test_n)),
                    ("classes", us(self.data.classes)),
                    ("noise_std", f32j(self.data.noise_std)),
                ]),
            ),
            ("partition", partition_j(&self.partition)),
            (
                "zoo",
                J::Arr(
                    self.zoo
                        .iter()
                        .map(|(model, count)| {
                            J::Obj(vec![("model", model_j(model)), ("count", us(*count))])
                        })
                        .collect(),
                ),
            ),
            ("registered_devices", us(self.registered_devices)),
            ("resources", self.resources.as_ref().map_or(J::Null, resources_j)),
        ];
        // Omitted (not `null`) for a static fleet: every pre-churn file
        // stays byte-identical under parse → to_json.
        if let Some(churn) = &self.churn {
            fields.push(("churn", churn_j(churn)));
        }
        fields.push(("algorithm", algo_j(&self.algorithm)));
        fields.push(("sim", sim_j(&self.sim)));
        let tree = J::Obj(fields);
        let mut out = String::new();
        pretty(&tree, 0, &mut out);
        out.push('\n');
        out
    }

    /// Parse a scenario from its JSON form.
    ///
    /// # Errors
    /// Returns [`ScenarioError::Parse`] when the input is not a scenario in
    /// the supported schema. The result is *not* validated — call
    /// [`Scenario::validate`] (or just run it) for semantic checks.
    pub fn from_json(input: &str) -> Result<Scenario, ScenarioError> {
        let value = json::parse(input).map_err(ScenarioError::Parse)?;
        scenario_from(&value).map_err(ScenarioError::Parse)
    }

    /// Read and parse a scenario file.
    ///
    /// # Errors
    /// [`ScenarioError::Io`] when the file cannot be read,
    /// [`ScenarioError::Parse`] when its contents are not a scenario.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let contents = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
        Scenario::from_json(&contents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn every_preset_roundtrips_exactly() {
        for preset in presets() {
            let scenario = preset.scenario();
            let json = scenario.to_json();
            let back = Scenario::from_json(&json)
                .unwrap_or_else(|e| panic!("{}: {e}\n{json}", preset.name));
            assert_eq!(scenario, back, "{}", preset.name);
            assert_eq!(json, back.to_json(), "{}: reserialization drifted", preset.name);
        }
    }

    #[test]
    fn non_canonical_whitespace_parses_to_the_same_value() {
        let scenario = presets()[0].scenario();
        let compact: String = scenario
            .to_json()
            .chars()
            .filter(|c| !c.is_ascii_whitespace() || *c == ' ')
            .collect();
        let back = Scenario::from_json(&compact).expect("compact form parses");
        assert_eq!(scenario, back);
    }

    #[test]
    fn infinite_server_throughput_roundtrips_via_null() {
        let mut scenario = presets()[0].scenario();
        scenario
            .fedzkt_cfg_mut()
            .expect("preset 0 runs fedzkt")
            .server_samples_per_sec = f32::INFINITY;
        let json = scenario.to_json();
        assert!(json.contains("\"server_samples_per_sec\": null"), "{json}");
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(scenario, back);
    }

    #[test]
    fn pre_codec_era_files_parse_with_defaults() {
        // A scenario file written before the wire-format layer has no
        // `sim.codec` and no `resources.bandwidth`; it must keep loading,
        // defaulting to the raw codec and no link override.
        let mut sc = crate::preset("straggler").expect("preset with resources");
        sc.sim.codec = fedzkt_fl::CodecSpec::Raw;
        sc.resources.as_mut().unwrap().bandwidth = None;
        let legacy = sc
            .to_json()
            .replace(",\n    \"codec\": {\n      \"kind\": \"raw\"\n    }", "")
            .replace("    \"bandwidth\": null,\n", "");
        assert!(!legacy.contains("codec") && !legacy.contains("bandwidth"), "{legacy}");
        let back = Scenario::from_json(&legacy).expect("legacy schema parses");
        assert_eq!(back, sc);
    }

    #[test]
    fn pre_registry_era_files_parse_with_defaults() {
        // A scenario file written before the device registry has no
        // `registered_devices`; it must keep loading, with the fleet sized
        // by the zoo.
        let sc = presets()[0].scenario();
        assert_eq!(sc.registered_devices, 0, "golden presets predate the override");
        let canonical = sc.to_json();
        let legacy = canonical.replace("  \"registered_devices\": 0,\n", "");
        assert!(!legacy.contains("registered_devices"), "{legacy}");
        let back = Scenario::from_json(&legacy).expect("legacy schema parses");
        assert_eq!(back, sc);

        // Files written while `sim.materialization` existed carry the key
        // with either value; both load, and re-serialize to the canonical
        // form without it.
        assert!(!canonical.contains("materialization"), "{canonical}");
        for mode in ["eager", "lazy"] {
            let legacy = canonical.replace(
                "    \"codec\":",
                &format!("    \"materialization\": \"{mode}\",\n    \"codec\":"),
            );
            assert!(legacy.contains("materialization"), "{legacy}");
            let back = Scenario::from_json(&legacy).expect("legacy schema parses");
            assert_eq!(back, sc);
            assert_eq!(back.to_json(), canonical);
        }
    }

    #[test]
    fn registered_devices_roundtrip() {
        let mut sc = presets()[0].scenario();
        sc.registered_devices = 1_000_000;
        let json = sc.to_json();
        assert!(json.contains("\"registered_devices\": 1000000"), "{json}");
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(sc, back);
        assert_eq!(back.devices(), 1_000_000);
    }

    #[test]
    fn removed_compute_key_loads_as_f32_and_rejects_other_formats() {
        // Files written while `sim.compute` existed: "f32" is what every
        // run does now, so it loads and re-serializes without the key…
        let sc = presets()[0].scenario();
        let canonical = sc.to_json();
        assert!(!canonical.contains("\"compute\""), "{canonical}");
        let with = |format: &str| {
            canonical
                .replace("    \"codec\":", &format!("    \"compute\": \"{format}\",\n    \"codec\":"))
        };
        let back = Scenario::from_json(&with("f32")).expect("legacy f32 file parses");
        assert_eq!(back, sc);
        assert_eq!(back.to_json(), canonical);
        // …while a removed format is an error naming it, never a silent
        // f32 run of a file that asked for something else.
        for removed in ["int8", "fp8"] {
            let err = Scenario::from_json(&with(removed)).unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Parse(msg) if msg.contains(removed)),
                "{removed}: {err:?}"
            );
        }
    }

    #[test]
    fn churn_is_omitted_for_static_fleets_and_roundtrips_when_set() {
        // A static fleet writes the pre-churn schema byte for byte…
        let sc = presets()[0].scenario();
        assert!(sc.churn.is_none());
        assert!(!sc.to_json().contains("churn"), "{}", sc.to_json());
        // …and an explicit `null` reads back as the same static fleet.
        let nulled = sc
            .to_json()
            .replace("  \"algorithm\": {", "  \"churn\": null,\n  \"algorithm\": {");
        assert_eq!(Scenario::from_json(&nulled).unwrap(), sc);
        // A dynamic fleet round-trips exactly through its churn block.
        let dynamic = crate::preset("churn-flash-crowd").expect("churn preset");
        let json = dynamic.to_json();
        assert!(json.contains("\"arrival_window\": 3"), "{json}");
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(dynamic, back);
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn invalid_churn_is_rejected_by_validate_not_parse() {
        let mut sc = crate::preset("churn-lossy").expect("churn preset");
        sc.churn.as_mut().unwrap().dropout = 1.5;
        let back = Scenario::from_json(&sc.to_json()).expect("parse is schema-only");
        let err = back.validate().expect_err("dropout 1.5 is invalid");
        assert!(err.to_string().contains("churn"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_scenarios() {
        assert!(Scenario::from_json("").is_err());
        assert!(Scenario::from_json("{}").is_err());
        assert!(Scenario::from_json("{\"name\": 3}").is_err());
        let valid = presets()[0].scenario().to_json();
        let broken = valid.replace("\"kind\": \"iid\"", "\"kind\": \"zipf\"");
        assert!(matches!(Scenario::from_json(&broken), Err(ScenarioError::Parse(_))));
        // Hostile nesting is an error, not a stack overflow.
        for open in ["[", "{\"a\":"] {
            let hostile = open.repeat(1_000_000);
            assert!(matches!(Scenario::from_json(&hostile), Err(ScenarioError::Parse(_))));
        }
    }
}
