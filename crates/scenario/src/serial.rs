//! Canonical JSON serialization for [`Scenario`].
//!
//! The wire format is owned here. Each type's JSON form is declared once,
//! as a `Schema` impl generated from a table — `record!` for a struct,
//! `tagged!` for an enum whose JSON carries a `"kind"` tag, `slugs!` for a
//! field-less enum — and that one declaration yields both the writer and
//! the reader. Only the irregular shapes ([`Algo`], [`ResourceAssignment`],
//! [`ResourceSpec`], [`SimConfig`], [`Scenario`] and the `{model, count}`
//! zoo entry) are written by hand.
//!
//! The writer builds a `J` tree and prints one canonical pretty form
//! (2-space indent, table field order, Rust's shortest round-trip float
//! formatting); the reader goes through the workspace JSON parser's typed
//! field readers ([`fedzkt_fl::json`]). Canonical output is what makes the
//! checked-in preset files *golden*: `parse → to_json` reproduces them
//! byte for byte.

use crate::{
    Algo, DataSpec, LinkBandwidth, ResourceAssignment, ResourceSpec, Scenario, ScenarioError,
};
use fedzkt_core::{DistillLoss, FedMdConfig, FedZktConfig};
use fedzkt_data::{DataFamily, Partition};
use fedzkt_fl::json::{self, FromJson, Value};
use fedzkt_fl::{
    ChurnSpec, CodecSpec, DeviceResources, FedAvgConfig, FedEtConfig, FedGktConfig, SimConfig,
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

/// One type's JSON form: both directions, declared together.
trait Schema: Sized {
    fn write(&self) -> J;
    fn read(v: &Value) -> Result<Self, String>;
}

/// Lets a [`Schema`] type go through the `json` field readers.
struct Read<T>(T);

impl<T: Schema> FromJson<'_> for Read<T> {
    fn from_json(v: &Value<'_>) -> Result<Self, String> {
        T::read(v).map(Read)
    }
}

/// The required field `key` of `v`.
fn field<T: Schema>(v: &Value, key: &str) -> Result<T, String> {
    v.field::<Read<T>>(key).map(|Read(t)| t)
}

macro_rules! primitive {
    ($($t:ty => |$v:ident| $write:expr;)*) => {$(
        impl Schema for $t {
            fn write(&self) -> J {
                let $v = *self;
                $write
            }
            fn read(v: &Value) -> Result<Self, String> {
                <$t>::from_json(v)
            }
        }
    )*};
}

// A non-finite float has no JSON literal: it writes `null`, which reads
// back as NaN; [`Scenario::validate`] rejects it wherever NaN is not
// meaningful.
primitive! {
    usize => |v| J::Num(v.to_string());
    u64 => |v| J::Num(v.to_string());
    bool => |v| J::Bool(v);
    f32 => |v| if v.is_finite() { J::Num(format!("{v}")) } else { J::Null };
    f64 => |v| if v.is_finite() { J::Num(format!("{v}")) } else { J::Null };
}

impl<T: Schema> Schema for Option<T> {
    fn write(&self) -> J {
        self.as_ref().map_or(J::Null, T::write)
    }
    fn read(v: &Value) -> Result<Self, String> {
        Ok(Option::<Read<T>>::from_json(v)?.map(|Read(t)| t))
    }
}

impl<T: Schema> Schema for Vec<T> {
    fn write(&self) -> J {
        J::Arr(self.iter().map(T::write).collect())
    }
    fn read(v: &Value) -> Result<Self, String> {
        Ok(Vec::<Read<T>>::from_json(v)?.into_iter().map(|Read(t)| t).collect())
    }
}

/// An `f32` whose `null` spells +∞: a free server, an unlimited link. The
/// other non-finite values write `-1`, so they read back as a *rejected*
/// value rather than borrowing the unlimited spelling.
struct Unlimited(f32);

impl Schema for Unlimited {
    fn write(&self) -> J {
        if self.0 == f32::INFINITY {
            J::Null
        } else if self.0.is_finite() {
            self.0.write()
        } else {
            J::Num("-1".into())
        }
    }
    fn read(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(Unlimited(f32::INFINITY)),
            v => f32::read(v).map(Unlimited),
        }
    }
}

/// Structs: one JSON key per field, in table order. `field as Wrapper`
/// routes one field through a newtype's form.
macro_rules! record {
    ($($ty:ident { $($f:ident $(as $wrap:ident)?),* $(,)? })*) => {$(
        impl Schema for $ty {
            fn write(&self) -> J {
                J::Obj(vec![$((stringify!($f), record!(@write self.$f $(, $wrap)?))),*])
            }
            fn read(v: &Value) -> Result<Self, String> {
                Ok($ty { $($f: record!(@read v, $f $(, $wrap)?)),* })
            }
        }
    )*};
    (@write $e:expr) => { $e.write() };
    (@write $e:expr, $wrap:ident) => { $wrap($e).write() };
    (@read $v:ident, $f:ident) => { field($v, stringify!($f))? };
    (@read $v:ident, $f:ident, $wrap:ident) => { field::<$wrap>($v, stringify!($f))?.0 };
}

/// Enums with data: `{"kind": tag, field…}`.
macro_rules! tagged {
    ($($ty:ident $what:literal { $($tag:literal => $variant:ident { $($f:ident),* }),* $(,)? })*) => {$(
        impl Schema for $ty {
            fn write(&self) -> J {
                match self {
                    $($ty::$variant { $($f),* } => {
                        J::Obj(vec![kind($tag), $((stringify!($f), $f.write())),*])
                    })*
                }
            }
            fn read(v: &Value) -> Result<Self, String> {
                Ok(match v.field::<&str>("kind")? {
                    $($tag => $ty::$variant { $($f: field(v, stringify!($f))?),* },)*
                    other => return Err(format!("unknown {} kind \"{other}\"", $what)),
                })
            }
        }
    )*};
}

/// Field-less enums: one string per variant.
macro_rules! slugs {
    ($($ty:ident $what:literal { $($variant:ident => $slug:literal),* $(,)? })*) => {$(
        impl Schema for $ty {
            fn write(&self) -> J {
                J::Str(match self { $($ty::$variant => $slug),* }.into())
            }
            fn read(v: &Value) -> Result<Self, String> {
                Ok(match <&str>::from_json(v)? {
                    $($slug => $ty::$variant,)*
                    other => return Err(format!("unknown {} \"{other}\"", $what)),
                })
            }
        }
    )*};
}

slugs! {
    DataFamily "data family" {
        MnistLike => "mnist",
        KmnistLike => "kmnist",
        FashionLike => "fashion",
        Cifar10Like => "cifar10",
        Cifar100Like => "cifar100",
        SvhnLike => "svhn",
    }
    DistillLoss "distill loss" { Kl => "kl", LogitL1 => "logit_l1", Sl => "sl" }
}

tagged! {
    ModelSpec "model" {
        "small_cnn" => SmallCnn { base_channels },
        "mlp" => Mlp { hidden },
        "lenet" => LeNet { scale, deep },
        "mobilenet_v2" => MobileNetV2 { width },
        "shufflenet_v2" => ShuffleNetV2 { size },
    }
    Partition "partition" {
        "iid" => Iid {},
        "quantity_skew" => QuantitySkew { classes_per_device },
        "dirichlet" => Dirichlet { beta },
    }
    CodecSpec "codec" {
        "raw" => Raw {},
        "quant_q8" => QuantQ8 {},
        "quant_q4" => QuantQ4 {},
        "top_k" => TopK { density },
    }
}

record! {
    DataSpec { family, img, train_n, test_n, classes, noise_std }
    GeneratorSpec { z_dim, ngf }
    FedZktConfig {
        local_epochs, distill_iters, transfer_iters, device_batch, distill_batch, device_lr,
        device_momentum, server_lr, transfer_lr, generator_lr, loss,
        server_samples_per_sec as Unlimited,
        prox_mu, generator, global_model, probe_grad_norms, fresh_generator_for_transfer,
    }
    FedAvgConfig { local_epochs, batch_size, lr, momentum, prox_mu }
    FedMdConfig {
        public_warmup_epochs, private_warmup_epochs, alignment_size, digest_epochs,
        revisit_epochs, batch_size, lr,
    }
    FedEtConfig {
        local_epochs, batch_size, lr, transfer_size, distill_epochs, transfer_epochs, server_lr,
        diversity_lambda, server_model,
    }
    FedGktConfig {
        local_epochs, kd_epochs, server_epochs, batch_size, lr, server_lr, feature_dim,
        server_hidden,
    }
    DeviceResources { compute_samples_per_sec, uplink_bytes_per_sec, downlink_bytes_per_sec }
    LinkBandwidth { up_bytes_per_sec as Unlimited, down_bytes_per_sec as Unlimited }
    ChurnSpec {
        seed, arrival_window, mean_lifetime, duty_period, duty_on, dropout, bandwidth_floor,
    }
}

fn kind(tag: &str) -> (&'static str, J) {
    ("kind", J::Str(tag.into()))
}

/// A tuple variant: its list sits under `"devices"`.
impl Schema for ResourceAssignment {
    fn write(&self) -> J {
        J::Obj(match self {
            ResourceAssignment::Smartphone => vec![kind("smartphone")],
            ResourceAssignment::Microcontroller => vec![kind("microcontroller")],
            ResourceAssignment::Heterogeneous { seed } => {
                vec![kind("heterogeneous"), ("seed", seed.write())]
            }
            ResourceAssignment::Explicit(list) => vec![kind("explicit"), ("devices", list.write())],
        })
    }
    fn read(v: &Value) -> Result<Self, String> {
        Ok(match v.field::<&str>("kind")? {
            "smartphone" => ResourceAssignment::Smartphone,
            "microcontroller" => ResourceAssignment::Microcontroller,
            "heterogeneous" => ResourceAssignment::Heterogeneous { seed: field(v, "seed")? },
            "explicit" => ResourceAssignment::Explicit(field(v, "devices")?),
            other => return Err(format!("unknown resource assignment \"{other}\"")),
        })
    }
}

/// `bandwidth` may be absent (a pre-codec-era file): it reads like `null`,
/// no override.
impl Schema for ResourceSpec {
    fn write(&self) -> J {
        J::Obj(vec![
            ("assignment", self.assignment.write()),
            ("bandwidth", self.bandwidth.write()),
            ("server_seconds", self.server_seconds.write()),
        ])
    }
    fn read(v: &Value) -> Result<Self, String> {
        Ok(ResourceSpec {
            assignment: field(v, "assignment")?,
            bandwidth: v.field_or("bandwidth", Read(None))?.0,
            server_seconds: field(v, "server_seconds")?,
        })
    }
}

/// `{"kind": name, ["public": family,] "config": {…}}`: the variants share
/// the tag, and FedAvg and FedProx share a config type.
impl Schema for Algo {
    fn write(&self) -> J {
        let (public, config) = match self {
            Algo::FedZkt(cfg) => (None, cfg.write()),
            Algo::FedAvg(cfg) | Algo::FedProx(cfg) => (None, cfg.write()),
            Algo::FedMd { public, cfg } => (Some(public), cfg.write()),
            Algo::FedEt { public, cfg } => (Some(public), cfg.write()),
            Algo::FedGkt(cfg) => (None, cfg.write()),
        };
        let mut fields = vec![kind(self.name())];
        fields.extend(public.map(|p| ("public", p.write())));
        fields.push(("config", config));
        J::Obj(fields)
    }
    fn read(v: &Value) -> Result<Self, String> {
        Ok(match v.field::<&str>("kind")? {
            "fedzkt" => Algo::FedZkt(field(v, "config")?),
            "fedavg" => Algo::FedAvg(field(v, "config")?),
            "fedprox" => Algo::FedProx(field(v, "config")?),
            "fedmd" => Algo::FedMd { public: field(v, "public")?, cfg: field(v, "config")? },
            "fedet" => Algo::FedEt { public: field(v, "public")?, cfg: field(v, "config")? },
            "fedgkt" => Algo::FedGkt(field(v, "config")?),
            other => return Err(format!("unknown algorithm kind \"{other}\"")),
        })
    }
}

/// `codec` may be absent (a pre-codec-era file): it reads as raw, the wire
/// format those files were written against. The removed `compute` key is
/// never written; a legacy `"f32"` means what it always did, and any other
/// value must not be dropped like an unknown key, or the file would
/// silently run as something it did not ask for.
impl Schema for SimConfig {
    fn write(&self) -> J {
        J::Obj(vec![
            ("rounds", self.rounds.write()),
            ("participation", self.participation.write()),
            ("eval_batch", self.eval_batch.write()),
            ("eval_every", self.eval_every.write()),
            ("seed", self.seed.write()),
            ("threads", self.threads.write()),
            ("codec", self.codec.write()),
        ])
    }
    fn read(v: &Value) -> Result<Self, String> {
        if v.get("compute").is_some() {
            let format: &str = v.field("compute")?;
            if format != "f32" {
                return Err(format!(
                    "sim.compute \"{format}\": that compute format was removed, every run is f32"
                ));
            }
        }
        Ok(SimConfig {
            rounds: field(v, "rounds")?,
            participation: field(v, "participation")?,
            eval_batch: field(v, "eval_batch")?,
            eval_every: field(v, "eval_every")?,
            seed: field(v, "seed")?,
            threads: field(v, "threads")?,
            codec: v.field_or("codec", Read(CodecSpec::Raw))?.0,
        })
    }
}

/// A zoo entry, `{"model": {…}, "count": n}`.
impl Schema for (ModelSpec, usize) {
    fn write(&self) -> J {
        J::Obj(vec![("model", self.0.write()), ("count", self.1.write())])
    }
    fn read(v: &Value) -> Result<Self, String> {
        Ok((field(v, "model")?, field(v, "count")?))
    }
}

/// `registered_devices` may be absent (a pre-registry-era file): the zoo
/// expansion *is* the population. `churn` is omitted, not `null`, for a
/// static fleet, so every pre-churn file stays byte-identical under
/// parse → to_json; absent or `null`, it reads as no fleet dynamics.
impl Schema for Scenario {
    fn write(&self) -> J {
        let mut fields = vec![
            ("name", J::Str(self.name.clone())),
            ("data", self.data.write()),
            ("partition", self.partition.write()),
            ("zoo", self.zoo.write()),
            ("registered_devices", self.registered_devices.write()),
            ("resources", self.resources.write()),
        ];
        fields.extend(self.churn.as_ref().map(|churn| ("churn", churn.write())));
        fields.push(("algorithm", self.algorithm.write()));
        fields.push(("sim", self.sim.write()));
        J::Obj(fields)
    }
    fn read(v: &Value) -> Result<Self, String> {
        Ok(Scenario {
            name: v.field("name")?,
            data: field(v, "data")?,
            partition: field(v, "partition")?,
            zoo: field(v, "zoo")?,
            registered_devices: v.field_or("registered_devices", 0)?,
            resources: field(v, "resources")?,
            churn: v.field_or("churn", Read(None))?.0,
            algorithm: field(v, "algorithm")?,
            sim: field(v, "sim")?,
        })
    }
}

impl Scenario {
    /// Render the scenario in the canonical pretty JSON form (2-space
    /// indent, struct field order, shortest round-trip float formatting,
    /// trailing newline). [`Scenario::from_json`] recovers the value
    /// exactly, and re-serializing a parsed canonical document reproduces
    /// it byte for byte — the property the checked-in `scenarios/*.json`
    /// golden files are tested under.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        pretty(&self.write(), 0, &mut out);
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
        Scenario::read(&value).map_err(ScenarioError::Parse)
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
