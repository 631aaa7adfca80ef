//! Per-round metrics and run logs.

use crate::json::{self, FromJson, Value};
use std::fmt::Write;

/// Metrics recorded after one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMetrics {
    /// 1-based communication round.
    pub round: usize,
    /// Mean test accuracy over on-device models (the paper's "average
    /// accuracy").
    pub avg_device_accuracy: f32,
    /// Per-device test accuracies.
    pub device_accuracy: Vec<f32>,
    /// Global/server model test accuracy, when the algorithm has one.
    pub global_accuracy: Option<f32>,
    /// Mean last-epoch local training loss over active devices.
    pub train_loss: f32,
    /// Device→server traffic this round (bytes).
    pub upload_bytes: u64,
    /// Server→device traffic this round (bytes).
    pub download_bytes: u64,
    /// Simulated round duration (seconds), when a clock is attached.
    pub sim_seconds: f64,
    /// Devices that participated.
    pub active_devices: Vec<usize>,
    /// Registered fleet size (the registry population).
    pub registered_devices: usize,
    /// High-water mark, over the run so far, of simultaneously
    /// materialized devices, from the algorithm's
    /// [`DeviceRegistry`](crate::DeviceRegistry) counters (the fleet size
    /// when no registry is attached). It is always the in-round working
    /// set — the sampled set, FedZKT's teacher ensemble, or the whole
    /// fleet once a round has evaluated — never the registered count as
    /// such: logs written while fleets could also be held fully resident
    /// report the registered count here on every round.
    pub peak_resident_devices: usize,
    /// Devices available this round under the scenario's churn model
    /// (arrived, not departed, on-duty); the whole registered fleet when
    /// no churn model is attached.
    pub available_devices: usize,
    /// Sampled devices that dropped out mid-round: they were charged
    /// their download and partial compute time but contributed no update
    /// (and do not appear in `active_devices`).
    pub dropped_devices: usize,
}

impl RoundMetrics {
    /// An empty record for `round`.
    pub fn new(round: usize) -> Self {
        RoundMetrics {
            round,
            avg_device_accuracy: 0.0,
            device_accuracy: Vec::new(),
            global_accuracy: None,
            train_loss: 0.0,
            upload_bytes: 0,
            download_bytes: 0,
            sim_seconds: 0.0,
            active_devices: Vec::new(),
            registered_devices: 0,
            peak_resident_devices: 0,
            available_devices: 0,
            dropped_devices: 0,
        }
    }
}

/// Floats read `null` (the writer's spelling of a non-finite value) as NaN.
/// `global_accuracy` and the residency and churn count columns arrived
/// after the first logs were written; a log without them reads `None` and
/// 0 (`null` also reads `None` for the accuracy).
impl FromJson<'_> for RoundMetrics {
    fn from_json(r: &Value<'_>) -> Result<Self, String> {
        Ok(RoundMetrics {
            round: r.field("round")?,
            avg_device_accuracy: r.field("avg_device_accuracy")?,
            device_accuracy: r.field("device_accuracy")?,
            global_accuracy: r.field_or("global_accuracy", None)?,
            train_loss: r.field("train_loss")?,
            upload_bytes: r.field("upload_bytes")?,
            download_bytes: r.field("download_bytes")?,
            sim_seconds: r.field("sim_seconds")?,
            active_devices: r.field("active_devices")?,
            registered_devices: r.field_or("registered_devices", 0)?,
            peak_resident_devices: r.field_or("peak_resident_devices", 0)?,
            available_devices: r.field_or("available_devices", 0)?,
            dropped_devices: r.field_or("dropped_devices", 0)?,
        })
    }
}

/// The full trace of a federated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLog {
    /// One record per round, in order.
    pub rounds: Vec<RoundMetrics>,
}

/// Also the embedding simulation checkpoints read the log through.
impl FromJson<'_> for RunLog {
    fn from_json(value: &Value<'_>) -> Result<Self, String> {
        Ok(RunLog { rounds: value.field("rounds")? })
    }
}

impl RunLog {
    /// An empty log.
    pub fn new() -> Self {
        RunLog::default()
    }

    /// Append a round record.
    pub fn push(&mut self, metrics: RoundMetrics) {
        self.rounds.push(metrics);
    }

    /// Final average device accuracy (0 when empty).
    pub fn final_accuracy(&self) -> f32 {
        self.rounds.last().map(|r| r.avg_device_accuracy).unwrap_or(0.0)
    }

    /// Best average device accuracy across rounds.
    pub fn best_accuracy(&self) -> f32 {
        self.rounds.iter().map(|r| r.avg_device_accuracy).fold(0.0, f32::max)
    }

    /// Render as JSON (`{"rounds": [...]}`), one object per round with every
    /// [`RoundMetrics`] field. Finite floats are printed with Rust's
    /// shortest round-trip formatting, so [`RunLog::from_json`] recovers
    /// the log bit-for-bit. Non-finite values (a diverged run's NaN loss)
    /// have no JSON literal; they are emitted as `null` — still valid
    /// JSON — and parse back as NaN.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append [`RunLog::to_json`]'s document to `out`, every value written
    /// in place — the embedding simulation checkpoints use.
    pub(crate) fn write_json(&self, out: &mut String) {
        fn float<T: Copy + std::fmt::Display + Into<f64>>(out: &mut String, v: T) {
            if v.into().is_finite() {
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
        }
        fn list<T: Copy>(out: &mut String, items: &[T], mut write: impl FnMut(&mut String, T)) {
            out.push('[');
            for (i, &item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(out, item);
            }
            out.push(']');
        }
        // A fleet's accuracies repeat in long runs (every device that
        // holds the same model scores the same), so a value with the bits
        // of the one before it reuses that one's text.
        let (mut last_bits, mut last_text) = (None, String::new());
        let mut accuracy = |out: &mut String, v: f32| {
            if last_bits == Some(v.to_bits()) {
                out.push_str(&last_text);
            } else {
                let start = out.len();
                float(out, v);
                last_bits = Some(v.to_bits());
                last_text.clear();
                last_text.push_str(&out[start..]);
            }
        };
        out.push_str("{\"rounds\":[");
        for (i, r) in self.rounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"round\":{},\"avg_device_accuracy\":", r.round);
            float(out, r.avg_device_accuracy);
            out.push_str(",\"device_accuracy\":");
            list(out, &r.device_accuracy, &mut accuracy);
            out.push_str(",\"global_accuracy\":");
            match r.global_accuracy {
                Some(g) => float(out, g),
                None => out.push_str("null"),
            }
            out.push_str(",\"train_loss\":");
            float(out, r.train_loss);
            let _ = write!(
                out,
                ",\"upload_bytes\":{},\"download_bytes\":{},\"sim_seconds\":",
                r.upload_bytes, r.download_bytes
            );
            float(out, r.sim_seconds);
            out.push_str(",\"active_devices\":");
            list(out, &r.active_devices, |out, d| {
                let _ = write!(out, "{d}");
            });
            let _ = write!(
                out,
                ",\"registered_devices\":{},\"peak_resident_devices\":{},\
                 \"available_devices\":{},\"dropped_devices\":{}}}",
                r.registered_devices,
                r.peak_resident_devices,
                r.available_devices,
                r.dropped_devices,
            );
        }
        out.push_str("]}");
    }

    /// Parse a log emitted by [`RunLog::to_json`].
    ///
    /// # Errors
    /// Returns a message when the input is not the expected JSON shape.
    pub fn from_json(input: &str) -> Result<RunLog, String> {
        <RunLog as FromJson>::from_json(&json::parse(input)?)
    }

    /// Write the log as `<dir>/<name>.csv` and `<dir>/<name>.json`,
    /// creating `dir` if needed — the artifact pair every example and
    /// experiment binary emits. Each file is written to a `.part` sibling
    /// and renamed into place, so a reader never sees a torn artifact, and
    /// the JSON (the file that marks a `serve` cell done) lands last.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_artifacts(
        &self,
        dir: impl AsRef<std::path::Path>,
        name: &str,
    ) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for (ext, text) in [("csv", self.to_csv()), ("json", self.to_json())] {
            let path = dir.join(format!("{name}.{ext}"));
            let part = dir.join(format!("{name}.{ext}.part"));
            std::fs::write(&part, text)?;
            std::fs::rename(&part, path)?;
        }
        Ok(())
    }

    /// Render as CSV (header + one row per round).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "round,avg_device_accuracy,global_accuracy,train_loss,upload_bytes,download_bytes,sim_seconds,active_devices,registered_devices,peak_resident_devices,available_devices,dropped_devices\n",
        );
        for r in &self.rounds {
            out.push_str(&format!(
                "{},{:.4},{},{:.4},{},{},{:.2},{},{},{},{},{}\n",
                r.round,
                r.avg_device_accuracy,
                r.global_accuracy.map(|g| format!("{g:.4}")).unwrap_or_default(),
                r.train_loss,
                r.upload_bytes,
                r.download_bytes,
                r.sim_seconds,
                r.active_devices.len(),
                r.registered_devices,
                r.peak_resident_devices,
                r.available_devices,
                r.dropped_devices,
            ));
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn record(round: usize, acc: f32) -> RoundMetrics {
        RoundMetrics { avg_device_accuracy: acc, ..RoundMetrics::new(round) }
    }

    #[test]
    fn final_and_best_accuracy() {
        let mut log = RunLog::new();
        log.push(record(1, 0.5));
        log.push(record(2, 0.8));
        log.push(record(3, 0.7));
        assert_eq!(log.final_accuracy(), 0.7);
        assert_eq!(log.best_accuracy(), 0.8);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut log = RunLog::new();
        log.push(record(1, 0.25));
        let csv = log.to_csv();
        assert!(csv.starts_with("round,"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.lines().nth(1).unwrap().starts_with("1,0.2500"));
    }

    #[test]
    fn empty_log_defaults() {
        let log = RunLog::new();
        assert_eq!(log.final_accuracy(), 0.0);
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let mut log = RunLog::new();
        log.push(RoundMetrics {
            round: 1,
            avg_device_accuracy: 0.123_456_79,
            device_accuracy: vec![0.1, 0.2, 0.070_123_45],
            global_accuracy: Some(0.998),
            train_loss: 1.5e-3,
            upload_bytes: u64::MAX,
            download_bytes: 0,
            sim_seconds: 1_234.567_890_123,
            active_devices: vec![0, 2],
            registered_devices: 1_000_000,
            peak_resident_devices: 1_024,
            available_devices: 250_000,
            dropped_devices: 3,
        });
        log.push(RoundMetrics {
            global_accuracy: None,
            sim_seconds: 0.0,
            ..RoundMetrics::new(2)
        });
        let json = log.to_json();
        let back = RunLog::from_json(&json).expect("parse back");
        assert_eq!(log, back);
        // Bit-exactness beyond PartialEq (−0.0 vs 0.0, float precision).
        for (a, b) in log.rounds.iter().zip(&back.rounds) {
            assert_eq!(a.sim_seconds.to_bits(), b.sim_seconds.to_bits());
            assert_eq!(a.avg_device_accuracy.to_bits(), b.avg_device_accuracy.to_bits());
            for (x, y) in a.device_accuracy.iter().zip(&b.device_accuracy) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// The exact bytes, not just a parseable document: the round trip
    /// above would still pass if the writer changed float spelling,
    /// separators or key order. The expected text is the output of the
    /// writer that produced every committed RunLog.
    #[test]
    fn json_bytes_are_pinned() {
        let mut log = RunLog::new();
        assert_eq!(log.to_json(), "{\"rounds\":[]}");
        log.push(RoundMetrics {
            round: 1,
            avg_device_accuracy: 0.123_456_79,
            device_accuracy: vec![0.1, f32::NAN, f32::INFINITY, 0.070_123_45, -0.0, 1.0, 3.0e-9],
            global_accuracy: Some(0.998),
            train_loss: f32::NEG_INFINITY,
            upload_bytes: u64::MAX,
            download_bytes: 0,
            sim_seconds: 1_234.567_890_123,
            active_devices: vec![0, 2, 999_999],
            registered_devices: 1_000_000,
            peak_resident_devices: 1_024,
            available_devices: 250_000,
            dropped_devices: 3,
        });
        log.push(RoundMetrics {
            avg_device_accuracy: f32::NAN,
            train_loss: 2.5,
            upload_bytes: 17,
            download_bytes: u64::MAX,
            sim_seconds: 1e-7,
            ..RoundMetrics::new(2)
        });
        log.push(RoundMetrics {
            avg_device_accuracy: 0.5,
            device_accuracy: vec![0.25],
            global_accuracy: Some(f32::NAN),
            sim_seconds: f64::INFINITY,
            active_devices: vec![4],
            ..RoundMetrics::new(3)
        });
        log.push(RoundMetrics { sim_seconds: 1.5e21, ..RoundMetrics::new(4) });
        let expected = concat!(
            "{\"rounds\":[",
            "{\"round\":1,\"avg_device_accuracy\":0.12345679,",
            "\"device_accuracy\":[0.1,null,null,0.07012345,-0,1,0.000000003],",
            "\"global_accuracy\":0.998,\"train_loss\":null,",
            "\"upload_bytes\":18446744073709551615,\"download_bytes\":0,",
            "\"sim_seconds\":1234.567890123,\"active_devices\":[0,2,999999],",
            "\"registered_devices\":1000000,\"peak_resident_devices\":1024,",
            "\"available_devices\":250000,\"dropped_devices\":3},",
            "{\"round\":2,\"avg_device_accuracy\":null,\"device_accuracy\":[],",
            "\"global_accuracy\":null,\"train_loss\":2.5,\"upload_bytes\":17,",
            "\"download_bytes\":18446744073709551615,\"sim_seconds\":0.0000001,",
            "\"active_devices\":[],\"registered_devices\":0,\"peak_resident_devices\":0,",
            "\"available_devices\":0,\"dropped_devices\":0},",
            "{\"round\":3,\"avg_device_accuracy\":0.5,\"device_accuracy\":[0.25],",
            "\"global_accuracy\":null,\"train_loss\":0,\"upload_bytes\":0,",
            "\"download_bytes\":0,\"sim_seconds\":null,\"active_devices\":[4],",
            "\"registered_devices\":0,\"peak_resident_devices\":0,",
            "\"available_devices\":0,\"dropped_devices\":0},",
            "{\"round\":4,\"avg_device_accuracy\":0,\"device_accuracy\":[],",
            "\"global_accuracy\":null,\"train_loss\":0,\"upload_bytes\":0,",
            "\"download_bytes\":0,\"sim_seconds\":1500000000000000000000,",
            "\"active_devices\":[],\"registered_devices\":0,\"peak_resident_devices\":0,",
            "\"available_devices\":0,\"dropped_devices\":0}",
            "]}",
        );
        assert_eq!(log.to_json(), expected);
    }

    /// Accuracy lists that stress the writer's reuse of repeated text:
    /// long equal runs, values equal as floats but not as bits, NaN runs
    /// with two payloads, and subnormals.
    pub(crate) fn repetitive_accuracies() -> Vec<Vec<f32>> {
        let subnormal = f32::from_bits(1);
        let other_nan = f32::from_bits(f32::NAN.to_bits() | 1);
        vec![
            vec![0.123_456_79; 10_000],
            (0..1_000).map(|i| if i % 2 == 0 { 0.0 } else { -0.0 }).collect(),
            [[f32::NAN; 3], [other_nan; 3], [f32::INFINITY; 3], [f32::NAN; 3]].concat(),
            [vec![subnormal; 5], vec![f32::MIN_POSITIVE / 3.0; 4], vec![subnormal; 2]].concat(),
            vec![0.5, 0.5, 0.25, 0.5, 0.5],
        ]
    }

    #[test]
    fn repeated_accuracies_keep_per_value_bytes() {
        let per_value = |values: &[f32]| {
            let text: Vec<String> = values
                .iter()
                .map(|v| if v.is_finite() { format!("{v}") } else { "null".into() })
                .collect();
            format!(
                "{{\"round\":1,\"avg_device_accuracy\":0,\"device_accuracy\":[{}],\
                 \"global_accuracy\":null,\"train_loss\":0,\"upload_bytes\":0,\
                 \"download_bytes\":0,\"sim_seconds\":0,\"active_devices\":[],\
                 \"registered_devices\":0,\"peak_resident_devices\":0,\
                 \"available_devices\":0,\"dropped_devices\":0}}",
                text.join(",")
            )
        };
        let lists = repetitive_accuracies();
        let mut log = RunLog::new();
        for values in &lists {
            let round = RoundMetrics { device_accuracy: values.clone(), ..RoundMetrics::new(1) };
            let alone = RunLog { rounds: vec![round.clone()] };
            assert_eq!(alone.to_json(), format!("{{\"rounds\":[{}]}}", per_value(values)));
            log.push(round);
        }
        // The kept text carries across rounds, and the reverse order too:
        // each round's bytes are still its values' own.
        log.rounds.extend(log.rounds.clone().into_iter().rev());
        let rounds: Vec<String> =
            log.rounds.iter().map(|r| per_value(&r.device_accuracy)).collect();
        let json = log.to_json();
        assert_eq!(json, format!("{{\"rounds\":[{}]}}", rounds.join(",")));
        let back = RunLog::from_json(&json).expect("parse back");
        for (a, b) in log.rounds.iter().zip(&back.rounds) {
            assert_eq!(a.device_accuracy.len(), b.device_accuracy.len());
            for (x, y) in a.device_accuracy.iter().zip(&b.device_accuracy) {
                if x.is_finite() {
                    assert_eq!(x.to_bits(), y.to_bits());
                } else {
                    assert!(y.is_nan(), "non-finite {x} reads back as NaN, got {y}");
                }
            }
        }
    }

    #[test]
    fn json_has_expected_shape() {
        let mut log = RunLog::new();
        log.push(record(1, 0.25));
        let json = log.to_json();
        assert!(json.starts_with("{\"rounds\":[{"));
        assert!(json.contains("\"avg_device_accuracy\":0.25"));
        assert!(json.contains("\"global_accuracy\":null"));
        assert!(RunLog::from_json(&json).is_ok());
    }

    #[test]
    fn non_finite_metrics_stay_valid_json() {
        // A diverged run: NaN loss must not break the artifact format.
        let mut log = RunLog::new();
        log.push(RoundMetrics {
            train_loss: f32::NAN,
            avg_device_accuracy: f32::INFINITY,
            device_accuracy: vec![0.5, f32::NAN],
            ..RoundMetrics::new(1)
        });
        let json = log.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        let back = RunLog::from_json(&json).expect("null-encoded non-finites parse");
        assert!(back.rounds[0].train_loss.is_nan());
        assert!(back.rounds[0].avg_device_accuracy.is_nan(), "inf flattens to NaN");
        assert_eq!(back.rounds[0].device_accuracy[0], 0.5);
        assert!(back.rounds[0].device_accuracy[1].is_nan());
    }

    #[test]
    fn pre_registry_logs_parse_with_zero_residency_columns() {
        // A round object written before the residency columns existed.
        let old = "{\"rounds\":[{\"round\":1,\"avg_device_accuracy\":0.5,\
                   \"device_accuracy\":[0.5],\"global_accuracy\":null,\
                   \"train_loss\":0.1,\"upload_bytes\":10,\"download_bytes\":20,\
                   \"sim_seconds\":0,\"active_devices\":[0]}]}";
        let log = RunLog::from_json(old).expect("pre-registry log parses");
        assert_eq!(log.rounds[0].registered_devices, 0);
        assert_eq!(log.rounds[0].peak_resident_devices, 0);
        // The churn columns are newer still; they default the same way.
        assert_eq!(log.rounds[0].available_devices, 0);
        assert_eq!(log.rounds[0].dropped_devices, 0);
    }

    #[test]
    fn csv_includes_residency_columns() {
        let mut log = RunLog::new();
        log.push(RoundMetrics {
            registered_devices: 100,
            peak_resident_devices: 7,
            available_devices: 61,
            dropped_devices: 2,
            ..record(1, 0.25)
        });
        let csv = log.to_csv();
        assert!(csv.starts_with("round,"));
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("registered_devices,peak_resident_devices,available_devices,dropped_devices"));
        assert!(csv.lines().nth(1).unwrap().ends_with(",100,7,61,2"));
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(RunLog::from_json("").is_err());
        assert!(RunLog::from_json("{}").is_err());
        assert!(RunLog::from_json("{\"rounds\":[{\"round\":1}]}").is_err());
        assert!(RunLog::from_json("{\"rounds\":[]} trailing").is_err());
        // Hostile nesting is an error, not a stack overflow.
        for open in ["[", "{\"a\":"] {
            assert!(RunLog::from_json(&open.repeat(1_000_000)).is_err());
        }
        let empty = RunLog::from_json("{\"rounds\":[]}").expect("empty log");
        assert_eq!(empty, RunLog::new());
    }
}
