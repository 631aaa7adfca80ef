//! Per-round metrics and run logs.

use crate::json::{self, FromJson, Value};
use std::fmt::{self, Write};
use std::ops::Index;

/// One evaluation's per-device test accuracies, in device order.
///
/// Devices that hold the same model score the same bits, as every device
/// does under FedAvg/FedProx; such a row is stored as one value and a
/// device count, so carrying it into every later round and every
/// checkpoint costs O(1) however large the fleet. Any other row is stored
/// per device. The one constructor ([`FromIterator`], which
/// `From<Vec<f32>>` and the JSON reader go through) keeps the choice
/// canonical: a non-empty row whose values all share their bits is always
/// the compact one. The choice is invisible outside this type: equality
/// is element-wise (so NaN ≠ NaN, as for `Vec<f32>`), `Debug` prints the
/// list, and the JSON writer spells out every element.
#[derive(Clone, Default)]
pub struct AccuracyRow(Row);

#[derive(Clone)]
enum Row {
    /// `len ≥ 1` devices, each scoring `value`'s bits.
    Uniform { value: f32, len: usize },
    /// Any other row, the empty one included.
    PerDevice(Vec<f32>),
}

impl Default for Row {
    fn default() -> Self {
        Row::PerDevice(Vec::new())
    }
}

impl AccuracyRow {
    /// Number of devices in the row.
    pub fn len(&self) -> usize {
        match &self.0 {
            Row::Uniform { len, .. } => *len,
            Row::PerDevice(values) => values.len(),
        }
    }

    /// Is the row empty (a round before the first evaluation)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The accuracies in device order.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        let (uniform, per_device) = match &self.0 {
            Row::Uniform { value, len } => (std::iter::repeat_n(*value, *len), &[][..]),
            Row::PerDevice(values) => (std::iter::repeat_n(0.0, 0), &values[..]),
        };
        uniform.chain(per_device.iter().copied())
    }

    /// The one value every device scored, when the row is stored as one.
    pub fn uniform(&self) -> Option<f32> {
        match self.0 {
            Row::Uniform { value, .. } => Some(value),
            Row::PerDevice(_) => None,
        }
    }
}

/// The canonical constructor: a non-empty run of values with one bit
/// pattern is counted, not stored.
impl FromIterator<f32> for AccuracyRow {
    fn from_iter<I: IntoIterator<Item = f32>>(values: I) -> Self {
        let mut values = values.into_iter();
        let Some(value) = values.next() else {
            return AccuracyRow::default();
        };
        let mut len = 1;
        while let Some(next) = values.next() {
            if next.to_bits() != value.to_bits() {
                let mut row = Vec::with_capacity(len + 1 + values.size_hint().0);
                row.resize(len, value);
                row.push(next);
                row.extend(values);
                return AccuracyRow(Row::PerDevice(row));
            }
            len += 1;
        }
        AccuracyRow(Row::Uniform { value, len })
    }
}

impl From<Vec<f32>> for AccuracyRow {
    fn from(values: Vec<f32>) -> Self {
        values.into_iter().collect()
    }
}

impl Index<usize> for AccuracyRow {
    type Output = f32;

    fn index(&self, device: usize) -> &f32 {
        match &self.0 {
            Row::Uniform { value, len } => {
                assert!(device < *len, "device {device} out of range for a row of {len}");
                value
            }
            Row::PerDevice(values) => &values[device],
        }
    }
}

impl PartialEq for AccuracyRow {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl fmt::Debug for AccuracyRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A JSON array of floats (`null` reads as NaN), in canonical form.
impl FromJson<'_> for AccuracyRow {
    fn from_json(value: &Value<'_>) -> Result<Self, String> {
        let items = value.as_array().ok_or("not an array")?;
        items.iter().map(f32::from_json).collect()
    }
}

/// Metrics recorded after one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMetrics {
    /// 1-based communication round.
    pub round: usize,
    /// Mean test accuracy over on-device models (the paper's "average
    /// accuracy").
    pub avg_device_accuracy: f32,
    /// Per-device test accuracies from the latest evaluation, carried
    /// forward over rounds the cadence skips (empty before the first). A
    /// fleet that scores alike is stored as one value ([`AccuracyRow`]).
    pub device_accuracy: AccuracyRow,
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
            device_accuracy: AccuracyRow::default(),
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
        fn list<T>(
            out: &mut String,
            items: impl IntoIterator<Item = T>,
            mut write: impl FnMut(&mut String, T),
        ) {
            out.push('[');
            for (i, item) in items.into_iter().enumerate() {
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
            list(out, r.device_accuracy.iter(), &mut accuracy);
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
            list(out, r.active_devices.iter(), |out, d| {
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
    use crate::SimCheckpoint;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The writer every committed RunLog came from, kept as the byte
    /// oracle for [`AccuracyRow`]: each row is spelled from a `Vec<f32>`.
    pub(crate) fn vec_row_json(log: &RunLog) -> String {
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
        let mut out = String::new();
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
        for (i, r) in log.rounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"round\":{},\"avg_device_accuracy\":", r.round);
            float(&mut out, r.avg_device_accuracy);
            out.push_str(",\"device_accuracy\":");
            let row: Vec<f32> = r.device_accuracy.iter().collect();
            list(&mut out, &row, &mut accuracy);
            out.push_str(",\"global_accuracy\":");
            match r.global_accuracy {
                Some(g) => float(&mut out, g),
                None => out.push_str("null"),
            }
            out.push_str(",\"train_loss\":");
            float(&mut out, r.train_loss);
            let _ = write!(
                out,
                ",\"upload_bytes\":{},\"download_bytes\":{},\"sim_seconds\":",
                r.upload_bytes, r.download_bytes
            );
            float(&mut out, r.sim_seconds);
            out.push_str(",\"active_devices\":");
            list(&mut out, &r.active_devices, |out, d| {
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
        out
    }

    /// Values a row is drawn from: both zeros, two NaN payloads, both
    /// infinities, subnormals and ordinary accuracies.
    const PALETTE: [f32; 10] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::from_bits(0x7fc0_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        f32::MIN_POSITIVE / 3.0,
        0.5,
        0.123_456_79,
    ];

    /// A row of one of five shapes: empty, single, all-equal,
    /// all-equal-but-one, or mixed.
    fn shaped_row((shape, len, a, b, pick): (usize, usize, usize, usize, Vec<usize>)) -> Vec<f32> {
        let (a, b) = (PALETTE[a], PALETTE[b]);
        match shape {
            0 => Vec::new(),
            1 => vec![a],
            2 => vec![a; len],
            3 => {
                let mut row = vec![a; len];
                row[pick[0] % len] = b;
                row
            }
            _ => pick.iter().map(|&i| PALETTE[i % PALETTE.len()]).collect(),
        }
    }

    /// Is `row` one bit pattern repeated (the compact form's condition)?
    fn one_pattern(row: &[f32]) -> bool {
        row.first().is_some_and(|v| row.iter().all(|x| x.to_bits() == v.to_bits()))
    }

    #[test]
    fn rows_are_canonical_and_compare_element_wise() {
        for row in [vec![0.5; 4], vec![f32::NAN], vec![-0.0; 2]] {
            let compact = AccuracyRow::from(row.clone());
            assert_eq!(compact.uniform().map(f32::to_bits), Some(row[0].to_bits()));
        }
        let other_nan = f32::from_bits(0x7fc0_0001);
        for row in [vec![], vec![0.0, -0.0], vec![f32::NAN, other_nan], vec![0.5, 0.5, 0.25]] {
            let compact = AccuracyRow::from(row.clone());
            assert_eq!(compact.uniform(), None, "{row:?}");
            assert_eq!(compact.len(), row.len());
            assert_eq!(format!("{compact:?}"), format!("{row:?}"));
        }
        let uniform = AccuracyRow::from(vec![0.25; 3]);
        assert_eq!((uniform.len(), uniform[2]), (3, 0.25));
        assert_eq!(format!("{uniform:?}"), "[0.25, 0.25, 0.25]");
        // Element-wise, like `Vec<f32>`: NaN ≠ NaN, 0.0 == −0.0.
        assert_ne!(AccuracyRow::from(vec![f32::NAN; 2]), AccuracyRow::from(vec![f32::NAN; 2]));
        assert_eq!(AccuracyRow::from(vec![0.0; 2]), AccuracyRow::from(vec![0.0, -0.0]));
        assert_ne!(AccuracyRow::from(vec![0.5; 2]), AccuracyRow::from(vec![0.5; 3]));
        assert_eq!(AccuracyRow::from(vec![]), AccuracyRow::default());
        assert!(AccuracyRow::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_uniform_row_is_indexed_within_its_length() {
        let _ = AccuracyRow::from(vec![0.5; 3])[3];
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The compact rows write the bytes the `Vec<f32>` writer wrote,
        /// in a RunLog, its CSV and a checkpoint, and read back canonical.
        #[test]
        fn compact_rows_keep_every_byte(
            rows in vec(
                (0usize..5, 1usize..24, 0usize..10, 0usize..10, vec(0usize..100, 1..24))
                    .prop_map(shaped_row),
                0..6,
            )
        ) {
            let mut log = RunLog::new();
            for (k, row) in rows.iter().enumerate() {
                let device_accuracy = AccuracyRow::from(row.clone());
                prop_assert_eq!(device_accuracy.uniform().is_some(), one_pattern(row));
                let round = RoundMetrics::new(k + 1);
                log.push(RoundMetrics { avg_device_accuracy: 0.25, device_accuracy, ..round });
            }
            let json = vec_row_json(&log);
            prop_assert_eq!(&log.to_json(), &json);
            let back = RunLog::from_json(&json).expect("oracle bytes parse");
            prop_assert_eq!(back.to_csv(), log.to_csv());
            // Finite values read back bit for bit and non-finite ones as NaN,
            // so the canonical form is decided on the values read.
            let spelled = |v: f32| v.is_finite().then(|| v.to_bits());
            for (row, read) in rows.iter().zip(&back.rounds) {
                let values: Vec<f32> = read.device_accuracy.iter().collect();
                prop_assert_eq!(
                    values.iter().map(|&v| spelled(v)).collect::<Vec<_>>(),
                    row.iter().map(|&v| spelled(v)).collect::<Vec<_>>()
                );
                prop_assert!(values.iter().all(|v| v.is_finite() || v.is_nan()));
                prop_assert_eq!(read.device_accuracy.uniform().is_some(), one_pattern(&values));
            }
            let ck = SimCheckpoint {
                version: crate::checkpoint::CHECKPOINT_VERSION,
                seed: 3,
                devices: 24,
                rounds_done: log.rounds.len(),
                clock_now: None,
                algo: crate::AlgoState::new(),
                log,
            };
            let envelope = SimCheckpoint { log: RunLog::new(), ..ck.clone() }.to_json();
            let envelope = envelope.strip_suffix("{\"rounds\":[]}}").expect("log is last");
            let ck_json = ck.to_json();
            prop_assert_eq!(&ck_json, &format!("{envelope}{json}}}"));
            let ck_back = SimCheckpoint::from_json(&ck_json).expect("checkpoint parses");
            for (read, again) in back.rounds.iter().zip(&ck_back.log.rounds) {
                prop_assert_eq!(
                    read.device_accuracy.uniform().map(f32::to_bits),
                    again.device_accuracy.uniform().map(f32::to_bits)
                );
            }
        }
    }

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
            device_accuracy: vec![0.1, 0.2, 0.070_123_45].into(),
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
            for (x, y) in a.device_accuracy.iter().zip(b.device_accuracy.iter()) {
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
            device_accuracy: vec![0.1, f32::NAN, f32::INFINITY, 0.070_123_45, -0.0, 1.0, 3.0e-9]
                .into(),
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
            device_accuracy: vec![0.25].into(),
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
        let per_value = |values: &AccuracyRow| {
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
            let device_accuracy = values.clone().into();
            let round = RoundMetrics { device_accuracy, ..RoundMetrics::new(1) };
            let alone = RunLog { rounds: vec![round.clone()] };
            let expected = per_value(&round.device_accuracy);
            assert_eq!(alone.to_json(), format!("{{\"rounds\":[{expected}]}}"));
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
            for (x, y) in a.device_accuracy.iter().zip(b.device_accuracy.iter()) {
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
            device_accuracy: vec![0.5, f32::NAN].into(),
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
