//! Versioned whole-simulation checkpoints.
//!
//! A checkpoint captures everything a [`Simulation`](crate::Simulation)
//! needs to continue a run exactly where it stopped: the [`RunLog`] so
//! far (which doubles as the round cursor — rounds are always driven in
//! order), the simulated clock's instant, and an [`AlgoState`] bag the
//! algorithm fills with its own evolving state (model state dicts, RNG
//! cursors, optimizer moments, registry counters). The contract, pinned
//! by the workspace's resume-equivalence suite: **kill at round *k*,
//! resume from the checkpoint, and the finished `RunLog` is bit-identical
//! to the uninterrupted run's** — for every worker-thread count.
//!
//! Two pieces of driver state are deliberately *not* stored:
//!
//! * the participation sampler and the churn model are pure functions of
//!   `(seed, round)`, so a resumed run re-derives their timelines;
//! * the carried-forward evaluation snapshot is reconstructed from the
//!   last logged round (the log carries accuracies forward over skipped
//!   rounds by design).
//!
//! The file format is the workspace's hand-rolled JSON (readable,
//! diffable, already the artifact format), with binary state dicts
//! embedded as hex-encoded [`fedzkt_nn::encode_state_dict`] blobs:
//!
//! ```text
//! {"format":"fedzkt-checkpoint","version":1,
//!  "seed":…,"devices":…,"rounds_done":…,"clock_now":…|null,
//!  "algo":{"blobs":[["name","hex…"],…],"words":[["name",[…]],…]},
//!  "log":{"rounds":[…]}}
//! ```
//!
//! `format`/`version` gate parsing: an unknown version is an error, never
//! a guess. [`SimCheckpoint::save`] writes atomically (temp file +
//! rename) so a crash mid-write can never leave a torn checkpoint where
//! a resumable one used to be.

use crate::json::{self, FromJson, Value};
use crate::RunLog;
use fedzkt_nn::{decode_state_dict, encode_state_dict, StateDict};
use std::fmt::Write;
use std::path::Path;

/// The `format` tag every checkpoint file carries.
pub const CHECKPOINT_FORMAT: &str = "fedzkt-checkpoint";

/// Current checkpoint schema version; bumped on any layout change.
pub const CHECKPOINT_VERSION: u32 = 1;

/// An algorithm's serialized evolving state: named binary blobs (state
/// dicts via [`AlgoState::put_dict`], or arbitrary bytes) plus named
/// `u64` word vectors (RNG cursors, counters, flags).
///
/// The driver treats this as an opaque bag; each
/// [`FederatedAlgorithm`](crate::FederatedAlgorithm) defines its own
/// entry names in `save_state` and reads them back in `load_state`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlgoState {
    /// Named binary payloads, in insertion order.
    pub blobs: Vec<(String, Vec<u8>)>,
    /// Named `u64` vectors, in insertion order.
    pub words: Vec<(String, Vec<u64>)>,
}

impl AlgoState {
    /// An empty bag (what a stateless algorithm saves).
    pub fn new() -> Self {
        AlgoState::default()
    }

    /// Store a named binary blob.
    pub fn put_blob(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        self.blobs.push((name.into(), bytes));
    }

    /// Look up a named blob.
    ///
    /// # Errors
    /// Returns a message naming the missing entry.
    pub fn blob(&self, name: &str) -> Result<&[u8], String> {
        self.blobs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
            .ok_or_else(|| format!("checkpoint is missing blob \"{name}\""))
    }

    /// Store a state dict as a named blob (binary-encoded; bit-exact).
    pub fn put_dict(&mut self, name: impl Into<String>, sd: &StateDict) {
        self.put_blob(name, encode_state_dict(sd).to_vec());
    }

    /// Decode a state dict stored by [`AlgoState::put_dict`].
    ///
    /// # Errors
    /// Returns a message when the entry is missing or malformed.
    pub fn dict(&self, name: &str) -> Result<StateDict, String> {
        decode_state_dict(self.blob(name)?)
            .map_err(|e| format!("checkpoint blob \"{name}\": {e}"))
    }

    /// Store a named `u64` vector.
    pub fn put_words(&mut self, name: impl Into<String>, words: Vec<u64>) {
        self.words.push((name.into(), words));
    }

    /// Look up a named `u64` vector.
    ///
    /// # Errors
    /// Returns a message naming the missing entry.
    pub fn words(&self, name: &str) -> Result<&[u64], String> {
        self.words
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w.as_slice())
            .ok_or_else(|| format!("checkpoint is missing words \"{name}\""))
    }

    /// Does the bag contain a blob with this name? (For optional entries
    /// such as per-device summaries of never-touched devices.)
    pub fn has_blob(&self, name: &str) -> bool {
        self.blobs.iter().any(|(n, _)| n == name)
    }
}

/// The `{"blobs": [[name, hex], …], "words": [[name, [u64, …]], …]}`
/// embedding; hex is decoded straight from the parsed document.
impl FromJson<'_> for AlgoState {
    fn from_json(value: &Value<'_>) -> Result<Self, String> {
        let mut algo = AlgoState::new();
        for (name, hex) in value.field::<Vec<(&str, &str)>>("blobs")? {
            algo.put_blob(name, hex_decode(hex).map_err(|e| format!("blob \"{name}\": {e}"))?);
        }
        for (name, words) in value.field::<Vec<(&str, Vec<u64>)>>("words")? {
            algo.put_words(name, words);
        }
        Ok(algo)
    }
}

/// A complete, versioned snapshot of a [`Simulation`](crate::Simulation)
/// between rounds; produced by
/// [`ErasedSimulation::checkpoint`](crate::ErasedSimulation::checkpoint),
/// consumed by
/// [`ErasedSimulation::resume_from`](crate::ErasedSimulation::resume_from).
#[derive(Debug, Clone, PartialEq)]
pub struct SimCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`] when written by this build).
    pub version: u32,
    /// The run's master seed; resume refuses a mismatched config.
    pub seed: u64,
    /// Fleet size; resume refuses a mismatched algorithm.
    pub devices: usize,
    /// Rounds completed (always `log.rounds.len()`; stored explicitly so
    /// a torn or hand-edited file is detectable).
    pub rounds_done: usize,
    /// The simulated clock's instant, when the run has a clock.
    pub clock_now: Option<f64>,
    /// The algorithm's own serialized state.
    pub algo: AlgoState,
    /// The run log so far.
    pub log: RunLog,
}

/// Append `bytes` to `out` as lowercase hex.
fn hex_encode(out: &mut String, bytes: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xF) as usize] as char);
    }
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex blob".into());
    }
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            _ => Err(format!("bad hex digit {:?}", c as char)),
        }
    };
    let bytes = s.as_bytes();
    (0..s.len() / 2).map(|i| Ok(nibble(bytes[2 * i])? << 4 | nibble(bytes[2 * i + 1])?)).collect()
}

impl SimCheckpoint {
    /// Render the checkpoint as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"format\":\"{CHECKPOINT_FORMAT}\",\"version\":{},\"seed\":{},\
             \"devices\":{},\"rounds_done\":{},\"clock_now\":",
            self.version, self.seed, self.devices, self.rounds_done,
        );
        match self.clock_now {
            Some(t) if t.is_finite() => {
                let _ = write!(out, "{t}");
            }
            _ => out.push_str("null"),
        }
        out.push_str(",\"algo\":{\"blobs\":[");
        for (i, (name, bytes)) in self.algo.blobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[\"{}\",\"", json::escape(name));
            hex_encode(&mut out, bytes);
            out.push_str("\"]");
        }
        out.push_str("],\"words\":[");
        for (i, (name, words)) in self.algo.words.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[\"{}\",[", json::escape(name));
            for (j, w) in words.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{w}");
            }
            out.push_str("]]");
        }
        out.push_str("]},\"log\":");
        self.log.write_json(&mut out);
        out.push('}');
        out
    }

    /// Parse a checkpoint written by [`SimCheckpoint::to_json`].
    ///
    /// # Errors
    /// Returns a message on an unrecognized format tag, an unsupported
    /// version, or any structural mismatch — a malformed checkpoint is
    /// refused, never partially applied.
    pub fn from_json(input: &str) -> Result<SimCheckpoint, String> {
        let value = json::parse(input)?;
        match value.field::<&str>("format").ok() {
            Some(CHECKPOINT_FORMAT) => {}
            other => return Err(format!("not a checkpoint file (format tag {other:?})")),
        }
        // Compared at full width: a narrowing cast would let 2^32 + 1 pass
        // as version 1.
        let version: u64 = value.field("version")?;
        if version != u64::from(CHECKPOINT_VERSION) {
            return Err(format!(
                "unsupported checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
            ));
        }
        let log: RunLog = value.field("log")?;
        let rounds_done = value.field("rounds_done")?;
        if rounds_done != log.rounds.len() {
            return Err(format!(
                "checkpoint claims {rounds_done} rounds but its log holds {}",
                log.rounds.len()
            ));
        }
        Ok(SimCheckpoint {
            version: CHECKPOINT_VERSION,
            seed: value.field("seed")?,
            devices: value.field("devices")?,
            rounds_done,
            clock_now: value.field_or("clock_now", None)?,
            algo: value.field("algo")?,
            log,
        })
    }

    /// Write the checkpoint to `path` atomically: the document goes to a
    /// sibling temp file first and is renamed into place, so an
    /// interrupted write leaves either the old checkpoint or the new one
    /// — never a torn file.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }

    /// Read a checkpoint written by [`SimCheckpoint::save`].
    ///
    /// # Errors
    /// Returns I/O errors, or parse failures mapped into
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<SimCheckpoint> {
        let text = std::fs::read_to_string(path)?;
        SimCheckpoint::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccuracyRow, RoundMetrics};
    use fedzkt_tensor::Tensor;

    fn sample() -> SimCheckpoint {
        let mut algo = AlgoState::new();
        algo.put_dict(
            "global",
            &StateDict { params: vec![Tensor::from_vec(vec![1.5, -2.25], &[2]).unwrap()], buffers: vec![] },
        );
        algo.put_blob("raw \"quoted\"", vec![0, 1, 254, 255]);
        algo.put_words("rng", vec![u64::MAX, 0, 7, 42]);
        let mut log = RunLog::new();
        log.push(RoundMetrics {
            avg_device_accuracy: 0.5,
            device_accuracy: vec![0.5].into(),
            sim_seconds: 12.25,
            ..RoundMetrics::new(1)
        });
        SimCheckpoint {
            version: CHECKPOINT_VERSION,
            seed: 9,
            devices: 3,
            rounds_done: 1,
            clock_now: Some(12.25),
            algo,
            log,
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let ck = sample();
        let back = SimCheckpoint::from_json(&ck.to_json()).expect("parse back");
        assert_eq!(ck, back);
        // The state dict survives bit-for-bit through the hex embedding.
        assert_eq!(back.algo.dict("global").unwrap(), ck.algo.dict("global").unwrap());
        assert_eq!(back.algo.blob("raw \"quoted\"").unwrap(), &[0, 1, 254, 255]);
        assert_eq!(back.algo.words("rng").unwrap(), &[u64::MAX, 0, 7, 42]);
    }

    #[test]
    fn repeated_accuracies_roundtrip_inside_a_checkpoint() {
        let mut ck = sample();
        for (k, values) in crate::metrics::tests::repetitive_accuracies().into_iter().enumerate() {
            let device_accuracy = values.into();
            ck.log.push(RoundMetrics { device_accuracy, ..RoundMetrics::new(k + 2) });
        }
        ck.rounds_done = ck.log.rounds.len();
        let json = ck.to_json();
        assert!(json.contains(&ck.log.to_json()), "the log is embedded byte for byte");
        let back = SimCheckpoint::from_json(&json).expect("parse back");
        assert_eq!(back.log.rounds.len(), ck.log.rounds.len());
        for (a, b) in ck.log.rounds.iter().zip(&back.log.rounds) {
            let bits = |v: &AccuracyRow| -> Vec<Option<u32>> {
                v.iter().map(|x| x.is_finite().then(|| x.to_bits())).collect()
            };
            assert_eq!(bits(&a.device_accuracy), bits(&b.device_accuracy));
        }
    }

    /// The exact bytes of the envelope around the log (whose own bytes
    /// `metrics` pins): the text the writer of every committed
    /// checkpoint produced.
    #[test]
    fn json_bytes_are_pinned() {
        let mut algo = AlgoState::new();
        algo.put_blob("raw \"quoted\"", vec![0, 1, 254, 255]);
        algo.put_blob("device_7", vec![0xab]);
        algo.put_words("rng", vec![u64::MAX, 0, 7, 42]);
        algo.put_words("empty", vec![]);
        let ck = SimCheckpoint { algo, ..sample() };
        assert_eq!(
            ck.to_json(),
            concat!(
                "{\"format\":\"fedzkt-checkpoint\",\"version\":1,\"seed\":9,\"devices\":3,",
                "\"rounds_done\":1,\"clock_now\":12.25,\"algo\":{\"blobs\":",
                "[[\"raw \\\"quoted\\\"\",\"0001feff\"],[\"device_7\",\"ab\"]],",
                "\"words\":[[\"rng\",[18446744073709551615,0,7,42]],[\"empty\",[]]]},",
                "\"log\":{\"rounds\":[{\"round\":1,\"avg_device_accuracy\":0.5,",
                "\"device_accuracy\":[0.5],\"global_accuracy\":null,\"train_loss\":0,",
                "\"upload_bytes\":0,\"download_bytes\":0,\"sim_seconds\":12.25,",
                "\"active_devices\":[],\"registered_devices\":0,\"peak_resident_devices\":0,",
                "\"available_devices\":0,\"dropped_devices\":0}]}}",
            )
        );
        let bare = SimCheckpoint {
            seed: u64::MAX,
            devices: 1,
            rounds_done: 0,
            clock_now: Some(f64::NAN),
            algo: AlgoState::new(),
            log: RunLog::new(),
            ..sample()
        };
        let expected = concat!(
            "{\"format\":\"fedzkt-checkpoint\",\"version\":1,\"seed\":18446744073709551615,",
            "\"devices\":1,\"rounds_done\":0,\"clock_now\":null,",
            "\"algo\":{\"blobs\":[],\"words\":[]},\"log\":{\"rounds\":[]}}",
        );
        assert_eq!(bare.to_json(), expected);
        assert_eq!(SimCheckpoint { clock_now: None, ..bare }.to_json(), expected);
    }

    #[test]
    fn file_save_is_atomic_and_loads_back() {
        let dir = std::env::temp_dir().join("fedzkt_sim_ckpt_test");
        let path = dir.join("run.ckpt");
        let ck = sample();
        ck.save(&path).unwrap();
        // The temp staging file must not linger.
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(SimCheckpoint::load(&path).unwrap(), ck);
        // Overwriting goes through the same atomic path.
        let mut newer = ck.clone();
        newer.seed = 10;
        newer.save(&path).unwrap();
        assert_eq!(SimCheckpoint::load(&path).unwrap().seed, 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_and_future_files_are_refused() {
        assert!(SimCheckpoint::from_json("{\"rounds\":[]}").is_err(), "a RunLog is not a checkpoint");
        let future = sample().to_json().replacen("\"version\":1", "\"version\":2", 1);
        let err = SimCheckpoint::from_json(&future).unwrap_err();
        assert!(err.contains("version 2"), "{err}");
        let wrapped = sample().to_json().replacen("\"version\":1", "\"version\":4294967297", 1);
        let err = SimCheckpoint::from_json(&wrapped).unwrap_err();
        assert!(err.contains("version 4294967297"), "{err}");
        let torn = sample().to_json().replacen("\"rounds_done\":1", "\"rounds_done\":5", 1);
        assert!(SimCheckpoint::from_json(&torn).is_err(), "round count must match the log");
        // Hostile nesting is an error, not a stack overflow.
        for open in ["[", "{\"a\":"] {
            assert!(SimCheckpoint::from_json(&open.repeat(1_000_000)).is_err());
        }
    }

    #[test]
    fn hex_is_strict() {
        let mut hex = String::new();
        hex_encode(&mut hex, &[0xde, 0xad, 0x00]);
        assert_eq!(hex_decode(&hex).unwrap(), vec![0xde, 0xad, 0x00]);
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "bad digit");
        assert!(hex_decode("AB").is_err(), "uppercase is not emitted, so not accepted");
    }

    #[test]
    fn missing_entries_are_named_in_errors() {
        let bag = AlgoState::new();
        assert!(bag.blob("global").unwrap_err().contains("global"));
        assert!(bag.words("rng").unwrap_err().contains("rng"));
        assert!(!bag.has_blob("anything"));
    }
}
