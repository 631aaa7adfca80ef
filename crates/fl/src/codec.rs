//! Wire-format payload codecs.
//!
//! Until now the simulator accounted communication as raw `f32` state
//! bytes — the size a [`StateDict`] would occupy if every parameter were
//! shipped uncompressed. Real resource-constrained deployments (the
//! paper's motivating setting) compress the payload: quantization and
//! sparsification routinely cut uplink traffic by 4–10× at negligible
//! accuracy cost. This module makes that axis expressible: a
//! [`PayloadCodec`] turns a [`StateDict`] into concrete wire bytes and
//! back, the driver accounts the *encoded* size, and — because decoding a
//! lossy codec returns a perturbed state — compression error genuinely
//! flows into training instead of being wished away.
//!
//! The payload is a **named tensor bundle**, not necessarily a model: a
//! `StateDict` is just an ordered list of shaped tensors, so the same
//! four codecs carry FedAvg/Fed-ET weight dicts *and* FedGKT's per-sample
//! `{features [n,d], logits [n,C], labels [n]}` uplink. Uplink and
//! downlink may use different bundles — an algorithm declares both via
//! `FederatedAlgorithm::payload_template` / `downlink_template`, and the
//! driver sizes each direction from its own template (FedGKT's soft-label
//! downlink is a fraction of its feature uplink).
//!
//! ## The four codecs
//!
//! | [`CodecSpec`] | wire payload per tensor | lossy? |
//! |---|---|---|
//! | `Raw` | `4n` bytes of little-endian `f32` bits | no (bit-exact) |
//! | `QuantQ8` | 8-byte `(min, scale)` + `n` bytes (256 levels) | ≤ `scale/2` per element |
//! | `QuantQ4` | 8-byte `(min, scale)` + `⌈n/2⌉` bytes (16 levels) | ≤ `scale/2` per element |
//! | `TopK { density }` | 4-byte count + 8 bytes per kept element | zeroes all but the `k` largest magnitudes |
//!
//! Every payload starts with a self-describing header (codec id, tensor
//! count, shapes), so `decode` needs no out-of-band model description and
//! a device can never misinterpret a payload encoded for a different
//! architecture. [`PayloadCodec::wire_bytes`] returns exactly
//! `encode(sd).len()` without materialising the bytes — for all four
//! codecs the wire size is a pure function of the tensor shapes.
//!
//! ## Determinism and non-finite values
//!
//! Encoding and decoding are pure scalar arithmetic: same input, same
//! bytes, on every thread count — the workspace determinism guarantee
//! extends through lossy codecs. Non-finite values (a diverged run's
//! NaN/±∞) must not panic mid-simulation; the clamp policy is:
//!
//! * `Raw` and `TopK` store raw `f32` bits, so non-finite values round-trip
//!   (under `TopK`, NaN/±∞ order *above* every finite magnitude and are
//!   retained first);
//! * the quantizers compute their range over the **finite** elements only,
//!   then clamp: `+∞` to the range maximum, `-∞` to the minimum, and NaN
//!   to the minimum (the zero-point). A tensor with no finite element
//!   quantizes to all zeros.
//!
//! Decoding holds the wire to what an encoder can write: a quantizer range
//! with a non-finite `min` or a non-finite or negative `scale`, and `TopK`
//! indices that are not strictly ascending, are a [`CodecError`].
//!
//! ## Adding a codec
//!
//! 1. Add a variant to [`CodecSpec`] with its parameters, a wire id in
//!    `wire_id`/`from_wire_id`, and a slug in `slug`/`parse`.
//! 2. Implement its per-tensor `encode_tensor_*` / `decode_tensor_*` pair
//!    and its arm in [`PayloadCodec::wire_bytes`] (the size must equal the
//!    encoded length *exactly* — the property suite enforces it).
//! 3. Add its arm to the `tagged!` table in `fedzkt_scenario::serial` (one
//!    line declares both the writer and the reader) and regenerate any
//!    golden preset that uses it.
//! 4. The codec property suite (`crates/fl/tests/codec_props.rs`), the
//!    protocol-invariant matrix and the determinism tests then apply to
//!    the new codec unchanged.

use fedzkt_nn::StateDict;
use fedzkt_tensor::ops::quant::{dequantize, quant_range, quantize};
use fedzkt_tensor::Tensor;

/// Wire-format version byte; bump on any incompatible layout change.
const WIRE_VERSION: u8 = 1;

/// Upper bound on a decoded payload's element count, summed over its
/// tensors (2^28 ≈ 268M values, 1 GiB of f32) — orders of magnitude above
/// any model in the workspace. Decoding is exposed to *wire* data, so a
/// corrupt or hostile header claiming absurd shapes must surface as a
/// [`CodecError`], not as an allocation abort.
const MAX_TENSOR_ELEMENTS: usize = 1 << 28;

/// A malformed or truncated wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Which payload codec a run uses — serializable, `Copy`, and itself the
/// [`PayloadCodec`] implementation (enum dispatch; there is no boxed
/// registry to keep in sync).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CodecSpec {
    /// Uncompressed little-endian `f32` — bit-exact, today's behaviour.
    #[default]
    Raw,
    /// Per-tensor affine 8-bit quantization (256 levels).
    QuantQ8,
    /// Per-tensor affine 4-bit quantization (16 levels, two per byte).
    QuantQ4,
    /// Magnitude top-k sparsification: keep `⌈density·n⌉` elements per
    /// tensor as `(u32 index, f32 value)` pairs, zero the rest.
    TopK {
        /// Fraction of elements kept per tensor, in `(0, 1]`.
        density: f32,
    },
}

impl CodecSpec {
    /// Short lowercase name for tables and artifact file names.
    pub fn name(&self) -> &'static str {
        match self {
            CodecSpec::Raw => "raw",
            CodecSpec::QuantQ8 => "q8",
            CodecSpec::QuantQ4 => "q4",
            CodecSpec::TopK { .. } => "topk",
        }
    }

    /// Parse a CLI-style codec reference: `raw`, `q8`, `q4`, `topk`
    /// (density 0.1) or `topk:<density>`.
    ///
    /// # Errors
    /// Returns a message for an unknown name or a malformed density.
    pub fn parse(reference: &str) -> Result<CodecSpec, String> {
        match reference {
            "raw" => Ok(CodecSpec::Raw),
            "q8" => Ok(CodecSpec::QuantQ8),
            "q4" => Ok(CodecSpec::QuantQ4),
            "topk" => Ok(CodecSpec::TopK { density: 0.1 }),
            other => match other.strip_prefix("topk:") {
                Some(density) => {
                    let density: f32 = density
                        .parse()
                        .map_err(|_| format!("topk: bad density \"{density}\""))?;
                    Ok(CodecSpec::TopK { density })
                }
                None => Err(format!("unknown codec \"{other}\" (raw|q8|q4|topk[:density])")),
            },
        }
    }

    /// Is the codec's parameterisation well-formed? (`TopK` needs a
    /// density in `(0, 1]`; the others have no knobs.)
    pub fn is_valid(&self) -> bool {
        match *self {
            CodecSpec::TopK { density } => density.is_finite() && density > 0.0 && density <= 1.0,
            _ => true,
        }
    }

    fn wire_id(&self) -> u8 {
        match self {
            CodecSpec::Raw => 0,
            CodecSpec::QuantQ8 => 1,
            CodecSpec::QuantQ4 => 2,
            CodecSpec::TopK { .. } => 3,
        }
    }

    /// Elements `TopK` keeps for an `n`-element tensor: `⌈density·n⌉`,
    /// at least 1 for a non-empty tensor, never more than `n`.
    fn top_k_len(density: f32, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        ((density as f64 * n as f64).ceil() as usize).clamp(1, n)
    }
}

/// A payload compression scheme: [`StateDict`] ⇄ wire bytes.
///
/// The contract, enforced by the property suite in
/// `crates/fl/tests/codec_props.rs`:
///
/// * `decode(encode(sd))` succeeds and preserves every tensor shape;
/// * `wire_bytes(sd) == encode(sd).len()`, exactly;
/// * encoding is deterministic (same input ⇒ same bytes) and total — it
///   never panics, including on empty, scalar-shaped, or non-finite
///   tensors (see the module docs for the non-finite clamp policy).
pub trait PayloadCodec {
    /// Encode a state dict into its wire form.
    fn encode(&self, sd: &StateDict) -> Vec<u8>;

    /// Decode a wire payload produced by [`PayloadCodec::encode`] on the
    /// *same* codec configuration.
    ///
    /// # Errors
    /// Returns [`CodecError`] on a truncated or foreign payload.
    fn decode(&self, bytes: &[u8]) -> Result<StateDict, CodecError>;

    /// The exact encoded size in bytes, without materialising the bytes.
    fn wire_bytes(&self, sd: &StateDict) -> usize;
}

// ---- little-endian primitives -------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| CodecError(format!("truncated payload at offset {}", self.pos)))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---- header -------------------------------------------------------------

fn write_header(codec: &CodecSpec, sd: &StateDict, out: &mut Vec<u8>) {
    out.push(codec.wire_id());
    out.push(WIRE_VERSION);
    put_u32(out, sd.params.len() as u32);
    put_u32(out, sd.buffers.len() as u32);
    for t in sd.iter_tensors() {
        out.push(t.shape().len() as u8);
        for &d in t.shape() {
            put_u32(out, d as u32);
        }
    }
}

/// Shapes of `(params, buffers)` recovered from a payload header.
fn read_header(
    codec: &CodecSpec,
    r: &mut Reader,
) -> Result<(Vec<Vec<usize>>, usize), CodecError> {
    let id = r.u8()?;
    if id != codec.wire_id() {
        return Err(CodecError(format!(
            "payload was encoded by codec id {id}, decoding as {}",
            codec.name()
        )));
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(CodecError(format!("unsupported wire version {version}")));
    }
    let n_params = r.u32()? as usize;
    let n_buffers = r.u32()? as usize;
    let total = n_params
        .checked_add(n_buffers)
        .ok_or_else(|| CodecError("tensor count overflow".into()))?;
    // Capacity hints are capped: the counts are wire-controlled, and a
    // corrupt header must fail on the next read, not on an allocation.
    let mut shapes = Vec::with_capacity(total.min(1024));
    let mut claimed = 0usize;
    for _ in 0..total {
        let ndim = r.u8()? as usize;
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(r.u32()? as usize);
        }
        // Reject shapes whose element count cannot be addressed — or whose
        // running total is implausibly large for this workspace — before
        // allocating: TopK zero-fills every claimed element.
        let elements = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| CodecError("tensor shape overflow".into()))?;
        claimed = claimed.saturating_add(elements);
        if claimed > MAX_TENSOR_ELEMENTS {
            return Err(CodecError(format!(
                "payload claims {claimed} elements (limit {MAX_TENSOR_ELEMENTS})"
            )));
        }
        shapes.push(shape);
    }
    Ok((shapes, n_params))
}

fn assemble(shapes: Vec<Vec<usize>>, n_params: usize, tensors: Vec<Tensor>) -> StateDict {
    debug_assert_eq!(shapes.len(), tensors.len());
    let mut it = tensors.into_iter();
    let params: Vec<Tensor> = (&mut it).take(n_params).collect();
    let buffers: Vec<Tensor> = it.collect();
    StateDict { params, buffers }
}

fn tensor_from(shape: &[usize], data: Vec<f32>) -> Result<Tensor, CodecError> {
    Tensor::from_vec(data, shape).map_err(|e| CodecError(format!("rebuilding tensor: {e}")))
}

// ---- per-tensor codecs --------------------------------------------------
//
// The affine range/quantize arithmetic lives in `fedzkt_tensor::ops::quant`
// (imported at the top): one definition shared with the int8 GEMM
// kernel, so the wire codecs and that kernel agree on `(min, scale)`
// semantics — and on the `scale/2` per-element error bound — by
// construction.

fn encode_tensor_quant(data: &[f32], levels: f32, packed: bool, out: &mut Vec<u8>) {
    let (min, scale) = quant_range(data, levels);
    put_f32(out, min);
    put_f32(out, scale);
    if packed {
        // Two values per byte, low nibble first; an odd trailing element
        // fills the low nibble of the final byte on its own.
        let pairs = data.chunks_exact(2);
        let tail = pairs.remainder();
        for pair in pairs {
            let (lo, hi) = (pair[0], pair[1]);
            out.push(quantize(lo, min, scale, levels) | (quantize(hi, min, scale, levels) << 4));
        }
        if let Some(&last) = tail.first() {
            out.push(quantize(last, min, scale, levels));
        }
    } else {
        for &v in data {
            out.push(quantize(v, min, scale, levels));
        }
    }
}

fn decode_tensor_quant(
    r: &mut Reader,
    n: usize,
    packed: bool,
) -> Result<Vec<f32>, CodecError> {
    let min = r.f32()?;
    let scale = r.f32()?;
    // `quant_range` only ever writes a finite `min` and a finite `scale ≥ 0`;
    // anything else would decode to a silently NaN/∞ tensor. `min + scale ·
    // levels` may still overflow, as a legitimate `[-f32::MAX, f32::MAX]`
    // tensor's range does.
    if !min.is_finite() || !scale.is_finite() || scale < 0.0 {
        return Err(CodecError(format!(
            "quantization range (min {min}, scale {scale}) is invalid"
        )));
    }
    // take() validates the length against the actual payload before any
    // n-sized allocation happens.
    if packed {
        let bytes = r.take(n.div_ceil(2))?;
        // Mirror of the packed encode: unpack nibble pairs, then the odd
        // trailing element from the low nibble of the final byte.
        let mut data = vec![0.0f32; n];
        let mut pairs = data.chunks_exact_mut(2);
        for (pair, &b) in pairs.by_ref().zip(bytes) {
            pair[0] = dequantize(b & 0x0F, min, scale);
            pair[1] = dequantize(b >> 4, min, scale);
        }
        if let (Some(last), Some(&b)) = (pairs.into_remainder().first_mut(), bytes.last()) {
            *last = dequantize(b & 0x0F, min, scale);
        }
        Ok(data)
    } else {
        Ok(r.take(n)?.iter().map(|&b| dequantize(b, min, scale)).collect())
    }
}

/// The `k` indices of largest magnitude, deterministic under ties (lower
/// index wins) and total over non-finite values (`f32::total_cmp` on the
/// absolute value orders NaN/±∞ above every finite magnitude, so a
/// diverged tensor's worst offenders are exactly what gets shipped).
fn top_k_indices(data: &[f32], k: usize) -> Vec<u32> {
    if k == 0 {
        return Vec::new();
    }
    let mut order: Vec<u32> = (0..data.len() as u32).collect();
    // The comparator is a strict total order (index breaks ties), so the
    // k-smallest-under-it prefix is a unique *set* — partial selection is
    // deterministic — and encoding sits on every active device's round
    // critical path, so O(n + k log k) beats a full sort.
    if k < order.len() {
        order.select_nth_unstable_by(k - 1, |&a, &b| {
            f32::total_cmp(&data[b as usize].abs(), &data[a as usize].abs()).then(a.cmp(&b))
        });
        order.truncate(k);
    }
    order.sort_unstable(); // canonical wire order: ascending index
    order
}

fn encode_tensor_topk(data: &[f32], density: f32, out: &mut Vec<u8>) {
    let k = CodecSpec::top_k_len(density, data.len());
    put_u32(out, k as u32);
    for idx in top_k_indices(data, k) {
        put_u32(out, idx);
        put_f32(out, data[idx as usize]);
    }
}

fn decode_tensor_topk(r: &mut Reader, n: usize) -> Result<Vec<f32>, CodecError> {
    let k = r.u32()? as usize;
    if k > n {
        return Err(CodecError(format!("top-k count {k} exceeds tensor length {n}")));
    }
    let mut data = vec![0.0f32; n];
    // The encoder writes unique indices in ascending order; a repeat would
    // silently overwrite an earlier value.
    let mut next = 0;
    for _ in 0..k {
        let idx = r.u32()? as usize;
        if idx >= n {
            return Err(CodecError(format!("top-k index {idx} out of range {n}")));
        }
        if idx < next {
            return Err(CodecError(format!(
                "top-k index {idx} after index {}: indices must be strictly ascending",
                next - 1
            )));
        }
        data[idx] = r.f32()?;
        next = idx + 1;
    }
    Ok(data)
}

impl PayloadCodec for CodecSpec {
    fn encode(&self, sd: &StateDict) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes(sd));
        write_header(self, sd, &mut out);
        for t in sd.iter_tensors() {
            match *self {
                CodecSpec::Raw => {
                    for &v in t.data() {
                        put_f32(&mut out, v);
                    }
                }
                CodecSpec::QuantQ8 => encode_tensor_quant(t.data(), 255.0, false, &mut out),
                CodecSpec::QuantQ4 => encode_tensor_quant(t.data(), 15.0, true, &mut out),
                CodecSpec::TopK { density } => encode_tensor_topk(t.data(), density, &mut out),
            }
        }
        debug_assert_eq!(out.len(), self.wire_bytes(sd), "wire_bytes out of sync with encode");
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<StateDict, CodecError> {
        let mut r = Reader::new(bytes);
        let (shapes, n_params) = read_header(self, &mut r)?;
        let mut tensors = Vec::with_capacity(shapes.len());
        for shape in &shapes {
            let n = shape.iter().product::<usize>();
            let data = match *self {
                CodecSpec::Raw => {
                    let raw = r.take(4 * n)?;
                    raw.chunks_exact(4)
                        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                        .collect()
                }
                CodecSpec::QuantQ8 => decode_tensor_quant(&mut r, n, false)?,
                CodecSpec::QuantQ4 => decode_tensor_quant(&mut r, n, true)?,
                CodecSpec::TopK { .. } => decode_tensor_topk(&mut r, n)?,
            };
            tensors.push(tensor_from(shape, data)?);
        }
        if !r.done() {
            return Err(CodecError("trailing bytes after payload".into()));
        }
        Ok(assemble(shapes, n_params, tensors))
    }

    fn wire_bytes(&self, sd: &StateDict) -> usize {
        // Fixed header (id, version, two counts) + per-tensor shape
        // record + per-tensor body.
        10 + sd
            .iter_tensors()
            .map(|t| {
                let shape = t.shape();
                let n: usize = shape.iter().product();
                let body = match *self {
                    CodecSpec::Raw => 4 * n,
                    CodecSpec::QuantQ8 => 8 + n,
                    CodecSpec::QuantQ4 => 8 + n.div_ceil(2),
                    CodecSpec::TopK { density } => 4 + 8 * CodecSpec::top_k_len(density, n),
                };
                1 + 4 * shape.len() + body
            })
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd(tensors: Vec<Tensor>) -> StateDict {
        StateDict { params: tensors, buffers: Vec::new() }
    }

    const ALL: [CodecSpec; 4] = [
        CodecSpec::Raw,
        CodecSpec::QuantQ8,
        CodecSpec::QuantQ4,
        CodecSpec::TopK { density: 0.5 },
    ];

    #[test]
    fn raw_roundtrips_bit_exactly_with_buffers() {
        let dict = StateDict {
            params: vec![
                Tensor::from_vec(vec![1.5, -2.25, 0.0, -0.0], &[2, 2]).unwrap(),
                Tensor::from_vec(vec![f32::MIN_POSITIVE], &[1]).unwrap(),
            ],
            buffers: vec![Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap()],
        };
        let codec = CodecSpec::Raw;
        let back = codec.decode(&codec.encode(&dict)).unwrap();
        assert_eq!(back.params.len(), 2);
        assert_eq!(back.buffers.len(), 1);
        for (a, b) in dict
            .params
            .iter()
            .chain(&dict.buffers)
            .zip(back.params.iter().chain(&back.buffers))
        {
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn quantizers_bound_error_by_half_scale() {
        let data: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let dict = sd(vec![Tensor::from_vec(data.clone(), &[64]).unwrap()]);
        for (codec, levels) in [(CodecSpec::QuantQ8, 255.0f32), (CodecSpec::QuantQ4, 15.0)] {
            let back = codec.decode(&codec.encode(&dict)).unwrap();
            let (min, max) = data.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
            let scale = (max - min) / levels;
            for (x, y) in data.iter().zip(back.params[0].data()) {
                assert!(
                    (x - y).abs() <= scale * 0.5 + scale * 1e-4,
                    "{codec:?}: |{x} - {y}| > scale/2 = {}",
                    scale * 0.5
                );
            }
        }
    }

    #[test]
    fn non_finite_values_encode_and_decode_without_panicking() {
        let data = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0, -2.0, 0.5];
        let dict = sd(vec![Tensor::from_vec(data.clone(), &[6]).unwrap()]);
        for codec in ALL {
            let back = codec.decode(&codec.encode(&dict)).unwrap();
            let out = back.params[0].data();
            assert_eq!(out.len(), 6, "{codec:?}");
            match codec {
                // Raw ships the bits; TopK keeps the largest "magnitudes",
                // which under total order are exactly the non-finite ones.
                CodecSpec::Raw => {
                    assert!(out[0].is_nan() && out[1] == f32::INFINITY);
                    assert_eq!(out[2], f32::NEG_INFINITY);
                }
                CodecSpec::TopK { .. } => {
                    assert!(out[0].is_nan(), "NaN ranks above finite magnitudes");
                    assert_eq!(out[1], f32::INFINITY);
                    assert_eq!(out[2], f32::NEG_INFINITY);
                }
                // The quantizers clamp into the finite range [-2, 1]:
                // +inf to the max, -inf and NaN to the min.
                CodecSpec::QuantQ8 | CodecSpec::QuantQ4 => {
                    assert!(out.iter().all(|v| v.is_finite()), "{codec:?}: {out:?}");
                    assert!((out[1] - 1.0).abs() < 0.2, "+inf clamps to max, got {}", out[1]);
                    assert!((out[2] + 2.0).abs() < 0.2, "-inf clamps to min, got {}", out[2]);
                    assert!((out[0] + 2.0).abs() < 0.2, "NaN clamps to min, got {}", out[0]);
                }
            }
        }
    }

    #[test]
    fn all_non_finite_tensor_quantizes_to_zero() {
        let dict = sd(vec![Tensor::from_vec(vec![f32::NAN, f32::INFINITY], &[2]).unwrap()]);
        for codec in [CodecSpec::QuantQ8, CodecSpec::QuantQ4] {
            let back = codec.decode(&codec.encode(&dict)).unwrap();
            assert_eq!(back.params[0].data(), &[0.0, 0.0], "{codec:?}");
        }
    }

    #[test]
    fn topk_keeps_largest_magnitudes_and_breaks_ties_low_index_first() {
        let data = vec![0.1, -5.0, 2.0, 2.0, -0.2, 3.0];
        let dict = sd(vec![Tensor::from_vec(data, &[6]).unwrap()]);
        let codec = CodecSpec::TopK { density: 0.5 }; // k = 3
        let back = codec.decode(&codec.encode(&dict)).unwrap();
        // Kept: |-5| and |3| outright; the 2.0 at index 2 wins the tie.
        assert_eq!(back.params[0].data(), &[0.0, -5.0, 2.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn decode_rejects_foreign_truncated_and_padded_payloads() {
        let dict = sd(vec![Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()]);
        let raw = CodecSpec::Raw.encode(&dict);
        assert!(CodecSpec::QuantQ8.decode(&raw).is_err(), "codec id mismatch");
        assert!(CodecSpec::Raw.decode(&raw[..raw.len() - 1]).is_err(), "truncated");
        let mut padded = raw.clone();
        padded.push(0);
        assert!(CodecSpec::Raw.decode(&padded).is_err(), "trailing bytes");
        assert!(CodecSpec::Raw.decode(&[]).is_err(), "empty input");
        let mut wrong_version = raw;
        wrong_version[1] = 99;
        assert!(CodecSpec::Raw.decode(&wrong_version).is_err(), "future version");
    }

    #[test]
    fn corrupt_headers_error_instead_of_allocating() {
        // A 10-byte payload claiming u32::MAX params + u32::MAX buffers:
        // must come back as the documented CodecError (truncated), never
        // as an allocation abort.
        let mut huge_counts = vec![0u8, WIRE_VERSION];
        huge_counts.extend_from_slice(&u32::MAX.to_le_bytes());
        huge_counts.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(CodecSpec::Raw.decode(&huge_counts).is_err());

        // One tensor whose claimed shape is astronomically large (but not
        // usize-overflowing): rejected by the element cap up front.
        let mut huge_shape = vec![0u8, WIRE_VERSION];
        huge_shape.extend_from_slice(&1u32.to_le_bytes()); // 1 param
        huge_shape.extend_from_slice(&0u32.to_le_bytes()); // 0 buffers
        huge_shape.push(1); // ndim 1
        huge_shape.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let err = CodecSpec::Raw.decode(&huge_shape).unwrap_err();
        assert!(err.0.contains("elements"), "{err}");

        // 28 bytes: a TopK header claiming two 2^28-element tensors, each
        // shipping k = 0 values. Every tensor is at the cap, so only the
        // payload-wide sum stops a 2 GiB zero-fill.
        let codec = CodecSpec::TopK { density: 0.1 };
        let mut payload = vec![codec.wire_id(), WIRE_VERSION];
        payload.extend_from_slice(&2u32.to_le_bytes()); // 2 params
        payload.extend_from_slice(&0u32.to_le_bytes()); // 0 buffers
        for _ in 0..2 {
            payload.push(1); // ndim 1
            payload.extend_from_slice(&(1u32 << 28).to_le_bytes());
        }
        payload.extend_from_slice(&[0u8; 8]); // k = 0, twice
        assert_eq!(payload.len(), 28);
        let err = codec.decode(&payload).unwrap_err();
        assert!(err.0.contains("elements"), "{err}");
    }

    /// A two-element `[2]` payload under `codec`: the header, then `body`.
    fn hand_built(codec: CodecSpec, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(&codec, &sd(vec![Tensor::zeros(&[2])]), &mut out);
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn decode_rejects_non_finite_or_negative_quant_ranges() {
        let bad = [(0.0, f32::NAN), (0.0, f32::INFINITY), (0.0, -1.0), (f32::NAN, 1.0)];
        // Two Q8 level bytes, or one Q4 byte holding both nibbles.
        let bodies = [(CodecSpec::QuantQ8, &[7u8, 9][..]), (CodecSpec::QuantQ4, &[0x97])];
        for (codec, levels) in bodies {
            for (min, scale) in bad {
                let mut body = [min.to_le_bytes(), scale.to_le_bytes()].concat();
                body.extend_from_slice(levels);
                let err = codec.decode(&hand_built(codec, &body)).unwrap_err();
                assert!(err.0.contains("range"), "{codec:?} ({min}, {scale}): {err}");
            }
        }
        // The widest legitimate range overflows `min + scale · levels` and
        // must still decode.
        let dict = sd(vec![Tensor::from_vec(vec![-f32::MAX, f32::MAX], &[2]).unwrap()]);
        for codec in [CodecSpec::QuantQ8, CodecSpec::QuantQ4] {
            assert!(codec.decode(&codec.encode(&dict)).is_ok(), "{codec:?}");
        }
    }

    #[test]
    fn decode_rejects_duplicate_and_descending_topk_indices() {
        let codec = CodecSpec::TopK { density: 1.0 };
        for indices in [[0u32, 0], [1, 0]] {
            let mut body = 2u32.to_le_bytes().to_vec();
            for idx in indices {
                body.extend_from_slice(&idx.to_le_bytes());
                body.extend_from_slice(&1.0f32.to_le_bytes());
            }
            let err = codec.decode(&hand_built(codec, &body)).unwrap_err();
            assert!(err.0.contains("ascending"), "{indices:?}: {err}");
        }
    }

    /// An empty FedGKT bundle — a device with zero local samples ships
    /// `{features [0, d], logits [0, C], labels [0]}` — must round-trip
    /// through every codec as zero-element tensors with shapes intact.
    #[test]
    fn empty_fedgkt_bundle_roundtrips_through_every_codec() {
        let dict = sd(vec![
            Tensor::zeros(&[0, 32]),
            Tensor::zeros(&[0, 10]),
            Tensor::zeros(&[0]),
        ]);
        for codec in ALL {
            let encoded = codec.encode(&dict);
            assert_eq!(encoded.len(), codec.wire_bytes(&dict), "{codec:?}");
            let back = codec.decode(&encoded).unwrap_or_else(|e| panic!("{codec:?}: {e}"));
            assert_eq!(back.params.len(), 3, "{codec:?}");
            for (a, b) in dict.params.iter().zip(&back.params) {
                assert_eq!(a.shape(), b.shape(), "{codec:?}");
                assert!(b.data().is_empty(), "{codec:?}");
            }
        }
    }

    /// Odd-length tensors exercise the packed codec's trailing element
    /// (the low nibble of the final byte) on both sides of the wire.
    #[test]
    fn q4_odd_length_tail_roundtrips() {
        for n in [1usize, 3, 7, 65] {
            let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).cos()).collect();
            let dict = sd(vec![Tensor::from_vec(data.clone(), &[n]).unwrap()]);
            let codec = CodecSpec::QuantQ4;
            let encoded = codec.encode(&dict);
            assert_eq!(encoded.len(), codec.wire_bytes(&dict), "n={n}");
            let back = codec.decode(&encoded).unwrap();
            assert_eq!(back.params[0].data().len(), n);
            // The tail element must carry a real value, not a zero slot.
            let (min, scale) = {
                let (lo, hi) = data.iter().fold(
                    (f32::INFINITY, f32::NEG_INFINITY),
                    |(lo, hi), &v| (lo.min(v), hi.max(v)),
                );
                (lo, (hi - lo) / 15.0)
            };
            let last = back.params[0].data()[n - 1];
            assert!(
                (last - data[n - 1]).abs() <= scale * 0.5 + 1e-4,
                "n={n}: tail {last} vs {} (min {min})",
                data[n - 1]
            );
        }
    }

    #[test]
    fn empty_state_dict_roundtrips() {
        let dict = StateDict { params: Vec::new(), buffers: Vec::new() };
        for codec in ALL {
            assert_eq!(codec.encode(&dict).len(), codec.wire_bytes(&dict), "{codec:?}");
            let back = codec.decode(&codec.encode(&dict)).unwrap();
            assert!(back.params.is_empty() && back.buffers.is_empty());
        }
    }

    #[test]
    fn parse_covers_the_cli_spellings() {
        assert_eq!(CodecSpec::parse("raw").unwrap(), CodecSpec::Raw);
        assert_eq!(CodecSpec::parse("q8").unwrap(), CodecSpec::QuantQ8);
        assert_eq!(CodecSpec::parse("q4").unwrap(), CodecSpec::QuantQ4);
        assert_eq!(CodecSpec::parse("topk").unwrap(), CodecSpec::TopK { density: 0.1 });
        assert_eq!(CodecSpec::parse("topk:0.25").unwrap(), CodecSpec::TopK { density: 0.25 });
        assert!(CodecSpec::parse("gzip").is_err());
        assert!(CodecSpec::parse("topk:lots").is_err());
    }

    #[test]
    fn validity_checks_the_topk_density() {
        assert!(CodecSpec::Raw.is_valid());
        assert!(CodecSpec::TopK { density: 1.0 }.is_valid());
        for density in [0.0f32, -0.5, 1.5, f32::NAN, f32::INFINITY] {
            assert!(!CodecSpec::TopK { density }.is_valid(), "{density}");
        }
    }
}
