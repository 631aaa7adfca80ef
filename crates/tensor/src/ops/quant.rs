//! Per-tensor affine quantization primitives.
//!
//! One definition of the affine range/quantize/dequantize arithmetic shared
//! by the two consumers of 8-bit quantization in the workspace:
//!
//! * the **wire codecs** in `fedzkt-fl` (`QuantQ8`/`QuantQ4` payload
//!   encodings), which historically owned these functions;
//! * the **int8 GEMM kernel** (`crate::ops::gemm::gemm_nn_with` with
//!   [`crate::ComputeFormat::Int8`]), which quantizes GEMM operands with the
//!   exact same `(min, scale)` semantics so its error bound is the codec's
//!   familiar `scale/2` per element.
//!
//! The arithmetic is pure and scalar — same input, same bytes, on every
//! thread count — and applies the codec clamp policy to non-finite values:
//! the range is computed over finite elements only, NaN quantizes to the
//! minimum, and ±∞ saturate to the nearest end of the range.

/// Level count for 8-bit affine quantization: indices span `0..=255`.
pub const Q8_LEVELS: f32 = 255.0;

/// Per-tensor affine range `(min, scale)` over the **finite** elements of
/// `data`, with `scale = (max - min) / levels`; a constant or all-non-finite
/// tensor yields `scale == 0` and decodes exactly.
pub fn quant_range(data: &[f32], levels: f32) -> (f32, f32) {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in data {
        if v.is_finite() {
            min = min.min(v);
            max = max.max(v);
        }
    }
    if !min.is_finite() || !max.is_finite() {
        return (0.0, 0.0);
    }
    // f64 intermediate: (max - min) can overflow f32 for extreme ranges,
    // and an infinite scale would decode finite input to NaN (0 · ∞).
    (min, ((max as f64 - min as f64) / levels as f64) as f32)
}

/// Quantize one value to a level index in `[0, levels]`, applying the
/// non-finite clamp policy (NaN maps to the minimum).
pub fn quantize(v: f32, min: f32, scale: f32, levels: f32) -> u8 {
    if scale == 0.0 {
        return 0;
    }
    let v = if v.is_nan() { min } else { v };
    (((v - min) / scale).round().clamp(0.0, levels)) as u8
}

/// Reconstruct the value a level index represents: `min + scale · q`.
pub fn dequantize(q: u8, min: f32, scale: f32) -> f32 {
    min + scale * q as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_is_within_half_scale() {
        let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.37).sin() * 10.0).collect();
        let (min, scale) = quant_range(&data, Q8_LEVELS);
        for &v in &data {
            let q = quantize(v, min, scale, Q8_LEVELS);
            let back = dequantize(q, min, scale);
            assert!((back - v).abs() <= scale / 2.0 + 1e-6, "{v} -> {back} (scale {scale})");
        }
    }

    #[test]
    fn constant_tensor_has_zero_scale_and_exact_decode() {
        let data = [3.5f32; 9];
        let (min, scale) = quant_range(&data, Q8_LEVELS);
        assert_eq!((min, scale), (3.5, 0.0));
        assert_eq!(dequantize(quantize(3.5, min, scale, Q8_LEVELS), min, scale), 3.5);
    }

    #[test]
    fn non_finite_values_clamp() {
        let data = [1.0f32, f32::NAN, f32::INFINITY, 2.0];
        let (min, scale) = quant_range(&data, Q8_LEVELS);
        assert_eq!(min, 1.0);
        assert_eq!(quantize(f32::NAN, min, scale, Q8_LEVELS), 0);
        assert_eq!(quantize(f32::INFINITY, min, scale, Q8_LEVELS), 255);
        assert_eq!(quantize(f32::NEG_INFINITY, min, scale, Q8_LEVELS), 0);
    }

    #[test]
    fn all_non_finite_yields_zero_range() {
        assert_eq!(quant_range(&[f32::NAN, f32::INFINITY], Q8_LEVELS), (0.0, 0.0));
    }
}
