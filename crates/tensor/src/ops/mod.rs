//! Heavier tensor operations: matrix multiplication and convolution
//! lowering. Elementwise arithmetic and reductions live directly on
//! [`Tensor`](crate::Tensor).

mod depthwise;
pub mod gemm;
mod image;
mod matmul;
pub mod quant;

pub use depthwise::{depthwise_conv2d, depthwise_conv2d_dw, depthwise_conv2d_dx};
pub use image::{col2im, im2col, im2col_batch, im2col_panel, Conv2dGeometry};

/// `dst.copy_from_slice(src)` for the short rows the conv and GEMM-edge
/// paths move. A run under 64 floats is at most two overlapping fixed-width
/// moves in registers: `copy_from_slice` of a length known only at run time
/// is a libc `memcpy` call, which costs more than the few floats of such a
/// row. A longer run keeps `copy_from_slice`. Every bit is copied as it is,
/// NaN payloads and `-0.0` included.
///
/// # Panics
/// If `dst` and `src` differ in length, as `copy_from_slice` does.
#[inline(always)]
pub fn copy_run(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "copy_run: destination and source lengths differ");
    match src.len() {
        0 => {}
        1 => dst[0] = src[0],
        2..4 => copy_ends::<2>(dst, src),
        4..8 => copy_ends::<4>(dst, src),
        8..16 => copy_ends::<8>(dst, src),
        16..32 => copy_ends::<16>(dst, src),
        32..64 => copy_ends::<32>(dst, src),
        _ => dst.copy_from_slice(src),
    }
}

/// The first and the last `W` floats of `src` to the same places in `dst`,
/// which together cover a run of `W..2·W` floats (overlapping in the middle).
#[inline(always)]
fn copy_ends<const W: usize>(dst: &mut [f32], src: &[f32]) {
    let (src_head, src_tail) = (src.first_chunk::<W>(), src.last_chunk::<W>());
    let dst_head = dst.first_chunk_mut::<W>().expect("a run at least W long");
    dst_head.copy_from_slice(src_head.expect("as long as dst"));
    let dst_tail = dst.last_chunk_mut::<W>().expect("a run at least W long");
    dst_tail.copy_from_slice(src_tail.expect("as long as dst"));
}

#[cfg(test)]
mod tests {
    use super::copy_run;

    /// Every length through every fixed-width branch and into the
    /// `copy_from_slice` fallback, over data laced with NaN payloads (quiet
    /// and signalling, both signs), `-0.0`, infinities and subnormals, into a
    /// destination window with guard floats on both sides.
    #[test]
    fn copy_run_matches_copy_from_slice() {
        let specials = [
            0x7fc0_1234u32, // quiet NaN with a payload
            0x7f80_0001,    // signalling NaN
            0xffa0_5a5a,    // negative signalling NaN
            0x8000_0000,    // -0.0
            0xff80_0000,    // -inf
            0x0000_0001,    // smallest subnormal
        ];
        let src: Vec<f32> = (0..96u32)
            .map(|i| {
                let bits = if i % 5 == 2 {
                    specials[i as usize / 5 % specials.len()]
                } else {
                    i.wrapping_mul(0x9e37_79b9).rotate_left(7)
                };
                f32::from_bits(bits)
            })
            .collect();
        let guard = f32::from_bits(0x7fc0_dead);
        for len in 0..=80 {
            for offset in [0usize, 1, 3] {
                let run = &src[offset..offset + len];
                let mut by_helper = vec![guard; len + 2];
                let mut by_std = vec![guard; len + 2];
                copy_run(&mut by_helper[1..=len], run);
                by_std[1..=len].copy_from_slice(run);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(&by_helper), bits(&by_std), "len {len}, offset {offset}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn copy_run_rejects_a_length_mismatch() {
        copy_run(&mut [0.0f32; 5], &[1.0f32; 6]);
    }
}
