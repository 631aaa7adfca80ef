//! Spatial pooling and nearest-neighbour upsampling.

use crate::Var;
use fedzkt_tensor::ops::Conv2dGeometry;
use fedzkt_tensor::Tensor;

/// The index of the largest value in each `k`×`k` window of one `h`×`w`
/// plane, row-major over the `oh`×`ow` windows: `f(window, index)`. Ties go
/// to the first. A NaN beats every number and a later NaN an earlier one,
/// so a window holding one pools to NaN (PyTorch's rule); a window of `-∞`s
/// picks its first element.
fn window_argmax(
    plane: &[f32],
    w: usize,
    window: (usize, usize),
    out: (usize, usize),
    mut f: impl FnMut(usize, usize),
) {
    // `v > best` compiles branch-free and never picks a NaN; the NaN test
    // costs a branch per element (4× the plane's time), so only a plane
    // that holds a NaN pays for it.
    if plane.iter().fold(false, |nan, v| nan | v.is_nan()) {
        scan_windows::<true>(plane, w, window, out, &mut f);
    } else {
        scan_windows::<false>(plane, w, window, out, &mut f);
    }
}

/// [`window_argmax`], with the NaN rule when `NAN`.
fn scan_windows<const NAN: bool>(
    plane: &[f32],
    w: usize,
    (k, stride): (usize, usize),
    (oh, ow): (usize, usize),
    f: &mut impl FnMut(usize, usize),
) {
    for oy in 0..oh {
        for ox in 0..ow {
            let first = oy * stride * w + ox * stride;
            let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
            for ky in 0..k {
                for kx in 0..k {
                    let idx = first + ky * w + kx;
                    let v = plane[idx];
                    if v > best || (NAN && v.is_nan()) {
                        (best, best_idx) = (v, idx);
                    }
                }
            }
            f(oy * ow + ox, best_idx);
        }
    }
}

impl Var {
    /// Max pooling with a square `k`×`k` window. A window holding NaN pools
    /// to NaN, as in PyTorch.
    ///
    /// A recorded node keeps each window's argmax (a `u32` per output) for
    /// its backward; a pass that records nothing — under [`no_grad`], or
    /// on an input that needs no gradient — fills none.
    ///
    /// [`no_grad`]: crate::no_grad
    ///
    /// # Panics
    /// Panics when `self` is not NCHW or the window does not fit.
    pub fn max_pool2d(&self, k: usize, stride: usize) -> Var {
        let s = self.shape();
        assert_eq!(s.len(), 4, "max_pool2d input must be NCHW");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let geom = Conv2dGeometry::new(1, h, w, k, k, stride, 0).expect("max_pool2d geometry");
        let (oh, ow) = (geom.out_h, geom.out_w);
        assert!(u32::try_from(h * w).is_ok(), "max_pool2d plane of {h}x{w} is too large");
        let recording = crate::var::grad_enabled() && self.requires_grad();
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0u32; if recording { out.len() } else { 0 }];
        {
            let x = self.value();
            let planes = x.data().chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow));
            if recording {
                for ((plane, dst), arg) in planes.zip(argmax.chunks_exact_mut(oh * ow)) {
                    window_argmax(plane, w, (k, stride), (oh, ow), |o, i| {
                        (dst[o], arg[o]) = (plane[i], i as u32);
                    });
                }
            } else {
                for (plane, dst) in planes {
                    window_argmax(plane, w, (k, stride), (oh, ow), |o, i| dst[o] = plane[i]);
                }
            }
        }
        let value = Tensor::from_vec(out, &[n, c, oh, ow]).expect("max_pool2d out");
        Var::from_op(value, vec![self.clone()], move |g| {
            let mut dx = vec![0.0f32; n * c * h * w];
            let windows = g.data().chunks_exact(oh * ow).zip(argmax.chunks_exact(oh * ow));
            for (dst, (go, arg)) in dx.chunks_exact_mut(h * w).zip(windows) {
                for (&gv, &i) in go.iter().zip(arg) {
                    dst[i as usize] += gv;
                }
            }
            vec![Some(Tensor::from_vec(dx, &[n, c, h, w]).expect("max_pool2d dX"))]
        })
    }

    /// Global average pooling: `[N, C, H, W] -> [N, C]`.
    ///
    /// # Panics
    /// Panics when `self` is not NCHW.
    pub fn global_avg_pool(&self) -> Var {
        let s = self.shape();
        assert_eq!(s.len(), 4, "global_avg_pool input must be NCHW");
        let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
        let inv = 1.0 / hw as f32;
        let x = self.value();
        let out: Vec<f32> =
            (0..n * c).map(|i| x.data()[i * hw..(i + 1) * hw].iter().sum::<f32>() * inv).collect();
        drop(x);
        let value = Tensor::from_vec(out, &[n, c]).expect("gap out");
        Var::from_op(value, vec![self.clone()], move |g| {
            let mut dx = vec![0.0f32; n * c * hw];
            for i in 0..n * c {
                let gv = g.data()[i] * inv;
                for d in &mut dx[i * hw..(i + 1) * hw] {
                    *d = gv;
                }
            }
            vec![Some(Tensor::from_vec(dx, &s).expect("gap dX"))]
        })
    }

    /// Nearest-neighbour upsampling by an integer `factor` (generator
    /// upscaling blocks).
    ///
    /// # Panics
    /// Panics when `self` is not NCHW or `factor == 0`.
    pub fn upsample_nearest2d(&self, factor: usize) -> Var {
        assert!(factor > 0, "upsample factor must be positive");
        let s = self.shape();
        assert_eq!(s.len(), 4, "upsample input must be NCHW");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (oh, ow) = (h * factor, w * factor);
        let mut out = vec![0.0f32; n * c * oh * ow];
        let x = self.value();
        for plane in 0..n * c {
            let src = &x.data()[plane * h * w..(plane + 1) * h * w];
            let dst = &mut out[plane * oh * ow..(plane + 1) * oh * ow];
            for oy in 0..oh {
                for ox in 0..ow {
                    dst[oy * ow + ox] = src[(oy / factor) * w + ox / factor];
                }
            }
        }
        drop(x);
        let value = Tensor::from_vec(out, &[n, c, oh, ow]).expect("upsample out");
        Var::from_op(value, vec![self.clone()], move |g| {
            let mut dx = vec![0.0f32; n * c * h * w];
            for plane in 0..n * c {
                let gsrc = &g.data()[plane * oh * ow..(plane + 1) * oh * ow];
                let dst = &mut dx[plane * h * w..(plane + 1) * h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        dst[(oy / factor) * w + ox / factor] += gsrc[oy * ow + ox];
                    }
                }
            }
            vec![Some(Tensor::from_vec(dx, &[n, c, h, w]).expect("upsample dX"))]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(data: Vec<f32>, shape: &[usize]) -> Var {
        Var::parameter(Tensor::from_vec(data, shape).unwrap())
    }

    #[test]
    fn max_pool_routes_gradient_to_argmax() {
        let x = img(vec![1.0, 5.0, 3.0, 2.0], &[1, 1, 2, 2]);
        let y = x.max_pool2d(2, 2);
        assert_eq!(y.value().data(), &[5.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_stride_one_overlapping() {
        let x = img(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &[1, 1, 3, 3]);
        let y = x.max_pool2d(2, 1);
        assert_eq!(y.value().data(), &[5.0, 6.0, 8.0, 9.0]);
    }

    /// A window holding NaN pools to NaN and routes its gradient to the
    /// (last) NaN, as PyTorch does; an all-NaN window is NaN, not `-∞`.
    #[test]
    fn max_pool_propagates_nan() {
        let nan = f32::NAN;
        // Windows: all NaN | NaN among numbers | numbers only | all -inf.
        let ninf = f32::NEG_INFINITY;
        #[rustfmt::skip]
        let x = img(vec![
            nan, nan, 1.0, nan,
            nan, nan, 3.0, 4.0,
            5.0, 2.0, ninf, ninf,
            1.0, 2.0, ninf, ninf,
        ], &[1, 1, 4, 4]);
        let y = x.max_pool2d(2, 2);
        let v = y.value_clone();
        assert!(v.data()[0].is_nan() && v.data()[1].is_nan(), "{:?}", v.data());
        assert_eq!(&v.data()[2..], &[5.0, ninf]);
        y.sum_all().backward();
        let g = x.grad().unwrap();
        let mut expected = [0.0; 16];
        for i in [5, 3, 8, 10] {
            expected[i] = 1.0;
        }
        assert_eq!(g.data(), &expected);
    }

    #[test]
    fn global_avg_pool_shape_and_grad() {
        let x = img((1..=8).map(|v| v as f32).collect(), &[2, 2, 1, 2]);
        let y = x.global_avg_pool();
        assert_eq!(y.shape(), vec![2, 2]);
        assert_eq!(y.value().data(), &[1.5, 3.5, 5.5, 7.5]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.5; 8]);
    }

    #[test]
    fn upsample_repeats_and_grad_sums() {
        let x = img(vec![1.0, 2.0], &[1, 1, 1, 2]);
        let y = x.upsample_nearest2d(2);
        assert_eq!(y.shape(), vec![1, 1, 2, 4]);
        assert_eq!(y.value().data(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[4.0, 4.0]);
    }
}
