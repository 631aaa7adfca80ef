//! Spatial pooling and nearest-neighbour upsampling.

use crate::Var;
use fedzkt_tensor::ops::Conv2dGeometry;
use fedzkt_tensor::Tensor;

impl Var {
    /// Max pooling with a square `k`×`k` window.
    ///
    /// # Panics
    /// Panics when `self` is not NCHW or the window does not fit.
    pub fn max_pool2d(&self, k: usize, stride: usize) -> Var {
        let x = self.value_clone();
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 4, "max_pool2d input must be NCHW");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let geom = Conv2dGeometry::new(1, h, w, k, k, stride, 0).expect("max_pool2d geometry");
        let (oh, ow) = (geom.out_h, geom.out_w);
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        for smp in 0..n {
            for ch in 0..c {
                let plane = &x.data()[(smp * c + ch) * h * w..(smp * c + ch + 1) * h * w];
                let base = (smp * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = (oy * stride + ky) * w + ox * stride + kx;
                                if plane[idx] > best {
                                    best = plane[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out[base + oy * ow + ox] = best;
                        argmax[base + oy * ow + ox] = best_idx;
                    }
                }
            }
        }
        let value = Tensor::from_vec(out, &[n, c, oh, ow]).expect("max_pool2d out");
        Var::from_op(value, vec![self.clone()], move |g| {
            let mut dx = vec![0.0f32; n * c * h * w];
            for smp in 0..n {
                for ch in 0..c {
                    let base = (smp * c + ch) * oh * ow;
                    let dst = &mut dx[(smp * c + ch) * h * w..(smp * c + ch + 1) * h * w];
                    for i in 0..oh * ow {
                        dst[argmax[base + i]] += g.data()[base + i];
                    }
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
        let x = self.value_clone();
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 4, "global_avg_pool input must be NCHW");
        let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
        let inv = 1.0 / hw as f32;
        let mut out = vec![0.0f32; n * c];
        for (i, o) in out.iter_mut().enumerate() {
            *o = x.data()[i * hw..(i + 1) * hw].iter().sum::<f32>() * inv;
        }
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
        let x = self.value_clone();
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 4, "upsample input must be NCHW");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (oh, ow) = (h * factor, w * factor);
        let mut out = vec![0.0f32; n * c * oh * ow];
        for plane in 0..n * c {
            let src = &x.data()[plane * h * w..(plane + 1) * h * w];
            let dst = &mut out[plane * oh * ow..(plane + 1) * oh * ow];
            for oy in 0..oh {
                for ox in 0..ow {
                    dst[oy * ow + ox] = src[(oy / factor) * w + ox / factor];
                }
            }
        }
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
