//! Miniaturized ShuffleNetV2 with net-size multiplier (Models A/B of
//! Table V).
//!
//! Keeps the defining mechanisms — channel split, depthwise convolutions,
//! 1×1 pointwise convolutions, channel concat + shuffle, and the two-branch
//! downsampling unit — with a reduced stage plan for CPU-scale images.

use fedzkt_autograd::Var;
use fedzkt_nn::{BatchNorm2d, Conv2d, Conv2dConfig, Linear, Module};
use fedzkt_tensor::{seeded_rng, Prng};

fn conv_bn(
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    rng: &mut Prng,
) -> (Conv2d, BatchNorm2d) {
    let conv = Conv2d::new(
        Conv2dConfig {
            in_channels: in_c,
            out_channels: out_c,
            kernel,
            stride,
            pad,
            groups,
            bias: false,
        },
        rng,
    );
    (conv, BatchNorm2d::new(out_c))
}

/// One ShuffleNetV2 unit. Stride 1 splits channels and processes half;
/// stride 2 processes the full input in two branches, doubling channels.
struct ShuffleUnit {
    stride: usize,
    // Right branch: 1x1 -> DW 3x3 -> 1x1.
    r1: (Conv2d, BatchNorm2d),
    rdw: (Conv2d, BatchNorm2d),
    r2: (Conv2d, BatchNorm2d),
    // Left branch, only for stride 2: DW 3x3 -> 1x1.
    left: Option<((Conv2d, BatchNorm2d), (Conv2d, BatchNorm2d))>,
}

impl ShuffleUnit {
    fn stride1(channels: usize, rng: &mut Prng) -> Self {
        assert!(channels.is_multiple_of(2), "stride-1 shuffle unit needs even channels");
        let half = channels / 2;
        ShuffleUnit {
            stride: 1,
            r1: conv_bn(half, half, 1, 1, 0, 1, rng),
            rdw: conv_bn(half, half, 3, 1, 1, half, rng),
            r2: conv_bn(half, half, 1, 1, 0, 1, rng),
            left: None,
        }
    }

    fn stride2(in_c: usize, out_c: usize, rng: &mut Prng) -> Self {
        assert!(out_c.is_multiple_of(2), "stride-2 shuffle unit needs even out channels");
        let half = out_c / 2;
        ShuffleUnit {
            stride: 2,
            r1: conv_bn(in_c, half, 1, 1, 0, 1, rng),
            rdw: conv_bn(half, half, 3, 2, 1, half, rng),
            r2: conv_bn(half, half, 1, 1, 0, 1, rng),
            left: Some((conv_bn(in_c, in_c, 3, 2, 1, in_c, rng), conv_bn(in_c, half, 1, 1, 0, 1, rng))),
        }
    }

    fn right_branch(&self, x: &Var) -> Var {
        let h = self.r1.1.forward(&self.r1.0.forward(x)).relu();
        let h = self.rdw.1.forward(&self.rdw.0.forward(&h));
        self.r2.1.forward(&self.r2.0.forward(&h)).relu()
    }
}

impl Module for ShuffleUnit {
    fn forward(&self, x: &Var) -> Var {
        let out = if self.stride == 1 {
            let c = x.shape()[1];
            let keep = x.narrow_channels(0, c / 2);
            let process = x.narrow_channels(c / 2, c - c / 2);
            let right = self.right_branch(&process);
            Var::concat_channels(&[&keep, &right])
        } else {
            let ((ldw, ldw_bn), (l1, l1_bn)) = self.left.as_ref().expect("stride-2 unit");
            let left = l1_bn.forward(&l1.forward(&ldw_bn.forward(&ldw.forward(x)))).relu();
            let right = self.right_branch(x);
            Var::concat_channels(&[&left, &right])
        };
        out.channel_shuffle(2)
    }

    fn children(&self) -> Vec<&dyn Module> {
        let mut c: Vec<&dyn Module> = Vec::new();
        for (conv, bn) in [&self.r1, &self.rdw, &self.r2] {
            c.extend([conv as &dyn Module, bn]);
        }
        if let Some(((ldw, ldw_bn), (l1, l1_bn))) = &self.left {
            c.extend([ldw as &dyn Module, ldw_bn, l1, l1_bn]);
        }
        c
    }
}

/// Miniaturized ShuffleNetV2 image classifier.
pub struct ShuffleNetV2 {
    stem: (Conv2d, BatchNorm2d),
    units: Vec<ShuffleUnit>,
    head_conv: (Conv2d, BatchNorm2d),
    classifier: Linear,
}

impl ShuffleNetV2 {
    /// Build with the given net-`size` multiplier (paper variants: 0.5 and
    /// 1.0).
    ///
    /// # Panics
    /// Panics when `img` is not divisible by 4 (two stride-2 stages).
    pub fn new(in_channels: usize, num_classes: usize, img: usize, size: f32, seed: u64) -> Self {
        assert_eq!(img % 4, 0, "ShuffleNetV2 needs img divisible by 4, got {img}");
        let mut rng = seeded_rng(seed);
        let ch = |c: usize| -> usize {
            let v = ((c as f32 * size).round() as usize).max(4);
            v + (v % 2) // keep even for channel split
        };
        let (c0, c1, c2, c_head) = (ch(12), ch(24), ch(48), ch(64));
        let stem = conv_bn(in_channels, c0, 3, 1, 1, 1, &mut rng);
        let units = vec![
            ShuffleUnit::stride2(c0, c1, &mut rng),
            ShuffleUnit::stride1(c1, &mut rng),
            ShuffleUnit::stride2(c1, c2, &mut rng),
            ShuffleUnit::stride1(c2, &mut rng),
        ];
        let head_conv = conv_bn(c2, c_head, 1, 1, 0, 1, &mut rng);
        let classifier = Linear::new(c_head, num_classes, true, &mut rng);
        ShuffleNetV2 { stem, units, head_conv, classifier }
    }
}

impl Module for ShuffleNetV2 {
    fn forward(&self, x: &Var) -> Var {
        let mut h = self.stem.1.forward(&self.stem.0.forward(x)).relu();
        for u in &self.units {
            h = u.forward(&h);
        }
        h = self.head_conv.1.forward(&self.head_conv.0.forward(&h)).relu();
        self.classifier.forward(&h.global_avg_pool())
    }

    fn children(&self) -> Vec<&dyn Module> {
        let mut c: Vec<&dyn Module> = vec![&self.stem.0, &self.stem.1];
        c.extend(self.units.iter().map(|u| u as &dyn Module));
        c.extend([&self.head_conv.0 as &dyn Module, &self.head_conv.1, &self.classifier]);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_nn::param_count;
    use fedzkt_tensor::Tensor;

    #[test]
    fn forward_shape() {
        let m = ShuffleNetV2::new(3, 10, 16, 1.0, 1);
        let y = m.forward(&Var::constant(Tensor::zeros(&[2, 3, 16, 16])));
        assert_eq!(y.shape(), vec![2, 10]);
    }

    #[test]
    fn net_size_orders_param_counts() {
        let small = ShuffleNetV2::new(3, 10, 16, 0.5, 1);
        let big = ShuffleNetV2::new(3, 10, 16, 1.0, 1);
        assert!(param_count(&small) < param_count(&big));
    }

    #[test]
    fn works_on_img8_grayscale() {
        let m = ShuffleNetV2::new(1, 10, 8, 0.5, 2);
        let y = m.forward(&Var::constant(Tensor::zeros(&[1, 1, 8, 8])));
        assert_eq!(y.shape(), vec![1, 10]);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let m = ShuffleNetV2::new(3, 4, 8, 0.5, 3);
        let x = Var::constant(Tensor::randn(&[2, 3, 8, 8], &mut seeded_rng(4)));
        m.forward(&x).square().sum_all().backward();
        for (i, p) in m.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} received no gradient");
        }
    }
}
