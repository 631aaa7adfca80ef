//! Miniaturized MobileNetV2 with width multiplier (Models C/D of Table V).
//!
//! Keeps the architecture's defining mechanisms — inverted residual blocks
//! (1×1 expand → 3×3 depthwise → 1×1 linear project), ReLU6, residual
//! connections on stride-1 blocks, and the width multiplier — with a
//! reduced stage plan suitable for small synthetic images on CPU.

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

struct InvertedResidual {
    expand: Option<(Conv2d, BatchNorm2d)>,
    depthwise: (Conv2d, BatchNorm2d),
    project: (Conv2d, BatchNorm2d),
    use_residual: bool,
}

impl InvertedResidual {
    fn new(in_c: usize, out_c: usize, stride: usize, expansion: usize, rng: &mut Prng) -> Self {
        let hidden = in_c * expansion;
        let expand = (expansion != 1).then(|| conv_bn(in_c, hidden, 1, 1, 0, 1, rng));
        let depthwise = conv_bn(hidden, hidden, 3, stride, 1, hidden, rng);
        let project = conv_bn(hidden, out_c, 1, 1, 0, 1, rng);
        InvertedResidual { expand, depthwise, project, use_residual: stride == 1 && in_c == out_c }
    }
}

impl Module for InvertedResidual {
    fn forward(&self, x: &Var) -> Var {
        let mut h = x.clone();
        if let Some((c, bn)) = &self.expand {
            h = bn.forward(&c.forward(&h)).relu6();
        }
        h = self.depthwise.1.forward(&self.depthwise.0.forward(&h)).relu6();
        h = self.project.1.forward(&self.project.0.forward(&h));
        if self.use_residual {
            h = h.add(x);
        }
        h
    }

    fn children(&self) -> Vec<&dyn Module> {
        let mut c: Vec<&dyn Module> = Vec::new();
        if let Some((conv, bn)) = &self.expand {
            c.extend([conv as &dyn Module, bn]);
        }
        c.extend([&self.depthwise.0 as &dyn Module, &self.depthwise.1]);
        c.extend([&self.project.0 as &dyn Module, &self.project.1]);
        c
    }
}

/// Miniaturized MobileNetV2 image classifier.
pub struct MobileNetV2 {
    stem: (Conv2d, BatchNorm2d),
    blocks: Vec<InvertedResidual>,
    head_conv: (Conv2d, BatchNorm2d),
    classifier: Linear,
}

impl MobileNetV2 {
    /// Build with the given `width` multiplier (paper variants: 0.8 and
    /// 0.6). Accepts any `img` divisible by 4.
    ///
    /// # Panics
    /// Panics when `img` is not divisible by 4 (two stride-2 stages).
    pub fn new(in_channels: usize, num_classes: usize, img: usize, width: f32, seed: u64) -> Self {
        assert_eq!(img % 4, 0, "MobileNetV2 needs img divisible by 4, got {img}");
        let mut rng = seeded_rng(seed);
        let ch = |c: usize| -> usize { ((c as f32 * width).round() as usize).max(4) };
        let (c_stem, c1, c2, c3, c_head) = (ch(16), ch(16), ch(24), ch(32), ch(64));
        let stem = conv_bn(in_channels, c_stem, 3, 1, 1, 1, &mut rng);
        let blocks = vec![
            InvertedResidual::new(c_stem, c1, 1, 1, &mut rng),
            InvertedResidual::new(c1, c2, 2, 2, &mut rng),
            InvertedResidual::new(c2, c2, 1, 2, &mut rng),
            InvertedResidual::new(c2, c3, 2, 2, &mut rng),
            InvertedResidual::new(c3, c3, 1, 2, &mut rng),
        ];
        let head_conv = conv_bn(c3, c_head, 1, 1, 0, 1, &mut rng);
        let classifier = Linear::new(c_head, num_classes, true, &mut rng);
        MobileNetV2 { stem, blocks, head_conv, classifier }
    }
}

impl Module for MobileNetV2 {
    fn forward(&self, x: &Var) -> Var {
        let mut h = self.stem.1.forward(&self.stem.0.forward(x)).relu6();
        for b in &self.blocks {
            h = b.forward(&h);
        }
        h = self.head_conv.1.forward(&self.head_conv.0.forward(&h)).relu6();
        self.classifier.forward(&h.global_avg_pool())
    }

    fn children(&self) -> Vec<&dyn Module> {
        let mut c: Vec<&dyn Module> = vec![&self.stem.0, &self.stem.1];
        c.extend(self.blocks.iter().map(|b| b as &dyn Module));
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
        let m = MobileNetV2::new(3, 10, 16, 0.8, 1);
        let y = m.forward(&Var::constant(Tensor::zeros(&[2, 3, 16, 16])));
        assert_eq!(y.shape(), vec![2, 10]);
    }

    #[test]
    fn width_multiplier_orders_param_counts() {
        let small = MobileNetV2::new(3, 10, 16, 0.6, 1);
        let big = MobileNetV2::new(3, 10, 16, 0.8, 1);
        assert!(param_count(&small) < param_count(&big));
    }

    #[test]
    fn works_on_img8() {
        let m = MobileNetV2::new(3, 10, 8, 0.6, 2);
        let y = m.forward(&Var::constant(Tensor::zeros(&[1, 3, 8, 8])));
        assert_eq!(y.shape(), vec![1, 10]);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let m = MobileNetV2::new(3, 4, 8, 0.6, 3);
        let x = Var::constant(Tensor::randn(&[2, 3, 8, 8], &mut seeded_rng(4)));
        m.forward(&x).square().sum_all().backward();
        for (i, p) in m.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} received no gradient");
        }
    }
}
