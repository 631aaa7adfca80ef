//! Simple architectures: a small CNN, a fully connected network and the
//! LeNet-like family.

use fedzkt_autograd::Var;
use fedzkt_nn::{BatchNorm2d, Conv2d, Conv2dConfig, Linear, MaxPool2d, Module};
use fedzkt_tensor::{seeded_rng, Prng};

fn conv(
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    rng: &mut Prng,
) -> Conv2d {
    Conv2d::new(
        Conv2dConfig {
            in_channels: in_c,
            out_channels: out_c,
            kernel,
            stride,
            pad,
            groups: 1,
            bias: true,
        },
        rng,
    )
}

/// A compact two-block CNN (conv-BN-ReLU-pool ×2 plus a dense head), the
/// "CNN model" of the paper's small-dataset zoo.
pub struct SmallCnn {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    pool: MaxPool2d,
    head: Linear,
}

impl SmallCnn {
    /// Build for `in_channels`×`img`×`img` inputs and `num_classes` outputs.
    /// `base_channels` scales the width.
    ///
    /// # Panics
    /// Panics when `img` is not divisible by 4 (two 2× poolings).
    pub fn new(
        in_channels: usize,
        num_classes: usize,
        img: usize,
        base_channels: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(img % 4, 0, "SmallCnn needs img divisible by 4, got {img}");
        let mut rng = seeded_rng(seed);
        let c1 = base_channels;
        let c2 = base_channels * 2;
        let feat = c2 * (img / 4) * (img / 4);
        SmallCnn {
            conv1: conv(in_channels, c1, 3, 1, 1, &mut rng),
            bn1: BatchNorm2d::new(c1),
            conv2: conv(c1, c2, 3, 1, 1, &mut rng),
            bn2: BatchNorm2d::new(c2),
            pool: MaxPool2d { kernel: 2, stride: 2 },
            head: Linear::new(feat, num_classes, true, &mut rng),
        }
    }
}

impl Module for SmallCnn {
    fn forward(&self, x: &Var) -> Var {
        let h = self.pool.forward(&self.bn1.forward(&self.conv1.forward(x)).relu());
        let h = self.pool.forward(&self.bn2.forward(&self.conv2.forward(&h)).relu());
        self.head.forward(&h.flatten_batch())
    }

    fn children(&self) -> Vec<&dyn Module> {
        vec![&self.conv1, &self.bn1, &self.conv2, &self.bn2, &self.pool, &self.head]
    }
}

/// A fully connected network (flatten → hidden ReLU layers → logits), the
/// "Fully-Connected Model" of the paper's small-dataset zoo.
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
    head: Linear,
}

impl Mlp {
    /// Build with hidden widths `hidden` and `hidden / 2`.
    pub fn new(
        in_channels: usize,
        num_classes: usize,
        img: usize,
        hidden: usize,
        seed: u64,
    ) -> Self {
        let mut rng = seeded_rng(seed);
        let input = in_channels * img * img;
        Mlp {
            fc1: Linear::new(input, hidden, true, &mut rng),
            fc2: Linear::new(hidden, (hidden / 2).max(1), true, &mut rng),
            head: Linear::new((hidden / 2).max(1), num_classes, true, &mut rng),
        }
    }
}

impl Module for Mlp {
    fn forward(&self, x: &Var) -> Var {
        let h = self.fc1.forward(&x.flatten_batch()).relu();
        let h = self.fc2.forward(&h).relu();
        self.head.forward(&h)
    }

    fn children(&self) -> Vec<&dyn Module> {
        vec![&self.fc1, &self.fc2, &self.head]
    }
}

/// LeNet-like model: two 5×5 convolutions with pooling and a dense head,
/// with a width multiplier (`scale`) and an optional extra dense layer —
/// the three "LeNet-like models with different channel sizes and numbers
/// of layers" of §IV-A2, and Model E of Table V.
pub struct LeNet {
    conv1: Conv2d,
    conv2: Conv2d,
    pool: MaxPool2d,
    fc1: Linear,
    fc2: Option<Linear>,
    head: Linear,
}

impl LeNet {
    /// Build with channel widths `6·scale` / `16·scale` (minimum 2) and,
    /// when `deep`, an extra 84-unit dense layer (the classic LeNet-5
    /// head).
    ///
    /// # Panics
    /// Panics when `img` is not divisible by 4.
    pub fn new(
        in_channels: usize,
        num_classes: usize,
        img: usize,
        scale: f32,
        deep: bool,
        seed: u64,
    ) -> Self {
        assert_eq!(img % 4, 0, "LeNet needs img divisible by 4, got {img}");
        let mut rng = seeded_rng(seed);
        let c1 = ((6.0 * scale) as usize).max(2);
        let c2 = ((16.0 * scale) as usize).max(2);
        let f1 = ((120.0 * scale) as usize).max(8);
        let f2 = ((84.0 * scale) as usize).max(8);
        let feat = c2 * (img / 4) * (img / 4);
        LeNet {
            conv1: conv(in_channels, c1, 5, 1, 2, &mut rng),
            conv2: conv(c1, c2, 5, 1, 2, &mut rng),
            pool: MaxPool2d { kernel: 2, stride: 2 },
            fc1: Linear::new(feat, f1, true, &mut rng),
            fc2: deep.then(|| Linear::new(f1, f2, true, &mut rng)),
            head: Linear::new(if deep { f2 } else { f1 }, num_classes, true, &mut rng),
        }
    }
}

impl Module for LeNet {
    fn forward(&self, x: &Var) -> Var {
        let h = self.pool.forward(&self.conv1.forward(x).relu());
        let h = self.pool.forward(&self.conv2.forward(&h).relu());
        let mut h = self.fc1.forward(&h.flatten_batch()).relu();
        if let Some(fc2) = &self.fc2 {
            h = fc2.forward(&h).relu();
        }
        self.head.forward(&h)
    }

    fn children(&self) -> Vec<&dyn Module> {
        let mut c: Vec<&dyn Module> = vec![&self.conv1, &self.conv2, &self.pool, &self.fc1];
        if let Some(fc2) = &self.fc2 {
            c.push(fc2);
        }
        c.push(&self.head);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_autograd::loss::cross_entropy;
    use fedzkt_nn::{param_count, Optimizer, Sgd, SgdConfig};
    use fedzkt_tensor::Tensor;

    #[test]
    fn small_cnn_forward_shape() {
        let m = SmallCnn::new(1, 10, 16, 4, 1);
        let y = m.forward(&Var::constant(Tensor::zeros(&[3, 1, 16, 16])));
        assert_eq!(y.shape(), vec![3, 10]);
    }

    #[test]
    fn mlp_forward_shape() {
        let m = Mlp::new(1, 10, 12, 32, 2);
        let y = m.forward(&Var::constant(Tensor::zeros(&[2, 1, 12, 12])));
        assert_eq!(y.shape(), vec![2, 10]);
    }

    /// The FedGKT zero-sample device: an `n = 0` batch flows through the
    /// dense stack forward and backward, leaving every gradient zero.
    #[test]
    fn mlp_trains_an_empty_batch() {
        let m = Mlp::new(1, 10, 4, 8, 1);
        let y = m.forward(&Var::constant(Tensor::zeros(&[0, 1, 4, 4])));
        assert_eq!(y.shape(), vec![0, 10]);
        y.sum_all().backward();
        for p in m.params() {
            assert!(p.grad().unwrap().data().iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn lenet_depth_and_width_vary_param_count() {
        let shallow_small = LeNet::new(1, 10, 16, 0.5, false, 3);
        let shallow_big = LeNet::new(1, 10, 16, 1.0, false, 3);
        let deep_big = LeNet::new(1, 10, 16, 1.0, true, 3);
        let a = param_count(&shallow_small);
        let b = param_count(&shallow_big);
        let c = param_count(&deep_big);
        assert!(a < b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn lenet_forward_rgb() {
        let m = LeNet::new(3, 10, 16, 1.0, true, 4);
        let y = m.forward(&Var::constant(Tensor::zeros(&[2, 3, 16, 16])));
        assert_eq!(y.shape(), vec![2, 10]);
    }

    #[test]
    fn small_cnn_overfits_two_points() {
        // The smoke test of the whole stack: a tiny CNN must be able to
        // memorise two labelled images.
        let m = SmallCnn::new(1, 2, 8, 3, 5);
        let mut rng = seeded_rng(6);
        let x = Tensor::randn(&[2, 1, 8, 8], &mut rng);
        let labels = [0usize, 1];
        let opt = Sgd::new(m.params(), SgdConfig { lr: 0.1, momentum: 0.9, ..Default::default() });
        let mut last = f32::INFINITY;
        for _ in 0..60 {
            opt.zero_grad();
            let loss = cross_entropy(&m.forward(&Var::constant(x.clone())), &labels);
            last = loss.value().item();
            loss.backward();
            opt.step();
        }
        assert!(last < 0.1, "did not overfit: loss {last}");
    }
}
