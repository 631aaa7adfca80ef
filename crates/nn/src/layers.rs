//! Layer implementations.

use crate::module::{Buffer, Module};
use fedzkt_autograd::Var;
use fedzkt_tensor::{fan_in_out_conv2d, fan_in_out_linear, Init, Prng, Tensor};
use std::cell::Cell;

/// Fully connected layer `y = x Wᵀ + b` with Glorot-initialised weights
/// (`W: [out, in]`).
///
/// Forward and backward both lower to the workspace's unified GEMM layer
/// (`fedzkt_tensor::ops::gemm`) via `Var::linear` — the forward is a single
/// NT product and the backward a NN (`dX = g W`) plus a TN (`dW = gᵀ X`)
/// product, so large batches engage the row-partitioned multi-threaded
/// kernels automatically.
pub struct Linear {
    weight: Var,
    bias: Option<Var>,
}

impl Linear {
    /// Create a dense layer with Glorot-uniform weights (the paper's
    /// initialisation) and zero bias.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut Prng) -> Self {
        let (fan_in, fan_out) = fan_in_out_linear(out_features, in_features);
        let weight = Var::parameter(Init::GlorotUniform.build(
            &[out_features, in_features],
            fan_in,
            fan_out,
            rng,
        ));
        let bias = bias.then(|| Var::parameter(Tensor::zeros(&[out_features])));
        Linear { weight, bias }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.shape()[0]
    }

    /// The weight parameter, `[out_features, in_features]`.
    pub fn weight(&self) -> &Var {
        &self.weight
    }
}

impl Module for Linear {
    fn forward(&self, x: &Var) -> Var {
        x.linear(&self.weight, self.bias.as_ref())
    }

    fn params(&self) -> Vec<Var> {
        let mut p = vec![self.weight.clone()];
        p.extend(self.bias.clone());
        p
    }
}

/// Configuration for [`Conv2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride for both spatial dims.
    pub stride: usize,
    /// Zero padding for both spatial dims.
    pub pad: usize,
    /// Channel groups (`in_channels` for depthwise).
    pub groups: usize,
    /// Whether to add a per-channel bias.
    pub bias: bool,
}

impl Default for Conv2dConfig {
    fn default() -> Self {
        Conv2dConfig {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            pad: 1,
            groups: 1,
            bias: true,
        }
    }
}

/// 2-D convolution layer over NCHW batches.
pub struct Conv2d {
    weight: Var,
    bias: Option<Var>,
    stride: usize,
    pad: usize,
    groups: usize,
}

impl Conv2d {
    /// Create a convolution layer with Glorot-uniform kernels.
    ///
    /// # Panics
    /// Panics when `groups` does not divide both channel counts.
    pub fn new(cfg: Conv2dConfig, rng: &mut Prng) -> Self {
        assert!(
            cfg.groups > 0
                && cfg.in_channels.is_multiple_of(cfg.groups)
                && cfg.out_channels.is_multiple_of(cfg.groups),
            "groups {} must divide in {} and out {}",
            cfg.groups,
            cfg.in_channels,
            cfg.out_channels
        );
        let cpg = cfg.in_channels / cfg.groups;
        let (fan_in, fan_out) = fan_in_out_conv2d(cfg.out_channels, cpg, cfg.kernel, cfg.kernel);
        let weight = Var::parameter(Init::GlorotUniform.build(
            &[cfg.out_channels, cpg, cfg.kernel, cfg.kernel],
            fan_in,
            fan_out,
            rng,
        ));
        let bias = cfg.bias.then(|| Var::parameter(Tensor::zeros(&[cfg.out_channels])));
        Conv2d { weight, bias, stride: cfg.stride, pad: cfg.pad, groups: cfg.groups }
    }
}

impl Module for Conv2d {
    fn forward(&self, x: &Var) -> Var {
        let y = x.conv2d(&self.weight, self.stride, self.pad, self.groups);
        match &self.bias {
            Some(b) => y.add_channel_bias(b),
            None => y,
        }
    }

    fn params(&self) -> Vec<Var> {
        let mut p = vec![self.weight.clone()];
        p.extend(self.bias.clone());
        p
    }
}

/// Batch normalisation over NCHW batches with running statistics.
///
/// **Deviation from PyTorch, recorded rather than fixed.** Training mode
/// folds the *biased* batch variance (divided by `m = N·H·W`) into
/// `running_var`. PyTorch's `BatchNorm2d` folds the unbiased one, larger by
/// `m / (m − 1)`: +0.35 % at a 32×3×3 batch. Eval mode, which the teachers
/// run in, normalises with these running statistics, so changing this moves
/// result bits. It is left for the one regeneration that changes FedZKT's
/// artifacts on purpose.
pub struct BatchNorm2d {
    gamma: Var,
    beta: Var,
    running_mean: Buffer,
    running_var: Buffer,
    momentum: f32,
    eps: f32,
    training: Cell<bool>,
}

impl BatchNorm2d {
    /// Create a batch-norm layer for `channels` channels with PyTorch
    /// defaults (`momentum = 0.1`, `eps = 1e-5`).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Var::parameter(Tensor::ones(&[channels])),
            beta: Var::parameter(Tensor::zeros(&[channels])),
            running_mean: Buffer::new(Tensor::zeros(&[channels])),
            running_var: Buffer::new(Tensor::ones(&[channels])),
            momentum: 0.1,
            eps: 1e-5,
            training: Cell::new(true),
        }
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, x: &Var) -> Var {
        if self.training.get() {
            let (y, batch_mean, batch_var) =
                x.batch_norm2d_train(&self.gamma, &self.beta, self.eps);
            self.running_mean.ema_update(&batch_mean, self.momentum);
            self.running_var.ema_update(&batch_var, self.momentum);
            y
        } else {
            x.batch_norm2d_eval(
                &self.gamma,
                &self.beta,
                &self.running_mean.get(),
                &self.running_var.get(),
                self.eps,
            )
        }
    }

    fn params(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn buffers(&self) -> Vec<Buffer> {
        vec![self.running_mean.clone(), self.running_var.clone()]
    }

    fn set_training(&self, training: bool) {
        self.training.set(training);
    }
}

/// A stateless activation layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `max(x, 0)`.
    Relu,
    /// `min(max(x, 0), 6)` (MobileNetV2).
    Relu6,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Module for Activation {
    fn forward(&self, x: &Var) -> Var {
        match self {
            Activation::Relu => x.relu(),
            Activation::Relu6 => x.relu6(),
            Activation::LeakyRelu(s) => x.leaky_relu(*s),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
        }
    }
}

/// Max pooling layer with a square window.
#[derive(Debug, Clone, Copy)]
pub struct MaxPool2d {
    /// Window size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
}

impl Module for MaxPool2d {
    fn forward(&self, x: &Var) -> Var {
        x.max_pool2d(self.kernel, self.stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{load_state_dict, state_dict};
    use fedzkt_tensor::seeded_rng;

    #[test]
    fn linear_shapes() {
        let mut rng = seeded_rng(1);
        let l = Linear::new(5, 3, true, &mut rng);
        assert_eq!((l.in_features(), l.out_features()), (5, 3));
        let y = l.forward(&Var::constant(Tensor::zeros(&[4, 5])));
        assert_eq!(y.shape(), vec![4, 3]);
    }

    #[test]
    fn conv_layer_shapes() {
        let mut rng = seeded_rng(2);
        let c = Conv2d::new(
            Conv2dConfig { in_channels: 3, out_channels: 8, kernel: 3, stride: 2, pad: 1, groups: 1, bias: true },
            &mut rng,
        );
        let y = c.forward(&Var::constant(Tensor::zeros(&[2, 3, 8, 8])));
        assert_eq!(y.shape(), vec![2, 8, 4, 4]);
    }

    #[test]
    fn depthwise_conv_layer() {
        let mut rng = seeded_rng(3);
        let c = Conv2d::new(
            Conv2dConfig { in_channels: 4, out_channels: 4, kernel: 3, stride: 1, pad: 1, groups: 4, bias: false },
            &mut rng,
        );
        assert_eq!(c.params().len(), 1);
        assert_eq!(c.params()[0].shape(), vec![4, 1, 3, 3]);
        let y = c.forward(&Var::constant(Tensor::zeros(&[1, 4, 5, 5])));
        assert_eq!(y.shape(), vec![1, 4, 5, 5]);
    }

    #[test]
    fn batchnorm_train_updates_running_stats() {
        let bn = BatchNorm2d::new(2);
        let x = Var::constant(Tensor::full(&[4, 2, 3, 3], 5.0));
        let before = bn.buffers()[0].get();
        assert_eq!(before.data(), &[0.0, 0.0]);
        let _ = bn.forward(&x);
        let after = bn.buffers()[0].get();
        // EMA moved 10% toward the batch mean of 5.
        assert!((after.data()[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn batchnorm_eval_does_not_update_stats() {
        let bn = BatchNorm2d::new(2);
        bn.set_training(false);
        let x = Var::constant(Tensor::full(&[4, 2, 3, 3], 5.0));
        let _ = bn.forward(&x);
        assert_eq!(bn.buffers()[0].get().data(), &[0.0, 0.0]);
    }

    #[test]
    fn batchnorm_statedict_includes_buffers() {
        let a = BatchNorm2d::new(3);
        let _ = a.forward(&Var::constant(Tensor::randn(&[4, 3, 2, 2], &mut seeded_rng(9))));
        let b = BatchNorm2d::new(3);
        load_state_dict(&b, &state_dict(&a)).unwrap();
        assert_eq!(a.buffers()[0].get(), b.buffers()[0].get());
        assert_eq!(a.buffers()[1].get(), b.buffers()[1].get());
    }

    #[test]
    fn pooling_layers_shapes() {
        let x = Var::constant(Tensor::zeros(&[1, 2, 8, 8]));
        assert_eq!(MaxPool2d { kernel: 2, stride: 2 }.forward(&x).shape(), vec![1, 2, 4, 4]);
    }
}
