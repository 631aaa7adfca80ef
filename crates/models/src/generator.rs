//! The server-side generator for zero-shot knowledge distillation.
//!
//! FedZKT's server learns a generative model `G(z; θ)` adversarially against
//! the global model (Eq. 2) to synthesize the inputs on which knowledge is
//! transferred, replacing the public dataset / pre-trained generator of
//! prior work. The architecture follows the data-free distillation
//! literature the paper cites ([33], [34]): a dense projection from the
//! noise vector, then upsample–conv–BN–LeakyReLU blocks, with a `tanh`
//! output so images live in `[-1, 1]` (the range of the synthetic
//! datasets).

use fedzkt_autograd::Var;
use fedzkt_nn::{BatchNorm2d, Buffer, Conv2d, Conv2dConfig, Linear, Module};
use fedzkt_tensor::{seeded_rng, Prng, Tensor};

/// Configuration for [`Generator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorSpec {
    /// Dimension of the Gaussian noise input `z`.
    pub z_dim: usize,
    /// Base feature-map width.
    pub ngf: usize,
}

impl Default for GeneratorSpec {
    fn default() -> Self {
        GeneratorSpec { z_dim: 64, ngf: 16 }
    }
}

impl GeneratorSpec {
    /// Build a generator producing `[N, out_channels, img, img]` images.
    ///
    /// # Panics
    /// Panics when `img` is not divisible by 4 (two 2× upsampling stages).
    pub fn build(&self, out_channels: usize, img: usize, seed: u64) -> Generator {
        Generator::new(*self, out_channels, img, seed)
    }
}

/// Noise-to-image generator `G(z; θ)`.
pub struct Generator {
    fc: Linear,
    bn0: BatchNorm2d,
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    conv3: Conv2d,
    z_dim: usize,
    c0: usize,
    h0: usize,
}

impl Generator {
    /// Build a generator; see [`GeneratorSpec::build`].
    ///
    /// # Panics
    /// Panics when `img` is not divisible by 4.
    pub fn new(spec: GeneratorSpec, out_channels: usize, img: usize, seed: u64) -> Self {
        assert_eq!(img % 4, 0, "generator needs img divisible by 4, got {img}");
        let mut rng: Prng = seeded_rng(seed);
        let h0 = img / 4;
        let c0 = spec.ngf * 2;
        let conv = |in_c: usize, out_c: usize, rng: &mut Prng| {
            Conv2d::new(
                Conv2dConfig {
                    in_channels: in_c,
                    out_channels: out_c,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    groups: 1,
                    bias: true,
                },
                rng,
            )
        };
        Generator {
            fc: Linear::new(spec.z_dim, c0 * h0 * h0, true, &mut rng),
            bn0: BatchNorm2d::new(c0),
            conv1: conv(c0, spec.ngf * 2, &mut rng),
            bn1: BatchNorm2d::new(spec.ngf * 2),
            conv2: conv(spec.ngf * 2, spec.ngf, &mut rng),
            bn2: BatchNorm2d::new(spec.ngf),
            conv3: conv(spec.ngf, out_channels, &mut rng),
            z_dim: spec.z_dim,
            c0,
            h0,
        }
    }

    /// Noise dimension this generator expects.
    pub fn z_dim(&self) -> usize {
        self.z_dim
    }

    /// Sample a `[n, z_dim]` standard-normal noise batch (Alg. 3, line 4).
    pub fn sample_z(&self, n: usize, rng: &mut Prng) -> Tensor {
        Tensor::randn(&[n, self.z_dim], rng)
    }
}

impl Module for Generator {
    /// Map a noise batch `[N, z_dim]` to images `[N, C, img, img]` in
    /// `[-1, 1]`.
    fn forward(&self, z: &Var) -> Var {
        let n = z.shape()[0];
        let h = self.fc.forward(z).reshape(&[n, self.c0, self.h0, self.h0]);
        let h = self.bn0.forward(&h).leaky_relu(0.2);
        let h = h.upsample_nearest2d(2);
        let h = self.bn1.forward(&self.conv1.forward(&h)).leaky_relu(0.2);
        let h = h.upsample_nearest2d(2);
        let h = self.bn2.forward(&self.conv2.forward(&h)).leaky_relu(0.2);
        self.conv3.forward(&h).tanh()
    }

    fn params(&self) -> Vec<Var> {
        [
            self.fc.params(),
            self.bn0.params(),
            self.conv1.params(),
            self.bn1.params(),
            self.conv2.params(),
            self.bn2.params(),
            self.conv3.params(),
        ]
        .concat()
    }

    fn buffers(&self) -> Vec<Buffer> {
        [self.bn0.buffers(), self.bn1.buffers(), self.bn2.buffers()].concat()
    }

    fn set_training(&self, training: bool) {
        self.bn0.set_training(training);
        self.bn1.set_training(training);
        self.bn2.set_training(training);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_images_in_tanh_range() {
        let g = GeneratorSpec::default().build(3, 16, 1);
        let mut rng = seeded_rng(2);
        let z = Var::constant(g.sample_z(4, &mut rng));
        let imgs = g.forward(&z);
        assert_eq!(imgs.shape(), vec![4, 3, 16, 16]);
        assert!(imgs.value().data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn grayscale_small_image() {
        let g = GeneratorSpec { z_dim: 16, ngf: 8 }.build(1, 8, 3);
        let mut rng = seeded_rng(4);
        let z = Var::constant(g.sample_z(2, &mut rng));
        assert_eq!(g.forward(&z).shape(), vec![2, 1, 8, 8]);
    }

    #[test]
    fn gradients_flow_from_output_to_noise_and_params() {
        let g = GeneratorSpec { z_dim: 8, ngf: 4 }.build(1, 8, 5);
        let mut rng = seeded_rng(6);
        let z = Var::parameter(g.sample_z(2, &mut rng));
        g.forward(&z).square().sum_all().backward();
        assert!(z.grad().is_some(), "no gradient into the noise");
        for (i, p) in g.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} received no gradient");
        }
    }

    #[test]
    fn different_noise_gives_different_images() {
        let g = GeneratorSpec::default().build(1, 12, 7);
        let mut rng = seeded_rng(8);
        let a = g.forward(&Var::constant(g.sample_z(1, &mut rng))).value_clone();
        let b = g.forward(&Var::constant(g.sample_z(1, &mut rng))).value_clone();
        assert_ne!(a.data(), b.data());
    }
}
