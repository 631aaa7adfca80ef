//! Synthetic class-conditional image families.
//!
//! Each family defines a deterministic per-class *prototype* image (from a
//! seeded RNG) and samples are prototypes under random translation,
//! intensity jitter and pixel noise, clamped to `[-1, 1]`. Families differ
//! in their generative processes, which controls *cross-family transfer*:
//!
//! | family | process | role in the paper |
//! |---|---|---|
//! | `MnistLike` | smooth stroke blobs, 1 channel, high SNR | MNIST |
//! | `KmnistLike` | angular multi-stroke blobs, 1 channel | KMNIST |
//! | `FashionLike` | rectangular silhouettes, 1 channel | FASHION |
//! | `Cifar10Like` | low-frequency color fields + blobs, 3 channels | CIFAR-10 |
//! | `Cifar100Like` | **mixtures of `Cifar10Like` prototypes** (correlated) | CIFAR-100 public |
//! | `SvhnLike` | high-contrast stripe/digit grid (disjoint stats) | SVHN public |

use crate::Dataset;
use fedzkt_tensor::{seeded_rng, split_seed, standard_normal, Prng, Tensor};
use rand::{RngCore, RngExt};
use std::sync::Arc;

/// A synthetic dataset family standing in for one of the paper's corpora.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataFamily {
    /// MNIST stand-in: smooth single-stroke grayscale digits.
    MnistLike,
    /// KMNIST stand-in: angular multi-stroke grayscale glyphs.
    KmnistLike,
    /// FASHION-MNIST stand-in: rectangular grayscale silhouettes.
    FashionLike,
    /// CIFAR-10 stand-in: low-frequency color textures.
    Cifar10Like,
    /// CIFAR-100 stand-in: correlated mixtures of CIFAR-10-like classes
    /// (similar distribution — the "good" public dataset).
    Cifar100Like,
    /// SVHN stand-in: saturated stripe/digit patterns from a disjoint
    /// process (the "bad" public dataset).
    SvhnLike,
}

impl DataFamily {
    /// Image channel count (1 for the grayscale families, 3 otherwise).
    pub fn channels(&self) -> usize {
        match self {
            DataFamily::MnistLike | DataFamily::KmnistLike | DataFamily::FashionLike => 1,
            _ => 3,
        }
    }

    /// Default class count: 10 everywhere except the CIFAR-100 stand-in,
    /// which uses 20 (a scaled-down "many more classes than the private
    /// task" regime).
    pub fn default_classes(&self) -> usize {
        match self {
            DataFamily::Cifar100Like => 20,
            _ => 10,
        }
    }

    /// Default pixel-noise level: the color families are harder.
    pub fn default_noise(&self) -> f32 {
        match self {
            DataFamily::MnistLike => 0.25,
            DataFamily::KmnistLike | DataFamily::FashionLike => 0.35,
            DataFamily::Cifar10Like | DataFamily::Cifar100Like => 0.5,
            DataFamily::SvhnLike => 0.4,
        }
    }

    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            DataFamily::MnistLike => "MNIST",
            DataFamily::KmnistLike => "KMNIST",
            DataFamily::FashionLike => "FASHION",
            DataFamily::Cifar10Like => "CIFAR-10",
            DataFamily::Cifar100Like => "CIFAR-100",
            DataFamily::SvhnLike => "SVHN",
        }
    }

    /// Deterministic per-class prototype image, independent of the
    /// dataset-generation seed (class identity is a property of the family,
    /// not of a particular sampled dataset).
    fn prototype(&self, class: usize, img: usize) -> Vec<f32> {
        let channels = self.channels();
        match self {
            DataFamily::MnistLike => {
                let mut rng = seeded_rng(split_seed(0x11AA, class as u64));
                stroke_blobs(img, 4, 2.2, &mut rng)
            }
            DataFamily::KmnistLike => {
                let mut rng = seeded_rng(split_seed(0x22BB, class as u64));
                let a = stroke_blobs(img, 3, 1.4, &mut rng);
                let b = stroke_blobs(img, 3, 1.4, &mut rng);
                a.iter().zip(&b).map(|(x, y)| (x + y).clamp(-1.0, 1.0)).collect()
            }
            DataFamily::FashionLike => {
                let mut rng = seeded_rng(split_seed(0x33CC, class as u64));
                rect_silhouette(img, &mut rng)
            }
            DataFamily::Cifar10Like => {
                let mut rng = seeded_rng(split_seed(0x44DD, class as u64));
                color_field(img, channels, &mut rng)
            }
            DataFamily::Cifar100Like => {
                // Correlated with Cifar10Like (same generative process,
                // overlapping texture manifold) but a *different labelled
                // task*: each public class blends two scrambled base
                // classes with a substantial unique component, so public
                // labels are not a relabelling of the private ones.
                let base_a = DataFamily::Cifar10Like.prototype((class * 7 + 3) % 10, img);
                let base_b = DataFamily::Cifar10Like.prototype((class * 3 + 1) % 10, img);
                let mut rng = seeded_rng(split_seed(0x55EE, class as u64));
                let unique = color_field(img, channels, &mut rng);
                base_a
                    .iter()
                    .zip(&base_b)
                    .zip(&unique)
                    .map(|((a, b), u)| (0.35 * a + 0.2 * b + 0.45 * u).clamp(-1.0, 1.0))
                    .collect()
            }
            DataFamily::SvhnLike => {
                let mut rng = seeded_rng(split_seed(0x66FF, class as u64));
                stripe_digits(img, channels, class, &mut rng)
            }
        }
    }
}

/// Smooth stroke: a chain of Gaussian bumps along a random walk.
fn stroke_blobs(img: usize, bumps: usize, sigma: f32, rng: &mut Prng) -> Vec<f32> {
    let mut out = vec![-1.0f32; img * img];
    let mut cx = rng.random::<f32>() * img as f32 * 0.6 + img as f32 * 0.2;
    let mut cy = rng.random::<f32>() * img as f32 * 0.6 + img as f32 * 0.2;
    for _ in 0..bumps {
        for y in 0..img {
            for x in 0..img {
                let d2 = (x as f32 - cx).powi(2) + (y as f32 - cy).powi(2);
                let v = 2.0 * (-d2 / (2.0 * sigma * sigma)).exp();
                out[y * img + x] = (out[y * img + x] + v).min(1.0);
            }
        }
        cx = (cx + (rng.random::<f32>() - 0.5) * img as f32 * 0.5)
            .clamp(1.0, img as f32 - 2.0);
        cy = (cy + (rng.random::<f32>() - 0.5) * img as f32 * 0.5)
            .clamp(1.0, img as f32 - 2.0);
    }
    out
}

/// Rectangular silhouette with soft edges (clothing-like).
fn rect_silhouette(img: usize, rng: &mut Prng) -> Vec<f32> {
    let mut out = vec![-1.0f32; img * img];
    let rects = 2 + (rng.random::<u32>() % 2) as usize;
    for _ in 0..rects {
        let x0 = rng.random_range(0..img / 2);
        let y0 = rng.random_range(0..img / 2);
        let w = rng.random_range(img / 4..img / 2 + 1);
        let h = rng.random_range(img / 4..img / 2 + 1);
        let level = 0.4 + rng.random::<f32>() * 0.6;
        for y in y0..(y0 + h).min(img) {
            for x in x0..(x0 + w).min(img) {
                out[y * img + x] = (out[y * img + x] + level * 1.6).min(1.0);
            }
        }
    }
    out
}

/// Low-frequency per-channel sinusoid field plus blobs (CIFAR-ish texture).
fn color_field(img: usize, channels: usize, rng: &mut Prng) -> Vec<f32> {
    let mut out = vec![0.0f32; channels * img * img];
    for c in 0..channels {
        let fx = 0.5 + rng.random::<f32>() * 1.5;
        let fy = 0.5 + rng.random::<f32>() * 1.5;
        let phase_x = rng.random::<f32>() * std::f32::consts::TAU;
        let phase_y = rng.random::<f32>() * std::f32::consts::TAU;
        let amp = 0.5 + rng.random::<f32>() * 0.5;
        let plane = &mut out[c * img * img..(c + 1) * img * img];
        for y in 0..img {
            for x in 0..img {
                let v = amp
                    * ((x as f32 / img as f32 * fx * std::f32::consts::TAU + phase_x).sin()
                        + (y as f32 / img as f32 * fy * std::f32::consts::TAU + phase_y).sin())
                    / 2.0;
                plane[y * img + x] = v;
            }
        }
        // One blob per channel for localised structure.
        let cx = rng.random::<f32>() * img as f32;
        let cy = rng.random::<f32>() * img as f32;
        let sign = if rng.random::<f32>() > 0.5 { 1.0 } else { -1.0 };
        for y in 0..img {
            for x in 0..img {
                let d2 = (x as f32 - cx).powi(2) + (y as f32 - cy).powi(2);
                plane[y * img + x] =
                    (plane[y * img + x] + sign * (-d2 / (img as f32)).exp()).clamp(-1.0, 1.0);
            }
        }
    }
    out
}

/// Saturated stripe/digit grid — deliberately different pixel statistics
/// from [`color_field`] (hard edges, near-binary values, strong vertical
/// structure).
fn stripe_digits(img: usize, channels: usize, class: usize, rng: &mut Prng) -> Vec<f32> {
    let mut out = vec![0.0f32; channels * img * img];
    // Narrow periods keep the energy in high spatial frequencies, which is
    // what separates this family from the smooth low-frequency
    // [`color_field`] manifold even on tiny images.
    let period = 1 + class % 3;
    let bg = if rng.random::<f32>() > 0.5 { 0.9 } else { -0.9 };
    for c in 0..channels {
        let flip = if (c + class).is_multiple_of(2) { 1.0 } else { -1.0 };
        let plane = &mut out[c * img * img..(c + 1) * img * img];
        for y in 0..img {
            for x in 0..img {
                let stripe: f32 = if (x / period).is_multiple_of(2) { 1.0 } else { -1.0 };
                plane[y * img + x] = (bg * flip * stripe).clamp(-1.0, 1.0);
            }
        }
        // A class-dependent solid block (digit-ish marker).
        let bx = (class * 3) % (img / 2).max(1);
        let by = (class * 5) % (img / 2).max(1);
        for y in by..(by + img / 3).min(img) {
            for x in bx..(bx + img / 3).min(img) {
                plane[y * img + x] = -bg;
            }
        }
    }
    out
}

/// Configuration for synthetic dataset generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Which family to draw from.
    pub family: DataFamily,
    /// Image side length (must be divisible by 4 for the model zoo).
    pub img: usize,
    /// Number of training samples.
    pub train_n: usize,
    /// Number of test samples.
    pub test_n: usize,
    /// Override the class count (0 = family default).
    pub classes: usize,
    /// Override the pixel-noise standard deviation (negative = family
    /// default).
    pub noise_std: f32,
    /// Seed for sampling (prototypes are seed-independent).
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            family: DataFamily::MnistLike,
            img: 16,
            train_n: 1024,
            test_n: 512,
            classes: 0,
            noise_std: -1.0,
            seed: 0,
        }
    }
}

impl SynthConfig {
    /// Effective class count.
    pub fn num_classes(&self) -> usize {
        if self.classes == 0 {
            self.family.default_classes()
        } else {
            self.classes
        }
    }

    /// Generate `(train, test)` datasets with balanced class frequencies,
    /// every sample synthesized up front.
    ///
    /// Each split draws from its own RNG stream (`split_seed(seed, 1)` for
    /// train, `split_seed(seed, 2)` for test), one sample after another:
    /// sample `i` consumes exactly the words `[W·i, W·(i+1))` of its
    /// split's stream, where `W = 5 + 2·C·img²` (2 words each for the
    /// `dx`/`dy` shift, 1 for the gain, 2 per pixel for the noise).
    /// [`Corpus`] relies on that layout to synthesize any sample alone.
    pub fn generate(&self) -> (Dataset, Dataset) {
        let kernel = Kernel::new(self);
        let train = kernel.generate(self.train_n, split_seed(self.seed, 1));
        let test = kernel.generate(self.test_n, split_seed(self.seed, 2));
        (train, test)
    }

    /// [`SynthConfig::generate`] with the training split as an on-demand
    /// [`Corpus`]: its samples are synthesized when first asked for,
    /// bit-identical to the eager split's. The test split is eager.
    pub fn generate_corpus(&self) -> (Corpus, Dataset) {
        let kernel = Kernel::new(self);
        let test = kernel.generate(self.test_n, split_seed(self.seed, 2));
        (Corpus::new(kernel, self.train_n, split_seed(self.seed, 1)), test)
    }
}

/// RNG words between two generator states a [`Corpus`] saves. A sample
/// that is not the first of its block is reached by skipping fewer words
/// than this, whatever the geometry; a sample wider than this gets a saved
/// state of its own.
const STATE_EVERY_WORDS: usize = 1024;

/// One split's per-sample synthesis: the class prototypes and the noise
/// level, shared by the eager splits and the [`Corpus`].
#[derive(Debug, Clone)]
struct Kernel {
    img: usize,
    channels: usize,
    noise: f32,
    prototypes: Vec<Vec<f32>>,
}

impl Kernel {
    fn new(cfg: &SynthConfig) -> Self {
        let (family, img) = (cfg.family, cfg.img);
        let noise = if cfg.noise_std < 0.0 { family.default_noise() } else { cfg.noise_std };
        Kernel {
            img,
            channels: family.channels(),
            noise,
            prototypes: (0..cfg.num_classes()).map(|c| family.prototype(c, img)).collect(),
        }
    }

    fn classes(&self) -> usize {
        self.prototypes.len()
    }

    /// Floats in one image.
    fn sample_len(&self) -> usize {
        self.channels * self.img * self.img
    }

    /// RNG words one sample consumes (`W`, see [`SynthConfig::generate`]).
    fn words(&self) -> usize {
        5 + 2 * self.sample_len()
    }

    /// `[n, C, img, img]` for an `n`-image batch.
    fn shape(&self, n: usize) -> [usize; 4] {
        [n, self.channels, self.img, self.img]
    }

    /// Balanced labels: sample `i` is of class `i % classes`.
    fn label(&self, i: usize) -> usize {
        i % self.classes()
    }

    /// A whole split, sample after sample from one stream.
    fn generate(&self, n: usize, seed: u64) -> Dataset {
        let mut rng = seeded_rng(seed);
        let labels: Vec<usize> = (0..n).map(|i| self.label(i)).collect();
        let mut images = Vec::with_capacity(n * self.sample_len());
        for &class in &labels {
            self.push_sample(class, &mut rng, &mut images);
        }
        let images = Tensor::from_vec(images, &self.shape(n)).expect("image batch");
        Dataset::new(images, labels, self.classes())
    }

    /// Append one sample of `class` to `out`, drawing exactly
    /// [`Kernel::words`] words from `rng`: the prototype under a random
    /// shift and gain, plus pixel noise, clamped to `[-1, 1]`.
    fn push_sample<R: RngCore>(&self, class: usize, rng: &mut R, out: &mut Vec<f32>) {
        let img = self.img;
        let proto = &self.prototypes[class];
        let dx = rng.random_range(0..5) as isize - 2;
        let dy = rng.random_range(0..5) as isize - 2;
        let gain = 0.8 + rng.random::<f32>() * 0.4;
        // Grayscale prototypes are one plane; tile across channels.
        let plane = img * img;
        for c in 0..self.channels {
            let src = if proto.len() == plane { &proto[..] } else { &proto[c * plane..(c + 1) * plane] };
            for y in 0..img {
                for x in 0..img {
                    let sx = x as isize - dx;
                    let sy = y as isize - dy;
                    let base = if sx >= 0 && sy >= 0 && (sx as usize) < img && (sy as usize) < img {
                        src[sy as usize * img + sx as usize]
                    } else {
                        -1.0
                    };
                    let v = base * gain + standard_normal(rng) * self.noise;
                    out.push(v.clamp(-1.0, 1.0));
                }
            }
        }
    }
}

/// Advance `rng` by `words` words.
fn skip(rng: &mut Prng, words: usize) {
    for _ in 0..words {
        rng.next_u64();
    }
}

/// A synthetic training split whose samples are synthesized on demand,
/// bit-identical to the eager split of [`SynthConfig::generate`].
///
/// Stream-layout contract: sample `i` occupies words `[W·i, W·(i+1))` of
/// the split's RNG stream (`W` as documented on [`SynthConfig::generate`]),
/// so the corpus keeps the generator state at the start of every block of
/// samples spanning about [`STATE_EVERY_WORDS`] words — found by one pass
/// that only advances the generator — and reaches sample `i` by restoring
/// the state at or before it and skipping `W·(i − start)` words. Labels
/// are held as they are in a [`Dataset`]. Clones share the labels and
/// states.
#[derive(Debug, Clone)]
pub struct Corpus {
    kernel: Kernel,
    labels: Arc<[usize]>,
    /// `states[b]` is the generator at the start of sample `b · block`.
    states: Arc<[[u64; 4]]>,
    /// Samples per saved state.
    block: usize,
}

impl Corpus {
    fn new(kernel: Kernel, n: usize, seed: u64) -> Self {
        let block = (STATE_EVERY_WORDS / kernel.words()).max(1);
        let blocks = n.div_ceil(block);
        let mut rng = seeded_rng(seed);
        let mut states = Vec::with_capacity(blocks);
        for b in 0..blocks {
            states.push(rng.state());
            if b + 1 < blocks {
                skip(&mut rng, block * kernel.words());
            }
        }
        Corpus {
            labels: (0..n).map(|i| kernel.label(i)).collect(),
            states: states.into(),
            block,
            kernel,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the corpus has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.kernel.classes()
    }

    /// Image channel count.
    pub fn channels(&self) -> usize {
        self.kernel.channels
    }

    /// Image side length (images are square).
    pub fn img_size(&self) -> usize {
        self.kernel.img
    }

    /// Floats in one image (`C·img²`).
    pub fn sample_len(&self) -> usize {
        self.kernel.sample_len()
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Append the images of `indices`, in order, to `out`
    /// ([`Corpus::sample_len`] floats each). A run of ascending indices
    /// within one block continues the generator instead of restoring it.
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn extend_images(&self, indices: &[usize], out: &mut Vec<f32>) {
        out.reserve(indices.len() * self.sample_len());
        let words = self.kernel.words();
        // The generator, positioned at the start of sample `pos`.
        let mut cursor: Option<(Prng, usize)> = None;
        for &i in indices {
            assert!(i < self.len(), "sample {i} out of range for {} samples", self.len());
            let start = i - i % self.block;
            if !matches!(cursor, Some((_, pos)) if (start..=i).contains(&pos)) {
                cursor = Some((Prng::from_state(self.states[i / self.block]), start));
            }
            let (rng, pos) = cursor.as_mut().expect("cursor set above");
            skip(rng, (i - *pos) * words);
            self.kernel.push_sample(self.labels[i], rng, out);
            *pos = i + 1;
        }
    }

    /// Gather a mini-batch by sample indices.
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let mut images = Vec::new();
        self.extend_images(indices, &mut images);
        let shape = self.kernel.shape(indices.len());
        let images = Tensor::from_vec(images, &shape).expect("image batch");
        (images, indices.iter().map(|&i| self.labels[i]).collect())
    }

    /// A dataset of the given samples (a device shard).
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let (images, labels) = self.batch(indices);
        Dataset::new(images, labels, self.num_classes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_sizes() {
        let cfg = SynthConfig {
            family: DataFamily::Cifar10Like,
            img: 8,
            train_n: 20,
            test_n: 10,
            seed: 3,
            ..Default::default()
        };
        let (train, test) = cfg.generate();
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 10);
        assert_eq!(train.channels(), 3);
        assert_eq!(train.img_size(), 8);
    }

    #[test]
    fn images_live_in_unit_range() {
        for family in [
            DataFamily::MnistLike,
            DataFamily::KmnistLike,
            DataFamily::FashionLike,
            DataFamily::Cifar10Like,
            DataFamily::Cifar100Like,
            DataFamily::SvhnLike,
        ] {
            let cfg = SynthConfig { family, img: 8, train_n: 12, test_n: 4, seed: 1, ..Default::default() };
            let (train, _) = cfg.generate();
            assert!(
                train.images().data().iter().all(|&v| (-1.0..=1.0).contains(&v)),
                "{family:?} out of range"
            );
        }
    }

    #[test]
    fn classes_are_balanced() {
        let cfg = SynthConfig { img: 8, train_n: 100, test_n: 10, seed: 2, ..Default::default() };
        let (train, _) = cfg.generate();
        let counts = train.class_counts();
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn same_seed_same_data_different_seed_different_data() {
        let base = SynthConfig { img: 8, train_n: 8, test_n: 4, seed: 5, ..Default::default() };
        let (a, _) = base.generate();
        let (b, _) = base.generate();
        assert_eq!(a, b);
        let (c, _) = SynthConfig { seed: 6, ..base }.generate();
        assert_ne!(a, c);
    }

    #[test]
    fn prototypes_are_class_distinct() {
        for family in [DataFamily::MnistLike, DataFamily::Cifar10Like, DataFamily::SvhnLike] {
            let p0 = family.prototype(0, 8);
            let p1 = family.prototype(1, 8);
            let dist: f32 = p0.iter().zip(&p1).map(|(a, b)| (a - b).abs()).sum();
            assert!(dist > 1.0, "{family:?} prototypes too close: {dist}");
        }
    }

    #[test]
    fn cifar100_is_correlated_with_cifar10_svhn_is_not() {
        // The property FedMD's Table-I contrast rests on: CIFAR-100-like
        // prototypes live on the CIFAR-10-like texture manifold (high
        // correlation with *some* base class), while SVHN-like prototypes
        // do not. Class indices are deliberately scrambled, so compare
        // against the best-matching base class.
        let img = 8;
        let corr = |a: &[f32], b: &[f32]| -> f32 {
            let ma = a.iter().sum::<f32>() / a.len() as f32;
            let mb = b.iter().sum::<f32>() / b.len() as f32;
            let cov: f32 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
            let va: f32 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
            let vb: f32 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
            (cov / (va.sqrt() * vb.sqrt() + 1e-9)).abs()
        };
        let best_match = |family: DataFamily| -> f32 {
            let mut best = 0.0f32;
            for class in 0..4 {
                let p = family.prototype(class, img);
                for base in 0..10 {
                    let b = DataFamily::Cifar10Like.prototype(base, img);
                    best = best.max(corr(&p, &b));
                }
            }
            best
        };
        let c100 = best_match(DataFamily::Cifar100Like);
        let svhn = best_match(DataFamily::SvhnLike);
        assert!(
            c100 > svhn + 0.1,
            "cifar100 best-match {c100} should clearly exceed svhn best-match {svhn}"
        );
    }

    #[test]
    fn custom_class_count() {
        let cfg = SynthConfig { classes: 4, img: 8, train_n: 8, test_n: 4, ..Default::default() };
        let (train, _) = cfg.generate();
        assert_eq!(train.num_classes(), 4);
    }

    const FAMILIES: [DataFamily; 6] = [
        DataFamily::MnistLike,
        DataFamily::KmnistLike,
        DataFamily::FashionLike,
        DataFamily::Cifar10Like,
        DataFamily::Cifar100Like,
        DataFamily::SvhnLike,
    ];

    fn assert_bitwise(a: &Dataset, b: &Dataset, what: &str) {
        assert_eq!(a.labels(), b.labels(), "{what}: labels");
        assert_eq!(a.images().shape(), b.images().shape(), "{what}: shape");
        let bits = |d: &Dataset| d.images().data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(a) == bits(b), "{what}: image bits differ");
    }

    /// Any index set the corpus is asked for — block boundaries, the last
    /// sample, random, unsorted and repeated indices — comes out bit for
    /// bit as the eager split's, for every family and geometry.
    #[test]
    fn corpus_is_bit_identical_to_the_eager_split() {
        for family in FAMILIES {
            for img in [4, 8, 12] {
                for seed in [0, 5, 0xC0FFEE] {
                    let base = SynthConfig { family, img, test_n: 3, seed, ..Default::default() };
                    let block = (STATE_EVERY_WORDS / Kernel::new(&base).words()).max(1);
                    // Three blocks and a partial one (a single-sample
                    // block divides every `n`).
                    let n = 3 * block + 1 + block / 2;
                    let cfg = SynthConfig { train_n: n, ..base };
                    let (eager, eager_test) = cfg.generate();
                    let (corpus, test) = cfg.generate_corpus();
                    let what = format!("{family:?} img {img} seed {seed} n {n} block {block}");
                    assert_eq!(corpus.block, block, "{what}");
                    assert_bitwise(&test, &eager_test, &what);
                    assert_eq!(corpus.labels(), eager.labels(), "{what}");
                    let mut rng = seeded_rng(seed);
                    let random: Vec<usize> = (0..2 * n).map(|_| rng.random_range(0..n)).collect();
                    let boundaries: Vec<usize> =
                        [0, block - 1, block, 2 * block - 1, 2 * block, 3 * block, n - 1]
                            .into_iter()
                            .filter(|&i| i < n)
                            .collect();
                    for idx in [
                        (0..n).collect::<Vec<_>>(),
                        (0..n).rev().collect(),
                        boundaries,
                        random,
                        vec![n - 1, 0, n - 1, n - 1, 1, 0],
                        vec![],
                    ] {
                        let what = format!("{what} idx {idx:?}");
                        assert_bitwise(&corpus.subset(&idx), &eager.subset(&idx), &what);
                    }
                }
            }
        }
    }

    /// Counts the words drawn through it.
    struct Counting<R> {
        inner: R,
        words: usize,
    }

    impl<R: RngCore> RngCore for Counting<R> {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    /// The stream-layout contract the corpus relies on: every sample draws
    /// exactly `W` words. A rejection sampler in `random_range` or a
    /// different normal sampler breaks it here, not silently in a corpus.
    #[test]
    fn every_sample_draws_exactly_w_words() {
        for family in FAMILIES {
            for img in [4, 8, 12] {
                let kernel = Kernel::new(&SynthConfig { family, img, ..Default::default() });
                assert_eq!(kernel.words(), 5 + 2 * family.channels() * img * img);
                let mut rng = Counting { inner: seeded_rng(img as u64), words: 0 };
                let mut out = Vec::new();
                for i in 0..3 * kernel.classes() {
                    let before = rng.words;
                    kernel.push_sample(kernel.label(i), &mut rng, &mut out);
                    let drawn = rng.words - before;
                    assert_eq!(drawn, kernel.words(), "{family:?} img {img} sample {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn corpus_rejects_out_of_range_samples() {
        let cfg = SynthConfig { img: 4, train_n: 5, test_n: 1, ..Default::default() };
        cfg.generate_corpus().0.subset(&[5]);
    }
}
