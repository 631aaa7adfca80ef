//! Declarative model specifications (serializable) and the paper's zoos.

use crate::{LeNet, Mlp, MobileNetV2, ShuffleNetV2, SmallCnn};
use fedzkt_nn::Module;

/// A declarative description of an on-device architecture, sufficient to
/// construct the model. Devices in the simulation pick a `ModelSpec`
/// independently — the paper's core premise is that these need not agree
/// across devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelSpec {
    /// Compact two-block CNN with the given base width.
    SmallCnn {
        /// First-stage channel count (second stage doubles it).
        base_channels: usize,
    },
    /// Fully connected network with the given first hidden width.
    Mlp {
        /// First hidden width (second hidden layer halves it).
        hidden: usize,
    },
    /// LeNet-like model with a width multiplier and optional extra dense
    /// layer.
    LeNet {
        /// Channel/width multiplier relative to classic LeNet-5.
        scale: f32,
        /// Add the second 84-unit dense layer.
        deep: bool,
    },
    /// Miniaturized MobileNetV2 with width multiplier (paper: 0.8 / 0.6).
    MobileNetV2 {
        /// Width multiplier.
        width: f32,
    },
    /// Miniaturized ShuffleNetV2 with net-size multiplier (paper: 0.5 / 1.0).
    ShuffleNetV2 {
        /// Net-size multiplier.
        size: f32,
    },
}

impl ModelSpec {
    /// Instantiate the model for the given input geometry.
    ///
    /// # Panics
    /// Panics when `img` is not divisible by 4 (all zoo members downsample
    /// twice).
    pub fn build(
        &self,
        in_channels: usize,
        num_classes: usize,
        img: usize,
        seed: u64,
    ) -> Box<dyn Module> {
        match *self {
            ModelSpec::SmallCnn { base_channels } => {
                Box::new(SmallCnn::new(in_channels, num_classes, img, base_channels, seed))
            }
            ModelSpec::Mlp { hidden } => {
                Box::new(Mlp::new(in_channels, num_classes, img, hidden, seed))
            }
            ModelSpec::LeNet { scale, deep } => {
                Box::new(LeNet::new(in_channels, num_classes, img, scale, deep, seed))
            }
            ModelSpec::MobileNetV2 { width } => {
                Box::new(MobileNetV2::new(in_channels, num_classes, img, width, seed))
            }
            ModelSpec::ShuffleNetV2 { size } => {
                Box::new(ShuffleNetV2::new(in_channels, num_classes, img, size, seed))
            }
        }
    }

    /// Short human-readable name (used in experiment tables).
    pub fn name(&self) -> String {
        match self {
            ModelSpec::SmallCnn { base_channels } => format!("CNN(c{base_channels})"),
            ModelSpec::Mlp { hidden } => format!("FC(h{hidden})"),
            ModelSpec::LeNet { scale, deep } => {
                format!("LeNet(x{scale}{})", if *deep { ",deep" } else { "" })
            }
            ModelSpec::MobileNetV2 { width } => format!("MobileNetV2(w{width})"),
            ModelSpec::ShuffleNetV2 { size } => format!("ShuffleNetV2(s{size})"),
        }
    }

    /// The five-architecture zoo for the small datasets (§IV-A2: a CNN, a
    /// fully connected model, and three LeNet-like variants).
    pub fn paper_zoo_small() -> Vec<ModelSpec> {
        vec![
            ModelSpec::SmallCnn { base_channels: 6 },
            ModelSpec::Mlp { hidden: 64 },
            ModelSpec::LeNet { scale: 0.5, deep: false },
            ModelSpec::LeNet { scale: 1.0, deep: false },
            ModelSpec::LeNet { scale: 1.0, deep: true },
        ]
    }

    /// The five-architecture zoo for CIFAR-10 (Table V: ShuffleNetV2 0.5 /
    /// 1.0, MobileNetV2 0.8 / 0.6, LeNet) — Models A–E.
    pub fn paper_zoo_cifar() -> Vec<ModelSpec> {
        vec![
            ModelSpec::ShuffleNetV2 { size: 0.5 },  // Model A
            ModelSpec::ShuffleNetV2 { size: 1.0 },  // Model B
            ModelSpec::MobileNetV2 { width: 0.8 },  // Model C
            ModelSpec::MobileNetV2 { width: 0.6 },  // Model D
            ModelSpec::LeNet { scale: 1.0, deep: true }, // Model E
        ]
    }

    /// Assign a zoo across `k` devices round-robin, as in §IV-C2 where ten
    /// devices cycle through Models A–E.
    pub fn assign_round_robin(zoo: &[ModelSpec], k: usize) -> Vec<ModelSpec> {
        assert!(!zoo.is_empty(), "empty model zoo");
        (0..k).map(|i| zoo[i % zoo.len()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_autograd::Var;
    use fedzkt_nn::param_count;
    use fedzkt_tensor::Tensor;

    #[test]
    fn every_zoo_member_builds_and_runs() {
        for (zoo, channels) in [
            (ModelSpec::paper_zoo_small(), 1usize),
            (ModelSpec::paper_zoo_cifar(), 3usize),
        ] {
            for spec in zoo {
                let m = spec.build(channels, 10, 16, 1);
                let x = Var::constant(Tensor::zeros(&[2, channels, 16, 16]));
                let y = m.forward(&x);
                assert_eq!(y.shape(), vec![2, 10], "{}", spec.name());
                assert!(param_count(m.as_ref()) > 100, "{}", spec.name());
            }
        }
    }

    #[test]
    fn cifar_zoo_has_heterogeneous_sizes() {
        let sizes: Vec<usize> = ModelSpec::paper_zoo_cifar()
            .iter()
            .map(|s| param_count(s.build(3, 10, 16, 1).as_ref()))
            .collect();
        // All five architectures have distinct parameter counts.
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "{sizes:?}");
        // ShuffleNetV2 1.0 (B) is bigger than 0.5 (A); MobileNetV2 0.8 (C)
        // bigger than 0.6 (D).
        assert!(sizes[1] > sizes[0]);
        assert!(sizes[2] > sizes[3]);
    }

    #[test]
    fn round_robin_assignment_cycles() {
        let zoo = ModelSpec::paper_zoo_cifar();
        let assigned = ModelSpec::assign_round_robin(&zoo, 10);
        assert_eq!(assigned.len(), 10);
        assert_eq!(assigned[0], assigned[5]);
        assert_eq!(assigned[4], assigned[9]);
        assert_ne!(assigned[0], assigned[1]);
    }

    #[test]
    fn same_seed_same_weights() {
        let spec = ModelSpec::SmallCnn { base_channels: 4 };
        let a = spec.build(1, 10, 8, 7);
        let b = spec.build(1, 10, 8, 7);
        let x = Var::constant(Tensor::ones(&[1, 1, 8, 8]));
        assert_eq!(a.forward(&x).value().data(), b.forward(&x).value().data());
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<String> =
            ModelSpec::paper_zoo_cifar().iter().map(ModelSpec::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
