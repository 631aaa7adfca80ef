//! # fedzkt-models
//!
//! The heterogeneous on-device model zoo of the FedZKT paper plus the
//! server-side generator for zero-shot distillation.
//!
//! §IV-A2 of the paper evaluates five architectures per dataset:
//!
//! * small datasets (MNIST/KMNIST/FASHION): a CNN, a fully connected
//!   network, and three LeNet-like models of different widths/depths —
//!   [`ModelSpec::paper_zoo_small`];
//! * CIFAR-10: two ShuffleNetV2 variants (net size 0.5/1.0), two
//!   MobileNetV2 variants (width 0.8/0.6) and a LeNet-like model
//!   (Table V) — [`ModelSpec::paper_zoo_cifar`].
//!
//! The implementations here are *miniaturized but structurally faithful*:
//! MobileNetV2 keeps inverted residuals + depthwise convolutions + ReLU6 +
//! width multiplier; ShuffleNetV2 keeps channel split + depthwise
//! convolutions + channel shuffle + net-size multiplier. Channel counts and
//! stage depths are scaled down so the whole federated simulation runs on a
//! 2-core CPU (see DESIGN.md §2 for the substitution rationale).
//!
//! ## Example
//!
//! ```
//! use fedzkt_models::ModelSpec;
//! use fedzkt_nn::{param_count, Module};
//! use fedzkt_autograd::Var;
//! use fedzkt_tensor::Tensor;
//!
//! let spec = ModelSpec::MobileNetV2 { width: 0.8 };
//! let model = spec.build(3, 10, 16, 42);
//! let logits = model.forward(&Var::constant(Tensor::zeros(&[2, 3, 16, 16])));
//! assert_eq!(logits.shape(), vec![2, 10]);
//! assert!(param_count(model.as_ref()) > 0);
//! ```

#![warn(missing_docs)]

mod cnn;
mod generator;
mod mobilenet;
mod shufflenet;
mod spec;

pub use cnn::{LeNet, Mlp, SmallCnn};
pub use generator::{Generator, GeneratorSpec};
pub use mobilenet::MobileNetV2;
pub use shufflenet::ShuffleNetV2;
pub use spec::ModelSpec;
