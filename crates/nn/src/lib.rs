//! # fedzkt-nn
//!
//! Neural-network building blocks over `fedzkt-autograd`: the [`Module`]
//! trait, the layers the FedZKT model zoo builds ([`Linear`], [`Conv2d`]
//! with groups, [`BatchNorm2d`], [`MaxPool2d`], [`Activation`]) and
//! [`Sequential`], optimizers (SGD with momentum/weight decay, Adam), the
//! paper's multi-step learning-rate schedule, and serializable state dicts
//! for moving model parameters between the simulated server and devices.
//! Flattening, global average pooling and upsampling are `Var` ops the
//! models call directly (`fedzkt_autograd`), not layers.
//!
//! A model is a tree of modules: a composite implements
//! [`Module::forward`] and [`Module::children`], and its parameters,
//! buffers and training mode come from one depth-first walk over the
//! children. That walk's order is the model's state order (see
//! [`Module`]).
//!
//! A [`StateDict`] is deliberately just an ordered **named tensor
//! bundle** — shaped tensors split into params and buffers, with no
//! model semantics attached. That is what lets the wire layer
//! (`fedzkt_fl::PayloadCodec`) and the binary checkpoint format carry
//! non-model payloads unchanged: FedGKT ships per-sample
//! features/logits/labels through the same encode/decode path a FedAvg
//! weight update takes.
//!
//! ## Example
//!
//! ```
//! use fedzkt_nn::{Linear, Module, Optimizer, Sequential, Activation, Sgd, SgdConfig};
//! use fedzkt_autograd::{loss::mse, Var};
//! use fedzkt_tensor::{seeded_rng, Tensor};
//!
//! let mut rng = seeded_rng(0);
//! let model = Sequential::new(vec![
//!     Box::new(Linear::new(2, 8, true, &mut rng)),
//!     Box::new(Activation::Relu),
//!     Box::new(Linear::new(8, 1, true, &mut rng)),
//! ]);
//! let opt = Sgd::new(model.params(), SgdConfig { lr: 0.1, ..Default::default() });
//! let x = Var::constant(Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]).unwrap());
//! let y = Var::constant(Tensor::from_vec(vec![1.0, -1.0], &[2, 1]).unwrap());
//! for _ in 0..10 {
//!     opt.zero_grad();
//!     let loss = mse(&model.forward(&x), &y);
//!     loss.backward();
//!     opt.step();
//! }
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod error;
mod layers;
mod module;
mod optim;

pub use checkpoint::{decode_state_dict, encode_state_dict};
pub use error::NnError;
pub use layers::{Activation, BatchNorm2d, Conv2d, Conv2dConfig, Linear, MaxPool2d};
pub use module::{
    load_state_dict, param_bytes, param_count, state_bytes, state_dict, Buffer, Module,
    Sequential, StateDict,
};
pub use optim::{Adam, AdamConfig, MultiStepLr, Optimizer, Sgd, SgdConfig};
