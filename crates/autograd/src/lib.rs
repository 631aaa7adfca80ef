//! # fedzkt-autograd
//!
//! Define-by-run reverse-mode automatic differentiation over
//! [`fedzkt_tensor::Tensor`].
//!
//! Every operation on a [`Var`] records a node on an implicit tape (an
//! `Rc`-linked DAG); [`Var::backward`] walks the DAG in reverse topological
//! order and accumulates gradients into every node that
//! [requires gradients](Var::requires_grad), including *input* variables —
//! a property the FedZKT reproduction depends on twice:
//!
//! 1. the server's adversarial generator update needs `∂L/∂θ` through the
//!    student **and** the teacher ensemble back into the synthetic batch
//!    `x = G(z)` (Eq. 2 of the paper), and
//! 2. the Figure-2 probe reports `‖∇ₓ L‖` for the three candidate
//!    disagreement losses (KL, logit-ℓ1, softmax-ℓ1).
//!
//! Both differentiate *through* the models and not *into* them, so they run
//! the model forwards inside [`frozen_params`] and the models' own weight
//! gradients are never computed.
//!
//! The op set is exactly what the paper's models need: dense and
//! convolutional layers (with groups/depthwise), batch normalisation,
//! pooling, nearest upsampling (generator), the usual activations, softmax,
//! and the distillation losses from §III-B2.
//!
//! ## Example
//!
//! ```
//! use fedzkt_autograd::Var;
//! use fedzkt_tensor::Tensor;
//!
//! let x = Var::parameter(Tensor::from_vec(vec![2.0], &[1, 1]).unwrap());
//! let y = x.mul(&x).sum_all(); // y = x^2
//! y.backward();
//! assert_eq!(x.grad().unwrap().data(), &[4.0]); // dy/dx = 2x = 4
//! ```

#![warn(missing_docs)]

mod gradcheck;
pub mod loss;
mod ops;
#[cfg(test)]
mod saved_copies;
mod var;

pub use gradcheck::{check_gradients, finite_difference};
pub use loss::DistillLoss;
pub use var::{frozen_params, no_grad, Var};
