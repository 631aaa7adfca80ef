//! Differentiable operations on [`Var`](crate::Var), grouped by theme.
//!
//! All ops follow the same conventions:
//!
//! * shapes are validated eagerly; a mismatch is a model-construction bug
//!   and **panics** (the underlying [`fedzkt_tensor`] error message is
//!   preserved in the panic payload);
//! * the returned node's backward closure only computes gradients for
//!   parents that require them;
//! * image tensors are NCHW.

mod activations;
mod arith;
mod conv;
mod linear;
mod norm;
mod pool;
mod reduce;
mod shape_ops;

#[cfg(test)]
pub(crate) use conv::lowered_grads;
