//! # fedzkt-tensor
//!
//! Dense `f32` tensor library underpinning the FedZKT reproduction.
//!
//! This crate provides the numerical substrate that the rest of the workspace
//! builds on: an owned, contiguous, row-major (NCHW for images) tensor type
//! with the operations needed to train convolutional neural networks on a
//! CPU — elementwise arithmetic, blocked matrix multiplication, reductions,
//! `im2col`/`col2im` convolution lowering, pooling geometry, weight
//! initialisation and seeded random sampling.
//!
//! It intentionally supports only `f32`: every model in the FedZKT paper is a
//! single-precision image classifier, and a single dtype keeps the autograd
//! tape (see `fedzkt-autograd`) simple and fast.
//!
//! ## Example
//!
//! ```
//! use fedzkt_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), fedzkt_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod compute;
mod error;
mod init;
pub mod ops;
pub mod par;
mod rng;
mod shape;
mod tensor;

pub use compute::ComputeFormat;
pub use error::TensorError;
pub use init::{fan_in_out_conv2d, fan_in_out_linear, Init};
pub use rng::{seeded_rng, split_seed, standard_normal, Prng};
pub use shape::{broadcastable_bias, conv_output_size, numel, same_shape, strides, Shape};
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
