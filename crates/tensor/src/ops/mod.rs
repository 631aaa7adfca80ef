//! Heavier tensor operations: matrix multiplication and convolution
//! lowering. Elementwise arithmetic and reductions live directly on
//! [`Tensor`](crate::Tensor).

mod depthwise;
pub mod gemm;
mod image;
mod matmul;
pub mod quant;

pub use depthwise::{depthwise_conv2d, depthwise_conv2d_dw, depthwise_conv2d_dx};
pub use image::{col2im, im2col, im2col_batch, im2col_panel, Conv2dGeometry};
