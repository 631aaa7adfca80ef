//! Numeric formats of the dense compute kernels.
//!
//! Every run computes in plain `f32`: [`gemm_nn`]/[`gemm_nt`]/[`gemm_tn`]
//! take no format and nothing ambient selects one. The int8 kernel
//! (`i8 × i8 → i32` integer dot with an `f32` affine correction — see
//! `ops::gemm::int8`) is reachable only by naming [`ComputeFormat::Int8`] at
//! an explicit [`gemm_nn_with`] call, which is how the kernel benchmarks
//! measure it.
//!
//! [`gemm_nn`]: crate::ops::gemm::gemm_nn
//! [`gemm_nt`]: crate::ops::gemm::gemm_nt
//! [`gemm_tn`]: crate::ops::gemm::gemm_tn
//! [`gemm_nn_with`]: crate::ops::gemm::gemm_nn_with

/// Numeric format of one explicit `gemm_nn_with` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ComputeFormat {
    /// IEEE single precision everywhere — what every run uses.
    #[default]
    F32,
    /// Per-tensor affine int8 quantization of both operands with an exact
    /// `i32` integer dot and `f32` affine correction. The quantization error
    /// (bounded by the codec-style `scale/2` per element) would corrupt
    /// gradient accumulation, so no layer selects it.
    Int8,
}
