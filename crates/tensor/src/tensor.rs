//! The [`Tensor`] type: an owned, contiguous, row-major `f32` array.

use crate::rng::{standard_normal, Prng};
use crate::shape::{numel, same_shape, strides};
use crate::{Result, TensorError};
use rand::RngExt;

/// An owned, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the value type flowing through the whole FedZKT stack: model
/// parameters, activations, gradients, images and logits are all `Tensor`s.
/// Images follow the NCHW convention `[batch, channels, height, width]`.
///
/// The representation is a flat `Vec<f32>` plus a shape; all views are
/// copying (there is no stride/offset aliasing), which keeps the autograd
/// tape trivially correct at the cost of some redundant copies — an explicit
/// design choice for a CPU-scale research codebase.
///
/// ```
/// use fedzkt_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        let ellipsis = if self.data.len() > 8 { ", .." } else { "" };
        write!(f, "Tensor{:?} {:?}{}", self.shape, preview, ellipsis)
    }
}

impl Default for Tensor {
    /// The default tensor is the scalar `0.0`.
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Build a tensor from raw data and a shape.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// the shape volume.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected = numel(shape);
        if data.len() != expected {
            return Err(TensorError::LengthMismatch { expected, actual: data.len() });
        }
        Ok(Tensor { shape: shape.to_vec(), data })
    }

    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![0.0; numel(shape)] }
    }

    /// A tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![value; numel(shape)] }
    }

    /// A 0-dimensional tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: vec![], data: vec![value] }
    }

    /// The `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Standard-normal samples with the given shape.
    pub fn randn(shape: &[usize], rng: &mut Prng) -> Self {
        let data = (0..numel(shape)).map(|_| standard_normal(rng)).collect();
        Tensor { shape: shape.to_vec(), data }
    }

    /// Uniform samples in `[lo, hi)` with the given shape.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Prng) -> Self {
        let data = (0..numel(shape)).map(|_| rng.random::<f32>() * (hi - lo) + lo).collect();
        Tensor { shape: shape.to_vec(), data }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape (dimension extents, outermost first).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements (some dimension is zero).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The backing data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    /// Panics when the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert!(self.data.len() == 1, "item() on tensor with {} elements", self.data.len());
        self.data[0]
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] when the index is invalid.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.offset(index)?])
    }

    /// Set the element at a multi-dimensional index.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] when the index is invalid.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len()
            || index.iter().zip(&self.shape).any(|(i, s)| i >= s)
        {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            });
        }
        let st = strides(&self.shape);
        Ok(index.iter().zip(&st).map(|(i, s)| i * s).sum())
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterpret the tensor with a new shape of equal volume.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] when the volumes differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        let expected = numel(shape);
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch { expected, actual: self.data.len() });
        }
        Ok(Tensor { shape: shape.to_vec(), data: self.data.clone() })
    }

    /// Flatten to one dimension.
    pub fn flatten(&self) -> Self {
        Tensor { shape: vec![self.data.len()], data: self.data.clone() }
    }

    /// Transpose a 2-D tensor.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose2d(&self) -> Result<Self> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.ndim() });
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(out, &[c, r])
    }

    /// Copy rows `start..end` along the first dimension.
    ///
    /// Works for any rank ≥ 1; for NCHW image batches this slices samples.
    ///
    /// # Errors
    /// Returns an error when the range is invalid or the tensor is a scalar.
    pub fn slice_first(&self, start: usize, end: usize) -> Result<Self> {
        if self.shape.is_empty() {
            return Err(TensorError::RankMismatch { expected: 1, actual: 0 });
        }
        if start > end || end > self.shape[0] {
            return Err(TensorError::InvalidArgument(format!(
                "slice {start}..{end} out of range for first dim {}",
                self.shape[0]
            )));
        }
        let row = self.data.len() / self.shape[0].max(1);
        let mut shape = self.shape.clone();
        shape[0] = end - start;
        Tensor::from_vec(self.data[start * row..end * row].to_vec(), &shape)
    }

    /// Gather rows along the first dimension by index.
    ///
    /// # Errors
    /// Returns an error when any index is out of bounds or the tensor is a
    /// scalar.
    pub fn gather_first(&self, indices: &[usize]) -> Result<Self> {
        if self.shape.is_empty() {
            return Err(TensorError::RankMismatch { expected: 1, actual: 0 });
        }
        let n = self.shape[0];
        let row = self.data.len().checked_div(n).unwrap_or(0);
        let mut data = Vec::with_capacity(indices.len() * row);
        for &i in indices {
            if i >= n {
                return Err(TensorError::IndexOutOfBounds {
                    index: vec![i],
                    shape: self.shape.clone(),
                });
            }
            data.extend_from_slice(&self.data[i * row..(i + 1) * row]);
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        Tensor::from_vec(data, &shape)
    }

    /// Concatenate tensors along the first dimension.
    ///
    /// # Errors
    /// Returns an error when the input list is empty or trailing shapes
    /// disagree.
    pub fn concat_first(parts: &[&Tensor]) -> Result<Self> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("concat of zero tensors".into()))?;
        if first.shape.is_empty() {
            return Err(TensorError::RankMismatch { expected: 1, actual: 0 });
        }
        let tail = &first.shape[1..];
        let mut n = 0usize;
        for p in parts {
            if p.shape.is_empty() || &p.shape[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape.clone(),
                    rhs: p.shape.clone(),
                });
            }
            n += p.shape[0];
        }
        let mut data = Vec::with_capacity(n * numel(tail));
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        let mut shape = first.shape.clone();
        shape[0] = n;
        Tensor::from_vec(data, &shape)
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Apply `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Combine two same-shaped tensors elementwise.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_map(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        same_shape(&self.shape, &rhs.shape)?;
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Tensor { shape: self.shape.clone(), data })
    }

    /// Elementwise sum. See [`Tensor::zip_map`] for error behaviour.
    pub fn add(&self, rhs: &Tensor) -> Result<Self> {
        self.zip_map(rhs, |a, b| a + b)
    }

    /// Elementwise difference. See [`Tensor::zip_map`] for error behaviour.
    pub fn sub(&self, rhs: &Tensor) -> Result<Self> {
        self.zip_map(rhs, |a, b| a - b)
    }

    /// Elementwise product. See [`Tensor::zip_map`] for error behaviour.
    pub fn mul(&self, rhs: &Tensor) -> Result<Self> {
        self.zip_map(rhs, |a, b| a * b)
    }

    /// Add `rhs * scale` into `self` in place (axpy). Shapes must match.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_scaled_inplace(&mut self, rhs: &Tensor, scale: f32) -> Result<()> {
        same_shape(&self.shape, &rhs.shape)?;
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b * scale;
        }
        Ok(())
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|x| x + s)
    }

    /// Multiply every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Clamp every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Add a bias vector over the last dimension: `[.., D] + [D]`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when `bias` is not `[D]`.
    pub fn add_bias(&self, bias: &Tensor) -> Result<Self> {
        crate::shape::broadcastable_bias(&self.shape, &bias.shape)?;
        let d = bias.data.len();
        let mut out = self.data.clone();
        for (i, x) in out.iter_mut().enumerate() {
            *x += bias.data[i % d];
        }
        Ok(Tensor { shape: self.shape.clone(), data: out })
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// ℓ2 (Euclidean) norm.
    pub fn norm_l2(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Per-row argmax of a 2-D tensor (predicted class of each sample).
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.ndim() });
        }
        let (n, d) = (self.shape[0], self.shape[1]);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let row = &self.data[i * d..(i + 1) * d];
            let mut best = 0usize;
            for j in 1..d {
                if row[j] > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Row-wise softmax of a 2-D tensor (numerically stabilised).
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn softmax_rows(&self) -> Result<Self> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.ndim() });
        }
        let (n, d) = (self.shape[0], self.shape[1]);
        let mut out = self.data.clone();
        for i in 0..n {
            let row = &mut out[i * d..(i + 1) * d];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - m).exp();
                z += *x;
            }
            for x in row.iter_mut() {
                *x /= z;
            }
        }
        Tensor::from_vec(out, &[n, d])
    }

    /// True when every element is finite (no NaN/∞) — used by failure-
    /// injection tests and training-loop debug assertions.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn scalar_roundtrip() {
        let s = Tensor::scalar(2.5);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.item(), 2.5);
    }

    #[test]
    fn eye_matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = a.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn indexing() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.at(&[1, 2, 3]).unwrap(), 23.0);
        assert_eq!(t.at(&[0, 1, 2]).unwrap(), 6.0);
        assert!(t.at(&[2, 0, 0]).is_err());
        assert!(t.at(&[0, 0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let mut rng = seeded_rng(1);
        let t = Tensor::randn(&[3, 5], &mut rng);
        let tt = t.transpose2d().unwrap().transpose2d().unwrap();
        assert_eq!(t, tt);
    }

    #[test]
    fn slice_and_concat_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[4, 2, 3]).unwrap();
        let a = t.slice_first(0, 2).unwrap();
        let b = t.slice_first(2, 4).unwrap();
        let back = Tensor::concat_first(&[&a, &b]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn gather_first_selects_rows() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[3, 2]).unwrap();
        let g = t.gather_first(&[2, 0]).unwrap();
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0]);
        assert!(t.gather_first(&[3]).is_err());
    }

    #[test]
    fn bias_broadcast() {
        let x = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let y = x.add_bias(&b).unwrap();
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let mut rng = seeded_rng(2);
        let t = Tensor::randn(&[5, 7], &mut rng);
        let s = t.softmax_rows().unwrap();
        for i in 0..5 {
            let row_sum: f32 = s.data()[i * 7..(i + 1) * 7].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
            assert!(s.data()[i * 7..(i + 1) * 7].iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap();
        let s = t.softmax_rows().unwrap();
        assert!(s.all_finite());
        assert!((s.data()[0] + s.data()[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.2, 0.3, 0.1], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 1]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]).unwrap();
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
        assert!((t.norm_l2() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn add_scaled_inplace_is_axpy() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.add_scaled_inplace(&b, -0.5).unwrap();
        assert_eq!(a.data(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn clone_equals_original() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let u = t.clone();
        assert_eq!(t, u);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::zeros(&[2]);
        assert!(t.all_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn default_is_scalar_zero() {
        let t = Tensor::default();
        assert_eq!(t.item(), 0.0);
    }
}
