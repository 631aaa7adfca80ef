//! Const-generic typed views: compile-time shapes over dynamic buffers.
//!
//! The workspace's model zoo is heterogeneous at the *fleet* level but
//! every individual architecture runs a fixed set of layer shapes through
//! [`crate::ops::gemm`] thousands of times per round. This module makes
//! those shapes part of the type (the dfdx idiom: `Tensor2D<M, N>` with
//! dimensions as const generics) so that
//!
//! 1. **shape agreement is a compile-time fact** — feeding a
//!    `View2D<4, 8>` where a `View2D<8, 4>` is required, or wiring two
//!    layers with disagreeing widths in a model builder, fails to compile
//!    instead of panicking in round N;
//! 2. **runtime shape checks vanish** — a view proves `len == R * C` once
//!    at construction, so the typed GEMM wrappers enter the kernel
//!    dispatch *below* the always-on entry guards of the dynamic API;
//! 3. **kernels monomorphize per layer shape** — `K` and `N` become
//!    compile-time constants inside the instantiated wrapper.
//!
//! ## What stays dynamic
//!
//! The `StateDict`/`ModelSpec` boundary is untouched: tensors are still
//! dynamically shaped, and views *borrow* their buffers. Batch dimensions
//! are runtime values too — the `*_rows` wrappers pair a const feature
//! width with a dynamic row count (`Rows2D<C>`), which is exactly the
//! shape of a linear layer's forward/backward and of FedGKT's per-sample
//! `[n, d]`/`[n, C]` bundles.
//!
//! ## Bit-identity contract
//!
//! The typed wrappers are shims onto the *same* kernel dispatch as the
//! dynamic entry points — same backend selection, same threading, same
//! accumulation order — so typed and dynamic paths produce byte-identical
//! results; `tests/properties.rs` pins this per layout.
//!
//! The layer is opt-in: a caller that knows its shapes at compile time
//! builds views and calls these wrappers (`Var::linear_typed`,
//! `fedzkt_nn::typed::TypedLinear`, the codec's `Rows2D::<2>::split`).
//! Dynamic layers never route here on their own.
//!
//! ## Example
//!
//! ```
//! use fedzkt_tensor::typed::{View2D, ViewMut2D};
//!
//! let a = [1.0f32; 6]; // [2, 3]
//! let b = [2.0f32; 12]; // [3, 4]
//! let mut out = [0.0f32; 8]; // [2, 4]
//! fedzkt_tensor::typed::gemm_nn(
//!     View2D::<2, 3>::new(&a),
//!     View2D::<3, 4>::new(&b),
//!     ViewMut2D::<2, 4>::new(&mut out),
//! );
//! assert_eq!(out, [6.0f32; 8]);
//! ```
//!
//! Swapping the operand shapes is a type error, not a runtime panic:
//!
//! ```compile_fail
//! use fedzkt_tensor::typed::{View2D, ViewMut2D};
//!
//! let a = [0.0f32; 32];
//! let b = [0.0f32; 32];
//! let mut out = [0.0f32; 16];
//! fedzkt_tensor::typed::gemm_nn(
//!     View2D::<4, 8>::new(&a),
//!     View2D::<4, 8>::new(&b), // must be View2D::<8, 4>: does not compile
//!     ViewMut2D::<4, 4>::new(&mut out),
//! );
//! ```

use crate::compute::ComputeFormat::F32;
use crate::ops::gemm;

#[cold]
#[inline(never)]
fn view_panic(what: &'static str, rows: usize, cols: usize, got: usize) -> ! {
    panic!("{what}<{rows}, {cols}>: slice length {got}, expected {}", rows * cols);
}

/// Immutable `[R, C]` row-major view over an `f32` slice.
///
/// Construction proves `data.len() == R * C`; every later use of the view
/// — including the typed GEMM wrappers — relies on that invariant instead
/// of re-checking.
#[derive(Clone, Copy, Debug)]
pub struct View2D<'a, const R: usize, const C: usize> {
    data: &'a [f32],
}

impl<'a, const R: usize, const C: usize> View2D<'a, R, C> {
    /// Borrow `data` as an `[R, C]` matrix.
    ///
    /// # Panics
    /// If `data.len() != R * C` (the one check this layer ever performs,
    /// paid once per view instead of once per kernel call).
    pub fn new(data: &'a [f32]) -> Self {
        match Self::try_new(data) {
            Some(v) => v,
            None => view_panic("View2D", R, C, data.len()),
        }
    }

    /// Borrow `data` as an `[R, C]` matrix, or `None` on a length mismatch.
    pub fn try_new(data: &'a [f32]) -> Option<Self> {
        (data.len() == R * C).then_some(Self { data })
    }

    /// The underlying row-major slice (length `R * C` by construction).
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Row `i` as a fixed-size array reference.
    ///
    /// # Panics
    /// If `i >= R`.
    pub fn row(&self, i: usize) -> &'a [f32; C] {
        self.data[i * C..(i + 1) * C].try_into().expect("width proven at construction")
    }

    /// Forget the const row count, keeping the const width.
    pub fn into_rows(self) -> Rows2D<'a, C> {
        Rows2D { data: self.data, rows: R }
    }
}

/// Mutable `[R, C]` row-major view over an `f32` slice.
#[derive(Debug)]
pub struct ViewMut2D<'a, const R: usize, const C: usize> {
    data: &'a mut [f32],
}

impl<'a, const R: usize, const C: usize> ViewMut2D<'a, R, C> {
    /// Borrow `data` mutably as an `[R, C]` matrix.
    ///
    /// # Panics
    /// If `data.len() != R * C`.
    pub fn new(data: &'a mut [f32]) -> Self {
        let got = data.len();
        match Self::try_new(data) {
            Some(v) => v,
            None => view_panic("ViewMut2D", R, C, got),
        }
    }

    /// Borrow `data` mutably as an `[R, C]` matrix, or `None` on mismatch.
    pub fn try_new(data: &'a mut [f32]) -> Option<Self> {
        (data.len() == R * C).then_some(Self { data })
    }

    /// The underlying row-major slice (length `R * C` by construction).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data
    }

    /// Row `i` as a fixed-size mutable array reference.
    ///
    /// # Panics
    /// If `i >= R`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32; C] {
        (&mut self.data[i * C..(i + 1) * C]).try_into().expect("width proven at construction")
    }

    /// Reborrow, so a view can be passed to a consuming wrapper and reused.
    pub fn reborrow(&mut self) -> ViewMut2D<'_, R, C> {
        ViewMut2D { data: self.data }
    }

    /// Forget the const row count, keeping the const width.
    pub fn into_rows(self) -> RowsMut2D<'a, C> {
        RowsMut2D { data: self.data, rows: R }
    }
}

#[cold]
#[inline(never)]
fn rows_panic(what: &'static str, cols: usize, got: usize) -> ! {
    panic!("{what}<{cols}>: slice length {got} is not a multiple of the column width {cols}");
}

#[cold]
#[inline(never)]
fn rows_with_panic(what: &'static str, cols: usize, rows: usize, got: usize) -> ! {
    panic!("{what}<{cols}>: slice length {got}, expected {} for {rows} rows", rows * cols);
}

/// Immutable view with a **const column width** and a **dynamic row
/// count** — the shape of a batch: `[batch, features]`, a FedGKT bundle's
/// `[n, d]`.
///
/// Construction proves `data.len() == rows * C` (deriving `rows` by exact
/// division in [`Rows2D::new`]); only row-count *agreement* between
/// operands remains a runtime fact, checked once per typed GEMM call.
#[derive(Clone, Copy, Debug)]
pub struct Rows2D<'a, const C: usize> {
    data: &'a [f32],
    rows: usize,
}

impl<'a, const C: usize> Rows2D<'a, C> {
    /// Borrow `data` as `[data.len() / C, C]`.
    ///
    /// # Panics
    /// If `data.len()` is not a multiple of `C`. Requires `C > 0` (a
    /// compile-time error otherwise); use [`Rows2D::with_rows`] for
    /// zero-width views.
    pub fn new(data: &'a [f32]) -> Self {
        const {
            assert!(C > 0, "Rows2D::new cannot infer a row count for C = 0; use with_rows");
        }
        if !data.len().is_multiple_of(C) {
            rows_panic("Rows2D", C, data.len());
        }
        Self { data, rows: data.len() / C }
    }

    /// Borrow `data` as `[rows, C]` with an explicit row count (this form
    /// also supports `C == 0`).
    ///
    /// # Panics
    /// If `data.len() != rows * C`.
    pub fn with_rows(data: &'a [f32], rows: usize) -> Self {
        if data.len() != rows * C {
            rows_with_panic("Rows2D", C, rows, data.len());
        }
        Self { data, rows }
    }

    /// Split `data` into its largest exact `[_, C]` prefix and the
    /// remainder (shorter than one row) — the fixed-stride loop helper the
    /// codecs use to walk pairs/quads with the width proven once.
    pub fn split(data: &'a [f32]) -> (Self, &'a [f32]) {
        const {
            assert!(C > 0, "Rows2D::split needs a nonzero column width");
        }
        let exact = data.len() - data.len() % C;
        let (head, tail) = data.split_at(exact);
        (Self { data: head, rows: exact / C }, tail)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The underlying row-major slice (length `rows * C` by construction).
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Row `i` as a fixed-size array reference.
    ///
    /// # Panics
    /// If `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &'a [f32; C] {
        assert!(i < self.rows, "Rows2D<{C}>: row {i} out of {} rows", self.rows);
        self.data[i * C..i * C + C].try_into().expect("width proven at construction")
    }

    /// Iterate the rows as fixed-size array references.
    pub fn iter(&self) -> impl Iterator<Item = &'a [f32; C]> + '_ {
        (0..self.rows).map(|i| self.row(i))
    }
}

/// Mutable counterpart of [`Rows2D`]: const column width, dynamic rows.
#[derive(Debug)]
pub struct RowsMut2D<'a, const C: usize> {
    data: &'a mut [f32],
    rows: usize,
}

impl<'a, const C: usize> RowsMut2D<'a, C> {
    /// Borrow `data` mutably as `[data.len() / C, C]`.
    ///
    /// # Panics
    /// If `data.len()` is not a multiple of `C`. Requires `C > 0` (a
    /// compile-time error otherwise); use [`RowsMut2D::with_rows`] for
    /// zero-width views.
    pub fn new(data: &'a mut [f32]) -> Self {
        const {
            assert!(C > 0, "RowsMut2D::new cannot infer a row count for C = 0; use with_rows");
        }
        if !data.len().is_multiple_of(C) {
            rows_panic("RowsMut2D", C, data.len());
        }
        let rows = data.len() / C;
        Self { data, rows }
    }

    /// Borrow `data` mutably as `[rows, C]` with an explicit row count
    /// (this form also supports `C == 0`).
    ///
    /// # Panics
    /// If `data.len() != rows * C`.
    pub fn with_rows(data: &'a mut [f32], rows: usize) -> Self {
        if data.len() != rows * C {
            rows_with_panic("RowsMut2D", C, rows, data.len());
        }
        Self { data, rows }
    }

    /// Split `data` into its largest exact `[_, C]` mutable prefix and the
    /// remainder (shorter than one row).
    pub fn split(data: &'a mut [f32]) -> (Self, &'a mut [f32]) {
        const {
            assert!(C > 0, "RowsMut2D::split needs a nonzero column width");
        }
        let exact = data.len() - data.len() % C;
        let (head, tail) = data.split_at_mut(exact);
        let rows = exact / C;
        (Self { data: head, rows }, tail)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The underlying row-major slice (length `rows * C` by construction).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data
    }

    /// Row `i` as a fixed-size mutable array reference.
    ///
    /// # Panics
    /// If `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32; C] {
        assert!(i < self.rows, "RowsMut2D<{C}>: row {i} out of {} rows", self.rows);
        (&mut self.data[i * C..i * C + C]).try_into().expect("width proven at construction")
    }

    /// Iterate the rows as fixed-size mutable array references.
    ///
    /// Yields nothing for `C == 0` views (there is no data to mutate).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut [f32; C]> + '_ {
        // `chunks_exact_mut` rejects a zero chunk size; a C == 0 view holds
        // an empty slice, so `max(1)` yields the same (empty) iteration.
        self.data.chunks_exact_mut(C.max(1)).map(|c| c.try_into().expect("exact chunks"))
    }

    /// Reborrow, so a view can be passed to a consuming wrapper and reused.
    pub fn reborrow(&mut self) -> RowsMut2D<'_, C> {
        RowsMut2D { data: self.data, rows: self.rows }
    }
}

#[cold]
#[inline(never)]
fn rows_mismatch(kernel: &'static str, left: &'static str, lr: usize, right: &'static str, rr: usize) -> ! {
    panic!("{kernel}: {left} has {lr} rows but {right} has {rr}");
}

// ---------------------------------------------------------------------------
// Fully static wrappers: every dimension is a const generic, no runtime
// checks at all — lengths were proven at view construction and shape
// agreement is enforced by unification of M/K/N across the operand types.
// ---------------------------------------------------------------------------

/// Typed `out += A × B` (`A: [M, K]`, `B: [K, N]`, `out: [M, N]`).
/// Zero runtime shape checks.
pub fn gemm_nn<const M: usize, const K: usize, const N: usize>(
    a: View2D<M, K>,
    b: View2D<K, N>,
    out: ViewMut2D<M, N>,
) {
    gemm::gemm_nn_unchecked(F32, a.data, b.data, out.data, M, K, N);
}

/// Typed `out += A × Bᵀ` (`A: [M, K]`, `B: [N, K]`, `out: [M, N]`).
/// Zero runtime shape checks.
pub fn gemm_nt<const M: usize, const K: usize, const N: usize>(
    a: View2D<M, K>,
    b: View2D<N, K>,
    out: ViewMut2D<M, N>,
) {
    gemm::gemm_nt_unchecked(F32, a.data, b.data, out.data, M, K, N);
}

/// Typed `out += Aᵀ × B` (`A: [K, M]`, `B: [K, N]`, `out: [M, N]`).
/// Zero runtime shape checks.
///
/// Unlike the dynamic [`crate::ops::gemm::gemm_tn`], whose argument order
/// leads with `k`, the const parameters here keep the uniform `M, K, N`
/// order — the types carry the storage layout.
pub fn gemm_tn<const M: usize, const K: usize, const N: usize>(
    a: View2D<K, M>,
    b: View2D<K, N>,
    out: ViewMut2D<M, N>,
) {
    gemm::gemm_tn_unchecked(F32, a.data, b.data, out.data, K, M, N);
}

// ---------------------------------------------------------------------------
// Batch-dynamic wrappers: the row count (a batch or contraction size) is a
// runtime value, the feature widths are const. One row-count agreement
// compare per call is the entire runtime cost; the per-operand length
// checks are still gone.
// ---------------------------------------------------------------------------

/// Typed linear-forward product: `out += A × Bᵀ` with a dynamic batch —
/// `A: [batch, K]`, `B: [N, K]` (a weight matrix), `out: [batch, N]`.
///
/// # Panics
/// If `a` and `out` disagree on the batch row count.
pub fn gemm_nt_rows<const K: usize, const N: usize>(
    a: Rows2D<K>,
    b: View2D<N, K>,
    out: RowsMut2D<N>,
) {
    if a.rows != out.rows {
        rows_mismatch("gemm_nt_rows", "a", a.rows, "out", out.rows);
    }
    gemm::gemm_nt_unchecked(F32, a.data, b.data, out.data, a.rows, K, N);
}

/// Typed linear-backward input gradient: `out += A × B` with a dynamic
/// batch — `A: [batch, K]`, `B: [K, N]`, `out: [batch, N]`.
///
/// # Panics
/// If `a` and `out` disagree on the batch row count.
pub fn gemm_nn_rows<const K: usize, const N: usize>(
    a: Rows2D<K>,
    b: View2D<K, N>,
    out: RowsMut2D<N>,
) {
    if a.rows != out.rows {
        rows_mismatch("gemm_nn_rows", "a", a.rows, "out", out.rows);
    }
    gemm::gemm_nn_unchecked(F32, a.data, b.data, out.data, a.rows, K, N);
}

/// Typed linear-backward weight gradient: `out += Aᵀ × B` with a dynamic
/// contraction (the batch) — `A: [batch, M]`, `B: [batch, N]`,
/// `out: [M, N]`.
///
/// # Panics
/// If `a` and `b` disagree on the batch row count.
pub fn gemm_tn_rows<const M: usize, const N: usize>(
    a: Rows2D<M>,
    b: Rows2D<N>,
    out: ViewMut2D<M, N>,
) {
    if a.rows != b.rows {
        rows_mismatch("gemm_tn_rows", "a", a.rows, "b", b.rows);
    }
    gemm::gemm_tn_unchecked(F32, a.data, b.data, out.data, a.rows, M, N);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gemm::{gemm_nn as dyn_nn, gemm_nt as dyn_nt, gemm_tn as dyn_tn};
    use crate::{seeded_rng, Tensor};

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        Tensor::randn(&[len.max(1)], &mut seeded_rng(seed)).data()[..len].to_vec()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn typed_nn_bit_identical_to_dynamic() {
        const M: usize = 5;
        const K: usize = 7;
        const N: usize = 3;
        let a = rand_vec(M * K, 1);
        let b = rand_vec(K * N, 2);
        let mut typed = vec![0.5f32; M * N];
        let mut dynamic = typed.clone();
        gemm_nn(View2D::<M, K>::new(&a), View2D::<K, N>::new(&b), ViewMut2D::new(&mut typed));
        dyn_nn(&a, &b, &mut dynamic, M, K, N);
        assert_eq!(bits(&typed), bits(&dynamic));
    }

    #[test]
    fn typed_nt_and_tn_bit_identical_to_dynamic() {
        const M: usize = 4;
        const K: usize = 9;
        const N: usize = 16;
        let a = rand_vec(M * K, 3);
        let bt = rand_vec(N * K, 4);
        let mut typed = vec![0.0f32; M * N];
        let mut dynamic = typed.clone();
        gemm_nt(View2D::<M, K>::new(&a), View2D::<N, K>::new(&bt), ViewMut2D::new(&mut typed));
        dyn_nt(&a, &bt, &mut dynamic, M, K, N);
        assert_eq!(bits(&typed), bits(&dynamic));

        let at = rand_vec(K * M, 5);
        let b = rand_vec(K * N, 6);
        let mut typed = vec![-1.0f32; M * N];
        let mut dynamic = typed.clone();
        gemm_tn(View2D::<K, M>::new(&at), View2D::<K, N>::new(&b), ViewMut2D::new(&mut typed));
        dyn_tn(&at, &b, &mut dynamic, K, M, N);
        assert_eq!(bits(&typed), bits(&dynamic));
    }

    /// Zero-extent edge cases per transpose variant: an empty output
    /// (`M == 0` / `N == 0`) and an empty contraction (`K == 0`) must be
    /// well-defined no-ops under the accumulate contract.
    #[test]
    fn zero_extent_static_views() {
        // M == 0: no output rows.
        gemm_nn(View2D::<0, 3>::new(&[]), View2D::<3, 4>::new(&[1.0; 12]), ViewMut2D::new(&mut []));
        // K == 0: accumulate nothing, output untouched.
        let mut out = [7.0f32; 12];
        gemm_nn(View2D::<3, 0>::new(&[]), View2D::<0, 4>::new(&[]), ViewMut2D::new(&mut out));
        assert_eq!(out, [7.0f32; 12]);
        let mut out = [2.0f32; 12];
        gemm_nt(View2D::<3, 0>::new(&[]), View2D::<4, 0>::new(&[]), ViewMut2D::new(&mut out));
        assert_eq!(out, [2.0f32; 12]);
        let mut out = [-3.0f32; 12];
        gemm_tn(View2D::<0, 3>::new(&[]), View2D::<0, 4>::new(&[]), ViewMut2D::new(&mut out));
        assert_eq!(out, [-3.0f32; 12]);
        // N == 0: zero-width output.
        gemm_nt(View2D::<3, 2>::new(&[1.0; 6]), View2D::<0, 2>::new(&[]), ViewMut2D::new(&mut []));
        gemm_tn(View2D::<2, 3>::new(&[1.0; 6]), View2D::<2, 0>::new(&[]), ViewMut2D::new(&mut []));
    }

    /// Zero-extent rows views: the `n = 0` FedGKT bundle shape (`[0, d]`)
    /// through every batch-dynamic wrapper.
    #[test]
    fn zero_extent_rows_views() {
        let w = rand_vec(6, 7); // [3, 2] or [2, 3] weight as needed
        gemm_nt_rows(Rows2D::<2>::new(&[]), View2D::<3, 2>::new(&w), RowsMut2D::<3>::new(&mut []));
        gemm_nn_rows(Rows2D::<2>::new(&[]), View2D::<2, 3>::new(&w), RowsMut2D::<3>::new(&mut []));
        // Empty batch as contraction: dW accumulates nothing.
        let mut dw = [4.0f32; 6];
        gemm_tn_rows(Rows2D::<2>::new(&[]), Rows2D::<3>::new(&[]), ViewMut2D::<2, 3>::new(&mut dw));
        assert_eq!(dw, [4.0f32; 6]);
        // Zero-width rows via with_rows (C == 0 with a positive row count).
        let empty = Rows2D::<0>::with_rows(&[], 5);
        assert_eq!(empty.rows(), 5);
        assert_eq!(empty.row(3), &[0.0f32; 0]);
    }

    #[test]
    fn rows_wrappers_bit_identical_to_dynamic() {
        const K: usize = 6;
        const N: usize = 5;
        for m in [1usize, 3, 17] {
            let x = rand_vec(m * K, 10 + m as u64);
            let w = rand_vec(N * K, 20 + m as u64);
            let mut typed = vec![0.25f32; m * N];
            let mut dynamic = typed.clone();
            gemm_nt_rows(Rows2D::<K>::new(&x), View2D::<N, K>::new(&w), RowsMut2D::new(&mut typed));
            dyn_nt(&x, &w, &mut dynamic, m, K, N);
            assert_eq!(bits(&typed), bits(&dynamic), "nt m={m}");

            let g = rand_vec(m * K, 30 + m as u64);
            let wf = rand_vec(K * N, 40 + m as u64);
            let mut typed = vec![0.0f32; m * N];
            let mut dynamic = typed.clone();
            gemm_nn_rows(
                Rows2D::<K>::new(&g),
                View2D::<K, N>::new(&wf),
                RowsMut2D::new(&mut typed),
            );
            dyn_nn(&g, &wf, &mut dynamic, m, K, N);
            assert_eq!(bits(&typed), bits(&dynamic), "nn m={m}");

            let gk = rand_vec(m * K, 50 + m as u64);
            let xn = rand_vec(m * N, 60 + m as u64);
            let mut typed = vec![1.5f32; K * N];
            let mut dynamic = typed.clone();
            gemm_tn_rows(Rows2D::<K>::new(&gk), Rows2D::<N>::new(&xn), ViewMut2D::new(&mut typed));
            dyn_tn(&gk, &xn, &mut dynamic, m, K, N);
            assert_eq!(bits(&typed), bits(&dynamic), "tn m={m}");
        }
    }

    #[test]
    fn view_constructors_panic_with_shape_message() {
        let err = std::panic::catch_unwind(|| View2D::<2, 3>::new(&[0.0; 5])).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("View2D<2, 3>") && msg.contains('5'), "{msg}");
        let err = std::panic::catch_unwind(|| Rows2D::<4>::new(&[0.0; 6])).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("Rows2D<4>") && msg.contains('6'), "{msg}");
        assert!(View2D::<2, 3>::try_new(&[0.0; 6]).is_some());
        assert!(View2D::<2, 3>::try_new(&[0.0; 7]).is_none());
    }

    #[test]
    fn rows_mismatch_panics_with_row_counts() {
        let err = std::panic::catch_unwind(|| {
            let x = [0.0f32; 6]; // 3 rows of 2
            let w = [0.0f32; 6]; // View2D<3, 2>
            let mut out = [0.0f32; 6]; // 2 rows of 3: disagrees with x's 3 rows
            gemm_nt_rows(
                Rows2D::<2>::new(&x),
                View2D::<3, 2>::new(&w),
                RowsMut2D::<3>::new(&mut out),
            );
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("gemm_nt_rows") && msg.contains('3') && msg.contains('2'), "{msg}");
    }

    #[test]
    fn split_walks_exact_prefix_and_remainder() {
        let data = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let (pairs, tail) = Rows2D::<2>::split(&data);
        assert_eq!(pairs.rows(), 2);
        assert_eq!(pairs.row(0), &[1.0, 2.0]);
        assert_eq!(pairs.row(1), &[3.0, 4.0]);
        assert_eq!(tail, &[5.0]);
        assert_eq!(pairs.iter().count(), 2);

        let mut data = [0.0f32; 5];
        let (mut pairs, tail) = RowsMut2D::<2>::split(&mut data);
        for (i, row) in pairs.iter_mut().enumerate() {
            row[0] = i as f32;
            row[1] = -(i as f32);
        }
        tail[0] = 9.0;
        assert_eq!(data, [0.0, -0.0, 1.0, -1.0, 9.0]);
    }
}
