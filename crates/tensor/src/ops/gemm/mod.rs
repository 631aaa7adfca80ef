//! The workspace's single GEMM kernel layer.
//!
//! Every matrix product in the workspace — `Tensor::matmul*`, the im2col
//! convolutions in `fedzkt-autograd`, and through them every linear-layer
//! forward/backward — lowers to one of the three kernels in this module.
//! There is deliberately **no other GEMM implementation anywhere in the
//! workspace**: this is the seam where backends plug in, and three are
//! built in:
//!
//! | backend | module | selected when |
//! |---|---|---|
//! | scalar reference | [`scalar`] | always available; the baseline |
//! | vectorized f32 microkernels | `vector` | x86-64 with AVX2 at runtime |
//! | int8 integer kernel (`nn` only) | `int8` | an explicit `gemm_nn_with(ComputeFormat::Int8, …)` call |
//!
//! ## The accumulate-into contract
//!
//! All kernels *accumulate* into the caller-provided output slice:
//! `out += op(A) × op(B)`. Callers that want a plain product pass a
//! zero-filled `out`; callers accumulating a gradient (`dW += …`) pass the
//! running buffer directly and avoid a temporary. `out` must have exactly
//! `m * n` elements.
//!
//! ## Rows of `B` by offset
//!
//! [`gemm_nn_rows`] is [`gemm_nn`] over a `B` whose row `t` is the `n`
//! floats at `b[b_rows[t]..]` instead of at `b[t · n..]`. Rows may overlap,
//! which is the point: a stride-1 convolution's column matrix is its padded
//! input read from `KH·KW` shifted starts, so `fedzkt-autograd` multiplies
//! by it without ever copying it out. It is the same chunk kernels — they
//! take the map from a row's index to its start as a closure, and the dense
//! entry points pass `|t| t · n` — so the per-element float sequence, the
//! backends and the threading are those of [`gemm_nn`].
//!
//! ## Shape checks
//!
//! The public entry points assert every operand length against `(m, k, n)`
//! **in every build profile** — a mismatch panics at the call boundary with
//! the operand name and the full problem size instead of computing on a
//! mis-sized prefix or faulting deep inside a kernel. The checks are three
//! integer compares per call, negligible next to the kernel
//! ([`gemm_nn_rows`] adds one per table entry: the table must hold exactly
//! `k` starts and every row must end inside `b`). There is no entry below
//! the guards: every product, whatever its format, passes them.
//!
//! ## Determinism
//!
//! For fixed operands each output element is accumulated in a fixed order
//! (ascending along the contraction dimension), independent of blocking and
//! of how rows are partitioned across threads. Results are therefore
//! bit-identical for every thread count — the property the federated
//! determinism suite (`tests/determinism.rs`) asserts end to end.
//!
//! The vectorized `nn`/`tn` microkernels reproduce the scalar reference's
//! float sequence exactly (see `vector` module docs), so enabling them
//! never changes results. The vectorized `nt` kernel uses a documented
//! multi-accumulator reduction tree — a *different* deterministic rounding
//! than the scalar dot — so which f32 backend runs is fixed per host (CPU
//! features), never per thread count.
//!
//! ## Compute formats
//!
//! [`gemm_nn`]/[`gemm_nt`]/[`gemm_tn`] are plain `f32`, and they are what
//! every layer calls. [`gemm_nn_with`] takes a [`ComputeFormat`] argument;
//! it exists so the kernel benchmarks can time the int8 kernel, and nothing
//! in a run passes anything but `F32`.
//!
//! ## Parallelism
//!
//! Kernels whose multiply–accumulate count reaches [`PAR_MIN_MACS`]
//! partition their output rows across up to [`crate::par::max_threads`]
//! scoped threads; smaller products stay on the calling thread, so tight
//! loops over tiny matrices never pay a spawn.
//!
//! The dense inner loops intentionally have no `a == 0.0` skip branch: on
//! the dense generator/activation matrices that dominate training it
//! defeats autovectorisation, and benchmarks showed the sparse inputs that
//! would profit (one-hot batches) are too small to matter.
//!
//! ## Adding a microkernel (the add-a-backend guide)
//!
//! Mirroring the add-a-codec guide in `fedzkt-fl`, a new inner kernel
//! (a wider ISA, a different tile shape, a new integer format) slots in
//! without touching any caller:
//!
//! 1. **Write a chunk kernel**, not a full GEMM: a function with the shape
//!    `fn(a, b, row0, rows, k, n)` that computes output rows
//!    `row0..row0 + rows.len()/n`, accumulating into `rows`. The dispatch
//!    layer owns threading ([`row_partitioned`] hands each worker a chunk)
//!    — your kernel must be a pure function of its input rows. An `nn`
//!    kernel also takes a `b_row: impl Fn(usize) -> usize` and must find
//!    row `t` of `B` **only** through it: `n` contiguous floats from
//!    `b[b_row(t)]`, nothing assumed about where row `t + 1` is (it may
//!    overlap row `t`, or precede it). The entry has already checked that
//!    each row ends inside `b`; the kernel reads no float past
//!    `b_row(t) + n`.
//!    Copying a row's tail into a scratch panel is fine — packing never
//!    changes bits. Copy short rows with [`crate::ops::copy_run`], not
//!    `copy_from_slice`: a run whose length is known only at run time
//!    becomes a libc `memcpy` call, and on a 6–16-float edge the call
//!    costs more than the bytes it moves.
//! 2. **State its numerics.** Either reproduce the scalar reference's
//!    per-element float sequence exactly (load-accumulate-store register
//!    tiles, ascending k, no FMA contraction — see `vector::tile`), in
//!    which case nothing else changes; or document the new fixed reduction
//!    (as `vector::dot_trees` does) and regenerate benchmark artifacts. A
//!    kernel whose result depends on thread count is a bug the
//!    `parallel_path_is_bit_identical_to_serial` test will catch.
//! 3. **Gate it.** CPU features are runtime-detected once (see
//!    `vector::available`); `#[target_feature]` functions are the only
//!    `unsafe` in the crate and each call site documents the detection
//!    guard.
//! 4. **Test + bench it.** Add the backend to the property suite
//!    (`tests/properties.rs` compares every path against the naive
//!    triple loop on remainder-heavy shapes); its throughput is read from
//!    the `tensor.gemm_*_gflops.*` per-layer metrics of `benchmark/`
//!    (`BENCHMARK.json`), parent against change.
//! 5. **Wire it in behind the guards.** Select the backend inside the
//!    entry's body (`gemm_nn_with`, `gemm_nt`, `gemm_tn`), after its
//!    `check_len` calls, so every caller reaches it through the one entry.
//!    Shape validation belongs in the public entries only; kernels may
//!    assume checked lengths.

pub mod int8;
pub mod scalar;
pub mod vector;

use crate::compute::ComputeFormat;
use crate::par;

/// Contraction-dimension panel size: one `B` panel (`K_BLOCK × n` floats)
/// stays cache-resident while a worker streams its rows of `A` over it.
const K_BLOCK: usize = 128;

/// Minimum number of multiply–accumulates (`m * k * n`) before a kernel
/// forks; below this the spawn cost of scoped threads outweighs the work.
pub const PAR_MIN_MACS: usize = 1 << 20;

/// Columns in one register tile of the vectorized `nn`/`tn` kernel: there a
/// product `n` columns wide costs what `n.next_multiple_of(NN_TILE_COLUMNS)`
/// columns cost, which a caller choosing between one wide product and many
/// narrow ones (the convolution selector in `fedzkt-autograd`) has to count.
pub const NN_TILE_COLUMNS: usize = 16;

/// Name of the f32 backend the dispatch layer selects on this host
/// (`"avx2"` or `"scalar"`), for benchmark metadata and diagnostics.
pub fn backend_name() -> &'static str {
    if vector_available() {
        "avx2"
    } else {
        "scalar"
    }
}

/// Whether the vectorized f32 microkernels are active on this host.
pub fn vector_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        vector::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Always-on entry guard: one compare per operand, with the cold panic
/// path outlined so the check costs a predictable branch next to an
/// `O(m·k·n)` kernel. Every public entry runs it on each operand before
/// dispatching to a backend.
#[inline(always)]
fn check_len(
    kernel: &'static str,
    operand: &'static str,
    got: usize,
    want: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if got != want {
        shape_panic(kernel, operand, got, want, m, k, n);
    }
}

#[cold]
#[inline(never)]
fn shape_panic(
    kernel: &'static str,
    operand: &'static str,
    got: usize,
    want: usize,
    m: usize,
    k: usize,
    n: usize,
) -> ! {
    panic!("{kernel}: {operand}.len() = {got}, expected {want} for (m={m}, k={k}, n={n})");
}

#[cold]
#[inline(never)]
fn row_range_panic(t: usize, start: usize, b_len: usize, m: usize, k: usize, n: usize) -> ! {
    panic!(
        "gemm_nn_rows: b_rows[{t}] = {start} puts row {t} at b[{start}..{start} + {n}], \
         b.len() = {b_len} for (m={m}, k={k}, n={n})"
    );
}

/// `out += A × B` with `A: [m, k]`, `B: [k, n]`, `out: [m, n]`, all dense
/// row-major, in `f32`.
///
/// # Panics
/// In every build profile, if a slice length disagrees with `(m, k, n)` —
/// the message names the operand, its length, and the full problem size.
pub fn gemm_nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_nn_with(ComputeFormat::F32, a, b, out, m, k, n);
}

/// [`gemm_nn`] with an explicit compute format.
pub fn gemm_nn_with(
    format: ComputeFormat,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_len("gemm_nn", "a", a.len(), m * k, m, k, n);
    check_len("gemm_nn", "b", b.len(), k * n, m, k, n);
    check_len("gemm_nn", "out", out.len(), m * n, m, k, n);
    match format {
        ComputeFormat::F32 => row_partitioned(out, m, k, n, |row0, rows| {
            #[cfg(target_arch = "x86_64")]
            if vector::available() {
                // SAFETY: gated on runtime AVX2 detection.
                unsafe { vector::nn_chunk_avx2(a, b, |t| t * n, row0, rows, k, n) };
                return;
            }
            scalar::nn_chunk(a, b, |t| t * n, row0, rows, k, n);
        }),
        ComputeFormat::Int8 => int8::gemm_nn(a, b, out, m, k, n),
    }
}

/// [`gemm_nn`] over a `B` whose rows lie wherever `b_rows` says: row `t` is
/// `b[b_rows[t]..][..n]`. Rows may overlap and come in any order — a
/// stride-1 convolution reads its column matrix straight out of the padded
/// input this way, one table entry per `(c, kh, kw)`, without building it.
/// `b_rows[t] = t · n` is [`gemm_nn`] exactly: same kernels, same float
/// sequence per output element, same threading.
///
/// # Panics
/// In every build profile, if `a` or `out` disagrees with `(m, k, n)`, if
/// `b_rows` does not hold exactly `k` entries, or if any row would run past
/// the end of `b` — the message names the operand and the problem size.
pub fn gemm_nn_rows(
    a: &[f32],
    b: &[f32],
    b_rows: &[usize],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_len("gemm_nn_rows", "a", a.len(), m * k, m, k, n);
    check_len("gemm_nn_rows", "b_rows", b_rows.len(), k, m, k, n);
    check_len("gemm_nn_rows", "out", out.len(), m * n, m, k, n);
    for (t, &start) in b_rows.iter().enumerate() {
        if start.checked_add(n).is_none_or(|end| end > b.len()) {
            row_range_panic(t, start, b.len(), m, k, n);
        }
    }
    row_partitioned(out, m, k, n, |row0, rows| {
        #[cfg(target_arch = "x86_64")]
        if vector::available() {
            // SAFETY: gated on runtime AVX2 detection.
            unsafe { vector::nn_chunk_avx2(a, b, |t| b_rows[t], row0, rows, k, n) };
            return;
        }
        scalar::nn_chunk(a, b, |t| b_rows[t], row0, rows, k, n);
    });
}

/// `out += A × Bᵀ` with `A: [m, k]`, `B: [n, k]`, `out: [m, n]`, in `f32`.
///
/// Both operands are traversed along contiguous rows (each output element is
/// a dot product of two rows), so no transpose is ever materialised.
///
/// # Panics
/// In every build profile, if a slice length disagrees with `(m, k, n)` —
/// the message names the operand, its length, and the full problem size.
pub fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check_len("gemm_nt", "a", a.len(), m * k, m, k, n);
    check_len("gemm_nt", "b", b.len(), n * k, m, k, n);
    check_len("gemm_nt", "out", out.len(), m * n, m, k, n);
    row_partitioned(out, m, k, n, |row0, rows| {
        #[cfg(target_arch = "x86_64")]
        if vector::available() {
            // SAFETY: gated on runtime AVX2 detection.
            unsafe { vector::nt_chunk_avx2(a, b, row0, rows, k, n) };
            return;
        }
        scalar::nt_chunk(a, b, row0, rows, k, n);
    });
}

/// `out += Aᵀ × B` with `A: [k, m]`, `B: [k, n]`, `out: [m, n]`, in `f32`.
///
/// # Panics
/// In every build profile, if a slice length disagrees with `(k, m, n)` —
/// the message names the operand, its length, and the full problem size.
pub fn gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    check_len("gemm_tn", "a", a.len(), k * m, m, k, n);
    check_len("gemm_tn", "b", b.len(), k * n, m, k, n);
    check_len("gemm_tn", "out", out.len(), m * n, m, k, n);
    row_partitioned(out, m, k, n, |row0, rows| {
        #[cfg(target_arch = "x86_64")]
        if vector::available() {
            // SAFETY: gated on runtime AVX2 detection.
            unsafe { vector::tn_chunk_avx2(a, b, row0, rows, k, n, m) };
            return;
        }
        scalar::tn_chunk(a, b, row0, rows, k, n, m);
    });
}

/// Run `body(first_row, row_chunk)` over `out`, forking across threads when
/// the product is large enough. `body` must compute each output row by the
/// same float sequence regardless of chunking (all backends do).
fn row_partitioned(
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    if m * n == 0 {
        return; // Nothing to write; k may still be 0 or huge, irrelevant.
    }
    let threads = if m * k * n >= PAR_MIN_MACS { par::max_threads() } else { 1 };
    par::for_each_chunk_mut(out, n, threads, body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{seeded_rng, Tensor};

    fn naive_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for t in 0..k {
                    out[i * n + j] += a[i * k + t] * b[t * n + j];
                }
            }
        }
        out
    }

    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; x.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        Tensor::randn(&[len.max(1)], &mut seeded_rng(seed)).data()[..len].to_vec()
    }

    /// Shapes covering the degenerate cases the kernels must not trip on:
    /// empty output rows/cols ([0, K] / [K, 0]), an empty contraction
    /// ([M, 0] × [0, N]), 1×1, and dense rectangles — one beyond `K_BLOCK`
    /// to exercise panelling, and several straddling the microkernel tile
    /// (MR = 4 rows, NR = 16 columns) to exercise every remainder path.
    const SHAPES: &[(usize, usize, usize)] = &[
        (0, 3, 4),
        (3, 0, 4),
        (3, 4, 0),
        (0, 0, 0),
        (1, 1, 1),
        (2, 3, 4),
        (5, 7, 3),
        (8, 8, 8),
        (13, 1, 9),
        (3, 150, 5),
        (4, 9, 16),
        (9, 17, 33),
        (12, 140, 48),
        (7, 130, 31),
    ];

    #[test]
    fn nn_matches_naive_on_all_shapes() {
        for &(m, k, n) in SHAPES {
            let a = rand_vec(m * k, 1);
            let b = rand_vec(k * n, 2);
            let mut out = vec![0.0f32; m * n];
            gemm_nn(&a, &b, &mut out, m, k, n);
            let expected = naive_nn(&a, &b, m, k, n);
            for (x, y) in out.iter().zip(&expected) {
                assert!((x - y).abs() < 1e-3, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn nt_matches_nn_of_transpose_on_all_shapes() {
        for &(m, k, n) in SHAPES {
            let a = rand_vec(m * k, 3);
            let bt = rand_vec(n * k, 4); // B stored as [n, k]
            let mut out = vec![0.0f32; m * n];
            gemm_nt(&a, &bt, &mut out, m, k, n);
            let expected = naive_nn(&a, &transpose(&bt, n, k), m, k, n);
            for (x, y) in out.iter().zip(&expected) {
                assert!((x - y).abs() < 1e-3, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn tn_matches_nn_of_transpose_on_all_shapes() {
        for &(m, k, n) in SHAPES {
            let at = rand_vec(k * m, 5); // A stored as [k, m]
            let b = rand_vec(k * n, 6);
            let mut out = vec![0.0f32; m * n];
            gemm_tn(&at, &b, &mut out, k, m, n);
            let expected = naive_nn(&transpose(&at, k, m), &b, m, k, n);
            for (x, y) in out.iter().zip(&expected) {
                assert!((x - y).abs() < 1e-3, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    /// The dispatched `nn`/`tn` kernels (vectorized on AVX2 hosts) must be
    /// bit-identical to the scalar reference — the contract that lets CPU
    /// feature detection never change results.
    #[test]
    fn dispatched_nn_tn_bit_identical_to_scalar_reference() {
        for &(m, k, n) in SHAPES {
            let a = rand_vec(m * k, 11);
            let b = rand_vec(k * n, 12);
            let mut fast = vec![0.1f32; m * n];
            let mut reference = vec![0.1f32; m * n];
            gemm_nn(&a, &b, &mut fast, m, k, n);
            scalar::gemm_nn(&a, &b, &mut reference, m, k, n);
            for (x, y) in fast.iter().zip(&reference) {
                assert_eq!(x.to_bits(), y.to_bits(), "nn ({m},{k},{n})");
            }
            let at = rand_vec(k * m, 13);
            let mut fast = vec![-0.3f32; m * n];
            let mut reference = vec![-0.3f32; m * n];
            gemm_tn(&at, &b, &mut fast, k, m, n);
            scalar::gemm_tn(&at, &b, &mut reference, k, m, n);
            for (x, y) in fast.iter().zip(&reference) {
                assert_eq!(x.to_bits(), y.to_bits(), "tn ({m},{k},{n})");
            }
        }
    }

    /// The offset-row entry against [`gemm_nn`] on a gathered copy of `B`,
    /// bitwise, with rows that overlap and come out of order (what a
    /// convolution reading its padded input produces) — and the scalar
    /// kernel against the dispatched one through the same table.
    #[test]
    fn nn_rows_bit_identical_to_nn_on_the_gathered_rows() {
        for &(m, k, n) in SHAPES {
            let a = rand_vec(m * k, 31);
            // Rows start every 3 floats, last first: neighbours share n - 3.
            let arena = rand_vec(3 * k + n, 32);
            let starts: Vec<usize> = (0..k).rev().map(|t| 3 * t).collect();
            let gathered: Vec<f32> =
                starts.iter().flat_map(|&s| arena[s..s + n].iter().copied()).collect();
            let mut by_table = vec![0.25f32; m * n];
            let mut by_copy = vec![0.25f32; m * n];
            let mut scalar_by_table = vec![0.25f32; m * n];
            gemm_nn_rows(&a, &arena, &starts, &mut by_table, m, k, n);
            gemm_nn(&a, &gathered, &mut by_copy, m, k, n);
            if m * n > 0 {
                scalar::nn_chunk(&a, &arena, |t| starts[t], 0, &mut scalar_by_table, k, n);
            }
            for ((x, y), z) in by_table.iter().zip(&by_copy).zip(&scalar_by_table) {
                assert_eq!(x.to_bits(), y.to_bits(), "table vs copy ({m},{k},{n})");
                assert_eq!(x.to_bits(), z.to_bits(), "dispatched vs scalar ({m},{k},{n})");
            }
        }
    }

    /// The documented `nt` reduction tree (`vector` module docs), one
    /// element at a time: `out += tree(A row · B row)`.
    fn nt_tree_model(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
        for (i, or) in out.chunks_exact_mut(n).enumerate() {
            for (j, o) in or.iter_mut().enumerate() {
                let mut lanes = [0.0f32; 32];
                for t in 0..k {
                    lanes[t % 32] += a[i * k + t] * b[j * k + t];
                }
                for width in [16, 8, 4, 2, 1] {
                    for l in 0..width {
                        lanes[l] += lanes[l + width];
                    }
                }
                *o += lanes[0];
            }
        }
    }

    /// The dispatched `nt` kernel on an AVX2 host is bitwise the documented
    /// tree for every output, whichever output it is paired with, over
    /// contractions empty, shorter than, equal to and past one 32-lane pass
    /// (1152 is the zoo's widest), odd and even `n`, and at one worker and at
    /// four (`m ≥ 4, k = 1152, n = 255` crosses the fork threshold).
    #[test]
    fn nt_tree_model_matches_gemm_nt() {
        if !vector_available() {
            return; // The scalar backend's single-accumulator dot is the reference there.
        }
        let _guard = crate::par::TEST_OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for threads in [1usize, 4] {
            crate::par::set_threads(threads);
            for m in 1..=5 {
                for k in [0usize, 1, 31, 32, 33, 95, 1152] {
                    for n in [1usize, 2, 7, 16, 255] {
                        let a = rand_vec(m * k, 41);
                        let b = rand_vec(n * k, 42);
                        let mut dispatched = rand_vec(m * n, 43);
                        let mut model = dispatched.clone();
                        gemm_nt(&a, &b, &mut dispatched, m, k, n);
                        nt_tree_model(&a, &b, &mut model, k, n);
                        for (j, (x, y)) in dispatched.iter().zip(&model).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "output {j} of (m={m}, k={k}, n={n}) at {threads} threads"
                            );
                        }
                    }
                }
            }
        }
        crate::par::set_threads(0);
    }

    #[test]
    fn int8_format_approximates_f32_product() {
        let (m, k, n) = (9, 33, 17);
        let a = rand_vec(m * k, 21);
        let b = rand_vec(k * n, 22);
        let mut q = vec![0.0f32; m * n];
        gemm_nn_with(ComputeFormat::Int8, &a, &b, &mut q, m, k, n);
        let exact = naive_nn(&a, &b, m, k, n);
        // Loose smoke bound here; tests/properties.rs pins the codec-derived
        // scale/2 accumulation bound per variant.
        for (x, y) in q.iter().zip(&exact) {
            assert!((x - y).abs() < 0.5, "{x} vs {y}");
        }
    }

    #[test]
    fn kernels_accumulate_instead_of_overwriting() {
        let a = [2.0f32];
        let b = [3.0f32];
        let mut out = [10.0f32];
        gemm_nn(&a, &b, &mut out, 1, 1, 1);
        assert_eq!(out[0], 16.0);
        gemm_nt(&a, &b, &mut out, 1, 1, 1);
        assert_eq!(out[0], 22.0);
        gemm_tn(&a, &b, &mut out, 1, 1, 1);
        assert_eq!(out[0], 28.0);
    }

    #[test]
    fn parallel_path_is_bit_identical_to_serial() {
        let _guard = crate::par::TEST_OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Big enough that m*k*n clears PAR_MIN_MACS and the row partition
        // actually engages.
        let (m, k, n) = (128, 128, 128);
        assert!(m * k * n >= PAR_MIN_MACS);
        let a = rand_vec(m * k, 7);
        let b = rand_vec(k * n, 8);
        // The f32 kernels in all three layouts, and the int8 kernel.
        let run = |threads: usize| {
            crate::par::set_threads(threads);
            let mut nn = vec![0.0f32; m * n];
            gemm_nn(&a, &b, &mut nn, m, k, n);
            let mut nt = vec![0.0f32; m * n];
            gemm_nt(&a, &b, &mut nt, m, k, n);
            let mut tn = vec![0.0f32; m * n];
            gemm_tn(&a, &b, &mut tn, k, m, n);
            let mut int8_nn = vec![0.0f32; m * n];
            gemm_nn_with(ComputeFormat::Int8, &a, &b, &mut int8_nn, m, k, n);
            crate::par::set_threads(0);
            [nn, nt, tn, int8_nn]
        };
        let serial = run(1);
        for threads in [2usize, 4, 7] {
            let parallel = run(threads);
            let variants = ["nn", "nt", "tn", "int8 nn"];
            for (variant, (s, p)) in variants.iter().zip(serial.iter().zip(&parallel)) {
                for (x, y) in s.iter().zip(p.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} {variant}");
                }
            }
        }
    }

    #[test]
    fn zero_values_are_not_skipped() {
        // -0.0 propagation: 1·(-0.0) summed from a +0.0 accumulator must
        // follow IEEE addition, not a skip branch. (+0.0) + (1 × -0.0) = +0.0,
        // and (-0.0) would be the branchy result of copying the product.
        let a = [1.0f32];
        let b = [-0.0f32];
        let mut out = [0.0f32];
        gemm_nn(&a, &b, &mut out, 1, 1, 1);
        assert_eq!(out[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn int8_format_is_exact_on_constant_operands() {
        // A constant×constant product is exact under affine quantization
        // (scale = 0), so the int8 call must agree with f32 exactly.
        let a = [2.0f32; 6];
        let b = [3.0f32; 6];
        let mut out = [0.0f32; 4];
        gemm_nn_with(ComputeFormat::Int8, &a, &b, &mut out, 2, 3, 2);
        assert_eq!(out, [18.0f32; 4]);
    }
}
