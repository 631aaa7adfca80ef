//! Regression tests for the always-on GEMM shape guards.
//!
//! The `debug_assert_eq!` length guards in `ops::gemm` were compiled out
//! of release builds, so a mis-sized operand silently read or wrote out
//! of whatever the slice happened to hold (issue: release-mode GEMM shape
//! checks missing). The guards are now unconditional entry asserts; these
//! tests pin that they fire **in every build profile** — CI runs this
//! file under `--release` — and that the panic message names the kernel,
//! the offending operand, and the full `(m, k, n)` problem size.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fedzkt_tensor::ops::gemm;

/// Run `f` and return the panic payload as a string; panics if `f` does
/// not panic.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = catch_unwind(f).expect_err("expected a shape panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload should be a string")
}

#[test]
fn gemm_nn_rejects_mis_sized_out_with_shape_message() {
    // The headline case from the issue: `out` one element short. In the
    // old release build this wrote m·n − 1 elements and silently dropped
    // the last row's tail; now it must panic before touching anything.
    let a = vec![1.0f32; 3 * 4];
    let b = vec![1.0f32; 4 * 5];
    let mut out = vec![0.0f32; 3 * 5 - 1];
    let msg = panic_message(AssertUnwindSafe(|| {
        gemm::gemm_nn(&a, &b, &mut out, 3, 4, 5);
    }));
    assert!(msg.contains("gemm_nn"), "{msg}");
    assert!(msg.contains("out.len() = 14"), "{msg}");
    assert!(msg.contains("expected 15"), "{msg}");
    assert!(msg.contains("(m=3, k=4, n=5)"), "{msg}");
}

#[test]
fn gemm_nn_rejects_mis_sized_a_and_b() {
    let good_a = vec![0.0f32; 2 * 3];
    let good_b = vec![0.0f32; 3 * 4];
    let short_a = vec![0.0f32; 2 * 3 - 2];
    let short_b = vec![0.0f32; 3 * 4 + 1];

    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 2 * 4];
        gemm::gemm_nn(&short_a, &good_b, &mut out, 2, 3, 4);
    }));
    assert!(msg.contains("gemm_nn") && msg.contains("a.len() = 4"), "{msg}");

    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 2 * 4];
        gemm::gemm_nn(&good_a, &short_b, &mut out, 2, 3, 4);
    }));
    assert!(msg.contains("gemm_nn") && msg.contains("b.len() = 13"), "{msg}");
}

#[test]
fn gemm_nt_rejects_mis_sized_operands() {
    // B is stored [n, k] here; the guard must use the transposed extent.
    let a = vec![0.0f32; 2 * 3];
    let bt = vec![0.0f32; 4 * 3];

    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 2 * 4];
        gemm::gemm_nt(&a[..5], &bt, &mut out, 2, 3, 4);
    }));
    assert!(msg.contains("gemm_nt") && msg.contains("a.len() = 5"), "{msg}");

    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 2 * 4];
        gemm::gemm_nt(&a, &bt[..11], &mut out, 2, 3, 4);
    }));
    assert!(msg.contains("gemm_nt") && msg.contains("b.len() = 11"), "{msg}");

    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 2 * 4 + 3];
        gemm::gemm_nt(&a, &bt, &mut out, 2, 3, 4);
    }));
    assert!(msg.contains("gemm_nt") && msg.contains("out.len() = 11"), "{msg}");
    assert!(msg.contains("(m=2, k=3, n=4)"), "{msg}");
}

#[test]
fn gemm_tn_rejects_mis_sized_operands() {
    // A is stored [k, m] and the dynamic argument order leads with k;
    // the message must still report the logical (m, k, n).
    let at = vec![0.0f32; 3 * 2];
    let b = vec![0.0f32; 3 * 4];

    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 2 * 4];
        gemm::gemm_tn(&at[..4], &b, &mut out, 3, 2, 4);
    }));
    assert!(msg.contains("gemm_tn") && msg.contains("a.len() = 4"), "{msg}");
    assert!(msg.contains("expected 6"), "{msg}");
    assert!(msg.contains("(m=2, k=3, n=4)"), "{msg}");

    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 2 * 4];
        gemm::gemm_tn(&at, &b[..7], &mut out, 3, 2, 4);
    }));
    assert!(msg.contains("gemm_tn") && msg.contains("b.len() = 7"), "{msg}");

    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 0];
        gemm::gemm_tn(&at, &b, &mut out, 3, 2, 4);
    }));
    assert!(msg.contains("gemm_tn") && msg.contains("out.len() = 0"), "{msg}");
}

#[test]
fn gemm_nn_rows_rejects_a_short_table_and_a_row_past_the_end() {
    // B's rows are wherever the table says, so the table is an operand like
    // any other: one entry short, or one row reaching past `b`, must panic
    // at the entry — not index out of range somewhere inside a tile.
    let a = vec![0.0f32; 2 * 3];
    let b = vec![0.0f32; 10];

    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 2 * 4];
        gemm::gemm_nn_rows(&a, &b, &[0, 1], &mut out, 2, 3, 4);
    }));
    assert!(msg.contains("gemm_nn_rows") && msg.contains("b_rows.len() = 2"), "{msg}");
    assert!(msg.contains("expected 3") && msg.contains("(m=2, k=3, n=4)"), "{msg}");

    // 7 + 4 > 10; the rows before it are fine and overlap each other.
    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 2 * 4];
        gemm::gemm_nn_rows(&a, &b, &[0, 1, 7], &mut out, 2, 3, 4);
    }));
    assert!(msg.contains("gemm_nn_rows") && msg.contains("b_rows[2] = 7"), "{msg}");
    assert!(msg.contains("b.len() = 10") && msg.contains("(m=2, k=3, n=4)"), "{msg}");

    // An offset near usize::MAX must not wrap past the check.
    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 2 * 4];
        gemm::gemm_nn_rows(&a, &b, &[0, usize::MAX - 1, 2], &mut out, 2, 3, 4);
    }));
    assert!(msg.contains("b_rows[1]"), "{msg}");

    let msg = panic_message(AssertUnwindSafe(|| {
        let mut out = vec![0.0f32; 2 * 4 - 1];
        gemm::gemm_nn_rows(&a, &b, &[0, 1, 6], &mut out, 2, 3, 4);
    }));
    assert!(msg.contains("gemm_nn_rows") && msg.contains("out.len() = 7"), "{msg}");

    // The last row may end exactly at the end of `b`.
    let mut out = vec![0.0f32; 2 * 4];
    gemm::gemm_nn_rows(&a, &b, &[0, 1, 6], &mut out, 2, 3, 4);
}

#[test]
fn guards_fire_for_both_compute_formats() {
    use fedzkt_tensor::ComputeFormat;
    // The check sits above the format dispatch, so int8 is guarded too.
    let a = vec![0.0f32; 2 * 2];
    let b = vec![0.0f32; 2 * 2];
    for format in [ComputeFormat::F32, ComputeFormat::Int8] {
        let msg = panic_message(AssertUnwindSafe(|| {
            let mut out = vec![0.0f32; 3];
            gemm::gemm_nn_with(format, &a, &b, &mut out, 2, 2, 2);
        }));
        assert!(msg.contains("out.len() = 3"), "{format:?}: {msg}");
    }
}

#[test]
fn well_sized_zero_extent_calls_do_not_panic() {
    // m·n == 0 and k == 0 are valid problems, not shape errors: the
    // guards accept exactly-sized operands, including non-empty ones on
    // the extents that are still non-zero (b is [k, n] even when m == 0).
    let b = vec![0.0f32; 3 * 4];
    let mut out = vec![0.0f32; 0];
    gemm::gemm_nn(&[], &b, &mut out, 0, 3, 4);
    gemm::gemm_nt(&[], &b, &mut out, 0, 3, 4); // b reinterpreted [n=4, k=3]
    gemm::gemm_tn(&[], &b, &mut out, 3, 0, 4);
    let mut out = vec![0.5f32; 6];
    gemm::gemm_nn(&[], &[], &mut out, 2, 0, 3); // k == 0: out unchanged
    assert!(out.iter().all(|&v| v == 0.5));
}
