//! Property-based tests for the tensor substrate.

use fedzkt_tensor::ops::quant::{quant_range, Q8_LEVELS};
use fedzkt_tensor::ops::{col2im, gemm, im2col, Conv2dGeometry};
use fedzkt_tensor::{conv_output_size, seeded_rng, ComputeFormat, Tensor};
use proptest::prelude::*;

fn small_tensor(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim, proptest::collection::vec(-10.0f32..10.0, max_dim * max_dim))
        .prop_map(|(r, c, mut data)| {
            data.truncate(r * c);
            while data.len() < r * c {
                data.push(0.5);
            }
            Tensor::from_vec(data, &[r, c]).unwrap()
        })
}

/// Zero-initialized `len`-element output run through `f` (the GEMM
/// contract is accumulate-into).
fn run_f32(f: impl FnOnce(&mut [f32]), len: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; len];
    f(&mut out);
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// f64 triple-loop `A[m,k] × B[k,n]` reference.
fn naive_nn64(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        for t in 0..k {
            let av = f64::from(a[i * k + t]);
            for j in 0..n {
                out[i * n + j] += av * f64::from(b[t * n + j]);
            }
        }
    }
    out
}

/// f64 triple-loop `A[m,k] × B[n,k]ᵀ` reference.
fn naive_nt64(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            for t in 0..k {
                out[i * n + j] += f64::from(a[i * k + t]) * f64::from(b[j * k + t]);
            }
        }
    }
    out
}

/// f64 triple-loop `A[k,m]ᵀ × B[k,n]` reference.
fn naive_tn64(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; m * n];
    for t in 0..k {
        for i in 0..m {
            let av = f64::from(a[t * m + i]);
            for j in 0..n {
                out[i * n + j] += av * f64::from(b[t * n + j]);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_commutes(a in small_tensor(6)) {
        let b = a.map(|x| x * 0.5 - 1.0);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn sub_then_add_roundtrips(a in small_tensor(6)) {
        let b = a.map(|x| x.sin());
        let back = a.sub(&b).unwrap().add(&b).unwrap();
        for (x, y) in back.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn mul_scalar_distributes(a in small_tensor(5), s in -3.0f32..3.0) {
        let lhs = a.add(&a).unwrap().mul_scalar(s);
        let rhs = a.mul_scalar(s).add(&a.mul_scalar(s)).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn reshape_preserves_data(a in small_tensor(5)) {
        let n = a.len();
        let r = a.reshape(&[n]).unwrap();
        prop_assert_eq!(r.data(), a.data());
    }

    #[test]
    fn softmax_rows_is_a_distribution(a in small_tensor(6)) {
        let s = a.softmax_rows().unwrap();
        let d = a.shape()[1];
        for row in 0..a.shape()[0] {
            let slice = &s.data()[row * d..(row + 1) * d];
            let sum: f32 = slice.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(slice.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(a in small_tensor(5), shift in -50.0f32..50.0) {
        let s1 = a.softmax_rows().unwrap();
        let s2 = a.add_scalar(shift).softmax_rows().unwrap();
        for (x, y) in s1.data().iter().zip(s2.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_add(seed in 0u64..500) {
        let mut rng = seeded_rng(seed);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[4, 2], &mut rng);
        let c = Tensor::randn(&[4, 2], &mut rng);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_transpose_identity(seed in 0u64..500) {
        // (A B)^T == B^T A^T
        let mut rng = seeded_rng(seed);
        let a = Tensor::randn(&[3, 5], &mut rng);
        let b = Tensor::randn(&[5, 4], &mut rng);
        let lhs = a.matmul(&b).unwrap().transpose2d().unwrap();
        let rhs = b
            .transpose2d().unwrap()
            .matmul(&a.transpose2d().unwrap())
            .unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn conv_output_size_monotone_in_padding(
        input in 3usize..24, kernel in 1usize..4, stride in 1usize..3, pad in 0usize..3,
    ) {
        prop_assume!(input + 2 * pad >= kernel);
        let base = conv_output_size(input, kernel, stride, pad).unwrap();
        let more = conv_output_size(input, kernel, stride, pad + 1).unwrap();
        prop_assert!(more >= base);
    }

    #[test]
    fn im2col_col2im_adjoint(
        seed in 0u64..200, c in 1usize..3, h in 3usize..8, k in 1usize..4,
        stride in 1usize..3, pad in 0usize..2,
    ) {
        prop_assume!(h + 2 * pad >= k);
        let g = Conv2dGeometry::new(c, h, h, k, k, stride, pad).unwrap();
        let mut rng = seeded_rng(seed);
        let x = Tensor::randn(&[g.input_len()], &mut rng);
        let y = Tensor::randn(&[g.col_rows() * g.col_cols()], &mut rng);
        let lhs: f32 = im2col(x.data(), &g).iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(col2im(y.data(), &g)).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{} vs {}", lhs, rhs);
    }

    #[test]
    fn gemm_variants_match_naive_reference(
        seed in 0u64..500, m in 0usize..34, k in 0usize..34, n in 0usize..34,
    ) {
        // Shapes deliberately sweep 0 (empty), 1 (degenerate) and sizes
        // not divisible by the microkernel lane/tile widths (8/16), so
        // every remainder path in the vectorized kernels is exercised.
        let mut rng = seeded_rng(seed);
        let a_nn = Tensor::randn(&[m.max(1), k.max(1)], &mut rng);
        let b_nn = Tensor::randn(&[k.max(1), n.max(1)], &mut rng);
        let a = &a_nn.data()[..m * k];
        let b = &b_nn.data()[..k * n];
        let bt = &b_nn.data()[..n * k]; // reinterpret as [n, k] for nt
        let at = &a_nn.data()[..k * m]; // reinterpret as [k, m] for tn

        for (label, out, reference) in [
            ("nn", run_f32(|o| gemm::gemm_nn(a, b, o, m, k, n), m * n), naive_nn64(a, b, m, k, n)),
            ("nt", run_f32(|o| gemm::gemm_nt(a, bt, o, m, k, n), m * n), naive_nt64(a, bt, m, k, n)),
            ("tn", run_f32(|o| gemm::gemm_tn(at, b, o, k, m, n), m * n), naive_tn64(at, b, k, m, n)),
        ] {
            for (&x, &r) in out.iter().zip(&reference) {
                prop_assert!(
                    (f64::from(x) - r).abs() < 1e-3 * (1.0 + r.abs()),
                    "{label}: {x} vs {r} at m={m} k={k} n={n}"
                );
            }
        }

        // The dispatched nn/tn paths promise bit-identity with the scalar
        // reference kernels (the nt reduction tree is documented to differ).
        let s_nn = run_f32(|o| gemm::scalar::gemm_nn(a, b, o, m, k, n), m * n);
        let d_nn = run_f32(|o| gemm::gemm_nn(a, b, o, m, k, n), m * n);
        prop_assert_eq!(bits(&s_nn), bits(&d_nn), "nn dispatch drifted from scalar");
        let s_tn = run_f32(|o| gemm::scalar::gemm_tn(at, b, o, k, m, n), m * n);
        let d_tn = run_f32(|o| gemm::gemm_tn(at, b, o, k, m, n), m * n);
        prop_assert_eq!(bits(&s_tn), bits(&d_tn), "tn dispatch drifted from scalar");
    }

    #[test]
    fn int8_gemm_error_is_within_accumulated_quant_bound(
        seed in 0u64..500, m in 0usize..20, k in 0usize..34, n in 0usize..20,
    ) {
        // Per element the codec quantization error is scale/2 (see the
        // roundtrip test in ops::quant); accumulated over the contraction
        // the product error is bounded by
        //   k · (sA·bmax/2 + amax·sB/2 + sA·sB/4),
        // plus a small slack for the f32/f64 rounding in the affine
        // correction and the reference itself.
        let mut rng = seeded_rng(seed);
        let a_t = Tensor::randn(&[m.max(1), k.max(1)], &mut rng);
        let b_t = Tensor::randn(&[k.max(1), n.max(1)], &mut rng);
        let a = &a_t.data()[..m * k];
        let b = &b_t.data()[..k * n];
        let out = run_f32(|o| gemm::gemm_nn_with(ComputeFormat::Int8, a, b, o, m, k, n), m * n);
        let reference = naive_nn64(a, b, m, k, n);
        let (_, sa) = quant_range(a, Q8_LEVELS);
        let (_, sb) = quant_range(b, Q8_LEVELS);
        let amax = a.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        let bmax = b.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        let (sa, sb, amax, bmax) =
            (f64::from(sa), f64::from(sb), f64::from(amax), f64::from(bmax));
        let bound = k as f64 * (sa * bmax / 2.0 + amax * sb / 2.0 + sa * sb / 4.0);
        for (&x, &r) in out.iter().zip(&reference) {
            let tol = bound * 1.001 + 1e-4 * (1.0 + r.abs());
            prop_assert!(
                (f64::from(x) - r).abs() <= tol,
                "int8: {x} vs {r}, bound {bound} at m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn gather_matches_slice(start in 0usize..3, len in 1usize..3) {
        let t = Tensor::from_vec((0..30).map(|x| x as f32).collect(), &[6, 5]).unwrap();
        let end = (start + len).min(6);
        let idx: Vec<usize> = (start..end).collect();
        let gathered = t.gather_first(&idx).unwrap();
        let sliced = t.slice_first(start, end).unwrap();
        prop_assert_eq!(gathered.data(), sliced.data());
    }
}
