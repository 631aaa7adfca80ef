//! The ops as they were recorded before backward closures read their
//! values in place: each closure owned a copy of every value it reads (a
//! parent's, or for `tanh`, `sigmoid`, `exp` and `softmax` its own
//! output), taken when the op was recorded. Kept as the oracle the
//! in-place closures ([`ParentRef`](crate::var::ParentRef)) and the
//! activations' masks are pinned against: forward, `dX` and `dW` keep
//! these bits, at one worker and at four, with parameter operands live and
//! frozen, and with each operand in turn a constant.
//!
//! Batch norm's copy-based oracle lives with its kernels (`ops/norm.rs`),
//! and is run the same way there.

use crate::loss::cross_entropy;
use crate::ops::lowered_grads;
use crate::{frozen_params, no_grad, Var};
use fedzkt_tensor::ops::Conv2dGeometry;
use fedzkt_tensor::{par, seeded_rng, Prng, Tensor};

/// `x.map(f)`, with a backward `g ⊙ df(g, x)` over a copy of `x`.
fn unary(x: &Var, f: impl Fn(f32) -> f32, df: impl Fn(f32, f32) -> f32 + 'static) -> Var {
    let xv = x.value_clone();
    let value = xv.map(f);
    Var::from_op(value, vec![x.clone()], move |g| vec![Some(g.zip_map(&xv, &df).unwrap())])
}

/// `x.map(f)`, with a backward `g ⊙ df(g, y)` over a copy of the output `y`.
fn unary_of_output(x: &Var, f: impl Fn(f32) -> f32, df: impl Fn(f32, f32) -> f32 + 'static) -> Var {
    let value = x.value_clone().map(f);
    let yv = value.clone();
    Var::from_op(value, vec![x.clone()], move |g| vec![Some(g.zip_map(&yv, &df).unwrap())])
}

/// NaN passes through, as in `Var::relu`.
fn relu(x: &Var) -> Var {
    unary(x, |v| if v.is_nan() { v } else { v.max(0.0) }, |gi, xi| if xi > 0.0 { gi } else { 0.0 })
}

fn leaky_relu(x: &Var, slope: f32) -> Var {
    unary(
        x,
        move |v| if v > 0.0 { v } else { slope * v },
        move |gi, xi| if xi > 0.0 { gi } else { slope * gi },
    )
}

fn relu6(x: &Var) -> Var {
    unary(x, |v| v.clamp(0.0, 6.0), |gi, xi| if xi > 0.0 && xi < 6.0 { gi } else { 0.0 })
}

fn abs(x: &Var) -> Var {
    unary(x, f32::abs, |gi, xi| gi * xi.signum() * f32::from(xi != 0.0))
}

fn square(x: &Var) -> Var {
    unary(x, |v| v * v, |gi, xi| gi * 2.0 * xi)
}

fn ln_eps(x: &Var, eps: f32) -> Var {
    unary(x, move |v| (v.max(0.0) + eps).ln(), move |gi, xi| gi / (xi.max(0.0) + eps))
}

fn tanh(x: &Var) -> Var {
    unary_of_output(x, f32::tanh, |gi, yi| gi * (1.0 - yi * yi))
}

fn sigmoid(x: &Var) -> Var {
    unary_of_output(x, |v| 1.0 / (1.0 + (-v).exp()), |gi, yi| gi * yi * (1.0 - yi))
}

fn exp(x: &Var) -> Var {
    unary_of_output(x, f32::exp, |gi, yi| gi * yi)
}

fn softmax(x: &Var) -> Var {
    let value = x.value_clone().softmax_rows().unwrap();
    let y = value.clone();
    Var::from_op(value, vec![x.clone()], move |g| {
        let k = y.shape()[1];
        let mut out = vec![0.0f32; y.len()];
        for ((o, yr), gr) in out.chunks_mut(k).zip(y.data().chunks(k)).zip(g.data().chunks(k)) {
            let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
            for j in 0..k {
                o[j] = yr[j] * (gr[j] - dot);
            }
        }
        vec![Some(Tensor::from_vec(out, y.shape()).unwrap())]
    })
}

fn mul(lhs: &Var, rhs: &Var) -> Var {
    let (a, b) = (lhs.value_clone(), rhs.value_clone());
    let value = a.mul(&b).unwrap();
    let need = (lhs.requires_grad(), rhs.requires_grad());
    Var::from_op(value, vec![lhs.clone(), rhs.clone()], move |g| {
        vec![need.0.then(|| g.mul(&b).unwrap()), need.1.then(|| g.mul(&a).unwrap())]
    })
}

fn matmul(lhs: &Var, rhs: &Var) -> Var {
    let (a, b) = (lhs.value_clone(), rhs.value_clone());
    let value = a.matmul(&b).unwrap();
    let need = (lhs.requires_grad(), rhs.requires_grad());
    Var::from_op(value, vec![lhs.clone(), rhs.clone()], move |g| {
        vec![need.0.then(|| g.matmul_nt(&b).unwrap()), need.1.then(|| a.matmul_tn(g).unwrap())]
    })
}

fn linear(input: &Var, weight: &Var, bias: Option<&Var>) -> Var {
    let (x, w) = (input.value_clone(), weight.value_clone());
    let value = x.matmul_nt(&w).unwrap();
    let need = (input.requires_grad(), weight.param_requires_grad());
    let out = Var::from_op(value, vec![input.clone(), weight.clone()], move |g| {
        vec![need.0.then(|| g.matmul(&w).unwrap()), need.1.then(|| g.matmul_tn(&x).unwrap())]
    });
    match bias {
        Some(b) => out.add_bias(b),
        None => out,
    }
}

/// Max pooling with the argmax kept for the backward (finite inputs: the
/// NaN rule is newer than this reference).
fn max_pool2d(input: &Var, k: usize, stride: usize) -> Var {
    let x = input.value_clone();
    let [n, c, h, w] = <[usize; 4]>::try_from(x.shape()).unwrap();
    let geom = Conv2dGeometry::new(1, h, w, k, k, stride, 0).unwrap();
    let (oh, ow) = (geom.out_h, geom.out_w);
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut argmax = vec![0usize; n * c * oh * ow];
    for p in 0..n * c {
        let plane = &x.data()[p * h * w..(p + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let (mut best, mut best_idx) = (f32::NEG_INFINITY, 0);
                for ky in 0..k {
                    for kx in 0..k {
                        let idx = (oy * stride + ky) * w + ox * stride + kx;
                        if plane[idx] > best {
                            (best, best_idx) = (plane[idx], idx);
                        }
                    }
                }
                out[p * oh * ow + oy * ow + ox] = best;
                argmax[p * oh * ow + oy * ow + ox] = best_idx;
            }
        }
    }
    let value = Tensor::from_vec(out, &[n, c, oh, ow]).unwrap();
    Var::from_op(value, vec![input.clone()], move |g| {
        let mut dx = vec![0.0f32; n * c * h * w];
        for p in 0..n * c {
            for i in 0..oh * ow {
                dx[p * h * w + argmax[p * oh * ow + i]] += g.data()[p * oh * ow + i];
            }
        }
        vec![Some(Tensor::from_vec(dx, &[n, c, h, w]).unwrap())]
    })
}

/// Cross-entropy over a copy of the logits.
fn cross_entropy_copied(logits: &Var, labels: &[usize]) -> Var {
    let values = logits.value_clone();
    let (n, k) = (values.shape()[0], values.shape()[1]);
    let probs = values.softmax_rows().unwrap();
    let mut total = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        total -= probs.data()[i * k + label].max(1e-30).ln();
    }
    let labels = labels.to_vec();
    Var::from_op(Tensor::scalar(total / n as f32), vec![logits.clone()], move |g| {
        let scale = g.item() / n as f32;
        let mut dx = probs.data().to_vec();
        for (i, &label) in labels.iter().enumerate() {
            dx[i * k + label] -= 1.0;
        }
        for v in &mut dx {
            *v *= scale;
        }
        vec![Some(Tensor::from_vec(dx, &[n, k]).unwrap())]
    })
}

/// `conv2d` saving copies of its input (for `dW`) and weights (for `dX`)
/// and differentiating through the lowering, which the direct depthwise
/// and padded paths are bitwise (`ops/conv.rs`).
fn conv2d(input: &Var, weight: &Var, stride: usize, pad: usize, groups: usize) -> Var {
    let value = no_grad(|| input.conv2d(weight, stride, pad, groups)).value_clone();
    let xs = <[usize; 4]>::try_from(input.shape()).unwrap();
    let ws = <[usize; 4]>::try_from(weight.shape()).unwrap();
    let geom = Conv2dGeometry::new(ws[1], xs[2], xs[3], ws[2], ws[3], stride, pad).unwrap();
    let saved_x = weight.param_requires_grad().then(|| input.value_clone());
    let saved_w = input.requires_grad().then(|| weight.value_clone());
    Var::from_op(value, vec![input.clone(), weight.clone()], move |g| {
        lowered_grads(g, saved_x.as_ref(), saved_w.as_ref(), &geom, &xs, &ws, groups)
    })
}

type Op<'a> = dyn Fn(&[Var]) -> Var + 'a;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Output bits and each operand's gradient bits (empty when it has none)
/// of `op` under the loss `Σ y·r`, `r` a fixed random tensor: operand `i`
/// is a parameter when `live[i]`, else a constant, and the op is recorded
/// inside [`frozen_params`] when `frozen`.
fn run(op: &Op<'_>, inputs: &[Tensor], live: &[bool], frozen: bool) -> Vec<Vec<u32>> {
    let vars: Vec<Var> = inputs
        .iter()
        .zip(live)
        .map(|(t, &l)| if l { Var::parameter(t.clone()) } else { Var::constant(t.clone()) })
        .collect();
    let y = if frozen { frozen_params(|| op(&vars)) } else { op(&vars) };
    let r = Tensor::randn(&y.shape(), &mut seeded_rng(77));
    y.mul(&Var::constant(r)).sum_all().backward();
    let out = bits(&y.value());
    let grads = vars.iter().map(|v| v.grad().map(|g| bits(&g)).unwrap_or_default());
    std::iter::once(out).chain(grads).collect()
}

/// `production` against `reference` on every input set: at one worker and
/// at four, live and frozen, with all operands parameters and with each in
/// turn a constant.
fn check(name: &str, production: &Op<'_>, reference: &Op<'_>, cases: &[Vec<Tensor>]) {
    for threads in [1, 4] {
        par::set_threads(threads);
        for inputs in cases {
            let k = inputs.len();
            let masks = (0..=k).map(|c| (0..k).map(|i| i != c).collect::<Vec<bool>>());
            for live in masks.filter(|m| m.contains(&true)) {
                for frozen in [false, true] {
                    let shapes: Vec<&[usize]> = inputs.iter().map(Tensor::shape).collect();
                    assert_eq!(
                        run(production, inputs, &live, frozen),
                        run(reference, inputs, &live, frozen),
                        "{name} {shapes:?} live={live:?} frozen={frozen} threads={threads}"
                    );
                }
            }
        }
    }
    par::set_threads(0);
}

/// Normal values at scale 3, laced with `±0.0`, subnormals and the kinks
/// of the activations (0 and 6).
fn laced(shape: &[usize], rng: &mut Prng) -> Tensor {
    let mut t = Tensor::randn(shape, rng).mul_scalar(3.0);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        match i % 11 {
            2 => *v = -0.0,
            4 => *v = 1.0e-39,
            6 => *v = -3.0e-40,
            8 => *v = 0.0,
            10 => *v = 6.0,
            _ => {}
        }
    }
    t
}

/// Normal values laced with the inputs an elementwise op must keep the
/// bits of: NaN, `±0.0`, the activations' kinks at exactly 0 and 6 and
/// either side of them, and `±∞`.
fn special(shape: &[usize], rng: &mut Prng) -> Tensor {
    const SPECIAL: [f32; 10] = [
        f32::NAN,
        -0.0,
        0.0,
        6.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        5.999_999_5,
        6.000_000_5,
        -1.0e-39,
        1.0e-39,
    ];
    let mut t = laced(shape, rng);
    for (i, v) in t.data_mut().iter_mut().enumerate().filter(|(i, _)| i % 3 != 1) {
        *v = SPECIAL[(i / 3 + i) % SPECIAL.len()];
    }
    t
}

#[test]
fn elementwise_ops_match_their_copying_reference() {
    let mut rng = seeded_rng(61);
    let one: Vec<Vec<Tensor>> = [&[7][..], &[3, 5], &[2, 3, 4, 5]]
        .iter()
        .flat_map(|s| [vec![laced(s, &mut rng)], vec![special(s, &mut rng)]])
        .collect();
    type Pair = (&'static str, fn(&Var) -> Var, fn(&Var) -> Var);
    let unaries: [Pair; 9] = [
        ("relu", Var::relu, relu),
        ("relu6", Var::relu6, relu6),
        ("leaky_relu", |x| x.leaky_relu(0.2), |x| leaky_relu(x, 0.2)),
        ("abs", Var::abs, abs),
        ("square", Var::square, square),
        ("ln_eps", |x| x.ln_eps(1e-8), |x| ln_eps(x, 1e-8)),
        ("tanh", Var::tanh, tanh),
        ("sigmoid", Var::sigmoid, sigmoid),
        ("exp", Var::exp, exp),
    ];
    for (name, production, reference) in unaries {
        check(name, &|v| production(&v[0]), &|v| reference(&v[0]), &one);
    }
    let rows: Vec<Vec<Tensor>> = one.iter().filter(|c| c[0].ndim() == 2).cloned().collect();
    check("softmax", &|v| v[0].softmax(), &|v| softmax(&v[0]), &rows);
    let two: Vec<Vec<Tensor>> = [&[7][..], &[2, 3, 4, 5]]
        .iter()
        .flat_map(|s| {
            [
                vec![laced(s, &mut rng), laced(s, &mut rng)],
                vec![special(s, &mut rng), special(s, &mut rng)],
            ]
        })
        .collect();
    check("mul", &|v| v[0].mul(&v[1]), &|v| mul(&v[0], &v[1]), &two);
    check("mul (self)", &|v| v[0].mul(&v[0]), &|v| mul(&v[0], &v[0]), &one);
}

#[test]
fn dense_ops_match_their_copying_reference() {
    let mut rng = seeded_rng(62);
    // The larger shapes cross the GEMM fork threshold.
    let shapes = [(3, 5, 4), (1, 7, 1), (64, 256, 96)];
    let mm: Vec<Vec<Tensor>> = shapes
        .iter()
        .map(|&(m, k, n)| vec![laced(&[m, k], &mut rng), laced(&[k, n], &mut rng)])
        .collect();
    check("matmul", &|v| v[0].matmul(&v[1]), &|v| matmul(&v[0], &v[1]), &mm);
    let lin: Vec<Vec<Tensor>> = shapes
        .iter()
        .map(|&(m, k, n)| {
            vec![laced(&[m, k], &mut rng), laced(&[n, k], &mut rng), laced(&[n], &mut rng)]
        })
        .collect();
    check(
        "linear",
        &|v| v[0].linear(&v[1], Some(&v[2])),
        &|v| linear(&v[0], &v[1], Some(&v[2])),
        &lin,
    );
    let no_bias: Vec<Vec<Tensor>> = lin.iter().map(|c| c[..2].to_vec()).collect();
    check(
        "linear (no bias)",
        &|v| v[0].linear(&v[1], None),
        &|v| linear(&v[0], &v[1], None),
        &no_bias,
    );
}

#[test]
fn pooling_and_cross_entropy_match_their_copying_reference() {
    let mut rng = seeded_rng(63);
    let img: Vec<Vec<Tensor>> =
        [[2, 3, 8, 8], [1, 2, 5, 7]].iter().map(|s| vec![laced(s, &mut rng)]).collect();
    for (k, stride) in [(2, 2), (3, 1), (2, 1)] {
        check(
            &format!("max_pool2d k={k} s={stride}"),
            &|v| v[0].max_pool2d(k, stride),
            &|v| max_pool2d(&v[0], k, stride),
            &img,
        );
    }
    let labels = [3, 0, 9, 9, 1];
    let logits = vec![vec![laced(&[5, 10], &mut rng)]];
    check(
        "cross_entropy",
        &|v| cross_entropy(&v[0], &labels),
        &|v| cross_entropy_copied(&v[0], &labels),
        &logits,
    );
}

/// Every conv path — direct depthwise, padded, lowered (strided, grouped,
/// many channels on a small plane) — against the copying lowering.
#[test]
fn conv2d_matches_its_copying_reference() {
    let mut rng = seeded_rng(64);
    // (input, weight, stride, pad, groups)
    let cases = [
        ([2, 5, 7, 6], [5, 1, 3, 3], 1, 1, 5),
        ([2, 5, 7, 6], [5, 1, 3, 3], 2, 1, 5),
        ([2, 3, 6, 5], [4, 3, 3, 3], 1, 1, 1),
        ([2, 3, 6, 5], [4, 3, 3, 3], 2, 1, 1),
        ([2, 4, 5, 5], [6, 2, 3, 3], 1, 1, 2),
        ([2, 16, 3, 3], [64, 16, 3, 3], 1, 1, 1),
        ([8, 8, 12, 12], [16, 8, 3, 3], 1, 1, 1),
    ];
    for (xs, ws, stride, pad, groups) in cases {
        let inputs = vec![vec![laced(&xs, &mut rng), Tensor::randn(&ws, &mut rng)]];
        check(
            &format!("conv2d s={stride} p={pad} g={groups}"),
            &|v| v[0].conv2d(&v[1], stride, pad, groups),
            &|v| conv2d(&v[0], &v[1], stride, pad, groups),
            &inputs,
        );
    }
}
