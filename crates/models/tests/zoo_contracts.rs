//! Contract tests across the whole model zoo: every architecture must
//! satisfy the interface assumptions the FedZKT orchestrator relies on.

use fedzkt_autograd::{no_grad, Var};
use fedzkt_models::{GeneratorSpec, ModelSpec};
use fedzkt_nn::{load_state_dict, param_count, state_dict, Module};
use fedzkt_tensor::{seeded_rng, Tensor};

fn all_specs() -> Vec<(ModelSpec, usize)> {
    let mut v: Vec<(ModelSpec, usize)> =
        ModelSpec::paper_zoo_small().into_iter().map(|s| (s, 1usize)).collect();
    v.extend(ModelSpec::paper_zoo_cifar().into_iter().map(|s| (s, 3usize)));
    v
}

#[test]
fn state_dict_roundtrip_preserves_outputs_for_every_arch() {
    for (spec, channels) in all_specs() {
        let a = spec.build(channels, 10, 12, 5);
        let b = spec.build(channels, 10, 12, 6);
        let x = Var::constant(Tensor::randn(&[2, channels, 12, 12], &mut seeded_rng(7)));
        a.set_training(false);
        b.set_training(false);
        let ya = no_grad(|| a.forward(&x)).value_clone();
        load_state_dict(b.as_ref(), &state_dict(a.as_ref())).unwrap_or_else(|e| {
            panic!("{}: state dict rejected: {e}", spec.name());
        });
        let yb = no_grad(|| b.forward(&x)).value_clone();
        assert_eq!(ya.data(), yb.data(), "{}: outputs differ after load", spec.name());
    }
}

#[test]
fn every_arch_backpropagates_to_every_parameter() {
    for (spec, channels) in all_specs() {
        let m = spec.build(channels, 4, 8, 3);
        let x = Var::constant(Tensor::randn(&[2, channels, 8, 8], &mut seeded_rng(4)));
        m.forward(&x).square().sum_all().backward();
        for (i, p) in m.params().iter().enumerate() {
            assert!(p.grad().is_some(), "{}: param {i} got no gradient", spec.name());
        }
    }
}

#[test]
fn every_arch_propagates_input_gradients() {
    // The generator game needs ∂L/∂x through *teacher* models too.
    for (spec, channels) in all_specs() {
        let m = spec.build(channels, 4, 8, 3);
        let x = Var::parameter(Tensor::randn(&[2, channels, 8, 8], &mut seeded_rng(5)));
        m.forward(&x).square().sum_all().backward();
        let g = x.grad().unwrap_or_else(|| panic!("{}: no input grad", spec.name()));
        assert!(g.norm_l2() > 0.0, "{}: zero input gradient", spec.name());
    }
}

#[test]
fn eval_mode_is_deterministic_for_every_arch() {
    for (spec, channels) in all_specs() {
        let m = spec.build(channels, 10, 12, 9);
        // Move BN stats off their init first.
        let warm = Var::constant(Tensor::randn(&[4, channels, 12, 12], &mut seeded_rng(1)));
        let _ = m.forward(&warm);
        m.set_training(false);
        let x = Var::constant(Tensor::randn(&[2, channels, 12, 12], &mut seeded_rng(2)));
        let y1 = no_grad(|| m.forward(&x)).value_clone();
        let y2 = no_grad(|| m.forward(&x)).value_clone();
        assert_eq!(y1.data(), y2.data(), "{}: eval mode not pure", spec.name());
    }
}

#[test]
fn logits_are_finite_for_extreme_inputs() {
    for (spec, channels) in all_specs() {
        let m = spec.build(channels, 10, 8, 2);
        for fill in [-1.0f32, 0.0, 1.0] {
            let x = Var::constant(Tensor::full(&[2, channels, 8, 8], fill));
            let y = no_grad(|| m.forward(&x));
            assert!(y.value().all_finite(), "{}: non-finite logits at fill {fill}", spec.name());
        }
    }
}

#[test]
fn generator_scales_with_spec() {
    let small = GeneratorSpec { z_dim: 16, ngf: 4 }.build(3, 8, 1);
    let big = GeneratorSpec { z_dim: 64, ngf: 16 }.build(3, 8, 1);
    assert!(param_count(&small) < param_count(&big));
    // Same seed, same spec => identical samples.
    let g1 = GeneratorSpec::default().build(1, 8, 42);
    let g2 = GeneratorSpec::default().build(1, 8, 42);
    let z = g1.sample_z(2, &mut seeded_rng(3));
    g1.set_training(false);
    g2.set_training(false);
    let a = no_grad(|| g1.forward(&Var::constant(z.clone()))).value_clone();
    let b = no_grad(|| g2.forward(&Var::constant(z))).value_clone();
    assert_eq!(a.data(), b.data());
}

#[test]
fn param_counts_are_stable_across_rebuilds() {
    // Architecture size must depend only on the spec + geometry, never on
    // the seed — communication accounting relies on this.
    for (spec, channels) in all_specs() {
        let a = param_count(spec.build(channels, 10, 12, 1).as_ref());
        let b = param_count(spec.build(channels, 10, 12, 999).as_ref());
        assert_eq!(a, b, "{}", spec.name());
    }
}

/// Every composite the protocol ships or distills through, each with a
/// batch of 4 inputs: both zoos (the small one on 1 channel, CIFAR's on
/// 3) and the generator. The generator's noise has one non-zero entry per
/// row, so its dense projection is exact under any summation order and the
/// state after a forward does not depend on which GEMM backend the host
/// dispatches to.
fn models_under_test() -> Vec<(String, Box<dyn Module>, Tensor)> {
    let mut v: Vec<(String, Box<dyn Module>, Tensor)> = all_specs()
        .into_iter()
        .map(|(spec, channels)| {
            let x = Tensor::randn(&[4, channels, 12, 12], &mut seeded_rng(12));
            (format!("{}/c{channels}", spec.name()), spec.build(channels, 10, 12, 11), x)
        })
        .collect();
    let g = GeneratorSpec::default().build(3, 12, 13);
    let mut z = vec![0.0f32; 4 * g.z_dim()];
    for (i, row) in z.chunks_exact_mut(g.z_dim()).enumerate() {
        row[7 * i + 1] = 0.6 * i as f32 - 0.7;
    }
    let z = Tensor::from_vec(z, &[4, g.z_dim()]).unwrap();
    v.push(("Generator".into(), Box::new(g), z));
    v
}

/// FNV-1a over a state dict: the param and buffer counts, then each
/// tensor's rank, dims and f32 bits, params first.
fn state_fnv64(m: &dyn Module) -> u64 {
    let sd = state_dict(m);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(sd.params.len() as u64);
    eat(sd.buffers.len() as u64);
    for t in sd.iter_tensors() {
        eat(t.shape().len() as u64);
        t.shape().iter().for_each(|&d| eat(d as u64));
        t.data().iter().for_each(|v| eat(u64::from(v.to_bits())));
    }
    h
}

/// State order is what goes on the wire and into checkpoints, so it is
/// pinned: the hash of each model's state dict at a fixed seed, after one
/// training-mode forward so that every batch norm's running statistics
/// differ from every other's (two same-width batch norms swapped would
/// otherwise hash alike).
#[test]
fn state_order_is_pinned_for_every_model() {
    let expected: [u64; 11] = [
        0x4f2f_225b_a283_64b4, // CNN(c6)/c1
        0xd646_9058_a272_d8a8, // FC(h64)/c1
        0x8dce_9f23_929b_0ff1, // LeNet(x0.5)/c1
        0xafbc_26b0_91c9_36cb, // LeNet(x1)/c1
        0x18ac_f284_535c_8819, // LeNet(x1,deep)/c1
        0x2d83_8adf_d778_b920, // ShuffleNetV2(s0.5)/c3
        0x0fcb_dc62_0898_4470, // ShuffleNetV2(s1)/c3
        0xa50f_9741_2da6_4bb3, // MobileNetV2(w0.8)/c3
        0x6e11_b47b_bb3e_f3c8, // MobileNetV2(w0.6)/c3
        0xccbf_d8d9_b7b5_f4ea, // LeNet(x1,deep)/c3
        0xfcde_4568_f956_b4e5, // Generator
    ];
    let (names, got): (Vec<String>, Vec<u64>) = models_under_test()
        .into_iter()
        .map(|(name, m, x)| {
            let _ = m.forward(&Var::constant(x));
            (name, state_fnv64(m.as_ref()))
        })
        .unzip();
    assert_eq!(got, expected, "state order moved for one of {names:?}");
}

/// `set_training` must reach every batch norm. In eval mode a forward
/// leaves every buffer bit-identical, and a sample's output does not depend
/// on the rest of its batch (a batch norm left in training mode would mix
/// the batch through its statistics). In training mode a forward moves
/// every batch norm's running statistics.
#[test]
fn set_training_reaches_every_batch_norm() {
    for (name, m, x) in models_under_test() {
        let bits = |m: &dyn Module| -> Vec<Vec<u32>> {
            let buffers = state_dict(m).buffers;
            buffers.iter().map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect()
        };
        m.set_training(false);
        let before = bits(m.as_ref());
        let y = no_grad(|| m.forward(&Var::constant(x.clone()))).value_clone();
        assert_eq!(bits(m.as_ref()), before, "{name}: eval mode moved a buffer");
        let mut other = Tensor::randn(x.shape(), &mut seeded_rng(15)).data().to_vec();
        let row = x.len() / x.shape()[0];
        other[..row].copy_from_slice(&x.data()[..row]);
        let other = Tensor::from_vec(other, x.shape()).unwrap();
        let y2 = no_grad(|| m.forward(&Var::constant(other))).value_clone();
        let out_row = y.len() / y.shape()[0];
        assert_eq!(
            y.data()[..out_row].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y2.data()[..out_row].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{name}: in eval mode sample 0 depends on the rest of its batch"
        );
        m.set_training(true);
        let _ = m.forward(&Var::constant(x));
        for (i, (a, b)) in before.iter().zip(bits(m.as_ref())).enumerate() {
            assert_ne!(*a, b, "{name}: training-mode forward left buffer {i} unchanged");
        }
    }
}
