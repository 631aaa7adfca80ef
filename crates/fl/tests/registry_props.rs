//! Property tests for the device-fleet substrate: the participation
//! sampler replayed over a [`DeviceRegistry`], and bit-exactness of the
//! [`DeviceFleet`] rematerialization round trip that every run's
//! determinism rests on.

use fedzkt_autograd::{no_grad, Var};
use fedzkt_fl::{DeviceFleet, DeviceRegistry, ParticipationSampler, SplitModel};
use fedzkt_models::ModelSpec;
use fedzkt_nn::{state_dict, Module, StateDict};
use fedzkt_tensor::{seeded_rng, split_seed, Tensor};
use proptest::prelude::*;

/// Every f32 in transfer order, as raw bits — the comparison that catches
/// even a `-0.0` vs `0.0` drift a value compare would wave through.
fn bits(sd: &StateDict) -> Vec<u32> {
    sd.iter_tensors().flat_map(|t| t.data().iter().map(|v| v.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replaying the sampler's rounds as checkout/release cycles over a
    /// registry: the active set is always a sorted, unique subset of the
    /// registered ids; the sampled ids are a function of
    /// `(devices, fraction, seed, round)` alone; every round releases its
    /// working set; and the peak-resident gauge the memory tests read is
    /// exactly one round's sample.
    #[test]
    fn sampled_residency_is_shard_invariant(devices in 1usize..64, p in 0.01f32..1.0, seed in 0u64..200) {
        let sampler = ParticipationSampler::new(devices, p, seed);
        let again = ParticipationSampler::new(devices, p, seed);
        let mut reg = DeviceRegistry::default();
        for round in 0..4 {
            let active = sampler.active(round);
            prop_assert!(active.windows(2).all(|w| w[0] < w[1]), "sorted & unique");
            prop_assert!(active.iter().all(|&k| k < devices));
            prop_assert_eq!(&active, &again.active(round));
            for _ in &active {
                reg.checkout();
            }
            prop_assert_eq!(reg.resident(), active.len());
            for _ in &active {
                reg.release();
            }
        }
        prop_assert_eq!(reg.resident(), 0, "every round released its working set");
        prop_assert_eq!(reg.peak_resident(), sampler.active_count(), "peak is one round's sample");
    }
}

/// Eval-mode logits of `model` on `x`, as raw bits.
fn eval_bits(model: &dyn Module, x: &Tensor) -> Vec<u32> {
    model.set_training(false);
    let y = no_grad(|| model.forward(&Var::constant(x.clone()))).value_clone();
    model.set_training(true);
    y.data().iter().map(|v| v.to_bits()).collect()
}

/// The fleet lifecycle on every device of `fleet`: materialize, move every
/// parameter **and** every buffer (BatchNorm running statistics) off its
/// seeded value, hold a copy of the state and of an eval-mode forward,
/// release, rematerialize — the device must come back bit for bit.
fn assert_rematerializes_bit_exactly<M: Module>(fleet: &mut DeviceFleet<M>, x: &Tensor) {
    let n = fleet.devices();
    for k in 0..n {
        fleet.ensure_resident(k);
        let fresh = bits(&state_dict(fleet.model(k)));
        assert_eq!(bits(&fleet.template(k)), fresh, "device {k}: template of a resident device");
        for (i, p) in fleet.model(k).params().iter().enumerate() {
            let moved = p.value_clone().mul_scalar(0.5);
            p.set_value(moved.add(&Tensor::full(&p.shape(), 0.01 * (i + 1) as f32)).unwrap());
        }
        for b in fleet.model(k).buffers() {
            // Scale-and-shift keeps running variances positive.
            b.set(b.get().mul_scalar(1.5).add(&Tensor::full(&b.shape(), 0.125)).unwrap());
        }
        assert_ne!(bits(&state_dict(fleet.model(k))), fresh, "device {k}: perturbation is real");
    }
    let held: Vec<(Vec<u32>, Vec<u32>)> = (0..n)
        .map(|k| (bits(&state_dict(fleet.model(k))), eval_bits(fleet.model(k), x)))
        .collect();

    fleet.release_all();
    assert_eq!(fleet.registry().resident(), 0);
    for (k, (state, logits)) in held.iter().enumerate() {
        assert_eq!(&bits(&fleet.template(k)), state, "device {k}: template of a summarized device");
        fleet.ensure_resident(k);
        assert_eq!(&bits(&state_dict(fleet.model(k))), state, "device {k}: state bits");
        assert_eq!(&eval_bits(fleet.model(k), x), logits, "device {k}: eval-mode forward");
    }
    assert_eq!(fleet.registry().resident(), n);
    assert_eq!(fleet.registry().touched(), 2 * n, "one checkout per materialization");
}

proptest! {
    // Few cases: each one builds both paper zoos three times over.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The rematerialization contract every run rests on, through the
    /// fleet itself and on every real zoo member: both paper zoos as the
    /// plain `Box<dyn Module>` fleet FedZKT/FedMD/Fed-ET run, and again as
    /// FedGKT's [`SplitModel`] fleet.
    #[test]
    fn rematerialization_roundtrip_is_bit_exact(seed in 0u64..1000) {
        let (classes, img) = (10, 8);
        for (zoo, channels) in [(ModelSpec::paper_zoo_small(), 1), (ModelSpec::paper_zoo_cifar(), 3)] {
            let x = Tensor::randn(&[2, channels, img, img], &mut seeded_rng(split_seed(seed, 1)));
            let mut plain = DeviceFleet::new(&zoo, move |k, spec| {
                spec.build(channels, classes, img, split_seed(seed, 100 + k as u64))
            });
            assert_rematerializes_bit_exactly(&mut plain, &x);
            let mut split = DeviceFleet::new(&zoo, move |k, spec| {
                SplitModel::build(spec, (channels, classes, img), 8, seed, k)
            });
            assert_rematerializes_bit_exactly(&mut split, &x);
        }
    }
}
