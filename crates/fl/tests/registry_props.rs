//! Property tests for the device-fleet substrate: the participation
//! sampler replayed over [`DeviceRegistry`]s, shard-layout invariance of
//! every registry observable, and bit-exactness of the [`DeviceFleet`]
//! rematerialization round trip that every run's determinism rests on.

use fedzkt_autograd::{no_grad, Var};
use fedzkt_fl::{DeviceFleet, DeviceRegistry, ParticipationSampler, SplitModel};
use fedzkt_models::ModelSpec;
use fedzkt_nn::{state_dict, Module, StateDict};
use fedzkt_tensor::{seeded_rng, split_seed, Tensor};
use proptest::prelude::*;

fn scalar_summary(v: f32) -> StateDict {
    StateDict { params: vec![Tensor::scalar(v)], buffers: Vec::new() }
}

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
    /// `(devices, fraction, seed, round)` alone; and the
    /// resulting counters — including the peak-resident gauge the memory
    /// tests read — are identical for every slot-shard size.
    #[test]
    fn sampled_residency_is_shard_invariant(devices in 1usize..64, p in 0.01f32..1.0, seed in 0u64..200) {
        let sampler = ParticipationSampler::new(devices, p, seed);
        let again = ParticipationSampler::new(devices, p, seed);
        let mut outcomes = Vec::new();
        for shard_size in [1usize, 7, 64] {
            let mut reg = DeviceRegistry::with_shard_size(devices, shard_size);
            for round in 0..4 {
                let active = sampler.active(round);
                prop_assert!(active.windows(2).all(|w| w[0] < w[1]), "sorted & unique");
                prop_assert!(active.iter().all(|&k| k < reg.registered()));
                prop_assert_eq!(&active, &again.active(round));
                for &k in &active {
                    reg.checkout(k);
                }
                prop_assert_eq!(reg.resident(), active.len());
                for &k in &active {
                    reg.release(k);
                }
            }
            outcomes.push((reg.resident(), reg.peak_resident(), reg.touched()));
        }
        prop_assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "shard size leaked: {outcomes:?}");
        let (resident, peak, _) = outcomes[0];
        prop_assert_eq!(resident, 0, "every round released its working set");
        prop_assert_eq!(peak, sampler.active_count(), "peak is exactly one round's sample");
    }

    /// Shard size is pure layout: an arbitrary interleaving of checkouts,
    /// releases, summary stores and summary takes produces identical
    /// observables (counters, residency flags, summaries, returned values)
    /// on registries sharded 1, 7 and 64 wide.
    #[test]
    fn registry_observables_are_shard_size_invariant(
        ops in proptest::collection::vec((0usize..16, 0u8..3), 1..80),
    ) {
        let mut regs: Vec<DeviceRegistry> =
            [1usize, 7, 64].iter().map(|&s| DeviceRegistry::with_shard_size(16, s)).collect();
        for (i, &(k, op)) in ops.iter().enumerate() {
            let mut returned = Vec::new();
            for reg in &mut regs {
                returned.push(match op {
                    0 => {
                        if reg.is_resident(k) {
                            reg.release(k);
                        } else {
                            reg.checkout(k);
                        }
                        None
                    }
                    1 => {
                        reg.store_summary(k, scalar_summary(i as f32));
                        None
                    }
                    _ => reg.take_summary(k),
                });
            }
            prop_assert!(returned.windows(2).all(|w| w[0] == w[1]));
            let observed: Vec<_> = regs
                .iter()
                .map(|r| {
                    (r.resident(), r.peak_resident(), r.touched(), r.is_resident(k), r.summary(k).cloned())
                })
                .collect();
            prop_assert!(observed.windows(2).all(|w| w[0] == w[1]));
        }
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
