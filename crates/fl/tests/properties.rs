//! Property-based tests on the FL substrate's public API.

use fedzkt_data::{DataFamily, Partition, SynthConfig};
use fedzkt_fl::{
    accuracy, ChurnProcess, ChurnSpec, DeviceResources, ParticipationSampler, RoundParticipant,
    SimClock,
};
use proptest::prelude::*;

/// Duty periods at the edges of the availability scan's phase draw (22
/// hash bits): one that a quarter of the draws exceed, the smallest that
/// none does, one past `i32::MAX` and one past `u32::MAX`.
const WIDE_PERIODS: [usize; 4] = [3 << 20, 1 << 22, (1 << 31) + 7, (1 << 40) + 3];

/// Arbitrary *valid* churn specs: every field ranges over its legal
/// domain, with a flags word forcing the degenerate branches (no
/// departures, no dropout, steady links) back in so they stay covered,
/// and one flag swapping the short duty period for a [`WIDE_PERIODS`]
/// entry with an on-window about as wide as the phase draw.
fn churn_spec() -> impl Strategy<Value = ChurnSpec> {
    (
        0u64..1000,
        0usize..6,
        0.5f32..12.0,
        0usize..5,
        0usize..8,
        0.0f32..0.95,
        0.05f32..1.0,
        0usize..16,
    )
        .prop_map(|(seed, arrival_window, life, period, on, drop, floor, flags)| {
            let duty_period = if flags & 8 != 0 { WIDE_PERIODS[period % 4] } else { period };
            ChurnSpec {
                seed,
                arrival_window,
                mean_lifetime: if flags & 1 != 0 { 0.0 } else { life },
                duty_period,
                // duty_on must sit in 1..=duty_period when cycling at all.
                duty_on: match duty_period {
                    0 => 0,
                    p if flags & 8 != 0 => ((on % 4 + 1) << 20).min(p),
                    p => on % p + 1,
                },
                dropout: if flags & 2 != 0 { 0.0 } else { drop },
                bandwidth_floor: if flags & 4 != 0 { 1.0 } else { floor },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The participation sampler always returns a sorted, deduplicated,
    /// in-range, non-empty subset of the requested size.
    #[test]
    fn sampler_invariants(devices in 1usize..30, p in 0.01f32..1.0, seed in 0u64..500, round in 0usize..50) {
        let s = ParticipationSampler::new(devices, p, seed);
        let active = s.active(round);
        prop_assert!(!active.is_empty());
        prop_assert!(active.len() <= devices);
        prop_assert!(active.windows(2).all(|w| w[0] < w[1]), "sorted & unique");
        prop_assert!(active.iter().all(|&d| d < devices));
        prop_assert_eq!(active.len(), s.active_count());
        // Deterministic.
        prop_assert_eq!(active, s.active(round));
    }

    /// Full participation is exactly everyone, for any seed and round.
    #[test]
    fn full_participation(devices in 1usize..20, seed in 0u64..100, round in 0usize..20) {
        let s = ParticipationSampler::new(devices, 1.0, seed);
        prop_assert_eq!(s.active(round), (0..devices).collect::<Vec<_>>());
    }

    /// Accuracy is a proportion: in [0, 1], 1 iff identical, monotone in
    /// the number of agreeing positions.
    #[test]
    fn accuracy_is_a_proportion(labels in proptest::collection::vec(0usize..5, 1..40)) {
        let perfect = accuracy(&labels, &labels);
        prop_assert!((perfect - 1.0).abs() < 1e-6);
        let mut wrong = labels.clone();
        wrong[0] = (wrong[0] + 1) % 5;
        let one_off = accuracy(&wrong, &labels);
        prop_assert!(one_off < 1.0);
        prop_assert!((one_off - (labels.len() - 1) as f32 / labels.len() as f32).abs() < 1e-5);
    }

    /// Simulated round duration is monotone in the active set: adding a
    /// device can only keep or increase the round time.
    #[test]
    fn round_time_monotone_in_active_set(seed in 0u64..200, samples in 1usize..500) {
        let pop = DeviceResources::heterogeneous_population(4, seed);
        let mut clock_small = SimClock::new(pop.clone());
        let mut clock_big = SimClock::new(pop);
        let two: Vec<_> = (0..2).map(RoundParticipant::full).collect();
        let four: Vec<_> = (0..4).map(RoundParticipant::full).collect();
        let small = clock_small.advance_round(&two, &|_| samples, &|_| 1000, &|_| 1000, 0.1);
        let big = clock_big.advance_round(&four, &|_| samples, &|_| 1000, &|_| 1000, 0.1);
        prop_assert!(big >= small - 1e-9);
    }

    /// The availability timeline is one predicate however the fleet is
    /// walked: the whole-fleet scan `available` accepts exactly the
    /// devices the per-device definition `is_available` does, so no
    /// fleet layout can change which devices exist in a round —
    /// rounds taken `depth` duty periods deep, counted forward from a
    /// period's start or `back` from its end, where a device's phase
    /// wraps.
    #[test]
    fn churn_timeline_is_shard_invariant(
        spec in churn_spec(),
        devices in 1usize..200,
        round in 0usize..30,
        depth in 0usize..4,
        back in 0u8..2,
    ) {
        let period = spec.duty_period.max(1);
        let round = if back == 1 {
            (depth + 1) * period - 1 - round.min(period - 1)
        } else {
            depth * period + round
        };
        let p = ChurnProcess::new(spec, devices);
        let oracle: Vec<usize> = (0..devices).filter(|&k| p.is_available(k, round)).collect();
        prop_assert_eq!(p.available(round), oracle);
    }

    /// The timeline is a pure function of (spec, device, round): querying
    /// rounds in any scrambled order, with repeats, returns the same
    /// answers as a fresh evaluator queried in ascending order — no
    /// hidden cursor, which is what lets a resumed run re-derive the
    /// exact fleet history from the spec alone.
    #[test]
    fn churn_timeline_is_query_order_independent(
        spec in churn_spec(),
        devices in 1usize..100,
        order in proptest::collection::vec(0usize..20, 1..30),
    ) {
        let scrambled = ChurnProcess::new(spec, devices);
        let mut seen: Vec<(usize, Vec<usize>)> = Vec::new();
        for &round in &order {
            seen.push((round, scrambled.available(round)));
            // The per-round draws must be equally history-free.
            let _ = scrambled.dropout(round % devices, round);
            let _ = scrambled.link_scale(round % devices, round);
        }
        let fresh = ChurnProcess::new(spec, devices);
        for (round, avail) in seen {
            prop_assert_eq!(avail, fresh.available(round));
        }
        for round in 0..20 {
            for k in 0..devices {
                prop_assert_eq!(scrambled.dropout(k, round), fresh.dropout(k, round));
                prop_assert_eq!(
                    scrambled.link_scale(k, round).to_bits(),
                    fresh.link_scale(k, round).to_bits()
                );
            }
        }
    }

    /// Range invariants of the per-round draws: dropout fractions are
    /// partial completions in [0, 1), link scales stay inside the
    /// configured [floor, 1] band, and the degenerate spec values switch
    /// each draw off entirely.
    #[test]
    fn churn_draws_stay_in_range(
        spec in churn_spec(),
        devices in 1usize..100,
        round in 0usize..30,
    ) {
        let p = ChurnProcess::new(spec, devices);
        for k in 0..devices {
            // Surviving the round (None) is always legal; a drop must
            // come with a partial-completion fraction in [0, 1).
            if let Some(fraction) = p.dropout(k, round) {
                prop_assert!(spec.dropout > 0.0);
                prop_assert!((0.0..1.0).contains(&fraction));
            }
            if spec.dropout == 0.0 {
                prop_assert_eq!(p.dropout(k, round), None);
            }
            let scale = p.link_scale(k, round);
            prop_assert!(scale >= f64::from(spec.bandwidth_floor) && scale <= 1.0);
            if spec.bandwidth_floor >= 1.0 {
                prop_assert_eq!(scale, 1.0);
            }
        }
    }

    /// A quiescent spec is behaviourally the static fleet: everyone
    /// available every round, regardless of the other knob values.
    #[test]
    fn quiescent_churn_is_the_static_fleet(
        seed in 0u64..1000,
        devices in 1usize..100,
        round in 0usize..50,
    ) {
        let spec = ChurnSpec { seed, ..Default::default() };
        prop_assert!(spec.is_quiescent());
        let p = ChurnProcess::new(spec, devices);
        prop_assert_eq!(p.available(round), (0..devices).collect::<Vec<_>>());
    }

    /// Partition + subset: every shard of every scheme yields a dataset
    /// whose class histogram sums back to the shard size.
    #[test]
    fn shard_histograms_consistent(seed in 0u64..100, k in 1usize..6) {
        let (train, _) = SynthConfig {
            family: DataFamily::MnistLike, img: 8, train_n: 60, test_n: 8,
            classes: 5, seed, ..Default::default()
        }.generate();
        for scheme in [
            Partition::Iid,
            Partition::QuantitySkew { classes_per_device: 2 },
            Partition::Dirichlet { beta: 0.5 },
        ] {
            let shards = scheme.split(train.labels(), 5, k, seed).unwrap();
            for shard in &shards {
                let sub = train.subset(shard);
                prop_assert_eq!(sub.class_counts().iter().sum::<usize>(), shard.len());
            }
        }
    }
}

#[test]
fn microcontroller_profile_is_resource_constrained() {
    // The premise of the paper, encoded as a test on the simulator's
    // device profiles: MCU compute and links are orders of magnitude below
    // smartphone class.
    let mcu = DeviceResources::microcontroller();
    let phone = DeviceResources::smartphone();
    assert!(phone.compute_samples_per_sec / mcu.compute_samples_per_sec >= 50.0);
    assert!(phone.uplink_bytes_per_sec / mcu.uplink_bytes_per_sec >= 10.0);
}
