//! Tier-1 memory-bound regression for the device fleet.
//!
//! The bound is asserted on the [`DeviceRegistry`] residency counters the
//! driver exports into every `RunLog` row — a deterministic, allocator- and
//! OS-independent gauge — **not** on process RSS, which measures the
//! allocator and the test harness as much as the fleet. The counter cannot
//! silently undercount: a fleet device sits in one slot that is either
//! resident or not, so it is checked out and released at most once per
//! materialization, and FedAvg, which counts its sampled set without a
//! fleet, asserts that the set's ids are strictly ascending, so no device
//! is counted twice.

use fedzkt::fl::{ChurnSpec, ErasedSimulation, FedAvg, SimCheckpoint, Simulation};
use fedzkt::scenario::Scenario;
use std::collections::BTreeSet;

/// A 100 000-device tiny-model scenario (the checked-in `mega-fleet`
/// preset, shrunk 10× to stay seconds-scale in debug builds) must complete
/// with peak residency bounded by one round's sampled working set plus
/// O(1) server-side state — never by the registered population.
#[test]
fn lazy_fleet_peak_residency_is_bounded_by_the_sampled_set() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/mega-fleet.json");
    let mut sc = Scenario::load(path).expect("checked-in mega-fleet scenario");

    sc.registered_devices = 100_000;
    sc.data.train_n = 100_000;
    sc.data.test_n = 32;
    sc.sim.participation = 0.01;
    sc.sim.rounds = 2;

    let log = sc.run().expect("shrunk mega-fleet runs");
    assert_eq!(log.rounds.len(), 2);

    let max_sampled =
        log.rounds.iter().map(|r| r.active_devices.len()).max().expect("two rounds");
    assert_eq!(max_sampled, 1_000, "0.01 participation of 100k devices");

    for round in &log.rounds {
        assert_eq!(round.registered_devices, 100_000);
        // Peak resident ≤ sampled-per-round + O(1), not the 100 000
        // registered.
        assert!(
            round.peak_resident_devices <= max_sampled + 1,
            "round {}: peak resident {} exceeds the sampled working set {}",
            round.round,
            round.peak_resident_devices,
            max_sampled
        );
        assert!(round.peak_resident_devices >= round.active_devices.len());
    }
}

/// The training data follows the same rule: the shard store synthesizes a
/// device's samples the first time it trains, so its cache holds exactly
/// the touched devices' shards — far fewer samples than the corpus — and
/// it is no part of the run's state: a run halted and resumed from its
/// checkpoint starts with an empty cache and still reproduces the straight
/// run's log.
#[test]
fn shard_cache_holds_the_touched_devices_only_and_is_not_state() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/mega-fleet.json");
    let mut sc = Scenario::load(path).expect("checked-in mega-fleet scenario");
    sc.registered_devices = 100_000;
    sc.data.train_n = 100_000;
    sc.data.test_n = 32;
    sc.sim.participation = 0.01;
    sc.sim.rounds = 3;
    let store = |sim: &dyn ErasedSimulation| {
        let fed = sim.as_any().downcast_ref::<Simulation<FedAvg>>();
        let store = fed.expect("mega-fleet runs fedavg").algorithm().shards();
        let touched: BTreeSet<usize> =
            sim.log().rounds.iter().flat_map(|r| r.active_devices.iter().copied()).collect();
        let expected: usize = touched.iter().map(|&k| store.shard_len(k)).sum();
        (store.cached_samples(), expected)
    };

    let mut straight = sc.build().expect("shrunk mega-fleet builds");
    straight.run();
    let (cached, expected) = store(straight.as_ref());
    assert_eq!(cached, expected, "the cache holds exactly the trained devices' samples");
    assert!(cached > 0 && cached * 10 < sc.data.train_n, "{cached} cached of {}", sc.data.train_n);

    let mut first = sc.build().expect("shrunk mega-fleet builds");
    first.round(0);
    let ck = SimCheckpoint::from_json(&first.checkpoint().to_json()).expect("checkpoint parses");
    drop(first);
    let mut resumed = sc.build().expect("shrunk mega-fleet builds");
    resumed.resume_from(&ck).expect("resume");
    assert_eq!(store(resumed.as_ref()).0, 0, "a resumed run starts with an empty cache");
    resumed.run();
    assert_eq!(resumed.log().to_json(), straight.log().to_json());
}

/// Churn must not change the memory story: the availability scan is a
/// pure function evaluated device-at-a-time, so a churning 100k fleet
/// keeps peak residency bounded by the devices actually *touched* in a
/// round (sampled survivors + mid-round dropouts, which materialize for
/// their partial compute slice) — never by the registered or even the
/// available population.
#[test]
fn churning_fleet_peak_residency_stays_o_of_sampled() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/mega-fleet.json");
    let mut sc = Scenario::load(path).expect("checked-in mega-fleet scenario");

    sc.registered_devices = 100_000;
    sc.data.train_n = 100_000;
    sc.data.test_n = 32;
    sc.sim.participation = 0.01;
    sc.sim.rounds = 2;
    sc.churn = Some(ChurnSpec {
        seed: 17,
        arrival_window: 2,
        duty_period: 3,
        duty_on: 2,
        dropout: 0.2,
        ..Default::default()
    });

    let log = sc.run().expect("churning shrunk mega-fleet runs");
    assert_eq!(log.rounds.len(), 2);

    for round in &log.rounds {
        assert_eq!(round.registered_devices, 100_000);
        assert!(
            round.available_devices < 100_000,
            "round {}: duty cycling must keep part of the fleet offline",
            round.round
        );
        assert!(round.dropped_devices > 0, "20% dropout over ~1k sampled devices");
        let touched = round.active_devices.len() + round.dropped_devices;
        assert!(
            round.peak_resident_devices <= touched + 1,
            "round {}: peak resident {} exceeds the touched working set {}",
            round.round,
            round.peak_resident_devices,
            touched
        );
    }
}

/// A fleet that scores alike is stored alike: under FedAvg every device
/// evaluates the one global model, so each evaluated round's accuracy row
/// is one stored value and a device count — never 100 000 floats carried
/// into every later round — and so is the row a checkpoint reads back.
#[test]
fn a_fleet_that_scores_alike_stores_one_accuracy_per_round() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/mega-fleet.json");
    let mut sc = Scenario::load(path).expect("checked-in mega-fleet scenario");
    sc.registered_devices = 100_000;
    sc.data.train_n = 100_000;
    sc.data.test_n = 32;
    sc.sim.participation = 0.01;
    sc.sim.rounds = 3;
    sc.sim.eval_every = 1;

    let mut sim = sc.build().expect("shrunk mega-fleet builds");
    sim.round(0);
    let ck = SimCheckpoint::from_json(&sim.checkpoint().to_json()).expect("checkpoint parses");
    sim.run();
    for round in ck.log.rounds.iter().chain(&sim.log().rounds) {
        let row = &round.device_accuracy;
        assert_eq!(row.len(), 100_000, "round {}", round.round);
        assert!(row.uniform().is_some(), "round {}: stored per device", round.round);
        assert_eq!(row.uniform(), round.global_accuracy, "round {}", round.round);
    }
}
