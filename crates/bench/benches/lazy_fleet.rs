//! Microbenchmarks of the device-fleet substrate: registry construction and
//! per-round checkout/release bookkeeping at cross-device population sizes,
//! and the streaming aggregation fold against the collect-then-average
//! batch form it replaced. The registry work rides the round's critical
//! path once per sampled device, so it must stay trivially cheap next to
//! even one mini-batch of training.

use criterion::{criterion_group, criterion_main, Criterion};
use fedzkt_fl::{average_state_dicts, DeviceRegistry, ParticipationSampler, StreamingAverage};
use fedzkt_models::ModelSpec;
use fedzkt_nn::{state_dict, StateDict};
use std::hint::black_box;

fn bench_registry_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_new");
    group.sample_size(20);
    for registered in [10_000usize, 1_000_000] {
        group.bench_function(format!("{registered}"), |bench| {
            bench.iter(|| black_box(DeviceRegistry::new(registered)));
        });
    }
    group.finish();
}

fn bench_registry_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_round_1k_sampled");
    group.sample_size(20);
    for registered in [10_000usize, 1_000_000] {
        // ~1k sampled per round regardless of population, as in mega-fleet.
        let sampler = ParticipationSampler::new(registered, 1000.0 / registered as f32, 7);
        let active = sampler.active(0);
        let mut reg = DeviceRegistry::new(registered);
        group.bench_function(format!("{registered}"), |bench| {
            bench.iter(|| {
                for &k in &active {
                    reg.checkout(k);
                }
                for &k in &active {
                    reg.release(k);
                }
                black_box(reg.peak_resident())
            });
        });
    }
    group.finish();
}

/// A mid-sized zoo member's state, the unit the server folds per uplink.
fn uplinks(n: usize) -> Vec<StateDict> {
    (0..n)
        .map(|k| state_dict(ModelSpec::Mlp { hidden: 64 }.build(1, 10, 12, 40 + k as u64).as_ref()))
        .collect()
}

fn bench_aggregation(c: &mut Criterion) {
    let states = uplinks(32);
    let weights: Vec<f32> = (0..states.len()).map(|k| 1.0 + k as f32).collect();
    let total: f32 = weights.iter().sum();
    let mut group = c.benchmark_group("aggregate_32_uplinks");
    group.sample_size(20);
    group.bench_function("batch", |bench| {
        bench.iter(|| {
            let weighted: Vec<(f32, &StateDict)> =
                weights.iter().copied().zip(states.iter()).collect();
            black_box(average_state_dicts(&weighted))
        });
    });
    group.bench_function("streaming", |bench| {
        bench.iter(|| {
            let mut avg = StreamingAverage::new(total);
            for (w, sd) in weights.iter().zip(&states) {
                avg.fold(*w, sd);
            }
            black_box(avg.finish())
        });
    });
    group.finish();
}

criterion_group!(lazy_fleet_benches, bench_registry_construction, bench_registry_round, bench_aggregation);
criterion_main!(lazy_fleet_benches);
