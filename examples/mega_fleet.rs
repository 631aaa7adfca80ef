//! Mega-fleet: one million registered devices on one laptop.
//!
//! The cross-device regime FedZKT targets registers a huge population of
//! which only a tiny fraction is sampled per round. The `mega-fleet`
//! scenario (also checked in as `scenarios/mega-fleet.json`) registers
//! 1,000,000 devices and samples ~1,000 per round; the fleet exists as
//! one flat shard index — a device's shard is sliced and its model built
//! from the spec + per-device seed only while sampled, and dropped after
//! merge. This example
//! runs it and narrates the scale columns of the `RunLog`: the registered
//! population, the peak number of simultaneously materialized devices
//! (the memory bound), and the sampled set.
//!
//! ```sh
//! cargo run --release --example mega_fleet
//! ```

use fedzkt::scenario::preset;

fn main() {
    let scenario = preset("mega-fleet").expect("registry preset");
    println!(
        "scenario \"{}\": {} registered devices, {:.2}% sampled per round\n",
        scenario.name,
        scenario.devices(),
        100.0 * scenario.sim.participation,
    );

    println!("round  registered  peak-resident  sampled  avg-acc");
    let log = scenario
        .run_with(&mut |m| {
            println!(
                "{:>5}  {:>10}  {:>13}  {:>7}  {:>6.1}%",
                m.round,
                m.registered_devices,
                m.peak_resident_devices,
                m.active_devices.len(),
                100.0 * m.avg_device_accuracy,
            );
        })
        .expect("runnable scenario");

    let peak = log.rounds.iter().map(|m| m.peak_resident_devices).max().unwrap_or(0);
    println!(
        "\npeak resident: {} of {} registered ({:.3}% of the fleet ever in memory at once)",
        peak,
        scenario.devices(),
        100.0 * peak as f64 / scenario.devices() as f64
    );
    println!("same run from the CLI: cargo run -p fedzkt_scenario --bin scenarios -- run mega-fleet");
}
