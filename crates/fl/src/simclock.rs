//! Simulated time with heterogeneous device resources.
//!
//! The paper motivates FedZKT with MCU-class devices whose compute and
//! memory are orders of magnitude below a smartphone's. The simulation
//! models per-device throughput and link speeds so experiments can report
//! *simulated* round times alongside accuracy — e.g. showing that FedZKT
//! rounds are bounded by local SGD on the slowest active device, not by
//! the server-side distillation.

use fedzkt_tensor::{seeded_rng, split_seed, standard_normal};

/// Compute and link capabilities of one simulated device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceResources {
    /// Local-training throughput (samples/second).
    pub compute_samples_per_sec: f32,
    /// Uplink bandwidth (bytes/second).
    pub uplink_bytes_per_sec: f32,
    /// Downlink bandwidth (bytes/second).
    pub downlink_bytes_per_sec: f32,
}

impl DeviceResources {
    /// A nominal smartphone-class device.
    pub fn smartphone() -> Self {
        DeviceResources {
            compute_samples_per_sec: 500.0,
            uplink_bytes_per_sec: 1e6,
            downlink_bytes_per_sec: 4e6,
        }
    }

    /// A nominal MCU/wearable-class device (≈100× less compute, slow
    /// links) — the resource-constrained participant FedZKT targets.
    pub fn microcontroller() -> Self {
        DeviceResources {
            compute_samples_per_sec: 5.0,
            uplink_bytes_per_sec: 2e4,
            downlink_bytes_per_sec: 5e4,
        }
    }

    /// A log-normally heterogeneous population between MCU and smartphone
    /// class, deterministic in `seed`.
    pub fn heterogeneous_population(devices: usize, seed: u64) -> Vec<DeviceResources> {
        (0..devices)
            .map(|d| {
                let mut rng = seeded_rng(split_seed(seed, d as u64));
                let z = standard_normal(&mut rng);
                // Log-uniform-ish spread over ~2 orders of magnitude.
                let scale = (z * 1.1).exp();
                DeviceResources {
                    compute_samples_per_sec: (50.0 * scale).clamp(2.0, 2000.0),
                    uplink_bytes_per_sec: (2e5 * scale).clamp(1e4, 4e6),
                    downlink_bytes_per_sec: (8e5 * scale).clamp(4e4, 1.6e7),
                }
            })
            .collect()
    }

    /// Seconds to locally process `samples` training samples.
    pub fn compute_time(&self, samples: usize) -> f64 {
        samples as f64 / self.compute_samples_per_sec as f64
    }

    /// Seconds to upload `bytes`.
    pub fn upload_time(&self, bytes: usize) -> f64 {
        bytes as f64 / self.uplink_bytes_per_sec as f64
    }

    /// Seconds to download `bytes`.
    pub fn download_time(&self, bytes: usize) -> f64 {
        bytes as f64 / self.downlink_bytes_per_sec as f64
    }
}

/// One device's participation in a synchronous round, as the clock sees
/// it: how far through its local work the device got, and how its links
/// are scaled this round (the churn model's time-varying bandwidth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundParticipant {
    /// Device index.
    pub device: usize,
    /// Fraction of the local compute completed before leaving the round:
    /// `1.0` for a device that finished, `< 1.0` for a mid-round dropout.
    pub completion: f64,
    /// Multiplier on both link rates this round; `1.0` leaves the
    /// device's nominal links untouched.
    pub link_scale: f64,
}

impl RoundParticipant {
    /// A device that completes the whole round over its nominal links.
    pub fn full(device: usize) -> Self {
        RoundParticipant { device, completion: 1.0, link_scale: 1.0 }
    }

    /// Did the device finish its local work (and therefore upload)?
    pub fn completed(&self) -> bool {
        self.completion >= 1.0
    }
}

/// Virtual clock advancing by synchronous federated rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct SimClock {
    devices: Vec<DeviceResources>,
    now_s: f64,
}

impl SimClock {
    /// Create a clock over a device population.
    pub fn new(devices: Vec<DeviceResources>) -> Self {
        SimClock { devices, now_s: 0.0 }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now_s
    }

    /// Restore the clock to a checkpointed instant (the resume path; a
    /// live run never rewinds its own clock).
    pub fn set_now(&mut self, now_s: f64) {
        self.now_s = now_s;
    }

    /// Resources of device `d`.
    ///
    /// # Panics
    /// Panics when `d` is out of range.
    pub fn device(&self, d: usize) -> &DeviceResources {
        &self.devices[d]
    }

    /// Duration of one synchronous round: the slowest participant's
    /// elapsed time, plus the server-side time. Advances the clock and
    /// returns the duration.
    ///
    /// Partial-round accounting is explicit per participant: every
    /// participant is charged its download and `completion × compute`,
    /// but **only a device that completed uploads** — a mid-round dropout
    /// (`completion < 1`) can never be charged a full round of compute,
    /// nor any uplink time. Link scales divide the nominal link rates, so
    /// a device on a degraded link pays proportionally longer transfers.
    ///
    /// The three per-device quantities are closures of the device index
    /// so heterogeneous payloads (each device ships its *own* model) and
    /// heterogeneous workloads (shard sizes differ) are both expressible.
    ///
    /// # Panics
    /// Panics when a participant's `link_scale` is not positive or its
    /// `completion` is outside `[0, 1]`.
    pub fn advance_round(
        &mut self,
        participants: &[RoundParticipant],
        samples_per_device: &dyn Fn(usize) -> usize,
        down_bytes_per_device: &dyn Fn(usize) -> usize,
        up_bytes_per_device: &dyn Fn(usize) -> usize,
        server_seconds: f64,
    ) -> f64 {
        let device_time = participants
            .iter()
            .map(|p| {
                assert!(p.link_scale > 0.0, "link scale must be positive");
                assert!((0.0..=1.0).contains(&p.completion), "completion must be in [0, 1]");
                let r = &self.devices[p.device];
                let down = r.download_time(down_bytes_per_device(p.device)) / p.link_scale;
                let compute = r.compute_time(samples_per_device(p.device)) * p.completion;
                let up = if p.completed() {
                    r.upload_time(up_bytes_per_device(p.device)) / p.link_scale
                } else {
                    0.0
                };
                down + compute + up
            })
            .fold(0.0f64, f64::max);
        let dt = device_time + server_seconds;
        self.now_s += dt;
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcu_is_much_slower_than_smartphone() {
        let mcu = DeviceResources::microcontroller();
        let phone = DeviceResources::smartphone();
        assert!(mcu.compute_time(100) > 50.0 * phone.compute_time(100));
    }

    #[test]
    fn population_is_heterogeneous_and_deterministic() {
        let a = DeviceResources::heterogeneous_population(8, 1);
        let b = DeviceResources::heterogeneous_population(8, 1);
        assert_eq!(a, b);
        let speeds: Vec<f32> = a.iter().map(|r| r.compute_samples_per_sec).collect();
        let min = speeds.iter().copied().fold(f32::INFINITY, f32::min);
        let max = speeds.iter().copied().fold(0.0f32, f32::max);
        assert!(max / min > 2.0, "population not heterogeneous: {speeds:?}");
    }

    #[test]
    fn slowest_active_device_bounds_the_round_time() {
        let pop = vec![DeviceResources::smartphone(), DeviceResources::microcontroller()];
        let mut clock = SimClock::new(pop);
        // Only the fast device active.
        let fast =
            clock.advance_round(&[RoundParticipant::full(0)], &|_| 100, &|_| 1000, &|_| 1000, 0.5);
        // Both active: the MCU dominates.
        let both = clock.advance_round(
            &[RoundParticipant::full(0), RoundParticipant::full(1)],
            &|_| 100,
            &|_| 1000,
            &|_| 1000,
            0.5,
        );
        assert!(both > 10.0 * fast, "fast {fast}, both {both}");
        assert!((clock.now() - (fast + both)).abs() < 1e-9);
    }

    /// Satellite bugfix pin: partial-round accounting. A dropout is
    /// charged its download and the completed fraction of its compute —
    /// never the full round, and never any upload.
    #[test]
    fn dropout_charges_partial_compute_and_no_upload() {
        // 10 samples/s compute, 100 B/s up, 200 B/s down: with 50
        // samples, 400 B down, 300 B up the full round is exactly
        // 2 + 5 + 3 = 10 s.
        let r = DeviceResources {
            compute_samples_per_sec: 10.0,
            uplink_bytes_per_sec: 100.0,
            downlink_bytes_per_sec: 200.0,
        };
        let mut clock = SimClock::new(vec![r]);
        let full =
            clock.advance_round(&[RoundParticipant::full(0)], &|_| 50, &|_| 400, &|_| 300, 0.0);
        assert_eq!(full, 10.0);
        // Dropping out at 40% of compute: 2 + 0.4·5 = 4 s exactly; the
        // 3 s upload never happens.
        let dropped = clock.advance_round(
            &[RoundParticipant { device: 0, completion: 0.4, link_scale: 1.0 }],
            &|_| 50,
            &|_| 400,
            &|_| 300,
            0.0,
        );
        assert_eq!(dropped, 4.0);
        // Even at completion → 1 a dropout stays strictly under the full
        // round by the upload leg.
        let near = clock.advance_round(
            &[RoundParticipant { device: 0, completion: 0.999, link_scale: 1.0 }],
            &|_| 50,
            &|_| 400,
            &|_| 300,
            0.0,
        );
        assert!(near < full - 2.9, "upload must never be charged to a dropout");
        // A halved link doubles both transfer legs and only them:
        // 4 + 5 + 6 = 15 s.
        let throttled = clock.advance_round(
            &[RoundParticipant { device: 0, completion: 1.0, link_scale: 0.5 }],
            &|_| 50,
            &|_| 400,
            &|_| 300,
            0.0,
        );
        assert_eq!(throttled, 15.0);
    }

    #[test]
    fn clock_restores_to_a_checkpointed_instant() {
        let mut clock = SimClock::new(vec![DeviceResources::smartphone()]);
        clock.advance_round(&[RoundParticipant::full(0)], &|_| 10, &|_| 10, &|_| 10, 0.0);
        let t = clock.now();
        let mut fresh = SimClock::new(vec![DeviceResources::smartphone()]);
        fresh.set_now(t);
        assert_eq!(fresh, clock);
    }
}
