//! Seeded, deterministic fleet dynamics: device arrival/departure,
//! availability schedules, mid-round dropout, and time-varying link
//! bandwidth.
//!
//! Real cross-device fleets are not a fixed `Vec<Device>`: devices come
//! online, go away, disappear mid-round, and see their links degrade.
//! [`ChurnSpec`] describes those dynamics declaratively and
//! [`ChurnProcess`] evaluates them — and the whole model is a **pure
//! function of `(spec, device, round)`**. There is no mutable churn state
//! anywhere:
//!
//! * the availability timeline is identical however the fleet is walked:
//!   the whole-fleet scan accepts exactly the devices the per-device
//!   predicate does, so the registry's shard size can never leak into
//!   which devices exist;
//! * whether a round was ever *queried* cannot shift any other round's
//!   answer, so checkpoint/resume needs no churn cursor at all — a
//!   resumed run re-derives the exact timeline from the spec;
//! * evaluating one device costs one SplitMix64 hash for the static
//!   schedule (arrival round, lifetime, duty phase) plus two per-round
//!   hashes for the dropout/link draws, which are only taken for sampled
//!   devices. The availability scan is O(registered) *time* — per device
//!   one hash, no division and no branch on the answer — and O(1)
//!   *memory* besides the set it returns, so a million-device fleet with
//!   churn keeps peak residency O(sampled). Over 10⁶ devices under a
//!   3-of-4 duty cycle it takes about 2.6 ms a round (one core of a
//!   2-vCPU x86-64 Xeon, the benchmark's `fl.churn_available_ms` on
//!   `fleet_wire`; 11–12 ms with two 64-bit divisions and a conditional
//!   push per device), under half the participation sampler's shuffle
//!   of the same pool.
//!
//! The per-device static schedule packs three independent draws into one
//! 64-bit hash (21 + 21 + 22 bits); at those resolutions the arrival and
//! lifetime quantiles are exact to ~5·10⁻⁷, far below anything a
//! round-granularity process can observe.

use fedzkt_tensor::split_seed;

/// Stream tags separating the churn model's independent random draws
/// from each other (and from every other consumer of the run seed).
const STREAM_STATIC: u64 = 0xC4_12A1;
const STREAM_DROPOUT: u64 = 0xC4_12A2;
const STREAM_FRACTION: u64 = 0xC4_12A3;
const STREAM_LINK: u64 = 0xC4_12A4;

/// Declarative description of a fleet's dynamics, attached to a scenario.
///
/// The default value is the static fleet every pre-churn scenario
/// implies: everyone present from round 0, nobody departs, no duty
/// cycling, no dropout, steady links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Seed of the churn process, independent of the run seed so a seed
    /// sweep can hold the fleet dynamics fixed (or vice versa).
    pub seed: u64,
    /// Devices come online at a round drawn uniformly from
    /// `0..arrival_window`; `0` means the whole fleet is present from
    /// round 0.
    pub arrival_window: usize,
    /// Mean lifetime in rounds after arrival (exponentially distributed,
    /// minimum 1); `0` means devices never depart.
    pub mean_lifetime: f32,
    /// Duty-cycle period in rounds; `0` disables duty cycling.
    pub duty_period: usize,
    /// Rounds per period the device is on (each device gets its own
    /// phase). Meaningful only when `duty_period > 0`.
    pub duty_on: usize,
    /// Probability that an available, sampled device drops mid-round
    /// (receiving the round payload and burning partial compute, but
    /// contributing no update).
    pub dropout: f32,
    /// Per-round link-bandwidth multiplier is drawn uniformly from
    /// `[bandwidth_floor, 1]`; `1` leaves links steady.
    pub bandwidth_floor: f32,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            seed: 0,
            arrival_window: 0,
            mean_lifetime: 0.0,
            duty_period: 0,
            duty_on: 0,
            dropout: 0.0,
            bandwidth_floor: 1.0,
        }
    }
}

impl ChurnSpec {
    /// Check the spec for degenerate values.
    ///
    /// # Errors
    /// Returns a description of the offending field when the dropout
    /// probability is outside `[0, 1)`, the bandwidth floor is outside
    /// `(0, 1]`, the mean lifetime is negative or non-finite, or a duty
    /// cycle has `duty_on` outside `1..=duty_period`.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(format!("dropout probability {} outside [0, 1)", self.dropout));
        }
        if !(self.bandwidth_floor > 0.0 && self.bandwidth_floor <= 1.0) {
            return Err(format!("bandwidth floor {} outside (0, 1]", self.bandwidth_floor));
        }
        if !(self.mean_lifetime.is_finite() && self.mean_lifetime >= 0.0) {
            return Err(format!("mean lifetime {} must be finite and >= 0", self.mean_lifetime));
        }
        if self.duty_period > 0 && !(1..=self.duty_period).contains(&self.duty_on) {
            return Err(format!(
                "duty cycle {}/{} leaves no on-rounds (need 1 <= on <= period)",
                self.duty_on, self.duty_period
            ));
        }
        Ok(())
    }

    /// Does this spec describe any dynamics at all? A quiescent spec is
    /// behaviourally identical to no churn (every device always
    /// available, no dropout, steady links).
    pub fn is_quiescent(&self) -> bool {
        self.arrival_window == 0
            && self.mean_lifetime == 0.0
            && self.duty_period == 0
            && self.dropout == 0.0
            && self.bandwidth_floor >= 1.0
    }
}

/// A device's static availability schedule: derived once per query from a
/// single per-device hash, never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Schedule {
    /// First round the device is online.
    arrival: usize,
    /// First round after `arrival` the device is gone (`usize::MAX` =
    /// never departs).
    departure: usize,
    /// Duty-cycle phase offset.
    phase: usize,
}

/// Evaluator of a [`ChurnSpec`] over a fleet of `devices` devices.
///
/// Every method is a pure function of `(spec, device, round)` — see the
/// module docs for why that is the load-bearing property.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnProcess {
    spec: ChurnSpec,
    devices: usize,
    /// `split_seed(spec.seed, STREAM_STATIC)`, precomputed so the hot
    /// availability scan costs one SplitMix64 evaluation per device.
    static_seed: u64,
}

/// Map `bits`-wide integer entropy onto `[0, 1)`.
fn unit(h: u64, bits: u32) -> f64 {
    (h & ((1u64 << bits) - 1)) as f64 / (1u64 << bits) as f64
}

/// Width of the duty-phase draw: the top bits of the static hash.
const PHASE_BITS: u32 = 22;

/// One round's duty-cycle test, `(round + phase) % period < on`, with
/// every division taken out of the per-device step:
///
/// * `round % period` is computed once per round;
/// * the phase draw `draw % period` reduces a 22-bit draw in 32-bit
///   arithmetic, and not at all once the period exceeds every draw;
/// * both terms are below the period, so their sum reduces with one
///   conditional subtract — taken as a comparison against the distance
///   to the wrap, which cannot overflow however large the period.
struct DutyWindow {
    period: usize,
    on: usize,
    /// `round % period`.
    offset: usize,
    /// The period as the phase draw's modulus; `None` when it exceeds
    /// every draw, each of which is then its own residue.
    modulus: Option<u32>,
}

impl DutyWindow {
    /// The window of `round`, or `None` when the spec has no duty cycle.
    fn at(spec: &ChurnSpec, round: usize) -> Option<Self> {
        let period = spec.duty_period;
        (period > 0).then(|| DutyWindow {
            period,
            on: spec.duty_on,
            offset: round % period,
            modulus: u32::try_from(period).ok().filter(|&p| p < 1 << PHASE_BITS),
        })
    }

    /// Is the device with static hash `h` on duty in this window's round?
    fn is_on(&self, h: u64) -> bool {
        let draw = (h >> (64 - PHASE_BITS)) as u32;
        let phase = match self.modulus {
            Some(p) => (draw % p) as usize,
            None => draw as usize,
        };
        let to_wrap = self.period - self.offset;
        let position = if phase >= to_wrap { phase - to_wrap } else { self.offset + phase };
        position < self.on
    }
}

impl ChurnProcess {
    /// Build the evaluator for a fleet of `devices` devices.
    ///
    /// # Panics
    /// Panics when `devices` is 0 or the spec fails
    /// [`ChurnSpec::validate`].
    pub fn new(spec: ChurnSpec, devices: usize) -> Self {
        assert!(devices > 0, "a churn process needs at least one device");
        if let Err(e) = spec.validate() {
            panic!("invalid churn spec: {e}");
        }
        ChurnProcess { spec, devices, static_seed: split_seed(spec.seed, STREAM_STATIC) }
    }

    /// The spec this process evaluates.
    pub fn spec(&self) -> &ChurnSpec {
        &self.spec
    }

    /// Number of devices in the fleet.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Device `k`'s static hash, the entropy of its whole [`Schedule`].
    fn static_hash(&self, k: usize) -> u64 {
        split_seed(self.static_seed, k as u64)
    }

    /// Device `k`'s static schedule, from one hash of `(seed, k)`.
    fn schedule(&self, k: usize) -> Schedule {
        let h = self.static_hash(k);
        let (arrival, departure) = self.lifespan(h);
        let phase = if self.spec.duty_period == 0 {
            0
        } else {
            (h >> (64 - PHASE_BITS)) as usize % self.spec.duty_period
        };
        Schedule { arrival, departure, phase }
    }

    /// The arrival and departure rounds a static hash draws.
    fn lifespan(&self, h: u64) -> (usize, usize) {
        let arrival = if self.spec.arrival_window == 0 {
            0
        } else {
            // Uniform over 0..window from 21 bits of entropy.
            ((unit(h, 21) * self.spec.arrival_window as f64) as usize)
                .min(self.spec.arrival_window - 1)
        };
        let departure = if self.spec.mean_lifetime == 0.0 {
            usize::MAX
        } else {
            // Exponential lifetime with the configured mean, at least one
            // round so an arriving device is observable.
            let u = unit(h >> 21, 21);
            let life = (-(self.spec.mean_lifetime as f64) * (1.0 - u).ln()).round() as usize;
            arrival.saturating_add(life.max(1))
        };
        (arrival, departure)
    }

    /// Is device `k` available (online and on-duty) in `round`?
    ///
    /// This is the per-device definition; [`ChurnProcess::available`] is
    /// the same predicate with its per-round work hoisted out of the
    /// fleet walk.
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn is_available(&self, k: usize, round: usize) -> bool {
        assert!(k < self.devices, "device {k} out of range (fleet: {})", self.devices);
        let s = self.schedule(k);
        if round < s.arrival || round >= s.departure {
            return false;
        }
        self.spec.duty_period == 0 || (round + s.phase) % self.spec.duty_period < self.spec.duty_on
    }

    /// The sorted set of devices available in `round`: exactly the
    /// devices [`ChurnProcess::is_available`] accepts, without a division
    /// per device (see [`DutyWindow`]) and without a branch on the
    /// answer.
    pub fn available(&self, round: usize) -> Vec<usize> {
        let duty = DutyWindow::at(&self.spec, round);
        let lifespans = self.spec.arrival_window > 0 || self.spec.mean_lifetime > 0.0;
        let is_available = |k: usize| {
            let h = self.static_hash(k);
            let online = !lifespans || {
                let (arrival, departure) = self.lifespan(h);
                (arrival..departure).contains(&round)
            };
            online && duty.as_ref().is_none_or(|d| d.is_on(h))
        };
        // Every id is written at the cursor, which moves past available
        // ones only. To the branch predictor each answer is a coin flip
        // (3 in 4 under a 3-of-4 duty cycle), so a filter's conditional
        // push mispredicts on about one device in four, which costs more
        // than the hash does.
        let mut out = vec![0; self.devices];
        let mut len = 0;
        for k in 0..self.devices {
            out[len] = k;
            len += usize::from(is_available(k));
        }
        out.truncate(len);
        out
    }

    /// Mid-round dropout decision for an available, sampled device:
    /// `Some(fraction)` when device `k` drops out of `round` after
    /// completing `fraction ∈ [0, 1)` of its local compute, `None` when
    /// it survives the round.
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn dropout(&self, k: usize, round: usize) -> Option<f64> {
        assert!(k < self.devices, "device {k} out of range (fleet: {})", self.devices);
        if self.spec.dropout == 0.0 {
            return None;
        }
        let h = split_seed(split_seed(split_seed(self.spec.seed, STREAM_DROPOUT), round as u64), k as u64);
        if unit(h, 53) >= self.spec.dropout as f64 {
            return None;
        }
        let f = split_seed(split_seed(split_seed(self.spec.seed, STREAM_FRACTION), round as u64), k as u64);
        Some(unit(f, 53))
    }

    /// Link-bandwidth multiplier for device `k` in `round`, uniform in
    /// `[bandwidth_floor, 1]` (exactly `1.0` for a steady-link spec).
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn link_scale(&self, k: usize, round: usize) -> f64 {
        assert!(k < self.devices, "device {k} out of range (fleet: {})", self.devices);
        let floor = self.spec.bandwidth_floor as f64;
        if floor >= 1.0 {
            return 1.0;
        }
        let h = split_seed(split_seed(split_seed(self.spec.seed, STREAM_LINK), round as u64), k as u64);
        floor + unit(h, 53) * (1.0 - floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_spec() -> ChurnSpec {
        ChurnSpec {
            seed: 7,
            arrival_window: 4,
            mean_lifetime: 6.0,
            duty_period: 3,
            duty_on: 2,
            dropout: 0.3,
            bandwidth_floor: 0.4,
        }
    }

    #[test]
    fn quiescent_spec_means_everyone_always_available() {
        let p = ChurnProcess::new(ChurnSpec::default(), 10);
        for round in 0..50 {
            assert_eq!(p.available(round), (0..10).collect::<Vec<_>>());
            for k in 0..10 {
                assert_eq!(p.dropout(k, round), None);
                assert_eq!(p.link_scale(k, round), 1.0);
            }
        }
        assert!(ChurnSpec::default().is_quiescent());
        assert!(!busy_spec().is_quiescent());
    }

    #[test]
    fn evaluation_is_deterministic_and_pure() {
        let a = ChurnProcess::new(busy_spec(), 64);
        let b = ChurnProcess::new(busy_spec(), 64);
        // Query b in scrambled round order first: history must not matter.
        for round in [9, 0, 3, 9, 1].into_iter().chain(0..10) {
            let _ = b.available(round);
        }
        for round in 0..10 {
            assert_eq!(a.available(round), b.available(round));
            for k in 0..64 {
                assert_eq!(a.dropout(k, round), b.dropout(k, round));
                assert_eq!(a.link_scale(k, round).to_bits(), b.link_scale(k, round).to_bits());
            }
        }
    }

    #[test]
    fn arrivals_spread_over_the_window_then_departures_thin_the_fleet() {
        let spec = ChurnSpec { seed: 3, arrival_window: 4, mean_lifetime: 8.0, ..Default::default() };
        let p = ChurnProcess::new(spec, 500);
        let counts: Vec<usize> = (0..40).map(|r| p.available(r).len()).collect();
        // Monotone ramp while arrivals dominate…
        assert!(counts[0] > 0, "some devices arrive at round 0");
        assert!(counts[3] > counts[0], "the crowd builds over the window");
        // …then the exponential lifetimes drain it.
        assert!(counts[39] < counts[4] / 4, "mass departure: {counts:?}");
    }

    #[test]
    fn duty_cycle_keeps_roughly_on_over_period_online() {
        let spec = ChurnSpec { seed: 5, duty_period: 4, duty_on: 1, ..Default::default() };
        let p = ChurnProcess::new(spec, 400);
        let avg: f64 =
            (0..16).map(|r| p.available(r).len() as f64).sum::<f64>() / 16.0 / 400.0;
        assert!((avg - 0.25).abs() < 0.05, "duty 1/4 should keep ~25% online, got {avg}");
        // Each device individually honours its cycle.
        for k in 0..20 {
            let on: usize = (0..16).filter(|&r| p.is_available(k, r)).count();
            assert_eq!(on, 4, "device {k} must be on exactly 1 round in 4");
        }
    }

    #[test]
    fn dropout_rate_and_fractions_are_sane() {
        let spec = ChurnSpec { seed: 11, dropout: 0.3, ..Default::default() };
        let p = ChurnProcess::new(spec, 1000);
        let drops: Vec<f64> = (0..1000).filter_map(|k| p.dropout(k, 0)).collect();
        let rate = drops.len() as f64 / 1000.0;
        assert!((rate - 0.3).abs() < 0.05, "dropout rate {rate}");
        assert!(drops.iter().all(|&f| (0.0..1.0).contains(&f)));
    }

    #[test]
    fn link_scale_stays_in_the_configured_band() {
        let spec = ChurnSpec { seed: 13, bandwidth_floor: 0.4, ..Default::default() };
        let p = ChurnProcess::new(spec, 100);
        for round in 0..5 {
            for k in 0..100 {
                let s = p.link_scale(k, round);
                assert!((0.4..=1.0).contains(&s), "scale {s}");
            }
        }
    }

    /// The whole-fleet scan equals the per-device definition: `available`
    /// accepts exactly the devices `is_available` does, over specs that
    /// reach every branch of [`DutyWindow`].
    #[test]
    fn chunked_scan_matches_monolithic_scan() {
        let duty = |duty_period, duty_on| ChurnSpec {
            seed: 9,
            duty_period,
            duty_on,
            ..Default::default()
        };
        let specs = [
            busy_spec(),
            // Duty cycling alone, as the `fleet_wire` benchmark runs it.
            duty(4, 3),
            // Duty cycling with arrivals (CI's churned mega-fleet), and
            // with lifetimes as well.
            ChurnSpec { arrival_window: 2, dropout: 0.2, ..duty(3, 2) },
            ChurnSpec { arrival_window: 5, mean_lifetime: 4.0, ..duty(7, 3) },
            // No duty cycling: arrivals and lifetimes only.
            ChurnSpec { seed: 3, arrival_window: 4, mean_lifetime: 8.0, ..Default::default() },
            // Degenerate cycles: a period of one, always on.
            duty(1, 1),
            duty(5, 5),
            // A period that a quarter of the 22-bit phase draws exceed, the
            // smallest that none does, and periods past `i32::MAX` and
            // `u32::MAX`.
            duty(3 << 20, 1 << 21),
            duty(1 << 22, 1 << 21),
            duty((1 << 31) + 7, 1 << 21),
            duty((1 << 40) + 3, 3 << 20),
        ];
        for spec in specs {
            let p = ChurnProcess::new(spec, 257);
            let period = spec.duty_period.max(1);
            // The first rounds, then rounds several periods deep: at the
            // start of a period and just before its end, where phases wrap.
            let deep = [3, 7]
                .into_iter()
                .flat_map(|n| [n * period, n * period + 1, (n + 1) * period - 2]);
            for round in (0..6).chain(deep) {
                let oracle: Vec<usize> =
                    (0..p.devices()).filter(|&k| p.is_available(k, round)).collect();
                assert_eq!(p.available(round), oracle, "{spec:?} round {round}");
            }
        }
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        for (field, spec) in [
            ("dropout", ChurnSpec { dropout: 1.0, ..Default::default() }),
            ("dropout", ChurnSpec { dropout: -0.1, ..Default::default() }),
            ("dropout", ChurnSpec { dropout: f32::NAN, ..Default::default() }),
            ("floor", ChurnSpec { bandwidth_floor: 0.0, ..Default::default() }),
            ("floor", ChurnSpec { bandwidth_floor: 1.5, ..Default::default() }),
            ("lifetime", ChurnSpec { mean_lifetime: -1.0, ..Default::default() }),
            ("lifetime", ChurnSpec { mean_lifetime: f32::INFINITY, ..Default::default() }),
            ("duty", ChurnSpec { duty_period: 3, duty_on: 0, ..Default::default() }),
            ("duty", ChurnSpec { duty_period: 3, duty_on: 4, ..Default::default() }),
        ] {
            assert!(spec.validate().is_err(), "{field} spec {spec:?} should be rejected");
        }
        busy_spec().validate().unwrap();
    }
}
