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
//!   predicate does, so how the fleet is stored can never leak into
//!   which devices exist;
//! * whether a round was ever *queried* cannot shift any other round's
//!   answer, so checkpoint/resume needs no churn cursor at all — a
//!   resumed run re-derives the exact timeline from the spec;
//! * evaluating one device costs one SplitMix64 hash for the static
//!   schedule (arrival round, lifetime, duty phase) plus two per-round
//!   hashes for the dropout/link draws, which are only taken for sampled
//!   devices.
//!
//! A round's available set is built by one scan,
//! [`ChurnProcess::availability`]: O(registered) *time* — per device one
//! hash, no division and no branch on the answer — into an
//! [`Availability`] bitmap of one bit per device plus a 32-bit prefix
//! count per 512 devices (133 KB at 10⁶ devices). The bitmap
//! answers the sampler's "which device sits at position `p` of the pool"
//! in O(log registered) ([`Availability::select`]), so a round that
//! samples 10³ of 10⁶ devices never lists the pool.
//!
//! Once lifespans cannot change the answer (no lifetimes, and past the
//! arrival window), a round's set depends only on its duty phase,
//! [`ChurnProcess::round_class`]. The simulation driver memoizes one
//! bitmap per class while they fit in 8 B per registered device (the
//! size of a listed pool holding every device), so a periodic fleet pays
//! `duty_period` scans per run rather than one per round. A memo caches
//! a pure function, so nothing above changes: it is never checkpointed,
//! and a resumed run rebuilds it. Specs with lifetimes, or periods too
//! long to memoize, scan once per round.
//!
//! Over 10⁶ devices under a 3-of-4 duty cycle the scan takes about
//! 2.8 ms; on the benchmark's `fleet_wire` the driver pays it four
//! times per 40-round run. Listing the set from the bitmap, as
//! [`ChurnProcess::available`] does, adds about 0.8 ms and a 6 MB id
//! vector (one core of a 2-vCPU x86-64 Xeon, best of 200 rounds). The
//! benchmark's `fl.churn_available_ms` times that listing, a path the
//! driver no longer takes, so it can move either way without the
//! round's cost following it.
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
    /// Panics when `devices` is 0 or above `u32::MAX`, or the spec fails
    /// [`ChurnSpec::validate`].
    pub fn new(spec: ChurnSpec, devices: usize) -> Self {
        assert!(devices > 0, "a churn process needs at least one device");
        assert!(u32::try_from(devices).is_ok(), "at most u32::MAX devices");
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

    /// The devices available in `round`, as a bitmap: exactly the
    /// devices [`ChurnProcess::is_available`] accepts, found without a
    /// division per device (see [`DutyWindow`]) and without a branch on
    /// the answer.
    pub fn availability(&self, round: usize) -> Availability {
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
        // Each answer is or-ed into its word's bit. To the branch
        // predictor an answer is a coin flip (3 in 4 under a 3-of-4 duty
        // cycle), so testing it would mispredict on about one device in
        // four, which costs more than the hash does.
        let words = self.devices.div_ceil(64);
        let mut bitmap = Availability {
            words: Vec::with_capacity(words),
            ranks: Vec::with_capacity(words.div_ceil(WORDS_PER_RANK)),
            len: 0,
        };
        let mut count = 0u32;
        for (i, base) in (0..self.devices).step_by(64).enumerate() {
            let mut word = 0u64;
            for k in base..self.devices.min(base + 64) {
                word |= u64::from(is_available(k)) << (k - base);
            }
            if i % WORDS_PER_RANK == 0 {
                bitmap.ranks.push(count);
            }
            bitmap.words.push(word);
            count += word.count_ones();
        }
        bitmap.len = count as usize;
        bitmap
    }

    /// The sorted set of devices available in `round`: the ids
    /// [`ChurnProcess::availability`] sets.
    pub fn available(&self, round: usize) -> Vec<usize> {
        self.availability(round).ids()
    }

    /// The class of `round` when its available set depends on the round
    /// only through its duty phase: `round % duty_period` (0 without a
    /// duty cycle) once no device can depart (`mean_lifetime == 0`) and
    /// every device has arrived (`round >= arrival_window`); `None`
    /// before that, or when devices have lifetimes. Rounds of one class
    /// have one [`ChurnProcess::availability`].
    pub fn round_class(&self, round: usize) -> Option<usize> {
        (self.spec.mean_lifetime == 0.0 && round >= self.spec.arrival_window)
            .then(|| round % self.spec.duty_period.max(1))
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

/// Words of an [`Availability`] bitmap per prefix count: one 32-bit
/// count per 512 devices costs 1/16 bit a device.
const WORDS_PER_RANK: usize = 8;

/// One round's available devices: a bitmap over the fleet with the
/// count of set bits before each block of [`WORDS_PER_RANK`] 64-device
/// words, built by [`ChurnProcess::availability`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Availability {
    /// Bit `k % 64` of word `k / 64` is set when device `k` is available.
    words: Vec<u64>,
    /// `ranks[b]`: the set bits in `words[..b * WORDS_PER_RANK]`.
    ranks: Vec<u32>,
    /// The set bits in all words.
    len: usize,
}

impl Availability {
    /// Number of available devices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is nobody available?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `pos`-th available device in ascending id order, i.e.
    /// `ids()[pos]`: a binary search over the block ranks, then a walk
    /// over at most [`WORDS_PER_RANK`] word counts and one word's set
    /// bits.
    ///
    /// # Panics
    /// Panics when `pos >= len()`.
    pub fn select(&self, pos: usize) -> usize {
        assert!(pos < self.len, "position {pos} out of range (available: {})", self.len);
        // The last block whose rank is at most `pos` holds the bit: every
        // block after it starts past `pos`, and an empty block shares its
        // rank with the next one.
        let block = self.ranks.partition_point(|&r| r as usize <= pos) - 1;
        let mut rest = pos - self.ranks[block] as usize;
        let mut i = block * WORDS_PER_RANK;
        while rest >= self.words[i].count_ones() as usize {
            rest -= self.words[i].count_ones() as usize;
            i += 1;
        }
        let mut word = self.words[i];
        for _ in 0..rest {
            word &= word - 1;
        }
        64 * i + word.trailing_zeros() as usize
    }

    /// The available devices, ascending.
    pub fn ids(&self) -> Vec<usize> {
        let mut ids = Vec::with_capacity(self.len);
        for (i, &word) in self.words.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                ids.push(64 * i + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        ids
    }

    /// Heap bytes of the bitmap of a `devices`-device fleet.
    fn bytes_for(devices: usize) -> usize {
        let words = devices.div_ceil(64);
        words * size_of::<u64>() + words.div_ceil(WORDS_PER_RANK) * size_of::<u32>()
    }
}

/// Bound on [`AvailabilityMemo`]'s bitmaps, per registered device: the
/// size of a listed pool holding every device.
const MEMO_BYTES_PER_DEVICE: usize = size_of::<usize>();

/// A [`ChurnProcess`] with its availability bitmaps memoized by
/// [`ChurnProcess::round_class`], as the simulation driver holds it.
///
/// The memo caches a pure function of `(spec, round)`: it changes no
/// answer, is never checkpointed, and a resumed run rebuilds it. It keeps
/// one bitmap per class when all classes fit in [`MEMO_BYTES_PER_DEVICE`]
/// per device, and otherwise scans once per round.
pub(crate) struct AvailabilityMemo {
    process: ChurnProcess,
    /// One slot per round class, filled on the class's first round;
    /// empty when the classes do not fit the bound.
    classes: Vec<Option<Availability>>,
    /// The latest round's bitmap when it has no class slot.
    unclassed: Option<Availability>,
}

impl AvailabilityMemo {
    pub(crate) fn new(process: ChurnProcess) -> Self {
        let spec = process.spec();
        let classes = if spec.mean_lifetime == 0.0 { spec.duty_period.max(1) } else { 0 };
        let fits = classes.saturating_mul(Availability::bytes_for(process.devices()))
            <= MEMO_BYTES_PER_DEVICE * process.devices();
        let slots = if fits { classes } else { 0 };
        AvailabilityMemo { process, classes: vec![None; slots], unclassed: None }
    }

    /// The process whose bitmaps this memoizes.
    pub(crate) fn process(&self) -> &ChurnProcess {
        &self.process
    }

    /// [`ChurnProcess::availability`] of `round`, scanned on the first
    /// round of its class, or every round when it has none.
    pub(crate) fn availability(&mut self, round: usize) -> &Availability {
        let process = &self.process;
        match process.round_class(round).and_then(|c| self.classes.get_mut(c)) {
            Some(slot) => slot.get_or_insert_with(|| process.availability(round)),
            None => self.unclassed.insert(process.availability(round)),
        }
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

    /// The memo answers every round as a fresh scan does, fills one slot
    /// per class when the classes fit its bound, and keeps none when they
    /// do not (long periods) or when lifetimes leave no classes.
    #[test]
    fn memo_matches_the_scan_within_its_bound() {
        let devices = 1000;
        let duty = |duty_period, duty_on| ChurnSpec {
            seed: 4,
            duty_period,
            duty_on,
            dropout: 0.1,
            ..Default::default()
        };
        // (spec, class slots): 16 words and 2 ranks, 136 B per class, and
        // 8000 B in all.
        let cases = [
            (duty(4, 3), 4),
            (ChurnSpec { arrival_window: 5, ..duty(3, 2) }, 3),
            (ChurnSpec { arrival_window: 3, ..Default::default() }, 1),
            (duty(58, 20), 58),
            (duty(59, 20), 0),
            (duty(1 << 22, 1 << 21), 0),
            (ChurnSpec { mean_lifetime: 6.0, ..duty(4, 3) }, 0),
        ];
        for (spec, slots) in cases {
            let p = ChurnProcess::new(spec, devices);
            let mut memo = AvailabilityMemo::new(p);
            assert_eq!(memo.classes.len(), slots, "{spec:?}");
            let bytes = slots * Availability::bytes_for(devices);
            assert!(bytes <= MEMO_BYTES_PER_DEVICE * devices, "{spec:?}");
            let rounds: Vec<usize> = (0..30).chain([97, 1 << 22, (1 << 22) + 5]).collect();
            for &round in &rounds {
                assert_eq!(*memo.availability(round), p.availability(round), "{spec:?} {round}");
            }
            let mut seen: Vec<usize> =
                rounds.iter().filter_map(|&r| p.round_class(r)).filter(|&c| c < slots).collect();
            seen.sort_unstable();
            seen.dedup();
            let filled = memo.classes.iter().filter(|c| c.is_some()).count();
            assert_eq!(filled, seen.len(), "{spec:?}");
        }
    }

    #[test]
    fn select_walks_the_ids_in_order() {
        let p = ChurnProcess::new(busy_spec(), 300);
        for round in 0..12 {
            let a = p.availability(round);
            let ids = a.ids();
            assert_eq!(a.len(), ids.len());
            assert_eq!(a.is_empty(), ids.is_empty());
            for (pos, &k) in ids.iter().enumerate() {
                assert_eq!(a.select(pos), k, "round {round} position {pos}");
            }
        }
        // Empty words and blocks: only devices 130 and 620 of 640 are on.
        let mut words = vec![0; 10];
        words[2] = 1 << 2;
        words[9] = 1 << 44;
        let sparse = Availability { words, ranks: vec![0, 1], len: 2 };
        assert_eq!((sparse.select(0), sparse.select(1)), (130, 620));
        assert_eq!(sparse.ids(), [130, 620]);
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
