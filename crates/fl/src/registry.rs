//! The sharded device registry under million-device fleets.
//!
//! FedZKT targets the *cross-device* regime: a huge registered population
//! of which only a small fraction is sampled each round. A
//! [`DeviceRegistry`] is the bookkeeping that lets a fleet hold devices
//! only while they are needed (the lifecycle itself lives in
//! [`crate::fleet`]): per-device slots holding a device's cumulative state
//! summary (a [`StateDict`], absent until the device is first released)
//! plus a residency flag, sharded so that slot storage for a million
//! registered devices is allocated on demand, never up front.
//!
//! The registry is also the **instrument**: it maintains `resident` /
//! `peak_resident` / `touched` counters. The driver exports the peak into
//! every [`RoundMetrics`](crate::RoundMetrics) row, so the fleet's memory
//! bound (peak resident ≤ sampled-per-round + O(1) for stateless-device
//! algorithms such as FedAvg/FedProx) is *enforced by tests* on the
//! counter rather than claimed from OS-level RSS readings. `touched`
//! counts checkouts — how much materialization work the run has done —
//! not distinct devices.

use fedzkt_nn::StateDict;

/// One registered device's slot: its residency flag and — once the device
/// has been materialized and released — the cumulative state summary it is
/// rematerialized from.
#[derive(Debug, Default)]
struct Slot {
    resident: bool,
    summary: Option<StateDict>,
}

/// Per-device slot storage plus residency accounting for a (possibly
/// enormous) registered fleet.
///
/// Storage is sharded: slots come into existence a shard at a time, the
/// first time any device in the shard is touched, so a registry over 10⁶
/// devices of which ~10³ are ever sampled allocates slot storage roughly
/// proportional to the touched set, not the registered population. The
/// shard size is an internal layout detail — every observable behaviour
/// (counters, summaries, residency) is identical for every shard size,
/// which the workspace property suite asserts.
///
/// The counters are the scale instrument the driver exports per round:
///
/// * [`resident`](DeviceRegistry::resident) — devices materialized right
///   now;
/// * [`peak_resident`](DeviceRegistry::peak_resident) — the high-water
///   mark over the whole run (monotone, so read order never matters);
/// * [`touched`](DeviceRegistry::touched) — checkouts so far (a device
///   materialized in three rounds counts three times).
///
/// Misuse (double checkout, releasing a non-resident device, any
/// out-of-range id) panics: residency bugs must fail loudly in tests, not
/// skew the gauge that CI's memory-bound regression reads.
#[derive(Debug)]
pub struct DeviceRegistry {
    registered: usize,
    shard_size: usize,
    shards: Vec<Option<Box<[Slot]>>>,
    resident: usize,
    peak_resident: usize,
    touched: usize,
}

/// Default slot-shard size; at ~10³ devices sampled from 10⁶ registered,
/// this keeps demand-allocated slot storage in the low megabytes.
const DEFAULT_SHARD_SIZE: usize = 256;

impl DeviceRegistry {
    /// A registry over `registered` devices (ids `0..registered`), with
    /// the default shard size. No slot storage is allocated yet.
    ///
    /// # Panics
    /// Panics when `registered` is 0.
    pub fn new(registered: usize) -> Self {
        Self::with_shard_size(registered, DEFAULT_SHARD_SIZE)
    }

    /// A registry with an explicit slot-shard size (a layout knob exposed
    /// for the shard-count-invariance property tests; simulations use
    /// [`DeviceRegistry::new`]).
    ///
    /// # Panics
    /// Panics when `registered` or `shard_size` is 0.
    pub fn with_shard_size(registered: usize, shard_size: usize) -> Self {
        assert!(registered > 0, "a registry needs at least one device");
        assert!(shard_size > 0, "shard size must be positive");
        let shards = registered.div_ceil(shard_size);
        DeviceRegistry {
            registered,
            shard_size,
            shards: (0..shards).map(|_| None).collect(),
            resident: 0,
            peak_resident: 0,
            touched: 0,
        }
    }

    /// Number of registered devices.
    pub fn registered(&self) -> usize {
        self.registered
    }

    /// Devices currently materialized.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// High-water mark of [`DeviceRegistry::resident`] over the run.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Checkouts so far: every [`DeviceRegistry::checkout`] counts, so a
    /// device materialized in three rounds contributes three. This is the
    /// resume-consistent meaning — the count absorbed from a checkpoint
    /// plus the checkouts after it equals the uninterrupted run's.
    pub fn touched(&self) -> usize {
        self.touched
    }

    /// Is device `k` currently materialized?
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn is_resident(&self, k: usize) -> bool {
        self.assert_in_range(k);
        self.slot(k).is_some_and(|s| s.resident)
    }

    /// Mark device `k` materialized, updating the residency counters.
    ///
    /// # Panics
    /// Panics when `k` is out of range or already resident.
    pub fn checkout(&mut self, k: usize) {
        let slot = self.slot_mut(k);
        assert!(!slot.resident, "device {k} checked out twice");
        slot.resident = true;
        self.resident += 1;
        self.touched += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
    }

    /// Mark device `k` dropped.
    ///
    /// # Panics
    /// Panics when `k` is out of range or not resident.
    pub fn release(&mut self, k: usize) {
        let slot = self.slot_mut(k);
        assert!(slot.resident, "device {k} released while not resident");
        slot.resident = false;
        self.resident -= 1;
    }

    /// Store device `k`'s cumulative state summary (replacing any previous
    /// one) — the snapshot a later rematerialization restores bit-exactly.
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn store_summary(&mut self, k: usize, summary: StateDict) {
        self.slot_mut(k).summary = Some(summary);
    }

    /// Device `k`'s stored summary, if it has one. `None` means the device
    /// has never trained: materialize it from its construction seed alone.
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn summary(&self, k: usize) -> Option<&StateDict> {
        self.assert_in_range(k);
        self.slot(k).and_then(|s| s.summary.as_ref())
    }

    /// Remove and return device `k`'s stored summary, if any — the
    /// move-out path for rematerialization (avoids cloning model-sized
    /// state on the hot path).
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn take_summary(&mut self, k: usize) -> Option<StateDict> {
        self.slot_mut(k).summary.take()
    }

    /// Every stored summary, as `(device, summary)` pairs in device order —
    /// the checkpoint export path. Only allocated shards are visited, so
    /// the cost is O(touched), not O(registered).
    pub fn summaries(&self) -> impl Iterator<Item = (usize, &StateDict)> + '_ {
        self.shards.iter().enumerate().filter_map(|(i, shard)| shard.as_ref().map(|s| (i, s))).flat_map(
            move |(i, shard)| {
                shard.iter().enumerate().filter_map(move |(j, slot)| {
                    slot.summary.as_ref().map(|sd| (i * self.shard_size + j, sd))
                })
            },
        )
    }

    /// Merge residency counters restored from a checkpoint into a freshly
    /// built registry: the peak high-water mark and the checkout count
    /// carry across a restart (a resumed run must report the same gauge
    /// the uninterrupted run reports), while `resident` always reflects
    /// the *live* slots and is never overwritten. Both merge by `max`, so
    /// on a fresh registry (`touched == 0`) later checkouts continue the
    /// absorbed count.
    pub fn absorb_counters(&mut self, peak_resident: usize, touched: usize) {
        self.peak_resident = self.peak_resident.max(peak_resident);
        self.touched = self.touched.max(touched);
    }

    fn assert_in_range(&self, k: usize) {
        assert!(k < self.registered, "device {k} out of range (registered: {})", self.registered);
    }

    /// The slot for device `k`, if its shard has been allocated.
    fn slot(&self, k: usize) -> Option<&Slot> {
        self.shards[k / self.shard_size].as_ref().map(|s| &s[k % self.shard_size])
    }

    /// The slot for device `k`, allocating its shard on first touch.
    fn slot_mut(&mut self, k: usize) -> &mut Slot {
        self.assert_in_range(k);
        let shard = self.shards[k / self.shard_size].get_or_insert_with(|| {
            (0..self.shard_size).map(|_| Slot::default()).collect::<Vec<_>>().into_boxed_slice()
        });
        &mut shard[k % self.shard_size]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_tensor::Tensor;

    fn summary(v: f32) -> StateDict {
        StateDict { params: vec![Tensor::scalar(v)], buffers: Vec::new() }
    }

    #[test]
    fn counters_track_checkout_release() {
        let mut reg = DeviceRegistry::new(10);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (0, 0, 0));
        reg.checkout(3);
        reg.checkout(7);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (2, 2, 2));
        assert!(reg.is_resident(3) && reg.is_resident(7) && !reg.is_resident(0));
        reg.release(3);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (1, 2, 2));
        // Peak is a monotone high-water mark.
        reg.checkout(3);
        reg.release(3);
        reg.release(7);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (0, 2, 3));
    }

    #[test]
    fn summaries_store_and_take() {
        let mut reg = DeviceRegistry::new(4);
        assert!(reg.summary(2).is_none());
        reg.store_summary(2, summary(1.5));
        assert_eq!(reg.summary(2), Some(&summary(1.5)));
        reg.store_summary(2, summary(2.5));
        assert_eq!(reg.take_summary(2), Some(summary(2.5)));
        assert!(reg.summary(2).is_none());
        assert!(reg.take_summary(2).is_none());
    }

    #[test]
    fn slot_storage_is_allocated_on_demand() {
        let mut reg = DeviceRegistry::with_shard_size(1_000_000, 256);
        assert!(reg.shards.iter().all(Option::is_none), "no slots before first touch");
        reg.checkout(999_999);
        assert_eq!(reg.shards.iter().filter(|s| s.is_some()).count(), 1);
        assert_eq!(reg.resident(), 1);
    }

    #[test]
    fn summaries_iterate_in_device_order_without_touching_cold_shards() {
        let mut reg = DeviceRegistry::with_shard_size(1000, 4);
        reg.store_summary(517, summary(2.0));
        reg.store_summary(3, summary(1.0));
        reg.store_summary(999, summary(3.0));
        let allocated = reg.shards.iter().filter(|s| s.is_some()).count();
        assert_eq!(allocated, 3, "only the three touched shards exist");
        let got: Vec<(usize, f32)> =
            reg.summaries().map(|(k, sd)| (k, sd.params[0].item())).collect();
        assert_eq!(got, vec![(3, 1.0), (517, 2.0), (999, 3.0)]);
    }

    #[test]
    fn absorbed_counters_merge_monotonically() {
        let mut reg = DeviceRegistry::new(8);
        reg.checkout(0);
        reg.absorb_counters(5, 6);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (1, 5, 6));
        // Never regresses the live counters.
        reg.absorb_counters(0, 0);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (1, 5, 6));
    }

    #[test]
    #[should_panic(expected = "checked out twice")]
    fn double_checkout_panics() {
        let mut reg = DeviceRegistry::new(2);
        reg.checkout(1);
        reg.checkout(1);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn release_without_checkout_panics() {
        DeviceRegistry::new(2).release(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        DeviceRegistry::new(2).checkout(2);
    }
}
