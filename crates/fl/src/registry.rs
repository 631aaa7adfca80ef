//! The residency gauge of a device fleet.
//!
//! FedZKT targets the *cross-device* regime: a huge registered population
//! of which only a small fraction is sampled each round. Each device's
//! lifecycle lives in [`crate::fleet`]; a [`DeviceRegistry`] only
//! **counts** it: `resident` / `peak_resident` / `touched`. The driver
//! exports the peak into every [`RoundMetrics`](crate::RoundMetrics) row,
//! so the fleet's memory bound (peak resident ≤ sampled-per-round + O(1)
//! for stateless-device algorithms such as FedAvg/FedProx) is *enforced by
//! tests* on the counter rather than claimed from OS-level RSS readings.
//! `touched` counts checkouts — how much materialization work the run has
//! done — not distinct devices.

use crate::checkpoint::AlgoState;

/// Residency counters for a (possibly enormous) registered fleet. It
/// holds no per-device storage: which devices are resident is the fleet's
/// business, and the counters follow its checkouts and releases.
///
/// * [`resident`](DeviceRegistry::resident) — devices materialized right
///   now;
/// * [`peak_resident`](DeviceRegistry::peak_resident) — the high-water
///   mark over the whole run (monotone, so read order never matters);
/// * [`touched`](DeviceRegistry::touched) — checkouts so far (a device
///   materialized in three rounds counts three times).
///
/// A release with nothing resident panics: residency bugs must fail
/// loudly in tests, not skew the gauge that CI's memory-bound regression
/// reads.
#[derive(Debug, Default)]
pub struct DeviceRegistry {
    resident: usize,
    peak_resident: usize,
    touched: usize,
}

impl DeviceRegistry {
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

    /// Count one device materialized.
    pub fn checkout(&mut self) {
        self.resident += 1;
        self.touched += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
    }

    /// Count one device dropped.
    ///
    /// # Panics
    /// Panics when no device is resident.
    pub fn release(&mut self) {
        assert!(self.resident > 0, "device released while none is resident");
        self.resident -= 1;
    }

    /// Merge residency counters restored from a checkpoint into a freshly
    /// built registry: the peak high-water mark and the checkout count
    /// carry across a restart (a resumed run must report the same gauge
    /// the uninterrupted run reports), while `resident` always reflects
    /// the *live* fleet and is never overwritten. Both merge by `max`, so
    /// on a fresh registry (`touched == 0`) later checkouts continue the
    /// absorbed count.
    pub fn absorb_counters(&mut self, peak_resident: usize, touched: usize) {
        self.peak_resident = self.peak_resident.max(peak_resident);
        self.touched = self.touched.max(touched);
    }

    /// Store the monotone counters under the `"registry"` entry.
    pub(crate) fn save_into(&self, state: &mut AlgoState) {
        state.put_words("registry", vec![self.peak_resident as u64, self.touched as u64]);
    }

    /// Merge the counters stored by [`DeviceRegistry::save_into`].
    pub(crate) fn load_from(&mut self, state: &AlgoState) -> Result<(), String> {
        match state.words("registry")? {
            &[peak, touched] => {
                self.absorb_counters(peak as usize, touched as usize);
                Ok(())
            }
            _ => Err("registry counters must be [peak_resident, touched]".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_checkout_release() {
        let mut reg = DeviceRegistry::default();
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (0, 0, 0));
        reg.checkout();
        reg.checkout();
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (2, 2, 2));
        reg.release();
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (1, 2, 2));
        // Peak is a monotone high-water mark.
        reg.checkout();
        reg.release();
        reg.release();
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (0, 2, 3));
    }

    #[test]
    fn absorbed_counters_merge_monotonically() {
        let mut reg = DeviceRegistry::default();
        reg.checkout();
        reg.absorb_counters(5, 6);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (1, 5, 6));
        // Never regresses the live counters.
        reg.absorb_counters(0, 0);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (1, 5, 6));
    }

    #[test]
    #[should_panic(expected = "none is resident")]
    fn release_without_checkout_panics() {
        let mut reg = DeviceRegistry::default();
        reg.checkout();
        reg.release();
        reg.release();
    }
}
