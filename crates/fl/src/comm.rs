//! Communication accounting: the round's private ledger.
//!
//! A central claim of FedZKT is that devices only ever exchange *their own
//! on-device model parameters* — never the (large) global model or the
//! generator. The ledger lets experiments assert that per-round traffic
//! for device `k` is `O(|w_k|)`. Only [`RoundContext`]'s wire calls
//! (`upload`, `download`, `broadcast`) write to it, each at the payload's
//! encoded size, so no payload can cross without being charged.
//!
//! [`RoundContext`]: crate::RoundContext
//!
//! The ledger is O(devices that moved bytes), not O(registered): a round
//! on a million-device fleet that samples a thousand builds, totals and
//! reads a thousand entries.

use std::collections::BTreeMap;

/// Accumulates uplink/downlink bytes per device for one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommTracker {
    devices: usize,
    /// Bytes of every device that recorded an upload, by device id.
    up: BTreeMap<usize, u64>,
    /// Bytes of every device that recorded a download, by device id.
    down: BTreeMap<usize, u64>,
}

impl CommTracker {
    /// Create a tracker for `devices` devices.
    pub fn new(devices: usize) -> Self {
        CommTracker { devices, up: BTreeMap::new(), down: BTreeMap::new() }
    }

    fn check(&self, device: usize) {
        assert!(device < self.devices, "device {device} out of range (fleet: {})", self.devices);
    }

    /// Record an upload (device → server).
    ///
    /// # Panics
    /// Panics when `device` is out of range.
    pub fn record_upload(&mut self, device: usize, bytes: usize) {
        self.check(device);
        *self.up.entry(device).or_insert(0) += bytes as u64;
    }

    /// Record a download (server → device).
    ///
    /// # Panics
    /// Panics when `device` is out of range.
    pub fn record_download(&mut self, device: usize, bytes: usize) {
        self.check(device);
        *self.down.entry(device).or_insert(0) += bytes as u64;
    }

    /// Uplink bytes of one device.
    ///
    /// # Panics
    /// Panics when `device` is out of range.
    pub fn upload_bytes(&self, device: usize) -> u64 {
        self.check(device);
        self.up.get(&device).copied().unwrap_or(0)
    }

    /// Downlink bytes of one device.
    ///
    /// # Panics
    /// Panics when `device` is out of range.
    pub fn download_bytes(&self, device: usize) -> u64 {
        self.check(device);
        self.down.get(&device).copied().unwrap_or(0)
    }

    /// Total uplink bytes across devices.
    pub fn total_upload(&self) -> u64 {
        self.up.values().sum()
    }

    /// Total downlink bytes across devices.
    pub fn total_download(&self) -> u64 {
        self.down.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accumulates_per_device() {
        let mut t = CommTracker::new(3);
        t.record_upload(0, 100);
        t.record_upload(0, 50);
        t.record_download(2, 10);
        assert_eq!(t.upload_bytes(0), 150);
        assert_eq!(t.download_bytes(2), 10);
        assert_eq!(t.upload_bytes(1), 0);
        assert_eq!(t.total_upload(), 150);
        assert_eq!(t.total_download(), 10);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_device() {
        let mut t = CommTracker::new(1);
        t.record_upload(1, 1);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_read() {
        let t = CommTracker::new(2);
        t.download_bytes(2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Per-device reads and both totals equal a dense reference — one
        /// counter per registered device — over any record sequence,
        /// repeated devices and zero-byte records included.
        #[test]
        fn ledger_matches_a_dense_reference(
            devices in 1usize..40,
            records in proptest::collection::vec((0usize..40, 0usize..3, 0u8..2), 0..64),
        ) {
            let mut t = CommTracker::new(devices);
            let (mut up, mut down) = (vec![0u64; devices], vec![0u64; devices]);
            for (k, bytes, direction) in records {
                let (k, bytes) = (k % devices, bytes * 1000);
                if direction == 0 {
                    t.record_upload(k, bytes);
                    up[k] += bytes as u64;
                } else {
                    t.record_download(k, bytes);
                    down[k] += bytes as u64;
                }
            }
            for k in 0..devices {
                prop_assert_eq!(t.upload_bytes(k), up[k]);
                prop_assert_eq!(t.download_bytes(k), down[k]);
            }
            prop_assert_eq!(t.total_upload(), up.iter().sum::<u64>());
            prop_assert_eq!(t.total_download(), down.iter().sum::<u64>());
        }
    }
}
