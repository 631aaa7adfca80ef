//! Active-device sampling: the straggler model of §IV-C3.

use fedzkt_tensor::{seeded_rng, split_seed};
use rand::RngExt;

/// Samples which devices participate in each round.
///
/// In every round a fraction `p` of the `k` devices is active (at least
/// one); the remaining devices are stragglers that neither train nor
/// receive updates that round — exactly the protocol of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParticipationSampler {
    fraction: f32,
    devices: usize,
    seed: u64,
}

impl ParticipationSampler {
    /// Create a sampler over `devices` devices with participation fraction
    /// `fraction` (clamped to `(0, 1]`).
    ///
    /// # Panics
    /// Panics when `devices == 0`, `devices > u32::MAX` or `fraction <= 0`.
    pub fn new(devices: usize, fraction: f32, seed: u64) -> Self {
        assert!(devices > 0, "need at least one device");
        assert!(u32::try_from(devices).is_ok(), "at most u32::MAX devices");
        assert!(fraction > 0.0, "participation fraction must be positive");
        ParticipationSampler { fraction: fraction.min(1.0), devices, seed }
    }

    /// Number of active devices per round.
    pub fn active_count(&self) -> usize {
        ((self.devices as f32 * self.fraction).round() as usize).clamp(1, self.devices)
    }

    /// The sorted set of active devices for `round` (deterministic in
    /// `(seed, round)`): the first [`ParticipationSampler::active_count`]
    /// devices of a seeded Fisher–Yates shuffle of `0..devices`.
    pub fn active(&self, round: usize) -> Vec<usize> {
        let m = self.active_count();
        if m == self.devices {
            return (0..self.devices).collect();
        }
        self.shuffled_prefix(round, self.devices, m)
    }

    /// The sorted active subset of `pool` for `round` — the churn-aware
    /// sampling path. The participation fraction applies to the pool
    /// (the round's *available* devices), so a thinned fleet still
    /// fields at least one participant while anyone is online, and an
    /// empty pool yields an empty round.
    ///
    /// The subset is the first `m` elements of a seeded Fisher–Yates
    /// shuffle of `pool`, sorted. It is found without shuffling: run from
    /// the end, the shuffle fixes position `i` at step `i`, so the *set*
    /// left in the first `m` slots is final after step `m` and the last
    /// `m − 1` draws only reorder it. The first `len − m` draws are taken
    /// from the round's stream in the shuffle's order, then replayed in
    /// reverse over a bitmap of the `m` tracked slots to find where each
    /// came from. The cost is one sequential pass of draws plus
    /// `len / 8` bytes of bitmap, and the answer depends only on the
    /// stream and the pool's order — so over the full pool this is
    /// bit-identical to [`ParticipationSampler::active`], and attaching
    /// a quiescent churn model to a scenario changes nothing.
    pub fn active_among(&self, round: usize, pool: &[usize]) -> Vec<usize> {
        if pool.is_empty() {
            return Vec::new();
        }
        let m = ((pool.len() as f32 * self.fraction).round() as usize).clamp(1, pool.len());
        if m == pool.len() {
            return pool.to_vec();
        }
        let mut active: Vec<usize> =
            self.shuffled_prefix(round, pool.len(), m).into_iter().map(|p| pool[p]).collect();
        active.sort_unstable();
        active
    }

    /// The positions, ascending, that a Fisher–Yates shuffle of `len`
    /// elements on `round`'s stream leaves in its first `m < len` slots.
    fn shuffled_prefix(&self, round: usize, len: usize, m: usize) -> Vec<usize> {
        assert!(u32::try_from(len).is_ok(), "at most u32::MAX positions");
        let mut rng = seeded_rng(split_seed(self.seed, round as u64));
        // The shuffle's steps `i = len−1 … m`, each swapping `i` with `j`.
        let draws: Vec<u32> =
            (m..len).rev().map(|i| rng.random_range(0..=i) as u32).collect();
        // Undo them last to first: a tracked element at `j` was at `i`
        // before step `i` (which never holds one, as later steps only
        // touch slots below `i`).
        let mut bits = vec![0u64; len.div_ceil(64)];
        bits[..m / 64].fill(!0);
        bits[m / 64] = (1 << (m % 64)) - 1; // in range, as m < len
        for (i, j) in (m..len).zip(draws.into_iter().rev()) {
            let j = j as usize;
            if bits[j / 64] >> (j % 64) & 1 == 1 {
                bits[j / 64] &= !(1 << (j % 64));
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        let mut positions = Vec::with_capacity(m);
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                positions.push(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;

    /// The sampler as first written: shuffle a copy of the whole pool and
    /// sort the first `m` — the answer the bitmap trace must reproduce.
    fn shuffle_oracle(s: &ParticipationSampler, round: usize, pool: &[usize]) -> Vec<usize> {
        if pool.is_empty() {
            return Vec::new();
        }
        let m = ((pool.len() as f32 * s.fraction).round() as usize).clamp(1, pool.len());
        if m == pool.len() {
            return pool.to_vec();
        }
        let mut rng = seeded_rng(split_seed(s.seed, round as u64));
        let mut ids = pool.to_vec();
        ids.shuffle(&mut rng);
        let mut active = ids[..m].to_vec();
        active.sort_unstable();
        active
    }

    /// `active` and `active_among` over contiguous, strided and unsorted
    /// pools of `len` equal the oracle on rounds `0..rounds`.
    fn assert_matches_oracle(len: usize, fraction: f32, rounds: usize) {
        let contiguous: Vec<usize> = (0..len).collect();
        let strided: Vec<usize> = (0..len).map(|k| 3 * k + 1).collect();
        // An even-spaced pool in a fixed scrambled order: 11 is coprime to
        // every `len` tested, so `11k + 5 mod len` permutes `0..len`.
        let unsorted: Vec<usize> = (0..len).map(|k| 2 * ((11 * k + 5) % len)).collect();
        let s = ParticipationSampler::new(3 * len + 1, fraction, len as u64 ^ 0x5eed);
        let whole = ParticipationSampler::new(len, fraction, 17);
        for round in 0..rounds {
            assert_eq!(whole.active(round), shuffle_oracle(&whole, round, &contiguous));
            for pool in [&contiguous, &strided, &unsorted] {
                assert_eq!(
                    s.active_among(round, pool),
                    shuffle_oracle(&s, round, pool),
                    "len {len}, fraction {fraction}, round {round}"
                );
            }
        }
    }

    #[test]
    fn trace_equals_the_shuffle_oracle() {
        for len in [1usize, 2, 3, 63, 64, 65, 1000, 4099] {
            for fraction in [0.001f32, 0.3, 0.5, 0.99, 1.0] {
                assert_matches_oracle(len, fraction, 20);
            }
        }
    }

    #[test]
    fn trace_equals_the_shuffle_oracle_at_one_and_all_but_one() {
        for len in [2usize, 3, 63, 64, 65, 1000, 4099] {
            // m = 1 and m = len − 1, by fractions that round to them.
            let one = 1.0 / len as f32;
            let all_but_one = (len as f32 - 1.0) / len as f32;
            for fraction in [one, all_but_one] {
                let m = ((len as f32 * fraction).round() as usize).clamp(1, len);
                assert!(m == 1 || m == len - 1, "len {len}: m = {m}");
                assert_matches_oracle(len, fraction, 20);
            }
        }
    }

    #[test]
    fn trace_equals_the_shuffle_oracle_on_a_fleet_sized_pool() {
        // The `mega-fleet` regime: ~750k of 10⁶ devices available. Two
        // rounds, as each costs eight 750k-draw passes in a debug build.
        for fraction in [0.001f32, 0.3, 0.5, 0.99, 1.0] {
            assert_matches_oracle(750_000, fraction, 2);
        }
    }

    #[test]
    fn full_participation_selects_everyone() {
        let s = ParticipationSampler::new(10, 1.0, 1);
        assert_eq!(s.active(3), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn fraction_controls_count() {
        for (p, expected) in [(0.2f32, 2usize), (0.4, 4), (0.6, 6), (0.8, 8)] {
            let s = ParticipationSampler::new(10, p, 2);
            assert_eq!(s.active_count(), expected);
            assert_eq!(s.active(0).len(), expected);
        }
    }

    #[test]
    fn at_least_one_device() {
        let s = ParticipationSampler::new(3, 0.01, 3);
        assert_eq!(s.active_count(), 1);
    }

    #[test]
    fn deterministic_and_round_varying() {
        let s = ParticipationSampler::new(10, 0.4, 4);
        assert_eq!(s.active(5), s.active(5));
        let all_same = (0..10).all(|r| s.active(r) == s.active(0));
        assert!(!all_same, "different rounds should differ");
    }

    #[test]
    fn active_among_full_pool_matches_active_bit_for_bit() {
        for fraction in [0.1f32, 0.4, 0.7, 1.0] {
            let s = ParticipationSampler::new(23, fraction, 9);
            let all: Vec<usize> = (0..23).collect();
            for round in 0..10 {
                assert_eq!(s.active_among(round, &all), s.active(round), "fraction {fraction}");
            }
        }
    }

    #[test]
    fn active_among_respects_the_pool() {
        let s = ParticipationSampler::new(100, 0.5, 7);
        let pool: Vec<usize> = (0..100).filter(|k| k % 3 == 0).collect();
        let active = s.active_among(2, &pool);
        assert_eq!(active.len(), (pool.len() as f32 * 0.5).round() as usize);
        assert!(active.iter().all(|k| pool.contains(k)));
        assert!(active.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
        // An empty pool is an empty round, never a panic.
        assert!(s.active_among(2, &[]).is_empty());
        // A one-device pool always fields that device.
        assert_eq!(s.active_among(2, &[42]), vec![42]);
    }

    #[test]
    fn ids_in_range_and_unique() {
        let s = ParticipationSampler::new(7, 0.5, 5);
        for round in 0..20 {
            let a = s.active(round);
            assert!(a.iter().all(|&d| d < 7));
            let mut dedup = a.clone();
            dedup.dedup();
            assert_eq!(dedup, a);
        }
    }
}
