//! Active-device sampling: the straggler model of §IV-C3.
//!
//! Each round's participants are a uniform subset of the fleet (or of the
//! round's available pool under churn), drawn by Floyd's algorithm from a
//! stream seeded by `(seed, round)`: as many draws as devices sampled, so
//! a round that samples 10³ of 10⁶ devices costs O(10³), not O(10⁶).

use fedzkt_tensor::{seeded_rng, split_seed};
use rand::RngExt;
use std::collections::HashSet;

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
    /// `(seed, round)`): a [`ParticipationSampler::active_count`]-subset
    /// of `0..devices`, every such subset equally likely. At full
    /// participation it is everyone, with no draw taken.
    pub fn active(&self, round: usize) -> Vec<usize> {
        let m = self.active_count();
        if m == self.devices {
            return (0..self.devices).collect();
        }
        self.sample_positions(round, self.devices, m)
    }

    /// The sorted active subset of `pool` for `round` — the churn-aware
    /// sampling path. The participation fraction applies to the pool
    /// (the round's *available* devices), so a thinned fleet still
    /// fields at least one participant while anyone is online, and an
    /// empty pool yields an empty round. When the fraction covers the
    /// whole pool, the pool comes back as given, with no draw taken.
    ///
    /// The subset is drawn over pool *positions* with the draws
    /// [`ParticipationSampler::active`] takes over device ids, so over
    /// the full pool `0..devices` the two agree exactly, and attaching a
    /// quiescent churn model to a scenario changes nothing. Time and
    /// memory follow the sample, not the pool.
    pub fn active_among(&self, round: usize, pool: &[usize]) -> Vec<usize> {
        if pool.is_empty() {
            return Vec::new();
        }
        let m = ((pool.len() as f32 * self.fraction).round() as usize).clamp(1, pool.len());
        if m == pool.len() {
            return pool.to_vec();
        }
        let mut active: Vec<usize> =
            self.sample_positions(round, pool.len(), m).into_iter().map(|p| pool[p]).collect();
        active.sort_unstable();
        active
    }

    /// `m < len` positions of `0..len`, ascending, drawn on `round`'s
    /// stream by Floyd's algorithm: for `j` in `len − m..len` draw `t`
    /// in `0..=j` and keep `t`, or `j` when `t` is already kept (`j`
    /// never is: everything kept so far is below it). By induction on
    /// `j`, every `m`-subset comes out with probability 1 / C(len, m),
    /// after exactly `m` draws into an `m`-entry set and one sort.
    fn sample_positions(&self, round: usize, len: usize, m: usize) -> Vec<usize> {
        let mut rng = seeded_rng(split_seed(self.seed, round as u64));
        let mut kept = HashSet::with_capacity(m);
        for j in len - m..len {
            if !kept.insert(rng.random_range(0..=j)) {
                kept.insert(j);
            }
        }
        let mut positions: Vec<usize> = kept.into_iter().collect();
        positions.sort_unstable();
        positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// `s.active_among(round, pool)` is a sorted, duplicate-free subset of
    /// `pool` (whose ascending copy is `sorted`) of the size the fraction
    /// asks for, or the pool as given when that size is all of it.
    fn assert_valid_sample(
        s: &ParticipationSampler,
        round: usize,
        pool: &[usize],
        sorted: &[usize],
    ) {
        let m = ((pool.len() as f32 * s.fraction).round() as usize).clamp(1, pool.len());
        let active = s.active_among(round, pool);
        if m == pool.len() {
            assert_eq!(active, pool);
            return;
        }
        assert_eq!(active.len(), m, "pool of {}, round {round}", pool.len());
        assert!(active.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
        assert!(active.iter().all(|d| sorted.binary_search(d).is_ok()), "in the pool");
    }

    /// `active` and `active_among` over contiguous, strided and unsorted
    /// pools of `len` return valid samples on rounds `0..rounds`, and the
    /// contiguous pool's sample is `active`'s.
    fn assert_samples_are_valid(len: usize, fraction: f32, rounds: usize) {
        let contiguous: Vec<usize> = (0..len).collect();
        let strided: Vec<usize> = (0..len).map(|k| 3 * k + 1).collect();
        // An even-spaced pool in a fixed scrambled order: 11 is coprime to
        // every `len` tested, so `11k + 5 mod len` permutes `0..len`.
        let unsorted: Vec<usize> = (0..len).map(|k| 2 * ((11 * k + 5) % len)).collect();
        let mut sorted = unsorted.clone();
        sorted.sort_unstable();
        let s = ParticipationSampler::new(3 * len + 1, fraction, len as u64 ^ 0x5eed);
        let whole = ParticipationSampler::new(len, fraction, 17);
        for round in 0..rounds {
            assert_valid_sample(&whole, round, &contiguous, &contiguous);
            assert_eq!(whole.active_among(round, &contiguous), whole.active(round));
            let pools = [(&contiguous, &contiguous), (&strided, &strided), (&unsorted, &sorted)];
            for (pool, sorted) in pools {
                assert_valid_sample(&s, round, pool, sorted);
            }
        }
    }

    /// Pearson's χ² of how often `active` picks each subset over
    /// `rounds` rounds, against the uniform law over all `subsets` of
    /// them; fails if a subset never shows up.
    fn subset_chi_square(s: &ParticipationSampler, subsets: usize, rounds: usize) -> f64 {
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for round in 0..rounds {
            *counts.entry(s.active(round)).or_default() += 1;
        }
        assert_eq!(counts.len(), subsets, "every subset is drawn");
        let expected = rounds as f64 / subsets as f64;
        counts.values().map(|&c| (c as f64 - expected).powi(2) / expected).sum()
    }

    #[test]
    fn samples_are_sorted_unique_subsets_of_the_pool() {
        for len in [1usize, 2, 3, 63, 64, 65, 1000, 4099] {
            for fraction in [0.001f32, 0.3, 0.5, 0.99, 1.0] {
                assert_samples_are_valid(len, fraction, 20);
            }
        }
    }

    #[test]
    fn every_three_of_six_subset_is_equally_likely() {
        // C(6, 3) = 20 subsets, 19 degrees of freedom: χ² stays below
        // 43.82 with probability 0.999 under the uniform law. The stream
        // is seeded, so the statistic is a fixed number, not a flake.
        let s = ParticipationSampler::new(6, 0.5, 0xF10D);
        let chi2 = subset_chi_square(&s, 20, 24_000);
        assert!(chi2 < 43.82, "χ² = {chi2:.1} over 20 subsets");
    }

    #[test]
    fn one_and_all_but_one_are_valid_and_uniform() {
        for len in [2usize, 3, 63, 64, 65, 1000, 4099] {
            // m = 1 and m = len − 1, by fractions that round to them.
            let one = 1.0 / len as f32;
            let all_but_one = (len as f32 - 1.0) / len as f32;
            for fraction in [one, all_but_one] {
                let m = ((len as f32 * fraction).round() as usize).clamp(1, len);
                assert!(m == 1 || m == len - 1, "len {len}: m = {m}");
                assert_samples_are_valid(len, fraction, 20);
            }
        }
        // Over 7 devices both extremes have 7 outcomes, 6 degrees of
        // freedom: χ² < 22.46 with probability 0.999.
        for fraction in [1.0 / 7.0, 6.0 / 7.0] {
            let chi2 = subset_chi_square(&ParticipationSampler::new(7, fraction, 3), 7, 14_000);
            assert!(chi2 < 22.46, "fraction {fraction}: χ² = {chi2:.1} over 7 subsets");
        }
    }

    #[test]
    fn a_fleet_sized_pool_is_sampled_validly() {
        // The `mega-fleet` regime: ~750k of 10⁶ devices available.
        for fraction in [0.001f32, 0.5, 1.0] {
            assert_samples_are_valid(750_000, fraction, 2);
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
