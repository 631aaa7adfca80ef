//! Federated data partitioners (§IV-A4 of the paper).

use fedzkt_tensor::{seeded_rng, Prng};
use rand::seq::SliceRandom;
use rand::RngExt;
use std::collections::BinaryHeap;
use std::fmt;

/// Error from an impossible partition request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// Zero devices requested.
    NoDevices,
    /// The skew parameters are out of range (e.g. more classes per device
    /// than exist, or β ≤ 0).
    InvalidParameter(String),
    /// Not enough samples to give every device at least one.
    NotEnoughSamples {
        /// Samples available.
        samples: usize,
        /// Devices requested.
        devices: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoDevices => write!(f, "device count must be positive"),
            PartitionError::InvalidParameter(msg) => write!(f, "invalid partition parameter: {msg}"),
            PartitionError::NotEnoughSamples { samples, devices } => {
                write!(f, "cannot give {devices} devices at least one of {samples} samples")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// How to split a dataset across federated devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Partition {
    /// Uniformly random assignment (the paper's IID setting).
    Iid,
    /// Quantity-based label imbalance: each device holds data from exactly
    /// `classes_per_device` classes (paper: c ∈ {2, 3, 4, 5}).
    QuantitySkew {
        /// Number of classes each device owns.
        classes_per_device: usize,
    },
    /// Distribution-based label imbalance: per-class device proportions
    /// drawn from `Dir(beta)` (paper: β ∈ {0.1, 0.5, 1, 5}).
    Dirichlet {
        /// Concentration parameter; smaller is more skewed.
        beta: f32,
    },
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Partition::Iid => write!(f, "IID"),
            Partition::QuantitySkew { classes_per_device } => {
                write!(f, "quantity-skew(c={classes_per_device})")
            }
            Partition::Dirichlet { beta } => write!(f, "dirichlet(beta={beta})"),
        }
    }
}

impl Partition {
    /// Split sample indices across `k` devices.
    ///
    /// Returns one index list per device; the lists are disjoint and cover
    /// every sample except (for the skewed schemes) samples of classes a
    /// device set cannot legally hold. Every device receives at least one
    /// sample.
    ///
    /// # Errors
    /// Returns a [`PartitionError`] for impossible requests (zero devices,
    /// `c` larger than the class count, β ≤ 0, fewer samples than devices).
    pub fn split(
        &self,
        labels: &[usize],
        num_classes: usize,
        k: usize,
        seed: u64,
    ) -> Result<Vec<Vec<usize>>, PartitionError> {
        if k == 0 {
            return Err(PartitionError::NoDevices);
        }
        if labels.len() < k {
            return Err(PartitionError::NotEnoughSamples { samples: labels.len(), devices: k });
        }
        let mut rng = seeded_rng(seed);
        let mut shards = match self {
            Partition::Iid => iid_split(labels.len(), k, &mut rng),
            Partition::QuantitySkew { classes_per_device } => {
                if *classes_per_device == 0 || *classes_per_device > num_classes {
                    return Err(PartitionError::InvalidParameter(format!(
                        "classes_per_device {classes_per_device} outside 1..={num_classes}"
                    )));
                }
                quantity_skew_split(labels, num_classes, k, *classes_per_device, &mut rng)
            }
            Partition::Dirichlet { beta } => {
                if !beta.is_finite() || *beta <= 0.0 {
                    return Err(PartitionError::InvalidParameter(format!("beta {beta} must be > 0")));
                }
                dirichlet_split(labels, num_classes, k, *beta, &mut rng)
            }
        };
        if !rebalance_empty(&mut shards) {
            // The skewed schemes can drop samples of unowned classes; when
            // too few remain to cover every device, say so instead of
            // handing the simulation an empty shard (which would only fail
            // later, deep inside local training).
            let assigned: usize = shards.iter().map(Vec::len).sum();
            return Err(PartitionError::NotEnoughSamples { samples: assigned, devices: k });
        }
        Ok(shards)
    }
}

fn iid_split(n: usize, k: usize, rng: &mut Prng) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    // Device `d` deals every `k`-th sample from `d`, each shard collected
    // at its exact size.
    (0..k).map(|d| idx[d..].iter().step_by(k).copied().collect()).collect()
}

/// Each device draws `c` classes; samples of each class are divided evenly
/// among the devices holding that class (the standard implementation from
/// the non-IID benchmark literature the paper cites [45]).
fn quantity_skew_split(
    labels: &[usize],
    num_classes: usize,
    k: usize,
    c: usize,
    rng: &mut Prng,
) -> Vec<Vec<usize>> {
    // Assign class sets: round-robin over classes guarantees coverage.
    let mut device_classes: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut class_order: Vec<usize> = (0..num_classes).collect();
    class_order.shuffle(rng);
    let mut cursor = 0usize;
    for classes in device_classes.iter_mut() {
        for _ in 0..c {
            classes.push(class_order[cursor % num_classes]);
            cursor += 1;
        }
    }
    // Holders per class.
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (dev, classes) in device_classes.iter().enumerate() {
        for &cl in classes {
            holders[cl].push(dev);
        }
    }
    // Spread each class's samples round-robin over its holders.
    let mut shards = vec![Vec::new(); k];
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &l) in labels.iter().enumerate() {
        by_class[l].push(i);
    }
    for (cl, samples) in by_class.into_iter().enumerate() {
        let hs = &holders[cl];
        if hs.is_empty() {
            continue; // class unowned: dropped, like the reference impls
        }
        for (j, s) in samples.into_iter().enumerate() {
            shards[hs[j % hs.len()]].push(s);
        }
    }
    shards
}

/// Sample one Gamma(alpha, 1) variate (Marsaglia–Tsang, with the alpha < 1
/// boost), used to build Dirichlet draws.
fn gamma_sample(alpha: f32, rng: &mut Prng) -> f32 {
    if alpha < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
        let u: f32 = rng.random::<f32>().max(1e-7);
        return gamma_sample(alpha + 1.0, rng) * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = fedzkt_tensor::standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f32 = rng.random::<f32>().max(1e-7);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// For each class, draw device proportions from Dir(beta) and deal the
/// class's samples accordingly.
fn dirichlet_split(
    labels: &[usize],
    num_classes: usize,
    k: usize,
    beta: f32,
    rng: &mut Prng,
) -> Vec<Vec<usize>> {
    let mut shards = vec![Vec::new(); k];
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &l) in labels.iter().enumerate() {
        by_class[l].push(i);
    }
    for samples in by_class.into_iter() {
        if samples.is_empty() {
            continue;
        }
        let mut props: Vec<f32> = (0..k).map(|_| gamma_sample(beta, rng)).collect();
        let total: f32 = props.iter().sum::<f32>().max(1e-9);
        for p in &mut props {
            *p /= total;
        }
        // Convert proportions to cumulative sample boundaries.
        let n = samples.len();
        let mut boundaries = Vec::with_capacity(k);
        let mut acc = 0.0f32;
        for p in &props {
            acc += p;
            boundaries.push(((acc * n as f32).round() as usize).min(n));
        }
        let mut start = 0usize;
        for (dev, &end) in boundaries.iter().enumerate() {
            for &s in &samples[start..end.max(start)] {
                shards[dev].push(s);
            }
            start = end.max(start);
        }
    }
    shards
}

/// Guarantee non-empty shards by donating from the largest shard — the
/// simulation requires every device to hold at least one sample. Returns
/// `false` when the assigned samples cannot cover every shard (the caller
/// reports that as a [`PartitionError`] rather than returning an empty
/// device).
///
/// Empty shards are filled in ascending order, each from the longest shard
/// at that moment (the last of equals). A filled shard never empties again
/// and a donor keeps at least one sample, so the empties are known up
/// front and the donors come from a max-heap of `(len, index)` holding
/// the shards that can spare a sample.
fn rebalance_empty(shards: &mut [Vec<usize>]) -> bool {
    let empties: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_empty()).collect();
    if empties.is_empty() {
        return true; // the usual case: no heap over every shard
    }
    let mut donors: BinaryHeap<(usize, usize)> =
        shards.iter().enumerate().filter(|(_, s)| s.len() > 1).map(|(i, s)| (s.len(), i)).collect();
    for empty in empties {
        let Some((len, donor)) = donors.pop() else {
            return false; // nothing left to donate: a shard stays empty
        };
        let moved = shards[donor].pop().expect("donor has samples");
        shards[empty].push(moved);
        if len > 2 {
            donors.push((len - 1, donor));
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize, classes: usize) -> Vec<usize> {
        (0..n).map(|i| i % classes).collect()
    }

    fn assert_disjoint_cover(shards: &[Vec<usize>], n: usize, complete: bool) {
        let mut seen = vec![false; n];
        for shard in shards {
            for &i in shard {
                assert!(!seen[i], "sample {i} assigned twice");
                seen[i] = true;
            }
        }
        if complete {
            assert!(seen.iter().all(|&s| s), "not all samples assigned");
        }
    }

    #[test]
    fn iid_covers_all_disjointly() {
        let l = labels(100, 10);
        let shards = Partition::Iid.split(&l, 10, 7, 1).unwrap();
        assert_eq!(shards.len(), 7);
        assert_disjoint_cover(&shards, 100, true);
        // Roughly equal sizes.
        assert!(shards.iter().all(|s| (14..=15).contains(&s.len())));
    }

    #[test]
    fn quantity_skew_limits_classes() {
        let l = labels(200, 10);
        for c in [2usize, 3, 5] {
            let shards = Partition::QuantitySkew { classes_per_device: c }
                .split(&l, 10, 10, 3)
                .unwrap();
            assert_disjoint_cover(&shards, 200, false);
            for shard in &shards {
                let mut classes: Vec<usize> = shard.iter().map(|&i| l[i]).collect();
                classes.sort_unstable();
                classes.dedup();
                assert!(classes.len() <= c + 1, "c={c}, got {} classes", classes.len());
            }
        }
    }

    #[test]
    fn dirichlet_small_beta_is_skewed_large_beta_is_flat() {
        let l = labels(1000, 10);
        let spread = |beta: f32| -> f32 {
            let shards = Partition::Dirichlet { beta }.split(&l, 10, 10, 11).unwrap();
            // Mean within-device class-distribution entropy.
            let mut total_entropy = 0.0f32;
            for shard in &shards {
                let mut counts = [0f32; 10];
                for &i in shard {
                    counts[l[i]] += 1.0;
                }
                let n: f32 = counts.iter().sum();
                if n == 0.0 {
                    continue;
                }
                let h: f32 = counts
                    .iter()
                    .filter(|&&c| c > 0.0)
                    .map(|&c| {
                        let p = c / n;
                        -p * p.ln()
                    })
                    .sum();
                total_entropy += h;
            }
            total_entropy / shards.len() as f32
        };
        assert!(spread(0.1) < spread(5.0), "low beta should be more skewed");
    }

    #[test]
    fn dirichlet_covers_disjointly() {
        let l = labels(500, 10);
        let shards = Partition::Dirichlet { beta: 0.5 }.split(&l, 10, 8, 5).unwrap();
        assert_disjoint_cover(&shards, 500, true);
        assert!(shards.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn every_device_gets_a_sample() {
        let l = labels(64, 10);
        for p in [
            Partition::Iid,
            Partition::QuantitySkew { classes_per_device: 2 },
            Partition::Dirichlet { beta: 0.1 },
        ] {
            let shards = p.split(&l, 10, 16, 9).unwrap();
            assert!(shards.iter().all(|s| !s.is_empty()), "{p} left a device empty");
        }
    }

    #[test]
    fn rejects_invalid_requests() {
        let l = labels(10, 10);
        assert!(matches!(Partition::Iid.split(&l, 10, 0, 1), Err(PartitionError::NoDevices)));
        assert!(Partition::QuantitySkew { classes_per_device: 11 }.split(&l, 10, 2, 1).is_err());
        assert!(Partition::QuantitySkew { classes_per_device: 0 }.split(&l, 10, 2, 1).is_err());
        assert!(Partition::Dirichlet { beta: 0.0 }.split(&l, 10, 2, 1).is_err());
        assert!(Partition::Dirichlet { beta: -1.0 }.split(&l, 10, 2, 1).is_err());
        assert!(matches!(
            Partition::Iid.split(&labels(3, 3), 3, 5, 1),
            Err(PartitionError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn quantity_skew_never_returns_an_empty_shard() {
        // Degenerate corpus: every sample belongs to one class, but devices
        // draw their class sets from all ten. Depending on the seed, the
        // populated class is owned by some device (fine — rebalancing
        // spreads it) or by nobody (every sample is dropped). The latter
        // used to return shards full of empty devices; it must be a typed
        // error instead.
        let l = vec![0usize; 12];
        let mut saw_error = false;
        for seed in 0..64u64 {
            let p = Partition::QuantitySkew { classes_per_device: 1 };
            match p.split(&l, 10, 3, seed) {
                Ok(shards) => {
                    assert!(shards.iter().all(|s| !s.is_empty()), "seed {seed} left a device empty");
                }
                Err(PartitionError::NotEnoughSamples { samples, devices }) => {
                    saw_error = true;
                    assert!(samples < devices, "seed {seed}: {samples} >= {devices}");
                }
                Err(other) => panic!("seed {seed}: unexpected error {other}"),
            }
        }
        assert!(saw_error, "no seed exercised the dropped-corpus path");
    }

    /// The rebalance as first written: rescan for the first empty shard
    /// and the last longest one on every move.
    fn rebalance_oracle(shards: &mut [Vec<usize>]) -> bool {
        loop {
            let Some(empty) = shards.iter().position(Vec::is_empty) else { return true };
            let donor = shards
                .iter()
                .enumerate()
                .max_by_key(|(_, s)| s.len())
                .map(|(i, _)| i)
                .expect("non-empty shard set");
            if shards[donor].len() <= 1 {
                return false;
            }
            let moved = shards[donor].pop().expect("donor has samples");
            shards[empty].push(moved);
        }
    }

    #[test]
    fn rebalance_matches_the_rescanning_oracle() {
        let mut rng = seeded_rng(29);
        let mut failures = 0;
        for case in 0..400 {
            let k = rng.random_range(1..=60usize);
            // Mostly empty shards, with ties among the long ones, and a
            // sample budget that sometimes cannot cover every shard.
            let empty_share = rng.random::<f32>();
            let mut next = 0usize;
            let shards: Vec<Vec<usize>> = (0..k)
                .map(|_| {
                    let len = if rng.random::<f32>() < empty_share {
                        0
                    } else {
                        rng.random_range(1..=6usize)
                    };
                    next += len;
                    (next - len..next).collect()
                })
                .collect();
            let (mut fast, mut slow) = (shards.clone(), shards);
            let ok = rebalance_empty(&mut fast);
            assert_eq!(ok, rebalance_oracle(&mut slow), "case {case}");
            assert_eq!(fast, slow, "case {case}");
            failures += usize::from(!ok);
        }
        assert!(failures > 0 && failures < 400, "both outcomes exercised: {failures} failures");
    }

    #[test]
    fn deterministic_per_seed() {
        let l = labels(100, 10);
        let a = Partition::Dirichlet { beta: 0.5 }.split(&l, 10, 5, 42).unwrap();
        let b = Partition::Dirichlet { beta: 0.5 }.split(&l, 10, 5, 42).unwrap();
        assert_eq!(a, b);
        let c = Partition::Dirichlet { beta: 0.5 }.split(&l, 10, 5, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn single_device_gets_everything_iid() {
        let l = labels(50, 5);
        let shards = Partition::Iid.split(&l, 5, 1, 2).unwrap();
        assert_eq!(shards[0].len(), 50);
    }

    #[test]
    fn gamma_sampler_has_correct_mean() {
        let mut rng = seeded_rng(13);
        for alpha in [0.3f32, 1.0, 2.5] {
            let n = 4000;
            let mean: f32 =
                (0..n).map(|_| gamma_sample(alpha, &mut rng)).sum::<f32>() / n as f32;
            assert!((mean - alpha).abs() < 0.15 * alpha.max(1.0), "alpha {alpha}: mean {mean}");
        }
    }
}
