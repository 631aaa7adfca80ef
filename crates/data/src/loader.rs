//! Shuffled mini-batch iteration.

use fedzkt_tensor::{seeded_rng, Prng};
use rand::seq::SliceRandom;

/// An iterator over shuffled mini-batches of sample indices.
///
/// Reshuffles at construction; call [`BatchIter::new`] once per epoch.
#[derive(Debug, Clone)]
pub struct BatchIter {
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl BatchIter {
    /// Shuffle `n` sample indices into batches of `batch_size` (final
    /// partial batch included).
    ///
    /// # Panics
    /// Panics when `batch_size == 0`.
    pub fn new(n: usize, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let mut rng: Prng = seeded_rng(seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        BatchIter { order, batch_size, cursor: 0 }
    }
}

impl Iterator for BatchIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let batch = self.order[self.cursor..end].to_vec();
        self.cursor = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_indices_once() {
        let batches: Vec<Vec<usize>> = BatchIter::new(10, 3, 1).collect();
        assert_eq!(batches.len(), 4);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<Vec<usize>> = BatchIter::new(20, 4, 9).collect();
        let b: Vec<Vec<usize>> = BatchIter::new(20, 4, 9).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_dataset_yields_no_batches() {
        assert_eq!(BatchIter::new(0, 4, 1).count(), 0);
    }
}
