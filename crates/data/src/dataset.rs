//! The labelled image [`Dataset`] container.

use fedzkt_tensor::Tensor;
use std::fmt;

/// Error from constructing a [`Dataset`] out of inconsistent pieces — the
/// typed counterpart of the panicking constructors, for callers (such as
/// scenario validation) that want to report the problem instead of
/// aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// The image tensor is not `[N, C, H, W]`.
    NotImageBatch {
        /// Dimensionality received.
        ndim: usize,
    },
    /// Image batch size and label count disagree.
    BatchLabelsMismatch {
        /// Images in the batch.
        images: usize,
        /// Labels supplied.
        labels: usize,
    },
    /// A label is `>= num_classes`.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// The declared class count.
        num_classes: usize,
    },
    /// Concatenation of zero datasets.
    EmptyConcat,
    /// Concatenated parts disagree on class count or image geometry.
    IncompatibleParts(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::NotImageBatch { ndim } => {
                write!(f, "images must be [N, C, H, W], got {ndim} dimensions")
            }
            DataError::BatchLabelsMismatch { images, labels } => {
                write!(f, "batch/labels mismatch: {images} images, {labels} labels")
            }
            DataError::LabelOutOfRange { label, num_classes } => {
                write!(f, "label out of range: {label} >= {num_classes}")
            }
            DataError::EmptyConcat => write!(f, "concat of zero datasets"),
            DataError::IncompatibleParts(msg) => write!(f, "incompatible parts: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

/// An in-memory labelled image dataset (NCHW images in `[-1, 1]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Build a dataset from an image batch and labels.
    ///
    /// # Panics
    /// Panics when `images` is not 4-D, the batch size differs from
    /// `labels.len()`, or a label is `>= num_classes`. Use
    /// [`Dataset::try_new`] to receive these as typed errors instead.
    pub fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Self {
        Self::try_new(images, labels, num_classes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Dataset::new`].
    ///
    /// # Errors
    /// Returns a [`DataError`] describing the first inconsistency found.
    pub fn try_new(
        images: Tensor,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self, DataError> {
        if images.ndim() != 4 {
            return Err(DataError::NotImageBatch { ndim: images.ndim() });
        }
        if images.shape()[0] != labels.len() {
            return Err(DataError::BatchLabelsMismatch {
                images: images.shape()[0],
                labels: labels.len(),
            });
        }
        if let Some(&label) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DataError::LabelOutOfRange { label, num_classes });
        }
        Ok(Dataset { images, labels, num_classes })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Image channel count.
    pub fn channels(&self) -> usize {
        self.images.shape()[1]
    }

    /// Image side length (images are square).
    pub fn img_size(&self) -> usize {
        self.images.shape()[2]
    }

    /// All images as one `[N, C, H, W]` tensor.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Gather a mini-batch by sample indices.
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let images = self.images.gather_first(indices).expect("batch indices in range");
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        (images, labels)
    }

    /// A new dataset containing only the given samples (device shard).
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let (images, labels) = self.batch(indices);
        Dataset { images, labels, num_classes: self.num_classes }
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Concatenate several datasets (e.g. the centralized "upper bound"
    /// union of all device shards in Table III).
    ///
    /// # Panics
    /// Panics when the list is empty or geometries/class counts disagree.
    /// Use [`Dataset::try_concat`] to receive these as typed errors.
    pub fn concat(parts: &[&Dataset]) -> Dataset {
        Self::try_concat(parts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Dataset::concat`].
    ///
    /// # Errors
    /// Returns a [`DataError`] when the list is empty or the parts disagree
    /// on class count or image geometry.
    pub fn try_concat(parts: &[&Dataset]) -> Result<Dataset, DataError> {
        if parts.is_empty() {
            return Err(DataError::EmptyConcat);
        }
        let num_classes = parts[0].num_classes;
        if let Some(p) = parts.iter().find(|p| p.num_classes != num_classes) {
            return Err(DataError::IncompatibleParts(format!(
                "class count mismatch: {} vs {num_classes}",
                p.num_classes
            )));
        }
        let images: Vec<&Tensor> = parts.iter().map(|p| &p.images).collect();
        let images = Tensor::concat_first(&images)
            .map_err(|e| DataError::IncompatibleParts(format!("image geometry mismatch: {e}")))?;
        let labels = parts.iter().flat_map(|p| p.labels.iter().copied()).collect();
        Ok(Dataset { images, labels, num_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let images = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[4, 1, 2, 2]).unwrap();
        Dataset::new(images, vec![0, 1, 0, 1], 2)
    }

    #[test]
    fn accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.channels(), 1);
        assert_eq!(d.img_size(), 2);
        assert_eq!(d.class_counts(), vec![2, 2]);
    }

    #[test]
    fn batch_gathers_rows() {
        let d = toy();
        let (x, y) = d.batch(&[2, 0]);
        assert_eq!(x.shape(), &[2, 1, 2, 2]);
        assert_eq!(y, vec![0, 0]);
        assert_eq!(x.data()[0], 8.0);
    }

    #[test]
    fn subset_and_concat_roundtrip() {
        let d = toy();
        let a = d.subset(&[0, 1]);
        let b = d.subset(&[2, 3]);
        let back = Dataset::concat(&[&a, &b]);
        assert_eq!(back, d);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let images = Tensor::zeros(&[1, 1, 2, 2]);
        let _ = Dataset::new(images, vec![5], 2);
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        let images = Tensor::zeros(&[2, 1, 2, 2]);
        assert_eq!(
            Dataset::try_new(Tensor::zeros(&[4]), vec![0], 2),
            Err(DataError::NotImageBatch { ndim: 1 })
        );
        assert_eq!(
            Dataset::try_new(images.clone(), vec![0], 2),
            Err(DataError::BatchLabelsMismatch { images: 2, labels: 1 })
        );
        assert_eq!(
            Dataset::try_new(images.clone(), vec![0, 7], 2),
            Err(DataError::LabelOutOfRange { label: 7, num_classes: 2 })
        );
        assert!(Dataset::try_new(images, vec![0, 1], 2).is_ok());
        assert_eq!(Dataset::try_concat(&[]), Err(DataError::EmptyConcat));
        let a = toy();
        let b = Dataset::new(Tensor::zeros(&[1, 1, 2, 2]), vec![0], 3);
        assert!(matches!(
            Dataset::try_concat(&[&a, &b]),
            Err(DataError::IncompatibleParts(_))
        ));
        let wide = Dataset::new(Tensor::zeros(&[1, 1, 4, 4]), vec![0], 2);
        assert!(matches!(
            Dataset::try_concat(&[&a, &wide]),
            Err(DataError::IncompatibleParts(_))
        ));
    }

    #[test]
    fn empty_subset() {
        let d = toy();
        let e = d.subset(&[]);
        assert!(e.is_empty());
    }
}
