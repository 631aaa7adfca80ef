//! # fedzkt-data
//!
//! Synthetic federated image datasets and non-IID partitioners for the
//! FedZKT reproduction.
//!
//! The paper evaluates on MNIST, KMNIST, FASHION-MNIST and CIFAR-10, with
//! CIFAR-100 and SVHN as FedMD's public datasets. Those corpora are not
//! available in this offline environment, so this crate generates
//! *synthetic class-conditional image families* with the properties the
//! experiments actually depend on:
//!
//! * each family is a classifiable distribution over `[-1, 1]` images with
//!   per-class structure (prototype + jitter + noise);
//! * [`DataFamily::Cifar100Like`] is built from the **same generative
//!   process** as [`DataFamily::Cifar10Like`] (correlated prototypes), so a
//!   model trained on one produces informative logits on the other — the
//!   "similar public dataset" regime of Table I;
//! * [`DataFamily::SvhnLike`] uses a **disjoint process** (stripe/digit
//!   patterns with different pixel statistics) — the "wrong public
//!   dataset" regime where FedMD collapses.
//!
//! [`SynthConfig::generate`] synthesizes a split up front;
//! [`SynthConfig::generate_corpus`] returns the training split as a
//! [`Corpus`] that synthesizes a sample only when asked for it, bit for bit
//! the same, so a cross-device run pays for the samples its sampled devices
//! hold rather than for the whole population's.
//!
//! Partitioners implement the paper's §IV-A4 scenarios: IID, quantity-based
//! label imbalance (`c` classes per device) and distribution-based label
//! imbalance (Dirichlet `β`).
//!
//! ## Example
//!
//! ```
//! use fedzkt_data::{DataFamily, Partition, SynthConfig};
//!
//! let cfg = SynthConfig { family: DataFamily::MnistLike, img: 8, train_n: 64, test_n: 32, seed: 1, ..Default::default() };
//! let (train, test) = cfg.generate();
//! assert_eq!(train.len(), 64);
//! let shards = Partition::Iid.split(train.labels(), train.num_classes(), 4, 7).unwrap();
//! assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 64);
//! # let _ = test;
//! ```

#![warn(missing_docs)]

mod dataset;
mod loader;
mod partition;
mod synth;

pub use dataset::{DataError, Dataset};
pub use loader::BatchIter;
pub use partition::{Partition, PartitionError};
pub use synth::{Corpus, DataFamily, SynthConfig};
