//! The one device fleet every algorithm runs on.
//!
//! ## Scale model
//!
//! FedZKT targets the *cross-device* regime: a large registered
//! population of which a small fraction is sampled each round. The fleet
//! therefore has exactly one lifecycle, shared by all algorithms:
//!
//! * **data** — a [`ShardStore`] holds the training [`Corpus`] — a
//!   generator (labels, class prototypes, saved RNG states), not the
//!   images — plus one flat index (every device's index set concatenated
//!   in device order, with per-device end offsets: two allocations however
//!   many devices) and a first-touch cache: the first time a dispatch
//!   needs a device's shard ([`cache`](ShardStore::cache),
//!   [`stage`](ShardStore::stage)), its samples are synthesized into an
//!   append-only arena and its slot points there, so each sample is
//!   synthesized once per process and an untouched device costs one slot.
//!   The cache is not state: a resumed run starts it empty and
//!   synthesizes the same bits;
//! * **models** — a [`DeviceFleet`] keeps each device as its `ModelSpec`
//!   and one slot holding at most one of the materialized model or its
//!   summary (the cumulative state dict). The first
//!   [`model`](DeviceFleet::model) read of a device materializes it, and
//!   it stays resident until every resident device is dropped back to its
//!   summary at end of round ([`release_all`](DeviceFleet::release_all)).
//!   The [`DeviceRegistry`] only counts those transitions.
//!
//! Which devices a round reads is the algorithm's business, and it sets
//! the in-round peak the registry gauge reports:
//!
//! | algorithm | read during a round | on evaluation rounds |
//! |---|---|---|
//! | FedAvg / FedProx | no device models at all — devices are stateless between rounds, so a worker copies a sampled device's cached shard out right before training on it (the gauge counts the sampled set) | one shared global model |
//! | FedMD, Fed-ET, FedGKT | the active set | the whole fleet: evaluation reads every device |
//! | FedZKT | the whole fleet: the distillation game uses every device model as a teacher (Eq. 2) | the whole fleet |
//!
//! Between rounds nothing is resident unless something read a device
//! model since the last round ended, so the standing footprint is one
//! small slot per registered device plus the summaries of the devices
//! that have ever been read. Walks over the slots — `release_all` every
//! round, the checkpoint's [`save_into`](DeviceFleet::save_into) — are
//! O(registered).
//!
//! Rematerialization is bit-exact: a first materialization runs the
//! device's seeded build; a later one runs the same build and overlays the
//! stored summary through `load_state_dict`, the snapshot→load round trip
//! the device-parallel fleet dispatcher (which loads each job into a
//! worker's scratch model of its architecture) and the checkpoints
//! already rely on. `tests/registry_props.rs` holds that property over
//! both paper zoos and FedGKT's split model.

use crate::checkpoint::AlgoState;
use crate::registry::DeviceRegistry;
use fedzkt_data::{Corpus, Dataset};
use fedzkt_models::ModelSpec;
use fedzkt_nn::{load_state_dict, state_dict, Module, StateDict};
use fedzkt_tensor::Tensor;
use std::cell::{Cell, OnceCell};

/// A [`ShardStore`] slot of a device whose shard is not cached yet.
const UNCACHED: usize = usize::MAX;

/// Per-device private data: the training [`Corpus`], every device's index
/// set into it, stored flat — all index sets concatenated in device order,
/// and where each one ends — so a million one-sample shards are two
/// allocations, not a million; and a first-touch cache of the shards
/// staged so far (see the [module docs](self)).
pub struct ShardStore {
    train: Corpus,
    /// Every device's index set, concatenated in device order.
    index: Vec<usize>,
    /// `ends[k]` is one past device `k`'s last entry in `index`.
    ends: Vec<usize>,
    /// `slots[k]` is where device `k`'s cached images start in `arena`,
    /// or [`UNCACHED`].
    slots: Vec<usize>,
    /// The cached shards' images, appended in first-touch order.
    arena: Vec<f32>,
}

impl ShardStore {
    /// `shards[k]` is the index set of device `k` in `train`.
    ///
    /// # Panics
    /// Panics when `shards` is empty.
    pub fn new(train: &Corpus, shards: &[Vec<usize>]) -> Self {
        assert!(!shards.is_empty(), "need at least one device");
        let mut index = Vec::with_capacity(shards.iter().map(Vec::len).sum());
        let mut ends = Vec::with_capacity(shards.len());
        for shard in shards {
            index.extend_from_slice(shard);
            ends.push(index.len());
        }
        ShardStore {
            train: train.clone(),
            index,
            ends,
            slots: vec![UNCACHED; shards.len()],
            arena: Vec::new(),
        }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.ends.len()
    }

    /// Where device `k`'s entries sit in `index`.
    fn span(&self, k: usize) -> std::ops::Range<usize> {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        start..self.ends[k]
    }

    /// Number of samples device `k` holds.
    pub fn shard_len(&self, k: usize) -> usize {
        self.span(k).len()
    }

    /// Samples held in the first-touch cache: Σ [`ShardStore::shard_len`]
    /// over the devices cached so far.
    pub fn cached_samples(&self) -> usize {
        self.arena.len() / self.train.sample_len()
    }

    /// Synthesize the shards of `ids` that are not cached yet into the
    /// cache — the `&mut` step before a parallel dispatch reads them
    /// through [`ShardStore::shard`].
    pub fn cache(&mut self, ids: &[usize]) {
        for &k in ids {
            if self.slots[k] == UNCACHED {
                self.slots[k] = self.arena.len();
                let span = self.span(k);
                self.train.extend_images(&self.index[span], &mut self.arena);
            }
        }
    }

    /// Device `k`'s shard: copied out of the cache when the device has
    /// been cached, synthesized afresh otherwise.
    pub fn shard(&self, k: usize) -> Dataset {
        let indices = &self.index[self.span(k)];
        if self.slots[k] == UNCACHED {
            return self.train.subset(indices);
        }
        let (t, at, n) = (&self.train, self.slots[k], indices.len());
        let images = self.arena[at..at + n * t.sample_len()].to_vec();
        let images = Tensor::from_vec(images, &[n, t.channels(), t.img_size(), t.img_size()])
            .expect("a cached shard holds its samples' images");
        let labels = indices.iter().map(|&i| t.labels()[i]).collect();
        Dataset::new(images, labels, t.num_classes())
    }

    /// Cache, then hand out, the shards of `ids`, in `ids` order, for one
    /// dispatch.
    pub fn stage(&mut self, ids: &[usize]) -> Vec<Dataset> {
        self.cache(ids);
        ids.iter().map(|&k| self.shard(k)).collect()
    }
}

/// One device's model state: the model from its first read until
/// [`DeviceFleet::release_all`], else the summary a rematerialization
/// restores (none for a device never materialized, which the seeded build
/// alone reproduces). The first read moves the summary into the model, so
/// at most one of the two is set. The summary is boxed so the dense
/// per-device vector stays small.
struct Slot<M> {
    model: OnceCell<M>,
    summary: Cell<Option<Box<StateDict>>>,
}

/// A fleet of heterogeneous devices with models of type `M`, materialized
/// on first use (see the [module docs](self)).
///
/// `M` is `Box<dyn Module>` for the algorithms whose devices run a zoo
/// architecture as is, and a concrete composite for FedGKT's split model.
pub struct DeviceFleet<M: Module> {
    specs: Vec<ModelSpec>,
    slots: Vec<Slot<M>>,
    registry: DeviceRegistry,
    build: Box<dyn Fn(usize, ModelSpec) -> M>,
}

impl<M: Module> DeviceFleet<M> {
    /// A fleet with one device per entry of `zoo`, none of them resident.
    /// `build(k, zoo[k])` is device `k`'s deterministic, per-device seeded
    /// construction: it must return the same model, bit for bit, every
    /// time it is called.
    ///
    /// # Panics
    /// Panics when `zoo` is empty.
    pub fn new(zoo: &[ModelSpec], build: impl Fn(usize, ModelSpec) -> M + 'static) -> Self {
        assert!(!zoo.is_empty(), "need at least one device");
        DeviceFleet {
            specs: zoo.to_vec(),
            slots: zoo
                .iter()
                .map(|_| Slot { model: OnceCell::new(), summary: Cell::new(None) })
                .collect(),
            registry: DeviceRegistry::default(),
            build: Box::new(build),
        }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.specs.len()
    }

    /// The architecture of device `k`.
    pub fn spec(&self, k: usize) -> ModelSpec {
        self.specs[k]
    }

    /// The residency counters.
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// Device `k`'s seeded construction, fresh.
    fn build(&self, k: usize) -> M {
        (self.build)(k, self.specs[k])
    }

    /// Device `k`'s model, materialized on the first read since the last
    /// [`DeviceFleet::release_all`]: the seeded build, overlaid with the
    /// device's summary when it has one.
    pub fn model(&self, k: usize) -> &M {
        let slot = &self.slots[k];
        slot.model.get_or_init(|| {
            let model = self.build(k);
            if let Some(summary) = slot.summary.take() {
                load_state_dict(&model, &summary).expect("summary matches device architecture");
            }
            self.registry.checkout();
            model
        })
    }

    /// `f` of device `k`'s summary, when it has one.
    fn with_summary<R>(&self, k: usize, f: impl FnOnce(&StateDict) -> R) -> Option<R> {
        let summary = self.slots[k].summary.take()?;
        let out = f(&summary);
        self.slots[k].summary.set(Some(summary));
        Some(out)
    }

    /// Drop every resident device back to its summary.
    pub fn release_all(&mut self) {
        for slot in &mut self.slots {
            if let Some(model) = slot.model.take() {
                *slot.summary.get_mut() = Some(Box::new(state_dict(&model)));
                self.registry.release();
            }
        }
    }

    /// Device `k`'s state, shapes being what matters: from the resident
    /// model, else from its summary, else from a throwaway seeded build.
    /// Materializes nothing.
    pub fn template(&self, k: usize) -> StateDict {
        match self.slots[k].model.get() {
            Some(model) => state_dict(model),
            None => {
                self.with_summary(k, StateDict::clone).unwrap_or_else(|| state_dict(&self.build(k)))
            }
        }
    }

    /// Checkpoint the fleet: a `device_{k}` blob for every device that is
    /// resident or summarized (an unbuilt device rematerializes from its
    /// seed alone) — resident devices first, then summarized ones, each in
    /// device order — plus the registry counters.
    pub fn save_into(&self, state: &mut AlgoState) {
        for (k, slot) in self.slots.iter().enumerate() {
            if let Some(model) = slot.model.get() {
                state.put_dict(format!("device_{k}"), &state_dict(model));
            }
        }
        for k in 0..self.slots.len() {
            self.with_summary(k, |summary| state.put_dict(format!("device_{k}"), summary));
        }
        self.registry.save_into(state);
    }

    /// Restore what [`DeviceFleet::save_into`] stored: every `device_{k}`
    /// blob becomes device `k`'s summary, after its tensor count and
    /// shapes are checked against the device's architecture.
    ///
    /// # Errors
    /// Returns `"device {k}: …"` when a blob is malformed or does not fit
    /// device `k`'s architecture — a checkpoint from a different zoo —
    /// and a message when the counters entry is missing or malformed.
    pub fn load_from(&mut self, state: &AlgoState) -> Result<(), String> {
        // Whatever is resident (a device read before the resume) goes back
        // to summaries first, so the blobs below replace it.
        self.release_all();
        for k in 0..self.slots.len() {
            let name = format!("device_{k}");
            if !state.has_blob(&name) {
                continue;
            }
            let sd = state.dict(&name)?;
            load_state_dict(&self.build(k), &sd).map_err(|e| format!("device {k}: {e}"))?;
            *self.slots[k].summary.get_mut() = Some(Box::new(sd));
        }
        self.registry.load_from(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_data::SynthConfig;
    use fedzkt_tensor::split_seed;
    use proptest::prelude::*;

    /// A ten-sample corpus and, as the oracle, the same split synthesized
    /// eagerly.
    fn corpus() -> (Corpus, Dataset) {
        let cfg = SynthConfig {
            img: 4,
            train_n: 10,
            test_n: 1,
            classes: 3,
            seed: 4,
            ..Default::default()
        };
        (cfg.generate_corpus().0, cfg.generate().0)
    }

    /// The flat index hands out exactly the shards it was given — an empty
    /// shard, overlapping and unsorted index sets, and the first and last
    /// device included — whether a shard is cached or not, and the cache
    /// holds exactly the staged devices' samples, each device once.
    #[test]
    fn flat_index_slices_every_shard() {
        let (corpus, train) = corpus();
        let shards = vec![vec![4, 1], vec![], vec![0, 1, 2, 3, 9], vec![9], vec![], vec![7, 7, 5]];
        let mut store = ShardStore::new(&corpus, &shards);
        assert_eq!(store.devices(), shards.len());
        let check = |store: &ShardStore| {
            for (k, shard) in shards.iter().enumerate() {
                assert_eq!(store.shard_len(k), shard.len(), "device {k}");
                assert_eq!(store.shard(k), train.subset(shard), "device {k}");
            }
        };
        check(&store);
        assert_eq!(store.cached_samples(), 0);
        assert_eq!(store.stage(&[5, 0]), vec![train.subset(&shards[5]), train.subset(&shards[0])]);
        assert_eq!(store.cached_samples(), 5);
        check(&store);
        store.cache(&[0, 1, 2, 5]);
        assert_eq!(store.cached_samples(), 10, "staged devices are not cached twice");
        check(&store);
    }

    #[test]
    #[should_panic]
    fn flat_index_rejects_out_of_range_device() {
        ShardStore::new(&corpus().0, &[vec![0], vec![1]]).shard_len(2);
    }

    fn fleet(devices: usize) -> DeviceFleet<Box<dyn Module>> {
        let zoo = ModelSpec::assign_round_robin(
            &[ModelSpec::Mlp { hidden: 4 }, ModelSpec::SmallCnn { base_channels: 2 }],
            devices,
        );
        DeviceFleet::new(&zoo, |k, spec| spec.build(1, 3, 4, split_seed(9, k as u64)))
    }

    /// The summary is boxed, so a million-device slot vector stays at
    /// three words per device.
    #[test]
    fn a_slot_is_at_most_three_words() {
        assert!(std::mem::size_of::<Slot<Box<dyn Module>>>() <= 24);
    }

    /// A released device keeps its state as a summary, and the first read
    /// after that moves the summary into the model rather than keeping a
    /// copy in the slot; a device nobody reads stays unbuilt.
    #[test]
    fn summaries_store_and_take() {
        let mut fleet = fleet(3);
        let trained = Tensor::full(&fleet.model(1).params()[0].shape(), 0.25);
        fleet.model(1).params()[0].set_value(trained.clone());
        fleet.release_all();
        let summary = |fleet: &DeviceFleet<_>, k| fleet.with_summary(k, |sd| sd.params[0].clone());
        let resident = |fleet: &DeviceFleet<_>, k: usize| fleet.slots[k].model.get().is_some();
        assert_eq!(summary(&fleet, 1), Some(trained.clone()));
        assert!(!resident(&fleet, 1));
        assert_eq!(fleet.model(1).params()[0].value_clone(), trained);
        assert!(resident(&fleet, 1));
        assert_eq!(summary(&fleet, 1), None, "the summary moved into the model");
        for k in [0, 2] {
            assert!(!resident(&fleet, k) && summary(&fleet, k).is_none(), "device {k}");
        }
    }

    /// Checkpoint blobs come resident devices first, then summarized
    /// ones, each in device order; unbuilt devices write nothing.
    #[test]
    fn save_into_orders_resident_before_summarized_devices() {
        let mut fleet = fleet(6);
        fleet.model(4);
        fleet.model(1);
        fleet.release_all();
        fleet.model(4);
        fleet.model(3);
        let mut state = AlgoState::new();
        fleet.save_into(&mut state);
        let names: Vec<&str> = state.blobs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["device_3", "device_4", "device_1"]);
        let words: Vec<&str> = state.words.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(words, ["registry"]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The gauge follows the slots: after any sequence of reads of one
        /// device, reads of every device and `release_all`, the registry's
        /// resident count is the number of resident slots.
        #[test]
        fn registry_balances_the_slots(ops in proptest::collection::vec(0usize..8, 1..24)) {
            let mut fleet = fleet(6);
            for op in ops {
                match op {
                    6 => {
                        for k in 0..fleet.devices() {
                            fleet.model(k);
                        }
                    }
                    7 => fleet.release_all(),
                    k => {
                        fleet.model(k);
                    }
                }
                let resident = fleet.slots.iter().filter(|s| s.model.get().is_some()).count();
                prop_assert_eq!(fleet.registry().resident(), resident);
            }
        }
    }
}
