//! The [`Module`] trait, buffers, sequential composition and state dicts.

use crate::NnError;
use fedzkt_autograd::Var;
use fedzkt_tensor::Tensor;
use std::cell::RefCell;
use std::rc::Rc;

/// A non-trainable tensor slot owned by a layer (batch-norm running
/// statistics). Buffers are shared handles so a module can update them
/// during `forward(&self)`.
#[derive(Clone, Debug)]
pub struct Buffer {
    inner: Rc<RefCell<Tensor>>,
}

impl Buffer {
    /// Create a buffer holding `value`.
    pub fn new(value: Tensor) -> Self {
        Buffer { inner: Rc::new(RefCell::new(value)) }
    }

    /// Clone the current value out.
    pub fn get(&self) -> Tensor {
        self.inner.borrow().clone()
    }

    /// Number of f32 values held, without cloning.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Shape of the held tensor, without cloning its data.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.borrow().shape().to_vec()
    }

    /// Whether the buffer holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replace the value.
    ///
    /// # Panics
    /// Panics when the new value changes shape.
    pub fn set(&self, value: Tensor) {
        let mut slot = self.inner.borrow_mut();
        assert_eq!(slot.shape(), value.shape(), "buffer shape is fixed");
        *slot = value;
    }

    /// Exponential-moving-average update: `buf = (1 - m) * buf + m * new`.
    pub fn ema_update(&self, new: &Tensor, momentum: f32) {
        let mut slot = self.inner.borrow_mut();
        let updated = slot
            .mul_scalar(1.0 - momentum)
            .add(&new.mul_scalar(momentum))
            .expect("ema shapes");
        *slot = updated;
    }
}

/// A neural-network component: a differentiable function with trainable
/// parameters and optional non-trainable buffers.
///
/// All methods take `&self`; mutable layer state (training mode, running
/// statistics, dropout RNG) lives in interior-mutable cells so modules can
/// be freely shared inside a computation graph.
pub trait Module {
    /// Apply the module to an input node.
    fn forward(&self, x: &Var) -> Var;

    /// Trainable parameters in deterministic order.
    fn params(&self) -> Vec<Var>;

    /// Non-trainable state (running statistics), deterministic order.
    fn buffers(&self) -> Vec<Buffer> {
        Vec::new()
    }

    /// Switch between training and evaluation behaviour (batch-norm
    /// statistics, dropout). Default: stateless, nothing to do.
    fn set_training(&self, _training: bool) {}
}

/// A boxed module is a module, so code generic over `M: Module` also takes
/// the type-erased `Box<dyn Module>` that `ModelSpec::build` returns.
impl<M: Module + ?Sized> Module for Box<M> {
    fn forward(&self, x: &Var) -> Var {
        (**self).forward(x)
    }

    fn params(&self) -> Vec<Var> {
        (**self).params()
    }

    fn buffers(&self) -> Vec<Buffer> {
        (**self).buffers()
    }

    fn set_training(&self, training: bool) {
        (**self).set_training(training)
    }
}

/// A serializable snapshot of a module's parameters and buffers.
///
/// This is the unit of "communication" in the federated simulation: the
/// server ships a device's updated on-device model back as a `StateDict`
/// (Algorithm 1, line 12), and its encoded size is what the communication
/// accounting in `fedzkt-fl` measures.
///
/// It is also the unit of **thread transfer**: the autodiff tape is
/// `Rc`-based and cannot cross threads, so the device-parallel fleet driver
/// in `fedzkt-fl` moves models between workers as `StateDict`s (plain
/// tensors are `Send`) and rebuilds the module on the destination thread.
/// The snapshot-rebuild round trip is lossless
/// ([`state_dict`] → [`load_state_dict`] restores every parameter and
/// buffer bit-for-bit), which the checkpoint tests guard.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDict {
    /// Parameter tensors, in `Module::params` order.
    pub params: Vec<Tensor>,
    /// Buffer tensors, in `Module::buffers` order.
    pub buffers: Vec<Tensor>,
}

impl StateDict {
    /// All tensors in transfer order: parameters first, then buffers —
    /// the canonical iteration every wire codec encodes and decodes in.
    pub fn iter_tensors(&self) -> impl Iterator<Item = &Tensor> {
        self.params.iter().chain(self.buffers.iter())
    }

    /// Total number of f32 values (parameters + buffers).
    pub fn value_count(&self) -> usize {
        self.iter_tensors().map(Tensor::len).sum()
    }

    /// Bytes this state dict occupies as **raw uncompressed** f32s. This
    /// is a size, not a traffic count: what a round actually ships is the
    /// codec-encoded form, and all communication accounting reads the
    /// encoded wire size (`fedzkt_fl::codec`).
    pub fn byte_size(&self) -> usize {
        self.value_count() * std::mem::size_of::<f32>()
    }

    /// Do `self` and `other` describe the same architecture — equal
    /// parameter and buffer counts, with matching shapes position by
    /// position? This is the precondition for aggregating two snapshots
    /// (`fedzkt_fl`'s streaming average), for decoding a wire payload
    /// against a template, and for [`load_state_dict`] succeeding.
    pub fn same_layout(&self, other: &StateDict) -> bool {
        self.params.len() == other.params.len()
            && self.buffers.len() == other.buffers.len()
            && self.iter_tensors().zip(other.iter_tensors()).all(|(a, b)| a.shape() == b.shape())
    }
}

/// Snapshot a module's parameters and buffers.
pub fn state_dict(module: &dyn Module) -> StateDict {
    StateDict {
        params: module.params().iter().map(Var::value_clone).collect(),
        buffers: module.buffers().iter().map(Buffer::get).collect(),
    }
}

/// Load a snapshot produced by [`state_dict`] into a module with the same
/// architecture.
///
/// # Errors
/// Returns [`NnError::StateDictMismatch`] when counts or shapes disagree;
/// the module is left unmodified in that case.
pub fn load_state_dict(module: &dyn Module, sd: &StateDict) -> Result<(), NnError> {
    let params = module.params();
    let buffers = module.buffers();
    if params.len() != sd.params.len() || buffers.len() != sd.buffers.len() {
        return Err(NnError::StateDictMismatch {
            detail: format!(
                "module has {} params / {} buffers, dict has {} / {}",
                params.len(),
                buffers.len(),
                sd.params.len(),
                sd.buffers.len()
            ),
        });
    }
    for (i, (p, t)) in params.iter().zip(&sd.params).enumerate() {
        if p.shape() != t.shape() {
            return Err(NnError::StateDictMismatch {
                detail: format!("param {i}: module {:?} vs dict {:?}", p.shape(), t.shape()),
            });
        }
    }
    for (i, (b, t)) in buffers.iter().zip(&sd.buffers).enumerate() {
        if b.get().shape() != t.shape() {
            return Err(NnError::StateDictMismatch {
                detail: format!("buffer {i}: shape mismatch {:?}", t.shape()),
            });
        }
    }
    for (p, t) in params.iter().zip(&sd.params) {
        p.set_value(t.clone());
    }
    for (b, t) in buffers.iter().zip(&sd.buffers) {
        b.set(t.clone());
    }
    Ok(())
}

/// Number of trainable scalar parameters in a module.
pub fn param_count(module: &dyn Module) -> usize {
    module.params().iter().map(|p| p.value().len()).sum()
}

/// Bytes of trainable parameters (f32).
pub fn param_bytes(module: &dyn Module) -> usize {
    param_count(module) * std::mem::size_of::<f32>()
}

/// Bytes of the full transferable state (parameters **and** buffers) as
/// **raw uncompressed** f32s — exactly [`StateDict::byte_size`] of
/// [`state_dict`]`(module)`, but computed without materialising the
/// snapshot. Like `byte_size`, this is a size, not a traffic count:
/// per-round communication accounting goes through the wire codec
/// (`fedzkt_fl::codec`), which reports the *encoded* payload size.
pub fn state_bytes(module: &dyn Module) -> usize {
    let values = module.params().iter().map(|p| p.value().len()).sum::<usize>()
        + module.buffers().iter().map(Buffer::len).sum::<usize>();
    values * std::mem::size_of::<f32>()
}

/// A module that chains child modules in order.
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Build from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Module>>) -> Self {
        Sequential { layers }
    }

    /// An empty chain (identity function).
    pub fn empty() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer, returning `self` for chaining.
    pub fn push(mut self, layer: Box<dyn Module>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the chain has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Module for Sequential {
    fn forward(&self, x: &Var) -> Var {
        let mut out = x.clone();
        for layer in &self.layers {
            out = layer.forward(&out);
        }
        out
    }

    fn params(&self) -> Vec<Var> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn buffers(&self) -> Vec<Buffer> {
        self.layers.iter().flat_map(|l| l.buffers()).collect()
    }

    fn set_training(&self, training: bool) {
        for layer in &self.layers {
            layer.set_training(training);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Linear};
    use fedzkt_tensor::seeded_rng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new(vec![
            Box::new(Linear::new(3, 4, true, &mut rng)),
            Box::new(Activation::Relu),
            Box::new(Linear::new(4, 2, true, &mut rng)),
        ])
    }

    #[test]
    fn sequential_composes() {
        let m = tiny_model(1);
        let x = Var::constant(Tensor::ones(&[2, 3]));
        let y = m.forward(&x);
        assert_eq!(y.shape(), vec![2, 2]);
        assert_eq!(m.params().len(), 4); // 2 weights + 2 biases
    }

    #[test]
    fn state_dict_roundtrip_changes_output() {
        let a = tiny_model(1);
        let b = tiny_model(2);
        let x = Var::constant(Tensor::ones(&[1, 3]));
        let ya0 = a.forward(&x).value_clone();
        let yb0 = b.forward(&x).value_clone();
        assert_ne!(ya0.data(), yb0.data());
        load_state_dict(&b, &state_dict(&a)).unwrap();
        let yb1 = b.forward(&x).value_clone();
        assert_eq!(ya0.data(), yb1.data());
    }

    #[test]
    fn load_rejects_wrong_architecture() {
        let mut rng = seeded_rng(3);
        let small = Linear::new(3, 2, true, &mut rng);
        let big = tiny_model(1);
        let err = load_state_dict(&small, &state_dict(&big)).unwrap_err();
        assert!(matches!(err, NnError::StateDictMismatch { .. }));
    }

    #[test]
    fn load_rejects_wrong_shape() {
        let mut rng = seeded_rng(4);
        let a = Linear::new(3, 2, true, &mut rng);
        let b = Linear::new(2, 3, true, &mut rng);
        assert!(load_state_dict(&a, &state_dict(&b)).is_err());
    }

    #[test]
    fn param_count_matches_architecture() {
        let m = tiny_model(5);
        // 3*4 + 4 + 4*2 + 2 = 26
        assert_eq!(param_count(&m), 26);
        assert_eq!(param_bytes(&m), 104);
    }

    #[test]
    fn state_dict_byte_size() {
        let m = tiny_model(6);
        assert_eq!(state_dict(&m).byte_size(), 104);
        // The snapshot-free count agrees with the snapshot's.
        assert_eq!(state_bytes(&m), state_dict(&m).byte_size());
    }

    #[test]
    fn same_layout_requires_matching_counts_and_shapes() {
        let a = state_dict(&tiny_model(1));
        let b = state_dict(&tiny_model(2));
        assert!(a.same_layout(&b), "same architecture, different weights");
        let mut rng = seeded_rng(7);
        let narrow = state_dict(&Linear::new(3, 2, true, &mut rng));
        assert!(!a.same_layout(&narrow), "different parameter count");
        let transposed = state_dict(&Linear::new(2, 3, true, &mut rng));
        assert!(!narrow.same_layout(&transposed), "same counts, different shapes");
    }

    #[test]
    fn buffer_ema_update() {
        let b = Buffer::new(Tensor::zeros(&[2]));
        b.ema_update(&Tensor::ones(&[2]), 0.1);
        let v = b.get();
        assert!((v.data()[0] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let m = Sequential::empty();
        assert!(m.is_empty());
        let x = Var::constant(Tensor::ones(&[2, 2]));
        assert_eq!(m.forward(&x).value().data(), x.value().data());
    }
}
