//! The [`Var`] type: a node in the autodiff DAG.

use fedzkt_tensor::Tensor;
use std::cell::{Cell, Ref, RefCell, RefMut};
use std::collections::HashSet;
use std::panic::Location;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::LocalKey;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static NO_GRAD_DEPTH: Cell<u32> = const { Cell::new(0) };
    static FROZEN_PARAMS_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Run `f` with `depth` raised by one on this thread; the guard lowers it
/// again when `f` returns or unwinds.
fn scoped<T>(depth: &'static LocalKey<Cell<u32>>, f: impl FnOnce() -> T) -> T {
    struct Guard(&'static LocalKey<Cell<u32>>);
    impl Drop for Guard {
        fn drop(&mut self) {
            self.0.with(|d| d.set(d.get() - 1));
        }
    }
    depth.with(|d| d.set(d.get() + 1));
    let _guard = Guard(depth);
    f()
}

/// Run `f` with gradient recording disabled on this thread.
///
/// Inside the closure every op produces constants: no tape nodes are
/// allocated, which makes evaluation passes (test-set accuracy, teacher
/// forward passes during the global-model update) cheap.
///
/// Nesting is supported; recording resumes when the outermost guard exits,
/// even if `f` panics.
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    scoped(&NO_GRAD_DEPTH, f)
}

/// Run `f` with layer parameters frozen on this thread — the twin of
/// [`no_grad`] for passes that differentiate *through* a model but not
/// *into* it (the generator step of the distillation game, the Figure-2
/// input-gradient probe).
///
/// Ops recorded inside the closure treat a **leaf** in a parameter operand
/// — the `weight` of [`Var::conv2d`] / [`Var::linear`], the `bias` of
/// [`Var::add_bias`] / [`Var::add_channel_bias`], `gamma` and `beta` of the
/// batch-norm ops — as
/// a constant: its gradient is neither computed (no `dW` GEMM, no dγ/dβ
/// reduction) nor deposited, so `.grad()` stays `None` and there is nothing
/// to zero afterwards. Activation operands are untouched: the tape is
/// recorded as usual and the gradient that reaches every other node
/// (inputs, upstream parameters) is bitwise what an unfrozen pass produces.
/// The decision is taken when an op is recorded, so [`Var::backward`] may
/// run inside or outside the scope.
///
/// A frozen forward also keeps only what its input gradient reads: no op
/// reads an activation for a parameter gradient that is not asked for
/// (a conv's or linear's input for `dW`, batch norm's input for `dγ`), so
/// once the caller drops the intermediates the tape holds the inputs of
/// the activations and of training-mode batch norm, not every op output
/// (see [`Var`]).
///
/// Nesting is supported and composes with [`no_grad`] (which wins: nothing
/// is recorded at all); the scope ends when the outermost guard exits, even
/// if `f` panics.
pub fn frozen_params<T>(f: impl FnOnce() -> T) -> T {
    scoped(&FROZEN_PARAMS_DEPTH, f)
}

pub(crate) fn grad_enabled() -> bool {
    NO_GRAD_DEPTH.with(|d| d.get()) == 0
}

/// Gradient function of a tape node: maps the node's output gradient to one
/// optional gradient per parent (in parent order). `None` marks parents whose
/// gradient the op did not compute (because they do not require it).
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Option<Tensor>>>;

/// A tape node.
///
/// **What keeps what.** The node itself lives while a [`Var`] handle on it
/// or a child's parent list (a tape edge) holds it: an edge keeps the node,
/// so a backward can still route gradients through it. Its *value* lives
/// only while a handle or a reader ([`ParentRef`]) can read it. When the
/// last of both goes, an op output's value is dropped and only its shape
/// stays; a leaf ([`Var::constant`], [`Var::parameter`]) keeps its value
/// for as long as the node lives. Nothing reads a value through an edge,
/// so a forward keeps only the values some backward closure will read
/// (an activation's input, a product's other operand, …) and the ones
/// the caller still holds.
pub(crate) struct VarInner {
    id: u64,
    /// `None` once released (op outputs only; see the type's docs).
    value: RefCell<Option<Tensor>>,
    shape: Box<[usize]>,
    /// Bumped by every write to `value` ([`Var::set_value`],
    /// [`Var::value_mut`]); a [`ParentRef`] compares it with the version it
    /// was recorded at.
    version: Cell<u64>,
    /// Live [`Var`] handles on this node.
    handles: Cell<usize>,
    /// Live [`ParentRef`] readers of this node's value.
    readers: Cell<usize>,
    grad: RefCell<Option<Tensor>>,
    requires_grad: bool,
    parents: Vec<Rc<VarInner>>,
    backward_fn: Option<BackwardFn>,
}

impl VarInner {
    /// Drop an op output's value once neither a handle nor a reader can
    /// read it. Runs in `Drop`, so it must not panic: a value still
    /// borrowed is being read, and stays.
    fn release_if_unread(&self) {
        if self.handles.get() == 0 && self.readers.get() == 0 && self.backward_fn.is_some() {
            if let Ok(mut value) = self.value.try_borrow_mut() {
                value.take();
            }
        }
    }
}

impl Drop for VarInner {
    /// Iterative teardown of the parent chain. A deep tape (tens of
    /// thousands of nodes) dropped naively would recurse through `Rc` drops
    /// and overflow the stack; instead we steal each uniquely-owned
    /// parent's list and drain a worklist.
    fn drop(&mut self) {
        let mut stack = std::mem::take(&mut self.parents);
        while let Some(inner) = stack.pop() {
            if let Some(mut inner) = Rc::into_inner(inner) {
                stack.append(&mut inner.parents);
            }
        }
    }
}

/// A non-owning reader of an op's parent, held by the op's backward
/// closure to read the parent's value in place of a copy.
///
/// **The rule.** No backward closure keeps a copy of a parent's value:
/// every op that needs one in its backward (the input of an activation,
/// a product's operand, a conv's input or weights, batch norm's input and
/// `γ`) reads it through a `ParentRef`, and takes one only for the gradient
/// that reads it: `dW` reads the input and `dX` the weights, so a frozen
/// forward holds no input and a constant input no weights.
///
/// **What it keeps.** The node's parent list keeps the parent *node*
/// alive for as long as the closure can run; the parent's *value* lives
/// while a [`Var`] handle or a reader does. A `ParentRef` is such a reader:
/// it is counted on the parent while it lives, and dropping the last
/// reader of an op output that no handle holds drops that value (see
/// [`VarInner`]). A value no backward reads is thus gone as soon as the
/// caller lets go of it, not when the graph drops.
///
/// **The guard.** Reading in place is only right while the parent still
/// holds the value the forward used. A reader records the parent's write
/// version when the op is recorded, and [`ParentRef::with_value`] panics,
/// naming the op and where it was recorded, if the parent has been written
/// since — by [`Var::set_value`] or [`Var::value_mut`], as an optimizer
/// step or loading a state dict does. Without the guard such a backward
/// would silently differentiate against the new weights.
///
/// Not owning the parent keeps teardown iterative: dropping the closure
/// never drops a parent, so a long chain of such ops is torn down by
/// [`VarInner`]'s loop rather than by nested drops.
pub(crate) struct ParentRef {
    node: Weak<VarInner>,
    version: u64,
    op: &'static str,
    site: &'static Location<'static>,
}

impl ParentRef {
    /// Run `f` on the parent's value.
    ///
    /// # Panics
    /// Panics if the parent's value was written after the op was recorded
    /// (see the type's docs), or if the parent or its value is gone, which
    /// cannot happen while the node whose closure holds this reader is
    /// alive.
    pub(crate) fn with_value<T>(&self, f: impl FnOnce(&Tensor) -> T) -> T {
        let parent = self.node.upgrade().expect("a node's parents outlive its backward closure");
        assert!(
            parent.version.get() == self.version,
            "{} recorded at {}: an operand was written (set_value / value_mut, e.g. an \
             optimizer step or load_state_dict) between the forward and this backward, \
             which would differentiate against the new value",
            self.op,
            self.site,
        );
        let value = parent.value.borrow();
        let value = value.as_ref().unwrap_or_else(|| {
            panic!(
                "{} recorded at {}: its operand's value was released while this reader held it",
                self.op, self.site,
            )
        });
        f(value)
    }

    /// [`ParentRef::with_value`] on an optional reader: `f` gets `None`
    /// where the op holds no reader because its backward does not read
    /// that parent.
    pub(crate) fn with_opt<T>(this: Option<&ParentRef>, f: impl FnOnce(Option<&Tensor>) -> T) -> T {
        match this {
            Some(parent) => parent.with_value(|v| f(Some(v))),
            None => f(None),
        }
    }
}

impl Drop for ParentRef {
    /// Count the reader out; the last one releases an op output no handle
    /// holds. A parent already torn down (the graph is dropping) has
    /// nothing left to release.
    fn drop(&mut self) {
        if let Some(parent) = self.node.upgrade() {
            parent.readers.set(parent.readers.get() - 1);
            parent.release_if_unread();
        }
    }
}

/// A tensor-valued node in the reverse-mode autodiff DAG.
///
/// `Var` is a cheap handle (`Rc`); cloning shares the node. There are three
/// kinds of nodes:
///
/// * [`Var::constant`] — data that never receives a gradient (inputs,
///   labels, detached teacher outputs);
/// * [`Var::parameter`] — trainable leaves whose `.grad()` is filled in by
///   [`Var::backward`] and consumed by optimizers;
/// * op outputs — created by the methods in this crate, which record how to
///   route gradients back to their parents.
///
/// Handles are counted: an op output's value lives while a handle or a
/// backward that reads it does (see [`ParentRef`]), so dropping the
/// handles on intermediates a backward does not read frees them before the
/// graph drops. A handle always reads its value.
pub struct Var {
    inner: Rc<VarInner>,
}

impl Clone for Var {
    fn clone(&self) -> Var {
        self.inner.handles.set(self.inner.handles.get() + 1);
        Var { inner: Rc::clone(&self.inner) }
    }
}

impl Drop for Var {
    fn drop(&mut self) {
        self.inner.handles.set(self.inner.handles.get() - 1);
        self.inner.release_if_unread();
    }
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.inner.id)
            .field("shape", &self.shape())
            .field("requires_grad", &self.inner.requires_grad)
            .finish()
    }
}

impl Var {
    /// A constant node: participates in computation but never accumulates a
    /// gradient and stops backward traversal.
    pub fn constant(value: Tensor) -> Var {
        Var::new(value, false, Vec::new(), None)
    }

    /// A trainable leaf. After [`Var::backward`], its gradient is available
    /// through [`Var::grad`].
    pub fn parameter(value: Tensor) -> Var {
        Var::new(value, true, Vec::new(), None)
    }

    pub(crate) fn new(
        value: Tensor,
        requires_grad: bool,
        parents: Vec<Var>,
        backward_fn: Option<BackwardFn>,
    ) -> Var {
        Var {
            inner: Rc::new(VarInner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                shape: value.shape().into(),
                value: RefCell::new(Some(value)),
                version: Cell::new(0),
                handles: Cell::new(1),
                readers: Cell::new(0),
                grad: RefCell::new(None),
                requires_grad,
                // Tape edges, not handles: `parents` drops with this call.
                parents: parents.iter().map(|p| Rc::clone(&p.inner)).collect(),
                backward_fn,
            }),
        }
    }

    /// Create an op-output node. Falls back to a constant when gradients are
    /// globally disabled ([`no_grad`]) or no parent requires them, so dead
    /// tape is never allocated.
    pub(crate) fn from_op(
        value: Tensor,
        parents: Vec<Var>,
        backward_fn: impl Fn(&Tensor) -> Vec<Option<Tensor>> + 'static,
    ) -> Var {
        if !grad_enabled() || !parents.iter().any(|p| p.inner.requires_grad) {
            return Var::constant(value);
        }
        Var::new(value, true, parents, Some(Box::new(backward_fn)))
    }

    /// Stable identity of this node (used as a key by optimizers).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Whether gradients flow into this node.
    ///
    /// This is a property of the node and does not change inside a
    /// [`frozen_params`] scope; there, ops additionally ignore it for leaves
    /// in their parameter operands (see the scope's docs).
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// [`Var::requires_grad`] for an op's parameter operand (weight, bias,
    /// γ, β): false for a leaf inside a [`frozen_params`] scope.
    pub(crate) fn param_requires_grad(&self) -> bool {
        let frozen = self.inner.backward_fn.is_none() && FROZEN_PARAMS_DEPTH.with(Cell::get) > 0;
        self.inner.requires_grad && !frozen
    }

    /// Borrow the node's value.
    ///
    /// # Panics
    /// Panics if the value is already mutably borrowed (only possible via
    /// [`Var::set_value`] re-entrancy, which no public API does).
    pub fn value(&self) -> Ref<'_, Tensor> {
        Ref::map(self.inner.value.borrow(), |v| v.as_ref().expect("a handle keeps its value"))
    }

    /// Clone the node's value out of the tape.
    pub fn value_clone(&self) -> Tensor {
        self.value().clone()
    }

    /// A reader through which the backward closure of `op` reads this node,
    /// one of the op's parents, without copying its value (see
    /// [`ParentRef`]). The reader keeps this node's value alive while it
    /// lives, and names `op` and the caller's source location in its
    /// guards' panics.
    #[track_caller]
    pub(crate) fn parent_ref(&self, op: &'static str) -> ParentRef {
        self.inner.readers.set(self.inner.readers.get() + 1);
        ParentRef {
            node: Rc::downgrade(&self.inner),
            version: self.inner.version.get(),
            op,
            site: Location::caller(),
        }
    }

    /// [`Var::parent_ref`] for a backward that reads this node only when
    /// `read` holds, and `None` when it does not. (An `if`, not
    /// `bool::then`: a closure would report its own location, not the
    /// caller's.)
    #[track_caller]
    pub(crate) fn parent_ref_if(&self, read: bool, op: &'static str) -> Option<ParentRef> {
        if read {
            Some(self.parent_ref(op))
        } else {
            None
        }
    }

    /// Mark the value as written: readers taken before this no longer read.
    fn bump_version(&self) {
        self.inner.version.set(self.inner.version.get().wrapping_add(1));
    }

    /// Shape of the node's value.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.shape.to_vec()
    }

    /// Replace the value in place (optimizer step on a parameter).
    ///
    /// Ops recorded before the write read this node's value in their
    /// backward in place, not from a copy, so running such a backward after
    /// the write panics rather than differentiate against the new value.
    ///
    /// # Panics
    /// Panics when the new value's shape differs from the old one — a
    /// parameter's geometry is fixed at construction.
    pub fn set_value(&self, value: Tensor) {
        assert_eq!(
            &*self.inner.shape,
            value.shape(),
            "set_value must preserve the parameter shape"
        );
        *self.inner.value.borrow_mut() = Some(value);
        self.bump_version();
    }

    /// The node's value as a mutable slice, for in-place updates (an
    /// optimizer step, loading a state dict); the shape cannot change
    /// through it.
    ///
    /// Every call counts as a write: a recorded op that reads this node in
    /// its backward panics if that backward runs afterwards (see
    /// [`Var::set_value`]).
    ///
    /// # Panics
    /// Panics if the value is borrowed elsewhere.
    pub fn value_mut(&self) -> RefMut<'_, [f32]> {
        let slot = self.inner.value.borrow_mut();
        self.bump_version();
        RefMut::map(slot, |v| v.as_mut().expect("a handle keeps its value").data_mut())
    }

    /// The gradient accumulated by the last [`Var::backward`] call, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.inner.grad.borrow().clone()
    }

    /// Borrow the accumulated gradient in place of [`Var::grad`]'s copy.
    ///
    /// # Panics
    /// Panics if a backward pass is accumulating into this node.
    pub fn grad_ref(&self) -> Ref<'_, Option<Tensor>> {
        self.inner.grad.borrow()
    }

    /// Clear this node's accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// A constant copy of this node's value, cutting the tape.
    pub fn detach(&self) -> Var {
        Var::constant(self.value_clone())
    }

    /// Run reverse-mode differentiation from this node.
    ///
    /// Seeds the output gradient with ones (for the scalar losses used
    /// throughout the workspace this is the conventional `dL/dL = 1`) and
    /// accumulates gradients into every reachable node with
    /// `requires_grad == true`. Gradients *accumulate* across calls; use
    /// [`Var::zero_grad`] (or the optimizers' `zero_grad`) between steps.
    pub fn backward(&self) {
        let seed = Tensor::ones(&self.shape());
        self.backward_with(seed);
    }

    /// Run backward with an explicit output-gradient seed (used by tests and
    /// by probes that differentiate non-scalar outputs).
    ///
    /// # Panics
    /// Panics when `seed` does not match this node's shape.
    pub fn backward_with(&self, seed: Tensor) {
        assert_eq!(seed.shape(), self.shape().as_slice(), "backward seed shape mismatch");
        accumulate(&self.inner, seed);
        for inner in topo_order(&self.inner) {
            let Some(backward_fn) = &inner.backward_fn else { continue };
            // Intermediate gradients are consumed; only leaves accumulate
            // across backward calls (PyTorch semantics — optimizers read
            // leaf grads, probes read input-leaf grads).
            let Some(grad) = inner.grad.borrow_mut().take() else { continue };
            let parent_grads = backward_fn(&grad);
            debug_assert_eq!(parent_grads.len(), inner.parents.len());
            for (parent, pg) in inner.parents.iter().zip(parent_grads) {
                if let Some(pg) = pg {
                    if parent.requires_grad {
                        accumulate(parent, pg);
                    }
                }
            }
        }
    }
}

fn accumulate(inner: &VarInner, grad: Tensor) {
    let mut slot = inner.grad.borrow_mut();
    match slot.as_mut() {
        Some(existing) => {
            existing
                .add_scaled_inplace(&grad, 1.0)
                .expect("gradient shape mismatch during accumulation");
        }
        None => *slot = Some(grad),
    }
}

/// Reverse topological order (output first) over the grad-requiring
/// subgraph. It walks tape edges, not handles: a node whose value was
/// released is visited like any other.
fn topo_order(root: &Rc<VarInner>) -> Vec<Rc<VarInner>> {
    let mut order = Vec::new();
    let mut visited: HashSet<u64> = HashSet::new();
    // Iterative post-order DFS; deep nets would overflow a recursive walk.
    let mut stack: Vec<(Rc<VarInner>, usize)> = vec![(Rc::clone(root), 0)];
    while let Some((var, child_idx)) = stack.pop() {
        if child_idx == 0 {
            if visited.contains(&var.id) {
                continue;
            }
            visited.insert(var.id);
        }
        if let Some(parent) = var.parents.get(child_idx) {
            let parent = Rc::clone(parent);
            stack.push((var, child_idx + 1));
            if !visited.contains(&parent.id) && parent.requires_grad {
                stack.push((parent, 0));
            }
        } else {
            order.push(var);
        }
    }
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_tensor::Tensor;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n]).unwrap()
    }

    #[test]
    fn constant_never_accumulates() {
        let c = Var::constant(t(vec![1.0, 2.0]));
        let p = Var::parameter(t(vec![3.0, 4.0]));
        let y = c.mul(&p).sum_all();
        y.backward();
        assert!(c.grad().is_none());
        assert_eq!(p.grad().unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let p = Var::parameter(t(vec![1.0]));
        let y = p.scale(3.0).sum_all();
        y.backward();
        y.backward();
        assert_eq!(p.grad().unwrap().data(), &[6.0]);
        p.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    fn diamond_graph_sums_paths() {
        // y = x*x + x*x: grad = 4x
        let x = Var::parameter(t(vec![3.0]));
        let a = x.mul(&x);
        let b = x.mul(&x);
        let y = a.add(&b).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[12.0]);
    }

    #[test]
    fn shared_subexpression_visits_once() {
        // y = (x+x) reused twice: s = x+x; y = s*s -> dy/dx = 2*s*2 = 8x
        let x = Var::parameter(t(vec![2.0]));
        let s = x.add(&x);
        let y = s.mul(&s).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[16.0]);
    }

    #[test]
    fn no_grad_builds_no_tape() {
        let p = Var::parameter(t(vec![1.0, 2.0]));
        let y = no_grad(|| p.scale(5.0));
        assert!(!y.requires_grad());
        // Backward on a constant is a no-op.
        y.sum_all().backward();
        assert!(p.grad().is_none());
    }

    #[test]
    fn no_grad_nests_and_restores() {
        let p = Var::parameter(t(vec![1.0]));
        no_grad(|| {
            no_grad(|| {
                assert!(!p.scale(1.0).requires_grad());
            });
            assert!(!p.scale(1.0).requires_grad());
        });
        assert!(p.scale(1.0).requires_grad());
    }

    /// A small model touching every op with a parameter operand: depthwise
    /// conv + channel bias, eval- and train-mode batch norm, dense conv,
    /// linear + bias. Returns the parameters and a scalar loss of `x`.
    fn layered(x: &Var) -> (Vec<Var>, Var) {
        let mut rng = fedzkt_tensor::seeded_rng(3);
        let mut p = |shape: &[usize]| Var::parameter(Tensor::randn(shape, &mut rng));
        let ps = vec![
            p(&[2, 1, 3, 3]),
            p(&[2]),
            p(&[2]),
            p(&[2]),
            p(&[3, 2, 3, 3]),
            p(&[3]),
            p(&[3]),
            p(&[4, 48]),
            p(&[4]),
        ];
        let (mean, var) = (Tensor::zeros(&[2]), Tensor::ones(&[2]));
        let h = x.conv2d(&ps[0], 1, 1, 2).add_channel_bias(&ps[1]);
        let h = h.batch_norm2d_eval(&ps[2], &ps[3], &mean, &var, 1e-5).relu();
        let (h, _, _) = h.conv2d(&ps[4], 1, 1, 1).batch_norm2d_train(&ps[5], &ps[6], 1e-5);
        let loss = h.flatten_batch().linear(&ps[7], Some(&ps[8])).square().sum_all();
        (ps, loss)
    }

    fn input() -> Var {
        Var::parameter(Tensor::randn(&[2, 2, 4, 4], &mut fedzkt_tensor::seeded_rng(9)))
    }

    #[test]
    fn frozen_params_keeps_the_input_gradient_and_deposits_nothing() {
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let x = input();
        let (params, loss) = layered(&x);
        loss.backward();
        assert!(params.iter().all(|p| p.grad().is_some()));
        let unfrozen = bits(x.grad().unwrap());

        // Backward outside the scope: the decision was taken at record time.
        let x = input();
        let (params, loss) = frozen_params(|| layered(&x));
        loss.backward();
        assert_eq!(bits(x.grad().unwrap()), unfrozen);
        assert!(params.iter().all(|p| p.grad().is_none()));
        // A non-leaf in a parameter operand is an activation and stays live.
        let w = Var::parameter(t(vec![2.0, 3.0]));
        let ones = Var::constant(t(vec![1.0, 1.0])).reshape(&[1, 2]);
        let y = frozen_params(|| ones.add_bias(&w.scale(1.0)));
        y.sum_all().backward();
        assert_eq!(w.grad().unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn frozen_params_nests_unwinds_and_composes_with_no_grad() {
        let deposits = || {
            let (params, loss) = layered(&input());
            loss.backward();
            params.iter().all(|p| p.grad().is_some())
        };
        frozen_params(|| {
            frozen_params(|| assert!(!deposits()));
            assert!(!deposits(), "inner exit must not end the outer scope");
        });
        assert!(deposits());
        let unwound = std::panic::catch_unwind(|| frozen_params(|| panic!("inside the scope")));
        assert!(unwound.is_err());
        assert!(deposits(), "a panic inside the scope must restore the depth");
        // no_grad wins in either nesting order: nothing is recorded at all.
        let x = input();
        let a = no_grad(|| frozen_params(|| layered(&x).1));
        let b = frozen_params(|| no_grad(|| layered(&x).1));
        assert!(!a.requires_grad() && !b.requires_grad());
        assert!(deposits());
    }

    #[test]
    fn detach_stops_gradient() {
        let x = Var::parameter(t(vec![2.0]));
        let y = x.mul(&x).detach().mul(&x).sum_all(); // treated as c*x with c=4
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[4.0]);
    }

    #[test]
    fn set_value_preserves_shape() {
        let p = Var::parameter(t(vec![1.0, 2.0]));
        p.set_value(t(vec![5.0, 6.0]));
        assert_eq!(p.value().data(), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "preserve the parameter shape")]
    fn set_value_rejects_shape_change() {
        let p = Var::parameter(t(vec![1.0, 2.0]));
        p.set_value(Tensor::zeros(&[3]));
    }

    /// The message of the panic `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the backward must panic");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload.downcast_ref::<&str>().expect("a text payload").to_string(),
        }
    }

    /// A write to an operand between a recorded forward and its backward —
    /// through `set_value` or `value_mut`, to a weight, a batch-norm `γ`, an
    /// activation's input — makes the backward panic, naming the op and the
    /// line that recorded it, instead of differentiating against the new
    /// value.
    #[test]
    fn writing_an_operand_before_its_backward_panics_naming_the_op() {
        type Case = (&'static str, fn(&Var, &Var) -> Var, &'static [usize], &'static [usize]);
        let cases: [Case; 7] = [
            ("linear", |x, w| x.linear(w, None), &[2, 3], &[4, 3]),
            ("conv2d", |x, w| x.conv2d(w, 1, 1, 1), &[2, 3, 5, 5], &[4, 3, 3, 3]),
            ("conv2d", |x, w| x.conv2d(w, 2, 1, 1), &[2, 3, 5, 5], &[4, 3, 3, 3]),
            ("conv2d", |x, w| x.conv2d(w, 1, 1, 3), &[2, 3, 5, 5], &[3, 1, 3, 3]),
            ("batch_norm2d_train", |x, g| x.batch_norm2d_train(g, g, 1e-5).0, &[2, 3, 2, 2], &[3]),
            ("mul", |x, w| x.mul(w), &[2, 2], &[2, 2]),
            ("relu", |_, w| w.relu(), &[1], &[2, 2]),
        ];
        let mut rng = fedzkt_tensor::seeded_rng(5);
        for (op, build, xs, ws) in cases {
            for write in ["set_value", "value_mut"] {
                let x = Var::parameter(Tensor::randn(xs, &mut rng));
                let w = Var::parameter(Tensor::randn(ws, &mut rng));
                let loss = build(&x, &w).square().sum_all();
                loss.backward();
                match write {
                    "set_value" => {
                        let moved = w.value().map(|v| v + 1.0);
                        w.set_value(moved);
                    }
                    _ => w.value_mut()[0] += 1.0,
                }
                let msg = panic_message(|| loss.backward());
                assert!(
                    msg.starts_with(&format!("{op} recorded at {}", file!())),
                    "{write}: {msg}"
                );
                assert!(msg.contains("set_value / value_mut"), "{write}: {msg}");
            }
        }
    }

    /// The guard fires only on a value the backward reads: writing an operand
    /// it does not read (`add`'s, or a weight whose `dX` is not asked for),
    /// or writing after the backward, is no error.
    #[test]
    fn the_write_guard_fires_only_on_values_the_backward_reads() {
        let x = Var::parameter(t(vec![1.0, 2.0]));
        let w = Var::parameter(t(vec![3.0, 4.0]));
        let y = x.add(&w).sum_all();
        w.set_value(t(vec![0.0, 0.0]));
        y.backward();
        assert_eq!(w.grad().unwrap().data(), &[1.0, 1.0]);

        // A constant input: dW = gᵀ·x reads x only.
        let x = Var::constant(Tensor::ones(&[3, 2]));
        let w = Var::parameter(Tensor::ones(&[1, 2]));
        let y = x.linear(&w, None).sum_all();
        w.value_mut()[0] = 5.0;
        y.backward();
        assert_eq!(w.grad().unwrap().data(), &[3.0, 3.0]);
        w.set_value(Tensor::zeros(&[1, 2]));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let x = Var::parameter(t(vec![1.0]));
        let mut y = x.clone();
        for _ in 0..20_000 {
            y = y.add_scalar(0.0);
        }
        let loss = y.sum_all();
        loss.backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0]);
    }

    /// The same for ops whose backward reads a parent through a
    /// [`ParentRef`]: dropping the chain must not nest one drop per op.
    #[test]
    fn deep_chain_of_parent_readers_does_not_overflow_stack() {
        let x = Var::parameter(Tensor::ones(&[1, 1, 1, 1]));
        let (gamma, beta) = (Var::parameter(t(vec![1.0])), Var::parameter(t(vec![0.0])));
        let (mean, var) = (t(vec![0.0]), t(vec![1.0]));
        let mut y = x.clone();
        for _ in 0..20_000 {
            y = y.batch_norm2d_eval(&gamma, &beta, &mean, &var, 0.0);
        }
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0]);
    }

    /// Whether the node behind `edge` has had its value released.
    fn released(edge: &Rc<VarInner>) -> bool {
        edge.value.borrow().is_none()
    }

    /// The tape edge `child` keeps on its `i`-th parent.
    fn edge(child: &Var, i: usize) -> Rc<VarInner> {
        Rc::clone(&child.inner.parents[i])
    }

    #[test]
    fn a_held_handle_keeps_its_value_and_the_last_one_releases_it() {
        let x = Var::parameter(t(vec![1.0, -2.0]));
        // `add_scalar`'s backward reads nothing, so only handles keep `h`.
        let h = x.scale(2.0);
        let h2 = h.clone();
        let y = h.add_scalar(1.0);
        drop(h);
        assert!(!released(&edge(&y, 0)), "a second handle still holds the value");
        assert_eq!(h2.value().data(), &[2.0, -4.0]);
        drop(h2);
        assert!(released(&edge(&y, 0)), "an unread op output outlived its handles");
        // The node itself stays on the tape: the backward routes through it.
        assert_eq!(edge(&y, 0).shape.as_ref(), &[2]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn a_reader_keeps_its_parents_value_until_it_drops() {
        let x = Var::parameter(t(vec![1.0, -2.0]));
        let h = x.scale(2.0);
        let y = h.square();
        drop(h);
        let parent = edge(&y, 0);
        assert!(!released(&parent), "square's backward reads its input");
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[8.0, -16.0]);
        // Dropping the reader (with its node) releases the value even
        // while an edge still holds the node.
        drop(y);
        assert!(released(&parent));
    }

    #[test]
    fn leaves_are_never_released() {
        let c = Var::constant(t(vec![1.0, 2.0]));
        let p = Var::parameter(t(vec![3.0, 4.0]));
        // `mul` reads `c` for `dp` and nothing for the constant's gradient,
        // so `p` has neither a reader nor, once dropped, a handle.
        let y = c.mul(&p);
        let (ce, pe) = (edge(&y, 0), edge(&y, 1));
        assert_eq!((ce.readers.get(), pe.readers.get()), (1, 0));
        drop((c, p));
        assert!(!released(&ce) && !released(&pe));
        assert_eq!(pe.value.borrow().as_ref().unwrap().data(), &[3.0, 4.0]);
    }

    #[test]
    fn backward_runs_twice_over_released_intermediates() {
        let x = Var::parameter(t(vec![0.5, -1.5]));
        let loss = x.scale(3.0).relu().add_scalar(1.0).square().sum_all();
        loss.backward();
        let once = x.grad().unwrap();
        loss.backward();
        assert_eq!(x.grad().unwrap().data(), once.map(|g| 2.0 * g).data());
    }

    #[test]
    fn reading_a_released_value_panics_naming_the_op() {
        let h = Var::parameter(t(vec![1.0])).scale(2.0);
        let reader = h.parent_ref("probe");
        // Not reachable through the public API: a reader keeps its value.
        h.inner.value.borrow_mut().take();
        let msg = panic_message(|| reader.with_value(|_| ()));
        assert!(msg.starts_with(&format!("probe recorded at {}", file!())), "{msg}");
        assert!(msg.contains("released"), "{msg}");
    }

    /// conv → batch norm (eval, then train) → ReLU6 → depthwise conv →
    /// linear. Returns the parameters, the loss and every intermediate.
    fn chain(x: &Var) -> (Vec<Var>, Var, Vec<Var>) {
        let mut rng = fedzkt_tensor::seeded_rng(17);
        let mut p = |shape: &[usize]| Var::parameter(Tensor::randn(shape, &mut rng));
        let ps = vec![
            p(&[4, 3, 3, 3]),
            p(&[4]),
            p(&[4]),
            p(&[4]),
            p(&[4]),
            p(&[4, 1, 3, 3]),
            p(&[5, 64]),
            p(&[5]),
        ];
        let (mean, var) = (Tensor::full(&[4], 0.1), Tensor::full(&[4], 2.0));
        let mut held = vec![x.conv2d(&ps[0], 1, 1, 1)];
        let last = |held: &Vec<Var>| held.last().unwrap().clone();
        held.push(last(&held).batch_norm2d_eval(&ps[1], &ps[2], &mean, &var, 1e-5));
        held.push(last(&held).batch_norm2d_train(&ps[3], &ps[4], 1e-5).0);
        held.push(last(&held).relu6());
        held.push(last(&held).conv2d(&ps[5], 2, 1, 4));
        held.push(last(&held).flatten_batch());
        held.push(last(&held).linear(&ps[6], None));
        held.push(last(&held).add_bias(&ps[7]));
        held.push(last(&held).square());
        let loss = last(&held).sum_all();
        (ps, loss, held)
    }

    /// Op outputs on `loss`'s tape whose value was released.
    fn released_on_tape(loss: &Var) -> usize {
        topo_order(&loss.inner).iter().filter(|n| released(n)).count()
    }

    /// Holding every intermediate keeps every value (the no-release
    /// oracle); dropping them releases the ones no backward reads. The
    /// gradients must not tell the two apart.
    #[test]
    fn releasing_intermediates_keeps_every_gradient_bit() {
        let bits = |t: Option<Tensor>| t.map(|t| t.data().iter().map(|v| v.to_bits()).collect());
        let run = |release: bool, frozen: bool| -> Vec<Option<Vec<u32>>> {
            let x = Var::parameter(Tensor::randn(&[2, 3, 8, 8], &mut fedzkt_tensor::seeded_rng(4)));
            let (params, loss, held) = if frozen { frozen_params(|| chain(&x)) } else { chain(&x) };
            if release {
                drop(held);
                // Live, the outputs of the depthwise conv, the linear and
                // the square go (a reshape, a bias and a sum read nothing);
                // frozen, also those of the conv, the ReLU6 and the reshape,
                // whose readers read them only for a parameter gradient.
                assert_eq!(released_on_tape(&loss), if frozen { 6 } else { 3 });
            } else {
                assert_eq!(released_on_tape(&loss), 0);
            }
            loss.backward();
            std::iter::once(&x).chain(&params).map(|v| bits(v.grad())).collect()
        };
        for threads in [1, 4] {
            fedzkt_tensor::par::set_threads(threads);
            for frozen in [false, true] {
                let oracle = run(false, frozen);
                assert!(oracle[0].is_some());
                assert!(oracle[1..].iter().all(|g| g.is_some() != frozen));
                assert_eq!(run(true, frozen), oracle, "threads={threads} frozen={frozen}");
            }
        }
        fedzkt_tensor::par::set_threads(0);
    }
}
