//! The [`Var`] type: a node in the autodiff DAG.

use fedzkt_tensor::Tensor;
use std::cell::{Cell, Ref, RefCell, RefMut};
use std::collections::HashSet;
use std::panic::Location;
use std::rc::Rc;
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
/// once the caller drops the intermediates the tape holds the activations'
/// one-byte masks and the inputs of training-mode batch norm, not every
/// op output (see [`Var`]).
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

/// A tape node: what a backward routes gradients through. The tape (a
/// child's parent list) holds nodes and never a value; see [`Var`] for
/// what holds one.
struct Node {
    id: u64,
    grad: RefCell<Option<Tensor>>,
    requires_grad: bool,
    parents: Vec<Rc<Node>>,
    backward_fn: Option<BackwardFn>,
}

impl Node {
    fn new(requires_grad: bool, parents: &[Var], backward_fn: Option<BackwardFn>) -> Node {
        Node {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            grad: RefCell::new(None),
            requires_grad,
            // A fresh list, not `parents` collected in place: that would
            // keep its allocation, twice the size of the edges.
            parents: parents.iter().map(|p| Rc::clone(&p.node)).collect(),
            backward_fn,
        }
    }
}

impl Drop for Node {
    /// Iterative teardown of the parent chain. A deep tape (tens of
    /// thousands of nodes) dropped naively would recurse through `Rc` drops
    /// and overflow the stack; instead we steal each uniquely-owned
    /// parent's list and drain a worklist. A backward closure holds
    /// [`Value`]s only, never a node, so dropping one nests no drops.
    fn drop(&mut self) {
        let mut stack = std::mem::take(&mut self.parents);
        while let Some(node) = stack.pop() {
            if let Some(mut node) = Rc::into_inner(node) {
                stack.append(&mut node.parents);
            }
        }
    }
}

/// A node's value. Only a [`Var`] handle or a [`ParentRef`] holds it, never
/// the tape (see [`Var`]).
struct Value {
    tensor: RefCell<Tensor>,
    /// Bumped by every write ([`Var::set_value`], [`Var::value_mut`]); a
    /// [`ParentRef`] compares it with the version it was recorded at.
    version: Cell<u64>,
}

impl Value {
    fn new(tensor: Tensor) -> Rc<Value> {
        Rc::new(Value { tensor: RefCell::new(tensor), version: Cell::new(0) })
    }
}

/// A reader of a value an op's backward reads, a parent's or the op's own
/// output's, held by the backward closure to read that value in place of
/// a copy.
///
/// **The rule.** No backward closure keeps a copy of a value: every op
/// whose backward reads one (a product's operand, a conv's input or
/// weights, batch norm's input and `γ`; the output of `tanh`, `sigmoid`,
/// `exp` and `softmax`, see [`Var::from_op_reading_output`]) reads it
/// through a `ParentRef`, and takes one only for the gradient that reads
/// it: `dW` reads the input and `dX` the weights, so a frozen forward
/// holds no input and a constant input no weights. An activation (`relu`,
/// `relu6`, `leaky_relu`) reads no value at all: its forward writes a
/// one-byte mask of where the gradient passes, and the backward reads that.
///
/// **What it keeps.** A reader holds a [`Value`], not a node: the op's
/// parent list holds those (see [`Var`]).
///
/// **The guard.** Reading in place is only right while the value is still
/// the one the forward used. A reader records the value's write version
/// when the op is recorded, and [`ParentRef::with_value`] panics, naming
/// the op and where it was recorded, if the value has been written since —
/// by [`Var::set_value`] or [`Var::value_mut`], as an optimizer step or
/// loading a state dict does. Without the guard such a backward would
/// silently differentiate against the new weights.
pub(crate) struct ParentRef {
    value: Rc<Value>,
    version: u64,
    op: &'static str,
    site: &'static Location<'static>,
}

impl ParentRef {
    #[track_caller]
    fn new(value: &Rc<Value>, op: &'static str) -> ParentRef {
        let site = Location::caller();
        ParentRef { value: Rc::clone(value), version: value.version.get(), op, site }
    }

    /// Run `f` on the value read.
    ///
    /// # Panics
    /// Panics if the value was written after the op was recorded
    /// (see the type's docs).
    pub(crate) fn with_value<T>(&self, f: impl FnOnce(&Tensor) -> T) -> T {
        assert!(
            self.value.version.get() == self.version,
            "{} recorded at {}: a value its backward reads was written (set_value / \
             value_mut, e.g. an optimizer step or load_state_dict) between the forward and \
             this backward, which would differentiate against the new value",
            self.op,
            self.site,
        );
        f(&self.value.tensor.borrow())
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

/// A tensor-valued node in the reverse-mode autodiff DAG.
///
/// `Var` is a cheap handle; cloning shares the node and its value. There
/// are three kinds of nodes:
///
/// * [`Var::constant`] — data that never receives a gradient (inputs,
///   labels, detached teacher outputs);
/// * [`Var::parameter`] — trainable leaves whose `.grad()` is filled in by
///   [`Var::backward`] and consumed by optimizers;
/// * op outputs — created by the methods in this crate, which record how to
///   route gradients back to their parents.
///
/// **What keeps what.** A handle owns its node and its value. The tape
/// holds nodes only, so a backward still routes gradients through a node
/// nobody holds, and a value lives exactly while a handle or a backward
/// reader ([`ParentRef`]) holds it: `Rc` drops it with the last one. An
/// activation holds no reader, only its one-byte mask. An intermediate or
/// a constant that no backward reads (a batch norm's output feeding a
/// ReLU, say) is thus freed when the caller drops its last handle, not
/// when the graph drops.
#[derive(Clone)]
pub struct Var {
    node: Rc<Node>,
    value: Rc<Value>,
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.node.id)
            .field("shape", &self.shape())
            .field("requires_grad", &self.node.requires_grad)
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
            node: Rc::new(Node::new(requires_grad, &parents, backward_fn)),
            value: Value::new(value),
        }
    }

    /// Whether an op on these parents is recorded: gradients are enabled
    /// ([`no_grad`]) and some parent requires one.
    pub(crate) fn records(parents: &[Var]) -> bool {
        grad_enabled() && parents.iter().any(|p| p.node.requires_grad)
    }

    /// Create an op-output node. Falls back to a constant when the op is
    /// not recorded ([`Var::records`]), so dead tape is never allocated.
    pub(crate) fn from_op(
        value: Tensor,
        parents: Vec<Var>,
        backward_fn: impl Fn(&Tensor) -> Vec<Option<Tensor>> + 'static,
    ) -> Var {
        if !Var::records(&parents) {
            return Var::constant(value);
        }
        Var::new(value, true, parents, Some(Box::new(backward_fn)))
    }

    /// [`Var::from_op`] for a backward that reads the op's own output:
    /// `backward_fn(g, y)` gets the output `y` through a [`ParentRef`] on
    /// this node's value, so the closure keeps no copy of it, and an op
    /// that is not recorded builds no reader. The guard names `op` and the
    /// caller's source location.
    #[track_caller]
    pub(crate) fn from_op_reading_output(
        value: Tensor,
        parents: Vec<Var>,
        op: &'static str,
        backward_fn: impl Fn(&Tensor, &Tensor) -> Vec<Option<Tensor>> + 'static,
    ) -> Var {
        if !Var::records(&parents) {
            return Var::constant(value);
        }
        let value = Value::new(value);
        let y = ParentRef::new(&value, op);
        let backward: BackwardFn = Box::new(move |g| y.with_value(|y| backward_fn(g, y)));
        Var { node: Rc::new(Node::new(true, &parents, Some(backward))), value }
    }

    /// Stable identity of this node (used as a key by optimizers).
    pub fn id(&self) -> u64 {
        self.node.id
    }

    /// Whether gradients flow into this node.
    ///
    /// This is a property of the node and does not change inside a
    /// [`frozen_params`] scope; there, ops additionally ignore it for leaves
    /// in their parameter operands (see the scope's docs).
    pub fn requires_grad(&self) -> bool {
        self.node.requires_grad
    }

    /// [`Var::requires_grad`] for an op's parameter operand (weight, bias,
    /// γ, β): false for a leaf inside a [`frozen_params`] scope.
    pub(crate) fn param_requires_grad(&self) -> bool {
        let frozen = self.node.backward_fn.is_none() && FROZEN_PARAMS_DEPTH.with(Cell::get) > 0;
        self.node.requires_grad && !frozen
    }

    /// Borrow the node's value.
    ///
    /// # Panics
    /// Panics if a [`Var::value_mut`] guard on it is live.
    pub fn value(&self) -> Ref<'_, Tensor> {
        self.value.tensor.borrow()
    }

    /// Clone the node's value out of the tape.
    pub fn value_clone(&self) -> Tensor {
        self.value().clone()
    }

    /// A reader through which the backward closure of `op` reads this node,
    /// one of the op's parents, without copying its value (see
    /// [`ParentRef`]). The reader keeps this node's value alive while it
    /// lives, and names `op` and the caller's source location in its
    /// guard's panic.
    #[track_caller]
    pub(crate) fn parent_ref(&self, op: &'static str) -> ParentRef {
        ParentRef::new(&self.value, op)
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

    /// Mark the value as written: a reader taken before this no longer
    /// reads.
    fn bump_version(&self) {
        self.value.version.set(self.value.version.get().wrapping_add(1));
    }

    /// Shape of the node's value.
    ///
    /// # Panics
    /// Reads the value, so it panics while a [`Var::value_mut`] guard on
    /// this node is live.
    pub fn shape(&self) -> Vec<usize> {
        self.value().shape().to_vec()
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
        let mut slot = self.value.tensor.borrow_mut();
        assert_eq!(slot.shape(), value.shape(), "set_value must preserve the parameter shape");
        *slot = value;
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
        let slot = self.value.tensor.borrow_mut();
        self.bump_version();
        RefMut::map(slot, Tensor::data_mut)
    }

    /// The gradient accumulated by the last [`Var::backward`] call, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.node.grad.borrow().clone()
    }

    /// Borrow the accumulated gradient in place of [`Var::grad`]'s copy.
    ///
    /// # Panics
    /// Panics if a backward pass is accumulating into this node.
    pub fn grad_ref(&self) -> Ref<'_, Option<Tensor>> {
        self.node.grad.borrow()
    }

    /// Clear this node's accumulated gradient.
    pub fn zero_grad(&self) {
        *self.node.grad.borrow_mut() = None;
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
        accumulate(&self.node, seed);
        for node in topo_order(&self.node) {
            let Some(backward_fn) = &node.backward_fn else { continue };
            // Intermediate gradients are consumed; only leaves accumulate
            // across backward calls (PyTorch semantics — optimizers read
            // leaf grads, probes read input-leaf grads).
            let Some(grad) = node.grad.borrow_mut().take() else { continue };
            let parent_grads = backward_fn(&grad);
            debug_assert_eq!(parent_grads.len(), node.parents.len());
            for (parent, pg) in node.parents.iter().zip(parent_grads) {
                if let Some(pg) = pg {
                    if parent.requires_grad {
                        accumulate(parent, pg);
                    }
                }
            }
        }
    }
}

fn accumulate(node: &Node, grad: Tensor) {
    let mut slot = node.grad.borrow_mut();
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
/// subgraph. It walks tape edges, which hold nodes and no values.
fn topo_order(root: &Rc<Node>) -> Vec<Rc<Node>> {
    let mut order = Vec::new();
    let mut visited: HashSet<u64> = HashSet::new();
    // Iterative post-order DFS; deep nets would overflow a recursive walk.
    let mut stack: Vec<(Rc<Node>, usize)> = vec![(Rc::clone(root), 0)];
    while let Some((node, child_idx)) = stack.pop() {
        if child_idx == 0 {
            if visited.contains(&node.id) {
                continue;
            }
            visited.insert(node.id);
        }
        if let Some(parent) = node.parents.get(child_idx) {
            let parent = Rc::clone(parent);
            stack.push((node, child_idx + 1));
            if !visited.contains(&parent.id) && parent.requires_grad {
                stack.push((parent, 0));
            }
        } else {
            order.push(node);
        }
    }
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_tensor::Tensor;
    use std::rc::Weak;

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
    /// through `set_value` or `value_mut`, to a weight, a batch-norm `γ`, a
    /// product's operand — makes the backward panic, naming the op and the
    /// line that recorded it, instead of differentiating against the new
    /// value.
    #[test]
    fn writing_an_operand_before_its_backward_panics_naming_the_op() {
        type Case = (&'static str, fn(&Var, &Var) -> Var, &'static [usize], &'static [usize]);
        let cases: [Case; 6] = [
            ("linear", |x, w| x.linear(w, None), &[2, 3], &[4, 3]),
            ("conv2d", |x, w| x.conv2d(w, 1, 1, 1), &[2, 3, 5, 5], &[4, 3, 3, 3]),
            ("conv2d", |x, w| x.conv2d(w, 2, 1, 1), &[2, 3, 5, 5], &[4, 3, 3, 3]),
            ("conv2d", |x, w| x.conv2d(w, 1, 1, 3), &[2, 3, 5, 5], &[3, 1, 3, 3]),
            ("batch_norm2d_train", |x, g| x.batch_norm2d_train(g, g, 1e-5).0, &[2, 3, 2, 2], &[3]),
            ("mul", |x, w| x.mul(w), &[2, 2], &[2, 2]),
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

    type Unary = (&'static str, fn(&Var) -> Var);

    /// The same for a write to the output of an op whose backward reads
    /// that output.
    #[test]
    fn writing_an_output_its_backward_reads_panics_naming_the_op() {
        let cases: [Unary; 4] = [
            ("tanh", |x| x.tanh()),
            ("sigmoid", |x| x.sigmoid()),
            ("exp", |x| x.exp()),
            ("softmax", |x| x.softmax()),
        ];
        for (op, build) in cases {
            let x = Var::parameter(Tensor::randn(&[2, 3], &mut fedzkt_tensor::seeded_rng(6)));
            let y = build(&x);
            // `sum_all` reads nothing, so only `op`'s reader sees the write.
            let loss = y.sum_all();
            y.value_mut()[0] += 1.0;
            let msg = panic_message(|| loss.backward());
            assert!(msg.starts_with(&format!("{op} recorded at {}", file!())), "{msg}");
        }
    }

    /// An activation's backward reads the mask its forward wrote, not its
    /// input: writing the input between the two changes no gradient bit.
    #[test]
    fn writing_an_activations_input_before_its_backward_keeps_its_gradient() {
        let cases: [Unary; 3] =
            [("relu", Var::relu), ("relu6", Var::relu6), ("leaky_relu", |x| x.leaky_relu(0.2))];
        for (op, build) in cases {
            let dx = |write: bool| {
                let data = vec![-1.5, 0.0, 0.5, 3.0, 6.0, 7.5, -0.0, 2.0];
                let x = Var::parameter(t(data));
                let loss = build(&x).square().sum_all();
                if write {
                    x.value_mut().iter_mut().for_each(|v| *v = 3.0 - *v);
                    let negated = x.value().map(|v| -v);
                    x.set_value(negated);
                }
                loss.backward();
                x.grad().unwrap().data().iter().map(|g| g.to_bits()).collect::<Vec<u32>>()
            };
            assert_eq!(dx(true), dx(false), "{op}");
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

    /// A test-only watch on `v`'s value that does not keep it alive.
    fn watch(v: &Var) -> Weak<Value> {
        Rc::downgrade(&v.value)
    }

    fn alive(value: &Weak<Value>) -> bool {
        value.strong_count() > 0
    }

    #[test]
    fn a_held_handle_keeps_its_value_and_the_last_one_releases_it() {
        let x = Var::parameter(t(vec![1.0, -2.0]));
        // `add_scalar`'s backward reads nothing, so only handles keep `h`.
        let h = x.scale(2.0);
        let value = watch(&h);
        let h2 = h.clone();
        let y = h.add_scalar(1.0);
        drop(h);
        assert!(alive(&value), "a second handle still holds the value");
        assert_eq!(h2.value().data(), &[2.0, -4.0]);
        drop(h2);
        assert!(!alive(&value), "an unread op output outlived its handles");
        // The node itself stays on the tape: the backward routes through it.
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn a_reader_keeps_its_parents_value_until_it_drops() {
        let x = Var::parameter(t(vec![1.0, -2.0]));
        let h = x.scale(2.0);
        let value = watch(&h);
        let y = h.square();
        drop(h);
        assert!(alive(&value), "square's backward reads its input");
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[8.0, -16.0]);
        // Dropping the reader (with its node) releases the value.
        drop(y);
        assert!(!alive(&value));
    }

    #[test]
    fn a_leaf_lives_while_a_handle_or_a_reader_does() {
        let c = Var::constant(t(vec![1.0, 2.0]));
        let p = Var::parameter(t(vec![3.0, 4.0]));
        let (cv, pv) = (watch(&c), watch(&p));
        // `mul` reads `c` for `dp` and nothing for the constant's gradient,
        // so `p` has no reader.
        let y = c.mul(&p).sum_all();
        drop(c);
        assert!(alive(&cv), "mul's backward reads the constant");
        let p2 = p.clone();
        drop(p);
        assert!(alive(&pv), "a second handle still holds the parameter");
        drop(p2);
        assert!(!alive(&pv), "an unread leaf outlived its handles");
        y.backward();
        drop(y);
        assert!(!alive(&cv), "a leaf outlived its last reader");
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

    /// Holding every intermediate keeps every value (the no-release
    /// oracle); dropping them releases the ones no backward reads. The
    /// gradients must not tell the two apart.
    #[test]
    fn releasing_intermediates_keeps_every_gradient_bit() {
        let bits = |t: Option<Tensor>| t.map(|t| t.data().iter().map(|v| v.to_bits()).collect());
        let run = |release: bool, frozen: bool| -> Vec<Option<Vec<u32>>> {
            let x = Var::parameter(Tensor::randn(&[2, 3, 8, 8], &mut fedzkt_tensor::seeded_rng(4)));
            let (params, loss, held) = if frozen { frozen_params(|| chain(&x)) } else { chain(&x) };
            let values: Vec<_> = held.iter().map(watch).collect();
            let released = || values.iter().filter(|v| !alive(v)).count();
            if release {
                drop(held);
                // Live, the outputs of the training-mode batch norm, the
                // depthwise conv, the linear and the square go (a ReLU6
                // reads its mask, and a reshape, a bias and a sum read
                // nothing); frozen, also those of the conv, the ReLU6 and
                // the reshape, whose readers read them only for a parameter
                // gradient.
                assert_eq!(released(), if frozen { 7 } else { 4 });
            } else {
                assert_eq!(released(), 0);
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
