//! The [`Var`] type: a node in the autodiff DAG.

use fedzkt_tensor::Tensor;
use std::cell::{Cell, Ref, RefCell, RefMut};
use std::collections::HashSet;
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

pub(crate) struct VarInner {
    id: u64,
    value: RefCell<Tensor>,
    grad: RefCell<Option<Tensor>>,
    requires_grad: bool,
    parents: Vec<Var>,
    backward_fn: Option<BackwardFn>,
}

impl Drop for VarInner {
    /// Iterative teardown of the parent chain. A deep tape (tens of
    /// thousands of nodes) dropped naively would recurse through `Rc` drops
    /// and overflow the stack; instead we steal each uniquely-owned
    /// parent's list and drain a worklist.
    fn drop(&mut self) {
        let mut stack = std::mem::take(&mut self.parents);
        while let Some(var) = stack.pop() {
            let Var { inner } = var;
            if let Some(mut inner) = Rc::into_inner(inner) {
                stack.append(&mut inner.parents);
            }
        }
    }
}

/// A non-owning handle on an op's parent, held by the op's backward
/// closure to read the parent's value in place of a copy.
///
/// The node's own parent list keeps the parent alive for as long as the
/// closure can run. Not owning it keeps teardown iterative: dropping the
/// closure never drops a parent, so a long chain of such ops is torn down
/// by [`VarInner`]'s loop rather than by nested drops.
pub(crate) struct ParentRef(Weak<VarInner>);

impl ParentRef {
    /// Run `f` on the parent's value.
    ///
    /// # Panics
    /// Panics if the parent is gone, which cannot happen while the node
    /// whose closure holds this handle is alive.
    pub(crate) fn with_value<T>(&self, f: impl FnOnce(&Tensor) -> T) -> T {
        let parent = self.0.upgrade().expect("a node's parents outlive its backward closure");
        let value = parent.value.borrow();
        f(&value)
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
#[derive(Clone)]
pub struct Var {
    inner: Rc<VarInner>,
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
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad,
                parents,
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
        self.inner.value.borrow()
    }

    /// Clone the node's value out of the tape.
    pub fn value_clone(&self) -> Tensor {
        self.inner.value.borrow().clone()
    }

    /// A handle through which a backward closure of an op reads this node,
    /// one of the op's parents, without copying its value (see
    /// [`ParentRef`]).
    pub(crate) fn parent_ref(&self) -> ParentRef {
        ParentRef(Rc::downgrade(&self.inner))
    }

    /// Shape of the node's value.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.value.borrow().shape().to_vec()
    }

    /// Replace the value in place (optimizer step on a parameter).
    ///
    /// # Panics
    /// Panics when the new value's shape differs from the old one — a
    /// parameter's geometry is fixed at construction.
    pub fn set_value(&self, value: Tensor) {
        let mut slot = self.inner.value.borrow_mut();
        assert_eq!(
            slot.shape(),
            value.shape(),
            "set_value must preserve the parameter shape"
        );
        *slot = value;
    }

    /// The node's value as a mutable slice, for in-place updates (an
    /// optimizer step, loading a state dict); the shape cannot change
    /// through it.
    ///
    /// # Panics
    /// Panics if the value is borrowed elsewhere.
    pub fn value_mut(&self) -> RefMut<'_, [f32]> {
        RefMut::map(self.inner.value.borrow_mut(), Tensor::data_mut)
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
        let order = topo_order(self);
        for var in order {
            let inner = &var.inner;
            let Some(backward_fn) = &inner.backward_fn else { continue };
            // Intermediate gradients are consumed; only leaves accumulate
            // across backward calls (PyTorch semantics — optimizers read
            // leaf grads, probes read input-leaf grads).
            let Some(grad) = inner.grad.borrow_mut().take() else { continue };
            let parent_grads = backward_fn(&grad);
            debug_assert_eq!(parent_grads.len(), inner.parents.len());
            for (parent, pg) in inner.parents.iter().zip(parent_grads) {
                if let Some(pg) = pg {
                    if parent.inner.requires_grad {
                        accumulate(&parent.inner, pg);
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

/// Reverse topological order (output first) over the grad-requiring subgraph.
fn topo_order(root: &Var) -> Vec<Var> {
    let mut order = Vec::new();
    let mut visited: HashSet<u64> = HashSet::new();
    // Iterative post-order DFS; deep nets would overflow a recursive walk.
    let mut stack: Vec<(Var, usize)> = vec![(root.clone(), 0)];
    while let Some((var, child_idx)) = stack.pop() {
        if child_idx == 0 {
            if visited.contains(&var.inner.id) {
                continue;
            }
            visited.insert(var.inner.id);
        }
        let parents = &var.inner.parents;
        if let Some(parent) = parents.get(child_idx) {
            let parent = parent.clone();
            stack.push((var, child_idx + 1));
            if !visited.contains(&parent.inner.id) && parent.inner.requires_grad {
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
}
