//! Statically-shaped layer fronts over the dynamic layer set.
//!
//! [`TypedLinear`] and the width-tagged activation token [`Feat`], built on
//! `fedzkt_tensor::typed`: a dense layer whose feature widths are const
//! generics, so **chaining two layers whose widths disagree is a compile
//! error** (`fedzkt_models::typed::TypedMlp` wires its dense stack through
//! these), and whose three GEMMs enter the kernel dispatch below the
//! runtime shape guards. Opt-in: the dynamic [`Linear`] never routes here.
//!
//! Everything here is bit-identical to the dynamic path by construction —
//! same kernels, same `(m, k, n)`, same order.

use crate::layers::Linear;
use crate::module::Module;
use fedzkt_autograd::Var;
use fedzkt_tensor::Prng;

/// A rank-2 activation `[batch, D]` whose feature width is part of the
/// type. The thin token that makes mis-chained [`TypedLinear`] layers a
/// compile error: `TypedLinear<A, B>` maps `Feat<A> -> Feat<B>`.
#[derive(Clone)]
pub struct Feat<const D: usize> {
    var: Var,
}

impl<const D: usize> Feat<D> {
    /// Tag `var` with its feature width.
    ///
    /// # Panics
    /// If `var` is not `[batch, D]` — the one boundary check; everything
    /// downstream relies on the tag.
    pub fn new(var: Var) -> Self {
        let s = var.shape();
        assert!(
            s.len() == 2 && s[1] == D,
            "Feat<{D}>: activation shape {s:?}, expected [batch, {D}]"
        );
        Feat { var }
    }

    /// The underlying autograd node.
    pub fn var(&self) -> &Var {
        &self.var
    }

    /// Unwrap back into the dynamic world.
    pub fn into_var(self) -> Var {
        self.var
    }

    /// Width-preserving ReLU.
    pub fn relu(&self) -> Self {
        Feat { var: self.var.relu() }
    }

    /// Width-preserving leaky ReLU.
    pub fn leaky_relu(&self, slope: f32) -> Self {
        Feat { var: self.var.leaky_relu(slope) }
    }
}

/// [`Linear`] with const-generic feature widths: `Feat<IN> -> Feat<OUT>`.
///
/// Wraps a plain [`Linear`] (identical parameter shapes, identical RNG
/// consumption at construction, interchangeable state dicts) and forwards
/// through [`Var::linear_typed`]. As a [`Module`] it still accepts a
/// dynamic `Var`, checking the width once at the boundary.
pub struct TypedLinear<const IN: usize, const OUT: usize> {
    inner: Linear,
}

impl<const IN: usize, const OUT: usize> TypedLinear<IN, OUT> {
    /// Create the layer (Glorot-uniform weights, zero bias) — consumes the
    /// RNG exactly like `Linear::new(IN, OUT, bias, rng)`, so typed and
    /// dynamic builders stay weight-identical under the same seed.
    pub fn new(bias: bool, rng: &mut Prng) -> Self {
        TypedLinear { inner: Linear::new(IN, OUT, bias, rng) }
    }

    /// Adopt an existing dynamic layer (e.g. one loaded from a state
    /// dict).
    ///
    /// # Panics
    /// If `inner` is not an `IN -> OUT` layer.
    pub fn from_linear(inner: Linear) -> Self {
        assert!(
            inner.in_features() == IN && inner.out_features() == OUT,
            "TypedLinear<{IN}, {OUT}>: wrapped layer is {} -> {}",
            inner.in_features(),
            inner.out_features()
        );
        TypedLinear { inner }
    }

    /// The wrapped dynamic layer.
    pub fn as_linear(&self) -> &Linear {
        &self.inner
    }

    /// Width-checked forward: the only shapes involved are in the types.
    pub fn forward_typed(&self, x: &Feat<IN>) -> Feat<OUT> {
        Feat { var: x.var().linear_typed::<IN, OUT>(self.inner.weight(), self.inner.bias_param()) }
    }
}

impl<const IN: usize, const OUT: usize> Module for TypedLinear<IN, OUT> {
    fn forward(&self, x: &Var) -> Var {
        self.forward_typed(&Feat::new(x.clone())).into_var()
    }

    fn params(&self) -> Vec<Var> {
        self.inner.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_tensor::{seeded_rng, Tensor};

    fn bits(v: &Var) -> Vec<u32> {
        v.value().data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn typed_linear_weight_identical_to_dynamic_under_same_seed() {
        let t = TypedLinear::<5, 3>::new(true, &mut seeded_rng(4));
        let d = Linear::new(5, 3, true, &mut seeded_rng(4));
        assert_eq!(t.as_linear().weight().value().data(), d.weight().value().data());
    }

    #[test]
    fn typed_linear_forward_bit_identical_to_dynamic() {
        let mut rng = seeded_rng(5);
        let t = TypedLinear::<6, 2>::new(true, &mut rng);
        let x = Var::constant(Tensor::randn(&[7, 6], &mut rng));
        let typed_y = t.forward_typed(&Feat::new(x.clone())).into_var();
        let dyn_y = x.linear(t.as_linear().weight(), t.as_linear().bias_param());
        assert_eq!(bits(&typed_y), bits(&dyn_y));
    }

    #[test]
    #[should_panic(expected = "Feat<4>")]
    fn feat_rejects_wrong_width() {
        let _ = Feat::<4>::new(Var::constant(Tensor::zeros(&[2, 5])));
    }

    #[test]
    fn from_linear_round_trips_and_checks() {
        let mut rng = seeded_rng(7);
        let t = TypedLinear::<3, 2>::from_linear(Linear::new(3, 2, false, &mut rng));
        assert_eq!(t.params().len(), 1);
        let y = t.forward(&Var::constant(Tensor::zeros(&[4, 3])));
        assert_eq!(y.shape(), vec![4, 2]);
    }

    #[test]
    #[should_panic(expected = "TypedLinear<3, 2>")]
    fn from_linear_rejects_mismatched_widths() {
        let mut rng = seeded_rng(8);
        let _ = TypedLinear::<3, 2>::from_linear(Linear::new(2, 3, false, &mut rng));
    }
}
