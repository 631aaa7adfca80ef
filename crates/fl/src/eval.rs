//! Model evaluation helpers.

use fedzkt_autograd::{no_grad, Var};
use fedzkt_data::Dataset;
use fedzkt_nn::Module;

/// Fraction of correctly classified samples in `predictions` vs `labels`.
///
/// # Panics
/// Panics when lengths differ.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    assert_eq!(predictions.len(), labels.len(), "prediction/label length mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let correct = predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f32 / labels.len() as f32
}

/// Test-set accuracy of a classifier, evaluated in eval mode (batch-norm
/// running statistics) without building autograd tape.
///
/// Restores the module to training mode before returning.
///
/// # Panics
/// Panics when `batch_size` is 0.
pub fn evaluate(model: &dyn Module, data: &Dataset, batch_size: usize) -> f32 {
    assert!(batch_size > 0, "batch size must be positive");
    if data.is_empty() {
        return 0.0;
    }
    model.set_training(false);
    let mut correct = 0usize;
    no_grad(|| {
        let n = data.len();
        let mut start = 0usize;
        while start < n {
            let end = (start + batch_size).min(n);
            let indices: Vec<usize> = (start..end).collect();
            let (x, y) = data.batch(&indices);
            let logits = model.forward(&Var::constant(x));
            let preds = logits.value().argmax_rows().expect("logit matrix");
            correct += preds.iter().zip(&y).filter(|(p, l)| p == l).count();
            start = end;
        }
    });
    model.set_training(true);
    correct as f32 / data.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_models::ModelSpec;
    use fedzkt_tensor::Tensor;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn evaluate_runs_and_restores_training_mode() {
        let model = ModelSpec::SmallCnn { base_channels: 2 }.build(1, 2, 8, 1);
        let images = Tensor::zeros(&[6, 1, 8, 8]);
        let data = Dataset::new(images, vec![0, 1, 0, 1, 0, 1], 2);
        let acc = evaluate(model.as_ref(), &data, 4);
        assert!((0.0..=1.0).contains(&acc));
        // Training mode restored: BN stats move on the next forward.
        let before = model.buffers()[0].get();
        let _ = model.forward(&fedzkt_autograd::Var::constant(Tensor::ones(&[2, 1, 8, 8])));
        assert_ne!(before, model.buffers()[0].get());
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn evaluate_rejects_a_zero_batch() {
        let model = ModelSpec::Mlp { hidden: 4 }.build(1, 2, 8, 1);
        let data = Dataset::new(Tensor::zeros(&[2, 1, 8, 8]), vec![0, 1], 2);
        evaluate(model.as_ref(), &data, 0);
    }

    #[test]
    fn evaluate_empty_dataset_is_zero() {
        let model = ModelSpec::Mlp { hidden: 4 }.build(1, 2, 8, 1);
        let data = Dataset::new(Tensor::zeros(&[0, 1, 8, 8]), vec![], 2);
        assert_eq!(evaluate(model.as_ref(), &data, 4), 0.0);
    }
}
