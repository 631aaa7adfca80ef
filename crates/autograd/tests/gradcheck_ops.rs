//! Finite-difference validation of every differentiable op against its
//! analytic backward pass. This is the correctness bedrock of the whole
//! reproduction: if these pass, training dynamics match the math in the
//! paper up to floating-point error.

use fedzkt_autograd::loss::{cross_entropy, kl_div_probs, l2_penalty, mse};
use fedzkt_autograd::{check_gradients, DistillLoss, Var};
use fedzkt_tensor::{seeded_rng, Tensor};

fn randn(shape: &[usize], seed: u64) -> Tensor {
    Tensor::randn(shape, &mut seeded_rng(seed))
}

#[test]
fn grad_add_sub_mul() {
    let x = randn(&[2, 3], 1);
    let other = randn(&[2, 3], 2);
    check_gradients(
        "add",
        |v| v.add(&Var::constant(other.clone())).sum_all(),
        &x,
        1e-2,
    );
    check_gradients(
        "sub",
        |v| Var::constant(other.clone()).sub(v).square().sum_all(),
        &x,
        1e-2,
    );
    check_gradients(
        "mul",
        |v| v.mul(&Var::constant(other.clone())).sum_all(),
        &x,
        1e-2,
    );
    check_gradients("mul_self", |v| v.mul(v).sum_all(), &x, 1e-2);
}

#[test]
fn grad_scale_abs_square_exp_ln() {
    // Keep |x| away from 0 so abs is differentiable at every probe point.
    let x = randn(&[7], 3).map(|v| v.signum() * (v.abs() + 0.5));
    check_gradients("scale", |v| v.scale(-2.5).sum_all(), &x, 1e-2);
    check_gradients("abs", |v| v.abs().sum_all(), &x, 1e-2);
    check_gradients("square", |v| v.square().sum_all(), &x, 1e-2);
    check_gradients("exp", |v| v.exp().sum_all(), &x, 1e-2);
    let pos = x.map(|v| v.abs() + 0.5);
    check_gradients("ln_eps", |v| v.ln_eps(1e-6).sum_all(), &pos, 1e-2);
}

#[test]
fn grad_activations() {
    // Offsets keep probe points away from the ReLU kinks.
    let x = randn(&[2, 5], 4).map(|v| v * 2.0 + 0.13);
    check_gradients("relu", |v| v.relu().square().sum_all(), &x, 1e-2);
    check_gradients("leaky_relu", |v| v.leaky_relu(0.2).square().sum_all(), &x, 1e-2);
    check_gradients("relu6", |v| v.relu6().square().sum_all(), &x, 1e-2);
    check_gradients("tanh", |v| v.tanh().sum_all(), &x, 1e-2);
    check_gradients("sigmoid", |v| v.sigmoid().sum_all(), &x, 1e-2);
}

#[test]
fn grad_softmax_and_log_softmax() {
    let x = randn(&[3, 4], 5);
    let w = randn(&[3, 4], 6);
    check_gradients(
        "softmax",
        |v| v.softmax().mul(&Var::constant(w.clone())).sum_all(),
        &x,
        1.5e-2,
    );
    check_gradients(
        "log_softmax",
        |v| v.log_softmax().mul(&Var::constant(w.clone())).sum_all(),
        &x,
        1.5e-2,
    );
}

#[test]
fn grad_matmul_and_linear() {
    let x = randn(&[3, 4], 7);
    let w = randn(&[2, 4], 8);
    let b = randn(&[2], 9);
    check_gradients(
        "matmul_lhs",
        |v| v.matmul(&Var::constant(w.clone().transpose2d().unwrap())).sum_all(),
        &x,
        1e-2,
    );
    check_gradients(
        "matmul_rhs",
        |v| Var::constant(x.clone()).matmul(&v.reshape(&[4, 2])).square().sum_all(),
        &randn(&[8], 10),
        1e-2,
    );
    check_gradients(
        "linear_weight",
        |v| {
            Var::constant(x.clone())
                .linear(&v.reshape(&[2, 4]), Some(&Var::constant(b.clone())))
                .square()
                .sum_all()
        },
        &randn(&[8], 11),
        1e-2,
    );
    check_gradients(
        "linear_bias",
        |v| {
            Var::constant(x.clone())
                .linear(&Var::constant(w.clone()), Some(v))
                .square()
                .sum_all()
        },
        &b,
        1e-2,
    );
}

#[test]
fn grad_conv2d_input_and_weight() {
    let x = randn(&[2, 2, 5, 5], 12);
    let w = randn(&[3, 2, 3, 3], 13).mul_scalar(0.5);
    check_gradients(
        "conv2d_input",
        |v| v.conv2d(&Var::constant(w.clone()), 1, 1, 1).square().sum_all(),
        &x,
        2e-2,
    );
    check_gradients(
        "conv2d_weight",
        |v| {
            Var::constant(x.clone())
                .conv2d(&v.reshape(&[3, 2, 3, 3]), 2, 1, 1)
                .square()
                .sum_all()
        },
        &w.reshape(&[54]).unwrap(),
        2e-2,
    );
}

#[test]
fn grad_conv2d_grouped_depthwise() {
    let x = randn(&[1, 4, 4, 4], 14);
    let wg = randn(&[4, 2, 3, 3], 15).mul_scalar(0.5);
    check_gradients(
        "grouped_conv_input",
        |v| v.conv2d(&Var::constant(wg.clone()), 1, 1, 2).square().sum_all(),
        &x,
        2e-2,
    );
    let wd = randn(&[4, 1, 3, 3], 16).mul_scalar(0.5);
    check_gradients(
        "depthwise_conv_weight",
        |v| {
            Var::constant(x.clone())
                .conv2d(&v.reshape(&[4, 1, 3, 3]), 1, 1, 4)
                .square()
                .sum_all()
        },
        &wd.reshape(&[36]).unwrap(),
        2e-2,
    );
}

/// The direct depthwise kernels off their easy case: stride 2 (four phase
/// planes, one of them tap-free rows/columns short) with no padding on a
/// non-square plane, input and weight gradients both.
#[test]
fn grad_depthwise_stride2_pad0() {
    let x = randn(&[2, 3, 6, 5], 40);
    let w = randn(&[3, 1, 3, 3], 41).mul_scalar(0.5);
    check_gradients(
        "depthwise_s2p0_input",
        |v| v.conv2d(&Var::constant(w.clone()), 2, 0, 3).square().sum_all(),
        &x,
        2e-2,
    );
    check_gradients(
        "depthwise_s2p0_weight",
        |v| {
            Var::constant(x.clone())
                .conv2d(&v.reshape(&[3, 1, 3, 3]), 2, 0, 3)
                .square()
                .sum_all()
        },
        &w.reshape(&[27]).unwrap(),
        2e-2,
    );
}

/// The padded path off its easy case: a LeNet-style 5×5 kernel with
/// padding 2 on a non-square plane narrower than the padded pitch is wide
/// (pitch-layout gap columns on every output row), input and weight
/// gradients both.
#[test]
fn grad_conv2d_padded_5x5_pad2() {
    let x = randn(&[2, 2, 6, 5], 42);
    let w = randn(&[3, 2, 5, 5], 43).mul_scalar(0.3);
    check_gradients(
        "padded_5x5p2_input",
        |v| v.conv2d(&Var::constant(w.clone()), 1, 2, 1).square().sum_all(),
        &x,
        2e-2,
    );
    check_gradients(
        "padded_5x5p2_weight",
        |v| {
            Var::constant(x.clone())
                .conv2d(&v.reshape(&[3, 2, 5, 5]), 1, 2, 1)
                .square()
                .sum_all()
        },
        &w.reshape(&[150]).unwrap(),
        2e-2,
    );
}

#[test]
fn grad_channel_bias() {
    let x = randn(&[2, 3, 3, 3], 17);
    let b = randn(&[3], 18);
    check_gradients(
        "channel_bias_input",
        |v| v.add_channel_bias(&Var::constant(b.clone())).square().sum_all(),
        &x,
        1e-2,
    );
    check_gradients(
        "channel_bias_bias",
        |v| Var::constant(x.clone()).add_channel_bias(v).square().sum_all(),
        &b,
        1e-2,
    );
}

#[test]
fn grad_batch_norm_train() {
    let x = randn(&[3, 2, 3, 3], 19);
    let gamma = randn(&[2], 20).map(|v| v.abs() + 0.5);
    let beta = randn(&[2], 21);
    check_gradients(
        "bn_train_input",
        |v| {
            let (y, _, _) = v.batch_norm2d_train(
                &Var::constant(gamma.clone()),
                &Var::constant(beta.clone()),
                1e-3,
            );
            y.square().sum_all()
        },
        &x,
        3e-2,
    );
    check_gradients(
        "bn_train_gamma",
        |v| {
            let (y, _, _) =
                Var::constant(x.clone()).batch_norm2d_train(v, &Var::constant(beta.clone()), 1e-3);
            y.square().sum_all()
        },
        &gamma,
        3e-2,
    );
    check_gradients(
        "bn_train_beta",
        |v| {
            let (y, _, _) = Var::constant(x.clone()).batch_norm2d_train(
                &Var::constant(gamma.clone()),
                v,
                1e-3,
            );
            y.square().sum_all()
        },
        &beta,
        2e-2,
    );
}

#[test]
fn grad_batch_norm_eval() {
    let x = randn(&[2, 2, 3, 3], 22);
    let gamma = Tensor::ones(&[2]);
    let beta = Tensor::zeros(&[2]);
    let rm = randn(&[2], 23);
    let rv = randn(&[2], 24).map(|v| v.abs() + 0.5);
    check_gradients(
        "bn_eval_input",
        |v| {
            v.batch_norm2d_eval(
                &Var::constant(gamma.clone()),
                &Var::constant(beta.clone()),
                &rm,
                &rv,
                1e-3,
            )
            .square()
            .sum_all()
        },
        &x,
        2e-2,
    );
    // γ is the one gradient that reads the normalised input, which the
    // backward recomputes from the input the tape holds.
    let bn = |gamma: &Var, beta: &Var| {
        Var::constant(x.clone()).batch_norm2d_eval(gamma, beta, &rm, &rv, 1e-3).square().sum_all()
    };
    check_gradients("bn_eval_gamma", |v| bn(v, &Var::constant(beta.clone())), &gamma, 2e-2);
    check_gradients("bn_eval_beta", |v| bn(&Var::constant(gamma.clone()), v), &beta, 2e-2);
}

#[test]
fn grad_pooling_and_upsample() {
    let x = randn(&[2, 2, 4, 4], 25);
    check_gradients("avg_pool", |v| v.avg_pool2d(2, 2).square().sum_all(), &x, 1e-2);
    check_gradients("global_avg_pool", |v| v.global_avg_pool().square().sum_all(), &x, 1e-2);
    check_gradients("upsample", |v| v.upsample_nearest2d(2).square().sum_all(), &x, 1e-2);
    // Max pool: spread values so the argmax is stable under probing.
    let spread = Tensor::from_vec(
        (0..32).map(|i| (i as f32) * 0.7 - 9.0).collect(),
        &[1, 2, 4, 4],
    )
    .unwrap();
    check_gradients("max_pool", |v| v.max_pool2d(2, 2).square().sum_all(), &spread, 1e-2);
}

#[test]
fn grad_shape_ops() {
    let x = randn(&[2, 4, 2, 2], 26);
    check_gradients("reshape", |v| v.reshape(&[2, 16]).square().sum_all(), &x, 1e-2);
    check_gradients(
        "narrow_channels",
        |v| v.narrow_channels(1, 2).square().sum_all(),
        &x,
        1e-2,
    );
    check_gradients(
        "channel_shuffle",
        |v| v.channel_shuffle(2).square().mul(&Var::constant(randn(&[2, 4, 2, 2], 27))).sum_all(),
        &x,
        1e-2,
    );
    let other = randn(&[2, 2, 2, 2], 28);
    check_gradients(
        "concat_channels",
        |v| {
            Var::concat_channels(&[v, &Var::constant(other.clone())])
                .square()
                .sum_all()
        },
        &x,
        1e-2,
    );
}

#[test]
fn grad_losses() {
    let logits = randn(&[3, 4], 29);
    check_gradients(
        "cross_entropy",
        |v| cross_entropy(v, &[0, 2, 3]),
        &logits,
        1.5e-2,
    );
    let target = randn(&[3, 4], 30);
    check_gradients(
        "mse",
        |v| mse(v, &Var::constant(target.clone())),
        &logits,
        1e-2,
    );
    check_gradients(
        "kl_div_probs",
        |v| kl_div_probs(&v.softmax(), &Var::constant(target.clone()).softmax()),
        &logits,
        2e-2,
    );
    check_gradients(
        "l2_penalty",
        |v| l2_penalty(std::slice::from_ref(v), std::slice::from_ref(&target)),
        &logits,
        1e-2,
    );
}

#[test]
fn grad_distill_losses_wrt_student_and_teacher() {
    let student = randn(&[2, 5], 31);
    let teacher_a = randn(&[2, 5], 32);
    let teacher_b = randn(&[2, 5], 33);
    for kind in [DistillLoss::Kl, DistillLoss::LogitL1, DistillLoss::Sl] {
        check_gradients(
            &format!("{kind:?} wrt student"),
            |v| kind.eval(v, &[&Var::constant(teacher_a.clone()), &Var::constant(teacher_b.clone())]),
            &student,
            2e-2,
        );
        check_gradients(
            &format!("{kind:?} wrt teacher"),
            |v| kind.eval(&Var::constant(student.clone()), &[v, &Var::constant(teacher_b.clone())]),
            &teacher_a,
            2e-2,
        );
    }
}

/// The composite that actually runs in FedZKT's server update: gradient of
/// the disagreement loss with respect to the *input batch*, through both
/// the student and every teacher (this is `∇ₓ L`, the quantity plotted in
/// Figure 2 and maximised by the generator).
#[test]
fn grad_disagreement_wrt_input_through_two_networks() {
    let x = randn(&[2, 6], 34);
    let w_student = randn(&[4, 6], 35);
    let w_teacher = randn(&[4, 6], 36);
    for kind in [DistillLoss::Kl, DistillLoss::LogitL1, DistillLoss::Sl] {
        check_gradients(
            &format!("{kind:?} wrt input"),
            |v| {
                let s = v.linear(&Var::constant(w_student.clone()), None);
                let t = v.linear(&Var::constant(w_teacher.clone()), None);
                kind.eval(&s, &[&t])
            },
            &x,
            2e-2,
        );
    }
}
