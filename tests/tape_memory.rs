//! Heap bytes a recorded forward keeps alive until its backward.
//!
//! A counting global allocator tallies the bytes live on the test's thread
//! (one worker thread, so every allocation of a forward is made there),
//! and their high-water mark. For each zoo architecture a training-mode
//! forward at batch 8 is recorded, and the bytes it leaves live while only
//! its output is held are pinned. The tape holds nodes only: a value
//! lives while a handle or a backward closure holds it, and the closures
//! read their parents in place. A closure that keeps a copy of a parent again
//! (an input, a weight), or a reader taken for a gradient that does not
//! read it, adds that tensor's bytes and fails the bound.
//!
//! The same is pinned for a frozen, eval-mode forward (what the generator
//! step of the distillation game records for each teacher), whose backward
//! to the input reads only the activations' one-byte masks, and for the
//! peak of a whole FedZKT round.
//!
//! The file holds one test, so no other test allocates while it counts.

use fedzkt::autograd::{frozen_params, no_grad, Var};
use fedzkt::data::{DataFamily, Partition};
use fedzkt::models::{GeneratorSpec, ModelSpec};
use fedzkt::nn::Module;
use fedzkt::scenario::{Scenario, Tier};
use fedzkt::tensor::{par, seeded_rng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated and not yet freed by this thread, their
    /// high-water mark, and bytes allocated in total.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static TOTAL: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(alloc: usize, free: usize) {
    // `try_with`: a thread's last frees may come after its locals are gone.
    let _ = LIVE.try_with(|l| {
        l.set(l.get() + alloc as isize - free as isize);
        let _ = PEAK.try_with(|p| p.set(p.get().max(l.get())));
    });
    let _ = TOTAL.try_with(|t| t.set(t.get() + alloc));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size, layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn total() -> usize {
    TOTAL.with(Cell::get)
}

/// Bytes `forward` leaves live while its result is held, and bytes still
/// live after the result is dropped.
fn retained(forward: impl Fn() -> Var) -> (isize, isize) {
    let before = live();
    let y = forward();
    let held = live() - before;
    drop(y);
    (held, live() - before)
}

/// Bytes live at the high-water mark of `f`, over those live before it.
fn peak_of(f: impl FnOnce()) -> isize {
    let before = live();
    PEAK.with(|p| p.set(before));
    f();
    PEAK.with(Cell::get) - before
}

#[test]
fn a_recorded_forward_holds_no_copies_of_its_operands() {
    par::set_threads(1);
    let (batch, img, classes) = (8, 16, 10);
    let mut rng = seeded_rng(7);
    let images = Var::constant(Tensor::randn(&[batch, 3, img, img], &mut rng));
    // (name, model, input, bound in bytes). A bound is the bytes this tape
    // holds plus 2 %. The tape whose closures copied their operands held,
    // for the same forwards, 3 343 006 / 1 373 720 / 659 272 / 2 169 696 B;
    // reading the operands in place held 2 305 918 / 964 960 / 322 336 /
    // 1 307 368 B while the graph kept every op output. Keeping a value
    // only while a handle or a reader does held 2 168 718 / 767 368 /
    // 144 168 / 947 808 B under hand-kept counts, and 2 166 014 / 763 112 /
    // 142 856 / 946 336 B once the handles and readers owned the values.
    // With the activations keeping a one-byte mask in place of their input
    // it holds 1 704 574 / 601 832 / 76 040 / 761 592 B (LeNet's max pools
    // keep a `u32` argmax per output).
    let generator = GeneratorSpec::default().build(3, img, 1);
    let z = Var::constant(generator.sample_z(batch, &mut rng));
    let mobilenet = ModelSpec::MobileNetV2 { width: 0.6 }.build(3, classes, img, 1);
    let shufflenet = ModelSpec::ShuffleNetV2 { size: 0.5 }.build(3, classes, img, 1);
    let lenet = ModelSpec::LeNet { scale: 1.0, deep: true }.build(3, classes, img, 1);
    let cases: [(&str, Box<dyn Module>, &Var, isize); 4] = [
        ("MobileNetV2 0.6", mobilenet, &images, 1_738_000),
        ("ShuffleNetV2 0.5", shufflenet, &images, 613_000),
        ("LeNet-deep", lenet, &images, 77_000),
        ("generator", Box::new(generator), &z, 776_000),
    ];
    let mut report = Vec::new();
    for (name, model, input, bound) in &cases {
        // The first forward sizes any lazily grown state; the second is
        // the one measured.
        drop(model.forward(input));
        let (held, after) = retained(|| model.forward(input));
        report.push(format!("{name}: {held} B held, {after} B after the drop"));
        assert!(held <= *bound, "{name}: the tape holds {held} B, over its bound of {bound} B");
        assert!(after.abs() < 1024, "{name}: {after} B outlive the tape");
    }

    // A teacher in the generator step: eval mode, parameters frozen, the
    // input a node that wants its gradient. Only each ReLU's one-byte mask
    // stays for the backward to `x`; a conv, batch norm, linear or residual
    // add reads no activation when no parameter gradient is asked for.
    // This holds 175 054 / 76 824 / 48 632 B; it was 636 494 / 238 104 /
    // 115 448 B while each ReLU kept its input (641 758 / 245 080 /
    // 117 080 B under hand-kept counts), and the graph that kept every op
    // output held what the training-mode forward held.
    let x = Var::parameter(images.value_clone());
    let frozen_bounds: [isize; 3] = [178_000, 78_000, 49_000];
    for ((name, model, _, _), bound) in cases.iter().zip(frozen_bounds) {
        model.set_training(false);
        let (held, after) = retained(|| frozen_params(|| model.forward(&x)));
        report.push(format!("{name} (frozen, eval): {held} B held, {after} B after the drop"));
        assert!(held <= bound, "{name}: the frozen tape holds {held} B, over its bound {bound} B");
        assert!(after.abs() < 1024, "{name}: {after} B outlive the frozen tape");
    }

    // One FedZKT round at the tiny tier on the CIFAR-like zoo (Models A-E
    // around a MobileNetV2 global model): local training, the distillation
    // game and the transfer back. The generator step's graph ends before
    // the global step records its own, and neither keeps what its backward
    // does not read: the peak is 2 442 622 B with the activations' masks
    // and one scratch model per architecture for the local training
    // (2 419 276 B while each job built a model of its own, 3 090 686 B
    // while the activations kept their inputs, 3 120 294 B under
    // hand-kept counts). It was 8 037 922 B when both graphs lived
    // together and kept every op output.
    let mut scenario = Scenario::standard(DataFamily::Cifar10Like, Partition::Iid, Tier::Tiny, 3);
    scenario.sim.rounds = 1;
    scenario.sim.threads = 1;
    let peak = peak_of(|| drop(scenario.run().expect("the tiny scenario runs")));
    report.push(format!("one FedZKT round: {peak} B at the peak"));
    let round_bound: isize = 2_467_000;
    assert!(peak <= round_bound, "one round peaks at {peak} B, over its bound of {round_bound} B");
    eprintln!("{}", report.join("\n"));

    // A tape-free pass keeps nothing for a backward: under `no_grad`, max
    // pooling allocates its output and a shape, no argmax and no copy.
    let x = Var::parameter(Tensor::randn(&[batch, 6, 12, 12], &mut rng));
    let out_bytes = batch * 6 * 6 * 6 * std::mem::size_of::<f32>();
    let start = total();
    let y = no_grad(|| x.max_pool2d(2, 2));
    let allocated = total() - start;
    assert_eq!(y.shape(), vec![batch, 6, 6, 6]);
    assert!(
        allocated < out_bytes + 512,
        "max_pool2d under no_grad allocated {allocated} B for a {out_bytes} B output"
    );

    // A recorded activation keeps its output and a one-byte mask, not its
    // input: the input here is an intermediate nobody else holds, which
    // goes at once. Beyond the two, only the nodes and the closure remain
    // (412 B).
    let x = Var::parameter(Tensor::randn(&[batch, 16, 16, 16], &mut rng));
    let elements = batch * 16 * 16 * 16;
    let out_bytes = elements * std::mem::size_of::<f32>();
    let (held, _) = retained(|| x.scale(1.0).relu6());
    assert!(
        held < (out_bytes + elements + 1024) as isize,
        "a recorded relu6 holds {held} B for a {out_bytes} B output and {elements} elements"
    );
    // Under `no_grad` it builds no mask: it allocates its output and a shape.
    let start = total();
    let y = no_grad(|| x.relu6());
    let allocated = total() - start;
    assert_eq!(y.shape(), vec![batch, 16, 16, 16]);
    assert!(
        allocated < out_bytes + 512,
        "relu6 under no_grad allocated {allocated} B for a {out_bytes} B output"
    );
    par::set_threads(0);
}
