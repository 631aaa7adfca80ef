//! # fedzkt
//!
//! A from-scratch Rust reproduction of **FedZKT: Zero-Shot Knowledge
//! Transfer towards Resource-Constrained Federated Learning with
//! Heterogeneous On-Device Models** (Zhang, Wu & Yuan, ICDCS 2022,
//! arXiv:2109.03775).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense f32 NCHW tensors, GEMM, im2col, init, RNG;
//! * [`autograd`] — reverse-mode autodiff and the distillation losses
//!   (KL / logit-ℓ1 / **SL**);
//! * [`nn`] — layers, optimizers, schedules, state dicts;
//! * [`models`] — the heterogeneous on-device model zoo + generator;
//! * [`data`] — synthetic dataset families and non-IID partitioners;
//! * [`fl`] — the generic `Simulation` driver + `FederatedAlgorithm`
//!   trait, simulation substrate, FedAvg/FedProx, and the
//!   knowledge-transfer additions Fed-ET and FedGKT;
//! * [`core`] — FedZKT itself (Algorithms 1–3), FedMD, bounds, probes;
//! * [`scenario`] — the declarative experiment layer: one serializable
//!   `Scenario` per experiment, a named preset registry, and the erased
//!   runner behind the `scenarios` CLI.
//!
//! See `examples/` for runnable entry points, `scenarios/*.json` for the
//! checked-in experiment descriptions, and [`scenario::repro`] (the
//! `scenarios repro <target>` command) for the paper's tables and figures.
//!
//! ```no_run
//! use fedzkt::scenario::preset;
//!
//! let scenario = preset("quickstart").unwrap();
//! let log = scenario.run().unwrap();
//! println!("final accuracy: {:.3}", log.final_accuracy());
//! ```

#![warn(missing_docs)]

pub use fedzkt_autograd as autograd;
pub use fedzkt_core as core;
pub use fedzkt_data as data;
pub use fedzkt_fl as fl;
pub use fedzkt_models as models;
pub use fedzkt_nn as nn;
pub use fedzkt_scenario as scenario;
pub use fedzkt_tensor as tensor;
