//! Neural-network stack for the ADEPT reproduction.
//!
//! Provides everything the paper's experiments train:
//!
//! * [`ParamStore`]/[`ForwardCtx`] — parameter registry bridging persistent
//!   weights to the per-step autodiff tape;
//! * [`layers`] — electronic layers (Conv2d, BatchNorm2d, ReLU, pooling,
//!   Linear, Flatten) lowered onto the tape;
//! * [`onn`] — photonic layers: [`onn::PtcWeight`] materializes a weight
//!   matrix from `K×K` tiles `Re(U·Σ·V)` with block-mesh unitaries
//!   (paper Eq. 1–2) built by [`onn::batched_tile_unitary`] — all `T`
//!   tiles' phases stacked into `[T, B, K]` and every mesh block applied
//!   to the whole `[T, K, K]` stack at once, so the tape holds `O(B)`
//!   nodes per mesh instead of `O(T·B)` per-tile chains;
//!   [`onn::OnnLinear`]/[`onn::OnnConv2d`] use it, and [`onn::MziLinear`]
//!   is the universal MZI-ONN baseline with
//!   decompose–perturb–reconstruct phase-noise simulation;
//! * [`models`] — the paper's proxy 2-layer CNN, LeNet-5 and VGG-8, all
//!   parametrized by a photonic backend;
//! * [`optim`] — Adam/SGD with cosine learning-rate schedule;
//! * [`train`] — training/eval loops including variation-aware training
//!   (Gaussian phase noise injected during training, paper §4.1) and
//!   fault-aware retraining: [`ForwardCtx::with_faults`] carries a static
//!   [`adept_photonics::FaultScenario`] that the mesh build realizes as
//!   stage-time phase deltas ([`train::TrainConfig`]'s `fault`,
//!   [`train::evaluate_faulted`]) — with faults off the tape stays
//!   byte-identical;
//! * [`mesh`] — the topology-driven mesh-weight API: the object-safe
//!   [`mesh::MeshWeight`] trait (stage, then build onto the step tape) and
//!   the **single** build engine behind every mesh family — fixed-topology
//!   PTC weights here, frame-bound SuperMesh search weights in `adept` —
//!   which stages every layer's leaves and noise in layer order and then
//!   records each weight, bit-identical (node ids, values, noise draws,
//!   gradients) at any thread count;
//! * [`lower`] — the tape-free lowering surface: [`lower::lower_model`]
//!   freezes a trained model into flat [`lower::LoweredStep`]s (weight
//!   matrices materialized once through the tape builder, bit-identical to
//!   a forward pass) that the `adept-infer` compiler turns into an
//!   allocation-free execution plan.

pub mod checkpoint;
pub mod layers;
pub mod lower;
pub mod mesh;
pub mod models;
pub mod onn;
pub mod optim;
mod param;
pub mod train;

pub use checkpoint::{load_backend, save_backend, Checkpoint, CheckpointError, ModelArch};
pub use lower::{lower_model, lower_model_faulted, LowerError, LoweredStep};
pub use mesh::{build_mesh_weight, prebuild_mesh_weights, MeshWeight, Staged};
pub use param::{next_weight_uid, ForwardCtx, ParamId, ParamStore};
