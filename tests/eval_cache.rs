//! Regression pin for the evaluation-loop frozen-weight cache.
//!
//! `evaluate`/`evaluate_seeded` never update parameters, so a mesh weight
//! whose build is a pure function of its parameters (`build_tag() == 0`,
//! noise off) is identical in every batch. The loop must therefore build
//! it **once** and replay the frozen value as a constant for the remaining
//! batches — while noisy weights keep rebuilding per batch (their draws
//! are the whole point). A counting `MeshWeight` pins both sides, and an
//! accuracy equality check pins that caching never changes a result.

use adept_autodiff::Var;
use adept_datasets::{DatasetKind, SyntheticConfig};
use adept_nn::layers::Layer;
use adept_nn::mesh::{MeshWeight, Staged};
use adept_nn::models::{proxy_cnn, Backend, InputShape};
use adept_nn::train::evaluate_seeded;
use adept_nn::{build_mesh_weight, next_weight_uid, ForwardCtx, ParamId, ParamStore};
use adept_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A linear weight that goes through the full stage-then-build engine and
/// counts how many times it is built.
struct CountingWeight {
    uid: u64,
    id: ParamId,
    builds: AtomicUsize,
    noisy: bool,
}

impl CountingWeight {
    fn new(store: &mut ParamStore, in_f: usize, out_f: usize, noisy: bool) -> Self {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(40);
        let w = Tensor::kaiming_uniform(&mut rng, &[out_f, in_f], in_f);
        Self {
            uid: next_weight_uid(),
            id: store.register("counting.w".to_string(), w, 0.0),
            builds: AtomicUsize::new(0),
            noisy,
        }
    }
}

impl<'g> MeshWeight<'g> for CountingWeight {
    fn uid(&self) -> u64 {
        self.uid
    }

    fn param_ids(&self) -> Vec<ParamId> {
        vec![self.id]
    }

    fn noise_active(&self) -> bool {
        self.noisy
    }

    fn stage(&self, ctx: &ForwardCtx<'g, '_>) -> Staged<'g> {
        Staged {
            leaves: vec![ctx.param(self.id)],
            ..Staged::default()
        }
    }

    fn build_staged(&self, _ctx: &ForwardCtx<'g, '_>, staged: Staged<'g>) -> Var<'g> {
        self.builds.fetch_add(1, Ordering::Relaxed);
        staged.leaves[0]
    }
}

/// Wraps the counting weight as a bias-free linear layer.
struct CountingLayer {
    weight: CountingWeight,
}

impl Layer for CountingLayer {
    fn forward<'g>(&mut self, ctx: &ForwardCtx<'g, '_>, x: Var<'g>) -> Var<'g> {
        let n = x.shape()[0];
        let features: usize = x.shape()[1..].iter().product();
        let w = build_mesh_weight(ctx, &self.weight);
        x.reshape(&[n, features]).matmul(w.transpose())
    }

    fn param_ids(&self) -> Vec<ParamId> {
        vec![self.weight.id]
    }

    fn mesh_weights<'g>(&self) -> Vec<&dyn MeshWeight<'g>> {
        vec![&self.weight]
    }
}

fn eval_data() -> adept_datasets::Dataset {
    let (_, test) = SyntheticConfig::new(DatasetKind::MnistLike)
        .with_image_size(6)
        .with_classes(3)
        .with_sizes(8, 24)
        .generate(77);
    test
}

#[test]
fn noise_free_weight_builds_once_across_eval_batches() {
    let mut store = ParamStore::new();
    let mut model = CountingLayer {
        weight: CountingWeight::new(&mut store, 36, 3, false),
    };
    let data = eval_data();
    // 24 samples / batch 8 = 3 batches; the pure weight must record once.
    evaluate_seeded(&mut model, &store, &data, 8, 1);
    let builds = model.weight.builds.load(Ordering::Relaxed);
    assert_eq!(
        builds, 1,
        "noise-free weight rebuilt {builds}× across 3 batches"
    );
}

#[test]
fn noisy_weight_still_rebuilds_every_batch() {
    let mut store = ParamStore::new();
    let mut model = CountingLayer {
        weight: CountingWeight::new(&mut store, 36, 3, true),
    };
    let data = eval_data();
    evaluate_seeded(&mut model, &store, &data, 8, 1);
    let builds = model.weight.builds.load(Ordering::Relaxed);
    assert_eq!(
        builds, 3,
        "noise-active weight must rebuild per batch, got {builds}"
    );
}

#[test]
fn cached_evaluation_matches_uncached_accuracy_bitwise() {
    // A real photonic CNN: accuracy with the cross-batch cache (multiple
    // batches) must equal the single-batch walk where nothing can be
    // cached — and a noisy model must stay deterministic per seed.
    let mut store = ParamStore::new();
    let mut model = proxy_cnn(
        &mut store,
        InputShape::new(1, 6, 6),
        4,
        3,
        &Backend::butterfly(4),
        9,
    );
    let (_, test) = SyntheticConfig::new(DatasetKind::MnistLike)
        .with_image_size(6)
        .with_classes(3)
        .with_sizes(8, 30)
        .generate(13);
    let many_batches = evaluate_seeded(&mut model, &store, &test, 10, 4);
    let one_batch = evaluate_seeded(&mut model, &store, &test, 30, 4);
    assert_eq!(many_batches, one_batch, "cache changed eval results");

    model.set_phase_noise(0.03);
    let a = evaluate_seeded(&mut model, &store, &test, 10, 4);
    let b = evaluate_seeded(&mut model, &store, &test, 10, 4);
    assert_eq!(a, b, "noisy evaluation must stay deterministic per seed");
}
