//! Bit-determinism suite for the backward pass under pooled GEMMs.
//!
//! `Graph::backward` walks the tape once, in descending node order; the
//! GEMM kernels inside its hooks partition their work by thread count.
//! These tests pin the contract:
//!
//! * per-parameter gradients, loss bits and tape length are
//!   **bit-identical** across thread counts {1, 2, 8};
//! * edge cases hold: nodes recorded after the loss id, `requires_grad =
//!   false` parents, prebuilt weights whose gradient is entirely `None`,
//!   noisy (variation-aware) builds, the legacy interleaved walk, and the
//!   SuperMesh search weights whose walks consume differentiable frame
//!   variables.
//!
//! Gradients compare on `f64::to_bits`, so even a `-0.0` vs `0.0` flip
//! fails.

use adept::supermesh::{build_mesh_frame, prebuild_super_ptc_weights};
use adept::{SuperMeshHandles, SuperPtcWeight};
use adept_autodiff::Graph;
use adept_nn::layers::{Flatten, Layer, Sequential};
use adept_nn::onn::OnnLinear;
use adept_nn::{prebuild_mesh_weights, ForwardCtx, ParamStore};
use adept_photonics::BlockMeshTopology;
use adept_tensor::{set_gemm_threads, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Thread-count overrides are process-global; tests that flip them must
/// not interleave with each other.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    adept_telemetry::sync::lock_recover(&THREAD_OVERRIDE)
}

fn grad_bits(g: &Tensor) -> Vec<u64> {
    g.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// One training-style step returning (tape length, loss bits, sorted
/// per-parameter gradient bit patterns).
fn run_step(
    model: &mut dyn Layer,
    store: &ParamStore,
    x: &Tensor,
    labels: &[usize],
    seed: u64,
    threads: usize,
    prebuild: bool,
) -> (usize, u64, Vec<(String, Vec<u64>)>) {
    set_gemm_threads(threads);
    let graph = Graph::new();
    let ctx = ForwardCtx::new(&graph, store, true, seed);
    if prebuild {
        prebuild_mesh_weights(&ctx, &model.mesh_weights());
    }
    let xv = graph.constant(x.clone());
    let logits = model.forward(&ctx, xv);
    let loss = logits.cross_entropy_logits(labels);
    let loss_bits = loss.value().item().to_bits();
    let tape_len = graph.len();
    let grads = graph.backward(loss);
    let mut per_param: Vec<(String, Vec<u64>)> = ctx
        .into_param_grads(&grads)
        .into_iter()
        .map(|(id, g)| (store.name(id).to_string(), grad_bits(&g)))
        .collect();
    per_param.sort_by(|a, b| a.0.cmp(&b.0));
    set_gemm_threads(0);
    (tape_len, loss_bits, per_param)
}

fn assert_grads_identical(a: &[(String, Vec<u64>)], b: &[(String, Vec<u64>)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: parameter sets differ");
    for ((name_a, ga), (name_b, gb)) in a.iter().zip(b) {
        assert_eq!(name_a, name_b, "{what}: parameter order");
        assert_eq!(ga, gb, "{what}: gradient bits of {name_a} diverge");
    }
}

/// A 3-layer ONN MLP with ragged feature counts (cropped edge tiles on
/// every layer for K = 4).
fn ragged_mlp(store: &mut ParamStore, noise: f64) -> Sequential {
    let topo = BlockMeshTopology::butterfly(4);
    let mut model = Sequential::new();
    model.push(Flatten);
    for (i, (inf, outf)) in [(10usize, 9usize), (9, 7), (7, 3)].iter().enumerate() {
        let mut layer = OnnLinear::new(
            store,
            &format!("fc{i}"),
            *inf,
            *outf,
            topo.clone(),
            topo.clone(),
            160 + i as u64,
        );
        layer.weight.phase_noise_std = noise;
        model.push(layer);
    }
    model
}

fn blob_input(n: usize, dim: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Tensor::rand_uniform(&mut rng, &[n, 1, 1, dim], -1.0, 1.0);
    let labels = (0..n).map(|i| i % 3).collect();
    (x, labels)
}

#[test]
fn parallel_backward_bit_identical_across_thread_counts() {
    let _guard = lock();
    let mut store = ParamStore::new();
    let mut model = ragged_mlp(&mut store, 0.0);
    let (x, labels) = blob_input(6, 10, 1);
    let (len_s, loss_s, grads_s) = run_step(&mut model, &store, &x, &labels, 7, 1, true);
    for threads in [1usize, 2, 8] {
        let (len_p, loss_p, grads_p) = run_step(&mut model, &store, &x, &labels, 7, threads, true);
        assert_eq!(len_s, len_p, "tape length at {threads} threads");
        assert_eq!(loss_s, loss_p, "loss bits at {threads} threads");
        assert_grads_identical(
            &grads_s,
            &grads_p,
            &format!("backward at {threads} threads"),
        );
    }
}

#[test]
fn noisy_builds_backward_identically_in_parallel() {
    // Variation-aware training: the noise constants are `requires_grad =
    // false` parents, whose contributions the reverse pass must drop at
    // every thread count.
    let _guard = lock();
    let mut store = ParamStore::new();
    let mut model = ragged_mlp(&mut store, 0.03);
    let (x, labels) = blob_input(4, 10, 3);
    let (_, loss_s, grads_s) = run_step(&mut model, &store, &x, &labels, 11, 1, true);
    for threads in [2usize, 8] {
        let (_, loss_p, grads_p) = run_step(&mut model, &store, &x, &labels, 11, threads, true);
        assert_eq!(loss_s, loss_p, "noisy loss at {threads} threads");
        assert_grads_identical(&grads_s, &grads_p, "noisy backward");
    }
}

#[test]
fn legacy_interleaved_walk_backward_matches_serial() {
    // Without the prebuild each layer's parameter leaves sit between the
    // previous layers' builds and forward ops.
    let _guard = lock();
    let mut store = ParamStore::new();
    let mut model = ragged_mlp(&mut store, 0.0);
    let (x, labels) = blob_input(5, 10, 2);
    let (_, loss_s, grads_s) = run_step(&mut model, &store, &x, &labels, 3, 1, false);
    for threads in [2usize, 8] {
        let (_, loss_p, grads_p) = run_step(&mut model, &store, &x, &labels, 3, threads, false);
        assert_eq!(loss_s, loss_p, "legacy-walk loss at {threads} threads");
        assert_grads_identical(&grads_s, &grads_p, "legacy-walk backward");
    }
}

#[test]
fn nodes_recorded_after_the_loss_are_ignored() {
    // A second forward pass (including a whole prebuilt weight rebuild)
    // recorded after the loss: `backward` must replay only the prefix up
    // to the loss.
    let _guard = lock();
    let mut store = ParamStore::new();
    let mut model = ragged_mlp(&mut store, 0.0);
    let (x, labels) = blob_input(4, 10, 5);
    let mut step = |threads: usize| -> (u64, Vec<(String, Vec<u64>)>) {
        set_gemm_threads(threads);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 9);
        prebuild_mesh_weights(&ctx, &model.mesh_weights());
        let xv = graph.constant(x.clone());
        let logits = model.forward(&ctx, xv);
        let loss = logits.cross_entropy_logits(&labels);
        // Recorded after the loss id: more weight builds and forward ops.
        let xv2 = graph.constant(x.clone());
        let extra = model.forward(&ctx, xv2);
        let _ = extra.square().sum();
        let grads = graph.backward(loss);
        let mut per_param: Vec<(String, Vec<u64>)> = ctx
            .into_param_grads(&grads)
            .into_iter()
            .map(|(id, g)| (store.name(id).to_string(), grad_bits(&g)))
            .collect();
        per_param.sort_by(|a, b| a.0.cmp(&b.0));
        set_gemm_threads(0);
        (loss.value().item().to_bits(), per_param)
    };
    let (loss_s, grads_s) = step(1);
    for threads in [2usize, 8] {
        let (loss_p, grads_p) = step(threads);
        assert_eq!(loss_s, loss_p, "post-loss nodes at {threads} threads");
        assert_grads_identical(&grads_s, &grads_p, "post-loss backward");
    }
}

#[test]
fn gradient_free_segments_are_skipped_identically() {
    // Two weights are prebuilt but the loss only consumes the first: the
    // second weight's incoming gradient is entirely `None`, so no thread
    // count may produce gradients for its parameters.
    let _guard = lock();
    let mut store = ParamStore::new();
    let topo = BlockMeshTopology::butterfly(4);
    let used = OnnLinear::new(&mut store, "used", 8, 6, topo.clone(), topo.clone(), 20);
    let unused = OnnLinear::new(&mut store, "unused", 8, 6, topo.clone(), topo, 21);
    let mut rng = StdRng::seed_from_u64(6);
    let x = Tensor::rand_uniform(&mut rng, &[3, 8], -1.0, 1.0);
    let step = |threads: usize| -> Vec<(String, Vec<u64>)> {
        set_gemm_threads(threads);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 2);
        prebuild_mesh_weights(&ctx, &[&used.weight, &unused.weight]);
        let w = used.weight.build(&ctx);
        let _w2 = unused.weight.build(&ctx);
        let loss = graph
            .constant(x.clone())
            .matmul(w.transpose())
            .square()
            .sum();
        let grads = graph.backward(loss);
        let mut per_param: Vec<(String, Vec<u64>)> = ctx
            .into_param_grads(&grads)
            .into_iter()
            .map(|(id, g)| (store.name(id).to_string(), grad_bits(&g)))
            .collect();
        per_param.sort_by(|a, b| a.0.cmp(&b.0));
        set_gemm_threads(0);
        per_param
    };
    let grads_s = step(1);
    assert!(
        grads_s.iter().all(|(name, _)| !name.starts_with("unused")),
        "unused weight must receive no gradient"
    );
    for threads in [2usize, 8] {
        let grads_p = step(threads);
        assert_grads_identical(&grads_s, &grads_p, "gradient-free segment");
    }
}

#[test]
fn super_weight_backward_replays_identically() {
    // Search weights read *differentiable* frame variables (relaxed
    // permutations, binarized couplers, Gumbel gates) shared by both
    // weights: their accumulated gradients must match bit for bit.
    let _guard = lock();
    let mut store = ParamStore::new();
    let h = SuperMeshHandles::register(&mut store, 4, 3, 1, 1);
    let w1 = SuperPtcWeight::new(&mut store, "w1", 6, 5, 4, 3, 70);
    let w2 = SuperPtcWeight::new(&mut store, "w2", 9, 7, 4, 3, 71);
    let step = |threads: usize| -> (usize, u64, Vec<(String, Vec<u64>)>) {
        set_gemm_threads(threads);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 5);
        let fu = build_mesh_frame(&ctx, &h.u, 4, &[[0.2, -0.1]; 3], 0.8);
        let fv = build_mesh_frame(&ctx, &h.v, 4, &[[0.1, 0.3]; 3], 0.8);
        prebuild_super_ptc_weights(&ctx, &[&w1, &w2], &fu, &fv);
        let b1 = w1.build(&ctx, &fu, &fv);
        let b2 = w2.build(&ctx, &fu, &fv);
        let loss = b1.square().sum().add(b2.square().sum());
        let loss_bits = loss.value().item().to_bits();
        let tape_len = graph.len();
        let grads = graph.backward(loss);
        let mut per_param: Vec<(String, Vec<u64>)> = ctx
            .into_param_grads(&grads)
            .into_iter()
            .map(|(id, g)| (store.name(id).to_string(), grad_bits(&g)))
            .collect();
        per_param.sort_by(|a, b| a.0.cmp(&b.0));
        set_gemm_threads(0);
        (tape_len, loss_bits, per_param)
    };
    let (len_s, loss_s, grads_s) = step(1);
    for threads in [1usize, 2, 8] {
        let (len_p, loss_p, grads_p) = step(threads);
        assert_eq!(len_s, len_p, "super tape length at {threads} threads");
        assert_eq!(loss_s, loss_p, "super loss bits at {threads} threads");
        assert_grads_identical(&grads_s, &grads_p, &format!("super at {threads} threads"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random layer stacks / shapes / K / noise / thread counts: the
    /// backward pass at 2, 4 or 8 threads gives the same tape length, loss
    /// bits and per-parameter gradient bytes as at one thread.
    #[test]
    fn random_models_backward_bit_identically(
        seed in 0u64..1000,
        n_layers in 1usize..4,
        k_choice in 0usize..2,
        noisy in prop_oneof![Just(false), Just(true)],
        threads in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        let _guard = lock();
        let k = [4usize, 8][k_choice];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = Vec::with_capacity(n_layers + 1);
        for _ in 0..=n_layers {
            dims.push(2 + (rand::Rng::gen_range(&mut rng, 0..18usize)));
        }
        let classes = *dims.last().unwrap();
        let topo = BlockMeshTopology::butterfly(k);
        let mut store = ParamStore::new();
        let mut model = Sequential::new();
        model.push(Flatten);
        for i in 0..n_layers {
            let mut layer = OnnLinear::new(
                &mut store,
                &format!("l{i}"),
                dims[i],
                dims[i + 1],
                topo.clone(),
                topo.clone(),
                seed.wrapping_mul(37).wrapping_add(i as u64),
            );
            if noisy {
                layer.weight.phase_noise_std = 0.02;
            }
            model.push(layer);
        }
        let n = 3;
        let x = Tensor::rand_uniform(&mut rng, &[n, 1, 1, dims[0]], -1.0, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let (len_s, loss_s, grads_s) =
            run_step(&mut model, &store, &x, &labels, seed, 1, true);
        let (len_p, loss_p, grads_p) =
            run_step(&mut model, &store, &x, &labels, seed, threads, true);
        prop_assert_eq!(len_s, len_p, "tape length");
        prop_assert_eq!(loss_s, loss_p, "loss bits");
        assert_grads_identical(&grads_s, &grads_p, "proptest backward");
    }
}
