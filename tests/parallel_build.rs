//! Bit-determinism equivalence suite for the weight prebuild.
//!
//! The prebuild (`adept_nn::prebuild_mesh_weights`) stages every layer's
//! parameter leaves and noise in layer order, then records each layer's
//! mesh walk onto the step tape. The GEMM kernels inside those walks and
//! inside the backward pass partition their work by thread count. These
//! tests pin the contract:
//!
//! * the tape — node count, values, noise-stream draws and per-parameter
//!   gradients — is **bit-identical** across thread counts {1, 2, 8};
//! * the prebuild is **bit-identical in values and gradients** to the
//!   legacy walk that interleaves each layer's build with its forward
//!   ops;
//! * ragged (non-multiple-of-K) layers with cropped edge tiles and noisy
//!   (variation-aware) builds obey the same guarantees.
//!
//! Everything asserts with `==` on `f64` slices: no tolerances.

use adept_autodiff::Graph;
use adept_nn::layers::{Flatten, Layer, Sequential};
use adept_nn::onn::{OnnConv2d, OnnLinear, PtcWeight};
use adept_nn::{prebuild_mesh_weights, ForwardCtx, ParamStore};
use adept_photonics::BlockMeshTopology;
use adept_tensor::{set_gemm_threads, Conv2dGeometry, Tensor};
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

/// One training-style step: prebuild (optionally), forward, loss, backward.
/// Returns (tape length, loss bits, sorted per-parameter gradients).
fn run_step(
    model: &mut dyn Layer,
    store: &ParamStore,
    x: &Tensor,
    labels: &[usize],
    seed: u64,
    threads: usize,
    prebuild: bool,
) -> (usize, u64, Vec<(String, Tensor)>) {
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
    let mut per_param: Vec<(String, Tensor)> = ctx
        .into_param_grads(&grads)
        .into_iter()
        .map(|(id, g)| (store.name(id).to_string(), g))
        .collect();
    per_param.sort_by(|a, b| a.0.cmp(&b.0));
    set_gemm_threads(0);
    (tape_len, loss_bits, per_param)
}

fn assert_grads_identical(a: &[(String, Tensor)], b: &[(String, Tensor)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: parameter sets differ");
    for ((name_a, ga), (name_b, gb)) in a.iter().zip(b) {
        assert_eq!(name_a, name_b, "{what}: parameter order");
        assert_eq!(
            ga.as_slice(),
            gb.as_slice(),
            "{what}: gradient of {name_a} diverges"
        );
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
            60 + i as u64,
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
fn multi_layer_mlp_bit_identical_across_thread_counts() {
    let _guard = lock();
    let mut store = ParamStore::new();
    let mut model = ragged_mlp(&mut store, 0.0);
    let (x, labels) = blob_input(6, 10, 1);
    let (len_1, loss_1, grads_1) = run_step(&mut model, &store, &x, &labels, 7, 1, true);
    for threads in [2usize, 8] {
        let (len_t, loss_t, grads_t) = run_step(&mut model, &store, &x, &labels, 7, threads, true);
        assert_eq!(len_1, len_t, "tape length at {threads} threads");
        assert_eq!(loss_1, loss_t, "loss bits at {threads} threads");
        assert_grads_identical(&grads_1, &grads_t, &format!("{threads} threads"));
    }
}

#[test]
fn parallel_schedule_matches_legacy_serial_walk() {
    // The legacy walk interleaves each layer's build with its forward ops;
    // the prebuild builds all weights first. Tape layout differs, but
    // values and gradients must match bit for bit.
    let _guard = lock();
    let mut store = ParamStore::new();
    let mut model = ragged_mlp(&mut store, 0.0);
    let (x, labels) = blob_input(5, 10, 2);
    let (_, loss_legacy, grads_legacy) = run_step(&mut model, &store, &x, &labels, 3, 1, false);
    for threads in [1usize, 8] {
        let (_, loss_p, grads_p) = run_step(&mut model, &store, &x, &labels, 3, threads, true);
        assert_eq!(loss_legacy, loss_p, "loss vs legacy at {threads} threads");
        assert_grads_identical(&grads_legacy, &grads_p, "prebuild vs legacy walk");
    }
}

#[test]
fn noisy_builds_draw_identical_streams_at_every_thread_count() {
    // Variation-aware training: phase noise is drawn from the shared RNG in
    // layer order during staging — so noisy weights are bit-identical
    // across thread counts AND against the legacy walk.
    let _guard = lock();
    let mut store = ParamStore::new();
    let mut model = ragged_mlp(&mut store, 0.03);
    let (x, labels) = blob_input(4, 10, 3);
    let (_, loss_legacy, grads_legacy) = run_step(&mut model, &store, &x, &labels, 11, 1, false);
    for threads in [1usize, 2, 8] {
        let (_, loss_p, grads_p) = run_step(&mut model, &store, &x, &labels, 11, threads, true);
        assert_eq!(loss_legacy, loss_p, "noisy loss at {threads} threads");
        assert_grads_identical(&grads_legacy, &grads_p, "noisy gradients");
    }
}

#[test]
fn mixed_mzi_and_ptc_noisy_model_is_thread_count_invariant() {
    // MziLinear draws mesh-drift noise from the shared RNG mid-forward.
    // With the prebuild, PTC noise is drawn at staging time instead of
    // interleaved with the Mzi draws — a different (documented) fixed
    // stream than the historical walk, but every thread count must
    // produce identical bits.
    use adept_nn::onn::MziLinear;
    let _guard = lock();
    let mut store = ParamStore::new();
    let topo = BlockMeshTopology::butterfly(4);
    let mut model = Sequential::new();
    model.push(Flatten);
    let mut onn = OnnLinear::new(&mut store, "fc0", 10, 8, topo.clone(), topo.clone(), 100);
    onn.weight.phase_noise_std = 0.03;
    model.push(onn);
    let mut mzi = MziLinear::new(&mut store, "fc1", 8, 6, 4, 101);
    mzi.phase_noise_std = 0.03;
    model.push(mzi);
    let mut onn2 = OnnLinear::new(&mut store, "fc2", 6, 3, topo.clone(), topo, 102);
    onn2.weight.phase_noise_std = 0.03;
    model.push(onn2);
    let (x, labels) = blob_input(4, 10, 6);
    let (len_1, loss_1, grads_1) = run_step(&mut model, &store, &x, &labels, 13, 1, true);
    for threads in [2usize, 8] {
        let (len_t, loss_t, grads_t) = run_step(&mut model, &store, &x, &labels, 13, threads, true);
        assert_eq!(len_1, len_t, "mixed tape length at {threads} threads");
        assert_eq!(loss_1, loss_t, "mixed loss at {threads} threads");
        assert_grads_identical(&grads_1, &grads_t, &format!("mixed {threads} threads"));
    }
}

#[test]
fn conv_layers_with_cropped_tiles_stay_deterministic() {
    let _guard = lock();
    let mut store = ParamStore::new();
    let geom = Conv2dGeometry {
        in_channels: 1,
        in_h: 8,
        in_w: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    // col_rows = 9 on K=4 → ragged grid; 6 output channels → ragged rows.
    let topo = BlockMeshTopology::butterfly(4);
    let mut model = Sequential::new();
    model.push(OnnConv2d::new(
        &mut store,
        "conv",
        geom,
        6,
        topo.clone(),
        topo.clone(),
        80,
    ));
    model.push(Flatten);
    model.push(OnnLinear::new(
        &mut store,
        "head",
        6 * 8 * 8,
        3,
        topo.clone(),
        topo,
        81,
    ));
    let mut rng = StdRng::seed_from_u64(4);
    let x = Tensor::rand_uniform(&mut rng, &[2, 1, 8, 8], -1.0, 1.0);
    let labels = vec![0usize, 2];
    let (len_1, loss_1, grads_1) = run_step(&mut model, &store, &x, &labels, 9, 1, true);
    let (_, loss_legacy, grads_legacy) = run_step(&mut model, &store, &x, &labels, 9, 1, false);
    assert_eq!(loss_1, loss_legacy, "prebuild vs legacy conv walk");
    assert_grads_identical(&grads_1, &grads_legacy, "conv vs legacy");
    for threads in [2usize, 8] {
        let (len_t, loss_t, grads_t) = run_step(&mut model, &store, &x, &labels, 9, threads, true);
        assert_eq!(len_1, len_t, "conv tape length at {threads} threads");
        assert_eq!(loss_1, loss_t, "conv loss at {threads} threads");
        assert_grads_identical(&grads_1, &grads_t, &format!("conv {threads} threads"));
    }
}

#[test]
fn single_weight_uv_fork_matches_serial_build() {
    // One weight's U- and V-mesh walks at 2 and 8 GEMM threads, prebuilt
    // or built directly, must equal the single-threaded direct build.
    let _guard = lock();
    let mut store = ParamStore::new();
    let topo = BlockMeshTopology::butterfly(8);
    let layer = OnnLinear::new(&mut store, "fc", 20, 12, topo.clone(), topo, 90);
    let weight: &PtcWeight = &layer.weight;
    let build = |threads: usize, prebuild: bool| -> (usize, Vec<f64>) {
        set_gemm_threads(threads);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, false, 0);
        if prebuild {
            prebuild_mesh_weights(&ctx, &[weight]);
        }
        let w = weight.build(&ctx);
        set_gemm_threads(0);
        (graph.len(), w.value().as_slice().to_vec())
    };
    let (len_direct, val_direct) = build(1, false);
    for (threads, prebuild) in [(2usize, true), (8, true), (8, false)] {
        let (len, val) = build(threads, prebuild);
        assert_eq!(
            len_direct, len,
            "tape ({threads} threads, prebuild={prebuild})"
        );
        assert_eq!(
            val_direct, val,
            "value ({threads} threads, prebuild={prebuild})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random layer stacks / shapes / K / noise / thread counts: the
    /// prebuilt tape replays to the same loss and per-parameter gradients
    /// as the single-threaded legacy walk, bit for bit.
    #[test]
    fn random_models_replay_bit_identically(
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
            // Random feature counts straddling tile boundaries.
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
                seed.wrapping_mul(31).wrapping_add(i as u64),
            );
            if noisy {
                layer.weight.phase_noise_std = 0.02;
            }
            model.push(layer);
        }
        let n = 3;
        let x = Tensor::rand_uniform(&mut rng, &[n, 1, 1, dims[0]], -1.0, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let (_, loss_serial, grads_serial) =
            run_step(&mut model, &store, &x, &labels, seed, 1, false);
        let (_, loss_sched1, grads_sched1) =
            run_step(&mut model, &store, &x, &labels, seed, 1, true);
        let (_, loss_par, grads_par) =
            run_step(&mut model, &store, &x, &labels, seed, threads, true);
        prop_assert_eq!(loss_serial, loss_sched1, "prebuild(1) vs legacy");
        prop_assert_eq!(loss_serial, loss_par, "prebuild({}) vs legacy", threads);
        assert_grads_identical(&grads_serial, &grads_sched1, "prebuild(1)");
        assert_grads_identical(&grads_serial, &grads_par, "prebuild(par)");
    }
}
