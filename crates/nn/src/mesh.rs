//! The topology-driven mesh-weight API and its single build engine.
//!
//! Every photonic weight in the workspace — the fixed-topology
//! [`crate::onn::PtcWeight`] (Clements-style dense routing, FFT butterflies,
//! random meshes, frozen search outcomes) and the search-time
//! `adept::supermesh::SuperPtcWeight` (bound to its per-step SuperMesh
//! frames) — materializes on the step tape through one two-phase walk:
//!
//! 1. **Stage** (layer order): [`MeshWeight::stage`] creates the weight's
//!    phase-parameter leaves on the tape, draws any phase noise from the
//!    shared RNG and computes fault deltas.
//! 2. **Build** (layer order): [`MeshWeight::build_staged`] records the
//!    U- and V-mesh walks, the Σ product and the tile-grid assembly
//!    straight onto the step tape.
//!
//! [`build_mesh_weight`] runs both phases for one weight;
//! [`prebuild_mesh_weights`] stages every weight of a model first and then
//! builds each, so leaf ids and noise draws depend only on layer order.
//! Both operate on `&dyn MeshWeight`, so any mesh family that implements
//! the trait joins the per-step prebuilt cache for free. Thread counts
//! only change how the GEMM kernels partition their work, never the tape:
//! node ids, values, noise draws and gradients are bit-identical at every
//! `ONN_THREADS`, pinned by the root `tests/parallel_build.rs` and
//! `tests/mesh_api.rs` suites across thread counts {1, 2, 8}.

use crate::param::{ForwardCtx, ParamId};
use adept_autodiff::Var;
use adept_photonics::BlockMeshTopology;
use adept_telemetry::Counter;
use adept_tensor::Tensor;

/// Logical build-phase totals: one stage and one record per weight per
/// build, at any thread count, so they render in the snapshot's
/// deterministic section.
static WEIGHTS_STAGED: Counter = Counter::stable("mesh.weights_staged");
static WEIGHTS_RECORDED: Counter = Counter::stable("mesh.weights_recorded");

/// What [`MeshWeight::stage`] hands to [`MeshWeight::build_staged`].
///
/// The field layout is interpreted by the weight's own
/// [`MeshWeight::build_staged`]; the engine never looks inside.
#[derive(Default)]
pub struct Staged<'g> {
    /// Parameter leaves created during staging, in the implementation's
    /// order (typically all U-phase leaves, then all V-phase leaves).
    pub leaves: Vec<Var<'g>>,
    /// Pre-drawn noise tensors (drawn from the shared RNG during staging
    /// to pin the stream order); empty when noise is disabled.
    pub noise: Vec<Tensor>,
    /// Fault deltas: per-phase constants computed at stage time from the
    /// active [`adept_photonics::FaultScenario`] such that adding them to
    /// the (noisy) programmed phases yields the faulted realized phases.
    /// Empty when no faults are active — the build then skips the add
    /// entirely and the tape is byte-identical to the healthy build.
    pub fault_deltas: Vec<Tensor>,
    /// Degraded `(U, V)` mesh topologies under coupler faults; `None`
    /// leaves the weight's own topologies in place.
    pub fault_topos: Option<(BlockMeshTopology, BlockMeshTopology)>,
}

/// A weight materialized from a parameterized photonic mesh.
///
/// The object-safe surface the build engine needs: identity for the
/// per-step prebuilt cache ([`MeshWeight::uid`] + [`MeshWeight::build_tag`]),
/// the trainable handles ([`MeshWeight::param_ids`]), and the two build
/// phases.
///
/// The lifetime `'g` is the step tape's; implementations that carry no
/// per-step tape state (e.g. `PtcWeight`) implement the trait for every
/// `'g`, while per-step bindings (e.g. the SuperMesh `BoundSuperWeight`)
/// borrow the step's frame variables.
pub trait MeshWeight<'g> {
    /// Process-unique id of this weight — the key of the per-step prebuilt
    /// cache (see [`ForwardCtx::take_prebuilt`]).
    fn uid(&self) -> u64;

    /// All trainable parameter handles of this weight.
    fn param_ids(&self) -> Vec<ParamId>;

    /// Fingerprint of the per-step inputs the build is wired to (the
    /// SuperMesh frame variables for search weights). A `build` call
    /// presenting a different tag than the prebuild used panics instead
    /// of silently rebinding the cached weight. Weights whose build
    /// depends only on their own parameters return 0 (the default).
    fn build_tag(&self) -> u64 {
        0
    }

    /// Whether the next build will draw from the shared RNG stream (phase
    /// noise enabled). Noise-free builds of `build_tag() == 0` weights are
    /// pure functions of their parameters, which is what lets evaluation
    /// loops and the inference compiler reuse a materialized value instead
    /// of re-walking the mesh. Defaults to `false`.
    fn noise_active(&self) -> bool {
        false
    }

    /// Build phase 1: creates the parameter leaves on the tape and draws
    /// any noise from the shared RNG. Staging all weights in layer order
    /// before building any pins leaf ids and noise draws to layer order.
    fn stage(&self, ctx: &ForwardCtx<'g, '_>) -> Staged<'g>;

    /// Build phase 2: records the mesh-unitary walks, the Σ product and
    /// the grid assembly on the step tape, returning the finished weight
    /// variable.
    fn build_staged(&self, ctx: &ForwardCtx<'g, '_>, staged: Staged<'g>) -> Var<'g>;
}

/// Materializes one mesh weight on the tape, consuming the step's
/// prebuilt cache when [`prebuild_mesh_weights`] already built it.
///
/// This is the **single build path** behind every mesh family's `build`
/// method.
pub fn build_mesh_weight<'g>(ctx: &ForwardCtx<'g, '_>, weight: &dyn MeshWeight<'g>) -> Var<'g> {
    if let Some(prebuilt) = ctx.take_prebuilt(weight.uid(), weight.build_tag()) {
        return prebuilt;
    }
    let staged = weight.stage(ctx);
    weight.build_staged(ctx, staged)
}

/// Stages every weight in order, then builds each, and registers the
/// finished weight variables in `ctx`'s prebuilt cache (keyed by
/// [`MeshWeight::uid`] and tagged with [`MeshWeight::build_tag`]), so the
/// subsequent forward pass consumes them without re-recording.
///
/// Fixed-topology PTC weights and frame-bound SuperMesh weights — even
/// mixed in one batch — all build through it.
pub fn prebuild_mesh_weights<'g>(ctx: &ForwardCtx<'g, '_>, weights: &[&dyn MeshWeight<'g>]) {
    if weights.is_empty() {
        return;
    }
    let _build_span = adept_telemetry::span("mesh_build");
    let staged: Vec<Staged<'g>> = {
        let _stage_span = adept_telemetry::span("mesh_build/stage");
        weights.iter().map(|w| w.stage(ctx)).collect()
    };
    WEIGHTS_STAGED.add(weights.len() as u64);
    for (weight, staged) in weights.iter().zip(staged) {
        let built = {
            let _span = adept_telemetry::span("mesh_build/record");
            weight.build_staged(ctx, staged)
        };
        WEIGHTS_RECORDED.incr();
        ctx.register_prebuilt(weight.uid(), weight.build_tag(), built);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onn::{OnnLinear, PtcWeight};
    use crate::param::ParamStore;
    use adept_autodiff::Graph;
    use adept_telemetry::sync::lock_recover;
    use adept_tensor::set_gemm_threads;

    /// Serializes tests that override the global thread count.
    static THREAD_OVERRIDE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn prebuild_matches_direct_build_bitwise() {
        let _guard = lock_recover(&THREAD_OVERRIDE);
        let mut store = ParamStore::new();
        let topo = BlockMeshTopology::butterfly(4);
        // Ragged 6×10 weight exercises cropped edge tiles.
        let layers: Vec<OnnLinear> = (0..3)
            .map(|i| {
                OnnLinear::new(
                    &mut store,
                    &format!("fc{i}"),
                    10,
                    6,
                    topo.clone(),
                    topo.clone(),
                    40 + i as u64,
                )
            })
            .collect();
        let weights: Vec<&PtcWeight> = layers.iter().map(|l| &l.weight).collect();

        let run = |threads: usize, prebuild: bool| -> (usize, Vec<Tensor>) {
            set_gemm_threads(threads);
            let graph = Graph::new();
            let ctx = ForwardCtx::new(&graph, &store, true, 3);
            if prebuild {
                let dyns: Vec<&dyn MeshWeight<'_>> = weights.iter().map(|w| *w as _).collect();
                prebuild_mesh_weights(&ctx, &dyns);
            }
            let vals: Vec<Tensor> = weights.iter().map(|w| w.build(&ctx).value()).collect();
            set_gemm_threads(0);
            (graph.len(), vals)
        };

        let (len_serial, serial) = run(1, false);
        let (len_pre1, pre1) = run(1, true);
        let (len_pre8, pre8) = run(8, true);
        assert_eq!(len_serial, len_pre1, "prebuild must not change the tape");
        assert_eq!(len_pre1, len_pre8, "thread count must not change the tape");
        for ((a, b), c) in serial.iter().zip(&pre1).zip(&pre8) {
            assert_eq!(a.as_slice(), b.as_slice(), "serial vs prebuilt(1)");
            assert_eq!(a.as_slice(), c.as_slice(), "serial vs prebuilt(8)");
        }
    }

    #[test]
    fn prebuilt_cache_is_consumed_once() {
        let mut store = ParamStore::new();
        let topo = BlockMeshTopology::butterfly(4);
        let layer = OnnLinear::new(&mut store, "fc", 4, 4, topo.clone(), topo, 7);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        prebuild_mesh_weights(&ctx, &[&layer.weight]);
        let first = layer.weight.build(&ctx);
        let len_after_first = graph.len();
        let second = layer.weight.build(&ctx);
        assert_eq!(
            first.value().as_slice(),
            second.value().as_slice(),
            "second build re-records the same weight"
        );
        assert!(
            graph.len() > len_after_first,
            "second build must record fresh nodes, not reuse the cache"
        );
    }

    #[test]
    fn dyn_engine_builds_through_trait_objects() {
        // The engine itself only sees `&dyn MeshWeight`; a weight built
        // through the trait object must be bit-identical to the inherent
        // `build` path (which delegates to the same engine).
        let mut store = ParamStore::new();
        let topo = BlockMeshTopology::butterfly(4);
        let w = PtcWeight::new(&mut store, "w", 6, 5, topo.clone(), topo, 9);
        let graph = Graph::new();
        let ctx = ForwardCtx::new(&graph, &store, true, 0);
        let dyn_w: &dyn MeshWeight<'_> = &w;
        let via_dyn = build_mesh_weight(&ctx, dyn_w).value();
        let graph2 = Graph::new();
        let ctx2 = ForwardCtx::new(&graph2, &store, true, 0);
        let via_inherent = w.build(&ctx2).value();
        assert_eq!(via_dyn.as_slice(), via_inherent.as_slice());
    }
}
