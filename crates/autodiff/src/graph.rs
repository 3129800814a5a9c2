//! The tape: graph storage, variable handles, reverse accumulation.

use adept_telemetry::Counter;
use adept_tensor::Tensor;
use std::cell::RefCell;

/// One per backward pass — deterministic across `ONN_THREADS`.
static BACKWARD_RUNS: Counter = Counter::stable("backward.runs");

/// Backward hook of one tape node.
///
/// Receives the upstream gradient (same shape as the node's value) and
/// returns one optional gradient per parent, in parent order. `None` means
/// "no gradient flows to this parent" (e.g. a detached or integer input).
///
/// Hooks only ever capture owned tensors and plain data, so they are
/// `Send + Sync` and a recorded tape may move between threads. The reverse
/// pass runs each hook at most once.
pub type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Option<Tensor>> + Send + Sync>;

struct Node {
    value: Tensor,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    requires_grad: bool,
}

/// A define-by-run autodiff tape.
///
/// A fresh `Graph` is typically created per optimization step; leaves are
/// created from the current parameter tensors, the forward pass records
/// intermediate nodes, and [`Graph::backward`] returns gradients for the
/// leaves.
///
/// # Examples
///
/// ```
/// use adept_autodiff::Graph;
/// use adept_tensor::Tensor;
///
/// let g = Graph::new();
/// let a = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
/// let b = g.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2]));
/// let loss = a.mul(b).sum();
/// let grads = g.backward(loss);
/// assert_eq!(grads.grad(a).unwrap().as_slice(), &[3.0, 4.0]);
/// assert_eq!(grads.grad(b).unwrap().as_slice(), &[1.0, 2.0]);
/// ```
#[derive(Default)]
pub struct Graph {
    nodes: RefCell<Vec<Node>>,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.borrow().len())
            .finish()
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Creates a differentiable leaf holding `value`.
    pub fn leaf(&self, value: Tensor) -> Var<'_> {
        self.push(value, Vec::new(), None, true)
    }

    /// Creates a non-differentiable constant holding `value`.
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.push(value, Vec::new(), None, false)
    }

    /// Creates a scalar constant.
    pub fn scalar(&self, value: f64) -> Var<'_> {
        self.constant(Tensor::scalar(value))
    }

    /// Records a custom operation.
    ///
    /// `value` is the precomputed forward result; `backward` maps the
    /// upstream gradient to per-parent gradients. This is the extension
    /// point used for batch normalization, pooling and straight-through
    /// estimators in higher crates.
    ///
    /// # Panics
    ///
    /// Panics if any parent belongs to another graph.
    pub fn custom<'g>(
        &'g self,
        parents: &[Var<'g>],
        value: Tensor,
        backward: BackwardFn,
    ) -> Var<'g> {
        let ids: Vec<usize> = parents
            .iter()
            .map(|p| {
                assert!(std::ptr::eq(p.graph, self), "parent from another graph");
                p.id
            })
            .collect();
        let requires = {
            let nodes = self.nodes.borrow();
            ids.iter().any(|&i| nodes[i].requires_grad)
        };
        self.push(value, ids, Some(backward), requires)
    }

    pub(crate) fn push(
        &self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
        requires_grad: bool,
    ) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node {
            value,
            parents,
            backward,
            requires_grad,
        });
        Var { graph: self, id }
    }

    pub(crate) fn value_of(&self, id: usize) -> Tensor {
        self.nodes.borrow()[id].value.clone()
    }

    pub(crate) fn shape_of(&self, id: usize) -> Vec<usize> {
        self.nodes.borrow()[id].value.shape().to_vec()
    }

    pub(crate) fn requires_grad_of(&self, id: usize) -> bool {
        self.nodes.borrow()[id].requires_grad
    }

    /// Runs reverse-mode accumulation from a scalar `loss` node.
    ///
    /// Nodes recorded after `loss` receive no gradient, and no gradient
    /// flows into a `requires_grad = false` parent.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor or belongs to another
    /// graph.
    pub fn backward(&self, loss: Var<'_>) -> Gradients {
        let _span = adept_telemetry::span("backward");
        BACKWARD_RUNS.incr();
        assert!(std::ptr::eq(loss.graph, self), "loss from another graph");
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[loss.id].value.len(),
            1,
            "backward() requires a scalar loss, got shape {:?}",
            nodes[loss.id].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        let mut seed = Tensor::zeros(nodes[loss.id].value.shape());
        seed.as_mut_slice()[0] = 1.0;
        grads[loss.id] = Some(seed);
        let _sweep = adept_telemetry::span_volatile("backward/glue_sweep");
        for id in (0..=loss.id).rev() {
            let Some(grad) = grads[id].take() else {
                continue;
            };
            let node = &nodes[id];
            if !node.requires_grad {
                continue;
            }
            let Some(backward) = &node.backward else {
                if node.parents.is_empty() {
                    // Leaf: keep its gradient for the caller.
                    grads[id] = Some(grad);
                }
                continue;
            };
            let parent_grads = backward(&grad);
            assert_eq!(
                parent_grads.len(),
                node.parents.len(),
                "backward returned {} grads for {} parents",
                parent_grads.len(),
                node.parents.len()
            );
            for (&pid, pg) in node.parents.iter().zip(parent_grads) {
                let Some(pg) = pg else { continue };
                if !nodes[pid].requires_grad {
                    continue;
                }
                assert_eq!(
                    pg.shape(),
                    nodes[pid].value.shape(),
                    "gradient shape mismatch for node {pid}"
                );
                match &mut grads[pid] {
                    Some(acc) => acc.axpy(1.0, &pg),
                    slot => *slot = Some(pg),
                }
            }
        }
        Gradients { grads }
    }

    /// Alias of [`Graph::backward`], kept because `perfbench/src/train.rs`
    /// calls it by this name.
    pub fn backward_parallel(&self, loss: Var<'_>) -> Gradients {
        self.backward(loss)
    }
}

/// A handle to one node in a [`Graph`].
///
/// `Var` is `Copy`; all operations allocate new nodes on the owning graph.
#[derive(Clone, Copy)]
pub struct Var<'g> {
    pub(crate) graph: &'g Graph,
    pub(crate) id: usize,
}

impl std::fmt::Debug for Var<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.id)
            .field("shape", &self.shape())
            .finish()
    }
}

impl<'g> Var<'g> {
    /// The graph this variable belongs to.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Node index within the tape (stable for the graph's lifetime).
    pub fn id(&self) -> usize {
        self.id
    }

    /// A clone of the node's current value.
    pub fn value(&self) -> Tensor {
        self.graph.value_of(self.id)
    }

    /// The node's shape.
    pub fn shape(&self) -> Vec<usize> {
        self.graph.shape_of(self.id)
    }

    /// Whether gradients flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.graph.requires_grad_of(self.id)
    }

    /// Returns a non-differentiable copy of this node (stops gradients).
    pub fn detach(&self) -> Var<'g> {
        self.graph.constant(self.value())
    }

    pub(crate) fn assert_same_graph(&self, other: &Var<'g>) {
        assert!(
            std::ptr::eq(self.graph, other.graph),
            "variables belong to different graphs"
        );
    }
}

/// Gradients produced by [`Graph::backward`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `v`, if any flowed.
    pub fn grad(&self, v: Var<'_>) -> Option<&Tensor> {
        self.grads.get(v.id).and_then(|g| g.as_ref())
    }

    /// Removes and returns the gradient for `v`.
    pub fn take(&mut self, v: Var<'_>) -> Option<Tensor> {
        self.grads.get_mut(v.id).and_then(|g| g.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_constant_flags() {
        let g = Graph::new();
        let a = g.leaf(Tensor::ones(&[2]));
        let c = g.constant(Tensor::ones(&[2]));
        assert!(a.requires_grad());
        assert!(!c.requires_grad());
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn gradient_accumulates_over_fanout() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![3.0], &[1]));
        // y = x*x + x  => dy/dx = 2x + 1 = 7
        let y = x.mul(x).add(x).sum();
        let grads = g.backward(y);
        assert_eq!(grads.grad(x).unwrap().as_slice(), &[7.0]);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![2.0], &[1]));
        let c = g.constant(Tensor::from_vec(vec![5.0], &[1]));
        let y = x.mul(c).sum();
        let grads = g.backward(y);
        assert_eq!(grads.grad(x).unwrap().as_slice(), &[5.0]);
        assert!(grads.grad(c).is_none());
    }

    #[test]
    fn detach_blocks_gradient() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![2.0], &[1]));
        let y = x.detach().mul(x).sum(); // treated as c*x with c=2
        let grads = g.backward(y);
        assert_eq!(grads.grad(x).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn nodes_recorded_after_the_loss_receive_no_gradient() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let loss = a.square().sum();
        // Recorded after the loss id: none of it may contribute gradient.
        let _after = a.mul_scalar(100.0).sum().mul_scalar(2.0);
        let grads = g.backward(loss);
        assert_eq!(grads.grad(a).unwrap().as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn branches_the_loss_never_consumes_stay_gradient_free() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![3.0, -1.0], &[2]));
        let b = g.leaf(Tensor::from_vec(vec![5.0, 5.0], &[2]));
        let used = a.square().sum();
        let _unused = a.mul(b).mul_scalar(7.0).sum();
        let loss = used.mul_scalar(1.0);
        let grads = g.backward(loss);
        assert_eq!(grads.grad(a).unwrap().as_slice(), &[6.0, -2.0]);
        assert!(grads.grad(b).is_none());
    }

    #[test]
    fn requires_grad_false_parents_swallow_hook_contributions() {
        // The hook returns a gradient for the constant parent too; the
        // reverse pass must drop it rather than store or propagate it.
        let g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![2.0, 4.0], &[2]));
        let c = g.constant(Tensor::from_vec(vec![5.0, -3.0], &[2]));
        let av = a.value();
        let cv = c.value();
        let prod = av.zip_broadcast(&cv, |x, y| x * y);
        let y = g.custom(
            &[a, c],
            prod,
            Box::new(move |gout| {
                vec![
                    Some(gout.zip_broadcast(&cv, |g, y| g * y)),
                    Some(gout.zip_broadcast(&av, |g, x| g * x)),
                ]
            }),
        );
        let grads = g.backward(y.sum());
        assert_eq!(grads.grad(a).unwrap().as_slice(), &[5.0, -3.0]);
        assert!(grads.grad(c).is_none());
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn non_scalar_loss_rejected() {
        let g = Graph::new();
        let x = g.leaf(Tensor::ones(&[3]));
        let _ = g.backward(x);
    }

    #[test]
    fn custom_op_round_trip() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0, -2.0], &[2]));
        let v = x.value().map(|t| t * 3.0);
        let y = g.custom(&[x], v, Box::new(|gout| vec![Some(gout.map(|t| t * 3.0))]));
        let loss = y.sum();
        let grads = g.backward(loss);
        assert_eq!(grads.grad(x).unwrap().as_slice(), &[3.0, 3.0]);
    }
}
