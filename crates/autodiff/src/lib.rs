//! Reverse-mode automatic differentiation for the ADEPT reproduction.
//!
//! The original ADEPT implementation relies on PyTorch autograd. The Rust
//! ecosystem has no mature equivalent for architecture search, so this crate
//! implements a define-by-run tape from scratch:
//!
//! * a [`Graph`] records operations as they execute;
//! * [`Var`] is a lightweight handle into the tape with operator methods
//!   (`add`, `matmul`, `softmax_rows`, …);
//! * [`Graph::backward`] runs reverse-mode accumulation in descending node
//!   order and returns [`Gradients`] for every leaf. Every accumulation
//!   lands in a fixed order, so gradients are bit-identical at every
//!   thread count (only the GEMM kernels inside the hooks run pooled, and
//!   they partition without changing any output element's sum order);
//! * [`Graph::custom`] is the escape hatch used by higher layers for
//!   hand-derived gradients (batch-norm, pooling, straight-through
//!   estimators);
//! * [`check_gradients`] verifies analytic gradients against central finite
//!   differences — every op in this crate is covered by such a test.
//!
//! Complex-valued photonic math is expressed as pairs of real variables by
//! the `adept-photonics` and `adept` crates, so this tape only ever sees real
//! tensors.
//!
//! # Examples
//!
//! ```
//! use adept_autodiff::Graph;
//! use adept_tensor::Tensor;
//!
//! let g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![2.0], &[1]));
//! let y = x.square().add_scalar(1.0).sum(); // y = x^2 + 1
//! let grads = g.backward(y);
//! assert_eq!(grads.grad(x).unwrap().as_slice(), &[4.0]);
//! ```

mod gradcheck;
mod graph;
mod ops_batched;
mod ops_elementwise;
mod ops_matrix;
mod ops_nn;

pub use gradcheck::{check_gradients, GradCheckError};
pub use graph::{BackwardFn, Gradients, Graph, Var};
pub use ops_batched::{batched_permute_rows, batched_phase_rotate, batched_tile_product_grid};
pub use ops_matrix::{assemble_blocks, assemble_tiles, batched_tile_product, stack};

/// Convenience re-export so downstream crates need only one `use`.
pub use adept_tensor::Tensor;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_example() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![2.0], &[1]));
        let y = x.square().add_scalar(1.0).sum();
        assert_eq!(y.value().item(), 5.0);
        let grads = g.backward(y);
        assert_eq!(grads.grad(x).unwrap().as_slice(), &[4.0]);
    }
}
