//! # insight-gp — traffic modelling by Gaussian-process regression on graphs
//!
//! Implements Section 6 of the EDBT 2014 paper: traffic flow at unmeasured
//! street-network locations is estimated with a Gaussian process whose
//! covariance is a *graph kernel* — specifically the regularized Laplacian
//! kernel
//!
//! ```text
//! K = [ β (L + I/α²) ]⁻¹
//! ```
//!
//! where `L = D − A` is the combinatorial Laplacian of the traffic graph and
//! `α`, `β` are hyperparameters chosen by grid search in `[0, 10]`.
//!
//! Given noisy observations `y = f + ε`, `ε ∼ N(0, σ²)` at observed vertices
//! `ū`, the predictive distribution at unobserved vertices `u` is Gaussian
//! with
//!
//! ```text
//! m = K_{u,ū} (K_{ū,ū} + σ²I)⁻¹ y
//! Σ = K_{u,u} − K_{u,ū} (K_{ū,ū} + σ²I)⁻¹ K_{ū,u}
//! ```
//!
//! The crate is self-contained: `linalg` provides the dense symmetric
//! linear algebra (Cholesky factorisation, solves, SPD inverses), [`graph`]
//! the street-graph representation, [`kernel`] the graph kernels,
//! [`regression`] the GP posterior, [`gridsearch`] hyperparameter selection
//! and [`render`] the green-to-red map rendering of Figure 9.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
// `!(x > 0.0)` guards are deliberate: they reject NaN along with the
// out-of-range values, which `x <= 0.0` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod error;
pub mod graph;
pub mod gridsearch;
pub mod kernel;
mod linalg;
pub mod regression;
pub mod render;
pub mod testing;

pub use error::GpError;
pub use graph::Graph;
pub use kernel::{DiffusionKernel, Kernel, RbfKernel, RegularizedLaplacian};
pub use linalg::Matrix;
pub use regression::{GpRegression, Posterior};
