//! Numeric substrate for the RPoL reproduction.
//!
//! This crate provides the small set of numerics the rest of the workspace
//! builds on:
//!
//! * [`Shape`] — dimension bookkeeping for dense arrays,
//! * [`Tensor`] — a dense, row-major `f32` n-d array with the elementwise,
//!   matrix and reduction operations needed for neural-network training,
//! * [`gemm`] — the cache-blocked, packed matrix multiply (transposes fused
//!   into packing) behind every dense layer; every kernel is bitwise
//!   deterministic across blockings and thread counts because checkpoint
//!   commitments hash exact `f32` bytes,
//! * [`conv`] — the two implicit-operand products `Conv2d` lowers onto:
//!   im2col read through an offset table instead of built, under the same
//!   one-chain-per-element contract as [`gemm`],
//! * [`quant`] — the deterministic bf16-pattern weight quantizer behind
//!   RPoLv3's halved commitment and wire bytes,
//! * [`scratch`] — one process-wide pool for every epoch-sized buffer
//!   (activations, weight vectors, frames), shared by all threads, so
//!   steady-state epochs run allocation-free and no thread's allocator
//!   keeps a pass,
//! * [`rng::Pcg32`] / [`rng::SplitMix64`] — small, fully deterministic
//!   pseudo-random generators (protocol-critical randomness in RPoL must be
//!   reproducible by the verifier, so we do not rely on OS entropy),
//! * [`stats`] — summary statistics, the normal CDF, and a
//!   Kolmogorov–Smirnov normality test used to validate the paper's claim
//!   that DNN reproduction errors are normally distributed (Fig. 4).
//!
//! # Examples
//!
//! ```
//! use rpol_tensor::gemm::{self, Trans};
//! use rpol_tensor::{rng::Pcg32, Tensor};
//!
//! let mut rng = Pcg32::seed_from(42);
//! let a = Tensor::randn(&[2, 3], &mut rng);
//! let b = Tensor::randn(&[3, 2], &mut rng);
//! // [2, 3] · [3, 2], both operands as stored, on one thread.
//! let c = gemm::matmul(2, 2, 3, a.data(), Trans::No, b.data(), Trans::No, 1);
//! assert_eq!(c.len(), 4);
//! ```

pub mod conv;
pub mod gemm;
pub mod quant;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use shape::Shape;
pub use tensor::Tensor;
