//! Dense, row-major `f32` n-d arrays.

use crate::rng::Pcg32;
use crate::shape::Shape;
use serde::Serialize;
use std::fmt;
use std::ops::{AddAssign, Mul};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the carrier type for model weights, gradients, activations
/// and checkpoint payloads throughout the workspace. It favours explicit,
/// panicking shape checks (per C-VALIDATE) over silent broadcasting: the
/// training code in `rpol-nn` always knows its shapes statically.
///
/// # Examples
///
/// ```
/// use rpol_tensor::Tensor;
///
/// let mut a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// a += &Tensor::ones(&[2, 2]);
/// assert_eq!(a.data(), &[2.0, 3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, PartialEq, Serialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Self {
            shape,
            data: vec![1.0; len],
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the number of elements implied
    /// by `dims`.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape} ({} elements)",
            data.len(),
            shape.len()
        );
        Self { shape, data }
    }

    /// Creates a tensor of i.i.d. standard-normal draws.
    pub fn randn(dims: &[usize], rng: &mut Pcg32) -> Self {
        let shape = Shape::new(dims);
        let mut data = vec![0.0; shape.len()];
        rng.fill_normal(&mut data);
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A view of the raw data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the raw data in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its raw data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.data.len(),
            "cannot reshape {} elements into {shape}",
            self.data.len()
        );
        Self {
            shape,
            data: self.data.clone(),
        }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// The sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// The mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// The Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Matrix–vector product for a rank-2 tensor and a rank-1 tensor:
    /// `[m,k] x [k] -> [m]`.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn matvec(&self, v: &Self) -> Self {
        assert_eq!(self.shape.rank(), 2, "matvec lhs must be rank 2");
        assert_eq!(v.shape.rank(), 1, "matvec rhs must be rank 1");
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        assert_eq!(k, v.len(), "matvec dimension mismatch");
        let mut out = vec![0.0f32; m];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data[i * k..(i + 1) * k]
                .iter()
                .zip(&v.data)
                .map(|(&a, &b)| a * b)
                .sum();
        }
        Tensor::from_vec(&[m], out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// Cache-blocked: the matrix is walked in square tiles so both the
    /// read and the strided write stay within a few cache lines, instead
    /// of streaming one side with an `n`-element stride.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank 2.
    pub fn transpose(&self) -> Self {
        const TB: usize = 32;
        assert_eq!(self.shape.rank(), 2, "transpose requires rank 2");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i0 in (0..m).step_by(TB) {
            let i1 = (i0 + TB).min(m);
            for j0 in (0..n).step_by(TB) {
                let j1 = (j0 + TB).min(n);
                for i in i0..i1 {
                    let src = &self.data[i * n..];
                    for j in j0..j1 {
                        out[j * m + i] = src[j];
                    }
                }
            }
        }
        Tensor::from_vec(&[n, m], out)
    }

    fn check_same_shape(&self, other: &Self) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 8 {
            write!(f, "Tensor({}, {:?})", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor({}, [{:.4}, {:.4}, .. {} elems])",
                self.shape,
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

/// Element-wise `self += rhs`: a residual connection's sum.
///
/// # Panics
///
/// Panics if the shapes differ.
impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.check_same_shape(rhs);
        for (x, &y) in self.data.iter_mut().zip(&rhs.data) {
            *x += y;
        }
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{self, Trans};
    use crate::stats;

    /// `a · b` for rank-2 tensors, by the GEMM kernel the layers call.
    fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.shape().dim(0), a.shape().dim(1), b.shape().dim(1));
        let c = gemm::matmul(m, n, k, a.data(), Trans::No, b.data(), Trans::No, 1);
        Tensor::from_vec(&[m, n], c)
    }

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.data()[0], 1.0);
        assert_eq!(t.data()[5], 6.0);
        assert_eq!(t.len(), 6);
        assert_eq!(t.sum(), 21.0);
        assert!((t.mean() - 3.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_checked() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let id = Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &id), a);
        assert_eq!(matmul(&id, &a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let v = Tensor::from_vec(&[3], vec![1., 0., -1.]);
        let got = a.matvec(&v);
        assert_eq!(got.data(), &[-2.0, -2.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Pcg32::seed_from(5);
        let a = Tensor::randn(&[3, 4], &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_and_ops() {
        let mut c = Tensor::from_vec(&[3], vec![-4., -8., -12.]);
        let d = &c * 0.25;
        assert_eq!(d.data(), &[-1., -2., -3.]);
        c.scale(-0.5);
        assert_eq!(c.data(), &[2., 4., 6.]);
        c.map_inplace(|x| x + 1.0);
        assert_eq!(c.data(), &[3., 5., 7.]);
    }

    #[test]
    fn euclidean_distance_basic() {
        let a = Tensor::from_vec(&[2], vec![0., 0.]);
        let b = Tensor::from_vec(&[2], vec![3., 4.]);
        assert!((stats::euclidean(a.data(), b.data()) - 5.0).abs() < 1e-6);
        assert_eq!(stats::euclidean(a.data(), a.data()), 0.0);
    }

    #[test]
    fn norm_matches_distance_from_zero() {
        let mut rng = Pcg32::seed_from(9);
        let a = Tensor::randn(&[100], &mut rng);
        let z = Tensor::zeros(&[100]);
        assert!((a.norm() - stats::euclidean(a.data(), z.data())).abs() < 1e-4);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape().dims(), &[3, 2]);
    }

    #[test]
    fn randn_is_seeded() {
        let mut r1 = Pcg32::seed_from(1);
        let mut r2 = Pcg32::seed_from(1);
        assert_eq!(Tensor::randn(&[10], &mut r1), Tensor::randn(&[10], &mut r2));
    }
}
