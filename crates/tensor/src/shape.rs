//! Dimension bookkeeping for dense row-major arrays.

use serde::Serialize;
use std::fmt;

/// The dimensions of a dense, row-major tensor.
///
/// A `Shape` is an ordered list of dimension sizes. The empty shape `[]`
/// denotes a scalar with one element.
///
/// # Examples
///
/// ```
/// use rpol_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.offset(&[1, 2, 3]), 23);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero; zero-sized tensors are never
    /// meaningful in this workspace and almost always indicate a bug.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-sized dimension in shape {dims:?}"
        );
        Self {
            dims: dims.to_vec(),
        }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape holds no elements. Always `false` by construction,
    /// present for API completeness alongside [`Shape::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Computes the linear row-major offset for a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or any coordinate is out of range.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.dims.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.dims.len()
        );
        let mut off = 0;
        for (i, (&ix, &d)) in index.iter().zip(&self.dims).enumerate() {
            assert!(
                ix < d,
                "index {ix} out of range for dimension {i} (size {d})"
            );
            off = off * d + ix;
        }
        off
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element() {
        let s = Shape::new(&[]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn offsets_are_row_major() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.offset(&[0, 0]), 0);
        assert_eq!(s.offset(&[0, 2]), 2);
        assert_eq!(s.offset(&[1, 0]), 3);
        assert_eq!(s.offset(&[1, 2]), 5);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_dim_rejected() {
        Shape::new(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_rejected() {
        Shape::new(&[2, 3]).offset(&[0, 3]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn wrong_rank_rejected() {
        Shape::new(&[2, 3]).offset(&[1]);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let s = Shape::new(&[4, 5]);
        assert_eq!(format!("{s}"), "[4, 5]");
        assert_eq!(format!("{s:?}"), "Shape[4, 5]");
    }
}
