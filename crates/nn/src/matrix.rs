//! A small row-major matrix of `f32`, sufficient for the PPO agent.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data[row * self.cols + col]
    }

    /// Mutable element accessor.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        self.data[row * self.cols + col] = value;
    }

    /// One row as a slice.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Flat row-major data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Blocked matrix product against a **transposed** right-hand side:
    /// `self` is `m x k`, `other` is `n x k` (its rows are the columns of
    /// the logical right-hand operand), and the result is `m x n`.
    ///
    /// Network weights are stored row-major as `[out x in]`, which is
    /// exactly the transposed layout, so both operands are walked
    /// contiguously. Blocking tiles the output so the right-hand rows stay
    /// cache-hot across the tile.
    ///
    /// Each output element is a single sequentially accumulated dot product
    /// (ascending `k`), the same accumulation [`crate::Linear::forward`]
    /// performs before adding its bias — blocking reorders the *elements*,
    /// never the accumulation within one element. No layer calls it today:
    /// the learner runs per sample, and the repo benchmark times it as
    /// `nn.matmul_mflops`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree (`self.cols != other.cols`).
    #[must_use]
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "inner dimensions must match (got {} vs {})",
            self.cols, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        matmul_bt(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
        out
    }
}

/// Output tile edge of the blocked transposed-weights matmul.
const MATMUL_BLOCK: usize = 16;

/// `out[m x n] = a[m x k] · b[n x k]ᵀ`, blocked over the output tiles; see
/// [`Matrix::matmul_transposed`] for the determinism contract.
fn matmul_bt(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    for i0 in (0..m).step_by(MATMUL_BLOCK) {
        let i_end = (i0 + MATMUL_BLOCK).min(m);
        for j0 in (0..n).step_by(MATMUL_BLOCK) {
            let j_end = (j0 + MATMUL_BLOCK).min(n);
            for i in i0..i_end {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (j, out_cell) in out_row.iter_mut().enumerate().take(j_end).skip(j0) {
                    let b_row = &b[j * k..(j + 1) * k];
                    *out_cell = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum::<f32>();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn from_vec_round_trips() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_transposed_matches_manual_dot_products() {
        // a: 2x3, b (transposed rhs): 2x3 -> out 2x2.
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]);
        let out = a.matmul_transposed(&b);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.cols(), 2);
        assert_eq!(out.get(0, 0), 1.0 * 1.0 + 2.0 * 0.0 - 3.0);
        assert_eq!(out.get(0, 1), (1.0f32 * 0.5 + 2.0 * 0.5) + 3.0 * 0.5);
        assert_eq!(out.get(1, 0), 4.0 * 1.0 + 5.0 * 0.0 - 6.0);
    }

    #[test]
    fn matmul_transposed_is_bit_identical_to_the_vector_loop_across_blocks() {
        // Dimensions straddling the block size so multiple tiles execute.
        let m = 21;
        let k = 19;
        let n = 35;
        let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i as f32).sin()).collect());
        let b = Matrix::from_vec(n, k, (0..n * k).map(|i| (i as f32).cos()).collect());
        let out = a.matmul_transposed(&b);
        for i in 0..m {
            for j in 0..n {
                let scalar = a
                    .row(i)
                    .iter()
                    .zip(b.row(j))
                    .map(|(x, y)| x * y)
                    .sum::<f32>();
                assert_eq!(out.get(i, j).to_bits(), scalar.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_transposed_validates_dimensions() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        let _ = a.matmul_transposed(&b);
    }
}
