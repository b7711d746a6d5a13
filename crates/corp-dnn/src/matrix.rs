//! Minimal dense matrix for the DNN substrate.
//!
//! Row-major `Vec<f64>` storage; only the operations the network needs
//! (matrix-vector products in both orientations, outer-product
//! accumulation). Kept deliberately small — this is a numerics substrate,
//! not a linear-algebra library — and bounds-check friendly: the hot loops
//! iterate rows via `chunks_exact` so the optimizer can elide per-element
//! checks.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "matrix dimensions must be positive: {rows}x{cols}"
        );
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
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix by calling `f(row, col)` for each element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Resizes to `rows x cols`, reusing the existing allocation —
    /// shrinking then growing back never reallocates. Contents afterwards
    /// are unspecified (all consumers overwrite before reading).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        assert!(
            rows > 0 && cols > 0,
            "matrix dimensions must be positive: {rows}x{cols}"
        );
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Resizes to `cols` columns (row count unchanged), zero-filling and
    /// reusing the existing allocation — shrinking then growing back never
    /// reallocates, which keeps scratch buffers warm across alternating
    /// batch widths. Contents afterwards are unspecified (all consumers
    /// overwrite before reading).
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero.
    pub fn reshape_cols(&mut self, cols: usize) {
        assert!(cols > 0, "matrix dimensions must be positive");
        if cols == self.cols {
            return;
        }
        self.cols = cols;
        self.data.resize(self.rows * cols, 0.0);
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `out = self * x` (matrix-vector product). `out` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "input length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *o = row.iter().zip(x).map(|(w, xi)| w * xi).sum();
        }
    }

    /// `out = self * x` with a fused epilogue: `out[i] =
    /// epilogue(i, row_i . x)`. The dot product accumulates in exactly the
    /// same order as [`mul_vec_into`](Self::mul_vec_into), so fusing a bias
    /// add and activation into the epilogue is bit-identical to running the
    /// unfused product followed by a separate bias/activation pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn mul_vec_fused_into<F>(&self, x: &[f64], out: &mut [f64], mut epilogue: F)
    where
        F: FnMut(usize, f64) -> f64,
    {
        assert_eq!(x.len(), self.cols, "input length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (i, (o, row)) in out
            .iter_mut()
            .zip(self.data.chunks_exact(self.cols))
            .enumerate()
        {
            let acc: f64 = row.iter().zip(x).map(|(w, xi)| w * xi).sum();
            *o = epilogue(i, acc);
        }
    }

    /// Blocked matrix-matrix product with a fused per-element epilogue:
    /// `out[i][b] = epilogue(i, row_i . col_b(x))`. `x` and `out` are
    /// *feature-major batches*: column `b` holds sample `b`, so each output
    /// row accumulates as a sequence of `w * x_row` axpys over contiguous
    /// batch rows. Every batch lane still accumulates over `k` in exactly
    /// the scalar dot-product order — evaluating a batch is bit-identical
    /// to evaluating its samples one by one through
    /// [`mul_vec_fused_into`](Self::mul_vec_fused_into).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != cols`, `out.rows() != rows`, or
    /// `out.cols() != x.cols()`.
    pub fn matmul_fused_into<F>(&self, x: &Matrix, out: &mut Matrix, mut epilogue: F)
    where
        F: FnMut(usize, f64) -> f64,
    {
        assert_eq!(x.rows, self.cols, "inner dimension mismatch");
        assert_eq!(out.rows, self.rows, "output row mismatch");
        assert_eq!(out.cols, x.cols, "batch width mismatch");
        let n = x.cols;
        if n == 1 {
            // A one-column batch *is* a vector: the blocked loops below
            // spend a single lane's time on slice set-up (measured ~3x the
            // plain dot product), and the results are the same bits.
            return self.mul_vec_fused_into(&x.data, &mut out.data, epilogue);
        }
        let k_body = self.cols - self.cols % 4;
        for (i, (out_row, w_row)) in out
            .data
            .chunks_exact_mut(n)
            .zip(self.data.chunks_exact(self.cols))
            .enumerate()
        {
            out_row.iter_mut().for_each(|o| *o = 0.0);
            // k-blocked by 8: each pass over the output row applies eight
            // weights, cutting the out-row load/store traffic the plain
            // one-weight axpy is bound by. The adds stay left-associated in
            // ascending k order, so every lane accumulates bit-identically
            // to the scalar dot product.
            let mut k = 0;
            while k + 8 <= self.cols {
                let w = &w_row[k..k + 8];
                let x0 = &x.data[k * n..(k + 1) * n];
                let x1 = &x.data[(k + 1) * n..(k + 2) * n];
                let x2 = &x.data[(k + 2) * n..(k + 3) * n];
                let x3 = &x.data[(k + 3) * n..(k + 4) * n];
                let x4 = &x.data[(k + 4) * n..(k + 5) * n];
                let x5 = &x.data[(k + 5) * n..(k + 6) * n];
                let x6 = &x.data[(k + 6) * n..(k + 7) * n];
                let x7 = &x.data[(k + 7) * n..(k + 8) * n];
                for ((((((((o, &a0), &a1), &a2), &a3), &a4), &a5), &a6), &a7) in out_row
                    .iter_mut()
                    .zip(x0)
                    .zip(x1)
                    .zip(x2)
                    .zip(x3)
                    .zip(x4)
                    .zip(x5)
                    .zip(x6)
                    .zip(x7)
                {
                    *o = (((((((*o + w[0] * a0) + w[1] * a1) + w[2] * a2) + w[3] * a3)
                        + w[4] * a4)
                        + w[5] * a5)
                        + w[6] * a6)
                        + w[7] * a7;
                }
                k += 8;
            }
            while k < k_body {
                let w = &w_row[k..k + 4];
                let x0 = &x.data[k * n..(k + 1) * n];
                let x1 = &x.data[(k + 1) * n..(k + 2) * n];
                let x2 = &x.data[(k + 2) * n..(k + 3) * n];
                let x3 = &x.data[(k + 3) * n..(k + 4) * n];
                for ((((o, &a0), &a1), &a2), &a3) in
                    out_row.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3)
                {
                    *o = (((*o + w[0] * a0) + w[1] * a1) + w[2] * a2) + w[3] * a3;
                }
                k += 4;
            }
            for (&w, x_row) in w_row[k_body..]
                .iter()
                .zip(x.data[k_body * n..].chunks_exact(n))
            {
                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                    *o += w * xv;
                }
            }
            for o in out_row.iter_mut() {
                *o = epilogue(i, *o);
            }
        }
    }

    /// `out = self^T * x` (transposed matrix-vector product), used to
    /// back-propagate error terms (paper Eq. 7 sums over the *upper* layer's
    /// errors weighted by `w_ji`). `out` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn mul_vec_transposed_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "input length mismatch");
        assert_eq!(out.len(), self.cols, "output length mismatch");
        out.iter_mut().for_each(|o| *o = 0.0);
        for (xi, row) in x.iter().zip(self.data.chunks_exact(self.cols)) {
            if *xi == 0.0 {
                continue;
            }
            for (o, w) in out.iter_mut().zip(row) {
                *o += w * xi;
            }
        }
    }

    /// Accumulates the scaled outer product `self += scale * a * b^T`,
    /// which is exactly the weight update of paper Eq. 8 with
    /// `scale = mu`, `a = E(d)`, `b = g(d-1)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != rows` or `b.len() != cols`.
    pub fn add_outer_scaled(&mut self, a: &[f64], b: &[f64], scale: f64) {
        assert_eq!(a.len(), self.rows, "row factor length mismatch");
        assert_eq!(b.len(), self.cols, "column factor length mismatch");
        for (ai, row) in a.iter().zip(self.data.chunks_exact_mut(self.cols)) {
            let s = scale * ai;
            if s == 0.0 {
                continue;
            }
            for (w, bj) in row.iter_mut().zip(b) {
                *w += s * bj;
            }
        }
    }

    /// Scales every element in place (used for momentum decay).
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Adds another matrix element-wise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Fused momentum update for the per-sample path: one pass computing
    /// `velocity = momentum * velocity + scale * a * b^T` followed by
    /// `self += velocity`, replacing the three-pass
    /// `scale`/`add_outer_scaled`/`add_assign` sequence. Per element the
    /// operations and their order are unchanged (decay, optional add,
    /// accumulate), so the result is bit-identical to the unfused sequence;
    /// rows whose `scale * a[i]` is zero still decay their velocity and
    /// still apply it to the weights, matching the legacy semantics.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch between `self`, `velocity`, `a`, and `b`.
    pub fn momentum_step(
        &mut self,
        velocity: &mut Matrix,
        a: &[f64],
        b: &[f64],
        momentum: f64,
        scale: f64,
    ) {
        assert_eq!(
            (self.rows, self.cols),
            (velocity.rows, velocity.cols),
            "velocity shape mismatch"
        );
        assert_eq!(a.len(), self.rows, "row factor length mismatch");
        assert_eq!(b.len(), self.cols, "column factor length mismatch");
        for ((ai, w_row), v_row) in a
            .iter()
            .zip(self.data.chunks_exact_mut(self.cols))
            .zip(velocity.data.chunks_exact_mut(self.cols))
        {
            let s = scale * ai;
            if s == 0.0 {
                for (w, v) in w_row.iter_mut().zip(v_row) {
                    *v *= momentum;
                    *w += *v;
                }
            } else {
                for ((w, v), bj) in w_row.iter_mut().zip(v_row).zip(b) {
                    *v = momentum * *v + s * bj;
                    *w += *v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 11.0);
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        // [[1,2],[3,4],[5,6]] * [1, -1] = [-1, -1, -1]
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![0.0; 3];
        m.mul_vec_into(&[1.0, -1.0], &mut out);
        assert_eq!(out, vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn transposed_mul_matches_hand_computation() {
        // [[1,2],[3,4]]^T * [1, 1] = [4, 6]
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut out = vec![0.0; 2];
        m.mul_vec_transposed_into(&[1.0, 1.0], &mut out);
        assert_eq!(out, vec![4.0, 6.0]);
    }

    #[test]
    fn transposed_mul_agrees_with_explicit_transpose() {
        let m = Matrix::from_fn(4, 3, |r, c| (r as f64 + 1.0) * (c as f64 - 1.0));
        let x = [0.5, -1.5, 2.0, 0.25];
        let mut fast = vec![0.0; 3];
        m.mul_vec_transposed_into(&x, &mut fast);
        for c in 0..3 {
            let slow: f64 = (0..4).map(|r| m.get(r, c) * x[r]).sum();
            assert!((fast[c] - slow).abs() < 1e-12);
        }
    }

    #[test]
    fn outer_product_accumulates_eq8_shape() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer_scaled(&[1.0, 2.0], &[10.0, 20.0, 30.0], 0.5);
        // m[r][c] = 0.5 * a[r] * b[c]
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(m.get(0, 2), 15.0);
        assert_eq!(m.get(1, 1), 20.0);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[4.0, 6.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn fused_mul_vec_is_bit_identical_to_unfused_pass() {
        let m = Matrix::from_fn(5, 4, |r, c| ((r * 7 + c * 3) as f64).sin());
        let x = [0.3, -1.7, 2.2, 0.9];
        let bias = [0.1, -0.2, 0.3, -0.4, 0.5];
        let mut plain = vec![0.0; 5];
        m.mul_vec_into(&x, &mut plain);
        for (p, b) in plain.iter_mut().zip(&bias) {
            *p = 1.0 / (1.0 + (-(*p + b)).exp());
        }
        let mut fused = vec![0.0; 5];
        m.mul_vec_fused_into(&x, &mut fused, |i, acc| {
            1.0 / (1.0 + (-(acc + bias[i])).exp())
        });
        assert_eq!(
            plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batched_matmul_is_bit_identical_to_per_sample_columns() {
        // 7 columns exercises both the 4-lane block and the remainder loop.
        let m = Matrix::from_fn(6, 5, |r, c| ((r * 3 + c) as f64 * 0.37).cos());
        let x = Matrix::from_fn(5, 7, |r, c| ((r + c * 11) as f64 * 0.13).sin());
        let bias = [0.05, -0.1, 0.15, -0.2, 0.25, -0.3];
        let mut out = Matrix::zeros(6, 7);
        m.matmul_fused_into(&x, &mut out, |i, acc| {
            1.0 / (1.0 + (-(acc + bias[i])).exp())
        });
        for b in 0..7 {
            let col: Vec<f64> = (0..5).map(|k| x.get(k, b)).collect();
            let mut single = vec![0.0; 6];
            m.mul_vec_fused_into(&col, &mut single, |i, acc| {
                1.0 / (1.0 + (-(acc + bias[i])).exp())
            });
            for (i, s) in single.iter().enumerate() {
                assert_eq!(out.get(i, b).to_bits(), s.to_bits(), "col {b} row {i}");
            }
        }
    }

    #[test]
    fn momentum_step_is_bit_identical_to_three_pass_update() {
        let mut w_fused = Matrix::from_fn(3, 4, |r, c| ((r + c) as f64 * 0.1).sin());
        let mut v_fused = Matrix::from_fn(3, 4, |r, c| ((r * c) as f64 * 0.05).cos());
        let mut w_ref = w_fused.clone();
        let mut v_ref = v_fused.clone();
        // a[1] == 0.0 exercises the zero-row path: velocity still decays
        // and still applies.
        let a = [0.7, 0.0, -1.3];
        let b = [0.2, -0.4, 0.6, -0.8];
        let (momentum, mu) = (0.5, 0.05);

        v_ref.scale(momentum);
        v_ref.add_outer_scaled(&a, &b, mu);
        w_ref.add_assign(&v_ref);

        w_fused.momentum_step(&mut v_fused, &a, &b, momentum, mu);

        assert_eq!(
            w_ref
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            w_fused
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            v_ref
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            v_fused
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic]
    fn zero_dimension_rejected() {
        Matrix::zeros(0, 3);
    }

    #[test]
    #[should_panic]
    fn mul_vec_rejects_bad_length() {
        let m = Matrix::zeros(2, 3);
        let mut out = vec![0.0; 2];
        m.mul_vec_into(&[1.0, 2.0], &mut out);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_wrong_len() {
        Matrix::from_vec(2, 2, vec![1.0; 3]);
    }
}
