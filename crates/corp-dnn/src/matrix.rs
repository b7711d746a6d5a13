//! Minimal dense matrix for the DNN substrate.
//!
//! Row-major `Vec<f64>` storage; only the operations the network needs
//! (matrix-vector products in both orientations, outer-product
//! accumulation). Kept deliberately small — this is a numerics substrate,
//! not a linear-algebra library — and bounds-check friendly: the hot loops
//! iterate rows via `chunks_exact` so the optimizer can elide per-element
//! checks.

/// Output rows per register tile of [`Matrix::matmul_fused_into`]: Table
/// II's 50-unit layers cut into ten tiles with no short one.
const TILE_ROWS: usize = 5;

/// Batch lanes per register tile of [`Matrix::matmul_fused_into`]: with
/// [`TILE_ROWS`] rows, 40 sums — ten 4-wide AVX2 registers, leaving room
/// for the two input vectors and the broadcast weight.
pub(crate) const TILE_LANES: usize = 8;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
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
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
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
    #[cfg(test)]
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
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
    pub(crate) fn reshape(&mut self, rows: usize, cols: usize) {
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
    pub(crate) fn reshape_cols(&mut self, cols: usize) {
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
    #[cfg(test)]
    pub(crate) fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
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
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major buffer.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major buffer.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
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
    /// epilogue(i, row_i . x)`. Rows go four at a time, their dot products
    /// interleaved (four add chains, not one latency-bound chain), and the
    /// rows past the last full block one by one. Each row adds `w_k * x_k`
    /// in ascending `k` from the start of [`mul_vec_into`](Self::mul_vec_into)'s
    /// `.sum()`: the same bits, but for a NaN's unspecified sign and payload.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub(crate) fn mul_vec_fused_into<F>(&self, x: &[f64], out: &mut [f64], mut epilogue: F)
    where
        F: FnMut(usize, f64) -> f64,
    {
        assert_eq!(x.len(), self.cols, "input length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        let start: f64 = std::iter::empty::<f64>().sum();
        let mut blocks = self.data.chunks_exact(4 * self.cols);
        let mut i = 0;
        for (w, o) in (&mut blocks).zip(out.chunks_exact_mut(4)) {
            let (w01, w23) = w.split_at(2 * self.cols);
            let ((w0, w1), (w2, w3)) = (w01.split_at(self.cols), w23.split_at(self.cols));
            let mut acc = [start; 4];
            for ((((a, b), c), d), xk) in w0.iter().zip(w1).zip(w2).zip(w3).zip(x) {
                acc[0] += a * xk;
                acc[1] += b * xk;
                acc[2] += c * xk;
                acc[3] += d * xk;
            }
            for (o, sum) in o.iter_mut().zip(acc) {
                *o = epilogue(i, sum);
                i += 1;
            }
        }
        for (o, row) in out[i..]
            .iter_mut()
            .zip(blocks.remainder().chunks_exact(self.cols))
        {
            *o = epilogue(i, row.iter().zip(x).map(|(w, xi)| w * xi).sum());
            i += 1;
        }
    }

    /// Register-blocked matrix-matrix product with a fused per-element
    /// epilogue: `out[i][b] = epilogue(i, row_i . col_b(x))`. `x` and `out`
    /// are *feature-major batches*: column `b` holds sample `b`. The output
    /// is cut into tiles of [`TILE_ROWS`] rows × [`TILE_LANES`] lanes
    /// (smaller at the edges) whose sums stay in registers across the whole
    /// `k` loop, so each weight and each input is loaded once per tile
    /// rather than once per output element. Every lane still adds
    /// `w_k * x_k` onto 0.0 in ascending `k` — the scalar dot-product order
    /// — so evaluating a batch is bit-identical to evaluating its samples
    /// one by one through [`mul_vec_fused_into`](Self::mul_vec_fused_into).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != cols`, `out.rows() != rows`, or
    /// `out.cols() != x.cols()`.
    pub(crate) fn matmul_fused_into<F>(&self, x: &Matrix, out: &mut Matrix, mut epilogue: F)
    where
        F: FnMut(usize, f64) -> f64,
    {
        assert_eq!(x.rows, self.cols, "inner dimension mismatch");
        assert_eq!(out.rows, self.rows, "output row mismatch");
        assert_eq!(out.cols, x.cols, "batch width mismatch");
        let n = x.cols;
        if n == 1 {
            // A one-column batch *is* a vector: the same bits from the
            // plain dot product, without the tile set-up.
            return self.mul_vec_fused_into(&x.data, &mut out.data, epilogue);
        }
        for b in (0..n).step_by(TILE_LANES) {
            let mut i = 0;
            while i < self.rows {
                // Full-height tiles, then one lower tile for the rest.
                let height = (self.rows - i).min(TILE_ROWS);
                let full = n - b >= TILE_LANES;
                let e = &mut epilogue;
                match (height, full) {
                    (5, true) => self.tile::<5, false, F>(x, out, i, b, e),
                    (5, false) => self.tile::<5, true, F>(x, out, i, b, e),
                    (4, true) => self.tile::<4, false, F>(x, out, i, b, e),
                    (4, false) => self.tile::<4, true, F>(x, out, i, b, e),
                    (3, true) => self.tile::<3, false, F>(x, out, i, b, e),
                    (3, false) => self.tile::<3, true, F>(x, out, i, b, e),
                    (2, true) => self.tile::<2, false, F>(x, out, i, b, e),
                    (2, false) => self.tile::<2, true, F>(x, out, i, b, e),
                    (_, true) => self.tile::<1, false, F>(x, out, i, b, e),
                    (_, false) => self.tile::<1, true, F>(x, out, i, b, e),
                }
                i += height;
            }
        }
    }

    /// One tile of [`matmul_fused_into`](Self::matmul_fused_into): rows
    /// `i..i + R`, lanes `b..b + TILE_LANES` (fewer at the batch's end),
    /// `out[i + r][b + l] = epilogue(i + r, row_{i+r} . col_{b+l}(x))`, each
    /// sum starting at 0.0 and adding in ascending `k`. A `SHORT` tile
    /// fills its missing lanes with zeros and drops their sums.
    #[inline(always)]
    fn tile<const R: usize, const SHORT: bool, F>(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        i: usize,
        b: usize,
        epilogue: &mut F,
    ) where
        F: FnMut(usize, f64) -> f64,
    {
        let (n, k_len) = (x.cols, self.cols);
        let lanes = (n - b).min(TILE_LANES);
        let w = &self.data[i * k_len..(i + R) * k_len];
        let mut acc = [[0.0f64; TILE_LANES]; R];
        for (k, x_row) in x.data.chunks_exact(n).enumerate() {
            let x_row = &x_row[b..];
            let xk: [f64; TILE_LANES] = if SHORT {
                std::array::from_fn(|l| if l < lanes { x_row[l] } else { 0.0 })
            } else {
                let x_row = &x_row[..TILE_LANES];
                std::array::from_fn(|l| x_row[l])
            };
            for r in 0..R {
                let wk = w[r * k_len + k];
                for l in 0..TILE_LANES {
                    acc[r][l] += wk * xk[l];
                }
            }
        }
        for (r, sums) in acc.iter().enumerate() {
            for (o, &sum) in out.data[(i + r) * n + b..][..lanes].iter_mut().zip(sums) {
                *o = epilogue(i + r, sum);
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
    pub(crate) fn mul_vec_transposed_into(&self, x: &[f64], out: &mut [f64]) {
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
    pub(crate) fn add_outer_scaled(&mut self, a: &[f64], b: &[f64], scale: f64) {
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

    /// Scales every element in place (the reference training step's
    /// momentum decay).
    #[cfg(test)]
    pub(crate) fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Adds another matrix element-wise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[cfg(test)]
    pub(crate) fn add_assign(&mut self, other: &Matrix) {
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
    pub(crate) fn momentum_step(
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
    use proptest::prelude::*;

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

    /// One matrix or input entry: mostly finite, sometimes a signed zero,
    /// a subnormal, huge, NaN or infinite.
    fn entry() -> impl Strategy<Value = f64> {
        (0u8..40, -1.0f64..1.0).prop_map(|(kind, v)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => v * f64::MIN_POSITIVE,
            3 => v * 1e300,
            4 => f64::NAN,
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            _ => 4.0 * v,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn interleaved_mul_vec_is_bit_identical_to_mul_vec_into(
            rows in 1usize..71,
            cols in 1usize..71,
            entries in prop::collection::vec(entry(), 1..400),
        ) {
            // The entries repeat to fill any shape: rows * cols weights,
            // then cols inputs.
            let mut next = entries.iter().copied().cycle();
            let m = Matrix::from_fn(rows, cols, |_, _| next.next().unwrap_or(0.0));
            let x: Vec<f64> = next.take(cols).collect();
            let mut want = vec![0.5; rows];
            m.mul_vec_into(&x, &mut want);
            let mut got = vec![0.5; rows];
            m.mul_vec_fused_into(&x, &mut got, |_, acc| acc);
            // Every bit but a NaN's: Rust leaves the sign and payload of
            // a NaN result unspecified (either operand's, or the default
            // NaN), and the two loops' code does differ there.
            let bits = |v: &[f64]| {
                v.iter()
                    .map(|v| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() })
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn batched_matmul_is_bit_identical_to_per_sample_columns() {
        // Row counts around the 4-row tile and lane counts around the 8-
        // and 4-lane tiles exercise every tile shape and both tails.
        for rows in [1, 3, 4, 6, 9] {
            for cols in [1, 5, 8] {
                let m = Matrix::from_fn(rows, cols, |r, c| ((r * 3 + c) as f64 * 0.37).cos());
                let bias: Vec<f64> = (0..rows).map(|i| (i as f64 - 2.5) * 0.05).collect();
                for n in [2, 3, 4, 7, 8, 12, 13, 21] {
                    let x = Matrix::from_fn(cols, n, |r, c| ((r + c * 11) as f64 * 0.13).sin());
                    let mut out = Matrix::zeros(rows, n);
                    m.matmul_fused_into(&x, &mut out, |i, acc| {
                        1.0 / (1.0 + (-(acc + bias[i])).exp())
                    });
                    for b in 0..n {
                        let col: Vec<f64> = (0..cols).map(|k| x.get(k, b)).collect();
                        let mut single = vec![0.0; rows];
                        m.mul_vec_fused_into(&col, &mut single, |i, acc| {
                            1.0 / (1.0 + (-(acc + bias[i])).exp())
                        });
                        for (i, s) in single.iter().enumerate() {
                            assert_eq!(
                                out.get(i, b).to_bits(),
                                s.to_bits(),
                                "{rows}x{cols} by {n}: col {b} row {i}"
                            );
                        }
                    }
                }
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
