//! Dense matrix exponential for the exact transient propagator.
//!
//! The transient chain model is linear and time-invariant, so its state
//! advances over a step `h` by the matrix `exp(M·h)`. This module computes
//! that exponential by scaling and squaring with the degree-13 Padé
//! approximant (Higham, "The scaling and squaring method for the matrix
//! exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005): scale
//! `M·h` by `2^-s` until its 1-norm is below `θ₁₃`, evaluate the rational
//! approximant `(V − U)⁻¹ (V + U)`, and square the result `s` times.
//!
//! The matrices here are the augmented chain generators — a few dozen rows
//! at most — so plain row-major `Vec<f64>` storage and an LU solve with
//! partial pivoting are all the linear algebra it needs.

/// Padé [13/13] numerator coefficients `b₀ … b₁₃`.
const PADE13: [f64; 14] = [
    64_764_752_532_480_000.0,
    32_382_376_266_240_000.0,
    7_771_770_303_897_600.0,
    1_187_353_796_428_800.0,
    129_060_195_264_000.0,
    10_559_470_521_600.0,
    670_442_572_800.0,
    33_522_128_640.0,
    1_323_241_920.0,
    40_840_800.0,
    960_960.0,
    16_380.0,
    182.0,
    1.0,
];

/// Largest 1-norm for which the [13/13] approximant is accurate to unit
/// roundoff without scaling.
const THETA13: f64 = 5.371_920_351_148_152;

/// A square row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Mat {
    n: usize,
    a: Vec<f64>,
}

impl Mat {
    /// The `n × n` zero matrix.
    pub(crate) fn zeros(n: usize) -> Self {
        Mat {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// The `n × n` identity.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n);
        for i in 0..n {
            m.a[i * n + i] = 1.0;
        }
        m
    }

    /// Row `i` as a slice.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.a[i * self.n..(i + 1) * self.n]
    }

    /// Sets entry `(i, j)`.
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        self.a[i * self.n + j] = v;
    }

    /// `out[i] = Σ_j self[i][j] · x[j]` for the first `out.len()` rows.
    pub(crate) fn mul_vec(&self, x: &[f64], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.row(i).iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// `e^{self}`.
    pub(crate) fn exp(&self) -> Mat {
        let norm = self.norm1();
        // `norm` is finite and non-negative for any finite matrix; the
        // power is a small count of halvings.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let s = if norm > THETA13 {
            (norm / THETA13).log2().ceil() as i32
        } else {
            0
        };
        let a = self.scaled(0.5f64.powi(s));
        let n = self.n;
        let id = Mat::identity(n);
        let a2 = a.mul(&a);
        let a4 = a2.mul(&a2);
        let a6 = a4.mul(&a2);
        let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13] = PADE13;

        let mut u_inner = a6.scaled(b13);
        u_inner.add_scaled(&a4, b11);
        u_inner.add_scaled(&a2, b9);
        let mut u_sum = a6.mul(&u_inner);
        u_sum.add_scaled(&a6, b7);
        u_sum.add_scaled(&a4, b5);
        u_sum.add_scaled(&a2, b3);
        u_sum.add_scaled(&id, b1);
        let u = a.mul(&u_sum);

        let mut v_inner = a6.scaled(b12);
        v_inner.add_scaled(&a4, b10);
        v_inner.add_scaled(&a2, b8);
        let mut v = a6.mul(&v_inner);
        v.add_scaled(&a6, b6);
        v.add_scaled(&a4, b4);
        v.add_scaled(&a2, b2);
        v.add_scaled(&id, b0);

        let mut p = v.clone();
        p.add_scaled(&u, 1.0);
        let mut q = v;
        q.add_scaled(&u, -1.0);
        let mut r = q.solve(p);
        for _ in 0..s {
            r = r.mul(&r);
        }
        r
    }

    /// `s · self`.
    pub(crate) fn scaled(&self, s: f64) -> Mat {
        Mat {
            n: self.n,
            a: self.a.iter().map(|x| x * s).collect(),
        }
    }

    /// `self += s · other`.
    fn add_scaled(&mut self, other: &Mat, s: f64) {
        for (x, y) in self.a.iter_mut().zip(&other.a) {
            *x += s * y;
        }
    }

    fn mul(&self, other: &Mat) -> Mat {
        let n = self.n;
        let mut out = Mat::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let aik = self.a[i * n + k];
                if aik == 0.0 {
                    continue;
                }
                let (dst, src) = (&mut out.a[i * n..(i + 1) * n], other.row(k));
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d += aik * x;
                }
            }
        }
        out
    }

    /// Maximum absolute column sum.
    fn norm1(&self) -> f64 {
        (0..self.n)
            .map(|j| {
                (0..self.n)
                    .map(|i| self.a[i * self.n + j].abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Solves `self · X = rhs` by LU with partial pivoting, consuming both.
    /// A singular `self` yields non-finite entries rather than a panic; the
    /// Padé denominator is non-singular for every scaled input.
    fn solve(mut self, mut rhs: Mat) -> Mat {
        let n = self.n;
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&x, &y| {
                    self.a[x * n + col]
                        .abs()
                        .total_cmp(&self.a[y * n + col].abs())
                })
                .unwrap_or(col);
            if pivot != col {
                for j in 0..n {
                    self.a.swap(col * n + j, pivot * n + j);
                    rhs.a.swap(col * n + j, pivot * n + j);
                }
            }
            let d = self.a[col * n + col];
            for row in col + 1..n {
                let f = self.a[row * n + col] / d;
                if f == 0.0 {
                    continue;
                }
                for j in col..n {
                    self.a[row * n + j] -= f * self.a[col * n + j];
                }
                for j in 0..n {
                    rhs.a[row * n + j] -= f * rhs.a[col * n + j];
                }
            }
        }
        for col in (0..n).rev() {
            let d = self.a[col * n + col];
            for j in 0..n {
                let mut x = rhs.a[col * n + j];
                for k in col + 1..n {
                    x -= self.a[col * n + k] * rhs.a[k * n + j];
                }
                rhs.a[col * n + j] = x / d;
            }
        }
        rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn exp_of_zero_is_identity() {
        assert_eq!(Mat::zeros(3).exp(), Mat::identity(3));
    }

    #[test]
    fn exp_of_diagonal_is_elementwise() {
        let mut m = Mat::zeros(2);
        m.set(0, 0, -3.0);
        m.set(1, 1, 40.0);
        let e = m.exp();
        assert!(close(e.row(0)[0], (-3.0f64).exp(), 1e-13));
        assert!(close(e.row(1)[1], 40.0f64.exp(), 1e-12));
        assert!(e.row(0)[1].abs() < 1e-12 && e.row(1)[0].abs() < 1e-12);
    }

    #[test]
    fn exp_of_rotation_generator_is_rotation() {
        // [[0, -w], [w, 0]] generates a rotation by w radians; a large w
        // exercises the scaling and squaring.
        for w in [0.3, 2.0, 57.0] {
            let mut m = Mat::zeros(2);
            m.set(0, 1, -w);
            m.set(1, 0, w);
            let e = m.exp();
            assert!(close(e.row(0)[0], w.cos(), 1e-12), "w = {w}");
            assert!(close(e.row(1)[0], w.sin(), 1e-12), "w = {w}");
        }
    }

    #[test]
    fn exp_of_nilpotent_is_its_taylor_polynomial() {
        // A ramp generator: x' = y, y' = 1 (via a constant third state).
        let mut m = Mat::zeros(3);
        m.set(0, 1, 2.0);
        m.set(1, 2, 3.0);
        let e = m.exp();
        assert!(close(e.row(0)[1], 2.0, 1e-14));
        assert!(close(e.row(0)[2], 3.0, 1e-14));
        assert!(close(e.row(1)[2], 3.0, 1e-14));
    }
}
