//! Property-style tests for the numerical kernels: randomized inputs from
//! a small in-file PRNG (deterministic, seeded).

use numerics::{cholesky::Cholesky, lu, nnls::nnls, qr, roots, Matrix};

/// SplitMix64: a tiny deterministic generator for test-case sampling.
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }

    fn vec(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.range(lo, hi)).collect()
    }
}

/// A diagonally dominant (hence well-conditioned, non-singular) square
/// matrix of the given order plus a right-hand side.
fn dominant_system(rng: &mut TestRng, n: usize) -> (Matrix, Vec<f64>) {
    let entries = rng.vec(n * n, -1.0, 1.0);
    let b = rng.vec(n, -10.0, 10.0);
    let mut a = Matrix::from_vec(n, n, entries).expect("sized above");
    for i in 0..n {
        let row_sum: f64 = (0..n).map(|j| a[(i, j)].abs()).sum();
        a[(i, i)] = row_sum + 1.0; // strict diagonal dominance
    }
    (a, b)
}

#[test]
fn lu_solves_dominant_systems() {
    let mut rng = TestRng(0x10);
    for _ in 0..64 {
        let (a, b) = dominant_system(&mut rng, 5);
        let x = lu::solve(&a, &b).expect("dominant matrices are non-singular");
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-8, "residual too large: {} vs {}", l, r);
        }
    }
}

#[test]
fn lu_refactor_matches_fresh_factorization() {
    // The reused-scratch path of the circuit simulator's Newton loop: a
    // single Lu object refactored across many matrices must agree with
    // one-shot factorization every time.
    let mut rng = TestRng(0x11);
    let (a0, _) = dominant_system(&mut rng, 6);
    let mut reused = lu::Lu::factor(&a0).unwrap();
    for _ in 0..32 {
        let (a, b) = dominant_system(&mut rng, 6);
        reused.refactor(&a).expect("dominant");
        let mut x = vec![0.0; 6];
        reused.solve_into(&b, &mut x).unwrap();
        let fresh = lu::solve(&a, &b).unwrap();
        for (l, r) in x.iter().zip(&fresh) {
            assert!((l - r).abs() < 1e-12);
        }
    }
}

#[test]
fn lu_det_matches_product_through_inverse() {
    let mut rng = TestRng(0x12);
    for _ in 0..32 {
        let (a, _) = dominant_system(&mut rng, 4);
        // det(A) * det(A^-1) = 1.
        let d = lu::Lu::factor(&a).unwrap().det();
        let inv = lu::inverse(&a).unwrap();
        let dinv = lu::Lu::factor(&inv).unwrap().det();
        assert!((d * dinv - 1.0).abs() < 1e-6);
    }
}

#[test]
fn qr_least_squares_has_orthogonal_residual() {
    let mut rng = TestRng(0x13);
    for _ in 0..48 {
        let entries = rng.vec(8 * 3, -5.0, 5.0);
        let b = rng.vec(8, -5.0, 5.0);
        let a = Matrix::from_vec(8, 3, entries).unwrap();
        // Skip near-rank-deficient draws.
        let qrf = match qr::Qr::factor(&a) {
            Ok(f) if f.is_full_rank() => f,
            _ => continue,
        };
        if let Ok(x) = qrf.solve_least_squares(&b) {
            let ax = a.matvec(&x);
            let r: Vec<f64> = b.iter().zip(ax).map(|(bi, axi)| bi - axi).collect();
            let atr = a.matvec_t(&r);
            assert!(numerics::norm_inf(&atr) < 1e-6 * (1.0 + numerics::norm2(&b)));
        }
    }
}

#[test]
fn cholesky_roundtrips_spd_matrices() {
    let mut rng = TestRng(0x14);
    for _ in 0..48 {
        let entries = rng.vec(4 * 4, -1.0, 1.0);
        // Build SPD as B^T B + I.
        let bmat = Matrix::from_vec(4, 4, entries).unwrap();
        let spd = {
            let mut g = bmat.gram();
            for i in 0..4 {
                g[(i, i)] += 1.0;
            }
            g
        };
        let ch = Cholesky::factor(&spd).expect("construction guarantees SPD");
        let l = ch.lower();
        let rebuilt = l.matmul(&l.transpose());
        assert!((&rebuilt - &spd).norm_max() < 1e-10);
    }
}

#[test]
fn nnls_is_nonnegative_and_no_worse_than_clamped_ls() {
    let mut rng = TestRng(0x15);
    for _ in 0..48 {
        let entries = rng.vec(6 * 3, -3.0, 3.0);
        let b = rng.vec(6, -3.0, 3.0);
        let a = Matrix::from_vec(6, 3, entries).unwrap();
        if let Ok(sol) = nnls(&a, &b) {
            assert!(sol.x.iter().all(|&v| v >= 0.0));
            // Compare against naive clamp of the unconstrained LS solution.
            if let Ok(xls) = qr::lstsq(&a, &b) {
                let clamped: Vec<f64> = xls.iter().map(|&v| v.max(0.0)).collect();
                let res_clamped = {
                    let ax = a.matvec(&clamped);
                    let r: Vec<f64> = b.iter().zip(ax).map(|(bi, axi)| bi - axi).collect();
                    numerics::norm2(&r)
                };
                assert!(
                    sol.residual_norm <= res_clamped + 1e-8,
                    "nnls {} worse than clamp {}",
                    sol.residual_norm,
                    res_clamped
                );
            }
        }
    }
}

#[test]
fn linear_crossing_is_exact_for_lines() {
    let mut rng = TestRng(0x17);
    let slopes = [-2.0, -0.5, 0.5, 2.0];
    for i in 0..64 {
        let x0 = rng.range(-10.0, 10.0);
        let dx = rng.range(0.1, 10.0);
        let slope = slopes[i % slopes.len()];
        // y = slope * (x - x0) crosses 0 exactly at x0.
        let x1 = x0 + dx;
        let y0 = 0.0_f64;
        let y1 = slope * dx;
        if y0.signum() != y1.signum() || y0 == 0.0 {
            let c = roots::linear_crossing(x0, y0, x1, y1, 0.0).unwrap();
            assert!((c - x0).abs() < 1e-9);
        }
    }
}
