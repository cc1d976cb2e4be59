//! Property-style tests for the numerical kernels: randomized inputs from
//! a small in-file PRNG (deterministic, seeded).

use numerics::complex::{CLu, CMatrix, C64};
use numerics::{lu, nnls::nnls, qr, roots, Matrix, NumericsError};

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

/// A random matrix entry: zero with probability 1/4, so pivot searches swap
/// rows and zero multipliers skip their row updates; otherwise uniform in
/// ±1 times a power of ten in 1e-3..1e3.
fn sparse_entry(rng: &mut TestRng) -> f64 {
    if rng.range(0.0, 1.0) < 0.25 {
        0.0
    } else {
        rng.range(-1.0, 1.0) * 10f64.powf(rng.range(-3.0, 3.0))
    }
}

/// Reference real kernel: the elimination and substitution `lu::Lu` ran
/// before one kernel served both scalars, kept verbatim apart from the
/// permutation sign (`abs` pivots, multipliers divided by the pivot).
fn reference_real_eliminate(
    lu: &mut [f64],
    n: usize,
    perm: &mut [usize],
) -> Result<(), NumericsError> {
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    for k in 0..n {
        let mut p = k;
        let mut pmax = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[i * n + k].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if !(pmax > 1e-300) || !pmax.is_finite() {
            return Err(NumericsError::SingularMatrix { pivot: k });
        }
        if p != k {
            for j in 0..n {
                lu.swap(k * n + j, p * n + j);
            }
            perm.swap(k, p);
        }
        let pivot = lu[k * n + k];
        for i in (k + 1)..n {
            let m = lu[i * n + k] / pivot;
            lu[i * n + k] = m;
            if m != 0.0 {
                for j in (k + 1)..n {
                    let ukj = lu[k * n + j];
                    lu[i * n + j] -= m * ukj;
                }
            }
        }
    }
    Ok(())
}

fn reference_real_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
    let n = a.rows();
    let mut lu = a.as_slice().to_vec();
    let mut perm = vec![0; n];
    reference_real_eliminate(&mut lu, n, &mut perm)?;
    let mut x = vec![0.0; n];
    for (xi, &p) in x.iter_mut().zip(&perm) {
        *xi = b[p];
    }
    for i in 1..n {
        let mut s = x[i];
        for j in 0..i {
            s -= lu[i * n + j] * x[j];
        }
        x[i] = s;
    }
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= lu[i * n + j] * x[j];
        }
        x[i] = s / lu[i * n + i];
    }
    Ok(x)
}

/// Reference complex kernel: the AC sweep's separate complex LU before one
/// kernel served both scalars, kept verbatim (1-norm pivots, multipliers
/// and back substitution through one pivot reciprocal per column).
fn reference_complex_eliminate(
    lu: &mut CMatrix,
    perm: &mut [usize],
    inv_diag: &mut [C64],
) -> Result<(), NumericsError> {
    let n = lu.order();
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    for k in 0..n {
        let mut p = k;
        let mut pmax = lu.at(k, k).norm1();
        for i in (k + 1)..n {
            let v = lu.at(i, k).norm1();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if !(pmax > 1e-300) || !pmax.is_finite() {
            return Err(NumericsError::SingularMatrix { pivot: k });
        }
        if p != k {
            for j in 0..n {
                let tmp = lu.at(k, j);
                *lu.at_mut(k, j) = lu.at(p, j);
                *lu.at_mut(p, j) = tmp;
            }
            perm.swap(k, p);
        }
        let inv_pivot = lu.at(k, k).recip();
        inv_diag[k] = inv_pivot;
        for i in (k + 1)..n {
            let m = lu.at(i, k) * inv_pivot;
            if m != C64::ZERO {
                for j in (k + 1)..n {
                    let v = lu.at(k, j);
                    *lu.at_mut(i, j) = lu.at(i, j) - m * v;
                }
            }
            *lu.at_mut(i, k) = m;
        }
    }
    Ok(())
}

fn reference_complex_solve(a: &CMatrix, b: &[C64]) -> Result<Vec<C64>, NumericsError> {
    let n = a.order();
    let mut lu = a.clone();
    let mut perm = vec![0; n];
    let mut inv_diag = vec![C64::ZERO; n];
    reference_complex_eliminate(&mut lu, &mut perm, &mut inv_diag)?;
    let mut x = vec![C64::ZERO; n];
    for (xi, &p) in x.iter_mut().zip(&perm) {
        *xi = b[p];
    }
    for i in 1..n {
        let mut s = x[i];
        for j in 0..i {
            s = s - lu.at(i, j) * x[j];
        }
        x[i] = s;
    }
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s = s - lu.at(i, j) * x[j];
        }
        x[i] = s * inv_diag[i];
    }
    Ok(x)
}

fn real_bits(r: Result<Vec<f64>, NumericsError>) -> Result<Vec<u64>, NumericsError> {
    r.map(|x| x.iter().map(|v| v.to_bits()).collect())
}

fn complex_bits(r: Result<Vec<C64>, NumericsError>) -> Result<Vec<(u64, u64)>, NumericsError> {
    r.map(|x| x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect())
}

#[test]
fn lu_is_bit_identical_to_the_reference_kernels() {
    // Both instantiations of the one kernel, through `factor` and through
    // `refactor` into reused storage, against the reference kernels above:
    // the same solution bits, or the same singular pivot.
    let mut rng = TestRng(0x18);
    let (mut solved, mut swapped, mut skipped) = (0, 0, 0);
    for n in 2..=12 {
        let mut real_reused = lu::Lu::factor(&Matrix::identity(n)).unwrap();
        for _ in 0..100 {
            let entries = (0..n * n).map(|_| sparse_entry(&mut rng)).collect();
            let a = Matrix::from_vec(n, n, entries).unwrap();
            let b = rng.vec(n, -10.0, 10.0);
            let want = real_bits(reference_real_solve(&a, &b));
            assert_eq!(
                real_bits(lu::Lu::factor(&a).and_then(|f| f.solve(&b))),
                want
            );
            let reused = real_reused
                .refactor(&a)
                .and_then(|()| real_reused.solve(&b));
            assert_eq!(real_bits(reused), want);
            if want.is_ok() {
                solved += 1;
                swapped += usize::from(a[(0, 0)] == 0.0);
                skipped += (1..n).filter(|&i| a[(i, 0)] == 0.0).count();
            }
        }
        let mut identity = CMatrix::zeros(n);
        for i in 0..n {
            *identity.at_mut(i, i) = C64::ONE;
        }
        let mut complex_reused = CLu::factor(&identity).unwrap();
        for _ in 0..200 {
            let mut a = CMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    if rng.range(0.0, 1.0) >= 0.25 {
                        *a.at_mut(i, j) = C64::new(sparse_entry(&mut rng), sparse_entry(&mut rng));
                    }
                }
            }
            let b: Vec<C64> = (0..n)
                .map(|_| C64::new(rng.range(-10.0, 10.0), rng.range(-10.0, 10.0)))
                .collect();
            let want = complex_bits(reference_complex_solve(&a, &b));
            assert_eq!(
                complex_bits(CLu::factor(&a).and_then(|f| f.solve(&b))),
                want
            );
            let reused = complex_reused
                .refactor(&a)
                .and_then(|()| complex_reused.solve(&b));
            assert_eq!(complex_bits(reused), want);
            if want.is_ok() {
                solved += 1;
                swapped += usize::from(a.at(0, 0) == C64::ZERO);
                skipped += (1..n).filter(|&i| a.at(i, 0) == C64::ZERO).count();
            }
        }
    }
    // Most systems are non-singular, and among those a zero leading entry
    // forces a row swap and a zero first-column entry a skipped update.
    assert!(solved > 3_000, "only {solved} of 3,300 systems solved");
    assert!(
        swapped > 300 && skipped > 1_000,
        "{swapped} swaps, {skipped} skips"
    );
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
