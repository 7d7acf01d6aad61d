// Solve-layer utilities: multi-RHS, determinant, pivot permutation, refine.
#include <gtest/gtest.h>

#include <cmath>

#include "blas/factor.h"
#include "core/refine.h"
#include "core/solve.h"
#include "test_helpers.h"

namespace plu {
namespace {

/// Dense determinant by Gaussian elimination (reference).
double dense_det(const CscMatrix& a) {
  const int n = a.rows();
  std::vector<double> m = a.to_dense_colmajor();
  auto at = [&](int i, int j) -> double& { return m[static_cast<std::size_t>(j) * n + i]; };
  double det = 1.0;
  for (int k = 0; k < n; ++k) {
    int piv = k;
    for (int i = k + 1; i < n; ++i) {
      if (std::abs(at(i, k)) > std::abs(at(piv, k))) piv = i;
    }
    if (at(piv, k) == 0.0) return 0.0;
    if (piv != k) {
      det = -det;
      for (int j = 0; j < n; ++j) std::swap(at(k, j), at(piv, j));
    }
    det *= at(k, k);
    for (int i = k + 1; i < n; ++i) {
      double f = at(i, k) / at(k, k);
      for (int j = k; j < n; ++j) at(i, j) -= f * at(k, j);
    }
  }
  return det;
}

TEST(Solve, AgainstDenseReference) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    std::vector<double> b = test::random_vector(a.rows(), 31);
    std::vector<double> x = f.solve(b);
    // Dense reference solve.
    blas::DenseMatrix d(a.rows(), a.cols());
    std::vector<double> dd = a.to_dense_colmajor();
    std::copy(dd.begin(), dd.end(), d.data());
    std::vector<double> xd = b;
    ASSERT_TRUE(blas::dense_solve(d, xd));
    for (int i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(x[i], xd[i], 1e-8 * (1.0 + std::abs(xd[i]))) << describe(a);
    }
  }
}

TEST(Solve, MultiRhsMatchesSingle) {
  CscMatrix a = test::small_matrices()[0];
  Analysis an = analyze(a);
  Factorization f(an, a);
  const int n = a.rows();
  const int nrhs = 3;
  std::vector<double> b = test::random_vector(n * nrhs, 33);
  std::vector<double> x = solve_many(f, b, nrhs);
  for (int r = 0; r < nrhs; ++r) {
    std::vector<double> br(b.begin() + static_cast<std::ptrdiff_t>(r) * n,
                           b.begin() + static_cast<std::ptrdiff_t>(r + 1) * n);
    std::vector<double> xr = f.solve(br);
    for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(r) * n + i], xr[i]);
  }
}

TEST(Solve, DeterminantMatchesDense) {
  for (const CscMatrix& a : test::small_matrices()) {
    if (a.rows() > 70) continue;
    Analysis an = analyze(a);
    Factorization f(an, a);
    Determinant d = determinant(f);
    double ref = dense_det(a);
    ASSERT_NE(ref, 0.0);
    EXPECT_EQ(d.sign, ref > 0 ? 1 : -1) << describe(a);
    EXPECT_NEAR(d.log_abs, std::log(std::abs(ref)), 1e-6) << describe(a);
  }
}

TEST(Solve, DeterminantOfSingularIsZero) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(1, 0, 2.0);
  coo.add(1, 1, 4.0);  // rows 0,1 proportional
  coo.add(2, 2, 1.0);
  CscMatrix a = coo.to_csc();
  Analysis an = analyze(a);
  Factorization f(an, a);
  EXPECT_EQ(determinant(f).sign, 0);
}

TEST(Solve, PivotOldOfIsValidPermutation) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    EXPECT_TRUE(Permutation::is_valid(pivot_old_of(f)));
  }
}

TEST(Refine, ConvergesAndReportsHistory) {
  CscMatrix a = gen::random_sparse(60, 3.0, 0.4, 0.6, 41);
  Analysis an = analyze(a);
  Factorization f(an, a);
  std::vector<double> b = test::random_vector(60, 42);
  RefineOptions opt;
  opt.max_iterations = 3;
  RefineResult r = refined_solve(f, a, b, opt);
  EXPECT_GE(r.residual_history.size(), 1u);
  EXPECT_LE(r.iterations, 3);
  EXPECT_LT(r.residual_history.back(), 1e-12);
  EXPECT_TRUE(r.converged);
}

TEST(Refine, StopsImmediatelyWhenAlreadyConverged) {
  CscMatrix a = CscMatrix::identity(5);
  Analysis an = analyze(a);
  Factorization f(an, a);
  std::vector<double> b = {1, 2, 3, 4, 5};
  RefineResult r = refined_solve(f, a, b);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_TRUE(r.converged);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(r.x[i], b[i]);
}


TEST(SolveMatrix, MatchesLoopedSolves) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    const int n = a.rows();
    const int nrhs = 4;
    std::vector<double> b = test::random_vector(n * nrhs, 45);
    blas::DenseMatrix bm(n, nrhs), xm(n, nrhs);
    std::copy(b.begin(), b.end(), bm.data());
    f.solve_matrix(bm.view(), xm.view());
    for (int r = 0; r < nrhs; ++r) {
      std::vector<double> br(b.begin() + static_cast<std::ptrdiff_t>(r) * n,
                             b.begin() + static_cast<std::ptrdiff_t>(r + 1) * n);
      std::vector<double> xr = f.solve(br);
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(xm(i, r), xr[i], 1e-12 * (1.0 + std::abs(xr[i])))
            << describe(a) << " rhs " << r;
      }
    }
  }
}

TEST(SolveMatrix, WorksWithMc64Scaling) {
  CscMatrix a = gen::random_sparse(50, 3.0, 0.4, 0.7, 46);
  Options opt;
  opt.scale_and_permute = true;
  Analysis an = analyze(a, opt);
  Factorization f(an, a);
  const int n = a.rows();
  std::vector<double> b = test::random_vector(n * 2, 47);
  blas::DenseMatrix bm(n, 2), xm(n, 2);
  std::copy(b.begin(), b.end(), bm.data());
  f.solve_matrix(bm.view(), xm.view());
  for (int r = 0; r < 2; ++r) {
    std::vector<double> col(n), rhs(n);
    for (int i = 0; i < n; ++i) {
      col[i] = xm(i, r);
      rhs[i] = bm(i, r);
    }
    EXPECT_LT(relative_residual(a, col, rhs), 1e-11);
  }
}

TEST(SolveMatrix, RejectsShapeMismatch) {
  CscMatrix a = test::small_matrices()[0];
  Analysis an = analyze(a);
  Factorization f(an, a);
  blas::DenseMatrix b(a.rows(), 2), x(a.rows() - 1, 2);
  EXPECT_THROW(f.solve_matrix(b.view(), x.view()), std::invalid_argument);
  // The single-rhs solve checks its length the same way.
  EXPECT_THROW(f.solve(std::vector<double>(a.rows() + 1, 1.0)),
               std::invalid_argument);
}

TEST(PivotGrowth, ModestUnderPartialPivoting) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    double g = pivot_growth(f, a);
    EXPECT_GT(g, 0.0);
    // Partial pivoting keeps practical growth small on these classes.
    EXPECT_LT(g, 100.0) << describe(a);
  }
}

TEST(PivotGrowth, DetectsWeakPivotingGrowth) {
  // Exponential-growth construction for no-pivoting elimination: weak
  // diagonal (eps), strong subdiagonal (multiplier 1/eps per step) and a
  // dense last column the multipliers compound into: |U(k, n-1)| ~ eps^-k.
  // Partial pivoting swaps the subdiagonal up and stays modest; forcing the
  // diagonal (threshold -> 0) must show the blow-up.
  const int n = 16;
  const double eps = 0.1;
  CooMatrix coo(n, n);
  for (int i = 0; i < n; ++i) coo.add(i, i, i + 1 == n ? 1.0 : eps);
  for (int i = 0; i + 1 < n; ++i) coo.add(i + 1, i, 1.0);
  for (int i = 0; i + 1 < n; ++i) coo.add(i, n - 1, 1.0);
  CscMatrix a = coo.to_csc();
  Options opt;
  opt.ordering = ordering::Method::kNatural;
  opt.postorder = false;
  Analysis an = analyze(a, opt);
  NumericOptions strong, weak;
  weak.pivot_threshold = 1e-30;  // effectively never swap
  Factorization fs(an, a, strong);
  Factorization fw(an, a, weak);
  double g_strong = pivot_growth(fs, a);
  double g_weak = pivot_growth(fw, a);
  EXPECT_LT(g_strong, 100.0);
  EXPECT_GT(g_weak, 1e6);
}

}  // namespace
}  // namespace plu
