// Public facade: lifecycle, option plumbing, analysis reuse, error states.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/sparse_lu.h"
#include "runtime/shared_runtime.h"
#include "test_helpers.h"

namespace plu {
namespace {

TEST(SparseLU, LifecycleErrors) {
  SparseLU lu;
  EXPECT_FALSE(lu.analyzed());
  EXPECT_FALSE(lu.factorized());
  EXPECT_THROW(lu.analysis(), std::logic_error);
  EXPECT_THROW(lu.factorization(), std::logic_error);
  EXPECT_THROW(lu.solve({1.0}), std::logic_error);
  EXPECT_THROW(lu.solve_refined({1.0}), std::logic_error);
}

TEST(SparseLU, AnalyzeThenFactorizeThenSolve) {
  CscMatrix a = test::small_matrices()[0];
  SparseLU lu;
  lu.analyze(a);
  EXPECT_TRUE(lu.analyzed());
  EXPECT_FALSE(lu.factorized());
  lu.factorize(a);
  EXPECT_TRUE(lu.factorized());
  std::vector<double> b = test::random_vector(a.rows(), 51);
  std::vector<double> x = lu.solve(b);
  EXPECT_LT(relative_residual(a, x, b), 1e-10);
}

TEST(SparseLU, FactorizeWithoutAnalyzeAutoruns) {
  CscMatrix a = test::small_matrices()[1];
  SparseLU lu;
  lu.factorize(a);
  EXPECT_TRUE(lu.analyzed());
  EXPECT_TRUE(lu.factorized());
}

TEST(SparseLU, AnalysisReusedForSamePatternValues) {
  CscMatrix a = gen::grid2d(9, 9, {});
  SparseLU lu;
  lu.factorize(a);
  const Analysis* first = &lu.analysis();
  CscMatrix a2 = a;
  for (double& v : a2.values()) v *= 1.5;
  lu.factorize(a2);  // same dimensions: analysis kept
  EXPECT_EQ(&lu.analysis(), first);
  std::vector<double> b = test::random_vector(a.rows(), 52);
  EXPECT_LT(relative_residual(a2, lu.solve(b), b), 1e-10);
}

TEST(SparseLU, OptionsReachAnalysis) {
  CscMatrix a = test::small_matrices()[2];
  Options opt;
  opt.postorder = false;
  opt.task_graph = taskgraph::GraphKind::kSStar;
  opt.ordering = ordering::Method::kNatural;
  SparseLU lu(opt);
  lu.analyze(a);
  EXPECT_EQ(lu.analysis().options.task_graph, taskgraph::GraphKind::kSStar);
  EXPECT_EQ(lu.analysis().graph.kind, taskgraph::GraphKind::kSStar);
  EXPECT_FALSE(lu.analysis().options.postorder);
}

TEST(SparseLU, SolveRefinedUsesStoredMatrix) {
  CscMatrix a = test::small_matrices()[4];
  SparseLU lu;
  lu.factorize(a);
  std::vector<double> b = test::random_vector(a.rows(), 53);
  RefineResult r = lu.solve_refined(b);
  EXPECT_LT(r.residual_history.back(), 1e-12);
}

TEST(SparseLU, SolveSystemOneShot) {
  CscMatrix a = test::small_matrices()[5];
  std::vector<double> b = test::random_vector(a.rows(), 54);
  std::vector<double> x = SparseLU::solve_system(a, b);
  EXPECT_LT(relative_residual(a, x, b), 1e-10);
}

TEST(SparseLU, RejectsNonSquare) {
  CooMatrix coo(2, 3);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(0, 2, 1.0);
  SparseLU lu;
  EXPECT_THROW(lu.analyze(coo.to_csc()), std::invalid_argument);
  // Order-0 matrices were never supported (a supernode partition needs at
  // least one boundary): rejected with the same exception, no hang.
  EXPECT_THROW(lu.analyze(CooMatrix(0, 0).to_csc()), std::invalid_argument);
}

TEST(SparseLU, RejectsStructurallySingular) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(1, 0, 1.0);  // rows 0,1 live only in column 0
  coo.add(2, 1, 1.0);
  coo.add(2, 2, 1.0);
  SparseLU lu;
  EXPECT_THROW(lu.analyze(coo.to_csc()), std::invalid_argument);
  // The MC64 preprocessing path rejects it the same way.
  lu.options().scale_and_permute = true;
  EXPECT_THROW(lu.analyze(coo.to_csc()), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// 1-D / 2-D layout parity through the facade: the layout selector changes
// the numeric driver and nothing else a user can observe beyond roundoff.

TEST(SparseLU, LayoutParityAcrossExecutionModes) {
  CscMatrix a = gen::grid2d(10, 9, {});
  std::vector<double> b = test::random_vector(a.rows(), 55);
  for (ExecutionMode mode : {ExecutionMode::kSequential,
                             ExecutionMode::kGraphSequential,
                             ExecutionMode::kThreaded}) {
    SparseLU lu1;
    lu1.numeric_options().mode = mode;
    lu1.numeric_options().threads = 4;
    lu1.factorize(a);

    SparseLU lu2;
    lu2.options().layout = Layout::k2D;
    lu2.numeric_options().mode = mode;
    lu2.numeric_options().threads = 4;
    lu2.factorize(a);

    EXPECT_EQ(lu1.factorization().layout(), Layout::k1D);
    EXPECT_EQ(lu2.factorization().layout(), Layout::k2D);

    // Same symbolic pipeline => identical permutations: the layout is a
    // numeric-tier decision only.
    const Analysis& an1 = lu1.analysis();
    const Analysis& an2 = lu2.analysis();
    for (int i = 0; i < a.rows(); ++i) {
      EXPECT_EQ(an1.row_perm.old_of(i), an2.row_perm.old_of(i));
      EXPECT_EQ(an1.col_perm.old_of(i), an2.col_perm.old_of(i));
    }

    std::vector<double> x1 = lu1.solve(b);
    std::vector<double> x2 = lu2.solve(b);
    EXPECT_LT(relative_residual(a, x1, b), 1e-10) << static_cast<int>(mode);
    EXPECT_LT(relative_residual(a, x2, b), 1e-8) << static_cast<int>(mode);
    for (int i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(x1[i], x2[i], 1e-7 * (1.0 + std::abs(x1[i])))
          << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(SparseLU, TwoDimensionalLayoutFullSolveSurface) {
  // Every facade solve path works unchanged on a 2-D factorization:
  // the 2-D local pivots are a special case of the 1-D panel pivots.
  CscMatrix a = gen::grid2d(9, 9, {});
  std::vector<double> b = test::random_vector(a.rows(), 56);
  SparseLU lu;
  lu.options().layout = Layout::k2D;
  lu.factorize(a);

  std::vector<double> x = lu.solve(b);
  EXPECT_LT(relative_residual(a, x, b), 1e-8);

  std::vector<double> xt = lu.solve_transpose(b);
  std::vector<double> r;
  a.matvec_transpose(xt, r);
  double err = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i)
    err = std::max(err, std::abs(r[i] - b[i]));
  EXPECT_LT(err, 1e-7);

  std::vector<double> xp = lu.solve_parallel(b, 4);
  for (int i = 0; i < a.rows(); ++i) {
    EXPECT_NEAR(xp[i], x[i], 1e-10 * (1.0 + std::abs(x[i])));
  }

  RefineResult rr = lu.solve_refined(b);
  EXPECT_LT(rr.residual_history.back(), 1e-12);
}

TEST(SparseLU, TwoDimensionalLayoutRaceCheckedThroughFacade) {
  CscMatrix a = test::small_matrices()[0];
  SparseLU lu;
  lu.options().layout = Layout::k2D;
  lu.numeric_options().mode = ExecutionMode::kThreaded;
  lu.numeric_options().threads = 4;
  lu.numeric_options().check_races = true;
  lu.factorize(a);
  EXPECT_TRUE(lu.factorization().race_checked());
  EXPECT_TRUE(lu.factorization().races().empty());
}

TEST(SparseLU, ConcurrentInstancesSharingOneRuntimeAreSafe) {
  // The documented thread-safety contract: one SparseLU per thread, all
  // factorizing over the SAME rt::SharedRuntime.  Every solve must be
  // correct and every instance's analyze_count() exact -- the reuse guard
  // is per-instance state and must not be perturbed by pool sharing.
  rt::SharedRuntime pool(4);
  const std::vector<CscMatrix> mats = test::small_matrices();
  const int kThreads = 6, kRounds = 3;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const CscMatrix& a = mats[t % mats.size()];
      SparseLU lu;
      lu.options().layout = t % 2 == 0 ? Layout::k1D : Layout::k2D;
      lu.numeric_options().mode = ExecutionMode::kThreaded;
      lu.numeric_options().shared_runtime = &pool;
      lu.numeric_options().request_priority = double(t);
      for (int round = 0; round < kRounds; ++round) {
        CscMatrix av = a;
        for (double& v : av.values()) v *= 1.0 + 0.01 * (round + 1);
        lu.factorize(av);  // same pattern every round: one analysis total
        if (!factor_usable(lu.factor_status())) {
          failures[t] = "unusable factorization";
          return;
        }
        std::vector<double> b = test::random_vector(a.rows(), 70 + t);
        std::vector<double> x = lu.solve(b);
        if (relative_residual(av, x, b) > 1e-9) {
          failures[t] = "bad residual";
          return;
        }
      }
      if (lu.analyze_count() != 1) failures[t] = "analyze_count drifted";
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }
}

TEST(SparseLU, AnalysisStatsExposed) {
  CscMatrix a = test::small_matrices()[0];
  SparseLU lu;
  lu.analyze(a);
  const Analysis& an = lu.analysis();
  EXPECT_EQ(an.n, a.rows());
  EXPECT_EQ(an.nnz_input, a.nnz());
  EXPECT_GT(an.fill_ratio(), 1.0);
  EXPECT_GT(an.blocks.num_blocks(), 0);
  EXPECT_FALSE(an.diag_block_sizes.empty());
  long total = 0;
  for (int s : an.diag_block_sizes) total += s;
  EXPECT_EQ(total, an.n);
}

}  // namespace
}  // namespace plu
