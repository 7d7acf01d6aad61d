// Public facade: lifecycle, option plumbing, analysis reuse, error states.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sparse_lu.h"
#include "matrix/coo.h"
#include "matrix/named_matrices.h"
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

// ---------------------------------------------------------------------------
// In-place refactorization: SparseLU::factorize on an unchanged pattern
// reruns the numeric phase on the existing slab (Factorization::refactor).

bool same_bits(double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; }

/// Factor bytes, pivots and every per-run scalar equal bit for bit.
void expect_bitwise_equal(const Factorization& got, const Factorization& want,
                          const std::string& what) {
  ASSERT_EQ(got.blocks().num_block_columns(), want.blocks().num_block_columns());
  for (int j = 0; j < got.blocks().num_block_columns(); ++j) {
    blas::ConstMatrixView g = got.blocks().column(j);
    blas::ConstMatrixView w = want.blocks().column(j);
    ASSERT_EQ(std::memcmp(g.data, w.data, sizeof(double) * g.rows * g.cols), 0)
        << what << ": block column " << j;
    ASSERT_EQ(got.panel_ipiv(j), want.panel_ipiv(j)) << what << ": panel " << j;
  }
  EXPECT_TRUE(same_bits(got.growth_factor(), want.growth_factor())) << what;
  EXPECT_TRUE(same_bits(got.min_pivot_ratio(), want.min_pivot_ratio())) << what;
  EXPECT_EQ(got.status(), want.status()) << what;
  EXPECT_EQ(got.failed_column(), want.failed_column()) << what;
}

/// {sequential, graph-sequential, threaded at 2 and 4} x {blocking auto,
/// off}, all coarsened: threaded runs are then deterministic, so a fresh
/// factorization at the same setting is a bitwise reference.
std::vector<NumericOptions> refactor_settings() {
  std::vector<NumericOptions> out;
  const std::pair<ExecutionMode, int> modes[] = {
      {ExecutionMode::kSequential, 1},
      {ExecutionMode::kGraphSequential, 1},
      {ExecutionMode::kThreaded, 2},
      {ExecutionMode::kThreaded, 4}};
  for (const auto& [mode, threads] : modes) {
    for (BlockingMode blocking : {BlockingMode::kAuto, BlockingMode::kOff}) {
      NumericOptions n;
      n.mode = mode;
      n.threads = threads;
      n.coarsen = true;
      n.blocking = blocking;
      out.push_back(n);
    }
  }
  return out;
}

/// Cold factorization at 4 threads, then 3 value seeds spread over the 8
/// settings (every setting once, the thread count switching between
/// calls); each refactorization must reuse the slab and equal a fresh
/// Factorization at its setting bit for bit.
void check_refactor_in_place(const CscMatrix& a, const Options& opt,
                             const std::string& name) {
  const std::vector<NumericOptions> settings = refactor_settings();
  SparseLU lu(opt);
  lu.numeric_options() = settings.back();
  lu.factorize(a);
  const Factorization* f = &lu.factorization();
  const double* slab = f->blocks().column(0).data;
  const std::size_t bytes = f->blocks().storage_bytes();
  for (int seed = 0; seed < 3; ++seed) {
    const CscMatrix as = gen::perturb_values(a, 0.2, 700 + seed);
    for (std::size_t t = seed; t < settings.size(); t += 3) {
      const std::string what = name + " " + to_string(opt.layout) +
                               " seed " + std::to_string(seed) + " setting " +
                               std::to_string(t);
      lu.numeric_options() = settings[t];
      lu.factorize(as);
      ASSERT_EQ(&lu.factorization(), f) << what;
      EXPECT_EQ(f->blocks().column(0).data, slab) << what;
      EXPECT_EQ(f->blocks().storage_bytes(), bytes) << what;
      Factorization fresh(lu.analysis(), as, settings[t]);
      expect_bitwise_equal(*f, fresh, what);
    }
  }
  EXPECT_EQ(lu.analyze_count(), 1) << name;
}

/// One Table-1 stand-in, both layouts.
void check_refactor_in_place_table1(const std::string& name) {
  const NamedMatrix m = make_named_matrix(name);
  Options opt;
  for (Layout layout : {Layout::k1D, Layout::k2D}) {
    opt.layout = layout;
    check_refactor_in_place(m.a, opt, m.name);
  }
}

TEST(SparseLU, RefactorInPlaceSherman3) { check_refactor_in_place_table1("sherman3"); }
TEST(SparseLU, RefactorInPlaceSherman5) { check_refactor_in_place_table1("sherman5"); }
TEST(SparseLU, RefactorInPlaceLnsp3937) { check_refactor_in_place_table1("lnsp3937"); }
TEST(SparseLU, RefactorInPlaceLns3937) { check_refactor_in_place_table1("lns3937"); }
TEST(SparseLU, RefactorInPlaceOrsreg1) { check_refactor_in_place_table1("orsreg1"); }
TEST(SparseLU, RefactorInPlaceSaylr4) { check_refactor_in_place_table1("saylr4"); }
TEST(SparseLU, RefactorInPlaceGoodwin) { check_refactor_in_place_table1("goodwin"); }

TEST(SparseLU, RefactorInPlaceGrid3dNestedDissection) {
  const CscMatrix a = gen::grid3d(10, 10, 10, {});
  Options opt;
  opt.ordering = ordering::Method::kNestedDissectionAtA;
  for (Layout layout : {Layout::k1D, Layout::k2D}) {
    opt.layout = layout;
    check_refactor_in_place(a, opt, "grid3d(10)");
  }
}

/// growth_factor() and min_pivot_ratio() recomputed the long way: the
/// matrix scale from a BlockMatrix loaded with permute_input(a) (padding
/// included), the factor max and the pivots from the stored blocks.
void expect_scan_matches_recomputation(const Factorization& f,
                                       const CscMatrix& a) {
  const Analysis& an = f.analysis();
  BlockMatrix loaded(an.blocks);
  loaded.load(an.permute_input(a));
  double scale = 0.0, factor_max = 0.0;
  double min_pivot = std::numeric_limits<double>::infinity();
  for (int j = 0; j < loaded.num_block_columns(); ++j) {
    scale = std::max(scale, blas::max_abs(loaded.column(j)));
    factor_max = std::max(factor_max, blas::max_abs(f.blocks().column(j)));
    blas::ConstMatrixView d = f.blocks().block(j, j);
    for (int i = 0; i < d.rows; ++i) min_pivot = std::min(min_pivot, std::abs(d(i, i)));
  }
  if (scale == 0.0) scale = 1.0;
  EXPECT_TRUE(same_bits(f.growth_factor(), factor_max / scale));
  EXPECT_TRUE(same_bits(f.min_pivot_ratio(), min_pivot / scale));
}

TEST(SparseLU, RefactorInPlaceResetsPerRunState) {
  const CscMatrix a = gen::grid2d(12, 11, {});
  CscMatrix singular = a;  // a zero column: an exact zero pivot
  for (int k = a.col_begin(3); k < a.col_end(3); ++k) singular.values()[k] = 0.0;
  CscMatrix overflow = a;
  overflow.values()[0] = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> b = test::random_vector(a.rows(), 61);

  SparseLU lu;
  lu.factorize(a);
  const Factorization& f = lu.factorization();  // stays valid throughout
  expect_scan_matches_recomputation(f, a);
  auto expect_clean_ok = [&](const std::string& after) {
    ASSERT_EQ(&lu.factorization(), &f) << after;
    EXPECT_EQ(f.status(), FactorStatus::kOk) << after;
    EXPECT_EQ(f.failed_column(), -1) << after;
    EXPECT_EQ(f.zero_pivots(), 0) << after;
    EXPECT_FALSE(f.singular()) << after;
    EXPECT_TRUE(f.perturbed_columns().empty()) << after;
    EXPECT_EQ(f.perturbation_magnitude(), 0.0) << after;
    EXPECT_FALSE(f.race_checked()) << after;
    EXPECT_FALSE(f.partial()) << after;
    expect_scan_matches_recomputation(f, a);
    EXPECT_LT(relative_residual(a, lu.solve(b), b), 1e-12) << after;
  };

  lu.factorize(singular);
  EXPECT_EQ(f.status(), FactorStatus::kSingular);
  EXPECT_GE(f.failed_column(), 0);
  EXPECT_GT(f.zero_pivots(), 0);
  lu.factorize(a);
  expect_clean_ok("singular");

  lu.factorize(overflow);
  EXPECT_EQ(f.status(), FactorStatus::kOverflow);
  EXPECT_GE(f.failed_column(), 0);
  lu.factorize(a);
  expect_clean_ok("overflow");

  lu.numeric_options().perturb_pivots = true;
  lu.factorize(singular);
  EXPECT_EQ(f.status(), FactorStatus::kPerturbed);
  EXPECT_FALSE(f.perturbed_columns().empty());
  EXPECT_GT(f.perturbation_magnitude(), 0.0);
  lu.numeric_options().perturb_pivots = false;
  lu.factorize(a);
  expect_clean_ok("perturb_pivots");

  rt::CancelToken cancelled;
  cancelled.cancel();
  lu.numeric_options().cancel = &cancelled;
  lu.factorize(a);
  EXPECT_EQ(f.status(), FactorStatus::kCancelled);
  lu.numeric_options().cancel = nullptr;
  lu.factorize(a);
  expect_clean_ok("cancel");

  lu.numeric_options().check_races = true;
  lu.factorize(a);
  EXPECT_TRUE(f.race_checked());
  EXPECT_TRUE(f.races().empty());
  lu.numeric_options().check_races = false;
  lu.factorize(a);
  expect_clean_ok("check_races");

  lu.numeric_options().stop_after_block = 1;
  lu.factorize(a);
  EXPECT_TRUE(f.partial());
  lu.numeric_options().stop_after_block = -1;
  lu.factorize(a);
  expect_clean_ok("stop_after_block");
  EXPECT_EQ(lu.analyze_count(), 1);
}

TEST(SparseLU, RefactorInPlaceScanCatchesOverflowOnlyInU) {
  // Upper bidiagonal plus a corner entry, natural order: L is the identity,
  // so no factor task ever sees the corner's U block.  An Inf there can
  // only be caught by the final factor scan (1-D layout).
  const int n = 200;
  CooMatrix coo(n, n);
  for (int i = 0; i < n; ++i) coo.add(i, i, 2.0);
  for (int i = 0; i + 1 < n; ++i) coo.add(i, i + 1, 0.5);
  coo.add(0, n - 1, 1.0);
  const CscMatrix a = coo.to_csc();
  CscMatrix inf = a;
  for (int k = a.col_begin(n - 1); k < a.col_end(n - 1); ++k) {
    if (a.row_index(k) == 0) inf.values()[k] = std::numeric_limits<double>::infinity();
  }
  Options opt;
  opt.ordering = ordering::Method::kNatural;
  SparseLU lu(opt);
  lu.factorize(a);
  const Analysis& an = lu.analysis();
  ASSERT_LT(an.blocks.part.supernode_of(an.row_perm.new_of(0)),
            an.blocks.part.supernode_of(an.col_perm.new_of(n - 1)));
  lu.factorize(inf);
  const Factorization& f = lu.factorization();
  EXPECT_EQ(f.status(), FactorStatus::kOverflow);
  EXPECT_EQ(f.failed_column(), an.col_perm.new_of(n - 1));
  expect_bitwise_equal(f, Factorization(an, inf), "Inf in U");
  lu.factorize(a);
  EXPECT_EQ(f.status(), FactorStatus::kOk);
  EXPECT_EQ(f.failed_column(), -1);
  expect_bitwise_equal(f, Factorization(an, a), "finite again");
}

TEST(SparseLU, RefactorInPlaceThrowDropsFactorization) {
  const CscMatrix a = gen::grid2d(8, 8, {});
  const std::vector<double> b = test::random_vector(a.rows(), 62);
  SparseLU lu;
  lu.factorize(a);
  CscMatrix bad = a;  // same pattern arrays, one value short
  bad.values().pop_back();
  EXPECT_THROW(lu.factorize(bad), std::invalid_argument);
  EXPECT_FALSE(lu.factorized());
  EXPECT_THROW(lu.solve(b), std::logic_error);
  EXPECT_THROW(lu.solve_refined(b), std::logic_error);
  lu.factorize(a);  // recovers with a fresh factorization
  EXPECT_LT(relative_residual(a, lu.solve(b), b), 1e-12);
  EXPECT_EQ(lu.analyze_count(), 1);
}

}  // namespace
}  // namespace plu
