// Unit tests of the benchmark's statistics helpers and seeded inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

/// FNV-1a over the raw bytes of a matrix and right-hand side.
std::uint64_t input_fingerprint(const plu::CscMatrix& a,
                                const std::vector<double>& b) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto eat = [&h](const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 0x100000001b3ull;
    }
  };
  const int dims[2] = {a.rows(), a.cols()};
  eat(dims, sizeof dims);
  eat(a.col_ptr().data(), a.col_ptr().size() * sizeof(int));
  eat(a.row_ind().data(), a.row_ind().size() * sizeof(int));
  eat(a.values().data(), a.values().size() * sizeof(double));
  eat(b.data(), b.size() * sizeof(double));
  return h;
}

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  EXPECT_FALSE(tail_percentile(v).ok);  // 10 samples: none can have 10 beyond
  v.push_back(11);
  Tail t = tail_percentile(v);
  ASSERT_TRUE(t.ok);
  EXPECT_EQ(t.samples, 11);
  EXPECT_EQ(t.beyond, 10);
  EXPECT_DOUBLE_EQ(t.value, 1.0);
}

TEST(TailPercentile, CapsAtP99WithEnoughSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 2000; ++i) v.push_back(2001 - i);  // unsorted input
  Tail t = tail_percentile(v);
  ASSERT_TRUE(t.ok);
  EXPECT_DOUBLE_EQ(t.pct, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 1980.0);
  EXPECT_EQ(t.beyond, 20);
  EXPECT_EQ(t.samples, 2000);
}

TEST(TailPercentile, HighestPercentileWithTenBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 500; ++i) v.push_back(i);
  Tail t = tail_percentile(v);  // p99 would leave only 5 beyond
  ASSERT_TRUE(t.ok);
  EXPECT_EQ(t.beyond, 10);
  EXPECT_DOUBLE_EQ(t.value, 490.0);
  EXPECT_DOUBLE_EQ(t.pct, 98.0);
}

TEST(LoopAccount, FailuresCountAgainstOkAndMissEveryBound) {
  LoopAccount a;
  a.record(true, 0.010);
  a.record(true, 0.020);
  a.record(false, 0.001);  // a fast failure still misses every bound
  a.record(true, 0.030);
  EXPECT_EQ(a.attempted(), 4);
  EXPECT_EQ(a.failed(), 1);
  EXPECT_DOUBLE_EQ(a.ok_frac(), 0.75);
  EXPECT_DOUBLE_EQ(a.within(1e9), 0.75);
  EXPECT_DOUBLE_EQ(a.within(0.015), 0.25);
  EXPECT_TRUE(std::isinf(a.latencies()[2]));
  EXPECT_DOUBLE_EQ(median(a.latencies()), 0.025);
  // With half the requests failed the median itself is unbounded.
  a.record(false, 0.0);
  a.record(false, 0.0);
  EXPECT_TRUE(std::isinf(median(a.latencies())));
}

TEST(MixSeed, StreamsAndIndicesDiffer) {
  EXPECT_EQ(mix_seed(7, 1, 2), mix_seed(7, 1, 2));
  EXPECT_NE(mix_seed(7, 1, 2), mix_seed(7, 1, 3));
  EXPECT_NE(mix_seed(7, 1, 2), mix_seed(7, 2, 2));
  EXPECT_NE(mix_seed(7, 1, 2), mix_seed(8, 1, 2));
}

TEST(SeededInputs, SameSeedSameBytes) {
  const std::vector<Problem> a = cold_table1_inputs(5), b = cold_table1_inputs(5);
  const std::vector<Problem> c = cold_table1_inputs(6);
  ASSERT_EQ(a.size(), 7u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(input_fingerprint(a[i].a, a[i].b), input_fingerprint(b[i].a, b[i].b));
    EXPECT_NE(input_fingerprint(a[i].a, a[i].b), input_fingerprint(c[i].a, c[i].b));
    // Seeds change values only: the Table-1 patterns stay fixed.
    EXPECT_EQ(a[i].a.row_ind(), c[i].a.row_ind());
  }
  const Problem n1 = newton_base(5), n2 = newton_base(5);
  EXPECT_EQ(n1.a.rows(), 17 * 17 * 17);
  EXPECT_EQ(input_fingerprint(n1.a, n1.b), input_fingerprint(n2.a, n2.b));
  EXPECT_EQ(input_fingerprint(newton_step(n1.a, 5, 3), n1.b),
            input_fingerprint(newton_step(n2.a, 5, 3), n2.b));
  EXPECT_NE(input_fingerprint(newton_step(n1.a, 5, 3), n1.b),
            input_fingerprint(newton_step(n1.a, 5, 4), n1.b));
}

TEST(SeededInputs, ServiceStreamIsReproducibleAndMixed) {
  const std::vector<Problem> hot = service_hot(9);
  ASSERT_EQ(hot.size(), 6u);
  int hits = 0;
  for (long i = 0; i < 400; ++i) {
    ServiceRequest x = service_request(hot, 9, i), y = service_request(hot, 9, i);
    EXPECT_EQ(x.hot, y.hot);
    EXPECT_EQ(input_fingerprint(x.p.a, x.p.b), input_fingerprint(y.p.a, y.p.b));
    if (x.hot) {
      ++hits;
      EXPECT_EQ(x.p.a.row_ind(), hot[static_cast<std::size_t>(x.pattern)].a.row_ind());
    }
  }
  EXPECT_GT(hits, 280);  // ~80 % hot
  EXPECT_LT(hits, 360);
}

TEST(Tracer, SelfTimeSubtractsChildUnion) {
  std::vector<SpanRecord> s(3);
  s[0] = {0, -1, 0, 0, "parent", 0.0, 10.0};
  s[1] = {1, 0, 0, 0, "child", 1.0, 4.0};
  s[2] = {2, 0, 0, 0, "child", 3.0, 6.0};  // overlaps the first child
  std::vector<double> self = Tracer::self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 5.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
}

TEST(Tracer, AddChildRecordsAClosedChildOfTheSpan) {
  Tracer::get().enable();
  const std::size_t before = Tracer::get().spans().size();
  {
    Span s("parent");
    s.add_child("phase", s.start_s(), s.start_s() + 1e-9);
  }
  const std::vector<SpanRecord> v = Tracer::get().spans();
  ASSERT_EQ(v.size(), before + 2);  // the child closes first
  EXPECT_STREQ(v[before].name, "phase");
  EXPECT_STREQ(v[before + 1].name, "parent");
  EXPECT_EQ(v[before].parent, v[before + 1].id);
  EXPECT_DOUBLE_EQ(v[before].start_s, v[before + 1].start_s);
}

}  // namespace
}  // namespace perfbench
