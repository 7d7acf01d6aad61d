// Ablation A4 (PR 9 edition): the ordering tier.  The paper uses minimum
// degree on A^T A; this bench contrasts every engine behind the pluggable
// ordering interface -- natural, exact MD, AMD, RCM, nested dissection and
// the feature-driven `auto` policy -- on fill ratio, ordering wall seconds
// (sequential vs parallel team), and the downstream factor time, over the
// paper's Table 1 suite plus the modern multiphysics3d / power_law shapes.
//
// Every cell appends one JSON-lines record (--json FILE, the BENCH_pr9
// artifact); one extra `ordering_policy` record per matrix captures the
// auto policy's decision with the symbolic dry-run fills.  Following the
// honesty rule from bench_scaling_modern: when the host has one core the
// ordering speedup field is emitted as null (non-finite -> null in
// bench_json) -- a one-core "speedup" is timer noise, not data.
//
// An n-sweep follows: grid3d k^3 (k = 12, 15, 18) and multiphysics3d
// (4 dofs, k = 6, 8, 10), timing the md / amd / nd engines at each size and
// recording the log-log growth exponent of each engine's ordering seconds
// against the previous size -- whether ordering cost grows like the factor
// or faster.  One `ordering_sweep` record per (family, size).
//
// Flags: --smoke (small sizes + 1 rep, the CI gate; the sweep keeps only
// its smallest size), --json FILE.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "matrix/generators.h"
#include "ordering/engine.h"
#include "runtime/parallel_for.h"

namespace plu::bench {
namespace {

struct Case {
  std::string name;
  CscMatrix a;
};

std::vector<Case> make_cases(bool smoke) {
  std::vector<Case> cases;
  if (smoke) {
    for (const char* name : {"orsreg1", "lns3937"}) {
      NamedMatrix nm = make_named_matrix(name);
      cases.push_back({nm.name, std::move(nm.a)});
    }
  } else {
    for (NamedMatrix& nm : make_benchmark_suite()) {
      cases.push_back({nm.name, std::move(nm.a)});
    }
  }
  {
    gen::StencilOptions g;
    g.seed = 91;
    cases.push_back({smoke ? "multiphys-864" : "multiphys-3k",
                     smoke ? gen::multiphysics3d(6, 6, 6, 2, g)
                           : gen::multiphysics3d(10, 10, 8, 4, g)});
  }
  {
    const int n = smoke ? 1200 : 4000;
    cases.push_back({smoke ? "powerlaw-1k" : "powerlaw-4k",
                     gen::power_law(n, 4.0, 2.0, 0.6, 0.8, 92)});
  }
  return cases;
}

// Ordering-seconds growth with n for the engines that matter at scale.
void run_sweep(bool smoke) {
  const int reps = smoke ? 1 : 2;
  struct Family {
    const char* name;
    std::vector<int> sizes;
    CscMatrix (*make)(int k);
  };
  const std::vector<Family> families = {
      {"grid3d", {12, 15, 18},
       [](int k) { return gen::grid3d(k, k, k, {0.4, 0.0, 0.7, 2}); }},
      {"multiphysics3d", {6, 8, 10},
       [](int k) {
         return gen::multiphysics3d(k, k, k, 4, {0.4, 0.0, 0.7, 7});
       }},
  };
  const ordering::Method methods[] = {ordering::Method::kMinimumDegreeAtA,
                                      ordering::Method::kAmdAtA,
                                      ordering::Method::kNestedDissectionAtA};
  const char* keys[] = {"md", "amd", "nd"};
  std::printf("\nordering n-sweep (seconds; growth exponent vs previous n)\n");
  std::printf("%-16s %8s %18s %18s %18s\n", "matrix", "n", "md", "amd", "nd");
  print_rule(82);
  for (const Family& fam : families) {
    double prev_n = 0.0;
    double prev_secs[3] = {0.0, 0.0, 0.0};
    const std::size_t sizes = smoke ? 1 : fam.sizes.size();
    for (std::size_t i = 0; i < sizes; ++i) {
      const int k = fam.sizes[i];
      const CscMatrix a = fam.make(k);
      const double n = a.rows();
      const std::string label = std::string(fam.name) + ":" + std::to_string(k);
      JsonRecord rec;
      rec.field("bench", "ordering_sweep")
          .field("matrix", label)
          .field("family", fam.name)
          .field("k", k)
          .field("n", a.rows())
          .field("nnz", a.nnz())
          .field("reps", reps);
      std::printf("%-16s %8d", label.c_str(), a.rows());
      for (int m = 0; m < 3; ++m) {
        ordering::Controls ctl;
        const double secs = min_of_n_seconds(reps, [&] {
          ordering::compute_column_ordering(a.pattern(), methods[m], ctl,
                                            nullptr);
        });
        // log-log slope between consecutive sizes; null at the first size.
        const double exponent =
            prev_n > 0.0
                ? std::log(secs / prev_secs[m]) / std::log(n / prev_n)
                : std::numeric_limits<double>::quiet_NaN();
        rec.field((std::string(keys[m]) + "_seconds").c_str(), secs)
            .field((std::string(keys[m]) + "_exponent").c_str(), exponent);
        if (std::isfinite(exponent)) {
          std::printf("  %9.4f (%5.2f)", secs, exponent);
        } else {
          std::printf("  %9.4f (  -  )", secs);
        }
        prev_secs[m] = secs;
      }
      std::printf("\n");
      prev_n = n;
      json_append(rec);
    }
  }
  print_rule(82);
}

void run(bool smoke) {
  const int reps = smoke ? 1 : 2;
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = cores > 1 ? cores : 4;  // team lanes for the parallel run
  std::printf("host cores: %d (ordering speedup recorded as null when 1)\n",
              cores);
  std::printf("%-14s %8s %-12s %7s %10s %10s %10s  %s\n", "matrix", "n",
              "method", "fill", "ord-seq(s)", "ord-par(s)", "factor(s)",
              "chosen");
  print_rule(96);
  for (Case& c : make_cases(smoke)) {
    for (auto m : {ordering::Method::kNatural,
                   ordering::Method::kMinimumDegreeAtA,
                   ordering::Method::kAmdAtA, ordering::Method::kRcmAtA,
                   ordering::Method::kNestedDissectionAtA,
                   ordering::Method::kAuto}) {
      // Natural ordering on the larger shapes fills catastrophically (hub
      // columns up front -> near-dense factors); skip LOUDLY, never silently.
      if (m == ordering::Method::kNatural && c.a.cols() > 4096) {
        std::printf("%-14s %8d %-12s  skipped (natural fill blows up past "
                    "n=4096)\n",
                    c.name.c_str(), c.a.rows(), to_string(m).c_str());
        continue;
      }
      // Ordering wall clock, sequential then on a team (only engines whose
      // refresh fans out -- AMD, and MD when the hub guard reroutes --
      // actually use the lanes; identical results either way).
      ordering::Decision dec;
      ordering::Controls seq_ctl;
      const double ord_seq = min_of_n_seconds(reps, [&] {
        ordering::compute_column_ordering(c.a.pattern(), m, seq_ctl, &dec);
      });
      rt::Team team(threads);
      ordering::Controls par_ctl;
      par_ctl.team = &team;
      const double ord_par = min_of_n_seconds(reps, [&] {
        ordering::compute_column_ordering(c.a.pattern(), m, par_ctl, nullptr);
      });
      const double ord_speedup =
          cores > 1 ? ord_seq / ord_par
                    : std::numeric_limits<double>::quiet_NaN();

      Options aopt;
      aopt.ordering = m;
      const Analysis an = analyze(c.a, aopt);
      NumericOptions nopt;
      nopt.mode = ExecutionMode::kThreaded;
      nopt.threads = threads;
      const double factor_secs =
          min_of_n_seconds(reps, [&] { Factorization f(an, c.a, nopt); });

      std::printf("%-14s %8d %-12s %7.1f %10.4f %10.4f %10.4f  %s\n",
                  c.name.c_str(), c.a.rows(), to_string(m).c_str(),
                  an.fill_ratio(), ord_seq, ord_par, factor_secs,
                  to_string(dec.chosen).c_str());
      JsonRecord rec;
      rec.field("bench", "ablation_ordering")
          .field("matrix", c.name)
          .field("n", c.a.rows())
          .field("nnz", c.a.nnz())
          .field("method", to_string(m))
          .field("chosen", to_string(dec.chosen))
          .field("engine", dec.engine)
          .field("fill_ratio", an.fill_ratio())
          .field("ordering_seconds_seq", ord_seq)
          .field("ordering_seconds_par", ord_par)
          .field("ordering_speedup", ord_speedup)
          .field("factor_seconds", factor_secs)
          .field("factor_flops", an.costs.total_flops)
          .field("degree_skew", dec.features.degree_skew)
          .field("bandwidth_ratio", dec.features.bandwidth_ratio)
          .field("density", dec.features.density)
          .field("cores", cores)
          .field("threads", threads)
          .field("reps", reps);
      json_append(rec);
    }
    // The policy record: what `auto` decides for this matrix, with the
    // quick symbolic dry-run comparing the pick against its runner-up.
    ordering::Controls dry_ctl;
    dry_ctl.dry_run = true;
    ordering::Decision dec;
    ordering::compute_column_ordering(c.a.pattern(), ordering::Method::kAuto,
                                      dry_ctl, &dec);
    std::printf("%-14s %8d policy: %s (dry-run fill %ld vs %ld for %s)\n",
                c.name.c_str(), c.a.rows(), to_string(dec.chosen).c_str(),
                dec.dry_run_fill_chosen, dec.dry_run_fill_alternative,
                to_string(ordering::runner_up(dec.chosen)).c_str());
    JsonRecord rec;
    rec.field("bench", "ordering_policy")
        .field("matrix", c.name)
        .field("n", c.a.rows())
        .field("nnz", c.a.nnz())
        .field("chosen", to_string(dec.chosen))
        .field("engine", dec.engine)
        .field("dry_run", 1)
        .field("dry_run_fill_chosen", dec.dry_run_fill_chosen)
        .field("dry_run_fill_alternative", dec.dry_run_fill_alternative)
        .field("degree_skew", dec.features.degree_skew)
        .field("bandwidth_ratio", dec.features.bandwidth_ratio)
        .field("density", dec.features.density)
        .field("max_degree", dec.features.max_degree);
    json_append(rec);
  }
  print_rule(96);
  std::printf(
      "Minimum degree / AMD win fill by an order of magnitude over natural;\n"
      "AMD matches exact MD's fill on meshes and is the only tractable\n"
      "engine on hub-heavy power-law columns, where the auto policy routes\n"
      "to it from the degree-skew feature.\n");
}

}  // namespace
}  // namespace plu::bench

int main(int argc, char** argv) {
  plu::bench::strip_json_flag(&argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  plu::bench::run(smoke);
  plu::bench::run_sweep(smoke);
  return 0;
}
