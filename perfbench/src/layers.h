// Per-layer probes of the traced run, all built on public library calls:
// the analysis with a span per phase, the scheduler-only DAG run, and the
// dense-kernel rates.
#pragma once

#include "core/analysis.h"

namespace perfbench {

/// plu::analyze inside an "analyze" span, with one child span per
/// analysis phase (ordering, graph.transversal, symbolic.static,
/// graph.eforest_postorder, symbolic.supernode_partition, symbolic.blocks,
/// taskgraph.build) laid end to end from the phase seconds the library
/// itself reports in Analysis::timings.
plu::Analysis analyze_traced(const plu::CscMatrix& a, const plu::Options& opt);

/// Median wall seconds of rt::execute_task_graph over `g` at `threads`
/// workers with empty task bodies: the scheduler's own overhead.
double noop_dag_seconds(const plu::taskgraph::TaskGraph& g, int threads,
                        int reps);

/// Median achieved GFLOP/s of blas::gemm on a 256x64 by 64x256 update and
/// of blas::getrf on a 512x64 panel, the shapes of typical panels here.
double gemm_gflops();
double getrf_gflops();

}  // namespace perfbench
