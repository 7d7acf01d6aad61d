// Minimum-degree ordering on a symmetric pattern.
//
// The paper's fill-reducing step is "the minimum degree algorithm on A^T A"
// (Section 1).  This is a quotient-graph implementation with exact external
// degrees, element absorption, degree bucket lists and GENMMD-style multiple
// elimination (the classic MD formulation).
//
// Degree refresh: after each multiple-elimination pass, every new element me
// is scanned once.  Each touched variable u whose newest element is me gets
//   deg(u) = |L_me| - 1 + |reach(u) \ L_me|,
// so nothing inside L_me is rescanned per variable.  The outside lists
// L_e \ L_me of the other live elements are built once per (e, me); u's
// largest outside list is counted by its length, and its plain neighbors and
// other outside lists are counted only where they fall outside that element
// (binary search in the variable's ascending element list).  Element
// boundaries live in one append-only pool whose absorbed entries are
// reclaimed when it fills.
//
// Bit-identity contract: the refresh computes the same exact degrees as the
// original per-variable rescan and updates the bucket lists in the same
// order, so the permutation is unchanged entry for entry -- every caller
// (the default engine, the guarded entry point, nested-dissection leaves and
// the `auto` dry run) depends on that.  MinimumDegree.MatchesReferenceBitwise
// checks it against the original engine kept as a test-only oracle
// (tests/reference_minimum_degree.h).
//
// The engine has no supervariable detection, so hub vertices whose degree
// dwarfs the average still cost it far more than the approximate engine;
// minimum_degree_guarded() detects that profile (amd.h: hub_heavy) and
// routes it to approximate minimum degree, whose supervariables and
// approximate degrees stay near-linear there.
#pragma once

#include "matrix/csc.h"
#include "matrix/permutation.h"

namespace plu::rt {
class Team;
}

namespace plu::ordering {

/// Computes a minimum-degree elimination order for a symmetric pattern
/// (diagonal ignored).  Returns the permutation in gather form:
/// old_of(k) = the variable eliminated k-th.  Always the exact engine.
Permutation minimum_degree(const Pattern& symmetric_pattern);

/// Exact minimum degree with the hub guard: hub-heavy graphs (amd.h) route
/// to approximate_minimum_degree (which also uses `team`); everything else
/// runs the exact engine.  The route is a pure function of the pattern.
Permutation minimum_degree_guarded(const Pattern& symmetric_pattern,
                                   rt::Team* team = nullptr);

/// Convenience for unsymmetric LU: guarded minimum degree on A^T A.
Permutation minimum_degree_ata(const Pattern& a);

}  // namespace plu::ordering
