#include "ordering/minimum_degree.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "ordering/amd.h"
#include "ordering/degree_lists.h"

namespace plu::ordering {

using detail::DegreeLists;

Permutation minimum_degree(const Pattern& symmetric_pattern) {
  assert(symmetric_pattern.rows == symmetric_pattern.cols);
  const int n = symmetric_pattern.cols;
  Pattern g = Pattern::symmetrized(symmetric_pattern);

  // Quotient graph state.  Each elimination forms at most one element, so
  // element ids are < n and are handed out in creation order; var_elems[u]
  // is therefore ascending (compaction keeps the order).  Element e's
  // boundary is elem_pool[elem_start[e], elem_start[e] + elem_len[e]).  A
  // live element never holds an eliminated variable: eliminating x absorbs
  // every live element x belongs to.
  std::vector<std::vector<int>> adj(n);       // variable-variable edges
  std::vector<std::vector<int>> var_elems(n); // elements adjacent to variable
  std::vector<int> elem_pool;                 // boundaries, append-only
  std::vector<std::size_t> elem_start(n, 0);
  std::vector<int> elem_len(n, 0);
  std::vector<char> elem_alive(n, 0);
  int num_elems = 0;
  std::size_t dead_words = 0;  // pool entries of absorbed elements
  std::vector<char> eliminated(n, 0);

  for (int v = 0; v < n; ++v) {
    for (const int* it = g.col_begin(v); it != g.col_end(v); ++it) {
      if (*it != v) adj[v].push_back(*it);
    }
  }

  DegreeLists lists(n, n);
  for (int v = 0; v < n; ++v) lists.insert(v, static_cast<int>(adj[v].size()));

  std::vector<int> order;
  order.reserve(n);
  std::vector<int> mark(n, -1);
  int stamp = 0;
  std::vector<int> boundary;

  // Appends `boundary` as a new live element.  When the pool is full and at
  // least half of it belongs to absorbed elements, the live boundaries are
  // first slid to the front (ids and contents unchanged), so the pool stays
  // near the live boundary size instead of growing with every element ever
  // formed.
  auto add_element = [&]() {
    if (elem_pool.size() + boundary.size() > elem_pool.capacity() &&
        2 * dead_words >= elem_pool.size()) {
      std::size_t w = 0;
      for (int e = 0; e < num_elems; ++e) {
        if (!elem_alive[e]) continue;
        const auto first = elem_pool.begin() + elem_start[e];
        std::copy(first, first + elem_len[e], elem_pool.begin() + w);
        elem_start[e] = w;
        w += elem_len[e];
      }
      elem_pool.resize(w);
      dead_words = 0;
    }
    const int eid = num_elems++;
    elem_start[eid] = elem_pool.size();
    elem_len[eid] = static_cast<int>(boundary.size());
    elem_alive[eid] = 1;
    elem_pool.insert(elem_pool.end(), boundary.begin(), boundary.end());
    return eid;
  };

  // Degree refresh state.  For a new element me with boundary L_me, every
  // u in L_me reaches all of L_me, so its exact external degree is
  //   |L_me| - 1 + |reach(u) \ L_me|,
  // where reach(u) \ L_me is the union of u's live plain neighbors outside
  // L_me and the outside lists L_e \ L_me of u's other live elements e.
  // Each outside list is built once per (e, me) into `outside`; the largest
  // one of u is counted by its length alone, and the rest is counted only
  // where it lies outside that largest element (a binary search of the
  // element id in var_elems[x]).
  std::vector<int> in_me(n, -1);     // == me: variable is in L_me
  std::vector<int> out_tag(n, -1);   // == me: outside list of e is built
  std::vector<std::size_t> out_start(n, 0);
  std::vector<int> out_len(n, 0);
  std::vector<int> outside;
  std::vector<int> fresh_degree(n, 0);

  auto refresh_element = [&](int me) {
    const int* lme = elem_pool.data() + elem_start[me];
    const int lme_len = elem_len[me];
    for (int i = 0; i < lme_len; ++i) in_me[lme[i]] = me;
    outside.clear();
    for (int i = 0; i < lme_len; ++i) {
      const int u = lme[i];
      std::vector<int>& elems = var_elems[u];
      if (elems.back() != me) continue;  // refreshed with its newest element

      // Live elements of u (compacted in passing) and their outside lists.
      int big = -1;
      int big_len = 0;
      std::size_t w = 0;
      for (std::size_t r = 0; r < elems.size(); ++r) {
        const int e = elems[r];
        if (!elem_alive[e]) continue;
        elems[w++] = e;
        if (e == me) continue;
        if (out_tag[e] != me) {
          out_tag[e] = me;
          out_start[e] = outside.size();
          const int* le = elem_pool.data() + elem_start[e];
          for (int k = 0; k < elem_len[e]; ++k) {
            if (in_me[le[k]] != me) outside.push_back(le[k]);
          }
          out_len[e] = static_cast<int>(outside.size() - out_start[e]);
        }
        if (out_len[e] > big_len) {
          big = e;
          big_len = out_len[e];
        }
      }
      elems.resize(w);

      ++stamp;
      int deg = lme_len - 1 + big_len;
      // x is live and outside L_me; counts once, unless it lies in `big`.
      auto counts = [&](int x) {
        if (mark[x] == stamp) return 0;
        mark[x] = stamp;
        if (big < 0) return 1;
        const std::vector<int>& xe = var_elems[x];
        return std::binary_search(xe.begin(), xe.end(), big) ? 0 : 1;
      };
      for (int e : elems) {
        if (e == me || e == big) continue;
        const int* o = outside.data() + out_start[e];
        for (int k = 0; k < out_len[e]; ++k) deg += counts(o[k]);
      }
      std::vector<int>& nbrs = adj[u];
      w = 0;
      for (std::size_t r = 0; r < nbrs.size(); ++r) {
        const int x = nbrs[r];
        if (eliminated[x]) continue;
        nbrs[w++] = x;
        if (in_me[x] != me) deg += counts(x);
      }
      nbrs.resize(w);
      fresh_degree[u] = deg;
    }
  };

  // Multiple elimination (GENMMD-style): within one pass, eliminate every
  // minimum-degree variable that is independent of the variables already
  // eliminated in the pass, and only then refresh the degrees of the touched
  // boundary.  Besides being faster, this produces BUSHY elimination trees
  // (independent nodes of equal degree become siblings, not a chain), which
  // is what gives the paper's task graphs their tree parallelism.
  std::vector<int> pass_mark(n, -1);
  int pass_id = 0;
  std::vector<int> touched;
  std::vector<std::pair<int, int>> stash;  // popped but deferred (node, degree)

  int eliminated_count = 0;
  while (eliminated_count < n) {
    ++pass_id;
    touched.clear();
    stash.clear();
    const int pass_first_elem = num_elems;
    int d0 = -1;
    for (;;) {
      int dv = 0;
      int v = lists.pop_min(&dv);
      if (v == -1) break;
      if (d0 == -1) d0 = dv;
      if (dv > d0) {
        stash.push_back({v, dv});
        break;  // pass covers one degree level only
      }
      if (pass_mark[v] == pass_id) {
        // Adjacent to something eliminated this pass: its degree is stale.
        stash.push_back({v, dv});
        continue;
      }
      eliminated[v] = 1;
      order.push_back(v);
      ++eliminated_count;

      // Boundary of the new element: reachable live variables of v.
      ++stamp;
      mark[v] = stamp;
      boundary.clear();
      for (int x : adj[v]) {
        if (!eliminated[x] && mark[x] != stamp) {
          mark[x] = stamp;
          boundary.push_back(x);
        }
      }
      for (int e : var_elems[v]) {
        if (!elem_alive[e]) continue;
        const int* le = elem_pool.data() + elem_start[e];
        for (int k = 0; k < elem_len[e]; ++k) {
          const int x = le[k];
          if (!eliminated[x] && mark[x] != stamp) {
            mark[x] = stamp;
            boundary.push_back(x);
          }
        }
        elem_alive[e] = 0;  // absorbed into the new element
        dead_words += static_cast<std::size_t>(elem_len[e]);
      }
      if (boundary.empty()) continue;

      const int eid = add_element();
      for (int u : boundary) {
        var_elems[u].push_back(eid);
        if (pass_mark[u] != pass_id) {
          pass_mark[u] = pass_id;
          touched.push_back(u);
        }
      }
    }
    // Reinsert deferred variables with their old degree, then refresh every
    // touched variable's exact degree (stash members that were touched get
    // refreshed by the second loop; update() keeps list state consistent).
    // Boundary members of this pass's elements are all stashed, so those
    // elements are still live; each touched variable is refreshed with the
    // newest of them, and the list updates keep the `touched` order.
    for (auto [u, d] : stash) {
      if (!eliminated[u]) lists.insert(u, d);
    }
    for (int me = pass_first_elem; me < num_elems; ++me) refresh_element(me);
    for (int u : touched) {
      if (!eliminated[u]) lists.update(u, fresh_degree[u]);
    }
  }

  return Permutation::from_old_positions(std::move(order));
}

Permutation minimum_degree_guarded(const Pattern& symmetric_pattern,
                                   rt::Team* team) {
  if (hub_heavy(symmetric_pattern)) {
    return approximate_minimum_degree(symmetric_pattern, team);
  }
  return minimum_degree(symmetric_pattern);
}

Permutation minimum_degree_ata(const Pattern& a) {
  return minimum_degree_guarded(Pattern::ata(a));
}

}  // namespace plu::ordering
