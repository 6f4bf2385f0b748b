#include "src/diff/cascading_analysts.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"

namespace tsexplain {
namespace {

constexpr double kScoreEps = 1e-12;

}  // namespace

CascadingAnalysts::CascadingAnalysts(const ExplanationRegistry& registry)
    : registry_(registry) {
  std::vector<AttrId> attrs = registry_.explain_by();
  std::sort(attrs.begin(), attrs.end());
  for (size_t r = 0; r < attrs.size(); ++r) {
    const size_t attr = static_cast<size_t>(attrs[r]);
    if (attr_rank_.size() <= attr) attr_rank_.resize(attr + 1, 0);
    attr_rank_[attr] = static_cast<uint32_t>(r);
  }
  num_attrs_ = std::max<size_t>(attrs.size(), 1);
}

TopExplanations CascadingAnalysts::TopM(const std::vector<double>& gamma,
                                        int m,
                                        const std::vector<bool>* selectable) {
  TSE_CHECK_GE(m, 1);
  TSE_CHECK_EQ(gamma.size(), registry_.num_explanations());
  if (selectable != nullptr) {
    TSE_CHECK_EQ(selectable->size(), registry_.num_explanations());
  }
  if (full_.group_begin.empty()) {
    std::vector<ExplId> all(registry_.num_explanations());
    std::iota(all.begin(), all.end(), 0);
    BuildLattice(all, &full_);
  }
  for (size_t node = 0; node < full_.cells.size(); ++node) {
    full_.selectable[node] =
        selectable == nullptr ||
        (*selectable)[static_cast<size_t>(full_.cells[node])];
  }
  return Solve(full_, gamma, m);
}

TopExplanations CascadingAnalysts::TopMRestricted(
    const std::vector<double>& gamma, int m,
    const std::vector<ExplId>& candidates) {
  TSE_CHECK_GE(m, 1);
  TSE_CHECK_EQ(gamma.size(), registry_.num_explanations());
  BuildLattice(candidates, &sub_);
  return Solve(sub_, gamma, m);
}

void CascadingAnalysts::BuildLattice(const std::vector<ExplId>& cells,
                                     Lattice* lattice) {
  const size_t epsilon = registry_.num_explanations();
  if (node_of_.empty()) {
    node_of_.assign(epsilon, -1);
    in_lattice_.assign((epsilon + 63) / 64, 0);
  }
  lattice->cells.clear();
  lattice->selectable.clear();
  auto add = [this, lattice](ExplId id, bool selectable) {
    int32_t& node = node_of_[static_cast<size_t>(id)];
    if (node >= 0) return;
    node = static_cast<int32_t>(lattice->cells.size());
    lattice->cells.push_back(id);
    lattice->selectable.push_back(selectable);
    in_lattice_[static_cast<size_t>(id) / 64] |=
        uint64_t{1} << (static_cast<size_t>(id) % 64);
  };
  for (ExplId id : cells) {
    TSE_CHECK_GE(id, 0);
    TSE_CHECK_LT(static_cast<size_t>(id), node_of_.size());
    add(id, /*selectable=*/true);
  }
  // Breadth-first over parents: every ancestor is added exactly once.
  for (size_t i = 0; i < lattice->cells.size(); ++i) {
    for (ExplId parent : registry_.parents(lattice->cells[i])) {
      add(parent, /*selectable=*/false);
    }
  }

  // Drill-down edges: a cell is the child of each of its parents along the
  // dropped attribute, and an order-1 cell is the root's child. The edges
  // are listed by ascending child id (the bitset's order), so a stable
  // counting sort by group -- parent node, then attribute -- leaves each
  // group's children by id: the CSR order without a comparison sort.
  const size_t root = lattice->cells.size();
  const size_t num_groups = (root + 1) * num_attrs_;
  TSE_CHECK_LT(num_groups, size_t{UINT32_MAX});
  group_count_.assign(num_groups + 1, 0);
  const int max_order = std::max(registry_.max_order(), 1);
  order_count_.assign(static_cast<size_t>(max_order) + 1, 0);
  edges_.clear();
  for (size_t word = 0; word < in_lattice_.size(); ++word) {
    for (uint64_t bits = in_lattice_[word]; bits != 0; bits &= bits - 1) {
      const ExplId id = static_cast<ExplId>(
          word * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
      const int32_t node = node_of_[static_cast<size_t>(id)];
      const auto& preds = registry_.explanation(id).predicates();
      const auto parents = registry_.parents(id);
      auto link = [&](size_t parent_node, AttrId attr) {
        const uint32_t group = static_cast<uint32_t>(
            parent_node * num_attrs_ + attr_rank_[static_cast<size_t>(attr)]);
        edges_.push_back(Edge{group, node});
        ++group_count_[group + 1];
      };
      if (parents.size() == 0) link(root, preds[0].attr);
      for (size_t i = 0; i < parents.size(); ++i) {
        link(static_cast<size_t>(node_of_[static_cast<size_t>(parents[i])]),
             preds[i].attr);
      }
      ++order_count_[std::max<size_t>(1, parents.size())];
    }
    in_lattice_[word] = 0;
  }
  for (size_t g = 0; g < num_groups; ++g) {
    group_count_[g + 1] += group_count_[g];
  }
  lattice->children.resize(edges_.size());
  lattice->group_begin.assign(root + 2, 0);
  lattice->child_begin.clear();
  for (size_t node = 0; node <= root; ++node) {
    lattice->group_begin[node] =
        static_cast<uint32_t>(lattice->child_begin.size());
    for (size_t g = node * num_attrs_; g < (node + 1) * num_attrs_; ++g) {
      if (group_count_[g + 1] > group_count_[g]) {
        lattice->child_begin.push_back(group_count_[g]);
      }
    }
  }
  lattice->group_begin[root + 1] =
      static_cast<uint32_t>(lattice->child_begin.size());
  lattice->child_begin.push_back(static_cast<uint32_t>(edges_.size()));
  for (const Edge& edge : edges_) {
    lattice->children[group_count_[edge.group]++] = edge.child;
  }

  // Children have one more predicate than their parents, so visiting
  // nodes by descending order solves every child first. Within an order,
  // nodes keep ascending node order.
  uint32_t slot = 0;
  for (int order = max_order; order >= 1; --order) {
    const uint32_t count = order_count_[static_cast<size_t>(order)];
    order_count_[static_cast<size_t>(order)] = slot;  // order's first slot
    slot += count;
  }
  lattice->bottom_up.resize(root);
  for (size_t node = 0; node < root; ++node) {
    const size_t order = std::max<size_t>(
        1, registry_.parents(lattice->cells[node]).size());
    lattice->bottom_up[order_count_[order]++] = static_cast<int32_t>(node);
  }
  for (ExplId id : lattice->cells) node_of_[static_cast<size_t>(id)] = -1;
}

TopExplanations CascadingAnalysts::Solve(const Lattice& lattice,
                                         const std::vector<double>& gamma,
                                         int m) {
  m_ = m;
  const size_t stride = static_cast<size_t>(m) + 1;
  const size_t root = lattice.cells.size();
  f_.assign((root + 1) * stride, 0.0);
  dp_.resize(stride);
  // f(node, x) for x = 1..m starts as the best drill-down: per attribute,
  // a knapsack over the children where dp[x] = best total score spending
  // at most x quota on the children seen so far. Descending x keeps each
  // child used at most once (bounded knapsack over quota).
  auto drill_down = [&](size_t node) {
    double* f = &f_[node * stride];
    for (uint32_t g = lattice.group_begin[node];
         g < lattice.group_begin[node + 1]; ++g) {
      std::fill(dp_.begin(), dp_.end(), 0.0);
      for (uint32_t c = lattice.child_begin[g];
           c < lattice.child_begin[g + 1]; ++c) {
        const double* child =
            &f_[static_cast<size_t>(lattice.children[c]) * stride];
        for (int x = m; x >= 1; --x) {
          double best_here = dp_[static_cast<size_t>(x)];
          for (int y = 1; y <= x; ++y) {
            best_here = std::max(best_here, dp_[static_cast<size_t>(x - y)] +
                                                child[y]);
          }
          dp_[static_cast<size_t>(x)] = best_here;
        }
      }
      for (size_t x = 1; x < stride; ++x) f[x] = std::max(f[x], dp_[x]);
    }
  };
  for (int32_t node : lattice.bottom_up) {
    drill_down(static_cast<size_t>(node));
    const double g =
        gamma[static_cast<size_t>(lattice.cells[static_cast<size_t>(node)])];
    if (lattice.selectable[static_cast<size_t>(node)] && g > kScoreEps) {
      double* f = &f_[static_cast<size_t>(node) * stride];
      for (size_t x = 1; x < stride; ++x) f[x] = std::max(g, f[x]);
    }
  }
  nodes_visited_ = root * static_cast<size_t>(m);
  // The root cannot select itself; Best[q] is its drill-down value.
  drill_down(root);

  TopExplanations result;
  result.best.assign(f_.begin() + static_cast<std::ptrdiff_t>(root * stride),
                     f_.end());
  Reconstruct(lattice, gamma, static_cast<int32_t>(root), m, &result.ids);
  SortByGammaDesc(gamma, &result.ids);
  result.gammas.reserve(result.ids.size());
  for (ExplId id : result.ids) {
    result.gammas.push_back(gamma[static_cast<size_t>(id)]);
  }
  return result;
}

void CascadingAnalysts::Reconstruct(const Lattice& lattice,
                                    const std::vector<double>& gamma,
                                    int32_t node, int q,
                                    std::vector<ExplId>* out) {
  const size_t stride = static_cast<size_t>(m_) + 1;
  const size_t at = static_cast<size_t>(node);
  const double value = f_[at * stride + static_cast<size_t>(q)];
  if (q == 0 || value <= kScoreEps) return;  // nothing selected here

  if (at < lattice.cells.size() && lattice.selectable[at]) {
    const double g = gamma[static_cast<size_t>(lattice.cells[at])];
    if (g > kScoreEps && g >= value - kScoreEps) {
      out->push_back(lattice.cells[at]);
      return;
    }
  }
  // Not selected, so `value` is the drill-down optimum. Find a group
  // achieving it, re-run its knapsack keeping every row, and walk back to
  // recover the quota granted to each child.
  const size_t width = static_cast<size_t>(q) + 1;
  for (uint32_t g = lattice.group_begin[at]; g < lattice.group_begin[at + 1];
       ++g) {
    const uint32_t first = lattice.child_begin[g];
    const size_t num_children = lattice.child_begin[g + 1] - first;
    dp_.assign((num_children + 1) * width, 0.0);
    auto child_f = [&](size_t i) {
      return &f_[static_cast<size_t>(lattice.children[first + i]) * stride];
    };
    for (size_t i = 0; i < num_children; ++i) {
      const double* child = child_f(i);
      const double* prev = &dp_[i * width];
      for (size_t x = 0; x < width; ++x) {
        double best_here = prev[x];
        for (size_t y = 1; y <= x; ++y) {
          best_here = std::max(best_here, prev[x - y] + child[y]);
        }
        dp_[(i + 1) * width + x] = best_here;
      }
    }
    if (dp_[num_children * width + static_cast<size_t>(q)] <
        value - kScoreEps) {
      continue;  // this dimension does not achieve the optimum
    }
    const size_t mark = picks_.size();
    size_t x = static_cast<size_t>(q);
    for (size_t i = num_children; i > 0; --i) {
      const double* child = child_f(i - 1);
      const double target = dp_[i * width + x] - kScoreEps;
      size_t chosen = 0;
      for (size_t y = 0; y <= x; ++y) {
        if (dp_[(i - 1) * width + x - y] + child[y] >= target) {
          chosen = y;
          break;  // smallest quota achieving the value -> fewest selections
        }
      }
      if (chosen > 0) {
        picks_.emplace_back(lattice.children[first + i - 1],
                            static_cast<int>(chosen));
      }
      x -= chosen;
    }
    const size_t end = picks_.size();
    for (size_t k = mark; k < end; ++k) {
      const std::pair<int32_t, int> pick = picks_[k];
      Reconstruct(lattice, gamma, pick.first, pick.second, out);
    }
    picks_.resize(mark);
    return;
  }
  TSE_CHECK(false) << "reconstruction failed to match the optimal value";
}

void SortByGammaDesc(const std::vector<double>& gamma,
                     std::vector<ExplId>* ids) {
  std::sort(ids->begin(), ids->end(), [&gamma](ExplId a, ExplId b) {
    const double ga = gamma[static_cast<size_t>(a)];
    const double gb = gamma[static_cast<size_t>(b)];
    if (ga != gb) return ga > gb;
    return a < b;  // deterministic tie-break
  });
}

}  // namespace tsexplain
