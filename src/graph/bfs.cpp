#include "graph/bfs.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

namespace coe::graph {

Graph::Graph(std::size_t vertices,
             const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                 edges) {
  std::vector<std::size_t> degree(vertices, 0);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;  // self loops dropped (Graph500 convention)
    ++degree[u];
    ++degree[v];
  }
  offsets_.assign(vertices + 1, 0);
  for (std::size_t v = 0; v < vertices; ++v) {
    offsets_[v + 1] = offsets_[v] + degree[v];
  }
  adjacency_.resize(offsets_[vertices]);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    adjacency_[cursor[u]++] = v;
    adjacency_[cursor[v]++] = u;
  }
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> rmat_edges(
    std::size_t scale, std::size_t edge_factor, core::Rng& rng, double a,
    double b, double c) {
  const std::size_t n = std::size_t{1} << scale;
  const std::size_t m = edge_factor * n;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(m);
  for (std::size_t e = 0; e < m; ++e) {
    std::uint32_t u = 0, v = 0;
    for (std::size_t bit = 0; bit < scale; ++bit) {
      const double r = rng.uniform();
      u <<= 1;
      v <<= 1;
      if (r < a) {
        // quadrant (0,0)
      } else if (r < a + b) {
        v |= 1;
      } else if (r < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    edges.emplace_back(u, v);
  }
  return edges;
}

BfsResult bfs(core::ExecContext& ctx, const Graph& g, std::uint32_t root,
              BfsMode mode) {
  const std::size_t n = g.num_vertices();
  BfsResult r;
  r.parent.assign(n, -1);
  r.parent[root] = root;
  std::vector<std::uint32_t> frontier{root};
  std::vector<std::uint32_t> next;
  r.reached = 1;

  while (!frontier.empty()) {
    ++r.levels;
    next.clear();
    const bool bottom_up =
        mode == BfsMode::BottomUp ||
        (mode == BfsMode::Hybrid && frontier.size() > n / 16);
    if (!bottom_up) {
      // Top-down: scan the frontier's adjacency.
      std::size_t scanned = 0;
      std::vector<char> in_frontier;  // unused in top-down
      (void)in_frontier;
      for (const auto u : frontier) {
        for (const auto v : g.neighbors(u)) {
          ++scanned;
          if (r.parent[v] < 0) {
            r.parent[v] = u;
            next.push_back(v);
          }
        }
      }
      r.edges_traversed += scanned;
      ctx.record_kernel({4.0 * double(scanned), 20.0 * double(scanned)});
    } else {
      // Bottom-up: every unvisited vertex probes its neighbors for a
      // frontier member.
      std::vector<char> in_frontier(n, 0);
      for (const auto u : frontier) in_frontier[u] = 1;
      std::size_t scanned = 0;
      for (std::uint32_t v = 0; v < n; ++v) {
        if (r.parent[v] >= 0) continue;
        for (const auto u : g.neighbors(v)) {
          ++scanned;
          if (in_frontier[u]) {
            r.parent[v] = u;
            next.push_back(v);
            break;
          }
        }
      }
      r.edges_traversed += scanned;
      ctx.record_kernel({4.0 * double(scanned), 12.0 * double(scanned)});
    }
    r.reached += next.size();
    frontier.swap(next);
  }
  return r;
}

bool validate_bfs(const Graph& g, std::uint32_t root, const BfsResult& r) {
  const std::size_t n = g.num_vertices();
  if (r.parent[root] != static_cast<std::int64_t>(root)) return false;
  // Depths via the parent chain (with cycle guard).
  std::vector<std::int64_t> depth(n, -1);
  depth[root] = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (r.parent[v] < 0 || depth[v] >= 0) continue;
    // Walk up to a settled vertex.
    std::vector<std::uint32_t> chain;
    std::uint32_t cur = v;
    while (depth[cur] < 0) {
      chain.push_back(cur);
      cur = static_cast<std::uint32_t>(r.parent[cur]);
      if (chain.size() > n) return false;  // cycle
    }
    std::int64_t d = depth[cur];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      depth[*it] = ++d;
    }
  }
  // Tree edges must exist; depths must differ by one.
  for (std::uint32_t v = 0; v < n; ++v) {
    if (r.parent[v] < 0 || v == root) continue;
    const auto p = static_cast<std::uint32_t>(r.parent[v]);
    const auto nb = g.neighbors(v);
    if (std::find(nb.begin(), nb.end(), p) == nb.end()) return false;
    if (depth[v] != depth[p] + 1) return false;
  }
  // Reachability agrees with a reference BFS.
  std::vector<char> seen(n, 0);
  std::queue<std::uint32_t> q;
  q.push(root);
  seen[root] = 1;
  std::size_t count = 1;
  while (!q.empty()) {
    const auto u = q.front();
    q.pop();
    for (const auto v : g.neighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        ++count;
        q.push(v);
      }
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (seen[v] != (r.parent[v] >= 0 ? 1 : 0)) return false;
  }
  return count == r.reached;
}

double measured_bytes_per_edge(const Graph& g) {
  // Run a real traversal under a counting context and divide.
  auto ctx = core::make_seq();
  auto r = bfs(ctx, g, 0, BfsMode::Hybrid);
  if (r.edges_traversed == 0) return 20.0;
  return ctx.counters().bytes / static_cast<double>(r.edges_traversed);
}

ScalePrediction scale_model(const GraphSystem& sys, double bytes_per_edge,
                            double bytes_per_vertex,
                            std::size_t edge_factor) {
  // Calibrated constants (see header comment).
  constexpr double kLineAmplification = 4.0;   // cache-line waste on gathers
  constexpr double kIoBytesPerEdge = 20.0;     // HavoqGT external traversal
  constexpr double kMessageBatch = 512.0;      // visitor-queue aggregation
  constexpr double kFrameworkNs = 25.0;        // async framework per edge

  ScalePrediction p;
  // Capacity: 2 * edge_factor * 2^s directed edges at ~8 B each plus
  // vertex arrays must fit in aggregate storage (DRAM + flash).
  const double total_storage =
      (sys.node_dram_bytes + sys.node_flash_bytes) *
      static_cast<double>(sys.nodes);
  double graph_bytes = 0.0;
  for (std::size_t s = 20; s <= 48; ++s) {
    const double verts = std::pow(2.0, static_cast<double>(s));
    const double need = verts * bytes_per_vertex +
                        2.0 * static_cast<double>(edge_factor) * verts * 8.0;
    if (need <= total_storage) {
      p.max_scale = s;
      graph_bytes = need;
    }
  }

  // Per-node nanoseconds per traversed edge: the max of four terms.
  double ns = bytes_per_edge * kLineAmplification /
              sys.node.bandwidth() * 1e9;
  p.bound_by = "dram";
  const double per_node_bytes =
      graph_bytes / static_cast<double>(sys.nodes);
  if (per_node_bytes > sys.node_dram_bytes) {
    const double io = kIoBytesPerEdge / sys.node_flash_bw * 1e9;
    if (io > ns) {
      ns = io;
      p.bound_by = "flash I/O";
    }
  }
  if (sys.nodes > 1) {
    const double nodes = static_cast<double>(sys.nodes);
    const double remote = (nodes - 1.0) / nodes;
    const double contention = std::sqrt(nodes) / 4.0;
    const double net = remote *
                       (sys.network.alpha / kMessageBatch +
                        16.0 * sys.network.beta * std::max(contention, 1.0)) *
                       1e9;
    if (net > ns) {
      ns = net;
      p.bound_by = "network";
    }
    if (kFrameworkNs > ns) {
      ns = kFrameworkNs;
      p.bound_by = "framework";
    }
  }
  p.ns_per_edge = ns;
  p.gteps = static_cast<double>(sys.nodes) / ns;
  return p;
}

}  // namespace coe::graph
