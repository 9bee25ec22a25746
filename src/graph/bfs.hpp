#pragma once
// HavoqGT-style graph engine (Section 4.4, Table 2): Kronecker/RMAT
// generation, direction-optimizing BFS with Graph500-style validation, and
// GTEPs accounting. The historical Table 2 rows are reproduced by running
// the real BFS locally to extract bytes-per-edge, then scaling through the
// machine-era + interconnect + NVMe-capacity model in scale_model().

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/exec.hpp"
#include "core/machine.hpp"
#include "core/rng.hpp"

namespace coe::graph {

/// Undirected graph in CSR adjacency form.
class Graph {
 public:
  Graph() = default;
  /// Builds from an edge list (both directions inserted).
  Graph(std::size_t vertices,
        const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges);

  std::size_t num_vertices() const { return offsets_.size() - 1; }
  std::size_t num_directed_edges() const { return adjacency_.size(); }

  std::span<const std::uint32_t> neighbors(std::size_t v) const {
    return std::span<const std::uint32_t>(adjacency_)
        .subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }
  std::size_t degree(std::size_t v) const {
    return offsets_[v + 1] - offsets_[v];
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> adjacency_;
};

/// Graph500 RMAT generator: 2^scale vertices, edge_factor * 2^scale edges.
std::vector<std::pair<std::uint32_t, std::uint32_t>> rmat_edges(
    std::size_t scale, std::size_t edge_factor, core::Rng& rng,
    double a = 0.57, double b = 0.19, double c = 0.19);

struct BfsResult {
  std::vector<std::int64_t> parent;  ///< -1 = unreached
  std::size_t edges_traversed = 0;
  std::size_t levels = 0;
  std::size_t reached = 0;
};

enum class BfsMode { TopDown, BottomUp, Hybrid };

/// BFS from `root`; Hybrid switches to bottom-up on large frontiers (the
/// direction-optimizing heuristic).
BfsResult bfs(core::ExecContext& ctx, const Graph& g, std::uint32_t root,
              BfsMode mode = BfsMode::Hybrid);

/// Graph500-style validation of the parent tree: root is its own parent,
/// every tree edge exists in the graph, child depth = parent depth + 1,
/// and reachability matches a reference sweep.
bool validate_bfs(const Graph& g, std::uint32_t root, const BfsResult& r);

/// Effective bytes of memory traffic per traversed edge, extracted from a
/// real run (the calibration input to the distributed model).
double measured_bytes_per_edge(const Graph& g);

/// Historical machine configuration for the Table 2 model.
struct GraphSystem {
  std::string name;
  hsim::MachineModel node;
  hsim::ClusterModel network;
  int nodes = 1;
  double node_dram_bytes = 0.0;
  double node_flash_bytes = 0.0;  ///< flash/NVMe (HavoqGT's home turf)
  double node_flash_bw = 1.0e9;   ///< sustained random-read bandwidth
};

struct ScalePrediction {
  std::size_t max_scale = 0;   ///< largest 2^s problem that fits
  double gteps = 0.0;          ///< predicted traversal rate at that scale
  double ns_per_edge = 0.0;    ///< per-node cost and which term bound it
  const char* bound_by = "";
};

/// Predicts max feasible scale (capacity) and GTEPs for a system. Per-node
/// edge cost is the max of: DRAM random-gather time (cache-line amplified),
/// external-memory I/O when the graph exceeds DRAM, the aggregated-message
/// network term (with endpoint contention growing as sqrt(nodes)), and a
/// fixed asynchronous-framework overhead on multi-node runs. Constants are
/// calibrated once against the published rows (see bench/table2_graph).
ScalePrediction scale_model(const GraphSystem& sys, double bytes_per_edge,
                            double bytes_per_vertex,
                            std::size_t edge_factor = 16);

}  // namespace coe::graph
