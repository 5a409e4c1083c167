// Router-level topology graph and path computation.
//
// The substrate for the §4.3 case study: traceroute reconstructs paths
// from ICMP replies, and whoever controls those replies controls the
// topology the user believes in. NetHide (defensively) presents a
// *virtual* topology; a malicious operator can present an arbitrary one.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4.hpp"

namespace intox::nethide {

using NodeId = std::uint32_t;
using Path = std::vector<NodeId>;  // node sequence, src first, dst last

/// Canonical undirected edge (min id first).
struct Edge {
  NodeId a = 0;
  NodeId b = 0;
  Edge() = default;
  Edge(NodeId x, NodeId y) : a(x < y ? x : y), b(x < y ? y : x) {}
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

class Topology {
 public:
  explicit Topology(std::size_t nodes);

  void add_link(NodeId u, NodeId v);
  bool remove_link(NodeId u, NodeId v);
  [[nodiscard]] bool has_link(NodeId u, NodeId v) const;

  [[nodiscard]] std::size_t node_count() const { return adj_.size(); }
  [[nodiscard]] std::size_t link_count() const;
  [[nodiscard]] std::vector<Edge> links() const;

  /// Router address of a node (deterministic from id): 10.255.<id>/32-ish.
  [[nodiscard]] net::Ipv4Addr addr(NodeId u) const;

  /// BFS shortest path (hop count); nullopt if unreachable.
  [[nodiscard]] std::optional<Path> shortest_path(NodeId src, NodeId dst) const;

  /// Shortest path that avoids one specific link (for detours).
  [[nodiscard]] std::optional<Path> shortest_path_avoiding(
      NodeId src, NodeId dst, const Edge& avoid) const;

  /// True if `path` uses only existing links.
  [[nodiscard]] bool is_valid_path(const Path& path) const;

  [[nodiscard]] bool connected() const;

  /// Common test topologies.
  static Topology line(std::size_t n);
  static Topology ring(std::size_t n);
  static Topology grid(std::size_t rows, std::size_t cols);
  /// Fat-tree-ish two-level leaf-spine: `leaves` leaf nodes each linked
  /// to all `spines` spine nodes. Node ids: spines first, then leaves.
  static Topology leaf_spine(std::size_t spines, std::size_t leaves);
  /// The NetHide bench topology: two 4-cliques (0-3, 5-8) joined by the
  /// 3-4-5 waist plus a 9-hub shortcut ring — dense edges with one
  /// obvious bottleneck for the obfuscator to hide.
  static Topology dumbbell();

 private:
  [[nodiscard]] std::optional<Path> bfs(NodeId src, NodeId dst,
                                        const Edge* avoid) const;
  std::vector<std::vector<NodeId>> adj_;
};

}  // namespace intox::nethide
