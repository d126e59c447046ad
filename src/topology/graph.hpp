// Undirected weighted graph: the replica interconnection topology. Edge
// weights are link propagation delays in session-time units.
#ifndef FASTCONS_TOPOLOGY_GRAPH_HPP
#define FASTCONS_TOPOLOGY_GRAPH_HPP

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace fastcons {

/// One directed half of an undirected edge, as seen from its owner node.
struct Edge {
  NodeId peer = kInvalidNode;
  double latency = 0.0;  // propagation delay, session-time units
};

/// Adjacency-list graph. Nodes are dense 0..size()-1. Self-loops and
/// parallel edges are rejected; the graph stays simple by construction.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t node_count);

  std::size_t size() const noexcept { return adjacency_.size(); }
  bool empty() const noexcept { return adjacency_.empty(); }
  std::size_t edge_count() const noexcept { return edge_count_; }

  /// Appends a node; returns its id.
  NodeId add_node();

  /// Adds the undirected edge {a, b} with the given latency. Requires a != b,
  /// both in range, and the edge not already present.
  void add_edge(NodeId a, NodeId b, double latency = 0.0);

  bool has_edge(NodeId a, NodeId b) const;

  /// Latency of edge {a, b}; requires the edge to exist.
  double latency(NodeId a, NodeId b) const;

  /// Replaces the latency of the existing edge {a, b}.
  void set_latency(NodeId a, NodeId b, double latency);

  const std::vector<Edge>& neighbours(NodeId n) const;

  std::size_t degree(NodeId n) const { return neighbours(n).size(); }

  /// All node ids 0..size()-1, handy for range-for in callers.
  std::vector<NodeId> nodes() const;

 private:
  std::vector<std::vector<Edge>> adjacency_;
  std::size_t edge_count_ = 0;
};

}  // namespace fastcons

#endif  // FASTCONS_TOPOLOGY_GRAPH_HPP
