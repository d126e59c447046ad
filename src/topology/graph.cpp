#include "topology/graph.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace fastcons {

Graph::Graph(std::size_t node_count) : adjacency_(node_count) {}

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

void Graph::add_edge(NodeId a, NodeId b, double latency) {
  FASTCONS_EXPECTS(a < size() && b < size());
  FASTCONS_EXPECTS(a != b);
  FASTCONS_EXPECTS(latency >= 0.0);
  if (has_edge(a, b)) throw ConfigError("duplicate edge in topology");
  adjacency_[a].push_back(Edge{b, latency});
  adjacency_[b].push_back(Edge{a, latency});
  ++edge_count_;
}

bool Graph::has_edge(NodeId a, NodeId b) const {
  FASTCONS_EXPECTS(a < size() && b < size());
  const auto& smaller =
      adjacency_[a].size() <= adjacency_[b].size() ? adjacency_[a] : adjacency_[b];
  const NodeId target = adjacency_[a].size() <= adjacency_[b].size() ? b : a;
  return std::any_of(smaller.begin(), smaller.end(),
                     [target](const Edge& e) { return e.peer == target; });
}

double Graph::latency(NodeId a, NodeId b) const {
  FASTCONS_EXPECTS(a < size() && b < size());
  for (const Edge& e : adjacency_[a]) {
    if (e.peer == b) return e.latency;
  }
  throw ConfigError("latency() on missing edge");
}

void Graph::set_latency(NodeId a, NodeId b, double latency) {
  FASTCONS_EXPECTS(a < size() && b < size());
  FASTCONS_EXPECTS(latency >= 0.0);
  bool found = false;
  for (Edge& e : adjacency_[a]) {
    if (e.peer == b) {
      e.latency = latency;
      found = true;
    }
  }
  for (Edge& e : adjacency_[b]) {
    if (e.peer == a) e.latency = latency;
  }
  if (!found) throw ConfigError("set_latency() on missing edge");
}

const std::vector<Edge>& Graph::neighbours(NodeId n) const {
  FASTCONS_EXPECTS(n < size());
  return adjacency_[n];
}

std::vector<NodeId> Graph::nodes() const {
  std::vector<NodeId> ids(size());
  for (std::size_t i = 0; i < size(); ++i) ids[i] = static_cast<NodeId>(i);
  return ids;
}

}  // namespace fastcons
