#include "platform/platform.h"

#include <algorithm>
#include <stdexcept>

namespace procon::platform {

Platform Platform::homogeneous(std::size_t count, const std::string& prefix) {
  Platform p;
  for (std::size_t i = 0; i < count; ++i) {
    p.add_node(prefix + std::to_string(i));
  }
  return p;
}

NodeId Platform::add_node(std::string name, NodeType type) {
  nodes_.push_back(Node{std::move(name), type});
  return static_cast<NodeId>(nodes_.size() - 1);
}

std::size_t Platform::type_count() const noexcept {
  std::size_t count = 0;
  for (const Node& n : nodes_) {
    count = std::max<std::size_t>(count, static_cast<std::size_t>(n.type) + 1);
  }
  return count;
}

const Node& Platform::node(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("invalid node id");
  return nodes_[id];
}

NodeId Platform::find_node(const std::string& name) const noexcept {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<NodeId>(i);
  }
  return kInvalidNode;
}

}  // namespace procon::platform
