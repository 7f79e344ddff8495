#include "lineage/lineage.h"

#include <algorithm>
#include <set>

namespace gea::lineage {

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDataSet:
      return "dataset";
    case NodeKind::kFascicle:
      return "fascicle";
    case NodeKind::kSumy:
      return "sumy";
    case NodeKind::kEnum:
      return "enum";
    case NodeKind::kGap:
      return "gap";
    case NodeKind::kTopGap:
      return "top_gap";
    case NodeKind::kCompareGap:
      return "compare_gap";
  }
  return "?";
}

Result<LineageGraph::NodeId> LineageGraph::AddNode(
    const std::string& name, NodeKind kind, const std::string& operation,
    std::map<std::string, std::string> parameters,
    const std::vector<NodeId>& parents) {
  if (name.empty()) {
    return Status::InvalidArgument("lineage node name must be non-empty");
  }
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("lineage node already exists: " + name);
  }
  for (NodeId parent : parents) {
    if (nodes_.count(parent) == 0) {
      return Status::NotFound("no such parent node: " +
                              std::to_string(parent));
    }
  }
  Node node;
  // One past the largest id held, not a counter: a graph rebuilt from its
  // Export() then numbers new nodes as the original does.
  node.id = nodes_.empty() ? 1 : nodes_.rbegin()->first + 1;
  node.name = name;
  node.kind = kind;
  node.operation = operation;
  node.parameters = std::move(parameters);
  node.parents = parents;
  for (NodeId parent : parents) {
    nodes_[parent].children.push_back(node.id);
  }
  NodeId id = node.id;
  by_name_.emplace(name, id);
  nodes_.emplace(id, std::move(node));
  return id;
}

Result<const LineageGraph::Node*> LineageGraph::GetNode(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return Status::NotFound("no such lineage node: " + std::to_string(id));
  }
  return &it->second;
}

Result<LineageGraph::NodeId> LineageGraph::FindByName(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no lineage node named " + name);
  }
  return it->second;
}

Status LineageGraph::SetComment(NodeId id, const std::string& comment) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return Status::NotFound("no such lineage node: " + std::to_string(id));
  }
  it->second.comment = comment;
  return Status::OK();
}

Status LineageGraph::DeleteContents(
    NodeId id, const std::function<void(const std::string&)>& on_drop) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return Status::NotFound("no such lineage node: " + std::to_string(id));
  }
  if (it->second.has_contents && on_drop) on_drop(it->second.name);
  it->second.has_contents = false;
  return Status::OK();
}

Status LineageGraph::DeleteCascade(
    NodeId id, const std::function<void(const std::string&)>& on_drop) {
  if (nodes_.count(id) == 0) {
    return Status::NotFound("no such lineage node: " + std::to_string(id));
  }
  // Collect the subtree (DAG-safe: a node reachable through two parents is
  // visited once).
  std::set<NodeId> doomed;
  std::vector<NodeId> frontier = {id};
  while (!frontier.empty()) {
    NodeId cur = frontier.back();
    frontier.pop_back();
    if (!doomed.insert(cur).second) continue;
    for (NodeId child : nodes_[cur].children) frontier.push_back(child);
  }
  for (NodeId victim : doomed) {
    const Node& node = nodes_[victim];
    if (on_drop) on_drop(node.name);
    by_name_.erase(node.name);
    // Unlink from surviving parents.
    for (NodeId parent : node.parents) {
      if (doomed.count(parent) > 0) continue;
      auto pit = nodes_.find(parent);
      if (pit == nodes_.end()) continue;
      auto& kids = pit->second.children;
      kids.erase(std::remove(kids.begin(), kids.end(), victim), kids.end());
    }
  }
  for (NodeId victim : doomed) nodes_.erase(victim);
  return Status::OK();
}

Result<std::vector<LineageGraph::NodeId>> LineageGraph::Children(
    NodeId id) const {
  GEA_ASSIGN_OR_RETURN(const Node* node, GetNode(id));
  return node->children;
}

Result<std::string> LineageGraph::RenderTree(NodeId id) const {
  GEA_ASSIGN_OR_RETURN(const Node* root, GetNode(id));
  std::string out;
  // Iterative DFS with depth markers; nodes with multiple parents print
  // under each (like the thesis: a GAP table appears under both of its
  // SUMY parents).
  std::function<void(const Node&, int)> walk = [&](const Node& node,
                                                   int depth) {
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += node.name;
    out += " [";
    out += NodeKindName(node.kind);
    if (!node.operation.empty()) {
      out += ": ";
      out += node.operation;
    }
    if (!node.has_contents) out += ", contents dropped";
    out += "]\n";
    for (NodeId child : node.children) {
      auto it = nodes_.find(child);
      if (it != nodes_.end()) walk(it->second, depth + 1);
    }
  };
  walk(*root, 0);
  return out;
}

std::vector<LineageGraph::NodeId> LineageGraph::Roots() const {
  std::vector<NodeId> roots;
  for (const auto& [id, node] : nodes_) {
    if (node.parents.empty()) roots.push_back(id);
  }
  return roots;
}

namespace {

Result<NodeKind> ParseNodeKind(const std::string& name) {
  for (int k = 0; k <= static_cast<int>(NodeKind::kCompareGap); ++k) {
    NodeKind kind = static_cast<NodeKind>(k);
    if (name == NodeKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown lineage node kind: " + name);
}

}  // namespace

LineageGraph::RelExport LineageGraph::Export() const {
  rel::Table nodes("LineageNodes",
                   rel::Schema({{"Id", rel::ValueType::kInt},
                                {"Name", rel::ValueType::kString},
                                {"Kind", rel::ValueType::kString},
                                {"Operation", rel::ValueType::kString},
                                {"Comment", rel::ValueType::kString},
                                {"HasContents", rel::ValueType::kInt}}));
  rel::Table params("LineageParams",
                    rel::Schema({{"Id", rel::ValueType::kInt},
                                 {"Key", rel::ValueType::kString},
                                 {"Value", rel::ValueType::kString}}));
  rel::Table edges("LineageEdges",
                   rel::Schema({{"Parent", rel::ValueType::kInt},
                                {"Child", rel::ValueType::kInt}}));
  for (const auto& [id, node] : nodes_) {
    nodes.AppendRowUnchecked(
        {rel::Value::Int(static_cast<int64_t>(id)),
         rel::Value::String(node.name),
         rel::Value::String(NodeKindName(node.kind)),
         rel::Value::String(node.operation),
         rel::Value::String(node.comment),
         rel::Value::Int(node.has_contents ? 1 : 0)});
    for (const auto& [key, value] : node.parameters) {
      params.AppendRowUnchecked({rel::Value::Int(static_cast<int64_t>(id)),
                                 rel::Value::String(key),
                                 rel::Value::String(value)});
    }
    for (NodeId parent : node.parents) {
      edges.AppendRowUnchecked(
          {rel::Value::Int(static_cast<int64_t>(parent)),
           rel::Value::Int(static_cast<int64_t>(id))});
    }
  }
  return {std::move(nodes), std::move(params), std::move(edges)};
}

Result<LineageGraph> LineageGraph::Import(const rel::Table& nodes,
                                          const rel::Table& params,
                                          const rel::Table& edges) {
  LineageGraph graph;
  for (size_t r1_ = 0; r1_ < nodes.NumRows(); ++r1_) {
    const rel::Row row = nodes.GetRow(r1_);
    if (row.size() != 6) {
      return Status::InvalidArgument("bad LineageNodes row arity");
    }
    Node node;
    node.id = static_cast<NodeId>(row[0].AsInt());
    node.name = row[1].AsString();
    GEA_ASSIGN_OR_RETURN(node.kind, ParseNodeKind(row[2].AsString()));
    node.operation = row[3].AsString();
    node.comment = row[4].AsString();
    node.has_contents = row[5].AsInt() != 0;
    if (node.name.empty()) {
      return Status::InvalidArgument("lineage node with empty name");
    }
    if (!graph.by_name_.emplace(node.name, node.id).second) {
      return Status::InvalidArgument("duplicate lineage node name: " +
                                     node.name);
    }
    NodeId id = node.id;
    if (!graph.nodes_.emplace(id, std::move(node)).second) {
      return Status::InvalidArgument("duplicate lineage node id: " +
                                     std::to_string(id));
    }
  }
  for (size_t r2_ = 0; r2_ < params.NumRows(); ++r2_) {
    const rel::Row row = params.GetRow(r2_);
    auto it = graph.nodes_.find(static_cast<NodeId>(row[0].AsInt()));
    if (it == graph.nodes_.end()) {
      return Status::InvalidArgument("LineageParams references unknown id");
    }
    it->second.parameters[row[1].AsString()] = row[2].AsString();
  }
  for (size_t r3_ = 0; r3_ < edges.NumRows(); ++r3_) {
    const rel::Row row = edges.GetRow(r3_);
    NodeId parent = static_cast<NodeId>(row[0].AsInt());
    NodeId child = static_cast<NodeId>(row[1].AsInt());
    auto pit = graph.nodes_.find(parent);
    auto cit = graph.nodes_.find(child);
    if (pit == graph.nodes_.end() || cit == graph.nodes_.end()) {
      return Status::InvalidArgument("LineageEdges references unknown id");
    }
    pit->second.children.push_back(child);
    cit->second.parents.push_back(parent);
  }
  return graph;
}

}  // namespace gea::lineage
