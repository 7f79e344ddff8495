#ifndef GEA_LINEAGE_LINEAGE_H_
#define GEA_LINEAGE_LINEAGE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "rel/table.h"

namespace gea::lineage {

/// Kind of derived object a lineage node describes (the folders of
/// Fig. 4.18).
enum class NodeKind {
  kDataSet = 0,  // a tissue-type or user-defined ENUM data set
  kFascicle,     // one mined fascicle
  kSumy,
  kEnum,
  kGap,
  kTopGap,
  kCompareGap,
};

const char* NodeKindName(NodeKind kind);

/// The lineage feature of Section 4.4.2: a provenance DAG recording, for
/// every derived table, which operation created it, with what parameters,
/// from which inputs, plus free-form user comments. It supports the
/// Fig. 4.18 interactions: viewing a node's metadata, deleting only a
/// node's contents (keeping the metadata for regeneration), and deleting
/// a node together with everything derived from it.
class LineageGraph {
 public:
  using NodeId = uint64_t;

  struct Node {
    NodeId id = 0;
    std::string name;           // e.g. "brain25k_3CancerFasTbl"
    NodeKind kind = NodeKind::kDataSet;
    std::string operation;      // e.g. "fascicles", "diff", "top_gap"
    /// Operation parameters, e.g. {"compact_dimension","25000"},
    /// {"metadata","brainfile.meta"}.
    std::map<std::string, std::string> parameters;
    std::string comment;        // the Fig. 4.18 "User Comment"
    std::vector<NodeId> parents;
    std::vector<NodeId> children;
    /// False after a contents-only delete; the metadata stays usable for
    /// regeneration.
    bool has_contents = true;
  };

  LineageGraph() = default;

  /// Records a new derived object. Unknown parent ids fail with NotFound;
  /// duplicate names fail with AlreadyExists (names identify tables).
  Result<NodeId> AddNode(const std::string& name, NodeKind kind,
                         const std::string& operation,
                         std::map<std::string, std::string> parameters,
                         const std::vector<NodeId>& parents);

  Result<const Node*> GetNode(NodeId id) const;
  Result<NodeId> FindByName(const std::string& name) const;

  /// Attaches / replaces the user comment.
  Status SetComment(NodeId id, const std::string& comment);

  /// First deletion option of Section 4.4.2: drop the node's contents but
  /// keep its metadata so it can be regenerated. `on_drop` (optional) is
  /// called with the node's name so the caller can free the actual table.
  Status DeleteContents(NodeId id,
                        const std::function<void(const std::string&)>&
                            on_drop = nullptr);

  /// Second deletion option: remove the node, its metadata, and every
  /// node derived from it (transitively). `on_drop` is called for each
  /// removed node's name.
  Status DeleteCascade(NodeId id,
                       const std::function<void(const std::string&)>&
                           on_drop = nullptr);

  /// Children of `id` (the tables generated from it).
  Result<std::vector<NodeId>> Children(NodeId id) const;

  /// Formats the subtree under `id` like the Fig. 4.18 explorer panel.
  Result<std::string> RenderTree(NodeId id) const;

  size_t NumNodes() const { return nodes_.size(); }

  /// Ids of all root nodes (no parents), in creation order.
  std::vector<NodeId> Roots() const;

  /// Relational serialization (the thesis stores the operation history in
  /// the database; see Appendix IV tables FasFile/GapInfo/TopRec etc.).
  struct RelExport {
    rel::Table nodes;   // Id:int, Name, Kind, Operation, Comment,
                        // HasContents:int
    rel::Table params;  // Id:int, Key, Value
    rel::Table edges;   // Parent:int, Child:int
  };

  /// Exports the whole graph as three relations.
  RelExport Export() const;

  /// Rebuilds a graph from an Export()'s relations. Node ids are
  /// preserved; the next fresh id continues after the maximum.
  static Result<LineageGraph> Import(const rel::Table& nodes,
                                     const rel::Table& params,
                                     const rel::Table& edges);

 private:
  std::map<NodeId, Node> nodes_;
  std::map<std::string, NodeId> by_name_;
};

}  // namespace gea::lineage

#endif  // GEA_LINEAGE_LINEAGE_H_
