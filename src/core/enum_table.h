#ifndef GEA_CORE_ENUM_TABLE_H_
#define GEA_CORE_ENUM_TABLE_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "rel/table.h"
#include "sage/dataset.h"
#include "sage/library.h"
#include "sage/tag_codec.h"

namespace gea::core {

/// A cluster in the **extensional world** (Section 3.1.1): an explicit
/// enumeration of libraries, one row per library, one column per tag
/// (Fig. 3.2). The original SAGE data set is itself stored as a
/// "degenerate" ENUM table.
///
/// Rows carry the library's auxiliary attributes (tissue type, neoplastic
/// state, source) so purity checks and control-group selections work
/// without a side lookup.
class EnumTable {
 public:
  /// Builds an ENUM table over all tags of `dataset`.
  static EnumTable FromDataSet(std::string name,
                               const sage::SageDataSet& dataset);

  /// Builds an ENUM table restricted to `tags` (sorted ascending).
  static EnumTable FromDataSet(std::string name,
                               const sage::SageDataSet& dataset,
                               std::vector<sage::TagId> tags);

  /// Builds an ENUM table from raw parts. `tags` must be sorted
  /// ascending; `values` must be libraries.size() * tags.size() entries,
  /// row-major by library.
  static Result<EnumTable> FromRows(std::string name,
                                    std::vector<sage::LibraryMeta> libraries,
                                    std::vector<sage::TagId> tags,
                                    std::vector<double> values);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t NumLibraries() const { return libraries_.size(); }
  size_t NumTags() const { return tags_.size(); }

  const sage::LibraryMeta& library(size_t row) const {
    return libraries_[row];
  }
  const std::vector<sage::LibraryMeta>& libraries() const {
    return libraries_;
  }
  sage::TagId tag(size_t col) const { return tags_[col]; }
  const std::vector<sage::TagId>& tags() const { return tags_; }

  /// Expression level of library `row` at tag column `col`.
  double ValueAt(size_t row, size_t col) const {
    return values_[row * tags_.size() + col];
  }

  /// Contiguous view of one library's values across the tag columns —
  /// exactly the row layout FascicleMiner consumes.
  std::span<const double> LibraryRow(size_t row) const {
    return {values_.data() + row * tags_.size(), tags_.size()};
  }

  /// Flat row-major (libraries x tags) buffer.
  const std::vector<double>& values() const { return values_; }

  /// Column index of `tag`, or nullopt.
  std::optional<size_t> FindTagColumn(sage::TagId tag) const;

  /// Row index of library `id`, or nullopt.
  std::optional<size_t> FindLibraryRow(int library_id) const;

  /// --- Extensional-world manipulations (Section 3.2.4) ---

  /// Libraries satisfying `pred` (relational selection on the auxiliary
  /// attributes, e.g. sigma_{tissuestatus='cancerous'}).
  EnumTable FilterLibraries(
      const std::string& out_name,
      const std::function<bool(const sage::LibraryMeta&)>& pred) const;

  /// Libraries of this table that are NOT in `other` (set minus on
  /// library ids; tag columns are kept as-is). Used to build the control
  /// groups of Section 4.3.1 step 4.
  EnumTable MinusLibraries(const std::string& out_name,
                           const EnumTable& other) const;

  /// The same libraries restricted to `tags` (sorted ascending, no
  /// duplicates). Tags absent from this table become all-zero columns,
  /// per the absent-tag convention of Section 4.2.
  Result<EnumTable> RestrictTags(const std::string& out_name,
                                 std::vector<sage::TagId> tags) const;

  /// Libraries whose ids appear in `ids`, in this table's order.
  EnumTable SelectLibraries(const std::string& out_name,
                            const std::vector<int>& ids) const;

  /// Renders as a relational table in the rotated physical layout of
  /// Section 4.6.1 (TagName, TagNo, one column per library).
  rel::Table ToRelTable() const;

 private:
  EnumTable(std::string name, std::vector<sage::LibraryMeta> libraries,
            std::vector<sage::TagId> tags, std::vector<double> values)
      : name_(std::move(name)),
        libraries_(std::move(libraries)),
        tags_(std::move(tags)),
        values_(std::move(values)) {}

  std::string name_;
  std::vector<sage::LibraryMeta> libraries_;
  std::vector<sage::TagId> tags_;  // sorted ascending
  std::vector<double> values_;     // libraries x tags, row-major
};

}  // namespace gea::core

#endif  // GEA_CORE_ENUM_TABLE_H_
