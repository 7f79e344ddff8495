#ifndef GEA_SAGE_DATASET_H_
#define GEA_SAGE_DATASET_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sage/library.h"
#include "sage/tag_codec.h"

namespace gea::sage {

/// A collection of SAGE libraries — the unit on which GEA operates (the
/// whole 100-library SAGE data set, a system-defined tissue type slice, or
/// a user-defined tissue type, Section 4.3.1.2).
class SageDataSet {
 public:
  SageDataSet() = default;
  explicit SageDataSet(std::vector<SageLibrary> libraries)
      : libraries_(std::move(libraries)) {}

  size_t NumLibraries() const { return libraries_.size(); }
  const SageLibrary& library(size_t i) const { return libraries_[i]; }
  SageLibrary& mutable_library(size_t i) { return libraries_[i]; }
  const std::vector<SageLibrary>& libraries() const { return libraries_; }

  void AddLibrary(SageLibrary library) {
    libraries_.push_back(std::move(library));
  }

  /// Library with the given id / name.
  Result<const SageLibrary*> FindById(int id) const;
  Result<const SageLibrary*> FindByName(const std::string& name) const;

  /// Sorted list of every tag appearing in at least one library.
  std::vector<TagId> TagUniverse() const;

  /// Number of distinct tags across all libraries.
  size_t UniverseSize() const { return TagUniverse().size(); }

  /// Libraries of one tissue type (the Fig. 4.4 data-set-by-tissue).
  SageDataSet FilterByTissue(TissueType tissue) const;

  /// Libraries whose state matches.
  SageDataSet FilterByState(NeoplasticState state) const;

  /// Libraries whose ids appear in `ids` (the Fig. 4.15 user-defined data
  /// set). Unknown ids are reported as NotFound, and an id listed twice as
  /// InvalidArgument: a library is one column of the ENUM table.
  Result<SageDataSet> SelectByIds(const std::vector<int>& ids) const;

  /// Libraries whose ids do NOT appear in `ids`.
  SageDataSet ExcludeIds(const std::vector<int>& ids) const;

 private:
  std::vector<SageLibrary> libraries_;
};

}  // namespace gea::sage

#endif  // GEA_SAGE_DATASET_H_
