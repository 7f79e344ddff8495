#ifndef GEA_SAGE_LIBRARY_H_
#define GEA_SAGE_LIBRARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "sage/tag_codec.h"

namespace gea::sage {

/// The system-defined tissue types of the SAGE panel (Section 2.2.3 and
/// Fig. 4.4). User-defined tissue types are handled at the workbench level
/// as named library collections.
enum class TissueType {
  kBrain = 0,
  kBreast,
  kColon,
  kKidney,
  kOvary,
  kPancreas,
  kProstate,
  kSkin,
  kVascular,
};

inline constexpr int kNumTissueTypes = 9;

const char* TissueTypeName(TissueType type);
Result<TissueType> ParseTissueType(const std::string& name);
std::vector<TissueType> AllTissueTypes();

/// Neoplastic state of the profiled tissue.
enum class NeoplasticState {
  kNormal = 0,
  kCancer,
};

const char* NeoplasticStateName(NeoplasticState state);

/// How the sample was obtained (Section 2.2.3): bulk tissue taken directly
/// from a body, or an immortalized cell line.
enum class TissueSource {
  kBulkTissue = 0,
  kCellLine,
};

const char* TissueSourceName(TissueSource source);

/// One SAGE library: the expression profile of a single sample, i.e. a list
/// of tags with their count values (Section 2.2.3). Counts are doubles
/// because normalization (Section 4.2) rescales them; raw libraries hold
/// integral values.
///
/// Entries are kept sorted by TagId with no duplicates and no zero counts,
/// which makes per-tag lookup O(log n) and library merges linear.
class SageLibrary {
 public:
  SageLibrary(int id, std::string name, TissueType tissue,
              NeoplasticState state, TissueSource source)
      : id_(id),
        name_(std::move(name)),
        tissue_(tissue),
        state_(state),
        source_(source) {}

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  TissueType tissue() const { return tissue_; }
  NeoplasticState state() const { return state_; }
  TissueSource source() const { return source_; }

  /// Count of `tag`, zero when absent.
  double Count(TagId tag) const;

  /// Sets the count of `tag` (erases the entry when `count` == 0).
  void SetCount(TagId tag, double count);

  /// Adds `delta` to the count of `tag`.
  void AddCount(TagId tag, double delta);

  /// Removes `tag` if present; returns whether it was present.
  bool Erase(TagId tag);

  /// Number of distinct tags detected ("unique tags", Section 2.2.3).
  size_t UniqueTagCount() const { return entries_.size(); }

  /// Sum of all count values ("total tags", Section 2.2.3).
  double TotalTagCount() const;

  /// Multiplies every count by `factor`.
  void Scale(double factor);

  struct Entry {
    TagId tag;
    double count;
  };

  /// Sorted by TagId.
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  // Returns the position of `tag` in entries_ or the insertion point.
  size_t LowerBound(TagId tag) const;

  int id_;
  std::string name_;
  TissueType tissue_;
  NeoplasticState state_;
  TissueSource source_;
  std::vector<Entry> entries_;
};

/// Descriptive attributes of one library without its counts: a row of an
/// ENUM table and the answer of a library search.
struct LibraryMeta {
  int id = 0;
  std::string name;
  TissueType tissue = TissueType::kBrain;
  NeoplasticState state = NeoplasticState::kNormal;
  TissueSource source = TissueSource::kBulkTissue;
};

}  // namespace gea::sage

#endif  // GEA_SAGE_LIBRARY_H_
