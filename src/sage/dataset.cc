#include "sage/dataset.h"

#include <algorithm>
#include <unordered_set>

namespace gea::sage {

Result<const SageLibrary*> SageDataSet::FindById(int id) const {
  for (const SageLibrary& lib : libraries_) {
    if (lib.id() == id) return &lib;
  }
  return Status::NotFound("no library with id " + std::to_string(id));
}

Result<const SageLibrary*> SageDataSet::FindByName(
    const std::string& name) const {
  for (const SageLibrary& lib : libraries_) {
    if (lib.name() == name) return &lib;
  }
  return Status::NotFound("no library named " + name);
}

std::vector<TagId> SageDataSet::TagUniverse() const {
  // K-way merge of already-sorted entry lists via a flat sort+unique; the
  // data sets involved (≤ a few hundred thousand entries) keep this cheap.
  std::vector<TagId> tags;
  for (const SageLibrary& lib : libraries_) {
    for (const SageLibrary::Entry& e : lib.entries()) tags.push_back(e.tag);
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  return tags;
}

SageDataSet SageDataSet::FilterByTissue(TissueType tissue) const {
  SageDataSet out;
  for (const SageLibrary& lib : libraries_) {
    if (lib.tissue() == tissue) out.AddLibrary(lib);
  }
  return out;
}

SageDataSet SageDataSet::FilterByState(NeoplasticState state) const {
  SageDataSet out;
  for (const SageLibrary& lib : libraries_) {
    if (lib.state() == state) out.AddLibrary(lib);
  }
  return out;
}

Result<SageDataSet> SageDataSet::SelectByIds(
    const std::vector<int>& ids) const {
  SageDataSet out;
  std::unordered_set<int> seen;
  for (int id : ids) {
    GEA_ASSIGN_OR_RETURN(const SageLibrary* lib, FindById(id));
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("library id listed twice: " +
                                     std::to_string(id));
    }
    out.AddLibrary(*lib);
  }
  return out;
}

SageDataSet SageDataSet::ExcludeIds(const std::vector<int>& ids) const {
  std::unordered_set<int> excluded(ids.begin(), ids.end());
  SageDataSet out;
  for (const SageLibrary& lib : libraries_) {
    if (excluded.count(lib.id()) == 0) out.AddLibrary(lib);
  }
  return out;
}

}  // namespace gea::sage
