#ifndef GEA_SAGE_IO_H_
#define GEA_SAGE_IO_H_

#include <string>

#include "common/result.h"
#include "sage/dataset.h"
#include "sage/library.h"

namespace gea::sage {

/// File formats for SAGE libraries, modeled on how the thesis stores them
/// (Section 4.2: one file per library inside a `SageLibrary` directory,
/// plus a `sageName.txt` index file naming each library with its
/// attributes).
///
/// Library file layout (tab-separated):
///   # gea-sage-library v1
///   # id <id>
///   # tissue <tissue>
///   # state <cancer|normal>
///   # source <bulk_tissue|cell_line>
///   <TAG>\t<count>
///   ...
///
/// A count is written as the shortest decimal text that reads back as the
/// same double, so the text round-trips a library exactly; a count must
/// read as a finite positive number.

/// Serializes one library to the text format above.
std::string WriteLibraryText(const SageLibrary& library);

/// Parses a library from the text format. `name` names the library (the
/// thesis derives it from the file name).
Result<SageLibrary> ReadLibraryText(const std::string& name,
                                    const std::string& text);

/// InvalidArgument unless every count of `dataset` is one the text reads
/// back: finite and positive.
Status CheckCounts(const SageDataSet& dataset);

/// Writes `library` to `<directory>/<library name>.sage`.
Status SaveLibrary(const SageLibrary& library, const std::string& directory);

/// Reads a library from `path`; the name is the file's base name without
/// the .sage extension.
Result<SageLibrary> LoadLibrary(const std::string& path);

/// Writes every library of `dataset` into `directory` (created if
/// needed), plus the `sageName.txt` index:
///   <name>\t<tissue>\t<state>\t<source>\t<total tags>\t<unique tags>
Status SaveDataSet(const SageDataSet& dataset, const std::string& directory);

/// Loads a data set previously written by SaveDataSet, using
/// `sageName.txt` to enumerate the libraries. Library order follows the
/// index file.
Result<SageDataSet> LoadDataSet(const std::string& directory);

}  // namespace gea::sage

#endif  // GEA_SAGE_IO_H_
