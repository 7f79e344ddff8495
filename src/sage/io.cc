#include "sage/io.h"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sage/tag_codec.h"

namespace gea::sage {

namespace {

namespace fs = std::filesystem;

obs::Counter& BytesReadCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("gea.sage.bytes_read");
  return counter;
}

obs::Counter& BytesWrittenCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("gea.sage.bytes_written");
  return counter;
}

Result<std::string> ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open file for reading: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  BytesReadCounter().Add(text.size());
  return text;
}

Status WriteFileText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open file for writing: " + path);
  }
  out << text;
  if (!out) {
    return Status::IoError("write failed: " + path);
  }
  BytesWrittenCounter().Add(text.size());
  return Status::OK();
}

bool ReadableCount(double count) {
  return std::isfinite(count) && count > 0.0;
}

}  // namespace

std::string WriteLibraryText(const SageLibrary& library) {
  std::string out = "# gea-sage-library v1\n";
  out += "# id " + std::to_string(library.id()) + "\n";
  out += std::string("# tissue ") + TissueTypeName(library.tissue()) + "\n";
  out += std::string("# state ") + NeoplasticStateName(library.state()) +
         "\n";
  out += std::string("# source ") + TissueSourceName(library.source()) +
         "\n";
  for (const SageLibrary::Entry& e : library.entries()) {
    out += DecodeTag(e.tag);
    out += '\t';
    out += FormatDoubleExact(e.count);
    out += '\n';
  }
  return out;
}

Result<SageLibrary> ReadLibraryText(const std::string& name,
                                    const std::string& text) {
  int id = 0;
  TissueType tissue = TissueType::kBrain;
  NeoplasticState state = NeoplasticState::kNormal;
  TissueSource source = TissueSource::kBulkTissue;
  bool saw_magic = false;

  std::vector<SageLibrary::Entry> entries;
  size_t line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = StripWhitespace(raw_line);
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::vector<std::string> parts =
          Split(std::string(StripWhitespace(line.substr(1))), ' ');
      if (parts.size() >= 2 && parts[0] == "gea-sage-library") {
        saw_magic = true;
      } else if (parts.size() == 2 && parts[0] == "id") {
        id = std::atoi(parts[1].c_str());
      } else if (parts.size() == 2 && parts[0] == "tissue") {
        GEA_ASSIGN_OR_RETURN(tissue, ParseTissueType(parts[1]));
      } else if (parts.size() == 2 && parts[0] == "state") {
        if (parts[1] == "cancer") {
          state = NeoplasticState::kCancer;
        } else if (parts[1] == "normal") {
          state = NeoplasticState::kNormal;
        } else {
          return Status::InvalidArgument("bad state: " + parts[1]);
        }
      } else if (parts.size() == 2 && parts[0] == "source") {
        if (parts[1] == "bulk_tissue") {
          source = TissueSource::kBulkTissue;
        } else if (parts[1] == "cell_line") {
          source = TissueSource::kCellLine;
        } else {
          return Status::InvalidArgument("bad source: " + parts[1]);
        }
      }
      continue;
    }
    std::vector<std::string> fields = Split(std::string(line), '\t');
    if (fields.size() != 2) {
      return Status::InvalidArgument(
          "library line " + std::to_string(line_no) +
          " is not TAG<TAB>count: " + std::string(line));
    }
    GEA_ASSIGN_OR_RETURN(TagId tag, EncodeTag(fields[0]));
    char* end = nullptr;
    double count = std::strtod(fields[1].c_str(), &end);
    if (end == fields[1].c_str() || *end != '\0' || !ReadableCount(count)) {
      return Status::InvalidArgument("bad count on line " +
                                     std::to_string(line_no) + ": " +
                                     fields[1]);
    }
    entries.push_back({tag, count});
  }
  if (!saw_magic) {
    return Status::InvalidArgument(
        "missing '# gea-sage-library' header in " + name);
  }

  SageLibrary library(id, name, tissue, state, source);
  for (const SageLibrary::Entry& e : entries) {
    library.AddCount(e.tag, e.count);
  }
  return library;
}

Status CheckCounts(const SageDataSet& dataset) {
  for (size_t i = 0; i < dataset.NumLibraries(); ++i) {
    const SageLibrary& library = dataset.library(i);
    for (const SageLibrary::Entry& e : library.entries()) {
      if (!ReadableCount(e.count)) {
        return Status::InvalidArgument("library " + library.name() +
                                       " has a count that is not finite and "
                                       "positive: " +
                                       FormatDoubleExact(e.count));
      }
    }
  }
  return Status::OK();
}

Status SaveLibrary(const SageLibrary& library, const std::string& directory) {
  static obs::Counter& saved =
      obs::MetricsRegistry::Global().GetCounter("gea.sage.libraries_saved");
  saved.Add();
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("cannot create directory: " + directory);
  }
  return WriteFileText(directory + "/" + library.name() + ".sage",
                       WriteLibraryText(library));
}

Result<SageLibrary> LoadLibrary(const std::string& path) {
  static obs::Counter& loaded =
      obs::MetricsRegistry::Global().GetCounter("gea.sage.libraries_loaded");
  loaded.Add();
  GEA_ASSIGN_OR_RETURN(std::string text, ReadFileText(path));
  std::string name = fs::path(path).stem().string();
  return ReadLibraryText(name, text);
}

Status SaveDataSet(const SageDataSet& dataset, const std::string& directory) {
  obs::TraceSpan span("sage.save_dataset");
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("cannot create directory: " + directory);
  }
  std::string index;
  for (const SageLibrary& lib : dataset.libraries()) {
    GEA_RETURN_IF_ERROR(SaveLibrary(lib, directory));
    index += lib.name();
    index += '\t';
    index += TissueTypeName(lib.tissue());
    index += '\t';
    index += NeoplasticStateName(lib.state());
    index += '\t';
    index += TissueSourceName(lib.source());
    index += '\t';
    index += FormatDoubleExact(lib.TotalTagCount());
    index += '\t';
    index += std::to_string(lib.UniqueTagCount());
    index += '\n';
  }
  return WriteFileText(directory + "/sageName.txt", index);
}

Result<SageDataSet> LoadDataSet(const std::string& directory) {
  obs::TraceSpan span("sage.load_dataset");
  GEA_ASSIGN_OR_RETURN(std::string index,
                       ReadFileText(directory + "/sageName.txt"));
  SageDataSet dataset;
  for (const std::string& raw_line : Split(index, '\n')) {
    std::string_view line = StripWhitespace(raw_line);
    if (line.empty()) continue;
    std::vector<std::string> fields = Split(std::string(line), '\t');
    if (fields.empty() || fields[0].empty()) {
      return Status::InvalidArgument("bad sageName.txt line: " +
                                     std::string(line));
    }
    GEA_ASSIGN_OR_RETURN(
        SageLibrary lib,
        LoadLibrary(directory + "/" + fields[0] + ".sage"));
    dataset.AddLibrary(std::move(lib));
  }
  return dataset;
}

}  // namespace gea::sage
