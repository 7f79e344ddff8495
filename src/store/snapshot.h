#ifndef GEA_STORE_SNAPSHOT_H_
#define GEA_STORE_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "rel/table.h"
#include "store/file_env.h"

namespace gea::store {

/// Binary, checksummed point-in-time image of a whole catalog — the
/// checkpoint counterpart to the WAL (wal.h). A snapshot is a flat list
/// of *sections*; each section carries a `kind` (the owner's namespace:
/// "enum", "sumy", "gap", "metadata", "lineage", "relation", "sage", ...)
/// plus either a relation (binary table codec, format.h) or an opaque
/// blob. The storage engine never interprets kinds — the workbench maps
/// its session state onto sections and back.
///
/// File layout (all little-endian):
///   magic "GEASNAP1"            8 bytes
///   u32 version  (kSnapshotVersion)
///   u32 section count
///   u64 total payload bytes
///   u32 header CRC32            (over the 24 bytes above)
///   per section, one frame (format.h's PutFrame) whose body is
///     u8 type tag, string kind, string name, string payload
///
/// Publication is atomic: WriteSnapshotFile writes "<path>.tmp", fsyncs,
/// renames over `path` and fsyncs the directory, so a reader sees either
/// the old complete snapshot or the new one — never a torn hybrid.

inline constexpr uint32_t kSnapshotVersion = 1;

struct SnapshotSection {
  enum class Type : uint8_t { kTable = 1, kBlob = 2 };

  Type type = Type::kTable;
  std::string kind;
  std::string name;
  std::optional<rel::Table> table;  // set when type == kTable
  std::string blob;                 // set when type == kBlob

  static SnapshotSection Table(std::string kind, rel::Table table);
  static SnapshotSection Blob(std::string kind, std::string name,
                              std::string blob);
};

struct SnapshotImage {
  std::vector<SnapshotSection> sections;

  /// First section of this kind and name, or nullptr.
  const SnapshotSection* Find(std::string_view kind,
                              std::string_view name) const;
};

/// In-memory codec, exposed for tests and the WAL's blob payloads.
std::string EncodeSnapshot(const SnapshotImage& image);
Result<SnapshotImage> DecodeSnapshot(std::string_view data);

/// Atomic write-tmp-then-rename with fsync at each step.
Status WriteSnapshotFile(FileEnv* env, const std::string& path,
                         const SnapshotImage& image);

/// Reads and fully validates (magic, version, CRCs, exact length) a
/// snapshot file; any mismatch is an error, never a partial image.
Result<SnapshotImage> ReadSnapshotFile(FileEnv* env, const std::string& path);

}  // namespace gea::store

#endif  // GEA_STORE_SNAPSHOT_H_
