#include "store/snapshot.h"

#include <utility>

#include "common/crc32.h"
#include "obs/metrics.h"
#include "store/format.h"

namespace gea::store {

namespace {

constexpr char kMagic[8] = {'G', 'E', 'A', 'S', 'N', 'A', 'P', '1'};
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 4;  // magic..crc

std::string EncodeSectionBody(const SnapshotSection& section) {
  std::string body;
  PutU8(&body, static_cast<uint8_t>(section.type));
  PutString(&body, section.kind);
  PutString(&body, section.name);
  if (section.type == SnapshotSection::Type::kTable) {
    PutString(&body, EncodeTable(*section.table));
  } else {
    PutString(&body, section.blob);
  }
  return body;
}

Result<SnapshotSection> DecodeSectionBody(std::string_view body) {
  ByteReader reader(body);
  GEA_ASSIGN_OR_RETURN(uint8_t type_tag, reader.ReadU8());
  SnapshotSection section;
  switch (type_tag) {
    case static_cast<uint8_t>(SnapshotSection::Type::kTable):
      section.type = SnapshotSection::Type::kTable;
      break;
    case static_cast<uint8_t>(SnapshotSection::Type::kBlob):
      section.type = SnapshotSection::Type::kBlob;
      break;
    default:
      return Status::InvalidArgument("unknown snapshot section type: " +
                                     std::to_string(type_tag));
  }
  GEA_ASSIGN_OR_RETURN(section.kind, reader.ReadString());
  GEA_ASSIGN_OR_RETURN(section.name, reader.ReadString());
  GEA_ASSIGN_OR_RETURN(std::string payload, reader.ReadString());
  if (!reader.Done()) {
    return Status::InvalidArgument("trailing bytes in snapshot section");
  }
  if (section.type == SnapshotSection::Type::kTable) {
    GEA_ASSIGN_OR_RETURN(rel::Table table, DecodeTable(payload));
    section.table = std::move(table);
  } else {
    section.blob = std::move(payload);
  }
  return section;
}

}  // namespace

SnapshotSection SnapshotSection::Table(std::string kind, rel::Table table) {
  SnapshotSection section;
  section.type = Type::kTable;
  section.kind = std::move(kind);
  section.name = table.name();
  section.table = std::move(table);
  return section;
}

SnapshotSection SnapshotSection::Blob(std::string kind, std::string name,
                                      std::string blob) {
  SnapshotSection section;
  section.type = Type::kBlob;
  section.kind = std::move(kind);
  section.name = std::move(name);
  section.blob = std::move(blob);
  return section;
}

const SnapshotSection* SnapshotImage::Find(std::string_view kind,
                                           std::string_view name) const {
  for (const SnapshotSection& section : sections) {
    if (section.kind == kind && section.name == name) return &section;
  }
  return nullptr;
}

std::string EncodeSnapshot(const SnapshotImage& image) {
  std::string payload;
  for (const SnapshotSection& section : image.sections) {
    PutFrame(&payload, EncodeSectionBody(section));
  }

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kSnapshotVersion);
  PutU32(&out, static_cast<uint32_t>(image.sections.size()));
  PutU64(&out, payload.size());
  PutU32(&out, Crc32(out));
  out += payload;
  return out;
}

Result<SnapshotImage> DecodeSnapshot(std::string_view data) {
  if (data.size() < kHeaderBytes) {
    return Status::InvalidArgument("snapshot shorter than its header");
  }
  if (data.compare(0, sizeof(kMagic),
                   std::string_view(kMagic, sizeof(kMagic))) != 0) {
    return Status::InvalidArgument("bad snapshot magic");
  }
  ByteReader header(data.substr(sizeof(kMagic), kHeaderBytes - sizeof(kMagic)));
  uint32_t version = *header.ReadU32();
  uint32_t section_count = *header.ReadU32();
  uint64_t payload_bytes = *header.ReadU64();
  uint32_t header_crc = *header.ReadU32();
  if (Crc32(data.substr(0, kHeaderBytes - 4)) != header_crc) {
    return Status::InvalidArgument("snapshot header CRC mismatch");
  }
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version: " +
                                   std::to_string(version));
  }
  if (data.size() - kHeaderBytes != payload_bytes) {
    return Status::InvalidArgument("snapshot payload length mismatch");
  }
  // Every section takes at least its frame header, so a count the
  // payload cannot hold is refused before anything is reserved for it.
  if (section_count > payload_bytes / kFrameHeaderBytes) {
    return Status::InvalidArgument("snapshot section count " +
                                   std::to_string(section_count) +
                                   " exceeds its payload");
  }

  SnapshotImage image;
  image.sections.reserve(section_count);
  ByteReader payload(data.substr(kHeaderBytes));
  for (uint32_t i = 0; i < section_count; ++i) {
    GEA_ASSIGN_OR_RETURN(std::string_view body, payload.ReadFrame());
    GEA_ASSIGN_OR_RETURN(SnapshotSection section, DecodeSectionBody(body));
    image.sections.push_back(std::move(section));
  }
  if (!payload.Done()) {
    return Status::InvalidArgument("trailing bytes after snapshot sections");
  }
  return image;
}

Status WriteSnapshotFile(FileEnv* env, const std::string& path,
                         const SnapshotImage& image) {
  static obs::Histogram& write_nanos =
      obs::MetricsRegistry::Global().GetHistogram(
          "gea.store.snapshot_write_nanos");
  obs::ScopedLatency latency(write_nanos);

  const std::string encoded = EncodeSnapshot(image);
  const std::string tmp = path + ".tmp";
  GEA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                       env->NewWritableFile(tmp, /*truncate=*/true));
  GEA_RETURN_IF_ERROR(file->Append(encoded));
  GEA_RETURN_IF_ERROR(file->Sync());
  GEA_RETURN_IF_ERROR(file->Close());
  GEA_RETURN_IF_ERROR(env->RenameFile(tmp, path));

  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    GEA_RETURN_IF_ERROR(env->SyncDirectory(path.substr(0, slash)));
  }

  static obs::Counter& snapshots = obs::MetricsRegistry::Global().GetCounter(
      "gea.store.snapshots_written");
  static obs::Counter& bytes = obs::MetricsRegistry::Global().GetCounter(
      "gea.store.snapshot_bytes");
  snapshots.Add(1);
  bytes.Add(encoded.size());
  return Status::OK();
}

Result<SnapshotImage> ReadSnapshotFile(FileEnv* env, const std::string& path) {
  GEA_ASSIGN_OR_RETURN(std::string data, env->ReadFileToString(path));
  Result<SnapshotImage> image = DecodeSnapshot(data);
  if (!image.ok()) {
    return Status(image.status().code(),
                  path + ": " + image.status().message());
  }
  return image;
}

}  // namespace gea::store
