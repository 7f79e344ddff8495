// One seeded mutation test over every user of the shared checksummed
// frame (store/format.h): a WAL log, a snapshot, a request and a response
// as they cross the socket, and a replication frame batch, plus the bare
// request, response and WAL record bodies the frames carry. Each seed
// builds fresh inputs, then mutates them with byte flips, truncations and
// inflated length fields (any u32 small enough to be a length or a
// count). Properties:
//   - no decoder throws;
//   - a change inside any frame is refused: a WAL log then reads back as
//     the records before the first changed frame, anything else fails;
//   - an accepted request body, WAL body or frame batch re-encodes to the
//     same bytes (responses carry a table, whose decoder accepts some
//     non-canonical input, so they are held to the first two only).

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/net.h"
#include "dist/repl.h"
#include "rel/table.h"
#include "serve/protocol.h"
#include "store/file_env.h"
#include "store/format.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace gea {
namespace {

// A byte range [begin, end) of a seed encoding.
struct Span {
  size_t begin;
  size_t end;
};

struct Target {
  explicit Target(std::string name_in, std::string seed_in = "")
      : name(std::move(name_in)), seed(std::move(seed_in)) {}

  std::string name;
  std::string seed;          // a valid encoding
  std::vector<Span> frames;  // where its frames lie in `seed`
  bool canonical = false;    // an accepted input re-encodes to itself
  bool wal_log = false;      // a refused frame ends the log, not the read
  // Decodes `input` and re-encodes what was accepted; for a WAL log, the
  // records it reads back.
  std::function<Result<std::string>(std::string_view)> decode;
};

// ---- Seeded inputs ----

class Inputs {
 public:
  explicit Inputs(uint64_t seed) : rng_(seed) {}

  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }

  std::string Text(size_t max_len) {
    static constexpr char kAlphabet[] = "abcnoptuxz_019\x00\xff";
    std::string out(Below(max_len + 1), ' ');
    for (char& c : out) c = kAlphabet[Below(sizeof(kAlphabet) - 1)];
    return out;
  }

  std::map<std::string, std::string> Params() {
    std::map<std::string, std::string> params;
    for (size_t n = Below(5); n > 0; --n) params[Text(5)] = Text(8);
    return params;
  }

  std::vector<store::WalRecord> Records() {
    std::vector<store::WalRecord> records;
    for (size_t n = 2 + Below(3); n > 0; --n) {
      switch (Below(3)) {
        case 0:
          records.push_back(store::WalRecord::LogicalOp(Text(9), Params()));
          break;
        case 1:
          records.push_back(store::WalRecord::BlobRecord(Text(6), Text(30)));
          break;
        default: {
          store::WalRecord marker;
          marker.type = store::WalRecord::Type::kCheckpoint;
          marker.op = "checkpoint";
          marker.params["generation"] = std::to_string(Below(100));
          records.push_back(std::move(marker));
        }
      }
    }
    return records;
  }

  rel::Table Table() {
    rel::Table table(Text(6), rel::Schema({{"i", rel::ValueType::kInt},
                                           {"d", rel::ValueType::kDouble},
                                           {"s", rel::ValueType::kString}}));
    for (size_t r = Below(6); r > 0; --r) {
      auto maybe_null = [&](rel::Value v) {
        return Below(4) == 0 ? rel::Value::Null() : std::move(v);
      };
      table.AppendRowUnchecked(
          {maybe_null(rel::Value::Int(static_cast<int64_t>(rng_()))),
           maybe_null(rel::Value::Double(static_cast<double>(Below(1000)) / 8)),
           maybe_null(rel::Value::String(Text(4)))});
    }
    return table;
  }

  serve::Request Request() {
    serve::Request request;
    request.request_id = rng_();
    request.deadline_ms = static_cast<uint32_t>(Below(1000));
    request.op = Text(9);
    request.params = Params();
    if (Below(2) == 0) {
      request.trace = serve::TraceContext{rng_(), Below(2) == 0};
    }
    return request;
  }

  serve::Response Response() {
    serve::Response response;
    response.request_id = rng_();
    response.code = Below(2) == 0 ? StatusCode::kOk : StatusCode::kNotFound;
    response.message = Text(12);
    response.text = Text(12);
    if (Below(3) != 0) response.table = Table();
    response.trace_id = rng_();
    if (Below(2) == 0) response.timing = serve::StageBreakdown{rng_(), rng_()};
    return response;
  }

  uint64_t Next() { return rng_(); }

 private:
  std::mt19937_64 rng_;
};

// ---- Decoders under test ----

// Sends `wire` through a socket and reads one frame back.
Result<std::string> ReadWireFrame(std::string_view wire) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IoError("socketpair failed");
  }
  Status sent = net::SendAll(fds[0], wire);
  shutdown(fds[0], SHUT_WR);
  Result<std::optional<std::string>> frame = serve::ReadFrame(fds[1]);
  net::CloseFd(fds[0]);
  net::CloseFd(fds[1]);
  if (!sent.ok()) return sent;
  if (!frame.ok()) return frame.status();
  if (!frame->has_value()) return Status::OutOfRange("no frame");
  return std::move(**frame);
}

// `body` as it crosses the socket: one frame, read the way a server's or
// client's reader does.
Target OverTheWire(std::string name, const Target& body) {
  Target t(std::move(name), serve::Frame(body.seed));
  t.frames.push_back({0, t.seed.size()});
  t.canonical = body.canonical;
  t.decode = [decode = body.decode](std::string_view input)
      -> Result<std::string> {
    GEA_ASSIGN_OR_RETURN(std::string payload, ReadWireFrame(input));
    GEA_ASSIGN_OR_RETURN(std::string reencoded, decode(payload));
    return serve::Frame(reencoded);
  };
  return t;
}

std::string EncodeBatch(const dist::FrameBatch& batch) {
  std::vector<std::string> framed;
  for (const dist::ShippedFrame& frame : batch.frames) {
    framed.push_back(store::EncodeWalRecord(frame.record));
  }
  std::vector<dist::EncodedFrame> frames;
  for (size_t i = 0; i < framed.size(); ++i) {
    frames.push_back({batch.frames[i].lsn, framed[i]});
  }
  return dist::EncodeFrameBatch(batch.durable_lsn, frames);
}

std::vector<Target> Targets(uint64_t seed) {
  Inputs in(seed);
  std::vector<Target> targets;

  // A WAL log, read back from a file.
  {
    Target t{"wal log"};
    for (const store::WalRecord& record : in.Records()) {
      const std::string framed = store::EncodeWalRecord(record);
      t.frames.push_back({t.seed.size(), t.seed.size() + framed.size()});
      t.seed += framed;
    }
    t.wal_log = true;
    const std::string path = testing::TempDir() + "/gea_decoder_mutation.log";
    t.decode = [path](std::string_view input) -> Result<std::string> {
      std::ofstream(path, std::ios::binary | std::ios::trunc) << input;
      GEA_ASSIGN_OR_RETURN(store::WalReadResult read,
                           store::ReadWalFile(store::FileEnv::Default(), path));
      std::string out;
      for (const store::WalRecord& record : read.records) {
        out += store::EncodeWalRecord(record);
      }
      return out;
    };
    targets.push_back(std::move(t));
  }
  {
    Target t{"wal record body"};
    t.seed = store::EncodeWalRecord(in.Records()[0])
                 .substr(store::kFrameHeaderBytes);
    t.canonical = true;
    t.decode = [](std::string_view input) -> Result<std::string> {
      GEA_ASSIGN_OR_RETURN(store::WalRecord record,
                           store::DecodeWalRecordBody(input));
      return store::EncodeWalRecord(record).substr(store::kFrameHeaderBytes);
    };
    targets.push_back(std::move(t));
  }
  {
    store::SnapshotImage image;
    image.sections.push_back(
        store::SnapshotSection::Blob(in.Text(5), in.Text(5), in.Text(40)));
    image.sections.push_back(
        store::SnapshotSection::Table("relation", in.Table()));
    Target t{"snapshot", store::EncodeSnapshot(image)};
    t.frames.push_back({0, t.seed.size()});  // the header has its own CRC
    t.decode = [](std::string_view input) -> Result<std::string> {
      GEA_ASSIGN_OR_RETURN(store::SnapshotImage image,
                           store::DecodeSnapshot(input));
      return store::EncodeSnapshot(image);
    };
    targets.push_back(std::move(t));
  }

  Target request("request body", serve::EncodeRequest(in.Request()));
  request.canonical = true;
  request.decode = [](std::string_view input) -> Result<std::string> {
    GEA_ASSIGN_OR_RETURN(serve::Request request, serve::DecodeRequest(input));
    return serve::EncodeRequest(request);
  };
  targets.push_back(OverTheWire("request frame", request));
  targets.push_back(std::move(request));

  Target response("response body", serve::EncodeResponse(in.Response()));
  response.decode = [](std::string_view input) -> Result<std::string> {
    GEA_ASSIGN_OR_RETURN(serve::Response response,
                         serve::DecodeResponse(input));
    return serve::EncodeResponse(response);
  };
  targets.push_back(OverTheWire("response frame", response));
  targets.push_back(std::move(response));

  {
    dist::FrameBatch batch;
    batch.durable_lsn = in.Next();
    for (store::WalRecord& record : in.Records()) {
      batch.frames.push_back({in.Next(), std::move(record)});
    }
    Target t{"frame batch", EncodeBatch(batch)};
    // u64 durable LSN, u32 count, then per frame u64 LSN, u32 length and
    // the frame itself.
    size_t at = 8 + 4;
    for (const dist::ShippedFrame& frame : batch.frames) {
      const size_t begin = at + 8 + 4;
      at = begin + store::EncodeWalRecord(frame.record).size();
      t.frames.push_back({begin, at});
    }
    t.canonical = true;
    t.decode = [](std::string_view input) -> Result<std::string> {
      GEA_ASSIGN_OR_RETURN(dist::FrameBatch batch,
                           dist::DecodeFrameBatch(input));
      return EncodeBatch(batch);
    };
    targets.push_back(std::move(t));
  }
  return targets;
}

// ---- Mutations and properties ----

// The first frame of `t` that `mutated` changes or cuts into, if any.
std::optional<Span> FirstChangedFrame(const Target& t,
                                      const std::string& mutated) {
  for (const Span& frame : t.frames) {
    for (size_t i = frame.begin; i < frame.end; ++i) {
      if (i >= mutated.size() || mutated[i] != t.seed[i]) return frame;
    }
  }
  return std::nullopt;
}

void Check(const Target& t, const std::string& mutated,
           const std::string& what) {
  SCOPED_TRACE(t.name + ", " + what);
  Result<std::string> out = Status::Internal("not decoded");
  try {
    out = t.decode(mutated);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "decoder threw: " << e.what();
    return;
  }
  const std::optional<Span> changed = FirstChangedFrame(t, mutated);
  if (t.wal_log) {
    // A changed frame is cut short, fails its CRC or reads as empty, and
    // that ends the log: what reads back is the records before it.
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE(changed.has_value());
    EXPECT_EQ(*out, t.seed.substr(0, changed->begin));
    return;
  }
  if (changed.has_value()) {
    EXPECT_FALSE(out.ok()) << "a changed frame was accepted";
  } else if (out.ok() && t.canonical) {
    EXPECT_EQ(*out, mutated) << "accepted input re-encodes differently";
  }
}

uint32_t LoadU32(const std::string& bytes, size_t at) {
  uint32_t v;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void MutateAndCheck(uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (const Target& t : Targets(seed)) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Result<std::string> intact = t.decode(t.seed);
    ASSERT_TRUE(intact.ok()) << t.name << ": " << intact.status().ToString();
    if (t.canonical || t.wal_log) {
      EXPECT_EQ(*intact, t.seed) << t.name;
    }

    for (size_t i = 0; i < t.seed.size(); ++i) {
      std::string flipped = t.seed;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 + rng() % 255));
      Check(t, flipped, "flip at " + std::to_string(i));
    }
    for (size_t cut = 0; cut < t.seed.size(); ++cut) {
      Check(t, t.seed.substr(0, cut), "cut at " + std::to_string(cut));
    }
    // Any u32 small enough to be a length or a count, inflated a little,
    // by about 1 MiB (under the wire's cap, so the socket reader sizes a
    // buffer before it finds the bytes missing) and to the maximum.
    for (size_t at = 0; at + 4 <= t.seed.size(); ++at) {
      const uint32_t v = LoadU32(t.seed, at);
      if (v > t.seed.size()) continue;
      for (uint32_t inflated :
           {v + 1 + static_cast<uint32_t>(rng() % 8),
            v + (1u << 20) + static_cast<uint32_t>(rng() % 1024),
            0xFFFFFFFFu}) {
        std::string bad = t.seed;
        std::memcpy(bad.data() + at, &inflated, sizeof(inflated));
        Check(t, bad, "u32 at " + std::to_string(at) + " = " +
                          std::to_string(inflated));
      }
    }
  }
}

TEST(DecoderMutationTest, EveryFrameUserRefusesOrRoundTrips) {
  MutateAndCheck(1);
}

// More seeds, as CI's "Decoder mutation sweep" runs them:
//   decoder_mutation_test --gtest_also_run_disabled_tests
//     --gtest_filter='*Sweep*'
TEST(DecoderMutationTest, DISABLED_Sweep) {
  for (uint64_t seed = 2; seed <= 60; ++seed) {
    MutateAndCheck(seed);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace gea
