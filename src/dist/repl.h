#ifndef GEA_DIST_REPL_H_
#define GEA_DIST_REPL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "serve/server.h"
#include "store/wal.h"
#include "workbench/session.h"

namespace gea::dist {

/// Primary-side WAL shipping (the replication half of src/dist).
///
/// The model is single-primary, pull-based: followers long-poll the
/// primary over the ordinary query-service wire protocol with three
/// admin-only commands the ReplicationHub registers on the primary's
/// QueryServer:
///
///   repl_subscribe                      -> (name, value) handshake rows:
///                                          durable_lsn, floor_lsn,
///                                          buffer_first_lsn
///   repl_frames    from_lsn, [wait_ms]  -> frame batch blob (text); long-
///                                          polls until a frame past
///                                          from_lsn exists or wait_ms
///                                          elapses (empty batch). Fails
///                                          FailedPrecondition("snapshot
///                                          catch-up required") when
///                                          from_lsn predates the ship
///                                          buffer or the snapshot floor.
///   repl_snapshot                       -> snapshot blob (text): the whole
///                                          catalog plus its LSN, for cold
///                                          or lapped followers.
///
/// Frames enter the hub through the session's WAL observer, which fires
/// only for *acknowledged* (fsynced) appends — a follower can never see a
/// record the primary might lose in a crash. Under the storage engine's
/// group commit (src/store/engine.h) the observer fires once per record,
/// in LSN order, after the batch's one shared fsync returns; a batch that
/// dies between its write and that fsync ships nothing, because none of
/// its records were ever acknowledged. A bulk state replacement that
/// bypasses the WAL (LoadDatabase) raises the snapshot floor so every
/// follower is forced back through repl_snapshot.

/// One shipped WAL frame: the record plus its primary-assigned LSN.
struct ShippedFrame {
  uint64_t lsn = 0;
  store::WalRecord record;
};

/// A repl_frames response payload.
struct FrameBatch {
  /// The primary's durable LSN when the batch was cut (lag math).
  uint64_t durable_lsn = 0;
  std::vector<ShippedFrame> frames;
};

/// One frame as it ships: the LSN and the record's WAL frame bytes
/// (store::EncodeWalRecord), which the hub buffers once per record.
struct EncodedFrame {
  uint64_t lsn = 0;
  std::string_view framed;
};

/// Frame-batch blob codec: u64 durable_lsn, u32 count, then per frame a
/// u64 LSN and the record's WAL frame as a string, so the wire reuses
/// the log's own integrity check. EncodeFrameBatch is the only writer of
/// this layout; the decoder refuses a count the blob cannot hold.
std::string EncodeFrameBatch(uint64_t durable_lsn,
                             const std::vector<EncodedFrame>& frames);
Result<FrameBatch> DecodeFrameBatch(std::string_view blob);

/// Snapshot blob codec: u64 lsn then the EncodeSnapshot bytes.
std::string EncodeSnapshotLsnBlob(uint64_t lsn, std::string_view snapshot);
Result<std::pair<uint64_t, std::string>> DecodeSnapshotLsnBlob(
    std::string_view blob);

/// One row of the gea_stat_replication view; hubs and replica servers
/// register a provider for their row while they live.
struct ReplicationStatRow {
  std::string role;          // "primary" / "replica"
  int64_t port = 0;          // serving port (0 when not serving)
  uint64_t shipped_lsn = 0;  // primary: last acknowledged LSN observed
  uint64_t applied_lsn = 0;  // replica: last applied LSN
  uint64_t lag_records = 0;  // replica: primary durable - applied
  uint64_t lag_bytes = 0;    // primary: ship-buffer bytes; replica: unapplied
  uint64_t lag_ms = 0;       // replica: ms since last applied frame when behind
};

/// Registers/removes a live row source for gea_stat_replication. `token`
/// identifies the registration (the registering object's address).
void RegisterReplicationStatSource(const void* token,
                                   std::function<ReplicationStatRow()> source);
void UnregisterReplicationStatSource(const void* token);

/// Tuning knobs for ReplicationHub (namespace scope so the constructor's
/// default argument can brace-initialize it).
struct ReplicationHubOptions {
  size_t max_buffer_bytes = 64u << 20;
  /// Per-batch payload cap (stays under the wire's 16 MiB frame cap).
  size_t max_batch_bytes = 4u << 20;
};

/// Attaches WAL shipping to a primary: installs the session WAL observer
/// and registers the repl_* commands on `server`. Construct after the
/// session is fully set up and before server->Start(); destroy after the
/// server stops. The hub buffers acknowledged frames up to
/// `max_buffer_bytes`; followers that fall behind the buffer are redirected
/// to snapshot catch-up.
class ReplicationHub {
 public:
  using Options = ReplicationHubOptions;

  ReplicationHub(workbench::AnalysisSession* session,
                 serve::QueryServer* server, Options options = {});
  ~ReplicationHub();

  ReplicationHub(const ReplicationHub&) = delete;
  ReplicationHub& operator=(const ReplicationHub&) = delete;

  /// Followers whose applied LSN is below the floor must snapshot.
  uint64_t FloorLsn() const;
  /// Last acknowledged LSN the hub has observed.
  uint64_t ShippedLsn() const;
  /// Bytes currently buffered for shipping.
  uint64_t BufferedBytes() const;

 private:
  void OnWalAppend(uint64_t lsn, const store::WalRecord& record);
  serve::Response HandleSubscribe(const serve::Request& request);
  serve::Response HandleFrames(const serve::Request& request);
  serve::Response HandleSnapshot(const serve::Request& request);

  workbench::AnalysisSession* session_;
  serve::QueryServer* server_;
  Options options_;

  struct BufferedFrame {
    uint64_t lsn;
    std::string framed;  // EncodeWalRecord bytes
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<BufferedFrame> buffer_;
  uint64_t buffered_bytes_ = 0;
  uint64_t shipped_lsn_ = 0;  // highest LSN observed (buffered or evicted)
  uint64_t floor_lsn_ = 0;    // applied < floor => snapshot required
};

}  // namespace gea::dist

#endif  // GEA_DIST_REPL_H_
