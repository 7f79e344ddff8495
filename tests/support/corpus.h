#ifndef GEA_TESTS_SUPPORT_CORPUS_H_
#define GEA_TESTS_SUPPORT_CORPUS_H_

// The shared fixture and the seeded command corpus of the differential
// tests. One raw panel, one fingerprint and one generator of command
// sequences; each deployment (a direct session, a served one, a router
// over shards, a store recovered after a crash, a promoted replica, a
// reinstalled catalog) runs a corpus and must answer every step as the
// reference does, and hold the reference's catalog at the prefix it
// acknowledged.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/result.h"
#include "sage/dataset.h"
#include "serve/protocol.h"
#include "workbench/session.h"

namespace gea::support {

// ---- Shared fixtures ----

/// The generator's seed-42 small panel (brain and breast) after
/// CleanAndNormalize: raw normalized counts, never rounded through text.
const sage::SageDataSet& Panel();

/// A session logged in as its bootstrap administrator "admin"/"secret".
std::unique_ptr<workbench::AnalysisSession> AdminSession();

/// An empty directory under the test temp dir, named after `tag`.
std::string FreshDir(const std::string& tag);

/// The session's whole catalog as bytes: ExportSnapshotBlob, which holds
/// the data set, every table through store::EncodeTable, the metadata,
/// the lineage and the stored relations. Sessions that hold the same
/// state fingerprint identically.
std::string Fingerprint(const workbench::AnalysisSession& session);

/// Whether two fingerprints are equal, reported by size and first
/// differing byte rather than by dumping megabytes.
testing::AssertionResult SameCatalog(const std::string& got,
                                     const std::string& want);

// ---- The command corpus ----

/// The deployments a corpus must run on.
enum class Scope {
  kLogged,  // every logged kind: direct, recovery, Save/Load, Apply
  kServed,  // the wire's writes and checkpoint: served, failover
  kPerTag,  // what the router broadcasts: routed
};

/// One step, in the vocabulary of AnalysisSession::RunCommand and the
/// wire. Two ops are not commands: `load_dataset` installs Panel() on the
/// deployment's sessions, and `checkpoint` checkpoints attached storage.
struct Command {
  std::string op;
  std::map<std::string, std::string> params;
};

/// "op key=value ...", for failure messages.
std::string Describe(const Command& command);

/// The seeds ctest runs each corpus runner on.
inline constexpr uint64_t kCorpusSeeds[] = {1, 2, 3};

/// What one step answered.
struct StepResult {
  StatusCode code = StatusCode::kOk;
  std::string message;  // the status message of a failed step
  std::string text;     // the reply text
  std::string table;    // the reply table through store::EncodeTable
  bool operator==(const StepResult&) const = default;
};
void PrintTo(const StepResult& result, std::ostream* os);

StepResult FromReply(const Result<workbench::CommandReply>& reply);
StepResult FromResponse(const Result<serve::Response>& response);

/// Runs one step on a direct session: `load_dataset` and `checkpoint`
/// as described at Command, every other op through RunCommand.
StepResult RunStep(workbench::AnalysisSession& session,
                   const Command& command);

/// A seeded corpus and its reference run, on a direct session without
/// storage. The corpus starts with `load_dataset`; each later step is
/// drawn from what the session holds after the steps before it, so most
/// steps find their operands, and is run there through RunStep. Every op
/// of the scope comes once as soon as it can run, then weighted draws
/// follow. The draw mixes in the edge cases: an empty id list, `replace`
/// on and off, both mining algorithms, every top-gap mode, cascade and
/// plain deletes, `initialize` followed by a reload, checkpoints, and
/// steps that fail on purpose (a taken name, an unknown input, `x=0`).
/// Each seed takes the options of a parameter in its own rotation, so a
/// few consecutive seeds together take every one of them.
class Reference {
 public:
  Reference(uint64_t seed, Scope scope);

  const std::vector<Command>& corpus() const { return corpus_; }
  const std::vector<StepResult>& steps() const { return steps_; }
  /// The session after the last step, for the reads routed runs compare.
  const workbench::AnalysisSession& session() const { return *session_; }
  /// Fingerprint() after the first `prefix` steps.
  const std::string& FingerprintAt(size_t prefix) const;

 private:
  std::vector<Command> corpus_;
  std::vector<StepResult> steps_;
  std::unique_ptr<workbench::AnalysisSession> session_;
  // Built on demand by replaying a prefix; most runners ask for a few.
  mutable std::map<size_t, std::string> fingerprints_;
};

/// Runs the corpus through `run` until a step the reference answered OK
/// fails, and returns how many steps ran before it: the acknowledged
/// prefix. Every step up to there must answer as the reference did.
size_t RunAckedPrefix(const Reference& reference,
                      const std::function<StepResult(const Command&)>& run);

}  // namespace gea::support

#endif  // GEA_TESTS_SUPPORT_CORPUS_H_
