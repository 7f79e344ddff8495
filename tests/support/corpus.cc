#include "support/corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <utility>

#include "common/crc32.h"
#include "lineage/lineage.h"
#include "sage/cleaning.h"
#include "sage/generator.h"
#include "store/format.h"

namespace gea::support {

using workbench::AnalysisSession;

// ---- Shared fixtures ----

const sage::SageDataSet& Panel() {
  static const sage::SageDataSet* panel = [] {
    sage::GeneratorConfig config;
    config.seed = 42;
    config.panels = sage::SyntheticSageGenerator::SmallPanels();
    sage::SyntheticSage synth = sage::SyntheticSageGenerator(config).Generate();
    sage::CleanAndNormalize(synth.dataset);
    return new sage::SageDataSet(std::move(synth.dataset));
  }();
  return *panel;
}

std::unique_ptr<workbench::AnalysisSession> AdminSession() {
  auto session =
      std::make_unique<workbench::AnalysisSession>("admin", "secret");
  EXPECT_TRUE(session
                  ->Login("admin", "secret",
                          workbench::AccessLevel::kAdministrator)
                  .ok());
  return session;
}

std::string FreshDir(const std::string& tag) {
  // Named after the running test too, so test binaries that ctest runs
  // side by side never share a directory.
  std::string name = "gea_";
  if (const testing::TestInfo* test =
          testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string(test->test_suite_name()) + "." + test->name() + "_";
  }
  name += tag;
  std::replace(name.begin(), name.end(), '/', '_');
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Fingerprint(const workbench::AnalysisSession& session) {
  return session.ExportSnapshotBlob();
}

testing::AssertionResult SameCatalog(const std::string& got,
                                     const std::string& want) {
  if (got == want) return testing::AssertionSuccess();
  const size_t common = std::min(got.size(), want.size());
  const size_t at = static_cast<size_t>(
      std::mismatch(got.begin(), got.begin() + common, want.begin()).first -
      got.begin());
  return testing::AssertionFailure()
         << "fingerprints differ: " << got.size() << " against "
         << want.size() << " bytes, first difference at byte " << at;
}

// ---- The generator ----

std::string Describe(const Command& command) {
  std::string out = command.op;
  for (const auto& [key, value] : command.params) {
    out += " " + key + "=" + value;
  }
  return out;
}

namespace {

/// splitmix64: a tiny generator whose sequence depends on nothing but the
/// seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  bool Percent(size_t p) { return Below(100) < p; }
  template <typename T>
  const T& Pick(const std::vector<T>& options) {
    return options[Below(options.size())];
  }

 private:
  uint64_t state_;
};

/// Chooses each step from what the reference session holds after the
/// steps before it, so most steps find their operands; a step that fails
/// anyway is one every deployment must fail alike.
class Generator {
 public:
  Generator(uint64_t seed, Scope scope, const AnalysisSession& session)
      : seed_(seed),
        rng_(seed),
        scope_(scope),
        session_(session),
        length_(scope == Scope::kLogged   ? 30
                : scope == Scope::kServed ? 26
                                          : 22),
        // initialize (then the reload) lands once, in the last third.
        initialize_at_(scope == Scope::kLogged
                           ? length_ * 2 / 3 + rng_.Below(length_ / 4)
                           : length_) {}

  /// The next step, or nothing once the corpus is whole.
  std::optional<Command> Next() {
    const size_t at = at_++;
    if (at == length_) return std::nullopt;
    if (at == 0 || at == initialize_at_ + 1) {
      return Command{"load_dataset", {}};
    }
    if (at == initialize_at_) return Command{"initialize", {}};
    std::optional<Command> command;
    if (rng_.Percent(15)) command = Failure();
    // An op not drawn yet goes first whenever one can run, so a corpus
    // opens with the whole vocabulary; weighted draws follow.
    std::string op;
    if (!command.has_value()) {
      for (const auto& [fresh, weight] : Ops()) {
        if (drawn_.count(fresh)) continue;
        command = Step(op = fresh);
        if (command.has_value()) break;
      }
    }
    while (!command.has_value()) command = Step(op = WeightedOp());
    drawn_.insert(op);
    return command;
  }

 private:
  using Node = lineage::LineageGraph::Node;

  /// The ops of this scope with their draw weights (initialize is
  /// placed, not drawn), each after the ops its operands come from: the
  /// ops not drawn yet go in this order, so a chain such as a panel, its
  /// metadata, a mine and its control groups completes early.
  std::vector<std::pair<std::string, size_t>> Ops() const {
    const bool mines = scope_ != Scope::kPerTag;
    const bool logged = scope_ == Scope::kLogged;
    std::vector<std::pair<std::string, size_t>> ops;
    auto add = [&ops](const char* op, size_t weight, bool in_scope = true) {
      if (in_scope) ops.emplace_back(op, weight);
    };
    add("tissue_dataset", 3);
    add("generate_metadata", 2);
    add("mine", 3, mines);
    add("control_groups", 2, logged);
    add("custom_dataset", 3);
    add("aggregate", 5);
    add("populate", 2, mines);
    add("diff", 4);
    add("top_gap", 3);
    add("compare_gaps", 2);
    add("gap_query", 2);
    add("checkpoint", 1, mines);
    add("comment", 1, logged);
    add("delete_table", 2, logged);
    return ops;
  }

  std::string WeightedOp() {
    const std::vector<std::pair<std::string, size_t>> ops = Ops();
    size_t total = 0;
    for (const auto& [op, weight] : ops) total += weight;
    size_t draw = rng_.Below(total);
    for (const auto& [op, weight] : ops) {
      if (draw < weight) return op;
      draw -= weight;
    }
    return ops.back().first;
  }

  /// One of `allowed`, preferring one that `what` has not taken yet, so
  /// every option of a parameter shows up early. Each seed takes the
  /// fresh options in a different rotation, so consecutive seeds start on
  /// different options even where a corpus uses a parameter once.
  size_t Choose(const std::string& what, const std::vector<size_t>& allowed) {
    std::vector<size_t> fresh;
    for (size_t i : allowed) {
      if (!chosen_.count(what + std::to_string(i))) fresh.push_back(i);
    }
    const size_t i = fresh.empty() ? rng_.Pick(allowed)
                                   : fresh[seed_ % fresh.size()];
    chosen_.insert(what + std::to_string(i));
    return i;
  }
  size_t Choose(const std::string& what, size_t n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    return Choose(what, all);
  }

  /// A fresh or an existing name of a pool.
  std::string Name(const std::string& prefix, size_t pool) {
    return prefix + std::to_string(rng_.Below(pool));
  }
  /// Sets `replace`: absent, "0" or "1".
  void Replace(Command& command) {
    const size_t choice = Choose("replace", 3);
    if (choice > 0) command.params["replace"] = choice == 2 ? "1" : "0";
  }

  /// A second operand: one other than `first` when there is one.
  std::string Other(std::vector<std::string> options,
                    const std::string& first) {
    if (options.size() > 1) std::erase(options, first);
    return rng_.Pick(options);
  }

  // ---- What the session holds ----

  bool Exists(const std::string& name) const {
    const std::vector<std::string> names = session_.TableNames();
    return std::binary_search(names.begin(), names.end(), name);
  }
  /// The ENUMs; with `populated`, only those holding a library, which
  /// aggregating needs.
  std::vector<std::string> Enums(bool populated) const {
    std::vector<std::string> out;
    for (const std::string& name : session_.TableNames()) {
      Result<const core::EnumTable*> table = session_.GetEnum(name);
      if (table.ok() && (!populated || (*table)->NumLibraries() > 0)) {
        out.push_back(name);
      }
    }
    return out;
  }
  std::vector<std::string> Sumys() const {
    std::vector<std::string> out;
    for (const std::string& name : session_.TableNames()) {
      if (session_.GetSumy(name).ok()) out.push_back(name);
    }
    return out;
  }
  /// The GAPs; with `columns` > 0, only those of that many gap columns.
  std::vector<std::string> Gaps(size_t columns = 0) const {
    std::vector<std::string> out;
    for (const std::string& name : session_.TableNames()) {
      Result<const core::GapTable*> gap = session_.GetGap(name);
      if (gap.ok() && (columns == 0 || (*gap)->NumColumns() == columns)) {
        out.push_back(name);
      }
    }
    return out;
  }
  /// Every lineage node's name, the data set's root included: what
  /// `comment` and `delete_table` take.
  std::vector<std::string> LineageNames() const {
    const rel::Table nodes = session_.Lineage().Export().nodes;
    std::vector<std::string> names;
    for (size_t r = 0; r < nodes.NumRows(); ++r) {
      names.push_back(nodes.At(r, 1).AsString());  // Id, Name, ...
    }
    return names;
  }
  const Node* NodeOf(const std::string& name) const {
    Result<lineage::LineageGraph::NodeId> id =
        session_.Lineage().FindByName(name);
    if (!id.ok()) return nullptr;
    Result<const Node*> node = session_.Lineage().GetNode(*id);
    return node.ok() ? *node : nullptr;
  }
  /// The first input `name` was derived from, or "" if none is recorded.
  std::string Parent(const std::string& name) const {
    const Node* node = NodeOf(name);
    if (node == nullptr || node->parents.empty()) return "";
    Result<const Node*> parent =
        session_.Lineage().GetNode(node->parents.front());
    return parent.ok() ? (*parent)->name : "";
  }
  /// The tissue panels that exist: mining needs one.
  std::vector<std::string> Tissues() const {
    std::vector<std::string> out;
    for (const char* tissue : {"brain", "breast"}) {
      if (session_.GetEnum(tissue).ok()) out.push_back(tissue);
    }
    return out;
  }

  // ---- Steps ----

  /// A step meant to fail: a taken name, an unknown input, or `x=0`.
  Command Failure() {
    const std::vector<std::string> enums = Enums(/*populated=*/true);
    const std::vector<std::string> gaps = Gaps();
    std::vector<size_t> kinds = {1};
    if (!enums.empty()) kinds.push_back(0);
    if (!gaps.empty()) kinds.push_back(2);
    switch (Choose("failure", kinds)) {
      case 0: {
        const std::string& in = rng_.Pick(enums);
        return {"aggregate", {{"enum", in}, {"out", in}}};
      }
      case 1:
        return {"aggregate", {{"enum", "Missing"}, {"out", Name("S", 4)}}};
      default:
        return {"top_gap", {{"gap", rng_.Pick(gaps)}, {"x", "0"}}};
    }
  }

  std::optional<Command> Step(const std::string& op) {
    if (op == "tissue_dataset") {
      const char* tissue = Choose("tissue", 2) == 0 ? "brain" : "breast";
      Command command{op, {{"tissue", tissue}}};
      Replace(command);
      return command;
    }
    if (op == "custom_dataset") {
      // Up to four libraries; the empty list is an edge case of its own.
      std::string ids;
      const size_t count = Choose("empty_ids", 2) ? 1 + rng_.Below(4) : 0;
      for (size_t i = 0; i < count; ++i) {
        if (!ids.empty()) ids += ",";
        ids += std::to_string(
            Panel().library(rng_.Below(Panel().NumLibraries())).id());
      }
      // The wire names the list `libs`, the log `ids`.
      Command command{op, {{"name", Name("C", 3)},
                           {Choose("ids_key", 2) ? "ids" : "libs", ids}}};
      Replace(command);
      return command;
    }
    if (op == "generate_metadata") {
      std::vector<std::string> inputs = Enums(/*populated=*/true);
      if (inputs.empty()) return std::nullopt;
      // Mostly a tissue panel, which mining needs.
      if (!Tissues().empty() && rng_.Percent(70)) inputs = Tissues();
      const std::string dataset = rng_.Pick(inputs);
      // The name says which data set the metadata describes.
      Command command{op, {{"dataset", dataset},
                           {"percent", rng_.Percent(50) ? "25" : "40"},
                           {"meta", Name(dataset + kMetaOf, 2)}}};
      Replace(command);
      return command;
    }
    if (op == "mine") {
      // A tissue panel with metadata of its own holds fascicles.
      const std::vector<std::string> tissues = Tissues();
      std::vector<std::pair<std::string, std::string>> pairs;
      for (const auto& [meta, tolerances] : session_.PinSnapshot()->metadata) {
        const std::string dataset = meta.substr(0, meta.rfind(kMetaOf));
        if (std::find(tissues.begin(), tissues.end(), dataset) !=
            tissues.end()) {
          pairs.emplace_back(dataset, meta);
        }
      }
      if (pairs.empty()) return std::nullopt;
      const auto& [dataset, meta] = rng_.Pick(pairs);
      // Mostly a prefix not mined yet: a taken one fails the whole mine.
      std::string prefix = Name("F", 3);
      for (size_t i = 0; i < 3 && Exists(prefix + "_1") && rng_.Percent(75);
           ++i) {
        prefix = Name("F", 3);
      }
      // The wire says `mine`, the log `fascicles`; no algorithm means
      // greedy.
      Command command{Choose("mine_op", 2) ? "fascicles" : "mine",
                      {{"dataset", dataset},
                       {"meta", meta},
                       {"min_compact_tags", "150"},
                       {"batch_size", "6"},
                       {"min_size", "6"},
                       {"out_prefix", prefix}}};
      const size_t algorithm = Choose("algorithm", 3);
      if (algorithm > 0) {
        command.params["algorithm"] = algorithm == 1 ? "0" : "1";
      }
      return command;
    }
    if (op == "control_groups") {
      // A mined fascicle and the panel it was mined from.
      std::vector<std::pair<std::string, std::string>> pairs;
      for (const std::string& name : Enums(/*populated=*/false)) {
        const Node* node = NodeOf(name);
        if (node != nullptr && node->kind == lineage::NodeKind::kFascicle &&
            session_.GetEnum(Parent(name)).ok()) {
          pairs.emplace_back(Parent(name), name);
        }
      }
      if (pairs.empty()) return std::nullopt;
      const auto& [dataset, fascicle] = rng_.Pick(pairs);
      return Command{op, {{"dataset", dataset}, {"fascicle", fascicle}}};
    }
    if (op == "aggregate") {
      const std::vector<std::string> inputs = Enums(/*populated=*/true);
      if (inputs.empty()) return std::nullopt;
      Command command{op, {{"enum", rng_.Pick(inputs)}, {"out", Name("S", 4)}}};
      Replace(command);
      return command;
    }
    if (op == "populate") {
      // The base must hold the SUMY's tags: the ENUM it aggregates does.
      std::vector<std::pair<std::string, std::string>> pairs;
      for (const std::string& sumy : Sumys()) {
        if (session_.GetEnum(Parent(sumy)).ok()) {
          pairs.emplace_back(sumy, Parent(sumy));
        }
      }
      if (pairs.empty()) return std::nullopt;
      const auto& [sumy, base] = rng_.Pick(pairs);
      Command command{op,
                      {{"sumy", sumy}, {"base", base}, {"out", Name("P", 2)}}};
      Replace(command);
      return command;
    }
    if (op == "diff") {
      const std::vector<std::string> sumys = Sumys();
      if (sumys.empty()) return std::nullopt;
      const std::string a = rng_.Pick(sumys);
      // The wire says `diff`, the log `create_gap`.
      Command command{Choose("diff_op", 2) ? "create_gap" : "diff",
                      {{"sumy1", a},
                       {"sumy2", Other(sumys, a)},
                       {"gap", Name("G", 3)}}};
      Replace(command);
      return command;
    }
    if (op == "top_gap") {
      const std::vector<std::string> gaps = Gaps();
      if (gaps.empty()) return std::nullopt;
      Command command{op, {{"gap", rng_.Pick(gaps)},
                           {"x", std::to_string(1 + rng_.Below(8))}}};
      // Mode 0 is also the default when `mode` is absent.
      const size_t mode = Choose("mode", 3);
      if (mode > 0 || rng_.Percent(50)) {
        command.params["mode"] = std::to_string(mode);
      }
      return command;
    }
    if (op == "compare_gaps") {
      // Both inputs single-column.
      const std::vector<std::string> gaps = Gaps(1);
      if (gaps.empty()) return std::nullopt;
      const std::string a = rng_.Pick(gaps);
      Command command{op, {{"a", a},
                           {"b", Other(gaps, a)},
                           {"kind", std::to_string(Choose("kind", 3))},
                           {"out", Name("K", 2)}}};
      Replace(command);
      return command;
    }
    if (op == "gap_query") {
      // Mostly a compared table; queries 6-13 need the second column that
      // a union or an intersection keeps.
      std::vector<std::string> gaps = Gaps(2);
      if (gaps.empty() || rng_.Percent(30)) gaps = Gaps();
      if (gaps.empty()) return std::nullopt;
      const std::string compared = rng_.Pick(gaps);
      const size_t queries =
          (*session_.GetGap(compared))->NumColumns() == 2 ? 13 : 5;
      Command command{op, {{"compared", compared},
                           {"query", std::to_string(1 + rng_.Below(queries))},
                           {"out", Name("Q", 2)}}};
      Replace(command);
      return command;
    }
    if (op == "comment") {
      return Command{op, {{"table", rng_.Pick(LineageNames())},
                          {"comment", "note " + std::to_string(at_)}}};
    }
    if (op == "delete_table") {
      std::vector<std::string> targets = LineageNames();
      std::erase(targets, "SAGE");
      if (targets.empty()) return std::nullopt;
      const bool cascade = Choose("cascade", 2) == 1;
      return Command{op, {{"table", rng_.Pick(targets)},
                          {"cascade", cascade ? "1" : "0"}}};
    }
    if (op == "checkpoint") return Command{op, {}};
    return std::nullopt;
  }

  static constexpr const char* kMetaOf = "_meta";

  const uint64_t seed_;
  Rng rng_;
  const Scope scope_;
  const AnalysisSession& session_;
  const size_t length_;
  const size_t initialize_at_;
  size_t at_ = 0;
  std::set<std::string> drawn_;
  std::set<std::string> chosen_;
};

}  // namespace

// ---- Running steps ----

void PrintTo(const StepResult& result, std::ostream* os) {
  *os << "{" << StatusCodeName(result.code);
  if (!result.message.empty()) *os << " \"" << result.message << "\"";
  if (!result.text.empty()) *os << " text \"" << result.text << "\"";
  if (!result.table.empty()) {
    *os << " table " << result.table.size() << " bytes, crc "
        << Crc32(result.table);
  }
  *os << "}";
}

StepResult FromReply(const Result<workbench::CommandReply>& reply) {
  StepResult result;
  if (!reply.ok()) {
    result.code = reply.status().code();
    result.message = reply.status().message();
    return result;
  }
  result.text = reply->text;
  if (reply->table.has_value()) {
    result.table = store::EncodeTable(*reply->table);
  }
  return result;
}

StepResult FromResponse(const Result<serve::Response>& response) {
  if (!response.ok()) return FromReply(response.status());
  if (!response->ok()) return FromReply(response->ToStatus());
  return FromReply(workbench::CommandReply{response->text, response->table});
}

StepResult RunStep(workbench::AnalysisSession& session,
                   const Command& command) {
  if (command.op == "load_dataset") {
    Status status = session.LoadDataSet(Panel());
    if (!status.ok()) return FromReply(status);
    return FromReply(workbench::CommandReply{"loaded", {}});
  }
  if (command.op == "checkpoint") {
    // A checkpoint changes no catalog, so a session without storage
    // answers it as one with storage does.
    Status status =
        session.StorageAttached() ? session.Checkpoint() : Status::OK();
    if (!status.ok()) return FromReply(status);
    return FromReply(workbench::CommandReply{"checkpoint complete", {}});
  }
  return FromReply(session.RunCommand(command.op, command.params));
}

// ---- The reference ----

Reference::Reference(uint64_t seed, Scope scope) : session_(AdminSession()) {
  Generator generator(seed, scope, *session_);
  while (std::optional<Command> command = generator.Next()) {
    steps_.push_back(RunStep(*session_, *command));
    corpus_.push_back(*std::move(command));
  }
}

const std::string& Reference::FingerprintAt(size_t prefix) const {
  auto it = fingerprints_.find(prefix);
  if (it != fingerprints_.end()) return it->second;
  if (prefix == corpus_.size()) {
    return fingerprints_.emplace(prefix, Fingerprint(*session_)).first->second;
  }
  std::unique_ptr<workbench::AnalysisSession> replay = AdminSession();
  for (size_t i = 0; i < prefix; ++i) RunStep(*replay, corpus_[i]);
  return fingerprints_.emplace(prefix, Fingerprint(*replay)).first->second;
}

size_t RunAckedPrefix(const Reference& reference,
                      const std::function<StepResult(const Command&)>& run) {
  const std::vector<Command>& corpus = reference.corpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    const StepResult got = run(corpus[i]);
    const StepResult& want = reference.steps()[i];
    if (want.code == StatusCode::kOk && got.code != StatusCode::kOk) return i;
    EXPECT_EQ(got, want) << "step " << i << ": " << Describe(corpus[i]);
  }
  return corpus.size();
}

}  // namespace gea::support
