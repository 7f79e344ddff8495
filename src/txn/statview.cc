// gea_stat_transactions: one (name, value) table over the MVCC epoch and
// group-commit telemetry, registered as a stat-view provider at
// static-init time so any binary linking gea_txn can SELECT it (and
// gea_shell's \stats can fetch it over the wire).

#include <algorithm>
#include <limits>
#include <string>

#include "obs/metrics.h"
#include "obs/statviews.h"
#include "rel/table.h"
#include "store/engine.h"
#include "txn/epoch.h"

namespace gea::txn {
namespace {

rel::Table TransactionStatTable() {
  rel::Table table(obs::kStatTransactionsView,
                   rel::Schema({{"name", rel::ValueType::kString},
                                {"value", rel::ValueType::kInt}}));
  auto add = [&table](const std::string& name, uint64_t value) {
    const uint64_t cap =
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
    table.AppendRowUnchecked(
        {rel::Value::String(name),
         rel::Value::Int(static_cast<int64_t>(std::min(value, cap)))});
  };

  // Live per-manager state (one session = one manager; aggregate).
  uint64_t live_managers = 0, current_epoch = 0, retired_bytes = 0,
           epochs_published = 0;
  int64_t pinned = 0;
  for (const EpochManagerStats& s : LiveEpochManagerStats()) {
    live_managers += 1;
    current_epoch = std::max(current_epoch, s.current_epoch);
    pinned += s.pinned_readers;
    epochs_published += s.epochs_published;
    retired_bytes += s.retired_bytes;
  }
  add("epoch.live_managers", live_managers);
  add("epoch.current", current_epoch);
  add("epoch.pinned_readers", static_cast<uint64_t>(std::max<int64_t>(0, pinned)));
  add("epoch.published", epochs_published);
  add("epoch.retired_bytes", retired_bytes);
  add("commit.queue_depth", store::LiveCommitQueueDepth());

  // The gea.txn.* registry metrics: cumulative counters plus the batch
  // size and fsync-amortization histograms.
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  for (const obs::CounterValue& c : snapshot.counters) {
    if (c.name.rfind("gea.txn.", 0) == 0) add(c.name, c.value);
  }
  for (const obs::GaugeValue& g : snapshot.gauges) {
    if (g.name.rfind("gea.txn.", 0) == 0) {
      add(g.name, static_cast<uint64_t>(std::max<int64_t>(0, g.value)));
    }
  }
  for (const obs::HistogramValue& h : snapshot.histograms) {
    if (h.name.rfind("gea.txn.", 0) != 0) continue;
    add(h.name + ".count", h.count);
    add(h.name + ".mean", static_cast<uint64_t>(h.Mean()));
    add(h.name + ".p50", h.ApproxQuantile(0.50));
    add(h.name + ".p95", h.ApproxQuantile(0.95));
  }
  return table;
}

}  // namespace

// Registration is anchored from the EpochManager constructor rather than
// a static initializer in this translation unit: nothing else references
// statview.o, so a plain static-init registration would be dropped when
// linking the gea_txn archive.
void RegisterTransactionStatView() {
  static const bool registered = [] {
    obs::RegisterStatViewProvider(obs::kStatTransactionsView,
                                  TransactionStatTable);
    return true;
  }();
  (void)registered;
}

}  // namespace gea::txn
