// Tests for the transaction subsystem (src/txn): epoch pin/publish/
// reclaim semantics under concurrency and the gea_stat_transactions view.
// Group commit lives in the storage engine; store_test covers it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "txn/epoch.h"
#include "txn/snapshot.h"
#include "workbench/session.h"

namespace gea::txn {
namespace {

std::shared_ptr<const std::vector<double>> Meta(double value) {
  return std::make_shared<const std::vector<double>>(
      std::vector<double>{value});
}

// ---------- epochs ----------

// The stat view registers from the EpochManager constructor (every
// session owns one), so plain SQL over any session reads the MVCC and
// group-commit telemetry.
TEST(EpochTest, TransactionStatViewIsQueryableViaSql) {
  workbench::AnalysisSession session("admin", "secret");
  ASSERT_TRUE(session
                  .Login("admin", "secret",
                         workbench::AccessLevel::kAdministrator)
                  .ok());
  auto out = session.Query(
      "SELECT name, value FROM gea_stat_transactions ORDER BY name");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_GT(out->NumRows(), 0u);
  bool saw_live_managers = false;
  for (size_t i = 0; i < out->NumRows(); ++i) {
    if (out->Get(i, "name")->AsString() == "epoch.live_managers") {
      saw_live_managers = true;
      EXPECT_GE(out->Get(i, "value")->AsInt(), 1);
    }
  }
  EXPECT_TRUE(saw_live_managers);
}

TEST(EpochTest, PinHoldsItsVersionAcrossPublishes) {
  EpochManager mgr;
  EXPECT_EQ(mgr.CurrentEpoch(), 0u);

  CatalogSnapshot first;
  first.metadata.emplace("m", Meta(1.0));
  EXPECT_EQ(mgr.Publish(std::move(first)), 1u);

  SnapshotPin pin = mgr.Pin();
  EXPECT_TRUE(pin.valid());
  EXPECT_EQ(pin.epoch(), 1u);

  CatalogSnapshot second;
  second.metadata.emplace("m", Meta(2.0));
  EXPECT_EQ(mgr.Publish(std::move(second)), 2u);
  EXPECT_EQ(mgr.CurrentEpoch(), 2u);

  // The old pin still reads its own immutable version.
  EXPECT_EQ(pin.epoch(), 1u);
  EXPECT_DOUBLE_EQ((*pin->metadata.at("m"))[0], 1.0);
  EXPECT_DOUBLE_EQ((*mgr.Pin()->metadata.at("m"))[0], 2.0);
}

TEST(EpochTest, PinnedReadersGaugeCountsCopiesAndDrops) {
  EpochManager mgr;
  EXPECT_EQ(mgr.PinnedReaders(), 0);
  {
    SnapshotPin a = mgr.Pin();
    SnapshotPin b = a;  // copying a pin pins again
    SnapshotPin c = mgr.Pin();
    EXPECT_EQ(mgr.PinnedReaders(), 3);
    SnapshotPin moved = std::move(b);  // moving does not
    EXPECT_EQ(mgr.PinnedReaders(), 3);
  }
  EXPECT_EQ(mgr.PinnedReaders(), 0);
}

TEST(EpochTest, RetiredBytesAccountsReplacedTables) {
  EpochManager mgr;
  CatalogSnapshot v1;
  v1.metadata.emplace("m", Meta(1.0));
  mgr.Publish(std::move(v1));
  EXPECT_EQ(mgr.RetiredBytesTotal(), 0u);

  // Same pointer carried over: nothing retired.
  CatalogSnapshot v2 = *mgr.Pin().snapshot();
  v2.metadata.emplace("extra", Meta(9.0));
  mgr.Publish(std::move(v2));
  EXPECT_EQ(mgr.RetiredBytesTotal(), 0u);

  // Replacing "m" retires the superseded vector (8 bytes/double).
  CatalogSnapshot v3 = *mgr.Pin().snapshot();
  v3.metadata["m"] = Meta(2.0);
  mgr.Publish(std::move(v3));
  EXPECT_EQ(mgr.RetiredBytesTotal(), 8u);
  EXPECT_EQ(mgr.EpochsPublished(), 3u);
}

TEST(EpochTest, ConcurrentPinAndPublishRace) {
  EpochManager mgr;
  constexpr int kEpochs = 500;
  std::atomic<bool> stop{false};
  std::atomic<bool> consistent{true};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotPin pin = mgr.Pin();
        const uint64_t epoch = pin.epoch();
        if (epoch < last) {  // epochs must be monotone per reader
          consistent.store(false);
          return;
        }
        last = epoch;
        if (epoch > 0) {
          // Each published version carries its own epoch as the value:
          // a torn read would show a mismatch.
          auto it = pin->metadata.find("v");
          if (it == pin->metadata.end() ||
              (*it->second)[0] != static_cast<double>(epoch)) {
            consistent.store(false);
            return;
          }
        }
      }
    });
  }

  for (int i = 1; i <= kEpochs; ++i) {
    CatalogSnapshot snap;
    snap.metadata.emplace("v", Meta(static_cast<double>(i)));
    mgr.Publish(std::move(snap));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  EXPECT_TRUE(consistent.load());
  EXPECT_EQ(mgr.CurrentEpoch(), static_cast<uint64_t>(kEpochs));
  EXPECT_EQ(mgr.PinnedReaders(), 0);
}

}  // namespace
}  // namespace gea::txn
