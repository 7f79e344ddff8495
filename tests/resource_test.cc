// Tests for per-query memory accounting (obs/resource.h): the account's
// alloc/free/peak arithmetic, the context binding scope, the
// ParallelFor propagation, and the producer hooks in rel::Column and the
// core SUMY/GAP builders. "parallel" label: the fan-out test re-runs
// under TSan.

#include "obs/resource.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/gap.h"
#include "core/sumy.h"
#include "obs/context.h"
#include "rel/column.h"

namespace gea::obs {
namespace {

TEST(MemoryAccountTest, TracksAllocatedLiveAndPeak) {
  MemoryAccount account;
  EXPECT_EQ(account.AllocatedBytes(), 0u);
  EXPECT_EQ(account.PeakBytes(), 0u);

  account.OnAlloc(100);
  account.OnAlloc(50);
  EXPECT_EQ(account.AllocatedBytes(), 150u);
  EXPECT_EQ(account.LiveBytes(), 150u);
  EXPECT_EQ(account.PeakBytes(), 150u);

  account.OnFree(120);
  EXPECT_EQ(account.AllocatedBytes(), 150u);  // cumulative, never shrinks
  EXPECT_EQ(account.LiveBytes(), 30u);
  EXPECT_EQ(account.PeakBytes(), 150u);  // high-water mark sticks

  account.OnAlloc(40);
  EXPECT_EQ(account.LiveBytes(), 70u);
  EXPECT_EQ(account.PeakBytes(), 150u);  // still below the old peak

  account.Reset();
  EXPECT_EQ(account.AllocatedBytes(), 0u);
  EXPECT_EQ(account.PeakBytes(), 0u);
}

TEST(MemoryAccountTest, ScopeBindsAndNestsAndSuspends) {
  EXPECT_EQ(CurrentContext().account, nullptr);
  EXPECT_FALSE(MemoryAccountingActive());
  AccountAllocation(1000);  // unbound: a no-op, not a crash

  MemoryAccount outer;
  {
    ContextScope bind_outer({.account = &outer});
    EXPECT_EQ(CurrentContext().account, &outer);
    EXPECT_TRUE(MemoryAccountingActive());
    AccountAllocation(10);

    MemoryAccount inner;
    {
      ContextScope bind_inner({.account = &inner});
      EXPECT_EQ(CurrentContext().account, &inner);
      AccountAllocation(5);
    }
    EXPECT_EQ(CurrentContext().account, &outer);  // restored

    {
      ContextScope suspend({.account = nullptr});
      EXPECT_FALSE(MemoryAccountingActive());
      AccountAllocation(999);  // charged to nobody
    }
    AccountAllocation(7);
    EXPECT_EQ(inner.AllocatedBytes(), 5u);
  }
  EXPECT_EQ(CurrentContext().account, nullptr);
  EXPECT_EQ(outer.AllocatedBytes(), 17u);
}

TEST(MemoryAccountTest, ColumnAppendsChargePayloadBytesSymmetrically) {
  MemoryAccount account;
  ContextScope bind({.account = &account});

  rel::Column ints(rel::ValueType::kInt);
  rel::Column strings(rel::ValueType::kString);
  for (int i = 0; i < 100; ++i) ints.AppendInt(i);
  ints.AppendNull();
  strings.AppendString("alpha");
  strings.AppendString("beta");
  strings.AppendString("alpha");  // interned: the dict grows once

  // The account charged exactly the logical payload both columns report.
  EXPECT_EQ(account.LiveBytes(), ints.PayloadBytes() + strings.PayloadBytes());
  EXPECT_EQ(account.PeakBytes(), account.LiveBytes());

  // Clear releases what was charged: live returns to zero, peak sticks.
  const uint64_t peak = account.PeakBytes();
  ints.Clear();
  strings.Clear();
  EXPECT_EQ(account.LiveBytes(), 0u);
  EXPECT_EQ(account.PeakBytes(), peak);
}

TEST(MemoryAccountTest, SumyAndGapBuildersCharge) {
  MemoryAccount account;
  ContextScope bind({.account = &account});

  std::vector<core::SumyEntry> entries;
  for (uint32_t i = 0; i < 8; ++i) {
    core::SumyEntry e;
    e.tag = static_cast<sage::TagId>(i + 1);
    e.min = 0.0;
    e.max = 1.0;
    e.mean = 0.5;
    e.stddev = 0.1;
    entries.push_back(e);
  }
  Result<core::SumyTable> sumy = core::SumyTable::Create("S", entries);
  ASSERT_TRUE(sumy.ok());
  const uint64_t after_sumy = account.AllocatedBytes();
  EXPECT_EQ(after_sumy, entries.size() * sizeof(core::SumyEntry));

  Result<core::GapTable> gap = core::Diff(*sumy, *sumy, "G", "Gap");
  ASSERT_TRUE(gap.ok());
  // The GAP build charged its columnar arrays on top of the SUMY bytes.
  EXPECT_GT(account.AllocatedBytes(), after_sumy);
}

TEST(MemoryAccountTest, ParallelForPropagatesTheBinding) {
  // Force chunks onto pool workers so propagation (not same-thread
  // execution) is what's under test, even on a one-core host.
  ForceParallelHelpersScope force_parallel;
  MemoryAccount account;
  ContextScope bind({.account = &account});

  constexpr size_t kItems = 10'000;
  std::atomic<uint64_t> observed_bound{0};
  ParallelFor(0, kItems, 64, [&](size_t begin, size_t end) {
    if (MemoryAccountingActive()) {
      observed_bound.fetch_add(1, std::memory_order_relaxed);
    }
    AccountAllocation(end - begin);
  });

  // Every chunk saw the binding and every byte landed in the account.
  // That the helpers' context, the account included, does not outlive
  // the call is checked for every pool worker in obs_test
  // (TraceTest.ParallelForChunksAttachToCallingSpan).
  EXPECT_GT(observed_bound.load(), 0u);
  EXPECT_EQ(account.AllocatedBytes(), kItems);
}

}  // namespace
}  // namespace gea::obs
