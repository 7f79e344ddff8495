#ifndef GEA_OBS_RESOURCE_H_
#define GEA_OBS_RESOURCE_H_

#include <atomic>
#include <cstdint>

namespace gea::obs {

/// Per-query memory accounting. A MemoryAccount accumulates the bytes a
/// request's execution allocates in the data-bearing containers —
/// rel::Column payloads, GapTable / SumyTable arrays — and tracks the
/// high-water mark of live (allocated minus freed) bytes. The serve
/// layer binds one account per request through the RequestContext
/// (obs/context.h), ParallelFor carries it into pool helpers with the
/// rest of the context, and the allocation sites call the free functions
/// below.
///
/// Cost model: when no account is bound (every non-served code path) an
/// accounting call is one thread-local load and a branch. When bound,
/// it is two or three relaxed atomic operations — the account is shared
/// across the pool helpers of one request, so the members must be
/// atomics, but there is no lock anywhere.
class MemoryAccount {
 public:
  MemoryAccount() = default;

  MemoryAccount(const MemoryAccount&) = delete;
  MemoryAccount& operator=(const MemoryAccount&) = delete;

  void OnAlloc(uint64_t bytes) {
    allocated_.fetch_add(bytes, std::memory_order_relaxed);
    const uint64_t live =
        live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    // CAS-max: lost races only ever lose to a larger peak.
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (peak < live && !peak_.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
  }

  void OnFree(uint64_t bytes) {
    live_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Total bytes allocated while the account was bound.
  uint64_t AllocatedBytes() const {
    return allocated_.load(std::memory_order_relaxed);
  }
  /// High-water mark of live bytes (allocated minus freed).
  uint64_t PeakBytes() const { return peak_.load(std::memory_order_relaxed); }
  /// Live bytes right now (allocations the request has not released).
  uint64_t LiveBytes() const { return live_.load(std::memory_order_relaxed); }

  void Reset() {
    allocated_.store(0, std::memory_order_relaxed);
    live_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> allocated_{0};
  std::atomic<uint64_t> live_{0};
  std::atomic<uint64_t> peak_{0};
};

/// True when the calling thread's context has an account bound.
bool MemoryAccountingActive();

/// Adds `bytes` to the bound account; no-op when none is bound.
void AccountAllocation(uint64_t bytes);

/// Subtracts `bytes` of live memory from the bound account; no-op when
/// none is bound. Callers must have accounted the same bytes earlier —
/// the containers call this from Clear()-style releases only, so a
/// request that frees what another request allocated never goes through
/// here (the account is bound per request).
void AccountFree(uint64_t bytes);

}  // namespace gea::obs

#endif  // GEA_OBS_RESOURCE_H_
