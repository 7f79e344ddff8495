#ifndef GEA_OBS_CONTEXT_H_
#define GEA_OBS_CONTEXT_H_

#include <cstdint>

namespace gea::obs {

class MemoryAccount;
struct SpanSink;
struct StageNanos;

/// Everything the calling thread carries for the request it works on.
/// The serve layer installs one per request for the whole task;
/// ParallelFor copies the caller's into its pool helpers (without
/// `stages`); OperationCapture adds a span sink when none is bound. Null
/// pointers switch the matching attribution off.
struct RequestContext {
  uint64_t trace_id = 0;     // tags every span recorded (0 = none)
  bool sampled = false;      // records spans even with GEA_TRACE off
  uint64_t parent_span = 0;  // innermost open span (0 = none)
  MemoryAccount* account = nullptr;  // charged by allocation sites
  StageNanos* stages = nullptr;      // charged by the WAL and timed locks
  SpanSink* spans = nullptr;         // receives every span that closes
};

/// The calling thread's context: the only thread-local holding request
/// state.
inline RequestContext& CurrentContext() {
  thread_local RequestContext context;
  return context;
}

/// Installs `context` on the calling thread for the scope's lifetime and
/// restores the previous one, whole, on exit.
class ContextScope {
 public:
  explicit ContextScope(const RequestContext& context)
      : previous_(CurrentContext()) {
    CurrentContext() = context;
  }
  ~ContextScope() { CurrentContext() = previous_; }

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  RequestContext previous_;
};

}  // namespace gea::obs

#endif  // GEA_OBS_CONTEXT_H_
