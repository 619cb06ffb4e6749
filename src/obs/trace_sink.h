#ifndef LLL_OBS_TRACE_SINK_H_
#define LLL_OBS_TRACE_SINK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace lll::obs {

// Structured trace events, replacing "printf into a buffer something may or
// may not flush". Bloom's report is blunt about this failure mode: trace()
// output vanished -- sometimes eaten by the optimizer, sometimes stuck in a
// buffer nobody flushed. Events here go through a sink interface whose
// implementations are all synchronous and thread-safe; once Emit returns the
// event is either stored or already written out, never in limbo.

struct TraceEvent {
  enum class Kind : uint8_t {
    kTrace,      // fn:trace / fn:error from inside a query
    kError,      // dynamic error surfaced with location
    kGenerator,  // awb model/document generator progress
    kEngine,     // engine lifecycle: compile, execute, cache events
  };

  Kind kind = Kind::kTrace;
  std::string source;   // who emitted: "fn:trace", "awb.generator", ...
  std::string message;  // the payload line
  size_t line = 0;      // 1-based source position of the emitting expression,
  size_t col = 0;       // 0 = unknown (e.g. generator events)
  uint64_t seq = 0;     // per-sink monotonic sequence number, set by Emit
};

const char* TraceEventKindName(TraceEvent::Kind kind);

// One-line rendering: "[kind] source (line:col): message".
std::string FormatTraceEvent(const TraceEvent& event);

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // Thread-safe; assigns event.seq. Synchronous: when this returns, the
  // event has reached the sink's backing store or output stream.
  virtual void Emit(TraceEvent event) = 0;

  uint64_t emitted() const { return seq_.load(std::memory_order_relaxed); }

 protected:
  uint64_t NextSeq() { return seq_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> seq_{0};
};

// Stores every event; the test workhorse.
class CollectingTraceSink : public TraceSink {
 public:
  void Emit(TraceEvent event) override;

  std::vector<TraceEvent> TakeEvents();
  std::vector<TraceEvent> Events() const;
  size_t size() const;
  // Convenience for assertions: all messages joined with '\n'.
  std::string JoinedMessages() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

// Fixed-capacity ring: keeps the newest `capacity` events, counts what it
// dropped. The production shape -- bounded memory under sustained tracing.
class RingBufferTraceSink : public TraceSink {
 public:
  explicit RingBufferTraceSink(size_t capacity);

  void Emit(TraceEvent event) override;

  std::vector<TraceEvent> Snapshot() const;  // oldest first
  uint64_t dropped() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<TraceEvent> ring_;
  uint64_t dropped_ = 0;
};

// Fans out to two sinks (e.g. collect for the test AND keep a bounded ring).
class TeeTraceSink : public TraceSink {
 public:
  TeeTraceSink(TraceSink* a, TraceSink* b) : a_(a), b_(b) {}

  void Emit(TraceEvent event) override;

 private:
  TraceSink* a_;
  TraceSink* b_;
};

}  // namespace lll::obs

#endif  // LLL_OBS_TRACE_SINK_H_
