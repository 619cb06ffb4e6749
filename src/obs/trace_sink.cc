#include "obs/trace_sink.h"

namespace lll::obs {

const char* TraceEventKindName(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kTrace:
      return "trace";
    case TraceEvent::Kind::kError:
      return "error";
    case TraceEvent::Kind::kGenerator:
      return "generator";
    case TraceEvent::Kind::kEngine:
      return "engine";
  }
  return "unknown";
}

std::string FormatTraceEvent(const TraceEvent& event) {
  std::string out = "[";
  out += TraceEventKindName(event.kind);
  out += "] ";
  out += event.source;
  if (event.line != 0) {
    out += " (" + std::to_string(event.line) + ":" +
           std::to_string(event.col) + ")";
  }
  out += ": ";
  out += event.message;
  return out;
}

void CollectingTraceSink::Emit(TraceEvent event) {
  event.seq = NextSeq();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> CollectingTraceSink::TakeEvents() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.swap(events_);
  return out;
}

std::vector<TraceEvent> CollectingTraceSink::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t CollectingTraceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string CollectingTraceSink::JoinedMessages() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const TraceEvent& e : events_) {
    if (!out.empty()) out.push_back('\n');
    out += e.message;
  }
  return out;
}

RingBufferTraceSink::RingBufferTraceSink(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void RingBufferTraceSink::Emit(TraceEvent event) {
  event.seq = NextSeq();
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() == capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(event));
}

std::vector<TraceEvent> RingBufferTraceSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TraceEvent>(ring_.begin(), ring_.end());
}

uint64_t RingBufferTraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TeeTraceSink::Emit(TraceEvent event) {
  event.seq = NextSeq();
  if (a_ != nullptr) a_->Emit(event);
  if (b_ != nullptr) b_->Emit(std::move(event));
}

}  // namespace lll::obs
