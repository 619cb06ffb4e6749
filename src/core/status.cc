#include "core/status.h"

namespace lll {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kTypeError:
      return "TypeError";
    case StatusCode::kCardinalityError:
      return "CardinalityError";
    case StatusCode::kConstructionError:
      return "ConstructionError";
    case StatusCode::kUnsupported:
      return "Unsupported";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  // A run of identical adjacent frames (runaway recursion repeats one call
  // frame up to the depth limit) renders once, with its count.
  for (size_t i = 0; i < context_.size();) {
    size_t run = 1;
    while (i + run < context_.size() && context_[i + run] == context_[i]) {
      ++run;
    }
    out += "\n  ";
    out += context_[i];
    if (run > 1) out += " (x" + std::to_string(run) + ")";
    i += run;
  }
  return out;
}

}  // namespace lll
