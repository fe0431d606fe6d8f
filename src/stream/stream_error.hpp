// Typed errors for the streaming stack: the failure-domain currency that
// lets a fetch or decode error stay a *recoverable event* instead of a
// process-terminating exception.
//
// Every AssetStore read path reports failures as a StreamError — a kind
// (which layer of the format broke), the voxel group and tier involved
// (when the error is group-scoped), and a human-readable detail string.
// The ResidencyCache turns those errors into failed/backoff entry states
// and degraded serves; the serve layer attributes them per session. The
// exception form (StreamException) exists only at the edges: the throwing
// entry point (AssetStore's constructor) wraps the same typed error so
// callers that do catch get the full story, and it derives from
// std::runtime_error so pre-existing handlers keep working.
//
// Contract: a StreamError never crosses a thread unprotected — the cache
// stores the last error per entry under its mutex, and the async lane
// captures task exceptions into its own channel (common/parallel.hpp)
// rather than letting them std::terminate the process.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace sgs::stream {

// Which layer of the .sgsc contract failed. Open-time kinds (header,
// directory, index) poison the whole store; group-scoped kinds (io-read,
// payload, decode) poison one group at one tier and leave the rest of the
// store serveable.
enum class StreamErrorKind : std::uint8_t {
  kIoOpen = 0,          // store file cannot be opened
  kIoRead,              // read syscall failed / short read mid-payload
  kIoWrite,             // writer's stream went bad (disk full, quota)
  kCorruptHeader,       // magic/version/config/counts implausible
  kCorruptDirectory,    // directory entry inconsistent with the file
  kCorruptIndex,        // index/tier tables truncated or not a subsequence
  kCorruptPayload,      // payload bytes fail validation (codebook range)
  kDecode,              // decode-side failure (allocation, internal)
  kNetTimeout,          // network transfer lost or timed out (group-scoped
                        // when it hits a payload read; the cache retries it
                        // exactly like a disk error)
};

inline const char* to_string(StreamErrorKind kind) {
  switch (kind) {
    case StreamErrorKind::kIoOpen: return "io-open";
    case StreamErrorKind::kIoRead: return "io-read";
    case StreamErrorKind::kIoWrite: return "io-write";
    case StreamErrorKind::kCorruptHeader: return "corrupt-header";
    case StreamErrorKind::kCorruptDirectory: return "corrupt-directory";
    case StreamErrorKind::kCorruptIndex: return "corrupt-index";
    case StreamErrorKind::kCorruptPayload: return "corrupt-payload";
    case StreamErrorKind::kDecode: return "decode";
    case StreamErrorKind::kNetTimeout: return "net-timeout";
  }
  return "unknown";
}

// One recoverable streaming failure. `group`/`tier` are -1 when the error
// is store-scoped rather than group-scoped.
struct StreamError {
  StreamErrorKind kind = StreamErrorKind::kIoRead;
  std::int64_t group = -1;  // dense voxel id, -1 when not group-scoped
  int tier = -1;            // payload tier, -1 when not tier-scoped
  std::string detail;

  // "corrupt-payload group 12 tier 0: .sgsc payload index out of range"
  std::string to_string() const {
    std::string s = stream::to_string(kind);
    if (group >= 0) s += " group " + std::to_string(group);
    if (tier >= 0) s += " tier " + std::to_string(tier);
    if (!detail.empty()) {
      s += ": ";
      s += detail;
    }
    return s;
  }
};

// The exception form of a StreamError, for the legacy throwing entry
// points. Derives from std::runtime_error (what those paths always threw)
// so existing catch sites keep working while new ones read error().
class StreamException : public std::runtime_error {
 public:
  explicit StreamException(StreamError error)
      : std::runtime_error(error.to_string()), error_(std::move(error)) {}
  const StreamError& error() const { return error_; }

 private:
  StreamError error_;
};

// Minimal expected-style result for AssetStore's checked read paths: either
// a value or a StreamError, never an exception. T must be default- and
// move-constructible (DecodedGroup is).
template <typename T>
class StreamResult {
 public:
  StreamResult(T value) : value_(std::move(value)) {}      // NOLINT(implicit)
  StreamResult(StreamError error) : error_(std::move(error)) {}  // NOLINT

  bool ok() const { return !error_.has_value(); }
  T& value() { return value_; }
  const T& value() const { return value_; }
  T&& take() { return std::move(value_); }
  const StreamError& error() const { return *error_; }
  StreamError&& take_error() { return std::move(*error_); }

 private:
  T value_{};
  std::optional<StreamError> error_;
};

}  // namespace sgs::stream
