// FetchBackend: the byte-ranged transfer seam under AssetStore.
//
// Everything the store reads after open() is a (offset, length) range —
// payload tiers on demand, metadata sections at open. FetchBackend makes
// that boundary explicit so the *transport* is swappable under one typed
// failure contract:
//
//   - LocalFileBackend        one file descriptor read with pread, no lock
//                             around the read; concurrent fetches overlap.
//   - MemoryBackend           an in-memory byte image of a store; zero-cost
//                             transfers (elapsed_ns == 0), handy for tests.
//   - SimulatedNetworkBackend wraps another backend behind a deterministic
//                             link model (latency/bandwidth/jitter/loss)
//                             driven by a virtual clock and a seeded RNG —
//                             never wall time — so a given seed and request
//                             sequence replays a byte-identical transfer
//                             schedule.
//
// Error mapping is part of the contract: a transfer that times out or is
// lost surfaces as StreamErrorKind::kNetTimeout; one that truncates
// mid-payload surfaces as kIoRead with the delivered/requested byte counts
// in the detail. Backends report errors store-scoped (group = tier = -1);
// AssetStore re-scopes them with group+tier context on the read path. That
// routes every network fault into the cache's existing retry/backoff/
// degraded machinery (residency_cache.hpp) — the network error path IS the
// disk error path.
//
// read_range() on every backend is thread-safe; elapsed_ns in the returned
// FetchInfo is the transfer duration (wall-clock for real I/O, virtual for
// the simulated link) and is what BandwidthEstimator consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <streambuf>
#include <string>
#include <vector>

#include "stream/stream_error.hpp"

namespace sgs::stream {

// One completed transfer, as seen by the caller.
struct FetchInfo {
  std::uint64_t bytes = 0;       // bytes delivered (== requested on success)
  std::uint64_t elapsed_ns = 0;  // transfer duration; virtual time for the
                                 // simulated link, wall time for real I/O
};

// Cumulative per-backend transfer counters (thread-safe snapshot).
struct FetchBackendStats {
  std::uint64_t requests = 0;       // read_range calls, any outcome
  std::uint64_t bytes = 0;          // bytes delivered by completed transfers
  std::uint64_t busy_ns = 0;        // total transfer time, failures included
  std::uint64_t timeouts = 0;       // transfers lost / timed out (kNetTimeout)
  std::uint64_t partial_reads = 0;  // transfers truncated mid-payload (kIoRead)
};

class FetchBackend {
 public:
  virtual ~FetchBackend() = default;

  // Reads exactly dst.size() bytes starting at `offset`. On success the
  // whole span is filled and FetchInfo reports the transfer. On failure
  // returns a typed StreamError (store-scoped; callers add group/tier);
  // dst may hold a delivered prefix after a partial transfer.
  virtual StreamResult<FetchInfo> read_range(std::uint64_t offset,
                                             std::span<char> dst) = 0;

  // Total store size in bytes (0 if the backend failed to open).
  virtual std::uint64_t size() const = 0;

  // Set when the backend could not reach its origin at construction; a
  // store open over such a backend fails with this error (kIoOpen etc.).
  virtual std::optional<StreamError> open_error() const {
    return std::nullopt;
  }

  // Human-readable origin for error messages and reports.
  virtual std::string describe() const = 0;

  virtual FetchBackendStats stats() const = 0;
};

// A local file: one descriptor shared by every caller, read with a POSIX
// pread loop (positional, so concurrent reads need no lock and run side by
// side), timed with the wall clock. Only the counters take a lock.
// Construction never throws — a missing file is reported through
// open_error() / the first read_range.
class LocalFileBackend final : public FetchBackend {
 public:
  explicit LocalFileBackend(std::string path);
  ~LocalFileBackend() override;  // closes fd_
  LocalFileBackend(const LocalFileBackend&) = delete;
  LocalFileBackend& operator=(const LocalFileBackend&) = delete;

  StreamResult<FetchInfo> read_range(std::uint64_t offset,
                                     std::span<char> dst) override;
  std::uint64_t size() const override { return size_; }
  std::optional<StreamError> open_error() const override {
    return open_error_;
  }
  std::string describe() const override { return "file:" + path_; }
  FetchBackendStats stats() const override;

 private:
  std::string path_;
  std::uint64_t size_ = 0;
  std::optional<StreamError> open_error_;
  int fd_ = -1;
  mutable std::mutex mutex_;  // guards stats_
  FetchBackendStats stats_;
};

// A store held entirely in memory. Transfers are instantaneous
// (elapsed_ns == 0, so they never feed a bandwidth estimate).
class MemoryBackend final : public FetchBackend {
 public:
  explicit MemoryBackend(std::vector<char> bytes);
  // Loads a whole file image; on failure returns nullptr and sets *error.
  static std::shared_ptr<MemoryBackend> from_file(const std::string& path,
                                                  StreamError* error = nullptr);

  StreamResult<FetchInfo> read_range(std::uint64_t offset,
                                     std::span<char> dst) override;
  std::uint64_t size() const override { return bytes_.size(); }
  std::string describe() const override;
  FetchBackendStats stats() const override;

 private:
  std::vector<char> bytes_;
  mutable std::mutex mutex_;  // guards stats_
  FetchBackendStats stats_;
};

// Link model for SimulatedNetworkBackend. The default-constructed profile
// is a perfect link: zero latency, infinite bandwidth, no faults — renders
// over it are bit-identical to the wrapped backend.
struct NetProfile {
  // Fixed per-request setup cost (RTT + server think time).
  std::uint64_t latency_ns = 0;
  // Extra per-request delay drawn uniformly from [0, jitter_ns].
  std::uint64_t jitter_ns = 0;
  // Link throughput; 0 means infinite (transfers cost latency+jitter only).
  std::uint64_t bandwidth_bytes_per_sec = 0;
  // Probability a transfer is lost: the full transfer time is still
  // charged (the client waited it out), no bytes arrive, and the request
  // fails with kNetTimeout.
  double loss_rate = 0.0;
  // Probability a transfer truncates mid-payload: half the requested bytes
  // arrive and the request fails with kIoRead (a short read the store must
  // surface with group+tier context, not as a decode error).
  double partial_rate = 0.0;
  // Seeds the per-backend RNG; same seed + same request sequence replays a
  // byte-identical transfer schedule.
  std::uint32_t seed = 1;
  // Keep a per-transfer record (transfers()) — for tests; off for servers.
  bool record_schedule = false;

  // Named CLI profiles, ordered here by effective throughput:
  //   "lossy"       —  8 MB/s, 25 ms latency, 10 ms jitter, 3% loss,
  //                    1% partial transfers
  //   "constrained" — 16 MB/s, 10 ms latency, 2 ms jitter, clean
  //   "fast"        —  1 GB/s, 0.5 ms latency, clean
  // Throws std::invalid_argument on any other name.
  static NetProfile from_name(const std::string& name);
};

// One simulated transfer, recorded when NetProfile::record_schedule is set.
// Times are on the backend's virtual clock (starts at 0, advances by each
// request's transfer time — wall time never enters).
struct NetTransfer {
  std::uint64_t offset = 0;
  std::uint64_t requested = 0;
  std::uint64_t delivered = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint8_t outcome = 0;  // 0 = ok, 1 = timeout/loss, 2 = partial

  friend bool operator==(const NetTransfer&, const NetTransfer&) = default;
};

// Deterministic simulated network over any origin backend. All randomness
// comes from one seeded generator advanced in a fixed order per request
// under the backend mutex, and all time is virtual — so the transfer
// schedule is a pure function of (profile, request sequence). Concurrent
// callers are safe, but schedule replay additionally requires the request
// *order* to be deterministic (single-threaded or synchronous prefetch).
class SimulatedNetworkBackend final : public FetchBackend {
 public:
  SimulatedNetworkBackend(std::shared_ptr<FetchBackend> origin,
                          NetProfile profile);

  StreamResult<FetchInfo> read_range(std::uint64_t offset,
                                     std::span<char> dst) override;
  std::uint64_t size() const override { return origin_->size(); }
  std::optional<StreamError> open_error() const override {
    return origin_->open_error();
  }
  std::string describe() const override;
  FetchBackendStats stats() const override;

  const NetProfile& profile() const { return profile_; }
  // Virtual clock: total simulated link time consumed so far.
  std::uint64_t now_ns() const;
  // Transfer schedule (empty unless profile.record_schedule).
  std::vector<NetTransfer> transfers() const;

 private:
  std::shared_ptr<FetchBackend> origin_;
  NetProfile profile_;
  mutable std::mutex mutex_;  // guards rng_, now_ns_, stats_, log_
  std::uint64_t rng_;
  std::uint64_t now_ns_ = 0;
  FetchBackendStats stats_;
  std::vector<NetTransfer> log_;
};

// std::streambuf over a FetchBackend: lets AssetStore::open() parse store
// metadata through the same transfer seam (and the same fault injection)
// as payload reads. Read-only, chunked underflow, forward seeks only via
// the usual istream interface. A backend error during parsing is latched
// in last_error() so the store can surface the typed network error instead
// of misreporting it as a corrupt-section error.
class FetchStreamBuf final : public std::streambuf {
 public:
  explicit FetchStreamBuf(FetchBackend& backend, std::size_t chunk = 1 << 16);

  const std::optional<StreamError>& last_error() const { return error_; }

 protected:
  int_type underflow() override;
  std::streamsize xsgetn(char* s, std::streamsize n) override;
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override;
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override;

 private:
  std::uint64_t current_offset() const;

  FetchBackend* backend_;
  std::vector<char> buf_;
  // Store offset just past the bytes currently in [eback, egptr).
  std::uint64_t next_offset_ = 0;
  std::optional<StreamError> error_;
};

}  // namespace sgs::stream
