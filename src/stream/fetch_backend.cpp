#include "stream/fetch_backend.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/streaming_trace.hpp"

namespace sgs::stream {
namespace {

// splitmix64: tiny, well-mixed, and stable across platforms — the transfer
// schedule must replay bit-identically anywhere.
std::uint64_t next_u64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double next_unit(std::uint64_t& state) {
  return static_cast<double>(next_u64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

// ---------------------------------------------------------------------------
// LocalFileBackend

LocalFileBackend::LocalFileBackend(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st {};
  if (fd_ < 0 || ::fstat(fd_, &st) != 0) {
    open_error_ = StreamError{StreamErrorKind::kIoOpen, -1, -1,
                              "cannot open .sgsc store: " + path_};
    return;
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
}

LocalFileBackend::~LocalFileBackend() {
  if (fd_ >= 0) ::close(fd_);
}

StreamResult<FetchInfo> LocalFileBackend::read_range(std::uint64_t offset,
                                                     std::span<char> dst) {
  if (open_error_) return *open_error_;
  const std::uint64_t want = dst.size();
  const std::uint64_t t0 = core::stage_clock_ns();
  std::uint64_t got = 0;
  while (got < want) {
    const ssize_t n = ::pread(fd_, dst.data() + got, want - got,
                              static_cast<off_t>(offset + got));
    if (n > 0) {
      got += static_cast<std::uint64_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;  // end of file or a read error: a short read
    }
  }
  const std::uint64_t elapsed = core::stage_clock_ns() - t0;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    ++stats_.requests;
    stats_.busy_ns += elapsed;
    if (got == want) {
      stats_.bytes += got;
      return FetchInfo{got, elapsed};
    }
    ++stats_.partial_reads;
  }
  return StreamError{StreamErrorKind::kIoRead, -1, -1,
                     "short read: " + std::to_string(got) + " of " +
                         std::to_string(want) + " bytes at offset " +
                         std::to_string(offset) + " (" + path_ + ")"};
}

FetchBackendStats LocalFileBackend::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// MemoryBackend

MemoryBackend::MemoryBackend(std::vector<char> bytes)
    : bytes_(std::move(bytes)) {}

std::shared_ptr<MemoryBackend> MemoryBackend::from_file(
    const std::string& path, StreamError* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = StreamError{StreamErrorKind::kIoOpen, -1, -1,
                           "cannot open .sgsc store: " + path};
    }
    return nullptr;
  }
  in.seekg(0, std::ios::end);
  std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0, std::ios::beg);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!in) {
    if (error != nullptr) {
      *error = StreamError{StreamErrorKind::kIoRead, -1, -1,
                           "short read loading store image: " + path};
    }
    return nullptr;
  }
  return std::make_shared<MemoryBackend>(std::move(bytes));
}

StreamResult<FetchInfo> MemoryBackend::read_range(std::uint64_t offset,
                                                  std::span<char> dst) {
  const std::uint64_t want = dst.size();
  {
    std::lock_guard<std::mutex> lk(mutex_);
    ++stats_.requests;
    if (offset > bytes_.size() || want > bytes_.size() - offset) {
      ++stats_.partial_reads;
      return StreamError{StreamErrorKind::kIoRead, -1, -1,
                         "range [" + std::to_string(offset) + ", +" +
                             std::to_string(want) + ") beyond store size " +
                             std::to_string(bytes_.size())};
    }
    stats_.bytes += want;
  }
  if (want > 0) std::memcpy(dst.data(), bytes_.data() + offset, want);
  return FetchInfo{want, 0};
}

std::string MemoryBackend::describe() const {
  return "memory(" + std::to_string(bytes_.size()) + " bytes)";
}

FetchBackendStats MemoryBackend::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// SimulatedNetworkBackend

NetProfile NetProfile::from_name(const std::string& name) {
  NetProfile p;
  if (name == "fast") {
    p.latency_ns = 500'000;  // 0.5 ms
    p.bandwidth_bytes_per_sec = 1'000'000'000;
  } else if (name == "constrained") {
    p.latency_ns = 10'000'000;  // 10 ms
    p.jitter_ns = 2'000'000;
    p.bandwidth_bytes_per_sec = 16'000'000;
  } else if (name == "lossy") {
    p.latency_ns = 25'000'000;  // 25 ms
    p.jitter_ns = 10'000'000;
    p.bandwidth_bytes_per_sec = 8'000'000;
    p.loss_rate = 0.03;
    p.partial_rate = 0.01;
  } else {
    throw std::invalid_argument(
        "unknown net profile '" + name +
        "' (expected one of: fast, constrained, lossy)");
  }
  return p;
}

SimulatedNetworkBackend::SimulatedNetworkBackend(
    std::shared_ptr<FetchBackend> origin, NetProfile profile)
    : origin_(std::move(origin)),
      profile_(profile),
      rng_(0x5353475343ull ^ (static_cast<std::uint64_t>(profile.seed)
                              << 17)) {}

StreamResult<FetchInfo> SimulatedNetworkBackend::read_range(
    std::uint64_t offset, std::span<char> dst) {
  const std::uint64_t want = dst.size();
  std::uint64_t delivered = want;
  std::uint64_t wire_ns = 0;
  std::uint8_t outcome = 0;  // 0 ok, 1 loss/timeout, 2 partial
  {
    std::lock_guard<std::mutex> lk(mutex_);
    // Three draws per request, in a fixed order, regardless of which link
    // features are enabled: the schedule depends only on (seed, request
    // sequence), never on which probabilities happen to be zero.
    const std::uint64_t jitter_draw = next_u64(rng_);
    const double loss_draw = next_unit(rng_);
    const double partial_draw = next_unit(rng_);
    const std::uint64_t jitter =
        profile_.jitter_ns > 0 ? jitter_draw % (profile_.jitter_ns + 1) : 0;
    if (loss_draw < profile_.loss_rate) {
      outcome = 1;
      delivered = 0;
    } else if (partial_draw < profile_.partial_rate) {
      outcome = 2;
      delivered = want / 2;
    }
    // A lost transfer charges the full transfer time (the client waited it
    // out); a partial one charges time for the bytes that made it.
    const std::uint64_t wire_bytes = outcome == 1 ? want : delivered;
    wire_ns = profile_.latency_ns + jitter;
    if (profile_.bandwidth_bytes_per_sec > 0) {
      wire_ns += wire_bytes * 1'000'000'000ull /
                 profile_.bandwidth_bytes_per_sec;
    }
    const std::uint64_t start = now_ns_;
    now_ns_ += wire_ns;
    ++stats_.requests;
    stats_.busy_ns += wire_ns;
    if (outcome == 0) stats_.bytes += delivered;
    if (outcome == 1) ++stats_.timeouts;
    if (outcome == 2) ++stats_.partial_reads;
    if (profile_.record_schedule) {
      log_.push_back(
          NetTransfer{offset, want, delivered, start, now_ns_, outcome});
    }
  }
  if (outcome == 1) {
    return StreamError{StreamErrorKind::kNetTimeout, -1, -1,
                       "simulated transfer of " + std::to_string(want) +
                           " bytes at offset " + std::to_string(offset) +
                           " lost (timed out after " +
                           std::to_string(wire_ns / 1'000'000) + " ms)"};
  }
  if (delivered > 0) {
    StreamResult<FetchInfo> inner =
        origin_->read_range(offset, dst.subspan(0, delivered));
    if (!inner.ok()) return inner.take_error();
  }
  if (outcome == 2) {
    return StreamError{StreamErrorKind::kIoRead, -1, -1,
                       "simulated partial transfer: " +
                           std::to_string(delivered) + " of " +
                           std::to_string(want) + " bytes at offset " +
                           std::to_string(offset)};
  }
  return FetchInfo{delivered, wire_ns};
}

std::string SimulatedNetworkBackend::describe() const {
  return "net(" + std::to_string(profile_.bandwidth_bytes_per_sec / 1'000'000) +
         " MB/s over " + origin_->describe() + ")";
}

FetchBackendStats SimulatedNetworkBackend::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

std::uint64_t SimulatedNetworkBackend::now_ns() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return now_ns_;
}

std::vector<NetTransfer> SimulatedNetworkBackend::transfers() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return log_;
}

// ---------------------------------------------------------------------------
// FetchStreamBuf

FetchStreamBuf::FetchStreamBuf(FetchBackend& backend, std::size_t chunk)
    : backend_(&backend), buf_(std::max<std::size_t>(chunk, 64)) {
  setg(buf_.data(), buf_.data(), buf_.data());
}

std::uint64_t FetchStreamBuf::current_offset() const {
  return next_offset_ - static_cast<std::uint64_t>(egptr() - gptr());
}

FetchStreamBuf::int_type FetchStreamBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  const std::uint64_t size = backend_->size();
  if (next_offset_ >= size) return traits_type::eof();
  const std::uint64_t take =
      std::min<std::uint64_t>(buf_.size(), size - next_offset_);
  StreamResult<FetchInfo> r = backend_->read_range(
      next_offset_, std::span<char>(buf_.data(), take));
  if (!r.ok()) {
    error_ = r.take_error();
    return traits_type::eof();
  }
  next_offset_ += take;
  setg(buf_.data(), buf_.data(), buf_.data() + take);
  return traits_type::to_int_type(*gptr());
}

std::streamsize FetchStreamBuf::xsgetn(char* s, std::streamsize n) {
  std::streamsize copied = 0;
  // Drain whatever is buffered first.
  const std::streamsize buffered =
      std::min<std::streamsize>(n, egptr() - gptr());
  if (buffered > 0) {
    std::memcpy(s, gptr(), static_cast<std::size_t>(buffered));
    gbump(static_cast<int>(buffered));
    copied += buffered;
  }
  const std::streamsize rest = n - copied;
  if (rest <= 0) return copied;
  if (static_cast<std::size_t>(rest) < buf_.size() / 2) {
    // Small tail: refill the buffer and recurse once.
    if (underflow() == traits_type::eof()) return copied;
    return copied + xsgetn(s + copied, rest);
  }
  // Large read (index tables, bulk sections): bypass the buffer.
  const std::uint64_t size = backend_->size();
  if (next_offset_ >= size) return copied;
  const std::uint64_t take = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(rest), size - next_offset_);
  StreamResult<FetchInfo> r = backend_->read_range(
      next_offset_, std::span<char>(s + copied, take));
  if (!r.ok()) {
    error_ = r.take_error();
    return copied;
  }
  next_offset_ += take;
  return copied + static_cast<std::streamsize>(take);
}

FetchStreamBuf::pos_type FetchStreamBuf::seekoff(off_type off,
                                                 std::ios_base::seekdir dir,
                                                 std::ios_base::openmode which) {
  if ((which & std::ios_base::in) == 0) return pos_type(off_type(-1));
  // tellg(): report the position and keep the buffer.
  if (dir == std::ios_base::cur && off == 0) {
    return pos_type(static_cast<off_type>(current_offset()));
  }
  std::int64_t base = 0;
  if (dir == std::ios_base::beg) {
    base = 0;
  } else if (dir == std::ios_base::cur) {
    base = static_cast<std::int64_t>(current_offset());
  } else {
    base = static_cast<std::int64_t>(backend_->size());
  }
  const std::int64_t target = base + off;
  if (target < 0 ||
      target > static_cast<std::int64_t>(backend_->size())) {
    return pos_type(off_type(-1));
  }
  // Drop the buffer; the next underflow refetches at the new position.
  next_offset_ = static_cast<std::uint64_t>(target);
  setg(buf_.data(), buf_.data(), buf_.data());
  return pos_type(static_cast<off_type>(target));
}

FetchStreamBuf::pos_type FetchStreamBuf::seekpos(pos_type pos,
                                                 std::ios_base::openmode which) {
  return seekoff(off_type(pos), std::ios_base::beg, which);
}

}  // namespace sgs::stream
