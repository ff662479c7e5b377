#include "perfbench/load.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <limits>
#include <sstream>

#include "src/serve/protocol.hpp"

namespace perfbench {

namespace {

/// A connection that makes no progress for this long is a hung run.
constexpr std::int64_t kStallNs = 30'000'000'000;
/// Every n-th learned generation is kept for the offline checks.
constexpr std::size_t kKeptGenerationEvery = 8;

}  // namespace

// --- Conn ---------------------------------------------------------------------

Conn::Conn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("connect 127.0.0.1:" + std::to_string(port) + ": " + error);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::queue(std::string_view line) {
  if (out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  }
  out_.append(line);
  out_.push_back('\n');
}

bool Conn::flush() {
  while (out_pos_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool Conn::wait_and_read(std::int64_t timeout_ns) {
  pollfd pfd{fd_, static_cast<short>(POLLIN | (want_write() ? POLLOUT : 0)), 0};
  const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                         static_cast<long>(timeout_ns % 1'000'000'000)};
  const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
  if (ready < 0) return errno == EINTR;
  if (ready == 0) return true;
  if (pfd.revents & POLLOUT) {
    if (!flush()) return false;
  }
  if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
    if (in_pos_ > 0 && in_pos_ == in_.size()) {
      in_.clear();
      in_pos_ = 0;
    }
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n > 0) {
        in_.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return false;  // peer closed
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
  }
  return true;
}

bool Conn::next_line(std::string& line) {
  const std::size_t end = in_.find('\n', in_pos_);
  if (end == std::string::npos) {
    if (in_pos_ > (1u << 20)) {  // compact a long-consumed prefix
      in_.erase(0, in_pos_);
      in_pos_ = 0;
    }
    return false;
  }
  line.assign(in_, in_pos_, end - in_pos_);
  in_pos_ = end + 1;
  return true;
}

// --- ItemStream ---------------------------------------------------------------------

ItemStream::ItemStream(const std::vector<std::uint32_t>& cold_order,
                       std::size_t hot_items, double hot_fraction,
                       std::uint64_t seed, std::size_t cold_offset)
    : cold_order_(cold_order),
      hot_items_(hot_items),
      hot_threshold_(static_cast<std::uint64_t>(hot_fraction * 1e6)),
      state_(seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL),
      cold_pos_(cold_offset % cold_order.size()) {}

std::uint64_t ItemStream::raw() {
  // xorshift64*
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  return state_ * 0x2545F4914F6CDD1DULL;
}

std::uint32_t ItemStream::next() {
  if (raw() % 1'000'000 < hot_threshold_)
    return kHotBit | static_cast<std::uint32_t>(raw() % hot_items_);
  const std::uint32_t code = cold_order_[cold_pos_];
  cold_pos_ = (cold_pos_ + 1) % cold_order_.size();
  return code;
}

// --- GenerationClock ------------------------------------------------------------------

void GenerationClock::reset() {
  const std::lock_guard lock(mutex_);
  committed_.store(0);
  in_flight_.store(false);
  open_cpu_s_ = 0.0;
  commit_cpu_s_ = 0.0;
  commits_ns_.clear();
}

void GenerationClock::begin_commit() {
  const std::lock_guard lock(mutex_);
  open_cpu_s_ = process_cpu_seconds();
  commits_ns_.emplace_back(now_ns(), std::numeric_limits<std::int64_t>::max());
  in_flight_.store(true);
}

void GenerationClock::end_commit(bool ok) {
  const std::lock_guard lock(mutex_);
  if (ok) committed_.fetch_add(1);
  in_flight_.store(false);
  commit_cpu_s_ += process_cpu_seconds() - open_cpu_s_;
  commits_ns_.back().second = now_ns();
}

double GenerationClock::traffic_cpu_seconds() const {
  const std::lock_guard lock(mutex_);
  const bool open = !commits_ns_.empty() &&
                    commits_ns_.back().second == std::numeric_limits<std::int64_t>::max();
  return (open ? open_cpu_s_ : process_cpu_seconds()) - commit_cpu_s_;
}

bool GenerationClock::in_commit(std::int64_t t_ns) const {
  const std::lock_guard lock(mutex_);
  const auto after = std::upper_bound(
      commits_ns_.begin(), commits_ns_.end(), t_ns,
      [](std::int64_t t, const auto& commit) { return t < commit.first; });
  return after != commits_ns_.begin() && t_ns < std::prev(after)->second;
}

// --- drive_stream ----------------------------------------------------------------------

namespace {

struct Pending {
  std::uint32_t code;
  std::int64_t due_ns;
  std::int64_t sent_ns;
  int gen_lo;
  std::uint64_t seq;
};

}  // namespace

void drive_stream(Conn& conn, const Inputs& inputs, ItemStream& stream,
                  const StreamPlan& plan, const GenerationClock& clock,
                  StreamResult& out, std::stop_token stop) {
  const bool open_loop = plan.period_ns > 0;
  std::deque<Pending> pending;
  std::uint64_t seq = 0;
  std::int64_t next_due = plan.t0_ns;
  std::int64_t last_progress = now_ns();
  std::string line;

  const auto send_one = [&](std::int64_t due, std::int64_t now) {
    const std::uint32_t code = stream.next();
    conn.queue(item_of(inputs, code).line);
    pending.push_back({code, due, now, clock.lower(), seq++});
    ++out.tally.sent;
    out.lag_ms.push_back(static_cast<double>(now - due) / 1e6);
  };

  const auto may_send_more = [&](std::int64_t now) {
    return now < plan.end_ns && (plan.max_requests == 0 || seq < plan.max_requests);
  };
  if (!open_loop) {
    const std::int64_t now = now_ns();
    for (std::size_t i = 0; i < plan.window && may_send_more(now); ++i)
      send_one(now, now);
  }

  for (;;) {
    if (stop.stop_requested()) throw std::runtime_error("load stream stopped");
    std::int64_t now = now_ns();
    if (open_loop) {
      while (next_due <= plan.end_ns && next_due <= now) {
        send_one(next_due, now);
        next_due += plan.period_ns;
      }
    }
    const bool sending_done = open_loop ? next_due > plan.end_ns : !may_send_more(now);
    if (sending_done && pending.empty()) break;
    if (!conn.flush()) {
      out.tally.transport_errors += pending.size();
      return;
    }

    std::int64_t timeout = 20'000'000;
    if (open_loop && !sending_done) timeout = std::min(timeout, next_due - now);
    if (!conn.wait_and_read(std::max<std::int64_t>(timeout, 0))) {
      out.tally.transport_errors += pending.size();
      return;
    }

    now = now_ns();
    while (conn.next_line(line)) {
      if (pending.empty())
        throw CheckFailed("response without a request: " + line);
      const Pending request = pending.front();
      pending.pop_front();
      last_progress = now;
      const Item& item = item_of(inputs, request.code);
      if (line.compare(0, item.sentence.id.size(), item.sentence.id) != 0 ||
          line.size() <= item.sentence.id.size() ||
          line[item.sentence.id.size()] != '\t')
        throw CheckFailed("response out of order: expected id " + item.sentence.id +
                          ", got: " + line.substr(0, 80));
      const std::string status = serve::response_status(line);
      if (status == "OK") {
        ++out.tally.ok;
        const double latency_ns = static_cast<double>(now - request.due_ns);
        out.latency_ms.push_back(latency_ns / 1e6);
        out.done_ns.push_back(now);
        if (request.seq % plan.sample_every == 0)
          out.observed.push_back({request.code, line, request.gen_lo, clock.upper()});
      } else {
        ++out.tally.refused[status.empty() ? "MALFORMED" : status];
      }
      if (out.spans.enabled()) {
        const std::uint64_t id = plan.request_base + request.seq;
        const auto root = out.spans.add("client.request", request.due_ns, now, -1, id);
        out.spans.add("client.wait", request.sent_ns, now, root, id);
      }
      if (!open_loop && may_send_more(now)) send_one(now, now);
    }
    if (!pending.empty() && now - last_progress > kStallNs)
      throw std::runtime_error("load stream stalled: no response for 30 s");
    if (pending.empty()) last_progress = now;
  }
}

// --- drive_learn -------------------------------------------------------------------------

namespace {

/// The fingerprint a learn reply reports ("..., fingerprint <hex>, ...").
std::uint64_t reply_fingerprint(const std::string& reply) {
  const std::size_t at = reply.find("fingerprint ");
  if (at == std::string::npos) return 0;
  return std::stoull(reply.substr(at + 12, 16), nullptr, 16);
}

}  // namespace

void drive_learn(Conn* conn, router::Router& router,
                 std::span<const std::filesystem::path> files, std::int64_t t0_ns,
                 std::int64_t interval_ns, bool idle_tier, GenerationClock& clock,
                 LearnResult& out, std::stop_token stop) {
  std::int64_t last_reply = t0_ns - interval_ns;
  for (std::size_t k = 0; k < files.size(); ++k) {
    const std::int64_t due = std::max(t0_ns + static_cast<std::int64_t>(k) * interval_ns,
                                      last_reply + interval_ns / 2);
    while (now_ns() < due) {
      if (stop.stop_requested()) throw std::runtime_error("learn loop stopped");
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::int64_t>(due - now_ns(), 5'000'000)));
    }
    const std::string command = "learn file " + files[k].string();
    clock.begin_commit();
    ++out.tally.sent;
    const double cpu_start = process_cpu_seconds();
    const std::int64_t start = now_ns();
    std::string reply;
    if (conn != nullptr) {
      conn->queue("#LEARN file " + files[k].string());
      std::string line;
      bool done = false;
      while (!done) {
        if (stop.stop_requested()) throw std::runtime_error("learn loop stopped");
        if (!conn->flush() || !conn->wait_and_read(20'000'000)) {
          ++out.tally.transport_errors;
          clock.end_commit(false);
          return;
        }
        while (conn->next_line(line)) {
          if (line == "#END") {
            done = true;
            break;
          }
          reply += line + '\n';
        }
        if (!done && now_ns() - start > kStallNs)
          throw std::runtime_error("learn commit stalled: no reply for 30 s");
      }
    } else {
      reply = router.admin(command);
    }
    const std::int64_t end = now_ns();
    const double cpu_end = process_cpu_seconds();
    last_reply = end;
    out.replies.push_back(reply);
    if (reply.rfind("OK", 0) != 0) {
      ++out.tally.refused[reply.substr(0, reply.find(' '))];
      clock.end_commit(false);
      continue;
    }
    ++out.tally.ok;
    out.commit_ms.push_back(static_cast<double>(end - start) / 1e6);
    if (idle_tier) out.commit_cpu_ms.push_back((cpu_end - cpu_start) * 1e3);

    // The generation the tier now serves, for the offline checks; its
    // fingerprint must be the one the reply reports. Taken inside the
    // commit window, so tag_cpu_us does not pay for it.
    const std::int64_t snap_start = now_ns();
    auto generation = router.learner()->snapshot_model();
    out.snapshot_ms.push_back(static_cast<double>(now_ns() - snap_start) / 1e6);
    if (generation->fingerprint() != reply_fingerprint(reply))
      throw CheckFailed("learn reply fingerprint differs from the learner "
                        "snapshot: " + reply);
    // Each generation holds its own learned table; keeping a sample of them
    // (and the last) bounds the memory the checks add to peak_rss_mb.
    const bool keep = out.generations.size() % kKeptGenerationEvery == 0 ||
                      k + 1 == files.size();
    out.generations.push_back(keep ? std::move(generation) : nullptr);
    clock.end_commit(true);
  }
}

}  // namespace perfbench
