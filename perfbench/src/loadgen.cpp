#include "loadgen.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "common/error.hpp"

namespace perfbench {

using namespace sring;
using Clock = std::chrono::steady_clock;

namespace {

/// Busy sheds a request may take before it counts as failed (the same
/// budget as net::ClientConfig::busy_retries).
constexpr int kBusyRetries = 8;

/// The live thread count is sampled this often during a pass.
constexpr std::chrono::milliseconds kThreadProbe{100};

/// How long a pass may wait for its last replies once sending stopped.
constexpr std::chrono::seconds kSettleTimeout{60};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Live threads of this process (entries of /proc/self/task).
std::size_t live_threads() {
  std::size_t n = 0;
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (const dirent* ent = ::readdir(d)) {
      if (ent->d_name[0] != '.') ++n;
    }
    ::closedir(d);
  }
  return n;
}

/// Jiffies summed over all CPUs, from /proc/stat.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  std::uint64_t idle = 0;  ///< idle + iowait
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  std::istringstream fields(line);
  std::string label;
  fields >> label;
  CpuTicks t;
  std::uint64_t v = 0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already inside user, so only the first 8 count.
  for (int i = 0; i < 8 && (fields >> v); ++i) {
    t.total += v;
    if (i == 3 || i == 4) t.idle += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw SimError("perfbench: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw SimError("perfbench: connect failed: " + why);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

}  // namespace

// ---------------------------------------------------------------------------

ServedProgram::ServedProgram() {
  net::ServerConfig cfg;
  cfg.shards = 1;
  cfg.runtime.workers = 2;
  server_ = std::make_unique<net::Server>(cfg);
  thread_ = std::thread([this] {
    try {
      server_->run();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  });
}

ServedProgram::~ServedProgram() {
  server_->request_drain();
  thread_.join();
  if (!error_.empty()) {
    std::fprintf(stderr, "perfbench: server loop failed: %s\n", error_.c_str());
  }
}

// ---------------------------------------------------------------------------

struct LoadGen::Conn {
  struct Flight {
    const Request* req = nullptr;
    Clock::time_point sent;
    int retries = 0;
    std::size_t entries_left = 0;  ///< batch entries not yet settled
    bool failed = false;
    bool mismatch = false;
  };

  int fd = -1;
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::map<std::uint32_t, Flight> flights;  ///< by request tag

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  void flush() {
    while (out_pos < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_pos, out.size() - out_pos,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      throw SimError("perfbench: send failed: " + std::string(std::strerror(errno)));
    }
    out.clear();
    out_pos = 0;
  }

  void send(std::span<const std::uint8_t> frame) {
    out.insert(out.end(), frame.begin(), frame.end());
    flush();
  }
};

/// One pass of the closed loop over the connections.
struct LoadGen::Engine {
  struct Retry {
    Clock::time_point due;
    Conn* conn = nullptr;
    std::uint32_t tag = 0;
    std::vector<std::uint32_t> entry_tags;  ///< batch: entries to resend
  };

  std::vector<std::unique_ptr<Conn>>& conns;
  std::size_t window;
  /// Next request for a connection, or nullptr when none is due.
  std::function<const Request*(Conn&)> next;
  PassResult result;
  Clock::time_point start;
  std::vector<Retry> retries;

  void issue(Conn& c, const Request& req) {
    Conn::Flight f;
    f.req = &req;
    f.sent = Clock::now();
    if (req.kind == Kind::kBatch) f.entries_left = req.batch.jobs.size();
    c.flights.emplace(req.tag, f);
    ++result.attempted;
    c.send(req.frame);
  }

  void settle(Conn& c, std::map<std::uint32_t, Conn::Flight>::iterator it) {
    const Conn::Flight& f = it->second;
    const Clock::time_point now = Clock::now();
    if (f.failed) {
      ++result.failed;
      if (f.mismatch) ++result.mismatched;
    } else {
      ++result.completed;
      result.latencies_us.push_back(1e6 * seconds_between(f.sent, now));
    }
    c.flights.erase(it);
  }

  void schedule_retry(Conn& c, Conn::Flight& f, std::uint32_t tag,
                      std::uint32_t after_ms,
                      std::vector<std::uint32_t> entry_tags) {
    ++f.retries;
    ++result.busy_retries;
    retries.push_back({Clock::now() + std::chrono::milliseconds(std::max(1u, after_ms)),
                       &c, tag, std::move(entry_tags)});
  }

  void resend(const Retry& r) {
    const Conn::Flight& f = r.conn->flights.at(r.tag);
    if (r.entry_tags.empty()) {
      r.conn->send(f.req->frame);
      return;
    }
    net::SubmitJobBatchMsg sub;
    sub.tag = r.tag;
    for (const std::uint32_t t : r.entry_tags) {
      sub.jobs.push_back(f.req->batch.jobs[t - 1]);
    }
    std::vector<std::uint8_t> frame;
    net::append_frame(frame, net::MsgType::kSubmitJobBatch,
                      net::encode_submit_job_batch(sub));
    r.conn->send(frame);
  }

  void on_frame(Conn& c, const net::Frame& frame) {
    switch (frame.type) {
      case net::MsgType::kJobResult: {
        const net::JobResultMsg msg =
            net::decode_job_result(frame.payload, frame.version);
        auto it = c.flights.find(msg.tag);
        check(it != c.flights.end(), "perfbench: reply for an unknown tag");
        if (msg.outputs != it->second.req->expected[0]) {
          it->second.failed = it->second.mismatch = true;
        }
        settle(c, it);
        return;
      }
      case net::MsgType::kJobBatchResult: {
        const net::JobBatchResultMsg msg =
            net::decode_job_batch_result(frame.payload, frame.version);
        auto it = c.flights.find(msg.tag);
        check(it != c.flights.end(), "perfbench: reply for an unknown tag");
        Conn::Flight& f = it->second;
        std::vector<std::uint32_t> busy;
        std::uint32_t after_ms = 0;
        for (const net::JobBatchEntryMsg& e : msg.entries) {
          const std::uint32_t t = e.ok ? e.result.tag : e.error.tag;
          check(t >= 1 && t <= f.req->expected.size(),
                "perfbench: batch entry with an unknown tag");
          if (e.ok) {
            if (e.result.outputs != f.req->expected[t - 1]) {
              f.failed = f.mismatch = true;
            }
            --f.entries_left;
          } else if (e.error.code == net::ErrorCode::kBusy &&
                     f.retries < kBusyRetries) {
            busy.push_back(t);
            after_ms = std::max(after_ms, e.error.retry_after_ms);
          } else {
            f.failed = true;
            --f.entries_left;
          }
        }
        if (!busy.empty()) {
          schedule_retry(c, f, msg.tag, after_ms, std::move(busy));
        } else if (f.entries_left == 0) {
          settle(c, it);
        }
        return;
      }
      case net::MsgType::kError: {
        const net::ErrorMsg msg = net::decode_error(frame.payload, frame.version);
        auto it = c.flights.find(msg.tag);
        check(it != c.flights.end(),
              "perfbench: connection-level error: " + msg.message);
        if (msg.code == net::ErrorCode::kBusy && it->second.retries < kBusyRetries) {
          schedule_retry(c, it->second, msg.tag, msg.retry_after_ms, {});
          return;
        }
        std::fprintf(stderr, "perfbench: request %u failed: %s\n", msg.tag,
                     msg.message.c_str());
        it->second.failed = true;
        settle(c, it);
        return;
      }
      default:
        throw SimError("perfbench: unexpected reply frame type");
    }
  }

  void read(Conn& c) {
    std::uint8_t buf[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        continue;
      }
      if (n == 0) throw SimError("perfbench: server closed a connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      throw SimError("perfbench: recv failed: " + std::string(std::strerror(errno)));
    }
    std::size_t at = 0;
    while (true) {
      net::Frame frame;
      std::size_t consumed = 0;
      const auto status = net::try_parse_frame(
          std::span(c.in).subspan(at), net::kDefaultMaxFrameBytes, frame, consumed);
      if (status == net::ParseStatus::kNeedMore) break;
      check(status == net::ParseStatus::kFrame, "perfbench: malformed reply frame");
      at += consumed;
      on_frame(c, frame);
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(at));
  }

  bool busy() const {
    return !retries.empty() ||
           std::any_of(conns.begin(), conns.end(),
                       [](const auto& c) { return !c->flights.empty(); });
  }

  /// Run until `issuing()` turns false and everything in flight settled.
  void run(const std::function<bool()>& issuing) {
    start = Clock::now();
    const double cpu0 = process_cpu_s();
    const double load0 = thread_cpu_s();
    const auto ticks0 = cpu_ticks();
    result.max_threads = live_threads();
    Clock::time_point next_probe = start;
    Clock::time_point settle_deadline{};

    std::vector<pollfd> fds(conns.size());
    while (true) {
      const bool sending = issuing();
      if (sending) {
        for (auto& c : conns) {
          while (c->flights.size() < window) {
            const Request* req = next(*c);
            if (req == nullptr) break;
            issue(*c, *req);
          }
        }
      }
      if (!busy()) break;  // nothing in flight and nothing left to send
      Clock::time_point now = Clock::now();
      if (!sending) {
        if (settle_deadline == Clock::time_point{}) {
          settle_deadline = now + kSettleTimeout;
        }
        check(now < settle_deadline, "perfbench: replies did not arrive in time");
      }
      if (now >= next_probe) {
        result.max_threads = std::max(result.max_threads, live_threads());
        next_probe = now + kThreadProbe;
      }

      int timeout_ms = std::max<int>(
          0, std::chrono::ceil<std::chrono::milliseconds>(next_probe - now).count());
      for (const Retry& r : retries) {
        const auto wait = std::chrono::ceil<std::chrono::milliseconds>(r.due - now);
        timeout_ms = std::min<int>(timeout_ms, std::max<int>(0, wait.count()));
      }
      for (std::size_t i = 0; i < conns.size(); ++i) {
        fds[i] = {conns[i]->fd, POLLIN, 0};
        if (conns[i]->out_pos < conns[i]->out.size()) fds[i].events |= POLLOUT;
      }
      const int n = ::poll(fds.data(), fds.size(), timeout_ms);
      check(n >= 0 || errno == EINTR, "perfbench: poll failed");
      for (std::size_t i = 0; i < conns.size() && n > 0; ++i) {
        if (fds[i].revents & POLLOUT) conns[i]->flush();
        if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) read(*conns[i]);
      }

      now = Clock::now();
      for (std::size_t i = 0; i < retries.size();) {
        if (retries[i].due <= now) {
          const Retry r = std::move(retries[i]);
          retries.erase(retries.begin() + static_cast<std::ptrdiff_t>(i));
          resend(r);
        } else {
          ++i;
        }
      }
    }

    result.wall_s = seconds_between(start, Clock::now());
    result.process_cpu_s = process_cpu_s() - cpu0;
    result.load_thread_cpu_s = thread_cpu_s() - load0;
    const auto ticks1 = cpu_ticks();
    const auto total = static_cast<double>(ticks1.total - ticks0.total);
    const auto busy = total - static_cast<double>(ticks1.idle - ticks0.idle);
    const auto stolen = static_cast<double>(ticks1.steal - ticks0.steal);
    result.steal_share = total > 0.0 ? stolen / total : 0.0;
    result.busy_steal_share = busy > 0.0 ? stolen / busy : 0.0;
    result.max_threads = std::max(result.max_threads, live_threads());
  }
};

// ---------------------------------------------------------------------------

LoadGen::LoadGen(const Workload& workload, std::uint16_t port)
    : workload_(workload) {
  for (std::size_t i = 0; i < workload.connections; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = connect_loopback(port);
    conns_.push_back(std::move(c));
  }
}

LoadGen::~LoadGen() = default;

PassResult LoadGen::run_once(const std::vector<Request>& reqs) {
  std::size_t at = 0;
  Engine e{conns_, workload_.window, {}, {}, {}, {}};
  e.next = [&](Conn&) -> const Request* {
    return at < reqs.size() ? &reqs[at++] : nullptr;
  };
  e.run([&] { return at < reqs.size(); });
  return e.result;
}

PassResult LoadGen::run_timed(double seconds) {
  const auto& pool = workload_.pool;
  check(!pool.empty(), "perfbench: empty request pool");
  Engine e{conns_, workload_.window, {}, {}, {}, {}};
  std::size_t cursor = 0;
  bool exhausted = false;
  e.next = [&](Conn& c) -> const Request* {
    if (!workload_.cyclic) {
      if (next_pool_ >= pool.size()) {
        exhausted = true;
        return nullptr;
      }
      return &pool[next_pool_++];
    }
    // Round-robin over the pool, skipping a request whose tag this
    // connection still has in flight (pools are far larger than the
    // windows, so this is a guard, not a path).
    for (std::size_t tries = 0; tries < pool.size(); ++tries) {
      const Request& r = pool[cursor];
      cursor = (cursor + 1) % pool.size();
      if (!c.flights.contains(r.tag)) return &r;
    }
    return nullptr;
  };
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  e.run([&] { return !exhausted && Clock::now() < deadline; });
  e.result.pool_exhausted = exhausted;
  return e.result;
}

// ---------------------------------------------------------------------------

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

}  // namespace perfbench
