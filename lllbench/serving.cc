// The serving workloads, serve-hot and serve-churn: a seeded catalog
// document, seeded request streams, the real lll_serverd daemon over
// loopback TCP, and a one-thread open-loop load generator on at most three
// connections. Every expected answer is computed from the generator's own
// data, never by the engine under test.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.h"
#include "serving.h"

namespace lllbench {

// ---------------------------------------------------------------------------
// Catalog and request streams

Catalog MakeCatalog(uint64_t seed, int groups, int per_group) {
  InputRng rng(seed);
  Catalog cat;
  cat.groups = groups;
  cat.xml = "<catalog>";
  for (int g = 0; g < groups; ++g) {
    cat.xml += "<g id=\"g" + std::to_string(g) + "\">";
    for (int i = 0; i < per_group; ++i) {
      Item item;
      item.key = static_cast<int>(cat.items.size());
      item.group = g;
      item.price = static_cast<int>(rng.Below(1000));
      item.name = "nm" + std::to_string(rng.Below(1000000000));
      cat.xml += "<item id=\"i" + std::to_string(item.key) + "\" n=\"" +
                 std::to_string(item.key) + "\" price=\"" +
                 std::to_string(item.price) + "\"><name>" + item.name +
                 "</name><note>n</note></item>";
      cat.items.push_back(std::move(item));
    }
    cat.xml += "</g>";
  }
  cat.xml += "</catalog>";
  return cat;
}

int Catalog::CountAbove(int group, int threshold) const {
  int n = 0;
  for (const Item& item : items) {
    if (item.group == group && item.price > threshold) ++n;
  }
  return n;
}

namespace {

std::string GroupId(int g) { return "g" + std::to_string(g); }
std::string ItemId(int k) { return "i" + std::to_string(k); }

std::string PointLookup(const Item& item) {
  return "string(//item[@id=\"" + ItemId(item.key) + "\"]/name)";
}
std::string GroupScan(int group, int threshold) {
  return "count(//g[@id=\"" + GroupId(group) + "\"]/item[@price > " +
         std::to_string(threshold) + "])";
}

}  // namespace

std::vector<MixQuery> HotMix(const Catalog& cat, uint64_t seed) {
  InputRng rng(seed ^ 0x686f74ull);
  const int n = static_cast<int>(cat.items.size());
  const int group_a = static_cast<int>(rng.Below(cat.groups));
  const int group_b = static_cast<int>(rng.Below(cat.groups));
  std::vector<MixQuery> mix;
  // E13's early-exit shape.
  mix.push_back({"string((//item)[1]/@id)", ItemId(0)});
  // E14's reverse-axis shape.
  mix.push_back({"string((//g[@id=\"" + GroupId(group_b) +
                     "\"]/item)[last()]/ancestor::g/@id)",
                 GroupId(group_b)});
  // Aggregates.
  mix.push_back({"count(//item)", std::to_string(n)});
  mix.push_back({GroupScan(group_a, 500),
                 std::to_string(cat.CountAbove(group_a, 500))});
  // Hot [@id] lookups.
  for (int i = 0; i < 4; ++i) {
    const Item& item = cat.items[rng.Below(n)];
    mix.push_back({PointLookup(item), item.name});
  }
  const Item& up = cat.items[rng.Below(n)];
  mix.push_back({"string(//item[@id=\"" + ItemId(up.key) +
                     "\"]/ancestor::g/@id)",
                 GroupId(up.group)});
  return mix;
}

namespace {

constexpr char kDoc[] = "cat";

Request QueryRequest(int conn, double at, const std::string& xq,
                     const std::string& expected) {
  return Request{Kind::kRead, conn, at,
                 "query c" + std::to_string(conn) + " " + kDoc + " " + xq,
                 expected};
}

}  // namespace

// Churn key space: every item's point lookup, then every (group,
// threshold) scan. Zipf ranks map to keys through a seeded permutation so
// the popular keys differ per seed.
ChurnKeys::ChurnKeys(const Catalog& cat, uint64_t seed)
    : cat_(&cat),
      size_(cat.items.size() + static_cast<size_t>(cat.groups) * kThresholds),
      zipf_(size_, kZipfS),
      perm_(size_) {
  std::iota(perm_.begin(), perm_.end(), 0);
  InputRng rng(seed ^ 0x6b657973ull);
  for (size_t i = perm_.size(); i > 1; --i) {
    std::swap(perm_[i - 1], perm_[rng.Below(i)]);
  }
}

MixQuery ChurnKeys::Draw(InputRng& rng) const {
  const size_t key = perm_[zipf_.Sample(rng)];
  if (key < cat_->items.size()) {
    const Item& item = cat_->items[key];
    return {PointLookup(item), item.name};
  }
  const size_t scan = key - cat_->items.size();
  const int group = static_cast<int>(scan / kThresholds);
  const int threshold = static_cast<int>(scan % kThresholds) * 20;
  return {GroupScan(group, threshold),
          std::to_string(cat_->CountAbove(group, threshold))};
}

UpdateCycle::UpdateCycle(const Catalog& cat)
    : cat_(&cat), renamed_(cat.items.size(), false) {}

// One statement per call, cycling insert, delete, replace, rename. The
// insert/delete pair targets one item, so each cycle leaves the document
// the same size; every statement selects exactly one <note>-style node,
// which no read returns.
std::string UpdateCycle::Next(InputRng& rng) {
  const int n = static_cast<int>(cat_->items.size());
  const int step = step_++ % 4;
  if (step == 0) pair_item_ = static_cast<int>(rng.Below(n));
  const int key = step <= 1 ? pair_item_ : static_cast<int>(rng.Below(n));
  const Item& item = cat_->items[key];
  const std::string path = "/catalog/g[@id=\"" + GroupId(item.group) +
                           "\"]/item[@id=\"" + ItemId(item.key) + "\"]";
  switch (step) {
    case 0:
      return "insert <note>u" + std::to_string(step_) + "</note> into " + path;
    case 1:
      return "delete " + path + "/*[last()]";
    case 2:
      renamed_[key] = false;
      return "replace " + path + "/*[2] with <note>r" + std::to_string(step_) +
             "</note>";
    default: {
      const bool to_memo = !renamed_[key];
      renamed_[key] = to_memo;
      return "rename " + path + "/*[2] as " + (to_memo ? "memo" : "note");
    }
  }
}

std::vector<Request> MakeStream(const WorkloadShape& shape,
                                const Catalog& cat, uint64_t seed,
                                uint64_t stream_seed, double read_rate,
                                double duration_s, UpdateCycle* updates) {
  InputRng rng(stream_seed);
  std::vector<Request> out;
  std::vector<int> reads_on(shape.reader_conns, 0);
  if (shape.churn) {
    ChurnKeys keys(cat, seed);
    int next_conn = 0;
    for (double t = rng.Exponential(read_rate); t < duration_s;
         t += rng.Exponential(read_rate)) {
      const int conn = next_conn;
      next_conn = (next_conn + 1) % shape.reader_conns;
      if (++reads_on[conn] % kRefreshEvery == 0) {
        out.push_back(Request{Kind::kRefresh, conn, t, "refresh", "ok"});
      }
      MixQuery q = keys.Draw(rng);
      out.push_back(QueryRequest(conn, t, q.xq, q.expected));
    }
    // Updates at a fixed share of the read rate, evenly spaced, on the
    // writer connection.
    const double update_rate = read_rate * kUpdateShare;
    std::vector<Request> writes;
    for (double t = 0.5 / update_rate; t < duration_s; t += 1.0 / update_rate) {
      writes.push_back(Request{Kind::kUpdate, shape.reader_conns, t,
                               std::string("update ") + kDoc + " " +
                                   updates->Next(rng),
                               kUpdateReply});
    }
    std::vector<Request> merged;
    merged.reserve(out.size() + writes.size());
    std::merge(out.begin(), out.end(), writes.begin(), writes.end(),
               std::back_inserter(merged),
               [](const Request& a, const Request& b) { return a.at < b.at; });
    return merged;
  }
  const std::vector<MixQuery> mix = HotMix(cat, seed);
  int next_conn = 0;
  for (double t = rng.Exponential(read_rate); t < duration_s;
       t += rng.Exponential(read_rate)) {
    const MixQuery& q = mix[rng.Below(mix.size())];
    out.push_back(QueryRequest(next_conn, t, q.xq, q.expected));
    next_conn = (next_conn + 1) % shape.reader_conns;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The daemon

namespace {

int PickFreePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  int port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

int TryConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

Daemon::~Daemon() { Stop(); }

bool Daemon::Start(const std::string& binary,
                   const std::vector<std::string>& extra_args,
                   const std::string& log_path) {
  port_ = PickFreePort();
  if (port_ == 0) return false;
  std::vector<std::string> args = {binary, "--port", std::to_string(port_)};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    int devnull = ::open("/dev/null", O_RDONLY);
    int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (devnull >= 0) ::dup2(devnull, 0);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  return true;
}

int Daemon::Connect(double timeout_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    int fd = TryConnect(port_);
    if (fd >= 0) return fd;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return -1;
}

double Daemon::PeakRss() const { return pid_ > 0 ? PeakRssMb(pid_) : 0.0; }

double Daemon::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

// ---------------------------------------------------------------------------
// Connections and the open-loop generator

Connection::Connection(int fd) : fd_(fd) {
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}
Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::Send(const std::string& line) {
  out_ += line;
  out_ += '\n';
  return Flush();
}

bool Connection::Flush() {
  while (!out_.empty()) {
    ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    out_.erase(0, static_cast<size_t>(n));
  }
  return true;
}

bool Connection::ReadReplies(std::vector<std::vector<std::string>>* replies) {
  char buf[65536];
  for (;;) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    in_.append(buf, static_cast<size_t>(n));
  }
  // Acknowledge at once: the daemon's sockets run Nagle's algorithm, so a
  // delayed ACK here would hold its next pipelined reply back.
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  size_t start = 0;
  for (;;) {
    size_t nl = in_.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = in_.substr(start, nl - start);
    start = nl + 1;
    if (line == ".") {
      replies->push_back(std::move(lines_));
      lines_.clear();
    } else {
      lines_.push_back(std::move(line));
    }
  }
  in_.erase(0, start);
  return true;
}

std::vector<std::string> Connection::Call(const std::string& line,
                                          double timeout_s) {
  std::vector<std::vector<std::string>> replies;
  if (!Send(line)) return {"error: send failed"};
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (replies.empty()) {
    const double left_ms = MsSince(Clock::now(), deadline);
    if (left_ms <= 0) return {"error: timed out"};
    pollfd p{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)),
             0};
    ::poll(&p, 1, static_cast<int>(left_ms) + 1);
    if (!Flush() || !ReadReplies(&replies)) return {"error: connection lost"};
  }
  return replies.front();
}

std::string Request::Body() const {
  // "query <tenant> <doc> <xq>" or "update <doc> <statement>".
  size_t pos = 0;
  for (int words = kind == Kind::kRead ? 3 : 2; words > 0; --words) {
    pos = line.find(' ', pos);
    if (pos == std::string::npos) return std::string();
    ++pos;
  }
  return line.substr(pos);
}

// Checks one reply against its request's expected answer. Query answers
// are the lines between the "snapshot" header and the terminator.
bool ReplyMatches(const Request& req, const std::vector<std::string>& reply) {
  if (reply.empty()) return false;
  switch (req.kind) {
    case Kind::kRead: {
      if (reply[0].rfind("snapshot ", 0) != 0) return false;
      std::string body;
      for (size_t i = 1; i < reply.size(); ++i) {
        if (i > 1) body += '\n';
        body += reply[i];
      }
      return body == req.expected;
    }
    case Kind::kUpdate:
      return reply.size() == 1 && reply[0].rfind("published version ", 0) == 0 &&
             reply[0].size() >= req.expected.size() &&
             reply[0].compare(reply[0].size() - req.expected.size(),
                              std::string::npos, req.expected) == 0;
    case Kind::kRefresh:
      return reply.size() == 1 && reply[0] == req.expected;
  }
  return false;
}

namespace {

// How long before a due send the generator stops sleeping.
constexpr double kSpinWindowUs = 500;

struct Pending {
  size_t index;
  Clock::time_point scheduled;
  Clock::time_point sent;
};

}  // namespace

PhaseResult RunOpenLoop(std::vector<std::unique_ptr<Connection>>& conns,
                        const std::vector<Request>& requests,
                        const PhaseLimits& limits) {
  PhaseResult r;
  std::vector<std::deque<Pending>> pending(conns.size());
  size_t outstanding = 0;
  size_t next = 0;
  bool broken = false;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto at = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(requests[i].at));
  };
  const double span_s = requests.empty() ? 0.0 : requests.back().at;
  const Clock::time_point hard_deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(span_s + limits.drain_s));
  std::vector<pollfd> fds(conns.size());
  std::vector<std::vector<std::string>> replies;
  Clock::time_point last_reply = t0;

  while (!broken) {
    Clock::time_point now = Clock::now();
    while (next < requests.size() && at(next) <= now) {
      const Request& req = requests[next];
      if (outstanding > limits.max_backlog) {
        // Hopelessly behind: abandon the rest of the phase. What was not
        // sent counts as failed.
        r.abandoned = requests.size() - next;
        next = requests.size();
        break;
      }
      const Clock::time_point sent = Clock::now();
      r.lag_ms.Add(MsSince(at(next), sent));
      if (!conns[req.conn]->Send(req.line)) {
        broken = true;
        break;
      }
      pending[req.conn].push_back(Pending{next, at(next), sent});
      ++outstanding;
      r.max_backlog = std::max(r.max_backlog, outstanding);
      ++next;
      now = Clock::now();
    }
    if (broken) break;
    if (next == requests.size() && outstanding == 0) break;
    if (now > hard_deadline) {
      r.timed_out = outstanding;
      break;
    }
    Clock::time_point wake =
        next < requests.size() ? std::min(at(next), hard_deadline)
                               : hard_deadline;
    for (size_t c = 0; c < conns.size(); ++c) {
      fds[c] = pollfd{conns[c]->fd(),
                      static_cast<short>(POLLIN | (conns[c]->has_output()
                                                       ? POLLOUT
                                                       : 0)),
                      0};
    }
    // Sleep until shortly before the next send is due, then busy-poll: a
    // sleeping thread wakes up too late (up to milliseconds on an idle
    // virtual CPU) to keep an open-loop schedule, and one that only spins
    // loses its CPU to the daemon's threads for whole scheduler slices.
    const double wait_us =
        std::max(0.0, UsSince(Clock::now(), wake) - kSpinWindowUs);
    timespec ts{static_cast<time_t>(wait_us / 1e6),
                static_cast<long>(std::fmod(wait_us, 1e6) * 1000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      broken = true;
      break;
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].revents == 0) continue;
      replies.clear();
      if (!conns[c]->Flush() || !conns[c]->ReadReplies(&replies)) {
        broken = true;
        break;
      }
      const Clock::time_point got = Clock::now();
      for (const auto& reply : replies) {
        if (pending[c].empty()) {
          ++r.unexpected;
          continue;
        }
        const Pending p = pending[c].front();
        pending[c].pop_front();
        --outstanding;
        last_reply = got;
        const Request& req = requests[p.index];
        ++r.attempted;
        const bool ok = ReplyMatches(req, reply);
        if (!ok) {
          ++r.failed;
          if (reply.empty() || (reply[0].rfind("error", 0) != 0 &&
                                reply[0].rfind("rejected", 0) != 0)) {
            ++r.wrong;
          }
          if (r.first_failure.empty()) {
            r.first_failure = req.line + " -> " +
                              (reply.empty() ? std::string("<empty>")
                                             : reply[0]);
          }
        }
        if (req.kind == Kind::kRead) {
          r.read_ms.Add(MsSince(p.scheduled, got));
          if (ok) ++r.reads_ok;
        } else if (req.kind == Kind::kUpdate) {
          r.update_ms.Add(MsSince(p.sent, got));
        }
      }
    }
  }
  r.broken = broken;
  // Whatever never came back is a failure: timeouts, cut-off replies,
  // abandoned sends.
  r.attempted += outstanding + r.abandoned;
  r.failed += outstanding + r.abandoned + r.unexpected;
  r.elapsed_s = std::max(1e-9, MsSince(t0, last_reply) / 1000.0);
  return r;
}

// ---------------------------------------------------------------------------
// Daemon metrics

double JsonNumber(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  size_t pos = json.find(key);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + key.size(), nullptr);
}

std::string FetchMetrics(Connection& conn) {
  std::vector<std::string> reply = conn.Call("metrics", 10.0);
  std::string json;
  for (const std::string& line : reply) json += line + "\n";
  return json;
}

}  // namespace lllbench
