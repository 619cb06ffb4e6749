// Inputs, daemon control and the open-loop generator of the serving
// workloads (serving.cc), shared by the timed and the traced runs.
#ifndef LLLBENCH_SERVING_H_
#define LLLBENCH_SERVING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace lllbench {

// The daemon's cache capacities (ServerOptions defaults), which the
// in-process replica of the traced run uses too.
constexpr size_t kPlanCacheCapacity = 256;
constexpr size_t kNodeSetCacheCapacity = 128;

// serve-churn: readers refresh their pins every kRefreshEvery reads;
// updates arrive at kUpdateShare of the read rate; scans use kThresholds
// price thresholds per group; keys are Zipf(kZipfS).
constexpr int kRefreshEvery = 20;
constexpr double kUpdateShare = 0.1;
constexpr int kThresholds = 50;
constexpr double kZipfS = 0.6;
// Every update selects exactly one node.
constexpr char kUpdateReply[] = "(1 statements, 1 target nodes)";

struct Item {
  int key = 0;
  int group = 0;
  int price = 0;
  std::string name;
};

// <catalog><g id="gG"><item id="iK" n="K" price="P"><name>..</name>
// <note>n</note></item>..</g>..</catalog>, with the generator's own record
// of every item, from which all expected answers are computed.
struct Catalog {
  int groups = 0;
  std::vector<Item> items;
  std::string xml;
  int CountAbove(int group, int threshold) const;
};
Catalog MakeCatalog(uint64_t seed, int groups, int per_group);

struct MixQuery {
  std::string xq;
  std::string expected;
};

// serve-hot's fixed query mix (9 distinct queries).
std::vector<MixQuery> HotMix(const Catalog& cat, uint64_t seed);

class ChurnKeys {
 public:
  ChurnKeys(const Catalog& cat, uint64_t seed);
  MixQuery Draw(InputRng& rng) const;

 private:
  const Catalog* cat_;
  size_t size_;
  Zipf zipf_;
  std::vector<size_t> perm_;
};

// The writer's statement sequence (insert, delete, replace, rename, ...).
class UpdateCycle {
 public:
  explicit UpdateCycle(const Catalog& cat);
  std::string Next(InputRng& rng);

 private:
  const Catalog* cat_;
  std::vector<bool> renamed_;
  int step_ = 0;
  int pair_item_ = 0;
};

enum class Kind { kRead, kUpdate, kRefresh };

// One line of the protocol, due `at` seconds after its phase starts, on
// connection `conn`, with the reply the generator's data predicts.
struct Request {
  Kind kind;
  int conn;
  double at;
  std::string line;
  std::string expected;
  // The query or update text: the line without its verb and arguments.
  std::string Body() const;
};

// The load generator's connections: serve-hot reads on all of them,
// serve-churn reads on two and writes on the third.
constexpr int kConnections = 3;

struct WorkloadShape {
  bool churn = false;
  int reader_conns = kConnections;
  int groups = 100;  // catalog shape
  int per_group = 100;
  double nominal_rate = 0;   // reads/s of the nominal phase, ladder rung 0
  double read_limit_ms = 0;  // read p99 limit of the ladder
  double rung_s = 1.0;       // duration of one ladder rung
};

// The request stream of one phase: reads at Poisson arrivals of
// `read_rate`, plus (serve-churn) updates and refreshes. The workload
// `seed` fixes the query mix and the key popularity; `stream_seed` the
// arrivals and draws of this phase.
std::vector<Request> MakeStream(const WorkloadShape& shape, const Catalog& cat,
                                uint64_t seed, uint64_t stream_seed,
                                double read_rate, double duration_s,
                                UpdateCycle* updates);

// lll_serverd as a child process on a free loopback port.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& binary,
             const std::vector<std::string>& extra_args,
             const std::string& log_path);
  // Connects, retrying until the daemon listens; -1 on timeout or exit.
  int Connect(double timeout_s);
  double PeakRss() const;
  // CPU time (user + system, all threads) the daemon has used, in seconds.
  double CpuSeconds() const;
  void Stop();

 private:
  int pid_ = -1;
  int port_ = 0;
};

// A non-blocking client connection speaking the line protocol.
class Connection {
 public:
  explicit Connection(int fd);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  bool has_output() const { return !out_.empty(); }
  bool Send(const std::string& line);
  bool Flush();
  // Appends every complete reply (lines before a lone ".") to `replies`.
  bool ReadReplies(std::vector<std::vector<std::string>>* replies);
  // Synchronous request/reply.
  std::vector<std::string> Call(const std::string& line, double timeout_s);

 private:
  int fd_;
  std::string out_;
  std::string in_;
  std::vector<std::string> lines_;
};

bool ReplyMatches(const Request& req, const std::vector<std::string>& reply);

struct PhaseLimits {
  double drain_s = 10.0;        // wait for replies after the last send
  size_t max_backlog = 100000;  // abandon the phase beyond this
};

struct PhaseResult {
  Samples read_ms;    // scheduled send -> terminating "."
  Samples update_ms;  // send -> "published version" reply
  Samples lag_ms;     // actual send - scheduled send
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  // well-formed replies with a wrong answer
  uint64_t reads_ok = 0;
  uint64_t unexpected = 0;
  size_t max_backlog = 0;
  size_t timed_out = 0;
  size_t abandoned = 0;
  bool broken = false;
  double elapsed_s = 0;  // phase start -> last reply
  std::string first_failure;
};

PhaseResult RunOpenLoop(std::vector<std::unique_ptr<Connection>>& conns,
                        const std::vector<Request>& requests,
                        const PhaseLimits& limits);

std::string FetchMetrics(Connection& conn);
double JsonNumber(const std::string& json, const std::string& name);

}  // namespace lllbench

#endif  // LLLBENCH_SERVING_H_
