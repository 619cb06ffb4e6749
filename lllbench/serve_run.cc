// serve-hot and serve-churn: the timed run (end-to-end metrics over the
// wire) and the traced run (the same stream replayed through each layer's
// public functions, answers cross-checked against the daemon's).
#include <filesystem>
#include <fstream>
#include <memory>

#include "bench.h"
#include "persist/doc_snapshot.h"
#include "server/server.h"
#include "serving.h"
#include "xml/parser.h"
#include "xquery/engine.h"
#include "xquery/query_cache.h"
#include "xquery/update_eval.h"

namespace lllbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupReps = 5;
// Median send lag beyond which the load generator has fallen behind.
constexpr double kBehindMs = 1.0;
// Share of a serving run's measured seconds spent in the nominal phase;
// the ladder gets the rest.
constexpr double kNominalShare = 0.6;
// serve-churn's warm-up: one second of its traffic at this read rate.
constexpr double kFillReads = 1000;
constexpr char kDoc[] = "cat";

WorkloadShape ShapeFor(const std::string& workload) {
  WorkloadShape s;
  if (workload == "serve-hot") {
    s.churn = false;
    s.reader_conns = 3;
    s.groups = 100;
    s.per_group = 100;  // 10,000 items
    s.nominal_rate = 8000;
    s.read_limit_ms = 10.0;
    s.rung_s = 1.0;
  } else {
    s.churn = true;
    s.reader_conns = 2;
    s.groups = 20;
    s.per_group = 50;  // 1,000 items
    s.nominal_rate = 200;
    s.read_limit_ms = 25.0;
    s.rung_s = 1.5;
  }
  return s;
}

double RungRate(const WorkloadShape& s, int k) {
  return s.nominal_rate * std::pow(2.0, k / 8.0);
}

// The boot a fresh daemon gets: serve-hot parses the catalog XML,
// serve-churn warm-boots from a state directory written beforehand.
struct Boot {
  std::string xml_path;
  std::string state_dir;
  std::string log_path;
};

Boot PrepareBoot(const Options& o, const WorkloadShape& shape,
                 const Catalog& cat, std::string* error) {
  Boot b;
  fs::create_directories(o.workdir);
  b.xml_path = fs::absolute(fs::path(o.workdir) / "catalog.xml").string();
  b.log_path = (fs::path(o.workdir) / "serverd.log").string();
  {
    std::ofstream out(b.xml_path);
    out << cat.xml;
  }
  if (!shape.churn) return b;
  b.state_dir = fs::absolute(fs::path(o.workdir) / "state").string();
  fs::remove_all(b.state_dir);
  Daemon d;
  if (!d.Start(o.serverd, {}, b.log_path)) {
    *error = "cannot start lll_serverd";
    return b;
  }
  int fd = d.Connect(30);
  if (fd < 0) {
    *error = "cannot connect to lll_serverd";
    return b;
  }
  Connection c(fd);
  if (c.Call(std::string("load ") + kDoc + " " + b.xml_path, 60) !=
          std::vector<std::string>{"ok"} ||
      c.Call("save " + b.state_dir, 60) != std::vector<std::string>{"ok"}) {
    *error = "cannot write the warm-boot state directory";
  }
  return b;
}

std::vector<std::string> DaemonArgs(const Boot& b) {
  if (b.state_dir.empty()) return {};
  return {"--state-dir", b.state_dir};
}

// What a fresh daemon answers before it counts as set up. serve-hot: the
// whole mix on every connection (every plan compiled, every chain
// interned, every session pinned). serve-churn: kFillReads reads of the
// workload's own traffic, updates and refreshes included, sent at once --
// its plan and node-set caches take that long to fill, and reads get
// slower as they fill, so this is the warm-up to the steady state.
std::vector<Request> WarmupRequests(const WorkloadShape& shape,
                                    const Catalog& cat, uint64_t seed,
                                    UpdateCycle* updates) {
  if (shape.churn) {
    std::vector<Request> out = MakeStream(shape, cat, seed, seed * 31 + 7,
                                          kFillReads, 1.0, updates);
    for (Request& r : out) r.at = 0;
    return out;
  }
  std::vector<Request> out;
  for (int c = 0; c < kConnections; ++c) {
    for (const MixQuery& q : HotMix(cat, seed)) {
      out.push_back(Request{Kind::kRead, c, 0,
                            "query c" + std::to_string(c) + " " + kDoc + " " +
                                q.xq,
                            q.expected});
    }
  }
  return out;
}

// Starts a daemon, connects and (serve-hot) loads the catalog.
bool StartDaemon(const Options& o, const WorkloadShape& shape,
                 const Boot& boot, Daemon* d,
                 std::vector<std::unique_ptr<Connection>>* conns,
                 std::string* error) {
  if (!d->Start(o.serverd, DaemonArgs(boot), boot.log_path)) {
    *error = "cannot start lll_serverd";
    return false;
  }
  conns->clear();
  for (int c = 0; c < kConnections; ++c) {
    int fd = d->Connect(30);
    if (fd < 0) {
      *error = "cannot connect to lll_serverd";
      return false;
    }
    conns->push_back(std::make_unique<Connection>(fd));
  }
  if (!shape.churn) {
    std::vector<std::string> r = (*conns)[0]->Call(
        std::string("load ") + kDoc + " " + boot.xml_path, 60);
    if (r != std::vector<std::string>{"ok"}) {
      *error = "load failed: " + (r.empty() ? std::string() : r[0]);
      return false;
    }
  }
  return true;
}

// Sends the warm-up requests: one at a time (serve-hot), or all at once
// (serve-churn). False, with the first failure in `error`, unless every
// answer is right.
bool WarmUp(const WorkloadShape& shape, const std::vector<Request>& requests,
            std::vector<std::unique_ptr<Connection>>& conns,
            std::string* error) {
  if (shape.churn) {
    PhaseLimits burst;
    burst.drain_s = 60;
    burst.max_backlog = requests.size() + 1;
    PhaseResult r = RunOpenLoop(conns, requests, burst);
    if (r.failed != 0 || r.broken) {
      *error = "warm-up failed: " + r.first_failure;
      return false;
    }
    return true;
  }
  for (const Request& req : requests) {
    std::vector<std::string> r = conns[req.conn]->Call(req.line, 60);
    if (!ReplyMatches(req, r)) {
      *error = "warm-up answer wrong: " + req.line + " -> " +
               (r.empty() ? std::string() : r[0]);
      return false;
    }
  }
  return true;
}

// Calls `each` on the workload's requests in schedule order until it
// returns false: the stream of `stream_seed` over `chunk_s` seconds, then
// further seeded chunks, so that no more of the stream is built than used.
template <typename Fn>
void ForEachRequest(const WorkloadShape& shape, const Catalog& cat,
                    uint64_t seed, uint64_t stream_seed, double chunk_s,
                    UpdateCycle* updates, Fn each) {
  for (uint64_t chunk = 0;; ++chunk) {
    for (const Request& req :
         MakeStream(shape, cat, seed, stream_seed + chunk * 104729,
                    shape.nominal_rate, chunk_s, updates)) {
      if (!each(req)) return;
    }
  }
}

bool RungPasses(const WorkloadShape& shape, PhaseResult& r) {
  return r.failed == 0 && r.abandoned == 0 && !r.broken &&
         r.read_ms.Percentile(99) <= shape.read_limit_ms &&
         r.lag_ms.Percentile(99) <= shape.read_limit_ms / 2;
}

PhaseLimits LimitsAt(const WorkloadShape& shape, double rate) {
  PhaseLimits l;
  l.drain_s = 30.0;
  // A backlog of four latency limits' worth of arrivals cannot meet the
  // limit any more: stop offering load and let the rung fail.
  l.max_backlog = static_cast<size_t>(
      std::max(256.0, 4.0 * rate * shape.read_limit_ms / 1000.0));
  return l;
}

// Counts of a phase that are failures of the program rather than of an
// over-capacity ladder rung: errors and wrong answers.
uint64_t ProgramFailures(const PhaseResult& r) {
  return r.failed - r.abandoned - r.timed_out;
}

}  // namespace

RunResult RunServing(const Options& o) {
  RunResult res;
  const WorkloadShape shape = ShapeFor(o.workload);
  const Catalog cat = MakeCatalog(o.seed, shape.groups, shape.per_group);
  std::string error;
  const Boot boot = PrepareBoot(o, shape, cat, &error);
  if (!error.empty()) {
    res.invalid = error;
    return res;
  }

  // Set-up, several times: process start, boot and warm-up until the last
  // warm-up answer. The last daemon stays up for the measurement.
  Samples setup_s;
  Daemon daemons[kSetupReps];
  std::vector<std::unique_ptr<Connection>> conns;
  std::unique_ptr<UpdateCycle> updates;
  for (int i = 0; i < kSetupReps; ++i) {
    if (i > 0) daemons[i - 1].Stop();
    updates = std::make_unique<UpdateCycle>(cat);
    const std::vector<Request> warmup =
        WarmupRequests(shape, cat, o.seed, updates.get());
    const Clock::time_point t0 = Clock::now();
    if (!StartDaemon(o, shape, boot, &daemons[i], &conns, &error) ||
        !WarmUp(shape, warmup, conns, &error)) {
      res.invalid = error;
      return res;
    }
    setup_s.Add(MsSince(t0, Clock::now()) / 1000.0);
    res.attempted += warmup.size() + (shape.churn ? 0 : 1);
  }
  Daemon& daemon = daemons[kSetupReps - 1];

  // Nominal phase: latency at the workload's nominal open-loop rate.
  const double nominal_s = o.seconds * kNominalShare;
  std::vector<Request> stream =
      MakeStream(shape, cat, o.seed, o.seed, shape.nominal_rate, nominal_s,
                 updates.get());
  if (o.corrupt_expected) {
    for (Request& r : stream) {
      if (r.kind == Kind::kRead) {
        r.expected += "#corrupted";
        break;
      }
    }
  }
  // No backlog limit here: a stall of the host delays the reads behind it,
  // and they count, late.
  PhaseLimits unlimited = LimitsAt(shape, shape.nominal_rate);
  unlimited.max_backlog = stream.size() + 1;
  const double cpu_before = daemon.CpuSeconds();
  PhaseResult nominal = RunOpenLoop(conns, stream, unlimited);
  const double nominal_cpu_s = daemon.CpuSeconds() - cpu_before;
  res.attempted += nominal.attempted;
  res.failed += nominal.failed;
  if (nominal.broken || nominal.timed_out > 0) {
    res.invalid = "nominal phase lost its connection or timed out";
  }
  // The generator fell behind when its typical send is late; a host that
  // stalls the whole machine for milliseconds shows in the lag p99 (and in
  // every latency) but leaves the median on schedule.
  if (nominal.lag_ms.Percentile(50) > kBehindMs) {
    res.invalid = "the load generator fell behind its schedule";
  }
  // The daemon's counters after the nominal phase, before the ladder's
  // load-dependent search.
  const std::string metrics_json = FetchMetrics(*conns[0]);

  // Ladder: the highest rung whose read p99 meets the limit with no
  // growing backlog. Rung 0 is the nominal rate, measured above. Gallop by
  // a factor of two (8 rungs) away from it, then bisect between the last
  // pass and the first failure.
  const Clock::time_point ladder_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds - nominal_s));
  auto time_left = [&] { return MsSince(Clock::now(), ladder_end) / 1000.0; };
  int rungs = 1;
  double achieved = nominal.reads_ok / nominal.elapsed_s;
  auto test = [&](int k) {
    const double rate = RungRate(shape, k);
    std::vector<Request> rung =
        MakeStream(shape, cat, o.seed, o.seed * 1000003 + 17 + k, rate,
                   shape.rung_s, updates.get());
    PhaseResult r = RunOpenLoop(conns, rung, LimitsAt(shape, rate));
    ++rungs;
    res.attempted += r.attempted - r.abandoned;
    res.failed += ProgramFailures(r);
    if (r.broken || r.timed_out > 0) {
      res.invalid = "a ladder rung lost its connection or timed out";
    }
    const bool pass = RungPasses(shape, r);
    if (pass) achieved = r.reads_ok / r.elapsed_s;
    res.detail.Set("ladder.rung" + std::to_string(k) + ".read_p99_ms",
                   r.read_ms.Percentile(99), "ms", r.read_ms.size());
    return pass;
  };
  auto have_time = [&] { return time_left() > shape.rung_s + 0.25; };
  int lo = 0;
  int hi = 0;
  if (RungPasses(shape, nominal)) {
    hi = 8;
    while (have_time() && test(hi)) {
      lo = hi;
      hi += 8;
    }
  } else {
    lo = -8;
    while (have_time() && !test(lo)) {
      hi = lo;
      lo -= 8;
    }
  }
  while (hi - lo > 1 && have_time()) {
    const int mid = (lo + hi) / 2;
    if (test(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  const double rss = daemon.PeakRss();
  const size_t connections = conns.size();
  conns.clear();
  daemon.Stop();

  // The load came from this one thread over at most 3 connections.
  const int threads = ThreadCount();
  if (threads != 1) {
    res.invalid = "the load generator used " + std::to_string(threads) +
                  " threads, not 1";
  }
  if (connections > 3) {
    res.invalid = "the load generator used more than 3 connections";
  }
  res.correct = res.failed == 0;

  MetricSet& e = res.end_to_end;
  e.SetPercentile("setup_s", setup_s, 50, "s");
  e.Set("peak_rss_mb", rss, "MB");
  e.Set("failed_frac",
        res.attempted ? static_cast<double>(res.failed) / res.attempted : 0,
        "frac", res.attempted);
  e.SetPercentile("read_p50_ms", nominal.read_ms, 50, "ms");
  e.SetPercentile("read_p90_ms", nominal.read_ms, 90, "ms");
  e.SetPercentile("read_p99_ms", nominal.read_ms, 99, "ms");
  // The daemon's CPU time (user + system) per read over the nominal phase,
  // updates included.
  e.Set("daemon_cpu_ms_per_read",
        nominal.read_ms.empty()
            ? 0
            : nominal_cpu_s * 1000.0 / nominal.read_ms.size(),
        "ms", nominal.read_ms.size());
  e.Set("max_read_qps", achieved, "1/s", static_cast<size_t>(rungs));
  if (shape.churn) {
    e.SetPercentile("update_p50_ms", nominal.update_ms, 50, "ms");
    e.SetPercentile("update_p90_ms", nominal.update_ms, 90, "ms");
  }

  MetricSet& d = res.detail;
  d.SetPercentile("loadgen.send_lag_p50_ms", nominal.lag_ms, 50, "ms");
  d.SetPercentile("loadgen.send_lag_p99_ms", nominal.lag_ms, 99, "ms");
  d.Set("loadgen.threads", threads, "count");
  d.Set("loadgen.connections", connections, "count");
  d.Set("loadgen.max_backlog", nominal.max_backlog, "count");
  d.Set("nominal.read_rate", shape.nominal_rate, "1/s");
  d.Set("nominal.wrong_answers", nominal.wrong, "count");
  d.Set("ladder.highest_passing_rate", RungRate(shape, lo), "1/s");
  d.Set("ladder.rungs_measured", rungs, "count");
  for (const char* name :
       {"server.query_cache_hits", "server.query_cache_misses",
        "server.queries_rejected", "server.query_errors",
        "server.snapshots_published", "xq.eval.steps",
        "xq.eval.nodeset_cache_hits", "xq.eval.nodeset_cache_misses"}) {
    d.Set(std::string("daemon.") + name, JsonNumber(metrics_json, name),
          "count");
  }
  if (!nominal.first_failure.empty()) {
    std::printf("first failure: %s\n", nominal.first_failure.c_str());
  }
  return res;
}

// ---------------------------------------------------------------------------
// The traced run

namespace {

using lll::server::QueryServer;
using lll::server::Snapshot;
using lll::server::SnapshotPtr;

// The replica of the server's read and publish paths, called layer by
// layer: QueryCache::GetOrCompile -> xq::Execute on the snapshot's node-set
// cache -> SerializedItems (as QueryServer::ExecuteOnSnapshot does), and
// CompileUpdateText -> CloneDocument -> ApplyUpdate -> EnsureOrderIndex ->
// MigrateClone (as SnapshotStore::PublishEdit does).
struct Replica {
  lll::xq::QueryCache cache{kPlanCacheCapacity};
  SnapshotPtr current;
  std::vector<SnapshotPtr> pins;
};

struct TraceSamples {
  Samples untraced_rtt_us;
  Samples rtt_us, transport_us, server_self_us, compile_us,
      eval_us, serialize_us;
  Samples upd_rtt_us, publish_us, upd_transport_us, publish_self_us,
      upd_compile_us, clone_us, apply_us, order_index_us, migrate_us;
  uint64_t compile_hits = 0, compiles = 0;
  uint64_t steps = 0, nodes_pulled = 0, sorts = 0, reads = 0;
  uint64_t ns_hits = 0, ns_misses = 0, ns_invalidations = 0, ns_partial = 0;
  uint64_t migrated = 0, publishes = 0;
  // Per-read layer shares, for attributing the read tail.
  struct ReadSplit {
    double rtt, transport, server, compile, eval, serialize;
  };
  std::vector<ReadSplit> splits;
};

}  // namespace

RunResult RunServingTraced(const Options& o) {
  RunResult res;
  const WorkloadShape shape = ShapeFor(o.workload);
  const Catalog cat = MakeCatalog(o.seed, shape.groups, shape.per_group);
  std::string error;
  const Boot boot = PrepareBoot(o, shape, cat, &error);
  if (!error.empty()) {
    res.invalid = error;
    return res;
  }
  Daemon daemon;
  std::vector<std::unique_ptr<Connection>> conns;
  if (!StartDaemon(o, shape, boot, &daemon, &conns, &error)) {
    res.invalid = error;
    return res;
  }

  MetricSet& L = res.per_layer;
  SpanRecorder spans;
  lll::MetricsRegistry registry;
  lll::server::ServerOptions so;
  so.worker_threads = 0;
  so.metrics = &registry;
  QueryServer server(so);
  Replica replica;
  std::unique_ptr<lll::xml::Document> replica_doc;
  if (!shape.churn) {
    const int64_t s = spans.Begin("xml.Parse", 0);
    auto doc = lll::xml::Parse(cat.xml, {.strip_insignificant_whitespace = true});
    L.Set("xml.parse_us", spans.End(s), "us", 1);
    if (!doc.ok() || !server.AddDocumentXml(kDoc, cat.xml).ok()) {
      res.invalid = "in-process catalog load failed";
      return res;
    }
    replica_doc = std::move(*doc);
  } else {
    const int64_t s = spans.Begin("persist.LoadState", 0);
    lll::Status st = server.LoadState(boot.state_dir);
    L.Set("persist.load_state_us", spans.End(s), "us", 1);
    auto loaded = lll::persist::LoadDocumentSnapshot(
        (fs::path(boot.state_dir) / "doc-0.llld").string());
    if (!st.ok() || !loaded.ok()) {
      res.invalid = "in-process warm boot failed";
      return res;
    }
    replica_doc = std::move(loaded->document);
  }
  L.Set("xml.doc_bytes", replica_doc->storage_stats().total_bytes, "bytes");
  replica_doc->EnsureOrderIndex();
  replica.current = std::make_shared<const Snapshot>(
      std::move(replica_doc), 1, kNodeSetCacheCapacity);
  replica.pins.resize(kConnections);
  std::vector<lll::server::Session> sessions;
  for (int c = 0; c < kConnections; ++c) {
    sessions.push_back(server.OpenSession("c" + std::to_string(c)));
  }

  TraceSamples t;
  uint64_t request_id = 0;
  bool warming = true;  // replaying the warm-up: record nothing
  std::string first_failure;
  auto fail = [&](const std::string& why) {
    ++res.failed;
    if (first_failure.empty()) first_failure = why;
  };

  // One request, replayed: the daemon's reply, the in-process server's
  // whole call, and the replica's layer-by-layer calls, in that order.
  auto replay = [&](const Request& req, bool record) {
    ++res.attempted;
    const uint64_t id = ++request_id;
    spans.set_enabled(record);
    const int64_t root = spans.Begin("request", id);
    const Clock::time_point sent = Clock::now();
    int64_t s = spans.Begin("daemon.reply", id, root);
    std::vector<std::string> reply = conns[req.conn]->Call(req.line, 60);
    spans.End(s);
    const double rtt = UsSince(sent, Clock::now());
    const bool daemon_ok = ReplyMatches(req, reply);
    if (req.kind == Kind::kRefresh) {
      sessions[req.conn].Refresh();
      replica.pins[req.conn].reset();
      spans.End(root);
      if (!daemon_ok) fail("refresh");
      return;
    }
    const std::string body = req.Body();
    if (req.kind == Kind::kRead) {
      s = spans.Begin("server.Session::Query", id, root);
      lll::server::QueryResponse resp = sessions[req.conn].Query(kDoc, body);
      const double query_us = spans.End(s);

      const int64_t rep = spans.Begin("replica.read", id, root);
      SnapshotPtr& pin = replica.pins[req.conn];
      if (pin == nullptr) pin = replica.current;
      s = spans.Begin("xquery.QueryCache::GetOrCompile", id, rep);
      bool hit = false;
      auto compiled = replica.cache.GetOrCompile(body, {}, &hit);
      const double compile_us = spans.End(s);
      if (!compiled.ok()) {
        spans.End(rep);
        spans.End(root);
        fail("compile");
        return;
      }
      lll::xq::ExecuteOptions opts;
      opts.context_node = pin->root();
      opts.eval.nodeset_cache = pin->nodeset_cache();
      s = spans.Begin("xquery.Execute", id, rep);
      auto result = lll::xq::Execute(**compiled, opts);
      const double eval_us = spans.End(s);
      std::string text;
      double serialize_us = 0;
      if (result.ok()) {
        s = spans.Begin("xml.SerializedItems", id, rep);
        text = result->SerializedItems();
        serialize_us = spans.End(s);
      }
      spans.End(rep);
      spans.End(root);
      const bool same = result.ok() && resp.status.ok() &&
                        resp.result == text && text == req.expected;
      if (!daemon_ok || !same) {
        fail(daemon_ok ? "drift: replay answer differs from the daemon's"
                       : "daemon answer wrong");
      }
      if (!record) {
        if (!warming) t.untraced_rtt_us.Add(rtt);
        return;
      }
      const double server_self = query_us - compile_us - eval_us - serialize_us;
      t.rtt_us.Add(rtt);
      t.transport_us.Add(rtt - query_us);
      t.server_self_us.Add(server_self);
      t.compile_us.Add(compile_us);
      t.eval_us.Add(eval_us);
      t.serialize_us.Add(serialize_us);
      t.splits.push_back({rtt, rtt - query_us, server_self, compile_us,
                          eval_us, serialize_us});
      ++t.compiles;
      if (hit) ++t.compile_hits;
      if (result.ok()) {
        const lll::xq::EvalStats& st = result->stats;
        ++t.reads;
        t.steps += st.steps;
        t.nodes_pulled += st.nodes_pulled;
        t.sorts += st.sorts_performed;
        t.ns_hits += st.nodeset_cache_hits;
        t.ns_misses += st.nodeset_cache_misses;
        t.ns_invalidations += st.nodeset_cache_invalidations;
        t.ns_partial += st.nodeset_cache_partial_invalidations;
      }
      return;
    }
    // An update.
    s = spans.Begin("server.PublishUpdate", id, root);
    auto version = server.PublishUpdate(kDoc, body);
    const double publish_us = spans.End(s);
    const int64_t rep = spans.Begin("replica.publish", id, root);
    s = spans.Begin("xquery.CompileUpdateText", id, rep);
    auto update = lll::xq::CompileUpdateText(body);
    const double ucompile_us = spans.End(s);
    bool ok = update.ok();
    double clone_us = 0, apply_us = 0, order_us = 0, migrate_us = 0;
    size_t migrated = 0;
    if (ok) {
      std::vector<uint32_t> node_map;
      s = spans.Begin("xml.CloneDocument", id, rep);
      auto copy =
          lll::xml::CloneDocument(replica.current->document(), &node_map);
      copy->WantEditVersions();
      clone_us = spans.End(s);
      s = spans.Begin("xquery.ApplyUpdate", id, rep);
      auto applied = lll::xq::ApplyUpdate(*update, copy.get());
      apply_us = spans.End(s);
      ok = applied.ok() && applied->target_nodes == 1;
      s = spans.Begin("xml.EnsureOrderIndex", id, rep);
      copy->EnsureOrderIndex();
      order_us = spans.End(s);
      s = spans.Begin("xquery.NodeSetCache::MigrateClone", id, rep);
      auto next = std::make_shared<const Snapshot>(
          std::move(copy), replica.current->version() + 1,
          kNodeSetCacheCapacity);
      migrated = next->nodeset_cache()->MigrateClone(
          *replica.current->nodeset_cache(), replica.current->document(),
          next->document(), node_map);
      migrate_us = spans.End(s);
      replica.current = std::move(next);
    }
    spans.End(rep);
    spans.End(root);
    if (!daemon_ok || !version.ok() || !ok) {
      fail(daemon_ok ? "drift: replayed publish failed" : "daemon update");
    }
    if (!record) return;
    t.upd_rtt_us.Add(rtt);
    t.publish_us.Add(publish_us);
    t.upd_transport_us.Add(rtt - publish_us);
    t.publish_self_us.Add(publish_us - ucompile_us - clone_us - apply_us -
                          order_us - migrate_us);
    t.upd_compile_us.Add(ucompile_us);
    t.clone_us.Add(clone_us);
    t.apply_us.Add(apply_us);
    t.order_index_us.Add(order_us);
    t.migrate_us.Add(migrate_us);
    t.migrated += migrated;
    ++t.publishes;
  };

  // The timed run's warm-up, replayed unrecorded (daemon and in-process
  // copies alike), then the nominal stream of this seed, in schedule order,
  // one request at a time.
  UpdateCycle updates(cat);
  for (const Request& req : WarmupRequests(shape, cat, o.seed, &updates)) {
    replay(req, false);
  }
  warming = false;
  // Reads alternate between traced and untraced; both kinds are replayed
  // in process (so the copies stay in step with the daemon), but only the
  // traced ones record spans and layer samples. Every update is traced.
  const Clock::time_point start = Clock::now();
  size_t read_index = 0;
  ForEachRequest(shape, cat, o.seed, o.seed, o.seconds * kNominalShare,
                 &updates, [&](const Request& req) {
                   if (MsSince(start, Clock::now()) / 1000.0 > o.seconds) {
                     return false;
                   }
                   const bool record =
                       req.kind != Kind::kRead || read_index++ % 2 == 0;
                   replay(req, record);
                   return true;
                 });
  spans.set_enabled(true);

  const std::string mj = FetchMetrics(*conns[0]);
  conns.clear();
  daemon.Stop();
  res.correct = res.failed == 0;

  // Per-layer metrics.
  L.SetPercentile("server.self_us.p50", t.server_self_us, 50, "us");
  L.SetPercentile("server.transport_us.p50", t.transport_us, 50, "us");
  L.SetPercentile("xml.serialize_us.p50", t.serialize_us, 50, "us");
  L.SetPercentile("xquery.compile_us.p50", t.compile_us, 50, "us");
  L.Set("xquery.compile_hit_ratio",
        t.compiles ? static_cast<double>(t.compile_hits) / t.compiles : 0,
        "ratio", t.compiles);
  L.Set("server.query_cache_hits", JsonNumber(mj, "server.query_cache_hits"),
        "count");
  L.Set("server.query_cache_misses",
        JsonNumber(mj, "server.query_cache_misses"), "count");
  L.SetPercentile("xquery.eval_us.p50", t.eval_us, 50, "us");
  L.SetPercentile("xquery.eval_us.p99", t.eval_us, 99, "us");
  const double reads = std::max<uint64_t>(t.reads, 1);
  L.Set("xquery.eval.steps_per_read", t.steps / reads, "count", t.reads);
  L.Set("xquery.eval.nodes_pulled_per_read", t.nodes_pulled / reads, "count",
        t.reads);
  L.Set("xquery.eval.sorts_performed", t.sorts, "count");
  const uint64_t lookups = t.ns_hits + t.ns_misses + t.ns_invalidations;
  L.Set("xquery.nodeset.hit_ratio",
        lookups ? static_cast<double>(t.ns_hits) / lookups : 0, "ratio",
        lookups);
  L.Set("xquery.nodeset.invalidations", t.ns_invalidations, "count");
  L.Set("xquery.nodeset.partial_invalidations", t.ns_partial, "count");
  if (shape.churn) {
    L.SetPercentile("xml.clone_us.p50", t.clone_us, 50, "us");
    L.SetPercentile("xml.order_index_us.p50", t.order_index_us, 50, "us");
    L.SetPercentile("xquery.update_compile_us.p50", t.upd_compile_us, 50, "us");
    L.SetPercentile("xquery.update_apply_us.p50", t.apply_us, 50, "us");
    L.SetPercentile("xquery.migrate_us.p50", t.migrate_us, 50, "us");
    L.Set("xquery.entries_migrated_per_publish",
          t.publishes ? static_cast<double>(t.migrated) / t.publishes : 0,
          "count", t.publishes);
    L.SetPercentile("server.publish_us.p50", t.publish_us, 50, "us");
  }
  L.Set("server.snapshots_published",
        JsonNumber(mj, "server.snapshots_published"), "count");
  L.Set("server.queries_rejected", JsonNumber(mj, "server.queries_rejected"),
        "count");
  L.Set("server.query_errors", JsonNumber(mj, "server.query_errors"), "count");

  // Tracing overhead: the daemon's reply time for traced reads against
  // the untraced reads interleaved with them.
  const double traced_p50_us = t.rtt_us.Percentile(50);
  const double untraced_p50_us = t.untraced_rtt_us.Percentile(50);
  L.Set("trace.overhead_frac",
        untraced_p50_us > 0 ? traced_p50_us / untraced_p50_us - 1.0 : 0,
        "frac", t.rtt_us.size());
  // Accounting: the layer self times at p50 against the traced p50.
  const double accounted =
      t.transport_us.Percentile(50) + t.server_self_us.Percentile(50) +
      t.compile_us.Percentile(50) + t.eval_us.Percentile(50) +
      t.serialize_us.Percentile(50);
  L.Set("trace.accounted_frac",
        traced_p50_us > 0 ? accounted / traced_p50_us : 0, "frac",
        t.rtt_us.size());

  MetricSet& d = res.detail;
  d.Set("traced.read_p50_ms", traced_p50_us / 1000.0, "ms", t.rtt_us.size());
  d.Set("traced.read_p99_ms", t.rtt_us.Percentile(99) / 1000.0, "ms",
        t.rtt_us.size());
  d.Set("untraced.read_p50_ms", untraced_p50_us / 1000.0, "ms",
        t.untraced_rtt_us.size());
  // Where the read tail goes: mean layer shares of the reads at or above
  // the traced p99.
  {
    const double p99 = t.rtt_us.Percentile(99);
    double sum[5] = {0, 0, 0, 0, 0};
    double total = 0;
    size_t n = 0;
    for (const auto& sp : t.splits) {
      if (sp.rtt < p99) continue;
      sum[0] += sp.transport;
      sum[1] += sp.server;
      sum[2] += sp.compile;
      sum[3] += sp.eval;
      sum[4] += sp.serialize;
      total += sp.rtt;
      ++n;
    }
    const char* names[] = {"transport", "server.self", "xquery.compile",
                           "xquery.eval", "xml.serialize"};
    for (int i = 0; i < 5; ++i) {
      d.Set(std::string("read_p99.share.") + names[i],
            total > 0 ? sum[i] / total : 0, "frac", n);
    }
  }
  if (shape.churn) {
    d.Set("traced.update_p50_ms", t.upd_rtt_us.Percentile(50) / 1000.0, "ms",
          t.upd_rtt_us.size());
    d.SetPercentile("update_p50.transport_us", t.upd_transport_us, 50, "us");
    d.SetPercentile("update_p50.server.self_us", t.publish_self_us, 50, "us");
    d.SetPercentile("update_p50.xquery.update_compile_us", t.upd_compile_us,
                    50, "us");
    d.SetPercentile("update_p50.xml.clone_us", t.clone_us, 50, "us");
    d.SetPercentile("update_p50.xquery.update_apply_us", t.apply_us, 50, "us");
    d.SetPercentile("update_p50.xml.order_index_us", t.order_index_us, 50,
                    "us");
    d.SetPercentile("update_p50.xquery.migrate_us", t.migrate_us, 50, "us");
  }
  if (!first_failure.empty()) {
    std::printf("first failure: %s\n", first_failure.c_str());
  }
  const std::string spans_path =
      (fs::path(o.workdir) / ("spans-" + o.workload + ".jsonl")).string();
  if (spans.WriteJsonLines(spans_path)) {
    std::printf("spans: %zu written to %s\n", spans.spans().size(),
                spans_path.c_str());
  }
  return res;
}

}  // namespace lllbench
