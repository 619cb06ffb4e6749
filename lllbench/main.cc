// lllbench: the end-to-end benchmark harness.
//
//   lllbench --workload serve-hot|serve-churn|docgen --seed N --seconds S
//            --trace 0|1 --serverd PATH --workdir DIR [--corrupt-expected]
//
// Prints a table of every metric with its unit and sample count, then, as
// the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end metrics that
// BENCHMARK.json declares; with --trace 1, the per-layer metrics. A run
// that is invalid (the load generator fell behind, the daemon could not be
// booted) prints its reason and exits 3 without a result.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"

namespace lllbench {

double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

namespace {

// The end-to-end metrics BENCHMARK.json declares, the same on every
// workload. op_cpu_ms is the CPU time of the workload's headline
// operation: the daemon's user + system time per read over the nominal
// phase (serve-hot, serve-churn), or the generating
// thread's CPU time for one XQuery report set, median (docgen). Wall-clock
// latencies stay in the table: on a shared virtual machine they move with
// the host's load by more than any useful bound.
struct Gate {
  const char* name;
  const char* unit;
  const char* serving;  // source metric on serve-hot / serve-churn
  const char* docgen;   // source metric on docgen
};
constexpr Gate kGates[] = {
    {"setup_s", "s", "setup_s", "setup_s"},
    {"peak_rss_mb", "MB", "peak_rss_mb", "peak_rss_mb"},
    {"op_cpu_ms", "ms", "daemon_cpu_ms_per_read", "gen_xq_cpu_ms"},
};

// The per-layer metrics BENCHMARK.json declares, with their units. A
// traced run reports every one; a layer that is not on the workload's path
// reports 0.
struct Layer {
  const char* name;
  const char* unit;
};
constexpr Layer kLayers[] = {
    {"server.self_us.p50", "us"},
    {"server.transport_us.p50", "us"},
    {"xml.serialize_us.p50", "us"},
    {"xquery.compile_us.p50", "us"},
    {"xquery.compile_hit_ratio", "ratio"},
    {"server.query_cache_hits", "count"},
    {"server.query_cache_misses", "count"},
    {"xquery.eval_us.p50", "us"},
    {"xquery.eval_us.p99", "us"},
    {"xquery.eval.steps_per_read", "count"},
    {"xquery.eval.nodes_pulled_per_read", "count"},
    {"xquery.eval.sorts_performed", "count"},
    {"xquery.nodeset.hit_ratio", "ratio"},
    {"xquery.nodeset.invalidations", "count"},
    {"xquery.nodeset.partial_invalidations", "count"},
    {"xml.clone_us.p50", "us"},
    {"xml.order_index_us.p50", "us"},
    {"xquery.update_compile_us.p50", "us"},
    {"xquery.update_apply_us.p50", "us"},
    {"xquery.migrate_us.p50", "us"},
    {"xquery.entries_migrated_per_publish", "count"},
    {"server.publish_us.p50", "us"},
    {"server.snapshots_published", "count"},
    {"xml.parse_us", "us"},
    {"persist.load_state_us", "us"},
    {"xml.doc_bytes", "bytes"},
    {"awb.model_to_xml_us.p50", "us"},
    {"docgen.phase1_us.p50", "us"},
    {"docgen.phase2_us.p50", "us"},
    {"docgen.phase3_us.p50", "us"},
    {"docgen.phase4_us.p50", "us"},
    {"docgen.phase5_us.p50", "us"},
    {"docgen.eval_steps", "count"},
    {"docgen.document_copies", "count"},
    {"docgen.nodeset.hit_ratio", "ratio"},
    {"docgen.native_us.p50", "us"},
    {"awbql.native_us.p50", "us"},
    {"awbql.xq_eval_us.p50", "us"},
    {"awbql.xq_steps", "count"},
    {"server.queries_rejected", "count"},
    {"server.query_errors", "count"},
    {"trace.overhead_frac", "frac"},
    {"trace.accounted_frac", "frac"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: lllbench --workload serve-hot|serve-churn|docgen "
               "--seed N --seconds S --trace 0|1 --serverd PATH "
               "--workdir DIR [--corrupt-expected]\n");
  return 2;
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace lllbench

int main(int argc, char** argv) {
  using namespace lllbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--serverd" && has_value) {
      o.serverd = argv[++i];
    } else if (arg == "--workdir" && has_value) {
      o.workdir = argv[++i];
    } else if (arg == "--corrupt-expected") {
      o.corrupt_expected = true;
    } else {
      return Usage();
    }
  }
  const bool serving = o.workload == "serve-hot" || o.workload == "serve-churn";
  if ((!serving && o.workload != "docgen") || o.seconds <= 0 ||
      o.workdir.empty() || (serving && o.serverd.empty())) {
    return Usage();
  }

  RunResult r = serving ? (o.trace ? RunServingTraced(o) : RunServing(o))
                        : (o.trace ? RunDocgenTraced(o) : RunDocgen(o));
  std::printf("workload %s, seed %llu, %s run\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "timed");
  if (!o.trace) r.end_to_end.Report("end-to-end");
  r.detail.Report("detail");
  if (o.trace) r.per_layer.Report("per-layer");
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  if (!r.invalid.empty()) {
    std::printf("INVALID RUN: %s\n", r.invalid.c_str());
    return 3;
  }

  std::string metrics;
  auto add = [&metrics](const std::string& name, double value,
                        const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + JsonNum(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (o.trace) {
    for (const Layer& l : kLayers) {
      add(l.name, r.per_layer.Has(l.name) ? r.per_layer.Get(l.name).value : 0,
          l.unit);
    }
  } else {
    for (const Gate& g : kGates) {
      const char* source = serving ? g.serving : g.docgen;
      add(g.name, r.end_to_end.Get(source).value, g.unit);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
