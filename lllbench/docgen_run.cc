// The docgen workload: one thread, closed loop, in process. Seeded
// GenerateItModel models; the System Context template of docgen_report plus
// an E7 row/column table template; full generation by both engines, a
// one-edit regeneration through XQuerySession, and E5's AWB-QL batch on
// both backends. The native engine is the oracle for every answer.
#include <sys/resource.h>
#include <time.h>

#include <filesystem>
#include <memory>

#include "awb/builtin_metamodels.h"
#include "awb/generator.h"
#include "awb/xml_io.h"
#include "awbql/native.h"
#include "awbql/query.h"
#include "awbql/xquery_backend.h"
#include "bench.h"
#include "docgen/native_engine.h"
#include "docgen/xq_engine.h"
#include "xml/deep_equal.h"

namespace lllbench {
namespace {

namespace fs = std::filesystem;
using lll::docgen::DocGenResult;

constexpr int kModels = 4;
constexpr int kSetupReps = 5;

constexpr char kSystemContextTemplate[] = R"TPL(<html>
  <head><title>System Context</title></head>
  <body>
    <h1>System Context</h1>
    <table-of-contents/>
    <for nodes="from type:SystemBeingDesigned">
      <section heading="System: {label}">
        <p>Version: <value-of property="version" default="(unversioned)"/></p>
        <section heading="Users">
          <ol>
            <for nodes="from focus; follow has> to:User; sort label">
              <li>
                <if>
                  <test><focus-is-type type="Superuser"/></test>
                  <then><b><label/></b></then>
                  <else><label/></else>
                </if>
                (<value-of property="role" default="no role"/>)
              </li>
            </for>
          </ol>
        </section>
        <section heading="Deployment">
          <table rows="from type:Server; sort label"
                 cols="from type:Program; sort label"
                 relation="runs" corner="server\program"/>
        </section>
        <section heading="Documents">
          <for nodes="from focus; follow has> to:Document; sort label">
            <p><label/> - version <value-of property="version" default="MISSING"/></p>
          </for>
        </section>
      </section>
    </for>
    <section heading="Omissions">
      <p>Model nodes never mentioned above:</p>
      <table-of-omissions/>
    </section>
  </body>
</html>)TPL";

// E7's row/column table directive.
constexpr char kTableTemplate[] =
    "<doc><table rows=\"from type:Person; sort label\" "
    "cols=\"from type:Program; sort label\" relation=\"uses\" "
    "corner=\"person\\program\"/></doc>";

// E5's AWB-QL batch.
constexpr const char* kAwbqlBatch[] = {
    "from type:User\nfollow likes>\nsort label\n",
    "from type:Document\nfilter missing:version\nsort label\n",
    "from type:SystemBeingDesigned\nfollow has>\nfilter type:Program\n",
    "from type:Person\nfollow uses> to:Program\nsort label\n",
};

lll::awb::GeneratorConfig ModelConfig(uint64_t seed, int index) {
  lll::awb::GeneratorConfig c;
  c.seed = seed * 1000 + static_cast<uint64_t>(index) + 1;
  c.users = 8;
  c.servers = 4;
  c.subsystems = 5;
  c.programs = 10;
  c.requirements = 6;
  c.documents = 5;
  c.omission_rate = 0.4;
  // No advisory violations or ad hoc properties: their per-node coin flips
  // moved the XQuery engine's cost by a quarter between seeds.
  c.violation_rate = 0;
  c.adhoc_property_rate = 0;
  return c;
}

struct ModelState {
  std::unique_ptr<lll::awb::Model> model;
  std::vector<std::unique_ptr<DocGenResult>> native_ref;  // per template
  std::unique_ptr<lll::docgen::XQuerySession> session;
  std::unique_ptr<lll::awbql::XQueryBackend> backend;
  std::vector<std::vector<std::string>> awbql_ref;  // ids per batch query
};

struct Fixture {
  lll::awb::Metamodel metamodel = lll::awb::MakeItArchitectureMetamodel();
  std::vector<std::unique_ptr<lll::xml::Document>> templates;
  std::vector<lll::awbql::Query> batch;
  std::vector<ModelState> models;
  size_t model_nodes = 0;
};

std::vector<std::string> Ids(const std::vector<const lll::awb::ModelNode*>& v) {
  std::vector<std::string> out;
  for (const lll::awb::ModelNode* n : v) out.push_back(n->id());
  return out;
}

// Builds everything a run needs and produces the first correct XQuery
// generation; false (with `error`) if anything fails.
bool BuildFixture(uint64_t seed, Fixture* f, std::string* error) {
  for (const char* text : {kSystemContextTemplate, kTableTemplate}) {
    auto doc = lll::docgen::ParseTemplate(text);
    if (!doc.ok()) {
      *error = "template: " + doc.status().ToString();
      return false;
    }
    f->templates.push_back(std::move(*doc));
  }
  for (const char* text : kAwbqlBatch) {
    auto q = lll::awbql::ParseQuery(text);
    if (!q.ok()) {
      *error = "awbql: " + q.status().ToString();
      return false;
    }
    f->batch.push_back(std::move(*q));
  }
  f->models.resize(kModels);
  for (int m = 0; m < kModels; ++m) {
    ModelState& ms = f->models[m];
    ms.model = std::make_unique<lll::awb::Model>(
        lll::awb::GenerateItModel(&f->metamodel, ModelConfig(seed, m)));
    f->model_nodes += ms.model->node_count();
    for (const auto& tpl : f->templates) {
      auto r = lll::docgen::GenerateNative(tpl->DocumentElement(), *ms.model);
      if (!r.ok()) {
        *error = "native docgen: " + r.status().ToString();
        return false;
      }
      ms.native_ref.push_back(std::make_unique<DocGenResult>(std::move(*r)));
    }
    for (const auto& q : f->batch) {
      auto r = lll::awbql::EvalNative(q, *ms.model);
      if (!r.ok()) {
        *error = "native awbql: " + r.status().ToString();
        return false;
      }
      ms.awbql_ref.push_back(Ids(*r));
    }
    auto session = lll::docgen::XQuerySession::Create(*ms.model);
    if (!session.ok()) {
      *error = "session: " + session.status().ToString();
      return false;
    }
    ms.session = std::move(*session);
    ms.backend = std::make_unique<lll::awbql::XQueryBackend>(ms.model.get());
  }
  // The first correct answer: the report set from the XQuery engine, equal
  // to the native engine's.
  for (ModelState& ms : f->models) {
    for (size_t t = 0; t < f->templates.size(); ++t) {
      auto r = lll::docgen::GenerateXQuery(f->templates[t]->DocumentElement(),
                                           *ms.model);
      if (!r.ok() || !lll::xml::DeepEqual(r->root, ms.native_ref[t]->root)) {
        *error = "first XQuery generation differs from the native engine";
        return false;
      }
    }
  }
  return true;
}

// Edits one <property> text of one model node, in place.
bool EditModel(lll::xml::Document* model_doc, InputRng& rng, uint64_t serial) {
  std::vector<lll::xml::Node*> nodes =
      model_doc->DocumentElement()->ChildElements("node");
  for (int attempt = 0; attempt < 64 && !nodes.empty(); ++attempt) {
    lll::xml::Node* node = nodes[rng.Below(nodes.size())];
    for (lll::xml::Node* prop : node->ChildElements("property")) {
      for (lll::xml::Node* child : prop->children()) {
        if (child->is_text()) {
          child->set_value("edited " + std::to_string(serial));
          return true;
        }
      }
    }
  }
  return false;
}

double ThreadCpuMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

double SelfPeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// Everything one docgen run measures.
struct DocgenSamples {
  Samples gen_xq_ms, gen_native_ms, regen_ms, awbql_xq_ms, awbql_native_ms;
  Samples gen_xq_cpu_ms;  // thread CPU time of the same generations
  Samples model_to_xml_us, phase_us[5], serialize_us;
  Samples traced_gen_xq_ms;
  // Work counters of the first traced iteration (the report set, or the
  // AWB-QL batch over every model): exact for a fixed seed.
  uint64_t counted_models = 0;
  uint64_t eval_steps = 0, document_copies = 0;
  uint64_t regen_ns_hits = 0, regen_ns_lookups = 0;
  uint64_t awbql_steps = 0;
  uint64_t attempted = 0, failed = 0;
  std::string first_failure;
};

void Fail(DocgenSamples* s, const std::string& why) {
  ++s->failed;
  if (s->first_failure.empty()) s->first_failure = why;
}

// One iteration of the closed loop: the report set (both templates for
// every model) through each engine, then per model one edit and a
// regeneration and the AWB-QL batch on both backends. With `spans`, each
// call into a layer is recorded as a span of request `id`, and the
// per-layer samples are filled.
void Iterate(Fixture& f, InputRng& rng, uint64_t id, bool corrupt,
             SpanRecorder* spans, DocgenSamples* s) {
  const int64_t root = spans ? spans->Begin("iteration", id) : -1;
  const bool counted = spans != nullptr && s->counted_models == 0;
  if (counted) s->counted_models = f.models.size();

  // The report set through the XQuery engine: model -> serialized
  // documents, checked against the native references.
  {
    ++s->attempted;
    const int64_t gen =
        spans ? spans->Begin("docgen.GenerateXQuery", id, root) : -1;
    const double cpu0 = ThreadCpuMs();
    const Clock::time_point t0 = Clock::now();
    bool ok = true;
    double phase_us[5] = {0, 0, 0, 0, 0};
    double serialize_us = 0;
    for (ModelState& ms : f.models) {
      for (size_t t = 0; t < f.templates.size(); ++t) {
        auto r = lll::docgen::GenerateXQuery(
            f.templates[t]->DocumentElement(), *ms.model);
        if (!r.ok()) {
          ok = false;
          continue;
        }
        const Clock::time_point ser = Clock::now();
        std::string text = r->Serialized();
        serialize_us += UsSince(ser, Clock::now());
        for (size_t p = 0; p < r->stats.phase_us.size() && p < 5; ++p) {
          phase_us[p] += static_cast<double>(r->stats.phase_us[p]);
        }
        if (counted) {
          s->eval_steps += r->stats.eval_steps;
          s->document_copies += r->stats.document_copies;
        }
        if (text.empty() ||
            !lll::xml::DeepEqual(r->root, ms.native_ref[t]->root)) {
          ok = false;
        }
      }
    }
    const double ms_taken = MsSince(t0, Clock::now());
    if (spans) {
      spans->End(gen);
      s->traced_gen_xq_ms.Add(ms_taken);
      s->serialize_us.Add(serialize_us);
      for (int p = 0; p < 5; ++p) s->phase_us[p].Add(phase_us[p]);
    } else {
      s->gen_xq_ms.Add(ms_taken);
      s->gen_xq_cpu_ms.Add(ThreadCpuMs() - cpu0);
    }
    if (!ok || (corrupt && id == 1)) Fail(s, "XQuery generation differs");
  }
  if (spans) {
    // ModelToXml on its own: the first thing each GenerateXQuery does.
    for (ModelState& ms : f.models) {
      const int64_t sp = spans->Begin("awb.ModelToXml", id, root);
      auto doc = lll::awb::ModelToXml(*ms.model);
      s->model_to_xml_us.Add(spans->End(sp));
    }
  }

  // The same documents from the native engine (checked against the
  // references it made at set-up).
  {
    ++s->attempted;
    const int64_t sp =
        spans ? spans->Begin("docgen.GenerateNative", id, root) : -1;
    const Clock::time_point t0 = Clock::now();
    bool ok = true;
    for (ModelState& ms : f.models) {
      for (size_t t = 0; t < f.templates.size(); ++t) {
        auto r = lll::docgen::GenerateNative(
            f.templates[t]->DocumentElement(), *ms.model);
        ok = ok && r.ok() && !r->Serialized().empty() &&
             lll::xml::DeepEqual(r->root, ms.native_ref[t]->root);
      }
    }
    s->gen_native_ms.Add(MsSince(t0, Clock::now()));
    if (spans) spans->End(sp);
    if (!ok) Fail(s, "native generation not reproducible");
  }

  for (ModelState& ms : f.models) {
    // One model edit, then regeneration through the session; the oracle
    // is the native engine on the model rebuilt from the edited document.
    ++s->attempted;
    lll::xml::Document* model_doc = ms.session->model_document();
    if (!EditModel(model_doc, rng, id)) Fail(s, "no editable property");
    int64_t sp =
        spans ? spans->Begin("docgen.XQuerySession::Generate", id, root) : -1;
    Clock::time_point t0 = Clock::now();
    auto r = ms.session->Generate(f.templates[0]->DocumentElement());
    std::string text = r.ok() ? r->Serialized() : std::string();
    s->regen_ms.Add(MsSince(t0, Clock::now()));
    if (spans) spans->End(sp);
    if (r.ok() && spans) {
      s->regen_ns_hits += r->stats.nodeset_cache_hits;
      s->regen_ns_lookups += r->stats.nodeset_cache_hits +
                             r->stats.nodeset_cache_misses +
                             r->stats.nodeset_cache_invalidations;
    }
    auto edited =
        lll::awb::ModelFromXml(&f.metamodel, model_doc->DocumentElement());
    bool ok = r.ok() && edited.ok() && !text.empty();
    if (ok) {
      auto ref = lll::docgen::GenerateNative(f.templates[0]->DocumentElement(),
                                             *edited);
      ok = ref.ok() && lll::xml::DeepEqual(r->root, ref->root);
    }
    if (!ok) Fail(s, "regeneration differs from the native engine");

    // E5's AWB-QL batch on both backends.
    for (size_t q = 0; q < f.batch.size(); ++q) {
      s->attempted += 2;
      sp = spans ? spans->Begin("awbql.XQueryBackend::Eval", id, root) : -1;
      t0 = Clock::now();
      auto xq = ms.backend->Eval(f.batch[q]);
      s->awbql_xq_ms.Add(MsSince(t0, Clock::now()));
      if (spans) spans->End(sp);
      if (counted) s->awbql_steps += ms.backend->last_stats().steps;
      sp = spans ? spans->Begin("awbql.EvalNative", id, root) : -1;
      t0 = Clock::now();
      auto native = lll::awbql::EvalNative(f.batch[q], *ms.model);
      s->awbql_native_ms.Add(MsSince(t0, Clock::now()));
      if (spans) spans->End(sp);
      if (!xq.ok() || Ids(*xq) != ms.awbql_ref[q]) Fail(s, "awbql xquery");
      if (!native.ok() || Ids(*native) != ms.awbql_ref[q]) {
        Fail(s, "awbql native");
      }
    }
  }
  if (spans) spans->End(root);
}

// Set-up, several times: each repetition starts from a cold phase-plan
// cache. Returns the last fixture.
std::unique_ptr<Fixture> SetUp(uint64_t seed, Samples* setup_s,
                               std::string* error) {
  std::unique_ptr<Fixture> f;
  for (int i = 0; i < kSetupReps; ++i) {
    f.reset();
    lll::docgen::XQueryPhaseCache().Clear();
    const Clock::time_point t0 = Clock::now();
    f = std::make_unique<Fixture>();
    if (!BuildFixture(seed, f.get(), error)) return nullptr;
    setup_s->Add(MsSince(t0, Clock::now()) / 1000.0);
  }
  return f;
}

}  // namespace

RunResult RunDocgen(const Options& o) {
  RunResult res;
  Samples setup_s;
  std::string error;
  std::unique_ptr<Fixture> f = SetUp(o.seed, &setup_s, &error);
  if (f == nullptr) {
    res.invalid = error;
    return res;
  }
  DocgenSamples s;
  InputRng rng(o.seed ^ 0x646f63ull);
  const Clock::time_point start = Clock::now();
  uint64_t id = 0;
  while (MsSince(start, Clock::now()) / 1000.0 < o.seconds) {
    ++id;
    Iterate(*f, rng, id, o.corrupt_expected, nullptr, &s);
  }
  res.attempted = s.attempted;
  res.failed = s.failed;
  res.correct = s.failed == 0;
  if (!s.first_failure.empty()) {
    std::printf("first failure: %s\n", s.first_failure.c_str());
  }
  MetricSet& e = res.end_to_end;
  e.SetPercentile("setup_s", setup_s, 50, "s");
  e.Set("peak_rss_mb", SelfPeakRssMb(), "MB");
  e.Set("failed_frac",
        s.attempted ? static_cast<double>(s.failed) / s.attempted : 0, "frac",
        s.attempted);
  e.SetPercentile("gen_xq_p50_ms", s.gen_xq_ms, 50, "ms");
  e.SetPercentile("gen_xq_p90_ms", s.gen_xq_ms, 90, "ms");
  e.SetPercentile("gen_xq_cpu_ms", s.gen_xq_cpu_ms, 50, "ms");
  e.SetPercentile("gen_native_p50_ms", s.gen_native_ms, 50, "ms");
  e.SetPercentile("regen_p50_ms", s.regen_ms, 50, "ms");
  e.SetPercentile("regen_p90_ms", s.regen_ms, 90, "ms");
  e.SetPercentile("awbql_xq_p50_ms", s.awbql_xq_ms, 50, "ms");
  e.SetPercentile("awbql_native_p50_ms", s.awbql_native_ms, 50, "ms");
  res.detail.Set("docgen.model_nodes", f->model_nodes, "count");
  res.detail.Set("docgen.iterations", id, "count");
  return res;
}

RunResult RunDocgenTraced(const Options& o) {
  RunResult res;
  Samples setup_s;
  std::string error;
  std::unique_ptr<Fixture> f = SetUp(o.seed, &setup_s, &error);
  if (f == nullptr) {
    res.invalid = error;
    return res;
  }
  DocgenSamples s;
  SpanRecorder spans;
  InputRng rng(o.seed ^ 0x646f63ull);
  const Clock::time_point start = Clock::now();
  uint64_t id = 0;
  // Traced and untraced iterations alternate, so both see the same models
  // and the same edit history.
  while (MsSince(start, Clock::now()) / 1000.0 < o.seconds) {
    ++id;
    const bool traced = id % 2 == 1;
    Iterate(*f, rng, id, o.corrupt_expected, traced ? &spans : nullptr, &s);
  }
  res.attempted = s.attempted;
  res.failed = s.failed;
  res.correct = s.failed == 0;

  MetricSet& L = res.per_layer;
  L.SetPercentile("awb.model_to_xml_us.p50", s.model_to_xml_us, 50, "us");
  for (int p = 0; p < 5; ++p) {
    L.SetPercentile("docgen.phase" + std::to_string(p + 1) + "_us.p50",
                    s.phase_us[p], 50, "us");
  }
  L.Set("docgen.eval_steps", s.eval_steps, "count", s.counted_models);
  L.Set("docgen.document_copies", s.document_copies, "count",
        s.counted_models);
  L.Set("docgen.nodeset.hit_ratio",
        s.regen_ns_lookups
            ? static_cast<double>(s.regen_ns_hits) / s.regen_ns_lookups
            : 0,
        "ratio", s.regen_ns_lookups);
  L.Set("docgen.native_us.p50", s.gen_native_ms.Percentile(50) * 1000.0, "us",
        s.gen_native_ms.size());
  L.Set("awbql.native_us.p50", s.awbql_native_ms.Percentile(50) * 1000.0,
        "us", s.awbql_native_ms.size());
  L.Set("awbql.xq_eval_us.p50", s.awbql_xq_ms.Percentile(50) * 1000.0, "us",
        s.awbql_xq_ms.size());
  L.Set("awbql.xq_steps", s.awbql_steps, "count", s.counted_models);
  L.SetPercentile("xml.serialize_us.p50", s.serialize_us, 50, "us");

  const double traced_p50 = s.traced_gen_xq_ms.Percentile(50);
  const double untraced_p50 = s.gen_xq_ms.Percentile(50);
  L.Set("trace.overhead_frac",
        untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0, "frac",
        s.traced_gen_xq_ms.size());
  // Accounting for one traced report set: every GenerateXQuery pays one
  // ModelToXml, plus the five phases and serialization summed over the set.
  double accounted_us = s.model_to_xml_us.Percentile(50) *
                        static_cast<double>(f->models.size() *
                                            f->templates.size());
  for (int p = 0; p < 5; ++p) accounted_us += s.phase_us[p].Percentile(50);
  accounted_us += s.serialize_us.Percentile(50);
  L.Set("trace.accounted_frac",
        traced_p50 > 0 ? accounted_us / (traced_p50 * 1000.0) : 0, "frac",
        s.traced_gen_xq_ms.size());
  res.detail.Set("traced.gen_xq_p50_ms", traced_p50, "ms",
                 s.traced_gen_xq_ms.size());
  res.detail.Set("untraced.gen_xq_p50_ms", untraced_p50, "ms",
                 s.gen_xq_ms.size());

  fs::create_directories(o.workdir);
  const std::string spans_path =
      (fs::path(o.workdir) / "spans-docgen.jsonl").string();
  if (spans.WriteJsonLines(spans_path)) {
    std::printf("spans: %zu written to %s\n", spans.spans().size(),
                spans_path.c_str());
  }
  return res;
}

}  // namespace lllbench
