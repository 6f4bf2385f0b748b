// perfbench_probe: the in-process half of the repository benchmark
// (perfbench/run.py drives it; the server never links it).
//
//   perfbench_probe gen    --seed S --dir D [--tiny]
//       Generates the Liquor, covid-daily and S&P 500 tables from the seed
//       (MakeLiquorTable / MakeCovidTable / MakeSp500Table), writes them as
//       v2 table snapshots, plus the covid prefix a streaming session opens
//       on and the append stream (one covid day per line; a seeded fixed
//       share of days carries a never-seen state and forces a rebuild).
//
//   perfbench_probe oracle --dir D --cases F
//       Reference answers for the sampled server responses in F: explain
//       cases run TSExplain::Run on the same snapshot and config, session
//       cases replay the same appends through StreamingTSExplain. Prints
//       one {"case":i,"result":{...}} line per case, rendered exactly as
//       the server renders its "result".
//
//   perfbench_probe replay --dir D --cases F --lines L --spans OUT
//       The traced staged replay. Times each layer through its public
//       call (OpenTableSnapshot, ExplanationRegistry::Build, the cube,
//       masks, SegmentExplainer, SelectSketch, VarianceTable::Compute,
//       KSegmentationDp, SelectElbowK, segment explanation, JSON render,
//       StreamingTSExplain, ParseJson, CanonicalizeQuery), keeps the spans
//       in memory and writes them to OUT at the end, and asserts that every
//       staged result equals TSExplain::Run bit for bit. Prints one summary
//       JSON line (per-layer self times, counts, equality verdict).
//
// Reference work (oracle, and the replay's TSExplain::Run comparison) runs
// on half the hardware threads, one engine per thread.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/common/strings.h"
#include "src/cube/canonical_mask.h"
#include "src/cube/explanation_cube.h"
#include "src/cube/support_filter.h"
#include "src/datagen/covid_sim.h"
#include "src/datagen/liquor_sim.h"
#include "src/datagen/sp500_sim.h"
#include "src/diff/explanation_registry.h"
#include "src/pipeline/report_json.h"
#include "src/pipeline/streaming.h"
#include "src/pipeline/tsexplain.h"
#include "src/seg/elbow.h"
#include "src/seg/kseg_dp.h"
#include "src/seg/segment_explainer.h"
#include "src/seg/sketch.h"
#include "src/seg/variance.h"
#include "src/seg/variance_table.h"
#include "src/service/protocol.h"
#include "src/service/query_key.h"
#include "src/storage/session_log.h"
#include "src/storage/table_snapshot.h"

namespace tsexplain {
namespace {

using Clock = std::chrono::steady_clock;

// Days of the covid table a streaming session opens on; the rest of the
// table is appended one day at a time.
constexpr int kStreamDays = 120;
constexpr int kTinyStreamDays = 12;
constexpr int kTinyLiquorDays = 12;
// One append in kFreshEvery carries a never-seen state (forced rebuild):
// one in five keeps p90 inside the rebuild latencies, away from the step
// between plain and rebuilding appends.
constexpr int kFreshEvery = 5;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_probe: %s\n", message.c_str());
  std::exit(2);
}

std::string Arg(int argc, char** argv, const std::string& flag,
                const std::string& fallback = "") {
  for (int i = 2; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 2; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

JsonValue ParseOrDie(const std::string& text) {
  JsonValue value;
  std::string error;
  if (!ParseJson(text, &value, &error)) Die("bad JSON: " + error);
  return value;
}

std::string Num(double v) { return StrFormat("%.17g", v); }

// ---------------------------------------------------------------- gen ---

std::unique_ptr<Table> PrefixTable(const Table& src, size_t days) {
  auto out = std::make_unique<Table>(src.schema());
  for (size_t t = 0; t < days; ++t) out->AddTimeBucket(src.time_labels()[t]);
  const size_t nd = src.schema().num_dimensions();
  const size_t nm = src.schema().num_measures();
  std::vector<std::string> dims(nd);
  std::vector<double> measures(nm);
  for (size_t r = 0; r < src.num_rows(); ++r) {
    const TimeId t = src.time(r);
    if (static_cast<size_t>(t) >= days) continue;
    for (size_t a = 0; a < nd; ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      dims[a] = src.dictionary(attr).ToString(src.dim(r, attr));
    }
    for (size_t m = 0; m < nm; ++m) {
      measures[m] = src.measure(r, static_cast<int>(m));
    }
    out->AppendRow(t, dims, measures);
  }
  return out;
}

void WriteSnapshot(const Table& table, const std::string& path) {
  const storage::StorageStatus status =
      storage::WriteTableSnapshot(table, path);
  if (!status.ok()) Die("write " + path + ": " + status.ToString());
}

std::string TableStats(const Table& table) {
  return StrFormat("{\"rows\":%zu,\"buckets\":%zu,\"fingerprint\":\"%016llx\"}",
                   table.num_rows(), table.num_time_buckets(),
                   static_cast<unsigned long long>(
                       storage::TableFingerprint(table)));
}

int Gen(int argc, char** argv) {
  const uint64_t seed = std::stoull(Arg(argc, argv, "--seed", "1"));
  const std::string dir = Arg(argc, argv, "--dir");
  const bool tiny = HasFlag(argc, argv, "--tiny");
  if (dir.empty()) Die("gen needs --dir");

  std::unique_ptr<Table> liquor = MakeLiquorTable(seed);
  if (tiny) liquor = PrefixTable(*liquor, kTinyLiquorDays);
  const std::unique_ptr<Table> covid = MakeCovidTable(seed);
  const std::unique_ptr<Table> sp500 = MakeSp500Table(seed);
  const int stream_days = tiny ? kTinyStreamDays : kStreamDays;
  const size_t prefix_days = covid->num_time_buckets() - stream_days;
  const std::unique_ptr<Table> prefix = PrefixTable(*covid, prefix_days);
  WriteSnapshot(*liquor, dir + "/liquor.tsx");
  WriteSnapshot(*covid, dir + "/covid.tsx");
  WriteSnapshot(*sp500, dir + "/sp500.tsx");
  WriteSnapshot(*prefix, dir + "/covid_prefix.tsx");

  // The append stream: the covid days after the prefix, one line each. A
  // seeded fixed share of days renames one state to a value no session has
  // seen, which introduces new cells and forces a full engine rebuild.
  // Stratified: exactly one fresh day in every block of kFreshEvery days,
  // at a seeded position, so rebuilds are spread alike for every seed.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  std::vector<bool> fresh(static_cast<size_t>(stream_days), false);
  for (int block = 0; block + kFreshEvery <= stream_days; block += kFreshEvery) {
    fresh[static_cast<size_t>(block) + rng() % kFreshEvery] = true;
  }
  std::vector<std::vector<std::string>> day_rows(
      static_cast<size_t>(stream_days));
  const AttrId state = 0;
  for (size_t r = 0; r < covid->num_rows(); ++r) {
    const int t = covid->time(r);
    if (t < static_cast<int>(prefix_days)) continue;
    const size_t d = static_cast<size_t>(t) - prefix_days;
    std::string value = covid->dictionary(state).ToString(covid->dim(r, state));
    if (fresh[d] && day_rows[d].empty()) value = StrFormat("NEW%zu", d);
    std::string row = "{\"dims\":[\"" + JsonEscape(value) + "\"],\"measures\":[";
    for (size_t m = 0; m < covid->schema().num_measures(); ++m) {
      if (m > 0) row += ",";
      row += Num(covid->measure(r, static_cast<int>(m)));
    }
    day_rows[d].push_back(row + "]}");
  }
  std::ofstream stream(dir + "/stream.ndjson");
  for (size_t d = 0; d < day_rows.size(); ++d) {
    stream << "{\"label\":\""
           << JsonEscape(covid->time_labels()[prefix_days + d])
           << "\",\"fresh\":" << (fresh[d] ? "true" : "false")
           << ",\"rows\":[" << Join(day_rows[d], ",") << "]}\n";
  }
  if (!stream) Die("write stream.ndjson");
  std::printf(
      "{\"liquor\":%s,\"covid\":%s,\"sp500\":%s,\"covid_prefix\":%s,"
      "\"stream_days\":%d,\"fresh_days\":%d}\n",
      TableStats(*liquor).c_str(), TableStats(*covid).c_str(),
      TableStats(*sp500).c_str(), TableStats(*prefix).c_str(), stream_days,
      stream_days / kFreshEvery);
  return 0;
}

// -------------------------------------------------------------- cases ---

struct StreamDay {
  std::string label;
  std::vector<StreamRow> rows;
};

std::vector<StreamDay> ReadStream(const std::string& path) {
  std::vector<StreamDay> days;
  for (const std::string& line : ReadLines(path)) {
    const JsonValue v = ParseOrDie(line);
    StreamDay day;
    day.label = v.GetString("label");
    for (const JsonValue& r : v.Find("rows")->array()) {
      StreamRow row;
      for (const JsonValue& d : r.Find("dims")->array()) {
        row.dims.push_back(d.AsString());
      }
      for (const JsonValue& m : r.Find("measures")->array()) {
        row.measures.push_back(m.AsDouble());
      }
      day.rows.push_back(std::move(row));
    }
    days.push_back(std::move(day));
  }
  return days;
}

// One server answer to reproduce or engine to replay (run.py writes these).
struct Case {
  bool session = false;
  std::string table;  // snapshot file name inside --dir
  TSExplainConfig config;
  std::string engine_key;  // canonical key: cases sharing it share an engine
  bool trendlines = false;
  bool k_curve = true;
  int appends = 0;  // session cases: appends before the explain
};

std::vector<Case> ReadCases(const std::string& path) {
  std::vector<Case> cases;
  for (const std::string& line : ReadLines(path)) {
    const JsonValue v = ParseOrDie(line);
    const JsonValue* request = v.Find("request");
    if (request == nullptr) Die("case without request");
    Case c;
    c.session = v.GetString("kind") == "session";
    c.table = v.GetString("table");
    std::string error;
    if (!ParseQueryConfig(*request, &c.config, &error)) {
      Die("case config: " + error);
    }
    // The server's normalization: explain-by sorted and deduplicated.
    std::vector<std::string>& by = c.config.explain_by_names;
    std::sort(by.begin(), by.end());
    by.erase(std::unique(by.begin(), by.end()), by.end());
    c.config.threads = 1;
    c.engine_key = c.table + "#" + CanonicalizeQuery("x", c.config).engine_key;
    c.trendlines = request->GetBool("trendlines", false);
    c.k_curve = request->GetBool("k_curve", true);
    c.appends = v.GetInt("appends", 0);
    cases.push_back(std::move(c));
  }
  return cases;
}

ReportOptions WireOptions(const Case& c) {
  ReportOptions options;
  options.include_trendlines = c.trendlines;
  options.include_k_curve = c.k_curve;
  options.pretty = false;
  return options;
}

class TableCache {
 public:
  explicit TableCache(std::string dir) : dir_(std::move(dir)) {}
  const Table& Get(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      storage::TableSnapshotResult r =
          storage::OpenTableSnapshot(dir_ + "/" + name);
      if (!r.ok()) Die("open " + name + ": " + r.status.ToString());
      it = tables_.emplace(name, std::move(r.table)).first;
    }
    return *it->second;
  }

 private:
  std::string dir_;
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

// Case indices grouped by engine (first-appearance order) so each engine is
// built once.
std::vector<std::vector<size_t>> GroupByEngine(const std::vector<Case>& cases,
                                               bool session) {
  std::vector<std::vector<size_t>> groups;
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].session != session) continue;
    auto it = index.find(cases[i].engine_key);
    if (it == index.end()) {
      it = index.emplace(cases[i].engine_key, groups.size()).first;
      groups.emplace_back();
    }
    groups[it->second].push_back(i);
  }
  return groups;
}

// Runs fn(g) for every group on half the hardware threads.
template <typename Fn>
void ForEachGroup(size_t num_groups, const Fn& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const int workers = static_cast<int>(std::thread::hardware_concurrency() / 2);
  const int n = std::max(1, std::min<int>(workers, static_cast<int>(num_groups)));
  for (int w = 0; w < n; ++w) {
    threads.emplace_back([&]() {
      for (size_t g = next++; g < num_groups; g = next++) fn(g);
    });
  }
  for (std::thread& t : threads) t.join();
}

// Session cases of one config: replays appends in order, calling Explain
// after each (as the server does for append + explain_session), and hands
// the result after the k-th append to emit(case index, engine, result).
template <typename Emit>
void ReplaySessionGroup(const std::vector<Case>& cases,
                        const std::vector<size_t>& group, const Table& prefix,
                        const std::vector<StreamDay>& stream,
                        const Emit& emit) {
  std::vector<size_t> order = group;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return cases[a].appends < cases[b].appends;
  });
  // No explain before the first append: a session's first explain_session
  // follows its first append, and the first Explain seeds the incremental
  // candidates of every later one.
  StreamingTSExplain engine(prefix, cases[order.front()].config);
  int done = 0;
  TSExplainResult result;
  for (size_t i : order) {
    if (cases[i].appends > static_cast<int>(stream.size())) {
      Die("session case beyond the append stream");
    }
    while (done < cases[i].appends) {
      const StreamDay& day = stream[static_cast<size_t>(done)];
      engine.AppendBucket(day.label, day.rows);
      result = engine.Explain(1);
      ++done;
    }
    emit(i, engine, result);
  }
}

int Oracle(int argc, char** argv) {
  const std::string dir = Arg(argc, argv, "--dir");
  const std::vector<Case> cases = ReadCases(Arg(argc, argv, "--cases"));
  TableCache tables(dir);
  std::vector<std::string> out(cases.size());

  const auto explain_groups = GroupByEngine(cases, /*session=*/false);
  ForEachGroup(explain_groups.size(), [&](size_t g) {
    const Case& first = cases[explain_groups[g].front()];
    TSExplain engine(tables.Get(first.table), first.config);
    for (size_t i : explain_groups[g]) {
      const TSExplainResult result =
          engine.Run(SegmentationSpec::FromConfig(cases[i].config));
      out[i] = RenderJsonReport(engine, result, WireOptions(cases[i]));
    }
  });

  const auto session_groups = GroupByEngine(cases, /*session=*/true);
  if (!session_groups.empty()) {
    const std::vector<StreamDay> stream = ReadStream(dir + "/stream.ndjson");
    ForEachGroup(session_groups.size(), [&](size_t g) {
      const Case& first = cases[session_groups[g].front()];
      ReplaySessionGroup(cases, session_groups[g], tables.Get(first.table),
                         stream,
                         [&](size_t i, const StreamingTSExplain& engine,
                             const TSExplainResult& result) {
                           out[i] = RenderJsonReport(engine.cube(), result,
                                                     WireOptions(cases[i]));
                         });
    });
  }
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("{\"case\":%zu,\"result\":%s}\n", i, out[i].c_str());
  }
  return 0;
}

// ------------------------------------------------------------- replay ---

// One traced call. Times are microseconds from the replay's start; parent
// is an index into the span list (-1 = top level); request is the case
// (or engine group) the span belongs to.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  long request = -1;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  int Begin(const std::string& name, int parent, long request) {
    spans_.push_back({name, NowUs(), 0.0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end_us = NowUs(); }
  // Work a counter attributes to a parent span (gamma fills and Cascading
  // Analysts run inside TopFor calls): recorded as a child of that
  // duration placed at the parent's start, so self time nets it out.
  void AddCounted(const std::string& name, int parent, double ms) {
    if (ms <= 0.0) return;
    const Span& p = spans_[static_cast<size_t>(parent)];
    spans_.push_back({name, p.start_us, p.start_us + ms * 1000.0, parent,
                      p.request});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Self time per span name: duration minus the part its children cover
// (children of one parent never overlap here: calls are sequential).
struct LayerTotals {
  double total_ms = 0.0;
  double self_ms = 0.0;
  long calls = 0;
};

std::map<std::string, LayerTotals> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double dur = spans[i].end_us - spans[i].start_us;
    LayerTotals& t = totals[spans[i].name];
    t.total_ms += dur / 1000.0;
    t.self_ms += std::max(0.0, dur - child_us[i]) / 1000.0;
    ++t.calls;
  }
  return totals;
}

// The comparable core of a result: cuts, K, top-m ids and gammas.
struct Answer {
  std::vector<int> cuts;
  int k = 0;
  std::vector<std::vector<ExplId>> ids;
  std::vector<std::vector<double>> gammas;
  std::vector<double> curve;
};

Answer AnswerOf(const TSExplainResult& r) {
  Answer a;
  a.cuts = r.segmentation.cuts;
  a.k = r.chosen_k;
  for (const SegmentExplanation& seg : r.segments) {
    a.ids.emplace_back();
    a.gammas.emplace_back();
    for (const ExplanationItem& item : seg.top) {
      a.ids.back().push_back(item.id);
      a.gammas.back().push_back(item.gamma);
    }
  }
  a.curve = r.k_variance_curve;
  return a;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string Diff(const Answer& staged, const Answer& ref) {
  if (staged.cuts != ref.cuts) return "cuts differ";
  if (staged.k != ref.k) return "K differs";
  if (staged.ids != ref.ids) return "top-m ids differ";
  if (staged.gammas.size() != ref.gammas.size()) return "segments differ";
  for (size_t s = 0; s < staged.gammas.size(); ++s) {
    if (!SameBits(staged.gammas[s], ref.gammas[s])) return "gammas differ";
  }
  if (!SameBits(staged.curve, ref.curve)) return "K-variance curve differs";
  return "";
}

// Engine state built stage by stage, mirroring the TSExplain constructor.
struct StagedEngine {
  ExplanationRegistry registry;
  std::unique_ptr<ExplanationCube> cube;
  std::vector<bool> active;
  size_t canonical = 0;
  size_t active_count = 0;
  std::unique_ptr<SegmentExplainer> explainer;
};

struct ReplayCounts {
  long registry_cells = 0;
  long active_cells = 0;
  long candidates = 0;
  long topfor_cached = 0;
  long ca_invocations = 0;
  long queries = 0;
  long engines = 0;
};

std::vector<AttrId> AttrsOf(const Table& table, const TSExplainConfig& c) {
  std::vector<AttrId> attrs;
  for (const std::string& name : c.explain_by_names) {
    const AttrId a = table.schema().DimensionIndex(name);
    if (a == kInvalidAttrId) Die("unknown dimension " + name);
    attrs.push_back(a);
  }
  return attrs;
}

std::unique_ptr<StagedEngine> BuildStaged(Tracer& tr, int parent, long req,
                                          const Table& table,
                                          const TSExplainConfig& c) {
  if (!c.exclude.empty()) Die("replay does not stage exclude lists");
  auto e = std::make_unique<StagedEngine>();
  const int measure = c.measure.empty() ? -1
                                        : table.schema().MeasureIndex(c.measure);
  const std::vector<AttrId> attrs = AttrsOf(table, c);
  int s = tr.Begin("diff.registry_build", parent, req);
  e->registry = ExplanationRegistry::Build(table, attrs, c.max_order);
  tr.End(s);
  s = tr.Begin("cube.build", parent, req);
  e->cube = std::make_unique<ExplanationCube>(table, e->registry, c.aggregate,
                                              measure, 1);
  if (c.smooth_window > 1) e->cube->SmoothInPlace(c.smooth_window);
  tr.End(s);
  s = tr.Begin("cube.mask", parent, req);
  e->canonical = e->registry.num_explanations();
  e->active_count = e->canonical;
  if (c.dedupe_redundant) {
    e->active = ComputeCanonicalMask(*e->cube, e->registry);
    e->canonical = CountActive(e->active);
    e->active_count = e->canonical;
  }
  if (c.use_filter) {
    std::vector<bool> filter = ComputeSupportFilter(*e->cube, c.filter_ratio);
    e->active = e->active.empty() ? std::move(filter)
                                  : AndMasks(e->active, filter);
    e->active_count = CountActive(e->active);
  }
  tr.End(s);
  s = tr.Begin("seg.explainer_init", parent, req);
  SegmentExplainer::Options options;
  options.m = c.m;
  options.metric = c.diff_metric;
  options.use_guess_verify = c.use_guess_verify;
  options.initial_guess = c.initial_guess;
  options.active = e->active.empty() ? nullptr : &e->active;
  e->explainer =
      std::make_unique<SegmentExplainer>(*e->cube, e->registry, options);
  tr.End(s);
  return e;
}

// Records the explainer's gamma-fill / CA counter deltas since `before`
// as counted children of `span`; returns the new counter reading.
ExplainerTiming AttributeCounters(Tracer& tr, int span, SegmentExplainer& ex,
                                  const ExplainerTiming& before) {
  const ExplainerTiming now = ex.timing();
  tr.AddCounted("cube.gamma_fill", span, now.precompute_ms - before.precompute_ms);
  tr.AddCounted("diff.ca", span, now.cascading_ms - before.cascading_ms);
  return now;
}

// TSExplain::Run(spec), one stage per span.
TSExplainResult RunStaged(Tracer& tr, int parent, long req, const Table& table,
                          StagedEngine& e, const SegmentationSpec& spec,
                          const ReportOptions& report, ReplayCounts* counts) {
  SegmentExplainer& ex = *e.explainer;
  ExplainerTiming t = ex.timing();
  TSExplainResult result;
  result.epsilon = e.canonical;
  result.filtered_epsilon = e.active_count;
  const int n = ex.n();
  VarianceCalculator calc(ex, spec.variance_metric);

  std::vector<int> positions;
  int s = tr.Begin("seg.sketch", parent, req);
  if (spec.use_sketch) {
    SketchResult sketch = SelectSketch(calc, spec.sketch_params);
    result.sketch_positions = sketch.positions;
    positions = std::move(sketch.positions);
  } else {
    positions.resize(static_cast<size_t>(n));
    std::iota(positions.begin(), positions.end(), 0);
  }
  tr.End(s);
  t = AttributeCounters(tr, s, ex, t);
  counts->candidates += static_cast<long>(positions.size());

  s = tr.Begin("seg.variance_table", parent, req);
  const VarianceTable vt = VarianceTable::Compute(calc, positions, -1, 1);
  tr.End(s);
  t = AttributeCounters(tr, s, ex, t);

  const int dp_max_k = spec.fixed_k > 0 ? spec.fixed_k : spec.max_k;
  s = tr.Begin("seg.dp", parent, req);
  KSegmentationDp dp(vt, dp_max_k);
  result.k_variance_curve = dp.Curve();
  tr.End(s);
  if (spec.fixed_k > 0) {
    int k = std::min(spec.fixed_k, dp.max_k());
    while (k > 1 && !dp.Feasible(k)) --k;
    result.chosen_k = k;
  } else {
    s = tr.Begin("seg.elbow", parent, req);
    result.chosen_k = SelectElbowK(result.k_variance_curve);
    tr.End(s);
  }
  s = tr.Begin("seg.dp", parent, req);
  result.segmentation = dp.Reconstruct(result.chosen_k);
  tr.End(s);

  // TSExplain::ExplainSegment over the final segments, plus the
  // high-variance hints.
  s = tr.Begin("pipeline.segment_explain", parent, req);
  const TimeSeries overall = e.cube->OverallSeries();
  double variance_sum = 0.0;
  for (size_t i = 0; i + 1 < result.segmentation.cuts.size(); ++i) {
    SegmentExplanation seg;
    seg.begin = result.segmentation.cuts[i];
    seg.end = result.segmentation.cuts[i + 1];
    seg.begin_label = overall.LabelAt(static_cast<size_t>(seg.begin));
    seg.end_label = overall.LabelAt(static_cast<size_t>(seg.end));
    const TopExplanations& top = ex.TopFor(seg.begin, seg.end);
    for (size_t r = 0; r < top.ids.size(); ++r) {
      ExplanationItem item;
      item.id = top.ids[r];
      item.description = e.registry.explanation(item.id).ToString(table);
      item.gamma = top.gammas[r];
      item.tau = ex.Score(item.id, seg.begin, seg.end).tau;
      seg.top.push_back(std::move(item));
    }
    seg.variance = calc.SegmentVariance(seg.begin, seg.end);
    variance_sum += seg.variance;
    result.segments.push_back(std::move(seg));
  }
  const double mean_variance =
      result.segments.empty()
          ? 0.0
          : variance_sum / static_cast<double>(result.segments.size());
  for (SegmentExplanation& seg : result.segments) {
    const bool above_peers = result.segments.size() <= 1 ||
                             seg.variance > 1.5 * mean_variance;
    seg.high_variance_hint = seg.variance > 0.1 && above_peers;
  }
  tr.End(s);
  AttributeCounters(tr, s, ex, t);

  s = tr.Begin("pipeline.render_json", parent, req);
  const std::string json = RenderJsonReport(*e.cube, result, report);
  tr.End(s);
  if (json.empty()) Die("empty render");
  ++counts->queries;
  return result;
}

int Replay(int argc, char** argv) {
  const std::string dir = Arg(argc, argv, "--dir");
  const std::vector<Case> cases = ReadCases(Arg(argc, argv, "--cases"));
  const std::vector<std::string> lines = ReadLines(Arg(argc, argv, "--lines"));
  const std::string spans_path = Arg(argc, argv, "--spans");
  if (spans_path.empty()) Die("replay needs --spans");

  Tracer tr;
  ReplayCounts counts;

  // storage: open every snapshot the cases use, five times each.
  std::map<std::string, std::unique_ptr<Table>> tables;
  for (const Case& c : cases) {
    if (tables.count(c.table)) continue;
    for (int rep = 0; rep < 5; ++rep) {
      const int s = tr.Begin("storage.snapshot_open", -1, -1);
      storage::TableSnapshotResult r =
          storage::OpenTableSnapshot(dir + "/" + c.table);
      tr.End(s);
      if (!r.ok()) Die("open " + c.table + ": " + r.status.ToString());
      tables[c.table] = std::move(r.table);
    }
  }

  // Explain cases: staged engines, one group per engine key. Only the
  // comparable answers are kept, so one staged engine is resident at a time.
  const auto groups = GroupByEngine(cases, /*session=*/false);
  std::vector<Answer> staged(cases.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const Case& first = cases[groups[g].front()];
    const Table& table = *tables.at(first.table);
    const int engine_span = tr.Begin("engine", -1, static_cast<long>(g));
    std::unique_ptr<StagedEngine> e =
        BuildStaged(tr, engine_span, static_cast<long>(g), table, first.config);
    tr.End(engine_span);
    counts.registry_cells += static_cast<long>(e->registry.num_explanations());
    counts.active_cells += static_cast<long>(e->active_count);
    ++counts.engines;
    for (size_t i : groups[g]) {
      const int q = tr.Begin("query", -1, static_cast<long>(i));
      const TSExplainResult r =
          RunStaged(tr, q, static_cast<long>(i), table, *e,
                    SegmentationSpec::FromConfig(cases[i].config),
                    WireOptions(cases[i]), &counts);
      tr.End(q);
      staged[i] = AnswerOf(r);
    }
    counts.topfor_cached += static_cast<long>(e->explainer->cache_size());
    counts.ca_invocations += static_cast<long>(e->explainer->ca_invocations());
  }

  // Streaming: each session config replays the append stream through
  // StreamingTSExplain, logging through the server's session-log writer.
  const auto session_groups = GroupByEngine(cases, /*session=*/true);
  long appends = 0, rebuilds = 0;
  double log_bytes = 0.0;
  if (!session_groups.empty()) {
    const std::vector<StreamDay> stream = ReadStream(dir + "/stream.ndjson");
    for (size_t g = 0; g < session_groups.size(); ++g) {
      const Case& first = cases[session_groups[g].front()];
      int max_appends = 0;
      for (size_t i : session_groups[g]) {
        max_appends = std::max(max_appends, cases[i].appends);
      }
      const Table& prefix = *tables.at(first.table);
      const long req = static_cast<long>(session_groups[g].front());
      int s = tr.Begin("pipeline.stream_open", -1, req);
      StreamingTSExplain engine(prefix, first.config);
      tr.End(s);
      const std::string log_path = StrFormat("%s/replay_%zu.log", dir.c_str(), g);
      storage::SessionLogWriter log;
      if (!log.Open(log_path, "covid_prefix", storage::TableFingerprint(prefix),
                    first.config).ok()) {
        Die("cannot open " + log_path);
      }
      engine.set_append_observer(
          [&log](const std::string& label, const std::vector<StreamRow>& rows) {
            if (!log.LogAppend(label, rows).ok()) Die("session log append");
          });
      std::ifstream header(log_path, std::ios::binary | std::ios::ate);
      const double header_bytes = static_cast<double>(header.tellg());
      for (int d = 0; d < max_appends && d < static_cast<int>(stream.size()); ++d) {
        const StreamDay& day = stream[static_cast<size_t>(d)];
        s = tr.Begin("pipeline.stream_append", -1, req);
        engine.AppendBucket(day.label, day.rows);
        tr.End(s);
        s = tr.Begin("pipeline.stream_explain", -1, req);
        engine.Explain(1);
        tr.End(s);
        ++appends;
        if (engine.last_append_rebuilt()) ++rebuilds;
      }
      log.Close();
      std::ifstream sized(log_path, std::ios::binary | std::ios::ate);
      log_bytes += static_cast<double>(sized.tellg()) - header_bytes;
      std::remove(log_path.c_str());
    }
  }

  // service: request-line parse and query canonicalization, timed over the
  // request lines the traced phase sent (repeated until >= 20 ms each).
  double parse_us = 0.0, canon_us = 0.0;
  long parse_calls = 0, canon_calls = 0;
  if (!lines.empty()) {
    std::vector<std::pair<std::string, TSExplainConfig>> configs;
    for (const std::string& line : lines) {
      const JsonValue request = ParseOrDie(line);
      const std::string op = request.GetString("op");
      if (op != "explain" && op != "open_session") continue;
      TSExplainConfig config;
      std::string error;
      if (ParseQueryConfig(request, &config, &error)) {
        configs.emplace_back(request.GetString("dataset"), config);
      }
    }
    const int s = tr.Begin("service.parse", -1, -1);
    do {
      for (const std::string& line : lines) {
        JsonValue v;
        std::string error;
        if (!ParseJson(line, &v, &error)) Die("request line does not parse");
      }
      parse_calls += static_cast<long>(lines.size());
    } while (tr.NowUs() - tr.spans()[static_cast<size_t>(s)].start_us < 20000.0);
    tr.End(s);
    parse_us = tr.spans()[static_cast<size_t>(s)].end_us -
               tr.spans()[static_cast<size_t>(s)].start_us;
    if (!configs.empty()) {
      const int c = tr.Begin("service.canonicalize", -1, -1);
      size_t sink = 0;
      do {
        for (const auto& [dataset, config] : configs) {
          sink += CanonicalizeQuery(dataset, config).query_key.size();
        }
        canon_calls += static_cast<long>(configs.size());
      } while (tr.NowUs() - tr.spans()[static_cast<size_t>(c)].start_us < 20000.0);
      tr.End(c);
      if (sink == 0) Die("empty canonical keys");
      canon_us = tr.spans()[static_cast<size_t>(c)].end_us -
                 tr.spans()[static_cast<size_t>(c)].start_us;
    }
  }

  // The staged answers must equal TSExplain::Run on the same table and
  // config, bit for bit (run after all timing, one engine per thread).
  std::vector<std::string> mismatches;
  std::mutex mismatch_mu;
  ForEachGroup(groups.size(), [&](size_t g) {
    const Case& first = cases[groups[g].front()];
    TSExplain engine(*tables.at(first.table), first.config);
    for (size_t i : groups[g]) {
      const std::string diff = Diff(
          staged[i],
          AnswerOf(engine.Run(SegmentationSpec::FromConfig(cases[i].config))));
      if (!diff.empty()) {
        std::lock_guard<std::mutex> lock(mismatch_mu);
        mismatches.push_back(StrFormat("case %zu: %s", i, diff.c_str()));
      }
    }
  });

  // Spans out, then the summary.
  {
    std::ofstream out(spans_path);
    out << "[";
    for (size_t i = 0; i < tr.spans().size(); ++i) {
      const Span& sp = tr.spans()[i];
      out << (i ? ",\n" : "") << "{\"name\":\"" << sp.name
          << "\",\"start_us\":" << Num(sp.start_us)
          << ",\"end_us\":" << Num(sp.end_us) << ",\"parent\":" << sp.parent
          << ",\"request\":" << sp.request << "}";
    }
    out << "]\n";
    if (!out) Die("cannot write " + spans_path);
  }
  JsonWriter json(false);
  json.BeginObject();
  json.Key("layers");
  json.BeginObject();
  for (const auto& [name, t] : SelfTimes(tr.spans())) {
    json.Key(name);
    json.BeginObject();
    json.Key("self_ms");
    json.Raw(Num(t.self_ms));
    json.Key("total_ms");
    json.Raw(Num(t.total_ms));
    json.Key("calls");
    json.Int(t.calls);
    json.EndObject();
  }
  json.EndObject();
  json.Key("counts");
  json.BeginObject();
  for (const auto& [name, v] :
       std::vector<std::pair<std::string, long>>{
           {"engines", counts.engines},
           {"queries", counts.queries},
           {"registry_cells", counts.registry_cells},
           {"active_cells", counts.active_cells},
           {"candidates", counts.candidates},
           {"topfor_cached", counts.topfor_cached},
           {"ca_invocations", counts.ca_invocations},
           {"appends", appends},
           {"rebuilds", rebuilds},
           {"parse_calls", parse_calls},
           {"canonicalize_calls", canon_calls}}) {
    json.Key(name);
    json.Int(v);
  }
  json.EndObject();
  json.Key("log_bytes");
  json.Raw(Num(log_bytes));
  json.Key("parse_us_total");
  json.Raw(Num(parse_us));
  json.Key("canonicalize_us_total");
  json.Raw(Num(canon_us));
  json.Key("spans");
  json.Int(static_cast<long long>(tr.spans().size()));
  json.Key("compared");
  json.Int(static_cast<long long>(std::count_if(
      cases.begin(), cases.end(), [](const Case& c) { return !c.session; })));
  json.Key("mismatches");
  json.BeginArray();
  for (const std::string& m : mismatches) json.String(m);
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return mismatches.empty() ? 0 : 3;
}

}  // namespace
}  // namespace tsexplain

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "gen") return tsexplain::Gen(argc, argv);
  if (cmd == "oracle") return tsexplain::Oracle(argc, argv);
  if (cmd == "replay") return tsexplain::Replay(argc, argv);
  std::fprintf(stderr,
               "usage: perfbench_probe gen|oracle|replay [flags] "
               "(see the header of perfbench/probe.cc)\n");
  return 2;
}
