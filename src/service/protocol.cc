#include "src/service/protocol.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/metrics_history.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/cube/score_kernels.h"
#include "src/seg/segment_distance.h"
#include "src/service/watchdog.h"
#include "src/storage/table_snapshot.h"

// Build identity surfaced by `state` and the `metrics` op. CMake stamps
// the configure-time git SHA; embedders without the definition report
// "unknown" rather than failing to build.
#ifndef TSEXPLAIN_GIT_SHA
#define TSEXPLAIN_GIT_SHA "unknown"
#endif

namespace tsexplain {
namespace {

// Wall-clock timestamp for log records (the only place the service uses
// wall time; every latency is steady-clock).
double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Response envelope helpers ------------------------------------------------

// Echoes the request id (number or string; null when absent/invalid).
void EmitId(JsonWriter& json, const JsonValue* request) {
  json.Key("id");
  const JsonValue* id = request ? request->Find("id") : nullptr;
  if (id && id->IsNumber()) {
    const double d = id->AsDouble();
    // Integral ids in the exactly-representable range echo as integers;
    // anything else (fractional, huge, inf) echoes through Number, which
    // never performs an out-of-range double->int cast (UB).
    if (d >= -9.0e15 && d <= 9.0e15 &&
        d == static_cast<double>(static_cast<long long>(d))) {
      json.Int(static_cast<long long>(d));
    } else {
      json.Number(d);
    }
  } else if (id && id->IsString()) {
    json.String(id->AsString());
  } else {
    json.Null();
  }
}

// `retry_after_ms` > 0 (overload / quota sheds) is embedded in the error
// object so clients can back off without parsing the message.
std::string MakeError(const JsonValue* request, const std::string& op,
                      const std::string& code, const std::string& message,
                      double retry_after_ms = 0.0) {
  JsonWriter json(/*pretty=*/false);
  json.BeginObject();
  EmitId(json, request);
  json.Key("ok");
  json.Bool(false);
  if (!op.empty()) {
    json.Key("op");
    json.String(op);
  }
  json.Key("error");
  json.BeginObject();
  json.Key("code");
  json.String(code);
  json.Key("message");
  json.String(message);
  if (retry_after_ms > 0.0) {
    json.Key("retry_after_ms");
    json.Number(retry_after_ms);
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

// Begins the {"id":..,"ok":true,"op":..,"request_id":..} envelope; the
// caller adds op-specific fields and calls EndObject. The request id
// stays AHEAD of any op-specific payload so the warm-restart
// byte-identity checks (everything after `"result":`) are unaffected by
// per-process id sequences.
void BeginOk(JsonWriter& json, const JsonValue& request,
             const std::string& op, uint64_t request_id) {
  json.BeginObject();
  EmitId(json, &request);
  json.Key("ok");
  json.Bool(true);
  json.Key("op");
  json.String(op);
  json.Key("request_id");
  json.Int(static_cast<long long>(request_id));
}

// Emits the finalized span tree (trace.h) as a flat array; parents
// always precede their children, so clients rebuild the tree in one
// pass. Skipped entirely when the request did not ask for tracing.
void EmitTrace(JsonWriter& json, const std::vector<TraceSpan>& spans) {
  if (spans.empty()) return;
  json.Key("trace");
  json.BeginArray();
  for (const TraceSpan& span : spans) {
    json.BeginObject();
    json.Key("name");
    json.String(span.name);
    json.Key("start_ms");
    json.Number(span.start_ms);
    json.Key("duration_ms");
    json.Number(span.duration_ms);
    json.Key("parent");
    json.Int(span.parent);
    json.EndObject();
  }
  json.EndArray();
}

// The "build" block of `state` and the `metrics` op: who is this binary
// (docs/OBSERVABILITY.md, "Self-observation").
void EmitBuildInfo(JsonWriter& json, int pool_size) {
  json.Key("build");
  json.BeginObject();
  json.Key("git_sha");
  json.String(TSEXPLAIN_GIT_SHA);
  json.Key("simd");
  json.String(ScoreAllUsesSimd() ? "avx2" : "scalar");
  json.Key("pointer_bits");
  json.Int(static_cast<long long>(sizeof(void*) * 8));
  json.Key("threads");
  json.Int(pool_size);
  json.EndObject();
}

double UptimeSeconds(double start_wall_ms) {
  if (start_wall_ms <= 0.0) return 0.0;
  const double seconds = (WallMs() - start_wall_ms) / 1000.0;
  return seconds > 0.0 ? seconds : 0.0;
}

bool ParseAggregate(const std::string& name, AggregateFunction* out) {
  if (name == "sum") {
    *out = AggregateFunction::kSum;
  } else if (name == "count") {
    *out = AggregateFunction::kCount;
  } else if (name == "avg") {
    *out = AggregateFunction::kAvg;
  } else {
    return false;
  }
  return true;
}

bool ParseDiffMetric(const std::string& name, DiffMetricKind* out) {
  if (name == "abs") {
    *out = DiffMetricKind::kAbsoluteChange;
  } else if (name == "rel") {
    *out = DiffMetricKind::kRelativeChange;
  } else if (name == "rr") {
    *out = DiffMetricKind::kRiskRatio;
  } else {
    return false;
  }
  return true;
}

bool ParseVarianceMetric(const std::string& name, VarianceMetric* out) {
  for (VarianceMetric metric : kAllVarianceMetrics) {
    if (name == VarianceMetricName(metric)) {
      *out = metric;
      return true;
    }
  }
  return false;
}

// Session id field: a positive integer (bounded so the double->uint64
// cast below is always defined; fractional ids are rejected rather than
// silently truncated onto someone else's session).
bool ParseSessionId(const JsonValue& request, uint64_t* out,
                    std::string* error) {
  const JsonValue* v = request.Find("session");
  const double d = v && v->IsNumber() ? v->AsDouble() : 0.0;
  if (d < 1 || d > 9.0e15 ||
      d != static_cast<double>(static_cast<uint64_t>(d))) {
    *error = "missing or invalid 'session' (positive integer expected)";
    return false;
  }
  *out = static_cast<uint64_t>(d);
  return true;
}

}  // namespace

bool ParseQueryConfig(const JsonValue& request, TSExplainConfig* config,
                      std::string* error) {
  const std::string agg = request.GetString("agg", "sum");
  if (!ParseAggregate(agg, &config->aggregate)) {
    *error = "unknown aggregate: " + agg;
    return false;
  }
  config->measure = request.GetString("measure");
  if (request.Find("explain_by")) {
    bool ok = false;
    config->explain_by_names = request.GetStringArray("explain_by", &ok);
    if (!ok) {
      *error = "'explain_by' must be an array of strings";
      return false;
    }
  }
  config->max_order = request.GetInt("order", config->max_order);
  config->m = request.GetInt("m", config->m);
  config->fixed_k = request.GetInt("k", config->fixed_k);
  config->max_k = request.GetInt("max_k", config->max_k);
  config->smooth_window = request.GetInt("smooth", config->smooth_window);
  // A request may not ask for more threads than the shared pool has: the
  // cold engine build hands this count to the cube's ParallelFor, outside
  // the admission grant, so an oversized value would queue idle helper
  // tasks. Thread counts never change results. Negative values are left
  // for validation to reject.
  config->threads = std::min(request.GetInt("threads", config->threads),
                             ThreadPool::Shared().size());
  const std::string diff = request.GetString("diff_metric", "abs");
  if (!ParseDiffMetric(diff, &config->diff_metric)) {
    *error = "unknown diff_metric: " + diff;
    return false;
  }
  const std::string variance = request.GetString("variance_metric", "tse");
  if (!ParseVarianceMetric(variance, &config->variance_metric)) {
    *error = "unknown variance_metric: " + variance;
    return false;
  }
  if (request.GetBool("fast")) {
    config->use_filter = true;
    config->use_guess_verify = true;
    config->use_sketch = true;
  }
  config->use_filter = request.GetBool("filter", config->use_filter);
  config->filter_ratio =
      request.GetDouble("filter_ratio", config->filter_ratio);
  config->use_guess_verify =
      request.GetBool("guess_verify", config->use_guess_verify);
  config->initial_guess =
      request.GetInt("initial_guess", config->initial_guess);
  config->use_sketch = request.GetBool("sketch", config->use_sketch);
  config->dedupe_redundant =
      request.GetBool("dedupe", config->dedupe_redundant);
  if (request.Find("exclude")) {
    bool ok = false;
    config->exclude = request.GetStringArray("exclude", &ok);
    if (!ok) {
      *error = "'exclude' must be an array of strings";
      return false;
    }
  }
  return true;
}

bool ProtocolHandler::IsBarrierOp(const std::string& op) {
  // healthz is the one non-barrier write-free op beyond the read list:
  // liveness must answer while everything else is wedged, so transports
  // run it inline without draining (protocol.h).
  return !(op == "explain" || op == "explain_session" ||
           op == "recommend" || op == "list_datasets" || op == "healthz");
}

bool ProtocolHandler::IsExpensiveOp(const std::string& op) {
  return op == "explain" || op == "explain_session";
}

std::string ProtocolHandler::OpOf(const JsonValue& request) {
  return request.GetString("op");
}

std::string ProtocolHandler::MakeParseError(
    const std::string& message) const {
  return MakeError(nullptr, "", error_code::kParseError, message);
}

std::string ProtocolHandler::MakeOverloaded(const JsonValue& request) const {
  return MakeError(&request, OpOf(request), error_code::kOverloaded,
                   "server overloaded: request shed before dispatch",
                   service_.admission().RetryAfterMsHint());
}

std::string ProtocolHandler::Handle(const JsonValue& request) {
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  // The watchdog brackets the WHOLE handler, so a query wedged anywhere
  // (admission wait, engine run, render) ages in the in-flight set and
  // eventually surfaces through healthz / `query.stuck`.
  if (introspection_.watchdog) {
    introspection_.watchdog->Begin(request_id, OpOf(request));
  }
  Timer timer;
  const std::string response = HandleInternal(request, request_id);
  if (introspection_.watchdog) introspection_.watchdog->End(request_id);
  if (!log_.access_log) return response;
  // The envelope's "ok" is the first unescaped `"ok":` in the response
  // (JsonWriter escapes quotes inside string values, so a literal
  // `"ok":true` can only be the envelope's own field).
  const size_t ok_pos = response.find("\"ok\":true");
  const size_t fail_pos = response.find("\"ok\":false");
  const bool ok = ok_pos != std::string::npos &&
                  (fail_pos == std::string::npos || ok_pos < fail_pos);
  JsonWriter json(/*pretty=*/false);
  json.BeginObject();
  json.Key("ts_ms");
  json.Number(WallMs());
  json.Key("request_id");
  json.Int(static_cast<long long>(request_id));
  json.Key("op");
  json.String(OpOf(request));
  json.Key("ok");
  json.Bool(ok);
  json.Key("latency_ms");
  json.Number(timer.ElapsedMs());
  json.EndObject();
  log_.access_log->WriteLine(json.str());
  return response;
}

void ProtocolHandler::MaybeLogSlowQuery(const std::string& op,
                                        uint64_t request_id,
                                        const std::string& dataset,
                                        uint64_t session,
                                        const std::string& tenant,
                                        const ExplainResponse& response) {
  if (!log_.slow_query_log || log_.slow_query_ms <= 0.0) return;
  if (response.latency_ms < log_.slow_query_ms) return;
  JsonWriter json(/*pretty=*/false);
  json.BeginObject();
  json.Key("ts_ms");
  json.Number(WallMs());
  json.Key("request_id");
  json.Int(static_cast<long long>(request_id));
  json.Key("op");
  json.String(op);
  if (!dataset.empty()) {
    json.Key("dataset");
    json.String(dataset);
  }
  if (session != 0) {
    json.Key("session");
    json.Int(static_cast<long long>(session));
  }
  json.Key("tenant");
  json.String(tenant);
  json.Key("query_key");
  json.String(response.query_key);
  json.Key("ok");
  json.Bool(response.ok);
  json.Key("cache_hit");
  json.Bool(response.cache_hit);
  json.Key("admission_outcome");
  json.String(response.admission_outcome);
  json.Key("latency_ms");
  json.Number(response.latency_ms);
  // Engine-phase breakdown (tsexplain.h): present only when this request
  // carries a freshly computed structured result (warm-started cache
  // entries persist the wire JSON alone).
  if (response.result) {
    json.Key("timing");
    json.BeginObject();
    json.Key("precompute_ms");
    json.Number(response.result->timing.precompute_ms);
    json.Key("cascading_ms");
    json.Number(response.result->timing.cascading_ms);
    json.Key("segmentation_ms");
    json.Number(response.result->timing.segmentation_ms);
    json.Key("total_ms");
    json.Number(response.result->timing.total_ms);
    json.EndObject();
  }
  json.EndObject();
  log_.slow_query_log->WriteLine(json.str());
}

std::string ProtocolHandler::HandleInternal(const JsonValue& request,
                                            uint64_t request_id) {
  if (!request.IsObject()) {
    return MakeError(&request, "", error_code::kBadRequest,
                     "request must be a JSON object");
  }
  const std::string op = OpOf(request);

  if (op == "register") {
    const std::string name = request.GetString("name");
    if (name.empty()) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "missing 'name'");
    }
    const std::string path = request.GetString("csv_path");
    const std::string inline_csv = request.GetString("csv");
    if (path.empty() == inline_csv.empty()) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "exactly one of 'csv_path' or 'csv' is required");
    }
    std::string error;
    DatasetInfo info;  // from registration, not a racy Get() re-lookup
    bool ok = false;
    if (!path.empty() && storage::IsTableSnapshotFile(path)) {
      // A csv_path that is really a binary table snapshot registers
      // through the storage layer (no re-parse; docs/STORAGE.md). The
      // time/measure columns are baked into the snapshot's schema, so
      // 'time_column' is not required.
      ok = service_.registry().RegisterSnapshotFile(name, path, &error,
                                                    &info);
    } else {
      CsvOptions options;
      options.time_column = request.GetString("time_column");
      if (options.time_column.empty()) {
        return MakeError(&request, op, error_code::kBadRequest,
                         "missing 'time_column'");
      }
      bool measures_ok = true;
      if (request.Find("measures")) {
        options.measure_columns =
            request.GetStringArray("measures", &measures_ok);
      }
      if (!measures_ok) {
        return MakeError(&request, op, error_code::kBadRequest,
                         "'measures' must be an array of strings");
      }
      options.sort_time = request.GetBool("sort_time", true);
      ok = path.empty()
               ? service_.registry().RegisterCsvText(name, inline_csv,
                                                     options, &error, &info)
               : service_.registry().RegisterCsvFile(name, path, options,
                                                     &error, &info);
    }
    if (!ok) {
      return MakeError(&request, op, error_code::kBadRequest, error);
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("dataset");
    json.String(name);
    json.Key("rows");
    json.Int(static_cast<long long>(info.rows));
    json.Key("time_buckets");
    json.Int(static_cast<long long>(info.time_buckets));
    json.EndObject();
    return json.str();
  }

  if (op == "list_datasets") {
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("datasets");
    json.BeginArray();
    for (const DatasetInfo& info : service_.registry().List()) {
      json.BeginObject();
      json.Key("name");
      json.String(info.name);
      json.Key("source");
      json.String(info.source);
      json.Key("rows");
      json.Int(static_cast<long long>(info.rows));
      json.Key("time_buckets");
      json.Int(static_cast<long long>(info.time_buckets));
      json.Key("dimensions");
      json.BeginArray();
      for (const std::string& dim : info.dimensions) json.String(dim);
      json.EndArray();
      json.Key("measures");
      json.BeginArray();
      for (const std::string& measure : info.measures) {
        json.String(measure);
      }
      json.EndArray();
      json.Key("hot_engines");
      json.Int(static_cast<long long>(info.hot_engines));
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    return json.str();
  }

  if (op == "drop_dataset") {
    const std::string name = request.GetString("name");
    // Service-level drop: also invalidates the dataset's cached results,
    // so a later re-register under the same name starts clean.
    if (!service_.DropDataset(name)) {
      return MakeError(&request, op, error_code::kNotFound,
                       "unknown dataset: " + name);
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("dataset");
    json.String(name);
    json.EndObject();
    return json.str();
  }

  if (op == "explain") {
    ExplainRequest explain;
    explain.dataset = request.GetString("dataset");
    if (explain.dataset.empty()) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "missing 'dataset'");
    }
    std::string parse_error;
    if (!ParseQueryConfig(request, &explain.config, &parse_error)) {
      return MakeError(&request, op, error_code::kBadRequest, parse_error);
    }
    explain.tenant = request.GetString("tenant");
    explain.include_trendlines = request.GetBool("trendlines", false);
    explain.include_k_curve = request.GetBool("k_curve", true);
    explain.trace = request.GetBool("trace", false);
    const ExplainResponse response = service_.Explain(explain);
    MaybeLogSlowQuery(op, request_id, explain.dataset, /*session=*/0,
                      explain.tenant, response);
    if (!response.ok) {
      return MakeError(&request, op, response.error_code, response.error,
                       response.retry_after_ms);
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("dataset");
    json.String(explain.dataset);
    json.Key("cache_hit");
    json.Bool(response.cache_hit);
    json.Key("latency_ms");
    json.Number(response.latency_ms);
    EmitTrace(json, response.trace);
    json.Key("result");
    json.Raw(response.json);
    json.EndObject();
    return json.str();
  }

  if (op == "recommend") {
    const std::string dataset = request.GetString("dataset");
    if (dataset.empty()) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "missing 'dataset'");
    }
    AggregateFunction aggregate = AggregateFunction::kSum;
    const std::string agg = request.GetString("agg", "sum");
    if (!ParseAggregate(agg, &aggregate)) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "unknown aggregate: " + agg);
    }
    const ExplainService::RecommendResponse response = service_.Recommend(
        dataset, aggregate, request.GetString("measure"),
        request.GetInt("m", 3));
    if (!response.ok) {
      return MakeError(&request, op, response.error_code, response.error);
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("dataset");
    json.String(dataset);
    json.Key("recommendations");
    json.BeginArray();
    for (const ExplainByRecommendation& rec : response.recommendations) {
      json.BeginObject();
      json.Key("dimension");
      json.String(rec.dimension);
      json.Key("concentration");
      json.Number(rec.concentration);
      json.Key("cardinality");
      json.Int(static_cast<long long>(rec.cardinality));
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    return json.str();
  }

  if (op == "open_session") {
    const std::string dataset = request.GetString("dataset");
    if (dataset.empty()) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "missing 'dataset'");
    }
    TSExplainConfig config;
    std::string parse_error;
    if (!ParseQueryConfig(request, &config, &parse_error)) {
      return MakeError(&request, op, error_code::kBadRequest, parse_error);
    }
    std::string error;
    const uint64_t session = service_.OpenSession(dataset, config, &error);
    if (session == 0) {
      return MakeError(&request, op, error_code::kInvalidQuery, error);
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("session");
    json.Int(static_cast<long long>(session));
    json.Key("n");
    json.Int(service_.SessionLength(session));
    const std::string log_path = service_.SessionLogPath(session);
    if (!log_path.empty()) {
      // The crash-recovery log (pid-scoped name — clients must not guess
      // it); pass it to recover_session after a crash.
      json.Key("log");
      json.String(log_path);
    }
    json.EndObject();
    return json.str();
  }

  if (op == "append") {
    uint64_t session = 0;
    std::string error;
    if (!ParseSessionId(request, &session, &error)) {
      return MakeError(&request, op, error_code::kBadRequest, error);
    }
    const std::string label = request.GetString("label");
    if (label.empty()) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "missing 'label'");
    }
    const JsonValue* rows_json = request.Find("rows");
    if (!rows_json || !rows_json->IsArray()) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "'rows' must be an array");
    }
    std::vector<StreamRow> rows;
    rows.reserve(rows_json->array().size());
    for (const JsonValue& row_json : rows_json->array()) {
      StreamRow row;
      bool dims_ok = false;
      row.dims = row_json.GetStringArray("dims", &dims_ok);
      const JsonValue* measures = row_json.Find("measures");
      if (!row_json.IsObject() || !dims_ok || !measures ||
          !measures->IsArray()) {
        return MakeError(&request, op, error_code::kBadRequest,
                         "each row needs 'dims' (strings) and 'measures' "
                         "(numbers)");
      }
      for (const JsonValue& m : measures->array()) {
        if (!m.IsNumber()) {
          return MakeError(&request, op, error_code::kBadRequest,
                           "'measures' entries must be numbers");
        }
        row.measures.push_back(m.AsDouble());
      }
      rows.push_back(std::move(row));
    }
    if (!service_.Append(session, label, rows, &error)) {
      const bool unknown = error.rfind("unknown session", 0) == 0;
      return MakeError(&request, op,
                       unknown ? error_code::kNotFound
                               : error_code::kBadRequest,
                       error);
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("session");
    json.Int(static_cast<long long>(session));
    json.Key("n");
    json.Int(service_.SessionLength(session));
    json.Key("rebuilt");
    json.Bool(service_.SessionLastAppendRebuilt(session));
    json.EndObject();
    return json.str();
  }

  if (op == "explain_session") {
    uint64_t session = 0;
    std::string error;
    if (!ParseSessionId(request, &session, &error)) {
      return MakeError(&request, op, error_code::kBadRequest, error);
    }
    const std::string tenant = request.GetString("tenant");
    const ExplainResponse response = service_.ExplainSession(
        session, request.GetBool("trendlines", false),
        request.GetBool("k_curve", true), tenant,
        request.GetBool("trace", false));
    MaybeLogSlowQuery(op, request_id, /*dataset=*/"", session, tenant,
                      response);
    if (!response.ok) {
      return MakeError(&request, op, response.error_code, response.error,
                       response.retry_after_ms);
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("session");
    json.Int(static_cast<long long>(session));
    json.Key("n");
    json.Int(service_.SessionLength(session));
    json.Key("cache_hit");
    json.Bool(response.cache_hit);
    json.Key("latency_ms");
    json.Number(response.latency_ms);
    EmitTrace(json, response.trace);
    json.Key("result");
    json.Raw(response.json);
    json.EndObject();
    return json.str();
  }

  if (op == "close_session") {
    uint64_t session = 0;
    std::string error;
    if (!ParseSessionId(request, &session, &error)) {
      return MakeError(&request, op, error_code::kBadRequest, error);
    }
    if (!service_.CloseSession(session)) {
      return MakeError(&request, op, error_code::kNotFound,
                       StrFormat("unknown session: %llu",
                                 static_cast<unsigned long long>(session)));
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("session");
    json.Int(static_cast<long long>(session));
    json.EndObject();
    return json.str();
  }

  if (op == "save_cache" || op == "load_cache") {
    const std::string path = request.GetString("path");
    if (path.empty()) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "missing 'path'");
    }
    std::string error;
    size_t primary = 0;
    size_t fenced = 0;
    const bool ok = op == "save_cache"
                        ? service_.SaveCache(path, &error, &primary)
                        : service_.LoadCache(path, &error, &primary,
                                             &fenced);
    if (!ok) {
      return MakeError(&request, op, error_code::kBadRequest, error);
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("path");
    json.String(path);
    json.Key(op == "save_cache" ? "saved" : "restored");
    json.Int(static_cast<long long>(primary));
    if (op == "load_cache") {
      json.Key("fenced");
      json.Int(static_cast<long long>(fenced));
    }
    json.EndObject();
    return json.str();
  }

  if (op == "recover_session") {
    const std::string path = request.GetString("path");
    if (path.empty()) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "missing 'path'");
    }
    std::string error;
    bool torn = false;
    int replayed = 0;
    const uint64_t session =
        service_.RecoverSession(path, &error, &torn, &replayed);
    if (session == 0) {
      const bool unknown = error.rfind("unknown dataset", 0) == 0;
      return MakeError(&request, op,
                       unknown ? error_code::kNotFound
                               : error_code::kBadRequest,
                       error);
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("session");
    json.Int(static_cast<long long>(session));
    json.Key("n");
    json.Int(service_.SessionLength(session));
    json.Key("replayed");
    json.Int(replayed);
    json.Key("torn");
    json.Bool(torn);
    const std::string log_path = service_.SessionLogPath(session);
    if (!log_path.empty()) {
      json.Key("log");
      json.String(log_path);
    }
    json.EndObject();
    return json.str();
  }

  if (op == "healthz") {
    // Liveness probe. Reads ONLY the watchdog's own mutex and the wall
    // clock — never the registry, cache, admission, or engine mutexes —
    // so it answers even while every pool worker is wedged inside a
    // compute (the transport dispatches it inline, ahead of the barrier
    // drain, for the same reason).
    QueryWatchdog::Status status;
    if (introspection_.watchdog != nullptr) {
      status = introspection_.watchdog->Scan();
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("status");
    json.String(status.stuck.empty() ? "ok" : "stuck");
    json.Key("uptime_seconds");
    json.Number(UptimeSeconds(introspection_.start_wall_ms));
    json.Key("inflight");  // includes this healthz request itself
    json.Int(static_cast<long long>(status.inflight));
    json.Key("stuck");
    json.Int(static_cast<long long>(status.stuck.size()));
    if (!status.stuck.empty()) {
      json.Key("stuck_queries");
      json.BeginArray();
      for (const QueryWatchdog::StuckQuery& query : status.stuck) {
        json.BeginObject();
        json.Key("request_id");
        json.Int(static_cast<long long>(query.request_id));
        json.Key("op");
        json.String(query.op);
        json.Key("age_ms");
        json.Number(query.age_ms);
        json.EndObject();
      }
      json.EndArray();
    }
    json.EndObject();
    return json.str();
  }

  if (op == "state") {
    // Operator introspection: everything an on-call wants in one shot —
    // build identity, datasets with content fingerprints, live sessions,
    // admission occupancy vs limits, cache bytes, watchdog state. Unlike
    // healthz this DOES take service-wide mutexes (briefly), so it runs
    // as a normal barrier op.
    const ServiceStats stats = service_.Stats();
    QueryWatchdog::Status watchdog_status;
    double stuck_after_ms = 0.0;
    if (introspection_.watchdog != nullptr) {
      watchdog_status = introspection_.watchdog->Scan();
      stuck_after_ms = introspection_.watchdog->stuck_after_ms();
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("uptime_seconds");
    json.Number(UptimeSeconds(introspection_.start_wall_ms));
    EmitBuildInfo(json, introspection_.pool_size);
    json.Key("datasets");
    json.BeginArray();
    for (const DatasetInfo& info : service_.registry().List()) {
      json.BeginObject();
      json.Key("name");
      json.String(info.name);
      json.Key("source");
      json.String(info.source);
      json.Key("rows");
      json.Int(static_cast<long long>(info.rows));
      json.Key("time_buckets");
      json.Int(static_cast<long long>(info.time_buckets));
      json.Key("fingerprint");
      json.String(StrFormat(
          "%016llx", static_cast<unsigned long long>(info.fingerprint)));
      json.Key("hot_engines");
      json.Int(static_cast<long long>(info.hot_engines));
      json.EndObject();
    }
    json.EndArray();
    json.Key("open_sessions");
    json.Int(static_cast<long long>(stats.open_sessions));
    json.Key("tenants");
    json.Int(static_cast<long long>(stats.tenants));
    json.Key("tenant_bytes");
    json.BeginObject();
    for (const auto& [tenant, bytes] : stats.tenant_bytes) {
      json.Key(tenant);
      json.Int(static_cast<long long>(bytes));
    }
    json.EndObject();
    json.Key("admission");
    json.BeginObject();
    json.Key("active");
    json.Int(static_cast<long long>(stats.admission.active));
    json.Key("queued");
    json.Int(static_cast<long long>(stats.admission.queued));
    json.Key("peak_active");
    json.Int(static_cast<long long>(stats.admission.peak_active));
    json.Key("peak_queued");
    json.Int(static_cast<long long>(stats.admission.peak_queued));
    json.Key("max_concurrent");
    json.Int(service_.admission().max_concurrent());
    json.Key("queue_depth");
    json.Int(service_.admission().queue_depth());
    json.EndObject();
    json.Key("cache");
    json.BeginObject();
    json.Key("entries");
    json.Int(static_cast<long long>(stats.cache.entries));
    json.Key("bytes_used");
    json.Int(static_cast<long long>(stats.cache.bytes_used));
    json.Key("capacity_bytes");
    json.Int(static_cast<long long>(stats.cache.capacity_bytes));
    json.EndObject();
    json.Key("watchdog");
    json.BeginObject();
    json.Key("inflight");
    json.Int(static_cast<long long>(watchdog_status.inflight));
    json.Key("stuck");
    json.Int(static_cast<long long>(watchdog_status.stuck.size()));
    json.Key("stuck_after_ms");
    json.Number(stuck_after_ms);
    json.EndObject();
    json.EndObject();
    return json.str();
  }

  if (op == "stats") {
    // Counter and gauge fields are sourced from the process-wide metrics
    // registry — the same series the `metrics` op exports — so the two
    // views can never disagree. Structural fields (datasets, sessions,
    // tenants, capacity) stay with the service. Field names and order
    // are byte-compatible with the pre-registry wire shape (asserted by
    // tests/server_smoke_test.sh).
    const ServiceStats stats = service_.Stats();
    const MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
    const auto counter = [&snapshot](const char* name) -> long long {
      const uint64_t* value = snapshot.FindCounter(name);
      return value ? static_cast<long long>(*value) : 0;
    };
    const auto gauge = [&snapshot](const char* name) -> long long {
      const int64_t* value = snapshot.FindGauge(name);
      return value ? static_cast<long long>(*value) : 0;
    };
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("datasets");
    json.Int(static_cast<long long>(stats.datasets));
    json.Key("hot_engines");
    json.Int(static_cast<long long>(stats.hot_engines));
    json.Key("open_sessions");
    json.Int(static_cast<long long>(stats.open_sessions));
    json.Key("tenants");
    json.Int(static_cast<long long>(stats.tenants));
    json.Key("tenant_bytes");
    json.BeginObject();
    for (const auto& [tenant, bytes] : stats.tenant_bytes) {
      json.Key(tenant);
      json.Int(static_cast<long long>(bytes));
    }
    json.EndObject();
    json.Key("admission");
    json.BeginObject();
    json.Key("admitted");
    json.Int(counter("admission.admitted"));
    json.Key("coalesced");
    json.Int(counter("admission.coalesced"));
    json.Key("shed_overload");
    json.Int(counter("admission.shed_overload"));
    json.Key("shed_tenant");
    json.Int(counter("admission.shed_tenant"));
    json.Key("backlog_shed");
    json.Int(counter("admission.backlog_shed"));
    json.Key("active");
    json.Int(gauge("admission.active"));
    json.Key("queued");
    json.Int(gauge("admission.queued"));
    json.Key("peak_active");
    json.Int(gauge("admission.peak_active"));
    json.Key("peak_queued");
    json.Int(gauge("admission.peak_queued"));
    json.EndObject();
    json.Key("cache");
    json.BeginObject();
    json.Key("hits");
    json.Int(counter("cache.hits"));
    json.Key("misses");
    json.Int(counter("cache.misses"));
    json.Key("coalesced");
    json.Int(counter("cache.coalesced"));
    json.Key("evictions");
    json.Int(counter("cache.evictions"));
    json.Key("budget_evictions");
    json.Int(counter("cache.budget_evictions"));
    json.Key("invalidations");
    json.Int(counter("cache.invalidations"));
    json.Key("entries");
    json.Int(gauge("cache.entries"));
    json.Key("bytes_used");
    json.Int(gauge("cache.bytes_used"));
    json.Key("capacity_bytes");
    json.Int(static_cast<long long>(stats.cache.capacity_bytes));
    json.EndObject();
    json.EndObject();
    return json.str();
  }

  if (op == "metrics") {
    // Scrape endpoint: the registry's full contents, as structured JSON
    // (default) or as a Prometheus text exposition embedded in the
    // envelope's "text" field (docs/OBSERVABILITY.md has the scrape
    // recipe).
    const std::string format = request.GetString("format", "json");
    if (format != "json" && format != "prometheus") {
      return MakeError(&request, op, error_code::kBadRequest,
                       "unknown format: " + format +
                           " (expected 'json' or 'prometheus')");
    }
    const MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("uptime_seconds");
    json.Number(UptimeSeconds(introspection_.start_wall_ms));
    EmitBuildInfo(json, introspection_.pool_size);
    if (format == "prometheus") {
      json.Key("format");
      json.String("prometheus");
      json.Key("text");
      json.String(RenderPrometheusText(snapshot));
    } else {
      json.Key("metrics");
      json.Raw(RenderMetricsJson(snapshot));
    }
    json.EndObject();
    return json.str();
  }

  if (op == "metrics_history") {
    // Windowed time-series view of the registry (docs/OBSERVABILITY.md,
    // "Self-observation"). Optional fields: "format" ("json"|"csv"),
    // "last_n" (trailing ticks only), "prefix" (series-name filter),
    // "sample" (true = take one synchronous tick first — how tests and
    // the soak harness get deterministic ticks without a live sampler),
    // and "export_as" (materialize the window as a registered dataset so
    // explain can run over the server's own telemetry).
    MetricsHistory* history = introspection_.history;
    if (history == nullptr) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "metrics history is not enabled on this server");
    }
    const std::string format = request.GetString("format", "json");
    if (format != "json" && format != "csv") {
      return MakeError(&request, op, error_code::kBadRequest,
                       "unknown format: " + format +
                           " (expected 'json' or 'csv')");
    }
    const int last_n_raw = request.GetInt("last_n", 0);
    if (last_n_raw < 0) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "last_n must be >= 0");
    }
    const size_t last_n = static_cast<size_t>(last_n_raw);
    const std::string prefix = request.GetString("prefix");
    if (request.GetBool("sample", false)) history->SampleNow();
    const std::string export_as = request.GetString("export_as");
    if (!export_as.empty()) {
      std::shared_ptr<const Table> table =
          history->ExportAsTable(last_n, prefix);
      if (table == nullptr) {
        return MakeError(&request, op, error_code::kBadRequest,
                         "metrics history has fewer than two ticks; "
                         "nothing to export");
      }
      std::string error;
      DatasetInfo info;
      if (!service_.registry().RegisterTable(export_as, std::move(table),
                                             "<metrics_history>", &error,
                                             &info)) {
        return MakeError(&request, op, error_code::kBadRequest, error);
      }
      JsonWriter json(false);
      BeginOk(json, request, op, request_id);
      json.Key("dataset");
      json.String(info.name);
      json.Key("rows");
      json.Int(static_cast<long long>(info.rows));
      json.Key("time_buckets");
      json.Int(static_cast<long long>(info.time_buckets));
      json.EndObject();
      return json.str();
    }
    const HistoryWindow window = history->Window(last_n, prefix);
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    if (format == "csv") {
      json.Key("format");
      json.String("csv");
      json.Key("text");
      json.String(RenderHistoryCsv(window));
    } else {
      json.Key("history");
      json.Raw(RenderHistoryJson(window));
    }
    json.EndObject();
    return json.str();
  }

  if (op == "shutdown") {
    // The transport watches for this op and stops reading afterwards.
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.EndObject();
    return json.str();
  }

  return MakeError(&request, op, error_code::kUnknownOp,
                   op.empty() ? "missing 'op'" : "unknown op: " + op);
}

}  // namespace tsexplain
