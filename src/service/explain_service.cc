#include "src/service/explain_service.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include <unistd.h>

#include <cstdio>

#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/common/timer.h"
#include "src/service/query_key.h"
#include "src/storage/cache_snapshot.h"
#include "src/storage/table_snapshot.h"

namespace tsexplain {
namespace {

// Schema-level validation: everything that would otherwise trip a
// TSE_CHECK inside the engine must be rejected here with an error string.
// Also fills an empty explain-by list with the recommended ordering
// (mirrors the CLI's default).
//
// The explain-by list is rewritten to its CANONICAL spelling (sorted,
// deduplicated) — the same normalization the cache key applies. Results
// can depend on attribute order (ties in the top-m break by attribute
// position), so the engine must be built from exactly the spelling the
// key describes or differently-ordered queries would alias one cache
// entry to first-arrival results. Service semantics are therefore
// explain-by-order invariant by construction.
bool ValidateAndNormalize(const Table& table, TSExplainConfig* config,
                          std::string* error) {
  if (table.num_time_buckets() < 3) {
    *error = "dataset needs at least three time buckets to segment";
    return false;
  }
  if (!config->measure.empty() &&
      table.schema().MeasureIndex(config->measure) < 0) {
    *error = "unknown measure: " + config->measure;
    return false;
  }
  if (config->explain_by_names.empty()) {
    for (const auto& rec :
         RecommendExplainBy(table, config->aggregate, config->measure,
                            config->m > 0 ? config->m : 3)) {
      config->explain_by_names.push_back(rec.dimension);
    }
    if (config->explain_by_names.empty()) {
      *error = "dataset has no dimensions to explain by";
      return false;
    }
  }
  std::sort(config->explain_by_names.begin(),
            config->explain_by_names.end());
  config->explain_by_names.erase(
      std::unique(config->explain_by_names.begin(),
                  config->explain_by_names.end()),
      config->explain_by_names.end());
  for (const std::string& name : config->explain_by_names) {
    if (table.schema().DimensionIndex(name) == kInvalidAttrId) {
      *error = "unknown explain-by dimension: " + name;
      return false;
    }
  }
  struct Bound {
    const char* field;
    int value;
    int min;
  };
  for (const Bound& b :
       {Bound{"order", config->max_order, 1}, Bound{"m", config->m, 1},
        Bound{"k", config->fixed_k, 0}, Bound{"max_k", config->max_k, 1},
        Bound{"smooth", config->smooth_window, 1},
        Bound{"threads", config->threads, 0},
        Bound{"initial_guess", config->initial_guess, 1}}) {
    if (b.value < b.min) {
      *error = StrFormat("%s must be >= %d, got %d", b.field, b.min,
                         b.value);
      return false;
    }
  }
  if (config->m > kMaxTopM) {
    *error = StrFormat("m must be <= %d, got %d", kMaxTopM, config->m);
    return false;
  }
  if (config->use_filter &&
      (config->filter_ratio <= 0.0 || config->filter_ratio > 1.0)) {
    *error = "filter_ratio must be in (0, 1]";
    return false;
  }
  return true;
}

std::string ReportSuffix(bool trendlines, bool k_curve) {
  return StrFormat("|rep=t%dc%d", trendlines ? 1 : 0, k_curve ? 1 : 0);
}

ReportOptions WireReportOptions(bool trendlines, bool k_curve) {
  ReportOptions options;
  options.include_trendlines = trendlines;
  options.include_k_curve = k_curve;
  options.pretty = false;
  return options;
}

ExplainResponse ErrorResponse(const char* code, std::string message) {
  ExplainResponse response;
  response.ok = false;
  response.error_code = code;
  response.error = std::move(message);
  return response;
}

ExplainResponse ServedResponse(const std::string& cache_key,
                               const ResultCache::ValuePtr& value,
                               bool cache_hit, double latency_ms) {
  ExplainResponse response;
  response.ok = true;
  response.query_key = cache_key;
  response.cache_hit = cache_hit;
  response.result = value->result;
  response.json = value->json;
  response.latency_ms = latency_ms;
  return response;
}

// End-to-end service latency (docs/OBSERVABILITY.md). hot = served from
// a direct cache Lookup without touching admission; cold = everything
// that went through AdmitAndCompute and succeeded (coalesced requests
// included — they paid the admission wait).
struct ServiceMetrics {
  Histogram& hot_ms = MetricRegistry::Global().GetHistogram("query.hot_ms");
  Histogram& cold_ms =
      MetricRegistry::Global().GetHistogram("query.cold_ms");
  Histogram& append_ms =
      MetricRegistry::Global().GetHistogram("session.append_ms");
  Histogram& cache_load_ms =
      MetricRegistry::Global().GetHistogram("service.cache_load_ms");
  Histogram& cache_save_ms =
      MetricRegistry::Global().GetHistogram("service.cache_save_ms");
  static ServiceMetrics& Get() {
    static ServiceMetrics metrics;
    return metrics;
  }
};

// Observes `histogram` with the timer's elapsed ms when the scope exits,
// covering every return path (success and error alike).
class ScopedTimerObserver {
 public:
  ScopedTimerObserver(Histogram& histogram, const Timer& timer)
      : histogram_(histogram), timer_(timer) {}
  ~ScopedTimerObserver() { histogram_.Observe(timer_.ElapsedMs()); }
  ScopedTimerObserver(const ScopedTimerObserver&) = delete;
  ScopedTimerObserver& operator=(const ScopedTimerObserver&) = delete;

 private:
  Histogram& histogram_;
  const Timer& timer_;
};

// Closes out a traced request: the response's latency becomes the root
// span's duration and the finalized tree (children tile each parent,
// see trace.h) is copied onto the wire response. No-op without a trace.
ExplainResponse FinishTraced(ExplainResponse response, QueryTrace* trace,
                             double total_ms) {
  response.latency_ms = total_ms;
  if (trace) {
    trace->Finalize(total_ms);
    response.trace = trace->spans();
  }
  return response;
}

}  // namespace

namespace {
uint64_t NextServiceInstanceTag() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}
}  // namespace

ExplainService::ExplainService(ServiceOptions options)
    : cache_(options.cache_capacity_bytes, options.cache_shards),
      admission_(options.admission),
      tenant_quotas_(cache_,
                     TenantQuotaOptions{options.tenant_cache_budget_bytes}),
      session_log_dir_(std::move(options.session_log_dir)),
      instance_tag_(NextServiceInstanceTag()) {}

bool ExplainService::DropDataset(const std::string& name) {
  if (!registry_.Drop(name)) return false;
  // Open sessions keep their own table copy and session/<id>/ keys; only
  // the dataset-level entries go — in the shared namespace AND in every
  // known tenant's namespace (tenant keys prepend "tenant/<id>/", so the
  // bare dataset prefix would miss them). One multi-prefix pass: the
  // scan cost stays O(entries) however many tenants exist.
  std::vector<std::string> prefixes = tenant_quotas_.KnownTenantPrefixes();
  for (std::string& prefix : prefixes) prefix += DatasetKeyPrefix(name);
  prefixes.push_back(DatasetKeyPrefix(name));
  cache_.InvalidatePrefixes(prefixes);
  return true;
}

ExplainResponse ExplainService::AdmitAndCompute(
    const std::string& cache_key, const std::string& tenant,
    int requested_threads, QueryTrace* trace,
    const std::function<ResultCache::ValuePtr(
        int granted_threads, QueryTrace* trace, int compute_span,
        std::string* error)>& compute) {
  Timer timer;
  // A batched (coalesced) outcome normally lands on the leader's cached
  // value; when the leader failed (or its entry was evicted instantly)
  // we re-enter admission as a potential leader ourselves. Two re-entries
  // are plenty: repeated leader failures mean the query itself fails.
  std::string compute_error;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const int wait_span = trace ? trace->BeginSpan("admission_wait") : -1;
    AdmissionController::Ticket ticket =
        admission_.Admit(cache_key, tenant, requested_threads);
    if (trace) trace->EndSpan(wait_span);
    switch (ticket.outcome()) {
      case AdmissionController::Outcome::kShedOverload: {
        ExplainResponse response = ErrorResponse(
            error_code::kOverloaded,
            "server overloaded: admission queue full; retry later");
        response.retry_after_ms = ticket.retry_after_ms();
        response.admission_outcome = "shed_overload";
        return response;
      }
      case AdmissionController::Outcome::kShedTenant: {
        ExplainResponse response = ErrorResponse(
            error_code::kQuotaExceeded,
            "tenant '" + tenant + "' is at its in-flight quota");
        response.retry_after_ms = ticket.retry_after_ms();
        response.admission_outcome = "shed_tenant";
        return response;
      }
      case AdmissionController::Outcome::kCoalesced: {
        const ResultCache::ValuePtr value = cache_.Lookup(cache_key);
        if (value) {
          ExplainResponse response = ServedResponse(
              cache_key, value, /*cache_hit=*/true, timer.ElapsedMs());
          response.admission_outcome = "coalesced";
          ServiceMetrics::Get().cold_ms.Observe(response.latency_ms);
          return response;
        }
        continue;  // leader failed: retry admission
      }
      case AdmissionController::Outcome::kAdmitted: {
        const int compute_span = trace ? trace->BeginSpan("compute") : -1;
        bool was_hit = false;
        const ResultCache::ValuePtr value = cache_.GetOrCompute(
            cache_key,
            [&]() -> ResultCache::ValuePtr {
              return compute(ticket.granted_threads(), trace, compute_span,
                             &compute_error);
            },
            &was_hit);
        if (trace) trace->EndSpan(compute_span);
        if (!value) {
          ExplainResponse response = ErrorResponse(
              error_code::kInternal, compute_error.empty()
                                         ? "computation failed"
                                         : compute_error);
          response.admission_outcome = "admitted";
          return response;
        }
        ExplainResponse response =
            ServedResponse(cache_key, value, was_hit, timer.ElapsedMs());
        response.admission_outcome = "admitted";
        ServiceMetrics::Get().cold_ms.Observe(response.latency_ms);
        return response;
      }
    }
  }
  return ErrorResponse(error_code::kInternal,
                       compute_error.empty()
                           ? "query kept failing under coalesced retries"
                           : compute_error);
}

ExplainResponse ExplainService::Explain(const ExplainRequest& request) {
  Timer timer;
  std::unique_ptr<QueryTrace> trace_holder;
  if (request.trace) trace_holder = std::make_unique<QueryTrace>();
  QueryTrace* const trace = trace_holder.get();
  if (!request.tenant.empty() && !IsValidTenantId(request.tenant)) {
    return ErrorResponse(
        error_code::kBadRequest,
        "invalid tenant id (use [A-Za-z0-9._:-], at most 64 chars)");
  }
  const DatasetRegistry::TableRef ref = registry_.GetRef(request.dataset);
  if (!ref.table) {
    return ErrorResponse(error_code::kNotFound,
                         "unknown dataset: " + request.dataset);
  }
  TSExplainConfig config = request.config;
  std::string validation_error;
  if (!ValidateAndNormalize(*ref.table, &config, &validation_error)) {
    return ErrorResponse(error_code::kInvalidQuery, validation_error);
  }

  const CanonicalQuery canonical =
      CanonicalizeQuery(request.dataset, config);
  // The registration uid fences drop + re-register races: a computation
  // against the old table can only ever land under the old uid's key,
  // which no post-re-register request asks for (it ages out via LRU).
  // The tenant prefix namespaces the entry so per-tenant cache budgets
  // can scope evictions to exactly this tenant's keys.
  const std::string cache_key =
      TenantKeyPrefix(request.tenant) + canonical.query_key +
      StrFormat("|uid=%llu", static_cast<unsigned long long>(ref.uid)) +
      ReportSuffix(request.include_trendlines, request.include_k_curve);
  if (!request.tenant.empty()) tenant_quotas_.EnsureTenant(request.tenant);

  // Hot path: cached results bypass admission — overload can defer cold
  // work but never a hit.
  const int lookup_span = trace ? trace->BeginSpan("cache_lookup") : -1;
  const ResultCache::ValuePtr hot = cache_.Lookup(cache_key);
  if (trace) trace->EndSpan(lookup_span);
  if (hot) {
    ExplainResponse response = ServedResponse(cache_key, hot,
                                              /*cache_hit=*/true,
                                              timer.ElapsedMs());
    response.admission_outcome = "cache_hit";
    ServiceMetrics::Get().hot_ms.Observe(response.latency_ms);
    return FinishTraced(std::move(response), trace, timer.ElapsedMs());
  }

  ExplainResponse response = AdmitAndCompute(
      cache_key, request.tenant, ResolveThreadCount(config.threads), trace,
      [&](int granted_threads, QueryTrace* compute_trace, int compute_span,
          std::string* compute_error) -> ResultCache::ValuePtr {
        // The admission grant replaces the requested thread count (it is
        // a ceiling, not a demand); results are identical either way.
        TSExplainConfig run_config = config;
        run_config.threads = granted_threads;
        std::string engine_error;
        const double build_start =
            compute_trace ? compute_trace->ElapsedMs() : 0.0;
        EngineHandle handle = registry_.GetOrBuildEngine(
            request.dataset, canonical.engine_key, run_config,
            ref.table.get(), &engine_error);
        if (!handle.ok()) {
          *compute_error = engine_error;
          return nullptr;
        }
        if (compute_trace) {
          compute_trace->AddSpan("engine_build", build_start,
                                 compute_trace->ElapsedMs() - build_start,
                                 compute_span);
        }
        const SegmentationSpec spec =
            SegmentationSpec::FromConfig(run_config);
        auto cached = std::make_shared<CachedResult>();
        {
          // Run mutates the engine's explanation caches; serialize per
          // engine. Distinct engines still run fully in parallel.
          MutexLock lock(*handle.mu);
          const double run_start =
              compute_trace ? compute_trace->ElapsedMs() : 0.0;
          cached->result =
              std::make_shared<TSExplainResult>(handle.engine->Run(spec));
          if (compute_trace) {
            // Graft the engine's own breakdown (module (a)/(b)/(c), see
            // tsexplain.h) as children of the run span; Finalize squares
            // any residue into an "other" child.
            const int run_span = compute_trace->AddSpan(
                "engine_run", run_start,
                compute_trace->ElapsedMs() - run_start, compute_span);
            const TimingBreakdown& t = cached->result->timing;
            double offset = run_start;
            compute_trace->AddSpan("cube_build", offset, t.precompute_ms,
                                   run_span);
            offset += t.precompute_ms;
            compute_trace->AddSpan("ca_fanout", offset, t.cascading_ms,
                                   run_span);
            offset += t.cascading_ms;
            compute_trace->AddSpan("segmentation", offset,
                                   t.segmentation_ms, run_span);
          }
          const double render_start =
              compute_trace ? compute_trace->ElapsedMs() : 0.0;
          cached->json = RenderJsonReport(
              handle.engine->cube(), *cached->result,
              WireReportOptions(request.include_trendlines,
                                request.include_k_curve));
          if (compute_trace) {
            compute_trace->AddSpan(
                "json_render", render_start,
                compute_trace->ElapsedMs() - render_start, compute_span);
          }
        }
        return cached;
      });
  return FinishTraced(std::move(response), trace, timer.ElapsedMs());
}

ExplainService::RecommendResponse ExplainService::Recommend(
    const std::string& dataset, AggregateFunction aggregate,
    const std::string& measure, int m) {
  RecommendResponse response;
  const std::shared_ptr<const Table> table = registry_.Get(dataset);
  if (!table) {
    response.error_code = error_code::kNotFound;
    response.error = "unknown dataset: " + dataset;
    return response;
  }
  if (!measure.empty() && table->schema().MeasureIndex(measure) < 0) {
    response.error_code = error_code::kInvalidQuery;
    response.error = "unknown measure: " + measure;
    return response;
  }
  if (m < 1 || m > kMaxTopM) {
    response.error_code = error_code::kInvalidQuery;
    response.error = StrFormat("m must be in [1, %d], got %d", kMaxTopM, m);
    return response;
  }
  response.ok = true;
  response.recommendations = RecommendExplainBy(*table, aggregate, measure, m);
  return response;
}

uint64_t ExplainService::OpenSession(const std::string& dataset,
                                     const TSExplainConfig& config,
                                     std::string* error) {
  const DatasetRegistry::TableRef ref = registry_.GetRef(dataset);
  const std::shared_ptr<const Table>& table = ref.table;
  if (!table) {
    *error = "unknown dataset: " + dataset;
    return 0;
  }
  TSExplainConfig normalized = config;
  if (!ValidateAndNormalize(*table, &normalized, error)) return 0;

  auto session = std::make_shared<Session>();
  session->dataset = dataset;
  session->config = normalized;
  {
    MutexLock lock(sessions_mu_);
    session->id = next_session_id_++;
  }
  {
    // The session is still private, so its mutex is uncontended; holding
    // it makes the guarded-field writes below provable to the analysis.
    MutexLock session_lock(session->mu);
    // StreamingTSExplain copies the table: the session's view grows
    // independently of the immutable registered dataset.
    session->engine =
        std::make_unique<StreamingTSExplain>(*table, normalized);
    if (!session_log_dir_.empty()) {
      // The fingerprint was computed once at registration; the cached
      // copy keeps OpenSession from re-serializing the table here.
      AttachSessionLog(*session, ref.fingerprint, {});
    }
  }
  {
    // Published only after the log observer is subscribed: no append can
    // reach the session unlogged.
    MutexLock lock(sessions_mu_);
    sessions_.emplace(session->id, session);
  }
  return session->id;
}

void ExplainService::AttachSessionLog(
    Session& session, uint64_t base_fingerprint,
    const std::vector<storage::SessionLogAppend>& replayed) {
  if (session_log_dir_.empty()) return;
  // The pid + instance tag make collisions rare (session ids restart at
  // 1 per incarnation), but neither survives containers — a supervised
  // server is pid 1 every run. SessionLogWriter::Open truncates its
  // target, so NEVER reuse an existing name: an existing file is a
  // crashed incarnation's still-recoverable log, and the probe steps
  // around it instead of wiping it.
  const std::string base =
      StrFormat("%s/session_%d_%llu_%llu", session_log_dir_.c_str(),
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(instance_tag_),
                static_cast<unsigned long long>(session.id));
  session.log_path = base + ".log";
  for (int k = 1; ; ++k) {
    std::FILE* exists = std::fopen(session.log_path.c_str(), "rb");
    if (!exists) break;
    std::fclose(exists);
    session.log_path = base + StrFormat(".%d.log", k);
  }
  session.log = std::make_unique<storage::SessionLogWriter>();
  storage::StorageStatus status = session.log->Open(
      session.log_path, session.dataset, base_fingerprint, session.config);
  for (const storage::SessionLogAppend& append : replayed) {
    if (!status.ok()) break;
    status = session.log->LogAppend(append.label, append.rows);
  }
  if (!status.ok()) {
    // A session must stay usable when its log cannot be: recovery is a
    // best-effort add-on, the in-memory engine is the source of truth.
    // The half-written file goes too — a truncated log would later
    // "recover" cleanly to the wrong state.
    std::fprintf(stderr, "session %llu: log disabled (%s)\n",
                 static_cast<unsigned long long>(session.id),
                 status.ToString().c_str());
    session.log.reset();
    std::remove(session.log_path.c_str());
    session.log_path.clear();
    return;
  }
  // Subscribed AFTER the header and any replayed appends are on disk, so
  // replayed appends are never double-logged. The raw pointer is safe:
  // log and engine are destroyed together with the session, every
  // AppendBucket happens under the session mutex, and sessions live in
  // the map via shared_ptr (stable address).
  Session* s = &session;
  session.engine->set_append_observer(
      [s](const std::string& label, const std::vector<StreamRow>& rows) {
        // Contract: AppendBucket (hence this observer) only runs under
        // the session mutex; the std::function boundary hides that from
        // the static analysis, so assert it instead.
        s->mu.AssertHeld();
        if (!s->log || s->log_failed) return;
        const storage::StorageStatus append_status =
            s->log->LogAppend(label, rows);
        if (!append_status.ok()) {
          // One missing bucket would make every LATER append a lie:
          // recovery would replay a gapped series with ok/torn=false.
          // Disable the log and delete the file — no recovery beats a
          // silently wrong one.
          s->log_failed = true;
          s->log->Close();
          std::remove(s->log_path.c_str());
          std::fprintf(stderr,
                       "session %llu: log disabled after failed append "
                       "(%s)\n",
                       static_cast<unsigned long long>(s->id),
                       append_status.ToString().c_str());
        }
      });
}

uint64_t ExplainService::RecoverSession(const std::string& log_path,
                                        std::string* error, bool* torn,
                                        int* replayed) {
  // Peek the header for the dataset name, then run the full recovery
  // (fingerprint fencing + replay) against the currently registered
  // table. The double read is fine: recovery is a rare startup path.
  storage::SessionLogContents contents;
  storage::StorageStatus status = storage::ReadSessionLog(log_path, &contents);
  if (!status.ok()) {
    *error = status.ToString();
    return 0;
  }
  const std::shared_ptr<const Table> table = registry_.Get(contents.dataset);
  if (!table) {
    *error = "unknown dataset: " + contents.dataset +
             " (register it before recovering sessions that stream on it)";
    return 0;
  }
  // The logged config was validated when the crashed process opened the
  // session — but the LOG is untrusted input, so re-validate against the
  // live schema before any engine code (whose TSE_CHECKs abort) sees it,
  // and build the engine from the VALIDATED (normalized) copy: a crafted
  // header must not smuggle, say, duplicate explain-by attributes past a
  // validation whose result is thrown away. For a legitimate log the two
  // are identical (OpenSession logged the normalized config).
  TSExplainConfig validated = contents.config;
  {
    std::string config_error;
    if (!ValidateAndNormalize(*table, &validated, &config_error)) {
      *error = "format_error: session log config invalid: " + config_error;
      return 0;
    }
  }
  storage::SessionRecoveryResult recovered =
      storage::RecoverStreamingSession(*table, log_path, &validated);
  if (!recovered.ok()) {
    *error = recovered.status.ToString();
    return 0;
  }
  if (torn) *torn = recovered.contents.torn;
  if (replayed) {
    *replayed = static_cast<int>(recovered.contents.appends.size());
  }
  auto session = std::make_shared<Session>();
  session->dataset = recovered.contents.dataset;
  session->config = validated;  // what the engine was actually built from
  {
    MutexLock lock(sessions_mu_);
    session->id = next_session_id_++;
  }
  {
    // Unpublished session: uncontended lock, same as OpenSession.
    MutexLock session_lock(session->mu);
    session->engine = std::move(recovered.engine);
    // The recovered session gets a FRESH log under its new id (header +
    // replayed appends), so a second crash recovers to exactly this state;
    // the old log is superseded but left for the operator to remove.
    AttachSessionLog(*session, recovered.contents.base_fingerprint,
                     recovered.contents.appends);
  }
  {
    MutexLock lock(sessions_mu_);
    sessions_.emplace(session->id, session);
  }
  return session->id;
}

std::shared_ptr<ExplainService::Session> ExplainService::FindSession(
    uint64_t session_id) const {
  MutexLock lock(sessions_mu_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

bool ExplainService::Append(uint64_t session_id, const std::string& label,
                            const std::vector<StreamRow>& rows,
                            std::string* error) {
  const std::shared_ptr<Session> session = FindSession(session_id);
  if (!session) {
    *error = StrFormat("unknown session: %llu",
                       static_cast<unsigned long long>(session_id));
    return false;
  }
  MutexLock lock(session->mu);
  const Schema& schema = session->engine->table().schema();
  for (const StreamRow& row : rows) {
    if (row.dims.size() != schema.num_dimensions() ||
        row.measures.size() != schema.num_measures()) {
      *error = StrFormat(
          "row shape mismatch: expected %zu dims + %zu measures, got %zu + "
          "%zu",
          schema.num_dimensions(), schema.num_measures(), row.dims.size(),
          row.measures.size());
      return false;
    }
  }
  Timer append_timer;
  session->engine->AppendBucket(label, rows);
  // New data makes this session's cached explanations stale — and ONLY
  // this session's: the prefix scopes the invalidation, so dataset-level
  // cache entries and other sessions are untouched (tested).
  cache_.InvalidatePrefix(StrFormat(
      "session/%llu/", static_cast<unsigned long long>(session_id)));
  ServiceMetrics::Get().append_ms.Observe(append_timer.ElapsedMs());
  return true;
}

ExplainResponse ExplainService::ExplainSession(uint64_t session_id,
                                               bool include_trendlines,
                                               bool include_k_curve,
                                               const std::string& tenant,
                                               bool trace_requested) {
  Timer timer;
  std::unique_ptr<QueryTrace> trace_holder;
  if (trace_requested) trace_holder = std::make_unique<QueryTrace>();
  QueryTrace* const trace = trace_holder.get();
  if (!tenant.empty() && !IsValidTenantId(tenant)) {
    return ErrorResponse(
        error_code::kBadRequest,
        "invalid tenant id (use [A-Za-z0-9._:-], at most 64 chars)");
  }
  const std::shared_ptr<Session> session = FindSession(session_id);
  if (!session) {
    return ErrorResponse(
        error_code::kNotFound,
        StrFormat("unknown session: %llu",
                  static_cast<unsigned long long>(session_id)));
  }
  MutexLock lock(session->mu);
  if (session->engine->n() < 3) {
    return ErrorResponse(error_code::kInvalidQuery,
                         "session needs at least three time buckets");
  }
  // The key embeds the current length: an explain after an append can
  // never alias a pre-append entry even if an invalidation is lost.
  // Session keys stay OUTSIDE tenant namespaces (a session is already
  // private to its creator and appends must invalidate it wholesale),
  // but the request still counts against the tenant's in-flight cap.
  const std::string cache_key =
      StrFormat("session/%llu/n%d",
                static_cast<unsigned long long>(session_id),
                session->engine->n()) +
      ReportSuffix(include_trendlines, include_k_curve);
  const int lookup_span = trace ? trace->BeginSpan("cache_lookup") : -1;
  const ResultCache::ValuePtr hot = cache_.Lookup(cache_key);
  if (trace) trace->EndSpan(lookup_span);
  if (hot) {
    ExplainResponse response = ServedResponse(cache_key, hot,
                                              /*cache_hit=*/true,
                                              timer.ElapsedMs());
    response.admission_outcome = "cache_hit";
    ServiceMetrics::Get().hot_ms.Observe(response.latency_ms);
    return FinishTraced(std::move(response), trace, timer.ElapsedMs());
  }
  // Admission happens while holding the session mutex: every op on one
  // session is serialized anyway (that is the session contract), and the
  // slot taken here is released before any other session op can need it.
  ExplainResponse response = AdmitAndCompute(
      cache_key, tenant,
      ResolveThreadCount(session->config.threads), trace,
      [&](int granted_threads, QueryTrace* compute_trace, int compute_span,
          std::string* /*compute_error*/) -> ResultCache::ValuePtr {
        auto cached = std::make_shared<CachedResult>();
        const double run_start =
            compute_trace ? compute_trace->ElapsedMs() : 0.0;
        cached->result = std::make_shared<TSExplainResult>(
            session->engine->Explain(granted_threads));
        if (compute_trace) {
          const int run_span = compute_trace->AddSpan(
              "engine_run", run_start,
              compute_trace->ElapsedMs() - run_start, compute_span);
          const TimingBreakdown& t = cached->result->timing;
          double offset = run_start;
          compute_trace->AddSpan("cube_build", offset, t.precompute_ms,
                                 run_span);
          offset += t.precompute_ms;
          compute_trace->AddSpan("ca_fanout", offset, t.cascading_ms,
                                 run_span);
          offset += t.cascading_ms;
          compute_trace->AddSpan("segmentation", offset, t.segmentation_ms,
                                 run_span);
        }
        const double render_start =
            compute_trace ? compute_trace->ElapsedMs() : 0.0;
        cached->json = RenderJsonReport(
            session->engine->cube(), *cached->result,
            WireReportOptions(include_trendlines, include_k_curve));
        if (compute_trace) {
          compute_trace->AddSpan(
              "json_render", render_start,
              compute_trace->ElapsedMs() - render_start, compute_span);
        }
        return cached;
      });
  return FinishTraced(std::move(response), trace, timer.ElapsedMs());
}

bool ExplainService::CloseSession(uint64_t session_id) {
  std::shared_ptr<Session> session;
  {
    MutexLock lock(sessions_mu_);
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return false;
    session = it->second;
    sessions_.erase(it);
  }
  {
    // A deliberately closed session needs no crash recovery: drop its log.
    MutexLock lock(session->mu);
    if (session->log) {
      session->engine->set_append_observer(nullptr);
      session->log->Close();
      session->log.reset();
      std::remove(session->log_path.c_str());
    }
  }
  cache_.InvalidatePrefix(StrFormat(
      "session/%llu/", static_cast<unsigned long long>(session_id)));
  return true;
}

std::string ExplainService::SessionLogPath(uint64_t session_id) const {
  const std::shared_ptr<Session> session = FindSession(session_id);
  if (!session) return std::string();
  MutexLock lock(session->mu);
  // log_failed means the file was deleted: reporting its path would tell
  // the operator the session is recoverable when it is not.
  if (!session->log || session->log_failed) return std::string();
  return session->log_path;
}

int ExplainService::SessionLength(uint64_t session_id) const {
  const std::shared_ptr<Session> session = FindSession(session_id);
  if (!session) return -1;
  MutexLock lock(session->mu);
  return session->engine->n();
}

bool ExplainService::SessionLastAppendRebuilt(uint64_t session_id) const {
  const std::shared_ptr<Session> session = FindSession(session_id);
  if (!session) return false;
  MutexLock lock(session->mu);
  return session->engine->last_append_rebuilt();
}

ServiceStats ExplainService::Stats() const {
  ServiceStats stats;
  stats.datasets = registry_.List().size();
  stats.hot_engines = registry_.NumEngines();
  {
    MutexLock lock(sessions_mu_);
    stats.open_sessions = sessions_.size();
  }
  stats.tenants = tenant_quotas_.NumTenants();
  stats.cache = cache_.stats();
  stats.admission = admission_.stats();
  const std::vector<std::string> tenants = tenant_quotas_.KnownTenants();
  std::vector<std::string> prefixes;
  prefixes.reserve(tenants.size());
  for (const std::string& tenant : tenants) {
    prefixes.push_back(TenantKeyPrefix(tenant));
  }
  const std::vector<size_t> bytes = cache_.PrefixBytesMany(prefixes);
  for (size_t t = 0; t < tenants.size(); ++t) {
    stats.tenant_bytes.emplace_back(tenants[t], bytes[t]);
  }
  return stats;
}

bool ExplainService::SaveCache(const std::string& path, std::string* error,
                               size_t* saved) const {
  Timer timer;
  ScopedTimerObserver observe_save(ServiceMetrics::Get().cache_save_ms,
                                   timer);
  storage::CacheSnapshot snapshot;
  for (const DatasetInfo& info : registry_.List()) {
    const DatasetRegistry::TableRef ref = registry_.GetRef(info.name);
    if (!ref.table) continue;  // dropped between List and GetRef
    storage::CacheSnapshot::DatasetStamp stamp;
    stamp.name = info.name;
    stamp.uid = ref.uid;
    // Cached at registration: SaveCache stamps every dataset without
    // re-serializing any table.
    stamp.fingerprint = ref.fingerprint;
    snapshot.datasets.push_back(std::move(stamp));
  }
  for (auto& [key, value] : cache_.ExportEntries()) {
    // Session entries are process-local (session ids restart at 1 after a
    // restart, so a stale entry could alias a NEW session's key): never
    // persisted.
    if (key.rfind("session/", 0) == 0) continue;
    storage::CacheSnapshot::Entry entry;
    entry.key = key;
    entry.json = value->json;
    snapshot.entries.push_back(std::move(entry));
  }
  const storage::StorageStatus status =
      storage::WriteCacheSnapshot(snapshot, path);
  if (!status.ok()) {
    *error = status.ToString();
    return false;
  }
  if (saved) *saved = snapshot.entries.size();
  return true;
}

bool ExplainService::LoadCache(const std::string& path, std::string* error,
                               size_t* restored, size_t* fenced) {
  Timer timer;
  ScopedTimerObserver observe_load(ServiceMetrics::Get().cache_load_ms,
                                   timer);
  storage::CacheSnapshot snapshot;
  {
    const storage::StorageStatus status =
        storage::ReadCacheSnapshot(path, &snapshot);
    if (!status.ok()) {
      *error = status.ToString();
      return false;
    }
  }
  // The uid fence: a saved uid is accepted only when the SAME dataset
  // name is registered right now with a bit-identical table (content
  // fingerprint match), and is then rewritten to the live registration's
  // uid. Anything else — name gone, data changed, fingerprint forged for
  // an unknown name — leaves its entries fenced out.
  std::map<uint64_t, uint64_t> uid_remap;
  for (const storage::CacheSnapshot::DatasetStamp& stamp : snapshot.datasets) {
    const DatasetRegistry::TableRef ref = registry_.GetRef(stamp.name);
    if (!ref.table) continue;
    if (ref.fingerprint != stamp.fingerprint) continue;
    uid_remap[stamp.uid] = ref.uid;
  }
  size_t kept = 0;
  size_t dropped = 0;
  for (const storage::CacheSnapshot::Entry& entry : snapshot.entries) {
    const std::string rewritten = [&]() -> std::string {
      if (entry.key.rfind("session/", 0) == 0) return {};  // never restored
      // Keys end "...|uid=<n>|rep=tXcY"; rfind tolerates hostile dataset
      // names that embed "|uid=" themselves (the LAST occurrence is the
      // real field).
      const size_t uid_pos = entry.key.rfind("|uid=");
      if (uid_pos == std::string::npos) return {};
      const size_t digits = uid_pos + 5;
      size_t end = digits;
      while (end < entry.key.size() && entry.key[end] >= '0' &&
             entry.key[end] <= '9') {
        ++end;
      }
      if (end == digits) return {};
      uint64_t saved_uid = 0;
      for (size_t i = digits; i < end; ++i) {
        if (saved_uid > (~0ull - 9) / 10) return {};  // overflow: reject
        saved_uid = saved_uid * 10 + static_cast<uint64_t>(
                                         entry.key[i] - '0');
      }
      const auto it = uid_remap.find(saved_uid);
      if (it == uid_remap.end()) return {};
      // Tenant-namespaced entries re-install their tenant (and its cache
      // budget) so warm-started bytes are governed exactly like fresh
      // ones. A malformed tenant id fences the entry.
      if (entry.key.rfind("tenant/", 0) == 0) {
        const size_t slash = entry.key.find('/', 7);
        if (slash == std::string::npos) return {};
        const std::string tenant = entry.key.substr(7, slash - 7);
        if (!IsValidTenantId(tenant)) return {};
        tenant_quotas_.EnsureTenant(tenant);
      }
      return entry.key.substr(0, digits) +
             StrFormat("%llu", static_cast<unsigned long long>(it->second)) +
             entry.key.substr(end);
    }();
    if (rewritten.empty()) {
      ++dropped;
      continue;
    }
    // Warm-started entries carry the pre-rendered wire JSON only (the
    // structured result is rebuilt the first time something needs it by
    // simply recomputing on a miss); entries are re-Put least recently
    // used first, reproducing each shard's LRU order.
    auto value = std::make_shared<CachedResult>();
    value->json = entry.json;
    cache_.Put(rewritten, value);
    ++kept;
  }
  if (restored) *restored = kept;
  if (fenced) *fenced = dropped;
  return true;
}

std::future<ExplainResponse> ServiceExecutor::SubmitExplain(
    ExplainRequest request) {
  auto promise = std::make_shared<std::promise<ExplainResponse>>();
  std::future<ExplainResponse> future = promise->get_future();
  ExplainService* service = &service_;
  pool_.Submit([service, promise, request = std::move(request)] {
    promise->set_value(service->Explain(request));
  });
  return future;
}

std::future<ExplainResponse> ServiceExecutor::SubmitSessionExplain(
    uint64_t session_id) {
  auto promise = std::make_shared<std::promise<ExplainResponse>>();
  std::future<ExplainResponse> future = promise->get_future();
  ExplainService* service = &service_;
  pool_.Submit([service, promise, session_id] {
    promise->set_value(service->ExplainSession(session_id));
  });
  return future;
}

}  // namespace tsexplain
