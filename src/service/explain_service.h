// The embeddable explanation service (paper section 8's interactive /
// real-time vision): amortizes dataset loading and cube construction
// across queries, deduplicates concurrent identical queries, and serves
// results from a sharded LRU cache.
//
// Layering:
//   DatasetRegistry  — named immutable tables + hot engines (per engine
//                      key), built once and reused.
//   CanonicalizeQuery— stable cache/engine keys (query_key.h).
//   ResultCache      — sharded LRU + single-flight (result_cache.h).
//   ExplainService   — validation, the explain/recommend entry points,
//                      and streaming sessions wrapping StreamingTSExplain.
//   ServiceExecutor  — per-query futures on a shared ThreadPool.
//
// All entry points are thread-safe; responses carry error codes instead
// of aborting, so a malformed query can never take the server down (the
// service validates every schema-dependent field before touching engine
// code, whose TSE_CHECKs abort on violated invariants).
//
// Results are REPRODUCIBLE: a cached or concurrently-served response is
// bit-identical to running TSExplain::Run on the same table serially
// (asserted by tests/test_service.cc), because engines are shared, Run is
// serialized per engine, and the JSON is rendered exactly once.

#ifndef TSEXPLAIN_SERVICE_EXPLAIN_SERVICE_H_
#define TSEXPLAIN_SERVICE_EXPLAIN_SERVICE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_pool.h"
#include "src/pipeline/recommend.h"
#include "src/pipeline/report_json.h"
#include "src/pipeline/streaming.h"
#include "src/service/admission.h"
#include "src/service/dataset_registry.h"
#include "src/service/quota.h"
#include "src/service/result_cache.h"
#include "src/service/trace.h"
#include "src/storage/session_log.h"

namespace tsexplain {

/// Stable machine-readable error codes (docs/SERVICE.md).
namespace error_code {
inline constexpr char kParseError[] = "parse_error";
inline constexpr char kUnknownOp[] = "unknown_op";
inline constexpr char kBadRequest[] = "bad_request";
inline constexpr char kNotFound[] = "not_found";
inline constexpr char kInvalidQuery[] = "invalid_query";
inline constexpr char kInternal[] = "internal";
/// Load shed: the bounded admission queue is full. Retry after
/// `retry_after_ms`.
inline constexpr char kOverloaded[] = "overloaded";
/// Load shed: the request's tenant is at its in-flight cap.
inline constexpr char kQuotaExceeded[] = "quota_exceeded";
}  // namespace error_code

/// Largest top-m (`m`) a protocol request may ask for; larger values are
/// rejected with invalid_query (docs/SERVICE.md). Cascading Analysts costs
/// O(m^2) per lattice edge and keeps m + 1 scores per cell, so an
/// unbounded m lets one request pin a worker and its memory. Library
/// callers are not bounded.
inline constexpr int kMaxTopM = 20;

struct ServiceOptions {
  size_t cache_capacity_bytes = 64ull << 20;  // 64 MiB
  int cache_shards = 8;
  /// Overload control (admission.h): bounded concurrency + queue, load
  /// shedding, duplicate batching, per-tenant in-flight caps, adaptive
  /// thread grants. Defaults admit one running query per pool worker.
  AdmissionOptions admission;
  /// Per-tenant ResultCache byte budget (quota.h); 0 = tenants share the
  /// global LRU unbounded. Cache hits are never quota-checked.
  size_t tenant_cache_budget_bytes = 0;
  /// When set, every streaming session appends to a crash-recovery log
  /// under this directory (src/storage/session_log.h): OpenSession
  /// writes the header, each Append is logged after the engine absorbs
  /// it, CloseSession deletes the log. RecoverSession replays a log from
  /// a crashed process. The file name is incarnation-scoped
  /// (pid + instance tag + session id) — never construct it by hand, ask
  /// SessionLogPath() (the open_session response carries it as "log").
  /// Empty = session persistence off.
  std::string session_log_dir;
};

struct ExplainRequest {
  std::string dataset;
  TSExplainConfig config;
  /// Optional tenant identifier ([A-Za-z0-9._:-], <= 64 chars). Tenants
  /// get their own cache namespace (budgeted when the service is
  /// configured with tenant_cache_budget_bytes) and count against the
  /// per-tenant in-flight cap. Empty = the shared namespace.
  std::string tenant;
  /// Report shape (part of the cache key). The wire JSON is always
  /// compact; trendlines are opt-in to keep hot responses small.
  bool include_trendlines = false;
  bool include_k_curve = true;
  /// Collect per-query trace spans (trace.h) into ExplainResponse::trace.
  /// NOT part of the cache key: tracing changes what is reported, never
  /// what is computed, and a traced hit is still a hit.
  bool trace = false;
};

struct ExplainResponse {
  bool ok = false;
  std::string error_code;  // one of error_code::k* when !ok
  std::string error;       // human-readable detail
  /// For overloaded / quota_exceeded errors: how long the client should
  /// back off before retrying (0 otherwise).
  double retry_after_ms = 0.0;
  std::string query_key;   // canonical key (diagnostics; empty when !ok)
  bool cache_hit = false;  // served without running the pipeline here
  /// Structured result. MAY BE NULL on a hit served from a warm-started
  /// (LoadCache) entry, which persists the wire JSON only — check before
  /// dereferencing, or use `json` (always set on ok), which is what the
  /// server and every wire client consume.
  std::shared_ptr<const TSExplainResult> result;
  std::string json;        // RenderJsonReport output (compact)
  double latency_ms = 0.0;
  /// How admission resolved this request: "cache_hit", "admitted",
  /// "coalesced", "shed_overload" or "shed_tenant" (empty for requests
  /// rejected before the cache, e.g. validation errors). Feeds the
  /// slow-query log.
  std::string admission_outcome;
  /// Finalized span tree (empty unless the request asked for tracing).
  /// Spans partition the root's wall clock; see trace.h.
  std::vector<TraceSpan> trace;
};

struct ServiceStats {
  size_t datasets = 0;
  size_t hot_engines = 0;
  size_t open_sessions = 0;
  size_t tenants = 0;
  ResultCache::Stats cache;
  AdmissionController::Stats admission;
  /// Resident cache bytes per tenant namespace, sorted by tenant id —
  /// the operator's view of who a (possibly warm-started) cache belongs
  /// to. The shared (tenant-less) namespace is cache.bytes_used minus
  /// the sum of these.
  std::vector<std::pair<std::string, size_t>> tenant_bytes;
};

class ExplainService {
 public:
  explicit ExplainService(ServiceOptions options = {});

  /// Dataset management (thin veneer over the registry).
  DatasetRegistry& registry() { return registry_; }

  /// Drops a dataset AND its cached results, so re-registering the same
  /// name with different data can never serve stale entries. Always
  /// prefer this over registry().Drop() when a ResultCache is in play.
  bool DropDataset(const std::string& name);

  /// Synchronous query. Validation errors, unknown datasets, etc. come
  /// back as error responses; only violated internal invariants abort.
  ///
  /// Hot path: a cached result is served immediately, WITHOUT admission
  /// control — overload can only defer work, never hits. Cold path: the
  /// query passes the AdmissionController (which may batch it onto an
  /// identical in-flight query, queue it briefly, or shed it with
  /// `overloaded` / `quota_exceeded` + retry_after_ms), then runs with
  /// the granted thread count. Results are bit-identical however the
  /// query was served (cached, batched, queued, any thread grant).
  ExplainResponse Explain(const ExplainRequest& request);

  /// Explain-by attribute recommendation (no caching: it is cheap and
  /// dataset-append-sensitive).
  struct RecommendResponse {
    bool ok = false;
    std::string error_code;
    std::string error;
    std::vector<ExplainByRecommendation> recommendations;
  };
  RecommendResponse Recommend(const std::string& dataset,
                              AggregateFunction aggregate,
                              const std::string& measure, int m);

  /// Streaming sessions: append-then-re-explain over one growing table
  /// (wraps StreamingTSExplain). Session cache entries live under the key
  /// prefix "session/<id>/" so appends invalidate exactly that session.
  uint64_t OpenSession(const std::string& dataset,
                       const TSExplainConfig& config, std::string* error);
  bool Append(uint64_t session_id, const std::string& label,
              const std::vector<StreamRow>& rows, std::string* error);
  ExplainResponse ExplainSession(uint64_t session_id,
                                 bool include_trendlines = false,
                                 bool include_k_curve = true,
                                 const std::string& tenant = std::string(),
                                 bool trace = false);
  bool CloseSession(uint64_t session_id);
  /// Number of time buckets in the session; -1 when unknown.
  int SessionLength(uint64_t session_id) const;
  /// The session's crash-recovery log path ("" when logging is off or the
  /// session is unknown). The name embeds the pid, so callers must ask
  /// rather than guess.
  std::string SessionLogPath(uint64_t session_id) const;
  /// Whether the session's last append forced a full engine rebuild.
  bool SessionLastAppendRebuilt(uint64_t session_id) const;

  /// Rebuilds a streaming session from a crash-recovery log written by a
  /// previous process (ServiceOptions::session_log_dir): validates the
  /// log, fences a changed base dataset by content fingerprint, replays
  /// every intact append, and — when session logging is on — starts a
  /// fresh log for the recovered session so the crash-safety chain
  /// continues. Returns the NEW session id (0 + error on failure).
  /// `torn` (optional) reports whether a torn tail was truncated away
  /// (the append in flight at the crash is lost, by design).
  uint64_t RecoverSession(const std::string& log_path, std::string* error,
                          bool* torn = nullptr, int* replayed = nullptr);

  ServiceStats Stats() const;

  /// Cache persistence (src/storage/cache_snapshot.h). SaveCache writes
  /// every resident dataset-level entry (session entries are skipped:
  /// session ids do not survive a restart) plus an identity stamp
  /// (registration uid + content fingerprint) per registered dataset.
  /// LoadCache re-inserts entries whose dataset stamp matches a
  /// CURRENTLY registered dataset with an identical content fingerprint,
  /// rewriting the saved registration uid to the live one; everything
  /// else is fenced out (counted in `fenced`), so a changed or
  /// re-registered dataset can never serve stale warm-start entries.
  /// Errors come back as "code: message" strings with the structured
  /// storage code first (docs/STORAGE.md).
  bool SaveCache(const std::string& path, std::string* error,
                 size_t* saved = nullptr) const;
  bool LoadCache(const std::string& path, std::string* error,
                 size_t* restored = nullptr, size_t* fenced = nullptr);

  /// The overload controller (transports use it to bound their dispatch
  /// backlog and to produce retry-after hints for pre-dispatch sheds).
  AdmissionController& admission() { return admission_; }

 private:
  struct Session {
    mutable Mutex mu;  // serializes Append / Explain on this session
    uint64_t id = 0;
    // Immutable after publication in sessions_ (set while the session is
    // still private to its constructor, read-only afterwards).
    std::string dataset;
    TSExplainConfig config;
    std::unique_ptr<StreamingTSExplain> engine TSE_GUARDED_BY(mu)
        TSE_PT_GUARDED_BY(mu);
    /// Crash-recovery log (null when session logging is off). Lives with
    /// the session; the engine's append observer writes through it, so
    /// it must outlive the engine's last AppendBucket (both are guarded
    /// by `mu`).
    std::unique_ptr<storage::SessionLogWriter> log TSE_GUARDED_BY(mu)
        TSE_PT_GUARDED_BY(mu);
    std::string log_path TSE_GUARDED_BY(mu);
    /// Latched by the append observer on the first failed LogAppend (the
    /// file is deleted then: a gapped log must never be recovered from).
    bool log_failed TSE_GUARDED_BY(mu) = false;
  };

  std::shared_ptr<Session> FindSession(uint64_t session_id) const
      TSE_EXCLUDES(sessions_mu_);

  /// Installs `session`'s crash-recovery log (header + any already-
  /// replayed appends) and subscribes the engine's append observer to
  /// it. No-op when session logging is off. The caller holds the session
  /// mutex (construction-time sessions are unpublished, so the lock is
  /// uncontended — it exists to make the guarded-field access provable).
  void AttachSessionLog(Session& session, uint64_t base_fingerprint,
                        const std::vector<storage::SessionLogAppend>& replayed)
      TSE_REQUIRES(session.mu);

  /// Runs the admission + single-flight compute for one (cold) cache
  /// key; shared by Explain and ExplainSession. `trace` may be null;
  /// when set, admission waits and the compute get spans, and the
  /// compute callback receives the trace plus its "compute" span index
  /// so it can graft engine-phase children under it (the callback only
  /// runs on the single-flight leader, which is exactly the request
  /// whose trace can see inside the computation).
  ExplainResponse AdmitAndCompute(
      const std::string& cache_key, const std::string& tenant,
      int requested_threads, QueryTrace* trace,
      const std::function<ResultCache::ValuePtr(
          int granted_threads, QueryTrace* trace, int compute_span,
          std::string* error)>& compute);

  DatasetRegistry registry_;
  ResultCache cache_;
  AdmissionController admission_;
  TenantQuotaRegistry tenant_quotas_;
  std::string session_log_dir_;
  /// Distinguishes this service's session-log names from every other
  /// incarnation's (process-wide counter; the pid handles cross-process):
  /// session ids restart at 1 per instance, and a colliding name would
  /// let a new session's log truncate a crashed one's.
  const uint64_t instance_tag_;

  mutable Mutex sessions_mu_;
  uint64_t next_session_id_ TSE_GUARDED_BY(sessions_mu_) = 1;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_
      TSE_GUARDED_BY(sessions_mu_);
};

/// Per-query futures on a shared ThreadPool: the serving layer submits
/// requests and multiplexes completions without a thread per client.
class ServiceExecutor {
 public:
  explicit ServiceExecutor(ExplainService& service,
                           ThreadPool& pool = ThreadPool::Shared())
      : service_(service), pool_(pool) {}

  std::future<ExplainResponse> SubmitExplain(ExplainRequest request);
  std::future<ExplainResponse> SubmitSessionExplain(uint64_t session_id);

  ThreadPool& pool() { return pool_; }

 private:
  ExplainService& service_;
  ThreadPool& pool_;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_EXPLAIN_SERVICE_H_
