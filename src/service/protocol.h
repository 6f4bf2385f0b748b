// NDJSON protocol: one JSON request object per line in, one JSON response
// object per line out (docs/SERVICE.md documents every op and schema).
//
// Every op is one row of the op table in protocol.cc: its name, its
// dispatch class (OpDispatch) and its handler. Handlers are pure
// request->response functions over an ExplainService and are therefore
// safe to call from many threads at once; the transport
// (tools/tsexplain_serve.cc) asks DispatchOf(op) where each request runs.
// Responses echo the request's "id" so clients can match out-of-order
// completions.

#ifndef TSEXPLAIN_SERVICE_PROTOCOL_H_
#define TSEXPLAIN_SERVICE_PROTOCOL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/service/explain_service.h"
#include "src/service/request_log.h"

namespace tsexplain {

class MetricsHistory;
class QueryWatchdog;

/// Where the transport runs an op (docs/SERVICE.md, "Dispatch classes").
enum class OpDispatch {
  /// On the reader thread at once: no drain, no pool, no backlog slot.
  /// Liveness must answer while every worker is wedged, so the one such
  /// op (healthz) touches no engine, cache or registry mutex.
  kInline,
  /// On the reader thread once every earlier dispatched read finished:
  /// mutations and counter reads see a settled state, in submission
  /// order. Unknown and missing ops are barriers too (answered inline
  /// with unknown_op).
  kBarrier,
  /// Fanned out to the shared thread pool.
  kPooled,
  /// Fanned out to the pool behind a transport backlog slot. These ops
  /// pass admission control; once max_inflight + queue_depth of them are
  /// parked the transport sheds the rest with `overloaded`.
  kAdmitted,
};

class ProtocolHandler {
 public:
  explicit ProtocolHandler(ExplainService& service) : service_(service) {}

  /// Request logging (docs/OBSERVABILITY.md). Both sinks are optional
  /// and borrowed (the transport owns them; they must outlive the
  /// handler). The access log gets one compact JSON line per handled
  /// request; the slow-query log gets a structured NDJSON record for
  /// every explain / explain_session whose service latency reached
  /// `slow_query_ms` (<= 0 disables the slow-query log).
  struct LogOptions {
    LineLog* access_log = nullptr;
    LineLog* slow_query_log = nullptr;
    double slow_query_ms = 0.0;
  };
  void set_log_options(const LogOptions& options) { log_ = options; }

  /// Self-observation wiring (docs/OBSERVABILITY.md, "Self-observation").
  /// All fields are optional and borrowed from the transport: `history`
  /// powers the `metrics_history` op, `watchdog` brackets every request
  /// with a Begin/End stamp and feeds `healthz`/`state`; `start_wall_ms`
  /// (WallMs at process start) yields uptime; `pool_size` is reported in
  /// `state`'s build block. Set once at startup, before serving.
  struct Introspection {
    MetricsHistory* history = nullptr;
    QueryWatchdog* watchdog = nullptr;
    double start_wall_ms = 0.0;
    int pool_size = 0;
  };
  void set_introspection(const Introspection& introspection) {
    introspection_ = introspection;
  }

  /// Handles one parsed request object; returns the response line
  /// (compact JSON, no trailing newline). Unknown ops and missing fields
  /// come back as ok:false responses, never as aborts.
  std::string Handle(const JsonValue& request);

  /// Response for a line that failed to parse as JSON.
  std::string MakeParseError(const std::string& message) const;

  /// Structured `overloaded` response for a request the TRANSPORT must
  /// shed before dispatch (its backlog slot acquisition failed): echoes
  /// the id and carries the service's retry-after hint, exactly like a
  /// service-level shed.
  std::string MakeOverloaded(const JsonValue& request) const;

  /// Dispatch class of `op` in the op table; kBarrier for unknown and
  /// empty ops.
  static OpDispatch DispatchOf(const std::string& op);

  /// Every op name in the op table, in table order.
  static std::vector<std::string> OpNames();

  /// Extracts "op" from a request object ("" when absent).
  static std::string OpOf(const JsonValue& request);

 private:
  /// Runs `request` through its op-table row and renders the response
  /// envelope; `*ok` reports whether it is an ok:true response.
  std::string Respond(const JsonValue& request, uint64_t request_id,
                      bool* ok);

  ExplainService& service_;
  LogOptions log_;
  Introspection introspection_;
  /// Monotone per-handler request stamp: echoed in every ok envelope as
  /// "request_id" and in both log records, so traces, the slow-query
  /// log, and the access log join on it.
  std::atomic<uint64_t> next_request_id_{0};
};

/// Parses the shared query fields of `explain` / `open_session` requests
/// into a TSExplainConfig. Returns false + error on a malformed field
/// (bad aggregate/metric names, wrong types). Exposed for tests.
bool ParseQueryConfig(const JsonValue& request, TSExplainConfig* config,
                      std::string* error);

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_PROTOCOL_H_
