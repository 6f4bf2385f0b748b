// Named, immutable, shared datasets plus their hot engines.
//
// The registry is the amortization point of the service: a CSV is parsed
// ONCE into an immutable Table shared by every query, and each distinct
// engine configuration (see query_key.h's engine_key) gets ONE hot
// TSExplain instance whose cube / registry / explainer caches persist
// across queries. Below the engines, each (registration, measure) keeps
// ONE module (a) precomputation (src/cube/precomputation.h) over every
// dimension, built by the first engine that needs it; later engines
// project their registry and cube partials from it instead of scanning
// the rows again. Engines keep their backing table alive via shared_ptr,
// so dropping a dataset is safe while queries are in flight: they finish
// against the old table, later lookups see "not found".
//
// Thread safety: all methods are safe to call concurrently. TSExplain::Run
// itself mutates internal caches, so each engine carries a mutex that the
// caller must hold around Run (EngineHandle::mu); distinct engines run
// fully in parallel.

#ifndef TSEXPLAIN_SERVICE_DATASET_REGISTRY_H_
#define TSEXPLAIN_SERVICE_DATASET_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/mutex.h"
#include "src/pipeline/tsexplain.h"
#include "src/table/csv_reader.h"

namespace tsexplain {

struct DatasetInfo {
  std::string name;
  std::string source;  // file path, or "<inline>" / "<table>"
  size_t rows = 0;
  size_t time_buckets = 0;
  std::vector<std::string> dimensions;
  std::vector<std::string> measures;
  size_t hot_engines = 0;
  /// Content fingerprint (storage::TableFingerprint), computed exactly
  /// once at registration (snapshot loads reuse the file header's value)
  /// and cached — consumers (session logs, cache fencing) read it from
  /// here instead of re-serializing the table.
  uint64_t fingerprint = 0;
};

/// A leased engine: hold `mu` while calling engine->Run(...); `table`
/// pins the dataset for the lease's lifetime.
struct EngineHandle {
  std::shared_ptr<const Table> table;
  std::shared_ptr<TSExplain> engine;
  std::shared_ptr<Mutex> mu;

  bool ok() const { return engine != nullptr; }
};

class DatasetRegistry {
 public:
  /// Parses `path` and registers the result under `name`. Fails (false +
  /// error) on parse problems or a duplicate name. `info` (optional)
  /// receives the registered dataset's description — callers use it
  /// instead of a racy Get() re-lookup (the dataset may be dropped by
  /// another thread immediately after registration).
  bool RegisterCsvFile(const std::string& name, const std::string& path,
                       const CsvOptions& options, std::string* error,
                       DatasetInfo* info = nullptr);

  /// Same, for CSV text already in memory (server `register` op with
  /// inline data; tests).
  bool RegisterCsvText(const std::string& name, const std::string& text,
                       const CsvOptions& options, std::string* error,
                       DatasetInfo* info = nullptr);

  /// Opens a binary table snapshot (src/storage/table_snapshot.h) via the
  /// zero-copy mmap path (owned-parse fallback for v1 files / platforms
  /// without mmap) and registers it under `name` — the warm-start path: no
  /// CSV re-parse, no column heap copies, and the fingerprint comes from
  /// the file header instead of a re-hash. Fails with the snapshot's
  /// structured error string on a corrupted or truncated file. Dropping
  /// the dataset releases the mapping once the last query finishes.
  bool RegisterSnapshotFile(const std::string& name, const std::string& path,
                            std::string* error, DatasetInfo* info = nullptr);

  /// Registers an already-built table (benches, embedding applications).
  bool RegisterTable(const std::string& name,
                     std::shared_ptr<const Table> table,
                     const std::string& source, std::string* error,
                     DatasetInfo* info = nullptr);

  /// nullptr when unknown.
  std::shared_ptr<const Table> Get(const std::string& name) const;

  /// Get plus the registration's unique id (monotonic across the
  /// process). A name re-registered after a Drop gets a NEW uid, so
  /// callers embedding the uid in cache keys can never alias results
  /// from a previous incarnation of the name — even when an in-flight
  /// computation against the old table lands after the re-register.
  struct TableRef {
    std::shared_ptr<const Table> table;  // nullptr when unknown
    uint64_t uid = 0;
    /// Cached content fingerprint (see DatasetInfo::fingerprint).
    uint64_t fingerprint = 0;
  };
  TableRef GetRef(const std::string& name) const;

  /// Unregisters `name` and drops its hot engines and precomputations;
  /// returns false when unknown. In-flight queries holding handles are
  /// unaffected (an engine keeps the registry and partials it uses).
  bool Drop(const std::string& name);

  /// Sorted by name.
  std::vector<DatasetInfo> List() const;

  /// Returns the hot engine for (dataset, engine_key), building it on
  /// first use. `config` must describe engine_key (the caller canonicalizes
  /// first). A new engine is projected from the dataset's precomputation
  /// for its measure, which the first engine builds over every dimension
  /// (sorted by name, as canonical explain-by lists are) at its order —
  /// or over its own explain-by set when the all-dimension one would
  /// enumerate more cells than the table has rows. Engines over the same
  /// explain-by set and order share one projection (registry and
  /// partials) while any of them lives. An engine the resident
  /// precomputation does not cover (a dimension outside it, a higher
  /// order) builds its own. Building happens under the dataset's
  /// engine-map lock — concurrent requests for the SAME new engine (or
  /// the same precomputation) wait rather than building twice
  /// (single-flight by mutual exclusion). The cost: a cold build
  /// also makes OTHER engine lookups on that one dataset wait (cache
  /// hits never come here, and other datasets are unaffected). Fails
  /// when the dataset is unknown, or when `expected_table` (the table
  /// the caller validated `config` against, from GetRef) is no longer
  /// the registered one — a drop + re-register race would otherwise
  /// build an engine whose schema the config was never checked against
  /// (TSE_CHECK abort).
  EngineHandle GetOrBuildEngine(const std::string& name,
                                const std::string& engine_key,
                                const TSExplainConfig& config,
                                const Table* expected_table,
                                std::string* error);

  /// Total hot engines across datasets (stats).
  size_t NumEngines() const;

 private:
  bool RegisterTableWithFingerprint(const std::string& name,
                                    std::shared_ptr<const Table> table,
                                    const std::string& source,
                                    uint64_t fingerprint, std::string* error,
                                    DatasetInfo* info);
  struct EngineEntry {
    std::shared_ptr<TSExplain> engine;
    std::shared_ptr<Mutex> run_mu;
  };
  struct Dataset {
    std::shared_ptr<const Table> table;
    uint64_t uid = 0;
    uint64_t fingerprint = 0;  // computed once at registration
    std::string source;
    // Engine build + lookup serialization (per dataset, not global).
    std::shared_ptr<Mutex> engines_mu = std::make_shared<Mutex>();
    std::map<std::string, EngineEntry> engines
        TSE_GUARDED_BY(*engines_mu);
    // The precomputation new engines project from, by measure index
    // (-1 = COUNT(*)); built by the first engine on that measure.
    std::map<int, Precomputation> precomputations
        TSE_GUARDED_BY(*engines_mu);
    // The projections of those, by (measure index, explain-by set, order),
    // held weakly: engines over the same set share one registry and one
    // partials while any of them lives.
    struct Projection {
      std::weak_ptr<const ExplanationRegistry> registry;
      std::weak_ptr<const CubePartials> partials;
    };
    std::map<std::tuple<int, std::vector<AttrId>, int>, Projection>
        projections TSE_GUARDED_BY(*engines_mu);
  };
  // A new engine for `config` over `dataset`'s resident precomputation
  // (see GetOrBuildEngine).
  static std::shared_ptr<TSExplain> BuildEngine(Dataset& dataset,
                                                const TSExplainConfig& config)
      TSE_REQUIRES(*dataset.engines_mu);

  mutable Mutex mu_;  // guards datasets_ map shape
  std::map<std::string, std::shared_ptr<Dataset>> datasets_
      TSE_GUARDED_BY(mu_);
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_DATASET_REGISTRY_H_
