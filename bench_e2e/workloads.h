#ifndef BENCH_E2E_WORKLOADS_H_
#define BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/estimate/estimate.h"
#include "analysis/rewrite/rewriter.h"
#include "common/result.h"
#include "core/aggcache/agg_cache.h"
#include "core/database.h"
#include "core/engine.h"
#include "core/pietql/evaluator.h"
#include "moving/block_store.h"
#include "moving/moft_columns.h"
#include "olap/fact_table.h"
#include "temporal/interval.h"
#include "trace.h"
#include "workload/city.h"

namespace bench_e2e {

/// Every runtime mode of one configuration. Each is applied through its
/// setter (never read from the environment).
struct Modes {
  int threads = 2;
  piet::analysis::CheckMode check = piet::analysis::CheckMode::kStrict;
  piet::analysis::rewrite::RewriteMode rewrite =
      piet::analysis::rewrite::RewriteMode::kOn;
  piet::core::aggcache::AggCacheMode agg_cache =
      piet::core::aggcache::AggCacheMode::kOn;
  piet::analysis::estimate::EstimateMode estimate =
      piet::analysis::estimate::EstimateMode::kOff;
  piet::moving::BlockOptions blocks;  ///< Default: raw (no block store).

  /// One-line rendering for the printed configuration.
  std::string ToString() const;
};

/// The identity gate's oracle: rewrite, aggregate cache and estimate off,
/// one worker, raw storage, no semantic check.
Modes ReferenceModes();

/// Samples of one MOFT, in arrival order (ascending t, then oid).
struct MoftInput {
  std::string name;
  std::vector<piet::moving::Sample> samples;
};

/// An operation's answer: a hash over every value returned, and the number
/// of rows (the last table's, or 1 for scalars).
struct Answer {
  uint64_t hash = 0;
  int64_t rows = 0;
};

/// Deterministic work counts of the traced run's first pass. Two runs with
/// the same seed must agree on every field.
struct Counts {
  uint64_t answer_digest = 0;  ///< Order-sensitive hash of every answer.
  int64_t ops = 0;
  int64_t rows_returned = 0;
  int64_t engine_samples_scanned = 0;
  int64_t engine_point_tests = 0;
  int64_t engine_legs_tested = 0;
  int64_t engine_blocks_pinned = 0;
  int64_t engine_blocks_decoded = 0;
  int64_t engine_blocks_skipped = 0;
  int64_t geo_ids = 0;
  int64_t rewrite_rules = 0;
  int64_t cache_eligible = 0;
  int64_t cache_served = 0;
  int64_t cache_fallback_subhour = 0;
  int64_t classify_lookups = 0;
  int64_t classify_hits = 0;
  int64_t store_blocks_decoded = 0;
  int64_t store_blocks_skipped = 0;
  int64_t store_hot_materializations = 0;
  int64_t region_rows = 0;  ///< Region-C rows returned by engine calls.
  /// Wall time of engine calls that tested legs (a timing, so not part of
  /// ToJson's deterministic counts).
  int64_t legs_call_ns = 0;

  /// Folds one answer into answer_digest and rows_returned.
  void AddAnswer(const Answer& a);
  /// {"name":value,...} over every field.
  std::string ToJson() const;
};

/// The loaded database and its two front-ends, configured from one Modes.
struct Loaded {
  std::unique_ptr<piet::core::GeoOlapDatabase> db;
  std::unique_ptr<piet::core::QueryEngine> engine;
  std::unique_ptr<piet::core::pietql::Evaluator> evaluator;
};

/// Wall times of the program's load path, in ns, appended per call.
struct LoadTimes {
  std::vector<int64_t> overlay_ns;
  std::vector<int64_t> add_ns;  ///< Moft::Add of one MOFT's samples.
  std::vector<int64_t> add_samples;
  std::vector<int64_t> addmoft_ns;
  std::vector<int64_t> seal_ns;  ///< First Columns() after AddMoft.
  std::vector<int64_t> classify_build_ns;
  std::vector<int64_t> aggcache_build_ns;
};

/// What one operation needs to run: the loaded front-ends, the modes they
/// were configured with, and (traced passes only) the span recorder and,
/// when the layers' entry points are also called, the count accumulator.
struct Services {
  const Loaded* loaded = nullptr;
  const Modes* modes = nullptr;
  std::string layer;  ///< The overlay layer the operations filter on.
  Tracer* tracer = nullptr;
  /// Also call each layer's public entry point on the operation's inputs,
  /// each under its own span (needs tracer, counts and cold_builds).
  bool layer_calls = false;
  Counts* counts = nullptr;
  LoadTimes* cold_builds = nullptr;  ///< Cold cache builds seen.
};

/// What one operation returned, kept whole so the benchmark hashes it after
/// the clock stops.
struct Output {
  std::optional<piet::core::pietql::QueryResult> query;
  std::vector<piet::olap::FactTable> tables;
  std::vector<piet::Value> values;
};

Answer HashOutput(const Output& out);

/// One named operation of a workload: a Piet-QL text or an engine call.
struct Op {
  std::string klass;  ///< Template name, e.g. "remark1" or "type7".
  std::string moft;
  std::string text;   ///< Piet-QL; empty for engine operations.
  bool hostile = false;  ///< Malformed text that must be rejected.
  /// INSIDE RESULT aggregate / cached engine helper (the cache may serve).
  bool cache_eligible = false;
  /// Would call GeoOlapDatabase::AggCache (eligible and hour-decomposable).
  bool uses_aggcache = false;
  /// Scans through the classification cache (sub-hour INSIDE RESULT).
  bool uses_classify = false;
  std::optional<piet::temporal::Interval> window;
  std::function<piet::Result<Output>(const Services&)> engine;
};

/// Inputs and operation pool of one workload, all derived from the seed.
struct Workload {
  std::string name;
  Modes modes;
  piet::workload::City city;
  std::string layer;  ///< The overlay layer (neighborhoods).
  /// dashboard / adhoc_scan: the one MOFT loaded at set-up. ingest_mixed:
  /// the day batches; the first `preload` of them are loaded at set-up.
  std::vector<MoftInput> mofts;
  size_t preload = 0;  ///< ingest_mixed only.
  bool warm_classify = false;
  bool warm_aggcache = false;
  /// dashboard / adhoc_scan: one pass. ingest_mixed: `ops_per_day`
  /// operations per day batch, day-major, the first one cache-eligible.
  std::vector<Op> ops;
  size_t ops_per_day = 0;
  size_t objects = 0;  ///< Per MOFT.
  size_t samples = 0;  ///< Over every MOFT.
};

/// Generates the workload's city, MOFT inputs and operation pool from
/// `seed`. Unknown names fail.
piet::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The operation pool of `w` drawn from `query_seed`: same templates and
/// mix, other instances. A second seed gives held-out operations over the
/// same inputs.
std::vector<Op> MakeOps(const Workload& w, uint64_t query_seed);

/// A fresh database over the city's GIS with the overlay built and every
/// front-end mode set from `modes`.
piet::Result<Loaded> NewDatabase(const piet::workload::City& city,
                                 const std::string& layer, const Modes& modes,
                                 LoadTimes* times);

/// Moft::Add of every sample, AddMoft, then the first seal.
piet::Status LoadMoft(Loaded* loaded, const MoftInput& input,
                      const Modes& modes, LoadTimes* times);

/// First-touch builds of the classification and aggregate caches.
piet::Status WarmCaches(const Loaded& loaded, const std::string& moft,
                        const std::string& layer, bool classify,
                        bool aggcache, LoadTimes* times);

/// Runs one operation. It makes exactly the calls a user would, each under
/// a child span of one root span when traced; with `layer_calls` it also
/// times the layers' public entry points on the same inputs.
piet::Result<Output> RunOp(const Op& op, const Services& s);

/// NaN / infinite samples for the write-path hostile probe.
std::vector<piet::moving::Sample> HostileSamples(uint64_t seed, size_t n);

}  // namespace bench_e2e

#endif  // BENCH_E2E_WORKLOADS_H_
