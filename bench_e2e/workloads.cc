#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>

#include "analysis/lint/query_lint.h"
#include "analysis/query_check.h"
#include "common/random.h"
#include "core/pietql/parser.h"
#include "core/queries.h"
#include "core/region.h"
#include "obs/metrics.h"
#include "olap/aggregate.h"
#include "workload/trajectories.h"

namespace bench_e2e {

using piet::Random;
using piet::Result;
using piet::Status;
using piet::Value;
using piet::core::GeometryPredicate;
using piet::core::Strategy;
using piet::core::TimePredicate;
using piet::olap::FactTable;
using piet::temporal::Interval;
using piet::temporal::TimePoint;
namespace queries = piet::core::queries;

namespace {

constexpr double kHour = 3600.0;
constexpr double kDay = 86400.0;
// Trajectories cover 06:00-14:00, so TIME.timeOfDay takes both 'Morning'
// and 'Afternoon' and every hour window below lies inside the data.
constexpr double kStartHour = 6.0;
constexpr double kHours = 8.0;

// splitmix64 finalizer over a running state: order-sensitive, and every
// bit of every value reaches the digest.
class Hasher {
 public:
  void Add(uint64_t v) {
    uint64_t z = (h_ ^ v) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h_ = z ^ (z >> 31);
  }
  void AddInt(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  void AddString(std::string_view s) {
    Add(s.size());
    for (size_t i = 0; i < s.size(); i += 8) {
      uint64_t w = 0;
      std::memcpy(&w, s.data() + i, std::min<size_t>(8, s.size() - i));
      Add(w);
    }
  }
  void AddValue(const Value& v) {
    Add(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case piet::ValueType::kNull:
        break;
      case piet::ValueType::kInt:
        AddInt(v.AsIntUnchecked());
        break;
      case piet::ValueType::kDouble:
        AddDouble(v.AsDoubleUnchecked());
        break;
      case piet::ValueType::kString:
        AddString(v.AsStringUnchecked());
        break;
      case piet::ValueType::kBool:
        Add(v.AsBoolUnchecked() ? 1 : 0);
        break;
    }
  }
  void AddTable(const FactTable& t) {
    Add(t.num_columns());
    for (const auto& c : t.columns()) {
      AddString(c.name);
    }
    Add(t.num_rows());
    for (const auto& row : t.rows()) {
      for (const Value& v : row) {
        AddValue(v);
      }
    }
  }
  uint64_t digest() const { return h_; }

 private:
  uint64_t h_ = 0x243f6a8885a308d3ULL;
};

}  // namespace

Answer HashOutput(const Output& out) {
  Hasher h;
  int64_t rows = 1;
  h.Add(out.query.has_value() ? 1 : 0);
  if (out.query) {
    const piet::core::pietql::QueryResult& r = *out.query;
    h.AddString(r.result_layer);
    h.Add(r.geometry_ids.size());
    for (auto id : r.geometry_ids) {
      h.AddInt(static_cast<int64_t>(id));
    }
    h.Add(r.scalar.has_value() ? 1 : 0);
    if (r.scalar) {
      h.AddValue(*r.scalar);
    }
    h.Add(r.table.has_value() ? 1 : 0);
    rows = r.scalar ? 1 : static_cast<int64_t>(r.geometry_ids.size());
    if (r.table) {
      h.AddTable(*r.table);
      rows = static_cast<int64_t>(r.table->num_rows());
    }
  }
  h.Add(out.tables.size());
  for (const FactTable& t : out.tables) {
    h.AddTable(t);
    rows = static_cast<int64_t>(t.num_rows());
  }
  h.Add(out.values.size());
  for (const Value& v : out.values) {
    h.AddValue(v);
  }
  return Answer{h.digest(), rows};
}

void Counts::AddAnswer(const Answer& a) {
  Hasher h;
  h.Add(answer_digest);
  h.Add(a.hash);
  answer_digest = h.digest();
  rows_returned += a.rows;
}

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

int64_t CounterValue(const char* name) {
  return piet::obs::MetricsRegistry::Global().GetCounter(name).Value();
}

// ---- Traced-run helpers: each wraps one public entry point in a span. --

/// Adds the aggregate-cache serve / sub-hour fallback counter deltas of
/// one operation's own library call to the counts (the traced probes
/// around it are excluded).
class CacheDelta {
 public:
  explicit CacheDelta(Counts* counts)
      : counts_(counts),
        served_(counts ? CounterValue("pietql.aggcache.served") : 0),
        fallback_(counts ? CounterValue("pietql.aggcache.fallback_subhour")
                         : 0) {}
  ~CacheDelta() {
    if (counts_ != nullptr) {
      counts_->cache_served += CounterValue("pietql.aggcache.served") - served_;
      counts_->cache_fallback_subhour +=
          CounterValue("pietql.aggcache.fallback_subhour") - fallback_;
    }
  }
  CacheDelta(const CacheDelta&) = delete;
  CacheDelta& operator=(const CacheDelta&) = delete;

 private:
  Counts* counts_;
  int64_t served_;
  int64_t fallback_;
};

/// An engine call under a span named `layer`; folds the call's
/// EngineStats into the counts. When the call returns a relation, its
/// region-C row count is the span's work.
template <typename Fn>
auto EngineCall(const Services& s, const std::string& layer, Fn&& fn)
    -> decltype(fn()) {
  Span span(s.tracer, layer);
  CacheDelta delta(s.counts);
  auto r = fn();
  if constexpr (std::is_same_v<decltype(r), Result<FactTable>>) {
    if (r.ok()) {
      span.set_work(static_cast<int64_t>(r.ValueOrDie().num_rows()));
      if (s.counts != nullptr) {
        s.counts->region_rows +=
            static_cast<int64_t>(r.ValueOrDie().num_rows());
      }
    }
  }
  const int64_t ns = span.Close();
  if (s.counts != nullptr) {
    const piet::core::EngineStats& st = s.loaded->engine->stats();
    if (st.legs_tested > 0) {
      s.counts->legs_call_ns += ns;
    }
    s.counts->engine_samples_scanned +=
        static_cast<int64_t>(st.samples_scanned);
    s.counts->engine_point_tests += static_cast<int64_t>(st.point_tests);
    s.counts->engine_legs_tested += static_cast<int64_t>(st.legs_tested);
    s.counts->engine_blocks_pinned +=
        static_cast<int64_t>(st.blocks.blocks_pinned);
    s.counts->engine_blocks_decoded +=
        static_cast<int64_t>(st.blocks.blocks_decoded);
    s.counts->engine_blocks_skipped +=
        static_cast<int64_t>(st.blocks.blocks_skipped);
  }
  return r;
}

void TraceGeoFilter(const Services& s, const std::string& layer,
                    const GeometryPredicate& pred) {
  if (!s.layer_calls) {
    return;
  }
  Span span(s.tracer, "geo_filter");
  auto ids = s.loaded->engine->QualifyingGeometries(layer, pred);
  const int64_t n =
      ids.ok() ? static_cast<int64_t>(ids.ValueOrDie().size()) : 0;
  span.set_work(n);
  s.counts->geo_ids += n;
}

void TraceCachedServe(const Services& s, const std::string& moft,
                      const std::string& layer, const GeometryPredicate& pred,
                      const TimePredicate& when) {
  if (!s.layer_calls ||
      s.modes->agg_cache != piet::core::aggcache::AggCacheMode::kOn) {
    return;
  }
  Span span(s.tracer, "aggcache.serve");
  auto served = s.loaded->engine->CachedRegionAggregate(moft, layer, pred,
                                                        when);
  span.set_work(served ? static_cast<int64_t>(served->per_bucket.size())
                       : 0);
}

/// Explicit cache lookups the operation's own path would make next, so a
/// cold build after a write shows as its own span.
void TraceCacheLookups(const Op& op, const Services& s) {
  const std::string& layer = s.layer;
  const piet::core::GeoOlapDatabase& db = *s.loaded->db;
  if (op.uses_aggcache &&
      s.modes->agg_cache == piet::core::aggcache::AggCacheMode::kOn) {
    const int64_t misses = CounterValue("pietql.aggcache.misses");
    Span span(s.tracer, "aggcache.lookup");
    (void)db.AggCache(op.moft, layer);
    const int64_t ns = span.Close();
    if (CounterValue("pietql.aggcache.misses") != misses) {
      s.cold_builds->aggcache_build_ns.push_back(ns);
    }
  }
  if (op.uses_classify) {
    const int64_t misses = CounterValue("db.classify.cache_misses");
    Span span(s.tracer, "classify.lookup");
    (void)db.ClassifySamples(op.moft, layer);
    const int64_t ns = span.Close();
    ++s.counts->classify_lookups;
    if (CounterValue("db.classify.cache_misses") != misses) {
      s.cold_builds->classify_build_ns.push_back(ns);
    } else {
      ++s.counts->classify_hits;
    }
  }
}

void TraceWindow(const Op& op, const Services& s) {
  if (!s.layer_calls || !op.window) {
    return;
  }
  auto moft = s.loaded->db->GetMoft(op.moft);
  if (!moft.ok()) {
    return;
  }
  Span span(s.tracer, "store.window");
  piet::moving::SampleWindow w =
      moft.ValueOrDie()->SamplesBetween(op.window->begin, op.window->end);
  span.set_work(static_cast<int64_t>(w.size()));
}

Result<Output> RunPietQl(const Op& op, const Services& s) {
  const auto& evaluator = *s.loaded->evaluator;
  Output out;
  if (!s.layer_calls || op.hostile) {
    Span span(s.tracer, "evaluate");
    PIET_ASSIGN_OR_RETURN(out.query, evaluator.EvaluateString(op.text));
    return out;
  }
  const piet::core::GeoOlapDatabase& db = *s.loaded->db;
  Result<piet::core::pietql::Query> parsed = [&] {
    Span span(s.tracer, "parse");
    return piet::core::pietql::Parse(op.text);
  }();
  PIET_RETURN_NOT_OK(parsed.status());
  const piet::core::pietql::Query& query = parsed.ValueOrDie();
  if (s.modes->check != piet::analysis::CheckMode::kOff) {
    Span span(s.tracer, "check");
    piet::analysis::QueryContext context;
    context.gis = &db.gis();
    context.moft_names = db.MoftNames();
    piet::analysis::DiagnosticList d =
        piet::analysis::AnalyzeQuery(context, query);
    d.Merge(piet::analysis::lint::LintQuery(context, query));
    span.set_work(static_cast<int64_t>(d.size()));
  }
  if (s.modes->estimate == piet::analysis::estimate::EstimateMode::kOn) {
    Span span(s.tracer, "estimate");
    (void)evaluator.EstimateQuery(query);
  }
  if (s.modes->rewrite == piet::analysis::rewrite::RewriteMode::kOn) {
    Span span(s.tracer, "rewrite");
    piet::analysis::rewrite::RewriteContext context;
    context.gis = &db.gis();
    auto overlay = db.overlay();
    context.overlay = overlay.ok() ? overlay.ValueOrDie() : nullptr;
    context.agg_cache =
        s.modes->agg_cache == piet::core::aggcache::AggCacheMode::kOn;
    const piet::analysis::rewrite::RewritePlan plan =
        piet::analysis::rewrite::RewriteQuery(context, query);
    span.set_work(static_cast<int64_t>(plan.applied.size()));
    s.counts->rewrite_rules += static_cast<int64_t>(plan.applied.size());
  }
  TraceWindow(op, s);
  TraceCacheLookups(op, s);
  Span span(s.tracer, "evaluate");
  CacheDelta delta(s.counts);
  PIET_ASSIGN_OR_RETURN(out.query, evaluator.Evaluate(query));
  return out;
}

/// olap::Aggregate over a region C under the "aggregate" span.
Result<FactTable> AggregateRegion(const Services& s, const FactTable& region,
                                  const std::vector<std::string>& group_by,
                                  piet::olap::AggFunction fn,
                                  const std::string& col) {
  Span span(s.tracer, "aggregate");
  span.set_work(static_cast<int64_t>(region.num_rows()));
  return piet::olap::Aggregate(region, group_by, fn, col);
}

Output RegionAndAggregate(FactTable region, FactTable agg) {
  Output out;
  out.tables.push_back(std::move(region));
  out.tables.push_back(std::move(agg));
  return out;
}

// ---- Operation templates ----------------------------------------------

struct Templates {
  const Workload* w;
  Random* rng;

  std::string Geo(double income) const {
    return "SELECT layer." + w->layer + "; FROM SimCity; WHERE ATTR(layer." +
           w->layer + ", income) < " + Num(income);
  }
  /// An income threshold that admits between `lo` and `hi` neighborhoods.
  /// Drawing by rank instead of by value keeps the region size, and so
  /// the work per query, the same for every seed's city.
  double IncomeAdmitting(int lo, int hi) const {
    const size_t k = static_cast<size_t>(rng->UniformInt(lo, hi));
    return std::floor(0.5 * (incomes[k - 1] + incomes[k]));
  }
  /// 10-60% of the 256 neighborhoods.
  double Income() const { return IncomeAdmitting(26, 154); }
  /// 6-9%: a few dozen polygons, so per-object leg work stays bounded and
  /// varies little between draws.
  double LowIncome() const { return IncomeAdmitting(16, 24); }
  /// 3-4%: Type 7 tests every leg of every object against each polygon
  /// whatever the window, so its cost grows with the polygon count alone.
  double FewIncome() const { return IncomeAdmitting(8, 10); }
  /// Whole hours [h0, h1] inside the data, relative to day `day`.
  std::pair<double, double> HourWindow(int day, int min_len,
                                       int max_len) const {
    const int len = static_cast<int>(rng->UniformInt(min_len, max_len));
    const int h0 = static_cast<int>(
        rng->UniformInt(static_cast<int64_t>(kStartHour),
                        static_cast<int64_t>(kStartHour + kHours) - len));
    const double base = kDay * day;
    return {base + h0 * kHour, base + (h0 + len) * kHour};
  }
  /// A window of whole minutes starting anywhere in the data.
  std::pair<double, double> MinuteWindow(int day, int min_minutes,
                                         int max_minutes) const {
    const int len = static_cast<int>(rng->UniformInt(min_minutes, max_minutes));
    const int start = static_cast<int>(rng->UniformInt(
        static_cast<int64_t>(kStartHour * 60),
        static_cast<int64_t>((kStartHour + kHours) * 60) - len));
    const double base = kDay * day;
    return {base + start * 60.0, base + (start + len) * 60.0};
  }

  // -- dashboard: hour-aligned aggregates the cache serves ------------------

  Op Remark1(const std::string& moft) const {
    Op op;
    op.klass = "remark1";
    op.moft = moft;
    const char* tod = rng->Bernoulli(0.5) ? "Morning" : "Afternoon";
    op.text = Geo(Income()) + " | SELECT RATE PER HOUR FROM " + moft +
              " WHERE INSIDE RESULT AND TIME.timeOfDay = '" + tod + "'";
    op.cache_eligible = op.uses_aggcache = true;
    return op;
  }
  Op DistinctHourly(const std::string& moft, int day) const {
    Op op;
    op.klass = "distinct_hourly";
    op.moft = moft;
    auto [t0, t1] = HourWindow(day, 1, 4);
    op.text = Geo(Income()) + " | SELECT COUNT(DISTINCT OID) FROM " + moft +
              " WHERE INSIDE RESULT AND T BETWEEN " + Num(t0) + " AND " +
              Num(t1) + " GROUP BY TIME.hour";
    op.window = Interval(TimePoint(t0), TimePoint(t1));
    op.cache_eligible = op.uses_aggcache = true;
    return op;
  }
  Op CountIncome(const std::string& moft) const {
    Op op;
    op.klass = "count_income";
    op.moft = moft;
    op.text = Geo(Income()) + " | SELECT COUNT(*) FROM " + moft +
              " WHERE INSIDE RESULT";
    op.cache_eligible = op.uses_aggcache = true;
    return op;
  }
  /// Per-minute drill-down: the sub-hour GROUP BY defeats the cache and
  /// the scan runs over the cached classification.
  Op Drilldown(const std::string& moft, int day) const {
    Op op;
    op.klass = "drilldown_minute";
    op.moft = moft;
    auto [t0, t1] = MinuteWindow(day, 10, 30);
    op.text = Geo(Income()) + " | SELECT COUNT(*) FROM " + moft +
              " WHERE INSIDE RESULT AND T BETWEEN " + Num(t0) + " AND " +
              Num(t1) + " GROUP BY TIME.minute";
    op.window = Interval(TimePoint(t0), TimePoint(t1));
    op.cache_eligible = true;
    op.uses_classify = true;
    return op;
  }
  Op PerHourEngine(const std::string& moft, int day) const {
    Op op;
    op.klass = "per_hour_engine";
    op.moft = moft;
    op.cache_eligible = op.uses_aggcache = true;
    const double income = Income();
    TimePredicate when;
    switch (rng->UniformInt(0, 2)) {
      case 0:
        when.RollupEquals("timeOfDay", Value(rng->Bernoulli(0.5)
                                                 ? "Morning"
                                                 : "Afternoon"));
        break;
      case 1: {
        auto [t0, t1] = HourWindow(day, 1, 4);
        when.Window(Interval(TimePoint(t0), TimePoint(t1)));
        op.window = Interval(TimePoint(t0), TimePoint(t1));
        break;
      }
      default: {
        const int h0 = static_cast<int>(rng->UniformInt(6, 11));
        when.HourRange(h0, h0 + static_cast<int>(rng->UniformInt(0, 2)));
        break;
      }
    }
    const std::string layer = w->layer;
    op.engine = [moft, layer, income, when](const Services& s)
        -> Result<Output> {
      const GeometryPredicate pred =
          GeometryPredicate::AttributeLess("income", income);
      TraceGeoFilter(s, layer, pred);
      TraceCachedServe(s, moft, layer, pred, when);
      PIET_ASSIGN_OR_RETURN(
          queries::PerHourResult r, EngineCall(s, "engine.per_hour", [&] {
            return queries::CountPerHourInRegion(*s.loaded->engine, moft,
                                                 layer, pred, when,
                                                 Strategy::kOverlay);
          }));
      Output out;
      out.values = {Value(r.tuple_count), Value(r.hour_count),
                    Value(r.per_hour)};
      return out;
    };
    return op;
  }
  Op ObjectsInRegion(const std::string& moft, int day) const {
    Op op;
    op.klass = "objects_in_region";
    op.moft = moft;
    op.cache_eligible = op.uses_aggcache = true;
    const Value member(
        "N" +
        std::to_string(rng->UniformInt(0, w->city.num_neighborhoods - 1)));
    auto [t0, t1] = HourWindow(day, 1, 6);
    const TimePredicate when =
        TimePredicate().Window(Interval(TimePoint(t0), TimePoint(t1)));
    op.window = Interval(TimePoint(t0), TimePoint(t1));
    const std::string layer = w->layer;
    op.engine = [moft, layer, member, when](const Services& s)
        -> Result<Output> {
      if (s.layer_calls) {
        const GeometryPredicate pred = GeometryPredicate::AlphaEquals(
            &s.loaded->db->gis(), "neighborhood", member);
        TraceGeoFilter(s, layer, pred);
        TraceCachedServe(s, moft, layer, pred, when);
      }
      PIET_ASSIGN_OR_RETURN(
          int64_t n, EngineCall(s, "engine.objects_in_region", [&] {
            return queries::CountObjectsInRegion(
                *s.loaded->engine, moft, layer, "neighborhood", member, when,
                Strategy::kOverlay);
          }));
      Output out;
      out.values = {Value(n)};
      return out;
    };
    return op;
  }

  /// Truncated or high-bit-flipped copy of `text`. Truncation stops before
  /// the FROM clause's ';' and the flipped byte lies outside quotes, so
  /// the lexer or parser must reject every variant.
  Op Malformed(const std::string& text) const {
    Op op;
    op.klass = "malformed";
    op.hostile = true;
    std::string bad = text;
    if (rng->Bernoulli(0.5)) {
      const size_t from = bad.find("FROM");
      const size_t semi = bad.find(';', from);
      bad.resize(static_cast<size_t>(
          rng->UniformInt(1, static_cast<int64_t>(semi) - 1)));
    } else {
      std::vector<size_t> positions;
      bool quoted = false;
      for (size_t i = 0; i < bad.size(); ++i) {
        if (bad[i] == '\'') {
          quoted = !quoted;
        } else if (!quoted) {
          positions.push_back(i);
        }
      }
      const size_t pos = positions[rng->Uniform(positions.size())];
      bad[pos] = static_cast<char>(static_cast<unsigned char>(bad[pos]) ^
                                   0x80u);
    }
    op.text = std::move(bad);
    return op;
  }

  // -- adhoc_scan: scans of samples and legs the cache cannot serve -------

  Op InsideMinute(const std::string& moft) const {
    Op op = Drilldown(moft, 0);
    op.klass = "inside_minute";
    return op;
  }
  Op NearStops(const std::string& moft) const {
    Op op;
    op.klass = "near_stops";
    op.moft = moft;
    auto [t0, t1] = HourWindow(0, 2, 2);
    op.text = "SELECT layer." + w->layer +
              "; FROM SimCity; | SELECT COUNT(DISTINCT OID) FROM " + moft +
              " WHERE NEAR(layer." + w->city.stops_layer +
              ", 40) AND T BETWEEN " + Num(t0) + " AND " + Num(t1);
    op.window = Interval(TimePoint(t0), TimePoint(t1));
    return op;
  }
  Op PassesThrough(const std::string& moft) const {
    Op op;
    op.klass = "passes_through";
    op.moft = moft;
    auto [t0, t1] = HourWindow(0, 2, 2);
    op.text = Geo(LowIncome()) + " | SELECT COUNT(DISTINCT OID) FROM " + moft +
              " WHERE PASSES THROUGH RESULT AND T BETWEEN " + Num(t0) +
              " AND " + Num(t1);
    op.window = Interval(TimePoint(t0), TimePoint(t1));
    return op;
  }
  Op Type3(const std::string& moft) const {
    Op op;
    op.klass = "type3";
    op.moft = moft;
    auto [t0, t1] = HourWindow(0, 2, 2);
    op.window = Interval(TimePoint(t0), TimePoint(t1));
    const TimePredicate when = TimePredicate().Window(*op.window);
    op.engine = [moft, when](const Services& s) -> Result<Output> {
      PIET_ASSIGN_OR_RETURN(
          FactTable region, EngineCall(s, "engine.type3", [&] {
            return s.loaded->engine->SamplesMatchingTime(moft, when);
          }));
      PIET_ASSIGN_OR_RETURN(
          FactTable agg,
          AggregateRegion(s, region, {"Oid"}, piet::olap::AggFunction::kCount,
                          "t"));
      return RegionAndAggregate(std::move(region), std::move(agg));
    };
    return op;
  }
  Op Type7(const std::string& moft) const {
    Op op;
    op.klass = "type7";
    op.moft = moft;
    auto [t0, t1] = HourWindow(0, 2, 2);
    op.window = Interval(TimePoint(t0), TimePoint(t1));
    const TimePredicate when = TimePredicate().Window(*op.window);
    const double income = FewIncome();
    const std::string layer = w->layer;
    op.engine = [moft, layer, income, when](const Services& s)
        -> Result<Output> {
      const GeometryPredicate pred =
          GeometryPredicate::AttributeLess("income", income);
      TraceGeoFilter(s, layer, pred);
      PIET_ASSIGN_OR_RETURN(
          FactTable region, EngineCall(s, "engine.type7", [&] {
            return s.loaded->engine->TrajectoryRegion(moft, layer, pred, when);
          }));
      PIET_ASSIGN_OR_RETURN(
          FactTable agg,
          AggregateRegion(s, region, {"geom"},
                          piet::olap::AggFunction::kCountDistinct, "Oid"));
      return RegionAndAggregate(std::move(region), std::move(agg));
    };
    return op;
  }
  Op NearNodes(const std::string& moft) const {
    Op op;
    op.klass = "near_nodes";
    op.moft = moft;
    auto [t0, t1] = HourWindow(0, 1, 1);
    op.window = Interval(TimePoint(t0), TimePoint(t1));
    const TimePredicate when = TimePredicate().Window(*op.window);
    const double radius = 40.0;
    const std::string nodes = w->city.schools_layer;
    op.engine = [moft, nodes, radius, when](const Services& s)
        -> Result<Output> {
      PIET_ASSIGN_OR_RETURN(FactTable region,
                            EngineCall(s, "engine.near_nodes", [&] {
                              return s.loaded->engine->TrajectoryNearNodes(
                                  moft, nodes, radius, when);
                            }));
      PIET_ASSIGN_OR_RETURN(
          FactTable agg,
          AggregateRegion(s, region, {"node"},
                          piet::olap::AggFunction::kCountDistinct, "Oid"));
      return RegionAndAggregate(std::move(region), std::move(agg));
    };
    return op;
  }
  /// The Sec. 4 query helpers Q2-Q7 (Q1 is objects_in_region above).
  Op Sec4(const std::string& moft, int q) const {
    Op op;
    op.klass = "q" + std::to_string(q);
    op.moft = moft;
    auto [t0, t1] = HourWindow(0, 2, 2);
    op.window = Interval(TimePoint(t0), TimePoint(t1));
    const TimePredicate when = TimePredicate().Window(*op.window);
    const std::string layer = w->layer;
    const std::string streets = w->city.streets_layer;
    const std::string schools = w->city.schools_layer;
    const std::string stops = w->city.stops_layer;
    const double income = LowIncome();
    const Value member(
        "N" +
        std::to_string(rng->UniformInt(0, w->city.num_neighborhoods - 1)));
    const Value stop("B" + std::to_string(rng->UniformInt(
                               0, static_cast<int64_t>(num_stops) - 1)));
    const double radius = static_cast<double>(rng->UniformInt(20, 60));
    const TimePoint instant(t0 + 60.0 * static_cast<double>(
                                         rng->UniformInt(0, 59)));
    const std::string name = op.klass;
    op.engine = [=](const Services& s) -> Result<Output> {
      const auto& engine = *s.loaded->engine;
      const std::string span = "engine." + name;
      Output out;
      switch (q) {
        case 2: {
          PIET_ASSIGN_OR_RETURN(queries::DensityResult r,
                                EngineCall(s, span, [&] {
                                  return queries::MaxStreetDensity(
                                      engine, moft, streets, 5.0, when,
                                      queries::DensityInterpretation::
                                          kPerStreet);
                                }));
          out.values = {r.street, r.instant, Value(r.density)};
          break;
        }
        case 3: {
          const GeometryPredicate pred =
              GeometryPredicate::AttributeLess("income", income);
          TraceGeoFilter(s, layer, pred);
          PIET_ASSIGN_OR_RETURN(int64_t n, EngineCall(s, span, [&] {
                                  return queries::CountObjectsCompletelyWithin(
                                      engine, moft, layer, pred, when, true);
                                }));
          out.values = {Value(n)};
          break;
        }
        case 4: {
          PIET_ASSIGN_OR_RETURN(int64_t n, EngineCall(s, span, [&] {
                                  return queries::SnapshotCountInRegion(
                                      engine, moft, layer, "neighborhood",
                                      member, instant);
                                }));
          out.values = {Value(n)};
          break;
        }
        case 5: {
          PIET_ASSIGN_OR_RETURN(queries::StayResult r, EngineCall(s, span, [&] {
                                  return queries::TimeSpentInRegion(
                                      engine, moft, layer, "neighborhood",
                                      member, when);
                                }));
          out.values = {Value(r.total_seconds),
                        Value(r.longest_stay_seconds), Value(r.visits)};
          break;
        }
        case 6: {
          PIET_ASSIGN_OR_RETURN(queries::PerHourResult r,
                                EngineCall(s, span, [&] {
                                  return queries::CountNearNodesPerHour(
                                      engine, moft, schools, radius, when,
                                      true);
                                }));
          out.values = {Value(r.tuple_count), Value(r.hour_count),
                        Value(r.per_hour)};
          break;
        }
        default: {
          PIET_ASSIGN_OR_RETURN(FactTable r, EngineCall(s, span, [&] {
                                  return queries::WaitingAtStopPerMinute(
                                      engine, moft, stops, "stop", stop,
                                      radius, when);
                                }));
          out.tables.push_back(std::move(r));
          break;
        }
      }
      return out;
    };
    return op;
  }

  size_t num_stops = 0;
  std::vector<double> incomes;  ///< Neighborhood incomes, ascending.
};

std::vector<piet::moving::Sample> ArrivalOrder(const piet::moving::Moft& m) {
  const piet::moving::MoftColumns& cols = m.Columns();
  std::vector<piet::moving::Sample> out;
  out.reserve(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    out.push_back(cols.at(i));
  }
  // A live feed delivers every object's fix for one instant together.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.t.seconds != b.t.seconds ? a.t.seconds < b.t.seconds
                                      : a.oid < b.oid;
  });
  return out;
}

Result<MoftInput> Trajectories(const piet::workload::City& city,
                               const std::string& name, uint64_t seed,
                               size_t objects, int day) {
  piet::workload::TrajectoryConfig config;
  config.seed = seed;
  config.num_objects = static_cast<int>(objects);
  config.start = TimePoint(kDay * day + kStartHour * kHour);
  config.duration = kHours * kHour;
  config.sample_period = 60.0;
  config.speed = 12.0;
  config.model = piet::workload::MovementModel::kCommuter;
  PIET_ASSIGN_OR_RETURN(piet::moving::Moft moft,
                        piet::workload::GenerateTrajectories(city, config));
  return MoftInput{name, ArrivalOrder(moft)};
}

}  // namespace

std::string Modes::ToString() const {
  std::string out = "threads=" + std::to_string(threads);
  out += " check=";
  out += check == piet::analysis::CheckMode::kOff    ? "off"
         : check == piet::analysis::CheckMode::kWarn ? "warn"
                                                     : "strict";
  out += " rewrite=";
  out += rewrite == piet::analysis::rewrite::RewriteMode::kOn ? "on" : "off";
  out += " agg_cache=";
  out += agg_cache == piet::core::aggcache::AggCacheMode::kOn ? "on" : "off";
  out += " estimate=";
  out += estimate == piet::analysis::estimate::EstimateMode::kOn
             ? "on(empty budget)"
             : "off";
  out += " blocks=";
  out += blocks.enabled() ? "block_rows:" + std::to_string(blocks.block_rows) +
                                (blocks.compress ? ",compressed" : ",raw")
                          : "none(raw columns)";
  return out;
}

Modes ReferenceModes() {
  Modes m;
  m.threads = 1;
  m.check = piet::analysis::CheckMode::kOff;
  m.rewrite = piet::analysis::rewrite::RewriteMode::kOff;
  m.agg_cache = piet::core::aggcache::AggCacheMode::kOff;
  m.estimate = piet::analysis::estimate::EstimateMode::kOff;
  m.blocks = piet::moving::BlockOptions{};
  return m;
}

std::string Counts::ToJson() const {
  std::string out = "{";
  auto field = [&](const char* name, long long v) {
    if (out.size() > 1) {
      out += ",";
    }
    out += "\"";
    out += name;
    out += "\":" + std::to_string(v);
  };
  out += "\"answer_digest\":\"" + std::to_string(answer_digest) + "\"";
  field("ops", ops);
  field("rows_returned", rows_returned);
  field("engine_samples_scanned", engine_samples_scanned);
  field("engine_point_tests", engine_point_tests);
  field("engine_legs_tested", engine_legs_tested);
  field("engine_blocks_pinned", engine_blocks_pinned);
  field("engine_blocks_decoded", engine_blocks_decoded);
  field("engine_blocks_skipped", engine_blocks_skipped);
  field("geo_ids", geo_ids);
  field("rewrite_rules", rewrite_rules);
  field("cache_eligible", cache_eligible);
  field("cache_served", cache_served);
  field("cache_fallback_subhour", cache_fallback_subhour);
  field("classify_lookups", classify_lookups);
  field("classify_hits", classify_hits);
  field("store_blocks_decoded", store_blocks_decoded);
  field("store_blocks_skipped", store_blocks_skipped);
  field("store_hot_materializations", store_hot_materializations);
  field("region_rows", region_rows);
  return out + "}";
}

std::vector<Op> MakeOps(const Workload& w, uint64_t query_seed) {
  Random rng(query_seed);
  Templates t{&w, &rng, 0, {}};
  t.num_stops = static_cast<size_t>(
      w.city.db->gis().GetLayer(w.city.stops_layer).ValueOrDie()->size());
  const piet::gis::Layer* nb =
      w.city.db->gis().GetLayer(w.layer).ValueOrDie();
  for (piet::gis::GeometryId id : nb->ids()) {
    t.incomes.push_back(
        nb->GetAttribute(id, "income").ValueOrDie().AsNumeric().ValueOrDie());
  }
  std::sort(t.incomes.begin(), t.incomes.end());
  std::vector<Op> ops;
  if (w.name == "dashboard") {
    const std::string moft = w.mofts.front().name;
    // 48 repeated, hour-aligned aggregates; two per-minute drill-downs
    // (~4%) that the cache refuses; two malformed texts (~4%).
    for (int i = 0; i < 10; ++i) {
      ops.push_back(t.Remark1(moft));
      ops.push_back(t.DistinctHourly(moft, 0));
      ops.push_back(t.CountIncome(moft));
    }
    for (int i = 0; i < 9; ++i) {
      ops.push_back(t.PerHourEngine(moft, 0));
      ops.push_back(t.ObjectsInRegion(moft, 0));
    }
    ops.push_back(t.Drilldown(moft, 0));
    ops.push_back(t.Drilldown(moft, 0));
    ops.push_back(t.Malformed(ops[rng.Uniform(30)].text));
    ops.push_back(t.Malformed(ops[rng.Uniform(30)].text));
    for (size_t i = ops.size() - 1; i > 0; --i) {
      std::swap(ops[i], ops[rng.Uniform(i + 1)]);
    }
  } else if (w.name == "adhoc_scan") {
    // Per-class costs (2 workers, 962k samples): cheap scans 10-40 ms,
    // TrajectoryNearNodes ~45 ms, then PASSES THROUGH (2 h), Type 3 over
    // 2 h with its aggregation and Type 7 (8-10 polygons) at ~90-130 ms
    // each, and the Q3 full-leg scan ~0.25 s. The block sizes put the median
    // in the middle of the TrajectoryNearNodes block (ranks 10-30 of 40) and
    // the 90th percentile inside the PASSES THROUGH / Type 3 / Type 7 block
    // (ranks 31-39), so both percentiles repeat across seeds.
    const std::string moft = w.mofts.front().name;
    for (int i = 0; i < 2; ++i) {
      ops.push_back(t.InsideMinute(moft));
      ops.push_back(t.NearStops(moft));
      ops.push_back(t.Type3(moft));
    }
    for (int q : {2, 4, 5, 6, 7}) {
      ops.push_back(t.Sec4(moft, q));
    }
    for (int i = 0; i < 21; ++i) {
      ops.push_back(t.NearNodes(moft));
    }
    for (int i = 0; i < 3; ++i) {
      ops.push_back(t.PassesThrough(moft));
    }
    for (int i = 0; i < 4; ++i) {
      ops.push_back(t.Type7(moft));
    }
    ops.push_back(t.Sec4(moft, 3));
    for (size_t i = ops.size() - 1; i > 0; --i) {
      std::swap(ops[i], ops[rng.Uniform(i + 1)]);
    }
  } else {
    // ingest_mixed: per day, the Remark-1 query first (the post-write
    // query: AddMoft dropped every cache entry), then the other dashboard
    // templates over that day.
    for (size_t d = 0; d < w.mofts.size(); ++d) {
      const std::string& moft = w.mofts[d].name;
      const int day = static_cast<int>(d);
      ops.push_back(t.Remark1(moft));
      ops.push_back(t.DistinctHourly(moft, day));
      ops.push_back(t.CountIncome(moft));
      ops.push_back(t.PerHourEngine(moft, day));
      ops.push_back(t.ObjectsInRegion(moft, day));
      ops.push_back(t.Remark1(moft));
      ops.push_back(t.Drilldown(moft, day));
    }
  }
  return ops;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name != "dashboard" && name != "adhoc_scan" && name != "ingest_mixed") {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  Workload w;
  w.name = name;
  piet::workload::CityConfig city_config;
  city_config.seed = seed;
  city_config.grid_cols = 16;
  city_config.grid_rows = 16;
  PIET_ASSIGN_OR_RETURN(w.city, piet::workload::GenerateCity(city_config));
  w.layer = w.city.neighborhoods_layer;
  // The generator binds α only for neighborhoods; bind the stops too so
  // Sec. 4 query 7 ("persons waiting at stop <member>") can name one.
  {
    piet::gis::GisDimensionInstance& gis = w.city.db->mutable_gis();
    PIET_ASSIGN_OR_RETURN(const piet::gis::Layer* stops,
                          gis.GetLayer(w.city.stops_layer));
    for (piet::gis::GeometryId id : stops->ids()) {
      PIET_ASSIGN_OR_RETURN(Value stop_name, stops->GetAttribute(id, "name"));
      PIET_RETURN_NOT_OK(gis.BindAlpha("stop", stop_name, id));
    }
  }

  Modes& m = w.modes;
  if (name == "dashboard") {
    m.estimate = piet::analysis::estimate::EstimateMode::kOn;
    w.objects = 1000;
    PIET_ASSIGN_OR_RETURN(MoftInput in,
                          Trajectories(w.city, "cars", seed + 1, w.objects, 0));
    w.mofts.push_back(std::move(in));
    w.warm_classify = w.warm_aggcache = true;
  } else if (name == "adhoc_scan") {
    m.blocks.block_rows = 4096;
    m.blocks.compress = true;
    w.objects = 2000;
    PIET_ASSIGN_OR_RETURN(MoftInput in,
                          Trajectories(w.city, "cars", seed + 1, w.objects, 0));
    w.mofts.push_back(std::move(in));
    w.warm_classify = true;
  } else {
    m.estimate = piet::analysis::estimate::EstimateMode::kOn;
    // One worker: on 48k-sample days the parallel sections (cache rebuilds
    // after each write) last a few ms, and with two workers their speed-up
    // depended on how soon the host woke the second vCPU. On a shared
    // 4-vCPU VM, over five alternating seed pairs, p90 read 6.1-8.9 ms
    // with two workers and 7.2-8.8 ms with one, and queries_per_s 420-571
    // vs 431-476.
    m.threads = 1;
    constexpr int kDays = 8;
    w.objects = 100;
    for (int d = 0; d < kDays; ++d) {
      PIET_ASSIGN_OR_RETURN(
          MoftInput in,
          Trajectories(w.city, "day" + std::to_string(d),
                       seed * 131 + static_cast<uint64_t>(d) + 1, w.objects,
                       d));
      w.mofts.push_back(std::move(in));
    }
    w.preload = 2;
    w.warm_classify = w.warm_aggcache = true;
    w.ops_per_day = 7;
  }
  for (const MoftInput& in : w.mofts) {
    w.samples += in.samples.size();
  }
  w.ops = MakeOps(w, seed ^ 0x5eed5eed5eedULL);
  return w;
}

Result<Loaded> NewDatabase(const piet::workload::City& city,
                           const std::string& layer, const Modes& modes,
                           LoadTimes* times) {
  Loaded l;
  l.db = std::make_unique<piet::core::GeoOlapDatabase>(city.db->gis());
  l.db->set_num_threads(modes.threads);
  const int64_t t0 = NowNs();
  PIET_RETURN_NOT_OK(l.db->BuildOverlay({layer}));
  times->overlay_ns.push_back(NowNs() - t0);
  l.engine = std::make_unique<piet::core::QueryEngine>(l.db.get());
  l.engine->set_num_threads(modes.threads);
  l.engine->set_agg_cache_mode(modes.agg_cache);
  l.evaluator = std::make_unique<piet::core::pietql::Evaluator>(l.db.get());
  l.evaluator->set_num_threads(modes.threads);
  l.evaluator->set_check_mode(modes.check);
  l.evaluator->set_rewrite_mode(modes.rewrite);
  l.evaluator->set_agg_cache_mode(modes.agg_cache);
  l.evaluator->set_estimate_mode(modes.estimate);
  l.evaluator->set_admission_budget(
      piet::analysis::estimate::AdmissionBudget{});
  return l;
}

Status LoadMoft(Loaded* loaded, const MoftInput& input, const Modes& modes,
                LoadTimes* times) {
  const int64_t t0 = NowNs();
  piet::moving::Moft moft;
  moft.SetBlockOptions(modes.blocks);
  for (const piet::moving::Sample& s : input.samples) {
    PIET_RETURN_NOT_OK(moft.Add(s.oid, s.t, s.pos));
  }
  const int64_t t1 = NowNs();
  PIET_RETURN_NOT_OK(loaded->db->AddMoft(input.name, std::move(moft)));
  const int64_t t2 = NowNs();
  PIET_ASSIGN_OR_RETURN(const piet::moving::Moft* stored,
                        loaded->db->GetMoft(input.name));
  (void)stored->Columns();
  const int64_t t3 = NowNs();
  times->add_ns.push_back(t1 - t0);
  times->add_samples.push_back(static_cast<int64_t>(input.samples.size()));
  times->addmoft_ns.push_back(t2 - t1);
  times->seal_ns.push_back(t3 - t2);
  return Status::OK();
}

Status WarmCaches(const Loaded& loaded, const std::string& moft,
                  const std::string& layer, bool classify, bool aggcache,
                  LoadTimes* times) {
  if (classify) {
    const int64_t t0 = NowNs();
    PIET_RETURN_NOT_OK(loaded.db->ClassifySamples(moft, layer).status());
    times->classify_build_ns.push_back(NowNs() - t0);
  }
  if (aggcache) {
    const int64_t t0 = NowNs();
    PIET_RETURN_NOT_OK(loaded.db->AggCache(moft, layer).status());
    times->aggcache_build_ns.push_back(NowNs() - t0);
  }
  return Status::OK();
}

Result<Output> RunOp(const Op& op, const Services& s) {
  Span root(s.tracer, "op:" + op.klass, true);
  if (s.counts != nullptr && !op.hostile) {
    ++s.counts->ops;
    s.counts->cache_eligible += op.cache_eligible ? 1 : 0;
  }
  if (!op.text.empty()) {
    return RunPietQl(op, s);
  }
  if (s.layer_calls) {
    TraceWindow(op, s);
    TraceCacheLookups(op, s);
  }
  return op.engine(s);
}

std::vector<piet::moving::Sample> HostileSamples(uint64_t seed, size_t n) {
  Random rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double bad[] = {nan, inf, -inf};
  std::vector<piet::moving::Sample> out;
  for (size_t i = 0; i < n; ++i) {
    piet::moving::Sample s;
    // Distinct oids, so no sample can be refused as a conflicting
    // duplicate of another: only validation may reject it.
    s.oid = static_cast<piet::moving::ObjectId>(i + 1);
    s.t = TimePoint(rng.UniformDouble(0.0, kDay));
    s.pos = piet::geometry::Point(rng.UniformDouble(0.0, 1600.0),
                                  rng.UniformDouble(0.0, 1600.0));
    const double v = bad[rng.Uniform(3)];
    switch (rng.Uniform(3)) {
      case 0:
        s.t = TimePoint(v);
        break;
      case 1:
        s.pos.x = v;
        break;
      default:
        s.pos.y = v;
        break;
    }
    out.push_back(s);
  }
  return out;
}

}  // namespace bench_e2e
