#include "core/engine.h"

#include <chrono>

#include "core/scan.h"
#include "moving/bead.h"
#include "moving/traj_ops.h"
#include "obs/metrics.h"

namespace piet::core {

using gis::GeometryId;
using gis::Layer;
using moving::Moft;
using moving::MoftColumns;
using moving::ObjectId;
using moving::Sample;
using olap::FactTable;
using olap::Row;
using scan::ObjectTrajectory;
using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimePoint;

std::string_view StrategyToString(Strategy s) {
  switch (s) {
    case Strategy::kNaive:
      return "naive";
    case Strategy::kIndexed:
      return "indexed";
    case Strategy::kOverlay:
      return "overlay";
  }
  return "unknown";
}

namespace {

/// The preamble of every polygon-layer method: `layer_name` must name a
/// polygon layer; resolves its `pred`-qualifying polygons.
Result<scan::PolygonSet> QualifyingPolygons(const QueryEngine& engine,
                                            const std::string& layer_name,
                                            const GeometryPredicate& pred,
                                            const char* method) {
  PIET_ASSIGN_OR_RETURN(const Layer* layer,
                        engine.db().gis().GetLayer(layer_name));
  if (layer->kind() != gis::GeometryKind::kPolygon) {
    return Status::InvalidArgument(std::string(method) +
                                   " needs a polygon layer");
  }
  PIET_ASSIGN_OR_RETURN(std::vector<GeometryId> ids,
                        engine.QualifyingGeometries(layer_name, pred));
  return scan::MakePolygonSet(*layer, std::move(ids));
}

/// Flushes one engine call's work counters and latency to the registry on
/// destruction. The enabled check happens once at construction, so a
/// disabled query pays one branch — the per-row loops never touch the
/// registry (they accumulate into chunk-local EngineStats regardless).
class QueryObs {
 public:
  /// Resets `*stats`: the counters cover this call only.
  QueryObs(const char* type, EngineStats* stats)
      : enabled_(obs::Enabled()), type_(type), stats_(stats) {
    *stats = EngineStats{};
    if (enabled_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  QueryObs(const QueryObs&) = delete;
  QueryObs& operator=(const QueryObs&) = delete;

  void set_rows_matched(size_t n) { rows_matched_ = n; }

  ~QueryObs() {
    if (!enabled_) {
      return;
    }
    int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetHistogram(std::string("engine.query.") + type_ + ".latency")
        .RecordNanos(ns);
    registry.GetCounter("engine.queries").Add(1);
    registry.GetCounter("engine.rows_scanned")
        .Add(static_cast<int64_t>(stats_->samples_scanned));
    registry.GetCounter("engine.point_tests")
        .Add(static_cast<int64_t>(stats_->point_tests));
    registry.GetCounter("engine.legs_tested")
        .Add(static_cast<int64_t>(stats_->legs_tested));
    registry.GetCounter("engine.rows_matched")
        .Add(static_cast<int64_t>(rows_matched_));
    registry.GetCounter("engine.blocks_pinned")
        .Add(static_cast<int64_t>(stats_->blocks.blocks_pinned));
    registry.GetCounter("engine.blocks_decoded")
        .Add(static_cast<int64_t>(stats_->blocks.blocks_decoded));
    registry.GetCounter("engine.blocks_skipped")
        .Add(static_cast<int64_t>(stats_->blocks.blocks_skipped));
  }

 private:
  bool enabled_;
  const char* type_;
  const EngineStats* stats_;
  size_t rows_matched_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

Result<std::vector<GeometryId>> QueryEngine::QualifyingGeometries(
    const std::string& layer_name, const GeometryPredicate& pred) const {
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  std::vector<GeometryId> out;
  // Stays serial: predicates may memoize internally (WithinDistanceOfLayer,
  // DensityMassGreater) and are not synchronized.
  for (GeometryId id : layer->ids()) {
    if (pred(*layer, id)) {
      out.push_back(id);
    }
  }
  return out;
}

Result<olap::FactTable> QueryEngine::SamplesMatchingTime(
    const std::string& moft_name, const TimePredicate& when) const {
  QueryObs query_obs("samples_matching_time", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  const int threads = parallel::ResolveThreads(num_threads_);
  FactTable out = FactTable::Make({"Oid", "t", "x", "y"}, {});
  // A pure window reads the SamplesBetween ranges: one binary search per
  // object instead of a per-row time test, rows still in (oid, t) order.
  const scan::RowSource rows = scan::RowSource::ForTime(
      *moft, when,
      scan::RowSource(moft->Blocks(), moving::ZoneFilter{when.window(), {}}),
      &stats_.blocks);
  PIET_RETURN_NOT_OK(scan::TimeRows(
      threads, rows, when, db_->time_dimension(), &out, &stats_,
      [](const MoftColumns& cols, size_t i, std::vector<Row>* out_rows,
         EngineStats*) {
        out_rows->push_back({Value(cols.oid[i]), Value(cols.t[i]),
                             Value(cols.x[i]), Value(cols.y[i])});
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
}

Result<FactTable> QueryEngine::SampleRegion(const std::string& moft_name,
                                            const std::string& layer_name,
                                            const GeometryPredicate& pred,
                                            const TimePredicate& when,
                                            Strategy strategy) const {
  QueryObs query_obs("sample_region", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(
      const scan::PolygonSet polys,
      QualifyingPolygons(*this, layer_name, pred, "SampleRegion"));
  const int threads = parallel::ResolveThreads(num_threads_);
  const temporal::TimeDimension& dim = db_->time_dimension();
  FactTable out = FactTable::Make({"Oid", "t", "geom"}, {});

  // Every (sample, qualifying polygon) containment is a row.
  auto emit = [](ObjectId oid, double t, GeometryId g,
                 std::vector<Row>* rows) {
    rows->push_back({Value(oid), Value(t), Value(g)});
    return true;
  };
  if (strategy == Strategy::kOverlay) {
    // The Sec. 5 fast path: the (MOFT, overlay-layer) classification is
    // predicate- and time-independent, so it is computed once (batched
    // across the pool) and served from the database cache on every
    // subsequent query over the same MOFT.
    PIET_RETURN_NOT_OK(db_->overlay().status());
    PIET_RETURN_NOT_OK(db_->OverlayLayerIndex(layer_name).status());
    PIET_ASSIGN_OR_RETURN(
        std::shared_ptr<const SampleClassification> cls,
        db_->ClassifySamples(moft_name, layer_name));
    PIET_RETURN_NOT_OK(scan::SampleLocate(
        threads,
        scan::RowSource(moving::TableBlocks(cls->samples.columns(), nullptr),
                        moving::ZoneFilter()),
        when, dim, polys, cls.get(), &out, &stats_, emit));
    query_obs.set_rows_matched(out.num_rows());
    return out;
  }

  // The zonemap filter holds the time window (rows outside it never match)
  // and the union of the qualifying polygons' bounds (only rows inside one
  // produce output); with no qualifying polygon that box is empty and
  // every block is skipped, unscanned and uncounted.
  const scan::RowSource rows(moft->Blocks(),
                             moving::ZoneFilter{when.window(), polys.bounds});
  if (strategy == Strategy::kNaive) {
    // Batch point-in-polygon; point_tests counts the logical
    // sample-times-polygon probes of the scalar loop (no early exit).
    PIET_RETURN_NOT_OK(scan::SampleLocate(threads, rows, when, dim, polys,
                                          nullptr, &out, &stats_, emit));
  } else {
    // Indexed: per-layer R-tree point queries, filtered by the bitmap.
    polys.layer->WarmIndex();
    PIET_RETURN_NOT_OK(scan::TimeRows(
        threads, rows, when, dim, &out, &stats_,
        [&](const MoftColumns& data, size_t i, std::vector<Row>* out_rows,
            EngineStats* stats) {
          for (GeometryId g : polys.layer->GeometriesContaining(
                   geometry::Point(data.x[i], data.y[i]))) {
            ++stats->point_tests;  // GeometriesContaining did the test.
            if (polys.contains(g)) {
              emit(data.oid[i], data.t[i], g, out_rows);
            }
          }
        }));
  }
  query_obs.set_rows_matched(out.num_rows());
  return out;
}

Result<FactTable> QueryEngine::SamplesOnPolylines(
    const std::string& moft_name, const std::string& layer_name,
    double tolerance, const TimePredicate& when) const {
  return SamplesNear(moft_name, layer_name, tolerance, /*lines=*/true, when);
}

Result<FactTable> QueryEngine::SamplesNearNodes(
    const std::string& moft_name, const std::string& layer_name, double radius,
    const TimePredicate& when) const {
  return SamplesNear(moft_name, layer_name, radius, /*lines=*/false, when);
}

Result<FactTable> QueryEngine::SamplesNear(const std::string& moft_name,
                                           const std::string& layer_name,
                                           double radius, bool lines,
                                           const TimePredicate& when) const {
  QueryObs query_obs(lines ? "samples_on_polylines" : "samples_near_nodes",
                     &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  const char* error = lines ? "SamplesOnPolylines needs a line layer"
                            : "SamplesNearNodes needs a node layer";
  PIET_ASSIGN_OR_RETURN(
      const scan::ProximityProbe probe,
      scan::ProximityProbe::Make(layer, radius, lines, error));
  FactTable out = FactTable::Make({"Oid", "t", lines ? "geom" : "node"}, {});
  PIET_RETURN_NOT_OK(scan::SampleProximity(
      parallel::ResolveThreads(num_threads_),
      scan::RowSource(moft->Blocks(), moving::ZoneFilter{when.window(), {}}),
      when, db_->time_dimension(), probe, &out, &stats_,
      [](ObjectId oid, double t, GeometryId id, std::vector<Row>* rows) {
        rows->push_back({Value(oid), Value(t), Value(id)});
        return true;
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
}

Result<FactTable> QueryEngine::SnapshotInRegion(const std::string& moft_name,
                                                const std::string& layer_name,
                                                const GeometryPredicate& pred,
                                                TimePoint t) const {
  QueryObs query_obs("snapshot_in_region", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(
      const scan::PolygonSet polys,
      QualifyingPolygons(*this, layer_name, pred, "SnapshotInRegion"));
  // Objects never split across blocks and the LIT stays inside the convex
  // hull of its samples, so a block whose time zonemap misses `t` or whose
  // bbox misses every qualifying polygon contributes nothing.
  const moving::ZoneFilter filter{Interval(t, t), polys.bounds};

  FactTable out = FactTable::Make({"Oid", "x", "y", "geom"}, {});
  PIET_RETURN_NOT_OK(scan::CollectTrajectories(
      parallel::ResolveThreads(num_threads_), moft->Blocks(), filter,
      nullptr, db_->time_dimension(), &out, &stats_,
      [&](const ObjectTrajectory& obj, std::vector<Row>* rows,
          EngineStats* stats) -> Status {
        std::optional<geometry::Point> pos = obj.traj.PositionAt(t);
        if (!pos) {
          return Status::OK();
        }
        ++stats->samples_scanned;
        for (size_t qi = 0; qi < polys.ids.size(); ++qi) {
          ++stats->point_tests;
          if (polys.polys[qi]->Contains(*pos)) {
            rows->push_back({Value(obj.oid()), Value(pos->x), Value(pos->y),
                             Value(polys.ids[qi])});
          }
        }
        return Status::OK();
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
}

Result<FactTable> QueryEngine::TrajectoryRegion(const std::string& moft_name,
                                                const std::string& layer_name,
                                                const GeometryPredicate& pred,
                                                const TimePredicate& when) const {
  QueryObs query_obs("trajectory_region", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(
      const scan::PolygonSet polys,
      QualifyingPolygons(*this, layer_name, pred, "TrajectoryRegion"));
  // The LIT never leaves the convex hull of the block's samples, so a
  // block whose bbox misses every qualifying polygon yields no
  // inside-intervals for any of its objects.
  FactTable out = FactTable::Make({"Oid", "geom", "enter", "leave"}, {});
  PIET_RETURN_NOT_OK(scan::LegCross(
      parallel::ResolveThreads(num_threads_), moft->Blocks(),
      moving::ZoneFilter{when.window(), polys.bounds}, when,
      db_->time_dimension(), polys, &out, &stats_,
      [](const ObjectTrajectory& obj, GeometryId id, const Interval& iv,
         std::vector<Row>* rows) {
        rows->push_back({Value(obj.oid()), Value(id), Value(iv.begin.seconds),
                         Value(iv.end.seconds)});
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
}

Result<FactTable> QueryEngine::TrajectoryNearNodes(
    const std::string& moft_name, const std::string& layer_name, double radius,
    const TimePredicate& when) const {
  QueryObs query_obs("trajectory_near_nodes", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  PIET_ASSIGN_OR_RETURN(
      const scan::ProximityProbe probe,
      scan::ProximityProbe::Make(layer, radius, /*lines=*/false,
                                 "TrajectoryNearNodes needs a node layer"));

  FactTable out = FactTable::Make({"Oid", "node", "enter", "leave"}, {});
  PIET_RETURN_NOT_OK(scan::CollectTrajectories(
      parallel::ResolveThreads(num_threads_), moft->Blocks(),
      moving::ZoneFilter{when.window(), {}}, &when, db_->time_dimension(),
      &out, &stats_,
      [&](const ObjectTrajectory& obj, std::vector<Row>* rows,
          EngineStats* stats) -> Status {
        stats->legs_tested += obj.legs();
        // Candidate nodes: those within radius of the bounds of the legs
        // the window clip kept.
        geometry::BoundingBox bounds;
        for (const moving::TimedPoint& tp : obj.traj.sample().points()) {
          bounds.ExtendWith(tp.pos);
        }
        for (GeometryId id : layer->CandidatesInBox(probe.Grow(bounds))) {
          auto node = layer->GetPoint(id);
          if (!node.ok()) {
            continue;
          }
          ++stats->point_tests;
          const IntervalSet matched =
              moving::WithinDistanceIntervals(obj.traj, node.ValueOrDie(),
                                              radius)
                  .Intersect(obj.time_ok);
          for (const Interval& iv : matched.intervals()) {
            rows->push_back({Value(obj.oid()), Value(id),
                             Value(iv.begin.seconds), Value(iv.end.seconds)});
          }
        }
        return Status::OK();
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
}

Result<FactTable> QueryEngine::TrajectoryAggregates(
    const std::string& moft_name, const std::string& layer_name,
    const GeometryPredicate& pred) const {
  QueryObs query_obs("trajectory_aggregates", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(
      const scan::PolygonSet polys,
      QualifyingPolygons(*this, layer_name, pred, "TrajectoryAggregates"));
  const moving::ZoneFilter filter{{}, polys.bounds};

  FactTable out = FactTable::Make({"Oid", "geom"},
                                  {"distance", "seconds", "visits"});
  PIET_RETURN_NOT_OK(scan::CollectTrajectories(
      parallel::ResolveThreads(num_threads_), moft->Blocks(), filter,
      nullptr, db_->time_dimension(), &out, &stats_,
      [&](const ObjectTrajectory& obj, std::vector<Row>* rows,
          EngineStats* stats) -> Status {
        stats->legs_tested += obj.legs();
        for (size_t qi = 0; qi < polys.ids.size(); ++qi) {
          IntervalSet inside =
              moving::InsideIntervals(obj.traj, *polys.polys[qi]);
          if (inside.empty()) {
            continue;
          }
          double distance =
              moving::DistanceTravelledInside(obj.traj, *polys.polys[qi]);
          rows->push_back({Value(obj.oid()), Value(polys.ids[qi]),
                           Value(distance), Value(inside.TotalLength()),
                           Value(static_cast<int64_t>(inside.size()))});
        }
        return Status::OK();
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
}

Result<std::vector<ObjectId>> QueryEngine::ObjectsPossiblyWithin(
    const std::string& moft_name, const std::string& layer_name,
    const GeometryPredicate& pred, double vmax) const {
  QueryObs query_obs("objects_possibly_within", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(
      const scan::PolygonSet polys,
      QualifyingPolygons(*this, layer_name, pred, "ObjectsPossiblyWithin"));
  // No zonemap filter: lifeline beads under vmax can reach outside the
  // block's sample bbox, so a bbox miss proves nothing here.
  std::vector<ObjectId> out;
  PIET_RETURN_NOT_OK(scan::CollectTrajectories(
      parallel::ResolveThreads(num_threads_), moft->Blocks(),
      moving::ZoneFilter(), nullptr, db_->time_dimension(), &out, &stats_,
      [&](const ObjectTrajectory& obj, std::vector<ObjectId>* ids,
          EngineStats* stats) -> Status {
        stats->legs_tested += obj.legs();
        for (const geometry::Polygon* pg : polys.polys) {
          PIET_ASSIGN_OR_RETURN(
              bool hit,
              moving::PossiblyPassesThrough(obj.traj.sample(), vmax, *pg));
          if (hit) {
            ids->push_back(obj.oid());
            break;
          }
        }
        return Status::OK();
      }));
  query_obs.set_rows_matched(out.size());
  return out;
}

Result<std::vector<ObjectId>> QueryEngine::ObjectsAlwaysWithin(
    const std::string& moft_name, const std::string& layer_name,
    const GeometryPredicate& pred, const TimePredicate& when,
    bool trajectory_semantics) const {
  QueryObs query_obs("objects_always_within", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(
      const scan::PolygonSet polys,
      QualifyingPolygons(*this, layer_name, pred, "ObjectsAlwaysWithin"));
  const int threads = parallel::ResolveThreads(num_threads_);
  const temporal::TimeDimension& dim = db_->time_dimension();
  const moving::TableBlocks blocks = moft->Blocks();
  // Time-window skip only: an object whose block misses the window has no
  // matching instant, so it is excluded either way. A bbox miss would also
  // exclude it, but the window is the conservative, obviously-safe choice.
  const moving::ZoneFilter filter{when.window(), {}};
  std::vector<ObjectId> out;
  if (trajectory_semantics) {
    // The union of inside intervals over all qualifying polygons must
    // cover every time-matching instant of the domain.
    PIET_RETURN_NOT_OK(scan::CollectTrajectories(
        threads, blocks, filter, &when, dim, &out, &stats_,
        [&](const ObjectTrajectory& obj, std::vector<ObjectId>* ids,
            EngineStats* stats) -> Status {
          stats->legs_tested += obj.legs();
          IntervalSet inside_union;
          for (const geometry::Polygon* pg : polys.polys) {
            inside_union =
                inside_union.Union(moving::InsideIntervals(obj.traj, *pg));
          }
          const IntervalSet covered = obj.time_ok.Intersect(inside_union);
          if (covered.TotalLength() >= obj.time_ok.TotalLength() - 1e-9 &&
              covered.size() == obj.time_ok.size()) {
            ids->push_back(obj.oid());
          }
          return Status::OK();
        }));
  } else {
    PIET_RETURN_NOT_OK(scan::Collect(
        threads, blocks.total_spans(), &out, &stats_,
        [&](size_t begin, size_t end, std::vector<ObjectId>* ids,
            EngineStats* stats) -> Status {
          return blocks.ForEachSpan(
              begin, end, filter, &stats->blocks,
              [&](const MoftColumns& data,
                  const MoftColumns::Span& sp) -> Status {
                bool any = false;
                for (const Sample& s : moving::ObjectSpan(&data, sp)) {
                  ++stats->samples_scanned;
                  if (!when.Matches(dim, s.t)) {
                    continue;
                  }
                  any = true;
                  bool inside = false;
                  for (const geometry::Polygon* pg : polys.polys) {
                    ++stats->point_tests;
                    if (pg->Contains(s.pos)) {
                      inside = true;
                      break;
                    }
                  }
                  if (!inside) {
                    return Status::OK();
                  }
                }
                if (any) {
                  ids->push_back(sp.oid);
                }
                return Status::OK();
              });
        }));
  }
  query_obs.set_rows_matched(out.size());
  return out;
}

std::optional<aggcache::RegionAggregate> QueryEngine::CachedRegionAggregate(
    const std::string& moft, const std::string& layer,
    const GeometryPredicate& pred, const TimePredicate& when) const {
  scan::CacheServe cache(db_, agg_cache_mode_, moft, layer,
                         when.sub_hour_rollup_level(), &stats_);
  if (!cache.open()) {
    return std::nullopt;
  }
  auto polys = QualifyingPolygons(*this, layer, pred, "CachedRegionAggregate");
  if (!polys.ok()) {
    return std::nullopt;
  }
  return cache.RegionAggregates(polys.ValueOrDie(), when);
}

std::optional<std::vector<moving::ObjectId>>
QueryEngine::CachedObjectsAlwaysWithin(const std::string& moft,
                                       const std::string& layer,
                                       const GeometryPredicate& pred,
                                       const TimePredicate& when) const {
  scan::CacheServe cache(db_, agg_cache_mode_, moft, layer,
                         when.sub_hour_rollup_level(), &stats_);
  if (!cache.open()) {
    return std::nullopt;
  }
  auto polys =
      QualifyingPolygons(*this, layer, pred, "CachedObjectsAlwaysWithin");
  if (!polys.ok()) {
    return std::nullopt;
  }
  return cache.ObjectsAlwaysWithin(polys.ValueOrDie(), when);
}

}  // namespace piet::core
