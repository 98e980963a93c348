#include "core/scan.h"

#include "obs/metrics.h"

namespace piet::core::scan {

std::vector<batch::PolygonBatcher> PolygonSet::Batchers() const {
  std::vector<batch::PolygonBatcher> out;
  out.reserve(polys.size());
  for (const geometry::Polygon* p : polys) {
    out.emplace_back(p);
  }
  return out;
}

PolygonSet MakePolygonSet(const gis::Layer& layer,
                           std::vector<gis::GeometryId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  PolygonSet out;
  out.layer = &layer;
  out.wanted.assign(layer.size(), 0);
  for (gis::GeometryId id : ids) {
    auto pg = layer.GetPolygon(id);
    if (pg.ok()) {
      out.ids.push_back(id);
      out.polys.push_back(pg.ValueOrDie());
      out.wanted[static_cast<size_t>(id)] = 1;
      out.bounds.ExtendWith(pg.ValueOrDie()->Bounds());
    }
  }
  return out;
}

Result<std::optional<ObjectTrajectory>> MakeTrajectory(
    const moving::MoftColumns& data, const moving::MoftColumns::Span& span,
    const TimePredicate* when, const temporal::TimeDimension& dim) {
  moving::MoftColumns::Span rows = span;
  temporal::IntervalSet time_ok;
  if (when != nullptr && span.begin < span.end) {
    const temporal::Interval domain(temporal::TimePoint(data.t[span.begin]),
                                    temporal::TimePoint(data.t[span.end - 1]));
    if (when->unconstrained()) {
      time_ok = temporal::IntervalSet({domain});
    } else {
      PIET_ASSIGN_OR_RETURN(time_ok, when->MatchingIntervals(dim, domain));
    }
    if (time_ok.empty()) {
      return std::optional<ObjectTrajectory>();
    }
    // time_ok lies inside the domain, so the first row at or after the
    // hull's start and the first row after its end bracket the kept legs:
    // leg k stays iff t_{k+1} >= hull.begin and t_k <= hull.end.
    const double* t = data.t.data();
    const size_t first = static_cast<size_t>(
        std::lower_bound(t + span.begin, t + span.end,
                         time_ok.intervals().front().begin.seconds) -
        t);
    const size_t past = static_cast<size_t>(
        std::upper_bound(t + first, t + span.end,
                         time_ok.intervals().back().end.seconds) -
        t);
    rows.begin = std::max(span.begin + 1, first) - 1;
    rows.end = std::min(span.end, past + 1);
  }
  PIET_ASSIGN_OR_RETURN(
      moving::TrajectorySample sample,
      moving::TrajectorySample::FromSpan(moving::ObjectSpan(&data, rows)));
  PIET_ASSIGN_OR_RETURN(
      moving::LinearTrajectory traj,
      moving::LinearTrajectory::FromSample(std::move(sample)));
  return std::optional<ObjectTrajectory>(
      ObjectTrajectory{&data, rows, std::move(traj), std::move(time_ok)});
}

RowSource RowSource::ForTime(const moving::Moft& moft,
                             const TimePredicate& when, RowSource scan,
                             moving::BlockIoStats* io) {
  if (when.window_only()) {
    scan.window_ =
        moft.SamplesBetween(when.window()->begin, when.window()->end, io);
  }
  return scan;
}

Result<ProximityProbe> ProximityProbe::Make(const gis::Layer* layer,
                                            double radius, bool lines,
                                            const char* error) {
  const gis::GeometryKind kind = layer->kind();
  const bool ok = lines ? kind == gis::GeometryKind::kPolyline ||
                              kind == gis::GeometryKind::kLine
                        : kind == gis::GeometryKind::kNode ||
                              kind == gis::GeometryKind::kPoint;
  if (!ok) {
    return Status::InvalidArgument(error);
  }
  layer->WarmIndex();
  return ProximityProbe(layer, radius, lines);
}

CacheServe::CacheServe(const GeoOlapDatabase* db, aggcache::AggCacheMode mode,
                       const std::string& moft, const std::string& layer,
                       std::string_view subhour_level, EngineStats* stats)
    : db_(db), stats_(stats) {
  if (stats_ != nullptr) {
    *stats_ = EngineStats{};
  }
  if (mode != aggcache::AggCacheMode::kOn || db_ == nullptr ||
      !db_->HasOverlay() || !db_->OverlayLayerIndex(layer).ok()) {
    return;
  }
  if (!subhour_level.empty()) {
    subhour_fallback_ = subhour_level;
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("pietql.aggcache.fallback_subhour")
          .Add(1);
    }
    return;
  }
  auto entry = db_->AggCache(moft, layer);
  if (entry.ok()) {
    entry_ = entry.ValueOrDie();
  }
}

std::optional<aggcache::RegionAggregate> CacheServe::RegionAggregates(
    const PolygonSet& polys, const TimePredicate& when) {
  if (!open()) {
    return std::nullopt;
  }
  auto served =
      entry_->RegionAggregates(polys.wanted, when, db_->time_dimension());
  if (served) {
    Served(served->stats);
  }
  return served;
}

std::optional<std::vector<moving::ObjectId>> CacheServe::ObjectsAlwaysWithin(
    const PolygonSet& polys, const TimePredicate& when) {
  if (!open()) {
    return std::nullopt;
  }
  auto served =
      entry_->ObjectsAlwaysWithin(polys.wanted, when, db_->time_dimension());
  if (!served) {
    return std::nullopt;
  }
  Served(served->stats);
  return std::move(served->oids);
}

void CacheServe::Served(const aggcache::AggServeStats& st) {
  if (stats_ != nullptr) {
    stats_->samples_scanned = st.rows_refined + st.fringe_rows;
    stats_->point_tests = st.point_tests;
  }
  if (!obs::Enabled()) {
    return;
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("pietql.aggcache.served").Add(1);
  registry.GetCounter("pietql.aggcache.cells_interior")
      .Add(static_cast<int64_t>(st.interior_cells));
  registry.GetCounter("pietql.aggcache.cells_boundary")
      .Add(static_cast<int64_t>(st.boundary_cells));
  registry.GetCounter("pietql.aggcache.cells_skipped")
      .Add(static_cast<int64_t>(st.skipped_cells));
  registry.GetCounter("pietql.aggcache.groups_from_partials")
      .Add(static_cast<int64_t>(st.groups_from_partials));
  registry.GetCounter("pietql.aggcache.rows_refined")
      .Add(static_cast<int64_t>(st.rows_refined));
  registry.GetCounter("pietql.aggcache.fringe_rows")
      .Add(static_cast<int64_t>(st.fringe_rows));
}

}  // namespace piet::core::scan
