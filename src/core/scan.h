#ifndef PIET_CORE_SCAN_H_
#define PIET_CORE_SCAN_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "core/aggcache/agg_cache.h"
#include "core/database.h"
#include "core/engine.h"
#include "core/geometry/batch.h"
#include "core/region.h"
#include "moving/block_store.h"
#include "moving/moft.h"
#include "moving/traj_ops.h"
#include "moving/trajectory.h"
#include "olap/fact_table.h"

/// The scan operators of the Sec. 5 pipeline (qualifying geometry ids →
/// region C) shared by QueryEngine and the Piet-QL evaluator. Each front-end
/// keeps its own storage access (the engine walks blocks under a
/// ZoneFilter, the evaluator reads the hot columns) and its own output
/// rows; the loop skeletons (1-5) and the region-C operators (6-10), which
/// choose every kernel, live here. Emit callbacks are template parameters,
/// so per-row work stays inlined.
namespace piet::core::scan {

/// 1. The qualifying polygons of one polygon layer, resolved once before
/// any fan-out: ids ascending and distinct, polygons index-aligned, a dense
/// membership bitmap by geometry id, and the union of their bounds (empty
/// when nothing qualifies).
struct PolygonSet {
  const gis::Layer* layer = nullptr;
  std::vector<gis::GeometryId> ids;
  std::vector<const geometry::Polygon*> polys;
  std::vector<uint8_t> wanted;
  geometry::BoundingBox bounds;

  bool contains(gis::GeometryId id) const {
    return wanted[static_cast<size_t>(id)] != 0;
  }
  /// One batch point-in-polygon kernel per polygon, in `ids` order.
  std::vector<batch::PolygonBatcher> Batchers() const;
};

/// Resolves `ids` (any order, duplicates allowed) against `layer`; ids
/// whose polygon cannot be resolved are dropped.
PolygonSet MakePolygonSet(const gis::Layer& layer,
                           std::vector<gis::GeometryId> ids);

/// The per-chunk rows a sink collects: std::vector<Row> for a FactTable,
/// the sink's own type for a std::vector<T>.
template <typename Sink>
using ChunkRows = std::conditional_t<std::is_same_v<Sink, olap::FactTable>,
                                     std::vector<olap::Row>, Sink>;

/// 2. The ordered-chunk collector. Runs body(begin, end, &rows, &stats) ->
/// Status over the deterministic chunking of [0, n) on `threads` workers,
/// then, in chunk order: adds every chunk's stats to `*stats` (when
/// non-null) and appends its rows to `out` until the first failing chunk,
/// whose Status is returned. Output, stats and error are those of the
/// serial loop for any thread count.
template <typename Sink, typename Body>
Status Collect(int threads, size_t n, Sink* out, EngineStats* stats,
               const Body& body) {
  struct Chunk {
    ChunkRows<Sink> rows;
    EngineStats stats;
    Status status;
  };
  Status failed;
  parallel::OrderedReduce<Chunk>(
      threads, n,
      [&](size_t /*chunk*/, size_t begin, size_t end, Chunk* chunk) {
        chunk->status = body(begin, end, &chunk->rows, &chunk->stats);
      },
      [&](Chunk&& chunk) {
        if (stats != nullptr) {
          *stats += chunk.stats;
        }
        if (!failed.ok()) {
          return;
        }
        failed = chunk.status;
        if constexpr (std::is_same_v<Sink, olap::FactTable>) {
          for (size_t i = 0; failed.ok() && i < chunk.rows.size(); ++i) {
            failed = out->Append(std::move(chunk.rows[i]));
          }
        } else if (failed.ok()) {
          out->insert(out->end(), chunk.rows.begin(), chunk.rows.end());
        }
      });
  return failed;
}

/// 3. One object's linear-interpolation trajectory (LIT) and its span.
struct ObjectTrajectory {
  /// The columns `span` indexes.
  const moving::MoftColumns* data = nullptr;
  /// The rows the LIT was built from: the whole object span, or with a
  /// time predicate only the legs that can meet `time_ok`.
  moving::MoftColumns::Span span;
  moving::LinearTrajectory traj;
  /// The time-matching part of the object's whole time domain; computed
  /// only when the visitor was given a time predicate.
  temporal::IntervalSet time_ok;

  moving::ObjectId oid() const { return span.oid; }
  /// Interpolation legs of `traj` (samples - 1).
  size_t legs() const { return span.end - span.begin - 1; }
};

/// Builds the LIT of one span. With a time predicate `when`, first
/// computes its time-matching intervals over the span's domain
/// [t_first, t_last] and returns nullopt when they are empty; otherwise
/// the LIT covers only the legs whose closed interval [t_k, t_{k+1}]
/// meets the closed hull [time_ok.front().begin, time_ok.back().end]
/// (two binary searches on the time column). Every other leg yields only
/// pieces outside that hull, so any kernel result intersected with
/// `time_ok` is the one the whole LIT gives (DESIGN.md §8).
Result<std::optional<ObjectTrajectory>> MakeTrajectory(
    const moving::MoftColumns& data, const moving::MoftColumns::Span& span,
    const TimePredicate* when, const temporal::TimeDimension& dim);

/// The per-object trajectory visitor, fanned out like Collect over every
/// object span of `blocks`: for each span whose block `filter` admits,
/// builds the (window-clipped) LIT and calls visit(obj, &rows, &stats) ->
/// Status, skipping objects with no time-matching instant when `when` is
/// non-null. Block I/O is counted into the chunk stats; the first failure
/// stops the chunk.
template <typename Sink, typename Visit>
Status CollectTrajectories(int threads, const moving::TableBlocks& blocks,
                           const moving::ZoneFilter& filter,
                           const TimePredicate* when,
                           const temporal::TimeDimension& dim, Sink* out,
                           EngineStats* stats, const Visit& visit) {
  return Collect(
      threads, blocks.total_spans(), out, stats,
      [&](size_t begin, size_t end, ChunkRows<Sink>* rows,
          EngineStats* chunk_stats) -> Status {
        return blocks.ForEachSpan(
            begin, end, filter, &chunk_stats->blocks,
            [&](const moving::MoftColumns& data,
                const moving::MoftColumns::Span& span) -> Status {
              PIET_ASSIGN_OR_RETURN(std::optional<ObjectTrajectory> obj,
                                    MakeTrajectory(data, span, when, dim));
              return obj ? visit(*obj, rows, chunk_stats) : Status::OK();
            });
      });
}

/// 4. The point/line proximity probe over a node or line layer: R-tree
/// candidates of the radius box, then the exact distance test.
class ProximityProbe {
 public:
  /// Fails with InvalidArgument(`error`) unless `layer` is a line/polyline
  /// layer (`lines`) or a node/point layer (otherwise); warms its index.
  static Result<ProximityProbe> Make(const gis::Layer* layer, double radius,
                                     bool lines, const char* error);

  /// `box` grown by the radius on every side.
  geometry::BoundingBox Grow(const geometry::BoundingBox& box) const {
    return geometry::BoundingBox(box.min_x - radius_, box.min_y - radius_,
                                 box.max_x + radius_, box.max_y + radius_);
  }

  /// Calls fn(id) -> bool for each geometry within the radius of `p`, in
  /// candidate order, until fn returns false. Counts every exact distance
  /// test into `*tests`.
  template <typename Fn>
  void ForEachNear(geometry::Point p, size_t* tests, const Fn& fn) const {
    for (gis::GeometryId id :
         layer_->CandidatesInBox(Grow(geometry::BoundingBox(p.x, p.y, p.x,
                                                            p.y)))) {
      double d = 0.0;
      if (lines_) {
        auto line = layer_->GetPolyline(id);
        if (!line.ok()) {
          continue;
        }
        d = line.ValueOrDie()->DistanceTo(p);
      } else {
        auto node = layer_->GetPoint(id);
        if (!node.ok()) {
          continue;
        }
        d = Distance(node.ValueOrDie(), p);
      }
      ++*tests;
      if (d <= radius_ && !fn(id)) {
        return;
      }
    }
  }

 private:
  ProximityProbe(const gis::Layer* layer, double radius, bool lines)
      : layer_(layer), radius_(radius), lines_(lines) {}

  const gis::Layer* layer_;
  double radius_;
  bool lines_;
};

/// 5. The aggregate-cache serve gate. Resets `*stats` (when non-null) to
/// cover this call only, and opens when `mode` is on, the overlay covers
/// `layer` and the cache entry builds. A sub-hour `subhour_level` keeps it
/// closed, since hour-bucket partials cannot decide it; that refusal is
/// counted (pietql.aggcache.fallback_subhour) and named by
/// subhour_fallback(). A served answer flushes the pietql.aggcache.*
/// counters and mirrors its exact work into `*stats`.
class CacheServe {
 public:
  CacheServe(const GeoOlapDatabase* db, aggcache::AggCacheMode mode,
             const std::string& moft, const std::string& layer,
             std::string_view subhour_level, EngineStats* stats);

  bool open() const { return entry_ != nullptr; }
  const std::string& subhour_fallback() const { return subhour_fallback_; }

  /// The cached answer over the polygons of `polys`; nullopt when the
  /// gate is closed or the cache cannot decide `when`.
  std::optional<aggcache::RegionAggregate> RegionAggregates(
      const PolygonSet& polys, const TimePredicate& when);
  std::optional<std::vector<moving::ObjectId>> ObjectsAlwaysWithin(
      const PolygonSet& polys, const TimePredicate& when);

 private:
  void Served(const aggcache::AggServeStats& st);

  const GeoOlapDatabase* db_;
  EngineStats* stats_;
  std::string subhour_fallback_;
  std::shared_ptr<const aggcache::AggCacheEntry> entry_;
};

/// 6. The rows a sample operator reads: `blocks` under `filter` (the
/// engine's blocks, or the evaluator's hot columns as one unfiltered
/// block), or, through ForTime, the closed-window ranges of
/// Moft::SamplesBetween, whose rows all match and are not time-tested
/// again. Either way rows come in (oid, t) order.
class RowSource {
 public:
  RowSource(const moving::TableBlocks& blocks, const moving::ZoneFilter& filter)
      : blocks_(blocks), filter_(filter) {}

  /// The SamplesBetween ranges of `moft` when `when` is window_only()
  /// (zonemap skips counted into `*io`), else `scan`.
  static RowSource ForTime(const moving::Moft& moft, const TimePredicate& when,
                           RowSource scan, moving::BlockIoStats* io);

  /// The fan-out domain: window ranges, or rows.
  size_t size() const {
    return window_ ? window_->ranges().size() : blocks_.total_rows();
  }

  /// One chunk of a scan over units [begin, end) of size(): counts every
  /// visited row into chunk->samples_scanned and calls fn(cols, row) for
  /// each row matching `when`, ascending. Block I/O goes to chunk->blocks.
  template <typename Fn>
  Status ForEachMatch(size_t begin, size_t end, const TimePredicate& when,
                      const temporal::TimeDimension& dim, EngineStats* chunk,
                      const Fn& fn) const {
    const bool test = !window_;
    auto rows = [&](const moving::MoftColumns& cols, size_t lb,
                    size_t le) -> Status {
      for (size_t i = lb; i < le; ++i) {
        ++chunk->samples_scanned;
        if (!test || when.Matches(dim, temporal::TimePoint(cols.t[i]))) {
          fn(cols, i);
        }
      }
      return Status::OK();
    };
    if (!window_) {
      return blocks_.ForEachRowRange(begin, end, filter_, &chunk->blocks,
                                     rows);
    }
    for (size_t r = begin; r < end; ++r) {
      const moving::SampleWindow::Range& range = window_->ranges()[r];
      PIET_RETURN_NOT_OK(rows(*window_->columns(), range.begin, range.end));
    }
    return Status::OK();
  }

 private:
  moving::TableBlocks blocks_;
  moving::ZoneFilter filter_;
  std::optional<moving::SampleWindow> window_;
};

/// 7. Time rows: fans `src` out like Collect and calls emit(cols, row,
/// &rows, &chunk_stats) for each row matching `when`.
template <typename Sink, typename Emit>
Status TimeRows(int threads, const RowSource& src, const TimePredicate& when,
                const temporal::TimeDimension& dim, Sink* out,
                EngineStats* stats, const Emit& emit) {
  return Collect(threads, src.size(), out, stats,
                 [&](size_t begin, size_t end, ChunkRows<Sink>* rows,
                     EngineStats* chunk) -> Status {
                   return src.ForEachMatch(
                       begin, end, when, dim, chunk,
                       [&](const moving::MoftColumns& cols, size_t i) {
                         emit(cols, i, rows, chunk);
                       });
                 });
}

namespace detail {

/// The tile gatherer in front of the batch point-in-polygon kernel: copies
/// up to kTileRows pushed rows into dense columns, runs every batcher over
/// them, and hands on_tile(oid, t, hits) the polygon-major verdicts
/// (hits[q * m + k] for polygon q and tile row k of m). A tile owns its
/// copies, so it may span blocks whose pins have been released.
class TileGatherer {
 public:
  static constexpr size_t kTileRows = 1024;

  explicit TileGatherer(const std::vector<batch::PolygonBatcher>* batchers)
      : batchers_(batchers) {}

  template <typename OnTile>
  void Push(const moving::MoftColumns& cols, size_t row,
            const OnTile& on_tile) {
    oid_.push_back(cols.oid[row]);
    t_.push_back(cols.t[row]);
    x_.push_back(cols.x[row]);
    y_.push_back(cols.y[row]);
    if (x_.size() == kTileRows) {
      Flush(on_tile);
    }
  }

  template <typename OnTile>
  void Flush(const OnTile& on_tile) {
    const size_t m = x_.size();
    if (m == 0) {
      return;
    }
    hits_.resize(batchers_->size() * m);
    for (size_t q = 0; q < batchers_->size(); ++q) {
      (*batchers_)[q].ContainsBatch(x_, y_, &scratch_, &one_);
      std::copy(one_.begin(), one_.end(), hits_.begin() + q * m);
    }
    on_tile(oid_, t_, hits_);
    oid_.clear();
    t_.clear();
    x_.clear();
    y_.clear();
  }

 private:
  const std::vector<batch::PolygonBatcher>* batchers_;
  batch::BatchScratch scratch_;
  std::vector<moving::ObjectId> oid_;
  std::vector<double> t_;
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<uint8_t> hits_;
  std::vector<uint8_t> one_;
};

}  // namespace detail

/// 8. Sample locate: for each row of `src` matching `when`, the polygons of
/// `polys` that contain it. With the overlay classification `cls` the hits
/// come in classification order (they index the rows of its whole-table
/// view, so `src` must read the same hot columns); otherwise the batch kernels test
/// every polygon in `polys.ids` order, bit-identical to Polygon::Contains,
/// counting rows x polygons into point_tests. Calls emit(oid, t, id, &rows)
/// -> bool per hit; false skips the row's remaining polygons.
template <typename Sink, typename Emit>
Status SampleLocate(int threads, const RowSource& src,
                    const TimePredicate& when,
                    const temporal::TimeDimension& dim,
                    const PolygonSet& polys, const SampleClassification* cls,
                    Sink* out, EngineStats* stats, const Emit& emit) {
  if (cls != nullptr) {
    const size_t offset = cls->samples.offset();
    const gis::BatchHits& hits = cls->hits;
    return TimeRows(
        threads, src, when, dim, out, stats,
        [&](const moving::MoftColumns& cols, size_t row,
            ChunkRows<Sink>* rows, EngineStats*) {
          const size_t vi = row - offset;
          for (uint32_t j = hits.offsets[vi]; j < hits.offsets[vi + 1]; ++j) {
            if (polys.contains(hits.ids[j]) &&
                !emit(cols.oid[row], cols.t[row], hits.ids[j], rows)) {
              break;
            }
          }
        });
  }
  const std::vector<batch::PolygonBatcher> batchers = polys.Batchers();
  const size_t nq = batchers.size();
  return Collect(
      threads, src.size(), out, stats,
      [&](size_t begin, size_t end, ChunkRows<Sink>* rows,
          EngineStats* chunk) -> Status {
        auto on_tile = [&](const std::vector<moving::ObjectId>& oid,
                           const std::vector<double>& t,
                           const std::vector<uint8_t>& hit) {
          const size_t m = oid.size();
          chunk->point_tests += nq * m;
          for (size_t k = 0; k < m; ++k) {
            for (size_t q = 0; q < nq; ++q) {
              if (hit[q * m + k] != 0 &&
                  !emit(oid[k], t[k], polys.ids[q], rows)) {
                break;
              }
            }
          }
        };
        detail::TileGatherer tiles(&batchers);
        PIET_RETURN_NOT_OK(src.ForEachMatch(
            begin, end, when, dim, chunk,
            [&](const moving::MoftColumns& cols, size_t i) {
              tiles.Push(cols, i, on_tile);
            }));
        tiles.Flush(on_tile);
        return Status::OK();
      });
}

/// 9. Sample proximity: for each row of `src` matching `when`, the
/// geometries `probe` finds within its radius, in candidate order. Calls
/// emit(oid, t, id, &rows) -> bool per hit; false skips the row's
/// remaining candidates.
template <typename Sink, typename Emit>
Status SampleProximity(int threads, const RowSource& src,
                       const TimePredicate& when,
                       const temporal::TimeDimension& dim,
                       const ProximityProbe& probe, Sink* out,
                       EngineStats* stats, const Emit& emit) {
  return TimeRows(threads, src, when, dim, out, stats,
                  [&](const moving::MoftColumns& cols, size_t i,
                      ChunkRows<Sink>* rows, EngineStats* chunk) {
                    probe.ForEachNear(
                        geometry::Point(cols.x[i], cols.y[i]),
                        &chunk->point_tests, [&](gis::GeometryId id) {
                          return emit(cols.oid[i], cols.t[i], id, rows);
                        });
                  });
}

/// 10. Leg cross: for each object of `blocks` that `filter` admits and
/// `when` does not exclude, and each polygon of `polys` in `ids` order,
/// calls emit(obj, id, interval, &rows) for each maximal interval of
/// InsideIntervals ∩ time_ok. The exact batch prefilter runs first: a
/// piecewise-linear trajectory shares a point with a closed polygon iff
/// one of its (window-clipped) legs does, or for a single sample iff the
/// polygon contains it, so a pair that fails it skips InsideIntervals.
/// Counts each object's clipped legs into legs_tested.
template <typename Sink, typename Emit>
Status LegCross(int threads, const moving::TableBlocks& blocks,
                const moving::ZoneFilter& filter, const TimePredicate& when,
                const temporal::TimeDimension& dim, const PolygonSet& polys,
                Sink* out, EngineStats* stats, const Emit& emit) {
  const std::vector<batch::PolygonBatcher> batchers = polys.Batchers();
  return CollectTrajectories(
      threads, blocks, filter, &when, dim, out, stats,
      [&](const ObjectTrajectory& obj, ChunkRows<Sink>* rows,
          EngineStats* chunk) -> Status {
        chunk->legs_tested += obj.legs();
        const size_t n = obj.span.end - obj.span.begin;
        const std::span<const double> xs(obj.data->x.data() + obj.span.begin,
                                         n);
        const std::span<const double> ys(obj.data->y.data() + obj.span.begin,
                                         n);
        for (size_t q = 0; q < polys.ids.size(); ++q) {
          const bool meets =
              n >= 2 ? batchers[q].AnyLegIntersects(xs, ys)
                     : polys.polys[q]->Contains(geometry::Point(xs[0], ys[0]));
          if (!meets) {
            continue;
          }
          const temporal::IntervalSet matched =
              moving::InsideIntervals(obj.traj, *polys.polys[q])
                  .Intersect(obj.time_ok);
          for (const temporal::Interval& iv : matched.intervals()) {
            emit(obj, polys.ids[q], iv, rows);
          }
        }
        return Status::OK();
      });
}

}  // namespace piet::core::scan

#endif  // PIET_CORE_SCAN_H_
