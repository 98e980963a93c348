#ifndef PIET_CORE_SCAN_H_
#define PIET_CORE_SCAN_H_

#include <algorithm>
#include <memory>
#include <optional>
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
#include "moving/trajectory.h"
#include "olap/fact_table.h"

/// The scan operators of the Sec. 5 pipeline (qualifying geometry ids →
/// region C) shared by QueryEngine and the Piet-QL evaluator. Each front-end
/// keeps its own storage access (the engine walks blocks under a
/// ZoneFilter, the evaluator reads the hot columns) and its own per-row
/// work; these helpers own the loop skeletons around them. Loop bodies are
/// template parameters, so per-row work stays inlined.
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

/// 4. The tile gatherer in front of the batch point-in-polygon kernel. For
/// each tile of up to kTileRows scan positions in [begin, end), gathers the
/// rows row_of(i) that admit(row) accepts into dense coordinate columns of
/// `cols`, runs every batcher over them, and calls on_tile(rows, hits) with
/// the polygon-major verdicts (hits[q * rows.size() + k] for polygon q and
/// gathered row k). Each verdict is bit-identical to Polygon::Contains.
class TileGatherer {
 public:
  static constexpr size_t kTileRows = 1024;

  explicit TileGatherer(const std::vector<batch::PolygonBatcher>* batchers)
      : batchers_(batchers) {}

  template <typename RowOf, typename Admit, typename OnTile>
  void Run(const moving::MoftColumns& cols, size_t begin, size_t end,
           const RowOf& row_of, const Admit& admit, const OnTile& on_tile) {
    for (size_t base = begin; base < end; base += kTileRows) {
      const size_t stop = std::min(end, base + kTileRows);
      rows_.clear();
      tx_.clear();
      ty_.clear();
      for (size_t i = base; i < stop; ++i) {
        const size_t row = row_of(i);
        if (!admit(row)) {
          continue;
        }
        rows_.push_back(row);
        tx_.push_back(cols.x[row]);
        ty_.push_back(cols.y[row]);
      }
      if (rows_.empty()) {
        continue;
      }
      const size_t m = rows_.size();
      hits_.resize(batchers_->size() * m);
      for (size_t q = 0; q < batchers_->size(); ++q) {
        (*batchers_)[q].ContainsBatch(tx_, ty_, &scratch_, &one_);
        std::copy(one_.begin(), one_.end(), hits_.begin() + q * m);
      }
      on_tile(rows_, hits_);
    }
  }

 private:
  const std::vector<batch::PolygonBatcher>* batchers_;
  batch::BatchScratch scratch_;
  std::vector<size_t> rows_;
  std::vector<double> tx_;
  std::vector<double> ty_;
  std::vector<uint8_t> hits_;
  std::vector<uint8_t> one_;
};

/// 5. The point/line proximity probe over a node or line layer: R-tree
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

/// 6. The aggregate-cache serve gate. Resets `*stats` (when non-null) to
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

}  // namespace piet::core::scan

#endif  // PIET_CORE_SCAN_H_
