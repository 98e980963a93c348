// Window clip of the per-object trajectory visitor (DESIGN.md §8): every
// time-bounded trajectory operator builds each object's LIT from only the
// legs whose closed time interval meets the hull of its time-matching
// intervals. The references below build the whole, unclipped LIT from
// Moft::SamplesOf and intersect the kernel results with time_ok by hand,
// so a clip that drops a needed leg or keeps a stray piece shows up as a
// difference. Checked over {raw, compressed 512-row blocks} x {1, 4
// threads} for TrajectoryRegion, TrajectoryNearNodes,
// ObjectsAlwaysWithin (trajectory semantics) and Piet-QL PASSES THROUGH.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/pietql/evaluator.h"
#include "moving/moft.h"
#include "moving/traj_ops.h"
#include "moving/trajectory.h"
#include "moving_test_util.h"
#include "workload/city.h"
#include "workload/scenario.h"
#include "workload/trajectories.h"

namespace piet {
namespace {

using core::GeometryPredicate;
using core::QueryEngine;
using core::TimePredicate;
using geometry::Point;
using moving::LinearTrajectory;
using moving::Moft;
using moving::ObjectId;
using olap::Row;
using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimePoint;

constexpr double kStart = 3600.0;  // Trajectories run [1 h, 31 h].
constexpr double kPeriod = 300.0;
constexpr double kRadius = 150.0;

/// One time predicate, as an engine TimePredicate and as the Piet-QL
/// clause that means the same.
struct WindowCase {
  std::string name;
  TimePredicate when;
  std::string clause;
};

WindowCase Between(std::string name, double t0, double t1) {
  return {std::move(name),
          TimePredicate().Window(Interval(TimePoint(t0), TimePoint(t1))),
          " AND T BETWEEN " + std::to_string(static_cast<int64_t>(t0)) +
              " AND " + std::to_string(static_cast<int64_t>(t1))};
}

std::vector<WindowCase> Cases() {
  std::vector<WindowCase> out = {
      // Endpoints on sample times (kStart + k * kPeriod).
      Between("sample-endpoints", kStart + 900, kStart + 2700),
      Between("mid-leg-endpoints", kStart + 1000, kStart + 7350),
      Between("before-domain", 0, 1800),
      Between("touches-domain-start", 0, kStart),
      Between("after-domain", 200000, 300000),
      Between("covers-domain", 0, 300000),
      Between("instant-on-sample", kStart + 900, kStart + 900),
      Between("instant-mid-leg", kStart + 950, kStart + 950),
  };
  // Periodic rollups: hour 2 recurs on both days of the domain, so
  // time_ok has two pieces and the hull spans a day of legs in between.
  out.push_back({"hour-2", TimePredicate().RollupEquals("hour", Value(2)),
                 " AND TIME.hour = 2"});
  TimePredicate hour_window = TimePredicate().RollupEquals("hour", Value(5));
  hour_window.Window(Interval(TimePoint(kStart), TimePoint(100000)));
  out.push_back({"hour-5-in-window", hour_window,
                 " AND TIME.hour = 5 AND T BETWEEN 3600 AND 100000"});
  out.push_back({"unconstrained", TimePredicate(), ""});
  return out;
}

/// 24 random-waypoint cars over 30 h, plus hand-made objects: single
/// samples (on a window endpoint, mid-window, before and after every
/// window) and a car parked for an hour before it drives off.
Moft BaseMoft(const workload::City& city) {
  workload::TrajectoryConfig traj;
  traj.seed = 4242;
  traj.num_objects = 24;
  traj.start = TimePoint(kStart);
  traj.duration = 30 * 3600.0;
  traj.sample_period = kPeriod;
  traj.speed = 4.0;
  Moft moft = workload::GenerateTrajectories(city, traj).ValueOrDie();
  const Point c((city.extent.min_x + city.extent.max_x) / 2,
                (city.extent.min_y + city.extent.max_y) / 2);
  EXPECT_TRUE(moft.Add(1001, TimePoint(kStart + 900), c).ok());
  EXPECT_TRUE(moft.Add(1002, TimePoint(kStart + 2000), c).ok());
  EXPECT_TRUE(moft.Add(1003, TimePoint(1000), c).ok());
  EXPECT_TRUE(moft.Add(1004, TimePoint(250000), c).ok());
  for (int k = 0; k <= 12; ++k) {
    EXPECT_TRUE(moft.Add(1005, TimePoint(kStart + k * kPeriod), c).ok());
  }
  for (int k = 13; k <= 40; ++k) {
    EXPECT_TRUE(moft.Add(1005, TimePoint(kStart + k * kPeriod),
                         Point(c.x + 40.0 * (k - 12), c.y))
                    .ok());
  }
  return moft;
}

Moft Repack(const Moft& base, bool compressed) {
  moving::BlockOptions opts;
  if (compressed) {
    opts.block_rows = 512;
    opts.compress = true;
  }
  Moft out;
  out.SetBlockOptions(opts);
  const moving::MoftColumns& cols = base.Columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    const moving::Sample s = cols.at(i);
    EXPECT_TRUE(out.Add(s.oid, s.t, s.pos).ok());
  }
  (void)out.Columns();
  if (compressed) {
    out.ReleaseHot();
  }
  return out;
}

/// The whole LIT of one object and its time-matching intervals over the
/// whole domain.
struct FullObject {
  ObjectId oid;
  LinearTrajectory lit;
  IntervalSet time_ok;
};

/// Every object of `moft` with a time-matching instant.
std::vector<FullObject> FullObjects(const Moft& moft, const TimePredicate& when,
                                    const temporal::TimeDimension& dim) {
  std::vector<FullObject> out;
  for (ObjectId oid : moft.ObjectIds()) {
    LinearTrajectory lit =
        LinearTrajectory::FromSample(
            moving::TrajectorySample::FromSpan(moft.SamplesOf(oid))
                .ValueOrDie())
            .ValueOrDie();
    const Interval domain = lit.TimeDomain();
    IntervalSet time_ok =
        when.unconstrained() ? IntervalSet({domain})
                             : when.MatchingIntervals(dim, domain).ValueOrDie();
    if (!time_ok.empty()) {
      out.push_back({oid, std::move(lit), std::move(time_ok)});
    }
  }
  return out;
}

/// Qualifying polygons of `pred`, ascending by id.
std::vector<std::pair<gis::GeometryId, const geometry::Polygon*>> Polygons(
    const gis::Layer& layer, const GeometryPredicate& pred) {
  std::vector<std::pair<gis::GeometryId, const geometry::Polygon*>> out;
  for (size_t i = 0; i < layer.size(); ++i) {
    const auto id = static_cast<gis::GeometryId>(i);
    auto pg = layer.GetPolygon(id);
    if (pg.ok() && pred(layer, id)) {
      out.emplace_back(id, pg.ValueOrDie());
    }
  }
  return out;
}

/// Legs of the whole LIT whose closed interval meets the hull of time_ok:
/// what the clipped visitor must test, counted leg by leg.
size_t ClippedLegs(const FullObject& obj) {
  const double h0 = obj.time_ok.intervals().front().begin.seconds;
  const double h1 = obj.time_ok.intervals().back().end.seconds;
  size_t n = 0;
  for (const LinearTrajectory::Leg& leg : obj.lit.Legs()) {
    n += leg.t1.seconds >= h0 && leg.t0.seconds <= h1 ? 1 : 0;
  }
  return n;
}

int64_t Scalar(const core::pietql::Evaluator& evaluator,
               const std::string& query) {
  auto r = evaluator.EvaluateString(query);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  if (!r.ok() || !r.ValueOrDie().scalar) {
    return -1;
  }
  return r.ValueOrDie().scalar->AsIntUnchecked();
}

TEST(TrajectoryClipTest, ClippedScansMatchTheWholeTrajectory) {
  const GeometryPredicate low =
      GeometryPredicate::AttributeLess("income", 1500.0);
  const std::string geo =
      "SELECT layer.neighborhoods; FROM SimCity; "
      "WHERE ATTR(layer.neighborhoods, income) < 1500 | ";
  size_t nonempty_region = 0;
  size_t nonempty_near = 0;
  size_t clipped_away = 0;
  for (bool compressed : {false, true}) {
    for (int threads : {1, 4}) {
      workload::CityConfig config;
      config.seed = 20261018;
      config.grid_cols = 6;
      config.grid_rows = 6;
      auto city = std::make_shared<workload::City>(
          std::move(workload::GenerateCity(config)).ValueOrDie());
      city->db->set_num_threads(threads);
      const Moft base = BaseMoft(*city);
      ASSERT_TRUE(city->db->AddMoft("cars", Repack(base, compressed)).ok());
      const temporal::TimeDimension& dim = city->db->time_dimension();
      const gis::Layer& hoods =
          *city->db->gis().GetLayer(city->neighborhoods_layer).ValueOrDie();
      const gis::Layer& schools =
          *city->db->gis().GetLayer(city->schools_layer).ValueOrDie();
      const auto polys = Polygons(hoods, low);
      ASSERT_FALSE(polys.empty());

      QueryEngine engine(city->db.get());
      engine.set_num_threads(threads);
      core::pietql::Evaluator plain(city->db.get());
      plain.set_num_threads(threads);
      plain.set_rewrite_mode(analysis::rewrite::RewriteMode::kOff);
      core::pietql::Evaluator rewritten(city->db.get());
      rewritten.set_num_threads(threads);
      rewritten.set_rewrite_mode(analysis::rewrite::RewriteMode::kOn);

      for (const WindowCase& wc : Cases()) {
        const std::string tag = std::string(compressed ? "compressed/t"
                                                       : "raw/t") +
                                std::to_string(threads) + "/" + wc.name;
        const std::vector<FullObject> objs = FullObjects(base, wc.when, dim);

        // Type 7: inside intervals of every qualifying polygon.
        std::vector<Row> want_region;
        std::vector<ObjectId> want_always;
        int64_t want_passes = 0;
        int64_t want_passing_oids = 0;
        for (const FullObject& obj : objs) {
          IntervalSet inside_union;
          bool passes = false;
          for (const auto& [id, pg] : polys) {
            const IntervalSet inside = moving::InsideIntervals(obj.lit, *pg);
            inside_union = inside_union.Union(inside);
            const IntervalSet matched = inside.Intersect(obj.time_ok);
            for (const Interval& iv : matched.intervals()) {
              want_region.push_back({Value(obj.oid), Value(id),
                                     Value(iv.begin.seconds),
                                     Value(iv.end.seconds)});
              ++want_passes;
              passes = true;
            }
          }
          want_passing_oids += passes ? 1 : 0;
          const IntervalSet covered = obj.time_ok.Intersect(inside_union);
          if (covered.TotalLength() >= obj.time_ok.TotalLength() - 1e-9 &&
              covered.size() == obj.time_ok.size()) {
            want_always.push_back(obj.oid);
          }
        }
        auto region =
            engine.TrajectoryRegion("cars", city->neighborhoods_layer, low,
                                    wc.when);
        ASSERT_TRUE(region.ok()) << tag << region.status().ToString();
        EXPECT_EQ(region.ValueOrDie().rows(), want_region) << tag;
        nonempty_region += want_region.size();

        auto always = engine.ObjectsAlwaysWithin(
            "cars", city->neighborhoods_layer, low, wc.when,
            /*trajectory_semantics=*/true);
        ASSERT_TRUE(always.ok()) << tag << always.status().ToString();
        EXPECT_EQ(always.ValueOrDie(), want_always) << tag;

        // Q6: candidate nodes from the whole trajectory's grown bounds;
        // the clipped scan draws them from the kept legs only, and the
        // nodes it drops must contribute nothing.
        std::vector<Row> want_near;
        size_t want_legs = 0;
        for (const FullObject& obj : objs) {
          want_legs += ClippedLegs(obj);
          geometry::BoundingBox bounds;
          for (const moving::TimedPoint& tp : obj.lit.sample().points()) {
            bounds.ExtendWith(tp.pos);
          }
          const geometry::BoundingBox grown(
              bounds.min_x - kRadius, bounds.min_y - kRadius,
              bounds.max_x + kRadius, bounds.max_y + kRadius);
          for (gis::GeometryId id : schools.CandidatesInBox(grown)) {
            const Point node = schools.GetPoint(id).ValueOrDie();
            const IntervalSet matched =
                moving::WithinDistanceUnfiltered(obj.lit, node, kRadius)
                    .Intersect(obj.time_ok);
            for (const Interval& iv : matched.intervals()) {
              want_near.push_back({Value(obj.oid), Value(id),
                                   Value(iv.begin.seconds),
                                   Value(iv.end.seconds)});
            }
          }
          clipped_away += obj.lit.Legs().size() - ClippedLegs(obj);
        }
        auto near = engine.TrajectoryNearNodes("cars", city->schools_layer,
                                               kRadius, wc.when);
        ASSERT_TRUE(near.ok()) << tag << near.status().ToString();
        EXPECT_EQ(near.ValueOrDie().rows(), want_near) << tag;
        // The work counter reports the clipped legs actually tested.
        EXPECT_EQ(engine.stats().legs_tested, want_legs) << tag;
        nonempty_near += want_near.size();

        // Piet-QL PASSES THROUGH: one tuple per maximal inside interval,
        // with and without the rewrite's leg prefilter.
        for (const core::pietql::Evaluator* ev : {&plain, &rewritten}) {
          const std::string mode = ev == &plain ? "/plain" : "/rewrite";
          EXPECT_EQ(Scalar(*ev, geo + "SELECT COUNT(*) FROM cars WHERE "
                                      "PASSES THROUGH RESULT" +
                                          wc.clause),
                    want_passes)
              << tag << mode;
          EXPECT_EQ(Scalar(*ev, geo + "SELECT COUNT(DISTINCT OID) FROM cars "
                                      "WHERE PASSES THROUGH RESULT" +
                                          wc.clause),
                    want_passing_oids)
              << tag << mode;
        }
      }
    }
  }
  // The fixture exercises real answers and real clipping.
  EXPECT_GT(nonempty_region, 0u);
  EXPECT_GT(nonempty_near, 0u);
  EXPECT_GT(clipped_away, 0u);
}

// A closed window that meets an object's time domain in a single instant
// matches that instant under trajectory semantics. The expected rows are
// written out by hand: references built on MatchingIntervals would share
// a defect that drops zero-length matches.
TEST(TrajectoryInstantTest, SingleInstantWindowsMatchTheInstant) {
  auto scenario = workload::BuildFigure1Scenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  core::GeoOlapDatabase& db = *scenario.ValueOrDie().db;
  const gis::GeometryId n1 = scenario.ValueOrDie().low_income_neighborhood;
  // One bus inside the low-income cell N1 = [40,80]x[0,40] over its whole
  // domain [3600, 7200].
  Moft probe;
  ASSERT_TRUE(probe.Add(7, TimePoint(3600.0), Point(50, 10)).ok());
  ASSERT_TRUE(probe.Add(7, TimePoint(7200.0), Point(70, 30)).ok());
  ASSERT_TRUE(db.AddMoft("probe", std::move(probe)).ok());
  const GeometryPredicate low =
      GeometryPredicate::AttributeLess("income", 1500.0);

  QueryEngine engine(&db);
  core::pietql::Evaluator evaluator(&db);
  const struct {
    double w0, w1, instant;
  } windows[] = {{4500, 4500, 4500}, {0, 3600, 3600}, {7200, 9000, 7200}};
  for (const auto& w : windows) {
    const WindowCase wc = Between("instant", w.w0, w.w1);
    const std::string tag = std::to_string(w.w0) + ".." + std::to_string(w.w1);
    auto region = engine.TrajectoryRegion("probe", "Ln", low, wc.when);
    ASSERT_TRUE(region.ok()) << tag << region.status().ToString();
    EXPECT_EQ(region.ValueOrDie().rows(),
              (std::vector<Row>{{Value(ObjectId{7}), Value(n1),
                                 Value(w.instant), Value(w.instant)}}))
        << tag;
    auto always = engine.ObjectsAlwaysWithin("probe", "Ln", low, wc.when,
                                             /*trajectory_semantics=*/true);
    ASSERT_TRUE(always.ok()) << tag << always.status().ToString();
    EXPECT_EQ(always.ValueOrDie(), std::vector<ObjectId>{7}) << tag;
    for (auto mode : {analysis::rewrite::RewriteMode::kOff,
                      analysis::rewrite::RewriteMode::kOn}) {
      evaluator.set_rewrite_mode(mode);
      EXPECT_EQ(Scalar(evaluator,
                       "SELECT layer.Ln; FROM PietSchema; "
                       "WHERE ATTR(layer.Ln, income) < 1500 | "
                       "SELECT COUNT(*) FROM probe WHERE PASSES THROUGH "
                       "RESULT" +
                           wc.clause),
                1)
          << tag;
    }
  }
}

}  // namespace
}  // namespace piet
