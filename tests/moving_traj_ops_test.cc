#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "geometry/polygon.h"
#include "geometry/segment_polygon.h"
#include "moving/bead.h"
#include "moving/traj_ops.h"
#include "moving_test_util.h"

namespace piet::moving {
namespace {

using geometry::MakeRectangle;
using geometry::Point;
using geometry::Polygon;
using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimePoint;

LinearTrajectory FromPoints(std::vector<TimedPoint> pts) {
  return LinearTrajectory::FromSample(
             TrajectorySample::Create(std::move(pts)).ValueOrDie())
      .ValueOrDie();
}

TEST(InsideIntervalsTest, CrossThrough) {
  // Crosses [0,10]^2 horizontally between t=0 (x=-10) and t=10 (x=20).
  LinearTrajectory lit =
      FromPoints({{TimePoint(0), {-10, 5}}, {TimePoint(10), {20, 5}}});
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  IntervalSet inside = InsideIntervals(lit, sq);
  ASSERT_EQ(inside.size(), 1u);
  EXPECT_NEAR(inside.intervals()[0].begin.seconds, 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(inside.intervals()[0].end.seconds, 20.0 / 3.0, 1e-12);
  EXPECT_NEAR(TimeInRegion(lit, sq), 10.0 / 3.0, 1e-12);
  EXPECT_TRUE(PassesThrough(lit, sq));
  EXPECT_EQ(EntryCount(lit, sq), 1);
}

TEST(InsideIntervalsTest, UnsampledDriveBy) {
  // The O6 situation of Figure 1: both samples outside, the leg crosses.
  LinearTrajectory lit =
      FromPoints({{TimePoint(0), {-5, 5}}, {TimePoint(10), {15, 5}}});
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  EXPECT_TRUE(PassesThrough(lit, sq));
  EXPECT_GT(TimeInRegion(lit, sq), 0.0);
  // Sample semantics sees nothing.
  Moft moft;
  ASSERT_TRUE(moft.Add(6, TimePoint(0), {-5, 5}).ok());
  ASSERT_TRUE(moft.Add(6, TimePoint(10), {15, 5}).ok());
  EXPECT_TRUE(SamplesInRegion(moft, 6, sq).empty());
}

TEST(InsideIntervalsTest, MultipleVisits) {
  LinearTrajectory lit = FromPoints({{TimePoint(0), {-5, 5}},
                                     {TimePoint(10), {5, 5}},
                                     {TimePoint(20), {-5, 5}},
                                     {TimePoint(30), {5, 5}}});
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  // Legs 1 and 2 both have the object inside around the turn at t=10, so
  // their intervals merge: inside = [5,15] u [25,30].
  IntervalSet inside = InsideIntervals(lit, sq);
  ASSERT_EQ(inside.size(), 2u);
  EXPECT_NEAR(inside.intervals()[0].begin.seconds, 5.0, 1e-12);
  EXPECT_NEAR(inside.intervals()[0].end.seconds, 15.0, 1e-12);
  EXPECT_EQ(EntryCount(lit, sq), 2);
  EXPECT_NEAR(TimeInRegion(lit, sq), 15.0, 1e-12);
}

TEST(InsideIntervalsTest, GrazingTouchIsZeroLength) {
  // Touches the corner (0,0) only.
  LinearTrajectory lit =
      FromPoints({{TimePoint(0), {-5, 5}}, {TimePoint(10), {5, -5}}});
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  IntervalSet inside = InsideIntervals(lit, sq);
  ASSERT_EQ(inside.size(), 1u);
  EXPECT_TRUE(inside.intervals()[0].IsPoint());
  EXPECT_TRUE(PassesThrough(lit, sq));
  EXPECT_DOUBLE_EQ(TimeInRegion(lit, sq), 0.0);
}

TEST(InsideIntervalsTest, StationaryInside) {
  LinearTrajectory lit =
      FromPoints({{TimePoint(0), {5, 5}}, {TimePoint(100), {5, 5}}});
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  EXPECT_DOUBLE_EQ(TimeInRegion(lit, sq), 100.0);
  EXPECT_TRUE(StaysWithin(lit, sq));
}

TEST(InsideIntervalsTest, SinglePointTrajectory) {
  LinearTrajectory lit = FromPoints({{TimePoint(5), {5, 5}}});
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  IntervalSet inside = InsideIntervals(lit, sq);
  ASSERT_EQ(inside.size(), 1u);
  EXPECT_TRUE(inside.intervals()[0].IsPoint());
  EXPECT_TRUE(PassesThrough(lit, sq));
}

TEST(StaysWithinTest, DetectsExcursion) {
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  LinearTrajectory in =
      FromPoints({{TimePoint(0), {2, 2}}, {TimePoint(10), {8, 8}}});
  EXPECT_TRUE(StaysWithin(in, sq));
  LinearTrajectory out = FromPoints({{TimePoint(0), {2, 2}},
                                     {TimePoint(5), {15, 2}},
                                     {TimePoint(10), {8, 8}}});
  EXPECT_FALSE(StaysWithin(out, sq));
}

TEST(DistanceTravelledInsideTest, PartialLeg) {
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  LinearTrajectory lit =
      FromPoints({{TimePoint(0), {-10, 5}}, {TimePoint(10), {10, 5}}});
  // Total leg length 20, inside portion x in [0,10] -> length 10.
  EXPECT_NEAR(DistanceTravelledInside(lit, sq), 10.0, 1e-12);
}

TEST(WithinDistanceIntervalsTest, PassNearPoint) {
  LinearTrajectory lit =
      FromPoints({{TimePoint(0), {-10, 0}}, {TimePoint(20), {10, 0}}});
  IntervalSet near = WithinDistanceIntervals(lit, {0, 3}, 5.0);
  ASSERT_EQ(near.size(), 1u);
  // Within distance 5 of (0,3): |x| <= 4 -> t in [6, 14].
  EXPECT_NEAR(near.intervals()[0].begin.seconds, 6.0, 1e-9);
  EXPECT_NEAR(near.intervals()[0].end.seconds, 14.0, 1e-9);
}

TEST(WithinDistanceIntervalsTest, NodeAtExactlyRadiusFromLegEndpoint) {
  LinearTrajectory lit = FromPoints({{TimePoint(0), {0, 0}},
                                     {TimePoint(10), {10, 0}},
                                     {TimePoint(20), {10, 10}}});
  // (-5, 0) touches the start point only; (15, 10) touches the end point.
  for (const auto& [node, at] :
       {std::pair<Point, double>{{-5, 0}, 0.0}, {{15, 10}, 20.0}}) {
    const IntervalSet near = WithinDistanceIntervals(lit, node, 5.0);
    EXPECT_EQ(near, WithinDistanceUnfiltered(lit, node, 5.0));
    EXPECT_EQ(near, IntervalSet({Interval(TimePoint(at), TimePoint(at))}))
        << near.ToString();
  }
  // The touching leg survives the prefilter; the far leg is skipped.
  EXPECT_FALSE(LegOutOfReach(lit.Legs()[0], {-5, 0}, 5.0));
  EXPECT_TRUE(LegOutOfReach(lit.Legs()[1], {-5, 0}, 5.0));
}

TEST(WithinDistanceIntervalsTest, TangentLegGivesPointInterval) {
  // The leg y = 0 is tangent to the radius-5 circle around (5, 5) at x = 5,
  // reached at t = 5.
  LinearTrajectory lit =
      FromPoints({{TimePoint(0), {0, 0}}, {TimePoint(10), {10, 0}}});
  const IntervalSet near = WithinDistanceIntervals(lit, {5, 5}, 5.0);
  EXPECT_EQ(near, WithinDistanceUnfiltered(lit, {5, 5}, 5.0));
  EXPECT_EQ(near, IntervalSet({Interval(TimePoint(5), TimePoint(5))}))
      << near.ToString();
  EXPECT_FALSE(LegOutOfReach(lit.Legs()[0], {5, 5}, 5.0));
}

TEST(WithinDistanceIntervalsTest, NodeJustOutsideTheGrownBox) {
  LinearTrajectory lit =
      FromPoints({{TimePoint(0), {0, 0}}, {TimePoint(10), {10, 0}}});
  const LinearTrajectory::Leg leg = lit.Legs()[0];
  // Walk the node up from the tangent point until the prefilter rejects
  // the leg: the last kept and the first skipped position both give the
  // unfiltered answer (empty once past the radius).
  Point node(5, 5);
  for (int step = 0; step < 100000 && !LegOutOfReach(leg, node, 5.0);
       ++step) {
    const Point next(5, node.y + 1e-7);
    EXPECT_EQ(WithinDistanceIntervals(lit, next, 5.0),
              WithinDistanceUnfiltered(lit, next, 5.0));
    node = next;
  }
  const Point outside(5, std::nextafter(node.y, 100.0));
  EXPECT_TRUE(LegOutOfReach(leg, outside, 5.0));
  EXPECT_TRUE(WithinDistanceIntervals(lit, outside, 5.0).empty());
  EXPECT_TRUE(WithinDistanceUnfiltered(lit, outside, 5.0).empty());
  // The box is grown on both axes, and the slack stays tiny (1e-6 scale).
  EXPECT_LT(node.y - 5.0, 1e-4);
  EXPECT_TRUE(LegOutOfReach(leg, {-5.0 - 1e-3, 0}, 5.0));
  EXPECT_FALSE(LegOutOfReach(leg, {-5.0, 0}, 5.0));
  // Non-finite input never skips a leg.
  EXPECT_FALSE(
      LegOutOfReach(leg, {5, 50}, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(
      LegOutOfReach(leg, {5, 50}, std::numeric_limits<double>::infinity()));
}

TEST(WithinDistanceIntervalsTest, PrefilterSkipsOnlyEmptyLegs) {
  // For random legs (axis-aligned, diagonal and stationary; coordinates up
  // to 1e6 from the origin), bisect the node position along one axis to
  // the exact point where LegOutOfReach starts to skip the leg: the kernel
  // must already return nothing there.
  Random rng(1313);
  for (int trial = 0; trial < 2000; ++trial) {
    const double offset = rng.UniformDouble(-1e6, 1e6);
    const Point a(offset + rng.UniformDouble(-100, 100),
                  offset + rng.UniformDouble(-100, 100));
    Point b(a.x + rng.UniformDouble(-100, 100),
            a.y + rng.UniformDouble(-100, 100));
    switch (trial % 4) {
      case 0: b.y = a.y; break;  // Horizontal.
      case 1: b.x = a.x; break;  // Vertical.
      case 2: b = a; break;      // Stationary.
      default: break;            // Diagonal.
    }
    const LinearTrajectory::Leg leg{TimePoint(0), TimePoint(60), a, b};
    const double r = rng.UniformDouble(1e-3, 50);
    // Start inside the leg's box, move away along +-x or +-y.
    const double u = rng.UniformDouble(0, 1);
    const Point inside = a + (b - a) * u;
    const int axis = static_cast<int>(rng.UniformInt(0, 3));
    const Point dir = axis == 0   ? Point(1, 0)
                      : axis == 1 ? Point(-1, 0)
                      : axis == 2 ? Point(0, 1)
                                  : Point(0, -1);
    double lo = 0.0;
    double hi = 1e3;
    ASSERT_FALSE(LegOutOfReach(leg, inside, r));
    ASSERT_TRUE(LegOutOfReach(leg, inside + dir * hi, r));
    for (int it = 0; it < 200 && lo < hi; ++it) {
      const double mid = lo + (hi - lo) / 2;
      if (mid <= lo || mid >= hi) {
        break;
      }
      (LegOutOfReach(leg, inside + dir * mid, r) ? hi : lo) = mid;
    }
    const Point node = inside + dir * hi;
    ASSERT_TRUE(LegOutOfReach(leg, node, r));
    EXPECT_TRUE(
        geometry::SegmentWithinDistanceIntervals(leg.AsSegment(), node, r)
            .empty())
        << "trial " << trial;
  }
}

TEST(BeadTest, CreateValidation) {
  TimedPoint a{TimePoint(0), {0, 0}};
  TimedPoint b{TimePoint(10), {30, 0}};
  // Required speed is 3; vmax below that is inconsistent.
  EXPECT_TRUE(LifelineBead::Create(a, b, 2.0).status().IsInvalidArgument());
  EXPECT_TRUE(LifelineBead::Create(a, b, 4.0).ok());
  EXPECT_TRUE(LifelineBead::Create(b, a, 4.0).status().IsInvalidArgument());
  EXPECT_TRUE(LifelineBead::Create(a, b, 0.0).status().IsInvalidArgument());
}

TEST(BeadTest, EllipseGeometry) {
  TimedPoint a{TimePoint(0), {-3, 0}};
  TimedPoint b{TimePoint(10), {3, 0}};
  auto bead = LifelineBead::Create(a, b, 1.0).ValueOrDie();
  // 2a = 10, c = 3 -> b = 4.
  EXPECT_DOUBLE_EQ(bead.SemiMajor(), 5.0);
  EXPECT_DOUBLE_EQ(bead.SemiMinor(), 4.0);
  EXPECT_EQ(bead.Center(), Point(0, 0));
  EXPECT_TRUE(bead.ContainsPoint({0, 4}));
  EXPECT_FALSE(bead.ContainsPoint({0, 4.01}));
  EXPECT_TRUE(bead.ContainsPoint({5, 0}));
  EXPECT_FALSE(bead.ContainsPoint({5.01, 0}));
}

TEST(BeadTest, IntersectsPolygon) {
  TimedPoint a{TimePoint(0), {-3, 0}};
  TimedPoint b{TimePoint(10), {3, 0}};
  auto bead = LifelineBead::Create(a, b, 1.0).ValueOrDie();

  EXPECT_TRUE(bead.IntersectsPolygon(MakeRectangle(-1, -1, 1, 1)));
  // Polygon overlapping only the ellipse edge.
  EXPECT_TRUE(bead.IntersectsPolygon(MakeRectangle(4, -1, 10, 1)));
  // Disjoint polygon.
  EXPECT_FALSE(bead.IntersectsPolygon(MakeRectangle(6, 6, 10, 10)));
  // Polygon containing the whole ellipse.
  EXPECT_TRUE(bead.IntersectsPolygon(MakeRectangle(-100, -100, 100, 100)));
  // Near-miss at the minor axis.
  EXPECT_FALSE(bead.IntersectsPolygon(MakeRectangle(-1, 4.1, 1, 6)));
  EXPECT_TRUE(bead.IntersectsPolygon(MakeRectangle(-1, 3.9, 1, 6)));
}

TEST(BeadTest, CrossSection) {
  TimedPoint a{TimePoint(0), {0, 0}};
  TimedPoint b{TimePoint(10), {6, 0}};
  auto bead = LifelineBead::Create(a, b, 1.0).ValueOrDie();
  EXPECT_FALSE(bead.CrossSectionAt(TimePoint(-1)).has_value());
  auto mid = bead.CrossSectionAt(TimePoint(5));
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->center, Point(3, 0));
  // Slack: r0 = 5, straight-line need = 3 -> radius 2.
  EXPECT_DOUBLE_EQ(mid->radius, 2.0);
  auto start = bead.CrossSectionAt(TimePoint(0));
  ASSERT_TRUE(start.has_value());
  EXPECT_DOUBLE_EQ(start->radius, 0.0);
}

TEST(BeadTest, PossiblyPassesThroughWidensLit) {
  // Samples pass left of the region; LIT misses it but a fast object could
  // have detoured through it.
  auto sample = TrajectorySample::Create(
                    {{TimePoint(0), {0, 0}}, {TimePoint(10), {10, 0}}})
                    .ValueOrDie();
  Polygon region = MakeRectangle(4, 3, 6, 5);

  LinearTrajectory lit = LinearTrajectory::FromSample(sample).ValueOrDie();
  EXPECT_FALSE(PassesThrough(lit, region));

  // vmax barely above straight-line speed: cannot detour.
  EXPECT_FALSE(PossiblyPassesThrough(sample, 1.05, region).ValueOrDie());
  // Generous speed bound: the detour is feasible.
  EXPECT_TRUE(PossiblyPassesThrough(sample, 3.0, region).ValueOrDie());
}

TEST(BeadTest, LitInsideImpliesPossibly) {
  Random rng(66);
  Polygon region = MakeRectangle(20, 20, 50, 50);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<TimedPoint> pts;
    double t = 0.0;
    Point pos(rng.UniformDouble(0, 100), rng.UniformDouble(0, 100));
    for (int i = 0; i < 5; ++i) {
      pts.push_back({TimePoint(t), pos});
      double step_t = rng.UniformDouble(5, 10);
      Point next(rng.UniformDouble(0, 100), rng.UniformDouble(0, 100));
      t += step_t;
      pos = next;
    }
    auto sample = TrajectorySample::Create(pts).ValueOrDie();
    auto lit = LinearTrajectory::FromSample(sample).ValueOrDie();
    // Pick vmax = required max leg speed * 1.5 (consistent by construction).
    double vmax = 0.0;
    for (const auto& leg : lit.Legs()) {
      vmax = std::max(vmax, Distance(leg.p0, leg.p1) / leg.DurationOf());
    }
    vmax *= 1.5;
    vmax = std::max(vmax, 1e-9);
    if (PassesThrough(lit, region)) {
      EXPECT_TRUE(PossiblyPassesThrough(sample, vmax, region).ValueOrDie());
    }
  }
}

// Property suite: InsideIntervals agrees with dense sampling of
// Polygon::Contains at interpolated positions.
class TrajOpsProperty : public ::testing::TestWithParam<int> {};

TEST_P(TrajOpsProperty, InsideIntervalsMatchSampling) {
  Random rng(3000 + GetParam());
  Polygon region = geometry::MakeRegularPolygon(
      {rng.UniformDouble(30, 70), rng.UniformDouble(30, 70)},
      rng.UniformDouble(10, 25), static_cast<int>(rng.UniformInt(3, 8)));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TimedPoint> pts;
    double t = 0.0;
    for (int i = 0; i < 6; ++i) {
      pts.push_back({TimePoint(t),
                     {rng.UniformDouble(0, 100), rng.UniformDouble(0, 100)}});
      t += rng.UniformDouble(1, 10);
    }
    auto lit = FromPoints(pts);
    IntervalSet inside = InsideIntervals(lit, region);
    Interval domain = lit.TimeDomain();
    for (int k = 0; k < 300; ++k) {
      double probe =
          domain.begin.seconds + (domain.Length() * (k + 0.5)) / 300.0;
      Point pos = *lit.PositionAt(TimePoint(probe));
      bool expected = region.Contains(pos);
      bool near_cut = false;
      for (const Interval& iv : inside.intervals()) {
        if (std::abs(probe - iv.begin.seconds) < 1e-7 ||
            std::abs(probe - iv.end.seconds) < 1e-7) {
          near_cut = true;
        }
      }
      if (near_cut) {
        continue;
      }
      EXPECT_EQ(inside.Contains(TimePoint(probe)), expected) << probe;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrajOpsProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace piet::moving
