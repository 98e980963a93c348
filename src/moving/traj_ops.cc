#include "moving/traj_ops.h"

#include <algorithm>
#include <cmath>

#include "geometry/segment_polygon.h"

namespace piet::moving {

using geometry::ParamInterval;
using geometry::Polygon;
using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimePoint;

namespace {

/// The time interval of the leg parameters `iv`. t0 + u * (t1 - t0) can
/// round past t1 when t1 - t0 is inexact, so both ends are clamped to the
/// leg's own interval: every piece of leg k lies in [t_k, t_{k+1}], which
/// is what makes the scan's time-window clip exact (DESIGN.md §8). On time
/// columns whose leg durations subtract exactly (e.g. integral seconds)
/// the clamp never fires.
Interval LegPiece(const LinearTrajectory::Leg& leg, const ParamInterval& iv) {
  const temporal::Duration span = leg.DurationOf();
  return Interval(
      TimePoint(std::min(leg.t0.seconds + iv.t0 * span, leg.t1.seconds)),
      TimePoint(std::min(leg.t0.seconds + iv.t1 * span, leg.t1.seconds)));
}

}  // namespace

IntervalSet InsideIntervals(const LinearTrajectory& trajectory,
                            const Polygon& region) {
  std::vector<Interval> pieces;
  for (const LinearTrajectory::Leg& leg : trajectory.Legs()) {
    for (const ParamInterval& iv :
         geometry::SegmentInsideIntervals(leg.AsSegment(), region)) {
      pieces.push_back(LegPiece(leg, iv));
    }
  }
  // A single-point trajectory (one sample) has no legs; handle directly.
  if (trajectory.sample().size() == 1) {
    const TimedPoint& tp = trajectory.sample().points().front();
    if (region.Contains(tp.pos)) {
      pieces.emplace_back(tp.t, tp.t);
    }
  }
  return IntervalSet(std::move(pieces));
}

bool PassesThrough(const LinearTrajectory& trajectory, const Polygon& region) {
  if (!trajectory.sample().empty()) {
    // Cheap pre-check on the sampled points.
    for (const TimedPoint& tp : trajectory.sample().points()) {
      if (region.Contains(tp.pos)) {
        return true;
      }
    }
  }
  for (const LinearTrajectory::Leg& leg : trajectory.Legs()) {
    if (geometry::SegmentIntersectsPolygon(leg.AsSegment(), region)) {
      return true;
    }
  }
  return false;
}

temporal::Duration TimeInRegion(const LinearTrajectory& trajectory,
                                const Polygon& region) {
  return InsideIntervals(trajectory, region).TotalLength();
}

bool LegOutOfReach(const LinearTrajectory::Leg& leg, geometry::Point center,
                   double radius) {
  // Chebyshev gap between the center and the leg's bounding box; any point
  // of the leg is at least this far from the center.
  const double gap =
      std::max({std::min(leg.p0.x, leg.p1.x) - center.x,
                center.x - std::max(leg.p0.x, leg.p1.x),
                std::min(leg.p0.y, leg.p1.y) - center.y,
                center.y - std::max(leg.p0.y, leg.p1.y)});
  // SegmentWithinDistanceIntervals solves a quadratic in the leg
  // parameter. Its rounding can admit a leg that misses the radius by up
  // to about sqrt(eps) ~ 1.5e-8 times the magnitudes it works with (the
  // coordinates and the radius), so the slack is 1e-6 of their sum. The
  // kernel squares the radius, hence |radius|; a NaN or infinite input
  // makes the comparison false and the leg is kept.
  const double scale = std::abs(radius) + std::abs(center.x) +
                       std::abs(center.y) + std::abs(leg.p0.x) +
                       std::abs(leg.p0.y) + std::abs(leg.p1.x) +
                       std::abs(leg.p1.y);
  return gap > std::abs(radius) + 1e-6 * scale;
}

IntervalSet WithinDistanceIntervals(const LinearTrajectory& trajectory,
                                    geometry::Point center, double radius) {
  std::vector<Interval> pieces;
  for (const LinearTrajectory::Leg& leg : trajectory.Legs()) {
    if (LegOutOfReach(leg, center, radius)) {
      continue;
    }
    for (const ParamInterval& iv : geometry::SegmentWithinDistanceIntervals(
             leg.AsSegment(), center, radius)) {
      pieces.push_back(LegPiece(leg, iv));
    }
  }
  if (trajectory.sample().size() == 1) {
    const TimedPoint& tp = trajectory.sample().points().front();
    if (Distance(tp.pos, center) <= radius) {
      pieces.emplace_back(tp.t, tp.t);
    }
  }
  return IntervalSet(std::move(pieces));
}

std::vector<Sample> SamplesInRegion(const Moft& moft, ObjectId oid,
                                    const Polygon& region) {
  std::vector<Sample> out;
  for (const Sample& s : moft.SamplesOf(oid)) {
    if (region.Contains(s.pos)) {
      out.push_back(s);
    }
  }
  return out;
}

bool StaysWithin(const LinearTrajectory& trajectory, const Polygon& region) {
  Interval domain = trajectory.TimeDomain();
  IntervalSet inside = InsideIntervals(trajectory, region);
  return inside.Contains(domain.begin) && inside.Contains(domain.end) &&
         inside.TotalLength() >= domain.Length() - 1e-12;
}

double DistanceTravelledInside(const LinearTrajectory& trajectory,
                               const Polygon& region) {
  double total = 0.0;
  for (const LinearTrajectory::Leg& leg : trajectory.Legs()) {
    double leg_len = Distance(leg.p0, leg.p1);
    if (leg_len == 0.0) {
      continue;
    }
    for (const ParamInterval& iv :
         geometry::SegmentInsideIntervals(leg.AsSegment(), region)) {
      total += leg_len * iv.Length();
    }
  }
  return total;
}

int EntryCount(const LinearTrajectory& trajectory, const Polygon& region) {
  IntervalSet inside = InsideIntervals(trajectory, region);
  return static_cast<int>(inside.size());
}

}  // namespace piet::moving
