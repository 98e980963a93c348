#include "moving/trajectory.h"

#include <algorithm>
#include <cmath>

namespace piet::moving {

using geometry::Point;
using temporal::Interval;
using temporal::TimePoint;

Result<TrajectorySample> TrajectorySample::Create(
    std::vector<TimedPoint> points) {
  for (size_t i = 1; i < points.size(); ++i) {
    if (!(points[i - 1].t < points[i].t)) {
      return Status::InvalidArgument(
          "trajectory sample timestamps must strictly increase (violated at "
          "index " +
          std::to_string(i) + ")");
    }
  }
  return TrajectorySample(std::move(points));
}

Result<TrajectorySample> TrajectorySample::FromMoft(const Moft& moft,
                                                    ObjectId oid) {
  return FromSpan(moft.SamplesOf(oid));
}

Result<TrajectorySample> TrajectorySample::FromSpan(const ObjectSpan& span) {
  if (span.empty()) {
    return Status::NotFound("object " + std::to_string(span.oid()) +
                            " has no samples");
  }
  std::vector<TimedPoint> points;
  points.reserve(span.size());
  for (const Sample& s : span) {
    points.push_back({s.t, s.pos});
  }
  return Create(std::move(points));
}

Result<Interval> TrajectorySample::TimeDomain() const {
  if (points_.empty()) {
    return Status::NotFound("empty trajectory sample");
  }
  return Interval(points_.front().t, points_.back().t);
}

bool TrajectorySample::IsClosed() const {
  return points_.size() >= 2 && points_.front().pos == points_.back().pos;
}

Point LinearTrajectory::Leg::At(TimePoint t) const {
  temporal::Duration span = t1 - t0;
  if (span <= 0.0) {
    return p0;
  }
  double u = (t - t0) / span;
  u = std::clamp(u, 0.0, 1.0);
  return p0 + (p1 - p0) * u;
}

Result<LinearTrajectory> LinearTrajectory::FromSample(TrajectorySample sample) {
  if (sample.empty()) {
    return Status::InvalidArgument("cannot interpolate an empty sample");
  }
  return LinearTrajectory(std::move(sample));
}

Interval LinearTrajectory::TimeDomain() const {
  return sample_.TimeDomain().ValueOrDie();
}

std::optional<Point> LinearTrajectory::PositionAt(TimePoint t) const {
  const auto& pts = sample_.points();
  if (t < pts.front().t || t > pts.back().t) {
    return std::nullopt;
  }
  // Binary search for the leg containing t.
  auto it = std::lower_bound(
      pts.begin(), pts.end(), t,
      [](const TimedPoint& a, TimePoint v) { return a.t < v; });
  if (it == pts.begin()) {
    return pts.front().pos;
  }
  if (it == pts.end()) {
    return pts.back().pos;
  }
  const TimedPoint& hi = *it;
  const TimedPoint& lo = *(it - 1);
  Leg leg{lo.t, hi.t, lo.pos, hi.pos};
  return leg.At(t);
}

double LinearTrajectory::Length() const {
  double total = 0.0;
  const auto& pts = sample_.points();
  for (size_t i = 1; i < pts.size(); ++i) {
    total += Distance(pts[i - 1].pos, pts[i].pos);
  }
  return total;
}

double LinearTrajectory::LengthDuring(const Interval& interval) const {
  double total = 0.0;
  for (const Leg& leg : Legs()) {
    TimePoint lo = std::max(leg.t0, interval.begin);
    TimePoint hi = std::min(leg.t1, interval.end);
    if (!(lo < hi)) {
      continue;
    }
    double frac = (hi - lo) / leg.DurationOf();
    total += Distance(leg.p0, leg.p1) * frac;
  }
  return total;
}

double LinearTrajectory::AverageSpeed() const {
  Interval domain = TimeDomain();
  temporal::Duration span = domain.Length();
  if (span <= 0.0) {
    return 0.0;
  }
  return Length() / span;
}

Result<geometry::Polyline> LinearTrajectory::AsPolyline() const {
  std::vector<Point> verts;
  for (const TimedPoint& tp : sample_.points()) {
    // Collapse consecutive duplicates (stationary legs).
    if (verts.empty() || !(verts.back() == tp.pos)) {
      verts.push_back(tp.pos);
    }
  }
  return geometry::Polyline::Create(std::move(verts));
}

double Polynomial::Eval(double t) const {
  double acc = 0.0;
  for (size_t i = coefficients_.size(); i-- > 0;) {
    acc = acc * t + coefficients_[i];
  }
  return acc;
}

namespace {

double EvalRational(const Polynomial& num, const Polynomial& den, double t) {
  double n = num.Eval(t);
  if (den.coefficients().empty()) {
    return n;
  }
  double d = den.Eval(t);
  if (d == 0.0) {
    return n >= 0 ? std::numeric_limits<double>::infinity()
                  : -std::numeric_limits<double>::infinity();
  }
  return n / d;
}

Point PieceAt(const PolynomialTrajectory::Piece& piece, double t) {
  return Point(EvalRational(piece.px, piece.qx, t),
               EvalRational(piece.py, piece.qy, t));
}

}  // namespace

Result<PolynomialTrajectory> PolynomialTrajectory::Create(
    std::vector<Piece> pieces) {
  if (pieces.empty()) {
    return Status::InvalidArgument("trajectory needs at least one piece");
  }
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (!(pieces[i].t0 < pieces[i].t1)) {
      return Status::InvalidArgument("piece " + std::to_string(i) +
                                     " has an empty time interval");
    }
    if (i > 0) {
      if (pieces[i - 1].t1 != pieces[i].t0) {
        return Status::InvalidArgument("pieces are not contiguous in time");
      }
      Point left = PieceAt(pieces[i - 1], pieces[i - 1].t1.seconds);
      Point right = PieceAt(pieces[i], pieces[i].t0.seconds);
      if (Distance(left, right) > 1e-9) {
        return Status::InvalidArgument(
            "trajectory is discontinuous at a piece junction");
      }
    }
  }
  return PolynomialTrajectory(std::move(pieces));
}

Interval PolynomialTrajectory::TimeDomain() const {
  return Interval(pieces_.front().t0, pieces_.back().t1);
}

std::optional<Point> PolynomialTrajectory::PositionAt(TimePoint t) const {
  for (const Piece& piece : pieces_) {
    if (piece.t0 <= t && t <= piece.t1) {
      return PieceAt(piece, t.seconds);
    }
  }
  return std::nullopt;
}

Result<TrajectorySample> PolynomialTrajectory::Discretize(
    int points_per_piece) const {
  if (points_per_piece < 2) {
    return Status::InvalidArgument("need >= 2 points per piece");
  }
  std::vector<TimedPoint> points;
  for (size_t pi = 0; pi < pieces_.size(); ++pi) {
    const Piece& piece = pieces_[pi];
    int start = (pi == 0) ? 0 : 1;  // Avoid duplicating junction points.
    for (int i = start; i < points_per_piece; ++i) {
      double u = static_cast<double>(i) / (points_per_piece - 1);
      double t = piece.t0.seconds + u * (piece.t1.seconds - piece.t0.seconds);
      points.push_back({TimePoint(t), PieceAt(piece, t)});
    }
  }
  return TrajectorySample::Create(std::move(points));
}

}  // namespace piet::moving
