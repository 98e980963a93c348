#ifndef PIET_MOVING_TRAJECTORY_H_
#define PIET_MOVING_TRAJECTORY_H_

#include <cstddef>
#include <iterator>
#include <optional>
#include <vector>

#include "common/result.h"
#include "geometry/polyline.h"
#include "geometry/segment.h"
#include "moving/moft.h"
#include "temporal/interval.h"

namespace piet::moving {

/// One time-stamped point of a trajectory sample (Def. 6).
struct TimedPoint {
  temporal::TimePoint t;
  geometry::Point pos;
};

/// A trajectory sample (Def. 6): time-space points with strictly
/// increasing timestamps.
class TrajectorySample {
 public:
  TrajectorySample() = default;

  /// Validates strict time ordering.
  static Result<TrajectorySample> Create(std::vector<TimedPoint> points);

  /// Builds from one object's MOFT rows.
  static Result<TrajectorySample> FromMoft(const Moft& moft, ObjectId oid);

  /// Builds from one object's column span (as handed out by
  /// Moft::SamplesOf / SpanAt) without touching the rest of the table.
  static Result<TrajectorySample> FromSpan(const ObjectSpan& span);

  const std::vector<TimedPoint>& points() const { return points_; }
  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  /// [t_0, t_N].
  Result<temporal::Interval> TimeDomain() const;

  /// Closed per the paper: first and last positions coincide.
  bool IsClosed() const;

 private:
  explicit TrajectorySample(std::vector<TimedPoint> points)
      : points_(std::move(points)) {}

  std::vector<TimedPoint> points_;
};

/// A trajectory (Def. 5): the graph of a continuous mapping
/// t -> (βx(t), βy(t)) over a time interval.
class Trajectory {
 public:
  virtual ~Trajectory() = default;

  /// The time domain I.
  virtual temporal::Interval TimeDomain() const = 0;

  /// β(t); nullopt outside the time domain.
  virtual std::optional<geometry::Point> PositionAt(
      temporal::TimePoint t) const = 0;
};

/// The linear-interpolation trajectory LIT(S) (Sec. 3): constant lowest
/// speed between consecutive sample points. The workhorse trajectory model
/// for query types 6 and 7.
class LinearTrajectory : public Trajectory {
 public:
  /// One interpolation leg: the object moves from `p0` at `t0` to `p1` at
  /// `t1` along the straight segment.
  struct Leg {
    temporal::TimePoint t0;
    temporal::TimePoint t1;
    geometry::Point p0;
    geometry::Point p1;

    geometry::Segment AsSegment() const { return {p0, p1}; }
    temporal::Duration DurationOf() const { return t1 - t0; }
    /// Position at t in [t0, t1] under constant speed.
    geometry::Point At(temporal::TimePoint t) const;
  };

  /// Non-owning view of the interpolation legs: leg i joins sample points
  /// i and i+1 and is built on access, so walking the legs allocates
  /// nothing. Borrows the trajectory; must not outlive it.
  class LegRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Leg;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Leg;

      iterator() = default;
      explicit iterator(const TimedPoint* p) : p_(p) {}

      Leg operator*() const {
        return {p_[0].t, p_[1].t, p_[0].pos, p_[1].pos};
      }
      iterator& operator++() {
        ++p_;
        return *this;
      }
      friend bool operator==(iterator a, iterator b) { return a.p_ == b.p_; }
      friend bool operator!=(iterator a, iterator b) { return !(a == b); }

     private:
      const TimedPoint* p_ = nullptr;
    };

    LegRange(const TimedPoint* points, size_t num_points)
        : points_(points), size_(num_points >= 2 ? num_points - 1 : 0) {}

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Leg operator[](size_t i) const { return *iterator(points_ + i); }
    iterator begin() const { return iterator(points_); }
    iterator end() const { return iterator(points_ + size_); }

   private:
    const TimedPoint* points_;
    size_t size_;
  };

  /// Requires >= 1 point.
  static Result<LinearTrajectory> FromSample(TrajectorySample sample);

  temporal::Interval TimeDomain() const override;
  std::optional<geometry::Point> PositionAt(
      temporal::TimePoint t) const override;

  const TrajectorySample& sample() const { return sample_; }
  /// The N interpolation legs (size()-1 of them).
  LegRange Legs() const {
    return LegRange(sample_.points().data(), sample_.size());
  }

  /// Total travelled distance (sum of leg lengths).
  double Length() const;

  /// Travelled distance within [interval.begin, interval.end].
  double LengthDuring(const temporal::Interval& interval) const;

  /// Average speed over the whole time domain (0 for instant domains).
  double AverageSpeed() const;

  /// The image of the trajectory as a static polyline (query type 6's
  /// "trajectory as a spatial object"). Fails when all points coincide.
  Result<geometry::Polyline> AsPolyline() const;

  bool IsClosed() const { return sample_.IsClosed(); }

 private:
  explicit LinearTrajectory(TrajectorySample sample)
      : sample_(std::move(sample)) {}

  TrajectorySample sample_;
};

/// A univariate polynomial with double coefficients, c0 + c1 t + c2 t^2 ...
class Polynomial {
 public:
  Polynomial() = default;
  explicit Polynomial(std::vector<double> coefficients)
      : coefficients_(std::move(coefficients)) {}

  double Eval(double t) const;
  const std::vector<double>& coefficients() const { return coefficients_; }

 private:
  std::vector<double> coefficients_;
};

/// A semi-algebraic trajectory in the spirit of Def. 5: piecewise
/// polynomial βx, βy over consecutive time pieces. Covers the paper's
/// quarter-circle example (via its rational parameterization approximated
/// polynomially or given exactly as a RationalPiece).
class PolynomialTrajectory : public Trajectory {
 public:
  /// One piece over [t0, t1]: x(t) = px(t)/qx(t), y(t) = py(t)/qy(t).
  /// Plain polynomial pieces use the constant-1 denominator.
  struct Piece {
    temporal::TimePoint t0;
    temporal::TimePoint t1;
    Polynomial px;
    Polynomial qx;  ///< Denominator; empty means 1.
    Polynomial py;
    Polynomial qy;  ///< Denominator; empty means 1.
  };

  /// Pieces must be contiguous in time and continuous at junctions.
  static Result<PolynomialTrajectory> Create(std::vector<Piece> pieces);

  temporal::Interval TimeDomain() const override;
  std::optional<geometry::Point> PositionAt(
      temporal::TimePoint t) const override;

  /// Discretizes into a trajectory sample with `points_per_piece` samples
  /// per piece (>= 2) — the bridge from the algebraic model to LIT-based
  /// evaluation.
  Result<TrajectorySample> Discretize(int points_per_piece) const;

  const std::vector<Piece>& pieces() const { return pieces_; }

 private:
  explicit PolynomialTrajectory(std::vector<Piece> pieces)
      : pieces_(std::move(pieces)) {}

  std::vector<Piece> pieces_;
};

}  // namespace piet::moving

#endif  // PIET_MOVING_TRAJECTORY_H_
