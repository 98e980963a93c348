#ifndef PIET_MOVING_TRAJ_OPS_H_
#define PIET_MOVING_TRAJ_OPS_H_

#include <vector>

#include "geometry/polygon.h"
#include "moving/moft.h"
#include "moving/trajectory.h"
#include "temporal/interval.h"

namespace piet::moving {

/// Trajectory–region operations. These are the evaluation kernels for the
/// paper's query types:
///  * sample semantics (type 4): only the observed points count;
///  * trajectory semantics (type 7): the linear interpolation between
///    samples counts too — an object crossing a region between two samples
///    (object O6 of Fig. 1) is detected.

/// The exact time intervals during which the interpolated trajectory lies
/// inside the *closed* polygon. Grazing contacts appear as zero-length
/// intervals.
temporal::IntervalSet InsideIntervals(const LinearTrajectory& trajectory,
                                      const geometry::Polygon& region);

/// True if the interpolated trajectory touches the closed region at any
/// time (the paper's "passes through").
bool PassesThrough(const LinearTrajectory& trajectory,
                   const geometry::Polygon& region);

/// Total time spent inside the closed region (type 7 / query 5).
temporal::Duration TimeInRegion(const LinearTrajectory& trajectory,
                                const geometry::Polygon& region);

/// True when no point of `leg` can come within `radius` of `center`: the
/// leg's bounding box, grown by |radius| plus a slack of 1e-6 times the
/// magnitudes involved, misses the center on some axis. The slack is far
/// above the rounding of SegmentWithinDistanceIntervals, so that kernel
/// returns nothing for any leg this rejects. False for NaN/inf inputs.
bool LegOutOfReach(const LinearTrajectory::Leg& leg, geometry::Point center,
                   double radius);

/// The time intervals during which the trajectory is within `radius` of
/// `center` (query 6: "within 100 m of a school"). Legs LegOutOfReach
/// rejects are skipped without running the kernel.
temporal::IntervalSet WithinDistanceIntervals(
    const LinearTrajectory& trajectory, geometry::Point center, double radius);

/// Sample semantics: the observed samples of `oid` lying inside the closed
/// region, optionally restricted to `window`.
std::vector<Sample> SamplesInRegion(const Moft& moft, ObjectId oid,
                                    const geometry::Polygon& region);

/// True if the whole interpolated trajectory stays inside the closed
/// region ("passing completely through", query 3's non-negated half).
bool StaysWithin(const LinearTrajectory& trajectory,
                 const geometry::Polygon& region);

/// Distance travelled while inside the region (type 8 trajectory
/// aggregation).
double DistanceTravelledInside(const LinearTrajectory& trajectory,
                               const geometry::Polygon& region);

/// Number of distinct entries into the region (maximal inside intervals
/// with positive approach from outside).
int EntryCount(const LinearTrajectory& trajectory,
               const geometry::Polygon& region);

}  // namespace piet::moving

#endif  // PIET_MOVING_TRAJ_OPS_H_
