#ifndef PIET_TESTS_MOVING_TEST_UTIL_H_
#define PIET_TESTS_MOVING_TEST_UTIL_H_

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "geometry/segment_polygon.h"
#include "moving/moft.h"
#include "moving/moft_columns.h"
#include "moving/trajectory.h"
#include "temporal/interval.h"

namespace piet::moving {

/// Materializes every sample of `moft` as a row vector, in (oid, t) scan
/// order. Test/bench helper only — this is deliberately NOT a Moft method
/// anymore so no query path can quietly regain a whole-table row copy
/// (scripts/check.sh --lint greps src/ for AllSamples call sites).
inline std::vector<Sample> AllSamplesOf(const Moft& moft) {
  const MoftColumns& cols = moft.Columns();
  std::vector<Sample> out;
  out.reserve(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    out.push_back(cols.at(i));
  }
  return out;
}

/// WithinDistanceIntervals without its per-leg LegOutOfReach skip: the
/// distance kernel on every leg, pieces mapped to time and clamped to
/// their leg the same way. The reference for the skip's tests.
inline temporal::IntervalSet WithinDistanceUnfiltered(
    const LinearTrajectory& lit, geometry::Point c, double r) {
  std::vector<temporal::Interval> pieces;
  for (const LinearTrajectory::Leg& leg : lit.Legs()) {
    const double span = leg.DurationOf();
    for (const geometry::ParamInterval& iv :
         geometry::SegmentWithinDistanceIntervals(leg.AsSegment(), c, r)) {
      pieces.emplace_back(
          temporal::TimePoint(
              std::min(leg.t0.seconds + iv.t0 * span, leg.t1.seconds)),
          temporal::TimePoint(
              std::min(leg.t0.seconds + iv.t1 * span, leg.t1.seconds)));
    }
  }
  if (lit.sample().size() == 1) {
    const TimedPoint& tp = lit.sample().points().front();
    if (Distance(tp.pos, c) <= r) {
      pieces.emplace_back(tp.t, tp.t);
    }
  }
  return temporal::IntervalSet(std::move(pieces));
}

/// A read-only MOFT holding a NaN x coordinate. Moft::Add refuses
/// non-finite samples, but block files carry no checksum, so a corrupted
/// file is how such a table can still arrive: this saves a two-sample
/// table to `path`, overwrites the stored bits of the first x (1234.56789,
/// written verbatim because the codec predicts a span's first value from
/// 0.0) with a NaN, and opens the file again.
inline Result<Moft> OpenMoftWithNanX(const std::string& path) {
  constexpr double kX = 1234.56789;
  Moft good;
  PIET_RETURN_NOT_OK(good.Add(1, temporal::TimePoint(0.0), {kX, 2.0}));
  PIET_RETURN_NOT_OK(good.Add(1, temporal::TimePoint(1.0), {kX + 1.0, 2.0}));
  PIET_RETURN_NOT_OK(good.Save(path));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  char pattern[sizeof(double)];
  std::memcpy(pattern, &kX, sizeof(double));
  // The block directory (x zonemap) precedes the payloads; the last
  // match is the payload's copy.
  const size_t at = bytes.rfind(std::string(pattern, sizeof(double)));
  if (at == std::string::npos) {
    return Status::NotFound("first x not stored verbatim in " + path);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bytes.data() + at, &nan, sizeof(double));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  return Moft::Open(path);
}

}  // namespace piet::moving

#endif  // PIET_TESTS_MOVING_TEST_UTIL_H_
