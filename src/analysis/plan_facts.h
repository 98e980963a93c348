#ifndef PIET_ANALYSIS_PLAN_FACTS_H_
#define PIET_ANALYSIS_PLAN_FACTS_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "analysis/lint/time_domain.h"
#include "common/value.h"
#include "core/pietql/ast.h"
#include "gis/instance.h"
#include "gis/layer.h"

namespace piet::analysis {

/// Evaluates `lhs op rhs` exactly as the evaluator's ATTR filter does
/// (Value's total order).
bool CompareValues(const Value& lhs, core::pietql::CompareOp op,
                   const Value& rhs);

/// Shortest round-trip rendering, matching the printer (no 6-digit
/// truncation): "50", "1.5", "189493200".
std::string FormatNumber(double v);

/// The layer `name` of `gis`; null when `gis` is null or has no such layer.
const gis::Layer* ResolveLayer(const gis::GisDimensionInstance* gis,
                               const std::string& name);

/// How diagnostics, rewrites and EXPLAIN output name the `index`-th
/// (0-based) geometric clause: "geo WHERE clause 2 (ATTR layer.Ln, income)".
std::string GeoClauseEntity(size_t index,
                            const core::pietql::GeoCondition& cond);

/// "mo WHERE clause 3" for the `index`-th (0-based) moving-object clause.
std::string MoClauseEntity(size_t index);

/// One geometric WHERE clause's satisfying set over the whole result layer.
struct GeoClauseFacts {
  /// Sorted ids of the result layer that can satisfy the clause. ATTR
  /// comparisons are exact. Spatial clauses keep every id whose bounding
  /// box meets an R-tree candidate of the other layer, a superset of the
  /// exact hits; CONTAINS over a non-polygon result layer keeps nothing,
  /// exactly like the evaluator (every per-pair test fails).
  std::vector<gis::GeometryId> satisfying;
  bool exact = false;
  /// False when a spatial clause's other layer does not resolve; the
  /// evaluator then errors, and `satisfying` stays empty.
  bool resolved = true;
  /// Exact, and every id of the running conjunction before this clause
  /// satisfies it: the clause filters nothing from any position.
  bool redundant = false;
  const gis::Layer* other = nullptr;  ///< A spatial clause's other layer.
};

/// The geometric part, flowed as the evaluator's EvaluateGeoPart runs it.
struct GeoFacts {
  std::string result_name;            ///< First SELECT layer; "" if none.
  const gis::Layer* layer = nullptr;  ///< The resolved result layer.
  /// The result layer resolves and every clause constrains it, which are
  /// the shapes the evaluator accepts. Only then are `clauses` and
  /// `region` filled.
  bool anchored = false;
  std::vector<GeoClauseFacts> clauses;
  /// Sorted conjunction of the layer's ids and every resolved clause's
  /// satisfying set.
  std::vector<gis::GeometryId> region;
  bool resolved = true;  ///< Every clause's other layer resolves.
  bool exact = true;     ///< Every clause is exact: `region` is the answer.

  /// The conjunction provably selects no geometry, and evaluating it
  /// cannot error.
  bool ProvesEmpty() const {
    return anchored && resolved && !clauses.empty() && region.empty();
  }
};

/// The moving-object part, split the way the evaluator builds its
/// TimePredicate and picks its spatial clause: rollup equalities
/// accumulate, and a later T BETWEEN replaces an earlier one.
struct MoFacts {
  bool inside = false;        ///< INSIDE RESULT present.
  bool passes = false;        ///< PASSES THROUGH RESULT present.
  std::optional<size_t> near;  ///< Index of the last NEAR clause.
  std::vector<size_t> windows;  ///< Every T BETWEEN index, in clause order.
  std::vector<size_t> rollups;  ///< Every TIME.<level> = index.
  /// Each rollup's fold on its own (kDead / kAlways / ...), parallel to
  /// `rollups`.
  std::vector<lint::TimeFold> rollup_folds;
  bool sub_hour_rollup = false;  ///< A rollup on timeId or minute.
  /// The meet of the last window (inverted or not) and every rollup
  /// equality. Bottom proves that no instant matches.
  lint::TimeAbstract time;

  /// The T BETWEEN the evaluator keeps: the last one.
  std::optional<size_t> last_window() const {
    return windows.empty() ? std::nullopt
                           : std::optional<size_t>(windows.back());
  }
  /// INSIDE, PASSES THROUGH and NEAR present; the evaluator rejects > 1.
  int spatial_modes() const {
    return (inside ? 1 : 0) + (passes ? 1 : 0) + (near ? 1 : 0);
  }
};

/// What the static passes (lint, rewrite, estimate) know about one query
/// before anything runs. Each pass derives these facts once and only turns
/// them into findings, rewrites or bounds.
struct PlanFacts {
  GeoFacts geo;
  MoFacts mo;  ///< Default (no clause) without a moving-object part.
};

MoFacts AnalyzeMo(const core::pietql::MoQuery& mo);

PlanFacts AnalyzePlan(const gis::GisDimensionInstance* gis,
                      const core::pietql::Query& query);

}  // namespace piet::analysis

#endif  // PIET_ANALYSIS_PLAN_FACTS_H_
