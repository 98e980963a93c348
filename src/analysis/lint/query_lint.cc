#include "analysis/lint/query_lint.h"

#include <string>

#include "analysis/lint/time_domain.h"
#include "analysis/plan_facts.h"
#include "temporal/time_dimension.h"

namespace piet::analysis::lint {

namespace pietql = core::pietql;

namespace {

/// Turns the geometric facts into per-clause and region findings. The
/// satisfying sets over-approximate (bounding boxes for spatial clauses),
/// so an empty set is a proof of deadness; only exact sets prove a clause
/// redundant.
void LintGeoPart(const pietql::GeoQuery& geo, const GeoFacts& facts,
                 DiagnosticList* out) {
  if (!facts.anchored) {
    return;  // query-unknown-layer territory, or a shape evaluation rejects.
  }
  for (size_t i = 0; i < facts.clauses.size(); ++i) {
    const GeoClauseFacts& clause = facts.clauses[i];
    if (!clause.resolved) {
      continue;
    }
    if (clause.satisfying.empty()) {
      out->AddWarning("lint-dead-clause", GeoClauseEntity(i, geo.where[i]),
                      "no element of layer '" + facts.result_name +
                          "' can satisfy this clause; it always filters "
                          "everything");
    } else if (clause.redundant) {
      out->AddNote("lint-redundant-clause", GeoClauseEntity(i, geo.where[i]),
                   "every remaining element satisfies this clause; it "
                   "filters nothing",
                   "drop this clause");
    }
  }
  if (facts.ProvesEmpty()) {
    out->AddWarning("lint-empty-region", "geo WHERE clauses",
                    "the conjunction provably selects no geometry of layer "
                    "'" + facts.result_name + "'; the result region is empty");
  }
}

}  // namespace

DiagnosticList LintQuery(const QueryContext& context,
                         const pietql::Query& query) {
  DiagnosticList out;
  const PlanFacts facts = AnalyzePlan(context.gis, query);
  LintGeoPart(query.geo, facts.geo, &out);
  if (!query.mo) {
    return out;
  }
  const pietql::MoQuery& mo = *query.mo;

  bool any_time_dead = false;
  size_t rollup_equals = 0;
  size_t next_rollup = 0;  // Index into facts.mo.rollup_folds.
  std::string fastpath_fixit;
  for (size_t i = 0; i < mo.where.size(); ++i) {
    const pietql::MoCondition& cond = mo.where[i];
    const std::string entity = MoClauseEntity(i);
    switch (cond.kind) {
      case pietql::MoCondition::Kind::kTimeBetween: {
        if (cond.t1 < cond.t0) {
          any_time_dead = true;
          out.AddWarning("lint-dead-clause", entity + " (T BETWEEN)",
                         "empty time window: upper bound " +
                             FormatNumber(cond.t1) +
                             " precedes lower bound " + FormatNumber(cond.t0),
                         "T BETWEEN " + FormatNumber(cond.t1) + " AND " +
                             FormatNumber(cond.t0));
        }
        break;
      }
      case pietql::MoCondition::Kind::kTimeEquals: {
        const TimeFold fold = facts.mo.rollup_folds[next_rollup++];
        if (!temporal::TimeDimension::HasLevel(cond.time_level)) {
          break;  // query-unknown-time-level territory.
        }
        ++rollup_equals;  // Any rollup-equality disables window_only().
        const std::string clause_entity =
            entity + " (TIME." + cond.time_level + ")";
        const std::string clause =
            "TIME." + cond.time_level + " = " + cond.literal.ToString();
        switch (fold) {
          case TimeFold::kDead:
            any_time_dead = true;
            out.AddWarning("lint-dead-clause", clause_entity,
                           clause + " matches no instant; " +
                               cond.literal.ToString() +
                               " is not a member of this level");
            break;
          case TimeFold::kAlways:
            out.AddNote("lint-redundant-clause", clause_entity,
                        clause + " holds at every instant",
                        "drop this clause");
            break;
          case TimeFold::kFolded:
          case TimeFold::kUnknown:
            break;
        }
        if (fastpath_fixit.empty()) {
          const auto window =
              TimeAbstract::LevelEqualsWindow(cond.time_level, cond.literal);
          if (window) {
            fastpath_fixit = "rewrite " + clause + " as T BETWEEN " +
                             FormatNumber(window->begin.seconds) + " AND " +
                             FormatNumber(window->end.seconds);
          }
        }
        break;
      }
      case pietql::MoCondition::Kind::kNearLayer: {
        const std::string clause_entity =
            entity + " (NEAR layer." + cond.near_layer + ")";
        const gis::Layer* near = ResolveLayer(context.gis, cond.near_layer);
        if (cond.radius < 0.0) {
          out.AddWarning("lint-contradictory-spatial", clause_entity,
                         "radius " + FormatNumber(cond.radius) +
                             " is negative; no sample is ever within a "
                             "negative distance");
        } else if (near != nullptr && near->size() == 0) {
          out.AddWarning("lint-contradictory-spatial", clause_entity,
                         "layer '" + cond.near_layer +
                             "' has no elements; NEAR can never hold");
        }
        break;
      }
      case pietql::MoCondition::Kind::kInsideResult:
      case pietql::MoCondition::Kind::kPassesThroughResult: {
        if (facts.geo.ProvesEmpty()) {
          out.AddWarning(
              "lint-contradictory-spatial",
              entity + (cond.kind == pietql::MoCondition::Kind::kInsideResult
                            ? " (INSIDE RESULT)"
                            : " (PASSES THROUGH RESULT)"),
              "the geometric part provably selects no geometry, so this "
              "condition can never hold");
        }
        break;
      }
    }
  }
  if (facts.mo.time.IsBottom() && !any_time_dead) {
    out.AddWarning("lint-empty-time", "mo WHERE clauses",
                   "the time predicates are individually satisfiable but "
                   "their conjunction matches no instant");
  }
  if (!facts.mo.windows.empty() && rollup_equals > 0) {
    out.AddNote("lint-fastpath-defeated", "mo WHERE clauses",
                "mixing T BETWEEN with TIME.<level> = disables the "
                "window-only SamplesMatchingTime binary-search fast path; "
                "every sample is tested row by row",
                fastpath_fixit);
  }
  return out;
}

std::vector<std::string> AllLintCheckIds() {
  return {
      "lint-alpha-dangling",
      "lint-alpha-functional",
      "lint-att-binding",
      "lint-contradictory-spatial",
      "lint-dead-clause",
      "lint-empty-region",
      "lint-empty-time",
      "lint-fastpath-defeated",
      "lint-graph-cycle",
      "lint-graph-shape",
      "lint-parse-error",
      "lint-redundant-clause",
      "lint-rollup-composition",
      "lint-rollup-dangling",
      "lint-rollup-functional",
      "lint-rollup-total",
      "lint-summability",
  };
}

}  // namespace piet::analysis::lint
