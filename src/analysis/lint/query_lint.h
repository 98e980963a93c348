#ifndef PIET_ANALYSIS_LINT_QUERY_LINT_H_
#define PIET_ANALYSIS_LINT_QUERY_LINT_H_

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/query_check.h"
#include "core/pietql/ast.h"

namespace piet::analysis::lint {

/// Abstract-interpretation findings over a parsed Piet-QL query against the
/// loaded schema, without evaluating anything. The dataflow itself is the
/// shared AnalyzePlan (analysis/plan_facts.h): the geometric part flows a
/// shrinking over-approximate satisfying set through the WHERE conjunction;
/// the moving-object part folds time predicates into the TimeAbstract
/// domain under the evaluator's semantics. Because every abstract step
/// over-approximates, each finding is a proof: a dead clause really matches
/// nothing, an empty region really selects nothing.
///
/// Check-ID catalog (stable; see DESIGN.md §11). Query findings are
/// warnings/notes — the query still evaluates, to an empty or trivial
/// result — so kStrict keeps accepting them:
///
///   lint-dead-clause          (warning) one clause matches no element /
///                             no instant by itself
///   lint-redundant-clause     (note) one clause provably filters nothing
///   lint-empty-region         (warning) the geo WHERE conjunction selects
///                             no geometry
///   lint-empty-time           (warning) the time predicate is
///                             unsatisfiable though each clause alone is not;
///                             like the evaluator it meets only the LAST
///                             T BETWEEN (a later window replaces an earlier
///                             one) with every TIME.<level> = clause
///   lint-contradictory-spatial (warning) a spatial MO condition can never
///                             hold (empty result region, empty NEAR layer,
///                             negative radius)
///   lint-fastpath-defeated    (note) mixing T BETWEEN with TIME.<level> =
///                             forces the row path instead of the
///                             SamplesMatchingTime binary-search fast path
///
/// Reuses the semantic analyzer's QueryContext; unknown layers/levels are
/// its findings and are skipped silently here.
DiagnosticList LintQuery(const QueryContext& context,
                         const core::pietql::Query& query);

/// Stable catalog of every lint check ID (query + schema groups), sorted —
/// golden-tested so renames are deliberate.
std::vector<std::string> AllLintCheckIds();

}  // namespace piet::analysis::lint

#endif  // PIET_ANALYSIS_LINT_QUERY_LINT_H_
