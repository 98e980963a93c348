#include "analysis/rewrite/rewriter.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/lint/time_domain.h"
#include "analysis/plan_facts.h"
#include "gis/layer.h"
#include "temporal/interval.h"

namespace piet::analysis::rewrite {

namespace pietql = core::pietql;
using gis::Layer;
using temporal::Interval;
using temporal::TimePoint;

namespace {

/// Fraction of overlay cells carrying any label of `layer` — the Sec. 5
/// precomputation as a selectivity statistic. 1.0 (no refinement) when
/// there is no overlay or the layer is not part of it.
double OverlayCoverage(const RewriteContext& context, const Layer* layer) {
  const gis::OverlayDb* overlay = context.overlay;
  if (overlay == nullptr || overlay->num_cells() == 0) {
    return 1.0;
  }
  size_t layer_idx = overlay->layers().size();
  for (size_t i = 0; i < overlay->layers().size(); ++i) {
    if (overlay->layers()[i] == layer) {
      layer_idx = i;
      break;
    }
  }
  if (layer_idx == overlay->layers().size()) {
    return 1.0;
  }
  size_t labeled = 0;
  for (size_t i = 0; i < overlay->num_cells(); ++i) {
    bool has = false;
    for (const gis::OverlayLabel& label : overlay->CellCovered(i)) {
      if (label.layer == layer_idx) {
        has = true;
        break;
      }
    }
    if (!has) {
      for (const gis::OverlayLabel& label : overlay->CellCandidates(i)) {
        if (label.layer == layer_idx) {
          has = true;
          break;
        }
      }
    }
    if (has) {
      ++labeled;
    }
  }
  return static_cast<double>(labeled) /
         static_cast<double>(overlay->num_cells());
}

/// Whether `layer` is one of the overlay's labelled layers (i.e. point
/// location — and the aggregate cache built on it — can serve the layer).
bool OverlayHasLayer(const RewriteContext& context, const Layer* layer) {
  if (context.overlay == nullptr) {
    return false;
  }
  for (const Layer* l : context.overlay->layers()) {
    if (l == layer) {
      return true;
    }
  }
  return false;
}

/// Rewrites the geometric part in place: drops provably redundant ATTR
/// clauses, proves the region empty, and orders surviving clauses by
/// estimated cost/selectivity. Abstains (leaves the part untouched) in
/// every shape where the evaluator reports an error — a rewrite must never
/// suppress one.
void RewriteGeoPart(const RewriteContext& context, const GeoFacts& facts,
                    RewritePlan* plan) {
  pietql::GeoQuery& geo = plan->query.geo;
  plan->geo_clauses_before = geo.where.size();
  plan->geo_clauses_after = geo.where.size();
  if (!facts.anchored) {
    return;  // Evaluation errors out; nothing to optimize.
  }

  // 0 = exact attribute test, 1 = overlay/cache-servable spatial test,
  // 2 = plain geometric test. Spatial clauses only split into 1 vs 2 when
  // context.agg_cache is set; otherwise they all land in class 2, so the
  // flag being off keeps the ordering byte-identical to the pre-cache
  // rewriter (comparisons are relative).
  struct Rank {
    int cost_class = 2;
    double selectivity = 1.0;
  };
  const double universe =
      static_cast<double>(std::max<size_t>(facts.layer->ids().size(), 1));
  std::vector<Rank> ranks(geo.where.size());
  std::vector<size_t> order;
  for (size_t i = 0; i < geo.where.size(); ++i) {
    const GeoClauseFacts& clause = facts.clauses[i];
    Rank& rank = ranks[i];
    if (geo.where[i].kind == pietql::GeoCondition::Kind::kAttrCompare) {
      rank.cost_class = 0;
    } else if (clause.resolved) {
      rank.selectivity = OverlayCoverage(context, clause.other);
      if (context.agg_cache && OverlayHasLayer(context, clause.other)) {
        // The aggregate cache answers overlay-covered layers from
        // materialized partials — cheaper than a geometric test, so
        // prefer (but never reorder past an exact attribute test).
        rank.cost_class = 1;
      }
    }
    rank.selectivity *=
        static_cast<double>(clause.satisfying.size()) / universe;
    if (clause.redundant) {
      // Every still-possible candidate satisfies the clause, and the test
      // is exact — the clause cannot change the result from any position.
      plan->applied.push_back(
          {"rw-drop-redundant-clause", GeoClauseEntity(i, geo.where[i]),
           "every remaining candidate of layer '" + facts.result_name +
               "' satisfies this clause; dropped"});
    } else {
      order.push_back(i);
    }
  }

  if (facts.ProvesEmpty()) {
    // The over-approximate flow emptied out, which proves the exact result
    // empty. All layers resolved, so evaluation cannot error either way.
    plan->geo_zero = true;
    plan->applied.push_back(
        {"rw-empty-region", "geo WHERE",
         "the conjunction selects no geometry of layer '" +
             facts.result_name + "'; short-circuiting to an empty result"});
  }

  // An unknown layer makes evaluation error; never reorder around it.
  if (facts.resolved && !plan->geo_zero && order.size() >= 2) {
    std::vector<size_t> sorted = order;
    std::stable_sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
      if (ranks[a].cost_class != ranks[b].cost_class) {
        return ranks[a].cost_class < ranks[b].cost_class;
      }
      return ranks[a].selectivity < ranks[b].selectivity;
    });
    if (sorted != order) {
      std::ostringstream detail;
      detail << "reordered cheapest/most-selective first:";
      for (size_t i : sorted) {
        detail << " " << (i + 1);
      }
      plan->applied.push_back({"rw-select-reorder", "geo WHERE",
                               detail.str()});
      order = std::move(sorted);
    }
  }

  if (order.size() != geo.where.size() ||
      !std::is_sorted(order.begin(), order.end())) {
    std::vector<pietql::GeoCondition> rewritten;
    rewritten.reserve(order.size());
    for (size_t i : order) {
      rewritten.push_back(geo.where[i]);
    }
    geo.where = std::move(rewritten);
  }
  plan->geo_clauses_after = geo.where.size();
}

/// Rewrites the moving-object part in place. The evaluator's time
/// semantics are: rollup-equality clauses accumulate, but a later
/// T BETWEEN *replaces* an earlier one (TimePredicate::Window). All proofs
/// here follow those semantics, not plain conjunction reading.
void RewriteMoPart(const RewriteContext& context, const MoFacts& facts,
                   RewritePlan* plan) {
  if (!plan->query.mo) {
    return;
  }
  pietql::MoQuery& mo = *plan->query.mo;
  plan->mo_clauses_before = mo.where.size();
  plan->mo_clauses_after = mo.where.size();

  // PASSES THROUGH evaluates via MatchingIntervals, which (a) rejects
  // timeId/minute rollups with an error a rewrite must not suppress, and
  // (b) keeps closed boundary instants a folded window would trim. Abstain
  // from every mo rewrite in the first case, and from window folding in
  // the second.
  const bool passes = facts.passes;
  if (passes && facts.sub_hour_rollup) {
    return;
  }

  struct Item {
    size_t orig = 0;
    pietql::MoCondition cond;
    bool drop = false;
  };
  std::vector<Item> items;
  items.reserve(mo.where.size());
  for (size_t i = 0; i < mo.where.size(); ++i) {
    items.push_back({i, mo.where[i], false});
  }

  // Always-true rollup constraints (TIME.all = 'all') filter nothing.
  for (size_t r = 0; r < facts.rollups.size(); ++r) {
    if (facts.rollup_folds[r] != lint::TimeFold::kAlways) {
      continue;
    }
    Item& item = items[facts.rollups[r]];
    item.drop = true;
    plan->applied.push_back(
        {"rw-drop-redundant-clause", MoClauseEntity(item.orig),
         "TIME." + item.cond.time_level + " = " +
             item.cond.literal.ToString() +
             " holds at every instant; dropped"});
  }

  // A later T BETWEEN replaces an earlier one, so every window but the
  // last is dead weight.
  const std::optional<size_t> last_window = facts.last_window();
  for (size_t w = 0; w + 1 < facts.windows.size(); ++w) {
    Item& item = items[facts.windows[w]];
    item.drop = true;
    plan->applied.push_back(
        {"rw-drop-redundant-clause", MoClauseEntity(item.orig),
         "shadowed by the later T BETWEEN in clause " +
             std::to_string(*last_window + 1) +
             " (the last window wins); dropped"});
  }

  // Constant-fold absolute rollup equalities into one T BETWEEN window,
  // enabling the sorted-time binary-search fast path. The rollup holds on
  // the half-open [begin, begin + len), so the closed window's upper end
  // is the predecessor double (timeId already folds to an exact [t, t]).
  // Skipped under PASSES THROUGH: MatchingIntervals answers with closed
  // hour pieces whose boundary instants a trimmed window would drop.
  if (!passes) {
    std::vector<size_t> foldable;
    std::vector<Interval> fold_windows;
    for (const size_t i : facts.rollups) {
      const Item& item = items[i];
      if (item.drop) {
        continue;
      }
      auto window = lint::TimeAbstract::LevelEqualsWindow(
          item.cond.time_level, item.cond.literal);
      if (!window) {
        continue;
      }
      double hi = window->end.seconds;
      if (item.cond.time_level != "timeId") {
        hi = std::nextafter(hi, -std::numeric_limits<double>::infinity());
      }
      foldable.push_back(i);
      fold_windows.emplace_back(window->begin, TimePoint(hi));
    }
    if (!foldable.empty()) {
      double lo = fold_windows.front().begin.seconds;
      double hi = fold_windows.front().end.seconds;
      for (size_t k = 1; k < fold_windows.size(); ++k) {
        lo = std::max(lo, fold_windows[k].begin.seconds);
        hi = std::min(hi, fold_windows[k].end.seconds);
      }
      size_t insert_at = foldable.front();
      size_t merged = foldable.size();
      if (last_window) {
        const pietql::MoCondition& w = items[*last_window].cond;
        lo = std::max(lo, w.t0);
        hi = std::min(hi, w.t1);
        insert_at = std::min(insert_at, *last_window);
        items[*last_window].drop = true;
        ++merged;
      }
      for (size_t k = 0; k < foldable.size(); ++k) {
        Item& item = items[foldable[k]];
        item.drop = true;
        plan->applied.push_back(
            {"rw-fold-time-window", MoClauseEntity(item.orig),
             "rewrote TIME." + item.cond.time_level + " = " +
                 item.cond.literal.ToString() + " as T BETWEEN " +
                 FormatNumber(fold_windows[k].begin.seconds) + " AND " +
                 FormatNumber(fold_windows[k].end.seconds)});
      }
      if (merged > 1) {
        plan->applied.push_back(
            {"rw-fold-time-window", "mo WHERE",
             "merged " + std::to_string(merged) +
                 " time constraints into T BETWEEN " + FormatNumber(lo) +
                 " AND " + FormatNumber(hi)});
      }
      pietql::MoCondition window;
      window.kind = pietql::MoCondition::Kind::kTimeBetween;
      window.t0 = lo;
      window.t1 = hi;
      // Reuse the first participating slot so the synthesized window sits
      // where the reader expects it.
      items[insert_at].cond = std::move(window);
      items[insert_at].drop = false;
    }
  }

  std::vector<pietql::MoCondition> rewritten;
  rewritten.reserve(items.size());
  for (const Item& item : items) {
    if (!item.drop) {
      rewritten.push_back(item.cond);
    }
  }
  mo.where = std::move(rewritten);
  plan->mo_clauses_after = mo.where.size();

  // Empty-time proof over the rewritten clauses, which fold absolute
  // rollups more tightly (half-open upper ends) than the original ones.
  // Unfoldable clauses only shrink the concrete set further, so bottom
  // still proves it empty.
  if (AnalyzeMo(mo).time.IsBottom()) {
    plan->mo_zero = true;
    plan->applied.push_back(
        {"rw-empty-time", "mo WHERE",
         "the time constraints match no instant; short-circuiting the "
         "tuple scan"});
  }

  // Contradictory spatial constraints: a scan that provably yields no
  // tuple. Validations the evaluator performs (layer kinds, mutual
  // exclusivity, unknown names) run before its scan loops, so the short
  // circuit never masks an error.
  if (!plan->mo_zero && facts.near) {
    const pietql::MoCondition& near = items[*facts.near].cond;
    if (near.radius < 0.0) {
      plan->mo_zero = true;
      plan->applied.push_back(
          {"rw-contradictory-spatial", MoClauseEntity(*facts.near),
           "NEAR radius " + FormatNumber(near.radius) +
               " is negative; no sample can qualify"});
    } else {
      const Layer* nodes = ResolveLayer(context.gis, near.near_layer);
      if (nodes != nullptr &&
          (nodes->kind() == gis::GeometryKind::kNode ||
           nodes->kind() == gis::GeometryKind::kPoint) &&
          nodes->size() == 0) {
        plan->mo_zero = true;
        plan->applied.push_back(
            {"rw-contradictory-spatial", MoClauseEntity(*facts.near),
             "NEAR layer '" + near.near_layer +
                 "' has no elements; no sample can qualify"});
      }
    }
  }
  if (!plan->mo_zero && (facts.inside || passes) && plan->geo_zero) {
    plan->mo_zero = true;
    plan->applied.push_back(
        {"rw-contradictory-spatial", "mo WHERE",
         std::string(passes ? "PASSES THROUGH" : "INSIDE") +
             " RESULT over a provably empty region; no tuple can qualify"});
  }
}

}  // namespace

RewriteMode RewriteModeFromEnv() {
  const char* env = std::getenv("PIET_REWRITE");
  if (env == nullptr) {
    return RewriteMode::kOff;
  }
  const std::string v(env);
  if (v.empty() || v == "0" || v == "off" || v == "false") {
    return RewriteMode::kOff;
  }
  return RewriteMode::kOn;
}

std::string RewritePlan::ToString() const {
  if (applied.empty()) {
    return "no rewrites applied";
  }
  std::ostringstream os;
  for (size_t i = 0; i < applied.size(); ++i) {
    if (i > 0) {
      os << "\n";
    }
    os << applied[i].rule_id << " [" << applied[i].entity
       << "]: " << applied[i].detail;
  }
  return os.str();
}

std::vector<std::string> AllRewriteRuleIds() {
  return {
      "rw-contradictory-spatial", "rw-drop-redundant-clause",
      "rw-empty-region",          "rw-empty-time",
      "rw-fold-time-window",      "rw-select-reorder",
  };
}

RewritePlan RewriteQuery(const RewriteContext& context,
                         const pietql::Query& query) {
  RewritePlan plan;
  plan.query = query;
  const PlanFacts facts = AnalyzePlan(context.gis, query);
  RewriteGeoPart(context, facts.geo, &plan);
  RewriteMoPart(context, facts.mo, &plan);
  return plan;
}

}  // namespace piet::analysis::rewrite
