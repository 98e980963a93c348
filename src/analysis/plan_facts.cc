#include "analysis/plan_facts.h"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "temporal/interval.h"
#include "temporal/time_dimension.h"

namespace piet::analysis {

namespace pq = core::pietql;
using gis::GeometryId;
using gis::Layer;

bool CompareValues(const Value& lhs, pq::CompareOp op, const Value& rhs) {
  switch (op) {
    case pq::CompareOp::kLt:
      return lhs < rhs;
    case pq::CompareOp::kGt:
      return rhs < lhs;
    case pq::CompareOp::kLe:
      return !(rhs < lhs);
    case pq::CompareOp::kGe:
      return !(lhs < rhs);
    case pq::CompareOp::kEq:
      return lhs == rhs;
  }
  return false;
}

std::string FormatNumber(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) {
    return "0";
  }
  return std::string(buf, ptr);
}

const Layer* ResolveLayer(const gis::GisDimensionInstance* gis,
                          const std::string& name) {
  if (gis == nullptr) {
    return nullptr;
  }
  const auto layer = gis->GetLayer(name);
  return layer.ok() ? layer.ValueOrDie() : nullptr;
}

std::string GeoClauseEntity(size_t index, const pq::GeoCondition& cond) {
  const std::string entity = "geo WHERE clause " + std::to_string(index + 1);
  switch (cond.kind) {
    case pq::GeoCondition::Kind::kAttrCompare:
      return entity + " (ATTR layer." + cond.a.name + ", " + cond.attribute +
             ")";
    case pq::GeoCondition::Kind::kIntersection:
      return entity + " (INTERSECTION layer." + cond.a.name + ", layer." +
             cond.b.name + ")";
    case pq::GeoCondition::Kind::kContains:
      return entity + " (CONTAINS layer." + cond.a.name + ", layer." +
             cond.b.name + ")";
  }
  return entity;
}

std::string MoClauseEntity(size_t index) {
  return "mo WHERE clause " + std::to_string(index + 1);
}

namespace {

GeoClauseFacts AnalyzeGeoClause(const gis::GisDimensionInstance* gis,
                                const Layer& layer,
                                const pq::GeoCondition& cond) {
  GeoClauseFacts f;
  if (cond.kind == pq::GeoCondition::Kind::kAttrCompare) {
    f.exact = true;
    for (const GeometryId id : layer.ids()) {
      const auto v = layer.GetAttribute(id, cond.attribute);
      if (v.ok() && CompareValues(v.ValueOrDie(), cond.op, cond.literal)) {
        f.satisfying.push_back(id);
      }
    }
  } else {
    f.other = ResolveLayer(gis, cond.b.name);
    if (f.other == nullptr) {
      f.resolved = false;
      return f;
    }
    if (cond.kind == pq::GeoCondition::Kind::kContains &&
        layer.kind() != gis::GeometryKind::kPolygon) {
      f.exact = true;  // Every per-pair CONTAINS test fails.
      return f;
    }
    // A disjoint bounding box proves the geometric test false, so the
    // R-tree candidates over-approximate the exact hits.
    for (const GeometryId id : layer.ids()) {
      const auto bounds = layer.BoundsOf(id);
      if (bounds.ok() &&
          !f.other->CandidatesInBox(bounds.ValueOrDie()).empty()) {
        f.satisfying.push_back(id);
      }
    }
  }
  std::sort(f.satisfying.begin(), f.satisfying.end());
  return f;
}

GeoFacts AnalyzeGeo(const gis::GisDimensionInstance* gis,
                    const pq::GeoQuery& geo) {
  GeoFacts facts;
  if (geo.select.empty()) {
    return facts;
  }
  facts.result_name = geo.select.front().name;
  facts.layer = ResolveLayer(gis, facts.result_name);
  if (facts.layer == nullptr) {
    return facts;
  }
  for (const pq::GeoCondition& cond : geo.where) {
    if (cond.a.name != facts.result_name) {
      return facts;  // The evaluator rejects this shape outright.
    }
  }
  facts.anchored = true;
  facts.region = facts.layer->ids();
  std::sort(facts.region.begin(), facts.region.end());
  facts.clauses.reserve(geo.where.size());
  for (const pq::GeoCondition& cond : geo.where) {
    GeoClauseFacts f = AnalyzeGeoClause(gis, *facts.layer, cond);
    facts.resolved = facts.resolved && f.resolved;
    facts.exact = facts.exact && f.exact;
    if (f.resolved) {
      f.redundant = f.exact && std::includes(f.satisfying.begin(),
                                             f.satisfying.end(),
                                             facts.region.begin(),
                                             facts.region.end());
      std::vector<GeometryId> next;
      std::set_intersection(facts.region.begin(), facts.region.end(),
                            f.satisfying.begin(), f.satisfying.end(),
                            std::back_inserter(next));
      facts.region = std::move(next);
    }
    facts.clauses.push_back(std::move(f));
  }
  return facts;
}

}  // namespace

MoFacts AnalyzeMo(const pq::MoQuery& mo) {
  MoFacts facts;
  for (size_t i = 0; i < mo.where.size(); ++i) {
    const pq::MoCondition& cond = mo.where[i];
    switch (cond.kind) {
      case pq::MoCondition::Kind::kInsideResult:
        facts.inside = true;
        break;
      case pq::MoCondition::Kind::kPassesThroughResult:
        facts.passes = true;
        break;
      case pq::MoCondition::Kind::kNearLayer:
        facts.near = i;
        break;
      case pq::MoCondition::Kind::kTimeBetween:
        facts.windows.push_back(i);
        break;
      case pq::MoCondition::Kind::kTimeEquals:
        facts.rollups.push_back(i);
        facts.sub_hour_rollup = facts.sub_hour_rollup ||
                                temporal::IsSubHourLevel(cond.time_level);
        break;
    }
  }
  if (const std::optional<size_t> w = facts.last_window()) {
    facts.time.MeetWindow(
        temporal::Interval(temporal::TimePoint(mo.where[*w].t0),
                           temporal::TimePoint(mo.where[*w].t1)));
  }
  for (const size_t i : facts.rollups) {
    facts.rollup_folds.push_back(facts.time.MeetLevelEquals(
        mo.where[i].time_level, mo.where[i].literal));
  }
  return facts;
}

PlanFacts AnalyzePlan(const gis::GisDimensionInstance* gis,
                      const pq::Query& query) {
  PlanFacts facts;
  facts.geo = AnalyzeGeo(gis, query.geo);
  if (query.mo) {
    facts.mo = AnalyzeMo(*query.mo);
  }
  return facts;
}

}  // namespace piet::analysis
