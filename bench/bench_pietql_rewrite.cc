// E12 — the static plan rewriter: raw (RewriteMode::kOff) vs rewritten
// (kOn) end-to-end Piet-QL latency, one pair of series per query type.
//
// Shape goals: the rewritten plan is result-bit-identical (checked here at
// startup and property-tested in tests/analysis_rewrite_test.cc). Both
// modes run the same scan operators (window ranges, batch geometry
// kernels), so the wins come from the plan rules alone: rollup equalities
// folded into a window, and the empty-time / empty-region constant folds,
// which skip the tuple scan outright.

#include <benchmark/benchmark.h>

#include "obs_dump.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/rewrite/rewriter.h"
#include "core/pietql/evaluator.h"
#include "workload/city.h"
#include "workload/trajectories.h"

namespace {

using piet::analysis::rewrite::RewriteMode;
using piet::core::pietql::Evaluator;
using piet::workload::City;
using piet::workload::CityConfig;
using piet::workload::TrajectoryConfig;

struct Fixture {
  City city;
};

std::shared_ptr<Fixture> MakeFixture(int objects) {
  CityConfig city_config;
  city_config.seed = 4242;
  city_config.grid_cols = 8;
  city_config.grid_rows = 8;
  auto fixture = std::make_shared<Fixture>();
  fixture->city =
      std::move(piet::workload::GenerateCity(city_config)).ValueOrDie();

  TrajectoryConfig traj;
  traj.seed = 99;
  traj.num_objects = objects;
  traj.duration = 4 * 3600.0;
  traj.sample_period = 60.0;
  traj.speed = 12.0;
  auto moft =
      piet::workload::GenerateTrajectories(fixture->city, traj).ValueOrDie();
  (void)fixture->city.db->AddMoft("cars", std::move(moft));
  (void)fixture->city.db->BuildOverlay({fixture->city.neighborhoods_layer});
  return fixture;
}

struct QueryCase {
  const char* name;
  std::string text;
};

std::vector<QueryCase> MakeQueries(const City& city) {
  const std::string& nb = city.neighborhoods_layer;
  return {
      // Window-only tuple scan -> SamplesBetween binary-search fast path.
      {"time_window",
       "SELECT layer." + nb + "; FROM SimCity; "
       "| SELECT COUNT(*) FROM cars WHERE T BETWEEN 3600 AND 10800"},
      // Shadowed window dropped first, then the same fast path.
      {"shadowed_window",
       "SELECT layer." + nb + "; FROM SimCity; "
       "| SELECT COUNT(*) FROM cars "
       "WHERE T BETWEEN 0 AND 14000 AND T BETWEEN 3600 AND 10800"},
      // Full INSIDE scan -> batch point-in-polygon kernels.
      {"inside",
       "SELECT layer." + nb + "; FROM SimCity; "
       "WHERE ATTR(layer." + nb + ", income) < 1500 "
       "| SELECT COUNT(*) FROM cars WHERE INSIDE RESULT"},
      // INSIDE restricted to a window -> window rows + batch kernels.
      {"inside_window",
       "SELECT layer." + nb + "; FROM SimCity; "
       "WHERE ATTR(layer." + nb + ", income) < 1500 "
       "| SELECT COUNT(*) FROM cars "
       "WHERE INSIDE RESULT AND T BETWEEN 0 AND 7200"},
      // PASSES THROUGH -> per-span leg-intersection prefilter.
      {"passes",
       "SELECT layer." + nb + "; FROM SimCity; "
       "WHERE ATTR(layer." + nb + ", income) < 1500 "
       "| SELECT COUNT(DISTINCT OID) FROM cars WHERE PASSES THROUGH RESULT"},
      // NEAR under a window -> absolute window rows, Matches skipped.
      {"near_window",
       "SELECT layer." + nb + "; FROM SimCity; "
       "| SELECT COUNT(*) FROM cars "
       "WHERE NEAR(layer." + city.schools_layer + ", 25) "
       "AND T BETWEEN 0 AND 7200"},
      // Empty window -> rw-empty-time skips the tuple scan outright.
      {"empty_time",
       "SELECT layer." + nb + "; FROM SimCity; "
       "| SELECT COUNT(*) FROM cars WHERE T BETWEEN 100 AND 50"},
      // Provably empty region -> rw-empty-region + zero-tuple INSIDE.
      {"empty_region",
       "SELECT layer." + nb + "; FROM SimCity; "
       "WHERE ATTR(layer." + nb + ", income) < -10 "
       "| SELECT COUNT(*) FROM cars WHERE INSIDE RESULT"},
      // Geo-only query -> rw-select-reorder puts the exact ATTR filter
      // ahead of the spatial join.
      {"geo_reorder",
       "SELECT layer." + nb + "; FROM SimCity; "
       "WHERE INTERSECTION(layer." + nb + ", layer." + city.rivers_layer +
           ") AND ATTR(layer." + nb + ", income) < 1500"},
  };
}

/// Sanity gate before timing anything: both modes must render identically.
bool VerifyIdentical(Fixture& fixture) {
  Evaluator off(fixture.city.db.get());
  off.set_rewrite_mode(RewriteMode::kOff);
  Evaluator on(fixture.city.db.get());
  on.set_rewrite_mode(RewriteMode::kOn);
  bool ok = true;
  std::printf("=== E12: raw vs rewritten result identity ===\n");
  for (const QueryCase& q : MakeQueries(fixture.city)) {
    auto a = off.EvaluateString(q.text);
    auto b = on.EvaluateString(q.text);
    const bool same =
        a.ok() && b.ok() &&
        a.ValueOrDie().ToString() == b.ValueOrDie().ToString();
    std::printf("%-16s %s\n", q.name, same ? "identical" : "MISMATCH");
    ok = ok && same;
  }
  std::printf("\n");
  return ok;
}

void BM_PietqlQuery(benchmark::State& state, std::shared_ptr<Fixture> fixture,
                    std::string text, RewriteMode mode) {
  Evaluator evaluator(fixture->city.db.get());
  evaluator.set_rewrite_mode(mode);
  for (auto _ : state) {
    auto r = evaluator.EvaluateString(text);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.ValueOrDie().geometry_ids.size());
  }
  state.counters["rewritten"] = mode == RewriteMode::kOn ? 1.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  auto fixture = MakeFixture(200);
  if (!VerifyIdentical(*fixture)) {
    std::fprintf(stderr, "raw vs rewritten results diverge; aborting\n");
    return 1;
  }
  for (const QueryCase& q : MakeQueries(fixture->city)) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Rewrite/") + q.name + "/raw").c_str(),
        BM_PietqlQuery, fixture, q.text, RewriteMode::kOff)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_Rewrite/") + q.name + "/rewritten").c_str(),
        BM_PietqlQuery, fixture, q.text, RewriteMode::kOn)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  piet::benchutil::DumpMetricsSnapshotIfRequested();
  benchmark::Shutdown();
  return 0;
}
