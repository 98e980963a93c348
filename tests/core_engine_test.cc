#include <gtest/gtest.h>

#include <set>

#include "core/engine.h"
#include "core/queries.h"
#include "olap/aggregate.h"
#include "temporal/calendar.h"
#include "workload/city.h"
#include "workload/scenario.h"
#include "workload/trajectories.h"

namespace piet::core {
namespace {

using moving::ObjectId;
using olap::FactTable;
using queries::PerHourResult;
using temporal::TimePoint;
using workload::Figure1Scenario;

class Figure1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = workload::BuildFigure1Scenario();
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = std::move(scenario).ValueOrDie();
    ASSERT_TRUE(
        scenario_.db->BuildOverlay({scenario_.neighborhoods_layer}).ok());
  }

  GeometryPredicate LowIncome() const {
    return GeometryPredicate::AttributeLess("income",
                                            scenario_.income_threshold);
  }

  TimePredicate Morning() const {
    TimePredicate when;
    when.RollupEquals("timeOfDay", Value("Morning"));
    return when;
  }

  Figure1Scenario scenario_;
};

TEST_F(Figure1Test, Remark1HeadlineIsFourThirds) {
  QueryEngine engine(scenario_.db.get());
  for (Strategy strategy :
       {Strategy::kNaive, Strategy::kIndexed, Strategy::kOverlay}) {
    auto result = queries::CountPerHourInRegion(
        engine, scenario_.moft_name, scenario_.neighborhoods_layer,
        LowIncome(), Morning(), strategy);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie().tuple_count, 4);
    EXPECT_EQ(result.ValueOrDie().hour_count, 3);
    EXPECT_DOUBLE_EQ(result.ValueOrDie().per_hour, 4.0 / 3.0)
        << StrategyToString(strategy);
  }
}

TEST_F(Figure1Test, Remark1SurvivesReplication) {
  // Cloning the day pattern keeps the rate at exactly 4/3 (4k tuples over
  // 3k hours).
  auto big = workload::BuildFigure1Scenario(/*replication=*/7);
  ASSERT_TRUE(big.ok());
  QueryEngine engine(big.ValueOrDie().db.get());
  auto result = queries::CountPerHourInRegion(
      engine, "FMbus", "Ln",
      GeometryPredicate::AttributeLess("income", 1500.0), Morning(),
      Strategy::kIndexed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().tuple_count, 28);
  EXPECT_EQ(result.ValueOrDie().hour_count, 21);
  EXPECT_DOUBLE_EQ(result.ValueOrDie().per_hour, 4.0 / 3.0);
}

TEST_F(Figure1Test, RegionTuplesMatchPaperNarrative) {
  QueryEngine engine(scenario_.db.get());
  auto region =
      engine.SampleRegion(scenario_.moft_name, scenario_.neighborhoods_layer,
                          LowIncome(), Morning(), Strategy::kNaive);
  ASSERT_TRUE(region.ok());
  // Exactly O1 (3 samples) and O2 (1 sample) qualify.
  std::set<int64_t> oids;
  for (const auto& row : region.ValueOrDie().rows()) {
    oids.insert(row[0].AsIntUnchecked());
  }
  EXPECT_EQ(oids, (std::set<int64_t>{scenario_.o1, scenario_.o2}));
  EXPECT_EQ(region.ValueOrDie().num_rows(), 4u);
}

TEST_F(Figure1Test, O1StaysInsideLowIncomeRegion) {
  QueryEngine engine(scenario_.db.get());
  auto always = engine.ObjectsAlwaysWithin(
      scenario_.moft_name, scenario_.neighborhoods_layer, LowIncome(),
      TimePredicate(), /*trajectory_semantics=*/false);
  ASSERT_TRUE(always.ok());
  EXPECT_EQ(always.ValueOrDie(), std::vector<ObjectId>{scenario_.o1});
  // Trajectory semantics agrees for O1 (its whole LIT stays inside).
  auto traj_always = engine.ObjectsAlwaysWithin(
      scenario_.moft_name, scenario_.neighborhoods_layer, LowIncome(),
      TimePredicate(), /*trajectory_semantics=*/true);
  ASSERT_TRUE(traj_always.ok());
  EXPECT_EQ(traj_always.ValueOrDie(), std::vector<ObjectId>{scenario_.o1});
}

TEST_F(Figure1Test, O6DriveByOnlyVisibleToTrajectorySemantics) {
  QueryEngine engine(scenario_.db.get());
  // Sample semantics: O6 never qualifies.
  auto sampled =
      engine.SampleRegion(scenario_.moft_name, scenario_.neighborhoods_layer,
                          LowIncome(), TimePredicate(), Strategy::kIndexed);
  ASSERT_TRUE(sampled.ok());
  for (const auto& row : sampled.ValueOrDie().rows()) {
    EXPECT_NE(row[0].AsIntUnchecked(), scenario_.o6);
  }
  // Trajectory semantics: O6's leg crosses the low-income neighborhood.
  auto intervals = engine.TrajectoryRegion(
      scenario_.moft_name, scenario_.neighborhoods_layer, LowIncome(),
      TimePredicate());
  ASSERT_TRUE(intervals.ok());
  bool o6_found = false;
  for (const auto& row : intervals.ValueOrDie().rows()) {
    if (row[0].AsIntUnchecked() == scenario_.o6) {
      o6_found = true;
      double enter = row[2].AsDoubleUnchecked();
      double leave = row[3].AsDoubleUnchecked();
      EXPECT_GT(leave, enter);
    }
  }
  EXPECT_TRUE(o6_found);
}

TEST_F(Figure1Test, SnapshotCountsAtInstant) {
  QueryEngine engine(scenario_.db.get());
  // At 07:00 of day 0 (table t=3): O1 at (70,20) in N1; O2 at (60,20) in N1;
  // O5 at (60,60) in N4; O6 at (90,30) in N2.
  TimePoint t = temporal::ParseTimePoint("2006-01-02 07:00").ValueOrDie();
  auto count = queries::SnapshotCountInRegion(
      engine, scenario_.moft_name, scenario_.neighborhoods_layer,
      "neighborhood", Value("N1"), t);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.ValueOrDie(), 2);

  // Between samples (06:30): O1 interpolates to (55, 12.5) in N1; O2 to
  // (40, 20) on the N0/N1 border (belongs to both, counts); O6 to (60, 40)
  // on the N1 border.
  TimePoint mid = temporal::ParseTimePoint("2006-01-02 06:30").ValueOrDie();
  auto mid_count = queries::SnapshotCountInRegion(
      engine, scenario_.moft_name, scenario_.neighborhoods_layer,
      "neighborhood", Value("N1"), mid);
  ASSERT_TRUE(mid_count.ok());
  EXPECT_EQ(mid_count.ValueOrDie(), 3);
}

TEST_F(Figure1Test, TimeSpentInRegionQuery5) {
  QueryEngine engine(scenario_.db.get());
  auto stay = queries::TimeSpentInRegion(
      engine, scenario_.moft_name, scenario_.neighborhoods_layer,
      "neighborhood", Value("N1"), TimePredicate());
  ASSERT_TRUE(stay.ok()) << stay.status().ToString();
  // O1 spends its whole domain (3h) inside N1; O2 some interior stretch of
  // its 2h window; O6 a short crossing.
  EXPECT_GT(stay.ValueOrDie().total_seconds, 3.0 * 3600.0);
  EXPECT_GE(stay.ValueOrDie().visits, 3);
  EXPECT_DOUBLE_EQ(stay.ValueOrDie().longest_stay_seconds, 3.0 * 3600.0);
}

TEST_F(Figure1Test, ObjectsInNamedRegionQuery1) {
  QueryEngine engine(scenario_.db.get());
  TimePredicate monday_morning = Morning();
  monday_morning.RollupEquals("dayOfWeek", Value("Monday"));
  auto count = queries::CountObjectsInRegion(
      engine, scenario_.moft_name, scenario_.neighborhoods_layer,
      "neighborhood", Value("N1"), monday_morning, Strategy::kIndexed);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.ValueOrDie(), 2);  // O1 and O2.
  // Tuesday: nothing.
  TimePredicate tuesday;
  tuesday.RollupEquals("dayOfWeek", Value("Tuesday"));
  auto none = queries::CountObjectsInRegion(
      engine, scenario_.moft_name, scenario_.neighborhoods_layer,
      "neighborhood", Value("N1"), tuesday, Strategy::kIndexed);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.ValueOrDie(), 0);
}

TEST_F(Figure1Test, CompletelyWithinQuery3) {
  QueryEngine engine(scenario_.db.get());
  // High-income region: everything except N1. O3, O4, O5 are always in
  // high-income cells; O6's samples are too, but its trajectory dips into
  // N1 — trajectory semantics must exclude it.
  GeometryPredicate high =
      GeometryPredicate::AttributeGreaterEq("income", 1500.0);
  auto sample_count = queries::CountObjectsCompletelyWithin(
      engine, scenario_.moft_name, scenario_.neighborhoods_layer, high,
      TimePredicate(), /*trajectory_semantics=*/false);
  ASSERT_TRUE(sample_count.ok());
  EXPECT_EQ(sample_count.ValueOrDie(), 4);  // O3, O4, O5, O6.

  auto traj_count = queries::CountObjectsCompletelyWithin(
      engine, scenario_.moft_name, scenario_.neighborhoods_layer, high,
      TimePredicate(), /*trajectory_semantics=*/true);
  ASSERT_TRUE(traj_count.ok());
  EXPECT_EQ(traj_count.ValueOrDie(), 3);  // O6 excluded.
}

TEST_F(Figure1Test, NearSchoolsQuery6SampleVsInterpolated) {
  QueryEngine engine(scenario_.db.get());
  // School S1 at (70,25): O1's t=3 sample (70,20) is within 10.
  auto sampled = queries::CountNearNodesPerHour(
      engine, scenario_.moft_name, scenario_.schools_layer, 10.0,
      TimePredicate(), /*interpolated=*/false);
  ASSERT_TRUE(sampled.ok());
  auto interpolated = queries::CountNearNodesPerHour(
      engine, scenario_.moft_name, scenario_.schools_layer, 10.0,
      TimePredicate(), /*interpolated=*/true);
  ASSERT_TRUE(interpolated.ok());
  // Interpolation can only see more (object, hour) pairs.
  EXPECT_GE(interpolated.ValueOrDie().tuple_count,
            sampled.ValueOrDie().tuple_count);
  EXPECT_GT(sampled.ValueOrDie().tuple_count, 0);
}

TEST_F(Figure1Test, WaitingAtStopQuery7) {
  QueryEngine engine(scenario_.db.get());
  // Reuse the school S0 at (20,20) as the "stop": O2's t=2 sample sits
  // exactly there (hour 06:00).
  auto table = queries::WaitingAtStopPerMinute(
      engine, scenario_.moft_name, scenario_.schools_layer, "school",
      Value("S0"), /*radius=*/4.0, TimePredicate());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table.ValueOrDie().num_rows(), 1u);
  EXPECT_EQ(table.ValueOrDie().At(0, "minute").ValueOrDie(),
            Value("2006-01-02 06:00"));
  EXPECT_EQ(table.ValueOrDie().At(0, "waiting").ValueOrDie(),
            Value(int64_t{1}));
  // Unknown stop member.
  EXPECT_TRUE(queries::WaitingAtStopPerMinute(
                  engine, scenario_.moft_name, scenario_.schools_layer,
                  "school", Value("S9"), 4.0, TimePredicate())
                  .status()
                  .IsNotFound());
}

TEST_F(Figure1Test, MaxStreetDensityQuery2) {
  QueryEngine engine(scenario_.db.get());
  // Street H0 runs along y=20 where O1/O2 samples sit.
  for (auto interp : {queries::DensityInterpretation::kPerStreet,
                      queries::DensityInterpretation::kPerStreetInstant,
                      queries::DensityInterpretation::kCityWide}) {
    auto result = queries::MaxStreetDensity(engine, scenario_.moft_name,
                                            scenario_.streets_layer, 1.0,
                                            TimePredicate(), interp);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result.ValueOrDie().density, 0.0);
  }
}

TEST_F(Figure1Test, EngineStatsReflectStrategyWork) {
  QueryEngine engine(scenario_.db.get());
  ASSERT_TRUE(engine
                  .SampleRegion(scenario_.moft_name,
                                scenario_.neighborhoods_layer,
                                GeometryPredicate::All(), TimePredicate(),
                                Strategy::kNaive)
                  .ok());
  size_t naive_tests = engine.stats().point_tests;
  ASSERT_TRUE(engine
                  .SampleRegion(scenario_.moft_name,
                                scenario_.neighborhoods_layer,
                                GeometryPredicate::All(), TimePredicate(),
                                Strategy::kIndexed)
                  .ok());
  size_t indexed_tests = engine.stats().point_tests;
  EXPECT_GT(naive_tests, indexed_tests);
}

TEST_F(Figure1Test, ErrorPaths) {
  QueryEngine engine(scenario_.db.get());
  EXPECT_TRUE(engine
                  .SampleRegion("NoSuchMoft", scenario_.neighborhoods_layer,
                                GeometryPredicate::All(), TimePredicate(),
                                Strategy::kNaive)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(engine
                  .SampleRegion(scenario_.moft_name, "NoSuchLayer",
                                GeometryPredicate::All(), TimePredicate(),
                                Strategy::kNaive)
                  .status()
                  .IsNotFound());
  // Every polygon-layer method rejects node and line layers.
  const std::string& moft = scenario_.moft_name;
  const GeometryPredicate all = GeometryPredicate::All();
  const TimePredicate any;
  for (const std::string& layer :
       {scenario_.schools_layer, scenario_.streets_layer}) {
    for (Strategy s :
         {Strategy::kNaive, Strategy::kIndexed, Strategy::kOverlay}) {
      EXPECT_TRUE(engine.SampleRegion(moft, layer, all, any, s)
                      .status()
                      .IsInvalidArgument())
          << layer << " SampleRegion/" << StrategyToString(s);
    }
    EXPECT_TRUE(engine.SnapshotInRegion(moft, layer, all, TimePoint(0))
                    .status()
                    .IsInvalidArgument())
        << layer << " SnapshotInRegion";
    EXPECT_TRUE(engine.TrajectoryRegion(moft, layer, all, any)
                    .status()
                    .IsInvalidArgument())
        << layer << " TrajectoryRegion";
    EXPECT_TRUE(engine.TrajectoryAggregates(moft, layer, all)
                    .status()
                    .IsInvalidArgument())
        << layer << " TrajectoryAggregates";
    EXPECT_TRUE(engine.ObjectsPossiblyWithin(moft, layer, all, 10.0)
                    .status()
                    .IsInvalidArgument())
        << layer << " ObjectsPossiblyWithin";
    for (bool traj : {false, true}) {
      EXPECT_TRUE(engine.ObjectsAlwaysWithin(moft, layer, all, any, traj)
                      .status()
                      .IsInvalidArgument())
          << layer << " ObjectsAlwaysWithin traj=" << traj;
    }
  }
}

// ---------------------------------------------------------------------------
// Strategy-agreement property on randomized city workloads.
// ---------------------------------------------------------------------------

class StrategyAgreement : public ::testing::TestWithParam<int> {};

TEST_P(StrategyAgreement, AllStrategiesReturnIdenticalRegions) {
  workload::CityConfig city_config;
  city_config.seed = 9000 + GetParam();
  city_config.grid_cols = 6;
  city_config.grid_rows = 6;
  auto city = workload::GenerateCity(city_config);
  ASSERT_TRUE(city.ok()) << city.status().ToString();

  workload::TrajectoryConfig traj_config;
  traj_config.seed = 70 + GetParam();
  traj_config.num_objects = 25;
  traj_config.duration = 2 * 3600.0;
  traj_config.sample_period = 120.0;
  traj_config.speed = 5.0;
  auto moft =
      workload::GenerateTrajectories(city.ValueOrDie(), traj_config);
  ASSERT_TRUE(moft.ok());

  core::GeoOlapDatabase& db = *city.ValueOrDie().db;
  ASSERT_TRUE(db.AddMoft("cars", std::move(moft).ValueOrDie()).ok());
  ASSERT_TRUE(
      db.BuildOverlay({city.ValueOrDie().neighborhoods_layer}).ok());

  QueryEngine engine(&db);
  GeometryPredicate low = GeometryPredicate::AttributeLess("income", 1500.0);

  auto canonical = [](const FactTable& t) {
    std::multiset<std::vector<std::string>> rows;
    for (const auto& row : t.rows()) {
      std::vector<std::string> r;
      for (const auto& v : row) {
        r.push_back(v.ToString());
      }
      rows.insert(std::move(r));
    }
    return rows;
  };

  auto naive = engine.SampleRegion("cars",
                                   city.ValueOrDie().neighborhoods_layer, low,
                                   TimePredicate(), Strategy::kNaive);
  auto indexed = engine.SampleRegion(
      "cars", city.ValueOrDie().neighborhoods_layer, low, TimePredicate(),
      Strategy::kIndexed);
  auto overlay = engine.SampleRegion(
      "cars", city.ValueOrDie().neighborhoods_layer, low, TimePredicate(),
      Strategy::kOverlay);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(overlay.ok());
  EXPECT_EQ(canonical(naive.ValueOrDie()), canonical(indexed.ValueOrDie()));
  EXPECT_EQ(canonical(naive.ValueOrDie()), canonical(overlay.ValueOrDie()));
  EXPECT_GT(naive.ValueOrDie().num_rows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyAgreement, ::testing::Range(0, 5));

}  // namespace
}  // namespace piet::core
