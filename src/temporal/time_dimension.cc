#include "temporal/time_dimension.h"

#include <algorithm>
#include <cstdio>

namespace piet::temporal {

namespace {

std::string FormatDay(const CivilTime& c) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
  return buf;
}

std::string FormatMonth(const CivilTime& c) {
  char buf[12];
  std::snprintf(buf, sizeof(buf), "%04d-%02d", c.year, c.month);
  return buf;
}

std::string FormatMinute(const CivilTime& c) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d", c.year, c.month,
                c.day, c.hour, c.minute);
  return buf;
}

}  // namespace

const std::vector<std::string>& TimeDimension::LevelNames() {
  static const std::vector<std::string>* kLevels = new std::vector<std::string>{
      "timeId", "minute", "hour",      "hourBucket", "timeOfDay", "dayOfWeek",
      "typeOfDay", "day",  "month",    "year",       "all"};
  return *kLevels;
}

bool TimeDimension::HasLevel(std::string_view level) {
  const auto& names = LevelNames();
  return std::find(names.begin(), names.end(), level) != names.end();
}

Result<Value> TimeDimension::Rollup(std::string_view level, TimePoint t) const {
  if (level == "timeId") {
    return Value(t.seconds);
  }
  if (level == "hour") {
    return Value(static_cast<int64_t>(GetHourOfDay(t)));
  }
  if (level == "hourBucket") {
    return Value(HourBucketKey(t));
  }
  if (level == "timeOfDay") {
    return Value(std::string(TimeOfDayToString(GetTimeOfDay(t))));
  }
  if (level == "dayOfWeek") {
    return Value(std::string(DayOfWeekToString(GetDayOfWeek(t))));
  }
  if (level == "typeOfDay") {
    return Value(std::string(TypeOfDayToString(GetTypeOfDay(t))));
  }
  CivilTime c = ToCivil(t);
  if (level == "minute") {
    return Value(FormatMinute(c));
  }
  if (level == "day") {
    return Value(FormatDay(c));
  }
  if (level == "month") {
    return Value(FormatMonth(c));
  }
  if (level == "year") {
    return Value(static_cast<int64_t>(c.year));
  }
  if (level == "all") {
    return Value("all");
  }
  return Status::NotFound("unknown Time dimension level: " +
                          std::string(level));
}

bool TimeDimension::RollsUp(std::string_view fine, std::string_view coarse) {
  if (fine == coarse) {
    return true;
  }
  if (coarse == "all") {
    return HasLevel(fine);
  }
  if (fine == "timeId") {
    return HasLevel(coarse);
  }
  // Explicit edges of the hierarchy above timeId.
  struct Edge {
    std::string_view fine;
    std::string_view coarse;
  };
  static constexpr Edge kEdges[] = {
      {"minute", "hour"},       {"minute", "hourBucket"},
      {"hour", "timeOfDay"},    {"hourBucket", "day"},
      {"day", "month"},         {"month", "year"},
      {"day", "dayOfWeek"},     {"dayOfWeek", "typeOfDay"},
  };
  // BFS over the tiny DAG.
  std::vector<std::string_view> frontier = {fine};
  std::vector<std::string_view> seen = {fine};
  while (!frontier.empty()) {
    std::string_view cur = frontier.back();
    frontier.pop_back();
    for (const Edge& e : kEdges) {
      if (e.fine == cur) {
        if (e.coarse == coarse) {
          return true;
        }
        if (std::find(seen.begin(), seen.end(), e.coarse) == seen.end()) {
          seen.push_back(e.coarse);
          frontier.push_back(e.coarse);
        }
      }
    }
  }
  return false;
}

bool IsSubHourLevel(std::string_view level) {
  return level == "timeId" || level == "minute";
}

}  // namespace piet::temporal
