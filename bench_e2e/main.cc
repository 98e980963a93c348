// bench_e2e: one seeded, closed-loop, single-client benchmark that runs a
// named workload end to end through the public API, checks every answer
// against a reference configuration, and prints every metric by name with
// its unit.
//
//   bench_e2e --workload dashboard|adhoc_scan|ingest_mixed --seed N
//             --seconds S --trace 0|1 [--holdout-seed M] [--spans-out PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run that
// rotates untraced passes, traced passes that also call every layer's entry
// point, and traced passes with spans only; it records spans around every
// library call the benchmark makes, and prints the per-layer metrics, a span
// table and the first layer pass's deterministic work counts. The last
// stdout line is one JSON object {"correct","attempted","failed","metrics"}.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/queries.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "trace.h"
#include "workload/scenario.h"
#include "workloads.h"

extern char** environ;

namespace bench_e2e {
namespace {

using piet::Status;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool has_holdout = false;
  uint64_t holdout_seed = 0;
  std::string spans_out;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_e2e --workload "
               "dashboard|adhoc_scan|ingest_mixed --seed N --seconds S "
               "--trace 0|1 [--holdout-seed M] [--spans-out PATH]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
      have_seed = *end == '\0';
    } else if (key == "--holdout-seed") {
      a->holdout_seed = std::strtoull(val, &end, 10);
      a->has_holdout = *end == '\0';
      if (!a->has_holdout) {
        return false;
      }
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
      have_seconds = *end == '\0' && a->seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      a->trace = std::strcmp(val, "1") == 0;
    } else if (key == "--spans-out") {
      a->spans_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && have_seed &&
         have_seconds && have_trace;
}

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (0 < q < 1).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::vector<double> ToDoubles(const std::vector<int64_t>& v, double scale) {
  std::vector<double> out;
  for (int64_t x : v) {
    out.push_back(static_cast<double>(x) * scale);
  }
  return out;
}

/// Remark 1 on the paper's Figure 1 instance must be exactly 4/3, through
/// the engine helper and through Piet-QL under the workload's modes.
bool Remark1Gate(const Modes& modes) {
  auto scenario = piet::workload::BuildFigure1Scenario();
  if (!scenario.ok()) {
    return false;
  }
  const auto& sc = scenario.ValueOrDie();
  piet::core::QueryEngine engine(sc.db.get());
  engine.set_num_threads(modes.threads);
  engine.set_agg_cache_mode(modes.agg_cache);
  auto r = piet::core::queries::CountPerHourInRegion(
      engine, sc.moft_name, sc.neighborhoods_layer,
      piet::core::GeometryPredicate::AttributeLess("income",
                                                   sc.income_threshold),
      piet::core::TimePredicate().RollupEquals("timeOfDay",
                                               piet::Value("Morning")),
      piet::core::Strategy::kNaive);
  const bool engine_ok = r.ok() && r.ValueOrDie().per_hour == 4.0 / 3.0;
  piet::core::pietql::Evaluator eval(sc.db.get());
  eval.set_num_threads(modes.threads);
  eval.set_check_mode(modes.check);
  eval.set_rewrite_mode(modes.rewrite);
  eval.set_agg_cache_mode(modes.agg_cache);
  eval.set_estimate_mode(modes.estimate);
  eval.set_admission_budget(piet::analysis::estimate::AdmissionBudget{});
  auto q = eval.EvaluateString(
      "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT RATE PER HOUR FROM FMbus WHERE INSIDE RESULT AND "
      "TIME.timeOfDay = 'Morning'");
  const bool pietql_ok = q.ok() && q.ValueOrDie().scalar.has_value() &&
                         q.ValueOrDie().scalar->is_double() &&
                         q.ValueOrDie().scalar->AsDoubleUnchecked() ==
                             4.0 / 3.0;
  std::printf("gate remark1: engine=%s pietql=%s\n",
              engine_ok ? "4/3" : "WRONG", pietql_ok ? "4/3" : "WRONG");
  return engine_ok && pietql_ok;
}

/// Everything one run measured.
struct RunStats {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  int64_t errors = 0;
  int64_t hostile_attempted = 0;
  int64_t hostile_accepted = 0;
  std::vector<double> op_ns;          ///< Every timed operation.
  std::vector<double> post_write_ns;  ///< First query on a MOFT after a write.
  std::vector<double> setup_ns;  ///< Wall time of each set-up.
  /// Samples and wall time (Add through the first seal) over every load.
  double load_samples = 0.0;
  double load_ns = 0.0;
  size_t loads = 0;
  /// Timed operations in untraced passes.
  size_t untraced_ops = 0;
  /// Operation time per pass, by trace phase.
  std::vector<double> untraced_pass_ns;
  std::vector<double> spans_pass_ns;
  double rss_mb = 0.0;
  double stored_bytes_per_sample = 0.0;
  double aggcache_memory_mb = 0.0;
  LoadTimes load;         ///< Set-up and ingest load path.
  LoadTimes cold_builds;  ///< Cold cache builds seen in layer passes.
  Counts counts;          ///< Accumulates over every layer pass.
  Counts first_counts;    ///< The first layer pass only.
  bool have_first = false;
  std::map<std::string, int64_t> first_registry;
};

const char* const kRegistryCounts[] = {
    "moft.block.decodes",   "engine.blocks_skipped", "pietql.blocks_skipped",
    "engine.blocks_pinned", "moft.hot_materializations",
};

std::map<std::string, int64_t> RegistryCounts() {
  std::map<std::string, int64_t> out;
  for (const char* name : kRegistryCounts) {
    out[name] =
        piet::obs::MetricsRegistry::Global().GetCounter(name).Value();
  }
  return out;
}

/// LoadMoft, adding its samples and wall time (Add through the first
/// seal) to the run's ingest totals.
Status RecordedLoad(Loaded* loaded, const MoftInput& input, const Modes& modes,
                    RunStats* st) {
  PIET_RETURN_NOT_OK(LoadMoft(loaded, input, modes, &st->load));
  const LoadTimes& t = st->load;
  st->load_samples += static_cast<double>(t.add_samples.back());
  st->load_ns += static_cast<double>(t.add_ns.back() + t.addmoft_ns.back() +
                                     t.seal_ns.back());
  ++st->loads;
  return Status::OK();
}

/// Runs, times and verifies one operation. Hostile operations are counted
/// but never timed; a non-OK status or an answer that differs from the
/// reference is a failed operation.
void TimedOp(const Op& op, uint64_t ref, const Services& s, RunStats* st,
             double* pass_ns, bool post_write) {
  const int64_t t0 = NowNs();
  piet::Result<Output> r = RunOp(op, s);
  const int64_t dt = NowNs() - t0;
  ++st->attempted;
  if (op.hostile) {
    ++st->hostile_attempted;
    if (r.ok()) {
      ++st->failed;
      ++st->hostile_accepted;
    }
    return;
  }
  if (!r.ok()) {
    ++st->failed;
    ++st->errors;
    std::fprintf(stderr, "op %s failed: %s\n", op.klass.c_str(),
                 r.status().ToString().c_str());
    return;
  }
  const Answer answer = HashOutput(r.ValueOrDie());
  if (s.counts != nullptr) {
    s.counts->AddAnswer(answer);
  }
  if (answer.hash != ref) {
    ++st->failed;
    ++st->mismatches;
    std::fprintf(stderr, "op %s: answer differs from the reference\n",
                 op.klass.c_str());
    return;
  }
  st->op_ns.push_back(static_cast<double>(dt));
  if (post_write) {
    st->post_write_ns.push_back(static_cast<double>(dt));
  }
  *pass_ns += static_cast<double>(dt);
}

/// Reference answers: every operation evaluated under ReferenceModes on a
/// raw-storage database holding every input MOFT.
piet::Result<std::vector<uint64_t>> ReferenceAnswers(
    const Workload& w, const std::vector<Op>& ops) {
  const Modes ref = ReferenceModes();
  LoadTimes ignored;
  PIET_ASSIGN_OR_RETURN(Loaded loaded,
                        NewDatabase(w.city, w.layer, ref, &ignored));
  for (const MoftInput& in : w.mofts) {
    PIET_RETURN_NOT_OK(LoadMoft(&loaded, in, ref, &ignored));
  }
  Services s;
  s.loaded = &loaded;
  s.modes = &ref;
  s.layer = w.layer;
  std::vector<uint64_t> out;
  for (const Op& op : ops) {
    if (op.hostile) {
      out.push_back(0);
      continue;
    }
    piet::Result<Output> r = RunOp(op, s);
    if (!r.ok()) {
      return Status::Internal("reference " + op.klass + ": " +
                              r.status().ToString());
    }
    out.push_back(HashOutput(r.ValueOrDie()).hash);
  }
  return out;
}

double StoredBytesPerSample(const Loaded& loaded) {
  double stored = 0.0;
  double rows = 0.0;
  for (const std::string& name : loaded.db->MoftNames()) {
    const auto stats = loaded.db->GetMoft(name).ValueOrDie()->CatalogStats();
    stored += static_cast<double>(stats.stored_bytes);
    rows += static_cast<double>(stats.rows);
  }
  return rows > 0.0 ? stored / rows : 0.0;
}

double AggCacheMemoryMb(const Loaded& loaded, const std::string& moft,
                        const std::string& layer) {
  auto entry = loaded.db->AggCache(moft, layer);
  return entry.ok() ? static_cast<double>(entry.ValueOrDie()->memory_bytes()) /
                          (1024.0 * 1024.0)
                    : 0.0;
}

/// The traced set-up probes: point location of every sample of the first
/// MOFT against the overlay, and one pin (decode) of every stored block.
struct LayerProbes {
  double locate_ns_per_point = 0.0;
  double decode_ns_per_row = 0.0;
};

LayerProbes RunLayerProbes(const Loaded& loaded, const Workload& w) {
  LayerProbes p;
  const auto* overlay = loaded.db->overlay().ValueOrDie();
  std::vector<piet::geometry::Point> points;
  for (const auto& s : w.mofts.front().samples) {
    points.push_back(s.pos);
  }
  std::vector<double> per_point;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNs();
    piet::gis::BatchHits hits =
        overlay->LocateBatch(points, 0, w.modes.threads);
    per_point.push_back(static_cast<double>(NowNs() - t0) /
                        static_cast<double>(points.size()));
  }
  p.locate_ns_per_point = Median(per_point);
  const auto* moft = loaded.db->GetMoft(w.mofts.front().name).ValueOrDie();
  const piet::moving::MoftBlockStore* store = moft->block_store();
  if (store != nullptr) {
    int64_t ns = 0;
    size_t rows = 0;
    for (size_t b = 0; b < store->num_blocks(); ++b) {
      const int64_t t0 = NowNs();
      piet::moving::MoftBlockStore::Pin pin = store->PinBlock(b);
      ns += NowNs() - t0;
      rows += store->meta(b).row_end - store->meta(b).row_begin;
    }
    p.decode_ns_per_row =
        rows > 0 ? static_cast<double>(ns) / static_cast<double>(rows) : 0.0;
  }
  return p;
}

/// Trace bookkeeping shared by both loops. The traced run rotates its
/// passes through three phases: untraced; traced with every layer's entry
/// point also called (the per-layer metrics and counts); traced with only
/// the operation's own calls under spans (the tracing overhead).
enum class Phase { kUntraced, kLayers, kSpans };

struct PassMode {
  Phase phase = Phase::kUntraced;
  bool first_layers = false;
  size_t first_op = 0;  ///< Index of the pass's first entry in op_ns.
};

/// Passes the traced run needs to see every phase once.
constexpr size_t kTracedMinPasses = 3;

PassMode BeginPass(const Args& args, size_t index, RunStats* st) {
  PassMode pm;
  if (args.trace) {
    pm.phase = static_cast<Phase>(index % 3);
  }
  pm.first_layers = pm.phase == Phase::kLayers && !st->have_first;
  pm.first_op = st->op_ns.size();
  piet::obs::SetEnabled(pm.phase != Phase::kUntraced);
  if (pm.first_layers) {
    st->first_registry = RegistryCounts();
  }
  return pm;
}

void EndPass(const PassMode& pm, double pass_ns, RunStats* st) {
  if (pm.first_layers) {
    st->first_counts = st->counts;
    const auto now = RegistryCounts();
    auto delta = [&](const char* n) {
      return now.at(n) - st->first_registry.at(n);
    };
    st->first_counts.store_blocks_decoded = delta("moft.block.decodes");
    st->first_counts.store_blocks_skipped =
        delta("engine.blocks_skipped") + delta("pietql.blocks_skipped");
    st->first_counts.engine_blocks_pinned = delta("engine.blocks_pinned");
    st->first_counts.store_hot_materializations =
        delta("moft.hot_materializations");
    st->have_first = true;
  }
  if (pm.phase == Phase::kUntraced) {
    st->untraced_pass_ns.push_back(pass_ns);
    st->untraced_ops += st->op_ns.size() - pm.first_op;
  } else if (pm.phase == Phase::kSpans) {
    st->spans_pass_ns.push_back(pass_ns);
  }
  piet::obs::SetEnabled(false);
}

Services MakeServices(const Loaded& loaded, const Workload& w,
                      const PassMode& pm, Tracer* tracer, RunStats* st) {
  Services s;
  s.loaded = &loaded;
  s.modes = &w.modes;
  s.layer = w.layer;
  if (pm.phase != Phase::kUntraced) {
    s.tracer = tracer;
  }
  if (pm.phase == Phase::kLayers) {
    s.layer_calls = true;
    s.counts = &st->counts;
    s.cold_builds = &st->cold_builds;
  }
  return s;
}

/// Set-ups per run of dashboard / adhoc_scan.
constexpr size_t kSetups = 8;

/// A fresh database with every input MOFT loaded and the caches warmed;
/// its wall time is one set-up.
Status SetUp(const Workload& w, RunStats* st, Loaded* loaded) {
  *loaded = Loaded{};
  const int64_t t0 = NowNs();
  PIET_ASSIGN_OR_RETURN(*loaded,
                        NewDatabase(w.city, w.layer, w.modes, &st->load));
  for (const MoftInput& in : w.mofts) {
    PIET_RETURN_NOT_OK(RecordedLoad(loaded, in, w.modes, st));
    PIET_RETURN_NOT_OK(WarmCaches(*loaded, in.name, w.layer, w.warm_classify,
                                  w.warm_aggcache, &st->load));
  }
  st->setup_ns.push_back(static_cast<double>(NowNs() - t0));
  return Status::OK();
}

/// dashboard / adhoc_scan: set up, then repeat whole passes over the
/// operation pool until the run time is used. The untraced run sets up
/// again between passes, kSetups times in all, spread evenly over the run
/// so that host drift reaches setup_s and ingest_samples_per_s as it
/// reaches the latencies; the traced run sets up kSetups times first, so
/// its passes and counts do not depend on timing.
Status RunQueryLoop(const Args& args, const Workload& w,
                    const std::vector<uint64_t>& ref, Tracer* tracer,
                    RunStats* st, LayerProbes* probes, Loaded* keep) {
  Loaded loaded;
  for (size_t i = 0; i < (args.trace ? kSetups : 1); ++i) {
    PIET_RETURN_NOT_OK(SetUp(w, st, &loaded));
  }
  st->rss_mb = RssMb() - st->rss_mb;
  st->stored_bytes_per_sample = StoredBytesPerSample(loaded);
  if (args.trace) {
    *probes = RunLayerProbes(loaded, w);
    if (w.warm_aggcache) {
      st->aggcache_memory_mb =
          AggCacheMemoryMb(loaded, w.mofts.front().name, w.layer);
    }
  }
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  for (size_t pass = 0;; ++pass) {
    const PassMode pm = BeginPass(args, pass, st);
    const Services s = MakeServices(loaded, w, pm, tracer, st);
    double pass_ns = 0.0;
    for (size_t i = 0; i < w.ops.size(); ++i) {
      TimedOp(w.ops[i], ref[i], s, st, &pass_ns, false);
    }
    EndPass(pm, pass_ns, st);
    const int64_t elapsed = NowNs() - start;
    const bool enough_passes = !args.trace || pass + 1 >= kTracedMinPasses;
    if (enough_passes && elapsed >= budget) {
      break;
    }
    const int64_t done = static_cast<int64_t>(st->setup_ns.size());
    if (!args.trace && done < static_cast<int64_t>(kSetups) &&
        elapsed * static_cast<int64_t>(kSetups + 1) >= budget * done) {
      PIET_RETURN_NOT_OK(SetUp(w, st, &loaded));
    }
  }
  *keep = std::move(loaded);
  return Status::OK();
}

/// ingest_mixed: each cycle sets up a fresh database with the preloaded
/// days, sends the hostile samples to a throwaway Moft, then ingests the
/// remaining day batches one by one; after each batch it queries the new
/// day and the three days before it. Cycles repeat until the run time is
/// used.
Status RunIngestLoop(const Args& args, const Workload& w,
                     const std::vector<uint64_t>& ref, Tracer* tracer,
                     RunStats* st, LayerProbes* probes) {
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  constexpr size_t kHostilePerCycle = 12;
  for (size_t cycle = 0;; ++cycle) {
    Loaded loaded;
    const int64_t t0 = NowNs();
    PIET_ASSIGN_OR_RETURN(loaded,
                          NewDatabase(w.city, w.layer, w.modes, &st->load));
    for (size_t d = 0; d < w.preload; ++d) {
      PIET_RETURN_NOT_OK(RecordedLoad(&loaded, w.mofts[d], w.modes, st));
    }
    for (size_t d = 0; d < w.preload; ++d) {
      PIET_RETURN_NOT_OK(WarmCaches(loaded, w.mofts[d].name, w.layer,
                                    w.warm_classify, w.warm_aggcache,
                                    &st->load));
    }
    st->setup_ns.push_back(static_cast<double>(NowNs() - t0));
    if (cycle == 0) {
      st->rss_mb = RssMb() - st->rss_mb;
      st->stored_bytes_per_sample = StoredBytesPerSample(loaded);
      if (args.trace) {
        *probes = RunLayerProbes(loaded, w);
        st->aggcache_memory_mb =
            AggCacheMemoryMb(loaded, w.mofts.front().name, w.layer);
      }
    }

    // Write-path hostile probe: every NaN / infinite sample must be
    // refused. The throwaway Moft is never sealed or queried.
    {
      piet::moving::Moft throwaway;
      for (const auto& s : HostileSamples(args.seed * 7919 + cycle,
                                          kHostilePerCycle)) {
        ++st->attempted;
        ++st->hostile_attempted;
        if (throwaway.Add(s.oid, s.t, s.pos).ok()) {
          ++st->failed;
          ++st->hostile_accepted;
        }
      }
    }

    const PassMode pm = BeginPass(args, cycle, st);
    const Services s = MakeServices(loaded, w, pm, tracer, st);
    double pass_ns = 0.0;
    for (size_t d = w.preload; d < w.mofts.size(); ++d) {
      {
        Span span(s.tracer, "op:ingest", true);
        PIET_RETURN_NOT_OK(RecordedLoad(&loaded, w.mofts[d], w.modes, st));
      }
      for (size_t back = 0; back < 4 && back <= d; ++back) {
        const size_t day = d - back;
        for (size_t j = 0; j < w.ops_per_day; ++j) {
          const size_t i = day * w.ops_per_day + j;
          TimedOp(w.ops[i], ref[i], s, st, &pass_ns, j == 0);
        }
      }
    }
    EndPass(pm, pass_ns, st);
    const bool enough_cycles = !args.trace || cycle + 1 >= kTracedMinPasses;
    if (enough_cycles && NowNs() - start >= budget) {
      break;
    }
  }
  return Status::OK();
}

/// Held-out operations: evaluated once each on a freshly loaded database
/// under the workload's modes and compared with the reference (untimed).
Status RunHeldOut(const Workload& w, const std::vector<Op>& ops,
                  const std::vector<uint64_t>& ref, RunStats* st) {
  LoadTimes ignored;
  PIET_ASSIGN_OR_RETURN(Loaded loaded,
                        NewDatabase(w.city, w.layer, w.modes, &ignored));
  for (const MoftInput& in : w.mofts) {
    PIET_RETURN_NOT_OK(LoadMoft(&loaded, in, w.modes, &ignored));
  }
  Services s;
  s.loaded = &loaded;
  s.modes = &w.modes;
  s.layer = w.layer;
  RunStats held;
  double ignored_ns = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    TimedOp(ops[i], ref[i], s, &held, &ignored_ns, false);
  }
  std::printf("held-out: %lld operations, %lld failed (%lld mismatches)\n",
              static_cast<long long>(held.attempted),
              static_cast<long long>(held.failed),
              static_cast<long long>(held.mismatches));
  st->attempted += held.attempted;
  st->failed += held.failed;
  st->mismatches += held.mismatches;
  st->errors += held.errors;
  st->hostile_attempted += held.hostile_attempted;
  st->hostile_accepted += held.hostile_accepted;
  return Status::OK();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, const RunStats& st,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(st.attempted);
  json += ", \"failed\": " + std::to_string(st.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::vector<Metric> EndToEndMetrics(const Workload& w, const RunStats& st) {
  std::printf("samples: %zu timed operations in %zu passes; %zu set-ups; "
              "%zu loads\n",
              st.op_ns.size(), st.untraced_pass_ns.size(),
              st.setup_ns.size(), st.loads);
  if (w.name == "ingest_mixed") {
    std::printf("post-write queries: %zu, post_write_latency_p50_ms %.6g\n",
                st.post_write_ns.size(), Median(st.post_write_ns) / 1e6);
  }
  // Rates are totals over the whole run (work / its summed time), not
  // medians of per-pass or per-load rates: when the host's speed switches
  // between states within a run, a median jumps from one state's value to
  // the other's while the total moves in proportion to the time spent in
  // each.
  double op_ns = 0.0;
  for (double ns : st.untraced_pass_ns) {
    op_ns += ns;
  }
  return {
      {"latency_p50_ms", Percentile(st.op_ns, 0.5) / 1e6, "ms"},
      {"latency_p90_ms", Percentile(st.op_ns, 0.9) / 1e6, "ms"},
      {"queries_per_s", static_cast<double>(st.untraced_ops) / (op_ns / 1e9),
       "1/s"},
      {"ingest_samples_per_s", st.load_samples / (st.load_ns / 1e9), "1/s"},
      {"setup_s", Median(st.setup_ns) / 1e9, "s"},
      {"rss_mb", st.rss_mb, "MB"},
      {"stored_bytes_per_sample", st.stored_bytes_per_sample, "B"},
  };
}

std::vector<Metric> PerLayerMetrics(const RunStats& st, const Tracer& tracer,
                                    const LayerProbes& probes) {
  const auto sum = tracer.Summarize();
  auto median_us = [&](const char* layer) {
    auto it = sum.find(layer);
    return it == sum.end() ? 0.0 : it->second.MedianNs() / 1e3;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::vector<double> engine_ns;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.layer.rfind("engine.", 0) == 0) {
      engine_ns.push_back(static_cast<double>(s.end_ns - s.begin_ns));
    }
  }
  // Materialization is measured on the call whose time it dominates:
  // Type 3 SamplesMatchingTime, which returns one region-C row per sample.
  const auto type3 = sum.find("engine.type3");
  std::vector<double> add_ns_per_sample;
  for (size_t i = 0; i < st.load.add_ns.size(); ++i) {
    add_ns_per_sample.push_back(static_cast<double>(st.load.add_ns[i]) /
                                static_cast<double>(st.load.add_samples[i]));
  }
  std::vector<int64_t> classify = st.load.classify_build_ns;
  classify.insert(classify.end(), st.cold_builds.classify_build_ns.begin(),
                  st.cold_builds.classify_build_ns.end());
  std::vector<int64_t> aggcache = st.load.aggcache_build_ns;
  aggcache.insert(aggcache.end(), st.cold_builds.aggcache_build_ns.begin(),
                  st.cold_builds.aggcache_build_ns.end());
  const Counts& c = st.first_counts;
  const auto agg_it = sum.find("aggregate");
  const double untraced = Median(st.untraced_pass_ns);
  const double spans = Median(st.spans_pass_ns);
  return {
      {"parse.us", median_us("parse"), "us"},
      {"check.us", median_us("check"), "us"},
      {"estimate.us", median_us("estimate"), "us"},
      {"rewrite.us", median_us("rewrite"), "us"},
      {"rewrite.rules_fired", static_cast<double>(c.rewrite_rules), "count"},
      {"geo_filter.us", median_us("geo_filter"), "us"},
      {"geo_filter.ids", static_cast<double>(c.geo_ids), "count"},
      {"overlay.locate_ns_per_point", probes.locate_ns_per_point, "ns"},
      {"overlay.build_ms", Median(ToDoubles(st.load.overlay_ns, 1e-6)), "ms"},
      {"classify.build_ms", Median(ToDoubles(classify, 1e-6)), "ms"},
      {"classify.hit_frac",
       ratio(static_cast<double>(c.classify_hits),
             static_cast<double>(c.classify_lookups)),
       "ratio"},
      {"aggcache.build_ms", Median(ToDoubles(aggcache, 1e-6)), "ms"},
      {"aggcache.serve_us", median_us("aggcache.serve"), "us"},
      {"aggcache.served_frac",
       ratio(static_cast<double>(c.cache_served),
             static_cast<double>(c.cache_eligible)),
       "ratio"},
      {"aggcache.memory_mb", st.aggcache_memory_mb, "MB"},
      {"store.window_us", median_us("store.window"), "us"},
      {"store.blocks_decoded", static_cast<double>(c.store_blocks_decoded),
       "count"},
      {"store.blocks_skipped", static_cast<double>(c.store_blocks_skipped),
       "count"},
      {"store.skip_frac",
       ratio(static_cast<double>(c.store_blocks_skipped),
             static_cast<double>(c.store_blocks_skipped +
                                 c.engine_blocks_pinned)),
       "ratio"},
      {"store.decode_ns_per_row", probes.decode_ns_per_row, "ns"},
      {"store.hot_materializations",
       static_cast<double>(c.store_hot_materializations), "count"},
      {"ingest.add_ns_per_sample", Median(add_ns_per_sample), "ns"},
      {"ingest.seal_ms", Median(ToDoubles(st.load.seal_ns, 1e-6)), "ms"},
      {"engine.us", Median(engine_ns) / 1e3, "us"},
      {"engine.samples_scanned",
       static_cast<double>(c.engine_samples_scanned), "count"},
      {"engine.point_tests", static_cast<double>(c.engine_point_tests),
       "count"},
      {"engine.legs_tested", static_cast<double>(c.engine_legs_tested),
       "count"},
      {"engine.ns_per_leg",
       ratio(static_cast<double>(st.counts.legs_call_ns),
             static_cast<double>(st.counts.engine_legs_tested)),
       "ns"},
      {"materialize.ns_per_row",
       type3 == sum.end()
           ? 0.0
           : ratio(static_cast<double>(type3->second.total_ns),
                   static_cast<double>(type3->second.work)),
       "ns"},
      {"aggregate.ns_per_row",
       agg_it == sum.end()
           ? 0.0
           : ratio(static_cast<double>(agg_it->second.total_ns),
                   static_cast<double>(agg_it->second.work)),
       "ns"},
      {"trace.overhead_frac", ratio(spans - untraced, untraced), "ratio"},
  };
}

void PrintSpanTable(const Tracer& tracer) {
  std::printf("%-28s %8s %12s %12s %12s %12s\n", "layer", "calls",
              "total_ms", "self_ms", "median_us", "work");
  for (const auto& [layer, t] : tracer.Summarize()) {
    std::printf("%-28s %8lld %12.3f %12.3f %12.3f %12lld\n", layer.c_str(),
                static_cast<long long>(t.calls),
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6, t.MedianNs() / 1e3,
                static_cast<long long>(t.work));
  }
}

int Run(const Args& args) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PIET_", 5) == 0) {
      std::fprintf(stderr,
                   "error: refusing to run with %s set; every mode is set "
                   "by the benchmark\n",
                   *e);
      return 2;
    }
  }
  // Observability is on only inside traced passes; flight recording stays
  // off so traced passes add spans and counters, nothing else.
  piet::obs::SetEnabled(false);
  piet::obs::FlightRecorder::Options flight;
  flight.capacity = 0;
  flight.slow_capacity = 0;
  piet::obs::FlightRecorder::Global().Configure(flight);

  const int64_t t_inputs = NowNs();
  auto made = MakeWorkload(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& w = made.ValueOrDie();
  std::vector<Op> held_out;
  if (args.has_holdout) {
    held_out = MakeOps(w, args.holdout_seed ^ 0x5eed5eed5eedULL);
  }

  std::printf("config workload=%s seed=%llu holdout_seed=%s seconds=%g "
              "trace=%d nproc=%u client_threads=1\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.has_holdout ? std::to_string(args.holdout_seed).c_str()
                               : "none",
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency());
  std::printf("config modes: %s\n", w.modes.ToString().c_str());
  std::printf("config reference modes: %s\n",
              ReferenceModes().ToString().c_str());
  std::printf("config inputs: city 16x16 (%d neighborhoods), %zu MOFT(s), "
              "%zu objects each, %zu samples total, %zu operations in the "
              "pool, %zu held-out operations\n",
              w.city.num_neighborhoods, w.mofts.size(), w.objects, w.samples,
              w.ops.size(), held_out.size());

  const int64_t t_reference = NowNs();
  RunStats st;
  bool correct = Remark1Gate(w.modes) && Remark1Gate(ReferenceModes());

  std::vector<Op> all_ops = w.ops;
  all_ops.insert(all_ops.end(), held_out.begin(), held_out.end());
  auto ref = ReferenceAnswers(w, all_ops);
  if (!ref.ok()) {
    std::fprintf(stderr, "error: %s\n", ref.status().ToString().c_str());
    return 1;
  }
  const auto split = ref.ValueOrDie().begin() +
                     static_cast<std::ptrdiff_t>(w.ops.size());
  const std::vector<uint64_t> main_ref(ref.ValueOrDie().begin(), split);
  const std::vector<uint64_t> held_ref(split, ref.ValueOrDie().end());

  // rss_mb is measured from this baseline.
  malloc_trim(0);
  st.rss_mb = RssMb();
  std::printf("phase inputs_s=%.3f reference_s=%.3f\n",
              static_cast<double>(t_reference - t_inputs) / 1e9,
              static_cast<double>(NowNs() - t_reference) / 1e9);
  Tracer tracer;
  LayerProbes probes;
  Loaded keep;
  const Status run = w.name == "ingest_mixed"
                         ? RunIngestLoop(args, w, main_ref, &tracer, &st,
                                         &probes)
                         : RunQueryLoop(args, w, main_ref, &tracer, &st,
                                        &probes, &keep);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.ToString().c_str());
    return 1;
  }
  keep = Loaded{};
  if (args.has_holdout) {
    const Status held = RunHeldOut(w, held_out, held_ref, &st);
    if (!held.ok()) {
      std::fprintf(stderr, "error: %s\n", held.ToString().c_str());
      return 1;
    }
  }
  correct = correct && st.mismatches == 0 && st.errors == 0;
  std::printf("operations: attempted=%lld failed=%lld mismatches=%lld "
              "errors=%lld failed_frac=%.6g\n",
              static_cast<long long>(st.attempted),
              static_cast<long long>(st.failed),
              static_cast<long long>(st.mismatches),
              static_cast<long long>(st.errors),
              st.attempted > 0 ? static_cast<double>(st.failed) /
                                     static_cast<double>(st.attempted)
                               : 0.0);
  std::printf("hostile inputs: %lld sent, %lld accepted (share accepted "
              "%.6g)\n",
              static_cast<long long>(st.hostile_attempted),
              static_cast<long long>(st.hostile_accepted),
              st.hostile_attempted > 0
                  ? static_cast<double>(st.hostile_accepted) /
                        static_cast<double>(st.hostile_attempted)
                  : 0.0);
  if (args.trace) {
    PrintSpanTable(tracer);
    std::printf("counts %s\n", st.first_counts.ToJson().c_str());
    if (!args.spans_out.empty() && !tracer.WriteJsonl(args.spans_out)) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   args.spans_out.c_str());
    }
    PrintResult(correct, st, PerLayerMetrics(st, tracer, probes));
  } else {
    PrintResult(correct, st, EndToEndMetrics(w, st));
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
  bench_e2e::Args args;
  if (!bench_e2e::ParseArgs(argc, argv, &args)) {
    return bench_e2e::Usage("bad arguments");
  }
  return bench_e2e::Run(args);
}
