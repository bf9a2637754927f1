// tj_perfbench: end-to-end and per-layer benchmark of the distributed joins
// on the paper's workloads X and Y (8 simulated nodes, one query at a time).
//
//   tj_perfbench reference --workload W --seed N [--divisor D]
//     Runs the workload's reference driver (a different driver than the one
//     measured) once, untimed, and prints "reference digest=<hex> rows=<n>".
//
//   tj_perfbench measure --workload W --seed N --seconds T --trace 0|1
//                        --digest HEX [--divisor D] [--trace-out PATH]
//     --trace 0: generates the inputs three times (set-up), then runs the
//       workload's query through its public entry point in a closed loop
//       for T seconds with tracing off.
//     --trace 1: for T seconds, runs rounds of one untraced and one traced
//       serial query plus a span-recorded replay of every layer's public
//       functions (replay.h); per-layer numbers are medians over rounds.
//     Every query and replay must produce `digest` and the workload's
//     expected row count, and every exact count must repeat across queries;
//     anything else counts as a failed query.
//
// Output is line-oriented: "metric <name> <value> <unit> [note]",
// "count <name> <value>" (exact counts), "context <key> <value>", and last
// "result attempted=<n> failed=<n>". Exit status 1 if any query failed.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "baseline/hash_join.h"
#include "common/thread_pool.h"
#include "core/pipelined_track_join.h"
#include "core/track_join.h"
#include "obs/trace.h"
#include "replay.h"
#include "spans.h"
#include "workload/real.h"

namespace tj::perfbench {
namespace {

constexpr uint32_t kNodes = 8;
/// Threads of the barrier drivers' JoinConfig::thread_pool: half of a
/// 4-vCPU machine, leaving room for neighbours. The pipelined driver is
/// serial.
constexpr int kPoolThreads = 2;
constexpr int kSetupRepeats = 3;

struct WorkloadDef {
  const char* name;
  bool workload_y;   ///< WorkloadY() instead of WorkloadX(1).
  uint64_t divisor;  ///< InstantiateReal scale divisor.
  Driver driver;     ///< What is measured.
  Driver reference;  ///< A different driver, for the reference digest.
};

constexpr WorkloadDef kWorkloads[] = {
    {"x_tj4", false, 400, Driver::kTrack4, Driver::kHash},
    {"y_tj4", true, 100, Driver::kTrack4, Driver::kHash},
    {"x_hj", false, 400, Driver::kHash, Driver::kTrack4},
    {"x_tj4_pipelined", false, 400, Driver::kTrack4Pipelined, Driver::kHash},
};

/// Barrier-driver phases, in the shape of the paper's Tables 3/4. Each is
/// reported as phase.<slug>.s on every workload (0 where it does not run).
constexpr const char* kPhases[] = {
    "sort local R tuples",
    "sort local S tuples",
    "aggregate keys",
    "hash partition & transfer keys",
    "merge received keys",
    "generate schedules & send locations",
    "selective broadcast & migrate",
    "merge received tuples",
    "final merge-join R->S",
    "final merge-join S->R",
    "hash partition & transfer R tuples",
    "hash partition & transfer S tuples",
    "sort received R tuples",
    "sort received S tuples",
    "final merge-join",
};

/// Per-layer seconds: metric name and the replay span it sums.
constexpr std::pair<const char*, const char*> kLayerSpans[] = {
    {"exec.sort.s", "exec.sort"},
    {"exec.partition.s", "exec.partition"},
    {"exec.aggregate.s", "exec.aggregate"},
    {"core.tracker.encode.s", "core.tracker.encode"},
    {"core.tracker.merge.s", "core.tracker.merge"},
    {"core.schedule.s", "core.schedule"},
    {"core.tracker.pairs.s", "core.tracker.pairs"},
    {"exec.join.s", "exec.join"},
    {"net.fabric.s", "net.fabric"},
    {"net.pipelined_fabric.s", "net.pipelined_fabric"},
};

struct Args {
  std::string mode;
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 0;
  uint64_t divisor = 0;
  double seconds = 10;
  bool trace = false;
  std::optional<uint64_t> digest;
  std::string trace_out;
};

const char* DriverName(Driver driver) {
  switch (driver) {
    case Driver::kTrack4: return "4tj";
    case Driver::kHash: return "hj";
    case Driver::kTrack4Pipelined: return "4tj-pipelined-drr";
  }
  return "?";
}

RealJoinSpec SpecOf(const WorkloadDef& def) {
  return def.workload_y ? WorkloadY() : WorkloadX(1);
}

JoinConfig MakeConfig(const WorkloadDef& def, Driver driver,
                      ThreadPool* pool) {
  const RealJoinSpec spec = SpecOf(def);
  JoinConfig config;
  config.key_bytes = spec.impl_key_bytes;
  config.count_bytes = spec.impl_count_bytes;
  config.node_bytes = 1;
  if (driver == Driver::kTrack4Pipelined) {
    config.pipeline.enabled = true;
    config.pipeline.drr = true;
  } else {
    config.thread_pool = pool;
  }
  return config;
}

Result<JoinResult> RunQuery(Driver driver, const Workload& w,
                            const JoinConfig& config) {
  switch (driver) {
    case Driver::kTrack4:
      return TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
    case Driver::kHash:
      return TryRunHashJoin(w.r, w.s, config);
    case Driver::kTrack4Pipelined:
      return TryRunPipelinedTrackJoin(w.r, w.s, config,
                                      TrackJoinVersion::k4Phase);
  }
  return Status::InvalidArgument("unknown driver");
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

std::string Slug(const std::string& phase) {
  std::string slug;
  for (char c : phase) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

void PrintMetric(const std::string& name, double value, const char* unit,
                 const std::string& note = "") {
  std::printf("metric %s %.17g %s%s%s\n", name.c_str(), value, unit,
              note.empty() ? "" : " ", note.c_str());
}

/// Empty if `result` is a correct answer for `w`, else why not.
std::string CheckResult(const Result<JoinResult>& result, const Workload& w,
                        uint64_t digest) {
  if (!result.ok()) return result.status().ToString();
  if (result->output_rows != w.expected_output_rows) {
    return "output_rows " + std::to_string(result->output_rows) +
           " != expected " + std::to_string(w.expected_output_rows);
  }
  if (result->checksum.count() != result->output_rows ||
      result->checksum.digest() != digest) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "digest %016" PRIx64 " != reference %016" PRIx64,
                  result->checksum.digest(), digest);
    return buf;
  }
  return "";
}

/// The modeled time of a query on the simulated cluster, in µs: the
/// pipelined driver's critical-path makespan, or for the barrier drivers
/// the sum of their phases' modeled network time (their CPU time is
/// measured, not modeled).
double ModeledMakespanUs(const JoinResult& result) {
  if (result.makespan_seconds > 0) return result.makespan_seconds * 1e6;
  double seconds = 0;
  for (const StepRecord& step : result.profile.steps) {
    seconds += step.net_seconds;
  }
  return seconds * 1e6;
}

/// The exact counts of one query that must repeat on every query.
std::map<std::string, double> QueryCounts(const JoinResult& result) {
  return {{"network_bytes",
           static_cast<double>(result.traffic.TotalNetworkBytes())},
          {"max_nic_bytes",
           static_cast<double>(result.traffic.MaxNodeBytes())},
          {"modeled_makespan_us", ModeledMakespanUs(result)},
          {"output_rows", static_cast<double>(result.output_rows)}};
}

void PrintCounts(const std::map<std::string, double>& counts) {
  for (const auto& [name, value] : counts) {
    std::printf("count %s %.17g\n", name.c_str(), value);
  }
}

Workload Generate(const Args& args) {
  return InstantiateReal(SpecOf(*args.workload), kNodes, args.divisor,
                         /*original_order=*/true, args.seed);
}

void PrintContext(const Args& args, const Workload& w, int pool_threads) {
  std::printf("context workload %s\n", args.workload->name);
  std::printf("context driver %s\n", DriverName(args.workload->driver));
  std::printf("context seed %" PRIu64 "\n", args.seed);
  std::printf("context divisor %" PRIu64 "\n", args.divisor);
  std::printf("context nodes %u\n", kNodes);
  std::printf("context tuples_r %" PRIu64 "\n", w.r.TotalRows());
  std::printf("context tuples_s %" PRIu64 "\n", w.s.TotalRows());
  std::printf("context expected_output_rows %" PRIu64 "\n",
              w.expected_output_rows);
  std::printf("context pool_threads %d\n", pool_threads);
  std::printf("context build_type %s\n", TJ_PERFBENCH_BUILD_TYPE);
  std::printf("context compiler %s\n", TJ_PERFBENCH_COMPILER);
}

int RunReference(const Args& args) {
  const WorkloadDef& def = *args.workload;
  Workload w = Generate(args);
  ThreadPool pool(kPoolThreads);
  Result<JoinResult> result =
      RunQuery(def.reference, w, MakeConfig(def, def.reference, &pool));
  if (!result.ok() || result->output_rows != w.expected_output_rows) {
    std::fprintf(stderr, "reference %s failed: %s\n",
                 DriverName(def.reference),
                 result.ok() ? "wrong output_rows"
                             : result.status().ToString().c_str());
    return 1;
  }
  std::printf("reference driver=%s digest=%016" PRIx64 " rows=%" PRIu64 "\n",
              DriverName(def.reference), result->checksum.digest(),
              result->output_rows);
  return 0;
}

int MeasureEndToEnd(const Args& args) {
  const WorkloadDef& def = *args.workload;
  std::vector<double> setup_seconds;
  std::optional<Workload> w;
  for (int i = 0; i < kSetupRepeats; ++i) {
    w.reset();
    const double t0 = NowSeconds();
    w.emplace(Generate(args));
    setup_seconds.push_back(NowSeconds() - t0);
  }

  const bool barrier = def.driver != Driver::kTrack4Pipelined;
  std::optional<ThreadPool> pool;
  if (barrier) pool.emplace(kPoolThreads);
  const JoinConfig config =
      MakeConfig(def, def.driver, barrier ? &*pool : nullptr);

  std::vector<double> wall, cpu;
  std::optional<std::map<std::string, double>> counts;
  uint64_t attempted = 0, failed = 0;
  const double start = NowSeconds();
  do {
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    Result<JoinResult> result = RunQuery(def.driver, *w, config);
    wall.push_back(NowSeconds() - t0);
    cpu.push_back(ProcessCpuSeconds() - cpu0);
    ++attempted;
    std::string error = CheckResult(result, *w, *args.digest);
    if (error.empty()) {
      auto query_counts = QueryCounts(*result);
      if (!counts) counts = query_counts;
      if (query_counts != *counts) error = "exact counts diverged";
    }
    if (!error.empty()) {
      ++failed;
      std::fprintf(stderr, "query %" PRIu64 " failed: %s\n", attempted,
                   error.c_str());
    }
  } while (NowSeconds() - start < args.seconds);

  PrintContext(args, *w, barrier ? kPoolThreads : 0);
  const std::string samples = "samples=" + std::to_string(wall.size());
  PrintMetric("query_s", Median(wall), "s",
              samples + " min=" + std::to_string(*std::min_element(
                                      wall.begin(), wall.end())) +
                  " max=" + std::to_string(
                                *std::max_element(wall.begin(), wall.end())));
  PrintMetric("cpu_s", Median(cpu), "s", samples);
  PrintMetric("peak_rss_mib", PeakRssMib(), "MiB");
  PrintMetric("setup_s", Median(setup_seconds), "s",
              "samples=" + std::to_string(setup_seconds.size()));
  if (counts) {
    PrintMetric("network_bytes", counts->at("network_bytes"), "bytes");
    PrintMetric("max_nic_bytes", counts->at("max_nic_bytes"), "bytes");
    PrintMetric("modeled_makespan_us", counts->at("modeled_makespan_us"),
                "us", barrier ? "barrier: sum of modeled phase network time"
                              : "pipelined: critical-path makespan");
    PrintCounts(*counts);
  }
  PrintMetric("failure_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio");
  std::printf("result attempted=%" PRIu64 " failed=%" PRIu64 "\n", attempted,
              failed);
  return failed == 0 ? 0 : 1;
}

/// Per-layer metrics of one traced round.
struct Round {
  std::map<std::string, double> seconds;  // metric name -> seconds
  std::map<std::string, double> counts;   // exact counts
  double untraced_wall = 0;
  double traced_wall = 0;
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

int MeasureLayers(const Args& args) {
  const WorkloadDef& def = *args.workload;
  const double setup_start = NowSeconds();
  const Workload w = Generate(args);
  const double setup_seconds = NowSeconds() - setup_start;
  // Serial queries, so that the replay's per-node layer times (which sum
  // over nodes) and the traced query's wall time measure the same thing.
  const JoinConfig config = MakeConfig(def, def.driver, /*pool=*/nullptr);

  SpanRecorder recorder;
  Tracer& tracer = Tracer::Global();
  std::vector<Round> rounds;
  uint64_t attempted = 0, failed = 0;
  auto fail = [&](const std::string& error) {
    ++failed;
    std::fprintf(stderr, "traced round %" PRIu64 " failed: %s\n", attempted,
                 error.c_str());
  };
  const double start = NowSeconds();
  do {
    ++attempted;
    Round round;
    // The untraced and the traced query swap order every round, so neither
    // is always the one that runs right after the previous round's replay.
    const bool traced_first = attempted % 2 == 0;
    std::string error;
    auto run_untraced = [&] {
      const double t0 = NowSeconds();
      const std::string bad =
          CheckResult(RunQuery(def.driver, w, config), w, *args.digest);
      round.untraced_wall = NowSeconds() - t0;
      if (!bad.empty() && error.empty()) error = "untraced query: " + bad;
    };
    if (!traced_first) run_untraced();
    const size_t mark = recorder.mark();
    std::optional<Result<JoinResult>> traced;
    tracer.Enable();
    {
      ScopedSpan span(&recorder, "query");
      traced.emplace(RunQuery(def.driver, w, config));
    }
    tracer.Disable();
    tracer.Clear();  // Library-internal spans are not needed; ours are kept.
    round.traced_wall = recorder.Seconds(recorder.spans()[mark].id);
    if (const std::string bad = CheckResult(*traced, w, *args.digest);
        !bad.empty() && error.empty()) {
      error = "traced query: " + bad;
    }
    if (traced_first) run_untraced();
    ReplayOutput replay;
    if (error.empty()) {
      Status status;
      tracer.Enable();
      {
        ScopedSpan span(&recorder, "replay");
        status = ReplayLayers(def.driver, w, config, traced->value(),
                              &recorder, &replay);
      }
      tracer.Disable();
      tracer.Clear();
      if (!status.ok()) {
        error = "replay: " + status.ToString();
      } else if (replay.counts["exec.join.output_rows"] !=
                     w.expected_output_rows ||
                 replay.checksum.digest() != *args.digest) {
        error = "replay output differs from the reference";
      }
    }
    if (!error.empty()) {
      fail(error);
      continue;
    }

    const auto self = recorder.SelfSecondsByName(mark);
    auto self_of = [&](const char* span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second;
    };
    double layers = 0;
    for (const auto& [metric, span] : kLayerSpans) {
      round.seconds[metric] = self_of(span);
      layers += self_of(span);
    }
    round.seconds["storage.checksum.s"] =
        self_of("storage.checksum_join") - self_of("exec.join");
    layers += round.seconds["storage.checksum.s"];
    round.seconds["driver.residual.s"] = round.traced_wall - layers;
    if (def.driver != Driver::kTrack4Pipelined) {
      for (const auto& [phase, secs] : (*traced)->phase_seconds) {
        round.seconds["phase." + Slug(phase) + ".s"] += secs;
      }
    }

    Counts& c = replay.counts;
    for (const auto& [name, value] : c) {
      round.counts[name] = static_cast<double>(value);
    }
    for (const auto& [name, value] : QueryCounts(**traced)) {
      round.counts["query." + name] = value;
    }
    // Derived ratios, exact because their inputs are.
    round.counts["exec.aggregate.keys_per_tuple"] =
        Ratio(c["exec.aggregate.keys"], c["exec.aggregate.tuples"]);
    round.counts["core.tracker.keys_per_entry"] =
        Ratio(c["core.tracker.keys"], c["core.tracker.entries"]);
    round.counts["core.schedule.migrated_share"] =
        Ratio(c["core.schedule.migrated_keys"], c["core.schedule.keys"]);
    if (!rounds.empty() && round.counts != rounds.front().counts) {
      fail("exact counts diverged from the first round");
      continue;
    }
    rounds.push_back(std::move(round));
  } while (NowSeconds() - start < args.seconds);

  PrintContext(args, w, 0);
  std::printf("context setup_s %.6f\n", setup_seconds);
  if (!rounds.empty()) {
    const std::string samples = "rounds=" + std::to_string(rounds.size());
    auto median_of = [&](auto get) {
      std::vector<double> values;
      for (const Round& round : rounds) values.push_back(get(round));
      return Median(values);
    };
    std::vector<std::string> second_names;
    for (const auto& [metric, span] : kLayerSpans) second_names.push_back(metric);
    second_names.push_back("storage.checksum.s");
    second_names.push_back("driver.residual.s");
    for (const char* phase : kPhases) {
      second_names.push_back("phase." + Slug(phase) + ".s");
    }
    for (const auto& [name, secs] : rounds.front().seconds) {
      if (std::find(second_names.begin(), second_names.end(), name) ==
          second_names.end()) {
        second_names.push_back(name);
      }
    }
    for (const std::string& name : second_names) {
      PrintMetric(name, median_of([&](const Round& round) {
                    auto it = round.seconds.find(name);
                    return it == round.seconds.end() ? 0.0 : it->second;
                  }),
                  "s", samples);
    }
    const std::map<std::string, double>& c = rounds.front().counts;
    auto count = [&](const char* name) {
      auto it = c.find(name);
      return it == c.end() ? 0.0 : it->second;
    };
    PrintMetric("exec.sort.tuples", count("exec.sort.tuples"), "count");
    PrintMetric("exec.partition.tuples", count("exec.partition.tuples"),
                "count");
    PrintMetric("exec.aggregate.keys_per_tuple",
                count("exec.aggregate.keys_per_tuple"), "ratio");
    PrintMetric("core.tracker.bytes", count("core.tracker.bytes"), "bytes");
    PrintMetric("core.tracker.keys_per_entry",
                count("core.tracker.keys_per_entry"), "ratio");
    PrintMetric("core.schedule.keys", count("core.schedule.keys"), "count");
    PrintMetric("core.schedule.migrated_share",
                count("core.schedule.migrated_share"), "ratio");
    PrintMetric("core.tracker.pairs.bytes", count("core.tracker.pairs.bytes"),
                "bytes");
    PrintMetric("exec.join.output_rows", count("exec.join.output_rows"),
                "count");
    PrintMetric("net.fabric.bytes", count("net.fabric.bytes"), "bytes");
    PrintMetric("net.pipelined_fabric.chunks",
                count("net.pipelined_fabric.chunks"), "count");
    const double untraced =
        median_of([](const Round& round) { return round.untraced_wall; });
    const double traced =
        median_of([](const Round& round) { return round.traced_wall; });
    PrintMetric("trace.query_s", traced, "s", samples);
    PrintMetric("trace.untraced_query_s", untraced, "s", samples);
    PrintMetric("trace.overhead", traced / untraced, "ratio", samples);
    PrintCounts(c);
  }
  if (!args.trace_out.empty() && !recorder.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  std::printf("result attempted=%" PRIu64 " failed=%" PRIu64 "\n", attempted,
              failed);
  return failed == 0 && !rounds.empty() ? 0 : 1;
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: tj_perfbench reference|measure --workload W "
               "--seed N [--seconds T] [--trace 0|1] [--digest HEX] "
               "[--divisor D] [--trace-out PATH]\n",
               error);
  return 2;
}

bool ParseUint(const char* text, int base, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, base);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("flag without a value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--workload") {
      for (const WorkloadDef& def : kWorkloads) {
        if (std::strcmp(def.name, value) == 0) args.workload = &def;
      }
      if (args.workload == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed" && ParseUint(value, 10, &number)) {
      args.seed = number;
    } else if (flag == "--divisor" && ParseUint(value, 10, &number) &&
               number > 0) {
      args.divisor = number;
    } else if (flag == "--seconds" && ParseUint(value, 10, &number)) {
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && ParseUint(value, 10, &number) &&
               number <= 1) {
      args.trace = number == 1;
    } else if (flag == "--digest" && ParseUint(value, 16, &number)) {
      args.digest = number;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("bad flag or value: " + flag).c_str());
    }
  }
  if (args.workload == nullptr) return Usage("--workload is required");
  if (args.divisor == 0) args.divisor = args.workload->divisor;
  if (args.mode == "reference") return RunReference(args);
  if (args.mode != "measure") return Usage("unknown mode");
  if (!args.digest) return Usage("measure needs --digest");
  return args.trace ? MeasureLayers(args) : MeasureEndToEnd(args);
}

}  // namespace
}  // namespace tj::perfbench

int main(int argc, char** argv) { return tj::perfbench::Main(argc, argv); }
