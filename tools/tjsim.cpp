// tjsim — interactive distributed-join traffic simulator.
//
// Describe a join input on the command line, run any (or all) of the
// algorithms on the simulated cluster, and get verified results with
// per-class traffic and modeled time. Examples:
//
//   tjsim --nodes=16 --keys=1000000 --rpayload=16 --spayload=56
//   tjsim --smult=5 --spattern=2,2,1 --collocation=intra --algo=4tj
//   tjsim --zipf=1.1 --balance --algo=4tj,hj
//   tjsim --keys=50000 --runmatched=450000 --algo=all --bandwidth=1.25
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/broadcast_join.h"
#include "baseline/hash_join.h"
#include "common/bit_util.h"
#include "core/key_column_join.h"
#include "core/pipelined_track_join.h"
#include "core/recovery.h"
#include "core/schedule.h"
#include "core/track_join.h"
#include "net/time_model.h"
#include "obs/blame.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/step_profile.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace {

/// NetworkTimeModel's default NIC rate, the only one --pipeline models.
constexpr double kDefaultBandwidthGbps = 0.093;

struct Options {
  uint32_t nodes = 8;
  uint64_t keys = 100000;
  uint32_t r_mult = 1;
  uint32_t s_mult = 1;
  std::vector<uint32_t> r_pattern;
  std::vector<uint32_t> s_pattern;
  tj::Collocation collocation = tj::Collocation::kRandom;
  double collocated_fraction = 1.0;
  uint64_t r_unmatched = 0;
  uint64_t s_unmatched = 0;
  uint32_t r_payload = 16;
  uint32_t s_payload = 16;
  uint32_t key_bytes = 4;
  double zipf = -1.0;  // >= 0 switches to the Zipf generator.
  bool shuffle = false;
  bool balance = false;
  uint64_t hot_key_threshold = 0;  // 0 = hot-key splitting off.
  uint32_t hot_key_max_split = 4;
  bool delta = false;
  bool group = false;
  bool pipeline = false;
  uint64_t pipeline_chunk = 0;  // 0 = PipelineConfig default.
  uint64_t inbox_budget = 0;    // 0 = PipelineConfig default.
  std::string egress_sched;     // "" (default fifo) | fifo | drr
  uint64_t drr_quantum = 0;     // 0 = PipelineConfig default (chunk_bytes).
  uint64_t seed = 42;
  double bandwidth_gbps = kDefaultBandwidthGbps;
  std::vector<std::string> algos = {"all"};
  tj::FaultPolicy fault;
  uint64_t fault_seed = 0;
  bool fault_seed_set = false;
  uint32_t replicas = 1;
  double phase_deadline = 0;
  uint32_t recovery_attempts = 0;  // 0 = default (4) when recovery is on.
  double recovery_backoff = 0.05;
  std::string profile;  // "" (off) | json | csv | table
  std::string trace_path;  // "" (off) | Chrome trace output file
  std::string explain;     // "" (off) | json | table
  uint64_t explain_top = 10;
  bool explain_top_set = false;
  std::string blame;       // "" (off) | json | table; requires --pipeline
  uint64_t blame_top = 20;
  bool blame_top_set = false;
  bool metrics = false;
};

[[noreturn]] void Usage() {
  std::printf(R"(tjsim — distributed join traffic simulator (track join & baselines)

workload:
  --nodes=N            cluster size (default 8)
  --keys=N             distinct matched keys (default 100000)
  --rmult=N --smult=N  copies of each key per table (default 1)
  --rpattern=a,b,...   placement pattern for R repeats under intra|inter
                       collocation (sums to rmult, at most N groups)
  --spattern=a,b,...   placement pattern for S repeats (same rules)
  --collocation=MODE   random | intra | inter (default random)
  --collocated=F       fraction of keys following the mode (default 1.0)
  --runmatched=N       R rows with unmatched keys (drives selectivity)
  --sunmatched=N       S rows with unmatched keys
  --rpayload=B --spayload=B  payload bytes per tuple (default 16)
  --zipf=THETA         use Zipf-skewed keys instead (keys = domain > 0)
  --shuffle            shuffle all tuples after generation
  --seed=N             PRNG seed (default 42)

execution:
  --algo=LIST          comma list of: hj bj-r bj-s 2tj-r 2tj-s 3tj 4tj
                       rid-hj late-hj all (default all)
  --key-bytes=B        serialized key width wk (default 4); must hold the
                       workload's largest key
  --balance            balance-aware 4-phase scheduling
  --hot-key-threshold=N  split keys whose modeled output (r_rows*s_rows)
                       reaches N across several nodes (4tj; 0 = off)
  --hot-key-max-split=W  cap on workers per split hot key (default 4)
  --delta              delta-compress tracking keys
  --group              node-group location messages
  --bandwidth=GBPS     NIC GB/s for the time model (default 0.093).
                       Barrier runs only: the pipelined fabric prices its
                       NICs at the default, so a non-default value with
                       --pipeline is a usage error.
  --pipeline           event-driven micro-batch execution for 2tj-r/2tj-s/
                       3tj/4tj (any other algorithm is a usage error):
                       tracking, scheduling and transfers overlap; reports
                       modeled makespan vs the barrier sum-of-phases.
                       Incompatible with --delta/--group (plain wire format
                       required) and with the recovery flags.
  --pipeline-chunk=B   micro-batch chunk payload bytes (default 4096)
  --inbox-budget=B     per-node inbox budget enforced by credit-based flow
                       control (default 32768)
  --egress-sched=POL   egress NIC scheduling policy for --pipeline:
                       fifo | drr (default fifo). drr drains per-destination
                       queues by deficit round-robin, so one backlogged
                       destination cannot head-of-line block the others.
                       Timing-only: traffic, checksums and EXPLAIN are
                       byte-identical across policies.
  --drr-quantum=B      DRR byte quantum per destination per round (default:
                       the chunk size); requires --egress-sched=drr

fault injection (any nonzero flag frames messages and enables retry/ack):
  --fault-drop=P       P(frame dropped) per transmission (default 0)
  --fault-corrupt=P    P(one bit flipped) per transmission (default 0)
  --fault-dup=P        P(frame duplicated) per transmission (default 0)
  --fault-reorder=P    P(adjacent inbox messages swapped) (default 0)
  --fault-crash-node=N node (< --nodes) that fail-stops (query fails with
                       DataLoss unless recovery is on)
  --fault-crash-phase=K  0-based global phase the crash takes effect
  --fault-slow-node=N  straggler node (< --nodes): phases run slower in
                       modeled time
                       (pristine wire path; traffic is unchanged)
  --fault-slow-seconds=S  modeled extra seconds per phase for the straggler
  --fault-retries=N    retransmit rounds before giving up (default 8)
  --fault-seed=N       injector PRNG seed (default: --seed)

recovery (replica failover + checkpointed replay; enabled by any of these):
  --replicas=K         copies per partition, chained declustering (default 1)
  --phase-deadline=S   modeled phase deadline: a straggler slower than S is
                       promoted to suspected-dead and failed over
  --recovery-attempts=N  total attempt budget incl. the first run
                       (default 4 once recovery is on)
  --recovery-backoff=S initial modeled backoff before a transient retry,
                       doubling per consecutive retry (default 0.05)

observability:
  --profile=FORMAT     per-step breakdown after each run: json | csv | table
                       (json/csv replace the default report on stdout)
  --trace=FILE         record spans and write Chrome trace-event JSON to FILE
                       (open in Perfetto / chrome://tracing)
  --explain=FORMAT     per-key scheduler audit for track joins: json | table
                       (json replaces the default report on stdout)
  --explain-top=N      heavy-hitter keys listed per audit (default 10)
  --blame=FORMAT       critical-path makespan blame for pipelined runs:
                       json | table. Decomposes pipeline.makespan_us into
                       (node, resource, stage, wait-class) buckets that sum
                       to the makespan exactly; requires --pipeline (json
                       replaces the default report on stdout)
  --blame-top=N        critical-path edges listed per report (default 20)
  --metrics            dump the metrics registry (Prometheus text format)

exit codes: 0 success; 1 usage error or result mismatch; 2 join failure;
3 fault-induced failure (DataLoss / Unavailable / DeadlineExceeded).
)");
  std::exit(0);
}

// --- Strict numeric flag parsing -------------------------------------------
//
// Every numeric flag must consume its whole value and fall inside the
// flag's documented range; anything else (empty value, trailing junk,
// negative numbers fed to unsigned flags, overflow) is a hard error.
// strtoul-with-null-endptr silently turned "--nodes=foo" into a 0-node
// cluster before.

[[noreturn]] void FlagError(const char* flag, const char* value,
                            const char* expected) {
  std::fprintf(stderr, "invalid value '%s' for %s (expected %s)\n", value,
               flag, expected);
  std::exit(1);
}

uint64_t ParseUint64Flag(const char* flag, const char* value, uint64_t min,
                         uint64_t max, const char* expected) {
  if (*value == '\0' || *value == '-' || *value == '+') {
    FlagError(flag, value, expected);
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < min ||
      parsed > max) {
    FlagError(flag, value, expected);
  }
  return parsed;
}

uint32_t ParseUint32Flag(const char* flag, const char* value, uint32_t min,
                         uint32_t max, const char* expected) {
  return static_cast<uint32_t>(ParseUint64Flag(flag, value, min, max,
                                               expected));
}

double ParseDoubleFlag(const char* flag, const char* value, double min,
                       double max, const char* expected) {
  if (*value == '\0') FlagError(flag, value, expected);
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE ||
      std::isnan(parsed) || parsed < min || parsed > max) {
    FlagError(flag, value, expected);
  }
  return parsed;
}

std::vector<uint32_t> ParsePattern(const char* flag, const char* s) {
  std::vector<uint32_t> out;
  const char* p = s;
  while (true) {
    const char* item_end = p;
    while (*item_end && *item_end != ',') ++item_end;
    std::string item(p, item_end);
    out.push_back(ParseUint32Flag(flag, item.c_str(), 1, 1u << 20,
                                  "comma list of positive integers"));
    if (*item_end == '\0') break;
    p = item_end + 1;
  }
  return out;
}

std::vector<std::string> SplitList(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (; *s; ++s) {
    if (*s == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += *s;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// The track joins: the only algorithms with per-key schedules (EXPLAIN)
// and with a pipelined driver (--pipeline).
struct TrackAlgo {
  tj::TrackJoinVersion version;
  tj::Direction direction;
};

std::optional<TrackAlgo> TrackAlgoByName(const std::string& name) {
  if (name == "2tj-r") {
    return TrackAlgo{tj::TrackJoinVersion::k2Phase, tj::Direction::kRtoS};
  }
  if (name == "2tj-s") {
    return TrackAlgo{tj::TrackJoinVersion::k2Phase, tj::Direction::kStoR};
  }
  if (name == "3tj") {
    return TrackAlgo{tj::TrackJoinVersion::k3Phase, tj::Direction::kRtoS};
  }
  if (name == "4tj") {
    return TrackAlgo{tj::TrackJoinVersion::k4Phase, tj::Direction::kRtoS};
  }
  return std::nullopt;
}

/// The uniform generator's spec for the parsed options.
tj::WorkloadSpec UniformSpec(const Options& opt) {
  tj::WorkloadSpec spec;
  spec.num_nodes = opt.nodes;
  spec.seed = opt.seed;
  spec.matched_keys = opt.keys;
  spec.r_multiplicity = opt.r_mult;
  spec.s_multiplicity = opt.s_mult;
  spec.r_pattern = opt.r_pattern;
  spec.s_pattern = opt.s_pattern;
  spec.collocation = opt.collocation;
  spec.collocated_fraction = opt.collocated_fraction;
  spec.r_unmatched = opt.r_unmatched;
  spec.s_unmatched = opt.s_unmatched;
  spec.r_payload = opt.r_payload;
  spec.s_payload = opt.s_payload;
  return spec;
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return std::strncmp(a, prefix, len) == 0 ? a + len : nullptr;
    };
    const char* v;
    if ((v = val("--nodes="))) {
      opt.nodes = ParseUint32Flag("--nodes", v, 1, 1u << 16,
                                  "integer in [1, 65536]");
    } else if ((v = val("--keys="))) {
      opt.keys = ParseUint64Flag("--keys", v, 0, UINT64_MAX,
                                 "non-negative integer");
    } else if ((v = val("--rmult="))) {
      opt.r_mult = ParseUint32Flag("--rmult", v, 1, 1u << 20,
                                   "integer in [1, 1048576]");
    } else if ((v = val("--smult="))) {
      opt.s_mult = ParseUint32Flag("--smult", v, 1, 1u << 20,
                                   "integer in [1, 1048576]");
    } else if ((v = val("--rpattern="))) {
      opt.r_pattern = ParsePattern("--rpattern", v);
    } else if ((v = val("--spattern="))) {
      opt.s_pattern = ParsePattern("--spattern", v);
    } else if ((v = val("--collocation="))) {
      if (std::strcmp(v, "intra") == 0) {
        opt.collocation = tj::Collocation::kIntra;
      } else if (std::strcmp(v, "inter") == 0) {
        opt.collocation = tj::Collocation::kInter;
      } else if (std::strcmp(v, "random") == 0) {
        opt.collocation = tj::Collocation::kRandom;
      } else {
        std::fprintf(stderr, "unknown collocation '%s'\n", v);
        std::exit(1);
      }
    } else if ((v = val("--collocated="))) {
      opt.collocated_fraction =
          ParseDoubleFlag("--collocated", v, 0.0, 1.0, "fraction in [0, 1]");
    } else if ((v = val("--runmatched="))) {
      opt.r_unmatched = ParseUint64Flag("--runmatched", v, 0, UINT64_MAX,
                                        "non-negative integer");
    } else if ((v = val("--sunmatched="))) {
      opt.s_unmatched = ParseUint64Flag("--sunmatched", v, 0, UINT64_MAX,
                                        "non-negative integer");
    } else if ((v = val("--rpayload="))) {
      opt.r_payload = ParseUint32Flag("--rpayload", v, 0, 1u << 20,
                                      "bytes in [0, 1048576]");
    } else if ((v = val("--spayload="))) {
      opt.s_payload = ParseUint32Flag("--spayload", v, 0, 1u << 20,
                                      "bytes in [0, 1048576]");
    } else if ((v = val("--key-bytes="))) {
      opt.key_bytes = ParseUint32Flag("--key-bytes", v, 1, 8,
                                      "bytes in [1, 8]");
    } else if ((v = val("--zipf="))) {
      opt.zipf = ParseDoubleFlag("--zipf", v, 0.0, 100.0,
                                 "theta in [0, 100]");
    } else if ((v = val("--seed="))) {
      opt.seed = ParseUint64Flag("--seed", v, 0, UINT64_MAX,
                                 "non-negative integer");
    } else if ((v = val("--bandwidth="))) {
      opt.bandwidth_gbps = ParseDoubleFlag("--bandwidth", v, 1e-6, 1e6,
                                           "GB/s in [1e-6, 1e6]");
    } else if ((v = val("--fault-drop="))) {
      opt.fault.drop = ParseDoubleFlag("--fault-drop", v, 0.0, 1.0,
                                       "probability in [0, 1]");
    } else if ((v = val("--fault-corrupt="))) {
      opt.fault.corrupt = ParseDoubleFlag("--fault-corrupt", v, 0.0, 1.0,
                                          "probability in [0, 1]");
    } else if ((v = val("--fault-dup="))) {
      opt.fault.duplicate = ParseDoubleFlag("--fault-dup", v, 0.0, 1.0,
                                            "probability in [0, 1]");
    } else if ((v = val("--fault-reorder="))) {
      opt.fault.reorder = ParseDoubleFlag("--fault-reorder", v, 0.0, 1.0,
                                          "probability in [0, 1]");
    } else if ((v = val("--fault-crash-node="))) {
      opt.fault.crash_node = ParseUint32Flag(
          "--fault-crash-node", v, 0, tj::FaultPolicy::kNoNode - 1,
          "node index");
    } else if ((v = val("--fault-crash-phase="))) {
      opt.fault.crash_phase = ParseUint32Flag(
          "--fault-crash-phase", v, 0, UINT32_MAX, "phase index");
    } else if ((v = val("--fault-slow-node="))) {
      opt.fault.slow_node = ParseUint32Flag(
          "--fault-slow-node", v, 0, tj::FaultPolicy::kNoNode - 1,
          "node index");
    } else if ((v = val("--fault-slow-seconds="))) {
      opt.fault.slowdown_seconds = ParseDoubleFlag(
          "--fault-slow-seconds", v, 0.0, 1e9, "seconds in [0, 1e9]");
    } else if ((v = val("--replicas="))) {
      opt.replicas = ParseUint32Flag("--replicas", v, 1, 1u << 16,
                                     "integer in [1, 65536]");
    } else if ((v = val("--phase-deadline="))) {
      opt.phase_deadline = ParseDoubleFlag("--phase-deadline", v, 0.0, 1e9,
                                           "seconds in [0, 1e9]");
    } else if ((v = val("--recovery-attempts="))) {
      opt.recovery_attempts = ParseUint32Flag(
          "--recovery-attempts", v, 1, 1u << 10, "integer in [1, 1024]");
    } else if ((v = val("--recovery-backoff="))) {
      opt.recovery_backoff = ParseDoubleFlag(
          "--recovery-backoff", v, 0.0, 1e9, "seconds in [0, 1e9]");
    } else if ((v = val("--fault-retries="))) {
      opt.fault.max_retries = ParseUint32Flag(
          "--fault-retries", v, 1, 1u << 20,
          "integer in [1, 1048576]; 0 retries cannot recover any loss");
    } else if ((v = val("--fault-seed="))) {
      opt.fault_seed = ParseUint64Flag("--fault-seed", v, 0, UINT64_MAX,
                                       "non-negative integer");
      opt.fault_seed_set = true;
    } else if ((v = val("--algo="))) {
      opt.algos = SplitList(v);
      if (opt.algos.empty()) {
        std::fprintf(stderr, "--algo needs at least one algorithm\n");
        std::exit(1);
      }
    } else if ((v = val("--profile="))) {
      opt.profile = v;
      if (opt.profile != "json" && opt.profile != "csv" &&
          opt.profile != "table") {
        FlagError("--profile", v, "json | csv | table");
      }
    } else if ((v = val("--trace="))) {
      opt.trace_path = v;
      if (opt.trace_path.empty()) {
        FlagError("--trace", v, "output file path");
      }
    } else if ((v = val("--explain="))) {
      opt.explain = v;
      if (opt.explain != "json" && opt.explain != "table") {
        FlagError("--explain", v, "json | table");
      }
    } else if ((v = val("--explain-top="))) {
      opt.explain_top = ParseUint64Flag("--explain-top", v, 0, 1u << 20,
                                        "integer in [0, 1048576]");
      opt.explain_top_set = true;
    } else if ((v = val("--blame="))) {
      opt.blame = v;
      if (opt.blame != "json" && opt.blame != "table") {
        FlagError("--blame", v, "json | table");
      }
    } else if ((v = val("--blame-top="))) {
      opt.blame_top = ParseUint64Flag("--blame-top", v, 0, 1u << 20,
                                      "integer in [0, 1048576]");
      opt.blame_top_set = true;
    } else if ((v = val("--hot-key-threshold="))) {
      opt.hot_key_threshold = ParseUint64Flag(
          "--hot-key-threshold", v, 0, UINT64_MAX, "unsigned integer");
    } else if ((v = val("--hot-key-max-split="))) {
      opt.hot_key_max_split = ParseUint32Flag(
          "--hot-key-max-split", v, 0, 1u << 16, "integer in [0, 65536]");
    } else if (std::strcmp(a, "--metrics") == 0) {
      opt.metrics = true;
    } else if (std::strcmp(a, "--shuffle") == 0) {
      opt.shuffle = true;
    } else if (std::strcmp(a, "--balance") == 0) {
      opt.balance = true;
    } else if (std::strcmp(a, "--delta") == 0) {
      opt.delta = true;
    } else if (std::strcmp(a, "--group") == 0) {
      opt.group = true;
    } else if (std::strcmp(a, "--pipeline") == 0) {
      opt.pipeline = true;
    } else if ((v = val("--pipeline-chunk="))) {
      opt.pipeline_chunk = ParseUint64Flag("--pipeline-chunk", v, 1, 1u << 30,
                                           "bytes in [1, 2^30]");
    } else if ((v = val("--inbox-budget="))) {
      opt.inbox_budget = ParseUint64Flag("--inbox-budget", v, 1, 1ull << 40,
                                         "bytes in [1, 2^40]");
    } else if ((v = val("--egress-sched="))) {
      opt.egress_sched = v;
      if (opt.egress_sched != "fifo" && opt.egress_sched != "drr") {
        FlagError("--egress-sched", v, "fifo | drr");
      }
    } else if ((v = val("--drr-quantum="))) {
      opt.drr_quantum = ParseUint64Flag("--drr-quantum", v, 1, 1u << 30,
                                        "bytes in [1, 2^30]");
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      Usage();
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", a);
      std::exit(1);
    }
  }
  // Fault nodes are checked once --nodes is known: an index past the
  // cluster would otherwise never fire and the run would silently pass.
  const std::pair<const char*, uint32_t> fault_nodes[] = {
      {"--fault-crash-node", opt.fault.crash_node},
      {"--fault-slow-node", opt.fault.slow_node}};
  for (const auto& [flag, node] : fault_nodes) {
    if (node != tj::FaultPolicy::kNoNode && node >= opt.nodes) {
      std::fprintf(stderr, "%s=%u is out of range for --nodes=%u (0..%u)\n",
                   flag, node, opt.nodes, opt.nodes - 1);
      std::exit(1);
    }
  }
  // Placement patterns shape only the intra/inter collocated generator.
  if ((opt.zipf >= 0 || opt.collocation == tj::Collocation::kRandom) &&
      (!opt.r_pattern.empty() || !opt.s_pattern.empty())) {
    std::fprintf(stderr,
                 "%s places repeat groups only under "
                 "--collocation=intra|inter without --zipf\n",
                 opt.r_pattern.empty() ? "--spattern" : "--rpattern");
    std::exit(1);
  }
  // The generator's own preconditions, with each field it names spelled as
  // the flag that sets it.
  if (opt.zipf < 0) {
    tj::Status valid = tj::ValidateWorkloadSpec(UniformSpec(opt));
    if (!valid.ok()) {
      std::string message = valid.message();
      for (const auto& [field, flag] :
           {std::pair<std::string, std::string>{"num_nodes", "--nodes"},
            {"r_multiplicity", "--rmult"},
            {"s_multiplicity", "--smult"},
            {"r_pattern", "--rpattern"},
            {"s_pattern", "--spattern"}}) {
        const size_t at = message.find(field);
        if (at != std::string::npos) message.replace(at, field.size(), flag);
      }
      std::fprintf(stderr, "invalid workload: %s\n", message.c_str());
      std::exit(1);
    }
  }
  if (opt.pipeline && (opt.delta || opt.group)) {
    std::fprintf(stderr,
                 "--pipeline requires the plain wire format; drop --delta "
                 "and --group\n");
    std::exit(1);
  }
  if (opt.pipeline && (opt.replicas > 1 || opt.recovery_attempts > 0 ||
                       opt.phase_deadline > 0)) {
    std::fprintf(stderr,
                 "--pipeline does not compose with the recovery flags "
                 "(--replicas/--recovery-attempts/--phase-deadline)\n");
    std::exit(1);
  }
  if (opt.pipeline && opt.bandwidth_gbps != kDefaultBandwidthGbps) {
    std::fprintf(stderr,
                 "--bandwidth reprices only barrier runs; the --pipeline "
                 "makespan is modeled at the default 0.093 GB/s NIC rate\n");
    std::exit(1);
  }
  if ((opt.pipeline_chunk > 0 || opt.inbox_budget > 0) && !opt.pipeline) {
    std::fprintf(stderr, "%s tunes the pipelined fabric; add --pipeline\n",
                 opt.pipeline_chunk > 0 ? "--pipeline-chunk"
                                        : "--inbox-budget");
    std::exit(1);
  }
  if (!opt.egress_sched.empty() && !opt.pipeline) {
    std::fprintf(stderr,
                 "--egress-sched selects the pipelined fabric's NIC "
                 "scheduler; add --pipeline\n");
    std::exit(1);
  }
  if (opt.drr_quantum > 0 && opt.egress_sched != "drr") {
    std::fprintf(stderr,
                 "--drr-quantum tunes the deficit round-robin scheduler; "
                 "add --egress-sched=drr\n");
    std::exit(1);
  }
  if (opt.explain_top_set && opt.explain.empty()) {
    std::fprintf(stderr,
                 "--explain-top sizes the scheduler audit; add --explain\n");
    std::exit(1);
  }
  if (opt.blame_top_set && opt.blame.empty()) {
    std::fprintf(stderr,
                 "--blame-top sizes the blame report; add --blame\n");
    std::exit(1);
  }
  if (!opt.blame.empty() && !opt.pipeline) {
    std::fprintf(stderr,
                 "--blame decomposes the pipelined makespan; add --pipeline "
                 "(and a pipelined algorithm: 2tj-r, 2tj-s, 3tj or 4tj)\n");
    std::exit(1);
  }
  if (opt.pipeline) {
    for (const std::string& algo : opt.algos) {
      if (!TrackAlgoByName(algo)) {
        std::fprintf(stderr,
                     "--pipeline runs only the pipelined algorithms "
                     "(--algo=2tj-r,2tj-s,3tj,4tj); '%s' is not one\n",
                     algo.c_str());
        std::exit(1);
      }
    }
  }
  return opt;
}

tj::Result<tj::JoinResult> RunByName(const std::string& name,
                                     const tj::PartitionedTable& r,
                                     const tj::PartitionedTable& s,
                                     const tj::JoinConfig& config,
                                     bool* known) {
  *known = true;
  if (name == "hj") return tj::TryRunHashJoin(r, s, config);
  if (name == "bj-r") {
    return tj::TryRunBroadcastJoin(r, s, config, tj::Direction::kRtoS);
  }
  if (name == "bj-s") {
    return tj::TryRunBroadcastJoin(r, s, config, tj::Direction::kStoR);
  }
  if (std::optional<TrackAlgo> track = TrackAlgoByName(name)) {
    if (config.pipeline.enabled) {
      return tj::TryRunPipelinedTrackJoin(r, s, config, track->version,
                                          track->direction);
    }
    return tj::TryRunTrackJoin(r, s, config, track->version,
                               track->direction);
  }
  if (name == "rid-hj") return tj::TryRunRidHashJoin(r, s, config);
  if (name == "late-hj") {
    return tj::TryRunLateMaterializedHashJoin(r, s, config);
  }
  *known = false;
  return tj::JoinResult{};
}

/// Prints one JSON array to stdout, an element per line.
template <typename T>
void PrintJsonArray(const std::vector<T>& items) {
  std::printf("[");
  for (size_t i = 0; i < items.size(); ++i) {
    std::printf("%s%s", i > 0 ? ",\n " : "", tj::ToJson(items[i]).c_str());
  }
  std::printf("]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Parse(argc, argv);

  tj::Result<tj::Workload> generated = [&]() -> tj::Result<tj::Workload> {
    if (opt.zipf >= 0) {
      tj::ZipfWorkloadSpec spec;
      spec.num_nodes = opt.nodes;
      spec.seed = opt.seed;
      spec.key_domain = opt.keys;
      spec.r_rows = opt.keys * opt.r_mult;
      spec.s_rows = opt.keys * opt.s_mult;
      spec.r_theta = opt.zipf;
      spec.s_theta = opt.zipf;
      spec.r_payload = opt.r_payload;
      spec.s_payload = opt.s_payload;
      return tj::TryGenerateZipfWorkload(spec);
    }
    return tj::GenerateWorkload(UniformSpec(opt));
  }();
  if (!generated.ok()) {
    std::fprintf(stderr, "invalid --zipf workload (--keys=%" PRIu64 "): %s\n",
                 opt.keys, generated.status().ToString().c_str());
    return 1;
  }
  tj::Workload w = std::move(generated).value();
  // Every algorithm serializes keys at --key-bytes; a narrower width would
  // truncate them on the wire and join the wrong rows.
  uint64_t max_key = 0;
  for (const tj::PartitionedTable* table : {&w.r, &w.s}) {
    for (uint32_t node = 0; node < table->num_nodes(); ++node) {
      for (uint64_t key : table->node(node).keys()) {
        max_key = std::max(max_key, key);
      }
    }
  }
  const uint32_t needed_bytes = tj::BitsToBytes(tj::BitWidth(max_key));
  if (needed_bytes > opt.key_bytes) {
    std::fprintf(stderr,
                 "--key-bytes=%u is too narrow: the largest key (%" PRIu64
                 ") needs --key-bytes=%u\n",
                 opt.key_bytes, max_key, needed_bytes);
    return 1;
  }
  if (opt.shuffle) {
    tj::ShuffleTable(&w.r, opt.seed + 1);
    tj::ShuffleTable(&w.s, opt.seed + 2);
  }

  tj::JoinConfig config;
  config.key_bytes = opt.key_bytes;
  // Node ids travel at the narrowest width that holds the largest id.
  config.node_bytes = tj::NodeIdBytes(opt.nodes);
  config.balance_loads = opt.balance;
  config.hot_key_threshold = opt.hot_key_threshold;
  config.hot_key_max_split = opt.hot_key_max_split;
  config.delta_tracking = opt.delta;
  config.group_locations = opt.group;
  config.pipeline.enabled = opt.pipeline;
  if (opt.pipeline_chunk > 0) config.pipeline.chunk_bytes = opt.pipeline_chunk;
  if (opt.inbox_budget > 0) {
    config.pipeline.inbox_budget_bytes = opt.inbox_budget;
  }
  config.pipeline.drr = (opt.egress_sched == "drr");
  config.pipeline.drr_quantum_bytes = opt.drr_quantum;
  if (opt.pipeline &&
      config.pipeline.inbox_budget_bytes / opt.nodes <
          config.pipeline.chunk_bytes) {
    std::fprintf(stderr,
                 "note: --inbox-budget=%llu / %u nodes is below the %llu-byte "
                 "chunk; each link's credit window clamps to one chunk\n",
                 static_cast<unsigned long long>(
                     config.pipeline.inbox_budget_bytes),
                 opt.nodes,
                 static_cast<unsigned long long>(config.pipeline.chunk_bytes));
  }
  config.phase_deadline_seconds = opt.phase_deadline;
  const bool faults = opt.fault.any_effect();
  if (faults) {
    config.fault_policy = &opt.fault;
    config.fault_seed = opt.fault_seed_set ? opt.fault_seed : opt.seed;
  }
  // Recovery engages when the user asks for spare capacity (--replicas), a
  // straggler-promotion deadline, or an explicit attempt budget.
  const bool recovery_on = opt.replicas > 1 || opt.recovery_attempts > 0 ||
                           opt.phase_deadline > 0;
  std::optional<tj::ReplicatedWorkload> replicated;
  if (recovery_on) replicated = tj::ReplicateWorkload(w, opt.replicas);
  tj::RecoveryOptions recovery_options;
  recovery_options.max_attempts =
      opt.recovery_attempts > 0 ? opt.recovery_attempts : 4;
  recovery_options.backoff_initial_seconds = opt.recovery_backoff;

  std::vector<std::string> algos = opt.algos;
  if (algos.size() == 1 && algos[0] == "all") {
    algos = {"bj-r", "bj-s", "hj", "2tj-r", "2tj-s", "3tj", "4tj",
             "rid-hj", "late-hj"};
  }

  // json/csv profile output owns stdout (pipeable into schema checks or
  // spreadsheets); the human-readable report is suppressed. --explain=json
  // and --blame=json want stdout the same way, so the machine formats are
  // mutually exclusive.
  const bool machine_profile =
      opt.profile == "json" || opt.profile == "csv";
  const bool machine_explain = opt.explain == "json";
  const bool machine_blame = opt.blame == "json";
  if ((machine_profile ? 1 : 0) + (machine_explain ? 1 : 0) +
          (machine_blame ? 1 : 0) >
      1) {
    std::fprintf(stderr,
                 "--profile=json|csv, --explain=json and --blame=json all "
                 "write machine output to stdout; pick one\n");
    return 1;
  }
  const bool machine_out = machine_profile || machine_explain || machine_blame;
  if (!opt.trace_path.empty()) tj::Tracer::Global().Enable();
  // The trace is written even when a run fails: faulted traces are exactly
  // the ones worth inspecting (and schema-checking) after the fact.
  auto write_trace = [&opt]() -> int {
    if (opt.trace_path.empty()) return 0;
    const std::string json = tj::Tracer::Global().ToChromeJson();
    FILE* f = std::fopen(opt.trace_path.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
      std::fprintf(stderr, "cannot write trace file '%s'\n",
                   opt.trace_path.c_str());
      if (f != nullptr) std::fclose(f);
      return 1;
    }
    std::fclose(f);
    std::fprintf(stderr, "trace: %zu events written to %s\n",
                 tj::Tracer::Global().EventCount(), opt.trace_path.c_str());
    return 0;
  };
  if (!machine_out) {
    std::printf("%" PRIu64 " x %" PRIu64 " tuples on %u nodes (%u/%u byte "
                "payloads, wk=%u)\n\n",
                w.r.TotalRows(), w.s.TotalRows(), opt.nodes, opt.r_payload,
                opt.s_payload, opt.key_bytes);
    std::printf("%-8s %12s %12s %12s %12s %12s %10s %10s\n", "algo",
                "keys&counts", "keys&nodes", "R tuples", "S tuples", "total",
                "max NIC", "net sec");
  }

  tj::NetworkTimeModel model;
  model.node_bandwidth_bytes_per_sec = opt.bandwidth_gbps * 1e9;
  uint64_t reference_digest = 0;
  uint64_t reference_rows = 0;
  bool have_reference = false;
  std::vector<tj::StepProfile> profiles;
  std::vector<tj::ScheduleExplain> explains;
  std::vector<tj::BlameReport> blames;
  for (const std::string& algo : algos) {
    bool known = false;
    // The scheduler audit only exists for the track joins — the baselines
    // never make per-key decisions.
    tj::ScheduleAuditLog audit;
    tj::JoinConfig run_config = config;
    if (!opt.explain.empty() && TrackAlgoByName(algo)) {
      run_config.schedule_audit = &audit;
    }
    run_config.collect_blame = !opt.blame.empty();
    run_config.blame_top_edges = opt.blame_top;
    tj::RecoveryReport recovery_report;
    tj::Result<tj::JoinResult> run =
        recovery_on
            ? tj::RunWithRecovery(
                  replicated->r, replicated->s, run_config, recovery_options,
                  [&](const tj::PartitionedTable& r,
                      const tj::PartitionedTable& s,
                      const tj::JoinConfig& cfg) {
                    return RunByName(algo, r, s, cfg, &known);
                  },
                  &recovery_report)
            : RunByName(algo, w.r, w.s, run_config, &known);
    if (!known) {
      std::fprintf(stderr, "unknown algorithm '%s' (try --help)\n",
                   algo.c_str());
      return 1;
    }
    if (!run.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", algo.c_str(),
                   run.status().ToString().c_str());
      write_trace();
      // Fault-induced failures (injected loss, crashes, exhausted recovery
      // budget) get a dedicated exit code so harnesses can tell "the fault
      // won" from usage or programming errors.
      return tj::IsFaultInduced(run.status().code()) ? 3 : 2;
    }
    tj::JoinResult result = std::move(run).value();
    if (!have_reference) {
      reference_digest = result.checksum.digest();
      reference_rows = result.output_rows;
      have_reference = true;
    } else if (result.checksum.digest() != reference_digest) {
      std::fprintf(stderr, "result mismatch in %s!\n", algo.c_str());
      return 1;
    }
    if (!opt.profile.empty()) {
      result.profile.ApplyTimeModel(model);
      profiles.push_back(result.profile);
    }
    if (run_config.schedule_audit != nullptr) {
      explains.push_back(tj::BuildScheduleExplain(algo, audit, result.traffic,
                                                  opt.explain_top));
    }
    if (result.blame.has_value()) blames.push_back(std::move(*result.blame));
    if (machine_out) continue;
    const tj::TrafficMatrix& t = result.traffic;
    auto mib = [](uint64_t b) { return b / double(1 << 20); };
    std::printf(
        "%-8s %11.2fM %11.2fM %11.2fM %11.2fM %11.2fM %9.2fM %10.3f\n",
        algo.c_str(), mib(t.NetworkBytes(tj::TrafficClass::kKeysAndCounts)),
        mib(t.NetworkBytes(tj::TrafficClass::kKeysAndNodes)),
        mib(t.NetworkBytes(tj::TrafficClass::kRTuples)),
        mib(t.NetworkBytes(tj::TrafficClass::kSTuples)),
        mib(t.TotalNetworkBytes()), mib(t.MaxNodeBytes()),
        model.BottleneckSeconds(t));
    if (result.makespan_seconds > 0) {
      std::printf("  pipeline: makespan=%.3fs barrier=%.3fs overlap=%.0f%%\n",
                  result.makespan_seconds, result.barrier_makespan_seconds,
                  100.0 * (1.0 - result.makespan_seconds /
                                     result.barrier_makespan_seconds));
    }
    if (faults) {
      const tj::ReliabilityStats& rel = result.reliability;
      std::printf(
          "  faults: dropped=%" PRIu64 " corrupted=%" PRIu64
          " duplicated=%" PRIu64 " reordered=%" PRIu64
          " retransmitted=%" PRIu64 " nacks=%" PRIu64 " retrans_bytes=%" PRIu64
          "\n",
          rel.faults.frames_dropped, rel.faults.frames_corrupted,
          rel.faults.frames_duplicated, rel.faults.messages_reordered,
          rel.retransmitted_frames, rel.nack_messages,
          t.TotalRetransmitBytes());
    }
    if (recovery_on) {
      std::string dead;
      for (uint32_t node : recovery_report.dead_nodes) {
        if (!dead.empty()) dead += ",";
        dead += std::to_string(node);
      }
      std::printf("  recovery: attempts=%u failovers=%u retries=%u dead=[%s] "
                  "backoff=%.3fs latency=%.3fs recovery_bytes=%" PRIu64 "\n",
                  recovery_report.attempts, recovery_report.failovers,
                  recovery_report.retries, dead.c_str(),
                  recovery_report.backoff_seconds,
                  recovery_report.recovery_seconds,
                  recovery_report.recovery_bytes);
    }
  }
  if (opt.profile == "json") {
    PrintJsonArray(profiles);
  } else if (opt.profile == "csv") {
    std::printf("%s\n", tj::StepCsvHeader().c_str());
    for (const tj::StepProfile& p : profiles) {
      std::printf("%s", tj::ToCsv(p).c_str());
    }
  } else if (opt.profile == "table") {
    std::printf("\n");
    for (const tj::StepProfile& p : profiles) {
      std::printf("%s\n", tj::ToTable(p).c_str());
    }
  }
  if (machine_explain) {
    PrintJsonArray(explains);
  } else if (opt.explain == "table") {
    // Human-readable audit; routed to stderr when a machine profile owns
    // stdout so piped output stays parseable.
    FILE* out = (machine_profile || machine_blame) ? stderr : stdout;
    for (const tj::ScheduleExplain& e : explains) {
      std::fprintf(out, "\n%s", tj::ToTable(e).c_str());
    }
  }
  if (machine_blame) {
    PrintJsonArray(blames);
  } else if (opt.blame == "table") {
    FILE* out = (machine_profile || machine_explain) ? stderr : stdout;
    for (const tj::BlameReport& b : blames) {
      std::fprintf(out, "\n%s", tj::ToTable(b).c_str());
    }
  }
  if (opt.metrics) {
    FILE* out = machine_out ? stderr : stdout;
    std::fprintf(out, "\n%s",
                 tj::MetricsRegistry::Global().ToPrometheus().c_str());
  }
  if (write_trace() != 0) return 1;
  if (!machine_out) {
    std::printf("\noutcome: digest=%016" PRIx64 " rows=%" PRIu64
                " (all algorithms verified equal)\n",
                reference_digest, reference_rows);
  }
  return 0;
}
