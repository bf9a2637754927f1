#include "obs/step_profile.h"

#include <cstdio>

#include "net/fabric.h"
#include "net/pipelined_fabric.h"
#include "obs/metrics.h"
#include "obs/text_escape.h"

namespace tj {

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  AppendJsonEscaped(s, out);
}

void AppendField(const char* key, double value, bool* first, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9g", *first ? "" : ", ", key,
                value);
  *first = false;
  *out += buf;
}

void AppendField(const char* key, uint64_t value, bool* first,
                 std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu", *first ? "" : ", ", key,
                static_cast<unsigned long long>(value));
  *first = false;
  *out += buf;
}

}  // namespace

double StepProfile::TotalWallSeconds() const {
  double total = 0;
  for (const StepRecord& s : steps) total += s.wall_seconds;
  return total;
}

double StepProfile::TotalNetSeconds() const {
  double total = 0;
  for (const StepRecord& s : steps) total += s.net_seconds;
  return total;
}

uint64_t StepProfile::TotalGoodputBytes() const {
  uint64_t total = 0;
  for (const StepRecord& s : steps) total += s.goodput_bytes;
  return total;
}

uint64_t StepProfile::TotalLocalBytes() const {
  uint64_t total = 0;
  for (const StepRecord& s : steps) total += s.local_bytes;
  return total;
}

uint64_t StepProfile::TotalRetransmitBytes() const {
  uint64_t total = 0;
  for (const StepRecord& s : steps) total += s.retransmit_bytes;
  return total;
}

uint64_t StepProfile::TotalRetransmittedFrames() const {
  uint64_t total = 0;
  for (const StepRecord& s : steps) total += s.retransmitted_frames;
  return total;
}

uint64_t StepProfile::TotalNackMessages() const {
  uint64_t total = 0;
  for (const StepRecord& s : steps) total += s.nack_messages;
  return total;
}

uint64_t StepProfile::NetworkBytes(MessageType type) const {
  uint64_t total = 0;
  for (const StepRecord& s : steps) total += s.NetworkBytes(type);
  return total;
}

uint64_t StepProfile::LocalBytes(MessageType type) const {
  uint64_t total = 0;
  for (const StepRecord& s : steps) total += s.LocalBytes(type);
  return total;
}

uint64_t StepProfile::RetransmitBytes(MessageType type) const {
  uint64_t total = 0;
  for (const StepRecord& s : steps) total += s.RetransmitBytes(type);
  return total;
}

const StepRecord* StepProfile::Find(const std::string& phase) const {
  for (const StepRecord& s : steps) {
    if (s.phase == phase) return &s;
  }
  return nullptr;
}

double StepProfile::WallSeconds(const std::string& phase) const {
  const StepRecord* rec = Find(phase);
  return rec != nullptr ? rec->wall_seconds : 0.0;
}

void StepProfile::ApplyTimeModel(const NetworkTimeModel& model) {
  for (StepRecord& s : steps) {
    s.net_seconds = model.NicSeconds(s.max_node_bytes);
  }
}

void StepProfile::Prepend(const StepProfile& prologue) {
  steps.insert(steps.begin(), prologue.steps.begin(), prologue.steps.end());
}

template <typename AnyFabric>
StepProfile BuildStepProfile(const std::string& algorithm,
                             const AnyFabric& fabric) {
  StepProfile profile;
  profile.algorithm = algorithm;
  profile.num_nodes = fabric.num_nodes();
  profile.run_max_node_bytes = fabric.traffic().MaxNodeBytes();
  profile.recovery_bytes = fabric.traffic().TotalRecoveryBytes();
  profile.steps = fabric.steps();

  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter("join.runs").Increment();
  metrics.counter("join.phases").Increment(profile.steps.size());
  metrics.counter("join.goodput_bytes").Increment(profile.TotalGoodputBytes());
  metrics.counter("join.local_bytes").Increment(profile.TotalLocalBytes());
  metrics.counter("join.retransmit_bytes")
      .Increment(profile.TotalRetransmitBytes());
  metrics.counter("join.retransmitted_frames")
      .Increment(profile.TotalRetransmittedFrames());
  metrics.counter("join.nack_messages").Increment(profile.TotalNackMessages());
  metrics.timer("join.wall_seconds").Record(profile.TotalWallSeconds());
  metrics.gauge("join.last_net_seconds").Set(profile.TotalNetSeconds());
  Histogram& wall_hist = metrics.histogram("join.phase_wall_seconds");
  Histogram& net_hist = metrics.histogram("join.phase_net_seconds");
  for (const StepRecord& s : profile.steps) {
    wall_hist.Observe(s.wall_seconds);
    net_hist.Observe(s.net_seconds);
  }
  return profile;
}
template StepProfile BuildStepProfile(const std::string&, const Fabric&);
template StepProfile BuildStepProfile(const std::string&,
                                      const PipelinedFabric&);

std::string ToJson(const StepProfile& profile) {
  std::string out = "{";
  out += "\"algorithm\": ";
  AppendJsonString(profile.algorithm, &out);
  bool first = false;
  AppendField("nodes", static_cast<uint64_t>(profile.num_nodes), &first, &out);
  out += ", \"totals\": {";
  first = true;
  AppendField("wall_seconds", profile.TotalWallSeconds(), &first, &out);
  AppendField("net_seconds", profile.TotalNetSeconds(), &first, &out);
  AppendField("goodput_bytes", profile.TotalGoodputBytes(), &first, &out);
  AppendField("local_bytes", profile.TotalLocalBytes(), &first, &out);
  AppendField("retransmit_bytes", profile.TotalRetransmitBytes(), &first,
              &out);
  AppendField("run_max_node_bytes", profile.run_max_node_bytes, &first, &out);
  AppendField("recovery_bytes", profile.recovery_bytes, &first, &out);
  out += "}, \"steps\": [";
  for (size_t i = 0; i < profile.steps.size(); ++i) {
    const StepRecord& s = profile.steps[i];
    if (i > 0) out += ", ";
    out += "{\"phase\": ";
    AppendJsonString(s.phase, &out);
    first = false;
    AppendField("wall_seconds", s.wall_seconds, &first, &out);
    AppendField("net_seconds", s.net_seconds, &first, &out);
    AppendField("goodput_bytes", s.goodput_bytes, &first, &out);
    AppendField("local_bytes", s.local_bytes, &first, &out);
    AppendField("retransmit_bytes", s.retransmit_bytes, &first, &out);
    AppendField("max_node_bytes", s.max_node_bytes, &first, &out);
    AppendField("retransmitted_frames", s.retransmitted_frames, &first, &out);
    AppendField("nack_messages", s.nack_messages, &first, &out);
    AppendField("frames_dropped", s.frames_dropped, &first, &out);
    AppendField("frames_corrupted", s.frames_corrupted, &first, &out);
    AppendField("frames_duplicated", s.frames_duplicated, &first, &out);
    AppendField("peak_rss_bytes", s.peak_rss_bytes, &first, &out);
    out += ", \"bytes_by_type\": {";
    bool first_type = true;
    for (int t = 0; t < kNumMessageTypes; ++t) {
      if (s.network_bytes_by_type[t] == 0 && s.local_bytes_by_type[t] == 0 &&
          s.retransmit_bytes_by_type[t] == 0) {
        continue;
      }
      if (!first_type) out += ", ";
      first_type = false;
      AppendJsonString(MessageTypeName(static_cast<MessageType>(t)), &out);
      out += ": {";
      bool f = true;
      AppendField("network", s.network_bytes_by_type[t], &f, &out);
      AppendField("local", s.local_bytes_by_type[t], &f, &out);
      AppendField("retransmit", s.retransmit_bytes_by_type[t], &f, &out);
      out += "}";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string StepCsvHeader() {
  return "algorithm,phase,wall_seconds,net_seconds,goodput_bytes,"
         "local_bytes,retransmit_bytes,max_node_bytes,retransmitted_frames,"
         "nack_messages,frames_dropped,frames_corrupted,frames_duplicated,"
         "peak_rss_bytes";
}

std::string ToCsv(const StepProfile& profile) {
  std::string out;
  // Algorithm and phase are caller-supplied strings: the algorithm field is
  // quoted only when it needs to be (plain names stay byte-identical), the
  // phase field keeps its historical always-quoted form with internal
  // quotes doubled per RFC 4180.
  const std::string algorithm = CsvField(profile.algorithm);
  for (const StepRecord& s : profile.steps) {
    out += algorithm;
    out += ',';
    out += CsvQuoted(s.phase);
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  ",%.9g,%.9g,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
                  "%llu,%llu,%llu\n",
                  s.wall_seconds, s.net_seconds,
                  static_cast<unsigned long long>(s.goodput_bytes),
                  static_cast<unsigned long long>(s.local_bytes),
                  static_cast<unsigned long long>(s.retransmit_bytes),
                  static_cast<unsigned long long>(s.max_node_bytes),
                  static_cast<unsigned long long>(s.retransmitted_frames),
                  static_cast<unsigned long long>(s.nack_messages),
                  static_cast<unsigned long long>(s.frames_dropped),
                  static_cast<unsigned long long>(s.frames_corrupted),
                  static_cast<unsigned long long>(s.frames_duplicated),
                  static_cast<unsigned long long>(s.peak_rss_bytes));
    out += buf;
  }
  return out;
}

std::string ToTable(const StepProfile& profile) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s (%u nodes)\n",
                profile.algorithm.c_str(), profile.num_nodes);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-38s %10s %10s %12s %12s %12s %10s\n",
                "phase", "wall s", "net s", "goodput B", "local B",
                "retrans B", "peak MiB");
  out += buf;
  for (const StepRecord& s : profile.steps) {
    std::snprintf(buf, sizeof(buf),
                  "  %-38s %10.4f %10.4f %12llu %12llu %12llu %10.1f\n",
                  s.phase.c_str(), s.wall_seconds, s.net_seconds,
                  static_cast<unsigned long long>(s.goodput_bytes),
                  static_cast<unsigned long long>(s.local_bytes),
                  static_cast<unsigned long long>(s.retransmit_bytes),
                  static_cast<double>(s.peak_rss_bytes) / (1 << 20));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  %-38s %10.4f %10.4f %12llu %12llu %12llu\n", "total",
                profile.TotalWallSeconds(), profile.TotalNetSeconds(),
                static_cast<unsigned long long>(profile.TotalGoodputBytes()),
                static_cast<unsigned long long>(profile.TotalLocalBytes()),
                static_cast<unsigned long long>(profile.TotalRetransmitBytes()));
  out += buf;
  return out;
}

}  // namespace tj
