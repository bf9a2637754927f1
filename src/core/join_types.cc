#include "core/join_types.h"

#include <algorithm>
#include <cstring>

#include "common/bit_util.h"
#include "common/kway_merge.h"
#include "net/fabric.h"
#include "net/pipelined_fabric.h"
#include "obs/trace.h"

namespace tj {

const char* JoinAlgorithmName(JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kBroadcastR:
      return "BJ-R";
    case JoinAlgorithm::kBroadcastS:
      return "BJ-S";
    case JoinAlgorithm::kHash:
      return "HJ";
    case JoinAlgorithm::kTrack2R:
      return "2TJ-R";
    case JoinAlgorithm::kTrack2S:
      return "2TJ-S";
    case JoinAlgorithm::kTrack3:
      return "3TJ";
    case JoinAlgorithm::kTrack4:
      return "4TJ";
  }
  return "?";
}

void ConfigureFabric(const JoinConfig& config, Fabric* fabric) {
  fabric->SetThreadPool(config.thread_pool);
  if (config.fault_policy != nullptr) {
    fabric->SetFaultPolicy(*config.fault_policy, config.fault_seed);
  }
  fabric->SetPhaseDeadline(config.phase_deadline_seconds);
  fabric->SetDiagnosticsSink(config.diagnostics);
}

Status CheckNodeIdWidth(const JoinConfig& config, uint32_t num_nodes) {
  const uint64_t max_id = num_nodes - 1;
  if (config.node_bytes >= 8 || (max_id >> (8 * config.node_bytes)) == 0) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "node_bytes=" + std::to_string(config.node_bytes) +
      " cannot hold node id " + std::to_string(max_id) + " of " +
      std::to_string(num_nodes) + " nodes");
}

uint32_t NodeIdBytes(uint32_t num_nodes) {
  return BitsToBytes(BitWidth(num_nodes - 1));
}

void SendRowsPerDest(Fabric* fabric, uint32_t src, MessageType type,
                     const TupleBlock& block, uint32_t key_bytes,
                     const std::vector<std::vector<uint32_t>>& rows_per_dest) {
  for (uint32_t dst = 0; dst < rows_per_dest.size(); ++dst) {
    if (rows_per_dest[dst].empty()) continue;
    ByteBuffer buf;
    block.SerializeRowsIndexed(rows_per_dest[dst], key_bytes, &buf);
    fabric->Send(src, dst, type, std::move(buf));
  }
}

Status TryReceiveRows(Fabric* fabric, uint32_t node, MessageType type,
                      uint32_t key_bytes, TupleBlock* block) {
  for (const Message& msg : fabric->TakeInbox(node, type)) {
    ByteReader reader(msg.data);
    TJ_RETURN_IF_ERROR(block->TryDeserializeRows(&reader, key_bytes));
  }
  return Status::OK();
}

std::vector<RunBytes> BytesOf(const std::vector<Message>& messages) {
  std::vector<RunBytes> runs;
  runs.reserve(messages.size());
  for (const Message& msg : messages) runs.emplace_back(msg.data);
  return runs;
}

Status TryCheckReceivedRun(RunBytes run, uint32_t src, uint32_t key_bytes,
                           uint32_t payload_width) {
  TJ_CHECK(key_bytes >= 1 && key_bytes <= 8) << "key_bytes " << key_bytes;
  const uint32_t row_bytes = key_bytes + payload_width;
  if (run.size() % row_bytes != 0) {
    return Status::Corruption("tuple payload from node " +
                              std::to_string(src) +
                              " not a multiple of row size");
  }
  const uint8_t* end = run.data() + run.size();
  uint64_t last = 0;
  for (const uint8_t* row = run.data(); row != end; row += row_bytes) {
    const uint64_t key = LoadLeField(row, end - row, key_bytes);
    if (key < last) {
      return Status::Corruption("tuple run from node " + std::to_string(src) +
                                " descends at key " + std::to_string(key));
    }
    last = key;
  }
  return Status::OK();
}

Status TryCheckReceivedRuns(const std::vector<Message>& messages,
                            uint32_t key_bytes, uint32_t payload_width) {
  for (const Message& msg : messages) {
    TJ_RETURN_IF_ERROR(
        TryCheckReceivedRun(msg.data, msg.src, key_bytes, payload_width));
  }
  return Status::OK();
}

MergedRuns::MergedRuns(const TupleBlock* kept, uint64_t first, uint64_t last,
                       std::span<const RunBytes> runs, uint32_t key_bytes,
                       uint32_t payload_width)
    : key_bytes_(key_bytes), width_(payload_width), tree_(&cursors_) {
  TJ_CHECK(key_bytes >= 1 && key_bytes <= 8) << "key_bytes " << key_bytes;
  Reset(kept, first, last, runs);
}

void MergedRuns::Reset(const TupleBlock* kept, uint64_t first, uint64_t last,
                       std::span<const RunBytes> runs) {
  TJ_CHECK(kept == nullptr || (kept->payload_width() == width_ &&
                               first <= last && last <= kept->size()));
  kept_ = kept;
  kept_keys_ = kept != nullptr ? kept->keys().data() : nullptr;
  kept_row_ = kept != nullptr ? first : 0;
  kept_end_ = kept != nullptr ? last : 0;
  rows_ = kept_end_ - kept_row_;
  const uint32_t row_bytes = key_bytes_ + width_;
  cursors_.clear();
  for (RunBytes run : runs) {
    TJ_CHECK_EQ(run.size() % row_bytes, 0u) << "unchecked tuple run";
    cursors_.emplace_back(run, key_bytes_, row_bytes);
    rows_ += run.size() / row_bytes;
  }
  tree_.Rebuild();
}

void MergedRuns::SkipBelow(uint64_t key) {
  const uint64_t* keys = kept_keys_;
  kept_row_ = GallopPast(kept_row_, kept_end_,
                         [keys, key](uint64_t row) { return keys[row] < key; });
  while (!tree_.Done() && tree_.TopKey() < key) {
    tree_.Top().SkipBelow(key);
    tree_.Replay();
  }
}

PayloadRun MergedRuns::TakeGroup() {
  const bool kept_first = KeptFirst();
  const uint64_t key = kept_first ? kept_keys_[kept_row_] : tree_.TopKey();
  // The tree top's rows of `key`, in place; moves the view past them.
  auto take_top = [&]() {
    const PayloadRun rows = tree_.Top().Take(key, width_);
    tree_.Replay();
    return rows;
  };
  PayloadRun first;
  if (kept_first) {
    const uint64_t begin = kept_row_;
    do {
      ++kept_row_;
    } while (kept_row_ < kept_end_ && kept_keys_[kept_row_] == key);
    first = kept_->Run(begin, kept_row_);
  } else {
    first = take_top();
  }
  if (tree_.TopKey() != key || tree_.Done()) return first;
  uint64_t rows = 0;
  auto gather = [&](const PayloadRun& run) {
    scratch_.resize((rows + run.size) * width_);
    for (uint64_t i = 0; i < run.size && width_ > 0; ++i) {
      std::memcpy(scratch_.data() + (rows + i) * width_, run[i], width_);
    }
    rows += run.size;
  };
  gather(first);
  while (!tree_.Done() && tree_.TopKey() == key) gather(take_top());
  return PayloadRun(scratch_.data(), width_, rows);
}

uint64_t MergeJoinRuns(MergedRuns* r, MergedRuns* s, const JoinSink& sink) {
  TraceSpan span("kernel", "MergeJoinRuns",
                 static_cast<int64_t>(r->rows() + s->rows()));
  uint64_t output = 0;
  while (!r->Done() && !s->Done()) {
    const uint64_t kr = r->key();
    const uint64_t ks = s->key();
    if (kr < ks) {
      r->SkipBelow(ks);
    } else if (ks < kr) {
      s->SkipBelow(kr);
    } else {
      const PayloadRun r_group = r->TakeGroup();
      const PayloadRun s_group = s->TakeGroup();
      if (sink) sink(kr, r_group, s_group);
      output += r_group.size * s_group.size;
    }
  }
  return output;
}

Status TryMergeReceivedRows(const std::vector<Message>& messages,
                            uint32_t key_bytes, TupleBlock* block) {
  const uint32_t width = block->payload_width();
  TJ_RETURN_IF_ERROR(TryCheckReceivedRuns(messages, key_bytes, width));
  TupleBlock merged(width);
  {
    MergedRuns runs(block, 0, block->size(), BytesOf(messages), key_bytes,
                    width);
    if (runs.rows() == block->size()) return Status::OK();
    merged.Resize(runs.rows());
    uint64_t* keys = merged.MutableKeys();
    uint8_t* payloads = merged.MutablePayloads();
    for (uint64_t out = 0; !runs.Done();) {
      const uint64_t key = runs.key();
      const PayloadRun group = runs.TakeGroup();
      std::fill(keys + out, keys + out + group.size, key);
      for (uint64_t i = 0; i < group.size && width > 0; ++i) {
        std::memcpy(payloads + (out + i) * width, group[i], width);
      }
      out += group.size;
    }
  }
  *block = std::move(merged);
  return Status::OK();
}

JoinOutputs::JoinOutputs(const PartitionedTable& r, const PartitionedTable& s,
                         const JoinConfig& config)
    : output_name_(r.name() + "_join_" + s.name()),
      width_r_(r.payload_width()),
      width_s_(s.payload_width()),
      materialize_(config.materialize),
      slots_(r.num_nodes()) {
  for (Slot& slot : slots_) {
    if (materialize_) {
      slot.rows = TupleBlock(width_r_ + width_s_);
      slot.sink =
          MaterializeSink(&slot.rows, &slot.checksum, width_r_, width_s_);
    } else {
      slot.sink = ChecksumSink(&slot.checksum, width_r_, width_s_);
    }
  }
}

void JoinOutputs::MoveInto(JoinResult* result) {
  const uint32_t n = static_cast<uint32_t>(slots_.size());
  result->node_output_rows.resize(n);
  for (uint32_t node = 0; node < n; ++node) {
    const JoinChecksum& checksum = slots_[node].checksum;
    result->node_output_rows[node] = checksum.count();
    result->output_rows += checksum.count();
    result->checksum.Merge(checksum);
  }
  if (materialize_) {
    result->output.emplace(output_name_, n, width_r_ + width_s_);
    for (uint32_t node = 0; node < n; ++node) {
      result->output->node(node) = std::move(slots_[node].rows);
    }
  }
}

template <typename AnyFabric>
JoinResult FinishJoin(const char* algorithm, AnyFabric* fabric,
                      JoinOutputs* outputs) {
  JoinResult result;
  result.reliability = fabric->reliability();
  result.SetProfile(BuildStepProfile(algorithm, *fabric));
  result.traffic = fabric->TakeTraffic();
  outputs->MoveInto(&result);
  return result;
}
template JoinResult FinishJoin(const char*, Fabric*, JoinOutputs*);
template JoinResult FinishJoin(const char*, PipelinedFabric*, JoinOutputs*);

const char* TrackJoinName(TrackJoinVersion version, Direction direction) {
  switch (version) {
    case TrackJoinVersion::k2Phase:
      return direction == Direction::kRtoS ? "2tj-r" : "2tj-s";
    case TrackJoinVersion::k3Phase:
      return "3tj";
    case TrackJoinVersion::k4Phase:
      return "4tj";
  }
  return "?";
}

}  // namespace tj
