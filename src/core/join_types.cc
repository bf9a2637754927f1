#include "core/join_types.h"

#include <algorithm>
#include <cstring>

#include "common/bit_util.h"
#include "common/kway_merge.h"
#include "net/fabric.h"
#include "net/pipelined_fabric.h"

namespace tj {

const char* DirectionName(Direction dir) {
  return dir == Direction::kRtoS ? "R->S" : "S->R";
}

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

namespace {

/// Merge cursor over one received message's rows, read in place; caches
/// its head's key.
class WireRowCursor {
 public:
  WireRowCursor(const ByteBuffer& data, uint32_t key_bytes, uint32_t row_bytes)
      : row_(data.data()), end_(data.data() + data.size()),
        key_bytes_(key_bytes), row_bytes_(row_bytes) {
    if (Valid()) LoadKey();
  }

  bool Valid() const { return row_ != end_; }
  uint64_t key() const { return key_; }
  const uint8_t* payload() const { return row_ + key_bytes_; }
  void Next() {
    row_ += row_bytes_;
    if (Valid()) LoadKey();
  }

 private:
  void LoadKey() { key_ = LoadLeField(row_, end_ - row_, key_bytes_); }

  const uint8_t* row_;
  const uint8_t* end_;
  uint32_t key_bytes_;
  uint32_t row_bytes_;
  uint64_t key_ = 0;
};

/// Names the first message whose keys descend.
Status DescentFault(const std::vector<Message>& messages, uint32_t key_bytes,
                    uint32_t row_bytes) {
  for (const Message& msg : messages) {
    uint64_t last = 0;
    for (WireRowCursor row(msg.data, key_bytes, row_bytes); row.Valid();
         row.Next()) {
      if (row.key() < last) {
        return Status::Corruption("tuple run from node " +
                                  std::to_string(msg.src) +
                                  " descends at key " +
                                  std::to_string(row.key()));
      }
      last = row.key();
    }
  }
  return Status::Internal("tuple merge descent not found in its runs");
}

}  // namespace

Status TryMergeReceivedRows(const std::vector<Message>& messages,
                            uint32_t key_bytes, TupleBlock* block) {
  TJ_CHECK_LE(key_bytes, 8u);
  const uint32_t width = block->payload_width();
  const uint32_t row_bytes = key_bytes + width;
  TJ_CHECK_GT(row_bytes, 0u);
  std::vector<WireRowCursor> runs;
  runs.reserve(messages.size());
  uint64_t received = 0;
  for (const Message& msg : messages) {
    if (msg.data.size() % row_bytes != 0) {
      return Status::Corruption("tuple payload from node " +
                                std::to_string(msg.src) +
                                " not a multiple of row size");
    }
    received += msg.data.size() / row_bytes;
    runs.emplace_back(msg.data, key_bytes, row_bytes);
  }
  if (received == 0) return Status::OK();

  const TupleBlock& local = *block;
  const uint64_t local_rows = local.size();
  TupleBlock merged(width);
  merged.Resize(local_rows + received);
  uint64_t* keys = merged.MutableKeys();
  uint8_t* payloads = merged.MutablePayloads();
  uint64_t out = 0;
  uint64_t next_local = 0;
  // Copies the local rows [next_local, end) as one block.
  auto copy_local = [&](uint64_t end) {
    std::copy(local.keys().begin() + next_local, local.keys().begin() + end,
              keys + out);
    // An empty local block has no payload storage to copy from.
    if (width > 0 && end > next_local) {
      std::memcpy(payloads + out * width, local.Payload(next_local),
                  (end - next_local) * width);
    }
    out += end - next_local;
    next_local = end;
  };
  // The tree pops keys in ascending order exactly when every run ascends,
  // so flagging descents of its output checks the runs without a pass of
  // their own.
  uint64_t descents = 0;
  uint64_t last_key = 0;
  for (LoserTree<WireRowCursor> tree(&runs); !tree.Done(); tree.Pop()) {
    const uint64_t key = tree.TopKey();
    descents += key < last_key;
    last_key = key;
    if (next_local < local_rows && local.Key(next_local) <= key) {
      uint64_t end = next_local + 1;
      while (end < local_rows && local.Key(end) <= key) ++end;
      copy_local(end);
    }
    keys[out] = key;
    if (width > 0) {
      std::memcpy(payloads + out * width, tree.Top().payload(), width);
    }
    ++out;
  }
  if (descents != 0) return DescentFault(messages, key_bytes, row_bytes);
  copy_local(local_rows);
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
