#include "core/join_types.h"

#include "common/bit_util.h"
#include "net/buffer_pool.h"
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
                     const std::vector<std::vector<uint32_t>>& rows_per_dest,
                     BufferPool* pool) {
  for (uint32_t dst = 0; dst < rows_per_dest.size(); ++dst) {
    if (rows_per_dest[dst].empty()) continue;
    ByteBuffer buf = pool != nullptr ? pool->Acquire() : ByteBuffer{};
    block.SerializeRowsIndexed(rows_per_dest[dst], key_bytes, &buf);
    fabric->Send(src, dst, type, std::move(buf));
  }
}

Status TryReceiveRows(Fabric* fabric, uint32_t node, MessageType type,
                      uint32_t key_bytes, TupleBlock* block,
                      BufferPool* pool) {
  for (Message& msg : fabric->TakeInbox(node, type)) {
    ByteReader reader(msg.data);
    TJ_RETURN_IF_ERROR(block->TryDeserializeRows(&reader, key_bytes));
    if (pool != nullptr) pool->Recycle(std::move(msg.data));
  }
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
