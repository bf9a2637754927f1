// Layer-by-layer replay of one join query, for the traced run.
//
// The replay re-executes a query's work from outside the library by calling
// each layer's public functions in the order the driver does, with a span
// around every call (spans.h): local sort, radix partition, key aggregation,
// tracking-message encode and merge, per-key scheduling, <key, node> pair
// codecs, the final merge-join with and without the output checksum, and
// the fabric carrying the query's traffic with no work attached. Glue the
// drivers do between layers (routing rows, (de)serializing tuples) runs
// under "driver.data_movement" spans. The replay is serial: every span's
// time is one node's work, so a layer's seconds sum over nodes.
#ifndef TJ_PERFBENCH_REPLAY_H_
#define TJ_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "core/join_types.h"
#include "spans.h"
#include "storage/table.h"
#include "workload/generator.h"

namespace tj::perfbench {

/// The query driver a workload runs.
enum class Driver { kTrack4, kHash, kTrack4Pipelined };

/// Exact work counts of one replay, by name (see ReplayLayers).
using Counts = std::map<std::string, uint64_t>;

struct ReplayOutput {
  Counts counts;
  /// Fingerprint of the replay's own join output: must equal the query's.
  JoinChecksum checksum;
};

/// Replays `driver`'s layers on `workload` under `config`, recording spans
/// into `recorder`. `query` is the same query's result from the real
/// driver: the fabric replays carry its traffic matrix. Fails if a layer
/// call fails.
Status ReplayLayers(Driver driver, const Workload& workload,
                    const JoinConfig& config, const JoinResult& query,
                    SpanRecorder* recorder, ReplayOutput* out);

}  // namespace tj::perfbench

#endif  // TJ_PERFBENCH_REPLAY_H_
