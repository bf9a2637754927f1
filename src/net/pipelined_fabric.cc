#include "net/pipelined_fabric.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tj {
namespace {

int64_t ToMicros(double seconds) {
  return static_cast<int64_t>(std::llround(seconds * 1e6));
}

}  // namespace

PipelinedFabric::PipelinedFabric(const Params& params)
    : params_(params), traffic_(params.num_nodes) {
  TJ_CHECK_GT(params_.num_nodes, 0u);
  const uint32_t n = params_.num_nodes;
  runnable_.assign(n, {});
  cpu_busy_.assign(n, false);
  cpu_free_.assign(n, 0.0);
  egress_free_.assign(n, 0.0);
  ingress_free_.assign(n, 0.0);
  egress_occupant_dst_.assign(n, n);  // n == "no transfer yet".
  links_.assign(static_cast<size_t>(n) * n, Link{});
  for (Link& link : links_) link.credit = LinkWindowBytes();
  if (params_.egress_policy == EgressSchedPolicy::kDrr) {
    egress_queues_.assign(static_cast<size_t>(n) * n, EgressQueue{});
    TJ_CHECK_GT(DrrQuantumBytes(), 0u) << "DRR needs a positive quantum";
  }
  dead_.assign(n, false);
  in_flight_.assign(n, std::nullopt);
  nic_out_bytes_.assign(n, 0);
  nic_in_bytes_.assign(n, 0);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  stall_hist_ = &metrics.histogram("pipeline.credit_stall_seconds");
  stall_hol_total_ = &metrics.counter("pipeline.credit_stall_hol_total");
  stall_exhausted_total_ =
      &metrics.counter("pipeline.credit_stall_exhausted_total");
  if (params_.fault_policy != nullptr) {
    const FaultPolicy& policy = *params_.fault_policy;
    if (policy.active()) fault_rng_.emplace(params_.fault_seed);
    // The pipelined run has no global phase counter, so a crash-faulted
    // node fail-stops from time zero: it runs no tasks and sends nothing.
    if (policy.crash_node < n) {
      dead_[policy.crash_node] = true;
      failure_.dead_nodes.push_back(policy.crash_node);
    }
    // A straggler's CPU comes up late; its NICs still accept transfers.
    if (policy.models_straggler() && policy.slow_node < n) {
      cpu_free_[policy.slow_node] = policy.slowdown_seconds;
    }
  }
}

uint64_t PipelinedFabric::LinkWindowBytes() const {
  return std::max<uint64_t>(params_.chunk_bytes,
                            params_.inbox_budget_bytes / params_.num_nodes);
}

uint64_t PipelinedFabric::CreditNeed(const Chunk& chunk) const {
  // An oversized chunk takes the whole window instead of deadlocking on
  // credit it can never accumulate.
  return std::min<uint64_t>(chunk.data.size(), LinkWindowBytes());
}

uint64_t PipelinedFabric::DrrQuantumBytes() const {
  return params_.drr_quantum_bytes > 0 ? params_.drr_quantum_bytes
                                       : params_.chunk_bytes;
}

uint32_t PipelinedFabric::StageIndex(const char* stage) {
  for (uint32_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].phase() == stage) return i;
  }
  stages_.emplace_back(stage, params_.num_nodes);
  return static_cast<uint32_t>(stages_.size() - 1);
}

void PipelinedFabric::OnChunk(MessageType type, const char* stage,
                              ChunkHandler handler) {
  TJ_CHECK(!ran_) << "OnChunk after Run";
  const int t = static_cast<int>(type);
  TJ_CHECK(!handlers_[t].has_value()) << "duplicate handler";
  handlers_[t].emplace(StageIndex(stage), std::move(handler));
}

void PipelinedFabric::PushEvent(double time, Event::Kind kind,
                                uint64_t payload, uint32_t node) {
  events_.push(Event{time, next_event_seq_++, kind, payload, node});
}

void PipelinedFabric::Post(uint32_t node, const char* stage,
                           std::string label, Task fn, TraceArgs trace_args) {
  TJ_CHECK_LT(node, params_.num_nodes);
  TaskRecord task;
  task.node = node;
  task.stage = StageIndex(stage);
  task.label = std::move(label);
  task.fn = std::move(fn);
  task.trace_args = std::move(trace_args);
  TaskTiming timing;
  timing.node = node;
  timing.stage = task.stage;
  if (in_task_) timing.parent_task = static_cast<int64_t>(running_task_);
  tasks_.push_back(std::move(task));
  task_timing_.push_back(timing);
  const uint64_t index = tasks_.size() - 1;
  if (in_task_) {
    buffered_posts_.push_back(index);
  } else {
    TJ_CHECK(!ran_) << "Post after Run finished";
    PushEvent(0.0, Event::kTaskReady, index, node);
  }
}

void PipelinedFabric::SendChunk(uint32_t src, uint32_t dst, MessageType type,
                                ByteBuffer data, bool eos,
                                uint64_t watermark) {
  TJ_CHECK(in_task_) << "SendChunk outside a running task";
  TJ_CHECK_EQ(src, running_node_) << "task may only send from its own node";
  TJ_CHECK_LT(dst, params_.num_nodes);
  Chunk chunk;
  chunk.src = src;
  chunk.dst = dst;
  chunk.type = type;
  chunk.data = std::move(data);
  chunk.eos = eos;
  chunk.watermark = watermark;
  ChunkTiming timing;
  timing.src = src;
  timing.dst = dst;
  timing.stage = tasks_[running_task_].stage;
  timing.type = type;
  timing.bytes = chunk.data.size();
  timing.sender_task = static_cast<int64_t>(running_task_);
  timing.local = (src == dst);
  chunks_.push_back(std::move(chunk));
  chunk_timing_.push_back(timing);
  chunk_stage_.push_back(tasks_[running_task_].stage);
  chunk_credit_.push_back(0);
  buffered_sends_.push_back(chunks_.size() - 1);
}

void PipelinedFabric::ChargeCpuBytes(uint64_t bytes) {
  TJ_CHECK(in_task_) << "ChargeCpuBytes outside a running task";
  running_charged_bytes_ += bytes;
}

void PipelinedFabric::RecordModeledCounter(std::string name, uint32_t node,
                                           double now, int64_t value) {
  if (!Tracer::enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = "mb";
  event.node = node;
  event.phase = 'C';
  event.t_start_us = ToMicros(now);
  event.value = value;
  Tracer::Global().Record(std::move(event));
}

void PipelinedFabric::RecordCreditCounter(uint32_t src, uint32_t dst,
                                          double now) {
  if (!Tracer::enabled()) return;
  RecordModeledCounter(
      "flow.credit.d" + std::to_string(dst), src, now,
      static_cast<int64_t>(
          links_[static_cast<size_t>(src) * params_.num_nodes + dst].credit));
}

void PipelinedFabric::RecordQueuedCounter(uint32_t src, uint32_t dst,
                                          double now) {
  if (!Tracer::enabled()) return;
  RecordModeledCounter(
      "flow.queued.d" + std::to_string(dst), src, now,
      static_cast<int64_t>(
          links_[static_cast<size_t>(src) * params_.num_nodes + dst]
              .queued_bytes));
}

void PipelinedFabric::RecordEgressQueuedCounter(uint32_t src, uint32_t dst,
                                                double now) {
  if (!Tracer::enabled()) return;
  RecordModeledCounter(
      "egress.queued.d" + std::to_string(dst), src, now,
      static_cast<int64_t>(
          egress_queues_[static_cast<size_t>(src) * params_.num_nodes + dst]
              .queued_bytes));
}

void PipelinedFabric::RecordDeficitCounter(uint32_t src, uint32_t dst,
                                           double now) {
  if (!Tracer::enabled()) return;
  const uint64_t deficit =
      egress_queues_[static_cast<size_t>(src) * params_.num_nodes + dst]
          .deficit;
  RecordModeledCounter(
      "drr.deficit.d" + std::to_string(dst), src, now,
      static_cast<int64_t>(std::min<uint64_t>(
          deficit, std::numeric_limits<int64_t>::max())));
}

void PipelinedFabric::TryStartTask(uint32_t node, double now) {
  if (cpu_busy_[node] || runnable_[node].empty()) return;
  const uint64_t index = runnable_[node].front();
  runnable_[node].pop_front();
  const double start = std::max(now, cpu_free_[node]);

  in_task_ = true;
  running_node_ = node;
  running_task_ = index;
  running_start_ = start;
  running_charged_bytes_ = 0;
  buffered_posts_.clear();
  buffered_sends_.clear();
  // The task may Post, growing tasks_ and relocating the very function
  // object being executed — move it out first.
  Task fn = std::move(tasks_[index].fn);
  Status status = fn();
  in_task_ = false;

  const double dur = params_.cost.CpuSeconds(running_charged_bytes_);
  const double finish = start + dur;
  stages_[tasks_[index].stage].AddCpuSeconds(node, dur);
  task_timing_[index].start = start;
  task_timing_[index].finish = finish;

  if (Tracer::enabled()) {
    RecordModeledCounter("cpu.busy", node, start, 1);
    RecordModeledCounter("cpu.busy", node, finish, 0);
    TraceEvent event;
    event.name = tasks_[index].label;
    event.category = "mb";
    event.node = node;
    event.phase = 'X';
    event.t_start_us = ToMicros(start);
    event.dur_us = ToMicros(finish) - ToMicros(start);
    event.args = tasks_[index].trace_args;
    Tracer::Global().Record(std::move(event));
  }

  InFlight fl;
  fl.task = index;
  fl.start = start;
  fl.finish = finish;
  fl.posts = std::move(buffered_posts_);
  fl.sends = std::move(buffered_sends_);
  buffered_posts_.clear();
  buffered_sends_.clear();
  in_flight_[node] = std::move(fl);
  cpu_busy_[node] = true;
  cpu_free_[node] = finish;
  PushEvent(finish, Event::kTaskFinish, 0, node);

  if (!status.ok() && first_error_.ok()) {
    first_error_ = Status(
        status.code(), "pipelined task '" + tasks_[index].label + "' node " +
                           std::to_string(node) + ": " + status.message());
  }
}

void PipelinedFabric::FinishTask(uint32_t node, double now) {
  TJ_CHECK(in_flight_[node].has_value());
  InFlight fl = std::move(*in_flight_[node]);
  in_flight_[node].reset();
  cpu_busy_[node] = false;
  TaskRecord& task = tasks_[fl.task];

  for (uint64_t post : fl.posts) {
    PushEvent(now, Event::kTaskReady, post, tasks_[post].node);
  }
  for (uint64_t send : fl.sends) AdmitChunk(send, now);

  if (task.returns_credit) {
    ReturnCredit(task.credit_src, task.credit_dst, task.credit_bytes, now);
  }
  if (task.handler_chunk >= 0) {
    // Handler ran; its chunk payload is no longer needed.
    ByteBuffer().swap(chunks_[task.handler_chunk].data);
  }
  // Release the task closure (captured buffers) once it can never rerun.
  task.fn = nullptr;
}

void PipelinedFabric::AdmitChunk(uint64_t chunk_index, double ready) {
  Chunk& chunk = chunks_[chunk_index];
  ChunkTiming& timing = chunk_timing_[chunk_index];
  timing.admit = ready;
  if (chunk.src == chunk.dst) {
    // Local copy: no NIC, no credit; the ledger's src == dst cells are the
    // local-copy side.
    stages_[chunk_stage_[chunk_index]].Add(&traffic_, chunk.src, chunk.dst,
                                           chunk.type, chunk.data.size());
    timing.head = ready;
    timing.grant = ready;
    timing.egress_clear = ready;
    timing.wire_start = ready;
    timing.arrival = ready;
    timing.delivered = true;
    PushEvent(ready, Event::kChunkArrive, chunk_index, chunk.dst);
    return;
  }
  Link& link = links_[static_cast<size_t>(chunk.src) * params_.num_nodes +
                      chunk.dst];
  const uint64_t need = CreditNeed(chunk);
  chunk_credit_[chunk_index] = need;
  // FIFO per link: a chunk never overtakes an earlier blocked one, even if
  // it would fit the remaining credit.
  if (!link.blocked.empty() || need > link.credit) {
    // Classify the stall by its cause at admission: queued behind earlier
    // blocked chunks is head-of-line blocking; an empty queue with an
    // insufficient window is genuine inbox-credit exhaustion.
    if (link.blocked.empty()) {
      timing.head = ready;  // Immediately the FIFO front, waiting on credit.
      stall_exhausted_total_->Increment();
    } else {
      stall_hol_total_->Increment();
    }
    timing.stalled = true;
    link.blocked.emplace_back(chunk_index, ready);
    link.queued_bytes += timing.bytes;
    RecordQueuedCounter(chunk.src, chunk.dst, ready);
    ++credit_stall_events_;
    return;
  }
  timing.head = ready;
  link.credit -= need;
  RecordCreditCounter(chunk.src, chunk.dst, ready);
  DispatchGranted(chunk_index, ready);
}

void PipelinedFabric::DispatchGranted(uint64_t chunk_index, double ready) {
  if (params_.egress_policy == EgressSchedPolicy::kDrr) {
    EnqueueEgress(chunk_index, ready);
  } else {
    LaunchChunk(chunk_index, ready);
  }
}

void PipelinedFabric::ReturnCredit(uint32_t src, uint32_t dst, uint64_t bytes,
                                   double now) {
  Link& link = links_[static_cast<size_t>(src) * params_.num_nodes + dst];
  link.credit += bytes;
  RecordCreditCounter(src, dst, now);
  while (!link.blocked.empty()) {
    const auto [chunk_index, ready] = link.blocked.front();
    // The front either launches now or starts waiting on credit now; both
    // end its head-of-line segment.
    if (chunk_timing_[chunk_index].head < 0) {
      chunk_timing_[chunk_index].head = now;
    }
    const uint64_t need = chunk_credit_[chunk_index];
    if (need > link.credit) break;
    link.blocked.pop_front();
    link.queued_bytes -= chunk_timing_[chunk_index].bytes;
    link.credit -= need;
    RecordCreditCounter(src, dst, now);
    RecordQueuedCounter(src, dst, now);
    DispatchGranted(chunk_index, std::max(ready, now));
  }
}

void PipelinedFabric::AccountGrant(uint64_t chunk_index, double ready) {
  Chunk& chunk = chunks_[chunk_index];
  const uint64_t wire =
      chunk.data.size() + (fault_active() ? kFrameHeaderBytes : 0);

  // First transmission is goodput, and only goodput sets the stage's NIC
  // bottleneck, so the barrier-equivalent reference prices the same bytes
  // as a pristine run. Accounting happens at credit grant under both egress
  // policies, so the ledgers cannot depend on NIC scheduling order.
  stages_[chunk_stage_[chunk_index]].Add(&traffic_, chunk.src, chunk.dst,
                                         chunk.type, wire);

  ChunkTiming& timing = chunk_timing_[chunk_index];
  timing.grant = ready;
  if (timing.stalled) stall_hist_->Observe(ready - timing.admit);
}

void PipelinedFabric::LaunchChunk(uint64_t chunk_index, double ready) {
  AccountGrant(chunk_index, ready);
  Chunk& chunk = chunks_[chunk_index];
  ChunkTiming& timing = chunk_timing_[chunk_index];
  const double egress_clear = std::max(ready, egress_free_[chunk.src]);
  const double wire_start = std::max(egress_clear, ingress_free_[chunk.dst]);
  timing.egress_clear = egress_clear;
  if (egress_clear > ready &&
      egress_occupant_dst_[chunk.src] != chunk.dst) {
    timing.egress_hol = true;
  }
  egress_occupant_dst_[chunk.src] = chunk.dst;
  StartTransfer(chunk_index, wire_start);
}

void PipelinedFabric::MarkEgressWait(uint64_t chunk_index, double now,
                                     ChunkTiming::EgressWait state) {
  auto& marks = chunk_timing_[chunk_index].egress_marks;
  if (!marks.empty() && marks.back().first == now) {
    // Re-evaluated within one modeled instant: the final state wins and the
    // mark list stays strictly increasing in time.
    marks.back().second = state;
    return;
  }
  if (!marks.empty() && marks.back().second == state) return;  // No change.
  marks.emplace_back(now, state);
}

void PipelinedFabric::RefreshFrontMarks(uint32_t node, double now,
                                        bool after_pick) {
  const uint32_t n = params_.num_nodes;
  const bool egress_busy = egress_free_[node] > now;
  for (uint32_t dst = 0; dst < n; ++dst) {
    EgressQueue& q = egress_queues_[static_cast<size_t>(node) * n + dst];
    if (q.chunks.empty()) continue;
    const uint64_t front = q.chunks.front();
    const bool ingress_busy = ingress_free_[dst] > now;
    ChunkTiming::EgressWait state;
    if (egress_busy) {
      // A front that was ready but lacked deficit when the pick happened
      // lost its turn to the quantum cursor, not to NIC occupancy per se.
      if (after_pick && !ingress_busy &&
          q.deficit < chunks_[front].data.size()) {
        state = ChunkTiming::EgressWait::kDeficit;
      } else {
        state = (egress_occupant_dst_[node] == dst)
                    ? ChunkTiming::EgressWait::kQueue
                    : ChunkTiming::EgressWait::kHol;
      }
    } else if (ingress_busy) {
      state = ChunkTiming::EgressWait::kIngress;
    } else {
      // Idle NIC, idle ingress: only reachable transiently (the scheduler
      // serves such a front before exiting); classify by the deficit.
      state = (q.deficit < chunks_[front].data.size())
                  ? ChunkTiming::EgressWait::kDeficit
                  : ChunkTiming::EgressWait::kIngress;
    }
    MarkEgressWait(front, now, state);
  }
}

void PipelinedFabric::EnqueueEgress(uint64_t chunk_index, double now) {
  AccountGrant(chunk_index, now);
  Chunk& chunk = chunks_[chunk_index];
  EgressQueue& q =
      egress_queues_[static_cast<size_t>(chunk.src) * params_.num_nodes +
                     chunk.dst];
  q.chunks.push_back(chunk_index);
  q.queued_bytes += chunk.data.size();
  RecordEgressQueuedCounter(chunk.src, chunk.dst, now);
  // Anchor the blame chain exactly at the grant boundary; the scheduler
  // pass below reclassifies the mark in place if the chunk is already the
  // queue front.
  MarkEgressWait(chunk_index, now, ChunkTiming::EgressWait::kQueue);
  RunEgressScheduler(chunk.src, now);
}

void PipelinedFabric::RunEgressScheduler(uint32_t node, double now) {
  const uint32_t n = params_.num_nodes;
  const uint64_t quantum = DrrQuantumBytes();
  bool picked = false;
  while (egress_free_[node] <= now) {
    // A queue front competes when its destination ingress is idle; an
    // ingress-busy destination is skipped so it cannot stall the NIC.
    bool any_ready = false;
    int64_t pick = -1;
    double pick_grant = 0;
    uint64_t pick_chunk = 0;
    auto consider = [&](uint32_t dst) {
      EgressQueue& q = egress_queues_[static_cast<size_t>(node) * n + dst];
      if (q.chunks.empty() || ingress_free_[dst] > now) return;
      any_ready = true;
      const uint64_t front = q.chunks.front();
      if (q.deficit < chunks_[front].data.size()) return;
      const double grant = chunk_timing_[front].grant;
      // Oldest grant wins; chunk index (send order) breaks exact ties, so
      // an infinite quantum degenerates to the global FIFO order.
      if (pick < 0 || grant < pick_grant ||
          (grant == pick_grant && front < pick_chunk)) {
        pick = static_cast<int64_t>(dst);
        pick_grant = grant;
        pick_chunk = front;
      }
    };
    for (uint32_t dst = 0; dst < n; ++dst) consider(dst);
    if (!any_ready) break;
    while (pick < 0) {
      // Top-up round: every backlogged queue gains a quantum of
      // eligibility, in destination order. Rounds are instantaneous in
      // modeled time; they repeat only for chunks larger than the quantum.
      for (uint32_t dst = 0; dst < n; ++dst) {
        EgressQueue& q = egress_queues_[static_cast<size_t>(node) * n + dst];
        if (q.chunks.empty()) continue;
        q.deficit = (q.deficit > std::numeric_limits<uint64_t>::max() - quantum)
                        ? std::numeric_limits<uint64_t>::max()
                        : q.deficit + quantum;
      }
      for (uint32_t dst = 0; dst < n; ++dst) consider(dst);
    }
    const uint32_t dst = static_cast<uint32_t>(pick);
    EgressQueue& q = egress_queues_[static_cast<size_t>(node) * n + dst];
    const uint64_t chunk_index = q.chunks.front();
    q.chunks.pop_front();
    q.queued_bytes -= chunks_[chunk_index].data.size();
    q.deficit -= chunks_[chunk_index].data.size();
    if (q.chunks.empty()) q.deficit = 0;  // No hoarding across idle spells.
    RecordEgressQueuedCounter(node, dst, now);
    RecordDeficitCounter(node, dst, now);
    egress_occupant_dst_[node] = dst;
    ChunkTiming& timing = chunk_timing_[chunk_index];
    timing.egress_clear = now;
    StartTransfer(chunk_index, now);
    picked = true;
  }
  RefreshFrontMarks(node, now, picked);
}

void PipelinedFabric::StartTransfer(uint64_t chunk_index, double wire_start) {
  Chunk& chunk = chunks_[chunk_index];
  ChunkTiming& timing = chunk_timing_[chunk_index];
  const uint64_t wire =
      chunk.data.size() + (fault_active() ? kFrameHeaderBytes : 0);
  timing.wire_start = wire_start;
  const double dur = params_.cost.net.NicSeconds(wire);
  double t = wire_start;
  bool delivered = true;
  if (fault_active()) {
    const FaultPolicy& policy = *params_.fault_policy;
    // Retries and faults belong to the stage whose task sent the chunk.
    StepAccumulator& step = stages_[chunk_stage_[chunk_index]];
    ReliabilityStats outcome;
    delivered = false;
    for (uint32_t attempt = 0; attempt <= policy.max_retries; ++attempt) {
      double t_end = t + dur;
      if (attempt > 0) {
        step.AddRetransmit(&traffic_, chunk.src, chunk.dst, chunk.type, wire);
        ++outcome.retransmitted_frames;
      }
      const bool dropped = fault_rng_->Bernoulli(policy.drop);
      const bool corrupt = !dropped && fault_rng_->Bernoulli(policy.corrupt);
      const bool duplicated =
          !dropped && fault_rng_->Bernoulli(policy.duplicate);
      if (duplicated) {
        // The spurious extra copy burns wire time and overhead bytes but
        // is discarded by the receiver's stream sequencing.
        ++outcome.faults.frames_duplicated;
        step.AddRetransmit(&traffic_, chunk.src, chunk.dst, chunk.type, wire);
        t_end += dur;
      }
      if (dropped) {
        ++outcome.faults.frames_dropped;
        t = t_end;
        continue;
      }
      if (corrupt) {
        ++outcome.faults.frames_corrupted;
        ++outcome.nack_messages;
        t = t_end;
        continue;
      }
      t = t_end;
      delivered = true;
      break;
    }
    if (delivered && fault_rng_->Bernoulli(policy.reorder)) {
      // Streams are FIFO by construction here, so a reorder fault is
      // absorbed by the model; it is still counted for parity with the
      // barrier fabric's injector.
      ++outcome.faults.messages_reordered;
    }
    step.AddReliability(&reliability_, outcome);
  } else {
    t += dur;
  }
  egress_free_[chunk.src] = t;
  ingress_free_[chunk.dst] = t;
  timing.arrival = t;
  timing.delivered = delivered;
  nic_out_bytes_[chunk.src] += wire;
  nic_in_bytes_[chunk.dst] += wire;
  if (Tracer::enabled()) {
    // Busy tracks mark the occupied window; cumulative byte counters match
    // the barrier fabric's nic.* schema (first-transmission wire bytes).
    RecordModeledCounter("nic.egress.busy", chunk.src, wire_start, 1);
    RecordModeledCounter("nic.ingress.busy", chunk.dst, wire_start, 1);
    RecordModeledCounter("nic.egress.busy", chunk.src, t, 0);
    RecordModeledCounter("nic.ingress.busy", chunk.dst, t, 0);
    RecordModeledCounter("nic.egress_bytes", chunk.src, t,
                         static_cast<int64_t>(nic_out_bytes_[chunk.src]));
    RecordModeledCounter("nic.ingress_bytes", chunk.dst, t,
                         static_cast<int64_t>(nic_in_bytes_[chunk.dst]));
  }
  if (params_.egress_policy == EgressSchedPolicy::kDrr) {
    // Wake the schedulers when the NIC pair frees — even for a chunk the
    // fault model ultimately lost, since it occupied the wire until t.
    PushEvent(t, Event::kTransferDone, chunk_index, chunk.src);
  }

  if (!delivered) {
    lost_link_ = true;
    LinkLoss loss;
    loss.src = chunk.src;
    loss.dst = chunk.dst;
    loss.frames = 1;
    failure_.lost_links.push_back(loss);
    failure_.retry_rounds =
        std::max(failure_.retry_rounds, params_.fault_policy->max_retries);
    return;
  }
  PushEvent(t, Event::kChunkArrive, chunk_index, chunk.dst);
}

Status PipelinedFabric::Run() {
  TJ_CHECK(!ran_) << "Run called twice";
  ran_ = true;
  while (!events_.empty() && first_error_.ok()) {
    const Event event = events_.top();
    events_.pop();
    makespan_seconds_ = std::max(makespan_seconds_, event.time);
    switch (event.kind) {
      case Event::kTaskReady: {
        const uint64_t index = event.payload;
        task_timing_[index].ready = event.time;
        if (dead_[event.node]) break;  // Fail-stopped: the task never runs.
        runnable_[event.node].push_back(index);
        TryStartTask(event.node, event.time);
        break;
      }
      case Event::kTaskFinish: {
        FinishTask(event.node, event.time);
        TryStartTask(event.node, event.time);
        break;
      }
      case Event::kTransferDone: {
        // kDrr: the transfer's NIC pair is free. The source's egress picks
        // its next chunk, then senders parked toward the freed ingress get
        // a chance (in node order — deterministic).
        const Chunk& chunk = chunks_[event.payload];
        RunEgressScheduler(chunk.src, event.time);
        const uint32_t n = params_.num_nodes;
        for (uint32_t m = 0; m < n; ++m) {
          if (m == chunk.src) continue;
          if (!egress_queues_[static_cast<size_t>(m) * n + chunk.dst]
                   .chunks.empty()) {
            RunEgressScheduler(m, event.time);
          }
        }
        break;
      }
      case Event::kChunkArrive: {
        const uint64_t chunk_index = event.payload;
        const Chunk& chunk = chunks_[chunk_index];
        if (dead_[chunk.dst]) {
          // The wire delivered it, but nobody is home: hand the credit
          // back (and drain the link's blocked queue) so surviving
          // streams on the link keep flowing.
          if (chunk.src != chunk.dst && chunk_credit_[chunk_index] > 0) {
            ReturnCredit(chunk.src, chunk.dst, chunk_credit_[chunk_index],
                         event.time);
          }
          break;
        }
        const auto& handler = handlers_[static_cast<int>(chunk.type)];
        TJ_CHECK(handler.has_value())
            << "no handler for " << MessageTypeName(chunk.type);
        TaskRecord task;
        task.node = chunk.dst;
        task.stage = handler->first;
        task.label = stages_[handler->first].phase() + "." +
                     MessageTypeName(chunk.type);
        task.trace_args = {
            {"src", static_cast<int64_t>(chunk.src)},
            {"watermark", static_cast<int64_t>(chunk.watermark)},
            {"eos", chunk.eos ? 1 : 0},
            {"bytes", static_cast<int64_t>(chunk.data.size())}};
        if (chunk.src != chunk.dst) {
          task.returns_credit = true;
          task.credit_src = chunk.src;
          task.credit_dst = chunk.dst;
          task.credit_bytes = chunk_credit_[chunk_index];
        }
        task.handler_chunk = static_cast<int64_t>(chunk_index);
        task.fn = [this, type = static_cast<int>(chunk.type), chunk_index]() {
          // The handler may SendChunk, growing chunks_ and invalidating
          // references into it — hand it a moved-out local copy instead.
          Chunk local = std::move(chunks_[chunk_index]);
          return (handlers_[type]->second)(local);
        };
        TaskTiming timing;
        timing.node = chunk.dst;
        timing.stage = task.stage;
        timing.ready = event.time;
        timing.parent_chunk = static_cast<int64_t>(chunk_index);
        tasks_.push_back(std::move(task));
        task_timing_.push_back(timing);
        runnable_[chunk.dst].push_back(tasks_.size() - 1);
        TryStartTask(chunk.dst, event.time);
        break;
      }
    }
  }

  // Close every stage now that accounting is complete.
  for (const StepAccumulator& stage : stages_) {
    steps_.push_back(stage.Close(params_.cost.net));
  }

  if (Tracer::enabled()) {
    TraceEvent makespan_event;
    makespan_event.name = "pipeline.makespan_us";
    makespan_event.category = "mb";
    makespan_event.phase = 'C';
    makespan_event.t_start_us = ToMicros(makespan_seconds_);
    makespan_event.value = ToMicros(makespan_seconds_);
    Tracer::Global().Record(makespan_event);
    TraceEvent barrier_event;
    barrier_event.name = "pipeline.barrier_us";
    barrier_event.category = "mb";
    barrier_event.phase = 'C';
    barrier_event.t_start_us = ToMicros(makespan_seconds_);
    barrier_event.value = ToMicros(BarrierSeconds(steps_));
    Tracer::Global().Record(barrier_event);
  }

  if (!first_error_.ok()) return first_error_;
  if (lost_link_) {
    const LinkLoss& loss = failure_.lost_links.front();
    return Status::DataLoss(
        "pipelined link " + std::to_string(loss.src) + "->" +
        std::to_string(loss.dst) + " lost a chunk after " +
        std::to_string(params_.fault_policy->max_retries) + " retries");
  }
  return Status::OK();
}

}  // namespace tj
