#include "net/fabric.h"

#include <algorithm>

#include "common/logging.h"
#include "common/peak_rss.h"
#include "net/time_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tj {

Fabric::Fabric(uint32_t num_nodes)
    : num_nodes_(num_nodes),
      traffic_(num_nodes),
      queued_(num_nodes),
      inboxes_(num_nodes) {
  TJ_CHECK_GT(num_nodes, 0u);
  msg_bytes_hist_ = &MetricsRegistry::Global().histogram("fabric.message_bytes");
  if (Tracer::enabled()) {
    Tracer& tracer = Tracer::Global();
    for (uint32_t node = 0; node < num_nodes_; ++node) {
      tracer.SetProcessLabel(node, "node " + std::to_string(node));
    }
    tracer.SetProcessLabel(num_nodes_, "fabric");
  }
}

void Fabric::SetFaultPolicy(const FaultPolicy& policy, uint64_t seed) {
  TJ_CHECK(!in_phase_) << "SetFaultPolicy inside a phase";
  has_policy_ = true;
  policy_ = policy;
  if (!policy.active()) {
    // Delivery-inert policy (all-zero, or a pure straggler): stay on the
    // pristine unframed path so results and traffic are byte-identical to a
    // fabric with no policy at all. A straggler's slowdown is modeled at
    // the barrier from policy_, which needs no injector.
    injector_.reset();
    return;
  }
  injector_.emplace(policy, seed, num_nodes_);
  sent_log_.assign(num_nodes_, {});
  next_seq_.assign(static_cast<uint64_t>(num_nodes_) * num_nodes_, 0);
}

void Fabric::Send(uint32_t src, uint32_t dst, MessageType type,
                  ByteBuffer data) {
  TJ_CHECK(in_phase_) << "Send outside RunPhaseReliable";
  TJ_CHECK_LT(src, num_nodes_);
  TJ_CHECK_LT(dst, num_nodes_);
  // Everything indexed by src is only written by node src's own phase work,
  // so this is race-free under concurrent phases; the barrier accounts it.
  msg_bytes_hist_->Observe(static_cast<double>(data.size()));
  if (!injector_) {
    queued_[src].push_back(Pending{dst, type, std::move(data)});
    return;
  }
  SentFrame sent{dst, type, NextSeq(src, dst)++, {}, 0, {}};
  ByteBuffer frame;
  frame.reserve(kFrameHeaderBytes + data.size());
  EncodeFrame(type, sent.seq, data, &frame);
  // The sender keeps the pristine frame for retransmission.
  std::vector<ByteBuffer> copies =
      injector_->Transmit(src, dst, frame, &sent.outcome.faults);
  sent.copies = copies.size();
  sent.frame = std::move(frame);
  sent_log_[src].push_back(std::move(sent));
  for (ByteBuffer& copy : copies) {
    queued_[src].push_back(Pending{dst, type, std::move(copy)});
  }
}

Status Fabric::RunPhaseReliable(const std::string& name,
                                const std::function<Status(uint32_t)>& fn) {
  TJ_CHECK(!in_phase_) << "nested RunPhaseReliable";
  in_phase_ = true;
  const uint64_t phase = phase_index_++;
  std::vector<Status> statuses(num_nodes_);
  auto work = [&](uint32_t node) {
    // A crashed node fail-stops: it does no work and sends nothing.
    if (injector_ && injector_->NodeCrashed(node, phase)) return;
    // Attribute the node's phase work (and any kernel spans it opens) to
    // the node's pid in the trace.
    ScopedTraceNode traced_node(node);
    TraceSpan span("phase", name);
    statuses[node] = fn(node);
  };
  Stopwatch watch;
  if (pool_ != nullptr && num_nodes_ > 1) {
    pool_->ParallelFor(num_nodes_,
                       [&work](size_t node) { work(static_cast<uint32_t>(node)); });
  } else {
    for (uint32_t node = 0; node < num_nodes_; ++node) work(node);
  }
  const bool straggling =
      has_policy_ && policy_.models_straggler() &&
      policy_.slow_node < num_nodes_ &&
      !(injector_ && injector_->NodeCrashed(policy_.slow_node, phase));
  // The de-pipelined barrier waits for the slowest node, so a modeled
  // straggler stretches the whole phase — on either wire path.
  const double slowdown = straggling ? policy_.slowdown_seconds : 0;
  const double elapsed = watch.ElapsedSeconds() + slowdown;
  in_phase_ = false;
  StepAccumulator step(name, num_nodes_);
  AccountSends(&step);
  // A failed phase is priced like a completed one, from what it sent.
  auto fail = [&](Status status) {
    return Fail(std::move(status),
                step.Close(NetworkTimeModel()).net_seconds + slowdown);
  };

  // Arm a fresh failure report for this phase; every error path below adds
  // its structured findings before returning through Fail().
  failure_ = FailureReport();
  failure_.phase = name;
  failure_.phase_index = phase;

  auto abandon = [this]() {
    for (auto& q : queued_) q.clear();
    for (auto& log : sent_log_) log.clear();
  };
  for (uint32_t node = 0; node < num_nodes_; ++node) {
    if (!statuses[node].ok()) {
      abandon();
      return fail(Status(statuses[node].code(),
                         "phase '" + name + "' node " + std::to_string(node) +
                             ": " + statuses[node].message()));
    }
  }
  if (injector_ && injector_->policy().crash_node < num_nodes_ &&
      injector_->NodeCrashed(injector_->policy().crash_node, phase)) {
    // Fail-stop is unrecoverable in this fabric: surface a precise error at
    // the first barrier at or after the crash instead of letting the query
    // continue on a silently partial dataset. Recovery (if any) re-plans
    // the query on the surviving nodes with replica failover.
    abandon();
    failure_.dead_nodes.push_back(injector_->policy().crash_node);
    return fail(Status::DataLoss(
        "node " + std::to_string(injector_->policy().crash_node) +
        " crashed (fail-stop) before completing phase " +
        std::to_string(phase) + " '" + name + "'"));
  }
  if (straggling && phase_deadline_seconds_ > 0 &&
      policy_.slowdown_seconds > phase_deadline_seconds_) {
    // The modeled slowdown alone blows the phase deadline: promote the
    // straggler to suspected-dead. Deterministic — measured wall time never
    // participates, so a given policy either always or never trips this.
    abandon();
    failure_.suspected_nodes.push_back(policy_.slow_node);
    return fail(Status::DeadlineExceeded(
        "phase '" + name + "': node " + std::to_string(policy_.slow_node) +
        " straggled " + std::to_string(policy_.slowdown_seconds) +
        "s past the " + std::to_string(phase_deadline_seconds_) +
        "s phase deadline; promoted to suspected-dead"));
  }
  if (Status barrier = DeliverBarrier(name, &step); !barrier.ok()) {
    return fail(std::move(barrier));
  }
  StepRecord record = step.Close(NetworkTimeModel());
  record.wall_seconds = elapsed;
  record.peak_rss_bytes = PeakRssBytes();
  modeled_seconds_.emplace_back(name, record.net_seconds + slowdown);
  steps_.push_back(std::move(record));
  if (Tracer::enabled()) {
    // Cumulative per-node NIC counters, one sample per barrier: the trace
    // viewer renders these as step functions per node process.
    Tracer& tracer = Tracer::Global();
    for (uint32_t node = 0; node < num_nodes_; ++node) {
      tracer.RecordCounter("nic.ingress_bytes", node,
                           static_cast<int64_t>(traffic_.IngressBytes(node)));
      tracer.RecordCounter("nic.egress_bytes", node,
                           static_cast<int64_t>(traffic_.EgressBytes(node)));
    }
  }
  return Status::OK();
}

void Fabric::AccountSends(StepAccumulator* step) {
  for (uint32_t src = 0; src < num_nodes_; ++src) {
    if (!injector_) {
      for (const Pending& p : queued_[src]) {
        step->Add(&traffic_, src, p.dst, p.type, p.data.size());
      }
      continue;
    }
    // The first transmission attempt is goodput (framing overhead
    // included); injected extra copies are fault-recovery overhead.
    for (const SentFrame& f : sent_log_[src]) {
      step->Add(&traffic_, src, f.dst, f.type, f.frame.size());
      if (f.copies > 1) {
        step->AddRetransmit(&traffic_, src, f.dst, f.type,
                            (f.copies - 1) * f.frame.size());
      }
      step->AddReliability(&reliability_, f.outcome);
    }
  }
}

Status Fabric::Fail(Status status, double modeled_seconds) {
  if (diag_sink_ != nullptr) {
    diag_sink_->failure = failure_;
    diag_sink_->traffic = traffic_;
    diag_sink_->phase_seconds = modeled_seconds_;
    diag_sink_->phase_seconds.emplace_back(failure_.phase, modeled_seconds);
  }
  return status;
}

Status Fabric::DeliverBarrier(const std::string& name,
                              StepAccumulator* step) {
  // The barrier runs outside any node's work; attribute it to the fabric
  // pseudo-process (pid = num_nodes_).
  std::optional<ScopedTraceNode> barrier_node;
  std::optional<TraceSpan> barrier_span;
  if (Tracer::enabled()) {
    barrier_node.emplace(num_nodes_);
    barrier_span.emplace("fabric", "barrier: " + name);
  }
  if (!injector_) {
    // Pristine barrier: deliver, ordered by source node then send order.
    std::vector<size_t> per_dst(num_nodes_, 0);
    for (uint32_t src = 0; src < num_nodes_; ++src) {
      for (const auto& p : queued_[src]) ++per_dst[p.dst];
    }
    for (uint32_t dst = 0; dst < num_nodes_; ++dst) {
      if (per_dst[dst] > 0) {
        inboxes_[dst].reserve(inboxes_[dst].size() + per_dst[dst]);
      }
    }
    for (uint32_t src = 0; src < num_nodes_; ++src) {
      for (auto& p : queued_[src]) {
        inboxes_[p.dst].push_back(Message{src, p.type, std::move(p.data)});
      }
      queued_[src].clear();
    }
    return Status::OK();
  }

  // Reassembly state per (receiver, sender) link: CRC-valid frames tagged
  // with their sequence number, appended in absorb order. Canonicalize()
  // sorts each link by seq and drops duplicate seqs keeping the first
  // absorbed copy — the same dedup-and-recover-send-order semantics the
  // former std::map gave, without a heap node per frame. Seq ascending ==
  // send order, which makes delivery match the pristine barrier exactly
  // when nothing was reordered.
  struct Recv {
    uint32_t seq;
    MessageType type;
    ByteBuffer payload;
  };
  std::vector<std::vector<std::vector<Recv>>> accepted(
      num_nodes_, std::vector<std::vector<Recv>>(num_nodes_));
  // Pre-size each link from the queued wire copies (known counts: S2
  // reserve audit) so absorption never reallocates mid-link.
  for (uint32_t src = 0; src < num_nodes_; ++src) {
    std::vector<size_t> per_dst(num_nodes_, 0);
    for (const auto& p : queued_[src]) ++per_dst[p.dst];
    for (uint32_t dst = 0; dst < num_nodes_; ++dst) {
      if (per_dst[dst] > 0) accepted[dst][src].reserve(per_dst[dst]);
    }
  }
  auto absorb = [&accepted](uint32_t src, uint32_t dst, const ByteBuffer& wire) {
    FrameHeader header;
    ByteBuffer payload;
    if (!DecodeFrame(wire, &header, &payload).ok()) return;  // lost to CRC
    accepted[dst][src].push_back(
        Recv{header.seq, header.type, std::move(payload)});
  };
  auto canonicalize = [this, &accepted]() {
    for (auto& by_src : accepted) {
      for (auto& link : by_src) {
        std::stable_sort(link.begin(), link.end(),
                         [](const Recv& a, const Recv& b) {
                           return a.seq < b.seq;
                         });
        link.erase(std::unique(link.begin(), link.end(),
                               [](const Recv& a, const Recv& b) {
                                 return a.seq == b.seq;
                               }),
                   link.end());
      }
    }
  };
  auto link_has_seq = [](const std::vector<Recv>& link, uint32_t seq) {
    auto it = std::lower_bound(
        link.begin(), link.end(), seq,
        [](const Recv& r, uint32_t s) { return r.seq < s; });
    return it != link.end() && it->seq == seq;
  };
  for (uint32_t src = 0; src < num_nodes_; ++src) {
    for (const auto& p : queued_[src]) absorb(src, p.dst, p.data);
    queued_[src].clear();  // The wire copies are spent.
  }

  // Bounded nack/retransmit rounds. The *sender* is the source of truth for
  // what must arrive — a receiver alone cannot detect the loss of the
  // trailing frames of a phase. missing = sent log minus accepted.
  const uint32_t max_retries = injector_->policy().max_retries;
  for (uint32_t round = 0;; ++round) {
    // Absorption appended out of order; restore per-link seq order (and
    // dedup) before membership checks — and, on the final round, before
    // delivery below.
    canonicalize();
    std::vector<std::pair<uint32_t, const SentFrame*>> missing;
    for (uint32_t src = 0; src < num_nodes_; ++src) {
      for (const SentFrame& f : sent_log_[src]) {
        if (!link_has_seq(accepted[f.dst][src], f.seq)) {
          missing.emplace_back(src, &f);
        }
      }
    }
    if (missing.empty()) break;
    std::optional<TraceSpan> round_span;
    if (Tracer::enabled()) {
      round_span.emplace("fabric",
                         "retry round " + std::to_string(round) + ": " +
                             std::to_string(missing.size()) + " missing",
                         static_cast<int64_t>(missing.size()));
    }
    if (round >= max_retries) {
      // Retry budget exhausted. Collapse the missing frames into per-link
      // sequence ranges: the structured report feeds recovery, and the
      // Status names the exhausted range and retry count for humans.
      for (const auto& [src, f] : missing) {
        LinkLoss* loss = nullptr;
        for (LinkLoss& l : failure_.lost_links) {
          if (l.src == src && l.dst == f->dst) {
            loss = &l;
            break;
          }
        }
        if (loss == nullptr) {
          failure_.lost_links.push_back(
              LinkLoss{src, f->dst, f->seq, f->seq, 0});
          loss = &failure_.lost_links.back();
        }
        loss->seq_begin = std::min(loss->seq_begin, f->seq);
        loss->seq_end = std::max(loss->seq_end, f->seq);
        ++loss->frames;
      }
      failure_.retry_rounds = max_retries;
      const LinkLoss& first = failure_.lost_links.front();
      Status status = Status::DataLoss(
          "phase '" + name + "': " + std::to_string(missing.size()) +
          " frame(s) on " + std::to_string(failure_.lost_links.size()) +
          " link(s) unrecovered after " + std::to_string(max_retries) +
          " retry rounds (first: link " + std::to_string(first.src) + "->" +
          std::to_string(first.dst) + ", " + std::to_string(first.frames) +
          " frame(s) in seq range [" + std::to_string(first.seq_begin) +
          ".." + std::to_string(first.seq_end) + "])");
      for (auto& log : sent_log_) log.clear();
      return status;
    }
    // One nack per afflicted link (receiver -> sender, control class), then
    // the sender retransmits each nacked frame through the same faulty wire.
    ReliabilityStats outcome;
    for (uint32_t src = 0; src < num_nodes_; ++src) {
      std::vector<std::vector<const SentFrame*>> nacked(num_nodes_);
      for (const SentFrame& f : sent_log_[src]) {
        if (!link_has_seq(accepted[f.dst][src], f.seq)) {
          nacked[f.dst].push_back(&f);
        }
      }
      for (uint32_t dst = 0; dst < num_nodes_; ++dst) {
        if (nacked[dst].empty()) continue;
        step->AddRetransmit(&traffic_, dst, src, MessageType::kAck,
                            kFrameHeaderBytes + 4 * nacked[dst].size());
        ++outcome.nack_messages;
        for (const SentFrame* f : nacked[dst]) {
          step->AddRetransmit(&traffic_, src, dst, f->type, f->frame.size());
          ++outcome.retransmitted_frames;
          std::vector<ByteBuffer> copies =
              injector_->Transmit(src, dst, f->frame, &outcome.faults);
          if (copies.size() > 1) {
            step->AddRetransmit(&traffic_, src, dst, f->type,
                                (copies.size() - 1) * f->frame.size());
          }
          for (const ByteBuffer& copy : copies) absorb(src, dst, copy);
        }
      }
    }
    step->AddReliability(&reliability_, outcome);
  }
  // The phase is recovered; retire the retained retransmission frames.
  for (auto& log : sent_log_) log.clear();

  // Deliver in canonical (source node, sequence) order — each link is
  // seq-sorted by the final canonicalize() — then let the injector swap
  // adjacent messages per inbox to model reordering. Joins must not depend
  // on arrival order within a phase.
  for (uint32_t dst = 0; dst < num_nodes_; ++dst) {
    size_t first_new = inboxes_[dst].size();
    size_t incoming = 0;
    for (uint32_t src = 0; src < num_nodes_; ++src) {
      incoming += accepted[dst][src].size();
    }
    inboxes_[dst].reserve(first_new + incoming);
    for (uint32_t src = 0; src < num_nodes_; ++src) {
      for (Recv& recv : accepted[dst][src]) {
        inboxes_[dst].push_back(
            Message{src, recv.type, std::move(recv.payload)});
      }
    }
    for (size_t i = first_new + 1; i < inboxes_[dst].size(); ++i) {
      if (injector_->ShouldReorder()) {
        std::swap(inboxes_[dst][i - 1], inboxes_[dst][i]);
        ++reliability_.faults.messages_reordered;
      }
    }
  }
  return Status::OK();
}

std::vector<Message> Fabric::TakeInbox(uint32_t node) {
  TJ_CHECK_LT(node, num_nodes_);
  std::vector<Message> out = std::move(inboxes_[node]);
  inboxes_[node].clear();
  return out;
}

std::vector<Message> Fabric::TakeInbox(uint32_t node, MessageType type) {
  TJ_CHECK_LT(node, num_nodes_);
  size_t matches = 0;
  for (const auto& m : inboxes_[node]) {
    if (m.type == type) ++matches;
  }
  std::vector<Message> taken;
  std::vector<Message> rest;
  taken.reserve(matches);
  rest.reserve(inboxes_[node].size() - matches);
  for (auto& m : inboxes_[node]) {
    if (m.type == type) {
      taken.push_back(std::move(m));
    } else {
      rest.push_back(std::move(m));
    }
  }
  inboxes_[node] = std::move(rest);
  return taken;
}

}  // namespace tj
