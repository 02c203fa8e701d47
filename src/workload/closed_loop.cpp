#include "workload/closed_loop.hpp"

#include <cassert>


namespace dxbar {

ClosedLoopWorkload::ClosedLoopWorkload(const SimConfig& cfg, const Mesh& mesh)
    : mesh_(mesh),
      mlp_(cfg.mlp),
      service_delay_(cfg.service_delay),
      request_length_(cfg.request_length),
      reply_length_(cfg.packet_length),
      hotspot_fraction_(cfg.hotspot_fraction),
      read_fraction_(cfg.read_fraction),
      warmup_end_(cfg.warmup_cycles),
      window_end_(cfg.warmup_cycles + cfg.measure_cycles),
      measure_seed_(cfg.measure_seed),
      rng_(cfg.seed ^ 0xC105EDULL),
      outstanding_(static_cast<std::size_t>(mesh.num_nodes()), 0) {
  for (NodeId n = 0; n < static_cast<NodeId>(mesh.num_nodes()); ++n) {
    if (is_hotspot(mesh, n)) hotspot_servers_.push_back(n);
  }
}

NodeId ClosedLoopWorkload::pick_destination(NodeId src) {
  if (hotspot_fraction_ > 0.0 && !hotspot_servers_.empty() &&
      rng_.bernoulli(hotspot_fraction_)) {
    const std::size_t i = rng_.below(
        static_cast<std::uint32_t>(hotspot_servers_.size()));
    NodeId dst = hotspot_servers_[i];
    if (dst == src) {
      dst = hotspot_servers_[(i + 1) % hotspot_servers_.size()];
    }
    if (dst != src) return dst;
    // A 1x1 hotspot set containing src: fall through to uniform.
  }
  // Uniform over the other N-1 nodes with a single draw.
  NodeId dst = rng_.below(
      static_cast<std::uint32_t>(mesh_.num_nodes() - 1));
  if (dst >= src) ++dst;
  return dst;
}

void ClosedLoopWorkload::begin_cycle(Cycle now, Injector& inject) {
  // Same reseed point as SyntheticWorkload: replicas differing only in
  // measure_seed share a bit-identical warmup and diverge exactly at
  // the warmup/measurement boundary (see traffic_gen.cpp).
  if (now == warmup_end_ && measure_seed_ != 0) rng_ = Rng(measure_seed_);

  // Replies first: a served request's reply enters the network the
  // cycle its service delay elapses, regardless of the drain gate —
  // outstanding transactions must complete for the network to drain.
  while (!pending_.empty() && pending_.front().ready <= now) {
    const PendingReply p = pending_.front();
    pending_.pop_front();
    const PacketId id = inject.inject_packet(p.server, p.client,
                                             p.length, now,
                                             MsgClass::Reply);
    replies_.emplace(id, Txn{p.client, p.issued});
  }

  // New requests: each client tops up to its MLP limit.
  if (!enabled_) return;
  const NodeId n = static_cast<NodeId>(mesh_.num_nodes());
  for (NodeId src = 0; src < n; ++src) {
    while (outstanding_[src] < mlp_) {
      const NodeId dst = pick_destination(src);
      assert(dst != src);
      // The >= 1.0 short-circuit skips the bernoulli draw entirely, so
      // pure-read runs replay the pre-coherence-mix RNG stream exactly.
      const bool is_read =
          read_fraction_ >= 1.0 || rng_.bernoulli(read_fraction_);
      const int req_len = is_read ? request_length_ : reply_length_;
      const PacketId id = inject.inject_packet(src, dst, req_len,
                                               now, MsgClass::Request);
      requests_.emplace(id, Txn{src, now});
      ++outstanding_[src];
      ++requests_issued_;
      if (!is_read) {
        // The write evicts a victim line: a fire-and-forget data packet
        // to an independent destination, holding no MSHR — terminal, so
        // it cannot extend any dependency cycle.
        const NodeId wb_dst = pick_destination(src);
        inject.inject_packet(src, wb_dst, reply_length_, now,
                             MsgClass::Writeback);
        ++writebacks_issued_;
      }
    }
  }
}

void ClosedLoopWorkload::record_reply(const Txn& txn, Cycle now) {
  ++replies_completed_;
  assert(outstanding_[txn.client] > 0);
  --outstanding_[txn.client];
  if (txn.issued >= warmup_end_ && txn.issued < window_end_) {
    hist_.record(now - txn.issued);
  }
}

void ClosedLoopWorkload::on_packet_delivered(const PacketRecord& rec,
                                             Cycle now, Injector& inject) {
  (void)inject;
  if (static_cast<MsgClass>(rec.cls) == MsgClass::Request) {
    const auto it = requests_.find(rec.id);
    if (it == requests_.end()) return;  // not ours (mixed workloads)
    // Reply length is inferred from the request's shape: a short (read)
    // request is answered with the data line, a long (write) request
    // with a short ack.  When the two lengths coincide the inference is
    // vacuous — both replies are the same size.
    const int reply_len =
        rec.length == request_length_ ? reply_length_ : request_length_;
    pending_.push_back(PendingReply{now + service_delay_, rec.dst,
                                    it->second.client, it->second.issued,
                                    reply_len});
    requests_.erase(it);
  } else if (static_cast<MsgClass>(rec.cls) == MsgClass::Reply) {
    const auto it = replies_.find(rec.id);
    if (it == replies_.end()) return;
    record_reply(it->second, now);
    replies_.erase(it);
  }
}

std::uint64_t ClosedLoopWorkload::outstanding_total() const noexcept {
  std::uint64_t total = 0;
  for (int o : outstanding_) total += static_cast<std::uint64_t>(o);
  return total;
}

void ClosedLoopWorkload::fill_run_stats(RunStats& out) const {
  out.requests_completed = hist_.count();
  out.avg_req_latency = hist_.mean();
  out.req_latency_p50 = hist_.quantile(0.50);
  out.req_latency_p95 = hist_.quantile(0.95);
  out.req_latency_p99 = hist_.quantile(0.99);
  out.req_latency_max = hist_.max();
  out.req_hist = hist_;
}

}  // namespace dxbar
