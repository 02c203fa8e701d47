// Closed-loop request-reply client model (DESIGN.md section 12).
//
// Every node is a client with up to cfg.mlp outstanding requests (an
// MSHR model).  A request travels to a uniformly random server node
// (optionally biased toward the four mesh-center hotspot nodes), which
// "serves" it for cfg.service_delay cycles and then injects a reply
// back to the client; the client's MSHR frees when the reply finishes
// ejecting, which is also when the end-to-end latency sample — request
// issue to reply eject — lands in the fixed-bucket histogram.
//
// Deadlock freedom: requests and replies are distinct message classes
// (Flit::cls).  Replies beat requests in every age-based arbitration
// and claim a reserved downstream-VC partition on the VC router, the
// ejection port always accepts, pending replies wait at the workload
// level holding no network resource, and new requests are bounded by
// the per-node MLP — so the request->reply dependency chain can always
// drain and the classic request-reply protocol deadlock cannot form.
//
// Coherence-shaped mix (cfg.read_fraction < 1): a write transaction
// swaps the packet roles — a long data-carrying request (packet_length
// flits) answered by a short ack (request_length flits) — and evicts a
// victim line as a fire-and-forget MsgClass::Writeback data packet to
// an independent destination.  Writebacks are terminal (nothing waits
// on them; top class priority only shortens dependency chains) and hold
// no MSHR, so the deadlock argument above is unchanged.  The server
// infers each reply's length from the request's length, so reads and
// writes share one transaction path.  read_fraction = 1.0 draws no
// extra RNG samples — pure-read runs are bit-identical to the
// pre-coherence-mix behaviour.
//
// The model is windowed exactly like the open-loop workloads (warmup /
// measure / drain; only requests issued inside the measurement window
// are recorded), so it composes unchanged with warm-start sweeps, seed
// replicas (--seeds), resumed sweeps (--resume), sharding, and
// snapshot/restore.
#pragma once

#include <deque>
#include <map>
#include <span>
#include <vector>

#include "traffic/traffic_gen.hpp"
#include "common/latency_histogram.hpp"

namespace dxbar {

class ClosedLoopWorkload final : public WorkloadModel {
 public:
  ClosedLoopWorkload(const SimConfig& cfg, const Mesh& mesh);

  void begin_cycle(Cycle now, Injector& inject) override;
  void on_packet_delivered(const PacketRecord& rec, Cycle now,
                           Injector& inject) override;
  void set_injection_enabled(bool on) override { enabled_ = on; }
  void fill_run_stats(RunStats& out) const override;
  [[nodiscard]] bool quiescent() const override { return pending_.empty(); }

  // ---- snapshot protocol ---------------------------------------------
  [[nodiscard]] bool snapshot_supported() const override { return true; }
  void save_state(SnapshotWriter& w) const override { fields(*this, w); }
  void load_state(SnapshotReader& r) override { fields(*this, r); }

  // ---- introspection (tests, experiments) ----------------------------
  /// Replies ejected since construction (whole run, not just window).
  [[nodiscard]] std::uint64_t replies_completed() const noexcept {
    return replies_completed_;
  }
  /// Requests issued since construction.
  [[nodiscard]] std::uint64_t requests_issued() const noexcept {
    return requests_issued_;
  }
  /// Requests currently outstanding across all clients.
  [[nodiscard]] std::uint64_t outstanding_total() const noexcept;
  /// Fire-and-forget writeback packets issued since construction.
  [[nodiscard]] std::uint64_t writebacks_issued() const noexcept {
    return writebacks_issued_;
  }
  [[nodiscard]] const LatencyHistogram& histogram() const noexcept {
    return hist_;
  }

 private:
  /// An in-flight transaction: which client issued it and when.
  struct Txn {
    NodeId client = kInvalidNode;
    Cycle issued = 0;

    template <class Self, class Ar>
    static void fields(Self& t, Ar& ar) {
      ar(t.client, t.issued);
    }
  };
  /// A served request waiting out its service delay at the server.
  struct PendingReply {
    Cycle ready = 0;
    NodeId server = kInvalidNode;
    NodeId client = kInvalidNode;
    Cycle issued = 0;
    int length = 0;  ///< reply flits: data for a read, short ack for a write

    template <class Self, class Ar>
    static void fields(Self& p, Ar& ar) {
      ar(p.ready, p.server, p.client, p.issued, p.length);
    }
  };

  /// std::map iterates in key order, so the byte stream is deterministic.
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.rng_, self.enabled_, self.requests_issued_,
       self.replies_completed_);
    ar.expect(self.outstanding_.size(),
              "closed-loop workload node count mismatch", 1);
    ar(std::span(self.outstanding_));
    ar.list(self.requests_, 1);
    ar.list(self.replies_, 1);
    ar.list(self.pending_, 1);
    ar(self.hist_, self.writebacks_issued_);
  }

  [[nodiscard]] NodeId pick_destination(NodeId src);
  void record_reply(const Txn& txn, Cycle now);

  const Mesh& mesh_;
  int mlp_;
  Cycle service_delay_;
  int request_length_;
  int reply_length_;
  double hotspot_fraction_;
  double read_fraction_;
  Cycle warmup_end_;
  Cycle window_end_;
  std::uint64_t measure_seed_;
  std::vector<NodeId> hotspot_servers_;  ///< the four mesh-center nodes

  Rng rng_;
  bool enabled_ = true;
  std::vector<int> outstanding_;          ///< per client
  std::map<PacketId, Txn> requests_;      ///< request packet -> txn
  std::map<PacketId, Txn> replies_;       ///< reply packet -> txn
  std::deque<PendingReply> pending_;      ///< FIFO: constant service delay
  LatencyHistogram hist_;                 ///< window-gated by issue cycle
  std::uint64_t requests_issued_ = 0;
  std::uint64_t replies_completed_ = 0;
  std::uint64_t writebacks_issued_ = 0;
};

}  // namespace dxbar
