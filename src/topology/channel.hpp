// Directed link channel between two routers.
//
// A flit sent during router cycle t occupies the link (LT stage) during
// t+1 and is delivered to the downstream input register at the start of
// t+2 — giving the paper's 2-cycle per-hop latency for the single-stage
// (SA/ST + LT) router pipelines.
//
// The channel also carries credits in the reverse direction with one
// cycle of return latency.  Credit-free channels (Flit-Bless / SCARAB
// links) are constructed with `kUnlimitedCredits`.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/flit.hpp"

namespace dxbar {

inline constexpr int kUnlimitedCredits = -1;

class Channel {
 public:
  /// `credits` is the downstream buffer capacity backing this link, or
  /// kUnlimitedCredits for bufferless (never-blocking) links.
  explicit Channel(int credits = kUnlimitedCredits)
      : credits_(credits), limited_(credits != kUnlimitedCredits) {}

  /// Virtual-channel variant: `num_vcs` independent credit pools of
  /// `per_vc_credits` each (VC baseline router).  The aggregate
  /// `credits()`/`can_send()` interface keeps working and equals the
  /// pool sum; per-VC admission uses the *_vc methods.
  Channel(int num_vcs, int per_vc_credits)
      : credits_(num_vcs * per_vc_credits),
        limited_(true),
        vc_credits_(static_cast<std::size_t>(num_vcs), per_vc_credits),
        vc_pending_(static_cast<std::size_t>(num_vcs), 0) {}

  [[nodiscard]] int num_vcs() const noexcept {
    return static_cast<int>(vc_credits_.size());
  }

  /// Credits the sender holds on one VC.
  [[nodiscard]] int credits_vc(int vc) const noexcept {
    return vc_credits_[static_cast<std::size_t>(vc)];
  }

  /// A credit is available on the given VC and the link is free.
  [[nodiscard]] bool can_send_vc(int vc) const noexcept {
    if (staged_.has_value() || stop_) return false;
    return vc_credits_[static_cast<std::size_t>(vc)] > 0;
  }

  /// Stage a flit on a specific VC; consumes one credit of that VC.
  void send_vc(const Flit& f, int vc) {
    assert(can_send_vc(vc));
    --vc_credits_[static_cast<std::size_t>(vc)];
    --credits_;
    staged_ = f;
    staged_->vc = static_cast<std::uint8_t>(vc);
    ++total_sends_;
    touch();
  }

  /// Downstream freed a slot of the given VC.
  void return_credit_vc(int vc) noexcept {
    ++vc_pending_[static_cast<std::size_t>(vc)];
    ++pending_credits_;
    touch();
  }

  // ---- upstream (sender) side ----------------------------------------

  /// True when the sender holds a credit (always true when unlimited),
  /// the receiver has not asserted stop, and no flit was already sent
  /// this cycle.
  [[nodiscard]] bool can_send() const noexcept {
    if (staged_.has_value() || stop_) return false;
    return !limited_ || credits_ > 0;
  }

  /// Stage a flit for link traversal; consumes one credit when limited.
  /// Asserts link/credit availability but not `!stop_`: the DXbar /
  /// Unified liveness valves (must-win, stall-escape) legitimately send
  /// into a stopped receiver, where the arrival becomes a must-win flit.
  void send(const Flit& f) {
    assert(can_send_ignoring_stop());
    if (limited_) --credits_;
    staged_ = f;
    ++total_sends_;
    touch();
  }

  /// Hop-count bump applied in place on the just-staged flit, so the
  /// router send path copies each departing flit exactly once.
  void bump_staged_hops() noexcept {
    assert(staged_.has_value());
    ++staged_->hops;
  }

  /// Flits ever sent over this link (utilization accounting).
  [[nodiscard]] std::uint64_t total_sends() const noexcept {
    return total_sends_;
  }

  [[nodiscard]] int credits() const noexcept { return credits_; }

  // ---- downstream (receiver) side -------------------------------------

  /// Wires the register arrivals land in: the downstream router's input
  /// register for this link's port, cached by the network at build so
  /// advance() delivers in place.  A channel must be wired before it
  /// delivers its first flit.
  void deliver_into(std::optional<Flit>* reg) noexcept { sink_ = reg; }

  /// Downstream frees a buffer slot (or forwarded the flit without ever
  /// buffering it); the credit becomes usable upstream next cycle.
  /// Gated on the immutable limited_ flag, NOT on credits_: on a pinned
  /// boundary channel this runs in the receiver's shard while the
  /// sender's shard may be decrementing credits_ in send(), so the
  /// receiver side must not read the live counter.
  void return_credit() noexcept {
    if (limited_) {
      ++pending_credits_;
      touch();
    }
  }

  /// On/off flow control (DXbar/Unified): the receiver asserts stop while
  /// its input FIFO is full.  Takes effect upstream one cycle later, so
  /// up to two in-flight flits can still arrive at a full FIFO — the
  /// router's deflection escape valve absorbs exactly that race.
  void set_stop(bool stop) noexcept {
    if (stop_pending_ != stop) {
      stop_pending_ = stop;
      touch();
    }
  }

  /// Sendability ignoring the stop signal.  Used by the deflection
  /// escape valve and the stall-escape override: sending into a stopped
  /// (full) receiver is *safe* — the arrival becomes a must-win flit
  /// there — stop is only a congestion heuristic, so liveness paths
  /// may override it.
  [[nodiscard]] bool can_send_ignoring_stop() const noexcept {
    if (staged_.has_value()) return false;
    return !limited_ || credits_ > 0;
  }

  // ---- per-cycle advance, called once by the network --------------------

  /// Moves the pipeline one cycle: in-flight -> the delivery register,
  /// staged -> in-flight, pending credit returns -> usable credits.
  /// Returns true when a flit was delivered.
  bool advance() noexcept {
    bool delivered = false;
    // Empty-pipeline fast path: shifting empty optionals is a no-op, so
    // only do the copies when a flit is actually in transit.
    if (in_flight_.has_value() || staged_.has_value()) {
      if (in_flight_.has_value()) {
        assert(sink_ != nullptr && "channel delivers before deliver_into");
        assert(!sink_->has_value() && "input register collision");
        *sink_ = in_flight_;
        delivered = true;
      }
      in_flight_ = staged_;
      staged_.reset();
    }
    if (pending_credits_ != 0) {
      credits_ += pending_credits_;
      pending_credits_ = 0;
      // Every per-VC return also counted in pending_credits_, so only a
      // VC channel with returns in flight reaches this fold.
      for (std::size_t v = 0; v < vc_pending_.size(); ++v) {
        vc_credits_[v] += vc_pending_[v];
        vc_pending_[v] = 0;
      }
    }
    stop_ = stop_pending_;
    return delivered;
  }

  /// Flits currently inside the channel (staged or on the wire).
  [[nodiscard]] int occupancy() const noexcept {
    return (staged_.has_value() ? 1 : 0) + (in_flight_.has_value() ? 1 : 0);
  }

  // ---- active-channel tracking ----------------------------------------
  //
  // The network only advances channels with something to do.  A channel
  // registers itself on the shared active list the moment any mutation
  // (send, credit return, stop-signal change) gives advance() work, and
  // the network delists it once it is quiescent again — advance() is the
  // identity on a quiescent channel, so skipping it is unobservable.
  // Standalone channels (unit tests) have no list and behave as before.

  /// Wire this channel to the owning network's active list.
  void attach_active_list(std::vector<std::uint32_t>* list,
                          std::uint32_t slot) noexcept {
    active_list_ = list;
    slot_ = slot;
  }

  /// Nothing in the pipeline, no credits to post, stop signal latched:
  /// advance() would change no state.
  [[nodiscard]] bool quiescent() const noexcept {
    return !staged_.has_value() && !in_flight_.has_value() &&
           pending_credits_ == 0 && stop_ == stop_pending_;
  }

  /// The network delists a quiescent channel during its sweep.
  void mark_delisted() noexcept { listed_ = false; }

  /// Permanently registers this channel on its active list: it is swept
  /// every cycle and never delisted, so touch() is a no-op forever after.
  /// Sharded networks pin every boundary channel (endpoints in different
  /// shards) — both endpoint routers may call send/return_credit/set_stop
  /// concurrently from their own threads, and with the channel pinned
  /// those calls mutate only endpoint-disjoint fields, never the shared
  /// list bookkeeping.  Structural, so not serialized; re-applied by the
  /// network on construction and honoured by relist().
  void pin() {
    pinned_ = true;
    touch();
  }
  [[nodiscard]] bool pinned() const noexcept { return pinned_; }

  // ---- snapshot protocol ----------------------------------------------

  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.credits_, self.pending_credits_);
    ar.expect(self.vc_credits_.size(), "channel VC count mismatch", 4);
    ar(std::span(self.vc_credits_), std::span(self.vc_pending_),
       self.total_sends_, self.stop_, self.stop_pending_, self.staged_,
       self.in_flight_);
  }

  /// After a restore: drops the listed flag and re-registers iff the
  /// channel is pinned or non-quiescent.  The caller must have cleared
  /// the owning active list first, so the list is rebuilt consistently
  /// (order is immaterial — channels are mutually independent and the
  /// sweep visits every listed channel).
  void relist() {
    listed_ = false;
    if (pinned_ || !quiescent()) touch();
  }

 private:
  void touch() {
    if (active_list_ != nullptr && !listed_) {
      listed_ = true;
      active_list_->push_back(slot_);
    }
  }

  int credits_;
  /// Construction-time constant: this channel carries a finite credit
  /// pool.  Receiver-side paths branch on this instead of comparing the
  /// (sender-mutated) credits_ counter against the sentinel.
  bool limited_;
  int pending_credits_ = 0;
  std::vector<int> vc_credits_;  ///< empty unless VC-constructed
  std::vector<int> vc_pending_;
  std::uint64_t total_sends_ = 0;
  std::vector<std::uint32_t>* active_list_ = nullptr;
  std::uint32_t slot_ = 0;
  bool listed_ = false;
  bool pinned_ = false;
  bool stop_ = false;
  bool stop_pending_ = false;
  std::optional<Flit> staged_;     ///< sent this cycle (ST just finished)
  std::optional<Flit> in_flight_;  ///< on the wire (LT stage)
  std::optional<Flit>* sink_ = nullptr;  ///< wired delivery register
};

}  // namespace dxbar
