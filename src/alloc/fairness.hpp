// Fairness counter (paper section II.A.2).
//
// With age-based priority, edge-injected flits starve center nodes: the
// center's buffered and injection-port flits keep losing to older
// through-traffic on the primary crossbar.  Each router therefore counts
// consecutive arbitrations in which a primary-side (incoming) flit won
// while at least one buffered/injection flit was waiting; past the
// threshold the priority flips for the next arbitration so the waiting
// flits are served first.  The counter resets whenever a waiting flit
// wins.  The paper settles on a threshold of four.
#pragma once

namespace dxbar {

class FairnessCounter {
 public:
  explicit FairnessCounter(int threshold) : threshold_(threshold) {}

  /// True when buffered/injection flits get priority this cycle.
  [[nodiscard]] bool flipped() const noexcept { return count_ >= threshold_; }

  /// Record the outcome of one arbitration cycle.
  /// `waiting`   — a buffered or injection flit wanted an output port.
  /// `waiting_won` — at least one such flit was granted a port.
  /// `incoming_won` — at least one incoming (primary) flit was granted.
  void record(bool waiting, bool waiting_won, bool incoming_won) noexcept {
    if (!waiting) return;  // the counter only runs while flits wait
    if (waiting_won) {
      count_ = 0;
    } else if (incoming_won) {
      ++count_;
    }
  }

  [[nodiscard]] int count() const noexcept { return count_; }
  [[nodiscard]] int threshold() const noexcept { return threshold_; }
  void reset() noexcept { count_ = 0; }

  // Snapshot protocol (the threshold is configuration, not state).
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.count_);
  }

 private:
  int threshold_;
  int count_ = 0;
};

}  // namespace dxbar
