// SPLASH-2 workload substitute (see DESIGN.md section 4).
//
// The paper drives its Figs 9-10 with network traces captured from
// Simics/GEMS running nine SPLASH-2 applications on the Table I/II
// machine (64 in-order cores, private L1/L2, MESI, 16 memory
// controllers).  Without that toolchain we model the *network-visible*
// behaviour of such a machine directly: every L2 miss becomes a 1-flit
// request to the home directory (an MC node); most misses are satisfied
// cache-to-cache (the home forwards to the owning L2, which sends the
// 5-flit data block straight to the requester), the rest by the
// directory or memory after their latencies; writes additionally spawn
// a 1-flit invalidation to a sharer and its 1-flit ack.  Each node
// self-throttles at 16 outstanding misses (the MSHR limit) and runs a
// two-state ON/OFF burst process, so the traffic is closed-loop, bursty
// and directory-hot-spotted — the properties that determine the
// relative router rankings the paper reports.  All per-transaction
// randomness is hash-derived from the transaction id so every router
// design sees identical traffic content.
//
// "Execution time" is the cycle at which cfg.transactions transactions
// per node have completed, the same quantity a trace replay measures.
// A workload=splash config runs it through the ordinary open-loop
// phases (sim/sim_runner.hpp), which end the run there.
#pragma once

#include <queue>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "traffic/trace_io.hpp"
#include "traffic/traffic_gen.hpp"

namespace dxbar {

/// Per-application traffic profile.  Values are qualitative calibrations
/// of published SPLASH-2 characterisations (relative miss intensity,
/// write share, burstiness), not measurements — see DESIGN.md.
struct SplashProfile {
  std::string_view name;
  double intensity;       ///< request probability per node per ON cycle
  double write_fraction;  ///< fraction of misses that are ownership misses
  double on_to_off;       ///< P(ON -> OFF) per cycle (burst shaping)
  double off_to_on;       ///< P(OFF -> ON) per cycle
};

/// The nine applications of the paper's Fig 9/10, in paper order:
/// FFT, LU, Radiosity, Ocean, Raytrace, Radix, Water, FMM, Barnes
/// (indexed by SplashApp).
std::span<const SplashProfile> splash_profiles();

/// The profile cfg.splash_app names.
const SplashProfile& splash_profile(SplashApp app);

/// Look up a profile by (case-insensitive) name; nullptr when unknown.
const SplashProfile* find_splash_profile(std::string_view name);

/// Machine parameters from the paper's Tables I and II that shape the
/// coherence traffic.
struct MachineParams {
  int mshr_entries = 16;       ///< outstanding misses per node
  Cycle directory_latency = 80;
  Cycle memory_latency = 160;  ///< added when the directory misses
  double memory_miss_fraction = 0.3;  ///< directory misses that hit memory
  /// Fraction of misses satisfied by a peer L2 (MESI cache-to-cache):
  /// the home forwards the request to the owner, which sends the data
  /// directly to the requester.  Spreads data-reply injection over all
  /// nodes instead of concentrating it at the 16 MCs.
  double cache_to_cache_fraction = 0.65;
  Cycle l2_access_latency = 4;  ///< owner L2 lookup before forwarding data
  int data_packet_flits = 5;   ///< 64 B block over 128-bit flits + head
  int control_packet_flits = 1;
};

/// Generates an open-loop replay trace for one application: the
/// closed-loop workload is run against an *oracle* network that delivers
/// every packet after its minimal latency (2 cycles/hop + serialization),
/// and every injection is recorded.  Replaying the trace open-loop
/// against the real router models reproduces the paper's methodology
/// (Simics/GEMS trace capture, then NoC-simulator replay): the trace's
/// bursts are not throttled by the network under test, so congestive
/// pathologies — deflection storms, drop/retransmit storms — show up
/// exactly as they would in a trace-driven simulation.
std::vector<TraceEntry> generate_splash_trace(const SplashProfile& profile,
                                              const SimConfig& cfg,
                                              const Mesh& mesh,
                                              MachineParams machine = {});

/// Runs `profile` for cfg.transactions transactions per node.  The
/// traffic derives from cfg.measure_seed when it is nonzero (the
/// replica seed of `--seeds N`; a SPLASH run has no warmup, so this is
/// the reseed at the warmup boundary), else from cfg.seed.
class SplashWorkload final : public WorkloadModel {
 public:
  SplashWorkload(const SplashProfile& profile, const SimConfig& cfg,
                 const Mesh& mesh, MachineParams machine = {});

  void begin_cycle(Cycle now, Injector& inject) override;
  void on_packet_delivered(const PacketRecord& rec, Cycle now,
                           Injector& inject) override;
  [[nodiscard]] bool finite() const override { return true; }
  [[nodiscard]] bool finished() const override;

  [[nodiscard]] std::uint64_t transactions_completed() const {
    return completed_;
  }
  [[nodiscard]] std::uint64_t transactions_total() const { return total_; }

 private:
  enum class MsgType : std::uint8_t { Request, Forward, Reply, Inval, Ack };

  struct InFlight {
    MsgType type;
    NodeId requester;  ///< node whose transaction this message serves
    bool is_write;
    std::uint64_t tx;  ///< transaction id (node << 32 | index)
  };

  struct Scheduled {
    Cycle ready;
    NodeId src;
    NodeId dst;
    int length;
    MsgType type;
    NodeId requester;
    bool is_write;
    std::uint64_t tx;

    [[nodiscard]] bool operator>(const Scheduled& o) const noexcept {
      return ready > o.ready;
    }
  };

  struct NodeState {
    std::uint32_t remaining = 0;  ///< transactions still to issue
    int outstanding = 0;          ///< in-flight misses (<= MSHR)
    bool on = true;               ///< burst state
  };

  SplashProfile profile_;
  MachineParams machine_;
  const Mesh& mesh_;
  std::uint32_t transactions_;  ///< per node
  std::uint64_t seed_;
  std::vector<NodeState> nodes_;
  std::vector<NodeId> mc_nodes_;  ///< the 16 memory-controller positions
  std::priority_queue<Scheduled, std::vector<Scheduled>, std::greater<>>
      scheduled_;
  std::unordered_map<PacketId, InFlight> in_flight_;
  std::uint64_t completed_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace dxbar
