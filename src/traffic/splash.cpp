#include "traffic/splash.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>

namespace dxbar {

namespace {

// Relative intensities/write shares follow the qualitative SPLASH-2
// characterisation (Woo et al., ISCA'95): Radix and Ocean are the most
// communication-intensive, FFT is bursty (all-to-all transpose
// phases), Water/FMM/LU compute-bound, Raytrace read-dominated.
// Burst intensities are tuned so that during ON phases the MSHRs fill
// (execution becomes sensitive to the network round-trip latency) and
// the communication-heavy applications (Radix, Ocean, FFT) push the
// memory-controller hot spots toward congestion — where deflection and
// drop-based routers pay — while the compute-bound ones (Water, FMM,
// LU) stay comfortably below saturation.
constexpr SplashProfile kProfiles[] = {
    {"FFT", 0.300, 0.30, 0.040, 0.008},
    {"LU", 0.050, 0.25, 0.010, 0.020},
    {"Radiosity", 0.150, 0.35, 0.015, 0.010},
    {"Ocean", 0.250, 0.40, 0.020, 0.010},
    {"Raytrace", 0.120, 0.15, 0.015, 0.010},
    {"Radix", 0.400, 0.45, 0.020, 0.012},
    {"Water", 0.040, 0.25, 0.005, 0.020},
    {"FMM", 0.060, 0.20, 0.008, 0.015},
    {"Barnes", 0.120, 0.30, 0.012, 0.010},
};

// The `app` config field names the profiles by SplashApp.
constexpr bool names_follow_splash_app() {
  for (std::size_t i = 0; i < std::size(kProfiles); ++i) {
    if (kProfiles[i].name != to_string(static_cast<SplashApp>(i))) {
      return false;
    }
  }
  return true;
}
static_assert(names_follow_splash_app());

/// Deterministic per-event randomness: a short SplitMix64 stream seeded
/// by (seed, stream tag, index).  Using counter-derived streams instead
/// of one shared generator keeps the traffic *content* identical across
/// router designs — only the timing differs — which removes cross-design
/// noise from the closed-loop comparison.
SplitMix64 stream(std::uint64_t seed, std::uint64_t tag, std::uint64_t idx) {
  return SplitMix64(seed ^ (tag * 0x9E3779B97F4A7C15ULL) ^
                    (idx * 0xC2B2AE3D27D4EB4FULL));
}

double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

std::span<const SplashProfile> splash_profiles() { return kProfiles; }

const SplashProfile& splash_profile(SplashApp app) {
  return kProfiles[static_cast<std::size_t>(app)];
}

const SplashProfile* find_splash_profile(std::string_view name) {
  auto eq = [](std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(a[i])) !=
          std::tolower(static_cast<unsigned char>(b[i]))) {
        return false;
      }
    }
    return true;
  };
  for (const SplashProfile& p : splash_profiles()) {
    if (eq(p.name, name)) return &p;
  }
  return nullptr;
}

SplashWorkload::SplashWorkload(const SplashProfile& profile,
                               const SimConfig& cfg, const Mesh& mesh,
                               MachineParams machine)
    : profile_(profile),
      machine_(machine),
      mesh_(mesh),
      transactions_(static_cast<std::uint32_t>(cfg.transactions)),
      seed_((cfg.measure_seed != 0 ? cfg.measure_seed : cfg.seed) ^
            0x5B1A54ULL),
      nodes_(static_cast<std::size_t>(mesh.num_nodes())) {
  for (auto& n : nodes_) n.remaining = transactions_;
  total_ = static_cast<std::uint64_t>(transactions_) *
           static_cast<std::uint64_t>(mesh.num_nodes());

  // Memory controllers at every (odd, odd) coordinate: 16 MCs on the
  // paper's 8x8 mesh, evenly spread (Table II: 16 memory controllers).
  for (int y = 1; y < mesh.height(); y += 2) {
    for (int x = 1; x < mesh.width(); x += 2) {
      mc_nodes_.push_back(mesh.node(x, y));
    }
  }
}

void SplashWorkload::begin_cycle(Cycle now, Injector& inject) {
  // Release home-node responses whose directory/memory latency elapsed.
  while (!scheduled_.empty() && scheduled_.top().ready <= now) {
    const Scheduled s = scheduled_.top();
    scheduled_.pop();
    if (s.src == s.dst) {
      // Requester happens to co-locate with the home: deliver directly.
      if (s.type == MsgType::Reply) {
        ++completed_;
        --nodes_[s.requester].outstanding;
      }
      continue;
    }
    const PacketId id = inject.inject_packet(s.src, s.dst, s.length, now);
    in_flight_.insert({id, {s.type, s.requester, s.is_write, s.tx}});
  }

  // Issue new misses.
  for (NodeId n = 0; n < static_cast<NodeId>(nodes_.size()); ++n) {
    NodeState& st = nodes_[n];
    // Two-state burst process, drawn per (node, cycle) so the burst
    // trajectory is identical for every router design.
    SplitMix64 cycle_draws = stream(seed_, 0xB057ULL + n, now);
    if (st.on) {
      if (to_unit(cycle_draws.next()) < profile_.on_to_off) st.on = false;
    } else {
      if (to_unit(cycle_draws.next()) < profile_.off_to_on) st.on = true;
    }
    if (!st.on || st.remaining == 0 ||
        st.outstanding >= machine_.mshr_entries) {
      continue;
    }
    if (to_unit(cycle_draws.next()) >= profile_.intensity) continue;

    // Per-transaction content (home, read/write, owner, ...) derives
    // from the transaction index, not from issue timing.
    const std::uint64_t tx =
        (static_cast<std::uint64_t>(n) << 32) |
        (transactions_ - st.remaining);
    SplitMix64 tx_draws = stream(seed_, 0x7EAALL, tx);
    const NodeId home = mc_nodes_[tx_draws.next() % mc_nodes_.size()];
    const bool is_write = to_unit(tx_draws.next()) < profile_.write_fraction;
    --st.remaining;
    ++st.outstanding;
    if (home == n) {
      // Local home: the miss is satisfied without network traffic after
      // the directory latency.
      scheduled_.push({now + machine_.directory_latency, n, n,
                       machine_.data_packet_flits, MsgType::Reply, n,
                       is_write, tx});
      continue;
    }
    const PacketId id = inject.inject_packet(
        n, home, machine_.control_packet_flits, now);
    in_flight_.insert({id, {MsgType::Request, n, is_write, tx}});
  }
}

void SplashWorkload::on_packet_delivered(const PacketRecord& rec, Cycle now,
                                         Injector& inject) {
  (void)inject;
  const auto it = in_flight_.find(rec.id);
  if (it == in_flight_.end()) return;
  const InFlight msg = it->second;
  in_flight_.erase(it);

  switch (msg.type) {
    case MsgType::Request: {
      // Home directory resolves the miss: forward to the owning L2
      // (cache-to-cache transfer) or answer from memory/directory.
      // All outcomes derive from the transaction id, not from timing.
      SplitMix64 tx_draws = stream(seed_, 0xD14ULL, msg.tx);
      if (to_unit(tx_draws.next()) < machine_.cache_to_cache_fraction) {
        NodeId owner = static_cast<NodeId>(
            tx_draws.next() % static_cast<std::uint64_t>(mesh_.num_nodes()));
        if (owner == msg.requester) {
          owner = (owner + 1) % static_cast<NodeId>(mesh_.num_nodes());
        }
        if (owner == rec.dst) {
          // Home itself owns the line: reply directly after the lookup.
          scheduled_.push({now + machine_.directory_latency, rec.dst,
                           msg.requester, machine_.data_packet_flits,
                           MsgType::Reply, msg.requester, msg.is_write,
                           msg.tx});
        } else {
          scheduled_.push({now + machine_.directory_latency, rec.dst, owner,
                           machine_.control_packet_flits, MsgType::Forward,
                           msg.requester, msg.is_write, msg.tx});
        }
      } else {
        Cycle latency = machine_.directory_latency;
        if (to_unit(tx_draws.next()) < machine_.memory_miss_fraction) {
          latency += machine_.memory_latency;
        }
        scheduled_.push({now + latency, rec.dst, msg.requester,
                         machine_.data_packet_flits, MsgType::Reply,
                         msg.requester, msg.is_write, msg.tx});
      }
      if (msg.is_write) {
        // Invalidate one sharer (MESI ownership acquisition).
        const NodeId sharer = static_cast<NodeId>(
            tx_draws.next() % static_cast<std::uint64_t>(mesh_.num_nodes()));
        if (sharer != rec.dst && sharer != msg.requester) {
          scheduled_.push({now + 1, rec.dst, sharer,
                           machine_.control_packet_flits, MsgType::Inval,
                           msg.requester, false, msg.tx});
        }
      }
      break;
    }
    case MsgType::Forward:
      // Owning L2 sends the block straight to the requester.
      scheduled_.push({now + machine_.l2_access_latency, rec.dst,
                       msg.requester, machine_.data_packet_flits,
                       MsgType::Reply, msg.requester, msg.is_write, msg.tx});
      break;
    case MsgType::Reply:
      ++completed_;
      --nodes_[msg.requester].outstanding;
      break;
    case MsgType::Inval:
      // Sharer acknowledges to the home node.
      scheduled_.push({now + 1, rec.dst, rec.src,
                       machine_.control_packet_flits, MsgType::Ack,
                       msg.requester, false, msg.tx});
      break;
    case MsgType::Ack:
      break;
  }
}

bool SplashWorkload::finished() const {
  if (completed_ < total_) return false;
  return scheduled_.empty() && in_flight_.empty();
}

namespace {

/// Ideal network: delivers every packet after minimal latency and
/// records the injections.
class OracleNetwork final : public Injector {
 public:
  explicit OracleNetwork(const Mesh& mesh) : mesh_(mesh) {}

  PacketId inject_packet(NodeId src, NodeId dst, int length,
                         Cycle now) override {
    const PacketId id = next_++;
    trace_.push_back({now, src, dst, length});
    // 2 cycles per hop + flit serialization + ejection.
    const Cycle latency =
        2 * static_cast<Cycle>(mesh_.distance(src, dst)) +
        static_cast<Cycle>(length) + 1;
    PacketRecord rec;
    rec.id = id;
    rec.src = src;
    rec.dst = dst;
    rec.length = static_cast<std::uint16_t>(length);
    rec.created = now;
    rec.injected = now;
    rec.completed = now + latency;
    pending_.push(rec);
    return id;
  }

  /// Packets arriving at or before `now`, in completion order.
  std::vector<PacketRecord> due(Cycle now) {
    std::vector<PacketRecord> out;
    while (!pending_.empty() && pending_.top().completed <= now) {
      out.push_back(pending_.top());
      pending_.pop();
    }
    return out;
  }

  [[nodiscard]] bool busy() const { return !pending_.empty(); }
  [[nodiscard]] std::vector<TraceEntry> take_trace() {
    return std::move(trace_);
  }

 private:
  struct ByCompletion {
    bool operator()(const PacketRecord& a, const PacketRecord& b) const {
      if (a.completed != b.completed) return a.completed > b.completed;
      return a.id > b.id;
    }
  };

  const Mesh& mesh_;
  PacketId next_ = 1;
  std::vector<TraceEntry> trace_;
  std::priority_queue<PacketRecord, std::vector<PacketRecord>, ByCompletion>
      pending_;
};

}  // namespace

std::vector<TraceEntry> generate_splash_trace(const SplashProfile& profile,
                                              const SimConfig& cfg,
                                              const Mesh& mesh,
                                              MachineParams machine) {
  SplashWorkload workload(profile, cfg, mesh, machine);
  OracleNetwork oracle(mesh);
  Cycle t = 0;
  const Cycle limit = 4'000'000;
  while ((!workload.finished() || oracle.busy()) && t < limit) {
    workload.begin_cycle(t, oracle);
    for (const PacketRecord& rec : oracle.due(t)) {
      workload.on_packet_delivered(rec, t, oracle);
    }
    ++t;
  }
  return oracle.take_trace();
}

}  // namespace dxbar
