// Flit and packet representations.
//
// In every design reproduced here each flit is a *head* flit (paper
// section II.A): it carries its full routing state so flits of one packet
// may be switched independently and arrive out of order.  The destination
// reassembles them via an MSHR-style completion count.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace dxbar {

/// Sentinel for "not yet injected into the network" (still queued at the
/// source); the injection queue stamps the real cycle on first pop.
inline constexpr Cycle kNotInjected = ~Cycle{0};

/// Longest packet a Flit can describe: `seq` and `packet_len` are 16-bit.
inline constexpr int kMaxPacketLength = 0xFFFF;

/// A single 128-bit flow-control unit.  The payload itself is not
/// simulated; the struct carries the metadata the routers switch on.
struct Flit {
  PacketId packet = 0;        ///< owning packet id
  std::uint16_t seq = 0;      ///< flit index within the packet
  std::uint16_t packet_len = 1;  ///< total flits in the packet
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Cycle injected_at = 0;      ///< cycle the flit entered the network
  Cycle born_at = 0;          ///< cycle the packet was created (age basis)
  std::uint8_t vc = 0;            ///< virtual channel (VC router only)
  std::uint8_t cls = 0;           ///< MsgClass (replies beat requests)
  std::uint8_t deflections = 0;   ///< times this flit was deflected
  std::uint8_t retransmits = 0;   ///< times this flit was dropped+resent
  std::uint16_t hops = 0;         ///< link traversals so far

  /// Snapshot protocol (see snapshot/snapshot.hpp).
  template <class Self, class Ar>
  static void fields(Self& f, Ar& ar) {
    ar(f.packet, f.seq, f.packet_len, f.src, f.dst, f.injected_at, f.born_at,
       f.vc, f.cls, f.deflections, f.retransmits, f.hops);
  }

  /// Age-based priority: reply-class flits beat request-class flits (the
  /// deadlock-avoidance rule for closed-loop traffic; single-class runs
  /// are unaffected since every cls is 0), then older packets win;
  /// packet id breaks ties so the order is total and deterministic.
  [[nodiscard]] bool older_than(const Flit& o) const noexcept {
    if (cls != o.cls) return cls > o.cls;
    if (born_at != o.born_at) return born_at < o.born_at;
    if (packet != o.packet) return packet < o.packet;
    return seq < o.seq;
  }
};

/// Record of a fully reassembled packet, produced by the ejection-side
/// MSHR model and consumed by the statistics collector.
struct PacketRecord {
  PacketId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint16_t length = 1;
  std::uint8_t cls = 0;  ///< MsgClass of the packet's flits
  Cycle created = 0;    ///< packet creation (queued at source)
  Cycle injected = 0;   ///< first flit entered the network
  Cycle completed = 0;  ///< last flit ejected
  std::uint32_t total_hops = 0;
  std::uint32_t total_deflections = 0;
  std::uint32_t total_retransmits = 0;

  template <class Self, class Ar>
  static void fields(Self& p, Ar& ar) {
    ar(p.id, p.src, p.dst, p.length, p.cls, p.created, p.injected,
       p.completed, p.total_hops, p.total_deflections, p.total_retransmits);
  }

  [[nodiscard]] Cycle latency() const noexcept { return completed - created; }
  [[nodiscard]] Cycle network_latency() const noexcept {
    return completed - injected;
  }
};

}  // namespace dxbar
