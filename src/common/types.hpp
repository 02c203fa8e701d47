// Core scalar types and port/direction vocabulary shared by every module.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace dxbar {

/// Simulation time in router clock cycles (1 GHz nominal clock).
using Cycle = std::uint64_t;

/// Flat node index into the mesh (row-major: id = y * width + x).
using NodeId = std::uint32_t;

/// Monotonically increasing packet identifier, unique per simulation.
using PacketId = std::uint64_t;

inline constexpr NodeId kInvalidNode = ~NodeId{0};

/// The four cardinal link directions plus the local PE port.
/// The numeric values index port arrays throughout the router models.
enum class Direction : std::uint8_t {
  East = 0,   ///< x+
  West = 1,   ///< x-
  North = 2,  ///< y+
  South = 3,  ///< y-
  Local = 4,  ///< processing-element injection/ejection port
};

inline constexpr int kNumLinkDirs = 4;   ///< cardinal link ports per router
inline constexpr int kNumPorts = 5;      ///< link ports + local port

/// All directions including Local, in index order.
inline constexpr std::array<Direction, kNumPorts> kAllPorts = {
    Direction::East, Direction::West, Direction::North, Direction::South,
    Direction::Local};

/// The four link directions only.
inline constexpr std::array<Direction, kNumLinkDirs> kLinkDirs = {
    Direction::East, Direction::West, Direction::North, Direction::South};

constexpr int port_index(Direction d) noexcept {
  return static_cast<int>(d);
}

constexpr Direction port_from_index(int i) noexcept {
  return static_cast<Direction>(i);
}

/// The direction a flit arriving over `d` came *from* at the receiver
/// (East output feeds the West input of the x+ neighbour, etc.).
constexpr Direction opposite(Direction d) noexcept {
  switch (d) {
    case Direction::East: return Direction::West;
    case Direction::West: return Direction::East;
    case Direction::North: return Direction::South;
    case Direction::South: return Direction::North;
    case Direction::Local: return Direction::Local;
  }
  return Direction::Local;
}

constexpr std::string_view to_string(Direction d) noexcept {
  switch (d) {
    case Direction::East: return "E";
    case Direction::West: return "W";
    case Direction::North: return "N";
    case Direction::South: return "S";
    case Direction::Local: return "L";
  }
  return "?";
}

/// Router microarchitectures evaluated in the paper (Figs 5-12), plus
/// extension baselines built on the same substrates.
enum class RouterDesign : std::uint8_t {
  FlitBless,    ///< bufferless deflection routing [Moscibroda & Mutlu]
  Scarab,       ///< bufferless drop + NACK retransmission [Hayenga et al.]
  Buffered4,    ///< generic router, one 4-flit FIFO per input
  Buffered8,    ///< generic router, two 4-flit FIFOs per input (no HoL)
  DXbar,        ///< proposed dual-crossbar router
  UnifiedXbar,  ///< proposed dual-input single-crossbar router
  BufferedVC,   ///< extension: VC router w/ speculative SA (Fig 2(c) style)
  Afc,          ///< extension: adaptive bufferless/buffered switching [AFC]
  Damq,         ///< extension: shared-buffer DAMQ router (one slot pool
                ///< dynamically allocated across inputs) [Tamir & Frazier]
  MinBD,        ///< extension: minimally-buffered deflection (side buffer
                ///< + golden-flit escape) [Fallin et al.]
};

/// One past the last enumerator: a design appended to the enum moves
/// this bound to itself, and the per-design tables must then grow a row.
inline constexpr int kNumDesigns = static_cast<int>(RouterDesign::MinBD) + 1;

/// How the channels feeding a router of a design are credited.
enum class LinkCredits : std::uint8_t {
  Unlimited,  ///< no backpressure: the router absorbs every arrival
  PerDepth,   ///< one per slot of the downstream input's FIFO(s)
  Granted,    ///< none at build: the router grants each credit at run time
};

/// The crossbar model a design switches through (power/component_models).
enum class CrossbarType : std::uint8_t {
  Matrix,     ///< a tri-state connector at every crosspoint
  Segmented,  ///< output buses cut by transmission gates, one per port
};

/// The flit storage a design provisions (power/component_models).
enum class BufferKind : std::uint8_t {
  None,        ///< bufferless
  FifoBank,    ///< one FIFO per link input, in one or more banks
  DamqPool,    ///< one pool shared by the inputs, with next-pointers
  SideBuffer,  ///< one router-wide FIFO behind a redirection mux
};

/// The control block beside the datapath.  All of them occupy the NACK
/// circuit switch's footprint; only Nack also runs a network.
enum class ControlBlock : std::uint8_t {
  None,
  Nack,          ///< drop + NACK retransmission (the 1-bit NACK network)
  VcAllocation,  ///< virtual-channel allocation
  ModeSwitch,    ///< bufferless/buffered mode switching
};

/// The facts about a design that the rest of the simulator reads: one
/// row per RouterDesign, in enum order (kDesignTable).  The router itself
/// is the factory row of router/factory.cpp.
struct DesignRow {
  RouterDesign design;
  std::string_view name;  ///< display name, also the canonical config value
  LinkCredits credits = LinkCredits::Unlimited;
  /// Each link splits its credits evenly into num_vcs pools, one per VC.
  bool pool_per_vc = false;
  /// Flit storage one router provisions, per unit of buffer_depth — the
  /// quantity the equal-buffer-budget shootout holds constant.
  int slots_per_depth = 0;
  BufferKind buffer = BufferKind::None;
  CrossbarType crossbar = CrossbarType::Matrix;
  int crossbars = 1;  ///< DXbar: a primary and a secondary crossbar
  ControlBlock control = ControlBlock::None;
};

// Table III composes each router from these rows: DXbar is two matrix
// crossbars plus one FIFO bank, Unified one segmented crossbar plus the
// same bank, and Buffered 8 two banks.
inline constexpr std::array<DesignRow, kNumDesigns> kDesignTable = {{
    {.design = RouterDesign::FlitBless, .name = "Flit-Bless"},
    {.design = RouterDesign::Scarab, .name = "SCARAB",
     .control = ControlBlock::Nack},
    {.design = RouterDesign::Buffered4, .name = "Buffered 4",
     .credits = LinkCredits::PerDepth, .slots_per_depth = kNumLinkDirs,
     .buffer = BufferKind::FifoBank},
    {.design = RouterDesign::Buffered8, .name = "Buffered 8",
     .credits = LinkCredits::PerDepth, .slots_per_depth = 2 * kNumLinkDirs,
     .buffer = BufferKind::FifoBank},
    // The dual-crossbar designs carry no link backpressure: a losing
    // flit that finds its FIFO full escapes through the bufferless
    // crossbar instead of requiring a reserved slot.  Their storage is
    // one secondary-side FIFO per input.
    {.design = RouterDesign::DXbar, .name = "DXbar",
     .slots_per_depth = kNumLinkDirs, .buffer = BufferKind::FifoBank,
     .crossbars = 2},
    {.design = RouterDesign::UnifiedXbar, .name = "Unified Xbar",
     .slots_per_depth = kNumLinkDirs, .buffer = BufferKind::FifoBank,
     .crossbar = CrossbarType::Segmented},
    {.design = RouterDesign::BufferedVC, .name = "Buffered VC",
     .credits = LinkCredits::PerDepth, .pool_per_vc = true,
     .slots_per_depth = kNumLinkDirs, .buffer = BufferKind::FifoBank,
     .control = ControlBlock::VcAllocation},
    // AFC accepts every arrival (deflection fallback in buffered mode).
    {.design = RouterDesign::Afc, .name = "AFC",
     .slots_per_depth = kNumLinkDirs, .buffer = BufferKind::FifoBank,
     .control = ControlBlock::ModeSwitch},
    // The pool is the Buffered-4-equivalent storage, shared; the router
    // is the sole credit allocator (DamqRouter::grant_credits).
    {.design = RouterDesign::Damq, .name = "DAMQ",
     .credits = LinkCredits::Granted, .slots_per_depth = kNumLinkDirs,
     .buffer = BufferKind::DamqPool},
    // The side buffer is the only storage, so at an equal budget minBD
    // takes buffer_depth = budget directly.
    {.design = RouterDesign::MinBD, .name = "minBD", .slots_per_depth = 1,
     .buffer = BufferKind::SideBuffer},
}};

/// Each row of a per-design table sits at its enumerator's index.
template <class Table>
constexpr bool one_row_per_design(const Table& table) {
  if (table.size() != kNumDesigns) return false;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].design != static_cast<RouterDesign>(i)) return false;
  }
  return true;
}
static_assert(one_row_per_design(kDesignTable));

constexpr const DesignRow& design_row(RouterDesign d) noexcept {
  return kDesignTable[static_cast<std::size_t>(d)];
}

constexpr std::string_view to_string(RouterDesign d) noexcept {
  return static_cast<int>(d) < kNumDesigns ? design_row(d).name : "?";
}

/// The nine synthetic traffic patterns of the paper's evaluation.
enum class TrafficPattern : std::uint8_t {
  UniformRandom,     ///< UR
  NonUniformRandom,  ///< NUR: 25% extra traffic to a hot-spot node group
  BitReversal,       ///< BR
  Butterfly,         ///< BF: swap MSB and LSB of the node index
  Complement,        ///< CP
  Transpose,         ///< MT: (x, y) -> (y, x)
  PerfectShuffle,    ///< PS: rotate node-index bits left by one
  Neighbor,          ///< NB: (x+1 mod W, y)
  Tornado,           ///< TOR: (x + ceil(W/2) - 1 mod W, y)
};

inline constexpr int kNumPatterns = 9;

inline constexpr std::array<TrafficPattern, kNumPatterns> kAllPatterns = {
    TrafficPattern::UniformRandom, TrafficPattern::NonUniformRandom,
    TrafficPattern::BitReversal,   TrafficPattern::Butterfly,
    TrafficPattern::Complement,    TrafficPattern::Transpose,
    TrafficPattern::PerfectShuffle, TrafficPattern::Neighbor,
    TrafficPattern::Tornado};

constexpr std::string_view to_string(TrafficPattern p) noexcept {
  switch (p) {
    case TrafficPattern::UniformRandom: return "UR";
    case TrafficPattern::NonUniformRandom: return "NUR";
    case TrafficPattern::BitReversal: return "BR";
    case TrafficPattern::Butterfly: return "BF";
    case TrafficPattern::Complement: return "CP";
    case TrafficPattern::Transpose: return "MT";
    case TrafficPattern::PerfectShuffle: return "PS";
    case TrafficPattern::Neighbor: return "NB";
    case TrafficPattern::Tornado: return "TOR";
  }
  return "?";
}

/// Message classes for request-reply (closed-loop) traffic.  Replies
/// must never be blocked behind requests — they ride a reserved VC
/// partition on buffered-VC designs and win age-arbitration ties on
/// every other design — so request-reply dependency cycles cannot
/// protocol-deadlock (DESIGN.md section 12).  Writebacks (coherence-mix
/// evictions) are terminal fire-and-forget messages: nothing downstream
/// ever waits on one, so giving them the highest class priority can
/// only shorten dependency chains, never close a cycle.
enum class MsgClass : std::uint8_t {
  Request = 0,
  Reply = 1,
  Writeback = 2,
};

constexpr std::string_view to_string(MsgClass c) noexcept {
  switch (c) {
    case MsgClass::Request: return "req";
    case MsgClass::Reply: return "rep";
    case MsgClass::Writeback: return "wb";
  }
  return "?";
}

/// Which workload model drives injection for a run.
enum class WorkloadKind : std::uint8_t {
  Synthetic,   ///< open-loop Bernoulli pattern traffic (the paper's)
  ClosedLoop,  ///< finite-MLP request-reply clients (DESIGN.md section 12)
  Splash,      ///< SPLASH-2 coherence substitute run to completion (Figs 9-10)
};

constexpr std::string_view to_string(WorkloadKind k) noexcept {
  switch (k) {
    case WorkloadKind::Synthetic: return "synthetic";
    case WorkloadKind::ClosedLoop: return "closedloop";
    case WorkloadKind::Splash: return "splash";
  }
  return "?";
}

/// The nine SPLASH-2 applications of the paper's Figs 9-10, in paper
/// order (the index into splash_profiles()).
enum class SplashApp : std::uint8_t {
  FFT, LU, Radiosity, Ocean, Raytrace, Radix, Water, FMM, Barnes,
};

constexpr std::string_view to_string(SplashApp a) noexcept {
  switch (a) {
    case SplashApp::FFT: return "FFT";
    case SplashApp::LU: return "LU";
    case SplashApp::Radiosity: return "Radiosity";
    case SplashApp::Ocean: return "Ocean";
    case SplashApp::Raytrace: return "Raytrace";
    case SplashApp::Radix: return "Radix";
    case SplashApp::Water: return "Water";
    case SplashApp::FMM: return "FMM";
    case SplashApp::Barnes: return "Barnes";
  }
  return "?";
}

/// Routing algorithms: the paper evaluates DOR and West-First; the
/// other turn models are extensions on the same interface.
enum class RoutingAlgo : std::uint8_t {
  DOR,            ///< dimension-ordered (XY) deterministic routing
  WestFirst,      ///< west-first minimal adaptive (turn model)
  NegativeFirst,  ///< extension: negative-first minimal adaptive
  NorthLast,      ///< extension: north-last minimal adaptive
};

constexpr std::string_view to_string(RoutingAlgo a) noexcept {
  switch (a) {
    case RoutingAlgo::DOR: return "DOR";
    case RoutingAlgo::WestFirst: return "WF";
    case RoutingAlgo::NegativeFirst: return "NF";
    case RoutingAlgo::NorthLast: return "NL";
  }
  return "?";
}

}  // namespace dxbar
