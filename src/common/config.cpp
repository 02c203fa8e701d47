#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>

#include "common/flit.hpp"
#include "common/text.hpp"

namespace dxbar {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

/// A value's canonical name (its to_string() display name), or an alias.
template <class E>
constexpr FieldName name(E e, std::string_view alias = {}) {
  return {static_cast<std::uint8_t>(e), alias.empty() ? to_string(e) : alias};
}

constexpr FieldName kTopologyNames[] = {{0, "mesh"}, {1, "torus"}};

using D = RouterDesign;
constexpr FieldName kDesignNames[] = {
    name(D::FlitBless), name(D::Scarab), name(D::Buffered4),
    name(D::Buffered8), name(D::DXbar), name(D::UnifiedXbar),
    name(D::BufferedVC), name(D::Afc), name(D::Damq), name(D::MinBD),
    name(D::FlitBless, "bless"), name(D::FlitBless, "flitbless"),
    name(D::Buffered4, "buffered4"), name(D::Buffered4, "buffered"),
    name(D::Buffered8, "buffered8"), name(D::UnifiedXbar, "unified"),
    name(D::UnifiedXbar, "unifiedxbar"), name(D::BufferedVC, "bufferedvc"),
    name(D::BufferedVC, "vc"),
};

using R = RoutingAlgo;
constexpr FieldName kRoutingNames[] = {
    name(R::DOR), name(R::WestFirst), name(R::NegativeFirst),
    name(R::NorthLast), name(R::DOR, "xy"), name(R::WestFirst, "west-first"),
    name(R::WestFirst, "westfirst"), name(R::NegativeFirst, "negative-first"),
    name(R::NegativeFirst, "negativefirst"), name(R::NorthLast, "north-last"),
    name(R::NorthLast, "northlast"),
};

using P = TrafficPattern;
constexpr FieldName kPatternNames[] = {
    name(P::UniformRandom), name(P::NonUniformRandom), name(P::BitReversal),
    name(P::Butterfly), name(P::Complement), name(P::Transpose),
    name(P::PerfectShuffle), name(P::Neighbor), name(P::Tornado),
    name(P::UniformRandom, "uniform"), name(P::NonUniformRandom, "hotspot"),
    name(P::BitReversal, "bitreversal"), name(P::Butterfly, "butterfly"),
    name(P::Complement, "complement"), name(P::Transpose, "transpose"),
    name(P::PerfectShuffle, "shuffle"), name(P::Neighbor, "neighbor"),
    name(P::Tornado, "tornado"),
};

constexpr FieldName kWorkloadNames[] = {
    name(WorkloadKind::Synthetic), name(WorkloadKind::ClosedLoop),
    name(WorkloadKind::Splash), name(WorkloadKind::Synthetic, "open"),
    name(WorkloadKind::ClosedLoop, "closed"),
};

using A = SplashApp;
constexpr FieldName kSplashAppNames[] = {
    name(A::FFT), name(A::LU), name(A::Radiosity), name(A::Ocean),
    name(A::Raytrace), name(A::Radix), name(A::Water), name(A::FMM),
    name(A::Barnes),
};

constexpr int kTechNodes[] = {65, 32, 16};

// Fields written only off their default keep older result corpora (and
// the golden fixture) byte-identical: the paper's 65 nm node, the
// single-stream seed, the workload kind for synthetic runs, and each
// workload's own block only for that workload (read_fraction only off
// the pure-read mix).
constexpr bool off_65nm(const SimConfig& c) { return c.tech_node != 65; }
constexpr bool reseeded(const SimConfig& c) { return c.measure_seed != 0; }
constexpr bool not_synthetic(const SimConfig& c) {
  return c.workload != WorkloadKind::Synthetic;
}
constexpr bool closed_loop(const SimConfig& c) {
  return c.workload == WorkloadKind::ClosedLoop;
}
constexpr bool splash(const SimConfig& c) {
  return c.workload == WorkloadKind::Splash;
}
constexpr bool mixed_reads(const SimConfig& c) {
  return closed_loop(c) && c.read_fraction != 1.0;
}

using WriteIf = bool (*)(const SimConfig&);

/// A numeric field valid in [lo, hi].
template <class T>
constexpr ConfigField number(std::string_view key, T SimConfig::*member,
                             double lo, double hi, unsigned roles = 0,
                             WriteIf write_if = nullptr) {
  return {.key = key, .member = member, .lo = lo, .hi = hi,
          .write_if = write_if, .roles = roles};
}

/// An enum-valued field.
template <class T>
constexpr ConfigField named(std::string_view key, T SimConfig::*member,
                            std::span<const FieldName> names,
                            unsigned roles = 0, WriteIf write_if = nullptr) {
  return {.key = key, .member = member, .names = names, .write_if = write_if,
          .roles = roles};
}

using C = SimConfig;

// Table order is the JSON key order and the snapshot byte order.  The
// workload kind is structural because it gates the VC router's class
// partition; the other workload knobs live in the workload model.
constexpr ConfigField kFields[] = {
    number("width", &C::mesh_width, 2, kInf, kStructural),
    number("height", &C::mesh_height, 2, kInf, kStructural),
    named("topology", &C::torus, kTopologyNames, kStructural),
    named("design", &C::design, kDesignNames, kStructural),
    named("routing", &C::routing, kRoutingNames, kStructural),
    named("pattern", &C::pattern, kPatternNames),
    number("buffer_depth", &C::buffer_depth, 1, kInf, kStructural),
    number("fairness_threshold", &C::fairness_threshold, 1, kInf, kStructural),
    number("stall_escape", &C::stall_escape_delay, 1, kInf, kStructural),
    number("num_vcs", &C::num_vcs, 1, kInf, kStructural),
    number("retransmit_buffer", &C::retransmit_buffer, 1, kInf, kStructural),
    number("load", &C::offered_load, 0, 1),
    number("warmup_load", &C::warmup_load, -kInf, kInf),
    number("packet_length", &C::packet_length, 1, kMaxPacketLength,
           kStructural),
    number("flit_bits", &C::flit_bits, 1, kInf, kStructural | kPricingOnly),
    {.key = "tech", .member = &C::tech_node, .choices = kTechNodes,
     .write_if = off_65nm, .roles = kStructural | kPricingOnly},
    number("warmup", &C::warmup_cycles, 0, kInf, kStructural),
    number("measure", &C::measure_cycles, 0, kInf, kStructural),
    number("drain", &C::drain_cycles, 0, kInf, kWarmupNeutral),
    number("faults", &C::fault_fraction, 0, 1, kStructural),
    number("fault_detect_delay", &C::fault_detect_delay, 0, kInf, kStructural),
    number("fault_onset_spread", &C::fault_onset_spread, 0, kInf, kStructural),
    number("link_faults", &C::link_fault_fraction, 0, 1, kStructural),
    number("seed", &C::seed, 0, kInf, kStructural),
    number("measure_seed", &C::measure_seed, 0, kInf, kWarmupNeutral,
           reseeded),
    named("workload", &C::workload, kWorkloadNames, kStructural,
          not_synthetic),
    number("mlp", &C::mlp, 1, kInf, 0, closed_loop),
    number("service_delay", &C::service_delay, 0, kInf, 0, closed_loop),
    number("request_length", &C::request_length, 1, kMaxPacketLength, 0,
           closed_loop),
    number("hotspot_fraction", &C::hotspot_fraction, 0, 1, 0, closed_loop),
    number("read_fraction", &C::read_fraction, 0, 1, 0, mixed_reads),
    named("app", &C::splash_app, kSplashAppNames, 0, splash),
    number("transactions", &C::transactions, 1, kInf, 0, splash),
    number("shards", &C::shards, 1, kInf, kExecutionOnly),
};

// Every member needs its row above.
static_assert(aggregate_member_count<SimConfig>() == std::size(kFields));

template <class T>
constexpr bool kIsNumber = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

/// The canonical entry for `value`: the first one naming it.
const FieldName* canonical(std::span<const FieldName> names,
                           std::uint8_t value) {
  for (const FieldName& n : names) {
    if (n.value == value) return &n;
  }
  return nullptr;
}

/// Sets `out` to the value `token` names; false when it names none.
template <class E>
bool parse_name(std::span<const FieldName> names, std::string_view token,
                bool canonical_only, E& out) {
  for (const FieldName& n : names) {
    if (canonical_only ? n.name == token && canonical(names, n.value) == &n
                       : lower(n.name) == lower(token)) {
      out = static_cast<E>(n.value);
      return true;
    }
  }
  return false;
}

std::string field_error(const ConfigField& f) {
  std::string msg(f.key);
  if (f.named()) return msg + " has no valid value";
  if (!f.choices.empty()) {
    msg += " must be one of";
    for (std::size_t i = 0; i < f.choices.size(); ++i) {
      msg += (i == 0 ? " " : ", ") + std::to_string(f.choices[i]);
    }
    return msg;
  }
  char buf[96];
  if (f.hi == kInf) {
    std::snprintf(buf, sizeof(buf), " must be a number >= %g", f.lo);
  } else {
    std::snprintf(buf, sizeof(buf), " must lie in [%g, %g]", f.lo, f.hi);
  }
  return msg + buf;
}

bool field_valid(const ConfigField& f, const SimConfig& cfg) {
  if (f.named()) return !f.name_of(cfg).empty();
  double v = 0.0;
  f.visit(cfg, [&](auto x) {
    if constexpr (kIsNumber<decltype(x)>) v = static_cast<double>(x);
  });
  if (!f.choices.empty()) {
    return std::find(f.choices.begin(), f.choices.end(), v) != f.choices.end();
  }
  return v >= f.lo && v <= f.hi;  // false for NaN
}

const ConfigField* find_field(std::string_view key) {
  for (const ConfigField& f : kFields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

}  // namespace

std::span<const ConfigField> config_fields() { return kFields; }

void reset_fields(SimConfig& cfg, unsigned roles) {
  static const SimConfig kDefaults;
  for (const ConfigField& f : kFields) {
    if (f.has(roles)) {
      std::visit([&](auto m) { cfg.*m = kDefaults.*m; }, f.member);
    }
  }
}

std::string_view ConfigField::name_of(const SimConfig& cfg) const {
  std::uint8_t v = 0;
  visit(cfg, [&](auto x) {
    if constexpr (!kIsNumber<decltype(x)>) v = static_cast<std::uint8_t>(x);
  });
  const FieldName* n = canonical(names, v);
  return n != nullptr ? n->name : std::string_view{};
}

std::string ConfigField::text(const SimConfig& cfg) const {
  if (named()) return std::string(name_of(cfg));
  std::string out;
  visit(cfg, [&](auto x) {
    if constexpr (kIsNumber<decltype(x)>) {
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof(buf), x);
      out.assign(buf, res.ptr);
    }
  });
  return out;
}

bool ConfigField::parse(SimConfig& cfg, std::string_view token,
                        bool canonical_only) const {
  bool ok = false;
  visit(cfg, [&](auto& v) {
    if constexpr (kIsNumber<std::remove_reference_t<decltype(v)>>) {
      ok = parse_number(token, v);
    } else {
      ok = parse_name(names, token, canonical_only, v);
    }
  });
  return ok;
}

bool parse_design(std::string_view name, RouterDesign& out) {
  return parse_name(kDesignNames, name, false, out);
}

bool parse_routing(std::string_view name, RoutingAlgo& out) {
  return parse_name(kRoutingNames, name, false, out);
}

std::string SimConfig::validate() const {
  for (const ConfigField& f : kFields) {
    if (!field_valid(f, *this)) return field_error(f);
  }
  // Cross-field rules.
  const bool pool_per_vc = design_row(design).pool_per_vc;
  if (pool_per_vc && buffer_depth % num_vcs != 0) {
    return "buffer_depth must be divisible by num_vcs for the VC router";
  }
  if (warmup_load > 1.0) {
    return "warmup_load must lie in [0, 1] (or be negative for "
           "\"same as offered_load\")";
  }
  if (workload == WorkloadKind::ClosedLoop && pool_per_vc && num_vcs < 2) {
    // Replies ride a reserved VC partition on the VC router; with one VC
    // there is no partition and request-reply cycles could deadlock.
    return "closedloop workload on the VC router requires num_vcs >= 2";
  }
  const bool credit_based =
      design_row(design).credits != LinkCredits::Unlimited;
  if (credit_based && (torus || link_fault_fraction > 0.0)) {
    // Wrap links close ring dependency cycles (there are no VC
    // datelines), and fault-aware table routing abandons the turn-model
    // acyclicity: without a deflection escape valve the credit-based
    // designs (DAMQ included — its grants are credits over a shared
    // pool) can deadlock on either.
    return std::string(torus ? "torus requires" : "link faults require") +
           " a design with a deflection escape valve "
           "(dxbar, unified, bless, scarab, afc, minbd)";
  }
  return {};
}

std::string SimConfig::describe() const {
  std::string out = "mesh                " + std::to_string(mesh_width) +
                    "x" + std::to_string(mesh_height) + "\n";
  for (const ConfigField& f : kFields) {
    const std::size_t pad = f.key.size() < 20 ? 20 - f.key.size() : 1;
    out += std::string(f.key).append(pad, ' ') + f.text(*this) + '\n';
  }
  return out;
}

std::string apply_override(SimConfig& cfg, std::string_view arg) {
  const auto eq = arg.find('=');
  if (eq == std::string_view::npos) {
    return "expected key=value, got '" + std::string(arg) + "'";
  }
  const std::string key = lower(arg.substr(0, eq));
  const ConfigField* f = find_field(key);
  if (f == nullptr) return "unknown key '" + key + "'";
  if (!f->parse(cfg, arg.substr(eq + 1), false)) {
    return "bad value for '" + key + "'";
  }
  return {};
}

std::string apply_overrides(SimConfig& cfg,
                            std::span<const char* const> args) {
  for (const char* a : args) {
    if (auto err = apply_override(cfg, a); !err.empty()) return err;
  }
  return {};
}

}  // namespace dxbar
