#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/config.hpp"

namespace dxbar {
namespace {

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

// Keys written only where they carry information keep older result
// corpora (and the golden fixture) byte-identical: leakage is zero only
// for an empty window, and open-loop runs complete no requests.
constexpr bool leaks(const RunStats& s) { return s.energy_leakage_nj != 0.0; }
constexpr bool requests(const RunStats& s) { return s.requests_completed != 0; }

using S = RunStats;

// Table order is the JSON key order and the binary payload order.
constexpr StatsField kFields[] = {
    {"offered_load", &S::offered_load},
    {"accepted_load", &S::accepted_load},
    {"accepted_load_stddev", &S::accepted_load_stddev},
    {"avg_packet_latency", &S::avg_packet_latency},
    {"avg_network_latency", &S::avg_network_latency},
    {"latency_p50", &S::latency_p50},
    {"latency_p95", &S::latency_p95},
    {"latency_p99", &S::latency_p99},
    {"latency_max", &S::latency_max},
    {"avg_hops", &S::avg_hops},
    {"deflections_per_flit", &S::deflections_per_flit},
    {"retransmits_per_flit", &S::retransmits_per_flit},
    {"packets_completed", &S::packets_completed},
    {"flits_ejected", &S::flits_ejected},
    {"flits_injected", &S::flits_injected},
    {"cycles", &S::cycles},
    {"packet_length", &S::packet_length},
    {"drained", &S::drained},
    {"energy_buffer_nj", &S::energy_buffer_nj},
    {"energy_crossbar_nj", &S::energy_crossbar_nj},
    {"energy_link_nj", &S::energy_link_nj},
    {"energy_control_nj", &S::energy_control_nj},
    {"energy_leakage_nj", &S::energy_leakage_nj, leaks},
    {.key = "energy_per_packet_nj",
     .derived = [](const S& s) { return s.energy_per_packet_nj(); }},
    {"requests_completed", &S::requests_completed, requests},
    {"avg_req_latency", &S::avg_req_latency, requests},
    {"req_latency_p50", &S::req_latency_p50, requests},
    {"req_latency_p95", &S::req_latency_p95, requests},
    {"req_latency_p99", &S::req_latency_p99, requests},
    {"req_latency_max", &S::req_latency_max, requests},
};

// Every member but req_hist needs its stored row above.
constexpr bool is_stored(const StatsField& f) { return f.stored(); }
static_assert(aggregate_member_count<RunStats>() ==
              1 + std::count_if(std::begin(kFields), std::end(kFields),
                                is_stored));

}  // namespace

std::span<const StatsField> run_stats_fields() { return kFields; }

RunStats StatsCollector::summarize(double offered_load, bool drained,
                                   Cycle stopped_at) const {
  RunStats out;
  out.offered_load = offered_load;
  const Cycle end = std::clamp(stopped_at, window_start_, window_end_);
  out.cycles = end - window_start_;
  out.flits_ejected = window_flits_ejected_;
  out.flits_injected = window_flits_injected_;
  out.drained = drained;

  if (out.cycles > 0 && num_nodes_ > 0) {
    out.accepted_load = static_cast<double>(window_flits_ejected_) /
                        (static_cast<double>(out.cycles) * num_nodes_);

    // The sub-batches divide the whole window, so a run stopped inside
    // it has none to compare.
    if (end == window_end_ && out.cycles >= kBatches) {
      const double batch_cycles =
          static_cast<double>(out.cycles) / kBatches;
      double mean = 0.0;
      for (auto b : batch_ejections_) {
        mean += static_cast<double>(b) / (batch_cycles * num_nodes_);
      }
      mean /= kBatches;
      double var = 0.0;
      for (auto b : batch_ejections_) {
        const double x = static_cast<double>(b) / (batch_cycles * num_nodes_);
        var += (x - mean) * (x - mean);
      }
      out.accepted_load_stddev = std::sqrt(var / kBatches);
    }
  }

  out.packets_completed = window_packets_.size();
  if (!window_packets_.empty()) {
    double lat = 0.0;
    double net_lat = 0.0;
    double hops = 0.0;
    double defl = 0.0;
    double retx = 0.0;
    double flits = 0.0;
    for (const PacketRecord& p : window_packets_) {
      lat += static_cast<double>(p.latency());
      net_lat += static_cast<double>(p.network_latency());
      hops += static_cast<double>(p.total_hops);
      defl += static_cast<double>(p.total_deflections);
      retx += static_cast<double>(p.total_retransmits);
      flits += static_cast<double>(p.length);
    }
    const auto n = static_cast<double>(window_packets_.size());
    out.avg_packet_latency = lat / n;
    out.avg_network_latency = net_lat / n;

    std::vector<double> sorted;
    sorted.reserve(window_packets_.size());
    for (const PacketRecord& p : window_packets_) {
      sorted.push_back(static_cast<double>(p.latency()));
    }
    std::sort(sorted.begin(), sorted.end());
    out.latency_p50 = percentile(sorted, 0.50);
    out.latency_p95 = percentile(sorted, 0.95);
    out.latency_p99 = percentile(sorted, 0.99);
    out.latency_max = sorted.back();
    if (flits > 0.0) {
      out.avg_hops = hops / flits;
      out.deflections_per_flit = defl / flits;
      out.retransmits_per_flit = retx / flits;
    }
  }
  return out;
}

}  // namespace dxbar
