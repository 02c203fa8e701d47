#include "traffic/trace_io.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>

#include "common/flit.hpp"
#include "common/text.hpp"

namespace dxbar {

std::vector<TraceEntry> read_trace(std::istream& is, NodeId num_nodes) {
  std::vector<TraceEntry> entries;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    line.erase(std::min(line.find('#'), line.size()));
    std::istringstream ls(line);
    const std::vector<std::string> tokens{
        std::istream_iterator<std::string>(ls), {}};
    if (tokens.empty()) continue;  // blank or comment-only line
    TraceEntry e;
    // Exactly four numbers, none negative; Flit::packet_len is 16-bit,
    // so longer packets cannot be described.
    if (tokens.size() != 4 || !parse_number(tokens[0], e.cycle) ||
        !parse_number(tokens[1], e.src) || !parse_number(tokens[2], e.dst) ||
        !parse_number(tokens[3], e.length) || e.length < 1 ||
        e.length > kMaxPacketLength) {
      throw TraceError("malformed trace line " + std::to_string(lineno));
    }
    for (const NodeId node : {e.src, e.dst}) {
      if (node >= num_nodes) {
        throw TraceError("trace line " + std::to_string(lineno) + ": node " +
                         std::to_string(node) + " outside a " +
                         std::to_string(num_nodes) + "-node network");
      }
    }
    entries.push_back(e);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return a.cycle < b.cycle;
                   });
  return entries;
}

void write_trace(std::ostream& os, std::span<const TraceEntry> entries) {
  os << "# cycle src dst length\n";
  for (const TraceEntry& e : entries) {
    os << e.cycle << ' ' << e.src << ' ' << e.dst << ' ' << e.length << '\n';
  }
}

TraceWorkload::TraceWorkload(std::vector<TraceEntry> entries)
    : entries_(std::move(entries)) {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return a.cycle < b.cycle;
                   });
}

void TraceWorkload::begin_cycle(Cycle now, Injector& inject) {
  if (!enabled_) {
    // Skip entries scheduled while injection is disabled.
    while (next_ < entries_.size() && entries_[next_].cycle <= now) ++next_;
    return;
  }
  while (next_ < entries_.size() && entries_[next_].cycle <= now) {
    const TraceEntry& e = entries_[next_++];
    if (e.src != e.dst) inject.inject_packet(e.src, e.dst, e.length, now);
  }
}

}  // namespace dxbar
