#include "span_tracer.hpp"

#include <cinttypes>

#include "common/json.hpp"

namespace dxbar::perf {
namespace {

const char* span_name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::Setup: return "setup";
    case SpanKind::Warmup: return "warmup";
    case SpanKind::Window: return "window";
    case SpanKind::Step: return "network.step";
    case SpanKind::BeginCycle: return "workload.begin_cycle";
    case SpanKind::OnDelivered: return "workload.on_packet_delivered";
    case SpanKind::Drain: return "drain";
    case SpanKind::SnapshotSave: return "snapshot.save";
    case SpanKind::SnapshotRestore: return "snapshot.restore";
    case SpanKind::ExpExecute: return "exp.execute";
    case SpanKind::ExpWriteJson: return "exp.write_json";
    case SpanKind::ReportLoad: return "report.load";
    case SpanKind::ReportDiff: return "report.diff";
  }
  return "?";
}

}  // namespace

std::vector<std::int64_t> SpanTracer::self_times(std::size_t first) const {
  std::vector<std::int64_t> self(spans_.size() - first);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    self[i - first] += spans_[i].duration();
    const std::int32_t p = spans_[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) >= first) {
      self[static_cast<std::size_t>(p) - first] -= spans_[i].duration();
    }
  }
  return self;
}

bool SpanTracer::write_jsonl(std::FILE* out,
                             const std::string& workload) const {
  const std::string w = json_escape(workload);
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    std::fprintf(out, "{\"workload\":\"%s\",\"run\":%zu,\"label\":\"%s\"}\n",
                 w.c_str(), r, json_escape(runs_[r]).c_str());
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"run\":%" PRIu32 ",\"id\":%zu,\"parent\":%" PRId32
                 ",\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}\n",
                 s.run, i, s.parent, span_name(s.kind), s.start_ns, s.end_ns);
  }
  return std::ferror(out) == 0;
}

}  // namespace dxbar::perf
