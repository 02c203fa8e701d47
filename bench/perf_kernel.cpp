// Simulation-kernel throughput bench: simulated cycles/sec and
// flit-events/sec for each of the ten router designs on the 8x8
// uniform-random mesh.
//
// This is the first point of the perf trajectory (see EXPERIMENTS.md):
// every hot-path change re-runs this bench and compares against the
// recorded baseline in BENCH_kernel.json.  A flit event is an injection,
// a link traversal or an ejection — the unit of switching work the
// kernel performs, so flit-events/sec is load-independent in a way raw
// cycles/sec is not.
//
// Usage:
//   perf_kernel [--quick] [--reps N] [--out FILE] [--baseline FILE]
//               [key=value ...]
//
// --out writes a JSON report; --baseline embeds a previous report
// verbatim under "baseline" and records the DXbar cycles/sec speedup
// against it.  Timing uses the best of `reps` repetitions, each with a
// fresh network and an untimed warmup, so one-off cache/page effects
// do not pollute the figure.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dxbar.hpp"

using namespace dxbar;

namespace {

struct KernelPoint {
  const char* name;
  RouterDesign design;
  double cycles_per_sec = 0.0;
  double flit_events_per_sec = 0.0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t flit_events = 0;
  double best_seconds = 0.0;
};

std::uint64_t total_link_sends(const Network& net) {
  std::uint64_t sends = 0;
  for (const auto& u : net.link_usage()) sends += u.flits;
  return sends;
}

/// One timed repetition: fresh network, untimed warmup, timed window.
/// Returns wall seconds for the window and accumulates flit events.
double run_once(const SimConfig& cfg, Cycle warmup, Cycle window,
                std::uint64_t& events_out) {
  Mesh mesh(cfg.mesh_width, cfg.mesh_height, cfg.torus);
  SyntheticWorkload workload(cfg, mesh);
  Network net(cfg);
  net.set_workload(&workload);

  for (Cycle t = 0; t < warmup; ++t) net.step();

  const std::uint64_t created0 = net.flits_created();
  const std::uint64_t delivered0 = net.flits_delivered();
  const std::uint64_t sends0 = total_link_sends(net);

  const auto t0 = std::chrono::steady_clock::now();
  for (Cycle t = 0; t < window; ++t) net.step();
  const auto t1 = std::chrono::steady_clock::now();

  events_out = (net.flits_created() - created0) +
               (net.flits_delivered() - delivered0) +
               (total_link_sends(net) - sends0);
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Crude extraction of the DXbar cycles_per_sec from a perf_kernel JSON
/// report (the reports are machine-written, so the field order is fixed).
double scan_baseline_dxbar(const std::string& json) {
  const auto at = json.find("\"name\": \"DXbar\"");
  if (at == std::string::npos) return 0.0;
  const auto key = json.find("\"cycles_per_sec\":", at);
  if (key == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + key + std::strlen("\"cycles_per_sec\":"),
                     nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  SimConfig base;
  base.pattern = TrafficPattern::UniformRandom;
  base.offered_load = 0.30;

  bool quick = false;
  int reps = 3;
  std::string out_path;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (const auto err = apply_override(base, argv[i]); !err.empty()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
  }
  if (reps < 1) reps = 1;

  const Cycle warmup = quick ? 200 : 1000;
  const Cycle window = quick ? 2000 : 50000;

  std::vector<KernelPoint> points = {
      {"Flit-Bless", RouterDesign::FlitBless},
      {"SCARAB", RouterDesign::Scarab},
      {"Buffered 4", RouterDesign::Buffered4},
      {"Buffered 8", RouterDesign::Buffered8},
      {"DXbar", RouterDesign::DXbar},
      {"Unified", RouterDesign::UnifiedXbar},
      {"Buffered VC", RouterDesign::BufferedVC},
      {"AFC", RouterDesign::Afc},
      {"DAMQ", RouterDesign::Damq},
      {"minBD", RouterDesign::MinBD},
  };

  std::printf("perf_kernel: %dx%d %s load=%.2f window=%llu reps=%d\n",
              base.mesh_width, base.mesh_height,
              std::string(to_string(base.pattern)).c_str(),
              base.offered_load, static_cast<unsigned long long>(window),
              reps);
  std::printf("%-12s %14s %16s %12s\n", "design", "cycles/sec",
              "flit-events/sec", "window s");

  for (KernelPoint& p : points) {
    SimConfig cfg = base;
    cfg.design = p.design;
    double best = 0.0;
    std::uint64_t events = 0;
    for (int r = 0; r < reps; ++r) {
      std::uint64_t ev = 0;
      const double secs = run_once(cfg, warmup, window, ev);
      if (r == 0 || secs < best) {
        best = secs;
        events = ev;
      }
    }
    p.sim_cycles = window;
    p.flit_events = events;
    p.best_seconds = best;
    p.cycles_per_sec = static_cast<double>(window) / best;
    p.flit_events_per_sec = static_cast<double>(events) / best;
    std::printf("%-12s %14.0f %16.0f %12.4f\n", p.name, p.cycles_per_sec,
                p.flit_events_per_sec, p.best_seconds);
  }

  std::string baseline_json;
  double baseline_dxbar = 0.0;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    baseline_json = ss.str();
    // Strip trailing whitespace so the report embeds cleanly.
    while (!baseline_json.empty() &&
           (baseline_json.back() == '\n' || baseline_json.back() == ' ')) {
      baseline_json.pop_back();
    }
    baseline_dxbar = scan_baseline_dxbar(baseline_json);
    // The baseline exists to gate the speedup; a file we cannot pull a
    // DXbar rate out of would also corrupt the embedded-JSON report.
    if (baseline_dxbar <= 0.0) {
      std::fprintf(stderr,
                   "error: baseline %s has no DXbar cycles_per_sec entry\n",
                   baseline_path.c_str());
      return 1;
    }
  }

  double dxbar_now = 0.0;
  for (const KernelPoint& p : points) {
    if (p.design == RouterDesign::DXbar) dxbar_now = p.cycles_per_sec;
  }
  if (baseline_dxbar > 0.0) {
    std::printf("\nDXbar speedup vs baseline: %.2fx (%.0f -> %.0f cycles/sec)\n",
                dxbar_now / baseline_dxbar, baseline_dxbar, dxbar_now);
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "{\n";
    out << "  \"bench\": \"perf_kernel\",\n";
    out << "  \"config\": {\n";
    out << "    \"mesh\": \"" << base.mesh_width << "x" << base.mesh_height
        << "\",\n";
    out << "    \"pattern\": \"" << to_string(base.pattern) << "\",\n";
    out << "    \"offered_load\": " << base.offered_load << ",\n";
    out << "    \"packet_length\": " << base.packet_length << ",\n";
    out << "    \"warmup_cycles\": " << warmup << ",\n";
    out << "    \"window_cycles\": " << window << ",\n";
    out << "    \"reps\": " << reps << ",\n";
    out << "    \"seed\": " << base.seed << "\n";
    out << "  },\n";
    out << "  \"results\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const KernelPoint& p = points[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    {\"name\": \"%s\", \"cycles_per_sec\": %.1f, "
                    "\"flit_events_per_sec\": %.1f, \"flit_events\": %llu, "
                    "\"window_seconds\": %.6f}%s\n",
                    p.name, p.cycles_per_sec, p.flit_events_per_sec,
                    static_cast<unsigned long long>(p.flit_events),
                    p.best_seconds, i + 1 < points.size() ? "," : "");
      out << buf;
    }
    out << "  ]";
    if (baseline_dxbar > 0.0) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    ",\n  \"dxbar_speedup_vs_baseline\": %.3f",
                    dxbar_now / baseline_dxbar);
      out << buf;
    }
    if (!baseline_json.empty()) {
      // Indent the embedded report two spaces for readability.
      out << ",\n  \"baseline\": ";
      for (char c : baseline_json) {
        out << c;
        if (c == '\n') out << "  ";
      }
    }
    out << "\n}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
