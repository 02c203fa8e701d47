// SPLASH-2 trace tooling: generate a coherence-traffic trace for one of
// the nine applications (or read one from a file) and replay it against
// a router design, reporting makespan, latency and energy.
//
//   ./splash_traces generate <app> <file> [key=value ...]
//   ./splash_traces replay <file> [key=value ...]
//   ./splash_traces run <app> [key=value ...]     # closed-loop, no file
//
// Both runs are one window over the whole run (warmup 0, measure = a
// 2M-cycle cap, overridable) that ends when the work is done.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/dxbar.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: splash_traces generate <app> <file> [key=value ...]\n"
               "       splash_traces replay <file> [key=value ...]\n"
               "       splash_traces run <app> [key=value ...]\n"
               "apps: FFT LU Radiosity Ocean Raytrace Radix Water FMM "
               "Barnes\n");
}

void report(const dxbar::RunStats& s) {
  const double energy = s.total_energy_nj();
  const double packets = static_cast<double>(s.packets_completed);
  std::printf("finished            : %s\n", s.drained ? "yes" : "NO");
  std::printf("execution time      : %llu cycles\n",
              static_cast<unsigned long long>(s.cycles));
  std::printf("packets delivered   : %llu\n",
              static_cast<unsigned long long>(s.packets_completed));
  std::printf("avg packet latency  : %.1f cycles\n", s.avg_packet_latency);
  std::printf("energy per packet   : %.3f nJ (total %.1f nJ)\n",
              packets == 0.0 ? 0.0 : energy / packets, energy);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
    return 1;
  }
  const std::string_view mode = argv[1];

  dxbar::SimConfig cfg;
  cfg.design = dxbar::RouterDesign::DXbar;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 2'000'000;
  const int fixed_args = mode == "generate" ? 4 : 3;
  if (argc < fixed_args) {
    usage();
    return 1;
  }
  const auto err = dxbar::apply_overrides(
      cfg, std::span<const char* const>(
               argv + fixed_args, static_cast<std::size_t>(argc - fixed_args)));
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }

  const dxbar::Mesh mesh(cfg.mesh_width, cfg.mesh_height);

  if (mode == "generate") {
    const dxbar::SplashProfile* app = dxbar::find_splash_profile(argv[2]);
    if (app == nullptr) {
      std::fprintf(stderr, "unknown application '%s'\n", argv[2]);
      return 1;
    }
    const auto trace = dxbar::generate_splash_trace(*app, cfg, mesh);
    std::ofstream out(argv[3]);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", argv[3]);
      return 1;
    }
    dxbar::write_trace(out, trace);
    std::printf("wrote %zu packets to %s\n", trace.size(), argv[3]);
    return 0;
  }

  if (mode == "replay") {
    std::ifstream in(argv[2]);
    if (!in) {
      std::fprintf(stderr, "cannot read '%s'\n", argv[2]);
      return 1;
    }
    std::vector<dxbar::TraceEntry> trace;
    try {
      trace = dxbar::read_trace(in, cfg.num_nodes());
    } catch (const dxbar::TraceError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("replaying %zu packets on %s...\n", trace.size(),
                std::string(to_string(cfg.design)).c_str());
    dxbar::TraceWorkload workload(trace);
    report(dxbar::run_open_loop(cfg, workload));
    return 0;
  }

  if (mode == "run") {
    cfg.workload = dxbar::WorkloadKind::Splash;
    if (!dxbar::apply_override(cfg, std::string("app=") + argv[2]).empty()) {
      std::fprintf(stderr, "unknown application '%s'\n", argv[2]);
      return 1;
    }
    std::printf("closed-loop %s on %s...\n", argv[2],
                std::string(to_string(cfg.design)).c_str());
    report(dxbar::run_open_loop(cfg));
    return 0;
  }

  usage();
  return 1;
}
