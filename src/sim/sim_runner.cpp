#include "sim/sim_runner.hpp"

#include "workload/factory.hpp"

namespace dxbar {

void advance_open_loop(Network& net, Cycle until) {
  const SimConfig& cfg = net.config();
  const Cycle warmup = cfg.warmup_cycles;
  const Cycle measure_end = warmup + cfg.measure_cycles;
  if (until > measure_end) until = measure_end;

  // Energy accumulates only inside the measurement window; deriving the
  // gate from the clock makes the call position-independent, so a
  // restored network resumes with the exact setting the straight run had.
  net.energy().set_enabled(net.now() >= warmup && net.now() < measure_end);
  while (net.now() < until) {
    if (net.now() == warmup) net.energy().set_enabled(true);
    net.step();
  }
}

void fill_energy_stats(RunStats& out, const EnergyMeter& events,
                       const SimConfig& cfg) {
  const EnergyMeter priced = events.priced_at(derive_energy_params(cfg));
  out.energy_buffer_nj = priced.buffer_nj();
  out.energy_crossbar_nj = priced.crossbar_nj();
  out.energy_link_nj = priced.link_nj();
  out.energy_control_nj = priced.control_nj();
  out.energy_leakage_nj = network_leakage_nj(cfg, out.cycles);
}

RunStats finish_open_loop(Network& net, WorkloadModel& workload,
                          std::vector<PacketRecord>* packets_out) {
  const SimConfig& cfg = net.config();
  advance_open_loop(net, cfg.warmup_cycles + cfg.measure_cycles);
  net.energy().set_enabled(false);
  workload.set_injection_enabled(false);

  bool drained = false;
  for (Cycle t = 0; t < cfg.drain_cycles; ++t) {
    if (net.idle() && workload.quiescent()) {
      drained = true;
      break;
    }
    net.step();
  }
  drained = drained || (net.idle() && workload.quiescent());

  RunStats out = net.stats().summarize(cfg.offered_load, drained);
  out.packet_length = cfg.packet_length;
  fill_energy_stats(out, net.energy(), cfg);
  workload.fill_run_stats(out);
  if (packets_out != nullptr) *packets_out = net.stats().window_packets();
  return out;
}

namespace {

/// Shared body of the open-loop runners.
RunStats open_loop_impl(const SimConfig& cfg, WorkloadModel& workload,
                        std::vector<PacketRecord>* packets_out) {
  Network net(cfg);
  net.set_workload(&workload);
  return finish_open_loop(net, workload, packets_out);
}

}  // namespace

RunStats run_open_loop(const SimConfig& cfg, WorkloadModel& workload) {
  return open_loop_impl(cfg, workload, nullptr);
}

RunStats run_open_loop(const SimConfig& cfg) {
  const Mesh mesh(cfg.mesh_width, cfg.mesh_height, cfg.torus);
  const auto workload = make_workload(cfg, mesh);
  return run_open_loop(cfg, *workload);
}

DetailedRun run_open_loop_detailed(const SimConfig& cfg) {
  const Mesh mesh(cfg.mesh_width, cfg.mesh_height, cfg.torus);
  const auto workload = make_workload(cfg, mesh);
  DetailedRun out;
  out.stats = open_loop_impl(cfg, *workload, &out.packets);
  return out;
}

ClosedLoopResult run_closed_loop(const SimConfig& cfg,
                                 WorkloadModel& workload, Cycle max_cycles) {
  Network net(cfg);
  net.set_workload(&workload);
  net.energy().set_enabled(true);

  ClosedLoopResult out;
  while (net.now() < max_cycles) {
    if (workload.finished() && net.idle()) {
      out.finished = true;
      break;
    }
    net.step();
  }
  out.completion_cycles = net.now();
  out.packets = net.packets_delivered();
  out.energy_nj = net.energy().total_nj();
  out.energy_per_packet_nj =
      out.packets == 0 ? 0.0
                       : out.energy_nj / static_cast<double>(out.packets);

  // Whole-run latency average (closed-loop runs have no warmup window).
  const auto& packets = net.stats().window_packets();
  if (!packets.empty()) {
    double sum = 0.0;
    for (const PacketRecord& p : packets) {
      sum += static_cast<double>(p.latency());
    }
    out.avg_packet_latency = sum / static_cast<double>(packets.size());
  }
  return out;
}

ClosedLoopResult run_trace_replay(const SimConfig& cfg,
                                  std::vector<TraceEntry> entries,
                                  Cycle max_cycles) {
  SimConfig run_cfg = cfg;
  run_cfg.warmup_cycles = 0;
  run_cfg.measure_cycles = max_cycles;
  TraceWorkload workload(std::move(entries));
  return run_closed_loop(run_cfg, workload, max_cycles);
}

ClosedLoopResult run_splash(const SimConfig& cfg, const SplashProfile& app,
                            Cycle max_cycles) {
  // The whole run is the measurement: make the stats window cover it.
  SimConfig run_cfg = cfg;
  run_cfg.warmup_cycles = 0;
  run_cfg.measure_cycles = max_cycles;

  const Mesh mesh(run_cfg.mesh_width, run_cfg.mesh_height);
  SplashWorkload workload(app, run_cfg, mesh);
  return run_closed_loop(run_cfg, workload, max_cycles);
}

}  // namespace dxbar
