#include "sim/sim_runner.hpp"

#include "workload/factory.hpp"

namespace dxbar {

namespace {

constexpr std::uint32_t kSecWorkload = section_tag("WKLD");

/// The stop point of a finite workload's run: its work is done and the
/// network has delivered all of it.
bool work_done(const Network& net, const WorkloadModel& workload) {
  return workload.finished() && net.idle();
}

/// The drain phase of a run at the end of its measurement window: turns
/// energy and injection off and steps until the network and workload
/// are empty or cfg.drain_cycles have run.  A finite workload's run has
/// no drain: it is over once its work is done, or at the cycle cap.
void drain_open_loop(Network& net, WorkloadModel& workload) {
  if (workload.finite()) return;
  const SimConfig& cfg = net.config();
  net.energy().set_enabled(false);
  workload.set_injection_enabled(false);
  const Cycle drain_end =
      cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles;
  while (!(net.idle() && workload.quiescent()) && net.now() < drain_end) {
    net.step();
  }
}

/// Summarizes a drained run: window stats, energy priced at the
/// network's own config, and the workload's request-latency fields.
RunStats summarize_open_loop(Network& net, const WorkloadModel& workload,
                             std::vector<PacketRecord>* packets_out) {
  const SimConfig& cfg = net.config();
  const bool drained =
      workload.finite() ? work_done(net, workload)
                        : net.idle() && workload.quiescent();
  RunStats out = net.stats().summarize(cfg.offered_load, drained, net.now());
  out.packet_length = cfg.packet_length;
  fill_energy_stats(out, net.energy(), cfg);
  workload.fill_run_stats(out);
  if (packets_out != nullptr) *packets_out = net.stats().window_packets();
  return out;
}

}  // namespace

void advance_open_loop(Network& net, Cycle until) {
  const SimConfig& cfg = net.config();
  const Cycle warmup = cfg.warmup_cycles;
  const Cycle measure_end = warmup + cfg.measure_cycles;
  if (until > measure_end) until = measure_end;
  // Looked up once: a workload that never finishes adds no check to the
  // cycle loop.
  const WorkloadModel* finite =
      net.workload() != nullptr && net.workload()->finite() ? net.workload()
                                                             : nullptr;

  // Energy accumulates only inside the measurement window; deriving the
  // gate from the clock makes the call position-independent, so a
  // restored network resumes with the exact setting the straight run had.
  net.energy().set_enabled(net.now() >= warmup && net.now() < measure_end);
  while (net.now() < until) {
    if (finite != nullptr && work_done(net, *finite)) return;
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
  drain_open_loop(net, workload);
  return summarize_open_loop(net, workload, packets_out);
}

void save_open_loop_state(SnapshotWriter& w, const Network& net,
                          const WorkloadModel& workload) {
  net.save(w);
  w.section(kSecWorkload, [&] { workload.save_state(w); });
}

void load_open_loop_state(SnapshotReader& r, Network& net,
                          WorkloadModel& workload) {
  net.load(r);
  r.section(kSecWorkload, [&] { workload.load_state(r); });
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

}  // namespace dxbar
