#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/dxbar.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "report/diff.hpp"
#include "sim/replica_batch.hpp"
#include "workload/factory.hpp"

#include "host_speed.hpp"
#include "span_tracer.hpp"

namespace dxbar::perf {
namespace {

/// Spans one traced rep may record; the largest rep (ten 8x8 designs,
/// ~40k spans each) needs well under half.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;
/// Threads the sharded and session workloads are defined with.
constexpr unsigned kWorkloadThreads = 4;

double secs(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// Geometric mean of the positive finite values (a point with nothing
/// delivered has no latency or energy per flit); 0 when there are none.
double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (double x : v) {
    if (std::isfinite(x) && x > 0.0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

/// Counts one attempt; a failed one is described on stderr.
void gate(WorkloadResult& r, bool ok, const std::string& what) {
  ++r.attempted;
  if (!ok) {
    ++r.failed;
    std::fprintf(stderr, "dxbar_perf: %s: FAILED %s\n", r.workload.c_str(),
                 what.c_str());
  }
}

void add(WorkloadResult& r, const std::string& metric, double v) {
  r.samples[metric].push_back(v);
}

/// The simulated outputs of a workload's runs, folded into the sim_*
/// end-to-end metrics by a geometric mean.  Latency is the in-network
/// part (injection -> completion): at load 0.30 several designs sit on
/// their saturation knee, where source queueing, and with it the packet
/// latency, swings by 30-50% from one seed to the next.
struct SimOutputs {
  std::vector<double> accepted, pj_per_flit, latency;

  void add_run(const RunStats& s) {
    accepted.push_back(s.accepted_load);
    pj_per_flit.push_back(1000.0 * s.energy_per_flit_nj());
    latency.push_back(s.avg_network_latency);
  }
  void report(WorkloadResult& r) const {
    add(r, "sim_accepted_load", geomean(accepted));
    add(r, "sim_pj_per_flit", geomean(pj_per_flit));
    add(r, "sim_network_latency_cycles", geomean(latency));
  }
};

std::uint64_t link_sends(const Network& net) {
  std::uint64_t n = 0;
  for (const auto& u : net.link_usage()) n += u.flits;
  return n;
}

/// Span totals of one traced simulation, from the spans it recorded.
/// Workload callbacks count only inside a timed-window step.
struct LayerTotals {
  std::int64_t step_ns = 0;
  std::int64_t step_self_ns = 0;
  std::int64_t begin_ns = 0;
  std::int64_t deliver_ns = 0;
  std::uint64_t steps = 0;
  std::uint64_t begins = 0;
  std::uint64_t delivers = 0;

  void operator+=(const LayerTotals& o) {
    step_ns += o.step_ns;
    step_self_ns += o.step_self_ns;
    begin_ns += o.begin_ns;
    deliver_ns += o.deliver_ns;
    steps += o.steps;
    begins += o.begins;
    delivers += o.delivers;
  }
};

LayerTotals tally(const SpanTracer& t, std::size_t first) {
  LayerTotals out;
  const std::vector<Span>& spans = t.spans();
  const std::vector<std::int64_t> self = t.self_times(first);
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const bool in_step =
        s.parent >= 0 &&
        spans[static_cast<std::size_t>(s.parent)].kind == SpanKind::Step;
    if (s.kind == SpanKind::Step) {
      out.step_ns += s.duration();
      out.step_self_ns += self[i - first];
      ++out.steps;
    } else if (s.kind == SpanKind::BeginCycle && in_step) {
      out.begin_ns += s.duration();
      ++out.begins;
    } else if (s.kind == SpanKind::OnDelivered && in_step) {
      out.deliver_ns += s.duration();
      ++out.delivers;
    }
  }
  return out;
}

/// Per-layer samples of the workload callbacks and the network step,
/// from the summed totals of a traced rep.
void add_step_layers(WorkloadResult& r, const LayerTotals& t, int nodes) {
  if (t.steps == 0) return;
  const auto steps = static_cast<double>(t.steps);
  add(r, "workload.begin_cycle_ns",
      static_cast<double>(t.begin_ns) / static_cast<double>(t.begins));
  add(r, "workload.on_delivered_ns",
      t.delivers == 0 ? 0.0
                      : static_cast<double>(t.deliver_ns) /
                            static_cast<double>(t.delivers));
  add(r, "workload.on_delivered_per_cycle",
      static_cast<double>(t.delivers) / steps);
  add(r, "workload.share", static_cast<double>(t.begin_ns + t.deliver_ns) /
                               static_cast<double>(t.step_ns));
  add(r, "network.step_ns_per_node_cycle",
      static_cast<double>(t.step_ns) / (steps * nodes));
}

/// Mean host time of one derive_energy_params call over `cfgs`, in µs.
double derive_energy_us(const std::vector<SimConfig>& cfgs) {
  constexpr int kRounds = 200;
  volatile double sink = 0.0;
  const std::int64_t t0 = now_ns();
  for (int round = 0; round < kRounds; ++round) {
    for (const SimConfig& cfg : cfgs) {
      sink = sink + derive_energy_params(cfg).link_pj;
    }
  }
  const std::int64_t t1 = now_ns();
  return static_cast<double>(t1 - t0) * 1e-3 /
         static_cast<double>(kRounds * cfgs.size());
}

/// Serialized RunStats plus the whole-run conservation counters: byte
/// equality is the determinism gate (doubles compare by bit pattern).
std::vector<std::uint8_t> outcome_bytes(const RunStats& s, const Network& net) {
  SnapshotWriter w;
  save_run_stats(w, s);
  w.u64(net.flits_created());
  w.u64(net.flits_delivered());
  return w.take();
}

struct SimRun {
  RunStats stats;
  std::vector<std::uint8_t> bytes;
  double setup_s = 0.0;
  double window_s = 0.0;
  /// Reference pass time, averaged over passes just before and after
  /// the window (host_speed.hpp); 0 for a sharded network, whose times
  /// stay raw.
  double reference_s = 0.0;
  std::uint64_t window_cycles = 0;
  std::uint64_t flit_events = 0;  ///< injections + link traversals + ejections
  /// Every flit created was delivered and returned to the pool.
  bool conserved = true;
  // Traced runs only.
  LayerTotals layers;
  double snapshot_save_ms = 0.0;
  double snapshot_restore_ms = 0.0;
  std::size_t snapshot_bytes = 0;
};

/// One simulation: set-up (construction and first cycle), untimed
/// warmup, timed window (bracketed by reference passes unless sharded),
/// then finish_open_loop's drain (none when cfg.drain_cycles is 0).
/// Traced runs record a span per window step and, with `snapshot_probe`,
/// time a save/restore round trip of the warmed network.
SimRun run_sim(const SimConfig& cfg, SpanTracer* t, bool snapshot_probe) {
  const bool single_thread = cfg.shards <= 1;
  SimRun out;
  const std::size_t first = t != nullptr ? t->spans().size() : 0;
  std::unique_ptr<Mesh> mesh;
  std::unique_ptr<WorkloadModel> inner;
  std::unique_ptr<TimedWorkload> timed;
  std::unique_ptr<Network> net;
  WorkloadModel* workload = nullptr;
  const std::int64_t s0 = now_ns();
  {
    ScopedSpan span(t, SpanKind::Setup);
    mesh = std::make_unique<Mesh>(cfg.mesh_width, cfg.mesh_height, cfg.torus);
    inner = make_workload(cfg, *mesh);
    workload = inner.get();
    if (t != nullptr) {
      timed = std::make_unique<TimedWorkload>(*inner, *t);
      workload = timed.get();
    }
    net = std::make_unique<Network>(cfg);
    net->set_workload(workload);
    advance_open_loop(*net, 1);
  }
  out.setup_s = secs(s0, now_ns());
  {
    ScopedSpan span(t, SpanKind::Warmup);
    advance_open_loop(*net, cfg.warmup_cycles);
  }
  if (t != nullptr && snapshot_probe) {
    std::vector<std::uint8_t> snap;
    const std::int64_t a = now_ns();
    {
      ScopedSpan span(t, SpanKind::SnapshotSave);
      snap = net->snapshot();
    }
    const std::int64_t b = now_ns();
    {
      ScopedSpan span(t, SpanKind::SnapshotRestore);
      net->restore(snap);
    }
    out.snapshot_save_ms = secs(a, b) * 1e3;
    out.snapshot_restore_ms = secs(b, now_ns()) * 1e3;
    out.snapshot_bytes = snap.size();
  }

  const Cycle end = cfg.warmup_cycles + cfg.measure_cycles;
  const std::uint64_t events0 =
      net->flits_created() + net->flits_delivered() + link_sends(*net);
  const Cycle c0 = net->now();
  const double ref0 = single_thread ? reference_seconds() : 0.0;
  const std::int64_t w0 = now_ns();
  if (t == nullptr) {
    advance_open_loop(*net, end);
  } else {
    // advance_open_loop re-derives its energy gate from the clock, so
    // one call per cycle simulates exactly what one call to `end` does.
    ScopedSpan window(t, SpanKind::Window);
    while (net->now() < end) {
      ScopedSpan step(t, SpanKind::Step);
      advance_open_loop(*net, net->now() + 1);
    }
  }
  out.window_s = secs(w0, now_ns());
  if (single_thread) out.reference_s = (ref0 + reference_seconds()) / 2.0;
  out.window_cycles = net->now() - c0;
  out.flit_events = net->flits_created() + net->flits_delivered() +
                    link_sends(*net) - events0;

  {
    ScopedSpan span(t, SpanKind::Drain);
    out.stats = finish_open_loop(*net, *workload);
  }
  out.conserved = net->flits_created() == net->flits_delivered() &&
                  net->flit_pool_live() == 0;
  out.bytes = outcome_bytes(out.stats, *net);
  if (t != nullptr) out.layers = tally(*t, first);
  return out;
}

/// Host times of one rep's timed batch.
struct RepTimes {
  /// Speed-corrected if single-threaded (host_speed.hpp), else raw.
  double batch_s = 0.0;
  double wall_s = 0.0;  ///< as measured
  /// Reference pass time that corrected it; 0 when it stays raw.
  double reference_s = 0.0;
};

/// Runs reps until the time budget is spent (at least two, or three for
/// an untraced full run, so every rep after the first is gated against
/// rep 0).  A traced run alternates untraced and traced reps; each pair
/// gives one traced / untraced throughput ratio.  `rep(i, tracer)`
/// returns the rep's RepTimes.
template <typename Rep>
void run_reps(const PerfOptions& opt, WorkloadResult& r, Rep&& rep) {
  std::unique_ptr<SpanTracer> tracer;
  if (opt.trace) tracer = std::make_unique<SpanTracer>(kSpanCapacity);
  const int min_reps = opt.trace || opt.quick ? 2 : 3;
  const std::int64_t start = now_ns();
  double untraced_batch = 0.0;
  std::vector<double> walls;
  std::vector<double> references;
  for (int i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    if (traced) tracer->clear();
    const RepTimes times = rep(i, traced ? tracer.get() : nullptr);
    walls.push_back(times.wall_s);
    references.push_back(times.reference_s);
    if (traced) {
      add(r, "trace.throughput_ratio", untraced_batch / times.batch_s);
      add(r, "host.batch_wall_s", times.wall_s);
      if (times.reference_s > 0.0) {
        add(r, "host.reference_ms", 1e3 * times.reference_s);
      }
      if (tracer->dropped() > 0) {
        gate(r, false, "span buffer overflowed (" +
                           std::to_string(tracer->dropped()) + " spans)");
      }
      if (i == 1 && !opt.trace_file.empty()) {
        std::FILE* f = std::fopen(opt.trace_file.c_str(), "w");
        const bool ok = f != nullptr && tracer->write_jsonl(f, r.workload);
        if (f != nullptr) std::fclose(f);
        gate(r, ok, "writing span file " + opt.trace_file);
      }
    } else {
      untraced_batch = times.batch_s;
    }
    // Stop before a rep that would end past the budget.
    const double elapsed = secs(start, now_ns());
    if (i + 1 >= min_reps && elapsed * (i + 2) / (i + 1) > opt.seconds) break;
  }
  std::fprintf(stderr,
               "dxbar_perf: %s: %zu reps, raw batch wall median %.4f s, "
               "reference pass median %.3f ms\n",
               r.workload.c_str(), walls.size(), summarize(walls).median,
               1e3 * summarize(references).median);
}

/// Peak resident set of this process image, in MiB: VmHWM, which starts
/// afresh at exec.  (getrusage's ru_maxrss survives exec, so it would
/// report the launcher's footprint whenever that is the larger.)
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string rep_label(const std::string& workload, const std::string& part,
                      int rep) {
  return workload + "/" + part + "/rep" + std::to_string(rep);
}

/// open_ur_8x8 and closed_coherence_8x8: every design on the 8x8 mesh,
/// one drained run per design per rep.
void design_mix(const SimConfig& base, const PerfOptions& opt,
                WorkloadResult& r) {
  const std::vector<std::string>& names = design_names();
  std::vector<SimConfig> cfgs;
  for (const std::string& d : names) {
    SimConfig cfg = base;
    if (!parse_design(d, cfg.design)) {
      throw std::invalid_argument("unknown design " + d);
    }
    cfgs.push_back(cfg);
  }
  std::vector<std::vector<std::uint8_t>> rep0(cfgs.size());
  run_reps(opt, r, [&](int rep, SpanTracer* t) {
    double wall_s = 0.0;
    double batch_s = 0.0;
    double setup_wall_s = 0.0;
    double reference_s = 0.0;
    SimOutputs sim;
    LayerTotals all;
    std::vector<double> cycles_per_s;
    double events = 0.0;
    for (std::size_t d = 0; d < cfgs.size(); ++d) {
      const std::string label = rep_label(r.workload, names[d], rep);
      if (t != nullptr) t->begin_run(label);
      const SimRun run = run_sim(cfgs[d], t, names[d] == "dxbar");
      if (rep == 0) rep0[d] = run.bytes;
      std::string why;
      if (!run.stats.drained) why += " did not drain;";
      if (!run.conserved) why += " flits not conserved;";
      if (run.bytes != rep0[d]) why += " RunStats differ from rep 0;";
      gate(r, why.empty(), label + ":" + why);

      wall_s += run.window_s;
      batch_s += speed_corrected(run.window_s, run.reference_s);
      setup_wall_s += run.setup_s;
      reference_s += run.reference_s / static_cast<double>(cfgs.size());
      sim.add_run(run.stats);
      if (t == nullptr) continue;
      const std::string prefix = "router." + names[d] + ".";
      add(r, prefix + "step_self_ns",
          static_cast<double>(run.layers.step_self_ns) /
              static_cast<double>(run.layers.steps));
      add(r, prefix + "flit_events_per_cycle",
          static_cast<double>(run.flit_events) /
              static_cast<double>(run.window_cycles));
      add(r, prefix + "deflections_per_flit", run.stats.deflections_per_flit);
      all += run.layers;
      cycles_per_s.push_back(static_cast<double>(run.window_cycles) /
                             run.window_s);
      events += static_cast<double>(run.flit_events);
      if (names[d] == "dxbar") {
        add(r, "snapshot.save_ms", run.snapshot_save_ms);
        add(r, "snapshot.restore_ms", run.snapshot_restore_ms);
        add(r, "snapshot.bytes", static_cast<double>(run.snapshot_bytes));
      }
    }
    add(r, "batch_s", batch_s);
    add(r, "setup_s", speed_corrected(setup_wall_s, reference_s));
    sim.report(r);
    if (t != nullptr) {
      add_step_layers(r, all, base.num_nodes());
      add(r, "network.setup_ms",
          1e3 * setup_wall_s / static_cast<double>(cfgs.size()));
      add(r, "power.derive_energy_us", derive_energy_us(cfgs));
      add(r, "sim.cycles_per_s", geomean(cycles_per_s));
      add(r, "sim.flit_events_per_s", events / wall_s);
    }
    return RepTimes{batch_s, wall_s, reference_s};
  });
}

SimConfig mesh_8x8(const PerfOptions& opt) {
  SimConfig cfg;
  cfg.mesh_width = 8;
  cfg.mesh_height = 8;
  cfg.pattern = TrafficPattern::UniformRandom;
  cfg.offered_load = 0.30;
  cfg.warmup_cycles = opt.quick ? 100 : 1000;
  cfg.measure_cycles = opt.quick ? 300 : 5000;
  cfg.seed = opt.seed;
  return cfg;
}

void open_ur_8x8(const PerfOptions& opt, WorkloadResult& r) {
  design_mix(mesh_8x8(opt), opt, r);
}

void closed_coherence_8x8(const PerfOptions& opt, WorkloadResult& r) {
  SimConfig cfg = mesh_8x8(opt);
  for (const char* o : {"workload=closedloop", "mlp=1", "read_fraction=0.7",
                        "service_delay=8"}) {
    if (const std::string err = apply_override(cfg, o); !err.empty()) {
      throw std::invalid_argument(err);
    }
  }
  design_mix(cfg, opt, r);
}

/// sharded_64x64: one DXbar mesh simulated at 4 shards every rep.  Rep 0
/// and every traced rep also run it at 1 shard over the same window and
/// compare the pair bit for bit (later reps match rep 0, so the pair
/// holds for them too).  The mesh runs far past saturation and is not
/// drained (drain_cycles = 0).
void sharded_64x64(const PerfOptions& opt, WorkloadResult& r) {
  SimConfig cfg;
  cfg.mesh_width = cfg.mesh_height = opt.quick ? 16 : 64;
  cfg.design = RouterDesign::DXbar;
  cfg.routing = RoutingAlgo::DOR;
  cfg.pattern = TrafficPattern::UniformRandom;
  cfg.offered_load = 0.30;
  cfg.warmup_cycles = opt.quick ? 50 : 200;
  cfg.measure_cycles = opt.quick ? 100 : 600;
  cfg.drain_cycles = 0;
  cfg.seed = opt.seed;
  const int wide = static_cast<int>(
      std::max(1U, std::min(kWorkloadThreads, opt.host_threads)));
  std::vector<std::uint8_t> rep0_bytes;
  const auto run_at = [&](int shards, int rep, SpanTracer* t) {
    SimConfig c = cfg;
    c.shards = shards;
    const std::string label =
        rep_label(r.workload, "shards" + std::to_string(shards), rep);
    if (t != nullptr) t->begin_run(label);
    SimRun run = run_sim(c, t, shards == wide);
    if (rep0_bytes.empty()) rep0_bytes = run.bytes;
    gate(r, run.bytes == rep0_bytes,
         label + ": RunStats differ from rep 0 at shards=" +
             std::to_string(wide));
    return run;
  };
  run_reps(opt, r, [&](int rep, SpanTracer* t) {
    const SimRun many = run_at(wide, rep, t);
    SimRun one;
    if (rep == 0 || t != nullptr) one = run_at(1, rep, t);

    // Four threads: raw times (host_speed.hpp).
    add(r, "batch_s", many.window_s);
    add(r, "setup_s", many.setup_s);
    SimOutputs sim;
    sim.add_run(many.stats);
    sim.report(r);
    if (t != nullptr) {
      const double cps1 = static_cast<double>(one.window_cycles) / one.window_s;
      const double cpsn =
          static_cast<double>(many.window_cycles) / many.window_s;
      const double speedup = cpsn / cps1;
      const double p = wide;
      add(r, "shard.cycles_per_s_1", cps1);
      add(r, "shard.cycles_per_s_4", cpsn);
      add(r, "shard.speedup", speedup);
      add(r, "shard.parallel_efficiency", speedup / p);
      add(r, "shard.karp_flatt_serial_fraction",
          wide > 1 ? (1.0 / speedup - 1.0 / p) / (1.0 - 1.0 / p) : 1.0);
      add(r, "shard.serial_callback_share",
          static_cast<double>(many.layers.begin_ns + many.layers.deliver_ns) /
              static_cast<double>(many.layers.step_ns));
      // The single-shard run is the per-node work, comparable with the
      // 8x8 workloads.
      add(r, "router.dxbar.step_self_ns",
          static_cast<double>(one.layers.step_self_ns) /
              static_cast<double>(one.layers.steps));
      add(r, "router.dxbar.flit_events_per_cycle",
          static_cast<double>(one.flit_events) /
              static_cast<double>(one.window_cycles));
      add(r, "router.dxbar.deflections_per_flit",
          one.stats.deflections_per_flit);
      add_step_layers(r, one.layers, cfg.num_nodes());
      add(r, "network.setup_ms", 1e3 * (one.setup_s + many.setup_s) / 2.0);
      add(r, "power.derive_energy_us", derive_energy_us({cfg}));
      add(r, "sim.cycles_per_s", cpsn);
      add(r, "sim.flit_events_per_s",
          static_cast<double>(many.flit_events) / many.window_s);
      add(r, "snapshot.save_ms", many.snapshot_save_ms);
      add(r, "snapshot.restore_ms", many.snapshot_restore_ms);
      add(r, "snapshot.bytes", static_cast<double>(many.snapshot_bytes));
    }
    return RepTimes{many.window_s, many.window_s, 0.0};
  });
}

/// session_seeds4: what `dxbar_bench <5 experiments> --quick --seeds 4
/// --threads 4 --json DIR` does, in process, with one session-wide warm
/// cache per rep; the JSON is then read back and diffed by the report
/// layer.  Set-up is building the experiment grids plus one network (and
/// its first cycle) per distinct structural configuration in them.
void session_seeds4(const PerfOptions& opt, WorkloadResult& r) {
  std::vector<const exp::Experiment*> exps;
  for (const std::string& name : session_experiment_names()) {
    const exp::Experiment* e = exp::Registry::instance().find(name);
    if (e == nullptr) throw std::invalid_argument("no experiment " + name);
    exps.push_back(e);
  }
  exp::BenchArgs args;
  args.quick = true;
  // The smoke run shrinks the windows below --quick's; a measured rep
  // uses --quick's own.
  if (opt.quick) args.overrides = {"warmup=50", "measure=100", "drain=300"};
  args.overrides.push_back("seed=" + std::to_string(opt.seed));
  exp::RunOptions ro;
  if (const std::string err = exp::make_base_config(args, ro.base);
      !err.empty()) {
    throw std::invalid_argument(err);
  }
  ro.quick = true;
  ro.threads = std::max(1U, std::min(kWorkloadThreads, opt.host_threads));
  ro.seeds = 4;
  ro.json_dir = opt.work_dir + "/session_json";
  ro.overrides = args.overrides;
  std::filesystem::remove_all(ro.json_dir);

  std::vector<std::string> rep0_json(exps.size());
  std::vector<report::ResultDoc> rep0_docs;
  run_reps(opt, r, [&](int rep, SpanTracer* t) {
    if (t != nullptr) t->begin_run(rep_label(r.workload, "session", rep));

    std::vector<SimConfig> grid_cfgs;
    std::size_t networks = 0;
    const double setup_ref0 = reference_seconds();
    const std::int64_t s0 = now_ns();
    {
      ScopedSpan span(t, SpanKind::Setup);
      exp::RunContext ctx;
      ctx.base = ro.base;
      ctx.quick = ro.quick;
      ctx.threads = ro.threads;
      std::set<std::uint64_t> built;
      for (const exp::Experiment* e : exps) {
        if (!e->grid) continue;
        for (const SimConfig& cfg : e->grid(ctx)) {
          grid_cfgs.push_back(cfg);
          if (!built.insert(structural_fingerprint(cfg)).second) continue;
          const Mesh mesh(cfg.mesh_width, cfg.mesh_height, cfg.torus);
          const auto workload = make_workload(cfg, mesh);
          Network net(cfg);
          net.set_workload(workload.get());
          advance_open_loop(net, 1);
          ++networks;
        }
      }
    }
    const double setup_wall_s = secs(s0, now_ns());
    const double setup_ref_s = (setup_ref0 + reference_seconds()) / 2.0;

    // The batch, on four threads and so timed raw (host_speed.hpp): one
    // experiment at a time, then the report round trip.
    WarmupCache cache;
    ro.warm_cache = &cache;
    std::vector<exp::ExperimentResult> results;
    std::vector<double> exp_s;
    std::vector<bool> written;
    double write_s = 0.0;
    double wall_s = 0.0;
    for (const exp::Experiment* e : exps) {
      const std::int64_t e0 = now_ns();
      {
        ScopedSpan span(t, SpanKind::ExpExecute);
        results.push_back(exp::execute(*e, ro));
      }
      const std::int64_t e1 = now_ns();
      {
        ScopedSpan span(t, SpanKind::ExpWriteJson);
        written.push_back(exp::write_json_result(*e, results.back(), ro));
      }
      const std::int64_t e2 = now_ns();
      exp_s.push_back(secs(e0, e1));
      write_s += secs(e1, e2);
      wall_s += secs(e0, e2);
    }
    std::vector<report::ResultDoc> docs;
    std::string load_err;
    report::DiffReport diff;
    const std::int64_t l0 = now_ns();
    {
      ScopedSpan span(t, SpanKind::ReportLoad);
      load_err = report::load_result_dir(ro.json_dir, docs);
    }
    const std::int64_t l1 = now_ns();
    {
      ScopedSpan span(t, SpanKind::ReportDiff);
      diff = report::diff_results(rep == 0 ? docs : rep0_docs, docs);
    }
    const std::int64_t l2 = now_ns();
    wall_s += secs(l0, l2);

    SimOutputs sim;
    std::size_t points = 0;
    for (std::size_t i = 0; i < exps.size(); ++i) {
      const std::string label = rep_label(r.workload, exps[i]->name, rep);
      const std::string json =
          read_file(ro.json_dir + "/" + exps[i]->name + ".json");
      if (rep == 0) rep0_json[i] = json;
      std::string why;
      if (results[i].exit_code != 0) why += " exit code nonzero;";
      if (!written[i] || json.empty()) why += " JSON not written;";
      if (json != rep0_json[i]) why += " JSON differs from rep 0;";
      gate(r, why.empty(), label + ":" + why);
      for (const RunStats& s : results[i].grid_stats) sim.add_run(s);
      points += results[i].grid.size();
    }
    const bool round_trip =
        load_err.empty() && docs.size() == exps.size() &&
        diff.count(report::DiffClass::Identical) == exps.size();
    gate(r, round_trip,
         rep_label(r.workload, "report", rep) +
             ": JSON reload or diff against rep 0 not identical " + load_err);
    if (rep == 0) rep0_docs = std::move(docs);

    add(r, "batch_s", wall_s);
    add(r, "setup_s", speed_corrected(setup_wall_s, setup_ref_s));
    sim.report(r);
    if (t != nullptr) {
      for (std::size_t i = 0; i < exps.size(); ++i) {
        add(r, "exp." + exps[i]->name + ".s", exp_s[i]);
      }
      add(r, "exp.points", static_cast<double>(points));
      add(r, "exp.points_per_s", static_cast<double>(points) / wall_s);
      add(r, "exp.write_json_ms", 1e3 * write_s);
      add(r, "report.load_ms", 1e3 * secs(l0, l1));
      add(r, "report.diff_ms", 1e3 * secs(l1, l2));
      const auto hits = static_cast<double>(cache.hits());
      const auto misses = static_cast<double>(cache.misses());
      add(r, "warm_cache.hits", hits);
      add(r, "warm_cache.misses", misses);
      add(r, "warm_cache.hit_ratio",
          hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
      add(r, "network.setup_ms",
          1e3 * setup_wall_s / static_cast<double>(networks));
      add(r, "power.derive_energy_us", derive_energy_us(grid_cfgs));
    }
    ro.warm_cache = nullptr;
    return RepTimes{wall_s, wall_s, 0.0};
  });
  std::filesystem::remove_all(ro.json_dir);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> v = {
      "open_ur_8x8", "closed_coherence_8x8", "sharded_64x64",
      "session_seeds4"};
  return v;
}

WorkloadResult run_workload(const std::string& name, const PerfOptions& opt) {
  WorkloadResult r;
  r.workload = name;
  r.seed = opt.seed;
  r.seconds = opt.seconds;
  r.trace = opt.trace;
  r.quick = opt.quick;
  r.host_threads = opt.host_threads;
  r.underprovisioned = opt.host_threads < kWorkloadThreads;
  if (name == "open_ur_8x8") {
    open_ur_8x8(opt, r);
  } else if (name == "closed_coherence_8x8") {
    closed_coherence_8x8(opt, r);
  } else if (name == "sharded_64x64") {
    sharded_64x64(opt, r);
  } else if (name == "session_seeds4") {
    session_seeds4(opt, r);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  add(r, "peak_rss_mb", peak_rss_mib());
  return r;
}

}  // namespace dxbar::perf
