#include "exp/runner.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <iterator>
#include <set>
#include <thread>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "report/analysis.hpp"
#include "sim/campaign.hpp"
#include "sim/replica_batch.hpp"
#include "sim/sweep.hpp"

#ifndef DXBAR_GIT_DESCRIBE
#define DXBAR_GIT_DESCRIBE "unknown"
#endif
#ifndef DXBAR_SOURCE_DIR
#define DXBAR_SOURCE_DIR "."
#endif

namespace dxbar::exp {

std::string_view git_describe() { return DXBAR_GIT_DESCRIBE; }

BenchArgs parse_bench_args(std::span<const char* const> args) {
  BenchArgs out;
  auto need_value = [&](std::size_t& i, const char* flag,
                        std::string& dst) -> bool {
    if (i + 1 >= args.size()) {
      out.error = std::string(flag) + " requires a value";
      return false;
    }
    dst = args[++i];
    return true;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const char* a = args[i];
    if (std::strcmp(a, "--list") == 0) {
      out.list = true;
    } else if (std::strcmp(a, "--all") == 0) {
      out.all = true;
    } else if (std::strcmp(a, "--quick") == 0) {
      out.quick = true;
    } else if (std::strcmp(a, "--csv") == 0) {
      if (!need_value(i, "--csv", out.csv_dir)) return out;
    } else if (std::strcmp(a, "--json") == 0) {
      if (!need_value(i, "--json", out.json_dir)) return out;
    } else if (std::strcmp(a, "--resume") == 0) {
      if (!need_value(i, "--resume", out.resume_dir)) return out;
    } else if (std::strcmp(a, "--filter") == 0) {
      if (!need_value(i, "--filter", out.filter)) return out;
    } else if (std::strcmp(a, "--threads") == 0) {
      std::string v;
      if (!need_value(i, "--threads", v)) return out;
      char* end = nullptr;
      const unsigned long n = std::strtoul(v.c_str(), &end, 10);
      if (end != v.c_str() + v.size()) {
        out.error = "bad --threads value '" + v + "'";
        return out;
      }
      out.threads = static_cast<unsigned>(n);
    } else if (std::strcmp(a, "--seeds") == 0) {
      std::string v;
      if (!need_value(i, "--seeds", v)) return out;
      char* end = nullptr;
      const long n = std::strtol(v.c_str(), &end, 10);
      if (end != v.c_str() + v.size() || n < 1) {
        out.error = "bad --seeds value '" + v + "' (want an integer >= 1)";
        return out;
      }
      out.seeds = static_cast<int>(n);
    } else if (std::strchr(a, '=') != nullptr) {
      out.overrides.emplace_back(a);
    } else if (a[0] == '-') {
      out.error = "unknown option '" + std::string(a) + "'";
      return out;
    } else {
      out.experiments.emplace_back(a);
    }
  }
  return out;
}

std::string make_base_config(const BenchArgs& args, SimConfig& out) {
  out = SimConfig{};
  out.warmup_cycles = 1000;
  out.measure_cycles = 4000;
  out.drain_cycles = 6000;
  if (args.quick) {
    out.warmup_cycles = 300;
    out.measure_cycles = 1200;
    out.drain_cycles = 2000;
  }
  // Overrides are applied after the quick defaults so an explicit
  // `warmup_cycles=...` on the command line wins regardless of where it
  // appeared relative to --quick.
  for (const std::string& o : args.overrides) {
    if (const auto err = apply_override(out, o); !err.empty()) return err;
  }
  // Validate here, once, so every experiment — including custom `run`
  // ones that never construct a Network — rejects a bad base config
  // (e.g. tech=99) with a clean error instead of deriving from a
  // silently-defaulted value.
  return out.validate();
}

namespace {

/// Short human signature of a warm group (for the grouping log).
std::string group_signature(const SimConfig& cfg) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s/%s %s warmup %llu @ load %.3g",
                std::string(to_string(cfg.design)).c_str(),
                std::string(to_string(cfg.routing)).c_str(),
                std::string(to_string(cfg.pattern)).c_str(),
                static_cast<unsigned long long>(cfg.warmup_cycles),
                cfg.warmup_load);
  return buf;
}

std::vector<RunStats> sweep_warm(const std::string& exp_name,
                                 const std::vector<SimConfig>& configs,
                                 unsigned threads, WarmupCache* cache,
                                 std::size_t& groups_out) {
  SweepReport report;
  auto stats = run_sweep(configs, threads, cache, &report);
  groups_out = report.groups.size();
  if (!report.groups.empty() || report.priced_points > 0) {
    std::fprintf(stderr,
                 "dxbar_bench: %s: warm-sweep formed %zu group(s) over %zu "
                 "points (%zu warm, %zu cold, %zu priced)\n",
                 exp_name.c_str(), report.groups.size(), configs.size(),
                 report.warm_points(), report.cold_points,
                 report.priced_points);
    for (std::size_t g = 0; g < report.groups.size(); ++g) {
      std::fprintf(
          stderr, "dxbar_bench: %s:   group %zu: %zu point(s), %s\n",
          exp_name.c_str(), g, report.groups[g].size(),
          group_signature(configs[report.groups[g].front()]).c_str());
    }
  }
  if (cache != nullptr && report.cache_hits + report.cache_misses > 0) {
    std::fprintf(stderr,
                 "dxbar_bench: %s: warm cache: %zu hit(s), %zu miss(es)\n",
                 exp_name.c_str(), report.cache_hits, report.cache_misses);
  }
  return stats;
}

/// Rejects the first config of a sweep that SimConfig::validate refuses,
/// before any point simulates: one line naming the experiment, the point
/// index, the design and the reason, then exit 2 (the bad-config code).
void validate_sweep(const std::string& exp_name,
                    const std::vector<SimConfig>& configs) {
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (const std::string err = configs[i].validate(); !err.empty()) {
      std::fprintf(stderr, "dxbar_bench: %s: point %zu (%s): %s\n",
                   exp_name.c_str(), i,
                   std::string(to_string(configs[i].design)).c_str(),
                   err.c_str());
      std::exit(2);
    }
  }
}

std::vector<RunStats> sweep_campaign(const std::string& exp_name,
                                     const std::vector<SimConfig>& configs,
                                     const std::string& resume_root) {
  namespace fs = std::filesystem;
  const std::string dir = resume_root + "/" + exp_name;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "dxbar_bench: cannot create campaign dir %s: %s\n",
                 dir.c_str(), ec.message().c_str());
    std::exit(1);
  }
  Campaign campaign(configs, dir);
  const CampaignStatus before = campaign.status();
  std::fprintf(stderr,
               "dxbar_bench: %s: campaign of %zu point(s) in %s, %zu "
               "already complete\n",
               exp_name.c_str(), before.total, dir.c_str(), before.completed);
  const CampaignStatus after = campaign.run();
  if (!after.finished) {
    std::fprintf(stderr, "dxbar_bench: %s: campaign incomplete (%zu/%zu)\n",
                 exp_name.c_str(), after.completed, after.total);
    std::exit(1);
  }
  std::vector<RunStats> stats;
  stats.reserve(configs.size());
  for (const auto& r : campaign.results()) stats.push_back(*r);
  return stats;
}

}  // namespace

std::string select_experiments(const BenchArgs& args,
                               std::vector<const Experiment*>& out) {
  out.clear();
  const auto add = [&](const Experiment* e) {
    for (const Experiment* have : out) {
      if (have == e) return;
    }
    out.push_back(e);
  };
  if (args.all) {
    for (const Experiment* e : Registry::instance().all()) add(e);
  }
  if (!args.filter.empty()) {
    bool matched = false;
    for (const Experiment* e : Registry::instance().all()) {
      if (glob_match(args.filter, e->name)) {
        add(e);
        matched = true;
      }
    }
    if (!matched) {
      std::string err = "--filter '" + args.filter +
                        "' matches no registered experiment; registered:";
      for (const Experiment* e : Registry::instance().all()) {
        err += "\n  " + e->name;
      }
      return err;
    }
  }
  for (const std::string& name : args.experiments) {
    const Experiment* e = Registry::instance().find(name);
    if (e == nullptr) {
      return "unknown experiment '" + name + "' (see --list)";
    }
    add(e);
  }
  return {};
}

namespace {

/// Per-design simulation rates from the committed perf-kernel baseline.
struct KernelBaseline {
  std::vector<std::pair<std::string, double>> rates;  ///< name -> cycles/sec
  double slowest = 0.0;
  std::string source;  ///< empty = no baseline found
  // The baseline's recorded measurement config (0 / negative when the
  // file predates the config block).  Per-cycle cost scales with the
  // node count, so each point's ETA is scaled from `nodes`; a differing
  // load is called out rather than silently producing off-scale ETAs.
  int nodes = 0;
  double offered_load = -1.0;
};

KernelBaseline load_kernel_baseline() {
  KernelBaseline kb;
  for (const char* path :
       {"BENCH_kernel.json", DXBAR_SOURCE_DIR "/BENCH_kernel.json"}) {
    std::ifstream in(path);
    if (!in) continue;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    JsonValue root;
    if (!json_parse(text, root).empty() ||
        root.type != JsonValue::Type::Object) {
      continue;
    }
    const JsonValue* results = root.find("results");
    if (results == nullptr || results->type != JsonValue::Type::Array) {
      continue;
    }
    for (const JsonValue& item : results->items) {
      if (item.type != JsonValue::Type::Object) continue;
      const JsonValue* name = item.find("name");
      const JsonValue* rate = item.find("cycles_per_sec");
      if (name == nullptr || rate == nullptr ||
          name->type != JsonValue::Type::String) {
        continue;
      }
      const double r = rate->as_double();
      if (r > 0.0) kb.rates.emplace_back(name->scalar, r);
    }
    if (!kb.rates.empty()) {
      kb.source = path;
      kb.slowest = kb.rates.front().second;
      for (const auto& [n, r] : kb.rates) kb.slowest = std::min(kb.slowest, r);
      if (const JsonValue* config = root.find("config");
          config != nullptr && config->type == JsonValue::Type::Object) {
        int w = 0, h = 0;
        if (const JsonValue* mesh = config->find("mesh");
            mesh != nullptr && mesh->type == JsonValue::Type::String &&
            std::sscanf(mesh->scalar.c_str(), "%dx%d", &w, &h) == 2 &&
            w > 0 && h > 0) {
          kb.nodes = w * h;
        }
        if (const JsonValue* load = config->find("offered_load");
            load != nullptr) {
          kb.offered_load = load->as_double();
        }
      }
      break;
    }
  }
  return kb;
}

/// Baseline rate for a design, or nullptr when the baseline never
/// measured it.  The kernel file abbreviates some names ("Unified" for
/// "Unified Xbar"), so a whole-word prefix also matches.
const double* find_rate(const KernelBaseline& kb, RouterDesign d) {
  const std::string label(to_string(d));
  for (const auto& [name, rate] : kb.rates) {
    if (name == label) return &rate;
    if (label.size() > name.size() &&
        label.compare(0, name.size(), name) == 0 &&
        label[name.size()] == ' ') {
      return &rate;
    }
  }
  return nullptr;
}

/// find_rate with the slowest measured design as the conservative ETA
/// fallback for unmeasured ones.
double rate_for(const KernelBaseline& kb, RouterDesign d) {
  const double* r = find_rate(kb, d);
  return r != nullptr ? *r : kb.slowest;
}

std::string fmt_eta(double seconds) {
  char buf[32];
  if (seconds >= 90.0) {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f s", seconds);
  }
  return buf;
}

}  // namespace

void print_preflight(const std::vector<const Experiment*>& to_run,
                     const RunOptions& opt) {
  const KernelBaseline kb = load_kernel_baseline();
  RunContext ctx;
  ctx.base = opt.base;
  ctx.quick = opt.quick;
  ctx.threads = opt.threads;

  unsigned workers =
      opt.threads != 0 ? opt.threads : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;

  std::fprintf(stderr, "dxbar_bench: preflight: %zu experiment(s), %u "
                       "worker(s)%s\n",
               to_run.size(), workers,
               kb.source.empty()
                   ? "; no BENCH_kernel.json baseline, point counts only"
                   : ("; ETA from " + kb.source).c_str());
  if (kb.source.empty()) {
    std::fprintf(stderr,
                 "dxbar_bench: warning: BENCH_kernel.json not found in . or "
                 "%s — run bench/perf_kernel to record per-design rates and "
                 "get ETAs\n",
                 DXBAR_SOURCE_DIR);
  } else {
    // A baseline recorded at a different load still yields an ETA, but
    // an off-scale one; say so up front instead of letting a stale file
    // mislead silently.
    if (kb.offered_load >= 0.0 &&
        std::fabs(kb.offered_load - opt.base.offered_load) > 1e-9) {
      std::fprintf(stderr,
                   "dxbar_bench: warning: %s rates were measured at offered "
                   "load %.3g but this session's base config injects %.3g — "
                   "ETAs may be off\n",
                   kb.source.c_str(), kb.offered_load,
                   opt.base.offered_load);
    }
  }
  const unsigned long long seeds =
      static_cast<unsigned long long>(std::max(1, opt.seeds));
  double total_sec = 0.0;
  unsigned long long total_points = 0, total_simulated = 0, total_cycles = 0;
  std::vector<std::string> unmeasured;
  for (const Experiment* e : to_run) {
    if (!e->grid) {
      std::fprintf(stderr, "dxbar_bench:   %-24s custom run (no estimate)\n",
                   e->name.c_str());
      continue;
    }
    const std::vector<SimConfig> cfgs = e->grid(ctx);
    // run_sweep simulates one config per dynamics class and prices the
    // rest, so only the first member of each class costs cycles.
    std::set<std::vector<std::uint8_t>> classes;
    unsigned long long cycles = 0;
    double sec = 0.0;
    for (const SimConfig& c : cfgs) {
      if (!classes.insert(dynamics_signature(c)).second) continue;
      // Replicas share one warmup (run_sweep forks them from its
      // snapshot), so --seeds N costs one warmup plus N measurement
      // windows per point.
      const unsigned long long pt =
          c.warmup_cycles + seeds * c.measure_cycles;
      cycles += pt;
      if (!kb.source.empty()) {
        const double scale =
            kb.nodes > 0 ? static_cast<double>(c.num_nodes()) / kb.nodes
                         : 1.0;
        sec += static_cast<double>(pt) * scale / rate_for(kb, c.design);
        if (find_rate(kb, c.design) == nullptr) {
          const std::string label(to_string(c.design));
          if (std::find(unmeasured.begin(), unmeasured.end(), label) ==
              unmeasured.end()) {
            unmeasured.push_back(label);
          }
        }
      }
    }
    sec /= workers;
    const std::size_t points = cfgs.size() * seeds;
    const std::size_t simulated = classes.size() * seeds;
    total_points += points;
    total_simulated += simulated;
    total_cycles += cycles;
    total_sec += sec;
    if (kb.source.empty()) {
      std::fprintf(stderr,
                   "dxbar_bench:   %-24s %4zu points (%zu simulated), %8llu "
                   "cycles\n",
                   e->name.c_str(), points, simulated, cycles);
    } else {
      std::fprintf(stderr,
                   "dxbar_bench:   %-24s %4zu points (%zu simulated), %8llu "
                   "cycles, ETA %s\n",
                   e->name.c_str(), points, simulated, cycles,
                   fmt_eta(sec).c_str());
    }
  }
  if (!unmeasured.empty()) {
    std::string names;
    for (const std::string& n : unmeasured) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    std::fprintf(stderr,
                 "dxbar_bench: warning: %s has no rate for: %s — their ETAs "
                 "use the slowest measured design\n",
                 kb.source.c_str(), names.c_str());
  }
  if (kb.source.empty()) {
    std::fprintf(stderr,
                 "dxbar_bench: preflight total: %llu points (%llu "
                 "simulated), %llu cycles\n",
                 total_points, total_simulated, total_cycles);
  } else {
    std::fprintf(stderr,
                 "dxbar_bench: preflight total: %llu points (%llu "
                 "simulated), %llu cycles, ETA %s (estimate from per-design "
                 "kernel rates scaled by node count; drain not counted)\n",
                 total_points, total_simulated, total_cycles,
                 fmt_eta(total_sec).c_str());
  }
}

namespace {

/// Measurement seed for replica `rep` of one grid point.  Replica 0
/// keeps the config untouched (measure_seed as authored — usually 0,
/// the classic single-stream run); later replicas draw independent
/// streams from a SplitMix64 seeded by the point's own seeds, so
/// identical grid points replicate identically across sessions.
/// Nonzero by construction — zero would disable the boundary reseed.
std::uint64_t replica_measure_seed(const SimConfig& cfg, int rep) {
  SplitMix64 sm(cfg.seed ^ cfg.measure_seed);
  std::uint64_t s = 0;
  for (int r = 0; r < rep; ++r) s = sm.next();
  return s != 0 ? s : 1;
}

/// True when every replica reduced to the same block structure (same
/// table layouts).  Reducers derive tables from the grid, which is
/// identical across replicas, so a mismatch means a reducer let stats
/// leak into table *shape* — combining would misalign cells.
bool replica_results_compatible(const std::vector<ExperimentResult>& reps) {
  const auto& base = reps.front().blocks;
  for (const ExperimentResult& r : reps) {
    if (r.blocks.size() != base.size()) return false;
    for (std::size_t b = 0; b < base.size(); ++b) {
      if (r.blocks[b].kind != base[b].kind) return false;
      if (base[b].kind != Block::Kind::Table) continue;
      const Table& t0 = base[b].table;
      const Table& t = r.blocks[b].table;
      if (t.x != t0.x || t.series_labels != t0.series_labels) return false;
    }
  }
  return true;
}

}  // namespace

/// Folds N per-replica reductions into one result: every table cell
/// becomes the across-replica mean and each table gains one appended
/// "<series> ±ci95" column per original series (95% confidence
/// halfwidths).  Text blocks and table layout come from replica 0.
ExperimentResult combine_replica_results(const std::string& exp_name,
                                         std::vector<ExperimentResult> reps) {
  if (!replica_results_compatible(reps)) {
    std::fprintf(stderr,
                 "dxbar_bench: %s: replicas reduced to different table "
                 "shapes; reporting replica 0 only\n",
                 exp_name.c_str());
    return std::move(reps.front());
  }
  const int n = static_cast<int>(reps.size());
  int exit_code = 0;
  for (const ExperimentResult& r : reps) {
    exit_code = std::max(exit_code, r.exit_code);
  }
  ExperimentResult out = std::move(reps.front());
  out.exit_code = exit_code;

  std::vector<double> sample(static_cast<std::size_t>(n));
  for (std::size_t b = 0; b < out.blocks.size(); ++b) {
    if (out.blocks[b].kind != Block::Kind::Table) continue;
    Table& t = out.blocks[b].table;
    const std::size_t n_series = t.series_labels.size();
    std::vector<std::vector<double>> ci(
        n_series, std::vector<double>(t.x.size(), 0.0));
    for (std::size_t s = 0; s < n_series; ++s) {
      for (std::size_t row = 0; row < t.x.size(); ++row) {
        sample[0] = t.values[s][row];  // replica 0 was moved into `out`
        for (int rep = 1; rep < n; ++rep) {
          sample[static_cast<std::size_t>(rep)] =
              reps[static_cast<std::size_t>(rep)].blocks[b].table.values[s]
                  [row];
        }
        const MeanCi mc = mean_ci95(sample);
        t.values[s][row] = mc.mean;
        ci[s][row] = mc.ci95;
      }
    }
    for (std::size_t s = 0; s < n_series; ++s) {
      t.series_labels.push_back(t.series_labels[s] +
                                std::string(report::kCiSuffix));
      t.values.push_back(std::move(ci[s]));
    }
  }

  Block note;
  note.kind = Block::Kind::Text;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "(replicated over %d seeds: table cells are means, ±ci95 "
                "columns are 95%% confidence halfwidths; text summaries "
                "describe replica 0)\n",
                n);
  note.text = buf;
  out.blocks.insert(out.blocks.begin(), std::move(note));
  return out;
}

ExperimentResult execute(const Experiment& exp, const RunOptions& opt) {
  RunContext ctx;
  ctx.base = opt.base;
  ctx.quick = opt.quick;
  ctx.threads = opt.threads;

  ExperimentResult result;
  std::size_t warm_groups = 0;
  const bool campaign_mode = !opt.resume_dir.empty();
  ctx.sweep = [&](const std::vector<SimConfig>& configs) {
    validate_sweep(exp.name, configs);
    if (campaign_mode) {
      return sweep_campaign(exp.name, configs, opt.resume_dir);
    }
    return sweep_warm(exp.name, configs, opt.threads, opt.warm_cache,
                      warm_groups);
  };

  if (exp.grid) {
    const std::vector<SimConfig> base_grid = exp.grid(ctx);
    const int seeds = std::max(1, opt.seeds);
    // Rep-major expansion: [rep0: all points][rep1: all points]... so
    // each replica slice is structurally identical to the base grid and
    // can be fed to the reducer unchanged.  run_sweep groups the copies
    // of each point under one shared warmup.
    std::vector<SimConfig> configs = base_grid;
    if (seeds > 1) {
      configs.reserve(base_grid.size() * static_cast<std::size_t>(seeds));
      for (int rep = 1; rep < seeds; ++rep) {
        for (SimConfig cfg : base_grid) {
          cfg.measure_seed = replica_measure_seed(cfg, rep);
          configs.push_back(cfg);
        }
      }
    }
    const std::vector<RunStats> stats = ctx.sweep(configs);
    if (seeds > 1 && exp.combine) {
      // The experiment owns replica folding (e.g. pooling latency
      // histograms across replicas before taking order statistics).
      result = exp.combine(ctx, stats, seeds);
    } else if (seeds > 1) {
      const std::size_t pts = base_grid.size();
      std::vector<ExperimentResult> reps;
      reps.reserve(static_cast<std::size_t>(seeds));
      for (int rep = 0; rep < seeds; ++rep) {
        const auto begin =
            stats.begin() +
            static_cast<std::ptrdiff_t>(static_cast<std::size_t>(rep) * pts);
        reps.push_back(exp.reduce(
            ctx, std::vector<RunStats>(
                     begin, begin + static_cast<std::ptrdiff_t>(pts))));
      }
      result = combine_replica_results(exp.name, std::move(reps));
    } else {
      result = exp.reduce(ctx, stats);
    }
    result.grid = std::move(configs);
    result.grid_stats = stats;
    result.executor = campaign_mode ? "campaign" : "warm_sweep";
  } else {
    if (campaign_mode) {
      if (exp.custom_resume) {
        ctx.resume_dir = opt.resume_dir;
      } else {
        std::fprintf(stderr,
                     "dxbar_bench: %s: not an open-loop grid experiment; "
                     "--resume has no effect\n",
                     exp.name.c_str());
      }
    }
    if (opt.seeds > 1) {
      std::fprintf(stderr,
                   "dxbar_bench: %s: not an open-loop grid experiment; "
                   "--seeds has no effect\n",
                   exp.name.c_str());
    }
    result = exp.run(ctx);
    result.executor = "custom";
  }
  result.warm_groups = warm_groups;
  return result;
}

void print_result(const ExperimentResult& result) {
  for (const Block& b : result.blocks) {
    if (b.kind == Block::Kind::Text) {
      std::fputs(b.text.c_str(), stdout);
      continue;
    }
    const Table& t = b.table;
    std::printf("\n%s\n", t.title.c_str());
    std::printf("%-10s", t.x_label.c_str());
    for (const auto& s : t.series_labels) std::printf(" %12s", s.c_str());
    std::printf("\n");
    for (std::size_t r = 0; r < t.x.size(); ++r) {
      std::printf("%-10s", t.x[r].c_str());
      for (std::size_t c = 0; c < t.series_labels.size(); ++c) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), t.fmt.c_str(), t.values[c][r]);
        std::printf(" %12s", buf);
      }
      std::printf("\n");
    }
  }
}

namespace {

std::string slug_of(const std::string& title) {
  std::string slug;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
    if (slug.size() >= 60) break;
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

bool ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "dxbar_bench: cannot create directory %s: %s\n",
                 dir.c_str(), ec.message().c_str());
    return false;
  }
  return true;
}

}  // namespace

bool write_csv_tables(const Experiment& exp, const ExperimentResult& result,
                      const std::string& csv_dir,
                      std::vector<std::string>& used_names) {
  if (!ensure_dir(csv_dir)) return false;
  bool ok = true;
  for (const Block& b : result.blocks) {
    if (b.kind != Block::Kind::Table) continue;
    const Table& t = b.table;
    // Prefix the experiment name and disambiguate against every file
    // written this session: two tables may share a 60-char title slug,
    // but they must never overwrite each other.
    std::string name = exp.name + "_" + slug_of(t.title);
    std::string candidate = name;
    for (int n = 2;
         std::find(used_names.begin(), used_names.end(), candidate) !=
         used_names.end();
         ++n) {
      candidate = name + "_" + std::to_string(n);
    }
    used_names.push_back(candidate);

    const std::string path = csv_dir + "/" + candidate + ".csv";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "dxbar_bench: cannot open %s for writing\n",
                   path.c_str());
      ok = false;
      continue;
    }
    out << t.x_label;
    for (const auto& s : t.series_labels) out << ',' << s;
    out << '\n';
    for (std::size_t r = 0; r < t.x.size(); ++r) {
      out << t.x[r];
      for (std::size_t c = 0; c < t.series_labels.size(); ++c) {
        out << ',' << t.values[c][r];
      }
      out << '\n';
    }
    if (!out.flush()) {
      std::fprintf(stderr, "dxbar_bench: failed writing %s\n", path.c_str());
      ok = false;
    }
  }
  return ok;
}

report::ResultDoc result_doc(const Experiment& exp,
                             const ExperimentResult& result,
                             const RunOptions& opt) {
  report::ResultDoc doc;
  doc.schema_version = kJsonSchemaVersion;
  doc.experiment = exp.name;
  doc.title = exp.title;
  doc.git_describe = std::string(git_describe());
  doc.quick = opt.quick;
  doc.executor = result.executor;
  doc.warm_groups = result.warm_groups;
  doc.overrides = opt.overrides;
  doc.base_config = opt.base;
  for (const Block& b : result.blocks) {
    if (b.kind == Block::Kind::Text) {
      doc.notes += b.text;
      continue;
    }
    const Table& t = b.table;
    report::TableDoc td;
    td.title = t.title;
    td.x_label = t.x_label;
    td.x = t.x;
    for (std::size_t s = 0; s < t.series_labels.size(); ++s) {
      td.series.push_back({t.series_labels[s], t.values[s]});
    }
    doc.tables.push_back(std::move(td));
  }
  for (std::size_t i = 0; i < result.grid.size(); ++i) {
    doc.points.push_back({result.grid[i], result.grid_stats[i]});
  }
  return doc;
}

bool write_json_result(const Experiment& exp, const ExperimentResult& result,
                       const RunOptions& opt) {
  if (!ensure_dir(opt.json_dir)) return false;

  const std::string path = opt.json_dir + "/" + exp.name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "dxbar_bench: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << report::to_json(result_doc(exp, result, opt));
  if (!out.flush()) {
    std::fprintf(stderr, "dxbar_bench: failed writing %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace dxbar::exp
