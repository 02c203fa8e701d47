#include "exp/runner.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "report/analysis.hpp"
#include "sim/replica_batch.hpp"
#include "sim/results_log.hpp"
#include "sim/sweep.hpp"
#include "snapshot/serialize.hpp"

#ifndef DXBAR_GIT_DESCRIBE
#define DXBAR_GIT_DESCRIBE "unknown"
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
    out.transactions = 30;  // SPLASH work per node (workload=splash)
  }
  // Overrides are applied after the quick defaults so an explicit
  // `warmup=...` on the command line wins regardless of where it
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

/// Runs one grid through run_sweep after validate_sweep, behind the
/// session store when one is set, and logs the points the store served
/// and the warm groups the sweep formed.
std::vector<RunStats> sweep_grid(const std::string& exp_name,
                                 const std::vector<SimConfig>& configs,
                                 const RunOptions& opt,
                                 std::size_t& groups_out) {
  validate_sweep(exp_name, configs);
  SweepReport report;
  auto stats =
      run_sweep(configs, opt.threads, opt.warm_cache, &report, opt.store);
  groups_out = report.groups.size();
  const std::size_t swept =
      report.warm_points() + report.cold_points + report.priced_points;
  if (opt.store != nullptr &&
      (swept < configs.size() || !opt.store->path().empty())) {
    std::fprintf(stderr, "dxbar_bench: %s: %zu point(s), %zu served from %s\n",
                 exp_name.c_str(), configs.size(), configs.size() - swept,
                 opt.store->path().empty() ? "the session store"
                                           : opt.store->path().c_str());
  }
  if (!report.groups.empty() || report.priced_points > 0) {
    std::fprintf(stderr,
                 "dxbar_bench: %s: warm-sweep formed %zu group(s) over %zu "
                 "points (%zu warm, %zu cold, %zu priced)\n",
                 exp_name.c_str(), report.groups.size(), swept,
                 report.warm_points(), report.cold_points,
                 report.priced_points);
    for (std::size_t g = 0; g < report.groups.size(); ++g) {
      std::fprintf(
          stderr, "dxbar_bench: %s:   group %zu: %zu point(s), %s\n",
          exp_name.c_str(), g, report.groups[g].size(),
          group_signature(configs[report.groups[g].front()]).c_str());
    }
  }
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

/// The preflight's suffix for `finite` points that have no estimate.
std::string finite_note(std::size_t finite) {
  if (finite == 0) return {};
  return ", " + std::to_string(finite) +
         " finite-workload point(s) not estimated";
}

}  // namespace

void print_preflight(const std::vector<const Experiment*>& to_run,
                     const RunOptions& opt) {
  RunContext ctx;
  ctx.base = opt.base;
  ctx.quick = opt.quick;
  ctx.threads = opt.threads;

  unsigned workers =
      opt.threads != 0 ? opt.threads : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;

  std::fprintf(stderr, "dxbar_bench: preflight: %zu experiment(s), %u "
                       "worker(s)\n",
               to_run.size(), workers);
  const int seeds = std::max(1, opt.seeds);
  unsigned long long total_points = 0, total_simulated = 0, total_cycles = 0;
  std::size_t total_finite = 0;
  // Configs an earlier experiment of the session runs, which the store
  // then serves.
  std::set<std::vector<std::uint8_t>> session;
  for (const Experiment* e : to_run) {
    if (!e->axes) {
      std::fprintf(stderr, "dxbar_bench:   %-24s custom run (no estimate)\n",
                   e->name.c_str());
      continue;
    }
    const std::vector<SimConfig> cfgs =
        expand_replicas(e->axes(ctx).configs(), seeds);
    // Of the configs the store will not serve, run_sweep simulates one
    // per dynamics class and prices the rest, and members of one warmup
    // signature share one warmup (replicas included), so only those
    // cost cycles.  A finite workload (workload=splash) stops when its
    // work is done, far short of its measure_cycles cap, so its points
    // get no estimate.
    std::set<std::vector<std::uint8_t>> classes, warmups;
    unsigned long long cycles = 0;
    std::size_t finite = 0;
    for (const SimConfig& c : cfgs) {
      if (!session.insert(config_bytes(c)).second ||
          (opt.store != nullptr && opt.store->find(c) != nullptr) ||
          !classes.insert(dynamics_signature(c)).second) {
        continue;
      }
      if (c.workload == WorkloadKind::Splash) {
        ++finite;
        continue;
      }
      cycles += c.measure_cycles;
      if (c.shards > 1 || warmups.insert(warmup_signature(c)).second) {
        cycles += c.warmup_cycles;
      }
    }
    const std::size_t points = cfgs.size();
    const std::size_t simulated = classes.size();
    total_points += points;
    total_simulated += simulated;
    total_cycles += cycles;
    total_finite += finite;
    std::fprintf(stderr,
                 "dxbar_bench:   %-24s %4zu points (%zu simulated), %8llu "
                 "cycles%s\n",
                 e->name.c_str(), points, simulated, cycles,
                 finite_note(finite).c_str());
  }
  std::fprintf(stderr,
               "dxbar_bench: preflight total: %llu points (%llu simulated), "
               "%llu cycles%s\n",
               total_points, total_simulated, total_cycles,
               finite_note(total_finite).c_str());
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
/// halfwidths).  A request-latency quantile cell instead takes that
/// quantile of the histograms pooled across replicas; its ±ci95 stays
/// the spread of the per-replica values.  Text blocks and table layout
/// come from replica 0.
ExperimentResult combine_replica_results(const std::string& exp_name,
                                         std::vector<ExperimentResult> reps,
                                         std::span<const RunStats> stats) {
  if (!replica_results_compatible(reps)) {
    std::fprintf(stderr,
                 "dxbar_bench: %s: replicas reduced to different table "
                 "shapes; reporting replica 0 only\n",
                 exp_name.c_str());
    return std::move(reps.front());
  }
  const int n = static_cast<int>(reps.size());
  const std::size_t pts = stats.size() / reps.size();
  int exit_code = 0;
  for (const ExperimentResult& r : reps) {
    exit_code = std::max(exit_code, r.exit_code);
  }
  ExperimentResult out = std::move(reps.front());
  out.exit_code = exit_code;

  bool pooled_any = false;
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
    for (const Table::Quantiles& qs : t.quantiles) {
      for (std::size_t row = 0; row < t.x.size(); ++row) {
        LatencyHistogram pooled;
        for (std::size_t rep = 0; rep < reps.size(); ++rep) {
          pooled.merge(stats[rep * pts + qs.points[row]].req_hist);
        }
        if (pooled.count() > 0) {
          t.values[qs.series][row] = pooled.quantile(qs.q);
        }
      }
      pooled_any = true;
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
  if (pooled_any) {
    out.addf(
        "\nRequest-latency quantile cells are taken from the histogram "
        "pooled\nacross all %d replicas; their ±ci95 columns show the "
        "spread of the\nper-replica estimates.\n",
        n);
  }
  return out;
}

std::vector<SimConfig> expand_replicas(const std::vector<SimConfig>& grid,
                                       int seeds) {
  std::vector<SimConfig> configs = grid;
  configs.reserve(grid.size() * static_cast<std::size_t>(std::max(1, seeds)));
  for (int rep = 1; rep < seeds; ++rep) {
    for (SimConfig cfg : grid) {
      cfg.measure_seed = replica_measure_seed(cfg, rep);
      configs.push_back(cfg);
    }
  }
  return configs;
}

ExperimentResult execute(const Experiment& exp, const RunOptions& opt) {
  RunContext ctx;
  ctx.base = opt.base;
  ctx.quick = opt.quick;
  ctx.threads = opt.threads;

  ExperimentResult result;
  std::size_t warm_groups = 0;
  const bool campaign_mode =
      opt.store != nullptr && !opt.store->path().empty();
  if (exp.axes) {
    const Grid grid = exp.axes(ctx);
    const std::vector<SimConfig> base_grid = grid.configs();
    const int seeds = std::max(1, opt.seeds);
    std::vector<SimConfig> configs = expand_replicas(base_grid, seeds);
    std::vector<RunStats> stats =
        sweep_grid(exp.name, configs, opt, warm_groups);
    const std::span<const RunStats> all(stats);
    std::vector<ExperimentResult> reps;
    for (int rep = 0; rep < seeds; ++rep) {
      reps.push_back(exp.reduce(
          ctx, GridView(grid, all.subspan(static_cast<std::size_t>(rep) *
                                              base_grid.size(),
                                          base_grid.size()))));
    }
    result = seeds > 1
                 ? combine_replica_results(exp.name, std::move(reps), all)
                 : std::move(reps.front());
    result.grid = std::move(configs);
    result.grid_stats = std::move(stats);
    result.executor = campaign_mode ? "campaign" : "warm_sweep";
  } else {
    if (campaign_mode) {
      std::fprintf(stderr,
                   "dxbar_bench: %s: not a grid experiment; --resume has "
                   "no effect\n",
                   exp.name.c_str());
    }
    if (opt.seeds > 1) {
      std::fprintf(stderr,
                   "dxbar_bench: %s: not a grid experiment; --seeds has no "
                   "effect\n",
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
