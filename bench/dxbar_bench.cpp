// dxbar_bench — the one driver for every figure, table and ablation of
// the paper reproduction.
//
//   dxbar_bench --list                 # what exists, with paper shapes
//   dxbar_bench fig5 [--quick]         # run one experiment
//   dxbar_bench --all --quick          # smoke-run everything
//   dxbar_bench fig5 --json out/ --csv out/   # machine-readable outputs
//   dxbar_bench fig5 --resume camp/    # crash-resumable: a rerun skips
//                                      # the points already recorded
//   dxbar_bench fig5 warmup_cycles=500 seed=7  # config overrides
//
// Overrides always win over --quick, regardless of argument order.
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "sim/replica_batch.hpp"
#include "sim/results_log.hpp"

using namespace dxbar;
using namespace dxbar::exp;

namespace {

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: dxbar_bench --list\n"
      "       dxbar_bench <experiment>... [options] [key=value...]\n"
      "       dxbar_bench --all [options] [key=value...]\n"
      "\n"
      "options:\n"
      "  --list          list registered experiments and exit\n"
      "  --all           run every registered experiment\n"
      "  --filter GLOB   run registered experiments matching GLOB\n"
      "                  (`*` and `?`; composes with --all and names)\n"
      "  --quick         ~4x shorter phase windows (smoke runs)\n"
      "  --threads N     worker threads (0 = hardware concurrency)\n"
      "  --seeds N       run every grid point N times with independent\n"
      "                  measurement seeds (one shared warmup, replicas\n"
      "                  forked from it); tables gain mean and ±ci95 columns\n"
      "  --csv DIR       mirror every table to DIR/<exp>_<title>.csv\n"
      "  --json DIR      write DIR/<exp>.json (schema v%d)\n"
      "  --resume DIR    record every finished grid point in DIR/<exp>;\n"
      "                  a rerun skips the points already recorded\n"
      "  key=value       SimConfig override (applied after --quick;\n"
      "                  overrides always win regardless of order)\n",
      report::kSchemaVersion);
}

void print_list() {
  for (const Experiment* e : Registry::instance().all()) {
    std::printf("%-28s %s\n", e->name.c_str(), e->title.c_str());
    if (!e->paper_shape.empty()) {
      std::printf("%-28s   expected: %s\n", "", e->paper_shape.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(std::span<const char* const>(
      argv + 1, static_cast<std::size_t>(argc - 1)));
  if (!args.error.empty()) {
    std::fprintf(stderr, "dxbar_bench: %s\n\n", args.error.c_str());
    print_usage(stderr);
    return 2;
  }
  if (args.list) {
    print_list();
    return 0;
  }

  std::vector<const Experiment*> to_run;
  if (const std::string err = select_experiments(args, to_run);
      !err.empty()) {
    std::fprintf(stderr, "dxbar_bench: %s\n", err.c_str());
    return 2;
  }
  if (to_run.empty()) {
    print_usage(stderr);
    return 2;
  }

  // One warm-snapshot cache for the whole session: experiments sharing
  // a (design, warmup) pair — common under --all — warm it exactly once.
  WarmupCache warm_cache;

  RunOptions opt;
  opt.quick = args.quick;
  opt.threads = args.threads;
  opt.seeds = args.seeds;
  opt.warm_cache = &warm_cache;
  opt.csv_dir = args.csv_dir;
  opt.json_dir = args.json_dir;
  opt.resume_dir = args.resume_dir;
  opt.overrides = args.overrides;
  const std::string cfg_err = make_base_config(args, opt.base);
  if (!cfg_err.empty()) {
    std::fprintf(stderr, "dxbar_bench: %s\n", cfg_err.c_str());
    return 2;
  }

  // Multi-experiment sessions get a point-count preflight so the
  // cost of an `--all` run is visible before the first sweep starts.
  if (to_run.size() > 1) print_preflight(to_run, opt);

  int rc = 0;
  std::vector<std::string> used_csv_names;
  for (const Experiment* e : to_run) {
    ExperimentResult result;
    try {
      result = execute(*e, opt);
    } catch (const ResumeFileError& err) {
      std::fprintf(stderr, "dxbar_bench: %s\n", err.what());
      return 1;
    }
    print_result(result);
    if (result.exit_code != 0 && rc == 0) rc = result.exit_code;
    if (!opt.csv_dir.empty() &&
        !write_csv_tables(*e, result, opt.csv_dir, used_csv_names)) {
      rc = 1;
    }
    if (!opt.json_dir.empty() && !write_json_result(*e, result, opt)) {
      rc = 1;
    }
  }
  if (warm_cache.hits() + warm_cache.misses() > 0) {
    std::fprintf(stderr,
                 "dxbar_bench: session warm cache: %zu hit(s), %zu miss(es), "
                 "%zu snapshot(s) retained\n",
                 warm_cache.hits(), warm_cache.misses(),
                 warm_cache.entries());
  }
  return rc;
}
