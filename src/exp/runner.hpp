// Experiment runner: the execution and reporting engine behind the
// `dxbar_bench` driver.
//
// Execution validates every config of a grid, then routes the
// grid through run_sweep — points that share a warmup (identical config
// up to measurement rate / measure_seed + drain cap) are warmed once and
// forked from a snapshot, and the grouping is logged.  Under --resume
// the same sweep runs behind a results log (sim/results_log.hpp): kill
// the process at any instant, re-run the same command, and only the
// points that were in flight run again, with bit-identical results.
//
// Reporting renders the reduced tables to stdout (byte-compatible with
// the legacy per-figure binaries), optionally mirrors them to CSV, and
// optionally writes one schema-versioned JSON document per experiment
// (see DESIGN.md section 8 for the schema).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/registry.hpp"
#include "report/result_io.hpp"

namespace dxbar {
class WarmupCache;  // sim/replica_batch.hpp
}

namespace dxbar::exp {

/// Parsed dxbar_bench command line.  Parsing never applies flag effects
/// in argument order: flags are collected first and key=value overrides
/// are applied to the base config LAST, so an explicit `warmup_cycles=`
/// override wins over --quick regardless of where it appears (the
/// legacy bench_util parser got this wrong).
struct BenchArgs {
  bool list = false;
  bool all = false;
  bool quick = false;
  unsigned threads = 0;
  int seeds = 1;  ///< measurement replicas per grid point (--seeds N)
  std::string csv_dir;
  std::string json_dir;
  std::string resume_dir;
  std::string filter;  ///< glob over registered names (`*`, `?`)
  std::vector<std::string> experiments;  ///< positional experiment names
  std::vector<std::string> overrides;    ///< key=value args, in order
  std::string error;                     ///< nonempty => unusable
};

BenchArgs parse_bench_args(std::span<const char* const> args);

/// Builds the base SimConfig for a session: bench-default phase windows
/// (warmup 1000 / measure 4000 / drain 6000), shrunk ~4x under --quick
/// (which also cuts the SPLASH work to 30 transactions per node), then
/// the key=value overrides applied on top.  Returns an error
/// message for a bad override, empty on success.
std::string make_base_config(const BenchArgs& args, SimConfig& out);

/// How to execute and report one experiment.
struct RunOptions {
  SimConfig base;
  bool quick = false;
  unsigned threads = 0;
  /// Measurement replicas per grid point.  With N > 1 every grid is
  /// expanded rep-major (replica 0 keeps each config untouched; replica
  /// r > 0 derives an independent nonzero measure_seed), the replicas
  /// share warmups through run_sweep, and the reduced tables
  /// report per-cell means plus appended "<series> ±ci95" columns.
  int seeds = 1;
  /// Session-wide warm-snapshot cache (optional).  When set, warm
  /// sweeps consult it before running a warmup and publish every warmup
  /// they do run, so repeated (design, warmup) pairs across experiments
  /// warm once per session.
  WarmupCache* warm_cache = nullptr;
  std::string csv_dir;     ///< empty = no CSV
  std::string json_dir;    ///< empty = no JSON
  std::string resume_dir;  ///< nonempty = results log per grid in DIR/<exp>
  std::vector<std::string> overrides;  ///< recorded in the JSON output
};

/// Rep-major replica expansion of a grid under --seeds N: [rep0: all
/// points][rep1: all points]..., so each replica slice is structurally
/// identical to `grid` and can be fed to the reducer unchanged.  Replica
/// 0 keeps every config untouched; replica r > 0 derives an independent
/// nonzero measure_seed from the point's own seeds.
std::vector<SimConfig> expand_replicas(const std::vector<SimConfig>& grid,
                                       int seeds);

/// Executes one experiment (no output side effects beyond stderr
/// progress logs).  Grid experiments run through run_sweep (behind a
/// results log under --resume); custom experiments call their `run`.
/// A grid config that SimConfig::validate rejects ends the process with
/// exit code 2 and a one-line stderr message before any point
/// simulates.
ExperimentResult execute(const Experiment& exp, const RunOptions& opt);

/// Folds N per-replica reductions into one result: every table cell
/// becomes the across-replica mean and each table gains one appended
/// "<series> ±ci95" column per original series (95% confidence
/// halfwidths); a note block is prepended.  The runner applies this to
/// every grid experiment under --seeds N that has no custom
/// `Experiment::combine`; custom combiners call it for the mean/ci
/// machinery before patching in pooled statistics.
ExperimentResult combine_replica_results(const std::string& exp_name,
                                         std::vector<ExperimentResult> reps);

/// Resolves a session's experiment selection: positional names (each
/// must exist), plus every registered experiment when `all` is set,
/// plus every registered name matching the `filter` glob.  A filter
/// matching nothing is an error that lists the registered names.
/// Returns an error message, empty on success.
std::string select_experiments(const BenchArgs& args,
                               std::vector<const Experiment*>& out);

/// Prints a per-experiment point-count / simulated-cycles table to
/// stderr before a multi-experiment session starts: how many grid points
/// each experiment has, how many of them run_sweep simulates (one per
/// dynamics class and seed), and the cycles those simulations cost.
void print_preflight(const std::vector<const Experiment*>& to_run,
                     const RunOptions& opt);

/// Prints the result blocks to stdout, exactly as the legacy binaries
/// printed them.
void print_result(const ExperimentResult& result);

/// Writes every table of `result` as CSV under opt.csv_dir (created if
/// missing).  Filenames are `<experiment>_<title-slug>.csv`,
/// disambiguated against `used_names` (shared across a session so two
/// experiments can never overwrite each other).  Returns false (after
/// printing to stderr) when the directory or a file cannot be created.
bool write_csv_tables(const Experiment& exp, const ExperimentResult& result,
                      const std::string& csv_dir,
                      std::vector<std::string>& used_names);

/// Builds the schema-v2 result document for one executed experiment —
/// the exact content `write_json_result` serializes (via
/// report::to_json, the layout shared with the report subsystem's
/// reader).
report::ResultDoc result_doc(const Experiment& exp,
                             const ExperimentResult& result,
                             const RunOptions& opt);

/// Writes `<json_dir>/<experiment>.json` (dir created if missing).
/// Returns false (after printing to stderr) on I/O failure.
bool write_json_result(const Experiment& exp, const ExperimentResult& result,
                       const RunOptions& opt);

/// Version stamp recorded in JSON outputs (`git describe` at configure
/// time, or "unknown").
std::string_view git_describe();

}  // namespace dxbar::exp
