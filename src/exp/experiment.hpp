// Declarative experiment descriptions.
//
// Every table/figure/ablation of the paper reproduction is one
// registered `Experiment`: a point grid (SimConfig generator) plus a
// reducer from the grid's RunStats to named series and text summaries.
// The runner (exp/runner.hpp) owns execution — warm-start sweeps with
// shared-warmup grouping, crash-resumable campaigns, table rendering,
// CSV and schema-versioned JSON output — so a registration is ~40 lines
// of "what to simulate and how to present it" and nothing else.
//
// Experiments that simulate nothing (the static parameter tables)
// provide a custom `run` instead of `grid`/`reduce`; they share the CLI,
// rendering and output plumbing.
#pragma once

#include <cstdarg>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"

namespace dxbar::exp {

/// One rendered table: row-per-x, column-per-series, exactly the layout
/// bench_util's print_table produced (the human output is byte-stable
/// across the migration from standalone binaries).
struct Table {
  std::string title;
  std::string x_label;
  std::vector<std::string> x;
  std::vector<std::string> series_labels;
  std::vector<std::vector<double>> values;  ///< [series][row]
  std::string fmt = "%10.4f";               ///< printf format per cell
};

/// Ordered output: tables interleaved with free-form text, printed in
/// emission order so migrated experiments reproduce their legacy stdout.
struct Block {
  enum class Kind { Table, Text };
  Kind kind = Kind::Text;
  Table table;       ///< valid when kind == Table
  std::string text;  ///< valid when kind == Text; printed verbatim
};

struct ExperimentResult {
  std::vector<Block> blocks;
  int exit_code = 0;

  // Filled by the runner for grid experiments (raw per-point results,
  // persisted in the JSON output; empty for custom experiments).
  std::vector<SimConfig> grid;
  std::vector<RunStats> grid_stats;
  /// Warm-snapshot groups run_sweep formed among the simulated points
  /// (priced points join none; 0 when every point ran cold).
  std::size_t warm_groups = 0;
  std::string executor;  ///< "warm_sweep", "campaign" or "custom"

  void add_table(Table t) {
    Block b;
    b.kind = Block::Kind::Table;
    b.table = std::move(t);
    blocks.push_back(std::move(b));
  }

  /// Appends printf-formatted text (printed verbatim, no added newline).
  void addf(const char* fmt, ...)
#if defined(__GNUC__)
      __attribute__((format(printf, 2, 3)))
#endif
      ;
};

/// Execution context handed to grid generators and reducers.
struct RunContext {
  SimConfig base;  ///< bench defaults + --quick + key=value overrides
  bool quick = false;
  unsigned threads = 0;  ///< 0 = hardware concurrency

  /// Runs an open-loop grid through the session executor (warm-start
  /// sweep, or the crash-resumable campaign under --resume), after
  /// validating every config.  The runner invokes this on
  /// `Experiment::grid` output itself; custom `run` experiments may call
  /// it for embedded grids, from the calling thread.
  std::function<std::vector<RunStats>(const std::vector<SimConfig>&)> sweep;
};

struct Experiment {
  std::string name;         ///< CLI name, e.g. "fig5"
  std::string title;        ///< one-liner shown by --list
  std::string paper_shape;  ///< expected paper shape (shown by --list)

  /// Open-loop point grid; when set, the runner executes it and feeds
  /// the stats to `reduce` (stats align with the returned configs).
  std::function<std::vector<SimConfig>(const RunContext&)> grid;
  std::function<ExperimentResult(const RunContext&,
                                 const std::vector<RunStats>&)>
      reduce;

  /// Optional replica combiner for grid experiments under --seeds N.
  /// Receives the rep-major stats (replica r's slice is element
  /// [r*grid_size, (r+1)*grid_size)) and the replica count, and owns
  /// the whole merged result.  When unset, the runner reduces each
  /// replica independently and folds the tables cell-wise into means
  /// with appended ±ci95 columns (exp/runner.hpp's
  /// combine_replica_results) — which is right for means but cannot
  /// pool order statistics such as p99 across replicas.  A combiner
  /// typically delegates to combine_replica_results for the mean/ci
  /// machinery and then overwrites the cells that need pooled data.
  std::function<ExperimentResult(const RunContext&,
                                 const std::vector<RunStats>&, int)>
      combine;

  /// Custom execution for non-grid experiments (used when grid == null).
  std::function<ExperimentResult(const RunContext&)> run;
};

/// snprintf into a std::string (the benches' number-formatting helper).
std::string fmt(double v, const char* f = "%.2f");

}  // namespace dxbar::exp
