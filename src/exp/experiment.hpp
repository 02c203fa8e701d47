// Declarative experiment descriptions.
//
// Every table/figure/ablation of the paper reproduction is one
// registered `Experiment`: its point grid, declared once as named axes
// over a base config (exp/grid.hpp), plus a reducer that reads the
// grid's RunStats through a GridView (a point by its axis positions)
// and turns them into tables and text summaries.  The runner
// (exp/runner.hpp) owns execution — warm-start sweeps with
// shared-warmup grouping, the session results store, the --seeds
// replica fold, table rendering, CSV and schema-versioned JSON output —
// so a registration says what to simulate and how to present it, and
// nothing else.
//
// Experiments that simulate nothing (the static parameter tables)
// provide a custom `run` instead of `axes`/`reduce`; they share the CLI,
// rendering and output plumbing.
#pragma once

#include <cstdarg>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "exp/grid.hpp"

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

  /// A series of request-latency quantiles: row r's cell was read from
  /// grid point `points[r]`.  Under --seeds N the runner sets each such
  /// cell to the quantile of the histograms pooled across replicas.
  struct Quantiles {
    std::size_t series;
    double q;
    std::vector<std::size_t> points;
  };
  std::vector<Quantiles> quantiles;  ///< filled by add_series
};

/// Appends series `label` to `t`: `m` at each point of the one-axis view
/// `v`, whose axis gives the table's rows.
void add_series(Table& t, std::string label, const GridView& v,
                const Metric& m);

/// One row per value of axis `rows` (also the x label) and one series per
/// value of axis `series` of the two-axis view `v`.
Table grid_table(std::string title, const GridView& v, std::string_view rows,
                 std::string_view series, const Metric& m,
                 std::string fmt = "%10.4f");

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
  /// (priced and stored points join none; 0 when every point ran cold).
  std::size_t warm_groups = 0;
  /// "warm_sweep", "campaign" (the same sweep behind a results store
  /// backed by --resume DIR) or "custom".
  std::string executor;

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
};

struct Experiment {
  std::string name;         ///< CLI name, e.g. "fig5"
  std::string title;        ///< one-liner shown by --list
  std::string paper_shape;  ///< expected paper shape (shown by --list)

  /// The point grid as named axes; when set, the runner executes the
  /// grid and hands each replica's stats to `reduce` through a view.
  std::function<Grid(const RunContext&)> axes;
  std::function<ExperimentResult(const RunContext&, const GridView&)> reduce;

  /// The axes' product (Grid::configs), filled in by Registry::add for
  /// callers that want a registered experiment's configs alone.
  std::function<std::vector<SimConfig>(const RunContext&)> grid;

  /// Custom execution for non-grid experiments (used when axes == null).
  std::function<ExperimentResult(const RunContext&)> run;
};

/// snprintf into a std::string (the benches' number-formatting helper).
std::string fmt(double v, const char* f = "%.2f");

}  // namespace dxbar::exp
