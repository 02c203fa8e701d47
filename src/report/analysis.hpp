// Curve analysis over result tables: the derived metrics the report
// prints and the diff engine guards.
//
// A table is a family of curves (one per series) over a shared x axis.
// Analysis derives, deterministically from the stored points:
//   * metric direction — whether larger values win (throughput) or
//     smaller ones do (latency, energy), inferred from the title/label
//     vocabulary the experiments use;
//   * the winner per x bin (best series at that load, when the margin
//     is meaningful);
//   * the saturation point per series for accepted-vs-offered-load
//     tables, using the paper's saturation criterion (first offered load
//     where acceptance < 90% of offered; the last bin when the series
//     never saturates in range — exactly what fig5's summary prints);
//   * a knee location per series (point of maximum distance from the
//     first-to-last chord — where the curve bends hardest).
//
// These are the curve *shapes* BLESS-lineage papers argue about
// (saturation ordering, who wins at which load), so the shape-diff in
// diff.hpp is defined in terms of them.
#pragma once

#include <string>
#include <vector>

#include "report/result_io.hpp"

namespace dxbar::report {

enum class MetricDirection {
  HigherBetter,  ///< throughput-like: larger values win
  LowerBetter,   ///< latency/energy-like: smaller values win
  Unknown,       ///< no winner semantics (e.g. parameter tables)
};

struct SeriesAnalysis {
  std::string label;
  /// Offered load where the series saturates (accepted-load tables
  /// only); NaN when not applicable.
  double saturation = 0.0;
  /// x of the maximum-distance-from-chord point; NaN for degenerate
  /// curves (fewer than 3 points or a flat chord).
  double knee_x = 0.0;
};

struct TableAnalysis {
  MetricDirection direction = MetricDirection::Unknown;
  /// True when every x label parses as a number (curve semantics);
  /// false for categorical axes (designs, patterns, benchmarks).
  bool numeric_x = false;
  std::vector<double> xs;  ///< parsed x values (numeric_x only)
  /// True when this looks like an accepted-vs-offered-load table (the
  /// saturation criterion applies).
  bool is_accepted_vs_offered = false;
  /// Best series index per x bin; -1 where no meaningful winner exists
  /// (unknown direction, or all series within the tie margin).
  std::vector<int> winner_per_bin;
  std::vector<SeriesAnalysis> series;
};

/// Relative margin below which two series are considered tied at a bin
/// (no winner is declared and a flip is not meaningful).
inline constexpr double kTieMargin = 0.02;

/// Label suffix marking a confidence-interval companion series
/// ("<series> ±ci95"), appended by `dxbar_bench --seeds N`.  CI series
/// carry 95% confidence halfwidths, not metric values: analysis skips
/// them for winner/knee/saturation, charts draw them as error bars on
/// the base series instead of as curves, and shape diffs widen their
/// noise tolerance from them rather than comparing them.
inline constexpr std::string_view kCiSuffix = " ±ci95";

/// True when `label` names a CI companion series (ends in kCiSuffix).
[[nodiscard]] bool is_ci_series(std::string_view label);

/// Analyzes one table; purely a function of the stored values.
/// `tie_margin` is the relative margin for winner ties (kTieMargin by
/// default; the diff engine widens it with measured replica noise).
TableAnalysis analyze_table(const TableDoc& table,
                            double tie_margin = kTieMargin);

/// The paper's saturation point of an accepted-vs-offered-load curve:
/// the first x where value < ratio * x, else the last x.  `xs` must be
/// nonempty.
double saturation_from_points(const std::vector<double>& xs,
                              const std::vector<double>& values,
                              double ratio = 0.9);

/// True when series a and b are tied at one bin under kTieMargin
/// (relative to the larger magnitude).
bool tied(double a, double b, double margin = kTieMargin);

}  // namespace dxbar::report
