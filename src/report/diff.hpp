// Cross-commit result diffing: compares two directories of schema-v2
// result documents and classifies each experiment.
//
//   identical        — the documents are byte-equivalent (ignoring the
//                      git_describe stamp, which legitimately differs
//                      across commits);
//   numeric-drift    — values moved but every guarded curve *shape* is
//                      intact (same winners, same saturation bins, same
//                      crossing structure);
//   SHAPE-REGRESSION — a shape signal changed: a decisive per-bin
//                      winner flipped, a saturation point shifted
//                      beyond tolerance, a pair of curves changed how
//                      often they cross, or the table structure itself
//                      changed (different x axis / series).
//
// Shape signals are evaluated on the rendered tables (what the paper
// plots), with the tie margin from analysis.hpp filtering noise-level
// flips: a "winner change" between two series that were within 2% of
// each other in both runs is drift, not a regression.  Tables produced
// by `dxbar_bench --seeds N` carry ±ci95 companion columns; the diff
// widens the tie margin to twice the largest relative CI halfwidth
// when that exceeds the static default, so the tolerance tracks the
// noise the replication actually measured.  The CLI exits
// nonzero iff any experiment is a SHAPE-REGRESSION, so CI can gate on
// reproduction claims ("DXbar saturates later than Flit-Bless") rather
// than on exact numbers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "report/analysis.hpp"
#include "report/result_io.hpp"

namespace dxbar::report {

enum class DiffClass {
  Identical,
  NumericDrift,
  ShapeRegression,
  Added,    ///< experiment only in the new directory
  Removed,  ///< experiment only in the base directory
};

std::string_view to_string(DiffClass c);

struct TableDiff {
  std::string title;
  DiffClass cls = DiffClass::Identical;
  /// Human-readable shape findings ("winner at offered=0.5 flipped:
  /// DXbar DOR -> Flit-Bless"); nonempty iff cls == ShapeRegression.
  std::vector<std::string> reasons;
  /// Largest relative per-cell change across the table's series.
  double max_rel_delta = 0.0;
};

struct ExperimentDiff {
  std::string name;
  DiffClass cls = DiffClass::Identical;
  std::vector<TableDiff> tables;  ///< empty for Added/Removed
};

struct DiffOptions {
  /// Relative margin under which a winner flip is noise (see
  /// analysis.hpp kTieMargin).
  double tie_margin = kTieMargin;
  /// Saturation shift tolerance in x units; negative (default) means
  /// "one x-bin step of the table" — a one-bin wobble is drift, two
  /// bins is a regression.
  double saturation_tolerance = -1.0;
};

struct DiffReport {
  std::vector<ExperimentDiff> experiments;

  [[nodiscard]] std::size_t count(DiffClass c) const {
    std::size_t n = 0;
    for (const ExperimentDiff& e : experiments) {
      if (e.cls == c) ++n;
    }
    return n;
  }
  [[nodiscard]] bool has_shape_regression() const {
    return count(DiffClass::ShapeRegression) > 0;
  }
};

/// Diffs two loaded result sets (keyed by experiment name; order does
/// not matter).  Purely functional: no I/O.
DiffReport diff_results(const std::vector<ResultDoc>& base,
                        const std::vector<ResultDoc>& fresh,
                        const DiffOptions& opt = {});

/// Diffs one pair of tables (exposed for the renderer and tests).
TableDiff diff_tables(const TableDoc& base, const TableDoc& fresh,
                      const DiffOptions& opt = {});

}  // namespace dxbar::report
