// Named grid axes.
//
// A grid experiment declares its points once: a base config and an
// ordered list of named axes, outer to inner.  Each axis is a list of
// labelled values, and each value sets fields of a SimConfig.  The grid
// is the axes' product with the innermost axis varying fastest, so a
// declaration {design, load} runs every load of the first design first.
//
// A GridView over the grid's RunStats finds a point by its axis
// positions; `fix` holds one axis at a position and drops it from the
// view.  A Metric reads one number from a point; grid_table()
// (exp/experiment.hpp) turns a row axis, a series axis and a metric into
// a Table.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"

namespace dxbar::exp {

struct AxisValue {
  std::string label;
  std::function<void(SimConfig&)> set;
};

struct Axis {
  std::string name;  ///< also the x label of a table whose rows it gives
  std::vector<AxisValue> values;

  [[nodiscard]] std::vector<std::string> labels() const;
  /// Position of the value labelled `label` (a missing label is a bug in
  /// the experiment: it aborts).
  [[nodiscard]] std::size_t position(std::string_view label) const;
};

/// An axis over the range `values`: each is labelled `label(v)` and
/// applied as `set(cfg, v)`.
template <class Values, class Label, class Set>
Axis make_axis(std::string name, const Values& values, Label label,
               Set set) {
  Axis a{std::move(name), {}};
  for (const auto& v : values) {
    a.values.push_back({label(v), [set, v](SimConfig& c) { set(c, v); }});
  }
  return a;
}

struct Grid {
  SimConfig base;
  std::vector<Axis> axes;  ///< outer to inner

  /// Every point: `base` with one value of each axis applied, outer axis
  /// first, innermost varying fastest.
  [[nodiscard]] std::vector<SimConfig> configs() const;
};

/// A quantity read from one point's stats.
struct Metric {
  template <class F>
    requires std::is_invocable_r_v<double, F, const RunStats&>
  Metric(F of, double req_quantile = 0.0)  // NOLINT: implicit by design
      : of(std::move(of)), req_quantile(req_quantile) {}

  std::function<double(const RunStats&)> of;
  /// Nonzero when the metric is this quantile of the request-latency
  /// histogram: its table cells then pool the replicas' histograms
  /// under --seeds N.
  double req_quantile;
};

/// The `q` quantile of a point's request-latency histogram.
Metric req_quantile(double q);

class GridView {
 public:
  /// A view of `stats`, the grid's points in grid order; it refers to
  /// `grid`'s axes, which must outlive it.
  GridView(const Grid& grid, std::span<const RunStats> stats);
  GridView(const Grid&& grid, std::span<const RunStats> stats) = delete;

  /// The point at these positions, one per axis of the view, outer to
  /// inner.
  template <class... Pos>
  [[nodiscard]] const RunStats& at(Pos... pos) const {
    return stats_[index({static_cast<std::size_t>(pos)...})];
  }
  /// That point's index in the grid.
  [[nodiscard]] std::size_t index(std::initializer_list<std::size_t> pos) const;

  /// This view with axis `name` held at `pos`; the axis leaves the view.
  [[nodiscard]] GridView fix(std::string_view name, std::size_t pos) const;

  [[nodiscard]] const Axis& axis(std::string_view name) const;

  /// `m` at every point of a one-axis view, in axis order.
  [[nodiscard]] std::vector<double> column(const Metric& m) const;
  /// The grid indices of a one-axis view's points, in axis order.
  [[nodiscard]] std::vector<std::size_t> points() const;

  /// Every point of the grid, in grid order.
  [[nodiscard]] std::span<const RunStats> stats() const { return stats_; }

 private:
  struct Dim {
    const Axis* axis;
    std::size_t stride;
  };
  [[nodiscard]] std::size_t dim(std::string_view name) const;

  std::vector<Dim> dims_;
  std::size_t offset_ = 0;
  std::span<const RunStats> stats_;
};

}  // namespace dxbar::exp
