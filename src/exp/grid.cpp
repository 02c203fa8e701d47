#include "exp/grid.hpp"

#include <cstdio>
#include <cstdlib>

namespace dxbar::exp {
namespace {

[[noreturn]] void no_such(const char* what, std::string_view name) {
  std::fprintf(stderr, "grid: no %s '%.*s'\n", what,
               static_cast<int>(name.size()), name.data());
  std::abort();
}

void check_position(const Axis& axis, std::size_t pos) {
  if (pos < axis.values.size()) return;
  std::fprintf(stderr, "grid: position %zu past axis '%s'\n", pos,
               axis.name.c_str());
  std::abort();
}

}  // namespace

std::vector<std::string> Axis::labels() const {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (const AxisValue& v : values) out.push_back(v.label);
  return out;
}

std::size_t Axis::position(std::string_view label) const {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i].label == label) return i;
  }
  no_such("axis value", label);
}

std::vector<SimConfig> Grid::configs() const {
  std::vector<SimConfig> out = {base};
  for (const Axis& a : axes) {
    std::vector<SimConfig> next;
    next.reserve(out.size() * a.values.size());
    for (const SimConfig& c : out) {
      for (const AxisValue& v : a.values) {
        next.push_back(c);
        v.set(next.back());
      }
    }
    out = std::move(next);
  }
  return out;
}

Metric req_quantile(double q) {
  return {[q](const RunStats& s) { return s.req_hist.quantile(q); }, q};
}

GridView::GridView(const Grid& grid, std::span<const RunStats> stats)
    : stats_(stats) {
  std::size_t stride = 1;
  dims_.resize(grid.axes.size());
  for (std::size_t d = grid.axes.size(); d-- > 0;) {
    dims_[d] = {&grid.axes[d], stride};
    stride *= grid.axes[d].values.size();
  }
  if (stride != stats.size()) {
    std::fprintf(stderr, "grid: %zu stats for a %zu-point grid\n",
                 stats.size(), stride);
    std::abort();
  }
}

std::size_t GridView::dim(std::string_view name) const {
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    if (dims_[d].axis->name == name) return d;
  }
  no_such("axis", name);
}

std::size_t GridView::index(std::initializer_list<std::size_t> pos) const {
  if (pos.size() != dims_.size()) {
    std::fprintf(stderr, "grid: %zu position(s) for a %zu-axis view\n",
                 pos.size(), dims_.size());
    std::abort();
  }
  std::size_t i = offset_;
  const std::size_t* p = pos.begin();
  for (const Dim& d : dims_) {
    check_position(*d.axis, *p);
    i += *p++ * d.stride;
  }
  return i;
}

GridView GridView::fix(std::string_view name, std::size_t pos) const {
  GridView v = *this;
  const std::size_t d = dim(name);
  check_position(*dims_[d].axis, pos);
  v.offset_ += pos * dims_[d].stride;
  v.dims_.erase(v.dims_.begin() + static_cast<std::ptrdiff_t>(d));
  return v;
}

const Axis& GridView::axis(std::string_view name) const {
  return *dims_[dim(name)].axis;
}

std::vector<std::size_t> GridView::points() const {
  if (dims_.size() != 1) {
    std::fprintf(stderr, "grid: a column needs a one-axis view, not %zu\n",
                 dims_.size());
    std::abort();
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < dims_[0].axis->values.size(); ++i) {
    out.push_back(offset_ + i * dims_[0].stride);
  }
  return out;
}

std::vector<double> GridView::column(const Metric& m) const {
  std::vector<double> out;
  for (std::size_t i : points()) out.push_back(m.of(stats_[i]));
  return out;
}

}  // namespace dxbar::exp
