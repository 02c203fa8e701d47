#include "exp/experiment.hpp"

#include <cstdio>

namespace dxbar::exp {

void ExperimentResult::addf(const char* fmt, ...) {
  char buf[4096];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (!blocks.empty() && blocks.back().kind == Block::Kind::Text) {
    blocks.back().text += buf;
    return;
  }
  Block b;
  b.kind = Block::Kind::Text;
  b.text = buf;
  blocks.push_back(std::move(b));
}

void add_series(Table& t, std::string label, const GridView& v,
                const Metric& m) {
  if (m.req_quantile > 0.0) {
    t.quantiles.push_back({t.values.size(), m.req_quantile, v.points()});
  }
  t.series_labels.push_back(std::move(label));
  t.values.push_back(v.column(m));
}

Table grid_table(std::string title, const GridView& v, std::string_view rows,
                 std::string_view series, const Metric& m, std::string fmt) {
  Table t;
  t.title = std::move(title);
  t.x_label = rows;
  t.x = v.axis(rows).labels();
  t.fmt = std::move(fmt);
  const Axis& s = v.axis(series);
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    add_series(t, s.values[i].label, v.fix(series, i), m);
  }
  return t;
}

std::string fmt(double v, const char* f) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

}  // namespace dxbar::exp
