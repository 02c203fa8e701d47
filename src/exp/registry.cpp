#include "exp/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/text.hpp"

namespace dxbar::exp {

Registry& Registry::instance() {
  static Registry r;
  return r;
}

void Registry::add(Experiment e) {
  if (find(e.name) != nullptr) {
    std::fprintf(stderr, "duplicate experiment registration: '%s'\n",
                 e.name.c_str());
    std::abort();
  }
  if (e.axes) {
    e.grid = [axes = e.axes](const RunContext& ctx) {
      return axes(ctx).configs();
    };
  }
  experiments_.push_back(std::move(e));
}

const Experiment* Registry::find(std::string_view name) const {
  for (const Experiment& e : experiments_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<const Experiment*> Registry::all() const {
  std::vector<const Experiment*> out;
  out.reserve(experiments_.size());
  for (const Experiment& e : experiments_) out.push_back(&e);
  std::sort(out.begin(), out.end(),
            [](const Experiment* a, const Experiment* b) {
              return natural_less(a->name, b->name);
            });
  return out;
}

bool natural_less(std::string_view a, std::string_view b) {
  return dxbar::natural_less(a, b);
}

}  // namespace dxbar::exp
