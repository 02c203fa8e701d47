#include "router/router.hpp"

#include <cassert>

namespace dxbar {

Router::Router(NodeId id, const RouterEnv& env)
    : id_(id),
      route_key_(env.route_cache != nullptr ? env.route_cache->key(id) : 0),
      env_(env) {
  assert(env_.cfg != nullptr && env_.mesh != nullptr &&
         env_.energy != nullptr && env_.faults != nullptr &&
         env_.coords != nullptr);
  assert((env_.route_cache == nullptr) != (env_.route_table == nullptr) &&
         "exactly one routing source");
  for (Direction d : kLinkDirs) {
    if (link_alive(d)) ++live_degree_;
  }
}

}  // namespace dxbar
