#include "workload/factory.hpp"

#include "traffic/splash.hpp"
#include "workload/closed_loop.hpp"

namespace dxbar {

std::unique_ptr<WorkloadModel> make_workload(const SimConfig& cfg,
                                             const Mesh& mesh) {
  switch (cfg.workload) {
    case WorkloadKind::ClosedLoop:
      return std::make_unique<ClosedLoopWorkload>(cfg, mesh);
    case WorkloadKind::Splash:
      return std::make_unique<SplashWorkload>(splash_profile(cfg.splash_app),
                                              cfg, mesh);
    case WorkloadKind::Synthetic:
      break;
  }
  return std::make_unique<SyntheticWorkload>(cfg, mesh);
}

}  // namespace dxbar
