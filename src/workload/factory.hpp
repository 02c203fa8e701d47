// Workload construction from a SimConfig: the one switch point every
// runner (sweeps, replica batches) goes through, so a new
// WorkloadKind automatically works under --seeds, --resume, warm-start
// sweeps and snapshot/restore.
#pragma once

#include <memory>

#include "common/config.hpp"
#include "topology/mesh.hpp"
#include "traffic/traffic_gen.hpp"

namespace dxbar {

/// Builds the workload cfg.workload selects.  `mesh` must outlive the
/// returned model.
std::unique_ptr<WorkloadModel> make_workload(const SimConfig& cfg,
                                             const Mesh& mesh);

}  // namespace dxbar
