// Micro-benchmarks (google-benchmark): hot simulator components.
// These track the engineering cost of the models — router step rate is
// what bounds how many experiment points the figure benches can sweep.
#include <benchmark/benchmark.h>

#include "alloc/separable_allocator.hpp"
#include "alloc/unified_allocator.hpp"
#include "common/rng.hpp"
#include "routing/deflect.hpp"
#include "routing/routing_algorithm.hpp"
#include "sim/network.hpp"
#include "traffic/traffic_gen.hpp"

namespace {

using namespace dxbar;

void BM_Rng(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Rng);

void BM_DorRoute(benchmark::State& state) {
  const Mesh m(8, 8);
  Rng rng(2);
  for (auto _ : state) {
    const NodeId a = rng.below(64);
    const NodeId b = rng.below(64);
    benchmark::DoNotOptimize(compute_routes(RoutingAlgo::DOR, m, a, b));
  }
}
BENCHMARK(BM_DorRoute);

void BM_WfRoute(benchmark::State& state) {
  const Mesh m(8, 8);
  Rng rng(3);
  for (auto _ : state) {
    const NodeId a = rng.below(64);
    const NodeId b = rng.below(64);
    benchmark::DoNotOptimize(compute_routes(RoutingAlgo::WestFirst, m, a, b));
  }
}
BENCHMARK(BM_WfRoute);

void BM_DeflectionRanking(benchmark::State& state) {
  const Mesh m(8, 8);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        deflection_ranking(m, rng.below(64), rng.below(64), rng()));
  }
}
BENCHMARK(BM_DeflectionRanking);

void BM_SeparableAllocator(benchmark::State& state) {
  SeparableAllocator alloc(5, 5);
  Rng rng(5);
  std::array<std::uint32_t, kNumPorts> req{};
  for (auto _ : state) {
    for (auto& r : req) r = static_cast<std::uint32_t>(rng()) & 0x1F;
    benchmark::DoNotOptimize(alloc.allocate(req));
  }
}
BENCHMARK(BM_SeparableAllocator);

void BM_UnifiedAllocator(benchmark::State& state) {
  UnifiedAllocator alloc;
  Rng rng(6);
  std::array<UnifiedPortRequest, kNumPorts> req{};
  for (auto _ : state) {
    for (auto& p : req) {
      p.incoming = {rng.bernoulli(0.5),
                    static_cast<std::uint32_t>(rng()) & 0x1F, rng() & 0xFF,
                    false};
      p.buffered = {rng.bernoulli(0.5),
                    static_cast<std::uint32_t>(rng()) & 0x1F, rng() & 0xFF,
                    false};
    }
    benchmark::DoNotOptimize(alloc.allocate(req, true));
  }
}
BENCHMARK(BM_UnifiedAllocator);

void network_cycles(benchmark::State& state, RouterDesign design) {
  SimConfig cfg;
  cfg.design = design;
  cfg.offered_load = 0.3;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1;
  Network net(cfg);
  const Mesh m(cfg.mesh_width, cfg.mesh_height);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  for (auto _ : state) {
    net.step();
  }
  state.SetItemsProcessed(state.iterations() * 64);  // router-steps
}

void BM_NetworkCycle_DXbar(benchmark::State& state) {
  network_cycles(state, RouterDesign::DXbar);
}
BENCHMARK(BM_NetworkCycle_DXbar);

void BM_NetworkCycle_Unified(benchmark::State& state) {
  network_cycles(state, RouterDesign::UnifiedXbar);
}
BENCHMARK(BM_NetworkCycle_Unified);

void BM_NetworkCycle_Bless(benchmark::State& state) {
  network_cycles(state, RouterDesign::FlitBless);
}
BENCHMARK(BM_NetworkCycle_Bless);

void BM_NetworkCycle_Buffered8(benchmark::State& state) {
  network_cycles(state, RouterDesign::Buffered8);
}
BENCHMARK(BM_NetworkCycle_Buffered8);

}  // namespace

BENCHMARK_MAIN();
