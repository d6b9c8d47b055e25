// Microbenchmarks: open-system spawn/despawn churn.
#include <benchmark/benchmark.h>

#include "roadnet/manhattan.hpp"
#include "traffic/demand.hpp"
#include "traffic/router.hpp"
#include "traffic/sim_engine.hpp"

namespace {

using namespace ivc;

void BM_SpawnDespawnChurn(benchmark::State& state) {
  // Open-system arrival/departure churn: measures the per-spawn cost.
  roadnet::ManhattanConfig mc;
  mc.streets = 8;
  mc.avenues = 5;
  mc.gateway_stride = 2;
  const auto net = roadnet::make_manhattan_grid(mc);
  traffic::SimConfig sim;
  traffic::SimEngine engine(net, sim);
  traffic::Router router(net, 3);
  traffic::DemandConfig dc;
  dc.vehicles_at_100pct = 0;
  dc.arrival_rate_at_100pct = 2.0;
  dc.seed = 5;
  traffic::DemandModel demand(engine, router, dc);
  engine.set_route_planner([&demand](traffic::VehicleId v, roadnet::NodeId n) {
    return demand.plan_continuation(v, n);
  });
  for (auto _ : state) {
    demand.update();
    engine.step();
  }
  state.counters["spawned"] = static_cast<double>(demand.spawned_total());
}
BENCHMARK(BM_SpawnDespawnChurn);

}  // namespace

BENCHMARK_MAIN();
