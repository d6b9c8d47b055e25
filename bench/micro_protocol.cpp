// Microbenchmarks: the hot checkpoint-state operations and the channel draw.
#include <benchmark/benchmark.h>

#include "counting/checkpoint.hpp"
#include "roadnet/manhattan.hpp"
#include "v2x/channel.hpp"

namespace {

using namespace ivc;

void BM_CheckpointActivation(benchmark::State& state) {
  const auto net = roadnet::make_manhattan_grid(roadnet::ManhattanConfig{});
  for (auto _ : state) {
    counting::Checkpoint cp(net, roadnet::NodeId{25}, false);
    cp.activate_as_seed(util::SimTime::from_seconds(0));
    benchmark::DoNotOptimize(cp.is_stable());
  }
}
BENCHMARK(BM_CheckpointActivation);

void BM_CheckpointCountVehicle(benchmark::State& state) {
  const auto net = roadnet::make_manhattan_grid(roadnet::ManhattanConfig{});
  counting::Checkpoint cp(net, roadnet::NodeId{25}, false);
  cp.activate_as_seed(util::SimTime::from_seconds(0));
  const auto edge = cp.inbound().front().edge;
  for (auto _ : state) {
    cp.count_vehicle(edge);
  }
  benchmark::DoNotOptimize(cp.local_total());
}
BENCHMARK(BM_CheckpointCountVehicle);

void BM_ChannelDraw(benchmark::State& state) {
  v2x::Channel channel(0.3, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.pickup_succeeds());
  }
}
BENCHMARK(BM_ChannelDraw);

}  // namespace

BENCHMARK_MAIN();
