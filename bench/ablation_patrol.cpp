// Ablation: patrol fleet size vs orphan-segment rescue (Theorems 3 & 4).
//
// Demand deliberately detours around one directed segment of a ring road
// (the paper's "odd traffic pattern"), which deadlocks the counting: the
// marker for that segment never finds a carrier. Patrol cars driving the
// edge-covering cycle break the deadlock; this bench measures the time to
// full stabilization as a function of the fleet size (0 = deadlock).
#include "counting/oracle.hpp"
#include "counting/patrol.hpp"
#include "counting/protocol.hpp"
#include "roadnet/manhattan.hpp"
#include "roadnet/patrol_planner.hpp"
#include "traffic/demand.hpp"
#include "traffic/router.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

#include <iostream>
#include <memory>
#include <vector>

namespace {

struct Outcome {
  bool converged = false;
  double stable_min = 0.0;
  bool exact = false;
};

Outcome run_orphan_scenario(std::size_t patrol_cars, std::uint64_t seed) {
  using namespace ivc;
  const auto net = roadnet::make_ring(10, 160.0);
  traffic::SimConfig sim = traffic::SimConfig::simple_model();
  sim.seed = seed;
  traffic::SimEngine engine(net, sim);
  traffic::Router router(net, seed + 1);
  // The orphan: nobody drives 3 -> 2.
  router.exclude_edge(*net.edge_between(roadnet::NodeId{3}, roadnet::NodeId{2}));

  traffic::DemandConfig dc;
  dc.vehicles_at_100pct = 60;
  dc.seed = seed + 2;
  traffic::DemandModel demand(engine, router, dc);
  engine.set_route_planner([&demand](traffic::VehicleId v, roadnet::NodeId n) {
    return demand.plan_continuation(v, n);
  });

  counting::ProtocolConfig pc;
  counting::CountingProtocol protocol(engine, pc);
  counting::Oracle oracle(engine, surveillance::Recognizer(pc.target));
  protocol.set_oracle(&oracle);

  counting::PatrolFleet* fleet = nullptr;
  std::unique_ptr<counting::PatrolFleet> storage;
  if (patrol_cars > 0) {
    storage = std::make_unique<counting::PatrolFleet>(
        engine, roadnet::plan_patrol_route(net, roadnet::NodeId{0}));
    fleet = storage.get();
    fleet->deploy(patrol_cars);
  }
  demand.init_population();
  protocol.designate_seeds({roadnet::NodeId{0}});
  protocol.start();

  Outcome outcome;
  const auto limit = ivc::util::SimTime::from_minutes(90.0);
  while (engine.now() < limit) {
    engine.step();
    if (engine.step_count() % 20 == 0 && protocol.all_stable() && protocol.quiescent()) {
      outcome.converged = true;
      break;
    }
  }
  if (outcome.converged) {
    double latest = 0.0;
    for (const auto& cp : protocol.checkpoints()) {
      latest = std::max(latest, cp.stable_time().minutes());
    }
    outcome.stable_min = latest;
    outcome.exact = protocol.live_total() == oracle.true_population();
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ivc;
  std::int64_t seed = 7;
  bool smoke = false;
  util::Cli cli("ablation_patrol", "patrol fleet size vs orphan rescue time");
  cli.add_int("seed", &seed, "RNG seed");
  cli.add_flag("smoke", &smoke, "CI smoke mode: two fleet sizes only");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  util::TextTable table({"patrol cars", "converged", "stabilized(min)", "exact"});
  const std::vector<std::size_t> fleets =
      smoke ? std::vector<std::size_t>{0, 2} : std::vector<std::size_t>{0, 1, 2, 4, 8};
  bool all_ok = true;
  for (const std::size_t cars : fleets) {
    const Outcome outcome =
        run_orphan_scenario(cars, static_cast<std::uint64_t>(seed));
    // 0 cars is *supposed* to deadlock (that's the ablation's point); any
    // actual patrol presence must converge exactly.
    if (cars > 0) all_ok = all_ok && outcome.converged && outcome.exact;
    table.add_row({std::to_string(cars), outcome.converged ? "yes" : "NO (deadlock)",
                   outcome.converged ? util::format("%.2f", outcome.stable_min) : "-",
                   outcome.converged ? (outcome.exact ? "yes" : "NO") : "-"});
  }
  std::cout << "== Ablation: patrol rescue of an orphan segment "
               "(10-ring, one excluded direction) ==\n";
  table.print(std::cout);
  std::cout << "0 cars reproduces the deadlock of the odd-traffic pattern; any\n"
               "patrol presence bounds the stop delay by the inter-patrol gap\n"
               "on the covering cycle (Theorem 3).\n";
  return all_ok ? 0 : 1;
}
