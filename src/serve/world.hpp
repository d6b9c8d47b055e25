// A fully-wired, stateful simulation world (serving layer).
//
// SimWorld owns everything run_scenario_with used to build on the stack —
// network, engine, router, demand, protocol, oracle, patrol fleet — and
// exposes the run loop as step()/done()/finish() so a caller can hold a
// world across steps: snapshot it mid-run, restore it into a fresh world,
// or step it forever behind a query front-end (service.hpp). The batch
// runner (experiment/run_scenario_with) is now a thin loop over this
// class, so batch runs and served runs execute the identical wiring.
//
// Restore contract: build the restoring world with Mode::Restore from the
// SAME ScenarioConfig (construction then skips initial placement, seed
// designation and patrol deployment — all of that state arrives from the
// snapshot), call restore(), and continue stepping. The event stream from
// that point on is bit-identical to the uninterrupted run.
#pragma once

#include <cstdint>
#include <memory>

#include "counting/oracle.hpp"
#include "counting/patrol.hpp"
#include "experiment/scenario.hpp"
#include "serve/snapshot.hpp"
#include "traffic/demand.hpp"
#include "traffic/router.hpp"

namespace ivc::serve {

class SimWorld {
 public:
  enum class Mode {
    Fresh,    // place population, designate seeds, start the protocol
    Restore,  // build structure only; state arrives via restore()
  };

  SimWorld(const experiment::ScenarioConfig& config, experiment::RunHooks hooks,
           Mode mode = Mode::Fresh);
  explicit SimWorld(const experiment::ScenarioConfig& config, Mode mode = Mode::Fresh)
      : SimWorld(config, experiment::RunHooks{}, mode) {}

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  // One demand update + one engine step + (at the convergence-check
  // cadence) the stability/quiescence bookkeeping — exactly the body of
  // the old run_scenario_with loop.
  void step();
  // True when the run is over: converged at a check point, or the
  // simulated time limit is reached.
  [[nodiscard]] bool done() const;
  // Extract RunMetrics and invoke the on_finish hook. The world stays
  // valid (a served world can keep answering queries after convergence).
  [[nodiscard]] experiment::RunMetrics finish();

  // Snapshot the complete world state (engine + demand + protocol +
  // oracle + patrol + run-loop bookkeeping). Legal only between steps.
  void save(Snapshot& snap) const;
  void restore(const Snapshot& snap);

  [[nodiscard]] traffic::SimEngine& engine() { return *engine_; }
  [[nodiscard]] const traffic::SimEngine& engine() const { return *engine_; }
  [[nodiscard]] counting::CountingProtocol& protocol() { return *protocol_; }
  [[nodiscard]] const counting::CountingProtocol& protocol() const { return *protocol_; }
  [[nodiscard]] counting::Oracle& oracle() { return *oracle_; }
  [[nodiscard]] const counting::Oracle& oracle() const { return *oracle_; }
  [[nodiscard]] traffic::DemandModel& demand() { return *demand_; }
  [[nodiscard]] const roadnet::RoadNetwork& network() const { return net_; }
  [[nodiscard]] const experiment::ScenarioConfig& config() const { return config_; }

 private:
  // The world's own field list and the order of its sections
  // (src/serve/snapshot.cpp).
  friend struct SnapshotAccess;

  experiment::ScenarioConfig config_;
  experiment::RunHooks hooks_;
  std::uint64_t wall_start_nanos_ = 0;

  roadnet::RoadNetwork net_;
  std::unique_ptr<traffic::SimEngine> engine_;
  std::unique_ptr<traffic::Router> router_;
  std::unique_ptr<traffic::DemandModel> demand_;
  std::unique_ptr<counting::CountingProtocol> protocol_;
  std::unique_ptr<counting::Oracle> oracle_;
  std::unique_ptr<counting::PatrolFleet> patrol_;

  // Run-loop bookkeeping (serialized in the "world" snapshot section so a
  // restored run reports identical metrics and stops at the same step).
  util::SimTime limit_;
  std::uint64_t check_every_ = 1;
  bool want_collection_ = false;
  std::size_t population_ = 0;
  bool saw_all_active_ = false;
  double time_all_active_min_ = 0.0;
  bool converged_ = false;
};

}  // namespace ivc::serve
