#include "experiment/scenario.hpp"

#include "serve/world.hpp"
#include "util/string_util.hpp"

namespace ivc::experiment {

std::string ScenarioConfig::describe() const {
  if (map_factory) {
    return util::format("%s %s vol=%.0f%% seeds=%d loss=%.0f%%", map_name.c_str(),
                        mode == SystemMode::Closed ? "closed" : "open", volume_pct,
                        num_seeds, protocol.channel_loss * 100.0);
  }
  return util::format("%s vol=%.0f%% seeds=%d loss=%.0f%% grid=%dx%d speed=%.1fmps",
                      mode == SystemMode::Closed ? "closed" : "open", volume_pct, num_seeds,
                      protocol.channel_loss * 100.0, map.streets, map.avenues,
                      map.speed_limit);
}

// The batch runner is a thin loop over the serving layer's stateful world:
// build, step to convergence (or the time limit), extract metrics. Batch
// runs and served/snapshotted runs therefore execute the identical wiring.
RunMetrics run_scenario(const ScenarioConfig& config) {
  serve::SimWorld world(config);
  while (!world.done()) world.step();
  return world.finish();
}

}  // namespace ivc::experiment
