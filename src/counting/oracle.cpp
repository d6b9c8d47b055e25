#include "counting/oracle.hpp"

#include "util/string_util.hpp"

namespace ivc::counting {

void Oracle::on_counted(traffic::VehicleId veh, roadnet::NodeId /*node*/,
                        util::SimTime /*t*/) {
  ++counted_times_[veh.value()];
  ++count_events_;
}

void Oracle::on_adjustment(roadnet::NodeId /*node*/, std::int64_t delta) {
  adjustment_sum_ += delta;
}

void Oracle::on_interaction_exit(traffic::VehicleId /*veh*/, roadnet::NodeId /*node*/) {
  ++exit_events_;
}

std::int64_t Oracle::true_population() const {
  std::int64_t n = 0;
  for (const traffic::VehicleId id : engine_.alive_vehicles()) {
    const traffic::VehicleRef veh = engine_.vehicle(id);
    if (veh.is_patrol()) continue;
    if (!recognizer_.matches(veh.attrs())) continue;
    if (engine_.network().segment(veh.edge()).is_gateway()) continue;
    ++n;
  }
  return n;
}

int Oracle::times_counted(traffic::VehicleId veh) const {
  const auto it = counted_times_.find(veh.value());
  return it == counted_times_.end() ? 0 : it->second;
}

std::uint64_t Oracle::double_counted_vehicles() const {
  std::uint64_t n = 0;
  for (const auto& [id, times] : counted_times_) {
    if (times > 1) ++n;
  }
  return n;
}

Verdict Oracle::verify_exactly_once() const {
  std::uint64_t missed = 0;
  std::uint64_t doubled = 0;
  for (const traffic::VehicleId id : engine_.alive_vehicles()) {
    const traffic::VehicleRef veh = engine_.vehicle(id);
    if (veh.is_patrol() || !recognizer_.matches(veh.attrs())) continue;
    const int times = times_counted(veh.id());
    if (times == 0) ++missed;
    if (times > 1) ++doubled;
  }
  if (missed == 0 && doubled == 0) return {true, "every countable vehicle counted exactly once"};
  return {false, util::format("miscounted=%llu double-counted=%llu",
                              static_cast<unsigned long long>(missed),
                              static_cast<unsigned long long>(doubled))};
}

Verdict Oracle::verify_total(std::int64_t protocol_total) const {
  const std::int64_t truth = true_population();
  if (protocol_total == truth) {
    return {true, util::format("total exact: %lld", static_cast<long long>(truth))};
  }
  return {false, util::format("protocol=%lld truth=%lld (delta %lld)",
                              static_cast<long long>(protocol_total),
                              static_cast<long long>(truth),
                              static_cast<long long>(protocol_total - truth))};
}

}  // namespace ivc::counting
