#include "stats/service_metrics.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace fastcons {

double consistent_request_rate(
    const std::vector<std::optional<SimTime>>& delivery,
    const std::vector<double>& demand, SimTime t) {
  FASTCONS_EXPECTS(delivery.size() == demand.size());
  double rate = 0.0;
  for (std::size_t i = 0; i < delivery.size(); ++i) {
    if (delivery[i].has_value() && *delivery[i] <= t) rate += demand[i];
  }
  return rate;
}

std::vector<double> consistent_rate_series(
    const std::vector<std::optional<SimTime>>& delivery,
    const std::vector<double>& demand, std::size_t sessions, SimTime period) {
  FASTCONS_EXPECTS(period > 0.0);
  std::vector<double> series;
  series.reserve(sessions);
  for (std::size_t k = 1; k <= sessions; ++k) {
    series.push_back(consistent_request_rate(
        delivery, demand, static_cast<double>(k) * period));
  }
  return series;
}

double consistent_requests_served(
    const std::vector<std::optional<SimTime>>& delivery,
    const std::vector<double>& demand, SimTime horizon) {
  FASTCONS_EXPECTS(delivery.size() == demand.size());
  FASTCONS_EXPECTS(horizon >= 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < delivery.size(); ++i) {
    if (delivery[i].has_value() && *delivery[i] <= horizon) {
      total += demand[i] * (horizon - *delivery[i]);
    }
  }
  return total;
}

double demand_weighted_mean_delay(
    const std::vector<std::optional<SimTime>>& delivery,
    const std::vector<double>& demand, SimTime horizon) {
  FASTCONS_EXPECTS(delivery.size() == demand.size());
  double weighted = 0.0;
  double weight = 0.0;
  for (std::size_t i = 0; i < delivery.size(); ++i) {
    const SimTime at = delivery[i].value_or(horizon);
    weighted += demand[i] * std::min(at, horizon);
    weight += demand[i];
  }
  return weight == 0.0 ? 0.0 : weighted / weight;
}

}  // namespace fastcons
