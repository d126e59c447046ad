// Demand-weighted service metrics (paper Fig. 3's y-axis).
//
// "Requests satisfied with consistent content": a replica serves its demand
// (requests per unit time) with up-to-date content from the moment the
// change reaches it. The instantaneous consistent-service rate at time t is
// therefore the demand sum over replicas already holding the change —
// deterministic, no need to simulate individual client requests.
#ifndef FASTCONS_STATS_SERVICE_METRICS_HPP
#define FASTCONS_STATS_SERVICE_METRICS_HPP

#include <optional>
#include <vector>

#include "common/types.hpp"

namespace fastcons {

/// Sum of demand over replicas with delivery time <= t (replicas that never
/// received the change contribute nothing).
double consistent_request_rate(
    const std::vector<std::optional<SimTime>>& delivery,
    const std::vector<double>& demand, SimTime t);

/// The rate evaluated on a grid of session boundaries 1..sessions (Fig. 3's
/// x-axis), with times measured in units of `period`.
std::vector<double> consistent_rate_series(
    const std::vector<std::optional<SimTime>>& delivery,
    const std::vector<double>& demand, std::size_t sessions, SimTime period);

/// Integral of the consistent-service rate over [0, horizon]: the total
/// number of requests served with consistent content in that window.
double consistent_requests_served(
    const std::vector<std::optional<SimTime>>& delivery,
    const std::vector<double>& demand, SimTime horizon);

/// Demand-weighted mean staleness: sum(demand_i * delivery_i) / sum(demand),
/// treating missing deliveries as `horizon`. Lower is better; this is the
/// single number that summarises "clients see fresh content sooner".
double demand_weighted_mean_delay(
    const std::vector<std::optional<SimTime>>& delivery,
    const std::vector<double>& demand, SimTime horizon);

}  // namespace fastcons

#endif  // FASTCONS_STATS_SERVICE_METRICS_HPP
