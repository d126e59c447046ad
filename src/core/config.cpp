#include "core/config.hpp"

namespace fastcons {

std::optional<ProtocolConfig> protocol_preset(std::string_view name) {
  if (name == "weak") return ProtocolConfig::weak();
  if (name == "demand-order") return ProtocolConfig::demand_order_only();
  if (name == "fast") return ProtocolConfig::fast();
  return std::nullopt;
}

std::string_view selection_name(PartnerSelection s) noexcept {
  switch (s) {
    case PartnerSelection::uniform_random: return "uniform-random";
    case PartnerSelection::demand_static: return "demand-static";
    case PartnerSelection::demand_dynamic: return "demand-dynamic";
  }
  return "?";
}

}  // namespace fastcons
