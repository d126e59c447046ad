// Protocol configuration: one struct selects between the paper's three
// algorithms and their ablation variants.
#ifndef FASTCONS_CORE_CONFIG_HPP
#define FASTCONS_CORE_CONFIG_HPP

#include <cstddef>
#include <string_view>

#include "common/types.hpp"
#include "health/peer_health.hpp"

namespace fastcons {

/// Anti-entropy partner selection.
enum class PartnerSelection {
  /// Golding's baseline: uniformly random alive neighbour each session.
  uniform_random,
  /// §2: cycle through neighbours in demand order, order frozen when the
  /// cycle starts (the variant §3 shows failing under changing demand).
  demand_static,
  /// §4: cycle without replacement, re-sorted by current demand table at
  /// every pick (chooses C' over A' in Fig. 4).
  demand_dynamic,
};

/// Fast-update acknowledgement semantics (ablation E10).
enum class FastAckMode {
  /// Paper steps 15-18: one YES/NO for the whole offer.
  yes_no,
  /// Extension: the receiver lists exactly the ids it wants, eliminating
  /// duplicate payloads for partially-seen offers.
  subset,
};

/// Which neighbours are eligible targets of a fast push.
enum class FastPushRule {
  /// Paper §2: the chain continues while the neighbour has "even greater
  /// demand" — push only to neighbours whose advertised demand exceeds our
  /// own, so updates flow down into demand valleys and stop at local maxima
  /// (with equal demands everywhere the algorithm degenerates to plain weak
  /// consistency, exactly as the paper's conclusion states).
  gradient,
  /// Ablation: push to the highest-demand neighbours unconditionally; this
  /// floods the whole topology at link latency and shows why the paper's
  /// gradient constraint is what keeps traffic bounded.
  unconstrained,
};

struct ProtocolConfig {
  PartnerSelection selection = PartnerSelection::demand_dynamic;

  /// Master switch for the fast-update part (steps 13-18).
  bool fast_push = true;

  /// How many (eligible) neighbours receive each fast offer. Paper: 1.
  std::size_t fast_fanout = 1;

  FastAckMode ack_mode = FastAckMode::yes_no;
  FastPushRule push_rule = FastPushRule::gradient;

  /// Push also when updates arrive via sessions/pushes (paper: "either
  /// coming from a client, or from an anti-entropy session"). Turning this
  /// off (ablation) pushes only on local client writes.
  bool push_on_any_gain = true;

  /// Mean time between anti-entropy sessions initiated by one replica.
  /// The repository's time unit: 1.0 == one session period.
  SimTime session_period = 1.0;

  /// Period of DemandAdvert broadcasts; <= 0 disables adverts entirely
  /// (tables then keep whatever they were primed with — the static model).
  SimTime advert_period = 0.25;

  /// Abandon sessions/offers with no progress for this long.
  SimTime session_timeout = 0.75;

  /// Bayou-style log truncation (paper §7 discusses the policy space):
  /// when enabled, each session timer discards payloads below the meet of
  /// every neighbour's known summary — each neighbour provably holds them,
  /// so no future session with current neighbours can need them. Only safe
  /// while the neighbour set is static: a neighbour added later (island
  /// overlay) might need updates that were already discarded everywhere
  /// near it.
  bool auto_truncate = false;

  /// Peer-health tracking (src/health): up -> suspect -> down per
  /// neighbour, driven by message recency. Default-off so the golden sim
  /// digests are unaffected; when enabled, suspect peers' demand decays in
  /// push-target selection and down peers are excluded until re-contact.
  HealthConfig health;

  /// --- Named presets: the three curves of Figs. 5/6. ---

  /// Golding baseline ("Weak consistency").
  static ProtocolConfig weak() {
    ProtocolConfig cfg;
    cfg.selection = PartnerSelection::uniform_random;
    cfg.fast_push = false;
    return cfg;
  }

  /// Demand-ordered sessions only, no fast push (ablation middle ground).
  static ProtocolConfig demand_order_only() {
    ProtocolConfig cfg;
    cfg.selection = PartnerSelection::demand_dynamic;
    cfg.fast_push = false;
    return cfg;
  }

  /// The paper's full fast-consistency algorithm.
  static ProtocolConfig fast() { return ProtocolConfig{}; }
};

std::string_view selection_name(PartnerSelection s) noexcept;

}  // namespace fastcons

#endif  // FASTCONS_CORE_CONFIG_HPP
