#include "src/proto/audit.h"

#include <sstream>

namespace aspen::proto {

AuditReport audit_channel(const ChannelStats& stats) {
  AuditReport report;
  // Every transmit() schedules one copy, none (drop), or two (duplicate):
  // delivered + dropped must equal attempted + duplicated.
  if (stats.delivered + stats.dropped != stats.attempted + stats.duplicated) {
    std::ostringstream os;
    os << "channel copies unaccounted: delivered " << stats.delivered
       << " + dropped " << stats.dropped << " != attempted " << stats.attempted
       << " + duplicated " << stats.duplicated;
    report.add(AuditCode::kChannelAccounting, os.str());
  }
  return report;
}

AuditReport audit_transport(const TransportStats& stats, int max_retries) {
  AuditReport report;
  if (stats.gave_up > stats.sends) {
    std::ostringstream os;
    os << "transport gave up on " << stats.gave_up << " messages but only "
       << stats.sends << " were ever sent";
    report.add(AuditCode::kTransportAccounting, os.str());
  }
  const std::uint64_t retry_budget =
      stats.sends * static_cast<std::uint64_t>(max_retries < 0 ? 0
                                                               : max_retries);
  if (stats.retransmits > retry_budget) {
    std::ostringstream os;
    os << "transport retransmitted " << stats.retransmits
       << " times, exceeding the cap of " << max_retries << " per send over "
       << stats.sends << " sends";
    report.add(AuditCode::kTransportAccounting, os.str());
  }
  return report;
}

AuditReport audit_transport_quiescence(const ReliableTransport& transport) {
  AuditReport report;
  const std::size_t open = transport.in_flight();
  if (open != 0) {
    std::ostringstream os;
    os << open << " conversation(s) neither acked nor abandoned at "
       << "quiescence";
    report.add(AuditCode::kInflightAccounting, os.str());
  }
  return report;
}

AuditReport audit_resync_direction(const AnpSimulation& sim, SwitchId from,
                                   SwitchId to) {
  AuditReport report;
  const Topology& topo = sim.topology();
  const bool upward = topo.level_of(to) > topo.level_of(from);
  if (!upward && !sim.options().notify_children) {
    std::ostringstream os;
    os << "resync from " << to_string(from) << " (L" << topo.level_of(from)
       << ") down to " << to_string(to) << " (L" << topo.level_of(to)
       << ") without notify_children — the peer has no later notice to "
       << "retract it";
    report.add(AuditCode::kResyncDirection, os.str());
  }
  return report;
}

void AnpAuditPeer::set_announced_lost(AnpSimulation& sim, SwitchId s,
                                      std::uint64_t dest, bool lost) {
  sim.state_[s.value()].announced_lost[dest] = lost ? 1 : 0;
}

void AnpAuditPeer::log_removed_by_link(AnpSimulation& sim, SwitchId s,
                                       LinkId link, std::uint64_t dest,
                                       const Topology::Neighbor& hop) {
  sim.state_[s.value()].removed_by_link[link.value()][dest] = hop;
}

void FaultPlaneAuditPeer::add_custody(FaultPlane& plane, SwitchId s,
                                      LinkId link) {
  plane.custody_[s.value()].push_back(link);
}

}  // namespace aspen::proto
