#include "src/proto/fault_plane.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace aspen {

FaultPlane::FaultPlane(const Topology& topo)
    : topo_(&topo), overlay_(topo), alive_(topo.num_switches(), 1) {}

void FaultPlane::owe(std::uint32_t s, LinkId link) {
  auto& owed = custody_[s];
  if (std::ranges::find(owed, link) == owed.end()) owed.push_back(link);
}

FaultPlane::Flips FaultPlane::apply(const TimedFault& ev) {
  Flips flips;
  switch (ev.kind) {
    case TimedFault::Kind::kLinkFail: {
      if (overlay_.fail(ev.link)) flips.links.push_back(ev.link);
      break;
    }

    case TimedFault::Kind::kLinkRecover: {
      if (overlay_.is_up(ev.link)) break;
      const Topology::LinkRec& rec = topo_->link(ev.link);
      for (const NodeId endpoint : {rec.upper, rec.lower}) {
        if (!topo_->is_switch_node(endpoint)) continue;
        const std::uint32_t s = topo_->switch_of(endpoint).value();
        if (alive_[s]) continue;
        owe(s, ev.link);
        return flips;
      }
      overlay_.recover(ev.link);
      flips.links.push_back(ev.link);
      break;
    }

    case TimedFault::Kind::kSwitchFail: {
      if (!alive_[ev.sw.value()]) break;
      alive_[ev.sw.value()] = 0;
      flips.switch_flipped = true;
      auto& owed = custody_[ev.sw.value()];
      const auto take = [&](const Topology::Neighbor& nb) {
        if (!overlay_.fail(nb.link)) return;  // was already down
        owed.push_back(nb.link);
        flips.links.push_back(nb.link);
      };
      for (const Topology::Neighbor& nb : topo_->up_neighbors(ev.sw)) take(nb);
      for (const Topology::Neighbor& nb : topo_->down_neighbors(ev.sw)) {
        take(nb);
      }
      break;
    }

    case TimedFault::Kind::kSwitchRecover: {
      if (alive_[ev.sw.value()]) break;
      alive_[ev.sw.value()] = 1;
      flips.switch_flipped = true;
      std::vector<LinkId> owed;
      if (const auto it = custody_.find(ev.sw.value()); it != custody_.end()) {
        owed = std::move(it->second);
        custody_.erase(it);
      }
      const NodeId self = topo_->node_of(ev.sw);
      for (const LinkId link : owed) {
        if (overlay_.is_up(link)) continue;
        const Topology::LinkRec& rec = topo_->link(link);
        const NodeId other = rec.upper == self ? rec.lower : rec.upper;
        if (topo_->is_switch_node(other) &&
            !alive_[topo_->switch_of(other).value()]) {
          owe(topo_->switch_of(other).value(), link);
          continue;
        }
        overlay_.recover(link);
        flips.links.push_back(link);
      }
      // Custody moves only to *other* crashed switches; the revived switch
      // must end the event owing nothing.
      ASPEN_ASSERT(!custody_.contains(ev.sw.value()), "revived switch ",
                   ev.sw.value(), " retains custody");
      break;
    }
  }
  return flips;
}

AuditReport FaultPlane::audit() const {
  AuditReport report;
  for (const auto& [sw_raw, links] : custody_) {
    const SwitchId s{sw_raw};
    if (alive_[sw_raw] != 0) {
      std::ostringstream os;
      os << to_string(s) << " holds custody of " << links.size()
         << " link(s) but is alive";
      report.add(AuditCode::kCrashCustody, os.str());
    }
    for (const LinkId link : links) {
      const Topology::LinkRec& rec = topo_->link(link);
      const bool incident =
          rec.upper == topo_->node_of(s) || rec.lower == topo_->node_of(s);
      if (!incident) {
        std::ostringstream os;
        os << to_string(s) << " holds custody of non-incident "
           << to_string(link);
        report.add(AuditCode::kCrashCustody, os.str());
      }
      if (overlay_.is_up(link)) {
        std::ostringstream os;
        os << to_string(s) << " holds custody of " << to_string(link)
           << " which is up";
        report.add(AuditCode::kCustodyLinkUp, os.str());
      }
    }
  }
  return report;
}

}  // namespace aspen
