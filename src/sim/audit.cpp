#include "src/sim/audit.h"

#include <sstream>

namespace aspen::sim {

AuditReport audit_queue(const Simulator& simulator) {
  AuditReport report;
  const auto behind = [&](const char* where, SimTime time) {
    std::ostringstream os;
    os << "earliest pending event in the " << where << " at t=" << time
       << " precedes the clock at t=" << simulator.now_;
    report.add(AuditCode::kTimeMonotonicity, os.str());
  };
  if (!simulator.heap_.empty() &&
      simulator.heap_.front().time < simulator.now_) {
    behind("heap", simulator.heap_.front().time);
  }
  for (const Simulator::Lane& lane : simulator.lanes_) {
    if (lane.empty()) continue;
    if (lane.front().time < simulator.now_) behind("lane", lane.front().time);
    for (std::size_t i = 1; i < lane.size(); ++i) {
      if (Simulator::earlier(lane.at(i), lane.at(i - 1))) {
        std::ostringstream os;
        os << "lane keyed " << lane.delay << " ms holds t=" << lane.at(i).time
           << " (seq " << lane.at(i).seq << ") behind t="
           << lane.at(i - 1).time << " (seq " << lane.at(i - 1).seq << ")";
        report.add(AuditCode::kTimeMonotonicity, os.str());
        break;
      }
    }
  }
  const std::size_t pending = simulator.pending();
  const std::uint64_t accounted = simulator.events_processed_ + pending;
  if (simulator.next_seq_ != accounted) {
    std::ostringstream os;
    os << "issued " << simulator.next_seq_ << " event sequence numbers but "
       << simulator.events_processed_ << " processed + " << pending
       << " pending = " << accounted;
    report.add(AuditCode::kQueueAccounting, os.str());
  }
  if (simulator.slots_.live() != pending) {
    std::ostringstream os;
    os << simulator.slots_.live() << " live action slots for " << pending
       << " pending events";
    report.add(AuditCode::kQueueAccounting, os.str());
  }
  return report;
}

void SimAuditPeer::push_unchecked(Simulator& simulator, SimTime when) {
  simulator.push_heap(
      Simulator::Key{when, simulator.next_seq_++, simulator.store([] {})});
}

void SimAuditPeer::push_lane_unchecked(Simulator& simulator, SimTime delay,
                                       SimTime when) {
  Simulator::Lane& lane = simulator.lanes_.front();
  ASPEN_REQUIRE(lane.empty() || lane.delay == delay,
                "the first lane is keyed to another delay");
  lane.delay = delay;
  lane.push(Simulator::Key{when, simulator.next_seq_++,
                           simulator.store([] {})});
}

void SimAuditPeer::set_now(Simulator& simulator, SimTime now) {
  simulator.now_ = now;
}

void SimAuditPeer::set_events_processed(Simulator& simulator,
                                        std::uint64_t n) {
  simulator.events_processed_ = n;
}

}  // namespace aspen::sim
