#include "src/routing/audit.h"

#include <cstddef>
#include <sstream>

#include "src/routing/updown.h"

namespace aspen::routing {

namespace {

bool is_alive(const TableAuditOptions& options, SwitchId s) {
  return options.alive == nullptr || (*options.alive)[s.value()] != 0;
}

void check_shape(const Topology& topo, const RoutingState& state,
                 AuditReport& report) {
  if (state.tables.size() != topo.num_switches()) {
    std::ostringstream os;
    os << "routing state holds " << state.tables.size()
       << " tables for a topology with " << topo.num_switches()
       << " switches";
    report.add(AuditCode::kTableShape, os.str());
    return;
  }
  // Every switch holds num_dests() rows by construction, so one check
  // covers them all.
  const std::uint64_t expected_dests =
      state.granularity == DestGranularity::kEdge ? topo.params().S
                                                  : topo.num_hosts();
  if (state.num_dests() != expected_dests) {
    std::ostringstream os;
    os << "tables have " << state.num_dests() << " entries, expected "
       << expected_dests;
    report.add(AuditCode::kTableShape, os.str());
  }
  const auto expected_hpe = static_cast<std::uint32_t>(topo.ports()) / 2;
  if (state.hosts_per_edge != expected_hpe) {
    std::ostringstream os;
    os << "hosts_per_edge = " << state.hosts_per_edge << ", expected k/2 = "
       << expected_hpe;
    report.add(AuditCode::kTableShape, os.str());
  }
}

void check_entries(const Topology& topo, const RoutingState& state,
                   const LinkStateOverlay& overlay,
                   const TableAuditOptions& options, AuditReport& report) {
  for (std::uint32_t v = 0; v < topo.num_switches(); ++v) {
    const SwitchId s{v};
    if (!is_alive(options, s)) continue;
    const NodeId self = topo.node_of(s);
    for (std::uint64_t d = 0; d < state.num_dests(); ++d) {
      const RoutingTables::Entry& entry = state.tables.row(v, d);
      // ANP withdraws hops without recomputing costs, so a non-empty hop
      // set with a stale cost is legal; hops surviving on an entry already
      // marked unreachable are not.
      if (entry.cost == RoutingTables::kUnreachable && entry.hop_count != 0) {
        std::ostringstream os;
        os << to_string(s) << " dest " << d << ": cost says unreachable but "
           << entry.hop_count << " next hop(s) remain";
        report.add(AuditCode::kCostInconsistency, os.str());
      }
      for (const Topology::Neighbor& nb : state.tables.hops(entry)) {
        if (!nb.link.valid() || nb.link.value() >= topo.num_links()) {
          std::ostringstream os;
          os << to_string(s) << " dest " << d << ": next hop carries invalid "
             << to_string(nb.link);
          report.add(AuditCode::kNextHopLink, os.str());
          continue;
        }
        const Topology::LinkRec rec = topo.link(nb.link);
        const bool joins = (rec.upper == self && rec.lower == nb.node) ||
                           (rec.lower == self && rec.upper == nb.node);
        if (!joins) {
          std::ostringstream os;
          os << to_string(s) << " dest " << d << ": " << to_string(nb.link)
             << " does not join this switch to the named neighbor";
          report.add(AuditCode::kNextHopLink, os.str());
          continue;
        }
        if (options.check_dead_next_hops && !overlay.is_up(nb.link)) {
          std::ostringstream os;
          os << to_string(s) << " dest " << d << ": next hop rides "
             << to_string(nb.link) << " which is down";
          report.add(AuditCode::kDeadNextHop, os.str());
        }
      }
    }
  }
}

/// Memoized walk state per (switch, has-descended) pair for one destination.
enum class WalkMark : unsigned char { kUnvisited, kVisiting, kClean, kDirty };

class DestWalker {
 public:
  /// `marks` is caller-owned scratch (reset here, reused across walkers)
  /// and `levels` a per-switch level cache, so the per-destination loop in
  /// audit_tables allocates nothing and skips the level_of bounds checks.
  DestWalker(const Topology& topo, const RoutingState& state,
             const TableAuditOptions& options, std::uint64_t dest,
             AuditReport& report, std::vector<WalkMark>& marks,
             const std::vector<Level>& levels)
      : topo_(topo),
        state_(state),
        options_(options),
        dest_(dest),
        report_(report),
        marks_(marks),
        levels_(levels) {
    marks_.assign(topo.num_switches() * 2, WalkMark::kUnvisited);
    if (state_.granularity == DestGranularity::kEdge) {
      target_ = topo.switch_at(1, dest);
      dest_node_ = NodeId::invalid();
    } else {
      const HostId host{static_cast<std::uint32_t>(dest)};
      target_ = topo.edge_switch_of(host);
      dest_node_ = topo.node_of(host);
    }
  }

  void run() {
    for (std::uint32_t v = 0; v < topo_.num_switches(); ++v) {
      const SwitchId s{v};
      if (!is_alive(options_, s)) continue;
      walk(s, /*descended=*/false);
    }
  }

 private:
  bool walk(SwitchId s, bool descended) {  // NOLINT(misc-no-recursion)
    // Local delivery: at the target edge switch the kEdge entry is empty
    // and the kHost entry's hop goes straight to the host.
    if (s == target_ && state_.granularity == DestGranularity::kEdge) {
      return true;
    }
    const std::size_t slot = s.value() * 2ULL + (descended ? 1 : 0);
    switch (marks_[slot]) {
      case WalkMark::kClean: return true;
      case WalkMark::kDirty: return false;
      case WalkMark::kVisiting: {
        std::ostringstream os;
        os << "dest " << dest_ << ": walk revisits " << to_string(s)
           << (descended ? " while descending" : " while climbing");
        report_.add(AuditCode::kRoutingLoop, os.str());
        marks_[slot] = WalkMark::kDirty;
        return false;
      }
      case WalkMark::kUnvisited: break;
    }
    marks_[slot] = WalkMark::kVisiting;

    bool clean = true;
    const Level here = levels_[s.value()];
    for (const Topology::Neighbor& nb :
         state_.tables.hops(state_.tables.row(s.value(), dest_))) {
      if (nb.node == dest_node_) continue;  // delivered to the host itself
      if (!topo_.is_switch_node(nb.node)) {
        std::ostringstream os;
        os << "dest " << dest_ << ": " << to_string(s)
           << " forwards to a host that is not the destination";
        report_.add(AuditCode::kRoutingLoop, os.str());
        clean = false;
        continue;
      }
      const SwitchId next = topo_.switch_of(nb.node);
      const bool hop_up = levels_[next.value()] > here;
      if (hop_up && descended) {
        std::ostringstream os;
        os << "dest " << dest_ << ": " << to_string(s) << " climbs to "
           << to_string(next) << " after descending (up*/down* violated)";
        report_.add(AuditCode::kUpAfterDown, os.str());
        clean = false;
        continue;
      }
      if (!walk(next, descended || !hop_up)) clean = false;
    }

    marks_[slot] = clean ? WalkMark::kClean : WalkMark::kDirty;
    return clean;
  }

  const Topology& topo_;
  const RoutingState& state_;
  const TableAuditOptions& options_;
  std::uint64_t dest_;
  AuditReport& report_;
  std::vector<WalkMark>& marks_;
  const std::vector<Level>& levels_;
  SwitchId target_ = SwitchId::invalid();
  NodeId dest_node_ = NodeId::invalid();
};

void check_reachability(const Topology& topo, const RoutingState& state,
                        const TableAuditOptions& options,
                        AuditReport& report) {
  for (std::uint32_t v = 0; v < topo.num_switches(); ++v) {
    const SwitchId s{v};
    if (!is_alive(options, s)) continue;
    for (std::uint64_t d = 0; d < state.num_dests(); ++d) {
      if (state.tables.row(v, d).reachable()) continue;
      // The kEdge self-entry legitimately has no hops (local delivery).
      if (state.granularity == DestGranularity::kEdge &&
          topo.level_of(s) == 1 && topo.switch_at(1, d) == s) {
        continue;
      }
      std::ostringstream os;
      os << to_string(s) << " has no route to dest " << d
         << " in a fully-live fabric";
      report.add(AuditCode::kDefaultRouteGap, os.str());
    }
  }
}

}  // namespace

AuditReport audit_tables(const Topology& topo, const RoutingState& state,
                         const LinkStateOverlay& overlay,
                         const TableAuditOptions& options) {
  AuditReport report;
  check_shape(topo, state, report);
  if (!report.ok()) return report;  // downstream checks assume sane shape
  check_entries(topo, state, overlay, options, report);
  if (options.expect_full_reachability) {
    check_reachability(topo, state, options, report);
  }
  if (options.check_walks) {
    const std::uint64_t num_dests = state.num_dests();
    std::vector<WalkMark> marks;
    std::vector<Level> levels(topo.num_switches());
    for (std::uint32_t v = 0; v < topo.num_switches(); ++v) {
      levels[v] = topo.level_of(SwitchId{v});
    }
    for (std::uint64_t d = 0; d < num_dests; ++d) {
      DestWalker walker(topo, state, options, d, report, marks, levels);
      walker.run();
    }
  }
  return report;
}

AuditReport audit_incremental(const Topology& topo,
                              const LinkStateOverlay& overlay,
                              const RoutingState& state, int threads) {
  AuditReport report;
  const RoutingState fresh =
      compute_updown_routes(topo, overlay, state.granularity, threads);
  if (state.tables.size() != fresh.tables.size()) {
    std::ostringstream os;
    os << "maintained state holds " << state.tables.size()
       << " tables, a fresh computation " << fresh.tables.size();
    report.add(AuditCode::kIncrementalDrift, os.str());
    return report;
  }
  constexpr std::uint64_t kMaxDetailed = 4;
  std::uint64_t drifted = 0;
  std::uint64_t stale_digests = 0;
  for (std::uint32_t v = 0; v < topo.num_switches(); ++v) {
    if (!RoutingTables::switch_equal(state.tables, fresh.tables, v)) {
      if (++drifted <= kMaxDetailed) {
        std::ostringstream os;
        os << to_string(SwitchId{v})
           << " table diverges from a fresh route computation";
        report.add(AuditCode::kIncrementalDrift, os.str());
      }
      continue;
    }
    // Equal tables must carry equal digests (same hash of same contents);
    // a mismatch means some mutation bypassed digest maintenance, which
    // would corrupt every digest short-circuit downstream.
    if (state.has_digests() && state.digests[v] != fresh.digests[v]) {
      if (++stale_digests <= kMaxDetailed) {
        std::ostringstream os;
        os << to_string(SwitchId{v})
           << " digest is out of sync with the table it fingerprints";
        report.add(AuditCode::kIncrementalDrift, os.str());
      }
    }
  }
  if (drifted > kMaxDetailed || stale_digests > kMaxDetailed) {
    std::ostringstream os;
    os << drifted << " drifted table(s), " << stale_digests
       << " stale digest(s) in total";
    report.add(AuditCode::kIncrementalDrift, os.str());
  }
  return report;
}

}  // namespace aspen::routing
