// The data-plane hop loop and the deterministic ECMP primitives it uses.
//
// Every packet the library walks — one-off walk_packet calls (chaos
// physics checks, serve what-ifs, reachability sweeps, load assignment),
// the in-flight walker racing per-switch table flips
// (src/proto/inflight.h), and the flow plane's million-flow epochs
// (src/traffic/flow_plane.h) — goes through the one kernel here,
// ecmp::walk.  It is split, like SNIPPETS.md Snippet 3's route strategy,
// into three caller-supplied parts:
//   rows(at, now)       the forwarding row of switch `at` toward the
//                       destination (stored, computed, or chosen by
//                       flip time);
//   pick(row, at, live) the next-hop selection over a non-empty row;
//   visit(node)         every node entered, starting at the source host.
// The kernel alone decides ingress, delivery, liveness of the host links,
// the gray verdict on every link crossed and the TTL, so the walkers
// cannot drift apart.  The per-flow hash, the gray-drop verdict and the
// link-liveness probe live here once; any change to them invalidates the
// recorded goldens and EXPERIMENTS baselines — they pin the bit patterns.
//
// EcmpReadView is the unchecked, allocation-free row source over the
// arena forwarding tables: one raw() snapshot plus the dest-index mapping,
// giving a span<const Neighbor> per (switch, destination) row with no
// virtual call and no copy — what a million-flow step loop can afford.
#pragma once

#include <cstdint>
#include <span>

#include "src/routing/fwd_table.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"
#include "src/util/ids.h"
#include "src/util/status.h"

namespace aspen {

enum class WalkStatus {
  kDelivered,     ///< reached the destination host
  kDropped,       ///< switch had candidate hops but every one was dead
  kNoRoute,       ///< the forwarding row was empty
  kTtlExceeded,   ///< forwarding loop or pathologically long path
};

}  // namespace aspen

namespace aspen::ecmp {

/// SplitMix64 finalizer: cheap, well-mixed hash for deterministic picks.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The per-(flow, switch) ECMP key every pick reduces modulo the offered
/// next-hop count.  Bit pattern is pinned by recorded goldens.
[[nodiscard]] constexpr std::uint64_t flow_key(std::uint64_t flow_seed,
                                               HostId src, HostId dst,
                                               SwitchId at) {
  return
      // aspen-lint: allow(seed-arith) -- per-flow ECMP hash predating derive_stream_seed; the mixing is pinned by recorded goldens and EXPERIMENTS baselines
      mix64(flow_seed ^ (static_cast<std::uint64_t>(src.value()) << 32) ^
            dst.value() ^ (static_cast<std::uint64_t>(at.value()) << 16));
}

/// Is the link physically usable at the walk instant?  Down links never
/// are; a flapping link is usable only in its up phase (when health
/// applies).
[[nodiscard]] inline bool link_live(const LinkStateOverlay& actual,
                                    LinkId link, bool apply_health,
                                    double at_time_ms) {
  if (!actual.is_up(link)) return false;
  return !apply_health || actual.phase_up(link, at_time_ms);
}

/// Does a gray link drop this flow?  Keyed per (seed, link, src, dst) —
/// not per hop — so any walk crossing the same gray link with the same
/// flow reaches the same verdict, and repeated walks are deterministic.
[[nodiscard]] inline bool gray_drops(const LinkStateOverlay& actual,
                                     LinkId link, HostId src, HostId dst,
                                     bool apply_health,
                                     std::uint64_t health_seed) {
  if (!apply_health) return false;
  const LinkHealthState h = actual.health(link);
  if (h.health != LinkHealth::kGray) return false;
  const std::uint64_t key =
      // aspen-lint: allow(seed-arith) -- per-(flow,link) gray-drop hash predating derive_stream_seed; the mixing is pinned by recorded goldens and EXPERIMENTS baselines
      mix64(health_seed ^ (static_cast<std::uint64_t>(src.value()) << 40) ^
            (static_cast<std::uint64_t>(dst.value()) << 20) ^ link.value());
  // Top 53 bits → uniform double in [0, 1).
  const double u = static_cast<double>(key >> 11) * 0x1.0p-53;
  return u < h.loss_rate;
}

/// The packet walker's pick: hash-select `key % row.size()`, then — when
/// the switch sees its own dead ports (`aware`) — rotate to the first live
/// hop.  Gray links look live here (their loss is silent), but a flapping
/// link's down phase is an observably dead port.  Without awareness the
/// hashed hop is taken as is, and a dead one drops the packet (nullptr).
template <typename Live>
[[nodiscard]] const Topology::Neighbor* pick_hashed(
    std::span<const Topology::Neighbor> row, std::uint64_t key, bool aware,
    const Live& live) {
  const std::size_t first_choice = key % row.size();
  const std::size_t tries = aware ? row.size() : 1;
  for (std::size_t off = 0; off < tries; ++off) {
    const Topology::Neighbor& cand = row[(first_choice + off) % row.size()];
    if (live(cand.link)) return &cand;
  }
  return nullptr;
}

/// One packet as the hop loop sees it.  Liveness is judged at `start_ms`
/// on the source's host link, and the clock advances by `hop_ms` per link
/// crossed (0 freezes the walk at one instant).
struct WalkSpec {
  HostId src;
  HostId dst;
  int ttl = 64;  ///< max links traversed before declaring a loop
  bool apply_health = true;
  std::uint64_t health_seed = 0;
  double start_ms = 0.0;
  double hop_ms = 0.0;
};

/// How and where a walk ended.  `hops` counts links traversed, including
/// the final host link; `dropped_at` is the switch the packet died at —
/// invalid on delivery and on a drop at the source's own host link.
struct WalkStop {
  WalkStatus status = WalkStatus::kNoRoute;
  SwitchId dropped_at = SwitchId::invalid();
  int hops = 0;
  /// Died to degraded link health (a gray drop), not to a dead link or a
  /// missing route.
  bool health_loss = false;
};

/// Walks one packet hop by hop (see the file comment for the three parts).
/// `pick(row, at, live)` gets a non-empty row and `live(link)`, the
/// liveness probe at the hop's instant; it returns the chosen hop, or
/// nullptr when every hop it would take is dead.  At each hop the kernel
/// checks liveness first and the gray verdict second, and judges a picked
/// hop's gray verdict only after the pick.
template <typename Rows, typename Pick, typename Visit>
[[nodiscard]] WalkStop walk(const Topology& topo,
                            const LinkStateOverlay& actual,
                            const WalkSpec& spec, Rows&& rows, Pick&& pick,
                            Visit&& visit) {
  WalkStop stop;
  double now = spec.start_ms;
  const auto live = [&](LinkId link) {
    return link_live(actual, link, spec.apply_health, now);
  };
  const auto gray = [&](LinkId link) {
    return gray_drops(actual, link, spec.src, spec.dst, spec.apply_health,
                      spec.health_seed);
  };
  const auto drop = [&](SwitchId at, bool health_loss) {
    stop.status = WalkStatus::kDropped;
    stop.dropped_at = at;
    stop.health_loss = health_loss;
    return stop;
  };

  // First hop: host to its edge switch.
  visit(topo.node_of(spec.src));
  const Topology::Neighbor ingress = topo.host_uplink(spec.src);
  if (!live(ingress.link)) return drop(SwitchId::invalid(), false);
  if (gray(ingress.link)) return drop(SwitchId::invalid(), true);
  visit(ingress.node);
  stop.hops = 1;
  now += spec.hop_ms;

  const SwitchId dest_edge = topo.edge_switch_of(spec.dst);
  SwitchId at = topo.switch_of(ingress.node);
  while (stop.hops < spec.ttl) {
    if (at == dest_edge) {
      // Final hop: edge switch to host.
      const LinkId downlink = topo.host_uplink(spec.dst).link;
      if (!live(downlink)) return drop(at, false);
      if (gray(downlink)) return drop(at, true);
      visit(topo.node_of(spec.dst));
      ++stop.hops;
      stop.status = WalkStatus::kDelivered;
      return stop;
    }

    const std::span<const Topology::Neighbor> row = rows(at, now);
    if (row.empty()) {
      stop.status = WalkStatus::kNoRoute;
      stop.dropped_at = at;
      return stop;
    }
    const Topology::Neighbor* chosen = pick(row, at, live);
    if (chosen == nullptr) return drop(at, false);
    if (gray(chosen->link)) return drop(at, true);

    visit(chosen->node);
    ++stop.hops;
    now += spec.hop_ms;
    if (!topo.is_switch_node(chosen->node)) {
      // Host-granularity rows can hand over the host link directly.
      ASPEN_CHECK(chosen->node == topo.node_of(spec.dst),
                  "a forwarding row handed the packet to a host that is "
                  "not the destination");
      stop.status = WalkStatus::kDelivered;
      return stop;
    }
    at = topo.switch_of(chosen->node);
  }

  stop.status = WalkStatus::kTtlExceeded;
  stop.dropped_at = at;
  return stop;
}

/// Allocation-free fan-out reads over a RoutingState's arena tables —
/// the unchecked row source for hot loops; RoutingTables::row is the
/// checked one.
///
/// Snapshots raw() pointers; those are invalidated by RoutingTables slice
/// growth (serial protocol mutation, e.g. ANP detours) — construct a fresh
/// view per step against a possibly-mutated state, never cache one across
/// protocol reactions.
class EcmpReadView {
 public:
  explicit EcmpReadView(const RoutingState& state)
      : raw_(state.tables.raw()),
        hosts_per_edge_(state.hosts_per_edge),
        edge_granularity_(state.granularity == DestGranularity::kEdge) {}

  /// Table index for packets destined to `dst` (RoutingState::dest_index).
  [[nodiscard]] std::uint64_t dest_index(HostId dst) const {
    return edge_granularity_ ? dst.value() / hosts_per_edge_ : dst.value();
  }

  /// ECMP next-hop row of switch `at` for destination index `d`.  Empty
  /// span == no route.
  [[nodiscard]] std::span<const Topology::Neighbor> row(
      SwitchId at, std::uint64_t d) const {
    const RoutingTables::Entry& e =
        raw_.meta[d * raw_.num_tables + at.value()];
    return {raw_.pool + e.hop_begin, e.hop_count};
  }

 private:
  RoutingTables::ConstRaw raw_;
  std::uint32_t hosts_per_edge_;
  bool edge_granularity_;
};

}  // namespace aspen::ecmp
