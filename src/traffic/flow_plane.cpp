#include "src/traffic/flow_plane.h"

#include <algorithm>
#include <numeric>

#include "src/fault/seed.h"
#include "src/obs/obs.h"
#include "src/util/contracts.h"
#include "src/util/parallel.h"
#include "src/util/status.h"

namespace aspen {

namespace {

const obs::Counter kAdmitted{"flow.admitted"};
const obs::Counter kAttempted{"flow.attempted"};
const obs::Counter kDelivered{"flow.delivered"};
const obs::Counter kLost{"flow.lost"};
const obs::Counter kRerouted{"flow.rerouted"};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

// FNV-1a over a node sequence; the hash of walk_packet's WalkResult::path.
std::uint64_t fold_node(std::uint64_t h, NodeId node) {
  h ^= node.value();
  h *= kFnvPrime;
  return h;
}

/// The flow fate a terminal walk status counts as.
FlowFate fate_of(WalkStatus status) {
  switch (status) {
    case WalkStatus::kDelivered: return FlowFate::kDelivered;
    case WalkStatus::kDropped: return FlowFate::kBlackholed;
    case WalkStatus::kNoRoute: return FlowFate::kNoRoute;
    case WalkStatus::kTtlExceeded: return FlowFate::kLooped;
  }
  ASPEN_UNREACHABLE("unknown walk status");
}

// Lowest live link id: no hash involved, so the pick is the same under
// every seed.
template <typename Live>
const Topology::Neighbor* pick_lowest(std::span<const Topology::Neighbor> row,
                                      const Live& live) {
  const Topology::Neighbor* chosen = nullptr;
  for (const Topology::Neighbor& cand : row) {
    if (!live(cand.link)) continue;
    if (chosen == nullptr || cand.link.value() < chosen->link.value()) {
      chosen = &cand;
    }
  }
  return chosen;
}

// Hash-weighted over live hops only; weight = candidate's physical degree,
// so fatter subtrees attract proportionally more flows.
template <typename Live>
const Topology::Neighbor* pick_weighted(
    std::span<const Topology::Neighbor> row, std::uint64_t key,
    const std::vector<std::uint32_t>& node_weight, const Live& live) {
  std::uint64_t total_weight = 0;
  for (const Topology::Neighbor& cand : row) {
    if (live(cand.link)) total_weight += node_weight[cand.node.value()];
  }
  if (total_weight == 0) return nullptr;
  std::uint64_t r = key % total_weight;
  for (const Topology::Neighbor& cand : row) {
    if (!live(cand.link)) continue;
    const std::uint64_t w = node_weight[cand.node.value()];
    if (r < w) return &cand;
    r -= w;
  }
  return nullptr;
}

}  // namespace

const char* to_cstring(NextHopPolicy policy) {
  switch (policy) {
    case NextHopPolicy::kSeededHash: return "hash";
    case NextHopPolicy::kLowest: return "lowest";
    case NextHopPolicy::kWeighted: return "weighted";
  }
  return "?";
}

bool parse_next_hop_policy(std::string_view text, NextHopPolicy& out) {
  if (text == "hash") {
    out = NextHopPolicy::kSeededHash;
  } else if (text == "lowest") {
    out = NextHopPolicy::kLowest;
  } else if (text == "weighted") {
    out = NextHopPolicy::kWeighted;
  } else {
    return false;
  }
  return true;
}

const char* to_cstring(FlowFate fate) {
  switch (fate) {
    case FlowFate::kInflight: return "inflight";
    case FlowFate::kDelivered: return "delivered";
    case FlowFate::kBlackholed: return "blackholed";
    case FlowFate::kLooped: return "looped";
    case FlowFate::kNoRoute: return "no_route";
  }
  return "?";
}

FlowPlane::FlowPlane(const Topology& topo, const FlowPlaneOptions& options)
    : topo_(&topo),
      options_(options),
      admit_rng_(fault::derive_stream_seed(options.base_seed,
                                           fault::kStreamFlowAdmit)) {
  ASPEN_REQUIRE(options_.ttl >= 2, "flow ttl must allow at least two links");
  ASPEN_REQUIRE(options_.patience >= 1 && options_.patience <= 255,
                "flow patience must be in [1, 255]");
  // Physical degree per node, for the weighted policy: a switch's CSR
  // adjacency size (up + down), 1 for hosts.
  node_weight_.assign(topo.num_nodes(), 1);
  const Topology::AdjacencyView adj = topo.adjacency_view();
  for (std::uint64_t s = 0; s < topo.num_switches(); ++s) {
    node_weight_[s] = adj.begin[s + 1] - adj.begin[s];
  }
  dest_start_.assign(topo.num_hosts() + 1, 0);
}

std::uint64_t FlowPlane::flow_seed(std::uint64_t i) const {
  return fault::derive_stream_seed(options_.base_seed,
                                   fault::kStreamFlowEcmp + i);
}

std::uint64_t FlowPlane::admit(std::span<const Flow> flows) {
  const std::uint64_t hosts = topo_->num_hosts();
  for (const Flow& f : flows) {
    ASPEN_REQUIRE(f.src.value() < hosts && f.dst.value() < hosts,
                  "flow endpoints must be hosts of the plane's topology");
  }
  const std::uint64_t first = src_.size();
  src_.resize(first + flows.size());
  dst_.resize(first + flows.size());
  for (std::uint64_t i = 0; i < flows.size(); ++i) {
    src_[first + i] = flows[i].src.value();
    dst_[first + i] = flows[i].dst.value();
  }
  activate(first);
  return flows.size();
}

std::uint64_t FlowPlane::admit_uniform(std::uint64_t count) {
  const std::uint64_t hosts = topo_->num_hosts();
  ASPEN_REQUIRE(hosts >= 2, "uniform admission needs at least two hosts");
  const std::uint64_t first = src_.size();
  src_.resize(first + count);
  dst_.resize(first + count);
  for (std::uint64_t i = first; i < first + count; ++i) {
    src_[i] = static_cast<std::uint32_t>(admit_rng_.index(hosts));
    auto dst = static_cast<std::uint32_t>(admit_rng_.index(hosts - 1));
    if (dst >= src_[i]) ++dst;
    dst_[i] = dst;
  }
  activate(first);
  return count;
}

void FlowPlane::activate(std::uint64_t first) {
  const std::uint64_t end = src_.size();
  const std::uint64_t count = end - first;
  fate_.resize(end, static_cast<std::uint8_t>(FlowFate::kInflight));
  fails_.resize(end, 0);
  attempts_.resize(end, 0);
  path_hash_.resize(end, 0);
  hops_.resize(end, 0);

  // Counting sort of the batch by destination host, written behind the
  // surviving flows; admission order is kept within a destination.
  std::fill(dest_start_.begin(), dest_start_.end(), 0);
  for (std::uint64_t i = first; i < end; ++i) ++dest_start_[dst_[i] + 1];
  std::partial_sum(dest_start_.begin(), dest_start_.end(),
                   dest_start_.begin());
  const std::uint64_t kept = active_.size();
  active_.resize(kept + count);
  for (std::uint64_t i = first; i < end; ++i) {
    active_[kept + dest_start_[dst_[i]]++] = static_cast<std::uint32_t>(i);
  }
  // Stable merge: on equal destinations the survivor (admitted earlier)
  // stays first, so the list remains ordered by (destination, index).
  merged_.resize(active_.size());
  const auto mid = active_.begin() + static_cast<std::ptrdiff_t>(kept);
  std::merge(active_.begin(), mid, mid, active_.end(), merged_.begin(),
             [this](std::uint32_t a, std::uint32_t b) {
               return dst_[a] < dst_[b];
             });
  active_.swap(merged_);

  obs::count(kAdmitted, count);
  obs::trace_event(static_cast<double>(epoch_), obs::TraceKind::kFlowAdmit,
                   static_cast<std::uint32_t>(epoch_), 0, count, "admit");
}

FlowPlane::Attempt FlowPlane::walk_one(std::uint64_t i,
                                       const ecmp::EcmpReadView& view,
                                       const LinkStateOverlay& actual,
                                       double at_time_ms,
                                       std::vector<NodeId>* path_out) const {
  const HostId src{src_[i]};
  const HostId dst{dst_[i]};
  const std::uint64_t seed = flow_seed(i);
  const std::uint64_t dest_index = view.dest_index(dst);
  const ecmp::WalkSpec spec{.src = src,
                            .dst = dst,
                            .ttl = options_.ttl,
                            .apply_health = options_.apply_health,
                            .health_seed = options_.health_seed,
                            .start_ms = at_time_ms};

  if (path_out != nullptr) path_out->clear();
  std::uint64_t path_hash = kFnvOffset;
  const ecmp::WalkStop stop = ecmp::walk(
      *topo_, actual, spec,
      [&](SwitchId at, double /*now*/) { return view.row(at, dest_index); },
      [&](std::span<const Topology::Neighbor> row, SwitchId at,
          const auto& live) -> const Topology::Neighbor* {
        switch (options_.policy) {
          case NextHopPolicy::kSeededHash:
            // A flow plane switch always sees its own dead ports.
            return ecmp::pick_hashed(row, ecmp::flow_key(seed, src, dst, at),
                                     /*aware=*/true, live);
          case NextHopPolicy::kLowest:
            return pick_lowest(row, live);
          case NextHopPolicy::kWeighted:
            return pick_weighted(row, ecmp::flow_key(seed, src, dst, at),
                                 node_weight_, live);
        }
        return nullptr;
      },
      [&](NodeId node) {
        path_hash = fold_node(path_hash, node);
        if (path_out != nullptr) path_out->push_back(node);
      });

  Attempt attempt;
  attempt.outcome = fate_of(stop.status);
  attempt.path_hash = path_hash;
  attempt.hops = static_cast<std::uint16_t>(stop.hops);
  return attempt;
}

FlowStepStats FlowPlane::step(const RoutingState& knowledge,
                              const LinkStateOverlay& actual,
                              double at_time_ms) {
  FlowStepStats stats;
  stats.epoch = epoch_;
  stats.attempted = active_.size();

  const ecmp::EcmpReadView view(knowledge);
  attempt_scratch_.resize(active_.size());

  // Fan out: every write is addressed by the active-list position, so the
  // partition (and thread count) never shows in the output.  No obs
  // emission inside the workers — counters aggregate after the join.
  parallel::parallel_for_blocks(
      active_.size(), options_.threads,
      [&](std::uint64_t begin, std::uint64_t end, int /*worker*/) {
        for (std::uint64_t pos = begin; pos < end; ++pos) {
          attempt_scratch_[pos] =
              walk_one(active_[pos], view, actual, at_time_ms, nullptr);
        }
      });

  // Serial fold in walk order: update fates, detect reroutes, compact the
  // active list in place (which keeps its destination order).
  std::uint64_t kept = 0;
  for (std::uint64_t pos = 0; pos < active_.size(); ++pos) {
    const std::uint32_t f = active_[pos];
    const Attempt& attempt = attempt_scratch_[pos];
    ++attempts_[f];
    if (path_hash_[f] != 0 && attempt.path_hash != path_hash_[f]) {
      ++stats.reroutes;
    }
    path_hash_[f] = attempt.path_hash;
    hops_[f] = attempt.hops;
    if (attempt.outcome == FlowFate::kDelivered) {
      fate_[f] = static_cast<std::uint8_t>(FlowFate::kDelivered);
      ++stats.delivered;
      continue;
    }
    if (++fails_[f] >= options_.patience) {
      fate_[f] = static_cast<std::uint8_t>(attempt.outcome);
      switch (attempt.outcome) {
        case FlowFate::kBlackholed: ++stats.blackholed; break;
        case FlowFate::kLooped: ++stats.looped; break;
        case FlowFate::kNoRoute: ++stats.no_route; break;
        default:
          ASPEN_UNREACHABLE("walk_one returned a non-terminal outcome");
      }
      continue;
    }
    active_[kept++] = f;
  }
  active_.resize(kept);

  delivered_ += stats.delivered;
  blackholed_ += stats.blackholed;
  looped_ += stats.looped;
  no_route_ += stats.no_route;
  reroutes_ += stats.reroutes;

  obs::count(kAttempted, stats.attempted);
  obs::count(kDelivered, stats.delivered);
  obs::count(kLost, stats.lost());
  obs::count(kRerouted, stats.reroutes);
  obs::trace_event(static_cast<double>(epoch_), obs::TraceKind::kFlowStep,
                   static_cast<std::uint32_t>(epoch_),
                   static_cast<std::uint32_t>(stats.attempted),
                   stats.delivered, "step");
  if (stats.blackholed > 0) {
    obs::trace_event(static_cast<double>(epoch_), obs::TraceKind::kFlowDrop,
                     static_cast<std::uint32_t>(epoch_), 0, stats.blackholed,
                     "blackhole");
  }
  if (stats.looped > 0) {
    obs::trace_event(static_cast<double>(epoch_), obs::TraceKind::kFlowDrop,
                     static_cast<std::uint32_t>(epoch_), 0, stats.looped,
                     "loop");
  }
  if (stats.no_route > 0) {
    obs::trace_event(static_cast<double>(epoch_), obs::TraceKind::kFlowDrop,
                     static_cast<std::uint32_t>(epoch_), 0, stats.no_route,
                     "no_route");
  }
  ++epoch_;

  // The loss-accounting identity is structural; paranoid audits recount it
  // from the per-flow fates to catch any future drift.
  if (contracts::effective_audit_level(contracts::AuditLevel::kOff) >=
      contracts::AuditLevel::kParanoid) {
    std::uint64_t by_fate[5] = {0, 0, 0, 0, 0};
    for (const std::uint8_t f : fate_) ++by_fate[f];
    ASPEN_CHECK(by_fate[static_cast<int>(FlowFate::kInflight)] == inflight() &&
                    by_fate[static_cast<int>(FlowFate::kDelivered)] ==
                        delivered_ &&
                    by_fate[static_cast<int>(FlowFate::kBlackholed)] ==
                        blackholed_ &&
                    by_fate[static_cast<int>(FlowFate::kLooped)] == looped_ &&
                    by_fate[static_cast<int>(FlowFate::kNoRoute)] == no_route_,
                "flow fate counters disagree with per-flow fates");
    ASPEN_CHECK(std::adjacent_find(active_.begin(), active_.end(),
                                   [this](std::uint32_t a, std::uint32_t b) {
                                     return dst_[a] > dst_[b] ||
                                            (dst_[a] == dst_[b] && a >= b);
                                   }) == active_.end(),
                "inflight flows out of (destination, admission) order");
  }
  ASPEN_ASSERT(admitted() == delivered() + lost() + inflight(),
               "flow accounting identity violated: ", admitted(), " != ",
               delivered(), " + ", lost(), " + ", inflight());
  return stats;
}

std::uint64_t FlowPlane::fate_fingerprint() const {
  std::uint64_t h = kFnvOffset;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= kFnvPrime;
    h ^= h >> 29;
  };
  mix(admitted());
  for (std::uint64_t i = 0; i < admitted(); ++i) {
    mix(fate_[i]);
    mix(path_hash_[i]);
    mix(hops_[i]);
    mix(attempts_[i]);
  }
  return h;
}

FlowChaosReport run_flow_chaos(ProtocolKind kind, const Topology& topo,
                               const FlowChaosOptions& options) {
  fault::ChaosCampaign campaign(kind, topo, options.chaos);
  FlowPlane plane(topo, options.plane);

  const auto events =
      static_cast<std::uint64_t>(std::max(options.chaos.num_events, 0));
  const std::uint64_t batches = events + 1;
  const std::uint64_t per_batch = options.total_flows / batches;

  const auto step_now = [&]() {
    plane.step(campaign.protocol().tables(), campaign.overlay(),
               static_cast<double>(plane.epochs()));
  };

  // Up-front batch (plus the division remainder), walked against the
  // freshly converged tables; then one batch + epoch per fault action.
  plane.admit_uniform(per_batch + options.total_flows % batches);
  step_now();
  while (campaign.advance()) {
    plane.admit_uniform(per_batch);
    step_now();
  }
  campaign.finish();
  // Healed fabric: drain the backlog for a bounded number of epochs.
  for (int i = 0; i < options.drain_epochs && plane.inflight() > 0; ++i) {
    step_now();
  }

  FlowChaosReport report;
  report.admitted = plane.admitted();
  report.delivered = plane.delivered();
  report.lost = plane.lost();
  report.inflight = plane.inflight();
  report.blackholed = plane.blackholed();
  report.looped = plane.looped();
  report.no_route = plane.no_route();
  report.reroutes = plane.reroutes();
  report.epochs = plane.epochs();
  report.fate_fingerprint = plane.fate_fingerprint();
  report.chaos = campaign.outcome();
  ASPEN_ASSERT(report.admitted ==
                   report.delivered + report.lost + report.inflight,
               "campaign flow accounting identity violated");
  return report;
}

}  // namespace aspen
