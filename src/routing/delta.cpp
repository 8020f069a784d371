#include "src/routing/delta.h"

#include <utility>

#include "src/util/contracts.h"

namespace aspen::routing {

DeltaSession::DeltaSession(const Topology& topo, DestGranularity granularity,
                           int threads)
    : topo_(&topo),
      granularity_(granularity),
      threads_(threads),
      overlay_(topo),
      state_(compute_updown_routes(topo, overlay_, granularity, threads)),
      baseline_(state_) {
  ASPEN_ASSERT(baseline_.has_digests(),
               "engine states must carry digests for rollback checks");
}

void DeltaSession::absorb(const RecomputeStats& stats) {
  cumulative_.total_dests = stats.total_dests;
  cumulative_.full_rows += stats.full_rows;
  cumulative_.escalated_rows += stats.escalated_rows;
  cumulative_.patched_switches += stats.patched_switches;
}

RecomputeStats DeltaSession::apply(std::span<const LinkId> links) {
  std::vector<LinkId> changed;
  changed.reserve(links.size());
  for (const LinkId link : links) {
    if (overlay_.fail(link)) {
      changed.push_back(link);
      failed_.push_back(link);
    }
  }
  RecomputeStats stats{};
  if (!changed.empty()) {
    stats = recompute_updown_routes(*topo_, overlay_, state_, changed,
                                    threads_);
  }
  absorb(stats);
  return stats;
}

bool DeltaSession::rollback() {
  if (!failed_.empty()) {
    for (const LinkId link : failed_) overlay_.recover(link);
    absorb(
        recompute_updown_routes(*topo_, overlay_, state_, failed_, threads_));
    failed_.clear();
  }
  if (tables_match_by_digest(baseline_, state_)) return true;
  ++rebuilds_;
  rebuild();
  return false;
}

void DeltaSession::rebuild() {
  overlay_.recover_all();
  failed_.clear();
  state_ = compute_updown_routes(*topo_, overlay_, granularity_, threads_);
}

RecomputeStats DeltaSession::sync_to(const LinkStateOverlay& live) {
  std::vector<LinkId> changed;
  for (std::uint32_t id = 0; id < topo_->num_links(); ++id) {
    const LinkId link{id};
    const bool want_up = live.is_up(link);
    if (overlay_.is_up(link) == want_up) continue;
    if (want_up) {
      overlay_.recover(link);
    } else {
      overlay_.fail(link);
    }
    changed.push_back(link);
  }
  RecomputeStats stats{};
  if (!changed.empty()) {
    stats = recompute_updown_routes(*topo_, overlay_, state_, changed,
                                    threads_);
    // failed_links() enumerates in link-id order — deterministic, and the
    // order rollback()/restore paths replay the set in.
    failed_ = overlay_.failed_links();
  }
  absorb(stats);
  return stats;
}

std::shared_ptr<const PinnedState> DeltaSession::pin() {
  ASPEN_ASSERT(state_.has_digests(),
               "pin() needs engine digests for the fingerprint");
  const std::uint64_t fp = state_fingerprint(state_);
  if (pinned_ && pinned_->fingerprint == fp) return pinned_;
  auto snap = std::make_shared<PinnedState>();
  snap->state = state_;
  snap->failed = failed_;
  snap->fingerprint = fp;
  pinned_ = std::move(snap);
  return pinned_;
}

void DeltaSession::corrupt_for_test() {
  ASPEN_REQUIRE(!state_.tables.empty() && state_.num_dests() > 0,
                "nothing to corrupt");
  RoutingTables::Entry& entry = state_.tables.row(0, 0);
  entry.cost = entry.cost == 7 ? 8 : 7;
  state_.tables.clear_hops(entry);
}

}  // namespace aspen::routing
