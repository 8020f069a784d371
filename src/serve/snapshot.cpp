#include "src/serve/snapshot.h"

#include "src/obs/obs.h"
#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen::serve {

namespace {

const obs::Counter kSeals{"serve.seals"};

}  // namespace

SnapshotRegistry::SnapshotRegistry(const Topology& topo,
                                   DestGranularity granularity, int threads)
    : topo_(&topo), session_(topo, granularity, threads) {
  // Serving starts from the intact fabric: seal epoch 0 at t = 0 so the
  // server never lacks a labeled snapshot, even before the first sync.
  current_.pinned = session_.pin();
  current_.seal_epoch = 0;
  current_.seal_time_ms = 0.0;
  seals_ = 1;
}

void SnapshotRegistry::note_live_event() { ++live_epoch_; }

const Snapshot& SnapshotRegistry::seal(const LinkStateOverlay& live,
                                       double now_ms) {
  session_.sync_to(live);
  current_.pinned = session_.pin();
  current_.seal_epoch = live_epoch_;
  current_.seal_time_ms = now_ms;
  ++seals_;
  obs::count(kSeals);
  obs::trace_event(now_ms, obs::TraceKind::kServeSeal,
                   static_cast<std::uint32_t>(live_epoch_), 0,
                   current_.pinned->fingerprint, "seal");
  return current_;
}

const Snapshot& SnapshotRegistry::current() const {
  ASPEN_ASSERT(current_.pinned != nullptr, "registry has no sealed snapshot");
  return current_;
}

std::uint64_t SnapshotRegistry::staleness_events() const {
  return live_epoch_ - current_.seal_epoch;
}

void SnapshotRegistry::restore(const std::vector<LinkId>& failed,
                               std::uint64_t expected_fingerprint,
                               std::uint64_t seal_epoch, double seal_time_ms,
                               std::uint64_t live_epoch, std::uint64_t seals) {
  LinkStateOverlay want(*topo_);
  for (const LinkId link : failed) want.fail(link);
  session_.sync_to(want);
  current_.pinned = session_.pin();
  if (current_.pinned->fingerprint != expected_fingerprint) {
    throw PreconditionError(
        "serve checkpoint: recomputed snapshot fingerprint does not match "
        "the sealed digest (corrupt checkpoint or changed topology)");
  }
  current_.seal_epoch = seal_epoch;
  current_.seal_time_ms = seal_time_ms;
  live_epoch_ = live_epoch;
  seals_ = seals;
}

}  // namespace aspen::serve
