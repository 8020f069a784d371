// Flow-scale traffic plane: millions of concurrent flows walked through
// the vulnerability window.
//
// The packet walker (src/routing/packet_walk.h) prices one packet at a
// time through virtual-call routers and per-walk path vectors; that caps
// realistic load far below the north star.  The FlowPlane keeps every
// admitted flow in flat struct-of-arrays state (no node-based containers —
// see the hot-path-nested-container lint rule) and re-walks all still
// inflight flows per epoch through the shared hop-loop kernel
// (ecmp::walk), reading rows through ecmp::EcmpReadView and folding each
// path into a hash, with zero allocations on the per-flow path.
//
// Walk order is destination order.  The inflight list is kept sorted by
// (destination host, admission index): admit() counting-sorts each batch
// by destination and merges it stably into the survivors, and step()'s
// fold compacts the list in place, so no epoch sorts.  Consecutive walks
// therefore read one destination's slice of the destination-major
// forwarding arena instead of a random slice per flow.  Results do not
// depend on this order: every write is indexed by flow id and every
// counter is a sum.
//
// Loss accounting is integer and exact by construction: a flow is admitted
// once, attempts delivery every epoch, and ends as exactly one of
// delivered, lost (after `patience` consecutive failed epochs, classified
// by the last failure), or still inflight — so at any instant
//   admitted == delivered + lost + inflight.
//
// Determinism contract: per-flow ECMP seeds come from
// fault::derive_stream_seed(base_seed, kStreamFlowEcmp + flow); the epoch
// step fans out over parallel_for_blocks with index-addressed writes and
// aggregates counters after the join, so flow fates — and the order-aware
// fate_fingerprint() — are byte-identical at any thread count.  The
// kSeededHash policy reproduces the packet walker's hash/rotation
// decisions bit-for-bit (tests/test_flow_plane.cpp diffs every path).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/fault/chaos.h"
#include "src/routing/ecmp.h"
#include "src/routing/fwd_table.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"
#include "src/traffic/patterns.h"
#include "src/util/rng.h"

namespace aspen {

/// How a switch picks one next hop from its ECMP row for a flow
/// (mirroring the NextHopSelectionPolicy idiom of flat-DCN routers).
enum class NextHopPolicy : std::uint8_t {
  /// The packet walker's pick: hash-select over the full offered row, then
  /// rotate to the first live hop (local link awareness).  The policy the
  /// differential harness byte-matches against walk_packet.
  kSeededHash,
  /// Lowest live link id — provably independent of every seed.
  kLowest,
  /// Hash-weighted over live hops, weight = the candidate node's physical
  /// degree, so fatter subtrees draw proportionally more flows.
  kWeighted,
};

[[nodiscard]] const char* to_cstring(NextHopPolicy policy);
/// Parses "hash" / "lowest" / "weighted"; returns false on anything else.
[[nodiscard]] bool parse_next_hop_policy(std::string_view text,
                                         NextHopPolicy& out);

/// Terminal (or not-yet-terminal) state of one admitted flow.
enum class FlowFate : std::uint8_t {
  kInflight = 0,  ///< admitted, not yet delivered or declared lost
  kDelivered,     ///< reached its destination host
  kBlackholed,    ///< patience exhausted on dead-link / dead-row drops
  kLooped,        ///< patience exhausted on TTL walks (forwarding loop)
  kNoRoute,       ///< patience exhausted on empty forwarding rows
};

[[nodiscard]] const char* to_cstring(FlowFate fate);

struct FlowPlaneOptions {
  /// Base seed; per-flow ECMP seeds and the admission pattern generator
  /// derive their independent streams from it.
  std::uint64_t base_seed = 1;
  NextHopPolicy policy = NextHopPolicy::kSeededHash;
  /// Max links per attempt before declaring a forwarding loop.
  int ttl = 64;
  /// Consecutive failed epochs before a flow is declared lost.  1 makes
  /// every failure immediately fatal (the paper's instantaneous-loss
  /// reading); larger values model retry patience across convergence.
  int patience = 3;
  /// Worker threads for step() (0 = auto).  Output is byte-identical at
  /// every value; this only buys wall-clock.
  int threads = 0;
  /// Honor gray/flapping link health on walked paths (same keying as the
  /// packet walker's health model).
  bool apply_health = false;
  std::uint64_t health_seed = 0;
};

/// What one epoch did.  All integers; lost() folds the three causes.
struct FlowStepStats {
  std::uint64_t epoch = 0;      ///< 0-based epoch index just executed
  std::uint64_t attempted = 0;  ///< inflight flows walked this epoch
  std::uint64_t delivered = 0;
  std::uint64_t blackholed = 0;
  std::uint64_t looped = 0;
  std::uint64_t no_route = 0;
  std::uint64_t reroutes = 0;  ///< flows whose path changed between attempts

  [[nodiscard]] std::uint64_t lost() const {
    return blackholed + looped + no_route;
  }
};

class FlowPlane {
 public:
  explicit FlowPlane(const Topology& topo,
                     const FlowPlaneOptions& options = {});

  /// Admits a batch of flows (each starts inflight with 0 attempts).
  /// Both endpoints must be hosts of the topology.  Returns the number
  /// admitted.
  std::uint64_t admit(std::span<const Flow> flows);

  /// Admits `count` uniform-random flows (src != dst) from the plane's own
  /// admission stream.  Successive calls continue the stream, so splitting
  /// one admission into batches never changes the flows generated.
  std::uint64_t admit_uniform(std::uint64_t count);

  /// Walks every inflight flow once against `knowledge` tables over the
  /// `actual` link state.  Parallel (options.threads) but byte-identical
  /// at any thread count.  Reads the tables through a fresh EcmpReadView —
  /// safe against arena slice growth between calls.
  FlowStepStats step(const RoutingState& knowledge,
                     const LinkStateOverlay& actual, double at_time_ms = 0.0);

  // ---- accounting (admitted == delivered + lost + inflight, always) ----

  [[nodiscard]] std::uint64_t admitted() const { return src_.size(); }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t lost() const {
    return blackholed_ + looped_ + no_route_;
  }
  [[nodiscard]] std::uint64_t inflight() const { return active_.size(); }
  [[nodiscard]] std::uint64_t blackholed() const { return blackholed_; }
  [[nodiscard]] std::uint64_t looped() const { return looped_; }
  [[nodiscard]] std::uint64_t no_route() const { return no_route_; }
  [[nodiscard]] std::uint64_t reroutes() const { return reroutes_; }
  [[nodiscard]] std::uint64_t epochs() const { return epoch_; }

  // ---- per-flow inspection ---------------------------------------------

  [[nodiscard]] Flow flow(std::uint64_t i) const {
    return {HostId{src_[i]}, HostId{dst_[i]}};
  }
  /// The flow's private ECMP seed (derive_stream_seed, kStreamFlowEcmp+i).
  [[nodiscard]] std::uint64_t flow_seed(std::uint64_t i) const;
  [[nodiscard]] FlowFate fate(std::uint64_t i) const {
    return static_cast<FlowFate>(fate_[i]);
  }
  /// FNV-1a over the node sequence of the flow's last attempt (exactly the
  /// node path walk_packet would record), 0 before any attempt.
  [[nodiscard]] std::uint64_t path_hash(std::uint64_t i) const {
    return path_hash_[i];
  }
  [[nodiscard]] std::uint32_t attempts(std::uint64_t i) const {
    return attempts_[i];
  }
  [[nodiscard]] std::uint16_t hops(std::uint64_t i) const { return hops_[i]; }

  /// Order-aware fold over every flow's (fate, path hash, hop count,
  /// attempts) — the byte-identity witness the determinism and campaign
  /// tests compare across thread counts.
  [[nodiscard]] std::uint64_t fate_fingerprint() const;

  // ---- single-flow oracle hook -----------------------------------------

  /// Outcome of one walk attempt.  `outcome` is never kInflight.
  struct Attempt {
    FlowFate outcome = FlowFate::kBlackholed;
    std::uint64_t path_hash = 0;
    std::uint16_t hops = 0;
  };

  /// Serially re-walks flow `i` against `view`/`actual` with the same
  /// decisions step() makes (step() calls it per flow), optionally
  /// materializing the node path into `path_out` (cleared first).  The
  /// differential test compares it node-for-node against walk_packet.
  [[nodiscard]] Attempt walk_one(std::uint64_t i,
                                 const ecmp::EcmpReadView& view,
                                 const LinkStateOverlay& actual,
                                 double at_time_ms,
                                 std::vector<NodeId>* path_out = nullptr) const;

 private:
  /// Starts flows [first, admitted()) inflight: sizes their per-flow state
  /// and merges them, counting-sorted by destination, into active_.
  void activate(std::uint64_t first);

  const Topology* topo_;
  FlowPlaneOptions options_;
  Rng admit_rng_;  ///< kStreamFlowAdmit stream for admit_uniform

  // Per-flow state, struct-of-arrays, indexed by admission order.
  std::vector<std::uint32_t> src_;
  std::vector<std::uint32_t> dst_;
  std::vector<std::uint8_t> fate_;        ///< FlowFate
  std::vector<std::uint8_t> fails_;       ///< consecutive failed epochs
  std::vector<std::uint32_t> attempts_;   ///< walks taken
  std::vector<std::uint64_t> path_hash_;  ///< last attempt's path hash
  std::vector<std::uint16_t> hops_;       ///< last attempt's hop count

  /// Per-node physical degree (switch adjacency size; 1 for hosts) for the
  /// kWeighted policy, precomputed once.
  std::vector<std::uint32_t> node_weight_;

  /// Inflight flow indices, sorted by (destination host, admission
  /// index): the order step() walks them in.
  std::vector<std::uint32_t> active_;

  // Scratch reused across calls: admit()'s per-destination counts (one
  // slot per host, plus one) and merge target, and step()'s attempts
  // (sized to the active set).
  std::vector<std::uint32_t> dest_start_;
  std::vector<std::uint32_t> merged_;
  std::vector<Attempt> attempt_scratch_;

  std::uint64_t delivered_ = 0;
  std::uint64_t blackholed_ = 0;
  std::uint64_t looped_ = 0;
  std::uint64_t no_route_ = 0;
  std::uint64_t reroutes_ = 0;
  std::uint64_t epoch_ = 0;
};

// ---- chaos-campaign traffic runs ---------------------------------------

struct FlowChaosOptions {
  /// The fault/heal schedule (seed, event count, probabilities).
  ChaosOptions chaos;
  FlowPlaneOptions plane;
  /// Flows admitted over the campaign, spread evenly across the schedule
  /// (one batch before each fault-plane action, remainder up front).
  std::uint64_t total_flows = 1 << 17;
  /// Epochs run after the final unwind so healed tables can deliver the
  /// backlog; flows still inflight after these count as `inflight`.
  int drain_epochs = 8;
};

/// End-of-campaign traffic verdict.  The identity
/// admitted == delivered + lost + inflight holds exactly.
struct FlowChaosReport {
  std::uint64_t admitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t inflight = 0;
  std::uint64_t blackholed = 0;
  std::uint64_t looped = 0;
  std::uint64_t no_route = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t epochs = 0;
  std::uint64_t fate_fingerprint = 0;
  /// The underlying fault schedule's own accounting.
  ChaosOutcome chaos;

  /// Fraction of admitted traffic lost during convergence — the paper's
  /// headline claim measured as flows, not analytics.
  [[nodiscard]] double lost_rate() const {
    return admitted == 0
               ? 0.0
               : static_cast<double>(lost) / static_cast<double>(admitted);
  }
};

/// Drives one ChaosCampaign action-by-action (the PR-8 advance() API),
/// interleaving flow admission and a FlowPlane epoch against the
/// protocol's live tables after every action, then unwinds and drains.
/// Same (seed, schedule) against kAnp vs kLsp isolates the protocols'
/// traffic-lost difference.
[[nodiscard]] FlowChaosReport run_flow_chaos(ProtocolKind kind,
                                             const Topology& topo,
                                             const FlowChaosOptions& options);

}  // namespace aspen
