// LSP, the long way: a fully distributed link-state implementation.
//
// LspSimulation (lsp.h) computes the post-event routing state once and uses
// the DES only for timing — a sound shortcut because a single link event is
// fully described by one LSA.  This class keeps no such global knowledge:
// every switch owns
//   * an LSDB: highest sequence number seen per origin, plus its *believed*
//     link-state overlay assembled purely from received LSAs, and
//   * its own forwarding row, recomputed by running SPF on its believed
//     overlay whenever a new LSA is installed.
// Switch views are transiently inconsistent, exactly like a real IGP; the
// equivalence tests (tests/test_lsp_full.cpp) show the shortcut and the
// distributed protocol converge to identical tables with identical
// reaction sets and timing — the justification for using the fast model in
// the Figure 10 benchmarks.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/proto/protocol.h"
#include "src/proto/report.h"
#include "src/routing/updown.h"
#include "src/sim/simulator.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"

namespace aspen {

class LspLsdbSimulation final : public ProtocolSimulation {
 public:
  explicit LspLsdbSimulation(
      const Topology& topo, DelayModel delays = {},
      DestGranularity granularity = DestGranularity::kEdge);

  /// Runs one link failure or recovery at t=0.  Switch crashes and
  /// compound schedules are not modeled: PreconditionError.
  FailureReport simulate_timed_events(
      std::span<const TimedFault> events) override;

  /// The fabric's forwarding state: each switch's self-computed row.
  [[nodiscard]] const RoutingState& tables() const override { return tables_; }

 private:
  struct Lsa {
    std::uint32_t origin;  ///< switch id
    std::uint64_t seq;
    std::uint32_t link;    ///< the link the update describes
    bool up;
    int hops;              ///< distance traveled, for metrics
  };

  /// Per-switch protocol state.
  struct SwitchState {
    std::map<std::uint32_t, std::uint64_t> highest_seq;  ///< per origin
    LinkStateOverlay believed;
    /// SPF result for `believed`, updated incrementally per installed LSA
    /// (each install flips at most one link).  Caching the whole state per
    /// switch trades memory for dropping the full SPF this class used to
    /// run on every install; it exists for fidelity on small trees, where
    /// the footprint is trivial.
    RoutingState view;

    explicit SwitchState(const Topology& topo) : believed(topo) {}
  };

  struct RunContext {
    Simulator sim;
    std::vector<CpuQueue> cpus;
    std::vector<char> informed;
    std::vector<char> reacted;
    std::vector<SimTime> react_time;
    std::vector<int> react_hops;
    FailureReport report;
  };

  FailureReport simulate_link_event(LinkId link, bool up);
  /// Refreshes `s`'s own forwarding row after its believed overlay may
  /// have flipped `changed`; returns true when the row changed.
  bool recompute_row(SwitchId s, LinkId changed);
  void install_and_flood(RunContext& ctx, SwitchId at, const Lsa& lsa,
                         LinkId arrival_link);
  void transmit(RunContext& ctx, SwitchId from, const Lsa& lsa,
                LinkId arrival_link);

  DelayModel delays_;
  DestGranularity granularity_;
  RoutingState tables_;        ///< row s computed by switch s
  std::vector<SwitchState> state_;
  std::vector<std::uint64_t> own_seq_;  ///< per switch, as LSA origin
};

}  // namespace aspen
