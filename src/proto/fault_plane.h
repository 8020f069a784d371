// The physical fault plane every protocol simulation reacts to: link up/down
// state and health (the overlay), per-switch liveness, and crash custody.
//
// §8.3 treats a switch failure as all of its links failing.  FaultPlane is
// the one implementation of that rule and its inverse, so ANP, LSP and any
// preview pass over a schedule apply identical semantics:
//
//   * every event is idempotent — failing a down link, recovering an up
//     one, crashing a dead switch or reviving a live one changes nothing;
//   * a crash fails every incident live link atomically, and the crashed
//     switch takes custody of those links (they are owed back on revival);
//   * a link recovering while an endpoint is crashed stays down, custody
//     passing to that endpoint;
//   * a revival restores the links it holds custody of, except those whose
//     far endpoint is still crashed — custody of those moves onward.
//
// apply() reports the links that actually flipped, which is all a protocol
// needs to derive its reaction (ANP's detections, LSP's LSA origins).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/sim/simulator.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"
#include "src/util/contracts.h"

namespace aspen {

namespace proto {
struct FaultPlaneAuditPeer;  // test-only corruption hook, src/proto/audit.h
}

/// One fault-plane event inside a single protocol reaction run.  A list of
/// these describes a compound scenario — e.g. a link failing at t=0 and a
/// switch crashing at t=5ms, *while the protocol is still reacting* to the
/// first event.
struct TimedFault {
  enum class Kind {
    kLinkFail,
    kLinkRecover,
    kSwitchFail,     ///< atomically fails every incident live link
    kSwitchRecover,  ///< revives the switch and the links its crash took
  };

  Kind kind = Kind::kLinkFail;
  SimTime at = 0.0;        ///< offset into the run (>= 0, non-decreasing)
  LinkId link{};           ///< for the link kinds
  SwitchId sw{};           ///< for the switch kinds

  [[nodiscard]] static TimedFault link_fail(LinkId l, SimTime at = 0.0) {
    return {Kind::kLinkFail, at, l, SwitchId::invalid()};
  }
  [[nodiscard]] static TimedFault link_recover(LinkId l, SimTime at = 0.0) {
    return {Kind::kLinkRecover, at, l, SwitchId::invalid()};
  }
  [[nodiscard]] static TimedFault switch_fail(SwitchId s, SimTime at = 0.0) {
    return {Kind::kSwitchFail, at, LinkId::invalid(), s};
  }
  [[nodiscard]] static TimedFault switch_recover(SwitchId s,
                                                 SimTime at = 0.0) {
    return {Kind::kSwitchRecover, at, LinkId::invalid(), s};
  }

  /// True for the kinds that take links down.
  [[nodiscard]] bool is_failure() const {
    return kind == Kind::kLinkFail || kind == Kind::kSwitchFail;
  }
  [[nodiscard]] bool is_switch_event() const {
    return kind == Kind::kSwitchFail || kind == Kind::kSwitchRecover;
  }
};

class FaultPlane {
 public:
  /// What one event actually changed.
  struct Flips {
    /// Links whose up/down state flipped, in application order: all went
    /// down for a failure event, all came up for a recovery event.
    std::vector<LinkId> links;
    /// A switch event changed the switch's liveness.
    bool switch_flipped = false;
  };

  /// Every link up, every switch alive, no custody.
  explicit FaultPlane(const Topology& topo);

  /// Applies one event under the rules in the header comment.
  Flips apply(const TimedFault& ev);

  [[nodiscard]] const LinkStateOverlay& overlay() const { return overlay_; }
  /// Health (gray, flapping) is set here directly: routing is never told
  /// about it.  Up/down changes belong to apply().
  [[nodiscard]] LinkStateOverlay& overlay_mut() { return overlay_; }
  [[nodiscard]] bool is_alive(SwitchId s) const {
    return alive_[s.value()] != 0;
  }
  /// Per switch, 0 while crashed.
  [[nodiscard]] const std::vector<char>& alive() const { return alive_; }

  /// Crash-custody invariants: every custody list belongs to a crashed
  /// switch (kCrashCustody) and holds only incident links that are down
  /// (kCrashCustody, kCustodyLinkUp).
  [[nodiscard]] AuditReport audit() const;

 private:
  friend struct proto::FaultPlaneAuditPeer;

  /// Adds `link` to `s`'s custody unless it is already there.
  void owe(std::uint32_t s, LinkId link);

  const Topology* topo_;
  LinkStateOverlay overlay_;
  std::vector<char> alive_;
  /// Links owed back on each crashed switch's revival.
  std::map<std::uint32_t, std::vector<LinkId>> custody_;
};

}  // namespace aspen
