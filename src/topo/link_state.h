// Dynamic link up/down state, layered over an immutable Topology.
//
// "The tree consists of a relatively stable set of deployed physical links,
//  and a subset of these links are up and available at any given time" (§6).
// Keeping liveness separate from structure lets one built topology serve
// many failure experiments, and lets a router's *knowledge* of the network
// (possibly stale) be a different overlay than the network's actual state.
//
// Beyond the paper's binary up/down, the overlay models two degraded health
// states that dominate real data-center failure processes:
//
//   * Gray{loss_rate}        — the link reports up and carries traffic, but
//     silently drops a fraction of packets.  Routing cannot see it; only a
//     probing failure detector (src/fault/detector.h) can.
//   * Flapping{period, duty} — the link oscillates between up (the first
//     duty·period of each period) and down (the rest), thrashing any
//     control plane that reacts to every transition.
//
// Degraded links still answer is_up() == true: gray failures are precisely
// the faults the binary liveness layer does not see, and a flapping link's
// instantaneous phase is a function of time (phase_up / loss_now), not of
// the persistent overlay state.  fail()/recover() clear any degradation —
// an administratively cut or repaired link starts from a clean slate.
//
// Storage is flat (see DESIGN.md "memory layout"): liveness is a word
// bitset the routing engine reads through up_words(), and the degraded set
// is a membership bitset plus a sorted (id, state) pair of parallel
// vectors.  The hot probes — is_up(), "is this link degraded at all" — are
// one word read; only a confirmed-degraded link pays a binary search.
// The std::map this replaced cost a pointer chase per lookup on every
// packet fate decision.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/topo/topology.h"
#include "src/util/contracts.h"
#include "src/util/ids.h"
#include "src/util/status.h"

namespace aspen {

/// Per-link health. kUp/kDown mirror the binary overlay; kGray and
/// kFlapping are degraded-but-up states visible only to probes and to the
/// data plane's packet fate, never to is_up().
enum class LinkHealth : std::uint8_t { kUp, kGray, kFlapping, kDown };

[[nodiscard]] inline const char* to_cstring(LinkHealth h) {
  switch (h) {
    case LinkHealth::kUp: return "up";
    case LinkHealth::kGray: return "gray";
    case LinkHealth::kFlapping: return "flapping";
    case LinkHealth::kDown: return "down";
  }
  return "?";
}

/// Full health description of one link. Times are milliseconds to match
/// SimTime without depending on the sim layer.
struct LinkHealthState {
  LinkHealth health = LinkHealth::kUp;
  double loss_rate = 0.0;  ///< kGray: P(drop) per packet crossing the link
  double period_ms = 0.0;  ///< kFlapping: full up+down cycle length
  double duty = 1.0;       ///< kFlapping: fraction of each period spent up
};

class LinkStateOverlay {
 public:
  /// All links initially up and healthy.
  explicit LinkStateOverlay(const Topology& topo)
      : num_links_(static_cast<std::uint32_t>(topo.num_links())),
        up_words_(word_count(num_links_), ~std::uint64_t{0}),
        degraded_words_(word_count(num_links_), 0) {}

  [[nodiscard]] bool is_up(LinkId id) const {
    ASPEN_REQUIRE(id.value() < num_links_, "link id out of range");
    return bit_test(up_words_, id.value());
  }

  /// The liveness bitset (bit l set == link l up), for engine hot loops
  /// that cannot afford the per-call bounds check of is_up().
  [[nodiscard]] std::span<const std::uint64_t> up_words() const {
    return up_words_;
  }

  [[nodiscard]] std::uint32_t num_links() const { return num_links_; }

  /// Marks a link failed; idempotent. Returns true if state changed.
  /// Clears any gray/flapping degradation — down dominates.
  bool fail(LinkId id) {
    const bool was_up = is_up(id);
    bit_clear(up_words_, id.value());
    erase_degraded(id.value());
    return was_up;
  }

  /// Marks a link recovered; idempotent. Returns true if state changed.
  /// A repaired link comes back clean (no residual degradation).
  bool recover(LinkId id) {
    const bool was_up = is_up(id);
    bit_set(up_words_, id.value());
    erase_degraded(id.value());
    return !was_up;
  }

  /// Restores every link to up and healthy.
  void recover_all() {
    up_words_.assign(up_words_.size(), ~std::uint64_t{0});
    degraded_words_.assign(degraded_words_.size(), 0);
    degraded_ids_.clear();
    degraded_states_.clear();
  }

  [[nodiscard]] std::vector<LinkId> failed_links() const {
    std::vector<LinkId> failed;
    for (std::uint32_t id = 0; id < num_links_; ++id) {
      if (!bit_test(up_words_, id)) failed.push_back(LinkId{id});
    }
    return failed;
  }

  [[nodiscard]] std::uint64_t num_failed() const {
    std::uint64_t up = 0;
    for (const std::uint64_t w : up_words_) {
      up += static_cast<std::uint64_t>(std::popcount(w));
    }
    // Padding bits past num_links_ stay 1 (they are never failed).
    return num_links_ - (up - (word_count(num_links_) * 64 - num_links_));
  }

  // ---- degraded health (gray / flapping) --------------------------------

  /// Marks an up link gray: it stays up but drops `loss_rate` of packets.
  void set_gray(LinkId id, double loss_rate) {
    ASPEN_REQUIRE(is_up(id), "cannot degrade a down link");
    ASPEN_REQUIRE(loss_rate > 0.0 && loss_rate <= 1.0,
                  "gray loss rate must be in (0, 1]");
    LinkHealthState s;
    s.health = LinkHealth::kGray;
    s.loss_rate = loss_rate;
    upsert_degraded(id.value(), s);
  }

  /// Marks an up link flapping: up for the first duty·period of every
  /// period (phase anchored at t = 0), down for the rest.
  void set_flapping(LinkId id, double period_ms, double duty) {
    ASPEN_REQUIRE(is_up(id), "cannot degrade a down link");
    ASPEN_REQUIRE(period_ms > 0.0, "flap period must be positive");
    ASPEN_REQUIRE(duty > 0.0 && duty < 1.0, "flap duty must be in (0, 1)");
    LinkHealthState s;
    s.health = LinkHealth::kFlapping;
    s.period_ms = period_ms;
    s.duty = duty;
    upsert_degraded(id.value(), s);
  }

  /// Restores a degraded link to clean health (liveness unchanged).
  /// Returns true if the link was degraded.
  bool clear_degradation(LinkId id) {
    ASPEN_REQUIRE(id.value() < num_links_, "link id out of range");
    return erase_degraded(id.value());
  }

  /// Current health of a link; kDown wins over any stale degradation.
  [[nodiscard]] LinkHealthState health(LinkId id) const {
    if (!is_up(id)) {
      LinkHealthState s;
      s.health = LinkHealth::kDown;
      s.loss_rate = 1.0;
      return s;
    }
    if (!bit_test(degraded_words_, id.value())) return LinkHealthState{};
    return degraded_states_[degraded_index(id.value())];
  }

  /// Is a flapping link in its up phase at `now_ms`? Non-flapping links are
  /// always "in phase" (their fate is decided by is_up / loss_rate).
  [[nodiscard]] bool phase_up(LinkId id, double now_ms) const {
    ASPEN_REQUIRE(id.value() < num_links_, "link id out of range");
    if (!bit_test(degraded_words_, id.value())) return true;
    const LinkHealthState& s = degraded_states_[degraded_index(id.value())];
    if (s.health != LinkHealth::kFlapping) return true;
    return std::fmod(now_ms, s.period_ms) < s.duty * s.period_ms;
  }

  /// Instantaneous packet-loss probability on a link at `now_ms`:
  /// down → 1, gray → loss_rate, flapping → 0 or 1 by phase, clean → 0.
  [[nodiscard]] double loss_now(LinkId id, double now_ms) const {
    if (!is_up(id)) return 1.0;
    if (!bit_test(degraded_words_, id.value())) return 0.0;
    const LinkHealthState& s = degraded_states_[degraded_index(id.value())];
    if (s.health == LinkHealth::kGray) return s.loss_rate;
    if (s.health != LinkHealth::kFlapping) return 0.0;
    return std::fmod(now_ms, s.period_ms) < s.duty * s.period_ms ? 0.0 : 1.0;
  }

  [[nodiscard]] std::vector<LinkId> degraded_links() const {
    std::vector<LinkId> out;
    out.reserve(degraded_ids_.size());
    for (const std::uint32_t id : degraded_ids_) out.push_back(LinkId{id});
    return out;
  }

  [[nodiscard]] std::uint64_t num_degraded() const {
    return degraded_ids_.size();
  }

 private:
  [[nodiscard]] static std::uint64_t word_count(std::uint64_t bits) {
    return (bits + 63) / 64;
  }
  [[nodiscard]] static bool bit_test(const std::vector<std::uint64_t>& words,
                                     std::uint32_t i) {
    return (words[i >> 6] >> (i & 63)) & 1u;
  }
  static void bit_set(std::vector<std::uint64_t>& words, std::uint32_t i) {
    words[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  static void bit_clear(std::vector<std::uint64_t>& words, std::uint32_t i) {
    words[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Position of a *known-degraded* id in the sorted id vector.
  [[nodiscard]] std::uint64_t degraded_index(std::uint32_t id) const {
    const auto it =
        std::lower_bound(degraded_ids_.begin(), degraded_ids_.end(), id);
    ASPEN_ASSERT(it != degraded_ids_.end() && *it == id,
                 "degraded bitset and id vector out of sync");
    return static_cast<std::uint64_t>(it - degraded_ids_.begin());
  }

  void upsert_degraded(std::uint32_t id, const LinkHealthState& s) {
    if (bit_test(degraded_words_, id)) {
      degraded_states_[degraded_index(id)] = s;
      return;
    }
    bit_set(degraded_words_, id);
    const auto it =
        std::lower_bound(degraded_ids_.begin(), degraded_ids_.end(), id);
    const auto pos = it - degraded_ids_.begin();
    degraded_ids_.insert(it, id);
    degraded_states_.insert(degraded_states_.begin() + pos, s);
  }

  bool erase_degraded(std::uint32_t id) {
    if (!bit_test(degraded_words_, id)) return false;
    bit_clear(degraded_words_, id);
    // Always-on check: it bounds the erase position for the optimizer,
    // which a release-elided ASPEN_ASSERT cannot.
    const auto it =
        std::lower_bound(degraded_ids_.begin(), degraded_ids_.end(), id);
    ASPEN_CHECK(it != degraded_ids_.end() && *it == id,
                "degraded bitset and id vector out of sync");
    degraded_states_.erase(degraded_states_.begin() +
                           (it - degraded_ids_.begin()));
    degraded_ids_.erase(it);
    return true;
  }

  std::uint32_t num_links_ = 0;
  std::vector<std::uint64_t> up_words_;        // bit l == link l is up
  std::vector<std::uint64_t> degraded_words_;  // bit l == link l degraded
  // Sparse payloads, sorted by link id, parallel to each other: only
  // kGray/kFlapping entries live here, found by binary search after the
  // bitset confirms membership.
  std::vector<std::uint32_t> degraded_ids_;
  std::vector<LinkHealthState> degraded_states_;
};

}  // namespace aspen
