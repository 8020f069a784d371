#include "src/topo/striping.h"

#include <vector>

#include "src/util/contracts.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace aspen {

std::string to_string(StripingKind kind) {
  switch (kind) {
    case StripingKind::kStandard: return "standard";
    case StripingKind::kRotated: return "rotated";
    case StripingKind::kRandom: return "random";
    case StripingKind::kParallelHeavy: return "parallel-heavy";
  }
  return "unknown";
}

std::string StripingConfig::to_string() const {
  std::string s = aspen::to_string(kind);
  if (kind == StripingKind::kRandom) s += "(seed=" + std::to_string(seed) + ")";
  return s;
}

Striper::Striper(const TreeParams& params, StripingConfig config)
    : params_(params), config_(config) {
  params_.validate();
}

std::uint64_t Striper::child_member(Level i, std::uint64_t parent_pod,
                                    std::uint64_t child_ordinal,
                                    std::uint64_t parent_member,
                                    std::uint64_t z) const {
  const auto ui = static_cast<std::size_t>(i);
  ASPEN_REQUIRE(i >= 2 && i <= params_.n, "striping level ", i,
                " out of range");
  const std::uint64_t ci = params_.c[ui];
  const std::uint64_t mi = params_.m[ui];
  const std::uint64_t m_below = params_.m[ui - 1];
  ASPEN_REQUIRE(parent_pod < params_.p[ui], "parent pod out of range");
  ASPEN_REQUIRE(child_ordinal < params_.r[ui], "child ordinal out of range");
  ASPEN_REQUIRE(parent_member < mi, "parent member out of range");
  ASPEN_REQUIRE(z < ci, "link ordinal out of range");

  switch (config_.kind) {
    case StripingKind::kStandard:
      return (parent_member * ci + z) % m_below;
    case StripingKind::kRotated:
      return (parent_member * ci + z + child_ordinal) % m_below;
    case StripingKind::kParallelHeavy:
      return parent_member % m_below;
    case StripingKind::kRandom:
      return random_member(i, parent_pod, child_ordinal, parent_member, z);
  }
  ASPEN_UNREACHABLE("unreachable striping kind");
}

std::uint64_t Striper::random_member(Level i, std::uint64_t parent_pod,
                                     std::uint64_t child_ordinal,
                                     std::uint64_t parent_member,
                                     std::uint64_t z) const {
  const auto ui = static_cast<std::size_t>(i);
  const std::uint64_t ci = params_.c[ui];
  const std::uint64_t mi = params_.m[ui];
  const std::uint64_t m_below = params_.m[ui - 1];
  const std::uint64_t uplinks_per_child =
      mi * ci / m_below;  // = k/2, the child's full uplink budget

  // Deterministic per-(level, parent pod, child pod) deal: each child member
  // appears exactly `uplinks_per_child` times in a shuffled deck; parent
  // member a takes slots [a·c_i, (a+1)·c_i).
  const std::uint64_t pair_key =
      (static_cast<std::uint64_t>(i) << 48) ^ (parent_pod << 24) ^
      child_ordinal;
  // aspen-lint: allow(seed-arith) -- per-(parent,child-pod) wiring stream predating derive_stream_seed; changing the mixing would re-wire every random striping for a given seed
  Rng rng(config_.seed * 0x9E3779B97F4A7C15ULL + pair_key);
  std::vector<std::uint64_t> deck;
  deck.reserve(mi * ci);
  for (std::uint64_t member = 0; member < m_below; ++member) {
    for (std::uint64_t rep = 0; rep < uplinks_per_child; ++rep) {
      deck.push_back(member);
    }
  }
  rng.shuffle(deck);
  // Eq. 2: the deck holds each child member exactly k/2 times, so every
  // parent member's c_i-slot window is in bounds.
  ASPEN_ASSERT(deck.size() == mi * ci, "random striping deck covers ",
               deck.size(), " slots, expected ", mi * ci);
  ASPEN_ASSERT(parent_member * ci + z < deck.size(),
               "random striping slot out of range");
  return deck[parent_member * ci + z];
}

}  // namespace aspen
