// Forwarding state for up*/down* routing.
//
// Destinations are keyed by *edge switch* (the L_1 switch a host attaches
// to), mirroring the prefix-based aggregation real fabrics use (§5.3): all
// hosts under one edge switch share forwarding entries.  Each entry is the
// ECMP set of next hops on shortest valid up*/down* paths.
//
// Storage is arena-backed (see DESIGN.md "memory layout"): one contiguous
// next-hop pool per RoutingTables plus a dest-major array of 12-byte
// (offset, count, capacity, cost) entry records, replacing a heap-owning
// vector per entry.  At mega scale (n=5, k=48: 15k switches × 3456
// destinations = 54M entries) the per-entry vectors cost one allocation
// and one pointer chase each; the arena is two allocations total, and the
// dest-major order matches the engine's write pattern (all switches for
// one destination) so a row recompute streams one contiguous region.
//
// Every entry's pool slice has a fixed capacity — the switch's max
// up/down degree, computed from the topology alone — so slice offsets are
// a pure function of (topology, num_dests): identical across thread
// counts, across full vs. incremental computation, and stable across
// DeltaSession apply/rollback.  Serial protocol code (ANP detours) may
// exceed a capacity; those rows relocate to a tail region of the pool.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/topo/topology.h"
#include "src/util/contracts.h"
#include "src/util/ids.h"

namespace aspen {

/// What a forwarding-table destination key denotes.
///
/// kEdge aggregates all hosts under one L_1 switch into a single prefix —
/// the compact state real fabrics use (§5.3).  kHost gives every host its
/// own entry; host ("1st hop") link failures then become visible to the
/// routing layer, which is what the paper's "failed each link in each
/// tree" sweeps assume.
enum class DestGranularity { kEdge, kHost };

/// Arena-backed forwarding tables for every switch in a topology: a
/// dest-major entry array over one shared next-hop pool.  row(s, d) is the
/// one checked way to reach the (switch, destination) row, and the
/// per-switch operations (reachable_count, switch_equal, copy_switch) act
/// on all of one switch's rows; all next-hop reads and writes go through
/// the owning RoutingTables because an Entry only names a pool slice.
/// ecmp::EcmpReadView is the unchecked reader for hot loops.
class RoutingTables {
 public:
  using Neighbor = Topology::Neighbor;

  static constexpr int kUnreachable = -1;

  /// One (switch, destination) row: a pool slice plus the path cost.
  /// `cost` is hops to the destination edge switch via the slice's hops;
  /// kUnreachable when the slice is empty.  Mutate hops only through the
  /// owning RoutingTables (the record does not own the pool storage).
  struct Entry {
    std::uint32_t hop_begin = 0;  ///< pool offset of this row's slice
    std::uint16_t hop_count = 0;  ///< hops in use
    std::uint16_t hop_cap = 0;    ///< slice capacity
    int cost = kUnreachable;

    [[nodiscard]] bool reachable() const { return hop_count != 0; }
  };
  static_assert(sizeof(Entry) == 12, "Entry is the hot-path record; "
                                     "keep it at 12 bytes");

  RoutingTables() = default;

  /// Shapes the arena: `caps[s]` is switch s's per-row slice capacity.
  /// All entries start unreachable.
  void reset(std::uint64_t num_dests, std::span<const std::uint32_t> caps) {
    num_tables_ = caps.size();
    num_dests_ = num_dests;
    std::uint64_t stride = 0;
    row_begin_.assign(num_tables_, 0);
    cap_.assign(caps.begin(), caps.end());
    for (std::uint64_t s = 0; s < num_tables_; ++s) {
      row_begin_[s] = static_cast<std::uint32_t>(stride);
      stride += caps[s];
    }
    const std::uint64_t pool_size = stride * num_dests;
    ASPEN_CHECK(pool_size < std::uint64_t{1} << 32,
                "next-hop pool exceeds 32-bit offsets (", pool_size,
                " slots)");
    row_stride_ = static_cast<std::uint32_t>(stride);
    meta_.assign(num_tables_ * num_dests, Entry{});
    for (std::uint64_t d = 0; d < num_dests; ++d) {
      Entry* row = meta_.data() + d * num_tables_;
      const std::uint32_t base = static_cast<std::uint32_t>(d * stride);
      for (std::uint64_t s = 0; s < num_tables_; ++s) {
        row[s].hop_begin = base + row_begin_[s];
        row[s].hop_cap = static_cast<std::uint16_t>(caps[s]);
      }
    }
    pool_.assign(pool_size, Neighbor{});
  }

  [[nodiscard]] std::uint64_t size() const { return num_tables_; }
  [[nodiscard]] bool empty() const { return num_tables_ == 0; }
  [[nodiscard]] std::uint64_t num_dests() const { return num_dests_; }

  // ---- row access ------------------------------------------------------

  /// The row of switch `s` toward destination index `d`.
  [[nodiscard]] const Entry& row(std::uint64_t s, std::uint64_t d) const {
    ASPEN_REQUIRE(s < num_tables_ && d < num_dests_,
                  "table entry out of range");
    return meta_[d * num_tables_ + s];
  }
  [[nodiscard]] Entry& row(std::uint64_t s, std::uint64_t d) {
    ASPEN_REQUIRE(s < num_tables_ && d < num_dests_,
                  "table entry out of range");
    return meta_[d * num_tables_ + s];
  }

  [[nodiscard]] std::span<const Neighbor> hops(const Entry& e) const {
    return {pool_.data() + e.hop_begin, e.hop_count};
  }
  /// In-place element mutation only; use the ops below to resize a slice.
  [[nodiscard]] std::span<Neighbor> hops_mut(Entry& e) {
    return {pool_.data() + e.hop_begin, e.hop_count};
  }

  // ---- slice mutation (keeps hop_count/cap coherent) -------------------

  void clear_hops(Entry& e) { e.hop_count = 0; }

  void assign_hops(Entry& e, std::span<const Neighbor> hops) {
    while (e.hop_cap < hops.size()) grow(e);
    for (std::uint64_t i = 0; i < hops.size(); ++i) {
      pool_[e.hop_begin + i] = hops[i];
    }
    e.hop_count = static_cast<std::uint16_t>(hops.size());
  }

  /// Inserts keeping the slice sorted by link id (the order the route
  /// engine emits), so withdraw-then-restore yields byte-identical rows.
  /// A hop already present (same link) is left alone.
  void insert_hop_by_link(Entry& e, Neighbor nb) {
    {
      const Neighbor* base = pool_.data() + e.hop_begin;
      std::uint32_t pos = 0;
      while (pos < e.hop_count && base[pos].link.value() < nb.link.value()) {
        ++pos;
      }
      if (pos < e.hop_count && base[pos].link == nb.link) return;
    }
    if (e.hop_count == e.hop_cap) grow(e);
    Neighbor* base = pool_.data() + e.hop_begin;
    std::uint32_t pos = 0;
    while (pos < e.hop_count && base[pos].link.value() < nb.link.value()) {
      ++pos;
    }
    for (std::uint32_t i = e.hop_count; i > pos; --i) base[i] = base[i - 1];
    base[pos] = nb;
    ++e.hop_count;
  }

  void erase_hop_at(Entry& e, std::uint64_t index) {
    ASPEN_REQUIRE(index < e.hop_count, "hop index out of range");
    Neighbor* base = pool_.data() + e.hop_begin;
    for (std::uint64_t i = index + 1; i < e.hop_count; ++i) {
      base[i - 1] = base[i];
    }
    --e.hop_count;
  }

  /// Removes every hop matching `pred`; returns how many were removed.
  template <typename Pred>
  std::uint64_t erase_hops_if(Entry& e, Pred pred) {
    Neighbor* base = pool_.data() + e.hop_begin;
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < e.hop_count; ++i) {
      if (!pred(static_cast<const Neighbor&>(base[i]))) {
        base[kept++] = base[i];
      }
    }
    const std::uint64_t removed = e.hop_count - kept;
    e.hop_count = static_cast<std::uint16_t>(kept);
    return removed;
  }

  // ---- per-switch operations -------------------------------------------

  /// Number of destinations switch `s` currently reaches.
  [[nodiscard]] std::uint64_t reachable_count(std::uint64_t s) const {
    ASPEN_REQUIRE(s < num_tables_, "table index out of range");
    std::uint64_t count = 0;
    for (std::uint64_t d = 0; d < num_dests_; ++d) {
      if (meta_[d * num_tables_ + s].reachable()) ++count;
    }
    return count;
  }

  /// Logical equality of switch `s`'s rows in two tables: costs and hop
  /// sequences, not pool offsets.
  [[nodiscard]] static bool switch_equal(const RoutingTables& a,
                                         const RoutingTables& b,
                                         std::uint64_t s) {
    ASPEN_REQUIRE(s < a.num_tables_ && s < b.num_tables_,
                  "table index out of range");
    if (a.num_dests_ != b.num_dests_) return false;
    for (std::uint64_t d = 0; d < a.num_dests_; ++d) {
      if (!rows_equal(a, a.meta_[d * a.num_tables_ + s], b,
                      b.meta_[d * b.num_tables_ + s])) {
        return false;
      }
    }
    return true;
  }

  /// Deep copy of switch `s`'s rows — costs and hop slices — from `src`,
  /// a table of the same shape (LSP's per-switch table flip).
  void copy_switch(const RoutingTables& src, std::uint64_t s) {
    ASPEN_REQUIRE(s < num_tables_ && s < src.num_tables_,
                  "table index out of range");
    ASPEN_REQUIRE(src.num_dests_ == num_dests_,
                  "row copy between different table shapes");
    for (std::uint64_t d = 0; d < num_dests_; ++d) {
      Entry& to = meta_[d * num_tables_ + s];
      const Entry& from = src.meta_[d * src.num_tables_ + s];
      to.cost = from.cost;
      assign_hops(to, src.hops(from));
    }
  }

  /// Test hook for shape-corruption checks: forget the last table.
  void pop_back() {
    ASPEN_REQUIRE(num_tables_ > 0, "pop_back on empty tables");
    --num_tables_;
  }

  /// Logical content equality across whole states (dest-major scan).
  friend bool operator==(const RoutingTables& a, const RoutingTables& b) {
    if (a.num_tables_ != b.num_tables_ || a.num_dests_ != b.num_dests_) {
      return false;
    }
    for (std::uint64_t d = 0; d < a.num_dests_; ++d) {
      const Entry* ra = a.meta_.data() + d * a.num_tables_;
      const Entry* rb = b.meta_.data() + d * b.num_tables_;
      for (std::uint64_t s = 0; s < a.num_tables_; ++s) {
        if (!rows_equal(a, ra[s], b, rb[s])) return false;
      }
    }
    return true;
  }

  // ---- raw engine access ----------------------------------------------

  /// Hot-loop pointers for the routing engine.  meta is dest-major:
  /// meta[d * num_tables + s].  Invalidated by reset() and by any slice
  /// growth (serial protocol mutation) — the engine never grows slices.
  struct Raw {
    Entry* meta = nullptr;
    Neighbor* pool = nullptr;
    std::uint64_t num_tables = 0;
    std::uint64_t num_dests = 0;
  };
  [[nodiscard]] Raw raw() {
    return {meta_.data(), pool_.data(), num_tables_, num_dests_};
  }
  struct ConstRaw {
    const Entry* meta = nullptr;
    const Neighbor* pool = nullptr;
    std::uint64_t num_tables = 0;
    std::uint64_t num_dests = 0;
  };
  [[nodiscard]] ConstRaw raw() const {
    return {meta_.data(), pool_.data(), num_tables_, num_dests_};
  }

  /// Logical equality of two rows (possibly from different arenas).
  static bool rows_equal(const RoutingTables& ta, const Entry& ea,
                         const RoutingTables& tb, const Entry& eb) {
    if (ea.cost != eb.cost || ea.hop_count != eb.hop_count) return false;
    const Neighbor* ha = ta.pool_.data() + ea.hop_begin;
    const Neighbor* hb = tb.pool_.data() + eb.hop_begin;
    for (std::uint32_t i = 0; i < ea.hop_count; ++i) {
      if (!(ha[i] == hb[i])) return false;
    }
    return true;
  }

 private:
  /// Relocates a full slice to a doubled-capacity region appended at the
  /// pool tail.  Serial-protocol-only: growth invalidates raw() pointers
  /// and is never reached by the engine (engine rows fit their caps by
  /// construction: every hop set is a subset of one adjacency direction).
  void grow(Entry& e) {
    const std::uint32_t new_cap = e.hop_cap == 0 ? 2 : e.hop_cap * 2;
    ASPEN_CHECK(new_cap <= std::uint16_t(-1), "row capacity overflow");
    ASPEN_CHECK(pool_.size() + new_cap < std::uint64_t{1} << 32,
                "next-hop pool exceeds 32-bit offsets");
    const auto new_begin = static_cast<std::uint32_t>(pool_.size());
    pool_.resize(pool_.size() + new_cap);
    for (std::uint32_t i = 0; i < e.hop_count; ++i) {
      pool_[new_begin + i] = pool_[e.hop_begin + i];
    }
    e.hop_begin = new_begin;
    e.hop_cap = static_cast<std::uint16_t>(new_cap);
  }

  std::uint64_t num_tables_ = 0;
  std::uint64_t num_dests_ = 0;
  std::uint32_t row_stride_ = 0;             ///< pool slots per destination
  std::vector<std::uint32_t> row_begin_;     ///< per switch, within a row
  std::vector<std::uint32_t> cap_;           ///< per switch slice capacity
  std::vector<Entry> meta_;                  ///< dest-major entry records
  std::vector<Neighbor> pool_;               ///< all next-hop slices
};

/// Per-row slice capacities for a topology: a switch's row is either an
/// ECMP set of uplinks or a set of live downlinks, never both, so its max
/// up/down degree bounds every row the engine can write.
[[nodiscard]] inline std::vector<std::uint32_t> switch_row_caps(
    const Topology& topo) {
  std::vector<std::uint32_t> caps(topo.num_switches());
  for (std::uint64_t s = 0; s < topo.num_switches(); ++s) {
    const SwitchId id{static_cast<std::uint32_t>(s)};
    caps[s] = static_cast<std::uint32_t>(std::max(
        topo.up_neighbors(id).size(), topo.down_neighbors(id).size()));
  }
  return caps;
}

/// Order-independent fingerprint of one forwarding row, keyed by its
/// destination index.  Per-table digests are the XOR of all row hashes, so
/// an engine rewriting rows in any order (or in parallel) accumulates the
/// same digest, and a point mutation updates it in O(1):
///   digest ^= hash_fwd_row(d, old...) ^ hash_fwd_row(d, new...).
/// The bit pattern matches the pre-arena layout exactly, keeping recorded
/// fingerprints (serve goldens, checkpoints) valid across the refactor.
[[nodiscard]] inline std::uint64_t hash_fwd_row(
    std::uint64_t dest_index, int cost,
    std::span<const Topology::Neighbor> hops) {
  // FNV-1a over the row contents, seeded by the destination key so that
  // swapping two rows' contents never cancels out under XOR.
  std::uint64_t h = 0xcbf29ce484222325ull ^ (dest_index * 0x9e3779b97f4a7c15ull);
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  };
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(cost)));
  mix(hops.size());
  for (const Topology::Neighbor& nb : hops) {
    mix(nb.node.value());
    mix(nb.link.value());
  }
  return h;
}

[[nodiscard]] inline std::uint64_t hash_fwd_entry(
    std::uint64_t dest_index, const RoutingTables& tables,
    const RoutingTables::Entry& e) {
  return hash_fwd_row(dest_index, e.cost, tables.hops(e));
}

/// Forwarding tables for every switch in a topology.
struct RoutingState {
  DestGranularity granularity = DestGranularity::kEdge;
  /// k/2 — maps a HostId to its edge-switch prefix index under kEdge.
  std::uint32_t hosts_per_edge = 1;
  RoutingTables tables;  ///< rows of every switch, indexed by SwitchId
  /// Per-switch XOR-of-row-hashes fingerprints (see hash_fwd_row),
  /// maintained by the routing engine.  Empty on states built by hand;
  /// digest-aware code falls back to deep compares then.
  std::vector<std::uint64_t> digests;  ///< indexed by SwitchId

  /// True when the engine-maintained digests cover every table.
  [[nodiscard]] bool has_digests() const {
    return !tables.empty() && digests.size() == tables.size();
  }

  /// Table index for packets destined to `dst`.
  [[nodiscard]] std::uint64_t dest_index(HostId dst) const {
    return granularity == DestGranularity::kEdge
               ? dst.value() / hosts_per_edge
               : dst.value();
  }

  /// Destinations per table (S for kEdge, host count for kHost).
  [[nodiscard]] std::uint64_t num_dests() const { return tables.num_dests(); }
};

/// Whole-state fingerprint: a position-aware fold of the per-switch digests
/// (plus the granularity parameters), so two states differ in the
/// fingerprint iff any switch's table content differs.  Requires
/// has_digests(); the position multiplier keeps a swap of two switches'
/// tables from cancelling the way a plain XOR would.
[[nodiscard]] inline std::uint64_t state_fingerprint(const RoutingState& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  };
  mix(s.granularity == DestGranularity::kEdge ? 1u : 2u);
  mix(s.hosts_per_edge);
  mix(s.digests.size());
  for (std::size_t i = 0; i < s.digests.size(); ++i) {
    mix((i + 1) * 0x9e3779b97f4a7c15ull);
    mix(s.digests[i]);
  }
  return h;
}

}  // namespace aspen
