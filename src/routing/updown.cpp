#include "src/routing/updown.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "src/obs/obs.h"
#include "src/util/contracts.h"
#include "src/util/parallel.h"
#include "src/util/status.h"

namespace aspen {

namespace {

const obs::Counter kFullRecomputes{"routing.full_recomputes"};
const obs::Counter kRowsFullRecompute{"routing.rows_full_recompute"};
const obs::Counter kIncrementalPatches{"routing.incremental_patches"};
const obs::Counter kRowsEscalated{"routing.rows_escalated"};
const obs::Counter kRowsPatched{"routing.rows_patched"};

constexpr int kInf = std::numeric_limits<int>::max() / 2;
constexpr int kUnreachable = RoutingTables::kUnreachable;

using Entry = RoutingTables::Entry;
using Neighbor = Topology::Neighbor;

inline SwitchId switch_id(std::uint64_t s) {
  return SwitchId{static_cast<std::uint32_t>(s)};
}

// Unchecked liveness probe over the overlay's word bitset — the engine
// touches every link per destination row, so the per-call bounds check of
// LinkStateOverlay::is_up would dominate.
inline bool link_up(const std::uint64_t* up, std::uint32_t link) {
  return (up[link >> 6] >> (link & 63)) & 1u;
}

// Contiguous switch-id range [begin, end) per level, precomputed once so
// the per-destination loops iterate raw ids instead of calling
// switch_at/switches_at_level (and their bounds checks) per switch.
struct LevelRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

std::vector<LevelRange> make_level_ranges(const Topology& topo) {
  std::vector<LevelRange> ranges(static_cast<std::size_t>(topo.levels()) + 1);
  for (Level i = 1; i <= topo.levels(); ++i) {
    const std::uint64_t begin = topo.switch_at(i, 0).value();
    ranges[static_cast<std::size_t>(i)] = {
        begin, begin + topo.params().switches_at_level(i)};
  }
  return ranges;
}

// Per-worker scratch arena: every buffer is allocated once per worker and
// reused across all that worker's destination rows.  digest_delta
// accumulates this worker's old^new row-hash XORs per switch; deltas merge
// into the shared digests only after the pool joins, so workers never write
// shared memory (the atomic XOR per row this replaced was the one remaining
// cross-thread write in the hot loop).  XOR commutes, so the merged digests
// are independent of the chunk→worker deal and the thread count.
struct Scratch {
  std::vector<char> down_reach;
  std::vector<int> best;
  std::vector<std::uint64_t> digest_delta;
};

// Destinations per scheduling chunk: size chunks so one chunk's writes —
// its dest-major meta rows plus their next-hop pool slices — stay within a
// cache-friendly footprint (~1 MiB), while the round-robin chunk deal in
// parallel_for_chunks load-balances the ragged tail.
std::uint64_t chunk_for(std::uint64_t num_switches,
                        std::uint64_t pool_slots_per_dest) {
  constexpr std::uint64_t kTargetBytes = std::uint64_t{1} << 20;
  const std::uint64_t row_bytes = num_switches * sizeof(Entry) +
                                  pool_slots_per_dest * sizeof(Neighbor);
  return std::max<std::uint64_t>(1, kTargetBytes / std::max<std::uint64_t>(
                                                       1, row_bytes));
}

// Fills (or rewrites, under incremental recompute) the row of every switch
// for one destination, accumulating old^new row-hash deltas in the worker's
// digest_delta.  For edge granularity the destination is the edge switch
// itself (base cost 0 at the edge); for host granularity it is one host,
// whose (possibly failed) host link adds a final hop below the edge switch.
//
// All table access is raw arena pointers (RoutingTables::Raw) and raw CSR
// adjacency (Topology::AdjacencyView): the row for destination d is the
// contiguous meta slice raw.meta[d * num_tables ..], written in one
// streaming pass per level.  Hop writes go straight into each entry's pool
// slice; a row is always a subset of one adjacency direction, so it fits
// its fixed capacity and the engine never grows a slice.
void route_one_destination(const Topology& topo,
                           std::span<const LevelRange> ranges,
                           const std::uint64_t* up,
                           const Topology::AdjacencyView av,
                           const RoutingTables::Raw raw, SwitchId dest_edge,
                           std::uint64_t dest_index,
                           const Neighbor* host_link, Scratch& scratch) {
  const std::uint64_t num_switches = raw.num_tables;
  const bool host_reachable =
      host_link == nullptr || link_up(up, host_link->link.value());

  // Phase 1 — downward reachability.  Any all-downward path from level i to
  // the destination edge (level 1) has exactly i−1 hops, so we only track
  // *whether* a switch reaches the destination going strictly down.
  std::vector<char>& down_reach = scratch.down_reach;
  down_reach.assign(num_switches, 0);
  if (host_reachable) down_reach[dest_edge.value()] = 1;
  for (Level i = 2; i <= topo.levels(); ++i) {
    const LevelRange range = ranges[static_cast<std::size_t>(i)];
    for (std::uint64_t s = range.begin; s < range.end; ++s) {
      const Neighbor* nb = av.adj + av.split[s];
      const Neighbor* const down_end = av.adj + av.begin[s + 1];
      for (; nb != down_end; ++nb) {
        if (!link_up(up, nb->link.value())) continue;
        if (nb->node.value() >= num_switches) continue;  // host downlink
        if (down_reach[nb->node.value()]) {
          down_reach[s] = 1;
          break;
        }
      }
    }
  }

  // Extra hop for the host link in host granularity.
  const int base = host_link != nullptr ? 1 : 0;

  // Phase 2 — best valid up*/down* cost, processed top level first so each
  // switch can consult its parents' already-final costs.
  std::vector<int>& best = scratch.best;
  best.assign(num_switches, kInf);
  Entry* const row = raw.meta + dest_index * raw.num_tables;
  for (Level i = topo.levels(); i >= 1; --i) {
    const LevelRange range = ranges[static_cast<std::size_t>(i)];
    for (std::uint64_t s = range.begin; s < range.end; ++s) {
      Entry& entry = row[s];
      Neighbor* const slice = raw.pool + entry.hop_begin;
      const std::uint64_t old_hash = hash_fwd_row(
          dest_index, entry.cost, {slice, entry.hop_count});
      std::uint32_t count = 0;
      int cost = kUnreachable;

      if (down_reach[s]) {
        best[s] = i - 1 + base;
        if (s == dest_edge.value()) {
          if (host_link != nullptr) {
            // Host granularity: the final hop is the host link itself.
            slice[count++] = *host_link;
            cost = 1;
          } else {
            // Edge granularity: local delivery, no switch next hop.
            cost = 0;
          }
        } else {
          const Neighbor* nb = av.adj + av.split[s];
          const Neighbor* const down_end = av.adj + av.begin[s + 1];
          for (; nb != down_end; ++nb) {
            if (!link_up(up, nb->link.value())) continue;
            if (nb->node.value() >= num_switches) continue;
            if (down_reach[nb->node.value()]) slice[count++] = *nb;
          }
          // Down-reachability above L1 came from some live downward edge.
          ASPEN_ASSERT(count != 0,
                       "down-reachable switch has no live downward hop");
          cost = best[s];
        }
      } else {
        // Must climb: ECMP over parents with the minimal best cost.
        int min_parent = kInf;
        const Neighbor* const up_begin = av.adj + av.begin[s];
        const Neighbor* const up_end = av.adj + av.split[s];
        for (const Neighbor* nb = up_begin; nb != up_end; ++nb) {
          if (!link_up(up, nb->link.value())) continue;
          min_parent = std::min(min_parent, best[nb->node.value()]);
        }
        if (min_parent < kInf) {  // else: destination unreachable from s
          best[s] = 1 + min_parent;
          for (const Neighbor* nb = up_begin; nb != up_end; ++nb) {
            if (!link_up(up, nb->link.value())) continue;
            if (best[nb->node.value()] == min_parent) slice[count++] = *nb;
          }
          ASPEN_ASSERT(count != 0,
                       "a finite parent cost implies at least one ECMP uplink");
          cost = best[s];
        }
      }

      entry.hop_count = static_cast<std::uint16_t>(count);
      entry.cost = cost;
      const std::uint64_t new_hash =
          hash_fwd_row(dest_index, cost, {slice, count});
      if (old_hash != new_hash) {
        scratch.digest_delta[s] ^= old_hash ^ new_hash;
      }
    }
  }
}

// Granularity dispatch for one destination row.
void route_dest(const Topology& topo, std::span<const LevelRange> ranges,
                const std::uint64_t* up, const Topology::AdjacencyView av,
                const RoutingTables::Raw raw, DestGranularity granularity,
                std::uint64_t dest, Scratch& scratch) {
  if (granularity == DestGranularity::kEdge) {
    route_one_destination(topo, ranges, up, av, raw,
                          switch_id(ranges[1].begin + dest), dest, nullptr,
                          scratch);
  } else {
    const HostId host{static_cast<std::uint32_t>(dest)};
    const Neighbor uplink = topo.host_uplink(host);
    ASPEN_ASSERT(uplink.link.valid(), "every host has a wired uplink");
    // The host's entry is keyed on the *downlink* direction: the same
    // physical link, seen from the edge switch.
    const Neighbor downlink{topo.node_of(host), uplink.link};
    route_one_destination(topo, ranges, up, av, raw,
                          topo.edge_switch_of(host), dest, &downlink,
                          scratch);
  }
}

// Parent costs feed the up-climb patch below.  A switch's entry cost is
// exactly its phase-2 `best` value, with kUnreachable standing in for kInf
// (the engine writes entry.cost = best whenever best is finite).
inline int cost_as_best(const Entry& e) {
  return e.cost == kUnreachable ? kInf : e.cost;
}

// Merges the workers' private digest deltas into the shared per-switch
// digests, after the pool has joined.  XOR is order-free, so the result is
// identical at every thread count.
void merge_digest_deltas(std::span<Scratch> scratch,
                         std::vector<std::uint64_t>& digests) {
  for (const Scratch& sc : scratch) {
    for (std::uint64_t s = 0; s < sc.digest_delta.size(); ++s) {
      digests[s] ^= sc.digest_delta[s];
    }
  }
}

std::vector<Scratch> make_scratch(int workers, std::uint64_t num_switches) {
  std::vector<Scratch> scratch(static_cast<std::size_t>(workers));
  for (Scratch& sc : scratch) sc.digest_delta.assign(num_switches, 0);
  return scratch;
}

}  // namespace

RoutingState compute_updown_routes(const Topology& topo,
                                   const LinkStateOverlay& overlay,
                                   DestGranularity granularity, int threads) {
  RoutingState state;
  state.granularity = granularity;
  state.hosts_per_edge = static_cast<std::uint32_t>(topo.ports()) / 2;
  const std::uint64_t num_dests = granularity == DestGranularity::kEdge
                                      ? topo.params().S
                                      : topo.num_hosts();
  const std::vector<std::uint32_t> caps = switch_row_caps(topo);
  state.tables.reset(num_dests, caps);

  // Seed every digest with the all-default-rows fingerprint, so the uniform
  // old^new deltas in route_one_destination land on the true table digest.
  std::uint64_t empty_digest = 0;
  for (std::uint64_t d = 0; d < num_dests; ++d) {
    empty_digest ^= hash_fwd_row(d, kUnreachable, {});
  }
  state.digests.assign(topo.num_switches(), empty_digest);

  const std::vector<LevelRange> ranges = make_level_ranges(topo);
  const int workers = parallel::effective_num_threads(threads);
  std::vector<Scratch> scratch = make_scratch(workers, topo.num_switches());
  const RoutingTables::Raw raw = state.tables.raw();
  const Topology::AdjacencyView av = topo.adjacency_view();
  const std::uint64_t* up = overlay.up_words().data();
  const std::uint64_t pool_per_dest =
      std::accumulate(caps.begin(), caps.end(), std::uint64_t{0});
  parallel::parallel_for_chunks(
      num_dests, chunk_for(topo.num_switches(), pool_per_dest), workers,
      [&](std::uint64_t begin, std::uint64_t end, int worker) {
        Scratch& sc = scratch[static_cast<std::size_t>(worker)];
        for (std::uint64_t dest = begin; dest < end; ++dest) {
          route_dest(topo, ranges, up, av, raw, granularity, dest, sc);
        }
      });
  merge_digest_deltas(scratch, state.digests);
  // Emitted once per computation, after the worker pool joins — never from
  // inside the parallel loop — so traces stay byte-identical across thread
  // counts (the golden-trace determinism contract).
  obs::count(kFullRecomputes);
  obs::count(kRowsFullRecompute, num_dests);
  obs::trace_event(0.0, obs::TraceKind::kRouteFull,
                   static_cast<std::uint32_t>(topo.num_switches()), 0,
                   num_dests,
                   granularity == DestGranularity::kEdge ? "edge" : "host");
  return state;
}

RoutingState compute_updown_routes(const Topology& topo,
                                   const LinkStateOverlay& overlay,
                                   DestGranularity granularity) {
  return compute_updown_routes(topo, overlay, granularity, /*threads=*/0);
}

RoutingState compute_updown_routes(const Topology& topo,
                                   const LinkStateOverlay& overlay) {
  return compute_updown_routes(topo, overlay, DestGranularity::kEdge);
}

RoutingState compute_updown_routes(const Topology& topo) {
  return compute_updown_routes(topo, LinkStateOverlay(topo),
                               DestGranularity::kEdge);
}

RecomputeStats recompute_updown_routes(const Topology& topo,
                                       const LinkStateOverlay& overlay,
                                       RoutingState& state,
                                       std::span<const LinkId> changed_links,
                                       int threads) {
  const std::uint64_t num_switches = topo.num_switches();
  ASPEN_REQUIRE(state.tables.size() == num_switches,
                "incremental recompute needs a state built for this topology");
  const std::uint64_t num_dests = state.num_dests();
  const std::uint64_t expected_dests =
      state.granularity == DestGranularity::kEdge ? topo.params().S
                                                  : topo.num_hosts();
  ASPEN_REQUIRE(num_dests == expected_dests,
                "routing state granularity does not match the topology");

  RecomputeStats stats;
  stats.total_dests = num_dests;
  // Aggregate instrumentation only (after any worker pool joins): one
  // metric bump and one trace record per recompute call, keeping the event
  // stream independent of the thread count.
  const auto note_patch = [&] {
    obs::count(kIncrementalPatches);
    obs::count(kRowsFullRecompute, stats.full_rows);
    obs::count(kRowsEscalated, stats.escalated_rows);
    obs::count(kRowsPatched, stats.patched_switches);
    obs::trace_event(0.0, obs::TraceKind::kRoutePatch,
                     static_cast<std::uint32_t>(changed_links.size()),
                     static_cast<std::uint32_t>(stats.patched_switches),
                     stats.full_rows, "incremental");
  };
  if (changed_links.empty()) {
    note_patch();
    return stats;
  }

  if (!state.has_digests()) {
    // Hand-built base state: derive the digests once so maintenance works.
    state.digests.assign(num_switches, 0);
    for (std::uint64_t s = 0; s < num_switches; ++s) {
      std::uint64_t h = 0;
      for (std::uint64_t d = 0; d < num_dests; ++d) {
        const Entry& e = state.tables.row(s, d);
        h ^= hash_fwd_row(d, e.cost, state.tables.hops(e));
      }
      state.digests[s] = h;
    }
  }

  const std::vector<LevelRange> ranges = make_level_ranges(topo);
  const bool host_gran = state.granularity == DestGranularity::kHost;
  const std::uint64_t hosts_per_edge = state.hosts_per_edge;

  // ---- Dirty-set derivation (see DESIGN.md "routing engine") ----
  //
  // For a changed inter-switch link with lower endpoint v, only two kinds
  // of rows can differ from a fresh full compute:
  //  - destinations in v's *structural* subtree: anything about their rows
  //    may change (down-reachability shifts) — recompute those rows fully;
  //  - every other destination: a strictly-down path to it can never cross
  //    the changed link, so the only affected row is v's own up-climb.  If
  //    v's cost is preserved no other switch notices; if it changes, the
  //    destination escalates to a full row recompute.
  // A changed host link is invisible at edge granularity and dirties just
  // the attached host's row at host granularity.
  std::vector<char> dirty(num_dests, 0);
  std::uint64_t num_dirty = 0;
  const auto mark_dest = [&](std::uint64_t d) {
    if (!dirty[d]) {
      dirty[d] = 1;
      ++num_dirty;
    }
  };

  std::vector<char> visited(num_switches, 0);
  std::vector<std::uint64_t> stack;
  const auto mark_subtree = [&](SwitchId v) {
    if (visited[v.value()]) return;
    visited[v.value()] = 1;
    stack.clear();
    stack.push_back(v.value());
    while (!stack.empty()) {
      const std::uint64_t s = stack.back();
      stack.pop_back();
      if (s >= ranges[1].begin && s < ranges[1].end) {
        const std::uint64_t edge_index = s - ranges[1].begin;
        if (host_gran) {
          for (std::uint64_t h = 0; h < hosts_per_edge; ++h) {
            mark_dest(edge_index * hosts_per_edge + h);
          }
        } else {
          mark_dest(edge_index);
        }
        continue;
      }
      for (const Neighbor& nb : topo.down_neighbors(switch_id(s))) {
        if (!topo.is_switch_node(nb.node)) continue;
        if (!visited[nb.node.value()]) {
          visited[nb.node.value()] = 1;
          stack.push_back(nb.node.value());
        }
      }
    }
  };

  std::vector<char> in_patch(num_switches, 0);
  std::vector<SwitchId> patch_vs;
  for (const LinkId l : changed_links) {
    const Topology::LinkRec rec = topo.link(l);
    if (rec.upper_level == 1) {
      if (host_gran) mark_dest(topo.host_of(rec.lower).value());
      continue;
    }
    const SwitchId v = topo.switch_of(rec.lower);
    if (!in_patch[v.value()]) {
      in_patch[v.value()] = 1;
      patch_vs.push_back(v);
    }
    mark_subtree(v);
  }
  if (num_dirty == 0 && patch_vs.empty()) {
    note_patch();
    return stats;
  }

  // ---- Row recompute / patch fan-out ----
  //
  // Each destination is handled end-to-end by one worker, so every write
  // for a row — and to its dirty flag, set when the row escalates — happens
  // on the thread that owns it; the per-worker digest deltas merge after
  // the pool joins, leaving no shared writes at all.  The dirty flags and
  // patch_vs leave in the stats as the set of rows this call may have
  // rewritten.
  const int workers = parallel::effective_num_threads(threads);
  struct WorkerStats {
    std::uint64_t full = 0;
    std::uint64_t escalated = 0;
    std::uint64_t patched = 0;
  };
  std::vector<WorkerStats> wstats(static_cast<std::size_t>(workers));
  std::vector<Scratch> scratch = make_scratch(workers, num_switches);
  RoutingTables& tables = state.tables;
  const RoutingTables::Raw raw = tables.raw();
  const Topology::AdjacencyView av = topo.adjacency_view();
  const std::uint64_t* up = overlay.up_words().data();
  const std::uint64_t pool_per_dest = [&] {
    std::uint64_t total = 0;
    for (std::uint64_t s = 0; s < num_switches; ++s) {
      total += raw.meta[s].hop_cap;
    }
    return total;
  }();

  parallel::parallel_for_chunks(
      num_dests, chunk_for(num_switches, pool_per_dest), workers,
      [&](std::uint64_t begin, std::uint64_t end, int worker) {
        Scratch& sc = scratch[static_cast<std::size_t>(worker)];
        WorkerStats& ws = wstats[static_cast<std::size_t>(worker)];
        std::vector<Neighbor> hops;
        for (std::uint64_t d = begin; d < end; ++d) {
          if (dirty[d]) {
            route_dest(topo, ranges, up, av, raw, state.granularity, d, sc);
            ++ws.full;
            continue;
          }
          Entry* const row = raw.meta + d * raw.num_tables;
          // Patch pass 1 (read-only): would any patched switch's cost
          // change for this destination?  Its parents' rows are final —
          // nothing for this destination has been written yet.
          bool escalate = false;
          for (const SwitchId v : patch_vs) {
            const Entry& cur = row[v.value()];
            int min_parent = kInf;
            for (const Neighbor& nb : topo.up_neighbors(v)) {
              if (!link_up(up, nb.link.value())) continue;
              min_parent =
                  std::min(min_parent, cost_as_best(row[nb.node.value()]));
            }
            const int new_cost =
                min_parent >= kInf ? kUnreachable : 1 + min_parent;
            if (new_cost != cur.cost) {
              escalate = true;
              break;
            }
          }
          if (escalate) {
            dirty[d] = 1;
            route_dest(topo, ranges, up, av, raw, state.granularity, d, sc);
            ++ws.full;
            ++ws.escalated;
            continue;
          }
          // Patch pass 2: costs are all preserved, so only the patched
          // switches' ECMP uplink sets can differ — rebuild them in place
          // (same up_neighbors enumeration order as the full engine).
          for (const SwitchId v : patch_vs) {
            Entry& cur = row[v.value()];
            hops.clear();
            if (cur.cost != kUnreachable) {
              const int want = cur.cost - 1;
              for (const Neighbor& nb : topo.up_neighbors(v)) {
                if (!link_up(up, nb.link.value())) continue;
                if (cost_as_best(row[nb.node.value()]) == want) {
                  hops.push_back(nb);
                }
              }
            }
            Neighbor* const slice = raw.pool + cur.hop_begin;
            const bool same =
                hops.size() == cur.hop_count &&
                std::equal(hops.begin(), hops.end(), slice);
            if (!same) {
              const std::uint64_t old_hash = hash_fwd_row(
                  d, cur.cost, {slice, cur.hop_count});
              for (std::size_t i = 0; i < hops.size(); ++i) {
                slice[i] = hops[i];
              }
              cur.hop_count = static_cast<std::uint16_t>(hops.size());
              sc.digest_delta[v.value()] ^=
                  old_hash ^
                  hash_fwd_row(d, cur.cost, {slice, cur.hop_count});
              ++ws.patched;
            }
          }
        }
      });

  merge_digest_deltas(scratch, state.digests);
  for (const WorkerStats& ws : wstats) {
    stats.full_rows += ws.full;
    stats.escalated_rows += ws.escalated;
    stats.patched_switches += ws.patched;
  }
  stats.rewritten_dests = std::move(dirty);
  stats.patched = std::move(patch_vs);
  note_patch();
  return stats;
}

std::uint64_t switches_with_changed_tables(const RoutingState& before,
                                           const RoutingState& after) {
  ASPEN_REQUIRE(before.tables.size() == after.tables.size(),
                "routing states describe different topologies");
  // Digest mismatch proves inequality (equal tables hash equal), so the
  // per-switch deep compare only runs to confirm digest-equal tables.
  const bool use_digests = before.has_digests() && after.has_digests();
  std::uint64_t changed = 0;
  for (std::uint64_t s = 0; s < before.tables.size(); ++s) {
    if (use_digests && before.digests[s] != after.digests[s]) {
      ++changed;
      continue;
    }
    if (!RoutingTables::switch_equal(before.tables, after.tables, s)) {
      ++changed;
    }
  }
  return changed;
}

bool tables_match_by_digest(const RoutingState& before,
                            const RoutingState& after) {
  ASPEN_REQUIRE(before.has_digests() && after.has_digests(),
                "digest matching needs engine-built states");
  ASPEN_REQUIRE(before.tables.size() == after.tables.size(),
                "routing states describe different topologies");
  return before.digests == after.digests;
}

}  // namespace aspen
