// Experiment X3 (extension; §8.3's deferred analysis) — compound failures.
//
// "In most cases, our techniques apply seamlessly to multiple simultaneous
//  link failures.  In fact, failures far enough apart in a tree have no
//  effect on one another … We leave a complete analysis of compound failure
//  patterns for future work."
//
// This bench performs that analysis for double failures on the Fig. 4/5
// trees: classify random failure pairs by structural distance (same switch,
// same pod, same top-level subtree, independent) and measure how often
// extended ANP fully masks the pair, plus the §8.3 pathological pattern
// that kills an entire pod's redundancy at once.  Every trial must end
// with its tables restored after recovery.
#include <cstdio>

#include <map>
#include <string>

#include "bench/paper/experiments.h"
#include "src/aspen/generator.h"
#include "src/fault/scenarios.h"
#include "src/topo/queries.h"
#include "src/util/table.h"

namespace {

using namespace aspen;

// Structural relationship between two failed links' upper endpoints.
std::string classify(const Topology& topo, LinkId a, LinkId b) {
  const SwitchId ua = topo.switch_of(topo.link(a).upper);
  const SwitchId ub = topo.switch_of(topo.link(b).upper);
  if (ua == ub) return "same switch";
  if (topo.level_of(ua) == topo.level_of(ub) &&
      topo.pod_of(ua) == topo.pod_of(ub)) {
    return "same pod";
  }
  // Shared ancestor test at the top level is trivially true (single top
  // pod); use the level-(n-1) pods to detect same-subtree pairs.
  const Level probe = topo.levels() - 1;
  const auto anc_a = topo.level_of(ua) >= probe
                         ? std::vector<SwitchId>{ua}
                         : ancestors_at_level(topo, ua, probe);
  const auto anc_b = topo.level_of(ub) >= probe
                         ? std::vector<SwitchId>{ub}
                         : ancestors_at_level(topo, ub, probe);
  return intersects(anc_a, anc_b) ? "same subtree" : "independent";
}

}  // namespace

bool aspen::bench::compound_failures() {
  bool ok = true;
  for (const auto& entries :
       std::vector<std::vector<int>>{{1, 0, 0}, {0, 1, 0}}) {
    const Topology topo =
        Topology::build(generate_tree(4, 4, FaultToleranceVector(entries)));
    std::printf("== Double failures on %s (extended ANP) ==\n\n",
                topo.params().to_string().c_str());

    struct Bucket {
      std::uint64_t trials = 0;
      std::uint64_t masked = 0;
      std::uint64_t restored = 0;
    };
    std::map<std::string, Bucket> buckets;

    Rng rng(404);
    const int kTrials = 120;
    MultiFailureOptions options;
    options.anp.notify_children = true;
    for (int trial = 0; trial < kTrials; ++trial) {
      const auto pair = random_inter_switch_links(topo, 2, rng);
      Bucket& bucket = buckets[classify(topo, pair[0], pair[1])];
      ++bucket.trials;
      const MultiFailureOutcome outcome =
          run_multi_failure(ProtocolKind::kAnp, topo, pair, options);
      if (outcome.degraded_delivery.undelivered() == 0) ++bucket.masked;
      if (outcome.tables_restored) ++bucket.restored;
      ok = ok && outcome.tables_restored;
    }

    TextTable table({"pair relationship", "trials", "fully masked",
                     "tables restored"});
    for (const auto& [name, bucket] : buckets) {
      table.add_row({name, std::to_string(bucket.trials),
                     format_percent(static_cast<double>(bucket.masked),
                                    static_cast<double>(bucket.trials)),
                     format_percent(static_cast<double>(bucket.restored),
                                    static_cast<double>(bucket.trials))});
    }
    std::printf("%s\n", table.to_string().c_str());
  }

  // The §8.3 pathological pattern: kill every link between one switch and
  // one child pod at the fault-tolerant level.
  const Topology topo =
      Topology::build(generate_tree(4, 4, FaultToleranceVector{0, 1, 0}));
  std::printf(
      "== §8.3 pathological compound failure on %s ==\n"
      "(all c_3 = 2 links from one L3 switch into one child pod)\n\n",
      topo.params().to_string().c_str());
  const SwitchId l3 = topo.switch_at(3, 0);
  const PodId child =
      topo.pod_of(topo.switch_of(topo.down_neighbors(l3)[0].node));
  const auto links = kill_pod_connectivity(topo, l3, child);
  MultiFailureOptions options;
  options.anp.notify_children = true;
  const MultiFailureOutcome outcome =
      run_multi_failure(ProtocolKind::kAnp, topo, links, options);
  std::printf(
      "failed %zu links at once: %lu of %lu flows undeliverable; tables "
      "restored after recovery: %s\n",
      links.size(),
      static_cast<unsigned long>(outcome.degraded_delivery.undelivered()),
      static_cast<unsigned long>(outcome.degraded_delivery.flows),
      outcome.tables_restored ? "yes" : "NO");
  std::printf(
      "(with the whole bundle dead the tree behaves like a fat tree below\n"
      "L3 — but extended ANP still reroutes inter-subtree traffic, so loss\n"
      "is confined to flows with no surviving up*/down* path.)\n");
  return ok && outcome.tables_restored;
}
