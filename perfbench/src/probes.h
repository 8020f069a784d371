// Probes: direct timed calls into single layers on a workload's own tree,
// run by the traced process after its timed phase.  Each probe stops at a
// small time budget, so the k=16 trees take a few samples and the small
// trees many.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/topo/topology.h"
#include "workloads.h"

namespace perfbench {

struct ProbeVerdict {
  bool ok = true;
  std::string note;  ///< what failed when !ok
};

/// Fills the routing.*, analysis.audit_ms and serve.* probe metrics.
/// `checkpoints` (serve only) are restored and re-cut, and must come back
/// byte-identical.  `pool` is restored after the thread-count sweep.
[[nodiscard]] ProbeVerdict run_probes(
    const aspen::Topology& topo, int pool, std::uint64_t seed,
    const std::vector<std::string>* checkpoints, Metrics& out);

}  // namespace perfbench
