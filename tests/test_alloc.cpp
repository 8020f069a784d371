// Exact heap-allocation counts for the event loop and flow admission.
//
// This executable, and only this one, replaces the global operator new and
// operator delete with counting versions, so the counts are exact: no
// sampling, no timing.  A protocol reaction must stay below 0.1 heap
// allocations per simulator event (scheduling and dispatching an event
// never allocates once the queue is warm), a warmed Simulator must run
// self-rescheduling events without allocating at all, and admitting flow
// batches must grow the flow plane's arrays geometrically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/aspen/generator.h"
#include "src/obs/obs.h"
#include "src/proto/anp.h"
#include "src/proto/lsp.h"
#include "src/sim/simulator.h"
#include "src/traffic/flow_plane.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace aspen {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// The tree the per-event bound is stated on: k=8, n=4, no redundancy.
const Topology& tree() {
  static const Topology topo =
      Topology::build(generate_tree(4, 8, FaultToleranceVector{0, 0, 0}));
  return topo;
}

/// A core switch's first downlink.
LinkId core_downlink(const Topology& topo) {
  return topo.down_neighbors(topo.switch_at(topo.levels(), 0))[0].link;
}

struct Count {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  [[nodiscard]] double per_event() const {
    return static_cast<double>(allocations) / static_cast<double>(events);
  }
};

/// Allocations and simulator events of one link failure and its recovery
/// (protocol construction is not counted).
template <typename Protocol>
Count fail_and_recover(Protocol& protocol, LinkId link) {
  Count count;
  const std::uint64_t before = allocations();
  const FailureReport failure = protocol.simulate_link_failure(link);
  const FailureReport recovery = protocol.simulate_link_recovery(link);
  count.allocations = allocations() - before;
  count.events = failure.events + recovery.events;
  return count;
}

void report(const char* what, const Count& count) {
  std::printf("[ alloc    ] %s: %llu allocations over %llu events (%.4f per "
              "event)\n",
              what, static_cast<unsigned long long>(count.allocations),
              static_cast<unsigned long long>(count.events),
              count.per_event());
}

TEST(Allocations, LspReactionStaysUnderOneTenthPerEvent) {
  for (const bool metrics : {false, true}) {
    obs::ObsConfig config;
    config.metrics = metrics;
    const obs::ScopedObs scoped(config);
    LspSimulation lsp(tree());
    const Count count = fail_and_recover(lsp, core_downlink(tree()));
    report(metrics ? "lsp, metrics on" : "lsp, obs off", count);
    ASSERT_GT(count.events, 1000u);
    EXPECT_LE(count.per_event(), 0.1) << (metrics ? "metrics on" : "obs off");
  }
}

TEST(Allocations, AnpAndLossyTransportCountsAreRecorded) {
  // Recorded, not bounded: ANP keeps per-notice state (withdrawal logs,
  // notice lists, the newest-notice map) that a reaction of a few dozen
  // events does not amortize, and a lossy run's transport keeps one
  // message record per send.
  // An edge uplink: the aggregation switch above it notifies its parents.
  AnpSimulation anp(tree());
  report("anp", fail_and_recover(anp, tree().links_at_level(2)[0]));

  DelayModel lossy;
  lossy.channel.drop_rate = 0.05;
  lossy.channel.duplicate_rate = 0.0125;
  lossy.channel.jitter_ms = 0.5;
  lossy.channel.reliable = true;
  lossy.channel.seed = 7;
  LspSimulation lsp(tree(), lossy);
  const Count count = fail_and_recover(lsp, core_downlink(tree()));
  report("lsp over a lossy reliable transport", count);
  EXPECT_GT(count.events, 1000u);
}

/// Reschedules itself `left` more times, alternating a lane delay, a heap
/// time and (through its payload) the large action slots.
struct Chain {
  Simulator* sim;
  std::uint64_t* left;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    switch (*left % 3) {
      case 0:
        sim->schedule(0.5, Chain{*this});
        break;
      case 1:
        sim->schedule_at(sim->now() + 0.7, Chain{*this});
        break;
      default: {
        const std::uint64_t payload[4] = {*left, 1, 2, 3};
        sim->schedule(1.0, [chain = Chain{*this}, payload] {
          if (payload[0] != 0) chain();
        });
        break;
      }
    }
  }
};

TEST(Allocations, WarmedSimulatorSchedulesWithoutAllocating) {
  Simulator sim;
  std::uint64_t left = 1'000'000;
  for (int i = 0; i < 8; ++i) sim.schedule(0.5, Chain{&sim, &left});
  (void)sim.run_bounded(3000);  // warm: every structure reaches its size
  const std::uint64_t before = allocations();
  const RunResult run = sim.run_bounded(100'000);
  const std::uint64_t allocated = allocations() - before;
  EXPECT_EQ(run.events, 100'000u);
  EXPECT_EQ(allocated, 0u);
}

TEST(Allocations, UniformAdmissionGrowsGeometrically) {
  // Per-flow arrays and the inflight list grow geometrically and uniform
  // flows are drawn straight into them, so many small batches cost fewer
  // allocations than there are batches.
  FlowPlane plane(tree());
  const std::uint64_t before = allocations();
  for (int batch = 0; batch < 256; ++batch) plane.admit_uniform(256);
  const std::uint64_t allocated = allocations() - before;
  std::printf("[ alloc    ] 256 admit_uniform batches of 256 flows: %llu "
              "allocations\n",
              static_cast<unsigned long long>(allocated));
  EXPECT_EQ(plane.inflight(), 256u * 256u);
  EXPECT_LT(allocated, 256u);
}

}  // namespace
}  // namespace aspen
