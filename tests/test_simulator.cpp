// Tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "src/sim/audit.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace aspen {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule(1.0, chain);
  };
  sim.schedule(1.0, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(sim.step());
  sim.schedule(1.0, [] {});
  EXPECT_FALSE(sim.idle());
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(7.5, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, CannotScheduleIntoThePast) {
  Simulator sim;
  sim.schedule(1.0, [&] {
    EXPECT_THROW(sim.schedule_at(0.5, [] {}), PreconditionError);
    EXPECT_THROW(sim.schedule(-1.0, [] {}), PreconditionError);
  });
  sim.run();
}

TEST(Simulator, RunawayGuardTrips) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.schedule(0.1, forever); };
  sim.schedule(0.1, forever);
  EXPECT_THROW(sim.run(/*max_events=*/1000), AspenError);
}

TEST(Simulator, RunBoundedReportsCapAsOutcome) {
  // Hitting the cap is a measurement ("did not quiesce"), not an error: the
  // queue keeps the unprocessed events and the run can resume.
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(static_cast<SimTime>(i + 1), [&] { ++fired; });
  }
  const RunResult first = sim.run_bounded(3);
  EXPECT_EQ(first.events, 3u);
  EXPECT_FALSE(first.completed);
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(sim.idle());

  const RunResult rest = sim.run_bounded(1000);
  EXPECT_EQ(rest.events, 7u);
  EXPECT_TRUE(rest.completed);
  EXPECT_EQ(fired, 10);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunBoundedExactBudgetCompletes) {
  Simulator sim;
  for (int i = 0; i < 4; ++i) sim.schedule(1.0, [] {});
  const RunResult result = sim.run_bounded(4);
  EXPECT_EQ(result.events, 4u);
  EXPECT_TRUE(result.completed);  // drained exactly at the cap
}

// ---- queue order: the simulator against a reference (time, seq) model -----

/// What an event does when it fires, drawn from its own stream so the
/// simulator and the reference replay identical behavior.
struct Child {
  enum class Kind { kRepeatedDelay, kOneOffDelay, kAt, kNow };
  Kind kind;
  SimTime value;
};

/// Six repeated delays: more than the simulator's lanes, so lanes are
/// re-keyed and repeated delays also spill to the heap.
constexpr SimTime kRepeated[] = {0.001, 0.0, 0.25, 1.0, 0.001, 2.5, 0.75};

std::vector<Child> children_of(std::uint64_t seed, std::uint64_t id,
                               std::uint64_t budget) {
  std::vector<Child> out;
  if (id >= budget) return out;
  Rng rng(seed + id);
  const std::size_t n = rng.index(100) < 30 ? 0 : 1 + rng.index(2);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t roll = rng.index(100);
    if (roll < 50) {
      out.push_back({Child::Kind::kRepeatedDelay,
                     kRepeated[rng.index(std::size(kRepeated))]});
    } else if (roll < 70) {
      out.push_back({Child::Kind::kOneOffDelay, 3.0 * rng.real()});
    } else if (roll < 90) {
      out.push_back({Child::Kind::kAt, 2.0 * rng.real()});
    } else {
      out.push_back({Child::Kind::kNow, 0.0});
    }
  }
  return out;
}

/// A global priority queue on (time, seq): the order the simulator must
/// reproduce.
struct ReferenceQueue {
  using Entry = std::tuple<SimTime, std::uint64_t, std::uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  SimTime now = 0.0;
  std::uint64_t seq = 0;

  void at(SimTime when, std::uint64_t id) { queue.emplace(when, seq++, id); }
  std::uint64_t pop() {
    const auto [when, s, id] = queue.top();
    queue.pop();
    now = when;
    return id;
  }
};

/// Drives the simulator and the reference with the same operations.  Each
/// side numbers its events in the order it creates them and replays the
/// same children_of() behavior when one fires, so the two id sequences
/// agree exactly when the dispatch orders do.
struct Differential {
  Differential(std::uint64_t s, std::uint64_t b) : seed(s), budget(b) {}

  std::uint64_t seed;
  std::uint64_t budget;
  Simulator sim;
  ReferenceQueue ref;
  std::uint64_t sim_next = 0;
  std::uint64_t ref_next = 0;
  std::vector<std::uint64_t> sim_order;
  std::vector<std::uint64_t> ref_order;

  void add(const Child& c) {
    sim_add(c);
    ref_add(c);
  }
  void sim_add(const Child& c) {
    const std::uint64_t id = sim_next++;
    const auto fire = [this, id] {
      sim_order.push_back(id);
      for (const Child& child : children_of(seed, id, budget)) {
        sim_add(child);
      }
    };
    switch (c.kind) {
      case Child::Kind::kRepeatedDelay:
      case Child::Kind::kOneOffDelay:
        sim.schedule(c.value, fire);
        break;
      case Child::Kind::kAt:
        sim.schedule_at(sim.now() + c.value, fire);
        break;
      case Child::Kind::kNow:
        sim.schedule_at(sim.now(), fire);
        break;
    }
  }
  void ref_add(const Child& c) {
    ref.at(ref.now + (c.kind == Child::Kind::kNow ? 0.0 : c.value),
           ref_next++);
  }
  void ref_steps(std::uint64_t steps) {
    for (std::uint64_t i = 0; i < steps && !ref.queue.empty(); ++i) {
      const std::uint64_t id = ref.pop();
      ref_order.push_back(id);
      for (const Child& child : children_of(seed, id, budget)) {
        ref_add(child);
      }
    }
  }
};

TEST(SimulatorOrder, MatchesReferenceQueueOnRandomMixes) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Differential d(seed, /*budget=*/6000);
    Rng rng(seed);
    for (int round = 0; round < 40; ++round) {
      // Top-level operations between bounded runs.
      const std::size_t ops = rng.index(20);
      for (std::size_t i = 0; i < ops; ++i) {
        const std::size_t roll = rng.index(4);
        d.add({static_cast<Child::Kind>(roll),
               roll == 0 ? kRepeated[rng.index(std::size(kRepeated))]
                         : 4.0 * rng.real()});
      }
      const std::uint64_t cap = rng.index(400);
      const RunResult run = d.sim.run_bounded(cap);
      d.ref_steps(run.events);
      ASSERT_EQ(d.sim_order, d.ref_order) << "seed " << seed << " round "
                                          << round;
      ASSERT_EQ(d.sim.now(), d.ref.now);
      ASSERT_TRUE(sim::audit_queue(d.sim).ok());
      ASSERT_EQ(d.sim.pending(), d.ref.queue.size());
    }
    const RunResult rest = d.sim.run_bounded(10'000'000);
    d.ref_steps(rest.events);
    EXPECT_TRUE(rest.completed);
    EXPECT_TRUE(d.ref.queue.empty());
    EXPECT_EQ(d.sim_order, d.ref_order) << "seed " << seed;
    EXPECT_GE(d.sim_order.size(), 6000u);
  }
}

// ---- captures: move-only, destroyed exactly once --------------------------

TEST(SimulatorCapture, MoveOnlyCaptureRuns) {
  Simulator sim;
  int seen = 0;
  auto value = std::make_unique<int>(7);
  sim.schedule(1.0, [value = std::move(value), &seen] { seen = *value; });
  sim.run();
  EXPECT_EQ(seen, 7);
}

/// Counts destructions of the one owning copy of each capture; moved-from
/// shells do not count.
struct Tracked {
  std::vector<int>* destroyed;
  int id;
  bool owner = true;

  Tracked(std::vector<int>* d, int i) : destroyed(d), id(i) {}
  Tracked(Tracked&& other) noexcept
      : destroyed(other.destroyed), id(other.id) {
    other.owner = false;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (owner) ++(*destroyed)[static_cast<std::size_t>(id)];
  }
};

TEST(SimulatorCapture, EveryCaptureIsDestroyedExactlyOnce) {
  constexpr int kEvents = 600;
  std::vector<int> destroyed(kEvents, 0);
  int ran = 0;
  {
    Simulator sim;
    for (int i = 0; i < kEvents; ++i) {
      Tracked t(&destroyed, i);
      // Half on a lane (repeated delay), half on the heap.
      if (i % 2 == 0) {
        sim.schedule(1.0, [t = std::move(t), &ran] { ++ran; });
      } else {
        sim.schedule_at(static_cast<SimTime>(i),
                        [t = std::move(t), &ran] { ++ran; });
      }
    }
    // Run some (their captures die after running), leave the rest queued
    // for the destructor.
    (void)sim.run_bounded(kEvents / 3);
    EXPECT_EQ(ran, kEvents / 3);
    int done = 0;
    for (const int d : destroyed) done += d;
    EXPECT_EQ(done, kEvents / 3);
  }
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(destroyed[static_cast<std::size_t>(i)], 1) << "event " << i;
  }
}

TEST(SimulatorCapture, ThrowingActionLeavesQueueConsistent) {
  Simulator sim;
  std::vector<int> destroyed(2, 0);
  sim.schedule(1.0, [t = Tracked(&destroyed, 0)] {
    throw AspenError("boom");
  });
  sim.schedule(2.0, [t = Tracked(&destroyed, 1)] {});
  EXPECT_THROW(sim.step(), AspenError);
  EXPECT_EQ(destroyed[0], 1);
  EXPECT_TRUE(sim::audit_queue(sim).ok());
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(destroyed[1], 1);
  EXPECT_TRUE(sim.idle());
}

// ---- audit over the heap, the lanes and the slab --------------------------

TEST(SimulatorAudit, LaneBehindClockFires) {
  Simulator sim;
  sim::SimAuditPeer::push_lane_unchecked(sim, 1.0, 5.0);
  EXPECT_TRUE(sim::audit_queue(sim).ok());
  sim::SimAuditPeer::set_now(sim, 10.0);
  EXPECT_TRUE(sim::audit_queue(sim).has(AuditCode::kTimeMonotonicity));
}

TEST(SimulatorAudit, OutOfOrderLaneFires) {
  Simulator sim;
  sim::SimAuditPeer::push_lane_unchecked(sim, 1.0, 5.0);
  sim::SimAuditPeer::push_lane_unchecked(sim, 1.0, 3.0);  // behind its head
  EXPECT_TRUE(sim::audit_queue(sim).has(AuditCode::kTimeMonotonicity));
}

TEST(SimulatorAudit, LanesAndHeapStayAccounted) {
  Simulator sim;
  for (int i = 0; i < 50; ++i) {
    sim.schedule(0.5, [] {});
    sim.schedule(0.5 + i, [] {});
    sim.schedule_at(3.0, [] {});
  }
  EXPECT_EQ(sim.pending(), 150u);
  EXPECT_TRUE(sim::audit_queue(sim).ok());
  (void)sim.run_bounded(70);
  EXPECT_TRUE(sim::audit_queue(sim).ok());
  sim::SimAuditPeer::set_events_processed(sim, 3);
  EXPECT_TRUE(sim::audit_queue(sim).has(AuditCode::kQueueAccounting));
}

TEST(CpuQueue, SerializesWork) {
  CpuQueue cpu;
  // First job: arrives at 0, takes 10 → done at 10.
  EXPECT_DOUBLE_EQ(cpu.occupy(0.0, 10.0), 10.0);
  // Second job arrives at 5 while busy → starts at 10, done at 15.
  EXPECT_DOUBLE_EQ(cpu.occupy(5.0, 5.0), 15.0);
  // Third arrives after idle gap → starts on arrival.
  EXPECT_DOUBLE_EQ(cpu.occupy(20.0, 1.0), 21.0);
  EXPECT_DOUBLE_EQ(cpu.next_free(), 21.0);
  cpu.reset();
  EXPECT_DOUBLE_EQ(cpu.next_free(), 0.0);
  EXPECT_THROW(cpu.occupy(0.0, -1.0), PreconditionError);
}

TEST(DelayModel, PaperDefaults) {
  // §9.2: 1 µs propagation, 20 ms ANP, 300 ms LSA.
  const DelayModel delays;
  EXPECT_DOUBLE_EQ(delays.propagation, 0.001);
  EXPECT_DOUBLE_EQ(delays.anp_processing, 20.0);
  EXPECT_DOUBLE_EQ(delays.lsa_processing, 300.0);
}

TEST(Summary, Accumulates) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(1.0);
  s.add(3.0);
  s.add(2.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.total(), 6.0);
}

}  // namespace
}  // namespace aspen
