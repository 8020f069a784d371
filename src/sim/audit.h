// Event-queue invariant auditor for the discrete-event core.
//
// audit_queue() checks the promises the simulator makes to every protocol
// built on it:
//
//   * time monotonicity — no queued event precedes the clock: neither the
//     heap top nor any lane head is before now(), and every lane is in
//     (time, seq) order, so its head is its earliest key (kTimeMonotonicity);
//   * queue accounting — every sequence number ever issued is either an
//     event already processed or one still pending, so
//     next_seq == events_processed + pending, and every pending key owns
//     exactly one live action slot (kQueueAccounting).
//
// SimAuditPeer exists solely so tests can corrupt the private queue state
// (schedule_at() rejects past times at the API boundary) and prove the
// auditor catches what the guards cannot.
#pragma once

#include "src/sim/simulator.h"
#include "src/util/contracts.h"

namespace aspen::sim {

[[nodiscard]] AuditReport audit_queue(const Simulator& simulator);

/// Test-only corruption hooks; never used by production code.
struct SimAuditPeer {
  /// Enqueues an event at `when` on the heap without the schedule_at()
  /// past-time guard.
  static void push_unchecked(Simulator& simulator, SimTime when);
  /// Appends an event at `when` to the first lane, keyed `delay`, without
  /// any order or clock guard.
  static void push_lane_unchecked(Simulator& simulator, SimTime delay,
                                  SimTime when);
  /// Rewrites the clock without draining the queue.
  static void set_now(Simulator& simulator, SimTime now);
  /// Rewrites the processed-event counter.
  static void set_events_processed(Simulator& simulator, std::uint64_t n);
};

}  // namespace aspen::sim
