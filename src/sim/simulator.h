// Discrete-event simulation core.
//
// A minimal but real DES: a time-ordered event queue with FIFO tie-breaking,
// a per-switch CPU model that serializes message processing (the paper's
// central performance observation is that "embedded CPUs on switches are
// generally under-powered and slow compared to a switch's data plane", §1),
// and a delay model carrying the paper's §9.2 constants.
//
// The protocol implementations in src/proto schedule closures on this
// simulator; there is no virtual "process" hierarchy to fight with.
//
// Scheduling and dispatching an event never allocates once the queue has
// warmed up (DESIGN.md, "Event queue"):
//
//   * each action lives in a reused slot of a chunked Slab as an
//     InlineFunction (src/sim/action.h) — a capture over 64 bytes does not
//     compile;
//   * schedule(delay, f) appends to a FIFO lane keyed by `delay`.  The clock
//     never goes back, so a lane is already in (time, seq) order; a lane is
//     re-keyed only once empty, and a delay claims one only when it repeats
//     the previous heap-bound delay, so one-off delays (jitter, backoff) go
//     to the heap without pinning a lane;
//   * schedule_at(when, f) pushes a 24-byte (time, seq, slot) key on a
//     binary heap;
//   * step() dispatches the earliest of the heap top and the lane heads by
//     (time, seq), so dispatch order is exactly that of one global
//     priority queue.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/action.h"
#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen {

class Simulator;

namespace sim {
/// Declared here so Simulator can befriend it; see src/sim/audit.h.
[[nodiscard]] AuditReport audit_queue(const Simulator& simulator);
struct SimAuditPeer;
}  // namespace sim

/// Simulated time in milliseconds.
using SimTime = double;

/// An imperfect control-plane medium (see src/sim/channel.h for the model
/// that enacts these options).  The default is the paper's idealized
/// perfect channel: nothing dropped, nothing duplicated, no jitter.
struct ChannelOptions {
  double drop_rate = 0.0;       ///< P(a scheduled control message is lost)
  double duplicate_rate = 0.0;  ///< P(an extra copy of a message arrives)
  SimTime jitter_ms = 0.0;      ///< uniform extra delay in [0, jitter_ms]
  std::uint64_t seed = 0xA59E;  ///< seeds the channel's private Rng
  /// Run the protocols' ack/retransmit machinery (ReliableTransport) on
  /// top of the channel.  Off by default so lossless runs keep the seed
  /// repo's exact message counts; chaos campaigns and loss sweeps turn it
  /// on (and must, for convergence under loss).
  bool reliable = false;

  [[nodiscard]] bool perfect() const {
    return drop_rate == 0.0 && duplicate_rate == 0.0 && jitter_ms == 0.0;
  }
};

/// Endpoint behavior over an unreliable channel: how long to wait for an
/// ack, how the wait grows, and when to give up.
struct RetransmitPolicy {
  SimTime rto_ms = 50.0;   ///< initial retransmission timeout
  double backoff = 2.0;    ///< timeout multiplier per retry (exponential)
  int max_retries = 8;     ///< retransmissions before declaring the peer lost
};

/// The paper's §9.2 timing constants (defaults), all in milliseconds:
/// "estimating the propagation delay between switches and the time to
///  process ANP and LSA packets as 1µs, 20ms, and 300 ms, respectively.
///  These estimates are conservatively tuned to favor LSP."
struct DelayModel {
  SimTime propagation = 0.001;      ///< per-link propagation, 1 µs
  SimTime anp_processing = 20.0;    ///< per ANP notification
  SimTime lsa_processing = 300.0;   ///< per *new* LSA (includes SPF)
  /// CPU time to recognize and discard an already-seen LSA copy; duplicate
  /// suppression is a sequence-number comparison, far cheaper than SPF.
  SimTime lsa_duplicate_processing = 1.0;
  /// Local detection latency between a link dying and its endpoints
  /// noticing (loss-of-light / BFD); charged before any local reaction.
  SimTime detection = 0.0;
  /// OSPF-style pacing timers (§1: "settings such as protocol timers can
  /// further compound these delays").  `lsa_generation_delay` throttles
  /// LSA origination at the detecting switch; `spf_delay` is the hold-down
  /// between installing a new LSA and recomputing routes from it.  Both
  /// default to 0 (the paper's idealized, LSP-favoring setting); classic
  /// router defaults are on the order of 500 ms and 5000 ms.
  SimTime lsa_generation_delay = 0.0;
  SimTime spf_delay = 0.0;
  /// Control-plane medium the protocols' messages ride on, plus the
  /// endpoints' ack/retransmit policy when `channel.reliable` is set.
  /// Folding these into DelayModel plumbs lossy channels through every
  /// existing experiment driver without signature churn.
  ChannelOptions channel;
  RetransmitPolicy retransmit;
  /// Per-reaction event budget: a protocol run that exceeds it is reported
  /// as "did not quiesce" (FailureReport::quiesced == false) instead of
  /// aborting the experiment.
  std::uint64_t max_run_events = 50'000'000;
  /// How much runtime invariant auditing a simulation performs at phase
  /// boundaries.  kParanoid makes protocols self-audit (transport/channel
  /// accounting, custody state) at the end of every reaction; the
  /// ASPEN_AUDIT_LEVEL environment variable can promote any run (see
  /// contracts::effective_audit_level).
  contracts::AuditLevel audit_level = contracts::AuditLevel::kBasic;

  /// Classic vendor-default OSPF pacing, for the §1 "re-convergence can be
  /// tens of seconds" experiments.
  [[nodiscard]] static DelayModel classic_ospf_timers() {
    DelayModel delays;
    delays.lsa_generation_delay = 500.0;
    delays.spf_delay = 5000.0;
    return delays;
  }
};

/// Outcome of a bounded simulation run.
struct RunResult {
  std::uint64_t events = 0;  ///< events processed by this call
  bool completed = false;    ///< true when the queue drained (quiescence)
};

class Simulator {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` to run `delay` ms from now (delay >= 0).
  /// Events at equal times run in scheduling order.
  template <typename F>
  void schedule(SimTime delay, F&& action) {
    ASPEN_REQUIRE(delay >= 0.0, "cannot schedule into the past (delay=",
                  delay, ")");
    enqueue_after(delay, store(std::forward<F>(action)));
  }

  /// Schedules `action` at an absolute time (>= now()).
  template <typename F>
  void schedule_at(SimTime when, F&& action) {
    ASPEN_REQUIRE(when >= now_, "cannot schedule into the past (when=", when,
                  ", now=", now_, ")");
    push_heap(Key{when, next_seq_++, store(std::forward<F>(action))});
  }

  /// Runs until the queue drains or `max_events` fire, whichever is first.
  /// Hitting the cap is an *outcome*, not an error: `completed` is false
  /// and the remaining events stay queued, so chaos campaigns can report
  /// "protocol did not quiesce" as a measurement and carry on.
  RunResult run_bounded(std::uint64_t max_events);

  /// Runs events until the queue drains; returns events processed.
  /// Throws if more than `max_events` fire (runaway-protocol guard).
  std::uint64_t run(std::uint64_t max_events = 50'000'000);

  /// Executes the single earliest event; false when the queue is empty.
  bool step();

  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  [[nodiscard]] bool idle() const { return pending() == 0; }
  /// Events scheduled but not yet dispatched.
  [[nodiscard]] std::size_t pending() const;

 private:
  friend AuditReport sim::audit_queue(const Simulator&);
  friend struct sim::SimAuditPeer;

  /// Where a pending event sits in (time, seq) order, and its action.
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  [[nodiscard]] static bool earlier(const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  /// FIFO ring of the keys of events scheduled with one delay.
  class Lane {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] const Key& front() const { return ring_[head_]; }
    [[nodiscard]] const Key& at(std::size_t i) const {
      return ring_[(head_ + i) & (ring_.size() - 1)];
    }
    void push(const Key& key);
    void pop() {
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
    }

    SimTime delay = -1.0;  ///< the delay every queued key was scheduled with

   private:
    std::vector<Key> ring_;  ///< power-of-two capacity
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  static constexpr std::size_t kLanes = 4;

  /// Moves `action` into a free slot and returns the slot.
  template <typename F>
  std::uint32_t store(F&& action) {
    slots_.vacant().emplace(std::forward<F>(action));
    return slots_.commit();
  }
  void enqueue_after(SimTime delay, std::uint32_t slot);
  void push_heap(const Key& key);
  /// Moves the action out of `slot`, frees the slot, then runs the action
  /// (so the events it schedules can reuse the slot).
  void dispatch(std::uint32_t slot);

  sim::Slab<sim::Action> slots_;
  std::vector<Key> heap_;  ///< min-heap on (time, seq)
  std::array<Lane, kLanes> lanes_;
  /// The last delay that went to the heap; repeating it claims an empty
  /// lane.
  SimTime heap_delay_ = -1.0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
};

/// Serializing CPU: one message processed at a time, FIFO by arrival.
class CpuQueue {
 public:
  /// Books `duration` ms of CPU starting no earlier than `arrival`;
  /// returns the completion time.
  SimTime occupy(SimTime arrival, SimTime duration) {
    ASPEN_REQUIRE(duration >= 0.0, "negative CPU occupancy");
    const SimTime start = arrival > next_free_ ? arrival : next_free_;
    next_free_ = start + duration;
    return next_free_;
  }

  [[nodiscard]] SimTime next_free() const { return next_free_; }
  void reset() { next_free_ = 0.0; }

 private:
  SimTime next_free_ = 0.0;
};

}  // namespace aspen
