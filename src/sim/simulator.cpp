#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/obs/obs.h"

namespace aspen {

namespace {

const obs::Counter kEventsDispatched{"sim.events_dispatched"};

}  // namespace

void Simulator::Lane::push(const Key& key) {
  if (size_ == ring_.size()) {
    // Full: unroll into a ring twice the size, oldest key first.
    std::vector<Key> grown(ring_.empty() ? 64 : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i) grown[i] = at(i);
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[(head_ + size_) & (ring_.size() - 1)] = key;
  ++size_;
}

void Simulator::enqueue_after(SimTime delay, std::uint32_t slot) {
  const Key key{now_ + delay, next_seq_++, slot};
  Lane* vacant = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.delay == delay) {
      lane.push(key);
      return;
    }
    if (vacant == nullptr && lane.empty()) vacant = &lane;
  }
  if (vacant != nullptr && delay == heap_delay_) {
    vacant->delay = delay;
    vacant->push(key);
    return;
  }
  heap_delay_ = delay;
  push_heap(key);
}

void Simulator::push_heap(const Key& key) {
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const Key& a, const Key& b) { return earlier(b, a); });
}

std::size_t Simulator::pending() const {
  std::size_t total = heap_.size();
  for (const Lane& lane : lanes_) total += lane.size();
  return total;
}

bool Simulator::step() {
  const Key* next = heap_.empty() ? nullptr : &heap_.front();
  Lane* from = nullptr;
  for (Lane& lane : lanes_) {
    if (!lane.empty() && (next == nullptr || earlier(lane.front(), *next))) {
      next = &lane.front();
      from = &lane;
    }
  }
  if (next == nullptr) return false;
  const Key key = *next;
  if (from != nullptr) {
    from->pop();
  } else {
    std::pop_heap(heap_.begin(), heap_.end(),
                  [](const Key& a, const Key& b) { return earlier(b, a); });
    heap_.pop_back();
  }
  ASPEN_ASSERT(key.time >= now_, "event queue yielded time ", key.time,
               " behind the clock at ", now_);
  now_ = key.time;
  ++events_processed_;
  obs::count(kEventsDispatched);
  dispatch(key.slot);
  // Sequence numbers are handed out once per push: the processed and the
  // still-queued events always partition them (audited by sim::audit_queue).
  ASPEN_ASSERT(next_seq_ == events_processed_ + pending(),
               "event sequence accounting diverged");
  return true;
}

void Simulator::dispatch(std::uint32_t slot) {
  sim::Action action = std::move(slots_[slot]);
  slots_.release(slot);
  action();
}

RunResult Simulator::run_bounded(std::uint64_t max_events) {
  RunResult result;
  while (result.events < max_events && step()) {
    ++result.events;
  }
  result.completed = idle();
  ASPEN_ASSERT(result.completed || result.events == max_events,
               "run stopped early with events still queued");
  return result;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  const RunResult result = run_bounded(max_events);
  ASPEN_CHECK(result.completed, "simulation exceeded ", max_events,
              " events — runaway protocol?");
  return result.events;
}

}  // namespace aspen
