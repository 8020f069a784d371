#include "src/sim/channel.h"

#include <cmath>
#include <utility>

#include "src/obs/obs.h"
#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen {

namespace {

const obs::Counter kAttempted{"channel.attempted"};
const obs::Counter kSentTotal{"channel.sent_total"};
const obs::Counter kDelivered{"channel.delivered"};
const obs::Counter kDropped{"channel.dropped"};
const obs::Counter kHealthDropped{"channel.health_dropped"};
const obs::Counter kDuplicatedExtra{"channel.duplicated_extra"};
const obs::Counter kSends{"transport.sends"};
const obs::Counter kDuplicatesDropped{"transport.duplicates_dropped"};
const obs::Counter kAcksSent{"transport.acks_sent"};
const obs::Counter kGaveUp{"transport.gave_up"};
const obs::Counter kRetransmits{"transport.retransmits"};

}  // namespace

ChannelModel::Copies ChannelModel::draw_copies(SimTime now,
                                               SimTime base_delay,
                                               double link_loss) {
  ++stats_.attempted;
  obs::count(kAttempted);
  Copies copies;
  if (options_.perfect() && link_loss <= 0.0) {
    // Fast path: exactly one on-time copy, no Rng draws — lossless runs
    // stay bit-identical to the pre-channel implementation.
    ++stats_.delivered;
    obs::count(kSentTotal);
    obs::count(kDelivered);
    copies.count = 1;
    copies.delay[0] = base_delay;
    return copies;
  }
  copies.count = 1;
  if (link_loss > 0.0 && (link_loss >= 1.0 || rng_.chance(link_loss))) {
    // Eaten by the physical link itself (gray loss or flap-down phase)
    // before the channel's own impairments get a say.  No draw happens on
    // healthy links, so existing seeded streams are unperturbed.
    copies.count = 0;
    ++stats_.dropped;
    ++stats_.health_dropped;
    obs::count(kDropped);
    obs::count(kHealthDropped);
    obs::trace_event(now, obs::TraceKind::kMsgDrop, 0, 0, stats_.attempted,
                     "health");
  } else if (rng_.chance(options_.drop_rate)) {
    copies.count = 0;
    ++stats_.dropped;
    obs::count(kDropped);
    obs::trace_event(now, obs::TraceKind::kMsgDrop, 0, 0, stats_.attempted,
                     "channel");
  } else if (rng_.chance(options_.duplicate_rate)) {
    copies.count = 2;
    ++stats_.duplicated;
    obs::count(kDuplicatedExtra);
    obs::trace_event(now, obs::TraceKind::kMsgDup, 0, 0, stats_.attempted,
                     "channel");
  }
  // Per-copy total: one physical copy per attempt, plus one per duplicate —
  // a dropped message still counts as the one copy the wire ate.
  obs::count(kSentTotal, copies.count == 0
                             ? 1
                             : static_cast<std::uint64_t>(copies.count));
  obs::count(kDelivered, static_cast<std::uint64_t>(copies.count));
  for (int c = 0; c < copies.count; ++c) {
    const SimTime jitter =
        options_.jitter_ms > 0.0 ? rng_.real() * options_.jitter_ms : 0.0;
    ++stats_.delivered;
    copies.delay[static_cast<std::size_t>(c)] = base_delay + jitter;
  }
  // Conservation (audited later): every attempt lands in delivered or
  // dropped, with duplication adding one extra delivered copy.
  ASPEN_ASSERT(stats_.delivered + stats_.dropped ==
                   stats_.attempted + stats_.duplicated,
               "channel copy conservation violated");
  return copies;
}

void ReliableTransport::send(SimTime propagation, Deliver on_deliver,
                             Predicate can_transmit, Predicate can_receive,
                             LinkLoss link_loss) {
  ASPEN_REQUIRE(on_deliver && can_transmit && can_receive,
                "reliable send needs a payload and viability predicates");
  const std::uint64_t id = messages_.size();
  Callbacks& callbacks = callbacks_.vacant();
  callbacks.on_deliver = std::move(on_deliver);
  callbacks.can_transmit = std::move(can_transmit);
  callbacks.can_receive = std::move(can_receive);
  callbacks.link_loss = std::move(link_loss);
  Message& message = messages_.emplace_back();
  message.propagation = propagation;
  message.callbacks = callbacks_.commit();
  ++stats_.sends;
  obs::count(kSends);
  transmit_copy(id);
  arm_timer(id);
}

void ReliableTransport::transmit_copy(std::uint64_t id) {
  Callbacks& callbacks = callbacks_[messages_[id].callbacks];
  if (!callbacks.can_transmit()) return;  // link down or sender dead
  const double loss = callbacks.link_loss ? callbacks.link_loss() : 0.0;
  const int copies = channel_->transmit(
      *sim_, messages_[id].propagation, [this, id] { receive_copy(id); },
      loss);
  messages_[id].copies_out += static_cast<std::uint32_t>(copies);
}

void ReliableTransport::receive_copy(std::uint64_t id) {
  --messages_[id].copies_out;
  // Slab slots never move, so this stays valid while on_deliver() sends
  // (and so grows messages_).
  Callbacks& callbacks = callbacks_[messages_[id].callbacks];
  if (!callbacks.can_receive()) {
    settle(id);  // receiver crashed: the copy vanishes
    return;
  }
  if (messages_[id].delivered) {
    // Sequence-number comparison at the line card — no CPU charged.
    ++stats_.duplicates_dropped;
    obs::count(kDuplicatesDropped);
  } else {
    messages_[id].delivered = true;
    callbacks.on_deliver();
  }
  // (Re-)ack every surviving copy: the original ack may have been lost.
  // The ack rides the same physical link back, so it faces the link's
  // instantaneous health too.
  ++stats_.acks_sent;
  obs::count(kAcksSent);
  obs::trace_event(sim_->now(), obs::TraceKind::kMsgAck, 0, 0, id,
                   "transport");
  const double ack_loss = callbacks.link_loss ? callbacks.link_loss() : 0.0;
  channel_->transmit(
      *sim_, messages_[id].propagation,
      [this, id] {
        messages_[id].acked = true;
        settle(id);
      },
      ack_loss);
  settle(id);
}

void ReliableTransport::arm_timer(std::uint64_t id) {
  const SimTime timeout =
      policy_.rto_ms * std::pow(policy_.backoff, messages_[id].attempts);
  sim_->schedule(timeout, [this, id] { on_timer(id); });
}

void ReliableTransport::on_timer(std::uint64_t id) {
  Message& message = messages_[id];
  if (message.done) return;
  if (message.acked) {
    message.done = true;
    return;
  }
  if (message.attempts >= policy_.max_retries) {
    message.done = true;
    ++stats_.gave_up;
    obs::count(kGaveUp);
    obs::trace_event(sim_->now(), obs::TraceKind::kMsgGiveUp, 0, 0, id,
                     "transport");
    ASPEN_ASSERT(stats_.gave_up <= stats_.sends,
                 "more abandoned conversations than sends");
    settle(id);
    return;
  }
  ++message.attempts;
  ++stats_.retransmits;
  obs::count(kRetransmits);
  obs::trace_event(sim_->now(), obs::TraceKind::kMsgRetransmit, 0, 0, id,
                   "transport");
  transmit_copy(id);
  arm_timer(id);
}

void ReliableTransport::settle(std::uint64_t id) {
  Message& message = messages_[id];
  if (!message.held || message.copies_out != 0 ||
      !(message.acked || message.done)) {
    return;
  }
  Callbacks& callbacks = callbacks_[message.callbacks];
  callbacks.on_deliver.reset();
  callbacks.can_transmit.reset();
  callbacks.can_receive.reset();
  callbacks.link_loss.reset();
  callbacks_.release(message.callbacks);
  message.held = false;
}

std::size_t ReliableTransport::in_flight() const {
  std::size_t count = 0;
  for (const Message& message : messages_) {
    if (!message.done && !message.acked) ++count;
  }
  return count;
}

}  // namespace aspen
