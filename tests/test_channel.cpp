// Tests for the lossy channel model and the ack/retransmit transport.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/channel.h"
#include "src/sim/simulator.h"

namespace aspen {
namespace {

TEST(ChannelModel, PerfectChannelDeliversExactlyOnceOnTime) {
  Simulator sim;
  ChannelModel channel;  // defaults are perfect
  int delivered = 0;
  std::vector<SimTime> times;
  for (int i = 0; i < 100; ++i) {
    const int copies = channel.transmit(sim, 1.0, [&] {
      ++delivered;
      times.push_back(sim.now());
    });
    EXPECT_EQ(copies, 1);
  }
  sim.run();
  EXPECT_EQ(delivered, 100);
  for (const SimTime t : times) EXPECT_DOUBLE_EQ(t, 1.0);
  EXPECT_EQ(channel.stats().attempted, 100u);
  EXPECT_EQ(channel.stats().delivered, 100u);
  EXPECT_EQ(channel.stats().dropped, 0u);
  EXPECT_EQ(channel.stats().duplicated, 0u);
}

TEST(ChannelModel, LossIsSeededAndDeterministic) {
  ChannelOptions options;
  options.drop_rate = 0.3;
  options.duplicate_rate = 0.1;
  options.seed = 1234;

  const auto run_once = [&] {
    Simulator sim;
    ChannelModel channel(options);
    int delivered = 0;
    for (int i = 0; i < 500; ++i) {
      channel.transmit(sim, 0.001, [&] { ++delivered; });
    }
    sim.run();
    return std::pair<int, ChannelStats>{delivered, channel.stats()};
  };

  const auto [first, first_stats] = run_once();
  const auto [second, second_stats] = run_once();
  EXPECT_EQ(first, second);  // same seed, same fate per message
  EXPECT_EQ(first_stats.dropped, second_stats.dropped);
  EXPECT_EQ(first_stats.duplicated, second_stats.duplicated);
  // With 500 trials at 30%/10%, both fates occur.
  EXPECT_GT(first_stats.dropped, 0u);
  EXPECT_GT(first_stats.duplicated, 0u);
  // Accounting: every message is dropped, duplicated, or delivered once.
  EXPECT_EQ(first_stats.delivered,
            500u - first_stats.dropped + first_stats.duplicated);
  EXPECT_EQ(static_cast<unsigned>(first), first_stats.delivered);
}

TEST(ChannelModel, JitterStaysWithinBound) {
  ChannelOptions options;
  options.jitter_ms = 5.0;
  Simulator sim;
  ChannelModel channel(options);
  std::vector<SimTime> times;
  for (int i = 0; i < 200; ++i) {
    channel.transmit(sim, 1.0, [&] { times.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(times.size(), 200u);
  bool any_jittered = false;
  for (const SimTime t : times) {
    EXPECT_GE(t, 1.0);
    EXPECT_LT(t, 6.0);
    if (t > 1.0) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered);
}

TEST(ReliableTransport, ExactlyOnceUnderHeavyLoss) {
  ChannelOptions options;
  options.drop_rate = 0.2;
  options.duplicate_rate = 0.05;
  options.jitter_ms = 1.0;
  options.seed = 99;
  Simulator sim;
  ChannelModel channel(options);
  ReliableTransport transport(sim, channel);

  std::vector<int> runs(50, 0);
  for (int i = 0; i < 50; ++i) {
    transport.send(
        0.001, [&runs, i] { ++runs[static_cast<std::size_t>(i)]; },
        [] { return true; }, [] { return true; });
  }
  sim.run();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)], 1)
        << "payload " << i << " must run exactly once";
  }
  EXPECT_EQ(transport.stats().gave_up, 0u);
  EXPECT_GT(transport.stats().retransmits, 0u);  // 20% loss forces retries
  EXPECT_GT(transport.stats().acks_sent, 0u);
  EXPECT_EQ(transport.in_flight(), 0u);
}

TEST(ReliableTransport, DuplicatesSuppressedAndReAcked) {
  ChannelOptions options;
  options.duplicate_rate = 1.0;  // every copy arrives twice
  Simulator sim;
  ChannelModel channel(options);
  ReliableTransport transport(sim, channel);

  int runs = 0;
  transport.send(0.001, [&] { ++runs; }, [] { return true; },
                 [] { return true; });
  sim.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(transport.stats().duplicates_dropped, 1u);
  EXPECT_EQ(transport.stats().acks_sent, 2u);  // every copy re-acks
  EXPECT_EQ(transport.stats().retransmits, 0u);
  EXPECT_EQ(transport.stats().gave_up, 0u);
}

TEST(ReliableTransport, GivesUpOnDeadReceiverAfterBackoff) {
  Simulator sim;
  ChannelModel channel;  // perfect medium — the *receiver* is the problem
  RetransmitPolicy policy;
  policy.rto_ms = 10.0;
  policy.backoff = 2.0;
  policy.max_retries = 3;
  ReliableTransport transport(sim, channel, policy);

  int runs = 0;
  transport.send(0.001, [&] { ++runs; }, [] { return true; },
                 [] { return false; });  // receiver is dead
  sim.run();
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(transport.stats().retransmits, 3u);
  EXPECT_EQ(transport.stats().gave_up, 1u);
  EXPECT_EQ(transport.in_flight(), 0u);
  // Backoff: timers at 10, 20, 40, 80 → the conversation dies at t=150ms.
  EXPECT_DOUBLE_EQ(sim.now(), 150.0);
}

TEST(ReliableTransport, StopsTransmittingWhenLinkGoesDown) {
  Simulator sim;
  ChannelModel channel;
  RetransmitPolicy policy;
  policy.rto_ms = 10.0;
  policy.max_retries = 2;
  ReliableTransport transport(sim, channel, policy);

  bool link_up = false;  // link dead before the first copy is wired
  int runs = 0;
  transport.send(0.001, [&] { ++runs; }, [&] { return link_up; },
                 [] { return true; });
  sim.run();
  EXPECT_EQ(runs, 0);  // nothing ever crossed
  EXPECT_EQ(transport.stats().gave_up, 1u);
  EXPECT_EQ(channel.stats().attempted, 0u);  // copies never hit the wire
}

TEST(ReliableTransport, ReleasesCallablesOnceSettled) {
  // A lossy, duplicating, jittered channel: acked messages (some with a
  // straggler copy still on the wire) and abandoned ones.  Every message's
  // callables must be destroyed while the transport lives on, and a
  // straggler must still be deduplicated, not re-delivered.
  Simulator sim;
  ChannelOptions options;
  options.drop_rate = 0.3;
  options.duplicate_rate = 0.3;
  options.jitter_ms = 0.5;
  options.seed = 11;
  ChannelModel channel(options);
  RetransmitPolicy policy;
  policy.rto_ms = 10.0;
  policy.max_retries = 2;
  ReliableTransport transport(sim, channel, policy);

  const auto held = std::make_shared<int>(0);
  std::vector<int> runs(200, 0);
  for (std::size_t m = 0; m < runs.size(); ++m) {
    transport.send(
        0.001, [held, &runs, m] { ++runs[m]; },
        [held] { return true; }, [held] { return true; },
        [held] { return 0.0; });
  }
  EXPECT_EQ(held.use_count(), 1 + 4 * static_cast<long>(runs.size()));
  sim.run();
  EXPECT_EQ(held.use_count(), 1);  // every callable released
  EXPECT_EQ(transport.in_flight(), 0u);
  EXPECT_GT(transport.stats().gave_up, 0u);
  EXPECT_GT(transport.stats().duplicates_dropped, 0u);
  for (const int r : runs) EXPECT_LE(r, 1);
}

}  // namespace
}  // namespace aspen
