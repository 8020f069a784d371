#include "src/serve/client.h"

#include <cmath>
#include <utility>

#include "src/fault/seed.h"
#include "src/util/contracts.h"

namespace aspen::serve {

namespace {

[[nodiscard]] ChannelOptions derive_channel(const ClientOptions& options) {
  ChannelOptions channel = options.channel;
  channel.seed = fault::derive_stream_seed(
      fault::derive_stream_seed(options.campaign_seed,
                                fault::kStreamServeChannel),
      options.client_id);
  return channel;
}

}  // namespace

Client::Client(Simulator& sim, Server& server, const ClientOptions& options)
    : sim_(&sim),
      server_(&server),
      options_(options),
      channel_(derive_channel(options)),
      retry_rng_(fault::derive_stream_seed(
          fault::derive_stream_seed(options.campaign_seed,
                                    fault::kStreamServeClient),
          options.client_id)) {
  ASPEN_REQUIRE(options_.max_retries >= 0 &&
                    options_.max_retries <= kMaxClientRetries,
                "client retry budget must stay within kMaxClientRetries");
  ASPEN_REQUIRE(options_.rto_ms > 0.0 && options_.backoff >= 1.0,
                "retry timeout must be positive and backoff non-shrinking");
}

std::uint64_t Client::submit(Request request, Callback callback) {
  request.id = (static_cast<std::uint64_t>(options_.client_id) << 32) |
               next_sequence_++;
  ++stats_.submitted;
  const std::uint64_t id = request.id;
  PendingQuery& pending = pending_[id];
  pending.request = std::move(request);
  pending.callback = std::move(callback);
  send_attempt(id);
  return id;
}

void Client::send_attempt(std::uint64_t id) {
  const PendingQuery& pending = pending_.at(id);
  ++stats_.frames_sent;
  std::string frame = encode_request(pending.request);
  // The request rides the lossy channel to the server; the server's reply
  // callback rides the same channel back.  Either leg may drop or
  // duplicate — that is what the retry loop and the server's dedup table
  // are for.
  channel_.transmit(*sim_, options_.net_delay_ms,
                    [this, frame = std::move(frame)] {
    server_->handle_frame(frame, [this](const std::string& response_frame) {
      channel_.transmit(*sim_, options_.net_delay_ms,
                        [this, response = response_frame] {
                          on_response_frame(response);
                        });
    });
  });
  arm_retry(id);
}

void Client::arm_retry(std::uint64_t id) {
  const PendingQuery& pending = pending_.at(id);
  // Exponential backoff from the retry count, plus derived-stream jitter so
  // simultaneous clients never synchronize their retry storms.
  const double wait =
      options_.rto_ms *
          std::pow(options_.backoff, static_cast<double>(pending.attempts)) +
      options_.retry_jitter_ms * retry_rng_.real();
  sim_->schedule(wait, [this, id, armed = pending.attempts] {
    maybe_retry(id, armed);
  });
}

bool Client::deadline_passed(const Request& request) const {
  return request.deadline_ms > 0.0 && sim_->now() >= request.deadline_ms;
}

void Client::maybe_retry(std::uint64_t id, int armed_attempts) {
  PendingQuery& pending = pending_.at(id);
  // Stale timer: the query finished, or a later attempt re-armed.
  if (pending.done || pending.attempts != armed_attempts) return;
  const bool cap_exhausted = pending.attempts >= options_.max_retries;
  if (cap_exhausted || deadline_passed(pending.request)) {
    ++stats_.gave_up;
    finish(id, nullptr);
    return;
  }
  ++pending.attempts;
  ++stats_.retransmits;
  send_attempt(id);
}

void Client::on_response_frame(const std::string& frame) {
  Response response;
  if (!decode_response(frame, response)) {
    ++stats_.undecodable;
    return;
  }
  const auto it = pending_.find(response.id);
  if (it == pending_.end() || it->second.done) {
    ++stats_.duplicates_ignored;
    return;
  }
  ++stats_.responses;
  if (response.status == ResponseStatus::kShed) {
    // Not an answer: the server explicitly declined under load.  The armed
    // backoff timer will try again with a longer wait.
    ++stats_.shed_seen;
    return;
  }
  finish(response.id, &response);
}

void Client::finish(std::uint64_t id, const Response* response) {
  PendingQuery& pending = pending_.at(id);
  pending.done = true;
  Outcome outcome;
  outcome.request = pending.request;
  if (response != nullptr) {
    outcome.response = *response;
    outcome.got_response = true;
  }
  outcomes_.push_back(outcome);
  if (pending.callback) pending.callback(outcomes_.back());
  pending.callback = nullptr;
}

}  // namespace aspen::serve
