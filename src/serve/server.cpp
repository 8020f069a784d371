#include "src/serve/server.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "src/fault/seed.h"
#include "src/obs/obs.h"
#include "src/routing/packet_walk.h"
#include "src/routing/updown.h"
#include "src/util/contracts.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace aspen::serve {

namespace {

const obs::Counter kRequests{"serve.requests"};
const obs::Counter kMalformed{"serve.malformed"};
const obs::Counter kDuplicateReplays{"serve.duplicate_replays"};
const obs::Counter kCoalesced{"serve.coalesced"};
const obs::Counter kShed{"serve.shed"};
const obs::Counter kDeadlineRejected{"serve.deadline_rejected"};
const obs::Counter kAdmitted{"serve.admitted"};
const obs::Counter kCompleted{"serve.completed"};
const obs::Counter kResumes{"serve.resumes"};

constexpr const char* kCheckpointMagic = "ASPNSRVE1";

/// Most flows a single kLoss query may sample — bounds per-query CPU.
constexpr std::uint32_t kMaxLossFlows = 4096;

[[nodiscard]] std::uint32_t lo32(std::uint64_t v) {
  return static_cast<std::uint32_t>(v & 0xFFFFFFFFull);
}

/// Chain-hash step for checkpoint/stream fingerprints (the sanctioned
/// mixer, same idiom as the survivability checkpoints).
[[nodiscard]] std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return fault::derive_stream_seed(h, v);
}

/// FNV-1a over raw frame bytes, for the reply-stream identity fold.
[[nodiscard]] std::uint64_t fold_bytes(std::uint64_t h,
                                       const std::string& bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

[[nodiscard]] std::uint64_t fold_response(std::uint64_t h,
                                          const Response& r) {
  h = mix(h, r.id);
  h = mix(h, static_cast<std::uint64_t>(r.status));
  h = mix(h, r.snapshot_digest);
  h = mix(h, r.staleness_events);
  h = mix(h, std::bit_cast<std::uint64_t>(r.staleness_ms));
  h = mix(h, r.from_cache ? 1u : 0u);
  h = mix(h, r.result.delivered);
  h = mix(h, r.result.hops);
  h = mix(h, r.result.switches_changed);
  h = mix(h, r.result.dests_lost);
  h = mix(h, r.result.flows_delivered);
  h = mix(h, r.result.flows_lost);
  return h;
}

std::uint64_t parse_field(std::istringstream& is, const char* key) {
  std::string word;
  std::uint64_t value = 0;
  if (!(is >> word) || word != key || !(is >> value)) {
    throw PreconditionError(std::string("serve checkpoint: expected ") + key);
  }
  return value;
}

}  // namespace

std::uint64_t ServerStats::fingerprint() const {
  std::uint64_t h = 0x5E12E0u;
  h = mix(h, received);
  h = mix(h, admitted);
  h = mix(h, completed);
  h = mix(h, shed);
  h = mix(h, deadline_rejected);
  h = mix(h, malformed);
  h = mix(h, duplicate_replays);
  h = mix(h, coalesced);
  return h;
}

QueryResult execute_query(const Topology& topo,
                          const routing::PinnedState& snapshot,
                          const Request& request) {
  // Re-materialize the snapshot's binary liveness; degraded health never
  // enters a snapshot, so the failed-link list is the whole story.
  LinkStateOverlay actual(topo);
  for (const LinkId link : snapshot.failed) actual.fail(link);

  WalkOptions pure;
  pure.apply_health = false;

  QueryResult result;
  switch (request.kind) {
    case QueryKind::kRoute: {
      const TableRouter router(snapshot.state);
      pure.flow_seed = request.flow_seed;
      const WalkResult walk =
          walk_packet(topo, router, actual, HostId{request.src},
                      HostId{request.dst}, pure);
      result.delivered = walk.delivered() ? 1 : 0;
      result.hops = static_cast<std::uint32_t>(std::max(walk.hops, 0));
      break;
    }
    case QueryKind::kWhatIf: {
      RoutingState hypothetical = snapshot.state;
      std::vector<LinkId> changed;
      for (const std::uint32_t raw : request.fail_links) {
        const LinkId link{raw};
        if (actual.fail(link)) changed.push_back(link);
      }
      if (!changed.empty()) {
        recompute_updown_routes(topo, actual, hypothetical, changed);
      }
      result.switches_changed = static_cast<std::uint32_t>(
          switches_with_changed_tables(snapshot.state, hypothetical));
      const SwitchId vantage = topo.edge_switch_of(HostId{request.src});
      const std::uint64_t before =
          snapshot.state.tables.reachable_count(vantage.value());
      const std::uint64_t after =
          hypothetical.tables.reachable_count(vantage.value());
      result.dests_lost =
          static_cast<std::uint32_t>(before > after ? before - after : 0);
      break;
    }
    case QueryKind::kLoss: {
      const TableRouter router(snapshot.state);
      Rng flow_rng(request.flow_seed);
      const std::uint64_t hosts = topo.num_hosts();
      for (std::uint32_t f = 0; f < request.flows; ++f) {
        const HostId src{static_cast<std::uint32_t>(
            flow_rng.index(static_cast<std::size_t>(hosts)))};
        HostId dst{static_cast<std::uint32_t>(
            flow_rng.index(static_cast<std::size_t>(hosts)))};
        if (dst == src) {
          dst = HostId{static_cast<std::uint32_t>((dst.value() + 1) % hosts)};
        }
        pure.flow_seed = f;
        const WalkResult walk =
            walk_packet(topo, router, actual, src, dst, pure);
        if (walk.delivered()) {
          ++result.flows_delivered;
        } else {
          ++result.flows_lost;
        }
      }
      break;
    }
  }
  return result;
}

Server::Server(Simulator& sim, const Topology& topo,
               SnapshotRegistry& registry, const ServerOptions& options)
    : sim_(&sim),
      topo_(&topo),
      registry_(&registry),
      options_(options),
      cache_(options.cache_capacity) {
  ASPEN_REQUIRE(options_.inflight_watermark > 0,
                "in-flight watermark must be positive");
}

double Server::service_ms(QueryKind kind) const {
  switch (kind) {
    case QueryKind::kRoute: return options_.route_service_ms;
    case QueryKind::kWhatIf: return options_.what_if_service_ms;
    case QueryKind::kLoss: return options_.loss_service_ms;
  }
  return options_.route_service_ms;
}

void Server::label(Response& response) const {
  const Snapshot& snap = registry_->current();
  response.snapshot_digest = snap.pinned->fingerprint;
  response.staleness_events =
      static_cast<std::uint32_t>(registry_->live_epoch() - snap.seal_epoch);
  response.staleness_ms = sim_->now() - snap.seal_time_ms;
}

void Server::reply_with(const Response& response, const Reply& reply) {
  const std::string frame = encode_response(response);
  reply_stream_hash_ = fold_bytes(reply_stream_hash_, frame);
  reply(frame);
}

void Server::handle_frame(const std::string& frame, Reply reply) {
  ++stats_.received;
  obs::count(kRequests);

  Request req;
  bool shaped = decode_request(frame, req);
  if (shaped) {
    const std::uint64_t hosts = topo_->num_hosts();
    switch (req.kind) {
      case QueryKind::kRoute:
        shaped = req.src < hosts && req.dst < hosts && req.src != req.dst;
        break;
      case QueryKind::kWhatIf:
        shaped = req.src < hosts;
        for (const std::uint32_t link : req.fail_links) {
          shaped = shaped && link < topo_->num_links();
        }
        break;
      case QueryKind::kLoss:
        shaped = req.flows > 0 && req.flows <= kMaxLossFlows && hosts >= 2;
        break;
    }
  }
  if (!shaped) {
    ++stats_.malformed;
    obs::count(kMalformed);
    obs::trace_event(sim_->now(), obs::TraceKind::kServeRequest, lo32(req.id),
                     static_cast<std::uint32_t>(req.kind), req.id,
                     "malformed");
    Response r;
    r.id = req.id;
    r.status = ResponseStatus::kMalformed;
    label(r);
    reply_with(r, reply);
    return;
  }

  const auto it = dedup_.find(req.id);
  if (it != dedup_.end()) {
    if (it->second.completed) {
      // Idempotent replay: the stored bytes, not a re-execution — a retry
      // of a completed request can never double-apply or relabel.
      ++stats_.duplicate_replays;
      obs::count(kDuplicateReplays);
      obs::trace_event(sim_->now(), obs::TraceKind::kServeRequest,
                       lo32(req.id), static_cast<std::uint32_t>(req.kind),
                       req.id, "replay");
      reply_stream_hash_ = fold_bytes(reply_stream_hash_, it->second.frame);
      reply(it->second.frame);
      return;
    }
    // Original still executing: this retry coalesces onto it.
    ++stats_.coalesced;
    obs::count(kCoalesced);
    obs::trace_event(sim_->now(), obs::TraceKind::kServeRequest, lo32(req.id),
                     static_cast<std::uint32_t>(req.kind), req.id,
                     "coalesce");
    it->second.waiters.push_back(std::move(reply));
    return;
  }

  if (in_flight_ >= options_.inflight_watermark) {
    ++stats_.shed;
    obs::count(kShed);
    obs::trace_event(sim_->now(), obs::TraceKind::kServeRequest, lo32(req.id),
                     static_cast<std::uint32_t>(req.kind), req.id, "shed");
    Response r;
    r.id = req.id;
    r.status = ResponseStatus::kShed;
    label(r);
    reply_with(r, reply);
    return;
  }

  const double service = service_ms(req.kind);
  const double start = std::max(sim_->now(), cpu_.next_free());
  const double finish = start + service;
  if (req.deadline_ms > 0.0 && finish > req.deadline_ms) {
    ++stats_.deadline_rejected;
    obs::count(kDeadlineRejected);
    obs::trace_event(sim_->now(), obs::TraceKind::kServeRequest, lo32(req.id),
                     static_cast<std::uint32_t>(req.kind), req.id,
                     "deadline");
    Response r;
    r.id = req.id;
    r.status = ResponseStatus::kDeadlineExceeded;
    label(r);
    reply_with(r, reply);
    return;
  }

  ++stats_.admitted;
  ++in_flight_;
  obs::count(kAdmitted);
  obs::gauge_set("serve.in_flight", static_cast<double>(in_flight_));
  obs::trace_event(sim_->now(), obs::TraceKind::kServeRequest, lo32(req.id),
                   static_cast<std::uint32_t>(req.kind), req.id, "admit");
  DedupEntry& entry = dedup_[req.id];
  entry.request = req;
  entry.waiters.push_back(std::move(reply));
  const double booked = cpu_.occupy(sim_->now(), service);
  ASPEN_ASSERT(booked == finish,
               "CPU booking disagrees with the admission projection");
  sim_->schedule_at(finish, [this, id = req.id] { complete(id); });
}

void Server::complete(std::uint64_t id) {
  DedupEntry& entry = dedup_.at(id);
  const Request req = entry.request;
  // The admission check projected completion inside the budget; virtual
  // time only moves forward, so the budget must still hold here.
  if (req.deadline_ms > 0.0) {
    ASPEN_ASSERT(sim_->now() <= req.deadline_ms,
                 "virtual-time deadline budget violated at completion");
  }

  const Snapshot& snap = registry_->current();
  const std::uint64_t qfp = query_fingerprint(req);
  Response r;
  r.id = id;
  r.status = ResponseStatus::kOk;
  const QueryResult* cached = cache_.find(snap.pinned->fingerprint, qfp);
  if (cached != nullptr) {
    r.result = *cached;
    r.from_cache = true;
  } else {
    r.result = execute_query(*topo_, *snap.pinned, req);
    cache_.insert(snap.pinned->fingerprint, qfp, r.result);
  }
  label(r);

  entry.completed = true;
  entry.response = r;
  entry.frame = encode_response(r);
  entry.request = Request{};  // retained only while in flight
  --in_flight_;
  ++stats_.completed;
  obs::count(kCompleted);
  obs::gauge_set("serve.in_flight", static_cast<double>(in_flight_));
  obs::trace_event(sim_->now(), obs::TraceKind::kServeResponse, lo32(id),
                   r.from_cache ? 1u : 0u, r.snapshot_digest, "ok");

  const std::vector<Reply> waiters = std::move(entry.waiters);
  entry.waiters.clear();
  for (const Reply& waiter : waiters) {
    reply_stream_hash_ = fold_bytes(reply_stream_hash_, entry.frame);
    waiter(entry.frame);
  }
}

std::string Server::checkpoint() const {
  const Snapshot& snap = registry_->current();
  std::ostringstream os;
  os << kCheckpointMagic << "\n";
  os << "received " << stats_.received << "\n";
  os << "admitted " << stats_.admitted << "\n";
  os << "completed " << stats_.completed << "\n";
  os << "shed " << stats_.shed << "\n";
  os << "deadline_rejected " << stats_.deadline_rejected << "\n";
  os << "malformed " << stats_.malformed << "\n";
  os << "duplicate_replays " << stats_.duplicate_replays << "\n";
  os << "coalesced " << stats_.coalesced << "\n";
  os << "live_epoch " << registry_->live_epoch() << "\n";
  os << "seals " << registry_->seals() << "\n";
  os << "seal_epoch " << snap.seal_epoch << "\n";
  os << "seal_time_bits " << std::bit_cast<std::uint64_t>(snap.seal_time_ms)
     << "\n";
  os << "snapshot_fp " << snap.pinned->fingerprint << "\n";
  os << "failed " << snap.pinned->failed.size();
  for (const LinkId link : snap.pinned->failed) os << " " << link.value();
  os << "\n";
  cache_.serialize(os);
  std::uint64_t completed_entries = 0;
  for (const auto& [id, entry] : dedup_) {
    if (entry.completed) ++completed_entries;
  }
  os << "dedup " << completed_entries << "\n";
  std::uint64_t h = 0x5EC4E0u;
  h = mix(h, stats_.fingerprint());
  h = mix(h, registry_->live_epoch());
  h = mix(h, registry_->seals());
  h = mix(h, snap.seal_epoch);
  h = mix(h, std::bit_cast<std::uint64_t>(snap.seal_time_ms));
  h = mix(h, snap.pinned->fingerprint);
  h = mix(h, cache_.fingerprint());
  h = mix(h, completed_entries);
  for (const auto& [id, entry] : dedup_) {
    if (!entry.completed) continue;  // a crash loses in-flight queries
    const Response& r = entry.response;
    os << "dent " << id << " " << static_cast<std::uint32_t>(r.status) << " "
       << r.snapshot_digest << " " << r.staleness_events << " "
       << std::bit_cast<std::uint64_t>(r.staleness_ms) << " "
       << (r.from_cache ? 1 : 0) << " " << r.result.delivered << " "
       << r.result.hops << " " << r.result.switches_changed << " "
       << r.result.dests_lost << " " << r.result.flows_delivered << " "
       << r.result.flows_lost << "\n";
    h = fold_response(h, r);
  }
  os << "fingerprint " << h << "\n";
  return os.str();
}

void Server::restore(const std::string& checkpoint_text) {
  std::istringstream is(checkpoint_text);
  std::string word;
  if (!(is >> word) || word != kCheckpointMagic) {
    throw PreconditionError("serve checkpoint: bad magic");
  }
  ServerStats stats;
  stats.received = parse_field(is, "received");
  stats.admitted = parse_field(is, "admitted");
  stats.completed = parse_field(is, "completed");
  stats.shed = parse_field(is, "shed");
  stats.deadline_rejected = parse_field(is, "deadline_rejected");
  stats.malformed = parse_field(is, "malformed");
  stats.duplicate_replays = parse_field(is, "duplicate_replays");
  stats.coalesced = parse_field(is, "coalesced");
  const std::uint64_t live_epoch = parse_field(is, "live_epoch");
  const std::uint64_t seals = parse_field(is, "seals");
  const std::uint64_t seal_epoch = parse_field(is, "seal_epoch");
  const double seal_time_ms =
      std::bit_cast<double>(parse_field(is, "seal_time_bits"));
  const std::uint64_t snapshot_fp = parse_field(is, "snapshot_fp");
  const std::uint64_t num_failed = parse_field(is, "failed");
  std::vector<LinkId> failed;
  failed.reserve(num_failed);
  for (std::uint64_t i = 0; i < num_failed; ++i) {
    std::uint32_t raw = 0;
    if (!(is >> raw)) {
      throw PreconditionError("serve checkpoint: bad failed-link list");
    }
    failed.push_back(LinkId{raw});
  }
  const std::uint64_t cache_hits = parse_field(is, "cache_hits");
  const std::uint64_t cache_misses = parse_field(is, "cache_misses");
  const std::uint64_t cache_evictions = parse_field(is, "cache_evictions");
  const std::uint64_t cache_entries = parse_field(is, "cache_entries");
  struct CacheLine {
    std::uint64_t digest = 0;
    std::uint64_t query_fp = 0;
    QueryResult result;
  };
  std::vector<CacheLine> cache_lines(cache_entries);
  for (CacheLine& line : cache_lines) {
    if (!(is >> word) || word != "centry" || !(is >> line.digest) ||
        !(is >> line.query_fp) || !(is >> line.result.delivered) ||
        !(is >> line.result.hops) || !(is >> line.result.switches_changed) ||
        !(is >> line.result.dests_lost) ||
        !(is >> line.result.flows_delivered) ||
        !(is >> line.result.flows_lost)) {
      throw PreconditionError("serve checkpoint: bad cache entry");
    }
  }
  const std::uint64_t dedup_entries = parse_field(is, "dedup");
  std::vector<std::pair<std::uint64_t, Response>> dents(dedup_entries);
  for (auto& [id, r] : dents) {
    std::uint32_t status = 0;
    std::uint64_t staleness_bits = 0;
    std::uint32_t from_cache = 0;
    if (!(is >> word) || word != "dent" || !(is >> id) || !(is >> status) ||
        status > static_cast<std::uint32_t>(ResponseStatus::kMalformed) ||
        !(is >> r.snapshot_digest) || !(is >> r.staleness_events) ||
        !(is >> staleness_bits) || !(is >> from_cache) ||
        !(is >> r.result.delivered) || !(is >> r.result.hops) ||
        !(is >> r.result.switches_changed) || !(is >> r.result.dests_lost) ||
        !(is >> r.result.flows_delivered) || !(is >> r.result.flows_lost)) {
      throw PreconditionError("serve checkpoint: bad dedup entry");
    }
    r.id = id;
    r.status = static_cast<ResponseStatus>(status);
    r.staleness_ms = std::bit_cast<double>(staleness_bits);
    r.from_cache = from_cache != 0;
  }
  const std::uint64_t sealed_fp = parse_field(is, "fingerprint");

  // Recompute the seal over the parsed payload before mutating anything.
  std::uint64_t h = 0x5EC4E0u;
  h = mix(h, stats.fingerprint());
  h = mix(h, live_epoch);
  h = mix(h, seals);
  h = mix(h, seal_epoch);
  h = mix(h, std::bit_cast<std::uint64_t>(seal_time_ms));
  h = mix(h, snapshot_fp);
  {
    std::uint64_t ch = 0xCACE1u;
    ch = mix(ch, cache_hits);
    ch = mix(ch, cache_misses);
    ch = mix(ch, cache_evictions);
    ch = mix(ch, cache_lines.size());
    for (const CacheLine& line : cache_lines) {
      ch = mix(ch, line.digest);
      ch = mix(ch, line.query_fp);
      ch = mix(ch, line.result.delivered);
      ch = mix(ch, line.result.hops);
      ch = mix(ch, line.result.switches_changed);
      ch = mix(ch, line.result.dests_lost);
      ch = mix(ch, line.result.flows_delivered);
      ch = mix(ch, line.result.flows_lost);
    }
    h = mix(h, ch);
  }
  h = mix(h, dedup_entries);
  for (const auto& [id, r] : dents) {
    (void)id;
    h = fold_response(h, r);
  }
  if (h != sealed_fp) {
    throw PreconditionError(
        "serve checkpoint: fingerprint mismatch (corrupt or truncated "
        "checkpoint)");
  }

  // The registry verifies the recomputed snapshot against the sealed
  // digest; only then is the rest of the server state installed.
  registry_->restore(failed, snapshot_fp, seal_epoch, seal_time_ms,
                     live_epoch, seals);
  stats.resumes = stats_.resumes + 1;
  stats_ = stats;
  cache_.restore_reset(cache_hits, cache_misses, cache_evictions);
  for (const CacheLine& line : cache_lines) {
    cache_.restore_entry(line.digest, line.query_fp, line.result);
  }
  dedup_.clear();
  for (const auto& [id, r] : dents) {
    DedupEntry entry;
    entry.completed = true;
    entry.response = r;
    entry.frame = encode_response(r);
    dedup_[id] = std::move(entry);
  }
  in_flight_ = 0;
  cpu_.reset();
  obs::count(kResumes);
}

}  // namespace aspen::serve
