#include "src/serve/cache.h"

#include <ostream>

#include "src/fault/seed.h"
#include "src/obs/obs.h"
#include "src/util/contracts.h"

namespace aspen::serve {

namespace {

const obs::Counter kCacheMiss{"serve.cache.miss"};
const obs::Counter kCacheHit{"serve.cache.hit"};
const obs::Counter kCacheEvict{"serve.cache.evict"};

}  // namespace

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {
  ASPEN_REQUIRE(capacity_ > 0, "result cache capacity must be positive");
}

const QueryResult* ResultCache::find(std::uint64_t digest,
                                     std::uint64_t query_fp) {
  const auto it = entries_.find(Key{digest, query_fp});
  if (it == entries_.end()) {
    ++misses_;
    obs::count(kCacheMiss);
    return nullptr;
  }
  ++hits_;
  obs::count(kCacheHit);
  return &it->second;
}

void ResultCache::insert(std::uint64_t digest, std::uint64_t query_fp,
                         const QueryResult& result) {
  const Key key{digest, query_fp};
  const auto [it, inserted] = entries_.insert_or_assign(key, result);
  (void)it;
  if (!inserted) return;  // overwrite keeps the original age
  order_.push_back(key);
  if (entries_.size() > capacity_) {
    const Key oldest = order_.front();
    order_.erase(order_.begin());
    entries_.erase(oldest);
    ++evictions_;
    obs::count(kCacheEvict);
  }
}

std::uint64_t ResultCache::fingerprint() const {
  std::uint64_t h = 0xCACE1u;
  h = fault::derive_stream_seed(h, hits_);
  h = fault::derive_stream_seed(h, misses_);
  h = fault::derive_stream_seed(h, evictions_);
  h = fault::derive_stream_seed(h, order_.size());
  for (const Key& key : order_) {
    h = fault::derive_stream_seed(h, key.first);
    h = fault::derive_stream_seed(h, key.second);
    const QueryResult& r = entries_.at(key);
    h = fault::derive_stream_seed(h, r.delivered);
    h = fault::derive_stream_seed(h, r.hops);
    h = fault::derive_stream_seed(h, r.switches_changed);
    h = fault::derive_stream_seed(h, r.dests_lost);
    h = fault::derive_stream_seed(h, r.flows_delivered);
    h = fault::derive_stream_seed(h, r.flows_lost);
  }
  return h;
}

void ResultCache::serialize(std::ostream& os) const {
  os << "cache_hits " << hits_ << "\n";
  os << "cache_misses " << misses_ << "\n";
  os << "cache_evictions " << evictions_ << "\n";
  os << "cache_entries " << order_.size() << "\n";
  for (const Key& key : order_) {
    const QueryResult& r = entries_.at(key);
    os << "centry " << key.first << " " << key.second << " " << r.delivered
       << " " << r.hops << " " << r.switches_changed << " " << r.dests_lost
       << " " << r.flows_delivered << " " << r.flows_lost << "\n";
  }
}

void ResultCache::restore_reset(std::uint64_t hits, std::uint64_t misses,
                                std::uint64_t evictions) {
  entries_.clear();
  order_.clear();
  hits_ = hits;
  misses_ = misses;
  evictions_ = evictions;
}

void ResultCache::restore_entry(std::uint64_t digest, std::uint64_t query_fp,
                                const QueryResult& result) {
  const Key key{digest, query_fp};
  ASPEN_REQUIRE(entries_.size() < capacity_,
                "serve checkpoint: more cache entries than capacity");
  const bool inserted = entries_.insert_or_assign(key, result).second;
  ASPEN_REQUIRE(inserted, "serve checkpoint: duplicate cache entry");
  order_.push_back(key);
}

}  // namespace aspen::serve
