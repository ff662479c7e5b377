// Bounded sharded-LRU cross-request decode cache (DESIGN.md §11).
//
// Keys are the router's full cache identity — normalized sentence key +
// model name + model fingerprint — and values are the decoded
// tag sequences. The map is sharded by key hash: each shard is an
// independent mutex + LRU list + index, so concurrent lookups from many
// connection handlers contend only when they hash to the same shard
// (the same discipline as the obs counter shards). Capacity is global
// (split evenly across shards) and eviction is strict per-shard LRU.
//
// Entries remember the model fingerprint they were decoded under so a
// hot-swap can invalidate exactly the stale generation
// (invalidate_fingerprint) without touching entries other replicas still
// serve. All observable state — cache.{hits,misses,evictions,bytes,
// entries} — lives in the obs registry the constructor is handed, which
// is how the numbers reach "#METRICS".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/registry.hpp"
#include "src/text/tag.hpp"

namespace graphner::router {

struct LruCacheConfig {
  std::size_t capacity = 4096;  ///< total entries across all shards
  std::size_t shards = 8;       ///< independent mutex domains
};

class ShardedLruCache {
 public:
  /// Instruments are resolved once from `registry` ("cache.hits", ...);
  /// the registry must outlive the cache.
  ShardedLruCache(LruCacheConfig config, obs::Registry& registry);

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Hit: moves the entry to the front of its shard's LRU and returns the
  /// tags. Every call counts into cache.hits or cache.misses.
  [[nodiscard]] std::optional<std::vector<text::Tag>> get(
      const std::string& key);

  /// Insert (or refresh) `key`. `fingerprint` is the model generation the
  /// tags were decoded under — invalidate_fingerprint's handle.
  void put(const std::string& key, std::vector<text::Tag> tags,
           std::uint64_t fingerprint);

  /// Drop every entry decoded under `fingerprint` (model hot-swap with no
  /// remaining replica on that generation). Returns how many were dropped.
  std::size_t invalidate_fingerprint(std::uint64_t fingerprint);

  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    std::string key;
    std::vector<text::Tag> tags;
    std::uint64_t fingerprint = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
  };

  [[nodiscard]] Shard& shard_for(const std::string& key);
  [[nodiscard]] static std::size_t entry_bytes(const Entry& entry) noexcept;
  /// Drop the shard's LRU tail. Caller holds the shard mutex.
  void evict_tail(Shard& shard);
  void refresh_gauges();

  std::size_t capacity_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> total_entries_{0};
  std::atomic<std::size_t> total_bytes_{0};
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& invalidated_;
  obs::Gauge& bytes_gauge_;
  obs::Gauge& entries_gauge_;
};

}  // namespace graphner::router
