#include "core/plan_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace raqo::core {

bool SortedArrayIndex::Insert(const CachedResourcePlan& plan) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), plan.key_gb,
      [](const CachedResourcePlan& e, double k) { return e.key_gb < k; });
  if (it != entries_.end() && it->key_gb == plan.key_gb) {
    *it = plan;  // overwrite
    return false;
  }
  entries_.insert(it, plan);
  return true;
}

std::optional<CachedResourcePlan> SortedArrayIndex::FindExact(
    double key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const CachedResourcePlan& e, double k) { return e.key_gb < k; });
  if (it != entries_.end() && it->key_gb == key) return *it;
  return std::nullopt;
}

std::vector<CachedResourcePlan> SortedArrayIndex::FindNeighbors(
    double key, double threshold) const {
  std::vector<CachedResourcePlan> out;
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key - threshold,
      [](const CachedResourcePlan& e, double k) { return e.key_gb < k; });
  for (; it != entries_.end() && it->key_gb <= key + threshold; ++it) {
    out.push_back(*it);
  }
  return out;
}

void SortedArrayIndex::ForEach(
    const std::function<void(const CachedResourcePlan&)>& fn) const {
  for (const CachedResourcePlan& entry : entries_) fn(entry);
}

bool CsbTreeIndex::Insert(const CachedResourcePlan& plan) {
  if (std::optional<int64_t> existing = tree_.Find(plan.key_gb)) {
    payloads_[static_cast<size_t>(*existing)] = plan;
    return false;
  }
  payloads_.push_back(plan);
  tree_.Insert(plan.key_gb, static_cast<int64_t>(payloads_.size() - 1));
  return true;
}

std::optional<CachedResourcePlan> CsbTreeIndex::FindExact(double key) const {
  if (std::optional<int64_t> handle = tree_.Find(key)) {
    return payloads_[static_cast<size_t>(*handle)];
  }
  return std::nullopt;
}

std::vector<CachedResourcePlan> CsbTreeIndex::FindNeighbors(
    double key, double threshold) const {
  std::vector<CachedResourcePlan> out;
  tree_.Scan(key - threshold, key + threshold, [&](double, int64_t handle) {
    out.push_back(payloads_[static_cast<size_t>(handle)]);
  });
  return out;
}

void CsbTreeIndex::ForEach(
    const std::function<void(const CachedResourcePlan&)>& fn) const {
  // The tree scan yields keys ascending; payloads_ holds them insertion
  // ordered, so iterate through the tree for the ordering promise.
  tree_.Scan(-std::numeric_limits<double>::infinity(),
             std::numeric_limits<double>::infinity(),
             [&](double, int64_t handle) {
               fn(payloads_[static_cast<size_t>(handle)]);
             });
}

std::unique_ptr<ResourcePlanIndex> MakeResourcePlanIndex(
    CacheIndexKind kind) {
  if (kind == CacheIndexKind::kCsbTree) {
    return std::make_unique<CsbTreeIndex>();
  }
  return std::make_unique<SortedArrayIndex>();
}

ShardedResourcePlanIndex::ShardedResourcePlanIndex(CacheIndexKind inner,
                                                   size_t num_shards)
    : inner_(inner), shards_(std::max<size_t>(1, num_shards)) {
  for (Shard& shard : shards_) shard.index = MakeResourcePlanIndex(inner);
}

std::unique_lock<std::mutex> ShardedResourcePlanIndex::LockShard(
    const Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Contended: another planner thread holds this stripe. Only now is
    // the clock read, so the uncontended path stays wait-free of timing
    // overhead.
    Stopwatch waited;
    lock.lock();
    shard.contended_acquires.fetch_add(1, std::memory_order_relaxed);
    shard.lock_wait_ns.fetch_add(
        static_cast<int64_t>(waited.ElapsedMicros() * 1e3),
        std::memory_order_relaxed);
  }
  return lock;
}

size_t ShardedResourcePlanIndex::ShardIndexFor(double key) const {
  // +0.0 and -0.0 hash alike, matching their key equality.
  if (key == 0.0) key = 0.0;
  return std::hash<double>{}(key) % shards_.size();
}

const ShardedResourcePlanIndex::Shard& ShardedResourcePlanIndex::ShardFor(
    double key) const {
  return shards_[ShardIndexFor(key)];
}

ShardedResourcePlanIndex::Shard& ShardedResourcePlanIndex::ShardFor(
    double key) {
  return const_cast<Shard&>(
      static_cast<const ShardedResourcePlanIndex*>(this)->ShardFor(key));
}

bool ShardedResourcePlanIndex::Insert(const CachedResourcePlan& plan) {
  Shard& shard = ShardFor(plan.key_gb);
  shard.inserts.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock = LockShard(shard);
  return shard.index->Insert(plan);
}

size_t ShardedResourcePlanIndex::InsertBatch(
    const std::vector<CachedResourcePlan>& plans) {
  // Group by stripe first (no locks held), then drain each group under
  // one acquisition of its stripe lock. Stripes are visited in index
  // order and never two at once, so batched flushes cannot deadlock
  // against each other or against per-entry inserters.
  std::vector<std::vector<const CachedResourcePlan*>> by_shard(
      shards_.size());
  for (const CachedResourcePlan& plan : plans) {
    by_shard[ShardIndexFor(plan.key_gb)].push_back(&plan);
  }
  size_t inserted = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = shards_[s];
    shard.inserts.fetch_add(static_cast<int64_t>(by_shard[s].size()),
                            std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock = LockShard(shard);
    for (const CachedResourcePlan* plan : by_shard[s]) {
      if (shard.index->Insert(*plan)) ++inserted;
    }
  }
  return inserted;
}

std::optional<CachedResourcePlan> ShardedResourcePlanIndex::FindExact(
    double key) const {
  const Shard& shard = ShardFor(key);
  shard.lookups.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock = LockShard(shard);
  return shard.index->FindExact(key);
}

std::vector<CachedResourcePlan> ShardedResourcePlanIndex::FindNeighbors(
    double key, double threshold) const {
  // Hash striping scatters a key range over every shard; gather per
  // shard (each under its own lock) and restore the ascending order.
  std::vector<CachedResourcePlan> out;
  for (const Shard& shard : shards_) {
    shard.lookups.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock = LockShard(shard);
    std::vector<CachedResourcePlan> part =
        shard.index->FindNeighbors(key, threshold);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end(),
            [](const CachedResourcePlan& a, const CachedResourcePlan& b) {
              return a.key_gb < b.key_gb;
            });
  return out;
}

void ShardedResourcePlanIndex::ForEach(
    const std::function<void(const CachedResourcePlan&)>& fn) const {
  // Hash striping scatters the key order across shards: gather a
  // snapshot per shard (each under its own lock, never two at once),
  // restore the global ascending order, then visit outside all locks —
  // so `fn` may take as long as it likes without blocking planners.
  std::vector<CachedResourcePlan> all;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    shard.index->ForEach(
        [&](const CachedResourcePlan& entry) { all.push_back(entry); });
  }
  std::sort(all.begin(), all.end(),
            [](const CachedResourcePlan& a, const CachedResourcePlan& b) {
              return a.key_gb < b.key_gb;
            });
  for (const CachedResourcePlan& entry : all) fn(entry);
}

size_t ShardedResourcePlanIndex::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.index->size();
  }
  return total;
}

const char* ShardedResourcePlanIndex::name() const {
  return inner_ == CacheIndexKind::kCsbTree ? "sharded-csb-tree"
                                            : "sharded-sorted-array";
}

std::vector<ShardStats> ShardedResourcePlanIndex::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    ShardStats s;
    s.lookups = shard.lookups.load(std::memory_order_relaxed);
    s.inserts = shard.inserts.load(std::memory_order_relaxed);
    s.contended_acquires =
        shard.contended_acquires.load(std::memory_order_relaxed);
    s.lock_wait_ns = shard.lock_wait_ns.load(std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock = LockShard(shard);
      s.entries = shard.index->size();
    }
    out.push_back(s);
  }
  return out;
}

const char* CacheLookupModeName(CacheLookupMode mode) {
  switch (mode) {
    case CacheLookupMode::kExact:
      return "exact";
    case CacheLookupMode::kNearestNeighbor:
      return "nearest-neighbor";
    case CacheLookupMode::kWeightedAverage:
      return "weighted-average";
  }
  return "?";
}

ResourcePlanCache::ResourcePlanCache(CacheLookupMode mode,
                                     double threshold_gb,
                                     CacheIndexKind index_kind,
                                     size_t shards)
    : mode_(mode),
      threshold_gb_(threshold_gb),
      index_kind_(index_kind),
      shards_(shards) {
  RAQO_CHECK(threshold_gb >= 0.0) << "cache threshold must be non-negative";
}

ResourcePlanIndex* ResourcePlanCache::FindIndex(
    const std::string& model_name) const {
  auto it = per_model_.find(model_name);
  return it == per_model_.end() ? nullptr : it->second.get();
}

ResourcePlanIndex& ResourcePlanCache::IndexFor(
    const std::string& model_name) {
  std::unique_ptr<ResourcePlanIndex>& slot = per_model_[model_name];
  if (slot == nullptr) {
    if (shards_ > 0) {
      slot = std::make_unique<ShardedResourcePlanIndex>(index_kind_, shards_);
    } else {
      slot = MakeResourcePlanIndex(index_kind_);
    }
  }
  return *slot;
}

namespace {

/// Exact mode stores one entry per (smaller, larger) input pair: the
/// index key mixes the bit patterns of both sizes into a 53-bit
/// integer-valued double (exactly representable, totally ordered), so
/// distinct pairs land on distinct keys. An arithmetic fold such as
/// ss + 1e6 * ls would round away small smaller-side differences once
/// the larger side dominates the magnitude, silently overwriting
/// distinct pairs. Residual hash collisions (~n^2 / 2^54) are harmless:
/// lookups verify the true pair on the entry itself.
double ExactStorageKey(double smaller_gb, double larger_gb) {
  if (larger_gb == 0.0) return smaller_gb;
  uint64_t a = 0;
  uint64_t b = 0;
  std::memcpy(&a, &smaller_gb, sizeof(a));
  std::memcpy(&b, &larger_gb, sizeof(b));
  uint64_t h = a * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  h += b;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  return static_cast<double>(h >> 11);
}

}  // namespace

std::optional<CachedResourcePlan> ResourcePlanCache::Lookup(
    const std::string& model_name, double key_gb,
    std::optional<double> larger_gb) {
  const bool metrics_on = obs::MetricsOn();
  const bool tracing_on = obs::TracingOn();
  if (!metrics_on && !tracing_on) {
    return LookupImpl(model_name, key_gb, larger_gb);
  }

  // The wall-time histogram samples one lookup in
  // kLookupWallSampleEvery per thread: a hit costs ~0.1-0.2 µs, and two
  // clock reads plus a record on every one of them cost half as much
  // again. Traced lookups carry their duration in the span.
  thread_local uint32_t wall_sample_tick = 0;
  std::optional<Stopwatch> timer;
  if (metrics_on && wall_sample_tick++ % kLookupWallSampleEvery == 0) {
    timer.emplace();
  }
  obs::Span span;
  if (tracing_on) span = obs::DefaultTracer().StartSpan("cache.lookup");
  std::optional<CachedResourcePlan> result =
      LookupImpl(model_name, key_gb, larger_gb);
  if (span.recording()) {
    span.SetAttr("model", model_name);
    span.SetAttr("key_gb", key_gb);
    span.SetAttr("hit", static_cast<int64_t>(result.has_value()));
  }
  if (metrics_on) {
    static obs::Counter* hit_count =
        obs::DefaultMetrics().GetCounter("cache.lookup.hit");
    static obs::Counter* miss_count =
        obs::DefaultMetrics().GetCounter("cache.lookup.miss");
    static obs::Histogram* latency =
        obs::DefaultMetrics().GetHistogram("cache.lookup.wall_us");
    (result.has_value() ? hit_count : miss_count)->Add(1);
    if (timer.has_value()) latency->Record(timer->ElapsedMicros());
  }
  return result;
}

std::optional<CachedResourcePlan> ResourcePlanCache::LookupImpl(
    const std::string& model_name, double key_gb,
    std::optional<double> larger_gb) {
  std::shared_lock<std::shared_mutex> map_lock(map_mu_);
  const ResourcePlanIndex* index = FindIndex(model_name);
  if (index == nullptr) {
    // No plan was ever recorded for this model: a miss, without taking
    // the exclusive lock to materialize an empty index.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  // Exact mode with a larger-size guard: the entry must have been
  // computed for this very (smaller, larger) pair — a configuration
  // reused across pairs would depend on which join populated the cache
  // first, which is acceptable for the similarity modes but fatal for
  // determinism under concurrent sharing. The pair is re-verified on the
  // entry, so folded-key aliasing can never produce a false hit.
  if (mode_ == CacheLookupMode::kExact && larger_gb.has_value()) {
    std::optional<CachedResourcePlan> exact =
        index->FindExact(ExactStorageKey(key_gb, *larger_gb));
    if (exact && exact->smaller_gb == key_gb &&
        exact->larger_gb == *larger_gb) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      exact->key_gb = key_gb;  // restore the caller-facing key
      return exact;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  // All modes try an exact match first.
  if (std::optional<CachedResourcePlan> exact = index->FindExact(key_gb)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return exact;
  }
  if (mode_ != CacheLookupMode::kExact && threshold_gb_ > 0.0) {
    const std::vector<CachedResourcePlan> neighbors =
        index->FindNeighbors(key_gb, threshold_gb_);
    if (!neighbors.empty()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (mode_ == CacheLookupMode::kNearestNeighbor) {
        const CachedResourcePlan* best = &neighbors[0];
        for (const CachedResourcePlan& n : neighbors) {
          if (std::fabs(n.key_gb - key_gb) <
              std::fabs(best->key_gb - key_gb)) {
            best = &n;
          }
        }
        return *best;
      }
      // Weighted average: inverse-distance weighting of the neighboring
      // resource configurations and costs.
      double weight_sum = 0.0;
      double cs = 0.0;
      double nc = 0.0;
      double cost = 0.0;
      for (const CachedResourcePlan& n : neighbors) {
        const double w = 1.0 / (std::fabs(n.key_gb - key_gb) + 1e-9);
        weight_sum += w;
        cs += w * n.config.container_size_gb();
        nc += w * n.config.num_containers();
        cost += w * n.cost;
      }
      CachedResourcePlan blended;
      blended.key_gb = key_gb;
      blended.config = resource::ResourceConfig(cs / weight_sum,
                                                nc / weight_sum);
      blended.cost = cost / weight_sum;
      return blended;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

namespace {

/// Approximate resident footprint of one cached entry: the plan struct
/// plus the per-key index slot it occupies (key + payload handle).
constexpr int64_t kApproxEntryBytes =
    static_cast<int64_t>(sizeof(CachedResourcePlan)) + 16;

}  // namespace

void ResourcePlanCache::Insert(const std::string& model_name,
                               const CachedResourcePlan& plan) {
  CachedResourcePlan entry = plan;
  entry.smaller_gb = plan.key_gb;
  if (mode_ == CacheLookupMode::kExact) {
    // One entry per (smaller, larger) pair; with no larger size recorded
    // the storage key degenerates to the plain data characteristic, so
    // guard-less callers see the paper's original exact-match layout.
    entry.key_gb = ExactStorageKey(plan.key_gb, plan.larger_gb);
  }
  bool inserted = false;
  bool done = false;
  {
    std::shared_lock<std::shared_mutex> map_lock(map_mu_);
    if (ResourcePlanIndex* index = FindIndex(model_name)) {
      inserted = index->Insert(entry);
      done = true;
    }
  }
  if (!done) {
    // First insert for this model: create the index under the exclusive
    // lock (IndexFor re-checks, so two racing creators agree).
    std::unique_lock<std::shared_mutex> map_lock(map_mu_);
    inserted = IndexFor(model_name).Insert(entry);
  }
  if (inserted) {
    const int64_t entries =
        entry_count_.fetch_add(1, std::memory_order_relaxed) + 1;
    const int64_t bytes =
        approx_bytes_.fetch_add(kApproxEntryBytes,
                                std::memory_order_relaxed) +
        kApproxEntryBytes;
    if (obs::MetricsOn()) {
      static obs::Gauge* entries_gauge =
          obs::DefaultMetrics().GetGauge("cache.entries");
      static obs::Gauge* bytes_gauge =
          obs::DefaultMetrics().GetGauge("cache.bytes");
      entries_gauge->Set(static_cast<double>(entries));
      bytes_gauge->Set(static_cast<double>(bytes));
    }
  }
  // Fire the mutation observer strictly after every cache lock is
  // released: a listener journaling to disk or snapshotting the cache
  // (which re-enters via DumpEntries) must never nest under map_mu_ or
  // a shard stripe.
  if (CacheEventListener* listener =
          listener_.load(std::memory_order_acquire);
      listener != nullptr) {
    listener->OnInsert(model_name, plan);
  }
}

void ResourcePlanCache::InsertBatch(
    const std::vector<CacheEntryRecord>& entries) {
  if (entries.empty()) return;
  if (entries.size() == 1) {
    Insert(entries[0].model, entries[0].plan);
    return;
  }

  // Fold the storage keys up front (no locks held) and group by model;
  // within a model, batch order is preserved so duplicate keys resolve
  // to the last occurrence, exactly as repeated Insert calls would.
  std::map<std::string, std::vector<CachedResourcePlan>> by_model;
  for (const CacheEntryRecord& record : entries) {
    CachedResourcePlan folded = record.plan;
    folded.smaller_gb = record.plan.key_gb;
    if (mode_ == CacheLookupMode::kExact) {
      folded.key_gb =
          ExactStorageKey(record.plan.key_gb, record.plan.larger_gb);
    }
    by_model[record.model].push_back(folded);
  }

  const auto insert_group =
      [this](ResourcePlanIndex& index,
             const std::vector<CachedResourcePlan>& plans) -> size_t {
    if (shards_ > 0) {
      // shards_ > 0 means every per-model index is sharded; the batch
      // path takes each stripe lock once for the whole group.
      return static_cast<ShardedResourcePlanIndex&>(index).InsertBatch(
          plans);
    }
    size_t inserted = 0;
    for (const CachedResourcePlan& plan : plans) {
      if (index.Insert(plan)) ++inserted;
    }
    return inserted;
  };

  int64_t inserted = 0;
  for (const auto& [model, plans] : by_model) {
    bool done = false;
    {
      std::shared_lock<std::shared_mutex> map_lock(map_mu_);
      if (ResourcePlanIndex* index = FindIndex(model)) {
        inserted += static_cast<int64_t>(insert_group(*index, plans));
        done = true;
      }
    }
    if (!done) {
      std::unique_lock<std::shared_mutex> map_lock(map_mu_);
      inserted += static_cast<int64_t>(insert_group(IndexFor(model), plans));
    }
  }

  if (inserted > 0) {
    const int64_t count =
        entry_count_.fetch_add(inserted, std::memory_order_relaxed) +
        inserted;
    const int64_t delta = inserted * kApproxEntryBytes;
    const int64_t bytes =
        approx_bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (obs::MetricsOn()) {
      static obs::Gauge* entries_gauge =
          obs::DefaultMetrics().GetGauge("cache.entries");
      static obs::Gauge* bytes_gauge =
          obs::DefaultMetrics().GetGauge("cache.bytes");
      entries_gauge->Set(static_cast<double>(count));
      bytes_gauge->Set(static_cast<double>(bytes));
    }
  }
  // Per-entry listener callbacks in batch order, outside all locks —
  // the persistence journal sees the identical record stream it would
  // have seen from per-entry Insert calls.
  if (CacheEventListener* listener =
          listener_.load(std::memory_order_acquire);
      listener != nullptr) {
    for (const CacheEntryRecord& record : entries) {
      listener->OnInsert(record.model, record.plan);
    }
  }
}

void ResourcePlanCache::Clear() {
  std::unique_lock<std::shared_mutex> map_lock(map_mu_);
  per_model_.clear();
  entry_count_.store(0, std::memory_order_relaxed);
  approx_bytes_.store(0, std::memory_order_relaxed);
  if (obs::MetricsOn()) {
    static obs::Gauge* entries_gauge =
        obs::DefaultMetrics().GetGauge("cache.entries");
    static obs::Gauge* bytes_gauge =
        obs::DefaultMetrics().GetGauge("cache.bytes");
    entries_gauge->Set(0.0);
    bytes_gauge->Set(0.0);
  }
}

std::vector<CacheEntryRecord> ResourcePlanCache::DumpEntries() const {
  std::vector<CacheEntryRecord> out;
  {
    std::shared_lock<std::shared_mutex> map_lock(map_mu_);
    for (const auto& [model, index] : per_model_) {
      index->ForEach([&](const CachedResourcePlan& stored) {
        CacheEntryRecord record;
        record.model = model;
        record.plan = stored;
        // Undo exact-mode key folding: the logical key is the original
        // data characteristic, which Insert preserved in smaller_gb.
        // Re-Inserting the record re-derives the identical storage key.
        record.plan.key_gb = stored.smaller_gb;
        out.push_back(std::move(record));
      });
    }
  }
  // The per-model map iterates sorted already; within a model the index
  // yields storage-key order, which under exact-mode folding is not the
  // logical order. Impose the canonical (model, smaller, larger) order
  // so two dumps of equal caches are byte-identical when serialized.
  std::sort(out.begin(), out.end(),
            [](const CacheEntryRecord& a, const CacheEntryRecord& b) {
              if (a.model != b.model) return a.model < b.model;
              if (a.plan.smaller_gb != b.plan.smaller_gb) {
                return a.plan.smaller_gb < b.plan.smaller_gb;
              }
              return a.plan.larger_gb < b.plan.larger_gb;
            });
  return out;
}

size_t ResourcePlanCache::size() const {
  std::shared_lock<std::shared_mutex> map_lock(map_mu_);
  size_t total = 0;
  for (const auto& [name, index] : per_model_) total += index->size();
  return total;
}

std::vector<ShardStats> ResourcePlanCache::shard_stats() const {
  if (shards_ == 0) return {};
  std::vector<ShardStats> out;
  std::shared_lock<std::shared_mutex> map_lock(map_mu_);
  for (const auto& [name, index] : per_model_) {
    // shards_ > 0 means every per-model index is sharded.
    const auto& sharded =
        static_cast<const ShardedResourcePlanIndex&>(*index);
    std::vector<ShardStats> per = sharded.shard_stats();
    if (out.size() < per.size()) out.resize(per.size());
    for (size_t i = 0; i < per.size(); ++i) {
      out[i].entries += per[i].entries;
      out[i].lookups += per[i].lookups;
      out[i].inserts += per[i].inserts;
      out[i].contended_acquires += per[i].contended_acquires;
      out[i].lock_wait_ns += per[i].lock_wait_ns;
    }
  }
  return out;
}

}  // namespace raqo::core
