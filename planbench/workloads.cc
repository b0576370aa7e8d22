// The three workloads: cold, warm and churn (README.md, "Workloads").

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "catalog/random_schema.h"
#include "catalog/tpch.h"
#include "common/rng.h"
#include "common/strings.h"
#include "planbench.h"

namespace planbench {

namespace {

uint64_t Mix(uint64_t a, uint64_t b) {
  // splitmix64 finaliser over the combined words.
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) { return Mix(Mix(a, b), c); }

/// `keys` in an order drawn from `rng_seed`.
std::vector<uint64_t> Shuffled(std::vector<uint64_t> keys, uint64_t rng_seed) {
  Rng rng(rng_seed);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1],
              keys[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
  }
  return keys;
}

server::PlanningServiceOptions CachedService() {
  server::PlanningServiceOptions options;
  options.planner.evaluator.use_cache = true;
  options.planner.evaluator.cache_mode = core::CacheLookupMode::kExact;
  options.planner.clear_cache_between_queries = false;
  options.cache_shards = kCacheShards;
  return options;
}

// --------------------------------------------------------------------
// TPC-H statements with filters
//
// Every statement filters each of orders and lineitem it names, and the
// unfiltered tables it names are pairwise non-adjacent in the join
// graph. Every sub-join the optimizer costs therefore involves a
// filtered table, so two statements with different filter constants
// never share a (model, smaller GB, larger GB) cache key. Requests of
// different objectives thus never read each other's cache entries,
// except where a statement is deliberately re-sent with the other
// objective.

struct Shape {
  std::vector<const char*> tables;
};

const std::vector<Shape>& TpchShapes() {
  static const std::vector<Shape> shapes = {
      {{"orders", "lineitem"}},
      {{"orders", "lineitem", "customer"}},
      {{"lineitem", "part"}},
      {{"lineitem", "supplier"}},
      {{"orders", "lineitem", "part"}},
      {{"orders", "lineitem", "supplier"}},
      {{"lineitem", "partsupp"}},
      {{"orders", "lineitem", "customer", "part"}},
      {{"orders", "lineitem", "customer", "supplier"}},
      {{"orders", "customer"}},
      {{"lineitem", "part", "supplier"}},
      {{"orders", "lineitem", "partsupp", "customer"}},
  };
  return shapes;
}

bool Has(const Shape& shape, const std::string& table) {
  return std::find(shape.tables.begin(), shape.tables.end(), table) !=
         shape.tables.end();
}

/// Renders a statement over `shape`. `orderdate` / `shipdate` are the
/// filter constants (days since 1992-01-01) on orders and lineitem.
std::string TpchSql(const Shape& shape, double orderdate, double shipdate) {
  static const std::vector<std::pair<std::pair<std::string, std::string>,
                                     const char*>>
      kJoins = {
          {{"orders", "lineitem"}, "o_orderkey = l_orderkey"},
          {{"orders", "customer"}, "o_custkey = c_custkey"},
          {{"lineitem", "part"}, "l_partkey = p_partkey"},
          {{"lineitem", "supplier"}, "l_suppkey = s_suppkey"},
          {{"lineitem", "partsupp"},
           "l_partkey = ps_partkey and l_suppkey = ps_suppkey"},
      };
  std::vector<std::string> where;
  for (const auto& [pair, predicate] : kJoins) {
    if (Has(shape, pair.first) && Has(shape, pair.second)) {
      where.push_back(predicate);
    }
  }
  if (Has(shape, "orders")) {
    where.push_back(StrPrintf("o_orderdate < %.6f", orderdate));
  }
  if (Has(shape, "lineitem")) {
    where.push_back(StrPrintf("l_shipdate < %.6f", shipdate));
  }
  std::string sql = "select * from ";
  for (size_t i = 0; i < shape.tables.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += shape.tables[i];
  }
  for (size_t i = 0; i < where.size(); ++i) {
    sql += i == 0 ? " where " : " and ";
    sql += where[i];
  }
  return sql;
}

/// Seeded filter constants within 48-52% of each date domain: every draw
/// gives new data sizes, while the cost of a shape varies little between
/// seeds, so plan-quality sums stay comparable across seeds.
std::string SeededTpchSql(const Shape& shape, uint64_t stream) {
  Rng rng(stream);
  const double orderdate = rng.Uniform(0.48 * 2405.0, 0.52 * 2405.0);
  const double shipdate = rng.Uniform(0.48 * 2525.0, 0.52 * 2525.0);
  return TpchSql(shape, orderdate, shipdate);
}

server::PlanRequest SqlRequest(std::string sql, double time_weight) {
  server::PlanRequest request;
  request.sql = std::move(sql);
  request.has_time_weight = true;
  request.time_weight = time_weight;
  return request;
}

std::vector<uint64_t> Iota(size_t n) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = i;
  return keys;
}

// --------------------------------------------------------------------
// cold: seeded connected table sets of 4-9 relations from the 30-table
// random schema; caching off, the server's default resource search.

class ColdWorkload : public Workload {
 public:
  static constexpr int kPerSize = 40;

  explicit ColdWorkload(uint64_t seed) : seed_(seed) {
    const catalog::Catalog catalog = BuildCatalog();
    std::set<std::vector<catalog::TableId>> seen;
    for (int size = 4; size <= 9; ++size) {
      for (int i = 0; i < kPerSize; ++i) {
        std::vector<catalog::TableId> tables;
        // Redraw duplicates; small sets grown from table 0 repeat often.
        for (uint64_t attempt = 0; attempt < 64; ++attempt) {
          tables = *catalog::RandomQueryTables(
              catalog, size, Mix(seed, size * 100 + i, attempt));
          std::vector<catalog::TableId> sorted = tables;
          std::sort(sorted.begin(), sorted.end());
          if (seen.insert(sorted).second) break;
        }
        server::PlanRequest request;
        for (catalog::TableId id : tables) {
          request.tables.push_back(catalog.table(id).name);
        }
        request.has_use_cache = true;
        request.use_cache = false;
        request.has_time_weight = true;
        request.time_weight = i % 2 == 0 ? 1.0 : 0.0;
        requests_.push_back(std::move(request));
      }
    }
  }

  // On one CPU the four in-flight requests, whose costs differ by two
  // orders of magnitude, time-share it, and the median round trip of one
  // seed moved by 30% between runs; on two it stays within ~10%.
  int cpus() const override { return 2; }
  // A quarter-second holds ~50 requests whose costs differ 100-fold; a
  // window needs hundreds for its throughput to speak of the host rather
  // than of which requests fell into it.
  double window_seconds() const override { return 2.0; }

  catalog::Catalog BuildCatalog() const override {
    // Row counts scaled by 100 over the generator's defaults, to the
    // 1-40 GB tables of TPC-H sf100: at the default 10-400 MB every join
    // prices at the cost models' floor and plan quality reads the same
    // for every plan.
    catalog::RandomSchemaOptions schema;
    schema.num_tables = 30;
    schema.min_rows = 10'000'000.0;
    schema.max_rows = 200'000'000.0;
    return *catalog::BuildRandomCatalog(schema);
  }
  server::PlanningServiceOptions ServiceOptions() const override {
    server::PlanningServiceOptions options;
    options.cache_shards = kCacheShards;
    return options;
  }
  std::vector<uint64_t> Round(int conn, int round) const override {
    return Shuffled(Iota(requests_.size()), Mix(seed_, conn, round));
  }
  server::PlanRequest Make(uint64_t key) const override {
    return requests_.at(key);
  }
  std::vector<uint64_t> WarmupKeys() const override {
    return Iota(requests_.size());
  }
  std::vector<uint64_t> QualityKeys() const override {
    return Iota(requests_.size());
  }
  std::vector<uint64_t> PrecomputedKeys() const override {
    return Iota(requests_.size());
  }

 private:
  uint64_t seed_;
  std::vector<server::PlanRequest> requests_;
};

// --------------------------------------------------------------------
// warm: a fixed mix of small TPC-H sf100 join shapes (filter constants
// drawn once per seed), exact search, shared exact-mode cache warmed by
// the set-up.

class WarmWorkload : public Workload {
 public:
  static constexpr int kRepeatsPerRound = 2;
  static constexpr size_t kStatementsPerShape = 2;

  explicit WarmWorkload(uint64_t seed) : seed_(seed) {
    // Shape index into TpchShapes() and objective.
    const std::vector<std::pair<int, double>> mix = {
        {0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0}, {5, 1.0},
        {6, 1.0}, {7, 1.0}, {0, 0.0}, {9, 0.0}, {10, 0.0}, {11, 0.0},
    };
    for (size_t copy = 0; copy < kStatementsPerShape; ++copy) {
      for (size_t i = 0; i < mix.size(); ++i) {
        server::PlanRequest request = SqlRequest(
            SeededTpchSql(TpchShapes()[mix[i].first],
                          Mix(seed, 0xA11, copy * mix.size() + i)),
            mix[i].second);
        request.search = "grid";
        requests_.push_back(std::move(request));
      }
    }
  }

  // The loopback path, not planning, bounds warm's latency; two workers
  // keep the four in-flight requests served while waking fewer idle
  // threads per request.
  int workers() const override { return 2; }

  catalog::Catalog BuildCatalog() const override {
    return catalog::BuildTpchCatalog(100.0);
  }
  server::PlanningServiceOptions ServiceOptions() const override {
    return CachedService();
  }
  std::vector<uint64_t> Round(int conn, int round) const override {
    std::vector<uint64_t> keys;
    for (int r = 0; r < kRepeatsPerRound; ++r) {
      for (size_t i = 0; i < requests_.size(); ++i) keys.push_back(i);
    }
    return Shuffled(std::move(keys), Mix(seed_, conn, round));
  }
  server::PlanRequest Make(uint64_t key) const override {
    return requests_.at(key);
  }
  std::vector<uint64_t> WarmupKeys() const override {
    return Iota(requests_.size());
  }
  std::vector<uint64_t> QualityKeys() const override {
    return Iota(requests_.size());
  }
  std::vector<uint64_t> PrecomputedKeys() const override {
    return Iota(requests_.size());
  }

 private:
  uint64_t seed_;
  std::vector<server::PlanRequest> requests_;
};

// --------------------------------------------------------------------
// churn: TPC-H sf100 statements with seeded filter constants against a
// durable server. Per connection and round: kNew new statements, kRepeat
// re-sends of the connection's own earlier statements; connection 0
// also re-sends one fixed statement with the other objective.

class ChurnWorkload : public Workload {
 public:
  static constexpr int kNew = 12;
  static constexpr int kRepeat = 4;
  static constexpr int kQualityRounds = 8;
  static constexpr int kEpisodeRounds = 100;
  static constexpr int kFlipStatements = 4;
  static constexpr uint64_t kFlipBit = 1ull << 63;

  explicit ChurnWorkload(uint64_t seed) : seed_(seed) {}

  catalog::Catalog BuildCatalog() const override {
    return catalog::BuildTpchCatalog(100.0);
  }
  server::PlanningServiceOptions ServiceOptions() const override {
    return CachedService();
  }
  bool durable() const override { return true; }

  std::vector<uint64_t> Round(int conn, int round) const override {
    std::vector<uint64_t> keys;
    for (int slot = 0; slot < kNew; ++slot) {
      keys.push_back(NewKey(conn, round, slot));
    }
    for (int i = 0; i < kRepeat; ++i) {
      // The previous round's statement of a rotating slot; round 0
      // repeats its own first statements.
      keys.push_back(round == 0
                         ? NewKey(conn, 0, i)
                         : NewKey(conn, round - 1, i * 3 + round % 3));
    }
    if (conn == 0) {
      const int statement = round % kFlipStatements;
      keys.push_back(FlipKey(statement, /*flipped=*/false));
      keys.push_back(FlipKey(statement, /*flipped=*/true));
    }
    return keys;
  }

  server::PlanRequest Make(uint64_t key) const override {
    if (key & kFlipBit) {
      const int statement = static_cast<int>((key >> 1) & 0xff);
      const bool flipped = key & 1;
      return SqlRequest(FlipSql(statement),
                        flipped ? 1.0 - FirstWeight(statement)
                                : FirstWeight(statement));
    }
    const int round = static_cast<int>(key >> 16);
    const int conn = static_cast<int>((key >> 8) & 0xff);
    const int slot = static_cast<int>(key & 0xff);
    const Shape& shape =
        TpchShapes()[static_cast<size_t>(slot + 5 * conn + round) %
                     TpchShapes().size()];
    return SqlRequest(
        SeededTpchSql(shape, Mix(seed_, key, 0xC4)),
        slot % 4 == 3 ? 0.0 : 1.0);
  }

  std::vector<uint64_t> WarmupKeys() const override {
    std::vector<uint64_t> keys;
    for (int s = 0; s < kFlipStatements; ++s) {
      keys.push_back(FlipKey(s, false));
    }
    return keys;
  }
  std::vector<uint64_t> QualityKeys() const override {
    std::vector<uint64_t> keys;
    for (int round = 0; round < kQualityRounds; ++round) {
      for (int conn = 0; conn < kConnections; ++conn) {
        for (int slot = 0; slot < kNew; ++slot) {
          keys.push_back(NewKey(conn, round, slot));
        }
      }
    }
    return keys;
  }
  std::vector<uint64_t> PrecomputedKeys() const override {
    std::vector<uint64_t> keys;
    for (int round = 0; round < kEpisodeRounds; ++round) {
      for (int conn = 0; conn < kConnections; ++conn) {
        for (int slot = 0; slot < kNew; ++slot) {
          keys.push_back(NewKey(conn, round, slot));
        }
      }
    }
    for (int s = 0; s < kFlipStatements; ++s) {
      keys.push_back(FlipKey(s, false));
      keys.push_back(FlipKey(s, true));
    }
    return keys;
  }
  // Each compaction snapshots the whole cache, so the cost of journaling
  // grows with every insert; episodes on fresh servers keep the state
  // each measurement sees the same.
  int episode_rounds() const override { return kEpisodeRounds; }
  int replay_rounds() const override { return 2; }

 private:
  static uint64_t NewKey(int conn, int round, int slot) {
    return (static_cast<uint64_t>(round) << 16) |
           (static_cast<uint64_t>(conn) << 8) | static_cast<uint64_t>(slot);
  }
  static uint64_t FlipKey(int statement, bool flipped) {
    return kFlipBit | (static_cast<uint64_t>(statement) << 1) |
           (flipped ? 1u : 0u);
  }
  /// The fixed statements of the objective flip: they do not depend on
  /// the seed, and no other request shares their filter constants.
  static std::string FlipSql(int statement) {
    const Shape& shape = TpchShapes()[statement < 2 ? 1 : 4];
    return TpchSql(shape, 1000.25 + 100.0 * statement,
                   1200.75 + 100.0 * statement);
  }
  static double FirstWeight(int statement) {
    return statement % 2 == 0 ? 0.0 : 1.0;
  }

  uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "cold") return std::make_unique<ColdWorkload>(seed);
  if (name == "warm") return std::make_unique<WarmWorkload>(seed);
  if (name == "churn") return std::make_unique<ChurnWorkload>(seed);
  return nullptr;
}

}  // namespace planbench
