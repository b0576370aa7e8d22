// Planning-server benchmark: shared declarations.
//
// A workload is a catalog, a server configuration and a request schedule:
// the request every closed-loop connection sends at every position of
// every round. Requests are named by 64-bit keys; two schedule slots with
// the same key send the same request and must get the same answer. See
// README.md for the workloads, metrics and checks.

#ifndef PLANBENCH_PLANBENCH_H_
#define PLANBENCH_PLANBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "cost/cost_model.h"
#include "server/server.h"
#include "server/service.h"

namespace planbench {

using namespace raqo;

/// Closed-loop client connections of the timed phase.
inline constexpr int kConnections = 4;
/// Fixed server sizing (never derived from the host's core count).
inline constexpr int kReactors = 1;
inline constexpr size_t kCacheShards = 8;
/// Group-commit granularity of durable servers: one journal fsync per
/// this many bytes (the server's default is 64 KiB).
inline constexpr size_t kGroupCommitBytes = 1 << 20;

/// A workload's schedule and configuration.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual catalog::Catalog BuildCatalog() const = 0;
  virtual server::PlanningServiceOptions ServiceOptions() const = 0;
  /// CPUs the whole process (server and clients) is pinned to. On the
  /// reference host the hypervisor throttled back-to-back runs that kept
  /// several vCPUs busy: after some minutes of two-CPU runs, steal time
  /// in /proc/stat rose to ~3.6 s per 13 s run and warm's throughput
  /// swung between 7k and 16k req/s from run to run, while one-CPU runs
  /// alternated with them saw ~0.6 s of steal and stayed within ~10% of
  /// each other.
  virtual int cpus() const { return 1; }
  /// Planner worker threads of the server.
  virtual int workers() const { return 4; }
  /// Durable workloads run the server with a persist_dir, the default
  /// group-commit fsync policy with kGroupCommitBytes groups, and the
  /// default compaction threshold.
  virtual bool durable() const { return false; }

  /// Keys of the requests connection `conn` sends in round `round`, in
  /// order. Every round of a connection has the same length and the same
  /// make-up, so a run of whole rounds always attempts the same mix.
  virtual std::vector<uint64_t> Round(int conn, int round) const = 0;
  /// The request a key names (the id is left empty).
  virtual server::PlanRequest Make(uint64_t key) const = 0;

  /// Sent once per set-up, before the timed phase, spread over
  /// kConnections connections. The keys must be distinct.
  virtual std::vector<uint64_t> WarmupKeys() const = 0;

  /// The distinct requests whose returned plans define plan_seconds
  /// (time_weight 1) and plan_dollars (time_weight 0).
  virtual std::vector<uint64_t> QualityKeys() const = 0;
  /// Keys whose oracle is computed before the timed phase.
  virtual std::vector<uint64_t> PrecomputedKeys() const = 0;
  /// When non-zero, the timed phase runs episodes of this many rounds,
  /// each on a fresh server, and reports medians over episodes; else it
  /// runs for the run's length and reports medians over time windows. A
  /// workload whose server state grows with every request needs
  /// episodes: windows of one long run would each see a different state.
  /// Episodes must cover the quality keys.
  virtual int episode_rounds() const { return 0; }
  /// Length of the time windows of a phase without episodes. On the
  /// reference host warm's throughput in quarter-second windows moved
  /// between 8k and 17k req/s within one run, in spells of a few seconds
  /// (while a register-only loop held its speed within 3%), so many short
  /// windows give the median the most independent looks at the host.
  virtual double window_seconds() const { return 0.25; }
  /// Rounds of every connection replayed on one connection by the
  /// traced run.
  virtual int replay_rounds() const { return 1; }
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

/// Everything the program returns for one plan request that the
/// correctness oracle compares: the plan, its cost and the per-join
/// resources. Timings and stats are excluded.
struct Answer {
  std::string plan;
  cost::CostVector cost;
  std::vector<resource::ResourceConfig> join_resources;
};
uint64_t Digest(const Answer& answer);
Answer AnswerOf(const server::PlanResponse& response);

/// The oracle's verdict for one request.
struct Expected {
  uint64_t digest = 0;
  Answer answer;
  /// False when an exact-search request's plan could be re-planned to a
  /// cheaper cost by PlanResourcesForPlan under the exhaustive search.
  bool optimal = true;
  /// False when the direct planner call itself failed.
  bool ok = true;
};

/// Knobs of a request applied to the service's base options, as the
/// planning service applies them (search, use_cache, time_weight).
core::RaqoPlannerOptions ResolveOptions(
    const server::PlanningServiceOptions& service,
    const server::PlanRequest& request);

/// Resolves the request's query against `catalog` as the service does:
/// SQL through the parser (filters scale `*filtered`, which then becomes
/// the planning catalog), or catalog table names.
Status ResolveQuery(const catalog::Catalog& catalog,
                    const server::PlanRequest& request,
                    catalog::Catalog* filtered,
                    const catalog::Catalog** planning_catalog,
                    std::vector<catalog::TableId>* tables);

/// Computes oracles for `keys` not yet in `*oracles` with fresh direct
/// RaqoPlanner calls (no shared cache), on `threads` threads.
void ComputeOracles(const Workload& workload, const catalog::Catalog& catalog,
                    const cost::JoinCostModels& models,
                    const std::vector<uint64_t>& keys, int threads,
                    std::unordered_map<uint64_t, Expected>* oracles);

/// Per-layer numbers of the traced run, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Replays `sequence` (after `warmup`) in-process through the layers'
/// public functions and returns the timing metrics of each layer, plus
/// the total CostJoin calls as "cost.cost_joins". `scratch_dir` receives
/// the replayed journal; `*codec_us` the codec time per key spent outside
/// the server's request span (request encoding, response encoding and
/// decoding), the fastest of several executions.
LayerMetrics ReplayLayers(const Workload& workload,
                          const catalog::Catalog& catalog,
                          const cost::JoinCostModels& models,
                          const std::vector<uint64_t>& warmup,
                          const std::vector<uint64_t>& sequence,
                          const std::string& scratch_dir,
                          std::unordered_map<uint64_t, double>* codec_us);

}  // namespace planbench

#endif  // PLANBENCH_PLANBENCH_H_
