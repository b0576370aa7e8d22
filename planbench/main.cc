// Planning-server benchmark program (README.md).
//
//   planbench --workload cold|warm|churn --seed N --seconds S --trace 0|1
//             --out DIR --data DIR
//
// --trace 0: set-up (timed, several times), the timed closed-loop phase
// against an in-process server on loopback, the correctness checks, and
// the end-to-end metrics. --trace 1: the per-layer metrics from the
// in-process layer replay, an untraced and a traced loopback phase, the
// span nesting checks and the one-connection count determinism check.
// The last line of standard output is the result object.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/json.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planbench.h"
#include "server/client.h"
#include "sim/profile_runner.h"

namespace planbench {
namespace {

// A --trace 0 run sets up at least kMinSetups times and for at least
// kMinSetupSeconds; setup_s is the median. Warm and churn set up in a few
// milliseconds, so a handful of set-ups, or set-ups crowded into a
// second or two, would report the host's momentary speed rather than the
// set-up.
constexpr int kMinSetups = 5;
constexpr double kMinSetupSeconds = 4.0;
// A time-bounded phase is cut into equal windows of about the workload's
// window_seconds(), and at least this many; throughput and latency
// figures are medians over the windows, so a disturbance of the host that
// lasts a few seconds moves at most a minority of them.
constexpr int kMinWindows = 5;
// Fewest episodes of an episodic phase (see Workload::episode_rounds).
constexpr int kMinEpisodes = 3;
// Longest request sequence the traced run replays and counts.
constexpr size_t kReplayRequests = 192;
// Tolerance of every nesting and stage comparison of the traced run: span
// timestamps and the server's queue-wait stopwatch read the same steady
// clock at slightly different instants.
constexpr double kToleranceUs = 5.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string data_dir = ".";
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "planbench: %s\n", message.c_str());
  std::exit(1);
}

/// Percentile `p` (0-100) of `v`; 0 for an empty segment.
double Pct(std::vector<double> v, double p) {
  return v.empty() ? 0.0 : Percentile(std::move(v), p);
}

/// The latency_p99_us quantile: 0.99, lowered until at least ten samples
/// lie beyond it.
double TailQuantile(size_t samples) {
  if (samples == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(samples), 0.5, 0.99);
}

std::string JoinNumbers(const std::vector<double>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrPrintf("%.1f", values[i]);
  }
  return out;
}

// ---------------------------------------------------------------------
// Deployment: catalog, trained models, service and running server.

struct Deployment {
  std::unique_ptr<catalog::Catalog> catalog;
  std::unique_ptr<cost::JoinCostModels> models;
  std::unique_ptr<server::PlanningService> service;
  std::unique_ptr<server::PlanningServer> server;
  server::ServerOptions server_options;

  ~Deployment() { Stop(); }
  void Stop() {
    if (server != nullptr) {
      server->Shutdown();
      server->Wait();
      server.reset();
    }
  }
};

server::PlanningClient Connect(uint16_t port) {
  Result<server::PlanningClient> client =
      server::PlanningClient::Connect("127.0.0.1", port);
  if (!client.ok()) Die("connect: " + client.status().ToString());
  return *std::move(client);
}

/// Sends `keys` in order on one connection; every response must be OK.
void SendAll(const Workload& workload, uint16_t port,
             const std::vector<uint64_t>& keys) {
  server::PlanningClient client = Connect(port);
  for (uint64_t key : keys) {
    server::PlanRequest request = workload.Make(key);
    request.id = StrPrintf("w%llu", static_cast<unsigned long long>(key));
    Result<server::PlanResponse> response = client.Call(request);
    if (!response.ok() || !response->ok()) {
      Die("warm-up request failed: " +
          (response.ok() ? response->error : response.status().ToString()));
    }
  }
}

/// Sends the warm-up keys spread over kConnections connections. The
/// warm-up requests of a workload are distinct, so the cache they leave
/// does not depend on their order.
void WarmUp(const Workload& workload, uint16_t port) {
  const std::vector<uint64_t> warmup = workload.WarmupKeys();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      std::vector<uint64_t> mine;
      for (size_t i = c; i < warmup.size(); i += kConnections) {
        mine.push_back(warmup[i]);
      }
      SendAll(workload, port, mine);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Starts a server with a fresh service on `d`'s catalog and models,
/// recovering the data directory when durable.
void StartServer(const Workload& workload, Deployment& d) {
  d.service = std::make_unique<server::PlanningService>(
      d.catalog.get(), *d.models, resource::ClusterConditions::PaperDefault(),
      resource::PricingModel(), workload.ServiceOptions());
  d.server = std::make_unique<server::PlanningServer>(d.service.get(),
                                                      d.server_options);
  if (Status started = d.server->Start(); !started.ok()) {
    Die("server start: " + started.ToString());
  }
}

/// Builds the catalog, trains the cost models from the simulator, starts
/// the server and runs the warm-up. `data_dir` must not exist.
std::unique_ptr<Deployment> SetUp(const Workload& workload,
                                  const std::string& data_dir) {
  auto d = std::make_unique<Deployment>();
  d->catalog = std::make_unique<catalog::Catalog>(workload.BuildCatalog());
  Result<cost::JoinCostModels> models =
      sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());
  if (!models.ok()) Die(models.status().ToString());
  d->models = std::make_unique<cost::JoinCostModels>(*std::move(models));
  d->server_options.port = 0;
  d->server_options.num_reactors = kReactors;
  d->server_options.num_workers = workload.workers();
  d->server_options.max_connections = 64;
  if (workload.durable()) {
    d->server_options.persist_dir = data_dir;
    // With 64 KiB groups a churn episode made ~100 fsyncs, each holding
    // the journal mutex every inserting worker waits on; throughput then
    // followed the host's fsync latency and varied by a quarter between
    // runs. One fsync per MiB keeps group commit and its fsyncs.
    d->server_options.persist_group_commit_bytes = kGroupCommitBytes;
  }
  StartServer(workload, *d);
  WarmUp(workload, d->server->port());
  return d;
}

/// Replaces `d`'s server with a fresh, warmed one on an empty data
/// directory (the start of an episode).
void Renew(const Workload& workload, Deployment& d) {
  d.Stop();
  d.service.reset();
  std::filesystem::remove_all(d.server_options.persist_dir);
  StartServer(workload, d);
  WarmUp(workload, d.server->port());
}

// ---------------------------------------------------------------------
// The closed loop.

struct LoadResult {
  /// (key, digest of the answer; 0 when the request failed), per request.
  std::vector<std::pair<uint64_t, uint64_t>> answers;
  /// (completion time since the loop started in s, round trip in us) of
  /// every successful request.
  std::vector<std::pair<double, double>> samples;
  int64_t ok = 0;
  int rounds = 0;
  double elapsed_s = 0.0;
  double queue_wait_us_sum = 0.0;
  double wire_us_sum = 0.0;
  /// Returned cost of each quality key (first response).
  std::unordered_map<uint64_t, cost::CostVector> quality;
  /// Request id -> key of every call, recorded when calls are traced.
  std::unordered_map<std::string, uint64_t> call_keys;

  void Merge(LoadResult&& other) {
    answers.insert(answers.end(), other.answers.begin(), other.answers.end());
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    ok += other.ok;
    rounds += other.rounds;
    elapsed_s += other.elapsed_s;
    queue_wait_us_sum += other.queue_wait_us_sum;
    wire_us_sum += other.wire_us_sum;
    quality.insert(other.quality.begin(), other.quality.end());
    call_keys.insert(other.call_keys.begin(), other.call_keys.end());
  }
};

/// kConnections closed-loop clients send whole rounds: exactly `rounds`
/// of them when `rounds` > 0, else until `seconds` have passed (every
/// connection then finishes the round the furthest one is in).
/// `id_prefix` makes request ids unique across loops of one run.
LoadResult RunLoop(const Workload& workload, uint16_t port, double seconds,
                   int rounds, bool trace_calls,
                   const std::string& id_prefix) {
  const std::vector<uint64_t> quality_keys = workload.QualityKeys();
  const std::unordered_set<uint64_t> quality(quality_keys.begin(),
                                             quality_keys.end());
  std::mutex mu;
  int target_rounds = rounds > 0 ? rounds : INT_MAX;
  std::vector<int> current_round(kConnections, 0);
  std::vector<LoadResult> per_conn(kConnections);

  LoadResult total;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& mine = per_conn[c];
      server::PlanningClient client = Connect(port);
      for (int round = 0;; ++round) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (round >= target_rounds) break;
          current_round[c] = round;
        }
        const std::vector<uint64_t> keys = workload.Round(c, round);
        for (size_t pos = 0; pos < keys.size(); ++pos) {
          server::PlanRequest request = workload.Make(keys[pos]);
          request.id = StrPrintf("%sc%d.%d.%zu", id_prefix.c_str(), c, round,
                                 pos);
          obs::Span span;
          if (trace_calls) {
            span = obs::DefaultTracer().StartSpan("bench.call");
            span.SetAttr("id", request.id);
            mine.call_keys.emplace(request.id, keys[pos]);
          }
          const auto t0 = std::chrono::steady_clock::now();
          Result<server::PlanResponse> response = client.Call(request);
          const double us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          span.End();
          if (!response.ok() || !response->ok()) {
            mine.answers.emplace_back(keys[pos], 0);
            continue;
          }
          ++mine.ok;
          mine.samples.emplace_back(
              std::chrono::duration<double>(t0 - start).count() + 1e-6 * us,
              us);
          mine.answers.emplace_back(keys[pos], Digest(AnswerOf(*response)));
          mine.queue_wait_us_sum += response->queue_wait_us;
          mine.wire_us_sum += us - response->queue_wait_us -
                              1000.0 * response->stats.wall_ms;
          if (quality.count(keys[pos]) != 0) {
            mine.quality.emplace(keys[pos], response->cost);
          }
        }
      }
    });
  }
  if (rounds == 0) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::duration<double>(seconds)));
    std::lock_guard<std::mutex> lock(mu);
    target_rounds =
        *std::max_element(current_round.begin(), current_round.end()) + 1;
  }
  for (std::thread& t : threads) t.join();
  for (LoadResult& r : per_conn) total.Merge(std::move(r));
  total.rounds = target_rounds;
  total.elapsed_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return total;
}

/// End-to-end timings of a phase: medians over its segments (time
/// windows, or episodes).
struct Timings {
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Quantile reported as p99, and the fewest samples in a segment.
  double tail_quantile = 0.0;
  size_t segment_samples = 0;
  std::vector<double> segment_rps;
};

/// `segments` holds each segment's round trips; `durations` its length.
Timings SegmentTimings(const std::vector<std::vector<double>>& segments,
                       const std::vector<double>& durations) {
  Timings timings;
  timings.segment_samples = SIZE_MAX;
  for (const std::vector<double>& s : segments) {
    timings.segment_samples = std::min(timings.segment_samples, s.size());
  }
  timings.tail_quantile = TailQuantile(timings.segment_samples);
  std::vector<double> p50, p99;
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::vector<double>& s = segments[i];
    timings.segment_rps.push_back(static_cast<double>(s.size()) /
                                  durations[i]);
    p50.push_back(Pct(s, 50.0));
    p99.push_back(Pct(s, 100.0 * timings.tail_quantile));
  }
  timings.throughput_rps = Pct(timings.segment_rps, 50.0);
  timings.p50_us = Pct(p50, 50.0);
  timings.p99_us = Pct(p99, 50.0);
  return timings;
}

struct Phase {
  LoadResult load;
  Timings timings;
  /// Compactions of the durable cache per segment.
  double compactions = 0.0;
};

/// The timed phase against `d`. A workload with episode_rounds() runs
/// episodes of that many rounds, each on a fresh server, until `seconds`
/// have passed and at least kMinEpisodes ran; the others run one loop of
/// `seconds`, cut into windows. The first episode uses `d`'s
/// server as set up.
Phase RunPhase(const Workload& workload, Deployment& d, double seconds,
               bool trace_calls) {
  Phase phase;
  std::vector<std::vector<double>> segments;
  std::vector<double> durations;
  int64_t compactions = 0;
  if (workload.episode_rounds() == 0) {
    phase.load = RunLoop(workload, d.server->port(), seconds, 0, trace_calls,
                         "");
    const int windows = std::max(
        kMinWindows,
        static_cast<int>(std::lround(seconds / workload.window_seconds())));
    const double width = seconds / windows;
    segments.resize(windows);
    durations.assign(windows, width);
    for (const auto& [t, us] : phase.load.samples) {
      const int w = static_cast<int>(t / width);
      if (w < windows) segments[w].push_back(us);
    }
  } else {
    const Stopwatch watch;
    for (int episode = 0;
         episode < kMinEpisodes || watch.ElapsedSeconds() < seconds;
         ++episode) {
      if (episode > 0) Renew(workload, d);
      LoadResult load =
          RunLoop(workload, d.server->port(), 0.0, workload.episode_rounds(),
                  trace_calls, StrPrintf("e%d.", episode));
      if (d.server->persistence() != nullptr) {
        compactions += d.server->persistence()->compactions();
      }
      segments.emplace_back();
      for (const auto& sample : load.samples) {
        segments.back().push_back(sample.second);
      }
      durations.push_back(load.elapsed_s);
      if (episode > 0) load.quality.clear();  // keep the first episode's
      phase.load.Merge(std::move(load));
    }
  }
  phase.timings = SegmentTimings(segments, durations);
  phase.compactions = static_cast<double>(compactions) /
                      static_cast<double>(durations.size());
  return phase;
}

/// Failed operations of a phase: errors, answers that differ from the
/// oracle, and exact-search answers that fail the optimality check.
int64_t CountFailures(const Workload& workload, const Deployment& d,
                      const LoadResult& load,
                      std::unordered_map<uint64_t, Expected>* oracles) {
  std::vector<uint64_t> keys;
  for (const auto& [key, digest] : load.answers) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  ComputeOracles(workload, *d.catalog, *d.models, keys, kConnections,
                 oracles);
  int64_t failed = 0;
  for (const auto& [key, digest] : load.answers) {
    const Expected& expected = oracles->at(key);
    if (digest == 0 || !expected.ok || !expected.optimal ||
        digest != expected.digest) {
      ++failed;
    }
  }
  return failed;
}

// ---------------------------------------------------------------------
// Restart of a durable deployment on its own data directory.

struct RestartResult {
  bool dumps_equal = true;
  double restart_ms = 0.0;
  int64_t recovered_entries = 0;
};

bool SameEntries(const std::vector<core::CacheEntryRecord>& a,
                 const std::vector<core::CacheEntryRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const core::CachedResourcePlan& x = a[i].plan;
    const core::CachedResourcePlan& y = b[i].plan;
    if (a[i].model != b[i].model || x.key_gb != y.key_gb ||
        x.smaller_gb != y.smaller_gb || x.larger_gb != y.larger_gb ||
        !(x.config == y.config) || x.cost != y.cost) {
      return false;
    }
  }
  return true;
}

/// Shuts the server down, restarts it on the same data directory, and
/// compares the recovered cache with the one before shutdown.
RestartResult Restart(const Workload& workload, Deployment& d) {
  RestartResult result;
  const std::vector<core::CacheEntryRecord> before =
      d.service->shared_cache()->DumpEntries();
  d.Stop();
  d.service.reset();
  const Stopwatch watch;
  StartServer(workload, d);
  result.restart_ms = watch.ElapsedMillis();
  const persist::RecoveryStats recovery =
      d.server->persistence()->recovery_stats();
  result.recovered_entries =
      recovery.snapshot_entries + recovery.journal_records;
  result.dumps_equal =
      SameEntries(before, d.service->shared_cache()->DumpEntries());
  return result;
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = StrPrintf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += StrPrintf("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      metrics[i].name.c_str(),
                      JsonNumber(metrics[i].value).c_str(),
                      metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintRunInfo(const Args& args, const Workload& workload,
                  const std::string& extra) {
  std::printf(
      "{\"planbench\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d, \"nproc\": %u, \"cpus_used\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\"%s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      workload.cpus(),
      PLANBENCH_BUILD_TYPE, PLANBENCH_COMPILER, extra.c_str());
}

/// Restricts the process, before it starts any thread, to the first
/// `cpus` CPUs it may run on.
void PinCpus(int cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Die("sched_getaffinity failed");
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < cpus; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++n;
    }
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    Die("sched_setaffinity failed");
  }
}

/// Refuses sanitizer and unoptimised builds: their numbers say nothing
/// about the program.
void RunGuard() {
  bool refused = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  refused = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  refused = true;
#endif
#endif
#if !defined(__OPTIMIZE__)
  refused = true;
#endif
  if (std::strcmp(PLANBENCH_BUILD_TYPE, "Debug") == 0) refused = true;
  if (refused) {
    std::fprintf(stderr,
                 "planbench: refusing to report from a sanitizer or "
                 "unoptimised build (build type '%s')\n",
                 PLANBENCH_BUILD_TYPE);
    std::exit(3);
  }
}

// ---------------------------------------------------------------------
// --trace 0

int RunTimed(const Args& args, const Workload& workload) {
  const std::string data_dir = args.data_dir + "/" + args.workload;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  double setup_total_s = 0.0;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         setup_total_s < kMinSetupSeconds) {
    d.reset();
    std::filesystem::remove_all(data_dir);
    const Stopwatch watch;
    d = SetUp(workload, data_dir);
    setup_s.push_back(watch.ElapsedSeconds());
    setup_total_s += setup_s.back();
  }

  std::unordered_map<uint64_t, Expected> oracles;
  ComputeOracles(workload, *d->catalog, *d->models,
                 workload.PrecomputedKeys(), kConnections, &oracles);

  const Phase phase = RunPhase(workload, *d, args.seconds, false);
  const LoadResult& load = phase.load;
  const Timings& timings = phase.timings;

  bool correct = load.ok > 0;
  std::string extra;
  if (workload.durable()) {
    const RestartResult restart = Restart(workload, *d);
    correct = correct && restart.dumps_equal;
    extra += StrPrintf(", \"restart_ms\": %s, \"recovered_entries\": %lld, "
                       "\"restart_dump_equal\": %s",
                       JsonNumber(restart.restart_ms).c_str(),
                       static_cast<long long>(restart.recovered_entries),
                       restart.dumps_equal ? "true" : "false");
  }
  d->Stop();
  const int64_t failed = CountFailures(workload, *d, load, &oracles);

  double plan_seconds = 0.0;
  double plan_dollars = 0.0;
  for (uint64_t key : workload.QualityKeys()) {
    auto it = load.quality.find(key);
    if (it == load.quality.end()) {
      correct = false;  // a quality request never came back
      continue;
    }
    const server::PlanRequest request = workload.Make(key);
    if (request.time_weight == 1.0) plan_seconds += it->second.seconds;
    if (request.time_weight == 0.0) plan_dollars += it->second.dollars;
  }

  extra += StrPrintf(
      ", \"setups\": %zu, \"rounds\": %d, \"latency_samples\": %zu, "
      "\"segments\": %zu, "
      "\"segment_samples_min\": %zu, \"p99_quantile\": %s, "
      "\"latency_p99_us\": %s, \"segment_rps\": [%s]",
      setup_s.size(), load.rounds, load.samples.size(),
      timings.segment_rps.size(),
      timings.segment_samples, JsonNumber(timings.tail_quantile).c_str(),
      JsonNumber(timings.p99_us).c_str(),
      JoinNumbers(timings.segment_rps).c_str());
  PrintRunInfo(args, workload, extra);

  PrintResult(correct, static_cast<int64_t>(load.answers.size()), failed,
              {
                  {"setup_s", Pct(setup_s, 50.0), "s"},
                  {"throughput_rps", timings.throughput_rps, "req/s"},
                  {"latency_p50_us", timings.p50_us, "us"},
                  {"plan_seconds", plan_seconds, "s"},
                  {"plan_dollars", plan_dollars, "USD"},
              });
  return 0;
}

// ---------------------------------------------------------------------
// --trace 1

/// Span checks of the traced phase (README.md, "Traced run").
struct NestingReport {
  /// Calls whose stages were checked against their round trip.
  int64_t calls_checked = 0;
  /// Sums over the checked calls of the measured stages and of the round
  /// trips, and the smallest unmeasured remainder of a call.
  double stages_us = 0.0;
  double round_trips_us = 0.0;
  double min_rest_us = INFINITY;
  int64_t violations = 0;
  std::string first_violation;
  void Violation(const std::string& what) {
    if (violations++ == 0) first_violation = what;
  }
};

std::string AttrValue(const obs::FinishedSpan& span, const char* key) {
  for (const obs::SpanAttr& attr : span.attrs) {
    if (attr.key == key) return attr.value;
  }
  return "";
}

NestingReport CheckNesting(
    const std::vector<obs::FinishedSpan>& spans,
    const std::unordered_map<std::string, uint64_t>& call_keys,
    const std::unordered_map<uint64_t, double>& codec_us) {
  NestingReport report;
  std::unordered_map<uint64_t, const obs::FinishedSpan*> by_id;
  std::unordered_map<std::string, const obs::FinishedSpan*> calls, requests;
  for (const obs::FinishedSpan& span : spans) {
    by_id[span.id] = &span;
    if (span.name == "bench.call") calls[AttrValue(span, "id")] = &span;
    if (span.name == "server.request") {
      requests[AttrValue(span, "id")] = &span;
    }
  }
  auto inside = [](const obs::FinishedSpan& inner,
                   const obs::FinishedSpan& outer) {
    return inner.start_us + kToleranceUs >= outer.start_us &&
           inner.start_us + inner.dur_us <=
               outer.start_us + outer.dur_us + kToleranceUs;
  };
  // Decode + Handle within the call. The stages of a call measured apart
  // from its span -- the codec work outside the server (replayed for the
  // same request), the queue wait (the server's own stopwatch) and the
  // server.request span -- must fit within its round trip; what remains
  // is the loopback path and the hand-offs between threads, which no
  // public function measures on its own.
  for (const auto& [id, call] : calls) {
    auto it = requests.find(id);
    if (it == requests.end()) continue;
    const obs::FinishedSpan& request = *it->second;
    if (!inside(request, *call)) {
      report.Violation("server.request outside bench.call " + id);
    }
    const double queue_wait =
        std::atof(AttrValue(request, "queue_wait_us").c_str());
    if (queue_wait < 0.0 ||
        request.start_us - queue_wait + kToleranceUs < call->start_us) {
      report.Violation("queue wait of " + id + " starts before its call");
    }
    auto key = call_keys.find(id);
    auto codec = key == call_keys.end() ? codec_us.end()
                                        : codec_us.find(key->second);
    if (codec == codec_us.end()) continue;
    ++report.calls_checked;
    const double stages = codec->second + queue_wait + request.dur_us;
    const double rest = call->dur_us - stages;
    if (rest < -kToleranceUs) {
      report.Violation(StrPrintf(
          "stages of %s (codec %.1f + queue %.1f + request %.1f us) exceed "
          "its round trip (%.1f us)",
          id.c_str(), codec->second, queue_wait, request.dur_us,
          call->dur_us));
    }
    report.stages_us += stages;
    report.round_trips_us += call->dur_us;
    report.min_rest_us = std::min(report.min_rest_us, rest);
  }
  // Plan within Handle; enumeration, searches and lookups within Plan.
  for (const obs::FinishedSpan& span : spans) {
    auto parent = by_id.find(span.parent_id);
    if (parent == by_id.end()) continue;
    const bool plan_in_request = span.name == "planner.query" &&
                                 parent->second->name == "server.request";
    const bool below_plan = span.name.rfind("planner.resource", 0) == 0 ||
                            span.name == "cache.lookup" ||
                            span.name == "planner.selinger";
    if ((plan_in_request || below_plan) && !inside(span, *parent->second)) {
      report.Violation(span.name + " outside " + parent->second->name);
    }
  }
  return report;
}

/// Per-span-name self time (duration minus children), as a table.
std::string SelfTimeTable(const std::vector<obs::FinishedSpan>& spans) {
  std::unordered_map<uint64_t, double> child_us;
  for (const obs::FinishedSpan& span : spans) {
    if (span.parent_id != 0) child_us[span.parent_id] += span.dur_us;
  }
  std::map<std::string, std::pair<int64_t, double>> by_name;
  for (const obs::FinishedSpan& span : spans) {
    auto& [count, self] = by_name[span.name];
    ++count;
    self += span.dur_us - child_us[span.id];
  }
  std::string table = StrPrintf("%-28s %10s %14s %12s\n", "span", "count",
                                "self_us", "self_us/span");
  for (const auto& [name, entry] : by_name) {
    table += StrPrintf("%-28s %10lld %14.1f %12.2f\n", name.c_str(),
                       static_cast<long long>(entry.first), entry.second,
                       entry.second / static_cast<double>(entry.first));
  }
  return table;
}

/// Counts of one single-connection pass; they must repeat exactly.
struct Counts {
  std::vector<std::pair<std::string, int64_t>> values;
  int64_t Get(const std::string& name) const {
    for (const auto& [n, v] : values) {
      if (n == name) return v;
    }
    return 0;
  }
};

Counts CountSingleConnection(const Workload& workload,
                             const std::vector<uint64_t>& sequence,
                             const std::string& data_dir) {
  std::filesystem::remove_all(data_dir);
  std::unique_ptr<Deployment> d = SetUp(workload, data_dir);
  const int64_t entries_before = d->service->shared_cache()->entry_count();
  const core::CacheStats cache_before = d->service->shared_cache_stats();
  obs::MetricsRegistry& metrics = obs::DefaultMetrics();
  metrics.ResetAll();
  int64_t plans_considered = 0;
  int64_t configs_explored = 0;
  int64_t errors = 0;
  {
    server::PlanningClient client = Connect(d->server->port());
    for (uint64_t key : sequence) {
      Result<server::PlanResponse> response = client.Call(workload.Make(key));
      if (!response.ok() || !response->ok()) {
        ++errors;
        continue;
      }
      plans_considered += response->stats.plans_considered;
      configs_explored += response->stats.resource_configs_explored;
    }
  }
  const core::CacheStats cache_after = d->service->shared_cache_stats();
  Counts counts;
  counts.values = {
      {"errors", errors},
      {"plans_considered", plans_considered},
      {"configs_explored", configs_explored},
      {"cache.hits", cache_after.hits - cache_before.hits},
      {"cache.misses", cache_after.misses - cache_before.misses},
      {"cache.new_entries",
       d->service->shared_cache()->entry_count() - entries_before},
  };
  for (const char* name :
       {"planner.resource.searches", "planner.resource.configs_explored",
        "planner.resource.cells_pruned", "cache.lookup.hit",
        "cache.lookup.miss", "persist.journal.appends",
        "persist.compactions"}) {
    counts.values.emplace_back(name, metrics.GetCounter(name)->Value());
  }
  d.reset();
  std::filesystem::remove_all(data_dir);
  return counts;
}

int RunTraced(const Args& args, const Workload& workload) {
  const std::string data_dir = args.data_dir + "/" + args.workload;
  std::filesystem::create_directories(args.out_dir);
  bool correct = true;
  std::vector<std::string> problems;

  // The request sequence replayed on one connection: every connection's
  // first rounds, one connection after another, cut at kReplayRequests.
  std::vector<uint64_t> sequence;
  for (int round = 0; round < workload.replay_rounds(); ++round) {
    for (int c = 0; c < kConnections; ++c) {
      const std::vector<uint64_t> keys = workload.Round(c, round);
      sequence.insert(sequence.end(), keys.begin(), keys.end());
    }
  }
  if (sequence.size() > kReplayRequests) sequence.resize(kReplayRequests);
  const double n = static_cast<double>(sequence.size());

  // 1. In-process layer replay.
  std::filesystem::remove_all(data_dir);
  std::unique_ptr<Deployment> d = SetUp(workload, data_dir);
  std::unordered_map<uint64_t, double> codec_us;
  LayerMetrics layers = ReplayLayers(workload, *d->catalog, *d->models,
                                     workload.WarmupKeys(), sequence,
                                     args.data_dir + "/replay", &codec_us);
  std::unordered_map<uint64_t, Expected> oracles;
  ComputeOracles(workload, *d->catalog, *d->models,
                 workload.PrecomputedKeys(), kConnections, &oracles);

  // 2. Untraced loopback phase.
  const double phase_s = args.seconds / 2.0;
  const Phase untraced = RunPhase(workload, *d, phase_s, false);
  d.reset();

  // 3. Traced loopback phase on a fresh deployment.
  std::filesystem::remove_all(data_dir);
  d = SetUp(workload, data_dir);
  obs::Tracer& tracer = obs::DefaultTracer();
  tracer.Clear();
  tracer.set_enabled(true);
  const Phase traced = RunPhase(workload, *d, phase_s, true);
  tracer.set_enabled(false);
  const std::vector<obs::FinishedSpan> spans = tracer.Snapshot();
  const int64_t spans_dropped = tracer.dropped();
  tracer.Clear();
  if (workload.durable() && !Restart(workload, *d).dumps_equal) {
    correct = false;
    problems.push_back("restart dump differs");
  }
  d->Stop();
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Phase* phase : {&untraced, &traced}) {
    attempted += static_cast<int64_t>(phase->load.answers.size());
    failed += CountFailures(workload, *d, phase->load, &oracles);
  }

  // Span checks, the Chrome trace and the self-time table.
  const NestingReport nesting =
      CheckNesting(spans, traced.load.call_keys, codec_us);
  if (nesting.calls_checked < 10 || nesting.violations > 0) {
    correct = false;
    problems.push_back(StrPrintf(
        "nesting: %lld calls checked, %lld violations (%s)",
        static_cast<long long>(nesting.calls_checked),
        static_cast<long long>(nesting.violations),
        nesting.first_violation.c_str()));
  }
  const std::string table = SelfTimeTable(spans);
  std::printf("per-layer self time, traced phase (%zu spans):\n%s",
              spans.size(), table.c_str());
  const std::string trace_path =
      args.out_dir + "/trace-" + args.workload + ".json";
  (void)WriteTextFile(trace_path, obs::SpansToChromeTraceJson(spans));
  (void)WriteTextFile(args.out_dir + "/selftime-" + args.workload + ".txt",
                      table);

  // 4. Count determinism: two one-connection passes on fresh servers.
  const Counts first = CountSingleConnection(workload, sequence, data_dir);
  const Counts second = CountSingleConnection(workload, sequence, data_dir);
  for (const auto& [name, value] : first.values) {
    if (second.Get(name) != value) {
      correct = false;
      problems.push_back(StrPrintf("count %s differs: %lld vs %lld",
                                   name.c_str(), static_cast<long long>(value),
                                   static_cast<long long>(second.Get(name))));
    }
  }

  if (layers["check.search_mismatches"] > 0) {
    correct = false;
    problems.push_back(StrPrintf(
        "%.0f replayed resource searches chose other resources than the "
        "served plans",
        layers["check.search_mismatches"]));
  }
  layers.erase("check.search_mismatches");
  const int64_t lookups = first.Get("cache.hits") + first.Get("cache.misses");
  const double untraced_ok = static_cast<double>(untraced.load.ok);
  layers["cost.evals_per_req"] =
      (static_cast<double>(first.Get("planner.resource.configs_explored")) +
       layers["cost.cost_joins"]) /
      n;
  layers.erase("cost.cost_joins");
  layers["search.per_req"] = first.Get("planner.resource.searches") / n;
  layers["search.cells_pruned_per_req"] =
      first.Get("planner.resource.cells_pruned") / n;
  layers["dp.plans_considered_per_req"] = first.Get("plans_considered") / n;
  layers["cache.lookups_per_req"] = static_cast<double>(lookups) / n;
  layers["cache.hit_ratio"] =
      lookups > 0 ? static_cast<double>(first.Get("cache.hits")) /
                        static_cast<double>(lookups)
                  : 0.0;
  layers["cache.inserts_per_req"] = first.Get("cache.new_entries") / n;
  layers["persist.appends_per_req"] =
      first.Get("persist.journal.appends") / n;
  layers["persist.compactions"] = untraced.compactions;
  layers["server.queue_wait_us"] =
      untraced.load.queue_wait_us_sum / untraced_ok;
  layers["server.wire_us"] = untraced.load.wire_us_sum / untraced_ok;
  layers["trace.overhead_pct"] =
      100.0 *
      (untraced.timings.throughput_rps - traced.timings.throughput_rps) /
      untraced.timings.throughput_rps;

  const std::string extra = StrPrintf(
      ", \"sequence\": %zu, \"spans\": %zu, \"spans_dropped\": %lld, "
      "\"calls_checked\": %lld, \"stage_share\": %s, "
      "\"stage_rest_min_us\": %s, \"trace_file\": \"%s\"",
      sequence.size(), spans.size(), static_cast<long long>(spans_dropped),
      static_cast<long long>(nesting.calls_checked),
      JsonNumber(nesting.calls_checked > 0
                     ? nesting.stages_us / nesting.round_trips_us
                     : 0.0)
          .c_str(),
      JsonNumber(nesting.calls_checked > 0 ? nesting.min_rest_us : 0.0)
          .c_str(),
      JsonEscape(trace_path).c_str());
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "planbench: check failed: %s\n", problem.c_str());
  }
  PrintRunInfo(args, workload, extra);

  static const std::vector<std::pair<const char*, const char*>> kUnits = {
      {"cost.evals_per_req", "count"},
      {"cost.eval_ns", "ns"},
      {"search.per_req", "count"},
      {"search.us_per_search", "us"},
      {"search.cells_pruned_per_req", "count"},
      {"dp.plans_considered_per_req", "count"},
      {"dp.self_us_per_req", "us"},
      {"cache.lookups_per_req", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.lookup_us", "us"},
      {"cache.inserts_per_req", "count"},
      {"planner.build_us", "us"},
      {"planner.plan_us", "us"},
      {"service.handle_us", "us"},
      {"codec.us_per_req", "us"},
      {"codec.request_bytes", "bytes"},
      {"codec.response_bytes", "bytes"},
      {"server.queue_wait_us", "us"},
      {"server.wire_us", "us"},
      {"query.parse_us", "us"},
      {"persist.appends_per_req", "count"},
      {"persist.bytes_per_entry", "bytes"},
      {"persist.compactions", "count"},
      {"persist.on_insert_us", "us"},
      {"persist.recovered_entries", "count"},
      {"persist.recovery_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kUnits) {
    auto it = layers.find(name);
    if (it == layers.end()) Die(std::string("missing layer metric ") + name);
    metrics.push_back({name, it->second, unit});
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--data") {
      args.data_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) Die("--seconds must be positive");
  return args;
}

}  // namespace
}  // namespace planbench

int main(int argc, char** argv) {
  using namespace planbench;
  RunGuard();
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) Die("unknown workload '" + args.workload + "'");
  PinCpus(workload->cpus());
  std::filesystem::create_directories(args.data_dir);
  const int status =
      args.trace ? RunTraced(args, *workload) : RunTimed(args, *workload);
  std::filesystem::remove_all(args.data_dir);
  return status;
}
