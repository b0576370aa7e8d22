// Soak test for the serving stack: several client threads hammer a
// multi-reactor server with pipelined mixed-tenant traffic for a few
// wall-clock seconds while a fault injector resets server-side reads at
// random. The invariants under fire:
//
//   - no response id is ever delivered twice (across reconnects too),
//   - every burst that reads cleanly gets back exactly the ids it sent,
//   - the server's books balance: every admitted request is either sent
//     or counted dropped, nothing vanishes,
//   - no protocol errors: injected resets must never shear a frame in a
//     way the server mistakes for client garbage,
//   - the drain still reaches zero connections afterwards.
//
// This binary always builds, but its ctest entry is gated behind
// -DRAQO_SOAK_TESTS=ON (label "soak") so tier-1 stays fast; CI runs it
// under ThreadSanitizer (see .github/workflows/ci.yml and
// docs/SERVER.md).

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "catalog/tpch.h"
#include "common/net.h"
#include "common/strings.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/service.h"
#include "sim/profile_runner.h"

namespace raqo {
namespace {

using server::PlanRequest;
using server::PlanningServer;
using server::PlanningService;
using server::ServerOptions;

constexpr auto kSoakDuration = std::chrono::seconds(8);
constexpr int kClientThreads = 8;
constexpr int kBurstSize = 8;
constexpr size_t kMaxFrame = 64u << 20;

/// Resets roughly one in kResetPeriod server-side recvs. Client fds are
/// registered (and deregistered BEFORE close, so a recycled fd number
/// can never inherit pass-through status) to keep the test's own reads
/// honest while everything server-side lives dangerously.
class RandomResetInjector : public net::FaultInjector {
 public:
  static constexpr int kResetPeriod = 997;

  void Protect(int fd) {
    std::lock_guard<std::mutex> lock(mu_);
    protected_fds_.insert(fd);
  }
  void Unprotect(int fd) {
    std::lock_guard<std::mutex> lock(mu_);
    protected_fds_.erase(fd);
  }
  int resets() const { return resets_.load(); }

  net::FaultAction OnSend(int, size_t) override {
    return net::FaultAction::PassThrough();
  }
  net::FaultAction OnRecv(int fd, size_t) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (protected_fds_.count(fd)) return net::FaultAction::PassThrough();
    }
    if (recvs_.fetch_add(1, std::memory_order_relaxed) % kResetPeriod ==
        kResetPeriod - 1) {
      resets_.fetch_add(1, std::memory_order_relaxed);
      return net::FaultAction::Fail(ECONNRESET);
    }
    return net::FaultAction::PassThrough();
  }

 private:
  std::mutex mu_;
  std::unordered_set<int> protected_fds_;
  std::atomic<int> recvs_{0};
  std::atomic<int> resets_{0};
};

/// A client fd whose lifetime keeps the injector's registry in sync.
struct ProtectedConn {
  ProtectedConn(RandomResetInjector* injector, uint16_t port)
      : injector(injector) {
    Result<net::UniqueFd> connected = net::ConnectTcp("127.0.0.1", port);
    if (!connected.ok()) return;
    fd = std::move(*connected);
    injector->Protect(fd.get());
    // A reset burst means a response that never comes; time out instead
    // of wedging the soak.
    (void)net::SetSocketTimeouts(fd.get(), /*recv_timeout_ms=*/3000,
                                 /*send_timeout_ms=*/3000);
  }
  ~ProtectedConn() {
    if (fd.valid()) {
      injector->Unprotect(fd.get());
      fd.reset();
    }
  }
  bool valid() const { return fd.valid(); }

  RandomResetInjector* injector;
  net::UniqueFd fd;
};

TEST(ServerSoakTest, PipelinedMixedTenantTrafficSurvivesRandomResets) {
  catalog::Catalog catalog = catalog::BuildTpchCatalog(100.0);
  Result<cost::JoinCostModels> models =
      sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());
  ASSERT_TRUE(models.ok());

  core::RaqoPlannerOptions planner_options;
  planner_options.evaluator.use_cache = true;
  planner_options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  planner_options.clear_cache_between_queries = false;
  server::PlanningServiceOptions service_options;
  service_options.planner = planner_options;
  PlanningService service(&catalog, *models,
                          resource::ClusterConditions::PaperDefault(),
                          resource::PricingModel(), service_options);

  ServerOptions options;
  options.port = 0;
  options.num_reactors = 2;  // the sharded plane, even on 1-CPU machines
  options.num_workers = 4;
  options.max_queue = 1024;
  options.max_connections = 128;
  PlanningServer planning_server(&service, options);
  ASSERT_TRUE(planning_server.Start().ok());
  const uint16_t port = planning_server.port();

  RandomResetInjector injector;
  net::ScopedFaultInjector scoped(&injector);

  std::atomic<int> duplicate_ids{0};
  std::atomic<int> foreign_ids{0};
  std::atomic<int64_t> clean_bursts{0};
  std::atomic<int64_t> forgiven_bursts{0};
  const auto deadline = std::chrono::steady_clock::now() + kSoakDuration;

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      const std::string tenant = StrPrintf("t%d", c % 3);
      std::set<std::string> ever_received;
      int seq = 0;
      std::optional<ProtectedConn> conn;
      conn.emplace(&injector, port);
      while (std::chrono::steady_clock::now() < deadline) {
        if (!conn->valid()) {
          // The previous burst died with the connection; reconnect and
          // forgive its outstanding ids — they may have been dropped
          // server-side (counted in responses_dropped) or never read.
          conn.emplace(&injector, port);
          if (!conn->valid()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
          }
        }

        // One pipelined burst of unique ids for this thread's tenant.
        std::set<std::string> sent;
        bool burst_ok = true;
        for (int i = 0; i < kBurstSize && burst_ok; ++i) {
          PlanRequest request;
          request.id = StrPrintf("c%d-%d", c, seq++);
          request.tenant = tenant;
          request.tables = {"orders", "lineitem"};
          if (!server::WriteFrame(conn->fd.get(),
                                  server::SerializePlanRequest(request))
                   .ok()) {
            burst_ok = false;
            break;
          }
          sent.insert(request.id);
        }

        std::set<std::string> received;
        for (size_t i = 0; i < sent.size() && burst_ok; ++i) {
          Result<std::string> payload =
              server::ReadFrame(conn->fd.get(), kMaxFrame);
          if (!payload.ok()) {
            burst_ok = false;
            break;
          }
          Result<server::PlanResponse> response =
              server::ParsePlanResponse(*payload);
          if (!response.ok()) {
            burst_ok = false;
            break;
          }
          // A response id must be fresh forever: not a duplicate of any
          // earlier delivery, not some other burst's id.
          if (!ever_received.insert(response->id).second) {
            duplicate_ids.fetch_add(1);
          }
          if (!sent.count(response->id)) foreign_ids.fetch_add(1);
          received.insert(response->id);
        }

        if (burst_ok) {
          clean_bursts.fetch_add(1);
          EXPECT_EQ(received, sent) << "client " << c;
        } else {
          forgiven_bursts.fetch_add(1);
          conn.emplace(&injector, port);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  planning_server.Shutdown();
  planning_server.Wait();

  const server::ServerStats stats = planning_server.stats();
  EXPECT_EQ(duplicate_ids.load(), 0);
  EXPECT_EQ(foreign_ids.load(), 0);
  EXPECT_GT(clean_bursts.load(), 0);
  // Books balance: every admitted request produced exactly one
  // completion, and each completion was either buffered for a live
  // connection or counted dropped (rejections add to responses_sent, so
  // this is a >=).
  EXPECT_GE(stats.responses_sent + stats.responses_dropped,
            stats.requests_admitted);
  EXPECT_EQ(stats.protocol_errors, 0);
  EXPECT_EQ(stats.open_connections, 0);
  EXPECT_EQ(planning_server.num_reactors(), 2);

  // The storm actually happened. Resets depend on timing, so don't
  // require them — but report the mix for the curious.
  std::printf(
      "soak: %lld clean bursts, %lld forgiven, %d injected resets, "
      "%lld admitted, %lld sent, %lld dropped\n",
      (long long)clean_bursts.load(), (long long)forgiven_bursts.load(),
      injector.resets(), (long long)stats.requests_admitted,
      (long long)stats.responses_sent, (long long)stats.responses_dropped);
}

}  // namespace
}  // namespace raqo
