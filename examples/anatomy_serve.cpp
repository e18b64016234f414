// anatomy_serve: always-on multi-tenant publication serving.
//
// Builds a catalog of named Anatomy publications (two CENSUS families by
// default), registers tenants with different access levels, and serves
// open-loop Poisson traffic in rounds until --rounds is exhausted (0 =
// forever, until SIGINT). Each round optionally runs one copy-on-write
// epoch swap mid-round (the old epoch answers every query inside the
// rebuild window) and periodically injects a latency regression so the
// burn-rate SLO demonstrably fires and resolves.
//
//   anatomy_serve --n=8000 --rounds=3 --metrics_out=serve.prom
//
// The metrics exposition file is rewritten after every round — point a
// Prometheus file-based scrape (or `curl file://`) at it; see the README
// quickstart. All time is virtual: a "round" of --round_ms simulated
// milliseconds completes in wall-clock milliseconds, bit-reproducible
// from --seed.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "serve/catalog.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/traffic.h"

using namespace anatomy;
using namespace anatomy::serve;

namespace {

std::atomic<bool> g_stop{false};
void HandleSigint(int) { g_stop.store(true); }

void Die(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T OrDie(StatusOr<T> value) {
  if (!value.ok()) Die(value.status());
  return std::move(value).value();
}

void WriteMetrics(const std::string& path) {
  if (path.empty()) return;
  const obs::MetricsSnapshot snapshot =
      obs::MetricRegistry::Global().Snapshot();
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  auto has_suffix = [&](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  os << (has_suffix(".prom")
             ? snapshot.ToPrometheus()
             : has_suffix(".json") ? snapshot.ToJson() : snapshot.ToText());
}

}  // namespace

int main(int argc, char** argv) {
  int64_t n = 8000;
  int64_t l = 4;
  int64_t nodes = 2;
  int64_t rounds = 3;
  int64_t round_ms = 200;
  int64_t workers = 4;
  int64_t rate_qps = 500;
  int64_t seed = 1;
  bool swaps = true;
  bool chaos = false;
  int64_t regress_every = 2;
  std::string metrics_out;
  std::string flightrec_out;

  FlagParser parser;
  parser.AddInt64("n", &n, "rows per publication", 100, 10'000'000);
  parser.AddInt64("l", &l, "l-diversity parameter", 2, 1000);
  parser.AddInt64("nodes", &nodes, "storage nodes per publication", 1, 64);
  parser.AddInt64("rounds", &rounds, "serve rounds (0 = until SIGINT)", 0,
                  1'000'000);
  parser.AddInt64("round_ms", &round_ms, "virtual milliseconds per round", 1,
                  600'000);
  parser.AddInt64("workers", &workers, "coordinator lanes", 1, 1024);
  parser.AddInt64("rate_qps", &rate_qps,
                  "per-class arrival rate (queries per virtual second)", 1,
                  10'000'000);
  parser.AddInt64("seed", &seed, "master seed");
  parser.AddBool("swaps", &swaps,
                 "run one COW epoch swap per round (rotating publication)");
  parser.AddBool("chaos", &chaos,
                 "kill the swap coordinator at a rotating phase and recover");
  parser.AddInt64("regress_every", &regress_every,
                  "inject a latency regression every K rounds (0 = never)", 0,
                  1'000'000);
  parser.AddString("metrics_out", &metrics_out,
                   "rewrite a metrics exposition here each round "
                   "(.prom/.json/text) — the Prometheus scrape target");
  parser.AddString("flightrec_out", &flightrec_out,
                   "write the flight-recorder ring here on exit");
  Die(parser.Parse(argc, argv));
  if (parser.help_requested()) {
    std::printf("%s", parser.Usage(argv[0]).c_str());
    return 0;
  }
  std::signal(SIGINT, HandleSigint);

  // ---- Catalog: two publications (different sensitive families). ----
  const Table census = GenerateCensus(static_cast<RowId>(n),
                                      static_cast<uint64_t>(seed));
  PublicationCatalog catalog;
  const SensitiveFamily families[] = {SensitiveFamily::kOccupation,
                                      SensitiveFamily::kSalaryClass};
  const char* names[] = {"census-occ", "census-sal"};
  for (size_t p = 0; p < 2; ++p) {
    ExperimentDataset dataset =
        OrDie(MakeExperimentDataset(census, families[p], /*d=*/3));
    ServePublicationOptions options;
    options.name = names[p];
    options.nodes = static_cast<size_t>(nodes);
    options.l = static_cast<int>(l);
    options.seed = static_cast<uint64_t>(seed) + p;
    OrDie(catalog.Add(options, std::move(dataset.microdata)));
    std::printf("published %-12s epoch %llu (%lld rows, %lld nodes, l=%lld)\n",
                names[p], static_cast<unsigned long long>(
                              catalog.Find(names[p])->epoch()),
                static_cast<long long>(n), static_cast<long long>(nodes),
                static_cast<long long>(l));
  }

  // ---- Tenants: an unrestricted analyst and a COUNT-only auditor. ----
  AnatomyServer server(&catalog);
  TenantPolicy analyst;
  analyst.publications = {"census-occ", "census-sal"};
  Die(server.AddTenant("analyst", analyst));
  TenantPolicy auditor;
  auditor.publications = {"census-occ"};
  auditor.allow_sum = false;       // SUMs denied (kAccessDeniedAggregate)
  auditor.denied_qi_columns = {0};  // first QI off-limits in predicates
  Die(server.AddTenant("auditor", auditor));
  std::printf("tenants: analyst (full), auditor (census-occ, COUNT-only, "
              "QI 0 denied)\n\n");

  const uint64_t duration_ns = static_cast<uint64_t>(round_ms) * 1'000'000;
  const SwapKillPoint kill_cycle[] = {
      SwapKillPoint::kAfterPrepare, SwapKillPoint::kAfterCommit,
      SwapKillPoint::kBeforeCommit, SwapKillPoint::kMidGc};
  for (int64_t round = 0; rounds == 0 || round < rounds; ++round) {
    if (g_stop.load()) break;
    ServeLoopOptions options;
    options.duration_ns = duration_ns;
    options.coordinator_workers = static_cast<size_t>(workers);
    options.traffic.seed = static_cast<uint64_t>(seed) + 1000 + round;
    options.traffic.classes = {
        {"analyst", "census-occ", static_cast<double>(rate_qps), 0.5},
        {"analyst", "census-sal", static_cast<double>(rate_qps), 0.5},
        {"auditor", "census-occ", static_cast<double>(rate_qps) / 2, 0.3},
    };
    if (swaps) {
      EpochSwapSpec swap;
      swap.publication = names[round % 2];
      swap.at_ns = duration_ns / 3;
      if (chaos) swap.kill = kill_cycle[round % 4];
      options.swaps.push_back(swap);
    }
    if (regress_every > 0 && round % regress_every == regress_every - 1) {
      LatencyRegressionSpec regression;
      regression.publication = names[round % 2];
      regression.start_ns = duration_ns / 2;
      regression.end_ns = duration_ns * 3 / 4;
      options.regressions.push_back(regression);
    }

    const ServeReport report = OrDie(server.Run(options));
    std::printf(
        "round %3lld: %6llu req  answered %6llu  denied %4llu  degraded %4llu"
        "  unavailable %4llu  p50 %7.3fms  p99 %8.3fms%s%s\n",
        static_cast<long long>(round),
        static_cast<unsigned long long>(report.requests),
        static_cast<unsigned long long>(report.answered),
        static_cast<unsigned long long>(report.denied),
        static_cast<unsigned long long>(report.degraded),
        static_cast<unsigned long long>(report.unavailable),
        report.p50_ns / 1e6, report.p99_ns / 1e6,
        report.slo_fired ? "  [SLO FIRED]" : "",
        report.slo_resolved ? " [SLO RESOLVED]" : "");
    for (const SwapOutcome& swap : report.swaps) {
      std::printf(
          "           swap %-12s epoch %llu -> %llu (%s): %llu queries in "
          "the %.1fms COW window, %llu blocked\n",
          swap.publication.c_str(),
          static_cast<unsigned long long>(swap.epoch_before),
          static_cast<unsigned long long>(swap.epoch_after),
          swap.status.c_str(),
          static_cast<unsigned long long>(swap.queries_during_window),
          (swap.commit_ns - swap.window_start_ns) / 1e6,
          static_cast<unsigned long long>(swap.queries_blocked));
      if (swap.queries_blocked != 0) {
        std::fprintf(stderr, "error: COW swap blocked queries\n");
        return 1;
      }
    }
    WriteMetrics(metrics_out);
  }

  if (!flightrec_out.empty()) {
    Die(obs::FlightRecorder::Global().WriteJson(flightrec_out));
    std::printf("\nwrote flight recorder         : %s\n", flightrec_out.c_str());
  }
  if (!metrics_out.empty()) {
    std::printf("metrics exposition            : %s\n", metrics_out.c_str());
  }
  return 0;
}
