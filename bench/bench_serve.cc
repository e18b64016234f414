// Multi-tenant serving bench: the acceptance harness for anatomy_serve's
// serving layer (src/serve). One virtual second of open-loop Poisson
// traffic from two tenants against two publications, with a clean COW
// epoch swap and a chaos (killed + recovered) swap mid-run plus an
// injected latency regression. Self-checking — the bench dies unless:
//
//   * the open-loop schedule is sustained (requests ~ rate x duration),
//   * every swap answered queries inside its rebuild window and blocked
//     none (the COW contract, counted per-request, not assumed),
//   * the latency SLO FIRES during the injected regression and RESOLVES
//     after it heals,
//   * every denial, degraded answer, and unavailable answer is explained
//     by a flight-recorder event (matched by ReasonCode value),
//   * answers are exact-or-honest: exact + degraded + unavailable +
//     denied + not_found == requests.
//
// Latencies are virtual ns; the whole run is reproducible from --seed.
// Emits BENCH_serve.json.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "serve/catalog.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/traffic.h"

namespace anatomy {
namespace bench {
namespace {

using serve::AnatomyServer;
using serve::PublicationCatalog;
using serve::ServeLoopOptions;
using serve::ServePublicationOptions;
using serve::ServeReport;
using serve::SwapOutcome;
using serve::TenantPolicy;

struct ServeBenchConfig {
  int64_t n = 6000;
  int64_t l = 4;
  int64_t seed = 1;
  int64_t rate_qps = 600;
  int64_t duration_ms = 1000;
  std::string json_out = "BENCH_serve.json";
};

void CheckOrDie(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "bench_serve: self-check FAILED: %s\n", what);
  obs::FlightRecorder::Global().MaybeDumpOnError(what);
  std::exit(1);
}

void Run(const ServeBenchConfig& config) {
  const unsigned hw = WarnIfSingleThreaded("bench_serve");
  obs::SetMetricsEnabled(true);
  obs::FlightRecorder::Global().Clear();
  obs::FlightRecorder::Global().SetEnabled(true);

  // ---- Catalog: two publications, different sensitive families. ----
  const uint64_t seed = static_cast<uint64_t>(config.seed);
  const Table census = GenerateCensus(static_cast<RowId>(config.n), seed);
  PublicationCatalog catalog;
  const SensitiveFamily families[] = {SensitiveFamily::kOccupation,
                                      SensitiveFamily::kSalaryClass};
  const char* names[] = {"occ", "sal"};
  for (size_t p = 0; p < 2; ++p) {
    ExperimentDataset dataset =
        ValueOrDie(MakeExperimentDataset(census, families[p], /*d=*/3));
    ServePublicationOptions options;
    options.name = names[p];
    options.nodes = 2;
    options.l = static_cast<int>(config.l);
    options.seed = seed + p;
    // Widen the rebuild window so the Poisson streams land a measurable
    // number of queries inside each COW swap.
    options.rebuild_floor_ns = 10'000'000;
    ValueOrDie(catalog.Add(options, std::move(dataset.microdata)));
  }

  // ---- Tenants: unrestricted analyst, COUNT-only auditor. ----
  AnatomyServer server(&catalog);
  TenantPolicy analyst;
  analyst.publications = {"occ", "sal"};
  DieIfError(server.AddTenant("analyst", analyst));
  TenantPolicy auditor;
  auditor.publications = {"occ"};
  auditor.allow_sum = false;
  auditor.denied_qi_columns = {0};
  DieIfError(server.AddTenant("auditor", auditor));

  // ---- Schedule: 1 virtual second, 2 swaps, 1 latency regression. ----
  const uint64_t duration_ns =
      static_cast<uint64_t>(config.duration_ms) * 1'000'000;
  const double rate = static_cast<double>(config.rate_qps);
  ServeLoopOptions options;
  options.duration_ns = duration_ns;
  options.coordinator_workers = 4;
  options.traffic.seed = seed ^ 0x7EA11C;
  options.traffic.classes = {
      {"analyst", "occ", rate, 0.5},
      {"analyst", "sal", rate * 0.8, 0.5},
      {"auditor", "occ", rate * 0.6, 0.3},  // its SUMs are denied
  };
  serve::EpochSwapSpec clean_swap;
  clean_swap.publication = "occ";
  clean_swap.at_ns = duration_ns / 5;
  options.swaps.push_back(clean_swap);
  serve::EpochSwapSpec chaos_swap;
  chaos_swap.publication = "sal";
  chaos_swap.at_ns = duration_ns / 2;
  chaos_swap.kill = SwapKillPoint::kAfterPrepare;
  options.swaps.push_back(chaos_swap);
  serve::LatencyRegressionSpec regression;
  regression.publication = "occ";
  regression.start_ns = duration_ns * 65 / 100;
  regression.end_ns = duration_ns * 80 / 100;
  options.regressions.push_back(regression);
  // Threshold at a bucket bound just above the healthy p99 (~0.3ms) and
  // below the regression's stall tail, so the verdict is bucket-exact.
  options.slo_threshold_ns = (1ull << 22) - 1;  // ~4.19ms
  options.slo_target = 0.95;

  const ServeReport report = ValueOrDie(server.Run(options));

  // ---- Self-checks. ----
  const double expected =
      (rate + rate * 0.8 + rate * 0.6) * config.duration_ms / 1000.0;
  CheckOrDie(report.requests > expected * 0.8 &&
                 report.requests < expected * 1.2,
             "open-loop schedule not sustained (requests far from rate x "
             "duration)");
  CheckOrDie(report.tenants.size() == 2, "expected 2 tenants");
  CheckOrDie(catalog.size() == 2, "expected 2 publications");
  CheckOrDie(report.answered + report.denied + report.unavailable +
                     report.not_found ==
                 report.requests,
             "exact-or-honest-or-clean accounting leak");
  CheckOrDie(report.denied > 0, "auditor SUM denials never happened");
  CheckOrDie(report.not_found == 0, "unexpected catalog misses");

  CheckOrDie(report.swaps.size() == 2, "expected 2 swap outcomes");
  for (const SwapOutcome& swap : report.swaps) {
    CheckOrDie(swap.ok, "swap did not complete consistently");
    CheckOrDie(swap.queries_during_window > 0,
               "no queries observed inside the COW rebuild window");
    CheckOrDie(swap.queries_blocked == 0, "COW swap blocked queries");
  }
  const SwapOutcome& clean = report.swaps[0];
  CheckOrDie(!clean.killed && clean.epoch_after == clean.epoch_before + 1,
             "clean swap did not advance exactly one epoch");
  const SwapOutcome& chaos = report.swaps[1];
  CheckOrDie(chaos.killed && chaos.recovered,
             "chaos swap was not killed + recovered");
  // kAfterPrepare dies before the COMMIT flip: recovery must land on the
  // OLD epoch (prepared-but-uncommitted publications swept as orphans).
  CheckOrDie(chaos.epoch_after == chaos.epoch_before,
             "killed-before-commit swap did not recover onto the old epoch");

  CheckOrDie(report.p50_ns > 0 && report.p99_ns >= report.p50_ns,
             "latency quantiles not monotone");
  CheckOrDie(report.slo_fired, "SLO never fired during the regression");
  CheckOrDie(report.slo_resolved, "SLO never resolved after the heal");

  // Every degradation / denial is explained by a flight-recorder event,
  // matched by value. Requires a drop-free ring (sized for this run).
  CheckOrDie(obs::FlightRecorder::Global().dropped() == 0,
             "flight ring overflowed; explanation check would be partial");
  uint64_t ev_denied = 0;
  uint64_t ev_degraded = 0;
  uint64_t ev_unavailable = 0;
  for (const obs::FlightRecord& record :
       obs::FlightRecorder::Global().Snapshot()) {
    switch (record.type) {
      case obs::FlightEventType::kAccessDenied:
        CheckOrDie(
            record.reason == obs::ReasonCode::kAccessDeniedPublication ||
                record.reason == obs::ReasonCode::kAccessDeniedColumn ||
                record.reason == obs::ReasonCode::kAccessDeniedAggregate ||
                record.reason == obs::ReasonCode::kEpochBudgetExceeded,
            "access-denied event with a non-denial reason code");
        ++ev_denied;
        break;
      case obs::FlightEventType::kQueryDegraded:
        ++ev_degraded;
        break;
      case obs::FlightEventType::kQueryUnavailable:
        ++ev_unavailable;
        break;
      default:
        break;
    }
  }
  CheckOrDie(ev_denied == report.denied,
             "denials not 1:1 explained by access-denied flight events");
  CheckOrDie(ev_degraded >= report.degraded,
             "degraded answers lack explaining flight events");
  CheckOrDie(ev_unavailable >= report.unavailable,
             "unavailable answers lack explaining flight events");

  // ---- Report. ----
  std::printf(
      "bench_serve: %llu requests over %lldms virtual (2 tenants x 2 "
      "publications)\n"
      "  answered %llu (degraded %llu)  denied %llu  unavailable %llu\n"
      "  p50 %.3fms  p99 %.3fms  queue p99 %.3fms\n"
      "  swaps: clean epoch %llu->%llu (%llu in window), chaos %llu->%llu "
      "(%llu in window), 0 blocked\n"
      "  SLO: fired and resolved (%llu transitions)\n",
      static_cast<unsigned long long>(report.requests),
      static_cast<long long>(config.duration_ms),
      static_cast<unsigned long long>(report.answered),
      static_cast<unsigned long long>(report.degraded),
      static_cast<unsigned long long>(report.denied),
      static_cast<unsigned long long>(report.unavailable),
      report.p50_ns / 1e6, report.p99_ns / 1e6, report.queue_p99_ns / 1e6,
      static_cast<unsigned long long>(clean.epoch_before),
      static_cast<unsigned long long>(clean.epoch_after),
      static_cast<unsigned long long>(clean.queries_during_window),
      static_cast<unsigned long long>(chaos.epoch_before),
      static_cast<unsigned long long>(chaos.epoch_after),
      static_cast<unsigned long long>(chaos.queries_during_window),
      static_cast<unsigned long long>(report.slo_transitions));

  if (config.json_out.empty()) return;
  std::ofstream os(config.json_out);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", config.json_out.c_str());
    std::exit(1);
  }
  os << "{\n"
     << "  \"bench\": \"serve\",\n"
     << "  \"hardware_threads\": " << hw << ",\n"
     << "  \"n\": " << config.n << ",\n"
     << "  \"l\": " << config.l << ",\n"
     << "  \"seed\": " << config.seed << ",\n"
     << "  \"virtual_duration_ms\": " << config.duration_ms << ",\n"
     << "  \"tenants\": 2,\n"
     << "  \"publications\": 2,\n"
     << "  \"requests\": " << report.requests << ",\n"
     << "  \"answered\": " << report.answered << ",\n"
     << "  \"degraded\": " << report.degraded << ",\n"
     << "  \"denied\": " << report.denied << ",\n"
     << "  \"unavailable\": " << report.unavailable << ",\n"
     << "  \"p50_us\": " << report.p50_ns / 1000.0 << ",\n"
     << "  \"p99_us\": " << report.p99_ns / 1000.0 << ",\n"
     << "  \"queue_p99_us\": " << report.queue_p99_ns / 1000.0 << ",\n"
     << "  \"swaps\": [\n";
  for (size_t i = 0; i < report.swaps.size(); ++i) {
    const SwapOutcome& swap = report.swaps[i];
    os << "    {\"publication\": \"" << swap.publication
       << "\", \"epoch_before\": " << swap.epoch_before
       << ", \"epoch_after\": " << swap.epoch_after
       << ", \"window_ms\": " << (swap.commit_ns - swap.window_start_ns) / 1e6
       << ", \"queries_during_window\": " << swap.queries_during_window
       << ", \"queries_blocked\": " << swap.queries_blocked
       << ", \"killed\": " << (swap.killed ? "true" : "false")
       << ", \"recovered\": " << (swap.recovered ? "true" : "false") << "}"
       << (i + 1 < report.swaps.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"slo\": {\"fired\": " << (report.slo_fired ? "true" : "false")
     << ", \"resolved\": " << (report.slo_resolved ? "true" : "false")
     << ", \"transitions\": " << report.slo_transitions << "},\n"
     << "  \"tenant_breakdown\": [\n";
  for (size_t i = 0; i < report.tenants.size(); ++i) {
    const serve::TenantReport& tenant = report.tenants[i];
    os << "    {\"tenant\": \"" << tenant.tenant
       << "\", \"requests\": " << tenant.requests
       << ", \"answered\": " << tenant.answered
       << ", \"denied\": " << tenant.denied
       << ", \"exact\": " << tenant.exact
       << ", \"partial\": " << tenant.partial
       << ", \"p50_us\": " << tenant.p50_ns / 1000.0
       << ", \"p99_us\": " << tenant.p99_ns / 1000.0 << "}"
       << (i + 1 < report.tenants.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"memory\": " << MemoryJson(2) << "\n"
     << "}\n";
  std::printf("(results written to %s)\n", config.json_out.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace anatomy

int main(int argc, char** argv) {
  anatomy::bench::ServeBenchConfig config;
  anatomy::FlagParser parser;
  parser.AddInt64("n", &config.n, "rows per publication", 100, 10'000'000);
  parser.AddInt64("l", &config.l, "l-diversity parameter", 2, 1000);
  parser.AddInt64("seed", &config.seed, "master seed");
  parser.AddInt64("rate_qps", &config.rate_qps,
                  "base per-class arrival rate (queries per virtual second)",
                  1, 10'000'000);
  parser.AddInt64("duration_ms", &config.duration_ms,
                  "virtual run length in milliseconds", 10, 600'000);
  parser.AddString("json_out", &config.json_out,
                   "result artifact path (empty = skip)");
  const anatomy::Status status = parser.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  if (parser.help_requested()) {
    std::printf("%s", parser.Usage(argv[0]).c_str());
    return 0;
  }
  anatomy::bench::Run(config);
  return 0;
}
