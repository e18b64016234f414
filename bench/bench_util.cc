#include "bench_util.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "anatomy/anatomizer.h"
#include "common/stopwatch.h"
#include "generalization/mondrian.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace anatomy {
namespace bench {

BenchConfig ParseBenchFlags(int argc, char** argv, const std::string& banner) {
  BenchConfig config;
  FlagParser parser;
  parser.AddInt64("n", &config.n, "dataset cardinality (fixed-n figures)");
  parser.AddInt64("queries", &config.queries, "queries per workload point");
  parser.AddInt64("l", &config.l, "l-diversity parameter (paper: 10)");
  parser.AddInt64("seed", &config.seed, "master RNG seed");
  parser.AddBool("paper", &config.paper,
                 "full Table 7 scale: n = 300k (sweeps to 500k), 10k queries");
  parser.AddString("csv_dir", &config.csv_dir,
                   "also write each series as <dir>/<figure>.csv");
  parser.AddString("metrics_out", &config.metrics_out,
                   "write a final metrics snapshot (.prom/.json/text)");
  parser.AddString("trace_out", &config.trace_out,
                   "enable tracing; write Chrome trace-event JSON here");
  const Status status = parser.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage(argv[0]).c_str());
    std::exit(2);
  }
  if (parser.help_requested()) {
    std::printf("%s\n%s", banner.c_str(), parser.Usage(argv[0]).c_str());
    std::exit(0);
  }
  if (config.paper) {
    config.n = 300000;
    config.queries = 10000;
  }
  if (!config.trace_out.empty()) {
    obs::TraceRecorder::Global().SetEnabled(true);
  }
  std::printf("%s\n", banner.c_str());
  std::printf("preset: n=%lld, queries=%lld, l=%lld, seed=%lld%s\n\n",
              static_cast<long long>(config.n),
              static_cast<long long>(config.queries),
              static_cast<long long>(config.l),
              static_cast<long long>(config.seed),
              config.paper ? " (paper scale)" : " (quick preset; --paper for full scale)");
  return config;
}

std::vector<RowId> CardinalitySweep(const BenchConfig& config) {
  if (config.paper) {
    return {100000, 200000, 300000, 400000, 500000};
  }
  const RowId step = static_cast<RowId>(config.n) / 3;
  return {step, 2 * step, 3 * step, 4 * step, 5 * step};
}

StatusOr<PublishedDataset> Publish(ExperimentDataset dataset, int l,
                                   uint64_t seed) {
  const Microdata& md = dataset.microdata;
  Anatomizer anatomizer(AnatomizerOptions{.l = l, .seed = seed});
  ANATOMY_ASSIGN_OR_RETURN(Partition anatomy_partition,
                           anatomizer.ComputePartition(md));
  ANATOMY_ASSIGN_OR_RETURN(AnatomizedTables anatomized,
                           AnatomizedTables::Build(md, anatomy_partition));

  Mondrian mondrian(MondrianOptions{l});
  ANATOMY_ASSIGN_OR_RETURN(Partition general_partition,
                           mondrian.ComputePartition(md, dataset.taxonomies));
  ANATOMY_ASSIGN_OR_RETURN(
      GeneralizedTable generalized,
      GeneralizedTable::Build(md, general_partition, dataset.taxonomies));

  return PublishedDataset{std::move(dataset), std::move(anatomized),
                          std::move(generalized)};
}

StatusOr<ErrorPoint> MeasureErrors(const PublishedDataset& published, int qd,
                                   double s, size_t num_queries,
                                   uint64_t seed) {
  WorkloadOptions options;
  options.qd = qd;
  options.s = s;
  options.num_queries = num_queries;
  options.seed = seed;
  ANATOMY_ASSIGN_OR_RETURN(
      WorkloadResult result,
      RunWorkload(published.dataset.microdata, published.anatomized,
                  published.generalized, options));
  ErrorPoint point;
  point.generalization_pct = result.generalization_error * 100.0;
  point.anatomy_pct = result.anatomy_error * 100.0;
  point.skipped = result.zero_actual_skipped;
  point.estimator_qps = result.estimator_qps;
  return point;
}

void DieIfError(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

std::string FamilyName(SensitiveFamily family) {
  return family == SensitiveFamily::kOccupation ? "OCC" : "SAL";
}

void MaybeWriteSeriesCsv(const BenchConfig& config, const std::string& figure,
                         const TablePrinter& printer) {
  if (config.csv_dir.empty()) return;
  const std::string path = config.csv_dir + "/" + figure + ".csv";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  os << printer.ToCsv();
  std::printf("(series written to %s)\n", path.c_str());
}

namespace {

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void MaybeWriteObs(const BenchConfig& config) {
  if (!config.metrics_out.empty()) {
    const obs::MetricsSnapshot snapshot =
        obs::MetricRegistry::Global().Snapshot();
    std::string body;
    if (HasSuffix(config.metrics_out, ".prom")) {
      body = snapshot.ToPrometheus();
    } else if (HasSuffix(config.metrics_out, ".json")) {
      body = snapshot.ToJson();
    } else {
      body = snapshot.ToText();
    }
    std::ofstream os(config.metrics_out);
    if (os) {
      os << body;
      std::printf("(metrics written to %s)\n", config.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   config.metrics_out.c_str());
    }
  }
  if (!config.trace_out.empty()) {
    const Status status =
        obs::TraceRecorder::Global().WriteChromeJson(config.trace_out);
    if (status.ok()) {
      std::printf("(trace written to %s)\n", config.trace_out.c_str());
    } else {
      std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
    }
  }
}

double TimeSeconds(const std::function<void()>& fn) {
  Stopwatch watch;
  fn();
  return watch.ElapsedSeconds();
}

unsigned HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned WarnIfSingleThreaded(const char* bench_name) {
  const unsigned hw = HardwareThreads();
  if (hw == 1) {
    std::fprintf(
        stderr,
        "==================================================================\n"
        "WARNING: %s is running on a SINGLE hardware thread.\n"
        "Multi-threaded rows below measure oversubscription on one core,\n"
        "not scaling; do not read flat throughput or inflated tail latency\n"
        "as a contention bug. The JSON artifact records\n"
        "\"hardware_threads\": 1 so downstream readers can tell.\n"
        "==================================================================\n",
        bench_name);
  }
  return hw;
}

RegistryIoProbe::RegistryIoProbe(const std::string& pipeline)
    : pipeline_(pipeline),
      reads_(obs::MetricRegistry::Global().GetCounter(pipeline + ".io.reads")),
      writes_(
          obs::MetricRegistry::Global().GetCounter(pipeline + ".io.writes")),
      reads_before_(reads_->value()),
      writes_before_(writes_->value()) {}

uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      // "VmHWM:     12345 kB"
      uint64_t kb = 0;
      if (std::sscanf(line.c_str() + 6, "%llu",
                      reinterpret_cast<unsigned long long*>(&kb)) == 1) {
        return kb * 1024;
      }
      return 0;
    }
  }
  return 0;
}

namespace internal {
extern std::atomic<uint64_t> g_malloc_count;
extern const bool g_malloc_hook_active;
}  // namespace internal

uint64_t MallocCount() {
  return internal::g_malloc_count.load(std::memory_order_relaxed);
}

bool MallocCountAvailable() { return internal::g_malloc_hook_active; }

std::string MemoryJson(int indent) {
  const std::string pad(static_cast<size_t>(indent), ' ');
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "%s  \"peak_rss_bytes\": %llu,\n"
                "%s  \"malloc_count\": %llu,\n"
                "%s  \"malloc_count_available\": %s\n"
                "%s}",
                pad.c_str(), static_cast<unsigned long long>(PeakRssBytes()),
                pad.c_str(), static_cast<unsigned long long>(MallocCount()),
                pad.c_str(), MallocCountAvailable() ? "true" : "false",
                pad.c_str());
  return std::string(buf);
}

uint64_t RegistryIoProbe::TotalOrDie(const IoStats& expected) const {
  const uint64_t reads = reads_->value() - reads_before_;
  const uint64_t writes = writes_->value() - writes_before_;
  if (reads != expected.reads || writes != expected.writes) {
    std::fprintf(stderr,
                 "fatal: registry I/O for %s (reads=%llu writes=%llu) "
                 "disagrees with IoStats (reads=%llu writes=%llu)\n",
                 pipeline_.c_str(), static_cast<unsigned long long>(reads),
                 static_cast<unsigned long long>(writes),
                 static_cast<unsigned long long>(expected.reads),
                 static_cast<unsigned long long>(expected.writes));
    std::exit(1);
  }
  return reads + writes;
}

}  // namespace bench
}  // namespace anatomy
