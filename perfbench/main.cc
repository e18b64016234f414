// perfbench_e2e: the end-to-end benchmark binary. run.py builds it and runs
//
//   perfbench_e2e --workload <bundle_query|serve_fresh|publish> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace_out <file>]
//
// and the last line it prints is the result: one JSON object with the keys
// correct, attempted, failed and metrics. It exits 1 when a self-check
// failed (after printing the result) and 2 on bad flags.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "bench.h"
#include "common/flags.h"

namespace perfbench {
namespace {

// Allocation counter behind the global operator new below: striped over
// cache lines so the counting threads of a sharded build do not contend on
// one atomic, and gated by one relaxed flag so untraced runs pay a load.
constexpr size_t kStripes = 64;
struct alignas(64) Stripe {
  std::atomic<uint64_t> n{0};
};
Stripe g_stripes[kStripes];
std::atomic<bool> g_counting{false};
std::atomic<size_t> g_next_stripe{0};

void CountAlloc() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  thread_local const size_t stripe =
      g_next_stripe.fetch_add(1, std::memory_order_relaxed) % kStripes;
  g_stripes[stripe].n.fetch_add(1, std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t n) {
  CountAlloc();
  return std::malloc(n != 0 ? n : 1);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  CountAlloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n != 0 ? n : 1) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

uint64_t AllocCount() {
  uint64_t total = 0;
  for (const Stripe& s : g_stripes) total += s.n.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = perfbench::CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = perfbench::CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = perfbench::CountedAlignedAlloc(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = perfbench::CountedAlignedAlloc(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return perfbench::CountedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return perfbench::CountedAlignedAlloc(n, a);
}
// posix_memalign memory is free()-compatible, so every delete frees.
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  int64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  anatomy::FlagParser parser;
  parser.AddString("workload", &options.workload,
                   "bundle_query, serve_fresh or publish");
  parser.AddInt64("seed", &seed, "workload seed; every input derives from it");
  parser.AddDouble("seconds", &seconds, "length of the timed phase");
  parser.AddInt64("trace", &trace, "1 = traced run with per-layer metrics");
  parser.AddString("trace_out", &options.trace_out,
                   "traced runs write spans and counter deltas here");
  const anatomy::Status parsed = parser.Parse(argc, argv);
  if (!parsed.ok() || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "perfbench_e2e: bad flags: %s\n",
                 parsed.ToString().c_str());
    return 2;
  }
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = seconds;
  options.trace = trace == 1;

  const perfbench::RunResult result = perfbench::RunWorkload(options);
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
