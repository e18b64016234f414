// Seeded chaos harness for the distributed serving stack.
//
// Sweeps a deterministic scenario matrix — serve-time fault modes (heavy-
// tailed stalls, transient I/O failures, a corrupted manifest root) crossed
// with coordinator kill points of the two-phase epoch swap, over several
// seeds — and asserts the system's single safety contract on every query:
//
//   every response is EXACT (bit-identical to the size-class fold of a row
//   scan over the merged tables), or an honestly-labeled PARTIAL (its value
//   is the same fold over precisely the groups of the nodes that responded,
//   its covered_mass is those nodes' true row fraction, and its bounds
//   contain the true full answer), or a CLEAN ERROR. Never a silently wrong
//   number.
//
// For kill scenarios the harness additionally heals the disks, runs
// Recover(), and asserts the fleet landed on one consistent epoch — the old
// one for kills before the commit write, the new one after — with zero
// orphan pages on any disk.
//
// Every degraded response must also be EXPLAINED: for each non-exact answer
// the harness looks up the flight recorder (src/obs/flightrec.h) and
// requires a matching event — same trace_id, same node, same ReasonCode for
// each degraded node of a partial answer; a query-unavailable event for each
// clean error. A degradation the recorder cannot account for is a
// violation, exactly like a wrong number.
//
// Everything is virtual-time and seeded: the full sweep runs in well under a
// second and reproduces bit-for-bit, which is what lets it sit in tier-1
// ctest (tests/chaos_test.cc) instead of a nightly soak.

#ifndef ANATOMY_DIST_CHAOS_H_
#define ANATOMY_DIST_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace anatomy {

struct ChaosOptions {
  size_t nodes = 3;
  RowId rows = 600;
  int l = 3;
  /// Scenario replicas: seeds 0..seeds-1 (each derives all of the
  /// scenario's RNG streams).
  uint64_t seeds = 4;
  size_t queries_per_scenario = 12;
  uint64_t base_seed = 0xC405;
  /// Per-query deadline of the scatter-gather coordinator.
  uint64_t deadline_ns = 5'000'000;
};

struct ChaosReport {
  size_t scenarios = 0;
  size_t queries = 0;
  /// Response classification over all scenario queries.
  size_t exact = 0;
  size_t partial = 0;
  size_t unavailable = 0;
  /// Degraded responses (partial + unavailable) whose cause was matched to a
  /// flight-recorder event. The sweep asserts this equals partial +
  /// unavailable — every degradation explained, none hand-waved.
  size_t explained = 0;
  /// Kill scenarios recovered, split by where they landed.
  size_t recoveries = 0;
  size_t rolled_back = 0;   // old epoch (kill before the commit write)
  size_t swapped = 0;       // new epoch (kill after it)
  /// Safety-contract violations, human-readable and scenario-tagged.
  /// The sweep passes iff this is empty.
  std::vector<std::string> violations;
};

/// Synthetic eligible microdata for chaos runs: random QI codes and a
/// round-robin sensitive assignment over a 3l-value domain, so every prefix
/// satisfies the eligibility condition and publication never fails for data
/// reasons. Exposed for tests and the serving benchmark.
Microdata MakeChaosMicrodata(RowId rows, int l, uint64_t seed);

/// Runs the full sweep. Status errors are harness failures (e.g. the
/// fault-free baseline publish failed); contract violations are reported in
/// ChaosReport::violations instead, so one bad scenario doesn't mask the
/// rest.
StatusOr<ChaosReport> RunChaosSweep(const ChaosOptions& options);

}  // namespace anatomy

#endif  // ANATOMY_DIST_CHAOS_H_
