#include "dist/chaos.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dist/cluster.h"
#include "dist/scatter_gather.h"
#include "obs/flightrec.h"
#include "query/group_kernels.h"
#include "table/schema.h"
#include "workload/workload.h"

namespace anatomy {
namespace {

enum class FaultMode { kNone, kStalls, kTransient, kCorruptRoot };

const char* FaultModeName(FaultMode m) {
  switch (m) {
    case FaultMode::kNone: return "none";
    case FaultMode::kStalls: return "stalls";
    case FaultMode::kTransient: return "transient";
    case FaultMode::kCorruptRoot: return "corrupt-root";
  }
  return "?";
}

const char* KillName(SwapKillPoint k) {
  switch (k) {
    case SwapKillPoint::kNone: return "none";
    case SwapKillPoint::kAfterPrepare: return "after-prepare";
    case SwapKillPoint::kBeforeCommit: return "before-commit";
    case SwapKillPoint::kAfterCommit: return "after-commit";
    case SwapKillPoint::kMidGc: return "mid-gc";
  }
  return "?";
}

std::string Tag(uint64_t seed, SwapKillPoint kill, FaultMode fault) {
  return "[seed=" + std::to_string(seed) + " kill=" + KillName(kill) +
         " fault=" + FaultModeName(fault) + "]";
}

/// Asserts the fleet is on exactly `expected_epoch`, every shard-bearing
/// node serves it, and no disk holds a page its current manifest does not
/// own.
void CheckConsistency(DistCluster& cluster, uint64_t expected_epoch,
                      const std::string& tag,
                      std::vector<std::string>* violations) {
  if (cluster.epoch() != expected_epoch) {
    violations->push_back(tag + " landed on epoch " +
                          std::to_string(cluster.epoch()) + ", expected " +
                          std::to_string(expected_epoch));
    return;
  }
  for (size_t i = 0; i < cluster.num_nodes(); ++i) {
    const NodeEpochInfo& info = cluster.record().nodes[i];
    DistNode* node = cluster.node(i);
    std::vector<PageId> live = node->disk()->LivePages();
    std::sort(live.begin(), live.end());
    const std::string who = tag + " node " + std::to_string(i);
    if (info.root == kInvalidPageId) {
      if (node->active()) violations->push_back(who + " active with no shard");
      if (!live.empty()) {
        violations->push_back(who + " holds " + std::to_string(live.size()) +
                              " orphan pages (no shard this epoch)");
      }
      continue;
    }
    if (!node->active()) {
      violations->push_back(who + " inactive after recovery");
      continue;
    }
    if (node->epoch() != cluster.epoch()) {
      violations->push_back(who + " serves epoch " +
                            std::to_string(node->epoch()));
    }
    const StorageManifest& m = node->manifest();
    std::vector<PageId> owned = m.manifest_pages;
    owned.insert(owned.end(), m.qit.pages.begin(), m.qit.pages.end());
    owned.insert(owned.end(), m.st.pages.begin(), m.st.pages.end());
    std::sort(owned.begin(), owned.end());
    if (live != owned) {
      violations->push_back(who + " live pages (" +
                            std::to_string(live.size()) +
                            ") differ from the manifest's owned set (" +
                            std::to_string(owned.size()) + ")");
    }
  }
}

/// True iff the recorder holds a query-degraded event matching this exact
/// (trace, node, reason) triple — value equality on the shared ReasonCode,
/// never substring matching.
bool ExplainsDegradedNode(const std::vector<obs::FlightRecord>& events,
                          uint64_t trace_id, int32_t node,
                          obs::ReasonCode reason) {
  for (const auto& e : events) {
    if (e.type == obs::FlightEventType::kQueryDegraded &&
        e.trace_id == trace_id && e.node == node && e.reason == reason) {
      return true;
    }
  }
  return false;
}

/// True iff the recorder holds a query-unavailable event for this trace.
bool ExplainsUnavailable(const std::vector<obs::FlightRecord>& events,
                         uint64_t trace_id) {
  for (const auto& e : events) {
    if (e.type == obs::FlightEventType::kQueryUnavailable &&
        e.trace_id == trace_id) {
      return true;
    }
  }
  return false;
}

}  // namespace

Microdata MakeChaosMicrodata(RowId rows, int l, uint64_t seed) {
  const Code s_domain = static_cast<Code>(3 * l);
  std::vector<AttributeDef> defs;
  defs.push_back(MakeNumerical("Age", 50, /*base=*/17));
  defs.push_back(MakeCategorical("Workclass", 8));
  defs.push_back(MakeNumerical("Hours", 40, /*base=*/1));
  defs.push_back(MakeCategorical("Disease", s_domain));
  Table table(std::make_shared<Schema>(std::move(defs)));
  table.Reserve(rows);
  Rng rng = Rng::ForStream(seed, 0xDA7A);
  std::vector<Code> row(4);
  for (RowId i = 0; i < rows; ++i) {
    row[0] = static_cast<Code>(rng.NextBounded(50));
    row[1] = static_cast<Code>(rng.NextBounded(8));
    row[2] = static_cast<Code>(rng.NextBounded(40));
    // Round-robin sensitive assignment: every value's frequency is within 1
    // of n/(3l), so eligibility for l-diversity always holds — publication
    // can only fail for injected reasons.
    row[3] = static_cast<Code>(i % s_domain);
    table.AppendRow(row);
  }
  Microdata md;
  md.table = std::move(table);
  md.qi_columns = {0, 1, 2};
  md.sensitive_column = 3;
  return md;
}

StatusOr<ChaosReport> RunChaosSweep(const ChaosOptions& options) {
  ChaosReport report;
  constexpr SwapKillPoint kKills[] = {
      SwapKillPoint::kNone, SwapKillPoint::kAfterPrepare,
      SwapKillPoint::kBeforeCommit, SwapKillPoint::kAfterCommit,
      SwapKillPoint::kMidGc};
  constexpr FaultMode kFaults[] = {FaultMode::kNone, FaultMode::kStalls,
                                   FaultMode::kTransient,
                                   FaultMode::kCorruptRoot};

  for (uint64_t seed = 0; seed < options.seeds; ++seed) {
    const Microdata md1 = MakeChaosMicrodata(
        options.rows, options.l, SplitMix64(options.base_seed ^ (seed * 2)));
    const Microdata md2 = MakeChaosMicrodata(
        options.rows, options.l,
        SplitMix64(options.base_seed ^ (seed * 2 + 1)));

    for (SwapKillPoint kill : kKills) {
      for (FaultMode fault : kFaults) {
        ++report.scenarios;
        const std::string tag = Tag(seed, kill, fault);
        // A fresh flight-recorder window per scenario: the ring is bounded,
        // and the explanation assertions below must never fail because an
        // earlier scenario's events wrapped this one's out.
        obs::FlightRecorder::Global().Clear();

        DistClusterOptions copts;
        copts.nodes = options.nodes;
        copts.l = options.l;
        copts.seed = SplitMix64(options.base_seed ^ (seed << 16) ^
                                (static_cast<uint64_t>(kill) << 8) ^
                                static_cast<uint64_t>(fault));
        DistCluster cluster(copts);

        // Epoch 1 is the fault-free baseline; a failure here is a harness
        // bug, not a chaos finding.
        ANATOMY_ASSIGN_OR_RETURN(EpochPublishReport baseline,
                                 cluster.PublishEpoch(md1));
        (void)baseline;

        // Epoch 2: the swap under test, possibly killed mid-flight. A kill
        // is a coordinator crash; Recover() is the restart.
        uint64_t expected_epoch = 1;
        if (kill == SwapKillPoint::kNone) {
          ANATOMY_ASSIGN_OR_RETURN(EpochPublishReport swap,
                                   cluster.PublishEpoch(md2));
          (void)swap;
          expected_epoch = 2;
        } else {
          StatusOr<EpochPublishReport> killed =
              cluster.PublishEpoch(md2, kill);
          if (killed.ok()) {
            report.violations.push_back(tag + " kill point never fired");
          }
          const Status recovered = cluster.Recover();
          if (!recovered.ok()) {
            report.violations.push_back(tag + " recovery failed: " +
                                        recovered.ToString());
            continue;
          }
          ++report.recoveries;
          expected_epoch = (kill == SwapKillPoint::kAfterPrepare ||
                            kill == SwapKillPoint::kBeforeCommit)
                               ? 1
                               : 2;
          if (cluster.epoch() == 1) ++report.rolled_back;
          if (cluster.epoch() == 2) ++report.swapped;
        }
        CheckConsistency(cluster, expected_epoch, tag, &report.violations);

        // The reference view of whatever epoch is live, captured before any
        // fault is armed: the ground truth every response is judged against.
        StatusOr<AnatomizedTables> ref_tables = cluster.BuildMergedTables();
        if (!ref_tables.ok()) {
          report.violations.push_back(tag + " merged reference unavailable: " +
                                      ref_tables.status().ToString());
          continue;
        }
        const AnatomizedTables& ref = ref_tables.value();
        const GroupId total_groups = static_cast<GroupId>(ref.num_groups());

        // Per-node global group ranges and row counts, for honesty checks.
        struct NodeSpan {
          GroupId lo = 0, hi = 0;
          uint64_t rows = 0;
        };
        std::vector<NodeSpan> spans(cluster.num_nodes());
        GroupId offset = 0;
        for (size_t i = 0; i < cluster.num_nodes(); ++i) {
          const NodeEpochInfo& info = cluster.record().nodes[i];
          if (info.root == kInvalidPageId) continue;
          spans[i] = {offset, offset + info.group_count, info.rows};
          offset += info.group_count;
        }

        // Arm the serve-time fault mode.
        switch (fault) {
          case FaultMode::kNone:
            break;
          case FaultMode::kStalls:
            for (size_t i = 0; i < cluster.num_nodes(); ++i) {
              FaultSpec fs;
              fs.seed = SplitMix64(options.base_seed ^ 0x57A11 ^
                                   (seed << 8) ^ i);
              fs.stall_rate = 0.35;
              fs.stall_scale_us = 1500.0;
              fs.stall_alpha = 1.05;
              fs.stall_cap_us = 60'000.0;
              cluster.node(i)->fault_disk()->ReArm(fs);
            }
            break;
          case FaultMode::kTransient:
            for (size_t i = 0; i < cluster.num_nodes(); ++i) {
              FaultSpec fs;
              fs.seed = SplitMix64(options.base_seed ^ 0x7247 ^ (seed << 8) ^ i);
              fs.read_transient_rate = i == 0 ? 1.0 : 0.25;
              cluster.node(i)->fault_disk()->ReArm(fs);
            }
            break;
          case FaultMode::kCorruptRoot:
            for (size_t i = 0; i < cluster.num_nodes(); ++i) {
              const NodeEpochInfo& info = cluster.record().nodes[i];
              if (info.root == kInvalidPageId) continue;
              cluster.node(i)->base_disk()->CorruptStoredPage(info.root, 100,
                                                              0x40);
              break;  // one rotten root is the scenario
            }
            break;
        }

        DistQueryOptions qopts;
        qopts.deadline_ns = options.deadline_ns;
        qopts.seed = SplitMix64(options.base_seed ^ 0x5CA77E7 ^ seed);
        ScatterGatherEstimator estimator(&cluster, qopts);

        MixedWorkloadOptions wopts;
        wopts.base.seed = SplitMix64(options.base_seed ^ 0x11AD ^ seed);
        wopts.base.s = 0.1;
        wopts.base.num_queries = options.queries_per_scenario + 1;
        wopts.sum_fraction = 0.5;
        ANATOMY_ASSIGN_OR_RETURN(
            MixedWorkloadGenerator generator,
            MixedWorkloadGenerator::Create(md1, wopts));

        for (size_t qi = 0; qi < options.queries_per_scenario; ++qi) {
          const AggregateQuery query = generator.Next();
          const bool need_sum = query.kind == AggregateKind::kSum;
          const CanonicalFoldResult full = CanonicalFold(ScanSizeClassPartials(
              ref, query.predicates, need_sum, query.measure_qi));
          const double full_value = need_sum ? full.sum : full.count;

          ++report.queries;
          const std::string qtag = tag + " q" + std::to_string(qi);
          StatusOr<PartialEstimate> r = estimator.Estimate(query);
          if (!r.ok()) {
            ++report.unavailable;
            const StatusCode code = r.status().code();
            if (code != StatusCode::kUnavailable &&
                code != StatusCode::kFailedPrecondition) {
              report.violations.push_back(
                  qtag + " unclean error: " + r.status().ToString());
            }
            // A clean error still owes an explanation: the estimator logs a
            // query-unavailable record under the query's trace id even when
            // it has no PartialEstimate to return.
            if (ExplainsUnavailable(obs::FlightRecorder::Global().Snapshot(),
                                    estimator.last_trace_id())) {
              ++report.explained;
            } else {
              report.violations.push_back(
                  qtag + " unavailable response has no flight-recorder "
                         "query-unavailable event");
            }
            continue;
          }
          const PartialEstimate& est = r.value();

          if (est.exact) {
            ++report.exact;
            if (est.value != full_value) {
              report.violations.push_back(
                  qtag + " exact answer differs from the merged fold: got " +
                  std::to_string(est.value) + ", want " +
                  std::to_string(full_value));
            }
            if (est.lower != est.value || est.upper != est.value) {
              report.violations.push_back(qtag +
                                          " exact answer with open bounds");
            }
            continue;
          }

          ++report.partial;
          // Explanation: every degraded node of a partial answer must have a
          // matching flight-recorder event — same trace, same node, same
          // reason code. (Violation text carries the reason name but never
          // the trace id, which is a process-global counter value.)
          {
            const std::vector<obs::FlightRecord> events =
                obs::FlightRecorder::Global().Snapshot();
            bool all_explained = true;
            for (size_t i = 0; i < cluster.num_nodes(); ++i) {
              if (obs::ClassOf(est.reasons[i]) == obs::ReasonClass::kOkClass) {
                continue;
              }
              if (!ExplainsDegradedNode(events, est.trace_id,
                                        static_cast<int32_t>(i),
                                        est.reasons[i])) {
                all_explained = false;
                report.violations.push_back(
                    qtag + " node " + std::to_string(i) + " degraded (" +
                    obs::ReasonCodeName(est.reasons[i]) +
                    ") without a matching flight-recorder event");
              }
            }
            if (all_explained) ++report.explained;
          }
          // Honesty 1: covered rows/mass are the responding nodes' true
          // share, computed from the epoch record.
          uint64_t covered_rows = 0;
          std::vector<bool> group_covered(total_groups, false);
          for (size_t i = 0; i < cluster.num_nodes(); ++i) {
            if (est.reasons[i] != obs::ReasonCode::kOk) continue;
            covered_rows += spans[i].rows;
            for (GroupId g = spans[i].lo; g < spans[i].hi; ++g) {
              group_covered[g] = true;
            }
          }
          if (covered_rows != est.covered_rows) {
            report.violations.push_back(
                qtag + " covered_rows " + std::to_string(est.covered_rows) +
                " != responding nodes' " + std::to_string(covered_rows));
          }
          const double want_mass =
              cluster.total_rows() == 0
                  ? 0.0
                  : static_cast<double>(covered_rows) /
                        static_cast<double>(cluster.total_rows());
          if (est.covered_mass != want_mass) {
            report.violations.push_back(qtag + " covered_mass mislabeled");
          }
          // Honesty 2: the partial value is the EXACT fold over precisely
          // the responding nodes' groups — bit-identical, not approximate.
          const CanonicalFoldResult pf = CanonicalFold(
              ScanSizeClassPartials(ref, query.predicates, need_sum,
                                    query.measure_qi, group_covered));
          const double partial_value = need_sum ? pf.sum : pf.count;
          if (partial_value != est.value) {
            report.violations.push_back(
                qtag + " partial value is not the fold over responding "
                "nodes: got " + std::to_string(est.value) + ", want " +
                std::to_string(partial_value));
          }
          // Honesty 3: the declared bounds contain the true full answer.
          const double tol = 1e-9 * (1.0 + std::abs(full_value));
          if (full_value < est.lower - tol || full_value > est.upper + tol) {
            report.violations.push_back(
                qtag + " bounds [" + std::to_string(est.lower) + ", " +
                std::to_string(est.upper) + "] exclude the true answer " +
                std::to_string(full_value));
          }
        }

        // Repairable modes must return to exact service after heal+recover.
        // (Corrupt-root keeps its rotten bits by design: healing the device
        // does not resurrect lost data.)
        if (fault == FaultMode::kCorruptRoot) continue;
        for (size_t i = 0; i < cluster.num_nodes(); ++i) {
          cluster.node(i)->fault_disk()->Heal();
        }
        const Status healed = cluster.Recover();
        if (!healed.ok()) {
          report.violations.push_back(tag + " post-heal recovery failed: " +
                                      healed.ToString());
          continue;
        }
        CheckConsistency(cluster, expected_epoch, tag + " post-heal",
                         &report.violations);
        const AggregateQuery query = generator.Next();
        const bool need_sum = query.kind == AggregateKind::kSum;
        const CanonicalFoldResult full = CanonicalFold(ScanSizeClassPartials(
            ref, query.predicates, need_sum, query.measure_qi));
        const double full_value = need_sum ? full.sum : full.count;
        StatusOr<PartialEstimate> r = estimator.Estimate(query);
        if (!r.ok() || !r.value().exact || r.value().value != full_value) {
          report.violations.push_back(
              tag + " service did not return to exact after heal+recover");
        }
      }
    }
  }
  return report;
}

}  // namespace anatomy
