// Ablation bench for the design choices DESIGN.md calls out:
//
//   A. Reconstruction-error quality (Theorems 2/4): Anatomize's RCE against
//      the lower bound n(1 - 1/l) across l, next to generalization's RCE.
//   B. Why anatomy wins (estimator ablation): the same anatomized grouping
//      estimated (i) with the exact per-group QI distribution (the anatomy
//      estimator) and (ii) under the uniform-spread assumption over the
//      groups' bounding cells. The grouping is identical, so the entire
//      accuracy gap comes from releasing the QI values exactly.
//   C. Bucket policy (Figure 3's largest-l selection vs. naive round-robin):
//      feasibility and residue behaviour on skewed inputs.

#include <cstdio>

#include "anatomy/anatomizer.h"
#include "anatomy/rce.h"
#include "bench_util.h"
#include "common/printer.h"
#include "common/rng.h"
#include "data/census_generator.h"
#include "generalization/info_loss.h"
#include "generalization/mondrian.h"
#include "query/generalization_estimator.h"
#include "workload/runner.h"

namespace anatomy {
namespace bench {
namespace {

void RunRceTable(const Table& census, const BenchConfig& config) {
  TablePrinter printer({"l", "lower bound n(1-1/l)", "anatomy RCE",
                        "anatomy/bound", "generalization RCE"});
  ExperimentDataset base = ValueOrDie(
      MakeExperimentDataset(census, SensitiveFamily::kOccupation, 5));
  const RowId n = base.microdata.n();
  for (int l : {2, 5, 10, 20}) {
    PublishedDataset published =
        ValueOrDie(Publish(base, l, config.seed + static_cast<uint64_t>(l)));
    const double bound = RceLowerBound(n, l);
    const double anatomy_rce = AnatomyRce(published.anatomized);
    const double general_rce = GeneralizedRce(published.generalized);
    printer.AddRow({std::to_string(l), FormatDouble(bound, 1),
                    FormatDouble(anatomy_rce, 1),
                    FormatDouble(anatomy_rce / bound, 6),
                    FormatDouble(general_rce, 1)});
  }
  std::printf(
      "Ablation A: RCE vs the Theorem 2 lower bound (OCC-5, n = %u)\n"
      "(Theorem 4: the anatomy/bound ratio is at most 1 + 1/n)\n",
      n);
  printer.Print();
  std::printf("\n");
}

void RunEstimatorAblation(const Table& census, const BenchConfig& config) {
  ExperimentDataset dataset = ValueOrDie(
      MakeExperimentDataset(census, SensitiveFamily::kOccupation, 5));
  const int l = static_cast<int>(config.l);
  PublishedDataset published =
      ValueOrDie(Publish(std::move(dataset), l, config.seed));
  const Microdata& md = published.dataset.microdata;

  // Uniform-spread view of the *anatomy* partition: rebuild the groups from
  // the anatomized tables and treat each as a generalized cell.
  std::vector<std::vector<RowId>> groups(published.anatomized.num_groups());
  for (RowId r = 0; r < md.n(); ++r) {
    groups[published.anatomized.group_of_row(r)].push_back(r);
  }
  Partition anatomy_partition;
  for (const std::vector<RowId>& group : groups) {
    anatomy_partition.AddGroup(group);
  }
  GeneralizedTable smeared = ValueOrDie(GeneralizedTable::Build(
      md, anatomy_partition, published.dataset.taxonomies));

  WorkloadOptions options;
  options.qd = 0;
  options.s = 0.05;
  options.num_queries = static_cast<size_t>(config.queries);
  options.seed = config.seed + 77;

  AnatomyEstimator exact_qi(published.anatomized);
  GeneralizationEstimator smeared_qi(smeared);
  GeneralizationEstimator mondrian_qi(published.generalized);

  const double anatomy_err = ValueOrDie(RunWorkloadAgainst(
      md, options, [&](const CountQuery& q) { return exact_qi.Estimate(q); }));
  const double smeared_err = ValueOrDie(RunWorkloadAgainst(
      md, options,
      [&](const CountQuery& q) { return smeared_qi.Estimate(q); }));
  const double mondrian_err = ValueOrDie(RunWorkloadAgainst(
      md, options,
      [&](const CountQuery& q) { return mondrian_qi.Estimate(q); }));

  TablePrinter printer({"estimator", "avg relative error (%)"});
  printer.AddRow({"anatomy groups + exact QI release (anatomy)",
                  FormatDouble(anatomy_err * 100, 2)});
  printer.AddRow({"anatomy groups + uniform-spread cells",
                  FormatDouble(smeared_err * 100, 2)});
  printer.AddRow({"Mondrian cells + uniform spread (generalization)",
                  FormatDouble(mondrian_err * 100, 2)});
  std::printf(
      "Ablation B: where anatomy's accuracy comes from (OCC-5, qd = 5, "
      "s = 5%%)\n"
      "(same grouping, different QI release: exact values vs. smeared "
      "cells)\n");
  printer.Print();
  std::printf("\n");
}

void RunBucketPolicyAblation(const BenchConfig& config) {
  // Skewed eligible inputs: one sensitive value at exactly n/l, the rest
  // uniform. The paper's largest-first policy always succeeds with <= l-1
  // residues; round-robin drains small buckets first and can strand tuples.
  TablePrinter printer({"skew case", "largest-first", "round-robin"});
  const int l = static_cast<int>(config.l);
  for (int kase = 0; kase < 4; ++kase) {
    const RowId n = 10000 + static_cast<RowId>(kase) * 3; // exercise residues
    Rng rng(config.seed + static_cast<uint64_t>(kase));
    std::vector<AttributeDef> defs;
    defs.push_back(MakeNumerical("X", 64));
    defs.push_back(MakeCategorical("S", 40));
    Microdata md;
    md.table = Table(std::make_shared<Schema>(std::move(defs)));
    const RowId heavy = n / static_cast<RowId>(l);
    for (RowId i = 0; i < n; ++i) {
      const Code s = i < heavy
                         ? 0
                         : static_cast<Code>(1 + rng.NextBounded(39));
      const Code row[2] = {static_cast<Code>(rng.NextBounded(64)), s};
      md.table.AppendRow(row);
    }
    md.qi_columns = {0};
    md.sensitive_column = 1;

    Anatomizer anatomizer(AnatomizerOptions{
        .l = l, .seed = static_cast<uint64_t>(config.seed) + 5});
    auto report = [&](BucketPolicy policy) -> std::string {
      auto partition = anatomizer.ComputePartitionWithPolicy(md, policy);
      if (!partition.ok()) return "FAILS (" + std::string(StatusCodeName(
                                      partition.status().code())) + ")";
      if (!partition.value().ValidateLDiverse(md, l).ok()) {
        return "NOT l-DIVERSE";
      }
      return "ok, RCE/bound = " +
             FormatDouble(
                 AnatomyRce(ValueOrDie(AnatomizedTables::Build(
                     md, partition.value()))) /
                     RceLowerBound(n, l),
                 6);
    };
    printer.AddRow({"n=" + std::to_string(n) + ", max-freq = n/l",
                    report(BucketPolicy::kLargestFirst),
                    report(BucketPolicy::kRoundRobin)});
  }
  std::printf(
      "Ablation C: Figure 3's largest-l bucket selection vs round-robin\n");
  printer.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace anatomy

int main(int argc, char** argv) {
  using namespace anatomy;
  using namespace anatomy::bench;
  const BenchConfig config = ParseBenchFlags(
      argc, argv,
      "bench_rce_quality: RCE quality (Theorems 2/4) and design-choice "
      "ablations");
  const Table census =
      GenerateCensus(static_cast<RowId>(config.n), config.seed);
  RunRceTable(census, config);
  RunEstimatorAblation(census, config);
  RunBucketPolicyAblation(config);
  return 0;
}
