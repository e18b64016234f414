// census_analysis: the paper's Section 6 evaluation in miniature.
//
// Generates the synthetic CENSUS stand-in, derives OCC-5, publishes it with
// both anatomy and l-diverse generalization, and reports workload accuracy,
// reconstruction error, and privacy verification — the full researcher
// workflow against published (not raw) tables.

#include <cstdio>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "anatomy/eligibility.h"
#include "anatomy/rce.h"
#include "common/flags.h"
#include "common/printer.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "generalization/generalized_table.h"
#include "generalization/info_loss.h"
#include "generalization/mondrian.h"
#include "privacy/breach.h"
#include "privacy/ldiversity.h"
#include "workload/runner.h"

using namespace anatomy;

namespace {

void Die(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T OrDie(StatusOr<T> value) {
  if (!value.ok()) Die(value.status());
  return std::move(value).value();
}

}  // namespace

int main(int argc, char** argv) {
  int64_t n = 50000;
  int64_t l = 10;
  int64_t queries = 500;
  FlagParser parser;
  parser.AddInt64("n", &n, "CENSUS cardinality", 100, 10'000'000);
  parser.AddInt64("l", &l, "privacy parameter", 2, 1000);
  parser.AddInt64("queries", &queries, "workload size", 1, 1'000'000);
  const Status flag_status = parser.Parse(argc, argv);
  if (!flag_status.ok()) {
    std::fprintf(stderr, "%s\n%s", flag_status.ToString().c_str(),
                 parser.Usage(argv[0]).c_str());
    return 2;
  }
  if (parser.help_requested()) {
    std::printf("%s", parser.Usage(argv[0]).c_str());
    return 0;
  }

  std::printf("Generating CENSUS stand-in: n = %lld ...\n",
              static_cast<long long>(n));
  const Table census = GenerateCensus(static_cast<RowId>(n), 42);
  ExperimentDataset dataset = OrDie(
      MakeExperimentDataset(census, SensitiveFamily::kOccupation, 5));
  const Microdata& md = dataset.microdata;

  // A publisher first checks how much diversity the data can support.
  std::printf("dataset %s: d = %zu, max eligible l = %d (running at l = %lld)\n\n",
              dataset.name.c_str(), md.d(), MaxEligibleL(md),
              static_cast<long long>(l));
  Die(CheckEligibility(md, static_cast<int>(l)));

  // --- Publish with anatomy. ---
  Anatomizer anatomizer(
      AnatomizerOptions{.l = static_cast<int>(l), .seed = 1});
  const Partition anatomy_partition = OrDie(anatomizer.ComputePartition(md));
  const AnatomizedTables anatomized =
      OrDie(AnatomizedTables::Build(md, anatomy_partition));
  Die(VerifyAnatomizedLDiversity(anatomized, static_cast<int>(l)));

  // --- Publish with l-diverse multidimensional generalization. ---
  Mondrian mondrian(MondrianOptions{static_cast<int>(l)});
  const Partition general_partition =
      OrDie(mondrian.ComputePartition(md, dataset.taxonomies));
  const GeneralizedTable generalized =
      OrDie(GeneralizedTable::Build(md, general_partition, dataset.taxonomies));
  Die(VerifyGeneralizedLDiversity(generalized, static_cast<int>(l)));

  std::printf("published artifacts (both verified %lld-diverse):\n",
              static_cast<long long>(l));
  std::printf("  anatomy        : QIT %u rows + ST %u records in %zu groups\n",
              anatomized.qit().num_rows(), anatomized.st().num_rows(),
              anatomized.num_groups());
  std::printf("  generalization : %u interval-coded tuples in %zu cells\n\n",
              generalized.num_rows(), generalized.num_groups());

  // --- Reconstruction error (Section 4). ---
  TablePrinter rce({"metric", "anatomy", "generalization"});
  rce.AddRow({"RCE", FormatDouble(AnatomyRce(anatomized), 1),
              FormatDouble(GeneralizedRce(generalized), 1)});
  rce.AddRow({"RCE lower bound n(1-1/l)",
              FormatDouble(RceLowerBound(md.n(), static_cast<int>(l)), 1),
              "-"});
  rce.AddRow({"worst-case breach probability",
              FormatPercent(MaxTupleBreachProbability(anatomized), 1),
              "<= 1/l by construction"});
  rce.Print();
  std::printf("\n");

  // --- Aggregate analysis accuracy (Section 6.1). ---
  TablePrinter accuracy({"workload", "generalization err",
                         "anatomy err"});
  for (const auto& [qd, s] : std::vector<std::pair<int, double>>{
           {2, 0.05}, {5, 0.05}, {5, 0.10}}) {
    WorkloadOptions options;
    options.qd = qd;
    options.s = s;
    options.num_queries = static_cast<size_t>(queries);
    options.seed = 7 + static_cast<uint64_t>(qd);
    const WorkloadResult result =
        OrDie(RunWorkload(md, anatomized, generalized, options));
    accuracy.AddRow({"qd=" + std::to_string(qd) + ", s=" + FormatPercent(s),
                     FormatPercent(result.generalization_error, 1),
                     FormatPercent(result.anatomy_error, 1)});
  }
  accuracy.Print();
  std::printf(
      "\nAnatomy answers aggregate queries from the published tables with a\n"
      "fraction of generalization's error, at the same 1/l privacy bound.\n");
  return 0;
}
