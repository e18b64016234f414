// Figure 7: average relative error vs. dataset cardinality n, on OCC-5 (7a)
// and SAL-5 (7b). qd = 5, s = 5%.

#include <cstdio>

#include "bench_util.h"
#include "common/printer.h"
#include "common/rng.h"
#include "data/census_generator.h"

namespace anatomy {
namespace bench {
namespace {

void RunFamily(const Table& census, SensitiveFamily family,
               const BenchConfig& config, char subfigure) {
  ExperimentDataset full =
      ValueOrDie(MakeExperimentDataset(census, family, 5));
  Rng rng(config.seed + (family == SensitiveFamily::kOccupation ? 1 : 2));
  TablePrinter printer({"n", "generalization (%)", "anatomy (%)", "est/s"});
  for (RowId n : CardinalitySweep(config)) {
    ExperimentDataset dataset = ValueOrDie(SampleDataset(full, n, rng));
    PublishedDataset published = ValueOrDie(
        Publish(std::move(dataset), static_cast<int>(config.l), config.seed));
    ErrorPoint point = ValueOrDie(
        MeasureErrors(published, /*qd=*/5, /*s=*/0.05,
                      static_cast<size_t>(config.queries), config.seed + n));
    printer.AddRow({FormatCount(n), FormatDouble(point.generalization_pct, 2),
                    FormatDouble(point.anatomy_pct, 2),
                    FormatDouble(point.estimator_qps, 0)});
  }
  std::printf("Figure 7%c: query accuracy vs n  (%s-5, qd = 5, s = 5%%)\n",
              subfigure, FamilyName(family).c_str());
  printer.Print();
  MaybeWriteSeriesCsv(config, std::string("fig7") + subfigure, printer);
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
      "bench_fig7_error_vs_n: reproduces Figure 7 (error vs cardinality)");
  // The master table is the largest point of the sweep; smaller points are
  // uniform samples of it, exactly like the paper's setup.
  const std::vector<RowId> sweep = CardinalitySweep(config);
  const Table census = GenerateCensus(sweep.back(), config.seed);
  RunFamily(census, SensitiveFamily::kOccupation, config, 'a');
  RunFamily(census, SensitiveFamily::kSalaryClass, config, 'b');
  return 0;
}
