// Figure 5: average relative error vs. query dimensionality qd, for
// d in {3, 5, 7} on OCC-d (5a/c/e) and SAL-d (5b/d/f). s = 5%.

#include <cstdio>

#include "bench_util.h"
#include "common/printer.h"
#include "data/census_generator.h"

namespace anatomy {
namespace bench {
namespace {

void RunPanel(const Table& census, SensitiveFamily family, int d,
              const BenchConfig& config, const char* label) {
  ExperimentDataset dataset =
      ValueOrDie(MakeExperimentDataset(census, family, d));
  PublishedDataset published = ValueOrDie(
      Publish(std::move(dataset), static_cast<int>(config.l), config.seed));
  TablePrinter printer({"qd", "generalization (%)", "anatomy (%)", "est/s"});
  for (int qd = 1; qd <= d; ++qd) {
    ErrorPoint point = ValueOrDie(
        MeasureErrors(published, qd, /*s=*/0.05,
                      static_cast<size_t>(config.queries),
                      config.seed + static_cast<uint64_t>(100 * d + qd)));
    printer.AddRow({std::to_string(qd),
                    FormatDouble(point.generalization_pct, 2),
                    FormatDouble(point.anatomy_pct, 2),
                    FormatDouble(point.estimator_qps, 0)});
  }
  std::printf("Figure 5%s: query accuracy vs qd  (%s-%d, s = 5%%)\n", label,
              FamilyName(family).c_str(), d);
  printer.Print();
  MaybeWriteSeriesCsv(config, std::string("fig5") + label, printer);
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
      "bench_fig5_error_vs_qd: reproduces Figure 5 (error vs query "
      "dimensionality)");
  const Table census =
      GenerateCensus(static_cast<RowId>(config.n), config.seed);
  RunPanel(census, SensitiveFamily::kOccupation, 3, config, "a");
  RunPanel(census, SensitiveFamily::kSalaryClass, 3, config, "b");
  RunPanel(census, SensitiveFamily::kOccupation, 5, config, "c");
  RunPanel(census, SensitiveFamily::kSalaryClass, 5, config, "d");
  RunPanel(census, SensitiveFamily::kOccupation, 7, config, "e");
  RunPanel(census, SensitiveFamily::kSalaryClass, 7, config, "f");
  return 0;
}
