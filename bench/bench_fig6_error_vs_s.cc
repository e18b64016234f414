// Figure 6: average relative error vs. expected selectivity s, for
// d in {3, 5, 7} on OCC-d (6a/c/e) and SAL-d (6b/d/f). qd = d.

#include <cstdio>

#include "bench_util.h"
#include "common/printer.h"
#include "data/census_generator.h"

namespace anatomy {
namespace bench {
namespace {

constexpr double kSelectivities[] = {0.01, 0.04, 0.07, 0.10};

void RunPanel(const Table& census, SensitiveFamily family, int d,
              const BenchConfig& config, const char* label) {
  ExperimentDataset dataset =
      ValueOrDie(MakeExperimentDataset(census, family, d));
  PublishedDataset published = ValueOrDie(
      Publish(std::move(dataset), static_cast<int>(config.l), config.seed));
  TablePrinter printer({"s", "generalization (%)", "anatomy (%)", "est/s"});
  for (double s : kSelectivities) {
    ErrorPoint point = ValueOrDie(MeasureErrors(
        published, /*qd=*/d, s, static_cast<size_t>(config.queries),
        config.seed + static_cast<uint64_t>(1000 * d + 100 * s)));
    printer.AddRow({FormatPercent(s), FormatDouble(point.generalization_pct, 2),
                    FormatDouble(point.anatomy_pct, 2),
                    FormatDouble(point.estimator_qps, 0)});
  }
  std::printf("Figure 6%s: query accuracy vs s  (%s-%d, qd = d)\n", label,
              FamilyName(family).c_str(), d);
  printer.Print();
  MaybeWriteSeriesCsv(config, std::string("fig6") + label, printer);
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
      "bench_fig6_error_vs_s: reproduces Figure 6 (error vs selectivity)");
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
