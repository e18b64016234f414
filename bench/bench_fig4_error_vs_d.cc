// Figure 4: average relative error vs. the number d of QI attributes,
// for OCC-d (4a) and SAL-d (4b). Workload: qd = d, s = 5% (Table 7).

#include <cstdio>

#include "bench_util.h"
#include "common/printer.h"
#include "data/census_generator.h"

namespace anatomy {
namespace bench {
namespace {

void RunFamily(const Table& census, SensitiveFamily family,
               const BenchConfig& config, char subfigure) {
  TablePrinter printer({"d", "generalization (%)", "anatomy (%)", "est/s"});
  for (int d = 3; d <= 7; ++d) {
    ExperimentDataset dataset =
        ValueOrDie(MakeExperimentDataset(census, family, d));
    PublishedDataset published = ValueOrDie(
        Publish(std::move(dataset), static_cast<int>(config.l), config.seed));
    ErrorPoint point = ValueOrDie(
        MeasureErrors(published, /*qd=*/d, /*s=*/0.05,
                      static_cast<size_t>(config.queries),
                      config.seed + static_cast<uint64_t>(d)));
    printer.AddRow({std::to_string(d), FormatDouble(point.generalization_pct, 2),
                    FormatDouble(point.anatomy_pct, 2),
                    FormatDouble(point.estimator_qps, 0)});
  }
  std::printf("Figure 4%c: query accuracy vs d  (%s-d, qd = d, s = 5%%)\n",
              subfigure, FamilyName(family).c_str());
  printer.Print();
  MaybeWriteSeriesCsv(config, std::string("fig4") + subfigure, printer);
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
      "bench_fig4_error_vs_d: reproduces Figure 4 (error vs dimensionality)");
  const Table census =
      GenerateCensus(static_cast<RowId>(config.n), config.seed);
  RunFamily(census, SensitiveFamily::kOccupation, config, 'a');
  RunFamily(census, SensitiveFamily::kSalaryClass, config, 'b');
  return 0;
}
