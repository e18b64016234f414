// Quickstart: the paper's running example end to end.
//
// Takes the 8-tuple hospital microdata of Table 1, builds the QIT/ST pair of
// Table 3 (both from the paper's illustrative grouping and from the actual
// Anatomize algorithm), shows the adversary's join view (Table 4), and
// answers query A of Section 1.1 from both publications.

#include <cstdio>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "anatomy/join.h"
#include "data/census.h"
#include "generalization/generalized_table.h"
#include "privacy/breach.h"
#include "query/anatomy_estimator.h"
#include "query/exact_evaluator.h"
#include "query/generalization_estimator.h"

using namespace anatomy;

namespace {

AttributePredicate RangePredicate(size_t qi_index, Code lo, Code hi) {
  std::vector<Code> values;
  for (Code v = lo; v <= hi; ++v) values.push_back(v);
  return AttributePredicate(qi_index, std::move(values));
}

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

int main() {
  const Microdata microdata = HospitalExample();
  std::printf("== The microdata (Table 1) ==\n%s\n",
              microdata.table.ToDisplayString().c_str());

  // --- The paper's grouping: tuples 1-4 and 5-8 (Tables 2 and 3). ---
  Partition paper_grouping;
  paper_grouping.AddGroup(std::vector<RowId>{0, 1, 2, 3});
  paper_grouping.AddGroup(std::vector<RowId>{4, 5, 6, 7});

  const AnatomizedTables tables =
      OrDie(AnatomizedTables::Build(microdata, paper_grouping));
  std::printf("== Quasi-identifier table, QIT (Table 3a) ==\n%s\n",
              tables.qit().ToDisplayString().c_str());
  std::printf("== Sensitive table, ST (Table 3b) ==\n%s\n",
              tables.st().ToDisplayString().c_str());

  std::printf("== Adversary's view: QIT |><| ST (Table 4, first rows) ==\n%s\n",
              JoinQitSt(tables).ToDisplayString(8).c_str());

  // --- Privacy: Bob and Alice (Sections 1.2 / 3.2). ---
  constexpr Code kFlu = 2;
  constexpr Code kPneumonia = 4;
  std::printf("Bob (tuple 1): Pr[pneumonia] = %.0f%%, Pr[flu] = %.0f%%\n",
              100 * TupleBreachProbability(tables, 0, kPneumonia),
              100 * TupleBreachProbability(tables, 0, kFlu));
  std::printf("Alice (65, F, 25000): Pr[flu] = %.0f%%  (Theorem 1: <= 1/l)\n\n",
              100 * IndividualBreachProbability(tables, {65, 0, 25}, kFlu));

  // --- Query A (Section 1.1): COUNT(*) WHERE Disease = pneumonia
  //     AND Age <= 30 AND Zipcode IN [10001, 20000]. ---
  CountQuery query_a;
  query_a.qi_predicates.push_back(RangePredicate(0, 0, 30));
  query_a.qi_predicates.push_back(RangePredicate(2, 11, 20));
  query_a.sensitive_predicate = AttributePredicate(0, {kPneumonia});

  ExactEvaluator exact(microdata);
  AnatomyEstimator anatomy_estimator(tables);
  const GeneralizedTable generalized = OrDie(GeneralizedTable::Build(
      microdata, paper_grouping, TaxonomySet::AllFree(microdata.table.schema())));
  GeneralizationEstimator generalization_estimator(generalized);

  std::printf("== Query A: %s ==\n", query_a.ToString(microdata).c_str());
  std::printf("  actual answer      : %llu\n",
              static_cast<unsigned long long>(exact.Count(query_a)));
  std::printf("  anatomy estimate   : %.3f   (exact: the QIT releases the "
              "QI distribution)\n",
              anatomy_estimator.Estimate(query_a));
  std::printf("  generalization est.: %.3f   (the Figure 1 uniformity "
              "error)\n\n",
              generalization_estimator.Estimate(query_a));

  // --- The actual algorithm (Figure 3), 2-diverse. ---
  Anatomizer anatomizer(AnatomizerOptions{.l = 2, .seed = 2024});
  const Partition computed = OrDie(anatomizer.ComputePartition(microdata));
  const AnatomizedTables computed_tables =
      OrDie(AnatomizedTables::Build(microdata, computed));
  std::printf("== Anatomize (Figure 3) with l = 2 ==\n");
  std::printf("  groups: %zu (each with distinct diseases; Property 3)\n",
              computed.num_groups());
  std::printf("  worst-case breach: %.0f%% (Corollary 1: <= 1/l = 50%%)\n",
              100 * MaxTupleBreachProbability(computed_tables));
  std::printf("%s", computed_tables.qit().ToDisplayString().c_str());
  return 0;
}
