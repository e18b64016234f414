// Aggregate queries beyond COUNT(*): SUM and AVG of a numerical QI attribute
// over the tuples matching the predicates.
//
// The paper evaluates COUNT; SUM/AVG follow the same estimation logic and
// are the natural next step for "effective data analysis" (Section 7). For
// anatomy the measure values are published exactly in the QIT, so a matching
// tuple contributes its true value weighted by the probability S_j/|QI_j|
// that its sensitive value qualifies; for generalization the measure is
// smeared across the cell, so the estimator uses the conditional mean of the
// cell interval (restricted to the measure's own predicate, if any).

#ifndef ANATOMY_QUERY_AGGREGATE_H_
#define ANATOMY_QUERY_AGGREGATE_H_

#include <memory>

#include "anatomy/anatomized_tables.h"
#include "generalization/generalized_table.h"
#include "query/estimator_scratch.h"
#include "query/group_kernels.h"
#include "query/predicate.h"
#include "table/table.h"

namespace anatomy {

enum class AggregateKind {
  kCount,
  kSum,
  kAvg,
};

struct AggregateQuery {
  /// Predicates (QI + sensitive), as in the COUNT workload.
  CountQuery predicates;
  AggregateKind kind = AggregateKind::kCount;
  /// QI attribute whose numeric value is aggregated (ignored for kCount).
  size_t measure_qi = 0;
};

// NumericValue (the code -> real-value mapping) lives in group_kernels.h.

/// Ground truth by table scan. AVG over an empty match set is 0.
double ExactAggregate(const Microdata& microdata, const AggregateQuery& query);

/// Aggregate estimation from anatomized tables. Immutable after
/// construction; safe to share across threads. Delegates to AnatomyQueryEngine, so COUNT answers
/// are bit-identical to AnatomyEstimator's under the same options.
class AnatomyAggregateEstimator {
 public:
  explicit AnatomyAggregateEstimator(const AnatomizedTables& tables,
                                     const EstimatorOptions& options = {});

  /// Re-entrant core: all per-call state lives in `scratch`.
  double Estimate(const AggregateQuery& query, EstimatorScratch& scratch) const;

  /// Thread-safe convenience: borrows a scratch from an internal pool.
  double Estimate(const AggregateQuery& query) const {
    return Estimate(query, *scratch_pool_.Acquire());
  }

  /// Exact rows matching the QI predicates per group (property-test hook).
  std::vector<uint64_t> GroupMatchCounts(const CountQuery& query) const {
    return engine_.GroupMatchCounts(query, *scratch_pool_.Acquire());
  }

  const EstimatorOptions& options() const { return engine_.options(); }

 private:
  AnatomyQueryEngine engine_;
  mutable ScratchPool scratch_pool_;
};

/// Aggregate estimation from a generalized table. Immutable after
/// construction; safe to share across threads.
class GeneralizationAggregateEstimator {
 public:
  GeneralizationAggregateEstimator(const GeneralizedTable& table,
                                   const Microdata& microdata);

  /// Re-entrant core: all per-call state lives in `scratch`.
  double Estimate(const AggregateQuery& query, EstimatorScratch& scratch) const;

  /// Thread-safe convenience: borrows a scratch from an internal pool.
  double Estimate(const AggregateQuery& query) const {
    return Estimate(query, *scratch_pool_.Acquire());
  }

 private:
  struct CountSum {
    double count = 0.0;
    double sum = 0.0;
  };
  CountSum EstimateCountSum(const AggregateQuery& query,
                            EstimatorScratch& scratch) const;

  const GeneralizedTable* table_;
  /// QI attribute definitions (for the numeric mapping of measures).
  std::vector<AttributeDef> qi_attributes_;
  std::vector<std::vector<std::pair<GroupId, uint32_t>>> postings_;
  mutable ScratchPool scratch_pool_;
};

}  // namespace anatomy

#endif  // ANATOMY_QUERY_AGGREGATE_H_
