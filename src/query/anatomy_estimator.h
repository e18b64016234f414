// Query estimation from anatomized tables (Section 1.2).
//
// For each QI-group j the QIT reveals the group's exact QI distribution, so
// the probability that a group-j tuple satisfies the QI predicates is the
// exact fraction p_j = |{t in QI_j : QI predicates hold}| / |QI_j|; the ST
// reveals how many group-j tuples carry a qualifying sensitive value,
// S_j = sum_{v in pred(As)} c_j(v). The estimate is sum_j p_j * S_j. No
// distribution assumption is involved — the only approximation is the loss
// of the within-group association between QI values and sensitive values,
// which is exactly what l-diversity hides.
//
// The arithmetic lives in AnatomyQueryEngine (see group_kernels.h): by
// default the group-clustered word kernels, with the original row-at-a-time
// path selectable as the scalar reference via EstimatorOptions.

#ifndef ANATOMY_QUERY_ANATOMY_ESTIMATOR_H_
#define ANATOMY_QUERY_ANATOMY_ESTIMATOR_H_

#include <vector>

#include "anatomy/anatomized_tables.h"
#include "query/estimator_scratch.h"
#include "query/group_kernels.h"
#include "query/predicate.h"

namespace anatomy {

/// Immutable after construction; one instance may serve any number of
/// threads.
class AnatomyEstimator {
 public:
  /// Builds its own bitmap index over the QIT's QI columns and per-sensitive-
  /// value postings over the ST — i.e. strictly from the published tables.
  explicit AnatomyEstimator(const AnatomizedTables& tables,
                            const EstimatorOptions& options = {});

  /// Re-entrant core: all per-call state lives in `scratch`, which the
  /// caller owns (typically one per worker thread).
  double Estimate(const CountQuery& query, EstimatorScratch& scratch) const {
    return engine_.EstimateCountSum(query, /*need_sum=*/false, 0, scratch)
        .count;
  }

  /// Thread-safe convenience: borrows a scratch from an internal pool.
  double Estimate(const CountQuery& query) const {
    return Estimate(query, *scratch_pool_.Acquire());
  }

  /// Exact rows matching the QI predicates per group (property-test hook;
  /// integer-identical across kernel modes).
  std::vector<uint64_t> GroupMatchCounts(const CountQuery& query) const {
    return engine_.GroupMatchCounts(query, *scratch_pool_.Acquire());
  }

  const EstimatorOptions& options() const { return engine_.options(); }

 private:
  AnatomyQueryEngine engine_;
  mutable ScratchPool scratch_pool_;
};

}  // namespace anatomy

#endif  // ANATOMY_QUERY_ANATOMY_ESTIMATOR_H_
