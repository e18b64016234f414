// Query estimation from a generalized table (Section 1.1): multidimensional
// selectivity estimation under the uniform-spread assumption, "as suggested
// in [9]".
//
// A generalized group publishes an interval per QI attribute and the exact
// sensitive value of each tuple. The number of group-j tuples with a
// qualifying sensitive value, S_j, is therefore exact; but the probability
// that such a tuple satisfies the QI predicates must be approximated by the
// fractional overlap of the predicates with the group's cell:
//   p_j = prod_i |pred_i ∩ QI_j[i]| / L(QI_j[i]) .
// The estimate sum_j p_j * S_j inherits whatever error the uniformity
// assumption commits inside each cell — the paper's Figure 1 failure mode.

#ifndef ANATOMY_QUERY_GENERALIZATION_ESTIMATOR_H_
#define ANATOMY_QUERY_GENERALIZATION_ESTIMATOR_H_

#include <vector>

#include "generalization/generalized_table.h"
#include "query/estimator_scratch.h"
#include "query/predicate.h"

namespace anatomy {

/// Immutable after construction; one instance may serve any number of
/// threads concurrently.
class GeneralizationEstimator {
 public:
  explicit GeneralizationEstimator(const GeneralizedTable& table);

  /// Re-entrant core: all per-call state lives in `scratch`.
  double Estimate(const CountQuery& query, EstimatorScratch& scratch) const;

  /// Thread-safe convenience: borrows a scratch from an internal pool.
  double Estimate(const CountQuery& query) const {
    return Estimate(query, *scratch_pool_.Acquire());
  }

 private:
  const GeneralizedTable* table_;
  /// postings_[v] = (group, count) pairs with count tuples of value v.
  std::vector<std::vector<std::pair<GroupId, uint32_t>>> postings_;
  mutable ScratchPool scratch_pool_;
};

}  // namespace anatomy

#endif  // ANATOMY_QUERY_GENERALIZATION_ESTIMATOR_H_
