// Ground-truth COUNT(*) evaluation on the microdata (the `act` of the
// paper's relative-error metric |act - est| / act).

#ifndef ANATOMY_QUERY_EXACT_EVALUATOR_H_
#define ANATOMY_QUERY_EXACT_EVALUATOR_H_

#include <memory>

#include "query/bitmap_index.h"
#include "query/estimator_scratch.h"
#include "query/predicate.h"
#include "table/table.h"

namespace anatomy {

/// Immutable after construction; one instance may serve any number of
/// threads concurrently.
class ExactEvaluator {
 public:
  /// Builds a bitmap index over all QI columns and the sensitive column.
  explicit ExactEvaluator(const Microdata& microdata);

  /// Re-entrant core: bitmap workspace lives in `scratch`, so repeated calls
  /// with a warm scratch allocate nothing.
  uint64_t Count(const CountQuery& query, EstimatorScratch& scratch) const;

  /// Thread-safe convenience: borrows a scratch from an internal pool.
  uint64_t Count(const CountQuery& query) const {
    return Count(query, *scratch_pool_.Acquire());
  }

 private:
  const Microdata* microdata_;
  std::unique_ptr<BitmapIndex> index_;
  mutable ScratchPool scratch_pool_;
};

/// Reference implementation: a full table scan. O(n * predicates); used by
/// tests to validate the bitmap path.
uint64_t CountByScan(const Microdata& microdata, const CountQuery& query);

}  // namespace anatomy

#endif  // ANATOMY_QUERY_EXACT_EVALUATOR_H_
