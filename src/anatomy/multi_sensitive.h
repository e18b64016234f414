// Extension: anatomy with multiple sensitive attributes (Section 7 of the
// paper names this as future work).
//
// A partition is simultaneously l-diverse when Definition 2 holds for every
// sensitive attribute. We publish one QIT plus one ST per sensitive
// attribute; Theorem 1's argument then bounds the breach probability of each
// attribute by 1/l independently (the STs share only the Group-ID, so an
// adversary's per-attribute inference reduces to the single-attribute case).
//
// Finding such a partition is harder than the single-attribute case and the
// greedy algorithm below is a heuristic: it extends Anatomize's
// largest-bucket strategy on a primary attribute with conflict checks on the
// others, building groups of l tuples whose sensitive values are pairwise
// distinct on every attribute. It can fail on adversarial inputs even when a
// simultaneous l-diverse partition exists; failures are reported as Status,
// never as a silently weaker guarantee.

#ifndef ANATOMY_ANATOMY_MULTI_SENSITIVE_H_
#define ANATOMY_ANATOMY_MULTI_SENSITIVE_H_

#include <vector>

#include "anatomy/partition.h"
#include "common/status.h"
#include "table/table.h"

namespace anatomy {

/// Microdata with several sensitive attributes.
struct MultiMicrodata {
  Table table;
  std::vector<size_t> qi_columns;
  std::vector<size_t> sensitive_columns;

  RowId n() const { return table.num_rows(); }
  Status Validate() const;

  /// View of this microdata with a single sensitive attribute (index into
  /// sensitive_columns), for per-attribute checks.
  Microdata WithSensitive(size_t which) const;
};

struct MultiAnatomizerOptions {
  int l = 10;
  uint64_t seed = 1;
};

class MultiAnatomizer {
 public:
  explicit MultiAnatomizer(const MultiAnatomizerOptions& options);

  /// Greedy simultaneous partition. Fails with FailedPrecondition when some
  /// attribute is not l-eligible, and also when the heuristic strands a
  /// tuple no group can absorb: an outcome of the data, which can happen
  /// even when a simultaneous l-diverse partition exists.
  StatusOr<Partition> ComputePartition(const MultiMicrodata& microdata) const;

 private:
  MultiAnatomizerOptions options_;
};

/// Checks Definition 2 for every sensitive attribute.
Status ValidateMultiLDiverse(const MultiMicrodata& microdata,
                             const Partition& partition, int l);

/// Builds the per-attribute sensitive tables (Group-ID, As_i, Count).
std::vector<Table> BuildMultiSt(const MultiMicrodata& microdata,
                                const Partition& partition);

}  // namespace anatomy

#endif  // ANATOMY_ANATOMY_MULTI_SENSITIVE_H_
