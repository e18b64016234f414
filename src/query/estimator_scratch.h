// Per-call scratch state for the query estimators.
//
// Every estimator needs the same transient state while answering one query:
// a per-group accumulator of qualifying sensitive mass, the list of groups
// actually touched (so only those are re-zeroed), and bitmap workspace for
// the QI predicates. Historically this state lived in `mutable` members of
// each estimator, which made a logically-const Estimate() silently
// non-reentrant: two threads sharing one estimator corrupted each other's
// group masses and produced wrong counts. The state now lives in an
// EstimatorScratch that is either passed in explicitly (parallel callers
// own one per worker) or borrowed from a small pool (the single-argument
// Estimate() convenience overloads), so estimators are immutable after
// construction and safe to share across threads. Every buffer keeps its
// capacity between calls, so a warm scratch answers without allocating.
//
// Invariant between calls: `group_mass` is all-zero. Every estimator
// restores the zeros for the groups it touched before returning, which is
// what keeps a query O(touched) instead of O(groups). `EnsureGroupMass`
// re-establishes the invariant wholesale whenever a scratch migrates
// between estimators with different group counts.

#ifndef ANATOMY_QUERY_ESTIMATOR_SCRATCH_H_
#define ANATOMY_QUERY_ESTIMATOR_SCRATCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "anatomy/partition.h"
#include "query/bitmap.h"

namespace anatomy {

/// The exact contribution of every group of one size s to a COUNT/SUM
/// estimate: the unit AnatomyQueryEngine returns, a node ships, and
/// CanonicalFold adds (AnatomyQueryEngine::GroupAggregatePartial names it;
/// see group_kernels.h). Defined here because the scratch holds a buffer of
/// them.
struct SizeClassPartial {
  /// s = |g| of every group this partial covers.
  uint32_t size = 0;
  /// N_s = sum over groups of size s of mass_g * match_g, where mass_g is
  /// the group's qualifying sensitive mass and match_g its rows matching
  /// the QI conjunction. Both are at most s, so N_s <= s * n < 2^64.
  uint64_t mass_match = 0;
  /// V_s = sum over the same groups of mass_g * (sum of the measure over
  /// g's matching rows); 0 for COUNT. Measure values are int64, so
  /// |V_s| <= 2^63 * N_s < 2^127: no schema can overflow it.
  __int128 mass_value = 0;

  bool operator==(const SizeClassPartial&) const = default;
};

/// One run of a QI predicate as the query kernel reads it: the rows are
/// hi AND NOT lo, word by word (lo null: hi alone).
struct PredicateRun {
  const uint64_t* hi = nullptr;
  const uint64_t* lo = nullptr;
};

struct EstimatorScratch {
  /// Qualifying sensitive mass per group (S_j accumulator). All-zero
  /// between calls; sized lazily via EnsureGroupMass.
  std::vector<double> group_mass;
  /// Groups with nonzero group_mass this call; used to restore the zeros.
  std::vector<GroupId> touched_groups;
  /// Rows matching the conjunction of QI predicates (scalar reference).
  Bitmap qi_match;
  /// Workspace for one predicate's bitmap OR (scalar reference).
  Bitmap pred_bits;
  /// Dense per-group mass buffer for the group-clustered kernel. Unlike
  /// group_mass it carries no all-zero invariant: every entry is assigned
  /// before any is read, so stale contents are harmless.
  std::vector<uint32_t> group_mass_u32;
  /// The QI conjunction of one query as the block kernel reads it: the
  /// runs of predicate p are qi_runs[qi_run_end[p-1] .. qi_run_end[p]).
  std::vector<PredicateRun> qi_runs;
  std::vector<uint32_t> qi_run_end;
  /// Per-size-class N_s and V_s accumulators of the block kernel, assigned
  /// at the start of each call.
  std::vector<uint64_t> class_mass_match;
  std::vector<__int128> class_mass_value;
  /// The size-class partials of the last single-node estimate.
  std::vector<SizeClassPartial> partials;

  /// Makes group_mass an all-zero vector of `num_groups` entries. A no-op
  /// when the size already matches (the all-zero invariant holds between
  /// calls), so the steady state allocates nothing.
  void EnsureGroupMass(size_t num_groups) {
    if (group_mass.size() != num_groups) group_mass.assign(num_groups, 0.0);
  }
};

/// A mutex-guarded freelist of scratches. Estimators own one pool and
/// borrow a scratch per Estimate() call, so concurrent callers of the
/// convenience overload each get a private scratch while the steady state
/// (sequential or per-thread) reuses the same warm scratch with zero
/// allocation. Contention is a brief push/pop; callers that care (the
/// parallel runner) bypass the pool entirely with per-worker scratches.
class ScratchPool {
 public:
  /// Move-only RAII borrow; returns the scratch to the pool on destruction.
  class Lease {
   public:
    Lease(ScratchPool* pool, std::unique_ptr<EstimatorScratch> scratch)
        : pool_(pool), scratch_(std::move(scratch)) {}
    ~Lease() {
      if (scratch_ != nullptr) pool_->Release(std::move(scratch_));
    }
    Lease(Lease&&) = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    EstimatorScratch& operator*() { return *scratch_; }
    EstimatorScratch* operator->() { return scratch_.get(); }

   private:
    ScratchPool* pool_;
    std::unique_ptr<EstimatorScratch> scratch_;
  };

  Lease Acquire() {
    std::unique_ptr<EstimatorScratch> scratch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        scratch = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (scratch == nullptr) scratch = std::make_unique<EstimatorScratch>();
    return Lease(this, std::move(scratch));
  }

 private:
  friend class Lease;

  void Release(std::unique_ptr<EstimatorScratch> scratch) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<EstimatorScratch>> free_;
};

}  // namespace anatomy

#endif  // ANATOMY_QUERY_ESTIMATOR_SCRATCH_H_
