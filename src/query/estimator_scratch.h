// Per-call scratch arenas for the query estimators.
//
// Every estimator needs the same transient state while answering one query:
// a per-group accumulator of qualifying sensitive mass, the list of groups
// actually touched (so only those are re-zeroed), and bitmap workspace for
// the QI predicates. Historically this state lived in `mutable` members of
// each estimator, which made a logically-const Estimate() silently
// non-reentrant: two threads sharing one estimator corrupted each other's
// group masses and produced wrong counts. The state now lives in an
// EstimatorScratch arena that is either passed in explicitly (parallel
// callers own one arena per worker) or borrowed from a small pool (the
// single-argument Estimate() convenience overloads), so estimators are
// immutable after construction and safe to share across threads.
//
// Invariant between calls: `group_mass` is all-zero. Every estimator
// restores the zeros for the groups it touched before returning, which is
// what keeps a query O(touched) instead of O(groups). `EnsureGroupMass`
// re-establishes the invariant wholesale whenever an arena migrates between
// estimators with different group counts.

#ifndef ANATOMY_QUERY_ESTIMATOR_SCRATCH_H_
#define ANATOMY_QUERY_ESTIMATOR_SCRATCH_H_

#include <memory>
#include <mutex>
#include <vector>

#include "anatomy/partition.h"
#include "common/arena.h"
#include "query/bitmap.h"

namespace anatomy {

struct EstimatorScratch {
  /// Qualifying sensitive mass per group (S_j accumulator). All-zero
  /// between calls; sized lazily via EnsureGroupMass.
  ArenaVector<double> group_mass;
  /// Groups with nonzero group_mass this call; used to restore the zeros.
  ArenaVector<GroupId> touched_groups;
  /// Rows matching the conjunction of QI predicates.
  Bitmap qi_match;
  /// Workspace for one predicate's bitmap OR.
  Bitmap pred_bits;
  /// Dense per-group mass buffer for the group-clustered kernels. Unlike
  /// group_mass it carries no all-zero invariant: a dense pass assigns
  /// every entry before reading any, so stale contents are harmless.
  ArenaVector<uint32_t> group_mass_u32;
  /// Per-group weight mass_g / |g| for the weighted set-bit walk. Like
  /// group_mass_u32, fully assigned before use — no invariant.
  ArenaVector<double> group_weight;
  /// Per-size-class N_s and V_s accumulators of CollectSizeClassPartials,
  /// assigned at the start of each call.
  std::vector<uint64_t> class_mass_match;
  std::vector<__int128> class_mass_value;
  /// Predicate-cache leases pinning the bitmaps one call reads; refreshed
  /// at the start of the next call (see PredicateBitmapCache: a lease keeps
  /// its bitmap alive across eviction). A batched call pins every distinct
  /// predicate of the batch here for the batch's duration.
  ArenaVector<std::shared_ptr<const Bitmap>> pred_refs;
  /// Cache-less batched evaluation materializes each distinct predicate of
  /// the batch into one of these instead, handed out by NextBatchBitmap.
  /// The bitmaps (and their word capacity) outlive the batch on purpose:
  /// an earlier clear()-per-batch here re-allocated every Bitmap each call,
  /// which was the dominant steady-state churn in the batched path.
  ArenaVector<std::unique_ptr<Bitmap>> batch_storage;
  /// Bitmaps of batch_storage handed out since the last ResetBatch().
  size_t batch_used = 0;

  /// Makes group_mass an all-zero vector of `num_groups` entries. A no-op
  /// when the size already matches (the all-zero invariant holds between
  /// calls), so the steady state allocates nothing.
  void EnsureGroupMass(size_t num_groups) {
    if (group_mass.size() != num_groups) group_mass.assign(num_groups, 0.0);
  }

  /// Recycles batch_storage for a new batch. Pointers from the previous
  /// batch are invalid after this (the Bitmaps get Reset and re-used).
  void ResetBatch() { batch_used = 0; }

  /// Hands out the next batch workspace bitmap, Reset to `num_bits`. After
  /// the first batch at a given shape this allocates nothing: the Bitmap
  /// object and its word storage are both reused.
  Bitmap* NextBatchBitmap(size_t num_bits) {
    if (batch_used == batch_storage.size()) {
      batch_storage.push_back(std::make_unique<Bitmap>());
    }
    Bitmap* bm = batch_storage[batch_used++].get();
    bm->Reset(num_bits);
    return bm;
  }
};

/// A mutex-guarded freelist of scratch arenas. Estimators own one pool and
/// borrow an arena per Estimate() call, so concurrent callers of the
/// convenience overload each get a private arena while the steady state
/// (sequential or per-thread) reuses the same warm arena with zero
/// allocation. Contention is a brief push/pop; callers that care (the
/// parallel runner) bypass the pool entirely with per-worker arenas.
class ScratchPool {
 public:
  /// Move-only RAII borrow; returns the arena to the pool on destruction.
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
