// The shared estimation engine behind both anatomy estimators: group-
// clustered word-level kernels, with the original row-at-a-time path
// retained as the scalar reference.
//
// Layout (built inside the estimator — publication is untouched): QIT rows
// are permuted by Group-ID so every QI group occupies one contiguous bit
// range [group_start_[g], group_start_[g+1]) of every index bitmap. With
// the prefix-OR index on top of that permutation:
//
//   COUNT:  estimate = sum_g mass_g / |g| * matchcount_g. Sparse-mass
//           queries compute matchcount_g with one fused AndCountRange per
//           touched group; dense-mass queries either walk the folded
//           conjunction's set bits with precomputed per-group weights
//           (selective case) or run one ranged popcount per mass group
//           (broad case) — the split is kWalkDensityFactor.
//   SUM:    a per-row tail over matching rows only: the weighted set-bit
//           walk when selective, otherwise per-group
//           ForEachSetBitInRange (inlined callback, no division per row —
//           the 1/|g| weight is precomputed).
//
// Sensitive mass S_j comes from either the sparse postings walk (as
// before) or, for broad predicates, a dense pass over cumulative per-group
// histograms prefix_mass_[v][g] = sum_{u<=v} c_g(u): each predicate run is
// one vectorizable subtraction over the group axis. Both paths accumulate
// exact integers, so the (deterministic, query-only) choice between them
// never changes a result.
//
// Thread safety: immutable after construction except the internally-
// synchronized predicate-bitmap cache; one engine may serve any number of
// threads, each bringing its own EstimatorScratch.

#ifndef ANATOMY_QUERY_GROUP_KERNELS_H_
#define ANATOMY_QUERY_GROUP_KERNELS_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "anatomy/anatomized_tables.h"
#include "common/arena.h"
#include "query/bitmap_index.h"
#include "query/estimator_scratch.h"
#include "query/pred_cache.h"
#include "query/predicate.h"

namespace anatomy {

/// The value a code represents (numeric_base + code * numeric_step; for
/// categorical attributes the code itself).
int64_t IntegerValue(const AttributeDef& attr, Code code);
/// IntegerValue as a double.
double NumericValue(const AttributeDef& attr, Code code);

enum class KernelMode {
  /// The original row-at-a-time path: SetAll + AND + per-row walk with a
  /// division per matching row. Retained verbatim as the correctness
  /// reference the kernels are property-tested against (1e-9 relative).
  kScalar,
  /// Group-clustered word kernels — the default serving path.
  kGroupClustered,
};

struct EstimatorOptions {
  KernelMode mode = KernelMode::kGroupClustered;
  /// Predicate-bitmap cache (consulted only in kGroupClustered mode).
  PredicateCacheOptions predcache;
};

class AnatomyQueryEngine {
 public:
  struct CountSum {
    double count = 0.0;
    double sum = 0.0;
  };

  AnatomyQueryEngine(const AnatomizedTables& tables,
                     const EstimatorOptions& options);

  /// The COUNT/SUM core shared by AnatomyEstimator (need_sum = false) and
  /// AnatomyAggregateEstimator. `measure_qi` is the QI column whose numeric
  /// value is summed; ignored when need_sum is false.
  CountSum EstimateCountSum(const CountQuery& query, bool need_sum,
                            size_t measure_qi, EstimatorScratch& scratch) const;

  /// One query of a batch (see EstimateCountSumBatch).
  struct BatchQuery {
    const CountQuery* query = nullptr;
    bool need_sum = false;
    size_t measure_qi = 0;
  };

  /// Batched COUNT/SUM over batch[0..count), writing out[i] for batch[i].
  /// Each distinct (column, values) QI predicate appearing anywhere in the
  /// batch is materialized exactly once — through the shared cache when
  /// enabled, otherwise into batch-local storage — and then every query is
  /// evaluated with the same kernels and the same arithmetic as
  /// EstimateCountSum, so out[i] is bit-identical to the one-query-at-a-
  /// time path. Amortizes the dominant predicate-materialization pass over
  /// the group-clustered permutation across the batch.
  void EstimateCountSumBatch(const BatchQuery* batch, size_t count,
                             EstimatorScratch& scratch, CountSum* out) const;

  /// Exact number of rows matching the QI-predicate conjunction in each
  /// group. Integer-identical across kernel modes — the property-test hook
  /// for the fused popcount kernels.
  std::vector<uint64_t> GroupMatchCounts(const CountQuery& query,
                                         EstimatorScratch& scratch) const;

  /// The exact contribution of every group of one size s to a COUNT/SUM
  /// estimate. The estimate is sum_g mass_g * match_g / |g|, and Anatomize
  /// publishes at most l distinct group sizes, so it is a sum of exact
  /// integers over at most l denominators. Partials merge by integer
  /// addition per size, which is associative: any node count or merge order
  /// gives the same totals (src/dist/scatter_gather.h holds the fold).
  struct GroupAggregatePartial {
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

    bool operator==(const GroupAggregatePartial&) const = default;
  };

  /// Writes one partial per group size with N_s > 0, in ascending size, to
  /// *out (cleared first). Group-clustered mode only. This is the scatter
  /// side of the distributed estimator: one pass over the rows matching the
  /// QI conjunction, with no sort and no per-group output. The partials are
  /// exact integers, so no engine option can change them.
  void CollectSizeClassPartials(const CountQuery& query, bool need_sum,
                                size_t measure_qi, EstimatorScratch& scratch,
                                std::vector<GroupAggregatePartial>* out) const;

  const EstimatorOptions& options() const { return options_; }

 private:
  /// Batch-prepared predicate bitmaps, keyed by HashPredicateKey; chain
  /// entries compare full keys (same no-fingerprint rule as the cache).
  /// Values/bitmaps point into the caller's batch and scratch, valid for
  /// one EstimateCountSumBatch call.
  struct PreparedPredicate {
    size_t column;
    const std::vector<Code>* values;
    const Bitmap* bitmap;
  };
  using PreparedPredicateMap = std::unordered_map<
      uint64_t, ArenaVector<PreparedPredicate>, std::hash<uint64_t>,
      std::equal_to<uint64_t>,
      ArenaAllocator<std::pair<const uint64_t, ArenaVector<PreparedPredicate>>>>;

  CountSum EstimateScalar(const CountQuery& query, bool need_sum,
                          size_t measure_qi, EstimatorScratch& scratch) const;
  /// `prepared` non-null means batch mode: predicate bitmaps come from the
  /// prepared map (whose leases the batch driver owns) instead of being
  /// materialized per query.
  CountSum EstimateClustered(const CountQuery& query, bool need_sum,
                             size_t measure_qi, EstimatorScratch& scratch,
                             const PreparedPredicateMap* prepared) const;

  /// Accumulates S_j into scratch.group_mass/touched_groups via the
  /// postings. Returns false when no group has qualifying mass.
  bool AccumulateSparseMass(const AttributePredicate& spred,
                            EstimatorScratch& scratch) const;
  /// Dense S_j into scratch.group_mass_u32 (every entry assigned).
  void ComputeDenseMass(const AttributePredicate& spred,
                        EstimatorScratch& scratch) const;
  /// S_j into scratch.group_mass_u32 (every entry assigned), by the dense
  /// or the postings path, whichever costs less for this predicate.
  void ComputeGroupMass(const AttributePredicate& spred,
                        EstimatorScratch& scratch) const;
  /// Deterministic cost call between the two mass paths.
  bool UseDenseMass(const AttributePredicate& spred) const;
  /// scratch.group_weight[g] = S_g(spred) / |g| straight from the prefix
  /// histograms (dense path only): one vectorizable pass per predicate run,
  /// no intermediate mass array, so the set-bit walk pays a single load per
  /// row.
  void ComputeDenseWeights(const AttributePredicate& spred,
                           EstimatorScratch& scratch) const;

  /// One predicate's bitmap: the batch-prepared bitmap when `prepared` is
  /// non-null, else a cache lease (pinned in scratch.pred_refs) or a
  /// computation into `storage`.
  const Bitmap* OnePredicate(const AttributePredicate& pred,
                             EstimatorScratch& scratch, Bitmap& storage,
                             const PreparedPredicateMap* prepared) const;
  /// AND of preds[0..count): nullptr when count == 0, a single (possibly
  /// cached) bitmap when count == 1, otherwise materialized into
  /// scratch.qi_match with one binary AssignAnd (no SetAll pass).
  const Bitmap* FoldPredicates(const std::vector<AttributePredicate>& preds,
                               size_t count, EstimatorScratch& scratch,
                               const PreparedPredicateMap* prepared) const;

  const AnatomizedTables* tables_;
  EstimatorOptions options_;
  std::unique_ptr<BitmapIndex> qit_index_;
  /// postings_[v] = (group, count) pairs with c_group(v) = count > 0.
  ArenaVector<ArenaVector<std::pair<GroupId, uint32_t>>> postings_;
  /// Total tuples per sensitive value (the ST's published exact counts):
  /// the zero-QI COUNT fast path is one lookup per predicate value.
  ArenaVector<uint64_t> value_total_;

  // --- kGroupClustered state (empty in scalar mode) ---
  /// perm_[i] = QIT row at bit i (rows counting-sorted by Group-ID). Plain
  /// std::vector: BitmapIndex takes the permutation by std::vector pointer.
  std::vector<RowId> perm_;
  /// group_start_[g] .. group_start_[g+1]: group g's bit range.
  ArenaVector<size_t> group_start_;
  /// The group owning bit i is word_group_base_[i / 64] +
  /// bit_group_offset_[i]. The split keeps the weighted set-bit walk's
  /// per-row metadata at one byte: a 64-bit word spans at most 64 groups,
  /// so the offset from the word's first group always fits u8.
  ArenaVector<uint32_t> word_group_base_;
  ArenaVector<uint8_t> bit_group_offset_;
  /// Precomputed 1 / |g| — removes the per-row division of the scalar path.
  ArenaVector<double> inv_group_size_;
  /// class_size_ holds the distinct group sizes, ascending (at most l for
  /// an Anatomize publication); size_class_[g] indexes group g's size in it.
  std::vector<uint32_t> class_size_;
  std::vector<uint32_t> size_class_;
  /// perm_values_[qi][i] = NumericValue of QI column qi at bit i.
  ArenaVector<ArenaVector<double>> perm_values_;
  /// exact_values_[qi]: every value of column qi is an integer of magnitude
  /// <= 2^53, so perm_values_[qi] holds it exactly.
  std::vector<bool> exact_values_;
  /// prefix_mass_[v][g] = sum_{u<=v} c_g(u); empty when the sensitive
  /// domain x group count would exceed the memory gate.
  ArenaVector<ArenaVector<uint32_t>> prefix_mass_;
  /// Null when disabled (the options kill switch) or in scalar mode.
  std::unique_ptr<PredicateBitmapCache> cache_;
};

/// The row-scan oracle of AnatomyQueryEngine::CollectSizeClassPartials:
/// the same N_s and V_s from the published tables alone (no index, no
/// permutation), over the groups g with include_group[g] — every group when
/// include_group is empty (otherwise it has one entry per group).
std::vector<AnatomyQueryEngine::GroupAggregatePartial> ScanSizeClassPartials(
    const AnatomizedTables& tables, const CountQuery& query, bool need_sum,
    size_t measure_qi, const std::vector<bool>& include_group = {});

}  // namespace anatomy

#endif  // ANATOMY_QUERY_GROUP_KERNELS_H_
