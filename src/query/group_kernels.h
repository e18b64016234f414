// The shared estimation engine behind both anatomy estimators: one exact-
// integer block kernel over a group-clustered layout, with the original
// row-at-a-time path retained as the scalar reference.
//
// Layout (built inside the estimator — publication is untouched): QIT rows
// are permuted by Group-ID so every QI group occupies one contiguous bit
// range [group_start_[g], group_start_[g+1]) of every index bitmap, and
// every QI column is copied in that order at u8 when its domain fits, else
// at u32. Those copies and the per-group arrays sit packed in one huge-page
// block per engine (EngineLayout; DESIGN.md §11).
//
// The estimate is sum_g mass_g * match_g / |g|. Anatomize publishes at most
// l distinct group sizes, so the kernel adds exact integers per size class
// s (N_s, V_s; see GroupAggregatePartial) and CanonicalFold divides once per
// class. One kernel serves the single-node estimators, the merged engine
// and every node of src/dist, so their answers are bit-identical by
// construction. Per block of 64 words (4096 rows) it
//   1. ANDs the QI predicate words into a buffer on the stack: each run's
//      prefix[hi] AND NOT prefix[lo-1], straight from the index;
//   2. prefix-popcounts the buffer, so match_g = rank(end_g) - rank(start_g)
//      for every group ending in the block (a group that straddles blocks
//      carries its count forward), and N[class(g)] += mass_g * match_g;
//   3. for SUM, walks the block's matching rows once, keeping cum[r] = the
//      sum of the measure codes of its first r matching rows, so g's code
//      sum is cum[rank(end_g)] - cum[rank(start_g)]; C[class(g)] += mass_g
//      * that, and V_s = base * N_s + step * C_s (value = base + step *
//      code).
// A block whose AND is zero, or none of whose groups has mass, skips its
// groups in O(1).
//
// Sensitive mass S_j comes from either the postings walk or, for broad
// predicates, a dense pass over cumulative per-group histograms
// prefix_mass_[v][g] = sum_{u<=v} c_g(u): each predicate run is one
// vectorizable subtraction over the group axis. Both are exact integers.
//
// Thread safety: immutable after construction; one engine may serve any
// number of threads, each bringing its own EstimatorScratch.

#ifndef ANATOMY_QUERY_GROUP_KERNELS_H_
#define ANATOMY_QUERY_GROUP_KERNELS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "anatomy/anatomized_tables.h"
#include "common/huge_page_block.h"
#include "query/bitmap_index.h"
#include "query/estimator_scratch.h"
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
  /// Ignored: the predicate-bitmap cache is gone. The field stays only
  /// because the end-to-end benchmark (perfbench/) still sets it.
  struct {
    bool enabled = true;
  } predcache;
};

/// Where AnatomyQueryEngine packs its read-only arrays inside its
/// HugePageBlock: byte ranges, each starting on a cache line, computed from
/// the publication's shape alone.
struct EngineLayout {
  struct Range {
    size_t offset = 0;
    size_t bytes = 0;
  };
  Range group_start;  // m + 1 RowIds
  Range block_group;  // one GroupId per 4096-row block, plus one
  Range class_slot;   // m uint32s
  /// One per QI column: n codes at u8 when the domain fits, else u32.
  std::vector<Range> codes;
  /// sens_domain x m uint32s; empty past the memory gate.
  Range prefix_mass;
  /// The end of the last range: the block size to request.
  size_t bytes = 0;
};

/// The layout of an engine over n rows in m groups, with the given QI
/// column domains and sensitive domain.
EngineLayout ComputeEngineLayout(RowId n, GroupId m,
                                 const std::vector<Code>& qi_domains,
                                 Code sens_domain);

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

  /// Exact number of rows matching the QI-predicate conjunction in each
  /// group. Integer-identical across kernel modes — the property-test hook
  /// for the block kernel's rank pass.
  std::vector<uint64_t> GroupMatchCounts(const CountQuery& query,
                                         EstimatorScratch& scratch) const;

  /// The exact contribution of every group of one size s to a COUNT/SUM
  /// estimate (fields documented on SizeClassPartial). Partials merge by
  /// integer addition per size, which is associative: any node count or
  /// merge order gives the same totals, and CanonicalFold turns them into
  /// the estimate.
  using GroupAggregatePartial = SizeClassPartial;

  /// Writes one partial per group size with N_s > 0, in ascending size, to
  /// *out (cleared first). Group-clustered mode only. This is the scatter
  /// side of the distributed estimator and, folded, the single-node
  /// estimate. The partials are exact integers, so no engine option can
  /// change them.
  void CollectSizeClassPartials(const CountQuery& query, bool need_sum,
                                size_t measure_qi, EstimatorScratch& scratch,
                                std::vector<GroupAggregatePartial>* out) const;

  const EstimatorOptions& options() const { return options_; }

  /// The block holding the arrays of EngineLayout (empty in scalar mode).
  const HugePageBlock& block() const { return block_; }

 private:
  CountSum EstimateScalar(const CountQuery& query, bool need_sum,
                          size_t measure_qi, EstimatorScratch& scratch) const;
  CountSum EstimateClustered(const CountQuery& query, bool need_sum,
                             size_t measure_qi,
                             EstimatorScratch& scratch) const;

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

  /// Fills scratch.qi_runs / qi_run_end with the query's QI conjunction:
  /// each predicate's runs in the index. Returns false when some predicate
  /// matches no row.
  bool CollectPredicateRuns(const std::vector<AttributePredicate>& preds,
                            EstimatorScratch& scratch) const;
  /// The block kernel over scratch.qi_runs: calls group_fn(g, match_g,
  /// sum of codes[i] over g's matching rows i) for the groups in order — at
  /// least every group with mass[g] != 0 and match_g > 0. The code sums
  /// are 0 when `codes` is null.
  template <typename CodeT, typename GroupFn>
  void ForEachGroupMatch(const EstimatorScratch& scratch, const uint32_t* mass,
                         const CodeT* codes, GroupFn&& group_fn) const;

  const AnatomizedTables* tables_;
  EstimatorOptions options_;
  std::unique_ptr<BitmapIndex> qit_index_;
  /// postings_[v] = (group, count) pairs with c_group(v) = count > 0.
  std::vector<std::vector<std::pair<GroupId, uint32_t>>> postings_;
  /// Total tuples per sensitive value (the ST's published exact counts):
  /// the zero-QI COUNT fast path is one lookup per predicate value.
  std::vector<uint64_t> value_total_;

  // --- kGroupClustered state (empty in scalar mode) ---
  // The per-group and per-row arrays the kernel reads on every query are
  // spans into block_, laid out by ComputeEngineLayout.
  HugePageBlock block_;
  /// group_start_[g] .. group_start_[g+1]: group g's bit range.
  std::span<RowId> group_start_;
  /// block_group_[b] = the group owning the first row of block b (4096
  /// rows), and m for b = the block count: the groups ending in block b
  /// are [block_group_[b], block_group_[b+1]).
  std::span<GroupId> block_group_;
  /// class_size_ holds the distinct group sizes, ascending (at most l for
  /// an Anatomize publication). Group g accumulates into slot class_slot_[g]
  /// = k * kLanes + g % kLanes of the per-class accumulators, k indexing
  /// its size in class_size_: consecutive groups mostly share a class, and
  /// one accumulator per class would chain every add through memory.
  std::vector<uint32_t> class_size_;
  std::span<uint32_t> class_slot_;
  /// QI column qi's codes in bit order, in exactly one of the two spans:
  /// u8 when the column's domain fits (every CENSUS attribute), else u32.
  struct PermutedCodes {
    std::span<uint8_t> u8;
    std::span<uint32_t> u32;
  };
  std::vector<PermutedCodes> perm_codes_;
  /// prefix_mass_[v * m + g] = sum_{u<=v} c_g(u); empty when the sensitive
  /// domain x group count would exceed the memory gate.
  std::span<uint32_t> prefix_mass_;
};

/// The one true merge: adds N_s and V_s per group size (exact integers),
/// then divides once per size in ascending s, with one accumulator per
/// aggregate. The integer sums do not depend on the order or grouping of
/// `partials`, so every node count, merge order and chunking gives the same
/// bits (asserted in tests/query_kernels_test.cc and tests/dist_test.cc).
/// Allocates nothing.
struct CanonicalFoldResult {
  double count = 0.0;
  double sum = 0.0;
};
CanonicalFoldResult CanonicalFold(
    std::span<const AnatomyQueryEngine::GroupAggregatePartial> partials);

/// The row-scan oracle of AnatomyQueryEngine::CollectSizeClassPartials:
/// the same N_s and V_s from the published tables alone (no index, no
/// permutation), over the groups g with include_group[g] — every group when
/// include_group is empty (otherwise it has one entry per group).
std::vector<AnatomyQueryEngine::GroupAggregatePartial> ScanSizeClassPartials(
    const AnatomizedTables& tables, const CountQuery& query, bool need_sum,
    size_t measure_qi, const std::vector<bool>& include_group = {});

}  // namespace anatomy

#endif  // ANATOMY_QUERY_GROUP_KERNELS_H_
