#include "query/group_kernels.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <type_traits>

#include "common/check.h"

namespace anatomy {
namespace {

/// Memory gate for the dense cumulative histograms: sensitive domain x
/// groups, in uint32 entries (1 << 24 entries = 64 MB). Past it the engine
/// falls back to the sparse postings path for every query.
constexpr uint64_t kDensePrefixMassLimit = uint64_t{1} << 24;

/// Every array of the engine's block starts on its own cache line.
constexpr size_t kCacheLine = 64;

/// The block kernel's unit: 64 words of the QI conjunction (4096 rows, 512
/// bytes) stay in L1 while the block's groups read their ranks.
constexpr size_t kBlockWords = 64;
constexpr size_t kBlockRows = kBlockWords * 64;

/// Accumulator copies per size class (see class_slot_).
constexpr size_t kLanes = 4;

constexpr uint64_t kAllOnes = ~uint64_t{0};

/// A run without a lower bound subtracts these.
constexpr uint64_t kZeroWords[kBlockWords] = {};

/// buf[0..nw) = the AND over the predicates in scratch.qi_runs of (the OR
/// over the predicate's runs of hi & ~lo) for words [w0, w0 + nw): all ones
/// up to row n without predicates. Returns false when the result is zero,
/// stopping at the first predicate that makes it so.
bool AndBlock(const EstimatorScratch& scratch, size_t w0, size_t nw,
              size_t num_rows, uint64_t* buf) {
  std::fill_n(buf, nw, kAllOnes);
  if (w0 + nw == (num_rows + 63) / 64 && (num_rows & 63) != 0) {
    buf[nw - 1] = (uint64_t{1} << (num_rows & 63)) - 1;
  }
  const PredicateRun* runs = scratch.qi_runs.data();
  uint64_t tmp[kBlockWords];
  size_t begin = 0;
  for (const uint32_t end : scratch.qi_run_end) {
    const auto lo_words = [&](size_t r) {
      return runs[r].lo == nullptr ? kZeroWords : runs[r].lo + w0;
    };
    uint64_t any = 0;
    if (end - begin == 1) {
      const uint64_t* hi = runs[begin].hi + w0;
      const uint64_t* lo = lo_words(begin);
      for (size_t k = 0; k < nw; ++k) any |= buf[k] &= hi[k] & ~lo[k];
    } else {
      // Several runs: their OR into tmp first.
      std::fill_n(tmp, nw, 0);
      for (size_t r = begin; r < end; ++r) {
        const uint64_t* hi = runs[r].hi + w0;
        const uint64_t* lo = lo_words(r);
        for (size_t k = 0; k < nw; ++k) tmp[k] |= hi[k] & ~lo[k];
      }
      for (size_t k = 0; k < nw; ++k) any |= buf[k] &= tmp[k];
    }
    if (any == 0) return false;
    begin = end;
  }
  return true;
}

/// The typed span of `range` inside `block`.
template <typename T>
std::span<T> Carve(const HugePageBlock& block, EngineLayout::Range range) {
  return {reinterpret_cast<T*>(block.data() + range.offset),
          range.bytes / sizeof(T)};
}

}  // namespace

EngineLayout ComputeEngineLayout(RowId n, GroupId m,
                                 const std::vector<Code>& qi_domains,
                                 Code sens_domain) {
  EngineLayout layout;
  const auto add = [&layout](size_t count, size_t elem_bytes) {
    const EngineLayout::Range range{layout.bytes, count * elem_bytes};
    layout.bytes = (range.offset + range.bytes + kCacheLine - 1) &
                   ~(kCacheLine - 1);
    return range;
  };
  const size_t blocks = (static_cast<size_t>(n) + kBlockRows - 1) / kBlockRows;
  layout.group_start = add(static_cast<size_t>(m) + 1, sizeof(RowId));
  layout.block_group = add(blocks + 1, sizeof(GroupId));
  layout.class_slot = add(m, sizeof(uint32_t));
  for (const Code domain : qi_domains) {
    layout.codes.push_back(
        add(n, domain <= 1 << 8 ? sizeof(uint8_t) : sizeof(uint32_t)));
  }
  if (static_cast<uint64_t>(sens_domain) * m <= kDensePrefixMassLimit) {
    layout.prefix_mass =
        add(static_cast<size_t>(sens_domain) * m, sizeof(uint32_t));
  }
  return layout;
}

int64_t IntegerValue(const AttributeDef& attr, Code code) {
  if (attr.kind == AttributeKind::kNumerical) {
    return attr.numeric_base + static_cast<int64_t>(code) * attr.numeric_step;
  }
  return code;
}

double NumericValue(const AttributeDef& attr, Code code) {
  return static_cast<double>(IntegerValue(attr, code));
}

AnatomyQueryEngine::AnatomyQueryEngine(const AnatomizedTables& tables,
                                       const EstimatorOptions& options)
    : tables_(&tables), options_(options) {
  const Table& qit = tables.qit();
  // QIT columns 0..d-1 are the QI attributes (column d is Group-ID).
  const size_t d = qit.num_columns() - 1;
  std::vector<size_t> columns(d);
  for (size_t i = 0; i < d; ++i) columns[i] = i;

  // Invert the ST: for each sensitive value, the groups carrying it, plus
  // the value's total published count.
  const Code sens_domain = tables.st().schema().attribute(1).domain_size;
  postings_.resize(sens_domain);
  value_total_.assign(static_cast<size_t>(sens_domain), 0);
  for (GroupId g = 0; g < tables.num_groups(); ++g) {
    for (const auto& [value, count] : tables.group_histogram(g)) {
      postings_[value].push_back({g, count});
      value_total_[value] += count;
    }
  }

  if (options_.mode == KernelMode::kScalar) {
    qit_index_ = std::make_unique<BitmapIndex>(qit, columns);
    return;
  }

  const GroupId m = tables.num_groups();
  const RowId n = tables.num_rows();
  std::vector<Code> qi_domains(d);
  for (size_t col = 0; col < d; ++col) {
    qi_domains[col] = qit.schema().attribute(col).domain_size;
  }
  const EngineLayout layout = ComputeEngineLayout(n, m, qi_domains, sens_domain);
  // The advice must precede the first touch, so every array below is
  // written only after the block exists.
  block_ = HugePageBlock(layout.bytes);
  group_start_ = Carve<RowId>(block_, layout.group_start);
  block_group_ = Carve<GroupId>(block_, layout.block_group);
  class_slot_ = Carve<uint32_t>(block_, layout.class_slot);
  prefix_mass_ = Carve<uint32_t>(block_, layout.prefix_mass);

  // Group-clustered layout, the one place the row order is derived:
  // counting-sort the rows by the QIT's Group-ID column. Rows of a group
  // keep their relative order, so within a group the permuted order is the
  // QIT order.
  group_start_[0] = 0;
  for (GroupId g = 0; g < m; ++g) {
    group_start_[g + 1] = group_start_[g] + tables.group_size(g);
  }
  ANATOMY_CHECK(group_start_[m] == n);
  std::vector<RowId> perm(n);
  std::vector<RowId> cursor(group_start_.begin(), group_start_.end() - 1);
  const std::vector<Code>& group_ids = qit.column(d);
  for (RowId r = 0; r < n; ++r) perm[cursor[group_ids[r]]++] = r;
  qit_index_ = std::make_unique<BitmapIndex>(qit, columns, &perm);

  std::fill(block_group_.begin(), block_group_.end(), m);
  for (GroupId g = 0; g < m; ++g) {
    // The blocks whose first row lies in g's range.
    for (size_t b = (group_start_[g] + kBlockRows - 1) / kBlockRows;
         b * kBlockRows < group_start_[g + 1]; ++b) {
      block_group_[b] = g;
    }
  }

  class_size_.reserve(m);
  for (GroupId g = 0; g < m; ++g) class_size_.push_back(tables.group_size(g));
  std::sort(class_size_.begin(), class_size_.end());
  class_size_.erase(std::unique(class_size_.begin(), class_size_.end()),
                    class_size_.end());
  class_size_.shrink_to_fit();
  for (GroupId g = 0; g < m; ++g) {
    const size_t k = std::lower_bound(class_size_.begin(), class_size_.end(),
                                      tables.group_size(g)) -
                     class_size_.begin();
    class_slot_[g] = static_cast<uint32_t>(k * kLanes + g % kLanes);
  }
  perm_codes_.resize(d);
  for (size_t col = 0; col < d; ++col) {
    const auto& codes = qit.column(col);
    const auto permute = [&](auto out) {
      for (RowId i = 0; i < n; ++i) out[i] = codes[perm[i]];
    };
    if (qi_domains[col] <= 1 << 8) {
      perm_codes_[col].u8 = Carve<uint8_t>(block_, layout.codes[col]);
      permute(perm_codes_[col].u8);
    } else {
      perm_codes_[col].u32 = Carve<uint32_t>(block_, layout.codes[col]);
      permute(perm_codes_[col].u32);
    }
  }

  // Row v of the cumulative histograms is row v - 1 plus value v's
  // postings (the block arrives zeroed, so row 0 needs no fill).
  if (!prefix_mass_.empty()) {
    for (Code v = 0; v < sens_domain; ++v) {
      uint32_t* row = prefix_mass_.data() + static_cast<size_t>(v) * m;
      if (v > 0) std::copy_n(row - m, m, row);
      for (const auto& [g, count] : postings_[v]) row[g] += count;
    }
  }
}

bool AnatomyQueryEngine::AccumulateSparseMass(const AttributePredicate& spred,
                                              EstimatorScratch& scratch) const {
  scratch.EnsureGroupMass(tables_->num_groups());
  scratch.touched_groups.clear();
  for (Code v : spred.values()) {
    // Out-of-domain sensitive codes qualify no tuples (Code is signed, so
    // both directions must be checked before indexing the postings).
    if (v < 0 || static_cast<size_t>(v) >= postings_.size()) continue;
    for (const auto& [g, count] : postings_[v]) {
      if (scratch.group_mass[g] == 0.0) scratch.touched_groups.push_back(g);
      scratch.group_mass[g] += count;
    }
  }
  return !scratch.touched_groups.empty();
}

void AnatomyQueryEngine::ComputeDenseMass(const AttributePredicate& spred,
                                          EstimatorScratch& scratch) const {
  const size_t m = tables_->num_groups();
  scratch.group_mass_u32.resize(m);
  uint32_t* mass = scratch.group_mass_u32.data();
  bool first = true;
  spred.ForEachRun(
      static_cast<Code>(value_total_.size()), [&](Code lo, Code hi) {
        const uint32_t* hp = prefix_mass_.data() + static_cast<size_t>(hi) * m;
        const uint32_t* lp =
            lo > 0 ? prefix_mass_.data() + static_cast<size_t>(lo - 1) * m
                   : nullptr;
        // The first run assigns (stale buffer contents never survive), the
        // rest accumulate; runs are disjoint so sums stay exact integers.
        if (first) {
          if (lp == nullptr) {
            std::copy(hp, hp + m, mass);
          } else {
            for (size_t g = 0; g < m; ++g) mass[g] = hp[g] - lp[g];
          }
          first = false;
        } else if (lp == nullptr) {
          for (size_t g = 0; g < m; ++g) mass[g] += hp[g];
        } else {
          for (size_t g = 0; g < m; ++g) mass[g] += hp[g] - lp[g];
        }
      });
  if (first) std::fill_n(mass, m, 0u);
}

void AnatomyQueryEngine::ComputeGroupMass(const AttributePredicate& spred,
                                          EstimatorScratch& scratch) const {
  // A scatter entry into this u32 array measured as cheap as one group of
  // a dense pass, so the dense path wins only with fewer run x group steps
  // than postings entries.
  uint64_t entries = 0;
  for (Code v : spred.values()) {
    if (v >= 0 && static_cast<size_t>(v) < postings_.size()) {
      entries += postings_[v].size();
    }
  }
  const size_t m = tables_->num_groups();
  if (!prefix_mass_.empty()) {
    uint64_t runs = 0;
    spred.ForEachRun(static_cast<Code>(value_total_.size()),
                     [&runs](Code, Code) { ++runs; });
    if (runs * m < entries) {
      ComputeDenseMass(spred, scratch);
      return;
    }
  }
  scratch.group_mass_u32.assign(m, 0);
  uint32_t* mass = scratch.group_mass_u32.data();
  for (Code v : spred.values()) {
    if (v < 0 || static_cast<size_t>(v) >= postings_.size()) continue;
    for (const auto& [g, count] : postings_[v]) mass[g] += count;
  }
}

bool AnatomyQueryEngine::CollectPredicateRuns(
    const std::vector<AttributePredicate>& preds,
    EstimatorScratch& scratch) const {
  scratch.qi_runs.clear();
  scratch.qi_run_end.clear();
  for (const AttributePredicate& pred : preds) {
    const size_t first_run = scratch.qi_runs.size();
    qit_index_->ForEachRunBitmap(
        pred.qi_index(), pred, [&](const Bitmap& hi, const Bitmap* lo) {
          scratch.qi_runs.push_back(
              {hi.words().data(),
               lo == nullptr ? nullptr : lo->words().data()});
        });
    if (scratch.qi_runs.size() == first_run) {
      return false;  // no value of this predicate is in the column's domain
    }
    scratch.qi_run_end.push_back(static_cast<uint32_t>(scratch.qi_runs.size()));
  }
  return true;
}

AnatomyQueryEngine::CountSum AnatomyQueryEngine::EstimateCountSum(
    const CountQuery& query, bool need_sum, size_t measure_qi,
    EstimatorScratch& scratch) const {
  if (options_.mode == KernelMode::kScalar) {
    return EstimateScalar(query, need_sum, measure_qi, scratch);
  }
  return EstimateClustered(query, need_sum, measure_qi, scratch);
}

AnatomyQueryEngine::CountSum AnatomyQueryEngine::EstimateScalar(
    const CountQuery& query, bool need_sum, size_t measure_qi,
    EstimatorScratch& scratch) const {
  CountSum out;
  if (!AccumulateSparseMass(query.sensitive_predicate, scratch)) return out;

  const Table& qit = tables_->qit();
  const AttributeDef& measure =
      qit.schema().attribute(need_sum ? measure_qi : 0);
  if (query.qi_predicates.empty()) {
    // Zero-QI fast path: every row matches its group's QI side with
    // probability 1, so the count is the total qualifying sensitive mass —
    // no SetAll(), no full-bitmap walk over all n rows.
    for (GroupId g : scratch.touched_groups) {
      out.count += scratch.group_mass[g];
    }
    if (need_sum) {
      const auto& codes = qit.column(measure_qi);
      for (RowId r = 0; r < tables_->num_rows(); ++r) {
        const GroupId g = tables_->group_of_row(r);
        const double mass = scratch.group_mass[g];
        if (mass == 0.0) continue;
        out.sum += mass / tables_->group_size(g) *
                   NumericValue(measure, codes[r]);
      }
    }
  } else {
    scratch.qi_match.Reset(qit_index_->num_rows());
    scratch.qi_match.SetAll();
    for (const AttributePredicate& pred : query.qi_predicates) {
      qit_index_->PredicateBitmap(pred.qi_index(), pred, scratch.pred_bits);
      scratch.qi_match.AndWith(scratch.pred_bits);
    }
    scratch.qi_match.ForEachSetBit([&](size_t row) {
      const GroupId g = tables_->group_of_row(static_cast<RowId>(row));
      const double mass = scratch.group_mass[g];
      if (mass == 0.0) return;
      const double weight = mass / tables_->group_size(g);
      out.count += weight;
      if (need_sum) {
        out.sum += weight * NumericValue(measure,
                                         qit.at(static_cast<RowId>(row),
                                                measure_qi));
      }
    });
  }
  for (GroupId g : scratch.touched_groups) scratch.group_mass[g] = 0.0;
  return out;
}

AnatomyQueryEngine::CountSum AnatomyQueryEngine::EstimateClustered(
    const CountQuery& query, bool need_sum, size_t measure_qi,
    EstimatorScratch& scratch) const {
  if (!need_sum && query.qi_predicates.empty()) {
    // Zero-QI COUNT is exact straight from the ST's published per-value
    // counts: one lookup per predicate value, no group work at all. The
    // total is an integer, so it is also the fold's answer.
    CountSum out;
    for (Code v : query.sensitive_predicate.values()) {
      if (v < 0 || static_cast<size_t>(v) >= value_total_.size()) continue;
      out.count += static_cast<double>(value_total_[v]);
    }
    return out;
  }
  CollectSizeClassPartials(query, need_sum, measure_qi, scratch,
                           &scratch.partials);
  const CanonicalFoldResult fold = CanonicalFold(scratch.partials);
  return {fold.count, fold.sum};
}

template <typename CodeT, typename GroupFn>
void AnatomyQueryEngine::ForEachGroupMatch(const EstimatorScratch& scratch,
                                           const uint32_t* mass,
                                           const CodeT* codes,
                                           GroupFn&& group_fn) const {
  const size_t n = tables_->num_rows();
  const size_t num_words = (n + 63) / 64;
  const GroupId m = tables_->num_groups();
  const RowId* gs = group_start_.data();
  // One word past the block stays zero, so the rank of row kBlockRows needs
  // no special case.
  uint64_t buf[kBlockWords + 1];
  uint32_t rank[kBlockWords + 1];
  // cum[r] = the sum of the codes of the block's first r matching rows. A
  // u8 code sum over one block fits u32.
  using Cum = std::conditional_t<sizeof(CodeT) == 1, uint32_t, uint64_t>;
  Cum cum[kBlockRows + 1];
  cum[0] = 0;
  // Matches of the group open at the previous block's end, and their code
  // sum, from earlier blocks.
  uint64_t open_match = 0;
  uint64_t open_codes = 0;
  for (size_t b = 0; b + 1 < block_group_.size(); ++b) {
    // Groups [first, next) end in this block; `next`, if any, is still open
    // at its end.
    const GroupId first = block_group_[b];
    const GroupId next = block_group_[b + 1];
    bool any_mass = false;
    for (GroupId g = first; g <= next && g < m && !any_mass; ++g) {
      any_mass = mass[g] != 0;
    }
    if (!any_mass) {
      open_match = 0;
      open_codes = 0;
      continue;
    }
    const size_t row0 = b * kBlockRows;
    const size_t w0 = b * kBlockWords;
    const size_t nw = std::min(kBlockWords, num_words - w0);
    if (!AndBlock(scratch, w0, nw, n, buf)) {
      if (first < next) {
        group_fn(first, open_match, open_codes);
        open_match = 0;
        open_codes = 0;
      }
      continue;
    }
    buf[nw] = 0;
    rank[0] = 0;
    for (size_t k = 0; k < nw; ++k) {
      rank[k + 1] = rank[k] + static_cast<uint32_t>(std::popcount(buf[k]));
    }
    if (codes != nullptr) {
      Cum acc = 0;
      Cum* out = cum + 1;
      for (size_t k = 0; k < nw; ++k) {
        const CodeT* c = codes + row0 + (k << 6);
        for (uint64_t x = buf[k]; x != 0; x &= x - 1) {
          acc += c[std::countr_zero(x)];
          *out++ = acc;
        }
      }
    }
    uint32_t rank_lo = 0;
    Cum cum_lo = 0;
    for (GroupId g = first; g < next; ++g) {
      const size_t hi = gs[g + 1] - row0;
      const uint32_t rank_hi =
          rank[hi >> 6] + static_cast<uint32_t>(std::popcount(
                              buf[hi >> 6] & ((uint64_t{1} << (hi & 63)) - 1)));
      const Cum cum_hi = codes != nullptr ? cum[rank_hi] : 0;
      group_fn(g, open_match + (rank_hi - rank_lo),
               open_codes + (cum_hi - cum_lo));
      open_match = 0;
      open_codes = 0;
      rank_lo = rank_hi;
      cum_lo = cum_hi;
    }
    open_match += rank[nw] - rank_lo;
    if (codes != nullptr) open_codes += cum[rank[nw]] - cum_lo;
  }
}

void AnatomyQueryEngine::CollectSizeClassPartials(
    const CountQuery& query, bool need_sum, size_t measure_qi,
    EstimatorScratch& scratch,
    std::vector<GroupAggregatePartial>* out) const {
  ANATOMY_CHECK(options_.mode == KernelMode::kGroupClustered);
  ANATOMY_CHECK(!need_sum || measure_qi < perm_codes_.size());
  out->clear();
  if (!CollectPredicateRuns(query.qi_predicates, scratch)) return;
  ComputeGroupMass(query.sensitive_predicate, scratch);

  // Per size class, N_s = sum of mass_g * match_g and, for SUM, C_s = sum
  // of mass_g * (sum of g's matching codes); then V_s = base * N_s + step *
  // C_s, since every value is base + step * code.
  const size_t classes = class_size_.size();
  scratch.class_mass_match.assign(kLanes * classes, 0);
  scratch.class_mass_value.assign(need_sum ? kLanes * classes : 0, 0);
  uint64_t* nm = scratch.class_mass_match.data();
  __int128* nc = scratch.class_mass_value.data();
  const uint32_t* mass = scratch.group_mass_u32.data();
  const uint32_t* slot = class_slot_.data();
  if (!need_sum) {
    ForEachGroupMatch(scratch, mass, static_cast<const uint8_t*>(nullptr),
                      [&](GroupId g, uint64_t match, uint64_t) {
                        nm[slot[g]] += mass[g] * match;
                      });
  } else {
    const auto sum_codes = [&](const auto* codes) {
      ForEachGroupMatch(scratch, mass, codes,
                        [&](GroupId g, uint64_t match, uint64_t code_sum) {
                          nm[slot[g]] += mass[g] * match;
                          nc[slot[g]] +=
                              static_cast<unsigned __int128>(mass[g]) *
                              code_sum;
                        });
    };
    const PermutedCodes& column = perm_codes_[measure_qi];
    if (!column.u8.empty()) {
      sum_codes(column.u8.data());
    } else {
      sum_codes(column.u32.data());
    }
  }
  const AttributeDef& measure =
      tables_->qit().schema().attribute(need_sum ? measure_qi : 0);
  const bool numerical = measure.kind == AttributeKind::kNumerical;
  // Unsigned: step * C_s may leave the signed range on the way, but V_s
  // itself fits, and arithmetic mod 2^128 lands on it exactly.
  using U128 = unsigned __int128;
  const U128 base = static_cast<U128>(numerical ? measure.numeric_base : 0);
  const U128 step = static_cast<U128>(numerical ? measure.numeric_step : 1);
  for (size_t k = 0; k < classes; ++k) {
    GroupAggregatePartial p{class_size_[k], 0, 0};
    U128 codes = 0;
    for (size_t j = k * kLanes; j < (k + 1) * kLanes; ++j) {
      p.mass_match += nm[j];
      if (need_sum) codes += static_cast<U128>(nc[j]);
    }
    if (p.mass_match == 0) continue;
    if (need_sum) {
      p.mass_value = static_cast<__int128>(base * p.mass_match + step * codes);
    }
    out->push_back(p);
  }
}

std::vector<uint64_t> AnatomyQueryEngine::GroupMatchCounts(
    const CountQuery& query, EstimatorScratch& scratch) const {
  const GroupId m = tables_->num_groups();
  std::vector<uint64_t> counts(m, 0);
  if (options_.mode == KernelMode::kGroupClustered) {
    if (!CollectPredicateRuns(query.qi_predicates, scratch)) {
      return counts;
    }
    // A unit mass for every group, so no block is skipped.
    scratch.group_mass_u32.assign(m, 1);
    ForEachGroupMatch(scratch, scratch.group_mass_u32.data(),
                      static_cast<const uint8_t*>(nullptr),
                      [&](GroupId g, uint64_t match, uint64_t) {
                        counts[g] = match;
                      });
    return counts;
  }
  scratch.qi_match.Reset(qit_index_->num_rows());
  scratch.qi_match.SetAll();
  for (const AttributePredicate& pred : query.qi_predicates) {
    qit_index_->PredicateBitmap(pred.qi_index(), pred, scratch.pred_bits);
    scratch.qi_match.AndWith(scratch.pred_bits);
  }
  scratch.qi_match.ForEachSetBit([&](size_t row) {
    ++counts[tables_->group_of_row(static_cast<RowId>(row))];
  });
  return counts;
}

CanonicalFoldResult CanonicalFold(
    std::span<const AnatomyQueryEngine::GroupAggregatePartial> partials) {
  // Sizes in ascending order without sorting a copy: each step takes the
  // smallest size above the last one and adds every partial of that size.
  // A fold sees at most l sizes per node.
  CanonicalFoldResult r;
  int64_t last = -1;
  for (;;) {
    int64_t size = std::numeric_limits<int64_t>::max();
    for (const auto& p : partials) {
      if (p.size > last && p.size < size) size = p.size;
    }
    if (size == std::numeric_limits<int64_t>::max()) break;
    uint64_t mass_match = 0;
    __int128 mass_value = 0;
    for (const auto& p : partials) {
      if (p.size != size) continue;
      mass_match += p.mass_match;
      mass_value += p.mass_value;
    }
    r.count += static_cast<double>(mass_match) / static_cast<double>(size);
    r.sum += static_cast<double>(mass_value) / static_cast<double>(size);
    last = size;
  }
  return r;
}

std::vector<AnatomyQueryEngine::GroupAggregatePartial> ScanSizeClassPartials(
    const AnatomizedTables& tables, const CountQuery& query, bool need_sum,
    size_t measure_qi, const std::vector<bool>& include_group) {
  const GroupId m = static_cast<GroupId>(tables.num_groups());
  ANATOMY_CHECK(include_group.empty() || include_group.size() == m);
  std::vector<uint64_t> mass(m, 0);
  for (GroupId g = 0; g < m; ++g) {
    if (!include_group.empty() && !include_group[g]) continue;
    for (const auto& [value, count] : tables.group_histogram(g)) {
      if (query.sensitive_predicate.Matches(value)) mass[g] += count;
    }
  }
  const Table& qit = tables.qit();
  const AttributeDef& measure =
      qit.schema().attribute(need_sum ? measure_qi : 0);
  std::map<uint32_t, AnatomyQueryEngine::GroupAggregatePartial> by_size;
  for (RowId r = 0; r < tables.num_rows(); ++r) {
    const GroupId g = tables.group_of_row(r);
    if (mass[g] == 0) continue;
    bool match = true;
    for (const AttributePredicate& pred : query.qi_predicates) {
      match = match && pred.Matches(qit.at(r, pred.qi_index()));
    }
    if (!match) continue;
    AnatomyQueryEngine::GroupAggregatePartial& p =
        by_size[tables.group_size(g)];
    p.size = tables.group_size(g);
    p.mass_match += mass[g];
    if (need_sum) {
      p.mass_value += static_cast<__int128>(mass[g]) *
                      IntegerValue(measure, qit.at(r, measure_qi));
    }
  }
  std::vector<AnatomyQueryEngine::GroupAggregatePartial> out;
  for (const auto& [size, p] : by_size) out.push_back(p);
  return out;
}

}  // namespace anatomy
