#include "query/group_kernels.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace anatomy {
namespace {

/// Memory gate for the dense cumulative histograms: sensitive domain x
/// groups, in uint32 entries (1 << 24 entries = 64 MB). Past it the engine
/// falls back to the sparse postings path for every query.
constexpr uint64_t kDensePrefixMassLimit = uint64_t{1} << 24;

/// Dense passes touch every group once per run but vectorize; sparse
/// posting entries cost a cache-hostile scatter each. The factor is the
/// approximate per-entry cost gap.
constexpr uint64_t kDenseCostDiscount = 4;

/// Dense-mass queries pick between two exact kernels by selectivity: when
/// the QI conjunction selects at most this many rows per group on average,
/// a weighted set-bit walk (one load + one fused add per matching row)
/// beats the per-group ranged-popcount loop, whose cost is dominated by
/// one call + serial FP accumulate per group regardless of how few rows
/// match. The choice depends only on the query, never on thread count,
/// cache state, or metrics — so results stay bit-identical across all of
/// those.
constexpr uint64_t kWalkDensityFactor = 2;

/// Iterates (g, mass_g) over the groups with qualifying sensitive mass,
/// from whichever representation this query used.
template <typename Body>
void ForEachMassGroup(bool dense, GroupId num_groups,
                      const EstimatorScratch& scratch, Body&& body) {
  if (dense) {
    const uint32_t* mass = scratch.group_mass_u32.data();
    for (GroupId g = 0; g < num_groups; ++g) {
      if (mass[g] != 0) body(g, static_cast<double>(mass[g]));
    }
  } else {
    for (GroupId g : scratch.touched_groups) {
      body(g, scratch.group_mass[g]);
    }
  }
}

}  // namespace

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

  // Group-clustered layout: counting-sort the rows by Group-ID. Rows of a
  // group keep their relative order, so within a group the permuted order
  // is the QIT order.
  const GroupId m = tables.num_groups();
  const RowId n = tables.num_rows();
  group_start_.assign(static_cast<size_t>(m) + 1, 0);
  for (GroupId g = 0; g < m; ++g) {
    group_start_[g + 1] = group_start_[g] + tables.group_size(g);
  }
  ANATOMY_CHECK(group_start_[m] == n);
  perm_.resize(n);
  std::vector<size_t> cursor(group_start_.begin(), group_start_.end() - 1);
  for (RowId r = 0; r < n; ++r) {
    perm_[cursor[tables.group_of_row(r)]++] = r;
  }
  qit_index_ = std::make_unique<BitmapIndex>(qit, columns, &perm_);

  word_group_base_.assign((static_cast<size_t>(n) + 63) / 64, 0);
  bit_group_offset_.resize(n);
  for (GroupId g = 0; g < m; ++g) {
    for (size_t i = group_start_[g]; i < group_start_[g + 1]; ++i) {
      if ((i & 63) == 0) word_group_base_[i >> 6] = static_cast<uint32_t>(g);
      bit_group_offset_[i] =
          static_cast<uint8_t>(g - word_group_base_[i >> 6]);
    }
  }

  inv_group_size_.resize(m);
  for (GroupId g = 0; g < m; ++g) {
    inv_group_size_[g] = 1.0 / static_cast<double>(tables.group_size(g));
  }
  class_size_.reserve(m);
  for (GroupId g = 0; g < m; ++g) class_size_.push_back(tables.group_size(g));
  std::sort(class_size_.begin(), class_size_.end());
  class_size_.erase(std::unique(class_size_.begin(), class_size_.end()),
                    class_size_.end());
  class_size_.shrink_to_fit();
  size_class_.resize(m);
  for (GroupId g = 0; g < m; ++g) {
    size_class_[g] = static_cast<uint32_t>(
        std::lower_bound(class_size_.begin(), class_size_.end(),
                         tables.group_size(g)) -
        class_size_.begin());
  }
  perm_values_.resize(d);
  exact_values_.resize(d);
  for (size_t col = 0; col < d; ++col) {
    const AttributeDef& attr = qit.schema().attribute(col);
    // Values are monotone in the code, so the two ends bound them all.
    constexpr int64_t kExact = int64_t{1} << 53;
    const int64_t lo = IntegerValue(attr, 0);
    const int64_t hi = IntegerValue(attr, attr.domain_size - 1);
    exact_values_[col] =
        lo >= -kExact && lo <= kExact && hi >= -kExact && hi <= kExact;
    const auto& codes = qit.column(col);
    perm_values_[col].resize(n);
    for (RowId i = 0; i < n; ++i) {
      perm_values_[col][i] = NumericValue(attr, codes[perm_[i]]);
    }
  }

  if (static_cast<uint64_t>(sens_domain) * m <= kDensePrefixMassLimit) {
    prefix_mass_.resize(static_cast<size_t>(sens_domain));
    for (Code v = 0; v < sens_domain; ++v) {
      if (v == 0) {
        prefix_mass_[0].assign(m, 0);
      } else {
        prefix_mass_[v] = prefix_mass_[v - 1];
      }
      for (const auto& [g, count] : postings_[v]) {
        prefix_mass_[v][g] += count;
      }
    }
  }

  if (options_.predcache.enabled && options_.predcache.capacity > 0) {
    cache_ = std::make_unique<PredicateBitmapCache>(options_.predcache);
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

bool AnatomyQueryEngine::UseDenseMass(const AttributePredicate& spred) const {
  if (prefix_mass_.empty()) return false;
  const uint64_t m = tables_->num_groups();
  uint64_t sparse_entries = 0;
  for (Code v : spred.values()) {
    if (v < 0 || static_cast<size_t>(v) >= postings_.size()) continue;
    sparse_entries += postings_[v].size();
  }
  uint64_t runs = 0;
  spred.ForEachRun(static_cast<Code>(prefix_mass_.size()),
                   [&runs](Code, Code) { ++runs; });
  return runs * m < kDenseCostDiscount * sparse_entries;
}

void AnatomyQueryEngine::ComputeDenseMass(const AttributePredicate& spred,
                                          EstimatorScratch& scratch) const {
  const size_t m = tables_->num_groups();
  scratch.group_mass_u32.resize(m);
  uint32_t* mass = scratch.group_mass_u32.data();
  bool first = true;
  spred.ForEachRun(
      static_cast<Code>(prefix_mass_.size()), [&](Code lo, Code hi) {
        const uint32_t* hp = prefix_mass_[hi].data();
        const uint32_t* lp = lo > 0 ? prefix_mass_[lo - 1].data() : nullptr;
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
    spred.ForEachRun(static_cast<Code>(prefix_mass_.size()),
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

void AnatomyQueryEngine::ComputeDenseWeights(const AttributePredicate& spred,
                                             EstimatorScratch& scratch) const {
  const size_t m = tables_->num_groups();
  scratch.group_weight.resize(m);
  double* weight = scratch.group_weight.data();
  const double* inv = inv_group_size_.data();
  bool first = true;
  spred.ForEachRun(
      static_cast<Code>(prefix_mass_.size()), [&](Code lo, Code hi) {
        const uint32_t* hp = prefix_mass_[hi].data();
        const uint32_t* lp = lo > 0 ? prefix_mass_[lo - 1].data() : nullptr;
        if (first) {
          if (lp == nullptr) {
            for (size_t g = 0; g < m; ++g) {
              weight[g] = static_cast<double>(hp[g]) * inv[g];
            }
          } else {
            for (size_t g = 0; g < m; ++g) {
              weight[g] = static_cast<double>(hp[g] - lp[g]) * inv[g];
            }
          }
          first = false;
        } else if (lp == nullptr) {
          for (size_t g = 0; g < m; ++g) {
            weight[g] += static_cast<double>(hp[g]) * inv[g];
          }
        } else {
          for (size_t g = 0; g < m; ++g) {
            weight[g] += static_cast<double>(hp[g] - lp[g]) * inv[g];
          }
        }
      });
  if (first) std::fill_n(weight, m, 0.0);
}

const Bitmap* AnatomyQueryEngine::OnePredicate(
    const AttributePredicate& pred, EstimatorScratch& scratch, Bitmap& storage,
    const PreparedPredicateMap* prepared) const {
  if (prepared != nullptr) {
    const uint64_t h = HashPredicateKey(pred.qi_index(), pred.values());
    const auto it = prepared->find(h);
    ANATOMY_CHECK(it != prepared->end());
    for (const PreparedPredicate& p : it->second) {
      if (p.column == pred.qi_index() && *p.values == pred.values()) {
        return p.bitmap;
      }
    }
    ANATOMY_CHECK(false);  // the batch driver prepared every predicate
  }
  if (cache_ != nullptr) {
    scratch.pred_refs.push_back(cache_->GetOrCompute(
        pred.qi_index(), pred.values(), [&](Bitmap& out) {
          qit_index_->PredicateBitmap(pred.qi_index(), pred, out);
        }));
    return scratch.pred_refs.back().get();
  }
  qit_index_->PredicateBitmap(pred.qi_index(), pred, storage);
  return &storage;
}

const Bitmap* AnatomyQueryEngine::FoldPredicates(
    const std::vector<AttributePredicate>& preds, size_t count,
    EstimatorScratch& scratch, const PreparedPredicateMap* prepared) const {
  if (count == 0) return nullptr;
  const Bitmap* first =
      OnePredicate(preds[0], scratch, scratch.qi_match, prepared);
  if (count == 1) return first;
  const Bitmap* second =
      OnePredicate(preds[1], scratch, scratch.pred_bits, prepared);
  scratch.qi_match.AssignAnd(*first, *second);
  for (size_t i = 2; i < count; ++i) {
    scratch.qi_match.AndWith(
        *OnePredicate(preds[i], scratch, scratch.pred_bits, prepared));
  }
  return &scratch.qi_match;
}

AnatomyQueryEngine::CountSum AnatomyQueryEngine::EstimateCountSum(
    const CountQuery& query, bool need_sum, size_t measure_qi,
    EstimatorScratch& scratch) const {
  if (options_.mode == KernelMode::kScalar) {
    return EstimateScalar(query, need_sum, measure_qi, scratch);
  }
  return EstimateClustered(query, need_sum, measure_qi, scratch,
                           /*prepared=*/nullptr);
}

void AnatomyQueryEngine::EstimateCountSumBatch(const BatchQuery* batch,
                                               size_t count,
                                               EstimatorScratch& scratch,
                                               CountSum* out) const {
  if (options_.mode == KernelMode::kScalar) {
    // The scalar reference stays strictly one-query-at-a-time.
    for (size_t i = 0; i < count; ++i) {
      out[i] = EstimateScalar(*batch[i].query, batch[i].need_sum,
                              batch[i].measure_qi, scratch);
    }
    return;
  }

  // Materialize each distinct QI predicate once. Leases pin cached bitmaps
  // for the whole batch; without a cache the bitmaps live in the scratch's
  // batch storage. Zero-QI queries contribute nothing here and still take
  // their fast paths below.
  scratch.pred_refs.clear();
  scratch.ResetBatch();
  PreparedPredicateMap prepared;
  for (size_t qi = 0; qi < count; ++qi) {
    for (const AttributePredicate& pred : batch[qi].query->qi_predicates) {
      const uint64_t h = HashPredicateKey(pred.qi_index(), pred.values());
      auto& chain = prepared[h];
      bool present = false;
      for (const PreparedPredicate& p : chain) {
        if (p.column == pred.qi_index() && *p.values == pred.values()) {
          present = true;
          break;
        }
      }
      if (present) continue;
      const Bitmap* bitmap;
      if (cache_ != nullptr) {
        scratch.pred_refs.push_back(cache_->GetOrCompute(
            pred.qi_index(), pred.values(), [&](Bitmap& bm) {
              qit_index_->PredicateBitmap(pred.qi_index(), pred, bm);
            }));
        bitmap = scratch.pred_refs.back().get();
      } else {
        Bitmap* bm = scratch.NextBatchBitmap(qit_index_->num_rows());
        qit_index_->PredicateBitmap(pred.qi_index(), pred, *bm);
        bitmap = bm;
      }
      chain.push_back({pred.qi_index(), &pred.values(), bitmap});
    }
  }

  for (size_t i = 0; i < count; ++i) {
    out[i] = EstimateClustered(*batch[i].query, batch[i].need_sum,
                               batch[i].measure_qi, scratch, &prepared);
  }
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
    EstimatorScratch& scratch, const PreparedPredicateMap* prepared) const {
  CountSum out;
  const AttributePredicate& spred = query.sensitive_predicate;
  const std::vector<AttributePredicate>& preds = query.qi_predicates;
  const size_t qd = preds.size();
  const GroupId m = tables_->num_groups();

  if (!need_sum && qd == 0) {
    // Zero-QI COUNT is exact straight from the ST's published per-value
    // counts: one lookup per predicate value, no group work at all.
    for (Code v : spred.values()) {
      if (v < 0 || static_cast<size_t>(v) >= value_total_.size()) continue;
      out.count += static_cast<double>(value_total_[v]);
    }
    return out;
  }

  // Dense mass is computed lazily below: the selective dense paths go
  // straight to per-group weights and never need the mass array.
  const bool dense = UseDenseMass(spred);
  if (!dense && !AccumulateSparseMass(spred, scratch)) return out;

  // In batch mode the driver owns the leases pinning prepared bitmaps;
  // clearing here would free them mid-batch.
  if (prepared == nullptr) scratch.pred_refs.clear();
  const size_t* gs = group_start_.data();
  const double* inv = inv_group_size_.data();

  if (!need_sum) {
    if (dense) {
      // Dense COUNT: fold the whole conjunction once, then pick the exact
      // kernel by selectivity. Selective conjunctions take the weighted
      // set-bit walk — per-group weights are precomputed in one
      // vectorizable pass, and four rotating accumulator lanes break the
      // serial FP dependency chain of a single += stream. Broad
      // conjunctions fall back to one ranged popcount per mass group.
      const Bitmap* conj = FoldPredicates(preds, qd, scratch, prepared);
      const uint64_t matches = conj->Count();
      if (matches <= kWalkDensityFactor * static_cast<uint64_t>(m)) {
        ComputeDenseWeights(spred, scratch);
        const double* weight = scratch.group_weight.data();
        const uint32_t* base = word_group_base_.data();
        const uint8_t* off = bit_group_offset_.data();
        double acc[4] = {0.0, 0.0, 0.0, 0.0};
        size_t lane = 0;
        conj->ForEachSetBit([&](size_t i) {
          acc[lane++ & 3] += weight[base[i >> 6] + off[i]];
        });
        out.count = (acc[0] + acc[1]) + (acc[2] + acc[3]);
      } else {
        ComputeDenseMass(spred, scratch);
        const uint32_t* mass = scratch.group_mass_u32.data();
        for (GroupId g = 0; g < m; ++g) {
          if (mass[g] == 0) continue;
          out.count += static_cast<double>(mass[g]) * inv[g] *
                       static_cast<double>(conj->CountRange(gs[g], gs[g + 1]));
        }
      }
    } else {
      // Sparse COUNT touches few groups: fold all but the last predicate
      // and fuse the last into the ranged popcount — zero per-row work,
      // one kernel call per mass group.
      const Bitmap* fold = FoldPredicates(preds, qd - 1, scratch, prepared);
      const Bitmap* last =
          OnePredicate(preds[qd - 1], scratch, scratch.pred_bits, prepared);
      for (GroupId g : scratch.touched_groups) {
        const uint64_t cnt =
            fold == nullptr
                ? last->CountRange(gs[g], gs[g + 1])
                : Bitmap::AndCountRange(*fold, *last, gs[g], gs[g + 1]);
        out.count += scratch.group_mass[g] * inv[g] * static_cast<double>(cnt);
      }
    }
  } else {
    const Bitmap* fold = FoldPredicates(preds, qd, scratch, prepared);
    const double* vals = perm_values_[measure_qi].data();
    if (fold != nullptr && dense &&
        fold->Count() <= kWalkDensityFactor * static_cast<uint64_t>(m)) {
      // Selective dense SUM: the same weighted walk, also picking up the
      // measure value per matching row. Zero-mass groups carry weight 0.0
      // and contribute exact zeros.
      ComputeDenseWeights(spred, scratch);
      const double* weight = scratch.group_weight.data();
      const uint32_t* base = word_group_base_.data();
      const uint8_t* off = bit_group_offset_.data();
      double acc_c[2] = {0.0, 0.0};
      double acc_s[2] = {0.0, 0.0};
      size_t lane = 0;
      fold->ForEachSetBit([&](size_t i) {
        const double w = weight[base[i >> 6] + off[i]];
        acc_c[lane & 1] += w;
        acc_s[lane & 1] += w * vals[i];
        ++lane;
      });
      out.count = acc_c[0] + acc_c[1];
      out.sum = acc_s[0] + acc_s[1];
    } else {
      if (dense) ComputeDenseMass(spred, scratch);
      ForEachMassGroup(dense, m, scratch, [&](GroupId g, double mass) {
        const size_t lo = gs[g];
        const size_t hi = gs[g + 1];
        const double w = mass * inv[g];
        if (fold == nullptr) {
          // All rows of the group match the (empty) QI side: count adds
          // the mass exactly, the sum adds w * sum of the group's values.
          out.count += mass;
          double acc = 0.0;
          for (size_t i = lo; i < hi; ++i) acc += vals[i];
          out.sum += w * acc;
        } else {
          uint64_t cnt = 0;
          double acc = 0.0;
          fold->ForEachSetBitInRange(lo, hi, [&](size_t i) {
            ++cnt;
            acc += vals[i];
          });
          out.count += w * static_cast<double>(cnt);
          out.sum += w * acc;
        }
      });
    }
  }

  if (!dense) {
    for (GroupId g : scratch.touched_groups) scratch.group_mass[g] = 0.0;
  }
  return out;
}

void AnatomyQueryEngine::CollectSizeClassPartials(
    const CountQuery& query, bool need_sum, size_t measure_qi,
    EstimatorScratch& scratch,
    std::vector<GroupAggregatePartial>* out) const {
  ANATOMY_CHECK(options_.mode == KernelMode::kGroupClustered);
  out->clear();
  ComputeGroupMass(query.sensitive_predicate, scratch);
  scratch.pred_refs.clear();
  const Bitmap* fold =
      FoldPredicates(query.qi_predicates, query.qi_predicates.size(), scratch,
                     /*prepared=*/nullptr);

  // One pass over the matching rows (every row when there is no QI
  // predicate): row i of group g adds mass_g to N and mass_g * value_i to V
  // of g's size class. Groups without mass add exact zeros, so the loop
  // needs no branch. Rows rotate over kLanes accumulator copies: most rows
  // share one class, and a single copy would chain every add through
  // memory.
  constexpr size_t kLanes = 4;
  const size_t classes = class_size_.size();
  scratch.class_mass_match.assign(kLanes * classes, 0);
  scratch.class_mass_value.assign(kLanes * classes, 0);
  uint64_t* nm = scratch.class_mass_match.data();
  __int128* nv = scratch.class_mass_value.data();
  const uint32_t* mass = scratch.group_mass_u32.data();
  const uint32_t* cls = size_class_.data();
  const uint32_t* base = word_group_base_.data();
  const uint8_t* off = bit_group_offset_.data();
  // Not size_t: a uint64_t counter could alias the nm stores, which would
  // force it through memory on every row.
  uint32_t lane = 0;
  const auto for_each_match = [&](auto&& value_at) {
    const auto visit = [&](size_t i) {
      const GroupId g = base[i >> 6] + off[i];
      const size_t slot = cls[g] * kLanes + (lane++ & (kLanes - 1));
      nm[slot] += mass[g];
      if (need_sum) {
        nv[slot] += static_cast<__int128>(value_at(i)) * mass[g];
      }
    };
    if (fold != nullptr) {
      fold->ForEachSetBit(visit);
    } else {
      for (size_t i = 0; i < perm_.size(); ++i) visit(i);
    }
  };
  if (!need_sum) {
    for_each_match([](size_t) { return int64_t{0}; });
  } else if (exact_values_[measure_qi]) {
    // perm_values_ holds every value of this column exactly.
    const double* vals = perm_values_[measure_qi].data();
    for_each_match([vals](size_t i) { return static_cast<int64_t>(vals[i]); });
  } else {
    const AttributeDef& measure = tables_->qit().schema().attribute(measure_qi);
    const Code* codes = tables_->qit().column(measure_qi).data();
    const RowId* perm = perm_.data();
    for_each_match(
        [&](size_t i) { return IntegerValue(measure, codes[perm[i]]); });
  }
  for (size_t k = 0; k < classes; ++k) {
    GroupAggregatePartial p{class_size_[k], 0, 0};
    for (size_t j = k * kLanes; j < (k + 1) * kLanes; ++j) {
      p.mass_match += nm[j];
      p.mass_value += nv[j];
    }
    if (p.mass_match != 0) out->push_back(p);
  }
}

std::vector<uint64_t> AnatomyQueryEngine::GroupMatchCounts(
    const CountQuery& query, EstimatorScratch& scratch) const {
  const GroupId m = tables_->num_groups();
  std::vector<uint64_t> counts(m, 0);
  if (options_.mode == KernelMode::kGroupClustered) {
    scratch.pred_refs.clear();
    const Bitmap* fold =
        FoldPredicates(query.qi_predicates, query.qi_predicates.size(),
                       scratch, /*prepared=*/nullptr);
    for (GroupId g = 0; g < m; ++g) {
      counts[g] = fold == nullptr
                      ? group_start_[g + 1] - group_start_[g]
                      : fold->CountRange(group_start_[g], group_start_[g + 1]);
    }
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
