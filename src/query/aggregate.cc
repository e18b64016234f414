#include "query/aggregate.h"

#include <algorithm>

#include "common/check.h"

namespace anatomy {

double ExactAggregate(const Microdata& microdata, const AggregateQuery& query) {
  uint64_t count = 0;
  double sum = 0.0;
  const AttributeDef& measure =
      microdata.qi_attribute(query.kind == AggregateKind::kCount
                                 ? 0
                                 : query.measure_qi);
  for (RowId r = 0; r < microdata.n(); ++r) {
    bool match = query.predicates.sensitive_predicate.Matches(
        microdata.sensitive_value(r));
    for (size_t i = 0; match && i < query.predicates.qi_predicates.size();
         ++i) {
      const AttributePredicate& pred = query.predicates.qi_predicates[i];
      match = pred.Matches(microdata.qi_value(r, pred.qi_index()));
    }
    if (!match) continue;
    ++count;
    if (query.kind != AggregateKind::kCount) {
      sum += NumericValue(measure, microdata.qi_value(r, query.measure_qi));
    }
  }
  switch (query.kind) {
    case AggregateKind::kCount:
      return static_cast<double>(count);
    case AggregateKind::kSum:
      return sum;
    case AggregateKind::kAvg:
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  return 0.0;
}

// ---------------------------------------------------------------- anatomy --

AnatomyAggregateEstimator::AnatomyAggregateEstimator(
    const AnatomizedTables& tables, const EstimatorOptions& options)
    : engine_(tables, options) {}

double AnatomyAggregateEstimator::Estimate(const AggregateQuery& query,
                                           EstimatorScratch& scratch) const {
  const bool need_sum = query.kind != AggregateKind::kCount;
  const AnatomyQueryEngine::CountSum cs = engine_.EstimateCountSum(
      query.predicates, need_sum, query.measure_qi, scratch);
  switch (query.kind) {
    case AggregateKind::kCount:
      return cs.count;
    case AggregateKind::kSum:
      return cs.sum;
    case AggregateKind::kAvg:
      return cs.count == 0.0 ? 0.0 : cs.sum / cs.count;
  }
  return 0.0;
}

// --------------------------------------------------------- generalization --

GeneralizationAggregateEstimator::GeneralizationAggregateEstimator(
    const GeneralizedTable& table, const Microdata& microdata)
    : table_(&table) {
  for (size_t i = 0; i < microdata.d(); ++i) {
    qi_attributes_.push_back(microdata.qi_attribute(i));
  }
  Code max_value = 0;
  for (const GeneralizedGroup& group : table.groups()) {
    for (const auto& [value, count] : group.histogram) {
      max_value = std::max(max_value, value);
    }
  }
  postings_.resize(static_cast<size_t>(max_value) + 1);
  for (GroupId g = 0; g < table.num_groups(); ++g) {
    for (const auto& [value, count] : table.group(g).histogram) {
      postings_[value].push_back({g, count});
    }
  }
}

GeneralizationAggregateEstimator::CountSum
GeneralizationAggregateEstimator::EstimateCountSum(
    const AggregateQuery& query, EstimatorScratch& scratch) const {
  CountSum out;
  scratch.EnsureGroupMass(table_->num_groups());
  scratch.touched_groups.clear();
  for (Code v : query.predicates.sensitive_predicate.values()) {
    // Out-of-domain sensitive codes qualify no tuples.
    if (v < 0 || static_cast<size_t>(v) >= postings_.size()) continue;
    for (const auto& [g, count] : postings_[v]) {
      if (scratch.group_mass[g] == 0.0) scratch.touched_groups.push_back(g);
      scratch.group_mass[g] += count;
    }
  }
  const bool need_sum = query.kind != AggregateKind::kCount;

  for (GroupId g : scratch.touched_groups) {
    const GeneralizedGroup& group = table_->group(g);
    double p = 1.0;
    const AttributePredicate* measure_pred = nullptr;
    for (const AttributePredicate& pred : query.predicates.qi_predicates) {
      const CodeInterval& extent = group.extents[pred.qi_index()];
      const int64_t overlap = pred.CountValuesIn(extent);
      if (pred.qi_index() == query.measure_qi) measure_pred = &pred;
      if (overlap == 0) {
        p = 0.0;
        break;
      }
      p *= static_cast<double>(overlap) / static_cast<double>(extent.length());
    }
    if (p != 0.0) {
      const double expected_matches = p * scratch.group_mass[g];
      out.count += expected_matches;
      if (need_sum) {
        // Conditional mean of the measure for a uniformly-spread matching
        // tuple: over the predicate's values inside the cell if the measure
        // is constrained, over the whole cell interval otherwise.
        const AttributeDef& attr = qi_attributes_[query.measure_qi];
        const CodeInterval& extent = group.extents[query.measure_qi];
        double mean = 0.0;
        if (measure_pred != nullptr) {
          int64_t matched = 0;
          for (Code v : measure_pred->values()) {
            if (extent.Contains(v)) {
              mean += NumericValue(attr, v);
              ++matched;
            }
          }
          mean = matched == 0 ? 0.0 : mean / static_cast<double>(matched);
        } else {
          // Uniform over [lo, hi]: the mean is the midpoint in value space.
          mean = (NumericValue(attr, extent.lo) +
                  NumericValue(attr, extent.hi)) /
                 2.0;
        }
        out.sum += expected_matches * mean;
      }
    }
    scratch.group_mass[g] = 0.0;
  }
  return out;
}

double GeneralizationAggregateEstimator::Estimate(
    const AggregateQuery& query, EstimatorScratch& scratch) const {
  const CountSum cs = EstimateCountSum(query, scratch);
  switch (query.kind) {
    case AggregateKind::kCount:
      return cs.count;
    case AggregateKind::kSum:
      return cs.sum;
    case AggregateKind::kAvg:
      return cs.count == 0.0 ? 0.0 : cs.sum / cs.count;
  }
  return 0.0;
}

}  // namespace anatomy
