#include "query/exact_evaluator.h"

namespace anatomy {

ExactEvaluator::ExactEvaluator(const Microdata& microdata)
    : microdata_(&microdata) {
  std::vector<size_t> columns = microdata.qi_columns;
  columns.push_back(microdata.sensitive_column);
  index_ = std::make_unique<BitmapIndex>(microdata.table, columns);
}

uint64_t ExactEvaluator::Count(const CountQuery& query,
                               EstimatorScratch& scratch) const {
  scratch.qi_match.Reset(microdata_->n());
  scratch.qi_match.SetAll();
  for (const AttributePredicate& pred : query.qi_predicates) {
    const size_t column = microdata_->qi_columns[pred.qi_index()];
    index_->PredicateBitmap(column, pred, scratch.pred_bits);
    scratch.qi_match.AndWith(scratch.pred_bits);
  }
  index_->PredicateBitmap(microdata_->sensitive_column,
                          query.sensitive_predicate, scratch.pred_bits);
  scratch.qi_match.AndWith(scratch.pred_bits);
  return scratch.qi_match.Count();
}

uint64_t CountByScan(const Microdata& microdata, const CountQuery& query) {
  uint64_t count = 0;
  for (RowId r = 0; r < microdata.n(); ++r) {
    bool match = query.sensitive_predicate.Matches(microdata.sensitive_value(r));
    for (size_t i = 0; match && i < query.qi_predicates.size(); ++i) {
      const AttributePredicate& pred = query.qi_predicates[i];
      match = pred.Matches(microdata.qi_value(r, pred.qi_index()));
    }
    count += match;
  }
  return count;
}

}  // namespace anatomy
