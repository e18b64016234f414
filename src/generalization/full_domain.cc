#include "generalization/full_domain.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace anatomy {

FullDomainGeneralizer::FullDomainGeneralizer(const FullDomainOptions& options)
    : options_(options) {}

CodeInterval FullDomainGeneralizer::LevelInterval(const Taxonomy& taxonomy,
                                                  Code value, int level) {
  ANATOMY_CHECK(level >= 0);
  if (level == 0) return CodeInterval{value, value};
  if (taxonomy.is_free()) {
    // Implicit balanced binary hierarchy: aligned intervals of 2^level codes.
    const int64_t width = int64_t{1} << std::min(level, 30);
    const Code lo = static_cast<Code>((value / width) * width);
    const Code hi = static_cast<Code>(
        std::min<int64_t>(lo + width - 1, taxonomy.domain_size() - 1));
    return CodeInterval{lo, hi};
  }
  const int clamped = std::min(level, taxonomy.height());
  return taxonomy.IntervalAt(clamped, value);
}

int FullDomainGeneralizer::MaxLevel(const Taxonomy& taxonomy) {
  if (!taxonomy.is_free()) return taxonomy.height();
  int level = 0;
  while ((int64_t{1} << level) < taxonomy.domain_size()) ++level;
  return level;
}

StatusOr<FullDomainResult> FullDomainGeneralizer::Compute(
    const Microdata& microdata, const TaxonomySet& taxonomies) const {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  const size_t d = microdata.d();
  if (taxonomies.size() < d) {
    return Status::InvalidArgument("need one taxonomy per QI attribute");
  }
  if (options_.l < 1) return Status::InvalidArgument("l must be >= 1");
  if (options_.max_suppression < 0 || options_.max_suppression > 1) {
    return Status::InvalidArgument("max_suppression must be in [0, 1]");
  }
  const auto taxonomy_of = [&](size_t i) -> const Taxonomy& {
    return taxonomies.at(microdata.qi_columns[i]);
  };

  FullDomainResult result;
  result.levels.assign(d, 0);
  const uint64_t budget = static_cast<uint64_t>(
      options_.max_suppression * static_cast<double>(microdata.n()));

  for (;;) {
    // Equivalence classes under the current level vector.
    std::map<std::vector<Code>, std::vector<RowId>> classes;
    std::vector<Code> key(d);
    for (RowId r = 0; r < microdata.n(); ++r) {
      for (size_t i = 0; i < d; ++i) {
        key[i] =
            LevelInterval(taxonomy_of(i), microdata.qi_value(r, i),
                          result.levels[i])
                .lo;
      }
      classes[key].push_back(r);
    }

    // Datafly-style accounting: classes violating l-diversity are candidates
    // for suppression.
    const auto violates = [&](const std::vector<RowId>& rows) {
      return GroupDiversity(GroupSensitiveHistogram(microdata, rows),
                            rows.size()) < static_cast<uint64_t>(options_.l);
    };
    uint64_t violating_rows = 0;
    for (const auto& [k, rows] : classes) {
      if (violates(rows)) violating_rows += rows.size();
    }

    if (violating_rows <= budget) {
      result.partition = Partition();
      result.suppressed.clear();
      for (const auto& [k, rows] : classes) {
        if (violates(rows)) {
          result.suppressed.insert(result.suppressed.end(), rows.begin(),
                                   rows.end());
        } else {
          result.partition.AddGroup(rows);
        }
      }
      if (result.partition.num_groups() == 0) {
        return Status::FailedPrecondition(
            "every equivalence class violates l-diversity even at the top "
            "of the hierarchy; the table is not l-eligible");
      }
      std::sort(result.suppressed.begin(), result.suppressed.end());
      return result;
    }

    // Generalize the attribute with the most distinct generalized values
    // (Datafly's heuristic), among those not yet fully generalized.
    size_t best_attr = d;
    size_t best_distinct = 0;
    for (size_t i = 0; i < d; ++i) {
      if (result.levels[i] >= MaxLevel(taxonomy_of(i))) continue;
      std::vector<char> seen(taxonomy_of(i).domain_size(), 0);
      size_t distinct = 0;
      for (RowId r = 0; r < microdata.n(); ++r) {
        const Code lo = LevelInterval(taxonomy_of(i), microdata.qi_value(r, i),
                                      result.levels[i])
                            .lo;
        if (!seen[lo]) {
          seen[lo] = 1;
          ++distinct;
        }
      }
      if (best_attr == d || distinct > best_distinct) {
        best_attr = i;
        best_distinct = distinct;
      }
    }
    if (best_attr == d) {
      return Status::FailedPrecondition(
          "suppression budget exceeded with all attributes fully "
          "generalized (" +
          std::to_string(violating_rows) + " of " +
          std::to_string(microdata.n()) + " rows violate)");
    }
    ++result.levels[best_attr];
  }
}

StatusOr<FullDomainPublication> BuildFullDomainPublication(
    const Microdata& microdata, const TaxonomySet& taxonomies,
    const FullDomainResult& result) {
  const size_t d = microdata.d();
  // Kept rows, in original order, plus the old->new renumbering.
  std::vector<RowId> kept;
  {
    std::vector<bool> is_suppressed(microdata.n(), false);
    for (RowId r : result.suppressed) is_suppressed[r] = true;
    for (RowId r = 0; r < microdata.n(); ++r) {
      if (!is_suppressed[r]) kept.push_back(r);
    }
  }
  std::vector<RowId> new_index(microdata.n(), 0);
  for (size_t i = 0; i < kept.size(); ++i) new_index[kept[i]] = static_cast<RowId>(i);

  FullDomainPublication publication;
  publication.kept_microdata.table = microdata.table.SelectRows(kept);
  publication.kept_microdata.qi_columns = microdata.qi_columns;
  publication.kept_microdata.sensitive_column = microdata.sensitive_column;

  Partition renumbered;
  std::vector<std::vector<CodeInterval>> cells;
  cells.reserve(result.partition.num_groups());
  std::vector<RowId> rows;
  for (GroupId g = 0; g < result.partition.num_groups(); ++g) {
    const std::span<const RowId> group = result.partition.group(g);
    rows.clear();
    for (RowId r : group) rows.push_back(new_index[r]);
    // The published cell is the level interval of any member (identical for
    // all by construction of the equivalence classes).
    std::vector<CodeInterval> cell(d);
    for (size_t i = 0; i < d; ++i) {
      cell[i] = FullDomainGeneralizer::LevelInterval(
          taxonomies.at(microdata.qi_columns[i]), microdata.qi_value(group[0], i),
          result.levels[i]);
    }
    renumbered.AddGroup(rows);
    cells.push_back(std::move(cell));
  }
  ANATOMY_ASSIGN_OR_RETURN(
      publication.table,
      GeneralizedTable::FromCells(publication.kept_microdata, renumbered,
                                  cells));
  return publication;
}

}  // namespace anatomy
