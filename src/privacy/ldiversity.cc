#include "privacy/ldiversity.h"

#include <algorithm>
#include <cmath>

namespace anatomy {

Status VerifyAnatomizedLDiversity(const AnatomizedTables& tables, int l) {
  return VerifyLDiversity(tables, l);
}

Status VerifyGeneralizedLDiversity(const GeneralizedTable& table, int l) {
  if (l < 1) return Status::InvalidArgument("l must be >= 1");
  for (GroupId g = 0; g < table.num_groups(); ++g) {
    ANATOMY_RETURN_IF_ERROR(
        CheckGroupLDiversity(table.group(g).histogram, table.group(g).size, l,
                             g));
  }
  return Status::OK();
}

bool GroupIsRecursiveClDiverse(
    const std::vector<std::pair<Code, uint32_t>>& histogram, double c, int l) {
  if (static_cast<int>(histogram.size()) < l) return false;
  std::vector<uint32_t> counts;
  counts.reserve(histogram.size());
  for (const auto& [value, count] : histogram) counts.push_back(count);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  uint64_t tail = 0;
  for (size_t i = static_cast<size_t>(l) - 1; i < counts.size(); ++i) {
    tail += counts[i];
  }
  return counts[0] < c * static_cast<double>(tail);
}

Status VerifyRecursiveClDiversity(const AnatomizedTables& tables, double c,
                                  int l) {
  if (l < 2) return Status::InvalidArgument("l must be >= 2");
  if (c <= 0) return Status::InvalidArgument("c must be positive");
  for (GroupId g = 0; g < tables.num_groups(); ++g) {
    const GroupHistogram hist = tables.group_histogram(g);
    if (!GroupIsRecursiveClDiverse({hist.begin(), hist.end()}, c, l)) {
      return Status::FailedPrecondition(
          "group " + std::to_string(g + 1) +
          " is not recursively (c, l)-diverse");
    }
  }
  return Status::OK();
}

bool GroupIsEntropyLDiverse(
    const std::vector<std::pair<Code, uint32_t>>& histogram, double l) {
  if (l <= 0) return false;
  uint64_t total = 0;
  for (const auto& [value, count] : histogram) total += count;
  if (total == 0) return false;
  double entropy = 0.0;
  for (const auto& [value, count] : histogram) {
    const double p = static_cast<double>(count) / static_cast<double>(total);
    entropy -= p * std::log(p);
  }
  // Tiny epsilon absorbs floating-point error for exactly-uniform groups.
  return entropy + 1e-12 >= std::log(l);
}

Status VerifyEntropyLDiversity(const AnatomizedTables& tables, double l) {
  if (l < 1) return Status::InvalidArgument("l must be >= 1");
  for (GroupId g = 0; g < tables.num_groups(); ++g) {
    const GroupHistogram hist = tables.group_histogram(g);
    if (!GroupIsEntropyLDiverse({hist.begin(), hist.end()}, l)) {
      return Status::FailedPrecondition(
          "group " + std::to_string(g + 1) + " is not entropy " +
          std::to_string(l) + "-diverse");
    }
  }
  return Status::OK();
}

}  // namespace anatomy
