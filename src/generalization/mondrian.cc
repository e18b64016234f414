#include "generalization/mondrian.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "anatomy/eligibility.h"
#include "common/check.h"

namespace anatomy {

std::optional<Code> ChooseCutForAttribute(
    const Taxonomy& taxonomy, const CodeInterval& extent,
    std::span<const uint32_t> value_counts,
    std::span<const uint32_t> value_sens, size_t sens_domain, int l,
    uint64_t total) {
  const std::vector<Code> cuts = taxonomy.CutsWithin(extent);
  if (cuts.empty()) return std::nullopt;
  const size_t width = static_cast<size_t>(extent.length());
  ANATOMY_CHECK(value_counts.size() == width);
  ANATOMY_CHECK(value_sens.size() == width * sens_domain);

  // Totals per sensitive value over the whole node.
  std::vector<uint64_t> total_sens(sens_domain, 0);
  for (size_t v = 0; v < width; ++v) {
    for (size_t s = 0; s < sens_domain; ++s) {
      total_sens[s] += value_sens[v * sens_domain + s];
    }
  }

  // Sweep values left to right, maintaining the left half's statistics, and
  // evaluate each admissible cut as it is passed.
  std::vector<uint64_t> left_sens(sens_domain, 0);
  uint64_t left_size = 0;
  uint64_t left_max = 0;

  std::optional<Code> best;
  uint64_t best_imbalance = 0;
  const uint64_t half = total / 2;

  size_t cut_idx = 0;
  for (Code v = extent.lo; v <= extent.hi && cut_idx < cuts.size(); ++v) {
    const size_t offset = static_cast<size_t>(v - extent.lo);
    left_size += value_counts[offset];
    for (size_t s = 0; s < sens_domain; ++s) {
      const uint32_t c = value_sens[offset * sens_domain + s];
      if (c != 0) {
        left_sens[s] += c;
        left_max = std::max(left_max, left_sens[s]);
      }
    }
    if (cuts[cut_idx] != v) continue;
    ++cut_idx;

    const uint64_t right_size = total - left_size;
    if (left_size < static_cast<uint64_t>(l) ||
        right_size < static_cast<uint64_t>(l)) {
      continue;
    }
    // l-diversity of both halves (Inequality 1).
    if (left_max * l > left_size) continue;
    uint64_t right_max = 0;
    for (size_t s = 0; s < sens_domain; ++s) {
      right_max = std::max(right_max, total_sens[s] - left_sens[s]);
    }
    if (right_max * l > right_size) continue;

    const uint64_t imbalance =
        left_size > half ? left_size - half : half - left_size;
    if (!best.has_value() || imbalance < best_imbalance) {
      best = cuts[cut_idx - 1];
      best_imbalance = imbalance;
    }
  }
  return best;
}

namespace {

/// Recursion state shared across nodes, so per-node work allocates only the
/// extent-sized statistics it actually touches.
class MondrianContext {
 public:
  MondrianContext(const Microdata& microdata, const TaxonomySet& taxonomies,
                  int l)
      : microdata_(microdata),
        taxonomies_(taxonomies),
        l_(l),
        sens_domain_(static_cast<size_t>(
            microdata.sensitive_attribute().domain_size)) {}

  void Recurse(std::vector<RowId> rows, Partition* out) {
    std::optional<MondrianSplit> split = FindSplit(rows);
    if (!split.has_value()) {
      out->AddGroup(rows);
      return;
    }
    std::vector<RowId> left;
    std::vector<RowId> right;
    left.reserve(rows.size() / 2 + 1);
    right.reserve(rows.size() / 2 + 1);
    for (RowId r : rows) {
      if (microdata_.qi_value(r, split->attribute) <= split->cut) {
        left.push_back(r);
      } else {
        right.push_back(r);
      }
    }
    rows.clear();
    rows.shrink_to_fit();
    Recurse(std::move(left), out);
    Recurse(std::move(right), out);
  }

  /// The Mondrian split decision for one node.
  std::optional<MondrianSplit> FindSplit(const std::vector<RowId>& rows) {
    const size_t d = microdata_.d();
    // Pass 1: per-attribute extents (actual value ranges in this node).
    std::vector<CodeInterval> extents(d);
    for (size_t i = 0; i < d; ++i) {
      Code lo = microdata_.qi_value(rows[0], i);
      Code hi = lo;
      for (RowId r : rows) {
        const Code v = microdata_.qi_value(r, i);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      extents[i] = {lo, hi};
    }
    // Attributes by decreasing normalized width (Mondrian's choice rule),
    // falling through to narrower ones when the widest cannot split.
    std::vector<size_t> order(d);
    std::iota(order.begin(), order.end(), 0);
    auto normalized = [&](size_t i) {
      return static_cast<double>(extents[i].length()) /
             microdata_.qi_attribute(i).domain_size;
    };
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return normalized(a) > normalized(b);
    });

    for (size_t i : order) {
      if (extents[i].length() < 2) continue;
      const size_t width = static_cast<size_t>(extents[i].length());
      std::vector<uint32_t> value_counts(width, 0);
      std::vector<uint32_t> value_sens(width * sens_domain_, 0);
      for (RowId r : rows) {
        const size_t v =
            static_cast<size_t>(microdata_.qi_value(r, i) - extents[i].lo);
        ++value_counts[v];
        ++value_sens[v * sens_domain_ +
                     static_cast<size_t>(microdata_.sensitive_value(r))];
      }
      std::optional<Code> cut = ChooseCutForAttribute(
          taxonomies_.at(microdata_.qi_columns[i]), extents[i], value_counts,
          value_sens, sens_domain_, l_, rows.size());
      if (cut.has_value()) return MondrianSplit{i, *cut};
    }
    return std::nullopt;
  }

 private:
  const Microdata& microdata_;
  const TaxonomySet& taxonomies_;
  int l_;
  size_t sens_domain_;
};

}  // namespace

Mondrian::Mondrian(const MondrianOptions& options) : options_(options) {}

StatusOr<Partition> Mondrian::ComputePartition(
    const Microdata& microdata, const TaxonomySet& taxonomies) const {
  std::vector<RowId> rows(microdata.n());
  std::iota(rows.begin(), rows.end(), 0);
  return PartitionRows(microdata, taxonomies, std::move(rows));
}

StatusOr<Partition> Mondrian::PartitionRows(const Microdata& microdata,
                                            const TaxonomySet& taxonomies,
                                            std::vector<RowId> rows) const {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  if (taxonomies.size() < microdata.d()) {
    return Status::InvalidArgument("need one taxonomy per QI attribute");
  }
  for (size_t i = 0; i < microdata.d(); ++i) {
    if (taxonomies.at(microdata.qi_columns[i]).domain_size() !=
        microdata.qi_attribute(i).domain_size) {
      return Status::InvalidArgument(
          "taxonomy domain mismatch on QI attribute " + std::to_string(i));
    }
  }
  if (rows.empty()) return Status::InvalidArgument("empty row set");
  // Root eligibility; the split rule preserves it for all descendants.
  {
    std::vector<uint32_t> counts(microdata.sensitive_attribute().domain_size,
                                 0);
    uint32_t max_count = 0;
    for (RowId r : rows) {
      max_count = std::max(max_count, ++counts[microdata.sensitive_value(r)]);
    }
    if (static_cast<uint64_t>(max_count) * options_.l > rows.size()) {
      return Status::FailedPrecondition(
          "row set is not l-eligible; no l-diverse generalization exists");
    }
  }
  Partition partition;
  MondrianContext context(microdata, taxonomies, options_.l);
  context.Recurse(std::move(rows), &partition);
  return partition;
}

}  // namespace anatomy
