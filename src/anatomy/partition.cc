#include "anatomy/partition.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace anatomy {

Partition::Partition(std::vector<RowId> rows, std::vector<RowId> offsets)
    : rows_(std::move(rows)), offsets_(std::move(offsets)) {
  ANATOMY_CHECK(!offsets_.empty() && offsets_.front() == 0 &&
                offsets_.back() == rows_.size());
  ANATOMY_CHECK(std::ranges::is_sorted(offsets_));
}

void Partition::AddGroup(std::span<const RowId> rows) {
  rows_.insert(rows_.end(), rows.begin(), rows.end());
  offsets_.push_back(static_cast<RowId>(rows_.size()));
}

std::vector<GroupId> Partition::GroupOfRow(RowId n) const {
  std::vector<GroupId> owner(n, static_cast<GroupId>(-1));
  for (GroupId g = 0; g < num_groups(); ++g) {
    for (RowId r : group(g)) {
      ANATOMY_CHECK(r < n);
      ANATOMY_CHECK_MSG(owner[r] == static_cast<GroupId>(-1),
                        "row assigned to two groups");
      owner[r] = g;
    }
  }
  for (RowId r = 0; r < n; ++r) {
    ANATOMY_CHECK_MSG(owner[r] != static_cast<GroupId>(-1),
                      "row missing from partition");
  }
  return owner;
}

Status Partition::ValidateCover(RowId n) const {
  std::vector<bool> seen(n, false);
  for (GroupId g = 0; g < num_groups(); ++g) {
    if (group(g).empty()) return Status::InvalidArgument("empty QI-group");
    for (RowId r : group(g)) {
      if (r >= n) return Status::OutOfRange("row id beyond table");
      if (seen[r]) {
        return Status::InvalidArgument("row " + std::to_string(r) +
                                       " appears in two groups");
      }
      seen[r] = true;
    }
  }
  for (RowId r = 0; r < n; ++r) {
    if (!seen[r]) {
      return Status::InvalidArgument("row " + std::to_string(r) +
                                     " missing from partition");
    }
  }
  return Status::OK();
}

Status Partition::ValidateLDiverse(const Microdata& microdata, int l) const {
  if (l < 1) return Status::InvalidArgument("l must be >= 1");
  for (GroupId g = 0; g < num_groups(); ++g) {
    ANATOMY_RETURN_IF_ERROR(CheckGroupLDiversity(
        GroupSensitiveHistogram(microdata, group(g)), group(g).size(), l, g));
  }
  return Status::OK();
}

int Partition::MaxDiversity(const Microdata& microdata) const {
  uint64_t best = num_groups() == 0 ? 0 : UINT64_MAX;
  for (GroupId g = 0; g < num_groups(); ++g) {
    if (group(g).empty()) return 0;
    best = std::min(best, GroupDiversity(GroupSensitiveHistogram(
                                             microdata, group(g)),
                                         group(g).size()));
  }
  return static_cast<int>(best);
}

Partition PartitionWithResidues(
    std::span<const RowId> drawn, size_t l,
    std::span<const std::pair<GroupId, RowId>> residues) {
  ANATOMY_CHECK(l > 0 && drawn.size() % l == 0);
  std::vector<std::pair<GroupId, RowId>> sorted(residues.begin(),
                                                residues.end());
  std::ranges::stable_sort(sorted, {}, &std::pair<GroupId, RowId>::first);
  const size_t num_groups = drawn.size() / l;
  std::vector<RowId> rows;
  rows.reserve(drawn.size() + sorted.size());
  std::vector<RowId> offsets;
  offsets.reserve(num_groups + 1);
  offsets.push_back(0);
  auto next = sorted.begin();
  for (GroupId g = 0; g < num_groups; ++g) {
    rows.insert(rows.end(), drawn.begin() + g * l, drawn.begin() + (g + 1) * l);
    for (; next != sorted.end() && next->first == g; ++next) {
      rows.push_back(next->second);
    }
    offsets.push_back(static_cast<RowId>(rows.size()));
  }
  ANATOMY_CHECK(next == sorted.end());
  return Partition(std::move(rows), std::move(offsets));
}

std::vector<std::pair<Code, uint32_t>> GroupSensitiveHistogram(
    const Microdata& microdata, std::span<const RowId> group) {
  std::vector<Code> values;
  values.reserve(group.size());
  for (RowId r : group) values.push_back(microdata.sensitive_value(r));
  return ValueHistogram(std::move(values));
}

std::vector<std::pair<Code, uint32_t>> ValueHistogram(
    std::vector<Code> values) {
  std::sort(values.begin(), values.end());
  std::vector<std::pair<Code, uint32_t>> hist;
  for (const Code v : values) {
    if (hist.empty() || hist.back().first != v) hist.emplace_back(v, 0);
    ++hist.back().second;
  }
  return hist;
}

}  // namespace anatomy
