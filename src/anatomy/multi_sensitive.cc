#include "anatomy/multi_sensitive.h"

#include <algorithm>
#include <queue>
#include <set>

#include "anatomy/anatomized_tables.h"
#include "anatomy/eligibility.h"
#include "common/check.h"
#include "common/rng.h"

namespace anatomy {

Status MultiMicrodata::Validate() const {
  if (sensitive_columns.empty()) {
    return Status::InvalidArgument("at least one sensitive attribute required");
  }
  std::set<size_t> seen;
  for (size_t c : qi_columns) {
    if (c >= table.num_columns()) {
      return Status::InvalidArgument("QI column out of range");
    }
    if (!seen.insert(c).second) {
      return Status::InvalidArgument("duplicate QI column");
    }
  }
  for (size_t c : sensitive_columns) {
    if (c >= table.num_columns()) {
      return Status::InvalidArgument("sensitive column out of range");
    }
    if (!seen.insert(c).second) {
      return Status::InvalidArgument(
          "column used twice across QI/sensitive sets");
    }
  }
  return Status::OK();
}

Microdata MultiMicrodata::WithSensitive(size_t which) const {
  ANATOMY_CHECK(which < sensitive_columns.size());
  Microdata md;
  md.table = table;
  md.qi_columns = qi_columns;
  md.sensitive_column = sensitive_columns[which];
  return md;
}

MultiAnatomizer::MultiAnatomizer(const MultiAnatomizerOptions& options)
    : options_(options) {}

StatusOr<Partition> MultiAnatomizer::ComputePartition(
    const MultiMicrodata& microdata) const {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  const size_t k = microdata.sensitive_columns.size();
  for (size_t s = 0; s < k; ++s) {
    ANATOMY_RETURN_IF_ERROR(
        CheckEligibility(microdata.WithSensitive(s), options_.l));
  }
  const size_t l = static_cast<size_t>(options_.l);
  Rng rng(options_.seed);

  // Buckets on the primary (first) sensitive attribute, like Anatomize.
  const size_t primary = microdata.sensitive_columns[0];
  const Code domain = microdata.table.schema().attribute(primary).domain_size;
  std::vector<std::vector<RowId>> buckets(domain);
  for (RowId r = 0; r < microdata.n(); ++r) {
    buckets[microdata.table.at(r, primary)].push_back(r);
  }
  for (auto& b : buckets) rng.Shuffle(b);

  size_t non_empty = 0;
  std::priority_queue<std::pair<size_t, size_t>> heap;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (!buckets[i].empty()) {
      heap.push({buckets[i].size(), i});
      ++non_empty;
    }
  }

  // Each complete group's rows, flat: group g's are drawn[g*l, (g+1)*l).
  std::vector<RowId> drawn;
  // Values already present in the group under construction, per attribute.
  std::vector<std::set<Code>> used(k);

  auto conflicts = [&](RowId r) {
    for (size_t s = 0; s < k; ++s) {
      if (used[s].count(microdata.table.at(r, microdata.sensitive_columns[s]))) {
        return true;
      }
    }
    return false;
  };
  auto take = [&](RowId r, std::vector<RowId>& group) {
    for (size_t s = 0; s < k; ++s) {
      used[s].insert(microdata.table.at(r, microdata.sensitive_columns[s]));
    }
    group.push_back(r);
  };

  std::vector<RowId> group;
  std::vector<std::pair<size_t, size_t>> popped;  // for re-push
  while (non_empty >= l) {
    for (auto& u : used) u.clear();
    group.clear();
    popped.clear();

    // Draw from largest primary buckets, skipping tuples that collide on a
    // secondary attribute; within a bucket scan from a random offset so ties
    // do not always pick the same tuples.
    while (group.size() < l && !heap.empty()) {
      auto [size, idx] = heap.top();
      heap.pop();
      if (size != buckets[idx].size() || buckets[idx].empty()) {
        if (!buckets[idx].empty()) heap.push({buckets[idx].size(), idx});
        continue;
      }
      auto& bucket = buckets[idx];
      bool taken = false;
      for (size_t probe = 0; probe < bucket.size(); ++probe) {
        const size_t pos = bucket.size() - 1 - probe;  // back = random order
        if (!conflicts(bucket[pos])) {
          take(bucket[pos], group);
          std::swap(bucket[pos], bucket.back());
          bucket.pop_back();
          taken = true;
          break;
        }
      }
      if (bucket.empty()) {
        --non_empty;
      } else {
        popped.push_back({bucket.size(), idx});
      }
      if (!taken) continue;
    }
    for (auto& e : popped) heap.push(e);

    if (group.size() < l) {
      // Could not complete a conflict-free group; return the drawn tuples
      // and stop forming groups.
      for (RowId r : group) {
        buckets[microdata.table.at(r, primary)].push_back(r);
      }
      break;
    }
    drawn.insert(drawn.end(), group.begin(), group.end());
  }

  const size_t num_groups = drawn.size() / l;
  if (num_groups == 0) {
    return Status::FailedPrecondition(
        "could not form any simultaneously diverse QI-group");
  }

  // Residue assignment: place each leftover tuple into a group where all of
  // its sensitive values are absent.
  std::vector<std::vector<std::set<Code>>> group_used(
      num_groups, std::vector<std::set<Code>>(k));
  for (size_t i = 0; i < drawn.size(); ++i) {
    for (size_t s = 0; s < k; ++s) {
      group_used[i / l][s].insert(
          microdata.table.at(drawn[i], microdata.sensitive_columns[s]));
    }
  }
  std::vector<std::pair<GroupId, RowId>> residues;  // (group, row)
  for (auto& bucket : buckets) {
    for (RowId r : bucket) {
      std::vector<GroupId> candidates;
      for (GroupId g = 0; g < num_groups; ++g) {
        bool ok = true;
        for (size_t s = 0; s < k && ok; ++s) {
          ok = group_used[g][s].count(microdata.table.at(
                   r, microdata.sensitive_columns[s])) == 0;
        }
        if (ok) candidates.push_back(g);
      }
      if (candidates.empty()) {
        return Status::FailedPrecondition(
            "multi-sensitive heuristic stranded a tuple; no group can absorb "
            "it without breaking simultaneous diversity");
      }
      const GroupId g = candidates[rng.NextBounded(candidates.size())];
      residues.push_back({g, r});
      for (size_t s = 0; s < k; ++s) {
        group_used[g][s].insert(
            microdata.table.at(r, microdata.sensitive_columns[s]));
      }
    }
  }
  return PartitionWithResidues(drawn, l, residues);
}

Status ValidateMultiLDiverse(const MultiMicrodata& microdata,
                             const Partition& partition, int l) {
  ANATOMY_RETURN_IF_ERROR(partition.ValidateCover(microdata.n()));
  for (size_t s = 0; s < microdata.sensitive_columns.size(); ++s) {
    const Microdata view = microdata.WithSensitive(s);
    ANATOMY_RETURN_IF_ERROR(partition.ValidateLDiverse(view, l));
  }
  return Status::OK();
}

std::vector<Table> BuildMultiSt(const MultiMicrodata& microdata,
                                const Partition& partition) {
  std::vector<Table> tables;
  tables.reserve(microdata.sensitive_columns.size());
  for (size_t s = 0; s < microdata.sensitive_columns.size(); ++s) {
    tables.push_back(
        BuildSensitiveTable(microdata.WithSensitive(s), partition));
  }
  return tables;
}

}  // namespace anatomy
