#include "anatomy/anatomizer.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "anatomy/eligibility.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace anatomy {

namespace {

/// Per-sensitive-value bucket of row ids. Removal order is randomized by
/// swapping a random element to the back before popping, which implements
/// Line 7's "remove an arbitrary tuple" without O(n) erasure.
struct Bucket {
  Code value = 0;
  std::vector<RowId> rows;

  RowId PopRandom(Rng& rng) {
    ANATOMY_CHECK(!rows.empty());
    const size_t i = rng.NextBounded(rows.size());
    std::swap(rows[i], rows.back());
    const RowId r = rows.back();
    rows.pop_back();
    return r;
  }
};

using BucketList = std::vector<Bucket>;

BucketList HashBySensitiveValue(std::span<const Code> sensitive,
                                Code domain) {
  BucketList buckets(domain);
  for (Code v = 0; v < domain; ++v) buckets[v].value = v;
  for (RowId r = 0; r < sensitive.size(); ++r) {
    buckets[sensitive[r]].rows.push_back(r);
  }
  // Drop empty buckets: the algorithm only tracks values that occur.
  BucketList live;
  live.reserve(buckets.size());
  for (auto& b : buckets) {
    if (!b.rows.empty()) live.push_back(std::move(b));
  }
  return live;
}

/// Lazy max-heap over bucket sizes: entries carry the size at push time and
/// are re-validated on pop, so each size change is O(log lambda) amortized.
class LargestBucketQueue {
 public:
  explicit LargestBucketQueue(const BucketList& buckets) {
    for (size_t i = 0; i < buckets.size(); ++i) {
      heap_.push({buckets[i].rows.size(), i});
    }
  }

  /// Pops the index of the currently largest bucket, given live sizes.
  size_t PopLargest(const BucketList& buckets) {
    for (;;) {
      ANATOMY_CHECK(!heap_.empty());
      auto [size, idx] = heap_.top();
      heap_.pop();
      if (size == buckets[idx].rows.size()) return idx;
      if (!buckets[idx].rows.empty()) {
        heap_.push({buckets[idx].rows.size(), idx});  // Stale entry: refresh.
      }
    }
  }

  void Push(size_t idx, size_t size) {
    if (size > 0) heap_.push({size, idx});
  }

 private:
  std::priority_queue<std::pair<size_t, size_t>> heap_;
};

}  // namespace

Anatomizer::Anatomizer(const AnatomizerOptions& options) : options_(options) {}

StatusOr<Partition> Anatomizer::ComputePartition(
    const Microdata& microdata) const {
  return ComputePartitionWithPolicy(microdata, BucketPolicy::kLargestFirst);
}

StatusOr<Partition> Anatomizer::ComputePartitionWithPolicy(
    const Microdata& microdata, BucketPolicy policy) const {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  ANATOMY_RETURN_IF_ERROR(CheckEligibility(microdata, options_.l));
  return ComputePartitionFromCodes(microdata.table.column(microdata.sensitive_column),
                                   microdata.sensitive_attribute().domain_size,
                                   policy);
}

StatusOr<Partition> Anatomizer::ComputePartitionFromCodes(
    std::span<const Code> sensitive, Code domain, BucketPolicy policy) const {
  if (options_.l < 2) {
    return Status::InvalidArgument("l must be >= 2 for meaningful diversity");
  }
  if (domain <= 0) {
    return Status::InvalidArgument("sensitive domain must be positive");
  }
  // One fused pass validates the codes and checks eligibility (Property 1's
  // precondition: no value may occur more than n/l times).
  {
    std::vector<uint64_t> counts(static_cast<size_t>(domain), 0);
    for (Code v : sensitive) {
      if (v < 0 || v >= domain) {
        return Status::InvalidArgument("sensitive code out of domain");
      }
      ++counts[static_cast<size_t>(v)];
    }
    const uint64_t n = sensitive.size();
    for (Code v = 0; v < domain; ++v) {
      const uint64_t c = counts[static_cast<size_t>(v)];
      if (c * static_cast<uint64_t>(options_.l) > n) {
        return Status::FailedPrecondition(
            "not " + std::to_string(options_.l) +
            "-eligible: sensitive code " + std::to_string(v) + " occurs " +
            std::to_string(c) + " times in " + std::to_string(n) + " tuples");
      }
    }
  }
  const size_t l = static_cast<size_t>(options_.l);
  Rng rng(options_.seed);

  // Phase timings go to the registry only when metrics are on; a null
  // recorder disarms the ScopedTimer so the disabled path skips the clock.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const bool metrics_on = obs::MetricsEnabled();

  obs::ScopedSpan bucketize_span("anatomize.bucketize", "anatomize");
  BucketList buckets;
  {
    ScopedTimer<obs::Histogram> timer(
        metrics_on ? registry.GetHistogram("anatomize.phase.bucketize_ns")
                   : nullptr);
    buckets = HashBySensitiveValue(sensitive, domain);
  }
  bucketize_span.End();
  size_t non_empty = buckets.size();

  Partition partition;
  /// The l sensitive values drawn into each group, flat: group g's values
  /// are group_codes[g*l, (g+1)*l). Residue assignment reads membership
  /// from here.
  std::vector<Code> group_codes;

  // ---- Group-creation step (Lines 3-8). ----
  obs::ScopedSpan group_draw_span("anatomize.group_draw", "anatomize");
  Stopwatch group_draw_watch;
  LargestBucketQueue queue(buckets);
  size_t round_robin_cursor = 0;
  std::vector<size_t> drawn;  // bucket indices used by this iteration
  while (non_empty >= l) {
    drawn.clear();
    if (policy == BucketPolicy::kLargestFirst) {
      for (size_t k = 0; k < l; ++k) drawn.push_back(queue.PopLargest(buckets));
    } else {
      // Ablation: take the next l non-empty buckets in cyclic order. The
      // scan is bounded to one full cycle: if a cycle cannot produce l
      // distinct non-empty buckets, the running `non_empty` count has
      // drifted from reality and an unbounded scan would spin forever.
      size_t scanned = 0;
      while (drawn.size() < l && scanned < buckets.size()) {
        const size_t idx = round_robin_cursor++ % buckets.size();
        ++scanned;
        if (!buckets[idx].rows.empty() &&
            std::find(drawn.begin(), drawn.end(), idx) == drawn.end()) {
          drawn.push_back(idx);
        }
      }
      if (drawn.size() < l) {
        // Nothing was popped this round, so the drawn buckets are intact;
        // recount, hand the remaining tuples to residue assignment, and
        // flag genuine bookkeeping corruption (a recount that still admits
        // another group means the cycle scan itself is broken).
        non_empty = static_cast<size_t>(
            std::count_if(buckets.begin(), buckets.end(),
                          [](const Bucket& b) { return !b.rows.empty(); }));
        if (non_empty >= l) {
          return Status::Internal(
              "round-robin policy found fewer than l distinct non-empty "
              "buckets although a recount says l exist");
        }
        break;
      }
    }
    // The group row list itself stays std::vector<RowId>: it is moved into
    // Partition, whose layout is public API.
    std::vector<RowId> group;
    group.reserve(l);
    for (size_t idx : drawn) {
      Bucket& bucket = buckets[idx];
      group.push_back(bucket.PopRandom(rng));
      group_codes.push_back(bucket.value);
      if (bucket.rows.empty()) {
        --non_empty;
      } else if (policy == BucketPolicy::kLargestFirst) {
        queue.Push(idx, bucket.rows.size());
      }
    }
    partition.groups.push_back(std::move(group));
  }
  group_draw_span.End();
  if (metrics_on) {
    registry.GetHistogram("anatomize.phase.group_draw_ns")
        ->Record(group_draw_watch.ElapsedNanos());
  }

  // ---- Residue-assignment step (Lines 9-12). ----
  obs::ScopedSpan residue_span("anatomize.residue_assign", "anatomize");
  Stopwatch residue_watch;
  // Under eligibility each remaining bucket holds exactly one tuple
  // (Property 1) when running the paper's policy; the round-robin ablation
  // can leave more, in which case the same per-tuple assignment is attempted
  // and may correctly fail.
  const size_t num_groups = partition.groups.size();
  std::vector<uint8_t> has_value;  // has_value[g]: group g holds the value
  std::vector<GroupId> candidates;
  for (const Bucket& bucket : buckets) {
    if (bucket.rows.empty()) continue;
    // Buckets hold distinct values, so placing this bucket's tuples only
    // changes membership of this bucket's value.
    has_value.assign(num_groups, 0);
    for (size_t i = 0; i < group_codes.size(); ++i) {
      if (group_codes[i] == bucket.value) has_value[i / l] = 1;
    }
    for (RowId r : bucket.rows) {
      // S' = groups without this sensitive value (Line 11). Candidates are
      // collected in ascending group order so the rng draw below sees the
      // same sequence as the original linear-scan implementation — the
      // output partition is byte-identical for a fixed seed.
      candidates.clear();
      for (GroupId g = 0; g < num_groups; ++g) {
        if (has_value[g] == 0) candidates.push_back(g);
      }
      if (candidates.empty()) {
        return Status::Internal(
            "residue tuple has no admissible QI-group; input was not "
            "eligible or a non-paper bucket policy stranded too many tuples");
      }
      const GroupId g = candidates[rng.NextBounded(candidates.size())];
      partition.groups[g].push_back(r);
      has_value[g] = 1;
    }
  }
  residue_span.End();
  if (metrics_on) {
    registry.GetHistogram("anatomize.phase.residue_ns")
        ->Record(residue_watch.ElapsedNanos());
    size_t residues = 0;
    for (const Bucket& bucket : buckets) residues += bucket.rows.size();
    registry.GetCounter("anatomize.runs")->Increment();
    registry.GetCounter("anatomize.groups")
        ->Increment(partition.groups.size());
    registry.GetCounter("anatomize.residues")->Increment(residues);
  }

  if (partition.groups.empty()) {
    return Status::FailedPrecondition(
        "cardinality below l: no QI-group could be formed");
  }
  return partition;
}

}  // namespace anatomy
