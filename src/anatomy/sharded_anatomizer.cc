#include "anatomy/sharded_anatomizer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "anatomy/eligibility.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace anatomy {

namespace {

/// Smallest per-shard BufferPool the external pipeline is tested with; below
/// this the stage-1 fan-out degenerates to one output buffer.
constexpr size_t kMinShardPoolPages = 8;

/// Per-shard seed derivation. With one requested shard the master seed is
/// used directly, which is what makes shards = 1 byte-identical to the
/// sequential Anatomizer (whose Rng is seeded with the master seed, not with
/// stream 0 of it).
uint64_t ShardSeed(const ShardedAnatomizerOptions& options, size_t shard) {
  if (options.shards == 1) return options.seed;
  return SplitMix64(options.seed ^ static_cast<uint64_t>(shard));
}

/// True iff a shard with these value counts and size admits an l-diverse
/// partition (the eligibility condition of Property 1, per shard).
bool ShardEligible(std::span<const uint32_t> counts, uint64_t rows, int l) {
  if (rows == 0) return false;
  for (uint32_t c : counts) {
    if (static_cast<uint64_t>(c) * static_cast<uint64_t>(l) > rows) {
      return false;
    }
  }
  return true;
}

/// Appends `partition`'s groups to `merged`, translating the shard-local row
/// ids through `rows` (local index -> global RowId) in place, so a moved-in
/// partition hands its group vectors over without a copy. Group ids are
/// prefix-offset implicitly: groups are appended in shard order.
void AppendShardPartition(Partition partition, const std::vector<RowId>& rows,
                          Partition& merged) {
  for (auto& group : partition.groups) {
    for (RowId& r : group) r = rows[r];
    merged.groups.push_back(std::move(group));
  }
}

}  // namespace

StatusOr<ShardSplit> SplitForSharding(std::span<const Code> sensitive,
                                      Code domain, int l, size_t shards) {
  if (l < 2) {
    return Status::InvalidArgument("l must be >= 2 for meaningful diversity");
  }
  if (domain <= 0) {
    return Status::InvalidArgument("sensitive domain must be positive");
  }
  if (shards == 0) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (sensitive.empty()) {
    return Status::FailedPrecondition("cannot shard an empty table");
  }

  // ---- Cyclic deal: occurrence i of value v goes to shard i mod S, so the
  // per-shard count of v is ceil(c_v / S) or floor(c_v / S) exactly. Rows
  // are visited in ascending order, so every shard's row list is sorted. ----
  const size_t dsize = static_cast<size_t>(domain);
  std::vector<uint32_t> next_shard(dsize, 0);
  std::vector<std::vector<RowId>> shard_rows(shards);
  std::vector<std::vector<uint32_t>> shard_counts(
      shards, std::vector<uint32_t>(dsize, 0));
  for (RowId r = 0; r < sensitive.size(); ++r) {
    const Code v = sensitive[r];
    if (v < 0 || v >= domain) {
      return Status::InvalidArgument("sensitive code out of domain");
    }
    const size_t s = next_shard[static_cast<size_t>(v)]++ % shards;
    shard_rows[s].push_back(r);
    ++shard_counts[s][static_cast<size_t>(v)];
  }

  // Global eligibility: without it no merge sequence can terminate in an
  // eligible shard (the fully merged shard is the input itself).
  {
    std::vector<uint32_t> totals(dsize, 0);
    for (size_t s = 0; s < shards; ++s) {
      for (size_t v = 0; v < dsize; ++v) totals[v] += shard_counts[s][v];
    }
    if (!ShardEligible(totals, sensitive.size(), l)) {
      return Status::FailedPrecondition(
          "not " + std::to_string(l) +
          "-eligible: a sensitive value exceeds n/l occurrences; no shard "
          "split can fix that");
    }
  }

  // ---- Deterministic merge of ineligible shards. The lowest-indexed
  // ineligible live shard is folded into its cyclic successor; each fold
  // removes one live shard, so the loop terminates, and the single-shard
  // fixed point is the (eligible) input. ----
  ShardSplit split;
  split.requested = shards;
  std::vector<size_t> live(shards);
  for (size_t s = 0; s < shards; ++s) live[s] = s;
  while (live.size() > 1) {
    size_t victim_pos = live.size();
    for (size_t pos = 0; pos < live.size(); ++pos) {
      const size_t s = live[pos];
      if (!ShardEligible(shard_counts[s], shard_rows[s].size(), l)) {
        victim_pos = pos;
        break;
      }
    }
    if (victim_pos == live.size()) break;  // every live shard is eligible
    const size_t src = live[victim_pos];
    const size_t dst = live[(victim_pos + 1) % live.size()];
    std::vector<RowId> merged_rows;
    merged_rows.reserve(shard_rows[src].size() + shard_rows[dst].size());
    std::merge(shard_rows[src].begin(), shard_rows[src].end(),
               shard_rows[dst].begin(), shard_rows[dst].end(),
               std::back_inserter(merged_rows));
    shard_rows[dst] = std::move(merged_rows);
    shard_rows[src].clear();
    for (size_t v = 0; v < dsize; ++v) {
      shard_counts[dst][v] += shard_counts[src][v];
    }
    live.erase(live.begin() + static_cast<ptrdiff_t>(victim_pos));
    ++split.merges;
  }

  split.shard_rows.reserve(live.size());
  for (size_t s : live) split.shard_rows.push_back(std::move(shard_rows[s]));
  return split;
}

ShardedAnatomizer::ShardedAnatomizer(const ShardedAnatomizerOptions& options)
    : options_(options) {}

StatusOr<ShardedAnatomizeResult> ShardedAnatomizer::Run(
    const Microdata& microdata) const {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  ANATOMY_RETURN_IF_ERROR(CheckEligibility(microdata, options_.l));
  obs::ScopedSpan run_span("anatomize.sharded.run", "anatomize");
  const std::vector<Code>& sensitive =
      microdata.table.column(microdata.sensitive_column);
  const Code domain = microdata.sensitive_attribute().domain_size;

  obs::ScopedSpan split_span("anatomize.sharded.split", "anatomize");
  ANATOMY_ASSIGN_OR_RETURN(
      ShardSplit split,
      SplitForSharding(sensitive, domain, options_.l, options_.shards));
  split_span.End();

  const size_t num_shards = split.shard_rows.size();
  std::vector<StatusOr<Partition>> shard_partitions(
      num_shards, StatusOr<Partition>(Status::Internal("shard never ran")));

  {
    ThreadPool pool(options_.num_threads);
    for (size_t s = 0; s < num_shards; ++s) {
      pool.Submit([this, s, &split, &sensitive, domain, &shard_partitions] {
        obs::ScopedSpan shard_span("anatomize.shard.run", "anatomize");
        const std::vector<RowId>& rows = split.shard_rows[s];
        std::vector<Code> codes;
        codes.reserve(rows.size());
        for (RowId r : rows) codes.push_back(sensitive[r]);
        Anatomizer shard_anatomizer(
            AnatomizerOptions{.l = options_.l, .seed = ShardSeed(options_, s)});
        shard_partitions[s] = shard_anatomizer.ComputePartitionFromCodes(
            codes, domain, BucketPolicy::kLargestFirst);
      });
    }
    pool.Wait();
  }

  ShardedAnatomizeResult result;
  result.shards_run = num_shards;
  result.merged_shards = split.merges;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!shard_partitions[s].ok()) {
      return Status(shard_partitions[s].status().code(),
                    "shard " + std::to_string(s) + " of " +
                        std::to_string(num_shards) + " failed: " +
                        shard_partitions[s].status().message());
    }
    AppendShardPartition(std::move(shard_partitions[s]).value(),
                         split.shard_rows[s], result.partition);
  }

  if (obs::MetricsEnabled()) {
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    registry.GetCounter("anatomize.shard.runs")->Increment();
    registry.GetCounter("anatomize.shard.shards_run")->Increment(num_shards);
    registry.GetCounter("anatomize.shard.merged")->Increment(split.merges);
    registry.GetCounter("anatomize.shard.groups")
        ->Increment(result.partition.groups.size());
  }
  return result;
}

ShardedExternalAnatomizer::ShardedExternalAnatomizer(
    const ShardedAnatomizerOptions& options)
    : options_(options) {}

StatusOr<ShardedExternalAnatomizeResult> ShardedExternalAnatomizer::Run(
    const Microdata& microdata, std::span<Disk* const> disks,
    size_t total_pool_pages) const {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  ANATOMY_RETURN_IF_ERROR(CheckEligibility(microdata, options_.l));
  if (disks.size() < options_.shards) {
    return Status::InvalidArgument(
        "need one disk per requested shard: got " +
        std::to_string(disks.size()) + " disks for " +
        std::to_string(options_.shards) + " shards");
  }
  obs::ScopedSpan run_span("external_anatomize.sharded.run",
                           "external_anatomize");
  const std::vector<Code>& sensitive =
      microdata.table.column(microdata.sensitive_column);
  const Code domain = microdata.sensitive_attribute().domain_size;
  ANATOMY_ASSIGN_OR_RETURN(
      ShardSplit split,
      SplitForSharding(sensitive, domain, options_.l, options_.shards));
  const size_t num_shards = split.shard_rows.size();

  // Per-shard budgets sum to the configured pool: pages / S each, the
  // remainder spread over the first shards.
  ShardedExternalAnatomizeResult result;
  if (total_pool_pages / num_shards < kMinShardPoolPages) {
    return Status::InvalidArgument(
        "pool of " + std::to_string(total_pool_pages) + " pages is too small "
        "for " + std::to_string(num_shards) + " shards (need >= " +
        std::to_string(kMinShardPoolPages) + " pages each)");
  }
  result.shard_pool_pages.resize(num_shards, total_pool_pages / num_shards);
  for (size_t s = 0; s < total_pool_pages % num_shards; ++s) {
    ++result.shard_pool_pages[s];
  }

  std::vector<StatusOr<ExternalAnatomizeResult>> shard_results(
      num_shards,
      StatusOr<ExternalAnatomizeResult>(Status::Internal("shard never ran")));
  {
    ThreadPool pool(options_.num_threads);
    for (size_t s = 0; s < num_shards; ++s) {
      pool.Submit([this, s, &split, &microdata, &disks, &result,
                   &shard_results] {
        obs::ScopedSpan shard_span("external_anatomize.shard.run",
                                   "external_anatomize");
        Microdata shard_md;
        shard_md.table = microdata.table.SelectRows(split.shard_rows[s]);
        shard_md.qi_columns = microdata.qi_columns;
        shard_md.sensitive_column = microdata.sensitive_column;
        BufferPool shard_pool(disks[s], result.shard_pool_pages[s]);
        ExternalAnatomizer shard_anatomizer(
            AnatomizerOptions{.l = options_.l, .seed = ShardSeed(options_, s)});
        shard_results[s] =
            shard_anatomizer.Run(shard_md, disks[s], &shard_pool);
      });
    }
    pool.Wait();
  }

  result.shards_run = num_shards;
  result.merged_shards = split.merges;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!shard_results[s].ok()) {
      return Status(shard_results[s].status().code(),
                    "external shard " + std::to_string(s) + " of " +
                        std::to_string(num_shards) + " failed: " +
                        shard_results[s].status().message());
    }
    ExternalAnatomizeResult& shard = shard_results[s].value();
    AppendShardPartition(std::move(shard.partition), split.shard_rows[s],
                         result.partition);
    result.io += shard.io;
    result.qit_pages += shard.qit_pages;
    result.st_pages += shard.st_pages;
  }

  if (obs::MetricsEnabled()) {
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    registry.GetCounter("anatomize.shard.external_runs")->Increment();
    registry.GetCounter("anatomize.shard.shards_run")->Increment(num_shards);
    registry.GetCounter("anatomize.shard.merged")->Increment(split.merges);
  }
  return result;
}

StatusOr<ShardedPublishResult> ShardedExternalAnatomizer::RunPublished(
    const Microdata& microdata, std::span<Disk* const> disks,
    std::span<BufferPool* const> pools) const {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  ANATOMY_RETURN_IF_ERROR(CheckEligibility(microdata, options_.l));
  if (disks.size() < options_.shards || pools.size() < options_.shards) {
    return Status::InvalidArgument(
        "need one disk and one pool per requested shard: got " +
        std::to_string(disks.size()) + " disks / " +
        std::to_string(pools.size()) + " pools for " +
        std::to_string(options_.shards) + " shards");
  }
  obs::ScopedSpan run_span("external_anatomize.sharded.publish",
                           "external_anatomize");
  const std::vector<Code>& sensitive =
      microdata.table.column(microdata.sensitive_column);
  const Code domain = microdata.sensitive_attribute().domain_size;
  ANATOMY_ASSIGN_OR_RETURN(
      ShardSplit split,
      SplitForSharding(sensitive, domain, options_.l, options_.shards));
  const size_t num_shards = split.shard_rows.size();

  std::vector<StatusOr<ExternalAnatomizeResult>> shard_results(
      num_shards,
      StatusOr<ExternalAnatomizeResult>(Status::Internal("shard never ran")));
  {
    ThreadPool thread_pool(options_.num_threads);
    for (size_t s = 0; s < num_shards; ++s) {
      thread_pool.Submit([this, s, &split, &microdata, &disks, &pools,
                          &shard_results] {
        obs::ScopedSpan shard_span("external_anatomize.shard.publish",
                                   "external_anatomize");
        Microdata shard_md;
        shard_md.table = microdata.table.SelectRows(split.shard_rows[s]);
        shard_md.qi_columns = microdata.qi_columns;
        shard_md.sensitive_column = microdata.sensitive_column;
        ExternalAnatomizer shard_anatomizer(
            AnatomizerOptions{.l = options_.l, .seed = ShardSeed(options_, s)});
        shard_results[s] =
            shard_anatomizer.RunPublished(shard_md, disks[s], pools[s]);
      });
    }
    thread_pool.Wait();
  }

  // All-or-none: a failed shard means the fleet-wide epoch does not exist,
  // so every shard that DID commit is rolled back before the error returns.
  for (size_t s = 0; s < num_shards; ++s) {
    if (shard_results[s].ok()) continue;
    for (size_t t = 0; t < num_shards; ++t) {
      if (!shard_results[t].ok()) continue;
      // Best-effort reclaim; the commit succeeded so the pages are known.
      (void)DiscardPublication(disks[t], pools[t],
                               shard_results[t].value().manifest);
    }
    return Status(shard_results[s].status().code(),
                  "published shard " + std::to_string(s) + " of " +
                      std::to_string(num_shards) + " failed (all shards "
                      "rolled back): " + shard_results[s].status().message());
  }

  ShardedPublishResult result;
  result.shards_run = num_shards;
  result.merged_shards = split.merges;
  result.manifests.reserve(num_shards);
  result.shard_partitions.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    ExternalAnatomizeResult& shard = shard_results[s].value();
    AppendShardPartition(shard.partition, split.shard_rows[s], result.merged);
    Partition global;
    AppendShardPartition(std::move(shard.partition), split.shard_rows[s],
                         global);
    result.shard_partitions.push_back(std::move(global));
    result.manifests.push_back(std::move(shard.manifest));
    result.io += shard.io;
    result.commit_io += shard.commit_io;
  }
  result.split = std::move(split);

  if (obs::MetricsEnabled()) {
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    registry.GetCounter("anatomize.shard.published_runs")->Increment();
    registry.GetCounter("anatomize.shard.shards_run")->Increment(num_shards);
    registry.GetCounter("anatomize.shard.merged")
        ->Increment(result.merged_shards);
  }
  return result;
}

}  // namespace anatomy
