// Shard-parallel Anatomize: the first multi-core build path.
//
// Anatomize's bucket structure (Figure 3) decomposes naturally across
// disjoint row shards: the per-group "adversary learns at most 1/l"
// guarantee (Theorem 1) is a per-group property, so the union of l-diverse
// partitions of disjoint row sets is an l-diverse partition of their union.
// The splitter deals each sensitive value's rows cyclically across S shards,
// which keeps every per-shard value count within ceil(c_v / S) — the closest
// a split can get to preserving the eligibility margin (Property 1). Shards
// the rounding still leaves ineligible are merged deterministically into
// their cyclic successor until every surviving shard is eligible (global
// eligibility guarantees termination: the fully merged shard is the input).
//
// Determinism contract (mirrors workload/parallel_runner): shard s runs a
// plain Anatomizer seeded Rng::ForStream(seed, s), shard results are
// concatenated in shard order with group ids prefix-offset, so the output is
// a pure function of (data, seed, S) — byte-identical at ANY thread count.
// With S = 1 the splitter is the identity and the shard seed is the master
// seed itself, so the output is byte-identical to the sequential Anatomizer.
//
// Quality: each shard achieves Theorem 4's bound on its own rows, so the
// merged partition's reconstruction error is within 1 + S(l-1)/n of
// Theorem 2's lower bound n(1 - 1/l) (each shard contributes at most l-1
// residue tuples; see DESIGN.md §9 for the proof sketch).
// bench_sharded_anatomize measures and enforces this bound.

#ifndef ANATOMY_ANATOMY_SHARDED_ANATOMIZER_H_
#define ANATOMY_ANATOMY_SHARDED_ANATOMIZER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "anatomy/anatomizer.h"
#include "anatomy/external_anatomizer.h"
#include "anatomy/partition.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "table/table.h"

namespace anatomy {

struct ShardedAnatomizerOptions {
  /// Privacy parameter, as in AnatomizerOptions.
  int l = 10;
  /// Master seed; shard s draws from Rng::ForStream(seed, s) (the shard with
  /// S = 1 uses the master seed directly so S = 1 equals the sequential run).
  uint64_t seed = 1;
  /// Requested row shards. Must be >= 1; shards the eligibility-preserving
  /// split cannot keep eligible are merged, so fewer may actually run.
  size_t shards = 1;
  /// Worker threads for the per-shard runs; 0 means hardware concurrency.
  /// Never affects the output, only the wall clock.
  size_t num_threads = 0;
};

/// The eligibility-preserving row split: shard_rows[s] lists the global row
/// ids of shard s in ascending order; shards are pairwise disjoint and cover
/// [0, n). Produced by cyclic dealing per sensitive value, then deterministic
/// merging of ineligible shards.
struct ShardSplit {
  std::vector<std::vector<RowId>> shard_rows;
  /// Shards requested before merging.
  size_t requested = 0;
  /// Ineligible shards folded into their successor by the merge loop.
  size_t merges = 0;
};

/// Splits `sensitive` (codes in [0, domain)) into at most `shards` eligible
/// row shards. Fails if the input itself is not l-eligible, since then no
/// amount of merging yields an eligible shard.
StatusOr<ShardSplit> SplitForSharding(std::span<const Code> sensitive,
                                      Code domain, int l, size_t shards);

struct ShardedAnatomizeResult {
  Partition partition;
  /// Shards that actually ran (after eligibility merging).
  size_t shards_run = 0;
  /// Shards folded away by the eligibility merge.
  size_t merged_shards = 0;
};

/// In-memory shard-parallel Anatomize over the existing ThreadPool.
class ShardedAnatomizer {
 public:
  explicit ShardedAnatomizer(const ShardedAnatomizerOptions& options);

  /// Figure 3 on `microdata`, sharded. Output is byte-identical for a fixed
  /// (seed, shards) at any thread count, and with shards = 1 byte-identical
  /// to Anatomizer::ComputePartition with the same seed.
  StatusOr<ShardedAnatomizeResult> Run(const Microdata& microdata) const;

 private:
  ShardedAnatomizerOptions options_;
};

/// A per-node published shard deployment: shard s's QIT/ST committed crash-
/// consistently on disks[s], plus the bookkeeping a coordinator needs to
/// stitch the shards back into one logical publication.
struct ShardedPublishResult {
  /// manifests[s]: committed, verified publication of shard s on disks[s].
  std::vector<StorageManifest> manifests;
  /// All shards concatenated in shard order, group ids prefix-offset, in
  /// global row ids: the one logical publication the per-node publications
  /// make up.
  Partition merged;
  /// shard_groups[s]: the group count of shard s, whose groups are the next
  /// shard_groups[s] of `merged`.
  std::vector<GroupId> shard_groups;
  /// Algorithm I/O summed across shards (still O(n/b) in total: each shard
  /// is O(n_s / b) on its own disk).
  IoStats io;
  IoStats commit_io;
  size_t shards_run = 0;
  size_t merged_shards = 0;
};

/// Shard-parallel external (I/O-counted) Anatomize. Each shard runs the full
/// Theorem 3 pipeline against its own Disk through its own BufferPool, so
/// the per-shard I/O stays meaningful under parallel execution. The external
/// pipeline draws tuples in stream order (no RNG), so the result is
/// deterministic and, with shards = 1, byte-identical to the sequential
/// ExternalAnatomizer.
class ShardedExternalAnatomizer {
 public:
  explicit ShardedExternalAnatomizer(const ShardedAnatomizerOptions& options);

  /// The multi-node deployment path: shard s publishes crash-consistently on
  /// disks[s] through pools[s] (ExternalAnatomizer::RunPublished per shard,
  /// in parallel). All-or-none: if any shard fails, every already-committed
  /// shard publication is discarded before the error returns, so the node
  /// fleet never holds a partially-deployed epoch. `disks` and `pools` are
  /// parallel arrays, one entry per requested shard (extras are unused when
  /// the eligibility merge reduces the shard count); each pool is
  /// caller-owned because in the distributed deployment each node brings
  /// its own.
  StatusOr<ShardedPublishResult> RunPublished(
      const Microdata& microdata, std::span<Disk* const> disks,
      std::span<BufferPool* const> pools) const;

 private:
  ShardedAnatomizerOptions options_;
};

}  // namespace anatomy

#endif  // ANATOMY_ANATOMY_SHARDED_ANATOMIZER_H_
