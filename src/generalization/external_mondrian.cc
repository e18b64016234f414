#include "generalization/external_mondrian.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "anatomy/eligibility.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page_file.h"
#include "storage/recovery.h"

namespace anatomy {

namespace {

// On-disk record layouts (int32 fields):
//   tuple record  : [row_id, sensitive, qi_1 .. qi_d]          (d + 2)
//   output record : [lo_1, hi_1, .., lo_d, hi_d, sensitive]    (2d + 1)

/// Everything one recursive descent needs; keeps the public Run() thin.
class ExternalMondrianDriver {
 public:
  ExternalMondrianDriver(const Microdata& microdata,
                         const TaxonomySet& taxonomies, int l, Disk* disk,
                         BufferPool* pool, size_t memory_budget_pages)
      : microdata_(microdata),
        taxonomies_(taxonomies),
        l_(l),
        disk_(disk),
        pool_(pool),
        d_(microdata.d()),
        tuple_fields_(d_ + 2),
        sens_domain_(static_cast<size_t>(
            microdata.sensitive_attribute().domain_size)),
        output_(disk, 2 * d_ + 1),
        output_writer_(pool, &output_),
        mondrian_(MondrianOptions{l}) {
    if (memory_budget_pages == ExternalMondrian::kAutoBudget) {
      // Leave room for the input cursor, the output writer, and the two
      // redistribution writers used higher up.
      memory_budget_pages_ = pool->capacity() > 8 ? pool->capacity() - 4 : 4;
    } else {
      memory_budget_pages_ = memory_budget_pages;
    }
  }

  Status Process(RecordFile* file, Partition* partition) {
    if (file->num_pages() <= memory_budget_pages_) {
      return FinishInMemory(file, partition);
    }
    // ---- Statistics scan: full-domain (value, sensitive) counts. ----
    std::vector<CodeInterval> extents(d_);
    std::vector<std::vector<uint32_t>> value_counts(d_);
    std::vector<std::vector<uint32_t>> value_sens(d_);
    for (size_t i = 0; i < d_; ++i) {
      const size_t domain = microdata_.qi_attribute(i).domain_size;
      value_counts[i].assign(domain, 0);
      value_sens[i].assign(domain * sens_domain_, 0);
      extents[i] = {microdata_.qi_attribute(i).domain_size, -1};  // inverted
    }
    {
      RecordReader reader(pool_, file);
      std::vector<int32_t> rec(tuple_fields_);
      for (;;) {
        ANATOMY_ASSIGN_OR_RETURN(bool more, reader.Next(rec));
        if (!more) break;
        const size_t s = static_cast<size_t>(rec[1]);
        for (size_t i = 0; i < d_; ++i) {
          const Code v = rec[2 + i];
          extents[i].lo = std::min(extents[i].lo, v);
          extents[i].hi = std::max(extents[i].hi, v);
          ++value_counts[i][v];
          ++value_sens[i][static_cast<size_t>(v) * sens_domain_ + s];
        }
      }
    }
    const uint64_t total = file->num_records();

    // ---- Split selection (same rule as the in-memory Mondrian). ----
    std::vector<size_t> order(d_);
    std::iota(order.begin(), order.end(), 0);
    auto normalized = [&](size_t i) {
      return static_cast<double>(extents[i].length()) /
             microdata_.qi_attribute(i).domain_size;
    };
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return normalized(a) > normalized(b); });

    std::optional<MondrianSplit> split;
    for (size_t i : order) {
      if (extents[i].length() < 2) continue;
      const size_t width = static_cast<size_t>(extents[i].length());
      // Slice the full-domain counters down to the extent window.
      std::vector<uint32_t> counts(width);
      std::vector<uint32_t> joint(width * sens_domain_);
      for (size_t v = 0; v < width; ++v) {
        const size_t full = static_cast<size_t>(extents[i].lo) + v;
        counts[v] = value_counts[i][full];
        std::copy(value_sens[i].begin() +
                      static_cast<ptrdiff_t>(full * sens_domain_),
                  value_sens[i].begin() +
                      static_cast<ptrdiff_t>((full + 1) * sens_domain_),
                  joint.begin() + static_cast<ptrdiff_t>(v * sens_domain_));
      }
      std::optional<Code> cut = ChooseCutForAttribute(
          taxonomies_.at(microdata_.qi_columns[i]), extents[i], counts, joint,
          sens_domain_, l_, total);
      if (cut.has_value()) {
        split = MondrianSplit{i, *cut};
        break;
      }
    }

    if (!split.has_value()) {
      // Unsplittable oversized node: it becomes one (huge) QI-group.
      return EmitGroupFromFile(file, extents, partition);
    }
    obs_splits_->Increment();

    // ---- Redistribution scan. ----
    RecordFile left(disk_, tuple_fields_);
    RecordFile right(disk_, tuple_fields_);
    {
      RecordWriter left_writer(pool_, &left);
      RecordWriter right_writer(pool_, &right);
      RecordReader reader(pool_, file);
      std::vector<int32_t> rec(tuple_fields_);
      for (;;) {
        ANATOMY_ASSIGN_OR_RETURN(bool more, reader.Next(rec));
        if (!more) break;
        if (rec[2 + split->attribute] <= split->cut) {
          ANATOMY_RETURN_IF_ERROR(left_writer.Append(rec));
        } else {
          ANATOMY_RETURN_IF_ERROR(right_writer.Append(rec));
        }
      }
    }
    ANATOMY_RETURN_IF_ERROR(file->FreeAll(pool_));
    ANATOMY_RETURN_IF_ERROR(Process(&left, partition));
    return Process(&right, partition);
  }

  size_t output_pages() { return output_.num_pages(); }

  Status Finalize() {
    ANATOMY_RETURN_IF_ERROR(pool_->FlushAll());
    ANATOMY_RETURN_IF_ERROR(output_.FreeAll(pool_));
    return Status::OK();
  }

 private:
  /// Reads a memory-sized partition once and finishes it with the in-memory
  /// Mondrian, then publishes its groups.
  Status FinishInMemory(RecordFile* file, Partition* partition) {
    std::vector<RowId> rows;
    rows.reserve(static_cast<size_t>(file->num_records()));
    {
      RecordReader reader(pool_, file);
      std::vector<int32_t> rec(tuple_fields_);
      for (;;) {
        ANATOMY_ASSIGN_OR_RETURN(bool more, reader.Next(rec));
        if (!more) break;
        rows.push_back(static_cast<RowId>(rec[0]));
      }
    }
    ANATOMY_RETURN_IF_ERROR(file->FreeAll(pool_));
    ANATOMY_ASSIGN_OR_RETURN(
        Partition sub, mondrian_.PartitionRows(microdata_, taxonomies_,
                                               std::move(rows)));
    for (GroupId g = 0; g < sub.num_groups(); ++g) {
      ANATOMY_RETURN_IF_ERROR(EmitGroup(sub.group(g)));
      partition->AddGroup(sub.group(g));
    }
    return Status::OK();
  }

  /// Publishes one group: per-tuple interval-coded records.
  Status EmitGroup(std::span<const RowId> group) {
    std::vector<CodeInterval> extents(d_);
    for (size_t i = 0; i < d_; ++i) {
      Code lo = microdata_.qi_value(group[0], i);
      Code hi = lo;
      for (RowId r : group) {
        const Code v = microdata_.qi_value(r, i);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      extents[i] =
          taxonomies_.at(microdata_.qi_columns[i]).Snap(CodeInterval{lo, hi});
    }
    std::vector<int32_t> rec(2 * d_ + 1);
    for (RowId r : group) {
      for (size_t i = 0; i < d_; ++i) {
        rec[2 * i] = extents[i].lo;
        rec[2 * i + 1] = extents[i].hi;
      }
      rec[2 * d_] = microdata_.sensitive_value(r);
      ANATOMY_RETURN_IF_ERROR(output_writer_.Append(rec));
    }
    return Status::OK();
  }

  /// Publishes an unsplittable oversized node by streaming it (its extent is
  /// already known from the statistics pass).
  Status EmitGroupFromFile(RecordFile* file,
                           const std::vector<CodeInterval>& raw_extents,
                           Partition* partition) {
    std::vector<CodeInterval> extents(d_);
    for (size_t i = 0; i < d_; ++i) {
      extents[i] = taxonomies_.at(microdata_.qi_columns[i]).Snap(raw_extents[i]);
    }
    std::vector<RowId> group;
    group.reserve(static_cast<size_t>(file->num_records()));
    RecordReader reader(pool_, file);
    std::vector<int32_t> rec(tuple_fields_);
    std::vector<int32_t> out_rec(2 * d_ + 1);
    for (;;) {
      ANATOMY_ASSIGN_OR_RETURN(bool more, reader.Next(rec));
      if (!more) break;
      group.push_back(static_cast<RowId>(rec[0]));
      for (size_t i = 0; i < d_; ++i) {
        out_rec[2 * i] = extents[i].lo;
        out_rec[2 * i + 1] = extents[i].hi;
      }
      out_rec[2 * d_] = rec[1];
      ANATOMY_RETURN_IF_ERROR(output_writer_.Append(out_rec));
    }
    ANATOMY_RETURN_IF_ERROR(file->FreeAll(pool_));
    partition->AddGroup(group);
    return Status::OK();
  }

  const Microdata& microdata_;
  const TaxonomySet& taxonomies_;
  int l_;
  Disk* disk_;
  BufferPool* pool_;
  size_t d_;
  size_t tuple_fields_;
  size_t sens_domain_;
  size_t memory_budget_pages_;
  RecordFile output_;
  RecordWriter output_writer_;
  Mondrian mondrian_;
  /// Out-of-disk splits taken by the recursive descent
  /// (`external_mondrian.splits`; in-memory leaf splits are not counted).
  obs::Counter* obs_splits_ = obs::MetricRegistry::Global().GetCounter(
      "external_mondrian.splits");
};

/// The full run (Stage 0 + recursion). Any early return leaves pages behind
/// that the caller's PipelineGuard reclaims.
StatusOr<ExternalMondrianResult> RunPipeline(const MondrianOptions& options,
                                             size_t memory_budget_pages,
                                             const Microdata& microdata,
                                             const TaxonomySet& taxonomies,
                                             Disk* disk, BufferPool* pool) {
  const size_t d = microdata.d();
  const size_t tuple_fields = d + 2;

  // Stage 0 (uncounted): materialize T on disk.
  obs::ScopedSpan stage0_span("external_mondrian.stage0_load",
                              "external_mondrian");
  RecordFile input(disk, tuple_fields);
  {
    RecordWriter writer(pool, &input);
    std::vector<int32_t> rec(tuple_fields);
    for (RowId r = 0; r < microdata.n(); ++r) {
      rec[0] = static_cast<int32_t>(r);
      rec[1] = microdata.sensitive_value(r);
      for (size_t i = 0; i < d; ++i) rec[2 + i] = microdata.qi_value(r, i);
      ANATOMY_RETURN_IF_ERROR(writer.Append(rec));
    }
  }
  ANATOMY_RETURN_IF_ERROR(pool->FlushAll());
  disk->ResetStats();
  stage0_span.End();

  obs::ScopedSpan recurse_span("external_mondrian.recurse",
                               "external_mondrian");
  ExternalMondrianResult result;
  ExternalMondrianDriver driver(microdata, taxonomies, options.l, disk, pool,
                                memory_budget_pages);
  ANATOMY_RETURN_IF_ERROR(driver.Process(&input, &result.partition));
  result.output_pages = driver.output_pages();
  ANATOMY_RETURN_IF_ERROR(driver.Finalize());
  result.io = disk->stats();
  recurse_span.End();

  // Publish the measured (counted, post-stage-0) I/O to the registry so
  // benches can reproduce the paper's I/O numbers from registry reads alone.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter("external_mondrian.runs")->Increment();
  registry.GetCounter("external_mondrian.io.reads")->Increment(result.io.reads);
  registry.GetCounter("external_mondrian.io.writes")
      ->Increment(result.io.writes);
  return result;
}

}  // namespace

ExternalMondrian::ExternalMondrian(const MondrianOptions& options,
                                   size_t memory_budget_pages)
    : options_(options), memory_budget_pages_(memory_budget_pages) {}

StatusOr<ExternalMondrianResult> ExternalMondrian::Run(
    const Microdata& microdata, const TaxonomySet& taxonomies, Disk* disk,
    BufferPool* pool) const {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  ANATOMY_RETURN_IF_ERROR(CheckEligibility(microdata, options_.l));

  PipelineGuard guard(disk, pool);
  auto result = RunPipeline(options_, memory_budget_pages_, microdata,
                            taxonomies, disk, pool);
  if (!result.ok()) {
    guard.Abort();
    return result.status();
  }
  if (pool->pinned_frames() != 0) {
    guard.Abort();
    return Status::Internal("pipeline finished with " +
                            std::to_string(pool->pinned_frames()) +
                            " frames still pinned");
  }
  return result;
}

}  // namespace anatomy
