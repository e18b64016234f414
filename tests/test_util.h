// Shared helpers for the test suite.

#ifndef ANATOMY_TESTS_TEST_UTIL_H_
#define ANATOMY_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "anatomy/partition.h"
#include "common/status.h"
#include "query/predicate.h"
#include "storage/publication.h"
#include "table/schema.h"
#include "table/table.h"

namespace anatomy {
namespace testing_util {

/// Microdata with one numeric QI ("X", domain `qi_domain`) and one sensitive
/// attribute ("S", domain `sens_domain`); rows supplied as {x, s} pairs.
inline Microdata MakeSimpleMicrodata(
    const std::vector<std::pair<Code, Code>>& rows, Code qi_domain = 100,
    Code sens_domain = 20) {
  std::vector<AttributeDef> defs;
  defs.push_back(MakeNumerical("X", qi_domain));
  defs.push_back(MakeCategorical("S", sens_domain));
  Microdata md;
  md.table = Table(std::make_shared<Schema>(std::move(defs)));
  for (const auto& [x, s] : rows) {
    const Code row[2] = {x, s};
    md.table.AppendRow(row);
  }
  md.qi_columns = {0};
  md.sensitive_column = 1;
  return md;
}

/// Synthetic eligible microdata: X uniform over qi_domain, S round-robin
/// (so every l <= sens_domain is eligible).
inline Microdata MakeRoundRobinMicrodata(RowId n, Code qi_domain = 64,
                                         Code sens_domain = 16) {
  std::vector<std::pair<Code, Code>> rows;
  rows.reserve(n);
  for (RowId i = 0; i < n; ++i) {
    rows.push_back({static_cast<Code>((i * 7) % qi_domain),
                    static_cast<Code>(i % sens_domain)});
  }
  return MakeSimpleMicrodata(rows, qi_domain, sens_domain);
}

/// OR-of-points predicate covering the inclusive code range [lo, hi].
inline AttributePredicate RangePredicate(size_t qi_index, Code lo, Code hi) {
  std::vector<Code> values;
  for (Code v = lo; v <= hi; ++v) values.push_back(v);
  return AttributePredicate(qi_index, std::move(values));
}

/// FNV-1a, fed 64-bit words one byte at a time, low byte first.
struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Mix(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Over the group count, then each group's size and row ids in order: the
/// byte-identity anchor of a partition.
inline uint64_t PartitionDigest(const Partition& p) {
  Fnv1a fnv;
  fnv.Mix(p.num_groups());
  for (GroupId g = 0; g < p.num_groups(); ++g) {
    fnv.Mix(p.group(g).size());
    for (RowId r : p.group(g)) fnv.Mix(r);
  }
  return fnv.h;
}

/// Over the shape, then every code column by column.
inline uint64_t TableDigest(const Table& table) {
  Fnv1a fnv;
  fnv.Mix(table.num_rows());
  fnv.Mix(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    for (Code v : table.column(c)) fnv.Mix(static_cast<uint32_t>(v));
  }
  return fnv.h;
}

/// The partition with these groups, in order.
inline Partition MakePartition(
    const std::vector<std::vector<RowId>>& groups) {
  Partition p;
  for (const std::vector<RowId>& group : groups) p.AddGroup(group);
  return p;
}

/// Every record of one published file, one vector each.
inline StatusOr<std::vector<std::vector<int32_t>>> ReadPublishedRecords(
    Disk* disk, const PublishedFileMeta& meta) {
  std::vector<std::vector<int32_t>> records;
  PublishedRecordReader reader(disk, meta);
  while (reader.Next()) {
    records.emplace_back(reader.record().begin(), reader.record().end());
  }
  ANATOMY_RETURN_IF_ERROR(reader.status());
  return records;
}

}  // namespace testing_util
}  // namespace anatomy

#endif  // ANATOMY_TESTS_TEST_UTIL_H_
