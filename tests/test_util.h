// Shared helpers for the test suite.

#ifndef ANATOMY_TESTS_TEST_UTIL_H_
#define ANATOMY_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

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
