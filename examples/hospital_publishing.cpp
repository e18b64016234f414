// hospital_publishing: a data-publisher workflow over CSV files, including
// the multi-sensitive-attribute extension (paper Section 7 future work).
//
//   1. Export a synthetic hospital admissions table to CSV (the raw data a
//      publisher holds).
//   2. Re-import it, choose l from the eligibility bound, and compute both
//      partitions: the Anatomize one, and one with TWO sensitive attributes
//      (diagnosis and billing code) from the simultaneous-diversity
//      extension, whose heuristic can fail on the data.
//   3. Only then export the QIT and ST as the two publishable CSV files.
//   4. Export one ST per sensitive attribute of the second publication.

#include <cstdio>
#include <cstdlib>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "anatomy/eligibility.h"
#include "anatomy/multi_sensitive.h"
#include "common/flags.h"
#include "common/rng.h"
#include "data/census.h"
#include "table/csv.h"

using namespace anatomy;

namespace {

void Die(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T OrDie(StatusOr<T> value) {
  if (!value.ok()) Die(value.status());
  return std::move(value).value();
}

SchemaPtr AdmissionsSchema() {
  std::vector<AttributeDef> defs;
  defs.push_back(MakeNumerical("Age", 80, /*base=*/15));
  defs.push_back(MakeLabeled("Sex", {"F", "M"}));
  defs.push_back(MakeNumerical("Zipcode", 100, /*base=*/10000, /*step=*/100));
  defs.push_back(MakeLabeled(
      "Diagnosis", {"bronchitis", "dyspepsia", "flu", "gastritis", "pneumonia",
                    "diabetes", "asthma", "hypertension", "migraine",
                    "anemia", "arthritis", "dermatitis"}));
  defs.push_back(MakeCategorical("Billing-code", 30));
  return std::make_shared<Schema>(std::move(defs));
}

/// Synthesizes admissions with age/diagnosis correlation, eligible for the
/// l values used below.
Table SynthesizeAdmissions(RowId n, uint64_t seed) {
  Table table(AdmissionsSchema());
  Rng rng(seed);
  std::vector<Code> row(5);
  for (RowId i = 0; i < n; ++i) {
    row[0] = static_cast<Code>(rng.NextBounded(80));
    row[1] = static_cast<Code>(rng.NextBounded(2));
    row[2] = static_cast<Code>(rng.NextBounded(100));
    // Older patients skew towards the chronic tail of the diagnosis list.
    const Code bias = row[0] > 40 ? 5 : 0;
    row[3] = static_cast<Code>((bias + rng.NextBounded(7)) % 12);
    row[4] = static_cast<Code>((row[3] * 2 + rng.NextBounded(8)) % 30);
    table.AppendRow(row);
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t n = 5000;
  std::string outdir = "/tmp/anatomy_demo";
  FlagParser parser;
  parser.AddInt64("n", &n, "number of admission records", 100, 10'000'000);
  parser.AddString("outdir", &outdir, "directory for the CSV files");
  Die(parser.Parse(argc, argv));
  if (parser.help_requested()) {
    std::printf("%s", parser.Usage(argv[0]).c_str());
    return 0;
  }
  const std::string mkdir = "mkdir -p " + outdir;
  if (std::system(mkdir.c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", outdir.c_str());
    return 1;
  }

  // 1. The raw table a publisher holds.
  const Table raw = SynthesizeAdmissions(static_cast<RowId>(n), 99);
  const std::string raw_path = outdir + "/admissions_raw.csv";
  Die(WriteCsvFile(raw, raw_path));
  std::printf("wrote raw microdata           : %s (%u rows — never publish "
              "this!)\n",
              raw_path.c_str(), raw.num_rows());

  // 2. Re-import (round-trip through the publisher's pipeline) and size l.
  const Table imported = OrDie(ReadCsvFile(AdmissionsSchema(), raw_path));
  Microdata md;
  md.table = imported;
  md.qi_columns = {0, 1, 2};
  md.sensitive_column = 3;  // Diagnosis
  Die(md.Validate());
  const int max_l = MaxEligibleL(md);
  const int l = std::min(10, max_l);
  std::printf("eligibility: data supports up to %d-diversity; publishing at "
              "l = %d\n",
              max_l, l);

  // Both partitions before any publishable file: the multi-sensitive
  // heuristic can strand a tuple (FailedPrecondition), and then nothing is
  // published.
  Anatomizer anatomizer(AnatomizerOptions{.l = l, .seed = 2024});
  const Partition partition = OrDie(anatomizer.ComputePartition(md));
  MultiMicrodata multi;
  multi.table = imported;
  multi.qi_columns = {0, 1, 2};
  multi.sensitive_columns = {3, 4};
  Die(multi.Validate());
  MultiAnatomizer multi_anatomizer(MultiAnatomizerOptions{.l = l, .seed = 7});
  const Partition multi_partition =
      OrDie(multi_anatomizer.ComputePartition(multi));
  Die(ValidateMultiLDiverse(multi, multi_partition, l));

  // 3. Export the two publishable files.
  const AnatomizedTables tables = OrDie(AnatomizedTables::Build(md, partition));
  const std::string qit_path = outdir + "/admissions_qit.csv";
  const std::string st_path = outdir + "/admissions_st.csv";
  Die(WriteCsvFile(tables.qit(), qit_path));
  Die(WriteCsvFile(tables.st(), st_path));
  std::printf("wrote quasi-identifier table  : %s (%u rows)\n",
              qit_path.c_str(), tables.qit().num_rows());
  std::printf("wrote sensitive table         : %s (%u records, %zu groups)\n",
              st_path.c_str(), tables.st().num_rows(), tables.num_groups());

  // 4. The multi-sensitive extension: protect Diagnosis AND Billing-code.
  const std::vector<Table> sts = BuildMultiSt(multi, multi_partition);
  for (size_t s = 0; s < sts.size(); ++s) {
    const std::string path = outdir + "/admissions_st_" +
                             sts[s].schema().attribute(1).name + ".csv";
    Die(WriteCsvFile(sts[s], path));
    std::printf("wrote multi-sensitive ST %zu/%zu : %s\n", s + 1, sts.size(),
                path.c_str());
  }
  std::printf(
      "\nEvery published group is simultaneously %d-diverse on both sensitive\n"
      "attributes: an adversary's inference of either is capped at 1/%d.\n",
      l, l);
  return 0;
}
