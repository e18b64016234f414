// adversary_demo: the Section 3.3 attack analysis, step by step.
//
// An adversary holds a voter registration list (Table 5) and the published
// tables, and is NOT certain the target appears in the microdata. The demo
// reproduces the paper's numbers: generalization dilutes the membership
// probability (Pr_A2 = 4/5 for Alice), anatomy pins it to 1 — yet both keep
// the overall breach at or below 1/l, and anatomy even proves Emily absent.

#include <cstdio>

#include "anatomy/anatomized_tables.h"
#include "data/census.h"
#include "generalization/generalized_table.h"
#include "privacy/voter_attack.h"

using namespace anatomy;

namespace {

constexpr Code kFlu = 2;

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

void ShowAttack(const char* publication, const AttackOutcome& outcome) {
  std::printf("  vs %-14s Pr[in microdata] = %.2f, Pr[disease | in] = %.2f"
              " => overall breach %.2f\n",
              publication, outcome.pr_in_microdata,
              outcome.pr_breach_given_in, outcome.OverallBreach());
}

}  // namespace

int main() {
  const Microdata microdata = HospitalExample();
  const Table voters = VoterRegistrationList();
  const std::vector<RegisteredPerson> registry = RegistryFromTable(voters);

  std::printf("== Voter registration list (Table 5; public) ==\n%s\n",
              voters.ToDisplayString().c_str());

  // The paper's 2-diverse grouping (tuples 1-4, 5-8).
  Partition grouping;
  grouping.AddGroup(std::vector<RowId>{0, 1, 2, 3});
  grouping.AddGroup(std::vector<RowId>{4, 5, 6, 7});
  const AnatomizedTables anatomized =
      OrDie(AnatomizedTables::Build(microdata, grouping));
  const GeneralizedTable generalized = OrDie(GeneralizedTable::Build(
      microdata, grouping, TaxonomySet::AllFree(microdata.table.schema())));

  std::printf("Both publications are 2-diverse: the adversary can never beat "
              "Pr = 1/l = 50%%.\n\n");

  // --- Alice: in the microdata (tuple 7, flu). ---
  const RegisteredPerson& alice = registry[1];
  std::printf("Target: Alice (65, F, 25000), true disease flu.\n");
  ShowAttack("anatomy:",
             AttackAnatomized(anatomized, registry, alice, kFlu));
  ShowAttack("generalization:",
             AttackGeneralized(generalized, registry, alice, kFlu));
  std::printf(
      "  -> The paper's Formula 3: generalization's voter list keeps Emily\n"
      "     as a candidate (Pr_A2 = 4/5); anatomy's exact QI values do not.\n"
      "     Both products stay <= 50%%.\n\n");

  // --- Bella: shares Alice's QI values; owner of tuple 6 (gastritis). ---
  constexpr Code kGastritis = 3;
  const RegisteredPerson& bella = registry[2];
  std::printf("Target: Bella (65, F, 25000), true disease gastritis.\n");
  ShowAttack("anatomy:",
             AttackAnatomized(anatomized, registry, bella, kGastritis));
  ShowAttack("generalization:",
             AttackGeneralized(generalized, registry, bella, kGastritis));
  std::printf("\n");

  // --- Emily: registered but NOT hospitalized. ---
  const RegisteredPerson& emily = registry[3];
  std::printf("Target: Emily (67, F, 33000) — not in the microdata.\n");
  ShowAttack("anatomy:",
             AttackAnatomized(anatomized, registry, emily, kFlu));
  ShowAttack("generalization:",
             AttackGeneralized(generalized, registry, emily, kFlu));
  std::printf(
      "  -> Anatomy reveals Emily's absence (a membership disclosure the\n"
      "     paper discusses), but that yields no sensitive inference; under\n"
      "     generalization she remains a plausible patient.\n");
  return 0;
}
