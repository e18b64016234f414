#include "data/census_generator.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "data/census.h"

namespace anatomy {

namespace {

/// Clamps a real-valued draw onto the code grid [0, domain).
Code ClampCode(double v, Code domain) {
  if (v < 0) return 0;
  if (v >= domain) return domain - 1;
  return static_cast<Code>(v);
}

/// Discretized gaussian draw centered at `center` with spread `sigma`.
Code GaussianCode(double center, double sigma, Code domain, Rng& rng) {
  return ClampCode(std::floor(center + sigma * rng.NextGaussian() + 0.5),
                   domain);
}

}  // namespace

CensusGenerator::CensusGenerator(const CensusGeneratorOptions& options)
    : options_(options) {
  // Fixed pseudo-random pay ranking of occupations, independent of the data
  // seed so that OCC-d and SAL-d datasets with different seeds share it.
  occupation_pay_rank_.resize(50);
  for (int i = 0; i < 50; ++i) occupation_pay_rank_[i] = i;
  Rng rank_rng(0xC0FFEE);
  rank_rng.Shuffle(occupation_pay_rank_);
}

int CensusGenerator::SampleProfile(Rng& rng) {
  // Mildly skewed profile mix (blue-collar profiles are more common).
  static constexpr double kProfileWeights[] = {1.6, 1.5, 1.3, 1.2,
                                               1.0, 0.9, 0.8, 0.7};
  return static_cast<int>(rng.NextDiscrete(kProfileWeights));
}

Code CensusGenerator::SampleAge(int profile, Rng& rng) {
  // Two-hump adult age distribution; higher profiles skew slightly older
  // (seniority correlates with socioeconomic standing).
  const double hump = rng.NextBool(0.6) ? 16.0 : 42.0;
  const double shift = 2.0 * profile;
  return GaussianCode(hump + shift, 8.0, 78, rng);
}

Code CensusGenerator::SampleGender(int profile, Rng& rng) {
  // Profile-dependent gender balance between 38% and 62% male.
  const double p_male = 0.38 + 0.24 * (profile / 7.0);
  return rng.NextBool(p_male) ? 1 : 0;
}

Code CensusGenerator::SampleEducation(int profile, Rng& rng) {
  // Education (0..16, years-of-schooling codes) centered by profile.
  const double center = 4.0 + 1.5 * profile;
  return GaussianCode(center, 2.2, 17, rng);
}

Code CensusGenerator::SampleMarital(Code age, Rng& rng) {
  // Age drives marital status: codes {0 never-married, 1 married,
  // 2 separated, 3 divorced, 4 widowed, 5 spouse-absent}.
  static constexpr double kWeights[4][6] = {
      {8.0, 1.5, 0.1, 0.1, 0.01, 0.2},  // under 25
      {3.0, 5.5, 0.4, 0.8, 0.05, 0.3},  // 25 to 39
      {1.0, 6.0, 0.5, 1.6, 0.4, 0.3},   // 40 to 59
      {0.5, 4.5, 0.3, 1.2, 3.0, 0.3},   // 60 and over
  };
  const int years = 15 + age;
  const int band = years < 25 ? 0 : years < 40 ? 1 : years < 60 ? 2 : 3;
  return static_cast<Code>(rng.NextDiscrete(kWeights[band]));
}

Code CensusGenerator::SampleCountry(Rng& rng) {
  // Heavy-headed country-of-origin distribution (code 0 = native-born
  // dominates), Zipf tail over the remaining 82.
  if (rng.NextBool(0.72)) return 0;
  return 1 + static_cast<Code>(rng.NextZipf(82, 0.55));
}

Code CensusGenerator::SampleRace(Code country, Rng& rng) {
  // Race correlates with region of origin: countries fall into coarse region
  // blocks, each preferring one race code.
  const Code preferred = (country == 0) ? 0 : 1 + (country / 12) % 8;
  if (rng.NextBool(0.65)) return preferred;
  return static_cast<Code>(rng.NextBounded(9));
}

Code CensusGenerator::SampleWorkClass(int profile, Rng& rng) {
  // Ten work classes; each profile prefers a window of three.
  const Code base = static_cast<Code>((profile * 3) % 10);
  const double r = rng.NextDouble();
  if (r < 0.5) return base;
  if (r < 0.75) return (base + 1) % 10;
  if (r < 0.88) return (base + 2) % 10;
  return static_cast<Code>(rng.NextBounded(10));
}

Code CensusGenerator::SampleOccupation(int profile, Code education, Rng& rng) {
  // Half the mass in a profile-and-education-specific band of 10 occupations
  // with geometric decay, half uniform. The uniform half keeps every
  // occupation's frequency well under n/10, so OCC-d stays 10-eligible.
  if (rng.NextBool(0.5)) {
    const Code band_start =
        static_cast<Code>((profile * 6 + (education / 6) * 17) % 50);
    static const auto kBand = [] {
      std::array<double, 10> band{};
      std::ranges::copy(GeometricWeights(10, 0.75), band.begin());
      return band;
    }();
    return (band_start + static_cast<Code>(rng.NextDiscrete(kBand))) % 50;
  }
  return static_cast<Code>(rng.NextBounded(50));
}

Code CensusGenerator::SampleSalary(Code age, Code education, Code work_class,
                                   Code occupation, Rng& rng) {
  // Salary class (50 ordered brackets) from a socioeconomic score. The career
  // hump makes salary non-monotone in age, which defeats naive uniform
  // interpolation inside generalized cells.
  const int years = 15 + age;
  const double age_hump =
      std::max(0.0, 1.0 - std::abs(years - 48.0) / 33.0);
  const double score = 0.34 * (education / 16.0) +
                       0.30 * (occupation_pay_rank_[occupation] / 49.0) +
                       0.16 * age_hump + 0.08 * (work_class / 9.0) +
                       0.12 * rng.NextDouble();
  return ClampCode(std::floor(score * 50.0), 50);
}

CensusGenerator::Person CensusGenerator::SamplePerson(Rng& rng) {
  Person p;
  p.profile = SampleProfile(rng);
  p.age = SampleAge(p.profile, rng);
  p.gender = SampleGender(p.profile, rng);
  p.education = SampleEducation(p.profile, rng);
  p.marital = SampleMarital(p.age, rng);
  p.country = SampleCountry(rng);
  p.race = SampleRace(p.country, rng);
  p.work_class = SampleWorkClass(p.profile, rng);
  p.occupation = SampleOccupation(p.profile, p.education, rng);
  p.salary = SampleSalary(p.age, p.education, p.work_class, p.occupation, rng);
  return p;
}

Table CensusGenerator::Generate() {
  Table table(CensusSchema());
  table.Reserve(options_.num_rows);
  Rng rng(options_.seed);
  Code row[kCensusNumColumns];
  for (RowId i = 0; i < options_.num_rows; ++i) {
    const Person p = SamplePerson(rng);
    row[kAge] = p.age;
    row[kGender] = p.gender;
    row[kEducation] = p.education;
    row[kMarital] = p.marital;
    row[kRace] = p.race;
    row[kWorkClass] = p.work_class;
    row[kCountry] = p.country;
    row[kOccupation] = p.occupation;
    row[kSalaryClass] = p.salary;
    table.AppendRow(row);
  }
  return table;
}

Table GenerateCensus(RowId num_rows, uint64_t seed) {
  CensusGeneratorOptions options;
  options.seed = seed;
  options.num_rows = num_rows;
  return CensusGenerator(options).Generate();
}

}  // namespace anatomy
