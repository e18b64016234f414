// l-diversity verification of published artifacts, plus the recursive
// (c, l)-diversity instantiation of Machanavajjhala et al. [10] that the
// paper's Section 3.1 discusses (Definition 2 is their "recursive
// (1/(l-1), 2)-diversity"; the general form guards against stronger
// background knowledge).

#ifndef ANATOMY_PRIVACY_LDIVERSITY_H_
#define ANATOMY_PRIVACY_LDIVERSITY_H_

#include "anatomy/anatomized_tables.h"
#include "common/status.h"
#include "generalization/generalized_table.h"

namespace anatomy {

/// OK iff every group of the anatomized publication satisfies Inequality 1:
/// the anatomy core's VerifyLDiversity (anatomy/anatomized_tables.h), which
/// the bundle writer and reader run too.
Status VerifyAnatomizedLDiversity(const AnatomizedTables& tables, int l);

/// OK iff every group of the generalized publication satisfies Inequality 1
/// (CheckGroupLDiversity per group).
Status VerifyGeneralizedLDiversity(const GeneralizedTable& table, int l);

/// Recursive (c, l)-diversity of one group histogram: with counts sorted
/// descending r_1 >= r_2 >= ... >= r_m, requires
///   r_1 < c * (r_l + r_{l+1} + ... + r_m).
/// Groups with fewer than l distinct values fail.
bool GroupIsRecursiveClDiverse(
    const std::vector<std::pair<Code, uint32_t>>& histogram, double c, int l);

/// OK iff every group of the anatomized publication is recursively
/// (c, l)-diverse.
Status VerifyRecursiveClDiversity(const AnatomizedTables& tables, double c,
                                  int l);

/// Entropy l-diversity of one group ([10]'s first instantiation): the
/// entropy of the group's sensitive distribution must be at least log(l).
/// Stricter than Definition 2 — it penalizes any skew, not only the mode.
bool GroupIsEntropyLDiverse(
    const std::vector<std::pair<Code, uint32_t>>& histogram, double l);

/// OK iff every group of the anatomized publication is entropy-l-diverse.
Status VerifyEntropyLDiversity(const AnatomizedTables& tables, double l);

}  // namespace anatomy

#endif  // ANATOMY_PRIVACY_LDIVERSITY_H_
