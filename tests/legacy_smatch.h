#ifndef QPE_TESTS_LEGACY_SMATCH_H_
#define QPE_TESTS_LEGACY_SMATCH_H_

#include "smatch/smatch.h"

// The Smatch hill climber that smatch/smatch.cc used before it moved to
// dense tables and closed-form move gains, kept verbatim as the test oracle
// for the differential test (smatch_diff_test.cc). It answers every
// right-edge query through an unordered_set keyed p * 1000003 + c, keeps
// per-node vectors for the instance table and the left adjacency, and
// scores each swap by applying it and calling RemapGain twice.
namespace qpe::smatch::legacy {

SmatchScore Score(const FlatPlan& left, const FlatPlan& right,
                  const SmatchOptions& options = {});
SmatchScore ScoreExact(const FlatPlan& left, const FlatPlan& right);

}  // namespace qpe::smatch::legacy

#endif  // QPE_TESTS_LEGACY_SMATCH_H_
