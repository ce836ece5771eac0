// Guarded updates enforcing the ambiguity constraint (Section 3.1).
//
// "Whenever an update is made we require that the update does not create an
// unresolved conflict." GuardedInsert/GuardedErase verify consistency after
// the change and roll the change back if it introduced a conflict;
// Transaction (transaction.h) batches several updates so a conflict may be
// created and resolved within the same transaction.
//
// Delta versus full check. A conflict an update creates lies below a
// changed item (conflict.h), so from a state known to be consistent the
// guards run CheckAmbiguityDelta, which probes only the changed items'
// cones. A state is known consistent when the relation is empty or carries
// the verified stamp (HierarchicalRelation::MarkAmbiguityVerified) for the
// current tuples, hierarchies and preemption mode; off-path also requires
// that no schema hierarchy has preference edges. Any other state (after
// hierarchy DDL, a snapshot LOAD, SET PREEMPTION, CONSOLIDATE, or a raw
// Insert/Erase) gets the full CheckAmbiguity. Every passing check stamps
// the new state, and a rejected update rolls back to its pre-state, which
// is re-stamped when it was verified. Nothing selects between the two
// checks but the stamp.

#ifndef HIREL_CORE_INTEGRITY_H_
#define HIREL_CORE_INTEGRITY_H_

#include <vector>

#include "common/result.h"
#include "core/binding.h"
#include "core/conflict.h"
#include "core/hierarchical_relation.h"

namespace hirel {

/// True iff a mutation of `relation` from its current state may be
/// checked by delta: the state is verified for options.preemption and,
/// off-path, no schema hierarchy has preference edges.
bool DeltaCheckApplies(const HierarchicalRelation& relation,
                       const InferenceOptions& options);

/// Checks the ambiguity constraint after mutations that changed the tuples
/// on `changed`. `delta` is DeltaCheckApplies of the pre-mutation state:
/// true runs CheckAmbiguityDelta, false the full CheckAmbiguity. Stamps the
/// relation verified when the check passes.
Status CheckMutation(HierarchicalRelation& relation, bool delta,
                     const std::vector<Item>& changed,
                     const InferenceOptions& options);

/// Inserts (item, truth) and verifies the ambiguity constraint still holds.
/// On a fresh conflict the insert is rolled back and kConflict is returned
/// (describing the conflicted site and its conflicting binders).
Result<TupleId> GuardedInsert(HierarchicalRelation& relation, Item item,
                              Truth truth, const InferenceOptions& options = {});

/// Erases the tuple on `item` and verifies no conflict becomes exposed
/// (removing a conflict-resolving tuple re-creates the conflict it
/// resolved; cf. the Fig. 3 discussion in Section 3.2). Rolls back on
/// failure.
Status GuardedErase(HierarchicalRelation& relation, const Item& item,
                    const InferenceOptions& options = {});

}  // namespace hirel

#endif  // HIREL_CORE_INTEGRITY_H_
