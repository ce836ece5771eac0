#include "core/integrity.h"

namespace hirel {

bool DeltaCheckApplies(const HierarchicalRelation& relation,
                       const InferenceOptions& options) {
  if (!relation.AmbiguityVerified(options.preemption)) return false;
  if (options.preemption != PreemptionMode::kOffPath) return true;
  const Schema& schema = relation.schema();
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.hierarchy(i)->num_preference_edges() > 0) return false;
  }
  return true;
}

Status CheckMutation(HierarchicalRelation& relation, bool delta,
                     const std::vector<Item>& changed,
                     const InferenceOptions& options) {
  Status check = delta ? CheckAmbiguityDelta(relation, changed, options)
                       : CheckAmbiguity(relation, options);
  if (check.ok()) relation.MarkAmbiguityVerified(options.preemption);
  return check;
}

Result<TupleId> GuardedInsert(HierarchicalRelation& relation, Item item,
                              Truth truth, const InferenceOptions& options) {
  const bool delta = DeltaCheckApplies(relation, options);
  HIREL_ASSIGN_OR_RETURN(TupleId id, relation.Insert(item, truth));
  Status check = CheckMutation(relation, delta, {item}, options);
  if (!check.ok()) {
    Status undo = relation.Erase(id);
    if (!undo.ok()) return undo;
    if (delta) relation.MarkAmbiguityVerified(options.preemption);
    return check;
  }
  return id;
}

Status GuardedErase(HierarchicalRelation& relation, const Item& item,
                    const InferenceOptions& options) {
  std::optional<TupleId> id = relation.FindItem(item);
  if (!id.has_value()) {
    return Status::NotFound("no tuple on the given item");
  }
  const bool delta = DeltaCheckApplies(relation, options);
  Truth truth = relation.tuple(*id).truth;
  HIREL_RETURN_IF_ERROR(relation.Erase(*id));
  Status check = CheckMutation(relation, delta, {item}, options);
  if (!check.ok()) {
    HIREL_RETURN_IF_ERROR(relation.Insert(item, truth).status());
    if (delta) relation.MarkAmbiguityVerified(options.preemption);
    return check;
  }
  return Status::OK();
}

}  // namespace hirel
