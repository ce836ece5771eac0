#include "core/conflict.h"

#include <algorithm>
#include <unordered_set>

#include "common/str_util.h"

namespace hirel {

namespace {

/// True iff the tuples `ids` do not all share one truth value.
bool MixedTruth(const HierarchicalRelation& relation,
                const std::vector<TupleId>& ids) {
  for (TupleId id : ids) {
    if (relation.TruthOf(id) != relation.TruthOf(ids.front())) return true;
  }
  return false;
}

/// True iff the binders of `site` mix truth values.
Result<bool> SiteConflicted(const HierarchicalRelation& relation,
                            const Item& site, const InferenceOptions& options,
                            std::vector<TupleId>* binders_out) {
  HIREL_ASSIGN_OR_RETURN(Binding binding,
                         ComputeBinding(relation, site, options));
  if (binding.self_bound || !MixedTruth(relation, binding.binders)) {
    return false;
  }
  if (binders_out != nullptr) *binders_out = std::move(binding.binders);
  return true;
}

/// Probes `site` unless it carries a tuple or is already in `probed`
/// (null: no deduplication), appending it to `sites` when conflicted.
Status ProbeSite(const HierarchicalRelation& relation, const Item& site,
                 const InferenceOptions& options,
                 std::unordered_set<Item, ItemHash>* probed,
                 std::vector<ConflictSite>& sites) {
  if (probed != nullptr && !probed->insert(site).second) return Status::OK();
  if (relation.FindItem(site).has_value()) return Status::OK();
  std::vector<TupleId> binders;
  HIREL_ASSIGN_OR_RETURN(bool conflicted,
                         SiteConflicted(relation, site, options, &binders));
  if (conflicted) sites.push_back(ConflictSite{site, std::move(binders)});
  return Status::OK();
}

/// Probes the maximal common descendants of `item` with every tuple that
/// overlaps it, is incomparable with it, and has a truth value other than
/// `truth`.
Status ProbeMcdsAgainst(const HierarchicalRelation& relation,
                        const Item& item, Truth truth,
                        const InferenceOptions& options, size_t max_sites,
                        std::unordered_set<Item, ItemHash>& probed,
                        std::vector<ConflictSite>& sites) {
  const Schema& schema = relation.schema();
  for (TupleId id : relation.TuplesOverlapping(item)) {
    if (relation.TruthOf(id) == truth) continue;
    const Item& other = relation.ItemAt(id);
    if (ItemComparable(schema, item, other)) continue;
    for (const Item& site : ItemMaximalCommonDescendants(schema, item, other)) {
      HIREL_RETURN_IF_ERROR(
          ProbeSite(relation, site, options, &probed, sites));
      if (sites.size() >= max_sites) return Status::OK();
    }
  }
  return Status::OK();
}

/// Probes every unasserted item of the product of `candidates` (one
/// non-empty sorted node list per attribute), skipping items already in
/// `probed` (if non-null), until `sites` holds `max_sites` entries.
Status ScanProduct(const HierarchicalRelation& relation,
                   const std::vector<std::vector<NodeId>>& candidates,
                   const InferenceOptions& options, size_t max_sites,
                   std::unordered_set<Item, ItemHash>* probed,
                   std::vector<ConflictSite>& sites) {
  const size_t arity = candidates.size();
  Item current(arity);
  std::vector<size_t> idx(arity, 0);
  while (sites.size() < max_sites) {
    for (size_t i = 0; i < arity; ++i) current[i] = candidates[i][idx[i]];
    HIREL_RETURN_IF_ERROR(
        ProbeSite(relation, current, options, probed, sites));
    size_t k = arity;
    bool done = false;
    while (k > 0) {
      --k;
      if (++idx[k] < candidates[k].size()) break;
      idx[k] = 0;
      if (k == 0) done = true;
    }
    if (done) break;
  }
  return Status::OK();
}

/// Number of items in the product of `candidates`, or kResourceExhausted
/// when it exceeds `max_items`. Zero when some attribute has no candidate.
Result<size_t> ProductSize(const HierarchicalRelation& relation,
                           const std::vector<std::vector<NodeId>>& candidates,
                           size_t max_items) {
  for (const auto& c : candidates) {
    if (c.empty()) return size_t{0};
  }
  size_t total = 1;
  for (const auto& c : candidates) {
    if (total > max_items / c.size()) {
      return Status::ResourceExhausted(
          StrCat("exhaustive conflict scan of '", relation.name(),
                 "' exceeds ", max_items, " candidate items"));
    }
    total *= c.size();
  }
  return total;
}

/// kConflict naming the first of `sites`, or OK when there is none.
Status ConflictStatus(const HierarchicalRelation& relation,
                      const std::vector<ConflictSite>& sites) {
  if (sites.empty()) return Status::OK();
  const ConflictSite& site = sites.front();
  std::string detail;
  for (TupleId id : site.binders) {
    detail += StrCat(" [", TruthToString(relation.tuple(id).truth), " ",
                     ItemToString(relation.schema(), relation.tuple(id).item),
                     "]");
  }
  return Status::Conflict(
      StrCat("relation '", relation.name(), "' violates the ambiguity ",
             "constraint at item ",
             ItemToString(relation.schema(), site.item),
             "; conflicting strongest binders:", detail));
}

/// Off-path delta (see the completeness sketch in conflict.h).
Status FindOffPathDelta(const HierarchicalRelation& relation,
                        const std::vector<Item>& changed,
                        const InferenceOptions& options, size_t max_sites,
                        std::unordered_set<Item, ItemHash>& probed,
                        std::vector<ConflictSite>& sites) {
  for (const Item& item : changed) {
    if (sites.size() >= max_sites) break;
    Truth against = Truth::kPositive;
    if (std::optional<Truth> truth = relation.TruthAt(item)) {
      against = *truth;  // inserted: opposite-truth partners of the tuple
    } else {
      // Erased: the item itself, then the partners of its new binders.
      HIREL_ASSIGN_OR_RETURN(Binding binding,
                             ComputeBinding(relation, item, options));
      if (binding.binders.empty()) continue;
      if (MixedTruth(relation, binding.binders)) {
        if (probed.insert(item).second) {
          sites.push_back(ConflictSite{item, std::move(binding.binders)});
        }
        continue;
      }
      against = relation.TruthOf(binding.binders.front());
    }
    HIREL_RETURN_IF_ERROR(ProbeMcdsAgainst(relation, item, against, options,
                                           max_sites, probed, sites));
  }
  return Status::OK();
}

/// On-path / none delta: the exhaustive scan restricted to the changed
/// items' cones. A site's binders are tuples and blocking items that
/// subsume it, so only sites below a changed item can change. Below an
/// erased item a new conflict needs a new binder, whose unblocked path ran
/// through the erased item and which therefore subsumes it: with no such
/// tuple left, the erased item's cone is skipped. Every scanned cone lies
/// below a live tuple, hence inside the full scan's candidates.
Status FindExhaustiveDelta(const HierarchicalRelation& relation,
                           const std::vector<Item>& changed,
                           const InferenceOptions& options, size_t max_sites,
                           size_t max_items,
                           std::unordered_set<Item, ItemHash>& probed,
                           std::vector<ConflictSite>& sites) {
  const Schema& schema = relation.schema();
  size_t budget = max_items;
  for (const Item& item : changed) {
    if (sites.size() >= max_sites) break;
    if (!relation.FindItem(item).has_value() &&
        relation.TuplesSubsuming(item).empty()) {
      continue;
    }
    std::vector<std::vector<NodeId>> cone(schema.size());
    for (size_t i = 0; i < schema.size(); ++i) {
      cone[i] = schema.hierarchy(i)->dag().Descendants(item[i]);
      std::sort(cone[i].begin(), cone[i].end());
    }
    HIREL_ASSIGN_OR_RETURN(size_t total, ProductSize(relation, cone, budget));
    if (total == 0) continue;
    budget -= total;
    HIREL_RETURN_IF_ERROR(
        ScanProduct(relation, cone, options, max_sites, &probed, sites));
  }
  return Status::OK();
}

/// The conflicts (up to `max_sites`) a batch that changed `changed` may
/// have created; see CheckAmbiguityDelta.
Result<std::vector<ConflictSite>> FindConflictsDelta(
    const HierarchicalRelation& relation, const std::vector<Item>& changed,
    const InferenceOptions& options, size_t max_sites, size_t max_items) {
  // A batch may touch one item several times; its net change is all that
  // matters.
  std::vector<Item> items = changed;
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  std::unordered_set<Item, ItemHash> probed;
  std::vector<ConflictSite> sites;
  if (options.preemption == PreemptionMode::kOffPath) {
    HIREL_RETURN_IF_ERROR(FindOffPathDelta(relation, items, options,
                                           max_sites, probed, sites));
  } else {
    HIREL_RETURN_IF_ERROR(FindExhaustiveDelta(
        relation, items, options, max_sites, max_items, probed, sites));
  }
  return sites;
}

}  // namespace

Result<std::vector<ConflictSite>> FindConflicts(
    const HierarchicalRelation& relation, const InferenceOptions& options,
    size_t max_sites) {
  const Schema& schema = relation.schema();
  std::vector<TupleId> ids = relation.TupleIds();
  std::unordered_set<Item, ItemHash> probed;
  std::vector<ConflictSite> sites;

  for (size_t i = 0; i < ids.size() && sites.size() < max_sites; ++i) {
    for (size_t j = i + 1; j < ids.size() && sites.size() < max_sites; ++j) {
      const HTuple& a = relation.tuple(ids[i]);
      const HTuple& b = relation.tuple(ids[j]);
      if (a.truth == b.truth) continue;
      if (ItemBindsBelow(schema, a.item, b.item) ||
          ItemBindsBelow(schema, b.item, a.item)) {
        continue;  // comparable in the binding order: one preempts the other
      }
      for (const Item& site :
           ItemMaximalCommonDescendants(schema, a.item, b.item)) {
        HIREL_RETURN_IF_ERROR(
            ProbeSite(relation, site, options, &probed, sites));
        if (sites.size() >= max_sites) break;
      }
    }
  }
  return sites;
}

Result<std::vector<ConflictSite>> FindConflictsExhaustive(
    const HierarchicalRelation& relation, const InferenceOptions& options,
    size_t max_sites, size_t max_items) {
  const Schema& schema = relation.schema();

  // Per-attribute candidate nodes: every node subsumed by some asserted
  // component (items outside every tuple's downset have no binders and
  // cannot conflict).
  std::vector<std::vector<NodeId>> candidates(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    std::unordered_set<NodeId> seen;
    for (TupleId id : relation.TupleIds()) {
      NodeId component = relation.tuple(id).item[i];
      for (NodeId d : schema.hierarchy(i)->dag().Descendants(component)) {
        seen.insert(d);
      }
    }
    candidates[i].assign(seen.begin(), seen.end());
    std::sort(candidates[i].begin(), candidates[i].end());
  }
  HIREL_ASSIGN_OR_RETURN(size_t total,
                         ProductSize(relation, candidates, max_items));
  std::vector<ConflictSite> sites;
  if (total == 0) return sites;
  HIREL_RETURN_IF_ERROR(ScanProduct(relation, candidates, options, max_sites,
                                    /*probed=*/nullptr, sites));
  return sites;
}

Status CheckAmbiguity(const HierarchicalRelation& relation,
                      const InferenceOptions& options) {
  std::vector<ConflictSite> sites;
  if (options.preemption == PreemptionMode::kOffPath) {
    HIREL_ASSIGN_OR_RETURN(sites, FindConflicts(relation, options, 1));
  } else {
    HIREL_ASSIGN_OR_RETURN(sites,
                           FindConflictsExhaustive(relation, options, 1));
  }
  return ConflictStatus(relation, sites);
}

Status CheckAmbiguityDelta(const HierarchicalRelation& relation,
                           const std::vector<Item>& changed,
                           const InferenceOptions& options) {
  HIREL_ASSIGN_OR_RETURN(
      std::vector<ConflictSite> sites,
      FindConflictsDelta(relation, changed, options, /*max_sites=*/1,
                         kExhaustiveItemCap));
  return ConflictStatus(relation, sites);
}

Result<std::vector<Item>> CompleteConflictResolutionSet(const Schema& schema,
                                                        const Item& a,
                                                        const Item& b,
                                                        size_t max_items) {
  // Per attribute: all common descendants of the two components.
  std::vector<std::vector<NodeId>> per_attr(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    const Dag& dag = schema.hierarchy(i)->dag();
    std::vector<NodeId> da = dag.Descendants(a[i]);
    std::vector<bool> in_a(dag.capacity(), false);
    for (NodeId n : da) in_a[n] = true;
    for (NodeId n : dag.Descendants(b[i])) {
      if (in_a[n]) per_attr[i].push_back(n);
    }
    if (per_attr[i].empty()) return std::vector<Item>{};
    std::sort(per_attr[i].begin(), per_attr[i].end());
  }
  size_t total = 1;
  for (const auto& c : per_attr) {
    if (total > max_items / c.size()) {
      return Status::ResourceExhausted(
          StrCat("complete conflict-resolution set exceeds ", max_items,
                 " items"));
    }
    total *= c.size();
  }
  std::vector<Item> out;
  out.reserve(total);
  Item current(schema.size());
  std::vector<size_t> idx(schema.size(), 0);
  while (true) {
    for (size_t i = 0; i < schema.size(); ++i) {
      current[i] = per_attr[i][idx[i]];
    }
    out.push_back(current);
    size_t k = schema.size();
    bool done = false;
    while (k > 0) {
      --k;
      if (++idx[k] < per_attr[k].size()) break;
      idx[k] = 0;
      if (k == 0) done = true;
    }
    if (done) break;
  }
  return out;
}

std::vector<Item> MinimalConflictResolutionSet(const Schema& schema,
                                               const Item& a, const Item& b) {
  return ItemMaximalCommonDescendants(schema, a, b);
}

Status ResolveConflict(HierarchicalRelation& relation, const Item& a,
                       const Item& b, Truth truth) {
  for (const Item& item :
       MinimalConflictResolutionSet(relation.schema(), a, b)) {
    if (relation.FindItem(item).has_value()) continue;
    HIREL_RETURN_IF_ERROR(relation.Insert(item, truth).status());
  }
  return Status::OK();
}

}  // namespace hirel
