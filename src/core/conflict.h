// Conflict detection and conflict-resolution sets (Sections 2.1, 2.2, 3.1).
//
// "If, for an item, there are multiple tuples of differing truth values as
// its immediate predecessors in the tuple-binding graph (and there is no
// tuple associated with the item itself), then we have a conflict. We treat
// such a conflict as an inconsistent state of the database and do not
// permit it."
//
// Completeness of the off-path detector. Candidate sites are the maximal
// common descendants (MCDs) of every mixed-truth, incomparable tuple pair.
// Claim: if any item u is conflicted, some MCD site is conflicted.
// Sketch: let p (positive) and n (negative) be two of u's immediate
// predecessors; they are incomparable (comparable binders cannot both be
// immediate). Pick a maximal common descendant m of (p, n) with m ⊇ u.
// Any asserted t strictly between p and m would satisfy t ⊇ m ⊇ u, hence
// t strictly between p and u, contradicting p's immediacy at u; so p (and
// symmetrically n) is an immediate predecessor of m. If m itself carried a
// tuple, that tuple would sit strictly between p and u, again contradicting
// immediacy. Hence m is a conflicted site. (With preference edges the
// binding order is no longer set inclusion and this argument weakens; use
// FindConflictsExhaustive when preference edges are present and certainty
// is required.)
//
// Completeness of the off-path delta (CheckAmbiguityDelta). Let S0 be a
// conflict-free state and F the state after a batch of inserts and
// erases; call an item changed if its tuple (presence or truth) differs
// between S0 and F. Claim: if F has a conflict, one of these probes finds
// one: (i) each changed item I absent in F; (ii) the MCDs of each changed
// item I present in F with every overlapping, incomparable tuple x of the
// other truth; (iii) for each changed I absent in F whose binders in F
// share one truth v, the MCDs of I with every overlapping, incomparable
// tuple x of truth other than v. Sketch: by the claim above some MCD site
// m of two opposite-truth immediate predecessors is conflicted in F, and m
// was not conflicted in S0, so m's strongest binders changed: a binder set
// only changes through a changed item that subsumes m. If m was asserted
// in S0, m is a changed item absent in F: (i). If a binder r of m in F is
// a changed item, pair it with an opposite-truth binder x of m; r and x are
// incomparable, and the MCD of (r, x) above m is conflicted as in the
// sketch above: (ii). Otherwise some binder y of m in F was preempted in S0
// by a tuple r with y ⊋ r ⊇ m that is gone in F, so r is a changed item
// absent in F and y is one of r's binders in F (r ⊆ y, and anything
// strictly between would sit between y and m). Let x be a binder of m in F
// of the other truth from y. If x ⊇ r, x and y both bind r, which (i)
// finds conflicted. Otherwise x and r are incomparable (x ⊊ r would make
// y preempted at m) and overlap at m, and every MCD w of (r, x) above m has
// y and x as immediate predecessors and no tuple, so w is conflicted: (iii).
// The argument uses set inclusion as the binding order, so the delta needs
// hierarchies without preference edges; integrity.h falls back to the full
// check when any schema hierarchy has one. On-path and none preemption
// instead rescan every item below a changed item (a site's binders depend
// only on tuples and blocking items that subsume it), skipping an erased
// item no tuple subsumes any more: a conflict its erasure exposes needs a
// new binder whose path ran through it.

#ifndef HIREL_CORE_CONFLICT_H_
#define HIREL_CORE_CONFLICT_H_

#include <vector>

#include "common/result.h"
#include "core/binding.h"
#include "core/hierarchical_relation.h"

namespace hirel {

/// One inconsistent item: its strongest binders disagree.
struct ConflictSite {
  Item item;
  std::vector<TupleId> binders;
};

/// Finds up to `max_sites` conflicted items under off-path (or none)
/// preemption by probing the MCD candidate sites of every mixed-truth
/// incomparable tuple pair. Sound, and complete for off-path preemption
/// without preference edges.
Result<std::vector<ConflictSite>> FindConflicts(
    const HierarchicalRelation& relation, const InferenceOptions& options = {},
    size_t max_sites = 16);

/// Default cap on the items an exhaustive conflict scan enumerates.
inline constexpr size_t kExhaustiveItemCap = 1'000'000;

/// Exhaustive detector: probes every item in the product of the per-
/// attribute downsets of asserted components (capped by `max_items`,
/// kResourceExhausted beyond it). Complete for all preemption modes;
/// exponential in the worst case — intended for tests and small databases.
Result<std::vector<ConflictSite>> FindConflictsExhaustive(
    const HierarchicalRelation& relation, const InferenceOptions& options = {},
    size_t max_sites = 16, size_t max_items = kExhaustiveItemCap);

/// OK iff the relation satisfies the ambiguity constraint: "for each item
/// ... either there should be a tuple associated with the item, or every
/// predecessor of the item in the tuple-binding graph should have the same
/// truth value." Returns kConflict describing the first offending site.
Status CheckAmbiguity(const HierarchicalRelation& relation,
                      const InferenceOptions& options = {});

/// CheckAmbiguity's verdict for the state after a batch of mutations,
/// given that the state before the batch satisfied the constraint.
/// `changed` lists every item whose tuple the batch inserted, erased or
/// re-asserted (duplicates and extra items are harmless). Off-path probes
/// the sites of the completeness sketch above, finding partners through
/// TuplesOverlapping, and requires hierarchies without preference edges.
/// On-path and none run the exhaustive scan over the product of each
/// changed item's per-attribute descendants, with FindConflictsExhaustive's
/// cap shared across the batch. Guarded updates (integrity.h) use it; the
/// full CheckAmbiguity stays the base case and the test oracle.
Status CheckAmbiguityDelta(const HierarchicalRelation& relation,
                           const std::vector<Item>& changed,
                           const InferenceOptions& options = {});

/// The complete conflict-resolution set of two conflicting items: every
/// item subsumed by both (capped; kResourceExhausted beyond `max_items`).
Result<std::vector<Item>> CompleteConflictResolutionSet(
    const Schema& schema, const Item& a, const Item& b,
    size_t max_items = 100'000);

/// The minimal conflict-resolution set: the maximal elements of the
/// complete set. "One tuple for each item in the minimal conflict
/// resolution set will suffice to resolve the conflict at hand."
std::vector<Item> MinimalConflictResolutionSet(const Schema& schema,
                                               const Item& a, const Item& b);

/// Resolves the conflict between the two tuple items by asserting `truth`
/// on every item of their minimal conflict-resolution set (skipping items
/// that already carry a tuple).
Status ResolveConflict(HierarchicalRelation& relation, const Item& a,
                       const Item& b, Truth truth);

}  // namespace hirel

#endif  // HIREL_CORE_CONFLICT_H_
