// SubsumptionGraph: the hierarchy (item) graph restricted to asserted
// tuples (Section 2.1), capped by the universal negated tuple (Section
// 3.3.1).
//
// "For a relation, a subsumption graph is obtained by eliminating all nodes
// in the hierarchy graph for which no tuples have been asserted." Because
// node elimination preserves the transitive reduction, the result is the
// Hasse diagram of the subsumption order restricted to asserted items. The
// virtual universal negated tuple, defined over all of D*, gains an edge to
// every source node so that the redundancy rule uniformly detects negated
// tuples with no predecessors.

#ifndef HIREL_CORE_SUBSUMPTION_H_
#define HIREL_CORE_SUBSUMPTION_H_

#include <string>
#include <vector>

#include "core/hierarchical_relation.h"

namespace hirel {

/// The subsumption graph of a relation at a point in time.
struct SubsumptionGraph {
  /// Virtual node index representing the universal negated tuple.
  static constexpr size_t kUniversalNode = static_cast<size_t>(-1);

  /// Live tuples, in a topological order of the subsumption order (more
  /// general tuples first). Indexes below are positions in this vector.
  std::vector<TupleId> nodes;

  /// successors[i]: positions of the immediate successors of nodes[i].
  std::vector<std::vector<size_t>> successors;

  /// predecessors[i]: positions of the immediate predecessors of nodes[i];
  /// contains kUniversalNode when nodes[i] has no asserted predecessor.
  std::vector<std::vector<size_t>> predecessors;

  /// Positions whose only predecessor is the universal negated tuple.
  std::vector<size_t> sources;
};

/// Builds the subsumption graph of `relation`. The binding order used is
/// plain item subsumption extended with preference edges, matching what
/// off-path inference consults.
///
/// A tuple's covers lie among the tuples whose first component is a
/// binding ancestor of its own, so candidates come from a per-build index
/// of tuples by first component and each is verified with ItemBindsBelow;
/// the work is proportional to the comparable pairs, not to n^2. The
/// per-tuple searches are partitioned across the shared ThreadPool when
/// `threads` > 1 (0 = one per hardware thread); the resulting graph is
/// identical at any thread count. The build's working vectors count
/// toward the statement's tracked peak bytes.
SubsumptionGraph BuildSubsumptionGraph(const HierarchicalRelation& relation,
                                       size_t threads = 1);

/// Multi-line rendering for debugging and the figure-reproduction binaries.
std::string SubsumptionGraphToString(const HierarchicalRelation& relation,
                                     const SubsumptionGraph& graph);

}  // namespace hirel

#endif  // HIREL_CORE_SUBSUMPTION_H_
