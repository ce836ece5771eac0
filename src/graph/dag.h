// Dag: the directed-acyclic-graph substrate under every hierarchy graph.
//
// The paper's machinery is graph-theoretic at its core: hierarchy graphs are
// rooted DAGs, the type-irredundancy integrity constraint is acyclicity, the
// appendix's off-path preemption semantics correspond to maintaining the
// transitive reduction, and both the subsumption graph and the tuple-binding
// graph are derived via the "node elimination procedure" of Section 2.1.
// This class provides those primitives generically; `Hierarchy` layers names
// and class semantics on top.

#ifndef HIREL_GRAPH_DAG_H_
#define HIREL_GRAPH_DAG_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace hirel {

/// Dense node identifier. Ids are stable for the life of the graph; removed
/// nodes leave holes that are never reused.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// A mutable DAG with cycle rejection, reachability, topological orderings,
/// incremental transitive reduction, and the paper's node elimination.
///
/// Reachability is answered from one exact index, rebuilt lazily in O(V + E)
/// on the first non-trivial query after a mutation:
///  * [enter, exit) ranges from a DFS over the first-parent spanning forest
///    (each node hangs under Parents(n)[0]), so u reaches v along first
///    parents iff u's range contains v's;
///  * up[n], the nearest node on n's first-parent chain (n included) with two
///    or more parents. Any other path into v must enter its first-parent
///    chain through a non-first parent of such a node, so a query walks only
///    those join nodes, recursively, each at most once.
/// On trees and chains every query is O(1); on a DAG it costs the number of
/// multi-parent ancestors it visits. This is a minimal form of the interval
/// labels of Agrawal, Borgida & Jagadish (SIGMOD 1989).
///
/// Thread-safety: concurrent const (query) access is safe. The index is
/// built under a mutex (double checked) and published through an atomic
/// flag, after which queries take no lock; each thread marks visited join
/// nodes in its own scratch. Mutations are single-writer: callers must
/// exclude queries while mutating, matching the paper's single-user model.
class Dag {
 public:
  Dag() = default;

  Dag(const Dag& other) { CopyFrom(other); }
  Dag& operator=(const Dag& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// Adds an isolated node and returns its id.
  NodeId AddNode();

  /// Number of ids ever allocated (including removed nodes' holes).
  size_t capacity() const { return out_.size(); }

  /// Number of live nodes.
  size_t num_nodes() const { return num_alive_; }

  /// Number of live edges.
  size_t num_edges() const { return num_edges_; }

  bool alive(NodeId n) const { return n < alive_.size() && alive_[n]; }

  /// Adds edge u -> v.
  ///
  /// Fails with kIntegrityViolation if the edge would create a cycle (the
  /// type-irredundancy constraint of Section 3.1) and with kAlreadyExists if
  /// the edge is already present.
  Status AddEdge(NodeId u, NodeId v);

  /// Adds edge u -> v while maintaining the transitive reduction, the
  /// representation required for off-path preemption (Appendix).
  ///
  /// If v is already reachable from u the edge is *redundant* and is not
  /// inserted (returns OK with `*inserted = false` if provided). Inserting
  /// the edge removes any existing direct edges that it makes redundant.
  Status AddEdgeReduced(NodeId u, NodeId v, bool* inserted = nullptr);

  /// Removes edge u -> v; kNotFound if absent.
  Status RemoveEdge(NodeId u, NodeId v);

  /// Detaches and removes node n (edges incident on n are dropped without
  /// reconnecting; see EliminateNode for the paper's semantics-preserving
  /// removal).
  Status RemoveNode(NodeId n);

  /// The node elimination procedure of Section 2.1: removes n and, for each
  /// former predecessor j (in reverse topological order) and former
  /// successor k (in topological order), adds j -> k unless a path j => k
  /// already exists. With `keep_redundant_edges` the path check is skipped,
  /// which yields on-path preemption semantics (Appendix).
  Status EliminateNode(NodeId n, bool keep_redundant_edges = false);

  /// True if the edge u -> v is present.
  bool HasEdge(NodeId u, NodeId v) const;

  /// True if v is reachable from u (u == v counts as reachable).
  bool Reachable(NodeId u, NodeId v) const;

  /// Direct successors / predecessors of n.
  const std::vector<NodeId>& Children(NodeId n) const { return out_[n]; }
  const std::vector<NodeId>& Parents(NodeId n) const { return in_[n]; }

  /// All live node ids, ascending.
  std::vector<NodeId> Nodes() const;

  /// A topological order over all live nodes (parents before children).
  std::vector<NodeId> TopologicalOrder() const;

  /// All live nodes reachable from n, including n itself.
  std::vector<NodeId> Descendants(NodeId n) const;

  /// All live nodes that reach n, including n itself.
  std::vector<NodeId> Ancestors(NodeId n) const;

  /// All live nodes sharing a descendant with n (the ancestors of n's
  /// descendants), including n itself. In a tree: n's ancestors and
  /// descendants.
  std::vector<NodeId> Overlapping(NodeId n) const;

  /// Live nodes with no in-edges.
  std::vector<NodeId> Roots() const;

  /// Live nodes with no out-edges.
  std::vector<NodeId> Leaves() const;

  /// True if the graph currently contains a redundant edge, i.e. an edge
  /// u -> v such that v is reachable from u without that edge. The
  /// transitive reduction of a DAG is unique and contains no such edge.
  bool HasRedundantEdge() const;

 private:
  /// Per-node label of the reachability index: 12 bytes.
  struct Label {
    uint32_t enter = 0;
    uint32_t exit = 0;
    NodeId up = kInvalidNode;
  };

  void InvalidateIndex() {
    index_valid_.store(false, std::memory_order_release);
  }
  /// Builds the index if it is stale; safe to race from concurrent queries.
  void EnsureIndex() const;
  /// True if u's DFS range contains v's: u reaches v along first parents.
  bool Contains(NodeId u, NodeId v) const {
    return labels_[u].enter <= labels_[v].enter &&
           labels_[v].exit <= labels_[u].exit;
  }
  void CopyFrom(const Dag& other);

  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  std::vector<bool> alive_;
  size_t num_alive_ = 0;
  size_t num_edges_ = 0;

  // Index publication: labels_ is rebuilt under cache_mutex_ (double
  // checked) and published by the release store of index_valid_, so queries
  // that see it true read labels_ without a lock. Only a mutation clears it,
  // and no query overlaps a mutation.
  mutable std::mutex cache_mutex_;
  mutable std::vector<Label> labels_;
  mutable std::atomic<bool> index_valid_{false};
};

}  // namespace hirel

#endif  // HIREL_GRAPH_DAG_H_
