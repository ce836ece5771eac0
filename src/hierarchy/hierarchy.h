// Hierarchy: a named class/instance hierarchy graph over one attribute
// domain (Section 2.1 of the paper).
//
// A Hierarchy is a rooted DAG whose root represents the whole domain, whose
// internal nodes are named classes, and whose leaves may be classes or
// atomic instances. Edges run from the more general class to the more
// specific class/instance ("derived as restrictions of the general class").
// Class membership is transitive: instance a is a member of class B iff B
// reaches a.
//
// Integrity:
//  * type-irredundancy — the graph must stay acyclic; violating edges are
//    rejected (Section 3.1);
//  * transitive reduction — redundant subsumption edges are dropped on
//    insertion by default, which realises off-path preemption (Appendix).
//    Construct with HierarchyOptions{.keep_redundant_edges = true} to retain
//    them, which realises on-path preemption.
//
// Preference edges (Appendix) do not denote set inclusion; they only bias
// the binding order between otherwise-conflicting classes and are stored
// separately from subsumption edges.

#ifndef HIREL_HIERARCHY_HIERARCHY_H_
#define HIREL_HIERARCHY_HIERARCHY_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/revision.h"
#include "common/status.h"
#include "graph/dag.h"
#include "types/value.h"

namespace hirel {

/// Kind of a hierarchy node.
enum class NodeKind {
  /// A class: a (possibly empty) set of domain elements.
  kClass = 0,
  /// An instance: an atomic element, a leaf. "Each instance can be thought
  /// of as a level-0 class" (Section 2.1); hirel treats instances as
  /// singleton sets wherever convenient, exactly as the paper does.
  kInstance = 1,
};

/// Construction-time options for a Hierarchy.
struct HierarchyOptions {
  /// Retain redundant subsumption edges instead of maintaining the
  /// transitive reduction. Off-path preemption (the paper's default and
  /// "closest match to human intuition") requires `false`; on-path
  /// preemption requires `true`.
  bool keep_redundant_edges = false;
};

/// A named class/instance DAG for one attribute domain.
class Hierarchy {
 public:
  /// Creates a hierarchy whose root class is named `name` (the domain
  /// itself, e.g. "animal").
  explicit Hierarchy(std::string name, HierarchyOptions options = {});

  Hierarchy(const Hierarchy&) = default;
  Hierarchy& operator=(const Hierarchy&) = default;
  Hierarchy(Hierarchy&&) = default;
  Hierarchy& operator=(Hierarchy&&) = default;

  const std::string& name() const { return name_; }
  NodeId root() const { return root_; }
  const HierarchyOptions& options() const { return options_; }

  /// Monotonic version stamp, refreshed on every structural mutation (node
  /// or edge added, preference edge added, node eliminated). Subsumption
  /// between existing nodes can change with the graph, so caches of
  /// subsumption-derived structures must include this in their keys.
  uint64_t version() const { return version_; }

  /// Number of live nodes (classes + instances), including the root.
  size_t num_nodes() const { return dag_.num_nodes(); }
  size_t num_classes() const { return num_classes_; }
  size_t num_instances() const { return num_instances_; }

  // ----- Construction ------------------------------------------------------

  /// Adds class `name` under `parent`. Class names are unique within a
  /// hierarchy. Fails with kAlreadyExists on duplicates.
  Result<NodeId> AddClass(std::string_view name, NodeId parent);

  /// Adds class `name` directly under the root.
  Result<NodeId> AddClass(std::string_view name);

  /// Adds the atomic instance `value` under `parent`. Instance values are
  /// unique within a hierarchy. Fails with kAlreadyExists on duplicates.
  Result<NodeId> AddInstance(const Value& value, NodeId parent);

  /// Adds instance `value` directly under the root.
  Result<NodeId> AddInstance(const Value& value);

  /// Finds the existing instance for `value` or adds it under the root.
  /// This is how scalar domains (Fig. 11's enclosure sizes) intern values.
  NodeId Intern(const Value& value);

  /// Adds a subsumption edge parent -> child (multiple inheritance). Both
  /// nodes must exist; `child` may be a class or an instance. Rejects cycles
  /// (kIntegrityViolation). Under the default options a redundant edge is a
  /// silent no-op, matching the paper's requirement that only the transitive
  /// reduction is retained.
  Status AddEdge(NodeId parent, NodeId child);

  /// Adds a preference edge `weaker -> stronger` (Appendix): wherever tuples
  /// on `weaker` and `stronger` conflict for some item, `stronger` wins as
  /// if it were reachable from `weaker`. Preference edges must not create a
  /// cycle in the union of subsumption and preference edges.
  Status AddPreferenceEdge(NodeId weaker, NodeId stronger);

  /// Removes a node, reconnecting its neighbours via the paper's node
  /// elimination procedure so subsumption among the remaining nodes is
  /// preserved. The root cannot be eliminated.
  Status EliminateNode(NodeId n);

  // ----- Lookup -------------------------------------------------------------

  Result<NodeId> FindClass(std::string_view name) const;
  Result<NodeId> FindInstance(const Value& value) const;

  /// Resolves a name that may denote a class or a string-valued instance.
  Result<NodeId> FindByName(std::string_view name) const;

  bool alive(NodeId n) const { return dag_.alive(n); }
  NodeKind kind(NodeId n) const { return kinds_[n]; }
  bool is_instance(NodeId n) const { return kinds_[n] == NodeKind::kInstance; }
  bool is_class(NodeId n) const { return kinds_[n] == NodeKind::kClass; }

  /// Display name: class name, or the instance value's rendering.
  std::string NodeName(NodeId n) const;

  /// The class name of a class node (empty for instances).
  const std::string& ClassName(NodeId n) const { return class_names_[n]; }

  /// The payload of an instance node (null Value for classes).
  const Value& InstanceValue(NodeId n) const { return values_[n]; }

  const std::vector<NodeId>& Children(NodeId n) const {
    return dag_.Children(n);
  }
  const std::vector<NodeId>& Parents(NodeId n) const { return dag_.Parents(n); }

  /// Outgoing / incoming preference edges of n.
  const std::vector<NodeId>& PreferenceSuccessors(NodeId n) const {
    return pref_out_[n];
  }
  const std::vector<NodeId>& PreferencePredecessors(NodeId n) const {
    return pref_in_[n];
  }
  size_t num_preference_edges() const { return num_pref_edges_; }

  /// All live nodes / classes / instances.
  std::vector<NodeId> Nodes() const { return dag_.Nodes(); }
  std::vector<NodeId> Classes() const;
  std::vector<NodeId> Instances() const;

  // ----- Subsumption queries -------------------------------------------------

  /// True iff `general` subsumes `specific`: every known member of
  /// `specific` is a member of `general`. Reflexive.
  bool Subsumes(NodeId general, NodeId specific) const {
    return dag_.Reachable(general, specific);
  }

  /// True iff one of the nodes subsumes the other.
  bool Comparable(NodeId a, NodeId b) const {
    return Subsumes(a, b) || Subsumes(b, a);
  }

  /// The more specific of two comparable nodes; kInvalidNode if
  /// incomparable.
  NodeId Meet(NodeId a, NodeId b) const;

  /// Like Subsumes, but additionally honours preference edges: preference
  /// edge u -> v makes v "reachable" from u for binding-order purposes only.
  bool BindsBelow(NodeId general, NodeId specific) const;

  /// The maximal common descendants of a and b: nodes m subsumed by both,
  /// such that no other common descendant subsumes m. When a and b are
  /// comparable this is {Meet(a, b)}. An empty result is the paper's
  /// "optimistic" evidence that a and b are disjoint (Section 3.1).
  std::vector<NodeId> MaximalCommonDescendants(NodeId a, NodeId b) const;

  /// All atomic instances subsumed by n (n itself if n is an instance).
  /// This is the extension of the class in the database's closed world.
  std::vector<NodeId> AtomsUnder(NodeId n) const;

  /// Number of atomic instances subsumed by n without materialising them.
  size_t CountAtomsUnder(NodeId n) const;

  /// Direct access to the underlying DAG (read-only).
  const Dag& dag() const { return dag_; }

  /// Pins the current reachability snapshot of the subsumption DAG: the
  /// immutable, lock-free view that Subsumes (and through it ComputeBinding
  /// and every parallel kernel) queries. The returned pointer stays valid —
  /// and consistent with this hierarchy's current version stamp — even if
  /// the hierarchy mutates afterwards; mutations publish a fresh snapshot
  /// for later queries instead of touching this one.
  std::shared_ptr<const ReachabilitySnapshot> reachability() const {
    return dag_.reachability();
  }

  /// See Dag::SetClosureNodeLimit. A structural mutation: bumps the
  /// version stamp and invalidates the current snapshot.
  void SetClosureNodeLimit(size_t limit) {
    dag_.SetClosureNodeLimit(limit);
    version_ = NextRevision();
  }

 private:
  Result<NodeId> AddNode(NodeKind kind, std::string class_name, Value value,
                         NodeId parent);

  std::string name_;
  HierarchyOptions options_;
  uint64_t version_ = NextRevision();
  Dag dag_;
  NodeId root_ = kInvalidNode;

  std::vector<NodeKind> kinds_;
  std::vector<std::string> class_names_;  // parallel to node ids
  std::vector<Value> values_;             // parallel to node ids

  std::unordered_map<std::string, NodeId> class_index_;
  std::unordered_map<Value, NodeId, ValueHash> instance_index_;

  std::vector<std::vector<NodeId>> pref_out_;
  std::vector<std::vector<NodeId>> pref_in_;
  size_t num_pref_edges_ = 0;

  size_t num_classes_ = 0;
  size_t num_instances_ = 0;
};

}  // namespace hirel

#endif  // HIREL_HIERARCHY_HIERARCHY_H_
