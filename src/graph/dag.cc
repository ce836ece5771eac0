#include "graph/dag.h"

#include <algorithm>
#include <cassert>
#include <deque>

#include "common/str_util.h"

namespace hirel {

namespace {

void EraseValue(std::vector<NodeId>& v, NodeId x) {
  v.erase(std::remove(v.begin(), v.end(), x), v.end());
}

}  // namespace

NodeId Dag::AddNode() {
  NodeId id = static_cast<NodeId>(out_.size());
  out_.emplace_back();
  in_.emplace_back();
  alive_.push_back(true);
  ++num_alive_;
  InvalidateClosure();
  return id;
}

Status Dag::AddEdge(NodeId u, NodeId v) {
  if (!alive(u) || !alive(v)) {
    return Status::InvalidArgument(
        StrCat("AddEdge(", u, ", ", v, "): node not alive"));
  }
  if (u == v) {
    return Status::IntegrityViolation(
        StrCat("self-edge on node ", u, " would create a cycle"));
  }
  if (HasEdge(u, v)) {
    return Status::AlreadyExists(StrCat("edge ", u, " -> ", v));
  }
  if (Reachable(v, u)) {
    return Status::IntegrityViolation(
        StrCat("edge ", u, " -> ", v,
               " would create a cycle (type-irredundancy violation)"));
  }
  out_[u].push_back(v);
  in_[v].push_back(u);
  ++num_edges_;
  InvalidateClosure();
  return Status::OK();
}

Status Dag::AddEdgeReduced(NodeId u, NodeId v, bool* inserted) {
  if (inserted != nullptr) *inserted = false;
  if (!alive(u) || !alive(v)) {
    return Status::InvalidArgument(
        StrCat("AddEdgeReduced(", u, ", ", v, "): node not alive"));
  }
  if (u == v) {
    return Status::IntegrityViolation(
        StrCat("self-edge on node ", u, " would create a cycle"));
  }
  if (Reachable(v, u)) {
    return Status::IntegrityViolation(
        StrCat("edge ", u, " -> ", v,
               " would create a cycle (type-irredundancy violation)"));
  }
  if (Reachable(u, v)) {
    // Redundant: the subsumption u => v is already implied. Appendix:
    // "redundant edges are always inefficient to store, and could sometimes
    // lead to incorrect results" under off-path preemption.
    return Status::OK();
  }
  // The new edge may make existing direct edges redundant:
  //  - u -> w where v reaches w, and
  //  - x -> v where x reaches u.
  std::vector<NodeId> drop_children;
  for (NodeId w : out_[u]) {
    if (Reachable(v, w)) drop_children.push_back(w);
  }
  for (NodeId w : drop_children) {
    EraseValue(out_[u], w);
    EraseValue(in_[w], u);
    --num_edges_;
  }
  std::vector<NodeId> drop_parents;
  for (NodeId x : in_[v]) {
    if (Reachable(x, u)) drop_parents.push_back(x);
  }
  for (NodeId x : drop_parents) {
    EraseValue(in_[v], x);
    EraseValue(out_[x], v);
    --num_edges_;
  }
  out_[u].push_back(v);
  in_[v].push_back(u);
  ++num_edges_;
  if (inserted != nullptr) *inserted = true;
  InvalidateClosure();
  return Status::OK();
}

Status Dag::RemoveEdge(NodeId u, NodeId v) {
  if (!alive(u) || !alive(v) || !HasEdge(u, v)) {
    return Status::NotFound(StrCat("edge ", u, " -> ", v));
  }
  EraseValue(out_[u], v);
  EraseValue(in_[v], u);
  --num_edges_;
  InvalidateClosure();
  return Status::OK();
}

Status Dag::RemoveNode(NodeId n) {
  if (!alive(n)) return Status::NotFound(StrCat("node ", n));
  for (NodeId v : out_[n]) {
    EraseValue(in_[v], n);
    --num_edges_;
  }
  for (NodeId u : in_[n]) {
    EraseValue(out_[u], n);
    --num_edges_;
  }
  out_[n].clear();
  in_[n].clear();
  alive_[n] = false;
  --num_alive_;
  InvalidateClosure();
  return Status::OK();
}

Status Dag::EliminateNode(NodeId n, bool keep_redundant_edges) {
  if (!alive(n)) return Status::NotFound(StrCat("node ", n));

  std::vector<NodeId> preds = in_[n];
  std::vector<NodeId> succs = out_[n];
  HIREL_RETURN_IF_ERROR(RemoveNode(n));

  // Order predecessors in reverse topological order and successors in
  // topological order, exactly as Section 2.1 prescribes: this ordering plus
  // the path check guarantees that no redundant edge is introduced, which is
  // what preserves off-path preemption semantics.
  std::vector<NodeId> topo = TopologicalOrder();
  std::vector<size_t> pos(capacity(), 0);
  for (size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  std::sort(preds.begin(), preds.end(),
            [&](NodeId a, NodeId b) { return pos[a] > pos[b]; });
  std::sort(succs.begin(), succs.end(),
            [&](NodeId a, NodeId b) { return pos[a] < pos[b]; });

  for (NodeId j : preds) {
    for (NodeId k : succs) {
      if (!keep_redundant_edges && Reachable(j, k)) continue;
      if (HasEdge(j, k)) continue;
      out_[j].push_back(k);
      in_[k].push_back(j);
      ++num_edges_;
      InvalidateClosure();
    }
  }
  return Status::OK();
}

bool Dag::HasEdge(NodeId u, NodeId v) const {
  if (!alive(u) || !alive(v)) return false;
  const auto& children = out_[u];
  return std::find(children.begin(), children.end(), v) != children.end();
}

bool Dag::Reachable(NodeId u, NodeId v) const {
  if (!alive(u) || !alive(v)) return false;
  if (u == v) return true;
  // Trivial cases first: they keep bulk construction (edge to or from a
  // fresh node) from ever touching the snapshot.
  if (out_[u].empty() || in_[v].empty()) return false;
  // Lock-free query path: load the published snapshot; only a stale (or
  // never-built) snapshot pays the mutex-guarded rebuild.
  const ReachabilitySnapshot* snap =
      snapshot_ptr_.load(std::memory_order_acquire);
  if (snap == nullptr) snap = EnsureSnapshot();
  switch (snap->Query(u, v)) {
    case ReachabilitySnapshot::Answer::kYes:
      return true;
    case ReachabilitySnapshot::Answer::kNo:
      return false;
    case ReachabilitySnapshot::Answer::kUnknown:
      break;
  }
  return ReachableBfs(u, v);
}

bool Dag::ReachableBfs(NodeId u, NodeId v) const {
  std::vector<bool> seen(capacity(), false);
  std::deque<NodeId> queue{u};
  seen[u] = true;
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    for (NodeId next : out_[cur]) {
      if (next == v) return true;
      if (!seen[next]) {
        seen[next] = true;
        queue.push_back(next);
      }
    }
  }
  return false;
}

std::vector<NodeId> Dag::Nodes() const {
  std::vector<NodeId> nodes;
  nodes.reserve(num_alive_);
  for (NodeId n = 0; n < capacity(); ++n) {
    if (alive_[n]) nodes.push_back(n);
  }
  return nodes;
}

std::vector<NodeId> Dag::TopologicalOrder() const {
  std::vector<size_t> indegree(capacity(), 0);
  std::deque<NodeId> ready;
  for (NodeId n = 0; n < capacity(); ++n) {
    if (!alive_[n]) continue;
    indegree[n] = in_[n].size();
    if (indegree[n] == 0) ready.push_back(n);
  }
  std::vector<NodeId> order;
  order.reserve(num_alive_);
  while (!ready.empty()) {
    NodeId n = ready.front();
    ready.pop_front();
    order.push_back(n);
    for (NodeId v : out_[n]) {
      if (--indegree[v] == 0) ready.push_back(v);
    }
  }
  assert(order.size() == num_alive_ && "graph contains a cycle");
  return order;
}

std::vector<NodeId> Dag::Descendants(NodeId n) const {
  std::vector<NodeId> out;
  if (!alive(n)) return out;
  std::vector<bool> seen(capacity(), false);
  std::deque<NodeId> queue{n};
  seen[n] = true;
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    out.push_back(cur);
    for (NodeId next : out_[cur]) {
      if (!seen[next]) {
        seen[next] = true;
        queue.push_back(next);
      }
    }
  }
  return out;
}

std::vector<NodeId> Dag::Ancestors(NodeId n) const {
  std::vector<NodeId> out;
  if (!alive(n)) return out;
  std::vector<bool> seen(capacity(), false);
  std::deque<NodeId> queue{n};
  seen[n] = true;
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    out.push_back(cur);
    for (NodeId next : in_[cur]) {
      if (!seen[next]) {
        seen[next] = true;
        queue.push_back(next);
      }
    }
  }
  return out;
}

std::vector<NodeId> Dag::Overlapping(NodeId n) const {
  std::vector<NodeId> out;
  if (!alive(n)) return out;
  // Upward BFS seeded with every descendant of n.
  std::vector<bool> seen(capacity(), false);
  std::deque<NodeId> queue;
  for (NodeId d : Descendants(n)) {
    seen[d] = true;
    queue.push_back(d);
  }
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    out.push_back(cur);
    for (NodeId next : in_[cur]) {
      if (!seen[next]) {
        seen[next] = true;
        queue.push_back(next);
      }
    }
  }
  return out;
}

std::vector<NodeId> Dag::Roots() const {
  std::vector<NodeId> roots;
  for (NodeId n = 0; n < capacity(); ++n) {
    if (alive_[n] && in_[n].empty()) roots.push_back(n);
  }
  return roots;
}

std::vector<NodeId> Dag::Leaves() const {
  std::vector<NodeId> leaves;
  for (NodeId n = 0; n < capacity(); ++n) {
    if (alive_[n] && out_[n].empty()) leaves.push_back(n);
  }
  return leaves;
}

bool Dag::HasRedundantEdge() const {
  for (NodeId u = 0; u < capacity(); ++u) {
    if (!alive_[u]) continue;
    for (NodeId v : out_[u]) {
      // Is v reachable from u through some other child?
      for (NodeId w : out_[u]) {
        if (w != v && Reachable(w, v)) return true;
      }
    }
  }
  return false;
}

const DynamicBitset& Dag::ClosureRow(NodeId n) const {
  assert(alive(n));
  const ReachabilitySnapshot* snap =
      snapshot_ptr_.load(std::memory_order_acquire);
  if (snap == nullptr) snap = EnsureSnapshot();
  assert(snap->closure_backed() &&
         "ClosureRow requires capacity() <= closure_node_limit()");
  return snap->ClosureRow(n);
}

std::shared_ptr<const ReachabilitySnapshot> Dag::reachability() const {
  EnsureSnapshot();
  // Safe to copy without the mutex: under the single-writer contract no
  // rebuild replaces snapshot_ concurrently with queries, and EnsureSnapshot
  // ordered the store of snapshot_ before our read.
  return snapshot_;
}

void Dag::SetClosureNodeLimit(size_t limit) {
  closure_node_limit_ = limit;
  InvalidateClosure();
}

void Dag::CopyFrom(const Dag& other) {
  out_ = other.out_;
  in_ = other.in_;
  alive_ = other.alive_;
  num_alive_ = other.num_alive_;
  num_edges_ = other.num_edges_;
  closure_node_limit_ = other.closure_node_limit_;
  // Snapshots are rebuilt on demand; the mutex is never copied.
  snapshot_ptr_.store(nullptr, std::memory_order_release);
  snapshot_.reset();
}

const ReachabilitySnapshot* Dag::EnsureSnapshot() const {
  const ReachabilitySnapshot* snap =
      snapshot_ptr_.load(std::memory_order_acquire);
  if (snap != nullptr) return snap;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  snap = snapshot_ptr_.load(std::memory_order_relaxed);
  if (snap != nullptr) return snap;
  snapshot_ = BuildSnapshot();
  // The release store publishes the fully built snapshot; concurrent
  // queries either see null (and take the mutex) or the complete object.
  snapshot_ptr_.store(snapshot_.get(), std::memory_order_release);
  return snapshot_.get();
}

std::shared_ptr<const ReachabilitySnapshot> Dag::BuildSnapshot() const {
  auto snap = std::make_shared<ReachabilitySnapshot>();
  const size_t cap = capacity();
  if (cap <= closure_node_limit_) {
    snap->closure_backed_ = true;
    snap->closure_.assign(cap, DynamicBitset(cap));
    // Process in reverse topological order so each node's row can absorb
    // the already-complete rows of its children.
    std::vector<NodeId> topo = TopologicalOrder();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      NodeId n = *it;
      snap->closure_[n].Set(n);
      for (NodeId c : out_[n]) snap->closure_[n].UnionWith(snap->closure_[c]);
    }
    return snap;
  }
  // Large graph: spanning-forest interval index. A DFS over each node's
  // first-parent spanning tree assigns [enter, exit) ranges such that
  // containment implies reachability (sound fast path; the BFS remains the
  // complete slow path). single_parent_ is true when the graph IS its
  // spanning forest (every node has <= 1 parent), making the fast path
  // complete.
  snap->enter_.assign(cap, 0);
  snap->exit_.assign(cap, 0);
  snap->single_parent_ = true;
  for (NodeId n = 0; n < cap; ++n) {
    if (alive_[n] && in_[n].size() > 1) {
      snap->single_parent_ = false;
      break;
    }
  }
  // Iterative DFS over the first-parent spanning forest: each node is
  // visited from its first recorded parent only.
  auto first_child_of = [&](NodeId parent, NodeId child) {
    return !in_[child].empty() && in_[child][0] == parent;
  };
  uint32_t clock = 0;
  std::vector<std::pair<NodeId, size_t>> stack;  // (node, next child idx)
  for (NodeId root = 0; root < cap; ++root) {
    if (!alive_[root] || !in_[root].empty()) continue;
    stack.emplace_back(root, 0);
    snap->enter_[root] = clock++;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next < out_[node].size()) {
        NodeId child = out_[node][next++];
        if (first_child_of(node, child)) {
          snap->enter_[child] = clock++;
          stack.emplace_back(child, 0);
        }
      } else {
        snap->exit_[node] = clock;
        stack.pop_back();
      }
    }
  }
  // Nodes reached only through non-first parents keep [0, 0): the fast
  // path never claims them, and single-parent graphs have none.
  return snap;
}

}  // namespace hirel
