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
  InvalidateIndex();
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
  InvalidateIndex();
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
  InvalidateIndex();
  return Status::OK();
}

Status Dag::RemoveEdge(NodeId u, NodeId v) {
  if (!alive(u) || !alive(v) || !HasEdge(u, v)) {
    return Status::NotFound(StrCat("edge ", u, " -> ", v));
  }
  EraseValue(out_[u], v);
  EraseValue(in_[v], u);
  --num_edges_;
  InvalidateIndex();
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
  InvalidateIndex();
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
      InvalidateIndex();
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
  // fresh node) from ever touching the index.
  if (out_[u].empty() || in_[v].empty()) return false;
  // Lock-free query path: only a stale (or never-built) index pays the
  // mutex-guarded rebuild.
  if (!index_valid_.load(std::memory_order_acquire)) EnsureIndex();
  if (Contains(u, v)) return true;
  if (labels_[v].up == kInvalidNode) return false;

  // A path from u that is not all first-parent edges enters v's first-parent
  // chain through a non-first parent p of some join node y on that chain;
  // then u reaches p, which recurses from p's own chain. `up` jumps straight
  // to the join nodes, and the per-thread epoch marks visit each once.
  thread_local std::vector<uint32_t> marks;
  thread_local uint32_t epoch = 0;
  thread_local std::vector<NodeId> stack;
  if (marks.size() < capacity()) marks.resize(capacity(), 0);
  if (++epoch == 0) {
    std::fill(marks.begin(), marks.end(), 0);
    epoch = 1;
  }
  stack.assign(1, labels_[v].up);
  while (!stack.empty()) {
    NodeId y = stack.back();
    stack.pop_back();
    if (y == kInvalidNode || marks[y] == epoch) continue;
    marks[y] = epoch;
    const std::vector<NodeId>& parents = in_[y];
    for (size_t i = 1; i < parents.size(); ++i) {
      if (Contains(u, parents[i])) return true;
      stack.push_back(labels_[parents[i]].up);
    }
    stack.push_back(labels_[parents[0]].up);
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

void Dag::CopyFrom(const Dag& other) {
  out_ = other.out_;
  in_ = other.in_;
  alive_ = other.alive_;
  num_alive_ = other.num_alive_;
  num_edges_ = other.num_edges_;
  // The index is rebuilt on demand; the mutex is never copied.
  InvalidateIndex();
}

void Dag::EnsureIndex() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (index_valid_.load(std::memory_order_relaxed)) return;
  // Iterative DFS over the first-parent spanning forest: each node is
  // entered from its first parent only. Every live node's first-parent
  // chain ends at a root, so the DFS labels every live node.
  labels_.assign(capacity(), Label{});
  uint32_t clock = 0;
  std::vector<std::pair<NodeId, size_t>> stack;  // (node, next child idx)
  for (NodeId root = 0; root < capacity(); ++root) {
    if (!alive_[root] || !in_[root].empty()) continue;
    labels_[root].enter = clock++;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next < out_[node].size()) {
        NodeId child = out_[node][next++];
        if (in_[child][0] != node) continue;
        labels_[child].enter = clock++;
        labels_[child].up = in_[child].size() > 1 ? child : labels_[node].up;
        stack.emplace_back(child, 0);
      } else {
        labels_[node].exit = clock;
        stack.pop_back();
      }
    }
  }
  // The release store publishes the fully built labels; concurrent queries
  // either see false (and take the mutex) or the complete index.
  index_valid_.store(true, std::memory_order_release);
}

}  // namespace hirel
