#include "core/subsumption.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "obs/query_stats.h"

namespace hirel {

namespace {

/// One list of tuple indexes per tuple, in compressed-row form: list i is
/// items[begin[i], begin[i + 1]).
struct Lists {
  std::vector<size_t> begin;
  std::vector<uint32_t> items;

  std::span<const uint32_t> operator[](size_t i) const {
    return {items.data() + begin[i], begin[i + 1] - begin[i]};
  }
  uint64_t bytes() const {
    return begin.size() * sizeof(size_t) + items.size() * sizeof(uint32_t);
  }
};

/// Runs `fill(i, out)`, which appends list i to `out`, for every i in
/// [0, n) across the pool, and returns the lists in index order. The range
/// splits into contiguous parts, each with its own output buffer; every
/// pool chunk gets its own `fill` from `make_fill()`, so scratch state is
/// never shared. The buffers concatenate in part order, so the result does
/// not depend on the thread count.
template <typename MakeFill>
Lists ParallelLists(size_t n, size_t threads, const MakeFill& make_fill) {
  const size_t parts = std::min(n, 4 * ThreadPool::EffectiveThreads(threads));
  std::vector<std::vector<uint32_t>> part_items(parts);
  Lists lists;
  lists.begin.assign(n + 1, 0);
  ParallelOptions par;
  par.threads = threads;
  ParallelFor(parts, par,
              [&](size_t /*chunk*/, size_t lo, size_t hi) -> Status {
                auto fill = make_fill();
                for (size_t k = lo; k < hi; ++k) {
                  std::vector<uint32_t>& out = part_items[k];
                  for (size_t i = k * n / parts; i < (k + 1) * n / parts;
                       ++i) {
                    const size_t before = out.size();
                    fill(i, out);
                    lists.begin[i + 1] = out.size() - before;
                  }
                }
                return Status::OK();
              });
  for (size_t i = 0; i < n; ++i) lists.begin[i + 1] += lists.begin[i];
  lists.items.reserve(lists.begin[n]);
  for (std::vector<uint32_t>& part : part_items) {
    lists.items.insert(lists.items.end(), part.begin(), part.end());
    std::vector<uint32_t>().swap(part);
  }
  return lists;
}

/// Final assembly: given the live tuple ids in ascending order and each
/// one's Hasse predecessors (indexes into `ids`), produces the canonical
/// SubsumptionGraph. Adjacency lists are sorted ascending and Kahn's sort
/// runs FIFO with ready nodes seeded in index order, so the output is a
/// pure function of (ids, edge set) — the same at any thread count and in
/// whatever order the covers were found.
SubsumptionGraph EmitGraph(const std::vector<TupleId>& ids, Lists pred) {
  const size_t n = ids.size();
  for (size_t i = 0; i < n; ++i) {
    std::sort(pred.items.begin() + pred.begin[i],
              pred.items.begin() + pred.begin[i + 1]);
  }
  // Successor lists, filled in ascending successor order.
  Lists succ;
  succ.begin.assign(n + 1, 0);
  for (uint32_t p : pred.items) ++succ.begin[p + 1];
  for (size_t i = 0; i < n; ++i) succ.begin[i + 1] += succ.begin[i];
  succ.items.resize(pred.items.size());
  std::vector<size_t> cursor(succ.begin.begin(), succ.begin.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t p : pred[i]) {
      succ.items[cursor[p]++] = static_cast<uint32_t>(i);
    }
  }

  // Kahn topological sort (general first); `order` doubles as the queue.
  std::vector<size_t> indegree(n);
  std::vector<size_t> order;  // positions in `ids`
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    indegree[i] = pred[i].size();
    if (indegree[i] == 0) order.push_back(i);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    for (uint32_t v : succ[order[head]]) {
      if (--indegree[v] == 0) order.push_back(v);
    }
  }

  // Remap into topological positions.
  std::vector<size_t> position(n);
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;

  SubsumptionGraph graph;
  graph.nodes.resize(n);
  graph.successors.resize(n);
  graph.predecessors.resize(n);
  for (size_t i = 0; i < n; ++i) {
    size_t old = order[i];
    graph.nodes[i] = ids[old];
    for (uint32_t s : succ[old]) graph.successors[i].push_back(position[s]);
    for (uint32_t p : pred[old]) graph.predecessors[i].push_back(position[p]);
    std::sort(graph.successors[i].begin(), graph.successors[i].end());
    std::sort(graph.predecessors[i].begin(), graph.predecessors[i].end());
    if (graph.predecessors[i].empty()) {
      graph.predecessors[i].push_back(SubsumptionGraph::kUniversalNode);
      graph.sources.push_back(i);
    }
  }
  return graph;
}

}  // namespace

SubsumptionGraph BuildSubsumptionGraph(const HierarchicalRelation& relation,
                                       size_t threads) {
  const Schema& schema = relation.schema();
  const std::vector<TupleId> ids = relation.TupleIds();
  const size_t n = ids.size();
  if (schema.size() == 0) {
    // Every tuple has the empty item: at most one tuple, no edges.
    return EmitGraph(ids, Lists{std::vector<size_t>(n + 1, 0), {}});
  }
  obs::ScopedAllocTracking tracked(n * sizeof(const Item*));
  std::vector<const Item*> items(n);
  for (size_t i = 0; i < n; ++i) items[i] = &relation.ItemAt(ids[i]);

  // Tuples bucketed by first component.
  const Hierarchy& first = *schema.hierarchy(0);
  const size_t num_nodes = first.dag().capacity();
  Lists by_first;
  by_first.begin.assign(num_nodes + 1, 0);
  for (const Item* item : items) ++by_first.begin[(*item)[0] + 1];
  for (size_t v = 0; v < num_nodes; ++v) {
    by_first.begin[v + 1] += by_first.begin[v];
  }
  by_first.items.resize(n);
  std::vector<size_t> cursor(by_first.begin.begin(),
                             by_first.begin.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    by_first.items[cursor[(*items[i])[0]]++] = static_cast<uint32_t>(i);
  }
  tracked.Grow(by_first.bytes() + num_nodes * sizeof(size_t));
  std::vector<size_t>().swap(cursor);

  // Per-chunk scratch of the two phases below, at most one per thread.
  const size_t workers = ThreadPool::EffectiveThreads(threads);
  tracked.Grow(workers * (num_nodes + n) * sizeof(uint32_t));

  // Above-sets: for each tuple, the tuples binding strictly above it. The
  // candidates sit on binding ancestors of its first component, found by
  // walking parents and preference predecessors upward (ItemBindsBelow
  // honours preference edges); each is verified on every component.
  Lists above = ParallelLists(n, threads, [&] {
    return [&, mark = std::vector<uint32_t>(num_nodes, 0), epoch = uint32_t{0},
            stack = std::vector<NodeId>()](
               size_t t, std::vector<uint32_t>& out) mutable {
      ++epoch;
      const NodeId start = (*items[t])[0];
      mark[start] = epoch;
      stack.assign(1, start);
      while (!stack.empty()) {
        const NodeId u = stack.back();
        stack.pop_back();
        for (uint32_t c : by_first[u]) {
          if (c != t && ItemBindsBelow(schema, *items[c], *items[t])) {
            out.push_back(c);
          }
        }
        for (const auto* up : {&first.Parents(u),
                               &first.PreferencePredecessors(u)}) {
          for (NodeId v : *up) {
            if (mark[v] != epoch) {
              mark[v] = epoch;
              stack.push_back(v);
            }
          }
        }
      }
    };
  });
  tracked.Grow(above.bytes());

  // Covers: the members of a tuple's above-set with nothing strictly
  // between. If c lies below a, above(c) contains above(a) and a itself,
  // so visiting members by descending above-set size meets every cover
  // before the members above it: a member not yet marked is a cover, and
  // marking its own above-set rules out everything above it.
  Lists covers = ParallelLists(n, threads, [&] {
    return [&, mark = std::vector<uint32_t>(n, 0), epoch = uint32_t{0},
            members = std::vector<uint32_t>()](
               size_t t, std::vector<uint32_t>& out) mutable {
      ++epoch;
      members.assign(above[t].begin(), above[t].end());
      std::sort(members.begin(), members.end(), [&](uint32_t a, uint32_t b) {
        return above[a].size() > above[b].size();
      });
      for (uint32_t c : members) {
        if (mark[c] == epoch) continue;
        out.push_back(c);
        for (uint32_t a : above[c]) mark[a] = epoch;
      }
    };
  });
  // EmitGraph's working copies: successor lists and three index arrays.
  tracked.Grow(2 * covers.bytes() + 3 * n * sizeof(size_t));
  return EmitGraph(ids, std::move(covers));
}

std::string SubsumptionGraphToString(const HierarchicalRelation& relation,
                                     const SubsumptionGraph& graph) {
  const Schema& schema = relation.schema();
  std::string out = StrCat("subsumption graph of '", relation.name(), "':\n");
  out += "  [universal negated tuple]\n";
  for (size_t i = 0; i < graph.nodes.size(); ++i) {
    const HTuple& t = relation.tuple(graph.nodes[i]);
    out += StrCat("  ", TruthToString(t.truth), " ",
                  ItemToString(schema, t.item), "  <- ");
    std::vector<std::string> preds;
    for (size_t p : graph.predecessors[i]) {
      if (p == SubsumptionGraph::kUniversalNode) {
        preds.push_back("[universal]");
      } else {
        const HTuple& pt = relation.tuple(graph.nodes[p]);
        preds.push_back(StrCat(TruthToString(pt.truth), " ",
                               ItemToString(schema, pt.item)));
      }
    }
    out += Join(preds, ", ");
    out += "\n";
  }
  return out;
}

}  // namespace hirel
