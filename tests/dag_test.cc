#include "graph/dag.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"

namespace hirel {
namespace {

// Builds a small diamond: 0 -> {1, 2} -> 3.
Dag Diamond() {
  Dag d;
  NodeId a = d.AddNode(), b = d.AddNode(), c = d.AddNode(), e = d.AddNode();
  EXPECT_TRUE(d.AddEdge(a, b).ok());
  EXPECT_TRUE(d.AddEdge(a, c).ok());
  EXPECT_TRUE(d.AddEdge(b, e).ok());
  EXPECT_TRUE(d.AddEdge(c, e).ok());
  return d;
}

TEST(DagTest, AddNodesAndEdges) {
  Dag d = Diamond();
  EXPECT_EQ(d.num_nodes(), 4u);
  EXPECT_EQ(d.num_edges(), 4u);
  EXPECT_TRUE(d.HasEdge(0, 1));
  EXPECT_FALSE(d.HasEdge(1, 0));
}

TEST(DagTest, RejectsDuplicateEdge) {
  Dag d = Diamond();
  EXPECT_TRUE(d.AddEdge(0, 1).IsAlreadyExists());
}

TEST(DagTest, RejectsCycles) {
  Dag d = Diamond();
  EXPECT_TRUE(d.AddEdge(3, 0).IsIntegrityViolation());
  EXPECT_TRUE(d.AddEdge(1, 1).IsIntegrityViolation());
  // Graph unchanged.
  EXPECT_EQ(d.num_edges(), 4u);
}

TEST(DagTest, RejectsEdgeOnDeadNode) {
  Dag d = Diamond();
  ASSERT_TRUE(d.RemoveNode(3).ok());
  EXPECT_TRUE(d.AddEdge(1, 3).IsInvalidArgument());
}

TEST(DagTest, Reachability) {
  Dag d = Diamond();
  EXPECT_TRUE(d.Reachable(0, 3));
  EXPECT_TRUE(d.Reachable(0, 0));
  EXPECT_TRUE(d.Reachable(1, 3));
  EXPECT_FALSE(d.Reachable(3, 0));
  EXPECT_FALSE(d.Reachable(1, 2));
  // Node 3's first parent is 1, so its spanning-forest range lies inside
  // 1's only: 2 reaches it through the non-first parent edge 2 -> 3.
  EXPECT_TRUE(d.Reachable(2, 3));
  // All 16 answers.
  const bool expected[4][4] = {{true, true, true, true},
                               {false, true, false, true},
                               {false, false, true, true},
                               {false, false, false, true}};
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_EQ(d.Reachable(u, v), expected[u][v]) << "u=" << u << " v=" << v;
    }
  }
}

TEST(DagTest, TopologicalOrderRespectsEdges) {
  Dag d = Diamond();
  std::vector<NodeId> order = d.TopologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  std::vector<size_t> pos(4);
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(DagTest, DescendantsAndAncestors) {
  Dag d = Diamond();
  std::vector<NodeId> desc = d.Descendants(0);
  std::sort(desc.begin(), desc.end());
  EXPECT_EQ(desc, (std::vector<NodeId>{0, 1, 2, 3}));
  std::vector<NodeId> anc = d.Ancestors(3);
  std::sort(anc.begin(), anc.end());
  EXPECT_EQ(anc, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(d.Descendants(1), (std::vector<NodeId>{1, 3}));
}

TEST(DagTest, RootsAndLeaves) {
  Dag d = Diamond();
  EXPECT_EQ(d.Roots(), (std::vector<NodeId>{0}));
  EXPECT_EQ(d.Leaves(), (std::vector<NodeId>{3}));
}

TEST(DagTest, RemoveEdge) {
  Dag d = Diamond();
  EXPECT_TRUE(d.RemoveEdge(1, 3).ok());
  EXPECT_FALSE(d.HasEdge(1, 3));
  EXPECT_TRUE(d.Reachable(0, 3));  // still via 2
  EXPECT_TRUE(d.RemoveEdge(1, 3).IsNotFound());
}

TEST(DagTest, RemoveNodeDetaches) {
  Dag d = Diamond();
  EXPECT_TRUE(d.RemoveNode(2).ok());
  EXPECT_FALSE(d.alive(2));
  EXPECT_EQ(d.num_nodes(), 3u);
  EXPECT_EQ(d.num_edges(), 2u);
  EXPECT_TRUE(d.Reachable(0, 3));  // via 1
}

TEST(DagTest, AddEdgeReducedSkipsRedundant) {
  Dag d;
  NodeId a = d.AddNode(), b = d.AddNode(), c = d.AddNode();
  ASSERT_TRUE(d.AddEdgeReduced(a, b).ok());
  ASSERT_TRUE(d.AddEdgeReduced(b, c).ok());
  bool inserted = true;
  ASSERT_TRUE(d.AddEdgeReduced(a, c, &inserted).ok());
  EXPECT_FALSE(inserted);
  EXPECT_FALSE(d.HasEdge(a, c));
  EXPECT_FALSE(d.HasRedundantEdge());
}

TEST(DagTest, AddEdgeReducedDropsNewlyRedundantEdges) {
  Dag d;
  NodeId a = d.AddNode(), b = d.AddNode(), c = d.AddNode();
  // a -> c directly, then inserting a -> b with b -> c makes a -> c
  // redundant.
  ASSERT_TRUE(d.AddEdgeReduced(a, c).ok());
  ASSERT_TRUE(d.AddEdgeReduced(b, c).ok());
  bool inserted = false;
  ASSERT_TRUE(d.AddEdgeReduced(a, b, &inserted).ok());
  EXPECT_TRUE(inserted);
  EXPECT_FALSE(d.HasEdge(a, c));
  EXPECT_TRUE(d.Reachable(a, c));
  EXPECT_FALSE(d.HasRedundantEdge());
}

TEST(DagTest, AddEdgeReducedStillRejectsCycles) {
  Dag d;
  NodeId a = d.AddNode(), b = d.AddNode();
  ASSERT_TRUE(d.AddEdgeReduced(a, b).ok());
  EXPECT_TRUE(d.AddEdgeReduced(b, a).IsIntegrityViolation());
}

// The paper's node elimination: eliminating a node preserves reachability
// among the remaining nodes without introducing redundant edges.
TEST(DagTest, EliminateNodePreservesReachability) {
  Dag d;
  // chain a -> x -> b plus a -> c.
  NodeId a = d.AddNode(), x = d.AddNode(), b = d.AddNode(), c = d.AddNode();
  ASSERT_TRUE(d.AddEdge(a, x).ok());
  ASSERT_TRUE(d.AddEdge(x, b).ok());
  ASSERT_TRUE(d.AddEdge(a, c).ok());
  ASSERT_TRUE(d.EliminateNode(x).ok());
  EXPECT_TRUE(d.Reachable(a, b));
  EXPECT_TRUE(d.HasEdge(a, b));
  EXPECT_FALSE(d.HasRedundantEdge());
}

TEST(DagTest, EliminateNodeAvoidsRedundantEdges) {
  Dag d;
  // a -> x -> b and a -> b already: eliminating x must not duplicate a->b.
  NodeId a = d.AddNode(), x = d.AddNode(), b = d.AddNode();
  ASSERT_TRUE(d.AddEdge(a, x).ok());
  ASSERT_TRUE(d.AddEdge(x, b).ok());
  ASSERT_TRUE(d.AddEdge(a, b).ok());
  ASSERT_TRUE(d.EliminateNode(x).ok());
  EXPECT_EQ(d.num_edges(), 1u);
  EXPECT_TRUE(d.HasEdge(a, b));
}

TEST(DagTest, EliminateNodeKeepRedundantMode) {
  Dag d;
  // Fig. 1 Patricia discussion: keeping redundant edges is what on-path
  // preemption requires. a -> x -> b, a -> m -> b; eliminate x keeping
  // redundancy: edge a -> b appears even though a path exists via m.
  NodeId a = d.AddNode(), x = d.AddNode(), m = d.AddNode(), b = d.AddNode();
  ASSERT_TRUE(d.AddEdge(a, x).ok());
  ASSERT_TRUE(d.AddEdge(x, b).ok());
  ASSERT_TRUE(d.AddEdge(a, m).ok());
  ASSERT_TRUE(d.AddEdge(m, b).ok());
  ASSERT_TRUE(d.EliminateNode(x, /*keep_redundant_edges=*/true).ok());
  EXPECT_TRUE(d.HasEdge(a, b));
  EXPECT_TRUE(d.HasRedundantEdge());
}

// Property: on random DAGs, elimination preserves the reachability relation
// restricted to surviving nodes, and (in reduced mode) keeps the graph
// redundancy-free.
class DagEliminationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DagEliminationProperty, PreservesRestrictedReachability) {
  Random rng(GetParam());
  Dag d;
  constexpr size_t kNodes = 12;
  for (size_t i = 0; i < kNodes; ++i) d.AddNode();
  for (size_t u = 0; u < kNodes; ++u) {
    for (size_t v = u + 1; v < kNodes; ++v) {
      if (rng.Bernoulli(0.25)) {
        (void)d.AddEdgeReduced(static_cast<NodeId>(u),
                               static_cast<NodeId>(v));
      }
    }
  }
  // Record reachability.
  bool before[kNodes][kNodes];
  for (size_t u = 0; u < kNodes; ++u) {
    for (size_t v = 0; v < kNodes; ++v) {
      before[u][v] = d.Reachable(static_cast<NodeId>(u),
                                 static_cast<NodeId>(v));
    }
  }
  NodeId victim = static_cast<NodeId>(rng.Uniform(kNodes));
  ASSERT_TRUE(d.EliminateNode(victim).ok());
  for (size_t u = 0; u < kNodes; ++u) {
    if (u == victim) continue;
    for (size_t v = 0; v < kNodes; ++v) {
      if (v == victim) continue;
      EXPECT_EQ(d.Reachable(static_cast<NodeId>(u), static_cast<NodeId>(v)),
                before[u][v])
          << "reachability " << u << " -> " << v << " changed";
    }
  }
  EXPECT_FALSE(d.HasRedundantEdge());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagEliminationProperty,
                         ::testing::Range<uint64_t>(0, 25));

// Graphs of 9,000 nodes: a chain answers every query from the
// spanning-forest ranges alone; a join of two chains needs the walk over
// non-first parents.
TEST(DagTest, LargeChainUsesIntervalFastPath) {
  Dag d;
  constexpr size_t kNodes = 9000;
  for (size_t i = 0; i < kNodes; ++i) d.AddNode();
  for (size_t i = 0; i + 1 < kNodes; ++i) {
    ASSERT_TRUE(
        d.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1)).ok());
  }
  EXPECT_TRUE(d.Reachable(0, kNodes - 1));
  EXPECT_TRUE(d.Reachable(100, 8000));
  EXPECT_FALSE(d.Reachable(8000, 100));
  EXPECT_FALSE(d.Reachable(kNodes - 1, 0));
}

TEST(DagTest, LargeGraphMultiParentFallbackIsCorrect) {
  Dag d;
  constexpr size_t kNodes = 9000;
  for (size_t i = 0; i < kNodes; ++i) d.AddNode();
  // Two long chains from two roots...
  for (size_t i = 0; i + 1 < 4000; ++i) {
    ASSERT_TRUE(
        d.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1)).ok());
  }
  for (size_t i = 4000; i + 1 < 8000; ++i) {
    ASSERT_TRUE(
        d.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1)).ok());
  }
  // ...meeting at a shared multi-parent node.
  NodeId join = 8500;
  ASSERT_TRUE(d.AddEdge(3999, join).ok());
  ASSERT_TRUE(d.AddEdge(7999, join).ok());
  EXPECT_TRUE(d.Reachable(0, join));     // via first-parent tree
  EXPECT_TRUE(d.Reachable(4000, join));  // via the non-first parent 7999
  EXPECT_TRUE(d.Reachable(7000, join));
  EXPECT_FALSE(d.Reachable(join, 0));
  EXPECT_FALSE(d.Reachable(8600, join));  // isolated node
  // Mutation invalidates the index.
  ASSERT_TRUE(d.RemoveEdge(3999, join).ok());
  EXPECT_FALSE(d.Reachable(0, join));
  EXPECT_TRUE(d.Reachable(4000, join));
}

// The index built for one version must not answer for the next.
TEST(DagTest, ClosureInvalidatedByMutation) {
  Dag d = Diamond();
  EXPECT_TRUE(d.Reachable(0, 3));
  EXPECT_TRUE(d.Reachable(2, 3));
  ASSERT_TRUE(d.RemoveEdge(1, 3).ok());
  // 2 is now node 3's first (and only) parent.
  EXPECT_FALSE(d.Reachable(1, 3));
  EXPECT_TRUE(d.Reachable(0, 3));
  ASSERT_TRUE(d.RemoveEdge(2, 3).ok());
  EXPECT_FALSE(d.Reachable(0, 3));
}

}  // namespace
}  // namespace hirel
