// Differential test of Dag::Reachable against testing::ReachableByBfs, a
// serial downward BFS, on seeded streams of every Dag mutation. After each
// step every pair is compared (a sample on the big graph), so each step's
// index rebuild is checked, not just the final graph's.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/dag.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using testing::ReachableByBfs;

// Compares every ordered pair of ids, dead ones included.
void ExpectAllPairsMatch(const Dag& d, const std::string& where) {
  for (NodeId u = 0; u < d.capacity(); ++u) {
    for (NodeId v = 0; v < d.capacity(); ++v) {
      ASSERT_EQ(d.Reachable(u, v), ReachableByBfs(d, u, v))
          << where << ": u=" << u << " v=" << v;
    }
  }
}

NodeId RandomLiveNode(const Dag& d, Random& rng) {
  std::vector<NodeId> nodes = d.Nodes();
  return nodes[rng.Uniform(nodes.size())];
}

// One random mutation, with its Status checked against the oracle: a cycle
// is refused exactly when the oracle says v already reaches u, and a reduced
// insert is skipped exactly when u already reaches v.
void RandomStep(Dag& d, Random& rng, std::string* what) {
  if (d.num_nodes() < 2) {
    d.AddNode();
    *what = "AddNode";
    return;
  }
  NodeId u = RandomLiveNode(d, rng);
  NodeId v = RandomLiveNode(d, rng);
  switch (rng.Uniform(10)) {
    case 0: {
      *what = "AddNode";
      NodeId n = d.AddNode();
      // Fresh leaf under up to two parents, as CREATE INSTANCE ... UNDER.
      ASSERT_TRUE(d.AddEdge(u, n).ok());
      if (v != u) {
        ASSERT_TRUE(d.AddEdge(v, n).ok());
      }
      return;
    }
    case 1:
    case 2:
    case 3: {
      *what = "AddEdge(" + std::to_string(u) + ", " + std::to_string(v) + ")";
      bool existed = d.HasEdge(u, v);
      bool cycle = u == v || ReachableByBfs(d, v, u);
      Status s = d.AddEdge(u, v);
      if (existed) {
        EXPECT_TRUE(s.IsAlreadyExists()) << *what;
      } else if (cycle) {
        EXPECT_TRUE(s.IsIntegrityViolation()) << *what;
      } else {
        EXPECT_TRUE(s.ok()) << *what;
      }
      return;
    }
    case 4:
    case 5: {
      *what = "AddEdgeReduced(" + std::to_string(u) + ", " +
              std::to_string(v) + ")";
      bool cycle = u == v || ReachableByBfs(d, v, u);
      bool redundant = !cycle && ReachableByBfs(d, u, v);
      bool inserted = false;
      Status s = d.AddEdgeReduced(u, v, &inserted);
      EXPECT_EQ(s.IsIntegrityViolation(), cycle) << *what;
      EXPECT_EQ(inserted, !cycle && !redundant) << *what;
      return;
    }
    case 6:
    case 7: {
      const std::vector<NodeId>& children = d.Children(u);
      if (children.empty()) {
        *what = "no-op";
        return;
      }
      NodeId c = children[rng.Uniform(children.size())];
      *what = "RemoveEdge(" + std::to_string(u) + ", " + std::to_string(c) +
              ")";
      ASSERT_TRUE(d.RemoveEdge(u, c).ok());
      return;
    }
    case 8:
      *what = "RemoveNode(" + std::to_string(u) + ")";
      ASSERT_TRUE(d.RemoveNode(u).ok());
      return;
    default: {
      bool keep = rng.Bernoulli(0.5);
      *what = "EliminateNode(" + std::to_string(u) +
              (keep ? ", keep)" : ")");
      ASSERT_TRUE(d.EliminateNode(u, keep).ok());
      return;
    }
  }
}

class ReachabilityDiffTest : public ::testing::TestWithParam<uint64_t> {};

// Random DAGs of a few dozen nodes under a stream of every mutation.
TEST_P(ReachabilityDiffTest, RandomEditStream) {
  Random rng(GetParam());
  Dag d;
  for (int i = 0; i < 24; ++i) d.AddNode();
  for (int step = 0; step < 150; ++step) {
    std::string what;
    RandomStep(d, rng, &what);
    ExpectAllPairsMatch(d, "step " + std::to_string(step) + " " + what);
    if (::testing::Test::HasFailure()) return;
  }
}

// A chain of diamonds, each joining through its two parents in random
// order, so first parents alternate sides; then edits along it.
TEST_P(ReachabilityDiffTest, DiamondChain) {
  Random rng(GetParam());
  Dag d;
  NodeId top = d.AddNode();
  for (int i = 0; i < 10; ++i) {
    NodeId left = d.AddNode(), right = d.AddNode(), bottom = d.AddNode();
    ASSERT_TRUE(d.AddEdge(top, left).ok());
    ASSERT_TRUE(d.AddEdge(top, right).ok());
    if (rng.Bernoulli(0.5)) std::swap(left, right);
    ASSERT_TRUE(d.AddEdge(left, bottom).ok());
    ASSERT_TRUE(d.AddEdge(right, bottom).ok());
    top = bottom;
  }
  ExpectAllPairsMatch(d, "built");
  for (int step = 0; step < 40; ++step) {
    std::string what;
    RandomStep(d, rng, &what);
    ExpectAllPairsMatch(d, "step " + std::to_string(step) + " " + what);
    if (::testing::Test::HasFailure()) return;
  }
}

// Multi-parent chains: node i has parents i-1 and i-2 (in random order), so
// every join node's non-first parent is itself a join node.
TEST_P(ReachabilityDiffTest, MultiParentChain) {
  Random rng(GetParam());
  Dag d;
  d.AddNode();
  d.AddNode();
  ASSERT_TRUE(d.AddEdge(0, 1).ok());
  for (NodeId i = 2; i < 40; ++i) {
    ASSERT_EQ(d.AddNode(), i);
    NodeId a = i - 1, b = i - 2;
    if (rng.Bernoulli(0.5)) std::swap(a, b);
    ASSERT_TRUE(d.AddEdge(a, i).ok());
    ASSERT_TRUE(d.AddEdge(b, i).ok());
  }
  ExpectAllPairsMatch(d, "built");
  for (int step = 0; step < 40; ++step) {
    std::string what;
    RandomStep(d, rng, &what);
    ExpectAllPairsMatch(d, "step " + std::to_string(step) + " " + what);
    if (::testing::Test::HasFailure()) return;
  }
}

// A grid lattice: (r, c) under (r-1, c) and (r, c-1). Corner to corner
// there are C(16, 8) = 12,870 paths, so the walk reaches most join nodes
// along many of them and must rely on its visited marks.
TEST_P(ReachabilityDiffTest, LatticeWithRepeatedPaths) {
  Random rng(GetParam());
  constexpr NodeId kSide = 9;
  Dag d;
  for (NodeId i = 0; i < kSide * kSide; ++i) d.AddNode();
  for (NodeId r = 0; r < kSide; ++r) {
    for (NodeId c = 0; c < kSide; ++c) {
      std::vector<NodeId> parents;
      if (r > 0) parents.push_back((r - 1) * kSide + c);
      if (c > 0) parents.push_back(r * kSide + c - 1);
      if (parents.size() == 2 && rng.Bernoulli(0.5)) {
        std::swap(parents[0], parents[1]);
      }
      for (NodeId p : parents) ASSERT_TRUE(d.AddEdge(p, r * kSide + c).ok());
    }
  }
  ExpectAllPairsMatch(d, "built");
  for (int step = 0; step < 25; ++step) {
    std::string what;
    RandomStep(d, rng, &what);
    ExpectAllPairsMatch(d, "step " + std::to_string(step) + " " + what);
    if (::testing::Test::HasFailure()) return;
  }
}

// Above 9,000 nodes: a forest of long chains tied together by multi-parent
// joins and random forward edges. Pairs are sampled, half of them with u an
// ancestor found by a random upward walk from v, so both answers occur.
TEST_P(ReachabilityDiffTest, LargeGraphSampled) {
  Random rng(GetParam());
  constexpr NodeId kNodes = 9600;
  constexpr NodeId kChain = 800;
  Dag d;
  for (NodeId i = 0; i < kNodes; ++i) d.AddNode();
  for (NodeId i = 0; i < kNodes; ++i) {
    if (i % kChain != 0) {
      ASSERT_TRUE(d.AddEdge(i - 1, i).ok());
    }
  }
  // Edges only go from lower to higher ids, so none closes a cycle.
  for (int j = 0; j < 60; ++j) {
    NodeId a = static_cast<NodeId>(rng.Uniform(kNodes - 1));
    NodeId b = a + 1 + static_cast<NodeId>(rng.Uniform(kNodes - 1 - a));
    (void)d.AddEdge(a, b);
  }
  auto sample = [&](const std::string& where) {
    for (int q = 0; q < 400; ++q) {
      NodeId v = RandomLiveNode(d, rng);
      NodeId u = RandomLiveNode(d, rng);
      if (q % 2 == 0) {
        u = v;
        for (uint64_t hops = rng.Uniform(3000); hops > 0; --hops) {
          const std::vector<NodeId>& parents = d.Parents(u);
          if (parents.empty()) break;
          u = parents[rng.Uniform(parents.size())];
        }
      }
      ASSERT_EQ(d.Reachable(u, v), ReachableByBfs(d, u, v))
          << where << ": u=" << u << " v=" << v;
    }
  };
  sample("built");
  for (int step = 0; step < 6; ++step) {
    NodeId n = RandomLiveNode(d, rng);
    if (step % 2 == 0) {
      ASSERT_TRUE(d.EliminateNode(n, step % 4 == 0).ok());
    } else if (!d.Parents(n).empty()) {
      ASSERT_TRUE(d.RemoveEdge(d.Parents(n)[0], n).ok());
    }
    sample("step " + std::to_string(step));
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachabilityDiffTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace hirel
