#include "core/subsumption.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "hql/executor.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using testing::FlyingFixture;
using testing::PairwiseSubsumptionGraph;
using testing::RespectsFixture;

/// Builds `relation`'s graph at 1 and 4 threads and checks both are
/// byte-identical to the pairwise oracle.
void ExpectMatchesOracle(const HierarchicalRelation& relation,
                         const std::string& context) {
  const SubsumptionGraph want = PairwiseSubsumptionGraph(relation);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const SubsumptionGraph got = BuildSubsumptionGraph(relation, threads);
    EXPECT_EQ(got.nodes, want.nodes) << context << " threads " << threads;
    EXPECT_EQ(got.successors, want.successors)
        << context << " threads " << threads;
    EXPECT_EQ(got.predecessors, want.predecessors)
        << context << " threads " << threads;
    EXPECT_EQ(got.sources, want.sources) << context << " threads " << threads;
  }
}

TEST(SubsumptionTest, NodesInTopologicalOrder) {
  FlyingFixture f;
  SubsumptionGraph g = BuildSubsumptionGraph(*f.flies);
  ASSERT_EQ(g.nodes.size(), 4u);
  // bird+ must precede penguin-, which precedes afp+, which precedes
  // peter+.
  std::vector<Item> order;
  for (TupleId id : g.nodes) order.push_back(f.flies->tuple(id).item);
  EXPECT_EQ(order[0], (Item{f.bird}));
  EXPECT_EQ(order[1], (Item{f.penguin}));
  EXPECT_EQ(order[2], (Item{f.afp}));
  EXPECT_EQ(order[3], (Item{f.peter}));
}

TEST(SubsumptionTest, HasseEdgesOnly) {
  FlyingFixture f;
  SubsumptionGraph g = BuildSubsumptionGraph(*f.flies);
  // Chain: 0 -> 1 -> 2 -> 3, no transitive shortcuts.
  EXPECT_EQ(g.successors[0], (std::vector<size_t>{1}));
  EXPECT_EQ(g.successors[1], (std::vector<size_t>{2}));
  EXPECT_EQ(g.successors[2], (std::vector<size_t>{3}));
  EXPECT_TRUE(g.successors[3].empty());
}

TEST(SubsumptionTest, UniversalNodeCapsSources) {
  FlyingFixture f;
  SubsumptionGraph g = BuildSubsumptionGraph(*f.flies);
  ASSERT_EQ(g.sources.size(), 1u);
  EXPECT_EQ(g.sources[0], 0u);
  EXPECT_EQ(g.predecessors[0],
            (std::vector<size_t>{SubsumptionGraph::kUniversalNode}));
  EXPECT_EQ(g.predecessors[1], (std::vector<size_t>{0}));
}

TEST(SubsumptionTest, Fig6aRespectsGraph) {
  RespectsFixture f;
  SubsumptionGraph g = BuildSubsumptionGraph(*f.respects);
  ASSERT_EQ(g.nodes.size(), 3u);
  // Two incomparable sources: (obsequious, teacher)+ and (student,
  // incoherent)-; both cover (obsequious, incoherent)+.
  EXPECT_EQ(g.sources.size(), 2u);
  // The resolver tuple is last in topological order, with both sources as
  // immediate predecessors.
  Item resolver{f.obsequious, f.incoherent};
  EXPECT_EQ(f.respects->tuple(g.nodes[2]).item, resolver);
  EXPECT_EQ(g.predecessors[2].size(), 2u);
}

TEST(SubsumptionTest, EmptyRelation) {
  FlyingFixture f;
  f.flies->Clear();
  SubsumptionGraph g = BuildSubsumptionGraph(*f.flies);
  EXPECT_TRUE(g.nodes.empty());
  EXPECT_TRUE(g.sources.empty());
}

TEST(SubsumptionTest, ToStringMentionsUniversalTuple) {
  FlyingFixture f;
  SubsumptionGraph g = BuildSubsumptionGraph(*f.flies);
  std::string s = SubsumptionGraphToString(*f.flies, g);
  EXPECT_NE(s.find("universal"), std::string::npos);
  EXPECT_NE(s.find("(bird)"), std::string::npos);
}

/// peak_bytes of a cold COUNT over `n` instance tuples of a tree taxonomy,
/// under one denial per top-level class.
uint64_t ColdCountPeakBytes(size_t n) {
  auto db = std::make_unique<Database>();
  Hierarchy* h = testing::BuildTreeHierarchy(*db, "product", /*depth=*/3,
                                             /*fanout=*/8, n / 512 + 1);
  HierarchicalRelation* rel =
      db->CreateRelation("stock", {{"item", "product"}}).value();
  for (NodeId top : h->Children(h->root())) {
    EXPECT_TRUE(rel->Insert({top}, Truth::kNegative).ok());
  }
  std::vector<NodeId> atoms = h->Instances();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(rel->Insert({atoms[i]}, Truth::kPositive).ok());
  }
  hql::Executor exec(std::move(db));
  EXPECT_TRUE(exec.Execute("COUNT stock;").ok());
  return exec.query_history().Snapshot().back()->peak_tracked_bytes;
}

TEST(SubsumptionTest, BuildMemoryGrowsLinearly) {
  // The build's working vectors show in a cold COUNT's peak_bytes; ten
  // times the tuples may cost at most 15x the bytes (a quadratic build
  // would take ~100x).
  const uint64_t small = ColdCountPeakBytes(2000);
  const uint64_t large = ColdCountPeakBytes(20000);
  ASSERT_GT(small, 0u);
  EXPECT_LE(large, 15 * small) << small << " -> " << large;
}

// ----- Differential tests against the pairwise oracle ----------------------

TEST(SubsumptionOracleTest, RandomDagsWithPreferences) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    testing::RandomFixtureOptions options;
    options.num_attributes = 1 + seed % 3;
    options.num_tuples = 30;
    testing::RandomDatabase rdb(seed, options);
    if (seed % 2 == 0) {
      // Preference edges in half the databases; cycles are refused.
      Random rng(seed);
      Hierarchy* h = rdb.hierarchy(0);
      std::vector<NodeId> nodes = h->Nodes();
      for (int k = 0; k < 6; ++k) {
        (void)h->AddPreferenceEdge(nodes[rng.Index(nodes.size())],
                                   nodes[rng.Index(nodes.size())]);
      }
    }
    ExpectMatchesOracle(*rdb.relation(), "seed " + std::to_string(seed));
  }
}

TEST(SubsumptionOracleTest, HierarchyEditsBetweenBuilds) {
  const std::vector<std::string> terms = {
      "ALL c0", "ALL c1", "ALL c2", "ALL c3", "i0", "i1", "i2", "i3",
      "ALL n0", "ALL n1"};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    hql::Executor exec;
    ASSERT_TRUE(exec.Execute("CREATE HIERARCHY d;"
                             "CREATE CLASS c0 IN d; CREATE CLASS c1 IN d;"
                             "CREATE CLASS c2 IN d UNDER c0;"
                             "CREATE CLASS c3 IN d UNDER c0, c1;"
                             "CREATE INSTANCE i0 IN d UNDER c2;"
                             "CREATE INSTANCE i1 IN d UNDER c2, c3;"
                             "CREATE INSTANCE i2 IN d UNDER c3;"
                             "CREATE INSTANCE i3 IN d UNDER c1;"
                             "CREATE RELATION r (a: d, b: d);")
                    .ok());
    Random rng(seed);
    auto term = [&] { return terms[rng.Index(terms.size())]; };
    int classes = 0;
    for (int step = 0; step < 40; ++step) {
      const size_t roll = rng.Index(10);
      std::string stmt;
      if (roll < 4) {
        stmt = std::string(rng.Bernoulli(0.3) ? "DENY" : "ASSERT") + " r(" +
               term() + ", " + term() + ");";
      } else if (roll < 5) {
        stmt = "RETRACT r(" + term() + ", " + term() + ");";
      } else if (roll < 7) {
        stmt = "CONNECT c" + std::to_string(rng.Index(4)) + " TO " +
               (rng.Bernoulli(0.5) ? "c" : "i") +
               std::to_string(rng.Index(4)) + " IN d;";
      } else if (roll < 9) {
        stmt = "PREFER c" + std::to_string(rng.Index(4)) + " OVER c" +
               std::to_string(rng.Index(4)) + " IN d;";
      } else if (classes < 2) {
        stmt = "CREATE CLASS n" + std::to_string(classes++) +
               " IN d UNDER c" + std::to_string(rng.Index(2)) + ", c" +
               std::to_string(2 + rng.Index(2)) + ";";
      }
      (void)exec.Execute(stmt);  // refused edits and writes change nothing
      const HierarchicalRelation* r =
          std::as_const(exec.database()).GetRelation("r").value();
      ExpectMatchesOracle(*r, "seed " + std::to_string(seed) + " step " +
                                  std::to_string(step) + ": " + stmt);
    }
  }
}

TEST(SubsumptionOracleTest, DeepChain) {
  // c0 -> c1 -> ... -> c1999 with a tuple on every class: each tuple's
  // only cover is the one on its parent.
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  HierarchicalRelation* r = db.CreateRelation("r", {{"a", "d"}}).value();
  NodeId parent = h->root();
  for (int i = 0; i < 2000; ++i) {
    parent = h->AddClass("c" + std::to_string(i), parent).value();
    ASSERT_TRUE(r->Insert({parent}, i % 3 == 0 ? Truth::kNegative
                                               : Truth::kPositive)
                    .ok());
  }
  ExpectMatchesOracle(*r, "chain");
  const SubsumptionGraph g = BuildSubsumptionGraph(*r, 4);
  ASSERT_EQ(g.nodes.size(), 2000u);
  for (size_t i = 1; i < g.nodes.size(); ++i) {
    EXPECT_EQ(g.predecessors[i], (std::vector<size_t>{i - 1}));
  }
}

TEST(SubsumptionOracleTest, WideFlat) {
  // 10^4 instances directly under the root, all asserted, under one
  // denial of the whole domain.
  Database db;
  Hierarchy* h = db.CreateHierarchy("d").value();
  HierarchicalRelation* r = db.CreateRelation("r", {{"a", "d"}}).value();
  ASSERT_TRUE(r->Insert({h->root()}, Truth::kNegative).ok());
  for (int i = 0; i < 10000; ++i) {
    NodeId atom = h->AddInstance(Value::Int(i)).value();
    ASSERT_TRUE(r->Insert({atom}, Truth::kPositive).ok());
  }
  ExpectMatchesOracle(*r, "flat");
  const SubsumptionGraph g = BuildSubsumptionGraph(*r, 4);
  ASSERT_EQ(g.sources, (std::vector<size_t>{0}));
  EXPECT_EQ(g.successors[0].size(), 10000u);
}

}  // namespace
}  // namespace hirel
