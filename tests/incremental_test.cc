// Incremental maintenance: the mutation journal, delta consolidate, and the
// semi-naive DERIVE fast path must be byte-identical to their from-scratch
// counterparts, and the subsumption-graph cache must never serve a graph
// that differs from the pairwise oracle's. Every test here is an
// equivalence test plus the bookkeeping (outcomes, stats, invalidation)
// that makes it observable.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "catalog/database.h"
#include "common/random.h"
#include "core/consolidate.h"
#include "core/explicate.h"
#include "core/mutation_journal.h"
#include "core/subsumption.h"
#include "core/subsumption_cache.h"
#include "hql/executor.h"
#include "rules/rule.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

using GetOutcome = SubsumptionCache::GetOutcome;
using testing::PairwiseSubsumptionGraph;

void ExpectGraphEq(const SubsumptionGraph& got, const SubsumptionGraph& want,
                   const std::string& context) {
  EXPECT_EQ(got.nodes, want.nodes) << context;
  EXPECT_EQ(got.successors, want.successors) << context;
  EXPECT_EQ(got.predecessors, want.predecessors) << context;
  EXPECT_EQ(got.sources, want.sources) << context;
}

/// The relation's content as a sorted (item, truth) list — the
/// id-independent notion of "the same relation".
std::vector<std::pair<Item, Truth>> Content(
    const HierarchicalRelation& rel) {
  std::vector<std::pair<Item, Truth>> out;
  for (TupleId id : rel.TupleIds()) {
    HTuple t = rel.tuple(id);
    out.emplace_back(std::move(t.item), t.truth);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ----- MutationJournal -------------------------------------------------------

TEST(MutationJournalTest, SinceReturnsRecordsNewerThanVersion) {
  MutationJournal j;
  for (uint64_t v = 1; v <= 5; ++v) {
    j.Append({MutationJournal::Record::Kind::kInsert, Truth::kPositive,
              static_cast<TupleId>(v), v, Item{}});
  }
  auto since = j.Since(2);
  ASSERT_TRUE(since.has_value());
  ASSERT_EQ(since->size(), 3u);
  EXPECT_EQ(since->front().version, 3u);
  EXPECT_EQ(since->back().version, 5u);
  // Version 0 predates nothing recorded, but the journal has never
  // dropped, so it still covers it completely.
  EXPECT_TRUE(j.Covers(0));
  EXPECT_EQ(j.Since(0)->size(), 5u);
}

TEST(MutationJournalTest, OverflowWithdrawsCoverage) {
  MutationJournal j;
  const size_t total = MutationJournal::kCapacity + 10;
  for (uint64_t v = 1; v <= total; ++v) {
    j.Append({MutationJournal::Record::Kind::kInsert, Truth::kPositive,
              static_cast<TupleId>(v), v, Item{}});
  }
  EXPECT_EQ(j.size(), MutationJournal::kCapacity);
  EXPECT_EQ(j.dropped(), 10u);
  // The newest dropped record has stamp 10: anything older is uncovered.
  EXPECT_FALSE(j.Covers(9));
  EXPECT_FALSE(j.Since(9).has_value());
  ASSERT_TRUE(j.Covers(10));
  EXPECT_EQ(j.Since(10)->size(), MutationJournal::kCapacity);
}

TEST(MutationJournalTest, CutInvalidatesEverythingAtOrBefore) {
  MutationJournal j;
  j.Append({MutationJournal::Record::Kind::kInsert, Truth::kPositive,
            TupleId{1}, 1, Item{}});
  j.Cut(7);
  EXPECT_EQ(j.size(), 0u);
  EXPECT_FALSE(j.Covers(6));
  EXPECT_TRUE(j.Covers(7));
  EXPECT_TRUE(j.Since(7)->empty());
}

TEST(MutationJournalTest, RelationRecordsItsMutations) {
  testing::FlyingFixture f;
  uint64_t mark = f.flies->version();
  TupleId added = f.flies->Insert({f.tweety}, Truth::kPositive).value();
  ASSERT_TRUE(f.flies->Erase(added).ok());
  auto since = f.flies->journal().Since(mark);
  ASSERT_TRUE(since.has_value());
  ASSERT_EQ(since->size(), 2u);
  EXPECT_EQ((*since)[0].kind, MutationJournal::Record::Kind::kInsert);
  EXPECT_EQ((*since)[0].id, added);
  EXPECT_EQ((*since)[1].kind, MutationJournal::Record::Kind::kErase);
  EXPECT_EQ((*since)[1].item, Item{f.tweety});
  // Clear() reuses tuple ids, so it must sever delta coverage.
  f.flies->Clear();
  EXPECT_FALSE(f.flies->journal().Covers(mark));
}

// ----- Stale cache entries rebuild ------------------------------------------

TEST(SubsumptionCacheTest, StaleEntryRebuildsAfterTupleChurn) {
  testing::FlyingFixture f;
  SubsumptionCache& cache = f.db.subsumption_cache();
  GetOutcome outcome = GetOutcome::kNone;
  cache.Get(*f.flies, 1, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kRebuilt);  // first build of the entry
  cache.Get(*f.flies, 1, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kHit);

  // Insert, truth-churn, and erase, fetching after each step.
  TupleId added = f.flies->Insert({f.tweety}, Truth::kPositive).value();
  const SubsumptionGraph& g1 = cache.Get(*f.flies, 1, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kRebuilt);
  ExpectGraphEq(g1, PairwiseSubsumptionGraph(*f.flies), "after insert");

  ASSERT_TRUE(f.flies->Erase(added).ok());
  TupleId readded = f.flies->Insert({f.tweety}, Truth::kNegative).value();
  const SubsumptionGraph& g2 = cache.Get(*f.flies, 4, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kRebuilt);
  ExpectGraphEq(g2, PairwiseSubsumptionGraph(*f.flies), "after churn");

  ASSERT_TRUE(f.flies->Erase(readded).ok());
  const SubsumptionGraph& g3 = cache.Get(*f.flies, 1, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kRebuilt);
  ExpectGraphEq(g3, PairwiseSubsumptionGraph(*f.flies), "after erase");
  cache.Get(*f.flies, 1, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kHit);

  SubsumptionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.rebuilds, 4u);
  EXPECT_EQ(stats.misses, stats.rebuilds);
  EXPECT_EQ(stats.patches, 0u);
}

TEST(SubsumptionCacheTest, StaleEntryRebuildsAfterHierarchyEdit) {
  testing::FlyingFixture f;
  SubsumptionCache& cache = f.db.subsumption_cache();
  cache.Get(*f.flies);

  // A novel subsumption edge re-relates already-asserted items: peter
  // (asserted atomically) slides under the penguin exception structure.
  ASSERT_TRUE(f.animal->AddEdge(f.galapagos, f.peter).ok());
  GetOutcome outcome = GetOutcome::kNone;
  const SubsumptionGraph& g1 = cache.Get(*f.flies, 1, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kRebuilt);
  ExpectGraphEq(g1, PairwiseSubsumptionGraph(*f.flies), "after CONNECT");

  // A preference edge changes the binding order itself.
  ASSERT_TRUE(f.animal->AddPreferenceEdge(f.penguin, f.galapagos).ok());
  const SubsumptionGraph& g2 = cache.Get(*f.flies, 1, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kRebuilt);
  ExpectGraphEq(g2, PairwiseSubsumptionGraph(*f.flies), "after PREFER");
}

// ----- Database mutation entry points must invalidate ------------------------

TEST(SubsumptionCacheInvalidationTest, AdoptReplaceCannotServeStaleGraph) {
  // AdoptRelation over an existing name installs a different relation
  // under the same cache key; the adopt must invalidate unconditionally so
  // the old relation's graph is never served for it.
  testing::FlyingFixture f;
  SubsumptionCache& cache = f.db.subsumption_cache();
  EXPECT_EQ(cache.Get(*f.flies).nodes.size(), 4u);

  Schema schema;
  ASSERT_TRUE(schema.Append("who", f.animal).ok());
  HierarchicalRelation replacement("flies", std::move(schema));
  ASSERT_TRUE(replacement.Insert({f.paul}, Truth::kPositive).ok());
  HierarchicalRelation* adopted =
      f.db.AdoptRelation(std::move(replacement), /*replace_existing=*/true)
          .value();

  GetOutcome outcome = GetOutcome::kNone;
  const SubsumptionGraph& graph = cache.Get(*adopted, 1, &outcome);
  EXPECT_EQ(outcome, GetOutcome::kRebuilt);
  ASSERT_EQ(graph.nodes.size(), 1u);
  EXPECT_EQ(adopted->tuple(graph.nodes[0]).item, Item{f.paul});

  // The one-arg form still refuses to replace.
  Schema again;
  ASSERT_TRUE(again.Append("who", f.animal).ok());
  EXPECT_TRUE(f.db.AdoptRelation(HierarchicalRelation("flies",
                                                      std::move(again)))
                  .status()
                  .IsAlreadyExists());
}

TEST(SubsumptionCacheInvalidationTest, DropRelationDropsTheEntry) {
  testing::FlyingFixture f;
  SubsumptionCache& cache = f.db.subsumption_cache();
  cache.Get(*f.flies);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(f.db.DropRelation("flies").ok());
  EXPECT_EQ(cache.size(), 0u);
}

// ----- Delta consolidate -----------------------------------------------------

TEST(ConsolidateDeltaTest, MatchesFullConsolidateOnSeededChanges) {
  testing::FlyingFixture f;
  ASSERT_TRUE(ConsolidateInPlace(*f.flies).ok());

  // +tweety is redundant under +ALL bird; so is a second exact copy of
  // the penguin denial's child structure. Seed exactly the new ids.
  TupleId t1 = f.flies->Insert({f.tweety}, Truth::kPositive).value();
  TupleId t2 = f.flies->Insert({f.paul}, Truth::kNegative).value();

  HierarchicalRelation full_copy(*f.flies);
  size_t removed_full = ConsolidateInPlace(full_copy).value();

  SubsumptionGraph graph = BuildSubsumptionGraph(*f.flies);
  size_t removed_delta =
      ConsolidateDelta(*f.flies, {}, graph, {t1, t2}).value();

  EXPECT_EQ(removed_delta, removed_full);
  EXPECT_EQ(Content(*f.flies), Content(full_copy));
  EXPECT_EQ(Extension(*f.flies).value(), Extension(full_copy).value());
}

TEST(ConsolidateDeltaTest, ExecutorUsesDeltaPathAndMatchesFull) {
  // The second CONSOLIDATE must take the delta path (the " (delta)"
  // suffix) and leave the relation as ConsolidateInPlace leaves a copy of
  // its pre-state.
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute("CREATE HIERARCHY d;"
                           "CREATE CLASS c1 IN d; CREATE CLASS c2 IN d UNDER c1;"
                           "CREATE INSTANCE i1 IN d UNDER c2;"
                           "CREATE INSTANCE i2 IN d UNDER c2;"
                           "CREATE RELATION r (a: d);"
                           "ASSERT r(ALL c1); DENY r(ALL c2); ASSERT r(i1);"
                           "CONSOLIDATE r;"
                           "RETRACT r(i1); ASSERT r(i1); ASSERT r(i2);")
                  .ok());
  const HierarchicalRelation* r =
      std::as_const(exec.database()).GetRelation("r").value();
  HierarchicalRelation full(*r);
  const size_t removed_full = ConsolidateInPlace(full).value();

  Result<std::string> con = exec.Execute("CONSOLIDATE r;");
  ASSERT_TRUE(con.ok());
  EXPECT_NE(con->find(" (delta)"), std::string::npos) << *con;
  EXPECT_NE(con->find("removed " + std::to_string(removed_full) + " "),
            std::string::npos)
      << *con;
  EXPECT_EQ(Content(*r), Content(full));
}

// ----- Semi-naive DERIVE -----------------------------------------------------

TEST(DeriveIncrementalTest, SemiNaiveMatchesNaive) {
  auto build = [](bool incremental) {
    auto f = std::make_unique<testing::FlyingFixture>();
    HierarchicalRelation* far =
        f->db.CreateRelation("travels_far", {{"who", "animal"}}).value();
    RuleEngine engine(&f->db);
    EXPECT_TRUE(engine.AddRule("travels_far(?x) :- flies(?x).").ok());
    RuleOptions options;
    options.incremental = incremental;
    EXPECT_TRUE(engine.Evaluate(options).ok());
    // A second round over mutated input exercises the append fast path
    // (an all-new-atomic-positive journal) on the incremental side.
    EXPECT_TRUE(f->flies->Insert({f->tweety}, Truth::kPositive).ok());
    EXPECT_TRUE(engine.Evaluate(options).ok());
    return Content(*far);
  };
  EXPECT_EQ(build(true), build(false));
}

// ----- HQL surface ----------------------------------------------------------

TEST(IncrementalHqlTest, SetIncrementalIsAParseError) {
  hql::Executor exec;
  EXPECT_TRUE(exec.Execute("SET INCREMENTAL ON;").status().IsParseError());
  EXPECT_TRUE(exec.Execute("SET INCREMENTAL OFF;").status().IsParseError());
}

TEST(IncrementalHqlTest, ShowMetricsSurfacesCacheCounters) {
  hql::Executor exec;
  ASSERT_TRUE(exec
                  .Execute("CREATE HIERARCHY d; CREATE CLASS c IN d;"
                           "CREATE INSTANCE i IN d UNDER c;"
                           "CREATE RELATION r (a: d);"
                           "ASSERT r(ALL c); COUNT r;"
                           "RETRACT r(ALL c); ASSERT r(ALL c); COUNT r;")
                  .ok());
  Result<std::string> metrics = exec.Execute("SHOW METRICS JSON;");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("{\"name\":\"cache.rebuilt\",\"kind\":\"gauge\","
                          "\"value\":2,"),
            std::string::npos)
      << *metrics;
  EXPECT_EQ(metrics->find("cache.patched"), std::string::npos);
  EXPECT_EQ(metrics->find("cache.journal_overflows"), std::string::npos);
}

TEST(IncrementalHqlTest, ExplainAnalyzeAnnotatesGraphCache) {
  hql::Executor exec;
  ASSERT_TRUE(exec
                  .Execute("CREATE HIERARCHY d; CREATE CLASS c IN d;"
                           "CREATE INSTANCE i IN d UNDER c;"
                           "CREATE RELATION r (a: d);"
                           "ASSERT r(ALL c); COUNT r;"
                           "RETRACT r(ALL c); ASSERT r(ALL c);")
                  .ok());
  Result<std::string> stale = exec.Execute("EXPLAIN ANALYZE COUNT r;");
  ASSERT_TRUE(stale.ok());
  EXPECT_NE(stale->find("graph_cache=0/1 hit"), std::string::npos) << *stale;
  EXPECT_EQ(stale->find("patched"), std::string::npos) << *stale;
  EXPECT_EQ(stale->find("incremental="), std::string::npos) << *stale;
  Result<std::string> fresh = exec.Execute("EXPLAIN ANALYZE COUNT r;");
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->find("graph_cache=1/1 hit"), std::string::npos) << *fresh;
}

// ----- Randomized equivalence ------------------------------------------------

/// N random mutations — inserts, erases, novel CONNECTs, PREFERs — with the
/// graph the cache serves checked byte-identical to the pairwise oracle
/// after every step, at 1 and 4 threads.
class IncrementalEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalEquivalence, PatchedGraphMatchesRebuildUnderRandomChurn) {
  testing::RandomFixtureOptions options;
  options.num_classes = 14;
  options.num_instances = 24;
  options.num_tuples = 10;
  testing::RandomDatabase rdb(GetParam(), options);
  HierarchicalRelation* rel = rdb.relation();
  Hierarchy* h = rdb.hierarchy(0);
  SubsumptionCache& cache = rdb.db().subsumption_cache();
  Random rng(GetParam() * 977 + 13);

  cache.Get(*rel);
  std::vector<NodeId> nodes = h->Nodes();
  for (int step = 0; step < 40; ++step) {
    size_t roll = rng.Index(10);
    if (roll < 4) {
      Item item{nodes[rng.Index(nodes.size())]};
      Truth truth = rng.Bernoulli(0.4) ? Truth::kNegative : Truth::kPositive;
      (void)rel->Insert(item, truth);  // duplicates/conflicts may refuse
    } else if (roll < 7) {
      std::vector<TupleId> ids = rel->TupleIds();
      if (!ids.empty()) {
        ASSERT_TRUE(rel->Erase(ids[rng.Index(ids.size())]).ok());
      }
    } else if (roll < 9) {
      // CONNECT: a novel subsumption edge (cycles are refused; both
      // verdicts are fine — a refusal just mutates nothing).
      (void)h->AddEdge(nodes[rng.Index(nodes.size())],
                       nodes[rng.Index(nodes.size())]);
    } else {
      (void)h->AddPreferenceEdge(nodes[rng.Index(nodes.size())],
                                 nodes[rng.Index(nodes.size())]);
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const SubsumptionGraph& cached = cache.Get(*rel, threads);
      ExpectGraphEq(cached, PairwiseSubsumptionGraph(*rel),
                    "seed " + std::to_string(GetParam()) + " step " +
                        std::to_string(step) + " threads " +
                        std::to_string(threads));
    }
  }
  SubsumptionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, stats.rebuilds);
  EXPECT_GT(stats.rebuilds, 1u);
  EXPECT_GT(stats.hits, 0u) << "the second fetch of each step hits";
  EXPECT_EQ(stats.patches, 0u);
}

/// One executor runs a random trace with every fast path live; a reference
/// executor replays it but runs each CONSOLIDATE as ConsolidateInPlace on
/// its copy of the pre-state and each DERIVE as the naive fixpoint
/// (RuleOptions::incremental = false). Both must leave byte-identical
/// relations, consolidation verdicts, and derived facts.
TEST_P(IncrementalEquivalence, ExecutorTraceMatchesWithIncrementalOff) {
  hql::Executor on, ref;
  std::string setup = "CREATE HIERARCHY d;"
                      "CREATE CLASS c0 IN d; CREATE CLASS c1 IN d;"
                      "CREATE CLASS c2 IN d UNDER c0;"
                      "CREATE CLASS c3 IN d UNDER c1;"
                      "CREATE INSTANCE i0 IN d UNDER c2;"
                      "CREATE INSTANCE i1 IN d UNDER c2;"
                      "CREATE INSTANCE i2 IN d UNDER c3;"
                      "CREATE INSTANCE i3 IN d UNDER c3;"
                      "CREATE RELATION r (a: d);"
                      "CREATE RELATION reach (a: d);"
                      "RULE 'reach(?x) :- r(?x).';";
  ASSERT_TRUE(on.Execute(setup).ok());
  ASSERT_TRUE(ref.Execute(setup).ok());
  RuleEngine naive(&ref.database());
  ASSERT_TRUE(naive.AddRule("reach(?x) :- r(?x).").ok());
  RuleOptions naive_options;
  naive_options.incremental = false;

  std::vector<std::string> targets = {"ALL c0", "ALL c1", "ALL c2",
                                      "ALL c3", "i0", "i1", "i2", "i3"};
  Random rng(GetParam() * 31 + 7);
  for (int step = 0; step < 60; ++step) {
    size_t roll = rng.Index(12);
    std::string stmt;
    if (roll < 4) {
      stmt = (rng.Bernoulli(0.3) ? "DENY r(" : "ASSERT r(") +
             targets[rng.Index(targets.size())] + ");";
    } else if (roll < 6) {
      stmt = "RETRACT r(" + targets[rng.Index(targets.size())] + ");";
    } else if (roll < 8) {
      stmt = "SELECT * FROM r WHERE a = " +
             targets[rng.Index(targets.size())] + ";";
    } else if (roll < 9) {
      stmt = "CONNECT c" + std::to_string(rng.Index(4)) + " TO i" +
             std::to_string(rng.Index(4)) + " IN d;";
    } else if (roll < 10) {
      stmt = "PREFER c" + std::to_string(rng.Index(4)) + " OVER c" +
             std::to_string(rng.Index(4)) + " IN d;";
    } else if (roll < 11) {
      stmt = "CONSOLIDATE r;";
    } else {
      stmt = "DERIVE;";
    }
    Result<std::string> ra = on.Execute(stmt);
    bool ref_ok;
    if (stmt == "CONSOLIDATE r;") {
      ref_ok = ConsolidateInPlace(*ref.database().GetRelation("r").value())
                   .ok();
    } else if (stmt == "DERIVE;") {
      ref_ok = naive.Evaluate(naive_options).ok();
    } else {
      Result<std::string> rb = ref.Execute(stmt);
      ref_ok = rb.ok();
      if (ra.ok() && rb.ok() && stmt[0] == 'S') {
        EXPECT_EQ(*ra, *rb) << stmt;  // SELECTs must render identically
      }
    }
    ASSERT_EQ(ra.ok(), ref_ok)
        << "seed " << GetParam() << " step " << step << ": " << stmt;
  }
  for (const char* name : {"r", "reach"}) {
    const HierarchicalRelation* ra =
        std::as_const(on.database()).GetRelation(name).value();
    const HierarchicalRelation* rb =
        std::as_const(ref.database()).GetRelation(name).value();
    EXPECT_EQ(Content(*ra), Content(*rb))
        << name << " diverged (seed " << GetParam() << ")";
    ExpectGraphEq(on.database().subsumption_cache().Get(*ra),
                  PairwiseSubsumptionGraph(*ra),
                  std::string(name) + " cached graph (seed " +
                      std::to_string(GetParam()) + ")");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace hirel
