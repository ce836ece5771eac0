// System catalog: the sys.* virtual relations (metrics, log, relations,
// columns, cache, pool, queries, waits, telemetry, alerts, health),
// subsumption-aware selection over the telemetry hierarchies, per-query
// resource accounting in the history ring, and the read-only guards on
// the sys. namespace.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "hql/executor.h"
#include "obs/query_stats.h"
#include "obs/sys_catalog.h"
#include "plan/execute.h"
#include "plan/planner.h"
#include "plan/rewrite.h"

namespace hirel {
namespace {

constexpr const char* kFlyingScript = R"(
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE CLASS penguin IN animal UNDER bird;
CREATE INSTANCE tweety IN animal UNDER bird;
CREATE INSTANCE paul IN animal UNDER penguin;
CREATE RELATION flies (who: animal);
ASSERT flies(ALL bird);
DENY flies(ALL penguin);
)";

TEST(SysCatalogTest, ShowRelationsListsVirtualRelations) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out = exec.Execute("SHOW RELATIONS;").value();
  EXPECT_NE(out.find("flies"), std::string::npos);
  EXPECT_NE(out.find("sys.metrics (virtual)"), std::string::npos);
  EXPECT_NE(out.find("sys.queries (virtual)"), std::string::npos);
}

TEST(SysCatalogTest, SelectOverSysRelationsSeesStoredAndVirtual) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out = exec.Execute("SELECT * FROM sys.relations;").value();
  EXPECT_NE(out.find("flies"), std::string::npos);
  // Virtual relations report their row count and no chunks or bytes.
  EXPECT_TRUE(std::regex_search(
      out, std::regex(R"(\| sys\.metrics +\| [1-9][0-9]* +\| 0 +\| 0 +\|)")))
      << out;
}

TEST(SysCatalogTest, MetricNameSubtreeSelection) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  // `ALL pool` names the class covering every pool.* metric: subsumption
  // clamps each row into the subtree, so only pool metrics survive.
  std::string out =
      exec.Execute("SELECT * FROM sys.metrics WHERE name = ALL pool;")
          .value();
  EXPECT_NE(out.find("pool.workers"), std::string::npos);
  EXPECT_EQ(out.find("query.statements"), std::string::npos);
  EXPECT_EQ(out.find("subsumption_cache.hits"), std::string::npos);
}

TEST(SysCatalogTest, ProcessGaugesPresent) {
  hql::Executor exec;
  std::string out =
      exec.Execute("SELECT * FROM sys.metrics WHERE name = ALL process;")
          .value();
  EXPECT_NE(out.find("process.uptime_ms"), std::string::npos);
}

TEST(SysCatalogTest, LogSeveritySubsumption) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute("SET LOG info;").ok());
  // DDL logs at info; an over-threshold query logs slow_query at warn.
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SET SLOW_QUERY_MS 0;").ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies WHERE who = paul;").ok());
  // ALL warn covers the {warn, error} subtree: slow_query is in, DDL out.
  std::string warn =
      exec.Execute("SELECT * FROM sys.log WHERE level = ALL warn;").value();
  EXPECT_NE(warn.find("slow_query"), std::string::npos);
  EXPECT_EQ(warn.find("create_relation"), std::string::npos);
  // ALL debug is the root: everything is covered.
  std::string all =
      exec.Execute("SELECT * FROM sys.log WHERE level = ALL debug;").value();
  EXPECT_NE(all.find("slow_query"), std::string::npos);
  ASSERT_TRUE(exec.Execute("SET SLOW_QUERY_MS OFF;").ok());
}

TEST(SysCatalogTest, ProjectionOverSysMetricsViaPlan) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  Database& db = exec.database();
  hql::CreateProjectStmt stmt;
  stmt.name = "tmp";
  stmt.source = "sys.metrics";
  stmt.attributes = {"name", "kind"};
  Result<plan::PlanPtr> compiled = plan::CompileCreateProject(db, stmt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  Result<plan::PlanPtr> rewritten =
      plan::RewritePlan(std::move(*compiled), db);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  Result<plan::PlanOutput> out = plan::ExecutePlan(**rewritten, db);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(out->relation.has_value());
  EXPECT_EQ(out->relation->schema().size(), 2u);
  EXPECT_GT(out->relation->size(), 0u);
}

TEST(SysCatalogTest, JoinRelationsWithColumns) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  // Natural join on the shared `relation` attribute (same sys.label
  // hierarchy in both schemas). Only stored relations have column rows.
  std::string out =
      exec.Execute("SELECT * FROM sys.columns JOIN sys.relations;").value();
  EXPECT_NE(out.find("flies"), std::string::npos);
  EXPECT_NE(out.find("col_bytes"), std::string::npos);
  EXPECT_NE(out.find("chunks"), std::string::npos);
  EXPECT_EQ(out.find("sys.metrics"), std::string::npos);
}

TEST(SysCatalogTest, EveryStatementRecordedInQueryHistory) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies WHERE who = paul;").ok());
  std::vector<std::shared_ptr<const obs::QueryStats>> entries =
      exec.query_history().Snapshot();
  // 8 script statements + the select.
  ASSERT_EQ(entries.size(), 9u);
  uint64_t last_id = 0;
  for (const auto& entry : entries) {
    EXPECT_GT(entry->id, last_id);
    last_id = entry->id;
    EXPECT_GE(entry->wall_ns, 1u);  // non-zero wall time, always
    EXPECT_TRUE(entry->ok);
    EXPECT_FALSE(entry->kind.empty());
    EXPECT_FALSE(entry->statement.empty());
  }
  EXPECT_EQ(entries.front()->kind, "create hierarchy");
  EXPECT_EQ(entries.back()->kind, "select");
  EXPECT_GT(entries.back()->rows_in, 0u);
  EXPECT_FALSE(entries.back()->plan_digest.empty());
}

TEST(SysCatalogTest, FailedStatementsRecordedToo) {
  hql::Executor exec;
  EXPECT_FALSE(exec.Execute("SELECT * FROM nonexistent;").ok());
  std::vector<std::shared_ptr<const obs::QueryStats>> entries =
      exec.query_history().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries.front()->ok);
}

TEST(SysCatalogTest, SelectOverSysQueriesDoesNotSeeItself) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out = exec.Execute("SELECT * FROM sys.queries;").value();
  EXPECT_NE(out.find("create hierarchy"), std::string::npos);
  // The running SELECT is appended after it completes, not during: no
  // recorded statement text mentions sys.queries yet.
  EXPECT_EQ(out.find("FROM sys.queries"), std::string::npos);
  std::vector<std::shared_ptr<const obs::QueryStats>> entries =
      exec.query_history().Snapshot();
  EXPECT_EQ(entries.back()->kind, "select");
}

TEST(SysCatalogTest, ProbesMatchExplainAnalyzeTotals) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out =
      exec.Execute(
              "EXPLAIN ANALYZE SELECT * FROM flies WHERE who = ALL penguin;")
          .value();
  size_t pos = out.find("totals:");
  ASSERT_NE(pos, std::string::npos);
  pos = out.find("probes=", pos);
  ASSERT_NE(pos, std::string::npos);
  uint64_t reported = std::strtoull(out.c_str() + pos + 7, nullptr, 10);
  std::vector<std::shared_ptr<const obs::QueryStats>> entries =
      exec.query_history().Snapshot();
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries.back()->kind, "explain analyze");
  EXPECT_EQ(entries.back()->subsumption_probes, reported);
}

TEST(SysCatalogTest, ShowQueriesRendersTextAndJson) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string text = exec.Execute("SHOW QUERIES;").value();
  EXPECT_NE(text.find("| create hierarchy |"), std::string::npos);
  // Newest first: the SHOW QUERIES above (id 9), then the script's last
  // statement (DENY, id 8).
  std::string json = exec.Execute("SHOW QUERIES JSON;").value();
  EXPECT_EQ(json.find("[{\"id\":9,\"kind\":\"show\","), 0u) << json;
  EXPECT_NE(json.find("},{\"id\":8,\"kind\":\"deny\","), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"assert\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"probes\":"), std::string::npos);
}

TEST(SysCatalogTest, ShowRelationMaterializesVirtual) {
  hql::Executor exec;
  std::string out = exec.Execute("SHOW RELATION sys.pool;").value();
  EXPECT_NE(out.find("caller"), std::string::npos);
  EXPECT_NE(out.find("busy_ms"), std::string::npos);
}

TEST(SysCatalogTest, SysCacheListsEntriesAfterConsolidate) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SHOW SUBSUMPTION flies;").ok());
  std::string out = exec.Execute("SELECT * FROM sys.cache;").value();
  EXPECT_NE(out.find("flies"), std::string::npos);
}

TEST(SysCatalogTest, ReadOnlyGuards) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());

  Result<std::string> r = exec.Execute("ASSERT sys.metrics(x, y, z, w);");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("read-only"), std::string::npos);

  r = exec.Execute("DROP RELATION sys.metrics;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("cannot be dropped"),
            std::string::npos);

  r = exec.Execute("CREATE RELATION sys.mine (who: animal);");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("reserved"), std::string::npos);

  r = exec.Execute("CREATE HIERARCHY sys.h;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("reserved"), std::string::npos);

  r = exec.Execute("BEGIN sys.queries;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("read-only"), std::string::npos);

  r = exec.Execute("CONSOLIDATE sys.metrics;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("read-only"), std::string::npos);

  r = exec.Execute("COMPRESS sys.log;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("read-only"), std::string::npos);

  // Results over sys. relations range over hidden system hierarchies, so
  // they cannot be adopted into the catalog (or saved).
  r = exec.Execute("CREATE RELATION snap AS PROJECT sys.metrics ON (name);");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("cannot be stored"),
            std::string::npos);
}

TEST(SysCatalogTest, SystemCatalogSurvivesLoad) {
  std::string path = ::testing::TempDir() + "sys_catalog_load_test.hirel";
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SAVE '" + path + "';").ok());
  size_t before = exec.query_history().Snapshot().size();
  ASSERT_TRUE(exec.Execute("LOAD '" + path + "';").ok());
  // Providers are re-registered on the loaded database and the history
  // ring survives the swap.
  std::string out = exec.Execute("SELECT * FROM sys.relations;").value();
  EXPECT_NE(out.find("flies"), std::string::npos);
  EXPECT_NE(out.find("sys.metrics"), std::string::npos);
  EXPECT_GT(exec.query_history().Snapshot().size(), before);
  std::remove(path.c_str());
}

TEST(SysCatalogTest, SysWaitsAggregatesAndClassSubsumption) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  // SAVE blocks on snapshot.save, so the io class is guaranteed a row
  // even in an otherwise uncontended single-threaded run.
  std::string path = ::testing::TempDir() + "sys_waits_test.hirel";
  ASSERT_TRUE(exec.Execute("SAVE '" + path + "';").ok());
  std::remove(path.c_str());

  std::string out = exec.Execute("SELECT * FROM sys.waits;").value();
  EXPECT_NE(out.find("snapshot.save"), std::string::npos);
  EXPECT_NE(out.find("io"), std::string::npos);

  // Sites live under their wait-class node, so `ALL io` selects exactly
  // the io sites by subsumption.
  std::string io =
      exec.Execute("SELECT * FROM sys.waits WHERE site = ALL io;").value();
  EXPECT_NE(io.find("snapshot.save"), std::string::npos);
  EXPECT_EQ(io.find("query_ring"), std::string::npos);
}

TEST(SysCatalogTest, SysMetricsHistorySubtreeSelection) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  // Populate pool.* (and everything else) via the gauge sync, then take
  // two deterministic manual samples.
  obs::SyncEngineGauges(exec.database());
  exec.telemetry().Tick();
  exec.telemetry().Tick();

  std::string out =
      exec.Execute("SELECT * FROM sys.metrics_history;").value();
  EXPECT_NE(out.find("query.statements"), std::string::npos);
  EXPECT_NE(out.find("pool.workers"), std::string::npos);

  // The name attribute shares the sys.metrics dotted hierarchy, so
  // `ALL pool` clamps the history to the pool.* subtree.
  std::string pool =
      exec.Execute(
              "SELECT * FROM sys.metrics_history WHERE name = ALL pool;")
          .value();
  EXPECT_NE(pool.find("pool.workers"), std::string::npos);
  EXPECT_EQ(pool.find("query.statements"), std::string::npos);
}

TEST(SysCatalogTest, SysQueriesReportsWaitColumn) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  std::string out = exec.Execute("SELECT * FROM sys.queries;").value();
  EXPECT_NE(out.find("wait_us"), std::string::npos);
}

TEST(SysCatalogTest, SysMetricsExposesPercentileRows) {
  hql::Executor exec;
  ASSERT_TRUE(exec.Execute(kFlyingScript).ok());
  ASSERT_TRUE(exec.Execute("SELECT * FROM flies;").ok());  // records a histogram
  std::string out =
      exec.Execute("SELECT * FROM sys.metrics WHERE name = ALL query;")
          .value();
  EXPECT_NE(out.find("p50_ns"), std::string::npos);
  EXPECT_NE(out.find("p99_ns"), std::string::npos);
}

TEST(QueryHistoryRingTest, BoundedAndOrdered) {
  obs::QueryHistoryRing ring(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    obs::QueryStats stats;
    stats.id = i;
    stats.wall_ns = i * 100;
    ring.Append(std::move(stats));
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  EXPECT_EQ(ring.capacity(), 4u);
  std::vector<std::shared_ptr<const obs::QueryStats>> entries =
      ring.Snapshot();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front()->id, 7u);  // oldest surviving
  EXPECT_EQ(entries.back()->id, 10u);  // newest
}

TEST(SysCatalogTest, ExplainAnalyzeMarksVirtualScan) {
  hql::Executor exec;
  std::string out =
      exec.Execute("EXPLAIN ANALYZE SELECT * FROM sys.relations;").value();
  EXPECT_NE(out.find("virtual=true"), std::string::npos);
}

}  // namespace
}  // namespace hirel
