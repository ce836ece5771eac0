// Mutation-then-query loops and guarded writes, at growing relation sizes.
//
// BM_MutateThenGetGraph/N  — mutate one tuple, then fetch the (rebuilt)
//                            subsumption graph from the cache
// BM_HqlMutateCountLoop/N  — the same loop end-to-end through HQL:
//                            RETRACT + ASSERT + COUNT per iteration
// BM_GuardedMutate/N/0     — GuardedErase + GuardedInsert of one sku,
//                            each followed by the full CheckAmbiguity
//                            (what every guarded write used to pay)
// BM_GuardedMutate/N/1     — the same writes with the delta check alone
// BM_HierarchyBulkLoad/N   — hierarchy DDL: 64 leaf and 16 brand classes,
//                            then N instances, each under a leaf and a
//                            brand (CREATE INSTANCE ... UNDER leaf, brand)
//
// tools/bench.sh fails the run if BM_MutateThenGetGraph grows more than
// 25x per decade of tuples (10^3 -> 10^4 and 10^4 -> 10^5), if
// BM_HqlMutateCountLoop grows more than 25x from 10^3 to 10^4, if the
// delta-checked writes are less than 20x faster than the full-check arm
// at 10^4 tuples, if they cost more than 3x as much at 10^4 as at
// 10^3, or if BM_HierarchyBulkLoad's time per instance grows more than 15x
// from 10^3 to 10^4 instances; it also diffs against the committed
// BENCH_incremental.json baseline.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_json_main.h"
#include "catalog/database.h"
#include "core/integrity.h"
#include "core/subsumption_cache.h"
#include "hql/executor.h"
#include "testing/fixtures.h"

namespace hirel {
namespace {

/// A stock relation with `n` positive instance tuples over a tree product
/// taxonomy (512 leaves), plus one class-level DENY per top-level subtree
/// so the graph has non-trivial structure (exceptions under denials).
HierarchicalRelation* BuildStock(Database& db, size_t n) {
  Hierarchy* h = testing::BuildTreeHierarchy(db, "product", /*depth=*/3,
                                             /*fanout=*/8, n / 512 + 1);
  Schema schema;
  (void)schema.Append("item", h);
  HierarchicalRelation rel("stock", std::move(schema));
  for (NodeId top : h->Children(h->root())) {
    (void)rel.Insert({top}, Truth::kNegative);
  }
  size_t inserted = 0;
  for (NodeId atom : h->Instances()) {
    if (inserted == n) break;
    (void)rel.Insert({atom}, Truth::kPositive);
    ++inserted;
  }
  return db.AdoptRelation(std::move(rel)).value();
}

/// Kernel-level loop: erase + re-insert one tuple, then fetch the graph
/// from the cache, which rebuilds it.
void BM_MutateThenGetGraph(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Database db;
  HierarchicalRelation* rel = BuildStock(db, n);
  SubsumptionCache& cache = db.subsumption_cache();
  cache.Get(*rel);  // warm the entry

  TupleId victim = rel->TupleIds().back();
  Item item = rel->tuple(victim).item;
  for (auto _ : state) {
    (void)rel->Erase(victim);
    victim = rel->Insert(item, Truth::kPositive).value();
    SubsumptionCache::GetOutcome outcome = SubsumptionCache::GetOutcome::kNone;
    const SubsumptionGraph& graph = cache.Get(*rel, /*threads=*/1, &outcome);
    benchmark::DoNotOptimize(graph.nodes.size());
    if (outcome != SubsumptionCache::GetOutcome::kRebuilt) {
      state.SkipWithError("expected a rebuild");
      break;
    }
  }
  state.counters["tuples"] = static_cast<double>(rel->size());
  state.counters["rebuilt"] = static_cast<double>(cache.stats().rebuilds);
}

BENCHMARK(BM_MutateThenGetGraph)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

/// End-to-end loop through the HQL executor: one retract, one assert, one
/// graph-dependent query (COUNT) per iteration.
void BM_HqlMutateCountLoop(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto db = std::make_unique<Database>();
  BuildStock(*db, n);
  hql::Executor exec(std::move(db));
  if (!exec.Execute("COUNT stock;").ok()) {  // warm the cache entry
    state.SkipWithError("warmup COUNT failed");
    return;
  }
  // The last instance's node name, for RETRACT/ASSERT round-trips.
  const HierarchicalRelation* rel =
      std::as_const(exec.database()).GetRelation("stock").value();
  const Hierarchy* h = rel->schema().hierarchy(0);
  std::string sku = h->NodeName(rel->tuple(rel->TupleIds().back()).item[0]);
  std::string script = "RETRACT stock(" + sku + "); ASSERT stock(" + sku +
                       "); COUNT stock;";
  // One untimed round: BuildStock inserts unchecked, so the first guarded
  // write runs the full ambiguity check and stamps the relation verified;
  // the timed loop measures the steady state.
  if (!exec.Execute(script).ok()) {
    state.SkipWithError("warmup round failed");
    return;
  }
  for (auto _ : state) {
    Result<std::string> out = exec.Execute(script);
    if (!out.ok()) {
      state.SkipWithError("mutate+count loop failed");
      break;
    }
    benchmark::DoNotOptimize(out->size());
  }
  state.counters["tuples"] = static_cast<double>(n);
}

BENCHMARK(BM_HqlMutateCountLoop)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// Guarded single-sku RETRACT + ASSERT with no query. Both arms run the
/// delta check from a verified state; arm 0 also runs the full
/// CheckAmbiguity after each write, the per-write cost before the delta.
void BM_GuardedMutate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool full_check = state.range(1) == 0;
  Database db;
  HierarchicalRelation* rel = BuildStock(db, n);
  const InferenceOptions options;
  // BuildStock inserts unchecked; one full check verifies and stamps it.
  if (!CheckMutation(*rel, /*delta=*/false, {}, options).ok()) {
    state.SkipWithError("stock relation is inconsistent");
    return;
  }
  const Item item = rel->tuple(rel->TupleIds().back()).item;
  for (auto _ : state) {
    Status erased = GuardedErase(*rel, item, options);
    Status full = full_check ? CheckAmbiguity(*rel, options) : Status::OK();
    Result<TupleId> inserted =
        GuardedInsert(*rel, item, Truth::kPositive, options);
    if (full_check && full.ok()) full = CheckAmbiguity(*rel, options);
    if (!erased.ok() || !inserted.ok() || !full.ok()) {
      state.SkipWithError("guarded write or full check failed");
      break;
    }
    benchmark::DoNotOptimize(*inserted);
  }
  state.counters["tuples"] = static_cast<double>(rel->size());
}

BENCHMARK(BM_GuardedMutate)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMicrosecond);

/// Bulk hierarchy DDL: every instance's second parent edge asks the DAG
/// whether the brand already reaches it, so each one pays a query against
/// the reachability index the previous edge invalidated.
void BM_HierarchyBulkLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Database db;
    Hierarchy* h = db.CreateHierarchy("product").value();
    std::vector<NodeId> leaves, brands;
    for (int j = 0; j < 64; ++j) {
      leaves.push_back(h->AddClass("leaf" + std::to_string(j)).value());
    }
    for (int k = 0; k < 16; ++k) {
      brands.push_back(h->AddClass("brand" + std::to_string(k)).value());
    }
    for (size_t i = 0; i < n; ++i) {
      Result<NodeId> sku =
          h->AddInstance(Value::Int(static_cast<int64_t>(i)), leaves[i % 64]);
      if (!sku.ok() || !h->AddEdge(brands[(i / 64) % 16], *sku).ok()) {
        state.SkipWithError("bulk load failed");
        return;
      }
    }
    benchmark::DoNotOptimize(h->num_nodes());
  }
  state.counters["instances"] = static_cast<double>(n);
  state.counters["s_per_instance"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
}

BENCHMARK(BM_HierarchyBulkLoad)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hirel

HIREL_BENCH_JSON_MAIN();
