// Incremental subsumption-graph maintenance: after a single tuple
// mutation, the journal patch path must answer the next graph-dependent
// query at least an order of magnitude faster than a full rebuild.
//
// BM_MutateThenGetGraph/N/0  — mutate one tuple, rebuild the graph (OFF)
// BM_MutateThenGetGraph/N/1  — mutate one tuple, patch the graph (ON)
// BM_HqlMutateCountLoop/N/i  — the same loop end-to-end through HQL:
//                              RETRACT + ASSERT + COUNT per iteration
// BM_GuardedMutate/N/0       — GuardedErase + GuardedInsert of one sku,
//                              each followed by the full CheckAmbiguity
//                              (what every guarded write used to pay)
// BM_GuardedMutate/N/1       — the same writes with the delta check alone
//
// tools/bench.sh compares the /0 and /1 rows of this binary and fails if
// the patched loop is less than 10x faster at the largest common size, if
// the delta-checked writes are less than 20x faster than the full-check
// arm at 10^4 tuples, if they cost more than 3x as much at 10^4 as at
// 10^3, or if the incremental HQL loop is less than 10x faster than the
// non-incremental one at 10^4; it also diffs against the committed
// BENCH_incremental.json baseline.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_json_main.h"
#include "catalog/database.h"
#include "core/integrity.h"
#include "core/subsumption.h"
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
/// from the cache. With incremental ON every fetch must take the patch
/// path; with OFF every fetch is a from-scratch parallel build.
void BM_MutateThenGetGraph(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  Database db;
  HierarchicalRelation* rel = BuildStock(db, n);
  SubsumptionCache& cache = db.subsumption_cache();
  cache.set_incremental(incremental);
  cache.Get(*rel);  // warm the entry

  TupleId victim = rel->TupleIds().back();
  Item item = rel->tuple(victim).item;
  for (auto _ : state) {
    (void)rel->Erase(victim);
    victim = rel->Insert(item, Truth::kPositive).value();
    SubsumptionCache::GetOutcome outcome = SubsumptionCache::GetOutcome::kNone;
    const SubsumptionGraph& graph = cache.Get(*rel, /*threads=*/1, &outcome);
    benchmark::DoNotOptimize(graph.nodes.size());
    if (incremental && outcome != SubsumptionCache::GetOutcome::kPatched) {
      state.SkipWithError("expected the patch path");
      break;
    }
    if (!incremental && outcome != SubsumptionCache::GetOutcome::kRebuilt) {
      state.SkipWithError("expected a full rebuild");
      break;
    }
  }
  state.counters["tuples"] = static_cast<double>(rel->size());
  state.counters["patched"] = static_cast<double>(cache.stats().patches);
  state.counters["rebuilt"] = static_cast<double>(cache.stats().rebuilds);
}

BENCHMARK(BM_MutateThenGetGraph)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({100000, 1})
    ->Unit(benchmark::kMicrosecond);

/// Single-iteration reference for the 10^5 rebuild arm. A full build at
/// this size takes ~1.5 minutes (10^10 pairwise item tests), so it runs
/// exactly once: enough to anchor the >=10x claim against the patched
/// BM_MutateThenGetGraph/100000/1 row without a multi-iteration sweep.
void BM_FullRebuildReferenceXL(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Database db;
  HierarchicalRelation* rel = BuildStock(db, n);
  SubsumptionCache& cache = db.subsumption_cache();
  cache.set_incremental(false);
  TupleId victim = rel->TupleIds().back();
  Item item = rel->tuple(victim).item;
  for (auto _ : state) {
    (void)rel->Erase(victim);
    victim = rel->Insert(item, Truth::kPositive).value();
    const SubsumptionGraph& graph = cache.Get(*rel, /*threads=*/1);
    benchmark::DoNotOptimize(graph.nodes.size());
  }
  state.counters["tuples"] = static_cast<double>(rel->size());
}

BENCHMARK(BM_FullRebuildReferenceXL)
    ->Arg(100000)
    ->Iterations(1)
    ->Unit(benchmark::kMicrosecond);

/// End-to-end loop through the HQL executor: one retract, one assert, one
/// graph-dependent query (COUNT) per iteration, with SET INCREMENTAL
/// toggling the cache's patch path.
void BM_HqlMutateCountLoop(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  auto db = std::make_unique<Database>();
  BuildStock(*db, n);
  hql::Executor exec(std::move(db));
  std::string toggle = std::string("SET INCREMENTAL ") +
                       (incremental ? "ON" : "OFF") + ";";
  if (!exec.Execute(toggle).ok()) {
    state.SkipWithError("SET INCREMENTAL failed");
    return;
  }
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
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
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

}  // namespace
}  // namespace hirel

HIREL_BENCH_JSON_MAIN();
