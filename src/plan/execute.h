// Physical execution of logical plans.
//
// Each plan node maps onto one existing kernel (src/algebra, src/core);
// base-relation inputs are borrowed from the catalog, intermediates are
// owned by the walk. Nodes that need a subsumption graph (consolidate,
// explicate, aggregate) consult the Database's SubsumptionCache when their
// input is a base relation — the version-stamp validation makes a hit
// always sound.

#ifndef HIREL_PLAN_EXECUTE_H_
#define HIREL_PLAN_EXECUTE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "algebra/aggregate.h"
#include "catalog/database.h"
#include "common/result.h"
#include "core/binding.h"
#include "core/hierarchical_relation.h"
#include "core/subsumption_cache.h"
#include "plan/plan_node.h"

namespace hirel {
namespace plan {

struct ExecOptions {
  /// Preemption mode etc., forwarded to every kernel.
  InferenceOptions inference;

  /// Worker count for the parallel kernels (1 = serial, 0 = one per
  /// hardware thread); forwarded as InferenceOptions::threads to every
  /// node's kernel. Results are byte-identical at any value.
  size_t threads = 1;

  /// Subsumption-graph cache consulted for base-relation inputs; null
  /// disables caching (each kernel builds its own graph).
  SubsumptionCache* cache = nullptr;

  /// Candidate cap forwarded to join / product / set-operation kernels.
  size_t max_items = 100'000;

  /// When true (and `stats` is non-null), ExecutePlan records per-node
  /// runtime stats — rows out, wall time, subsumption probes — keyed by
  /// plan-node address in ExecStats::per_node. EXPLAIN ANALYZE turns this
  /// on; the normal query path leaves it off and pays nothing.
  bool collect_node_stats = false;
};

/// Runtime stats of one plan node, collected under
/// ExecOptions::collect_node_stats.
struct PlanNodeStats {
  /// Tuples produced by this node (the count passed to its parent).
  size_t rows_out = 0;
  /// Wall time, inclusive of children (Postgres-style actual time).
  uint64_t wall_ns = 0;
  /// Attributed wait time (queue/latch/lock/io; obs/wait.h) recorded while
  /// this node ran, inclusive of children like wall_ns. Waits on pool
  /// workers overlap the node's wall clock, so wait_ns can exceed the
  /// serial share of wall_ns on parallel nodes.
  uint64_t wait_ns = 0;
  /// Strongest-binding computations performed by this node's own kernel
  /// (exclusive of children).
  uint64_t subsumption_probes = 0;
  size_t graph_cache_hits = 0;
  size_t graph_cache_misses = 0;
  /// Effective worker count the node's kernel may fan out to; 0 or 1 means
  /// it ran serially. EXPLAIN ANALYZE renders values > 1 as `workers=N`.
  size_t workers = 0;
  /// Fixed-size scan chunks covering the relation a Scan node produced;
  /// EXPLAIN ANALYZE renders `chunks=N` on Scan lines only.
  size_t chunks = 0;
  /// True for a Scan of a virtual (sys.*) relation, materialized by its
  /// provider for this execution; EXPLAIN ANALYZE renders `virtual=true`.
  bool virtual_scan = false;
};

struct ExecStats {
  size_t nodes_executed = 0;
  size_t graph_cache_hits = 0;
  size_t graph_cache_misses = 0;
  /// Total strongest-binding computations across the plan.
  uint64_t subsumption_probes = 0;
  /// Tuples read by the plan's Scan nodes (stored or virtual): the
  /// "rows in" of per-query accounting.
  uint64_t rows_scanned = 0;
  /// Attributed wait time recorded across the whole plan execution.
  uint64_t wait_ns = 0;
  /// Per-node runtime stats; populated only when
  /// ExecOptions::collect_node_stats is set.
  std::unordered_map<const PlanNode*, PlanNodeStats> per_node;
};

/// Result of executing a plan: a relation for relational roots, a scalar
/// count or a roll-up for aggregate roots.
struct PlanOutput {
  std::optional<HierarchicalRelation> relation;
  std::optional<size_t> count;
  std::optional<std::vector<RollUpRow>> rollup;
};

/// Executes an annotated plan against `db`. The tree must have been
/// annotated (AnnotatePlan / RewritePlan) since its last structural change.
Result<PlanOutput> ExecutePlan(const PlanNode& root, Database& db,
                               const ExecOptions& options = {},
                               ExecStats* stats = nullptr);

}  // namespace plan
}  // namespace hirel

#endif  // HIREL_PLAN_EXECUTE_H_
