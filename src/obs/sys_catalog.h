// The sys.* system catalog: the engine's observability data exposed as
// virtual hierarchical relations, queryable with the same SELECT /
// PROJECT / JOIN / subsumption machinery as user data.
//
// Relations (all read-only, materialized on scan):
//
//   sys.metrics    (name, kind, value, bucket)   metric registry; names
//                  live in a metric-name hierarchy built from their dotted
//                  prefixes, so `WHERE name = ALL pool` selects the whole
//                  pool.* subtree. Histograms explode into one row per
//                  count/sum_ns/max_ns plus each non-empty bucket.
//   sys.log        (seq, ts_us, level, component, message)   the event
//                  ring; levels form the severity hierarchy debug ⊃ info ⊃
//                  warn ⊃ error, so `WHERE level = ALL warn` returns every
//                  event covered by warn (warn and error).
//   sys.relations  (relation, storage, tuples, chunks, bytes)   stored and
//                  virtual relations (virtual rows have storage
//                  "virtual" and provider row-count hints).
//   sys.columns    (relation, column, col_bytes)   per-column byte
//                  breakdown of every stored relation.
//   sys.cache      (relation, version, graph_nodes)   SubsumptionCache
//                  entries with their version stamps.
//   sys.pool       (thread, busy_ms)   per-thread busy time of the shared
//                  worker pool ("caller", "worker0", ...).
//   sys.queries    (id, kind, statement, wall_us, wait_us, rows_in,
//                  rows_out, probes, peak_bytes, digest, threads)
//                  the executor's bounded query-history ring; wait_us is
//                  the attributed wait share of wall_us.
//   sys.waits      (site, wait_class, waits, total_us, max_us)   wait-event
//                  aggregates; sites live in a hierarchy whose classes are
//                  the wait classes (cpu_queue, latch, lock, io), so
//                  `WHERE site = ALL latch` selects every latch site.
//   sys.metrics_history  (name, seq, ts_ms, epoch_ms, value)   the
//                  TelemetrySampler rings (SET TELEMETRY ON); `name`
//                  shares the sys.metrics dotted-name hierarchy, so
//                  `WHERE name = ALL pool` selects a subtree's history by
//                  subsumption; epoch_ms is the wall clock of the sample.
//   sys.alerts     (alert, severity, state, metric, value, threshold,
//                  fires)   every alert rule (user + built-in watchdog)
//                  with its live state; severities form the chain info ⊃
//                  warn ⊃ crit, so `WHERE severity = ALL warn` selects
//                  warn and crit alerts by subsumption.
//   sys.health     (component, verdict, firing)   one verdict per engine
//                  component (pool, wal, cache, queries, telemetry)
//                  derived from the firing alerts.
//
// Backing hierarchies are hidden system hierarchies (Database::
// AddSysHierarchy): shared across providers per semantic domain, so
// natural joins between sys relations (e.g. sys.relations JOIN
// sys.columns on `relation`) are well-typed. They never appear in SHOW
// HIERARCHIES or snapshots, and results derived from sys.* relations
// cannot be adopted into the stored catalog.

#ifndef HIREL_OBS_SYS_CATALOG_H_
#define HIREL_OBS_SYS_CATALOG_H_

#include "catalog/database.h"
#include "obs/alerts.h"
#include "obs/query_stats.h"
#include "obs/telemetry.h"

namespace hirel {
namespace obs {

/// Registers every sys.* provider on `db`. `history` is the executor's
/// query-history ring behind sys.queries, `telemetry` its sampler behind
/// sys.metrics_history, and `alerts` its alert manager behind sys.alerts
/// and sys.health (null renders any of them empty); all must outlive the
/// database's providers. Call again after replacing the database (LOAD).
void RegisterSystemCatalog(Database& db, const QueryHistoryRing* history,
                           const TelemetrySampler* telemetry = nullptr,
                           const AlertManager* alerts = nullptr);

/// Refreshes the engine gauges derived from live structures — subsumption
/// cache stats, thread-pool state,
/// and the process gauges — so one rendering (SHOW METRICS) or scan
/// (sys.metrics) reflects current state. The executor adds its own
/// session gauges (exec.threads) on top.
void SyncEngineGauges(const Database& db);

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_SYS_CATALOG_H_
