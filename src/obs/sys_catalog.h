// The sys.* system catalog: the engine's observability data exposed as
// virtual hierarchical relations, queryable with the same SELECT /
// PROJECT / JOIN / subsumption machinery as user data. The relations are
// the single source of truth for engine state: SHOW, SHOW ... JSON and
// EXPORT DIAGNOSTICS render their rows (RowsText / RowsJson /
// DiagnosticsJson below) and add nothing of their own.
//
// Relations (all read-only; rows listed in display order):
//
//   sys.metrics    (name, kind, value, bucket)   metric registry, counters
//                  then gauges then histograms, each by name; names live
//                  in a metric-name hierarchy built from their dotted
//                  prefixes, so `WHERE name = ALL pool` selects the whole
//                  pool.* subtree. Histograms explode into one row per
//                  count/sum_ns/max_ns/p50_ns/p90_ns/p99_ns plus each
//                  non-empty bucket. Session state rides along as gauges:
//                  exec.threads, telemetry.{on,interval_ms,ticks,
//                  ring_capacity} and log.dropped.
//   sys.log        (seq, ts_us, level, component, event, message)   the
//                  event ring, oldest first; message is the event's
//                  "key=value" fields. Levels form the severity hierarchy
//                  debug ⊃ info ⊃ warn ⊃ error, so `WHERE level = ALL
//                  warn` returns every event covered by warn.
//   sys.relations  (relation, tuples, chunks, bytes)   stored relations,
//                  then the virtual ones (no chunks, no bytes).
//   sys.columns    (relation, column, col_bytes)   per-column byte
//                  breakdown of every stored relation.
//   sys.cache      (relation, version, graph_nodes, rebuilt)
//                  SubsumptionCache entries with their version stamps.
//   sys.pool       (thread, busy_ms)   per-thread busy time of the shared
//                  worker pool ("caller", "worker0", ...).
//   sys.queries    (id, kind, statement, ok, wall_us, wait_us, rows_in,
//                  rows_out, probes, peak_bytes, digest, threads)
//                  the executor's bounded query-history ring, newest
//                  first; wait_us is the attributed wait share of wall_us.
//   sys.waits      (site, wait_class, waits, total_us, max_us, p50_us,
//                  p90_us, p99_us)   wait-event aggregates grouped by
//                  class; sites live in a hierarchy whose classes are the
//                  wait classes (cpu_queue, latch, lock, io), so `WHERE
//                  site = ALL latch` selects every latch site.
//   sys.telemetry  (name, kind, last, min, max, samples, rate_per_s)   one
//                  row per sampled series; rate_per_s is the value change
//                  per second across the retained samples.
//   sys.metrics_history  (name, seq, ts_ms, epoch_ms, value)   the
//                  TelemetrySampler rings; `name` shares the sys.metrics
//                  dotted-name hierarchy.
//   sys.alerts     (alert, severity, state, metric, op, threshold,
//                  for_samples, builtin, value, consecutive, fires,
//                  fired_seq, fired_epoch_ms, resolved_seq)   every alert
//                  rule (built-in watchdog first) with its live state;
//                  value is "-" before the first sample. Severities form
//                  the chain info ⊃ warn ⊃ crit.
//   sys.health     (component, verdict, firing, worst_alert)   an
//                  "overall" row, then one verdict per engine component
//                  (pool, wal, cache, queries, telemetry) derived from the
//                  firing alerts.
//
// Backing hierarchies are hidden system hierarchies (Database::
// AddSysHierarchy): shared across providers per semantic domain, so
// natural joins between sys relations (e.g. sys.relations JOIN
// sys.columns on `relation`) are well-typed. They never appear in SHOW
// HIERARCHIES or snapshots, and results derived from sys.* relations
// cannot be adopted into the stored catalog. Only plan scans intern into
// them; rendering does not.

#ifndef HIREL_OBS_SYS_CATALOG_H_
#define HIREL_OBS_SYS_CATALOG_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/database.h"
#include "obs/alerts.h"
#include "obs/query_stats.h"
#include "obs/telemetry.h"

namespace hirel {
namespace obs {

/// The session state behind the executor-scoped relations. Null members
/// render empty; all must outlive the database's providers.
struct SysSources {
  const QueryHistoryRing* history = nullptr;    // sys.queries
  const TelemetrySampler* telemetry = nullptr;  // sys.telemetry, history
  const AlertManager* alerts = nullptr;         // sys.alerts, sys.health
  const size_t* threads = nullptr;              // exec.threads gauge
};

/// Registers every sys.* provider on `db`. Call again after replacing the
/// database (LOAD).
void RegisterSystemCatalog(Database& db, const SysSources& sources);

/// Refreshes the gauges derived from live structures — subsumption cache
/// stats, thread-pool state, wait-class totals, the log ring's drop
/// count, the process gauges, and whatever session state `sources`
/// names — so one scrape (sys.metrics, SHOW METRICS PROMETHEUS) reflects
/// current state.
void SyncEngineGauges(const Database& db, const SysSources& sources = {});

/// `provider`'s rows as a FormatTable text table titled
/// "<name> (<n> rows)".
std::string RowsText(VirtualRelationProvider& provider);

/// `provider`'s rows as a JSON array of objects keyed by column name:
/// ints and doubles print as numbers, booleans as true/false, strings
/// escaped.
std::string RowsJson(VirtualRelationProvider& provider);

/// The postmortem bundle behind EXPORT DIAGNOSTICS: {"format":2,
/// "engine", "captured_unix_ms", "cause", "config", then one RowsJson
/// array per registered sys.* relation, keyed by its name}. `cause` is
/// "statement" or "alert:<name>". Executor thread only: the metrics map
/// accessors are registering-thread only.
std::string DiagnosticsJson(
    const Database& db, std::string_view cause,
    const std::vector<std::pair<std::string, std::string>>& config);

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_SYS_CATALOG_H_
