#include "hql/printer.h"

namespace hirel {
namespace hql {

std::string HelpText() {
  return R"(HQL statements (';'-terminated, '--' starts a comment):

  schema
    CREATE HIERARCHY h;
    CREATE CLASS c IN h [UNDER p1, p2, ...];
    CREATE INSTANCE v IN h [UNDER p1, ...];      -- v: name, 'string', or number
    CONNECT parent TO child IN h;                -- extra subsumption edge
    PREFER stronger OVER weaker IN h;            -- preference edge (appendix)
    CREATE RELATION r (attr: h, ...);

  facts
    ASSERT r(term, ...);                         -- positive tuple
    DENY r(term, ...);                           -- negated tuple (exception)
    RETRACT r(term, ...);                        -- remove a tuple
      term := ALL class | name | 'string' | 42 | 3.5
    BEGIN r; ... COMMIT;                         -- stage facts, check once
    ABORT;                                       -- discard staged facts

  queries
    SELECT * FROM r [WHERE attr = term];
    SELECT * FROM r JOIN s [WHERE attr = term];  -- also UNION / INTERSECT / EXCEPT
    EXPLAIN PLAN query;                          -- optimized plan, no execution
    EXPLAIN ANALYZE query;                       -- plan + actual rows/time/probes
    EXPLAIN r(term, ...);                        -- justification (Fig. 9)
    EXTENSION r;                                 -- equivalent flat relation
    EXPLICATE r [ON (attr, ...)];
    CONSOLIDATE r;                               -- drop redundant tuples
    COUNT r [BY attr];                           -- extension statistics
    COMPRESS r;                                  -- re-encode minimally
    SET PREEMPTION offpath;                      -- or onpath / none
    SET THREADS 4;                               -- parallel kernels; 0 = auto, 1 = serial

  rules (Datalog layer)
    RULE 'head(?x) :- body(?x), not other(?x).';
    DERIVE;                                      -- evaluate to fixpoint
    SHOW RULES;

  derived relations
    CREATE RELATION x AS a UNION b;              -- also INTERSECT / EXCEPT / JOIN
    CREATE RELATION x AS PROJECT r ON (attr, ...);

  catalog
    SHOW HIERARCHIES; SHOW RELATIONS;
    SHOW SUBSUMPTION r;                          -- Fig. 6a construction
    SHOW BINDING r(term, ...);                   -- Fig. 1d construction
    DROP CLASS c IN h; DROP INSTANCE v IN h;     -- node elimination
    SHOW HIERARCHY h; SHOW RELATION r;
    DROP HIERARCHY h; DROP RELATION r;
    SAVE 'path'; LOAD 'path';
    HELP;

  observability (SHOW X [JSON] prints the rows of sys.x, see below)
    SHOW METRICS [JSON | PROMETHEUS];            -- engine counters/histograms
    SHOW QUERIES [JSON];                         -- per-query history ring, newest first
    SHOW TRACE [JSON];                           -- last query's span tree
    SHOW LOG [JSON];                             -- in-memory event log
    SET LOG debug|info|warn|error|off;           -- logger minimum level
    SET SLOW_QUERY_MS n;                         -- log statements >= n ms (OFF to disable)
    SET TELEMETRY ON|OFF|INTERVAL n|TICK;        -- background metric sampler (TICK = one sample now)
    SHOW TELEMETRY [JSON];                       -- one row per sampled series
    CREATE ALERT a ON metric > n [FOR k SAMPLES] [SEVERITY info|warn|crit];
                                                 -- rule evaluated on every telemetry tick (> < >= <= =)
    DROP ALERT a;                                -- remove a user rule (watchdog rules refuse)
    SHOW ALERTS [JSON];                          -- every rule and its live state
    SHOW HEALTH [JSON];                          -- per-component verdict from the firing set
    SHOW WAITS [JSON];                           -- wait sites by class with p50/p90/p99
    SET WATCHDOG_QUERY_MS n;                     -- slow-query watchdog budget (OFF to disable)
    SET DIAGNOSTICS_DIR 'dir';                   -- auto-capture a bundle per alert fire (OFF to disable)
    EXPORT DIAGNOSTICS 'file.json';              -- one-shot bundle: config plus the rows of
                                                 -- every sys.* relation
    EXPORT TRACE 'file.json';                    -- Chrome trace-event JSON (incl. wait spans)
    RESET METRICS;                               -- zero every metric and wait aggregate

  system catalog (read-only virtual relations; SELECT/JOIN like any other)
    sys.metrics    -- every counter/gauge/histogram (and the telemetry.*,
                   -- log.dropped, exec.threads gauges); name is hierarchical,
                   -- so SELECT ... WHERE name = ALL pool covers the subtree
    sys.log        -- event-log ring; severity hierarchy debug>info>warn>error
    sys.relations  -- stored + virtual relations with tuples, chunks and bytes
    sys.columns    -- per-column byte breakdown of every stored relation
    sys.cache      -- subsumption-cache entries with version stamps
    sys.pool       -- per-thread busy time
    sys.queries    -- per-query accounting (ok, wall, wait, rows, probes, peak bytes)
    sys.waits      -- wait-event aggregates; site hierarchy classed by
                   -- cpu_queue/latch/lock/io, so WHERE site = ALL latch works
    sys.telemetry  -- per sampled series: last, min, max, samples, rate_per_s
    sys.metrics_history -- the telemetry sampler's rings; name shares the
                   -- sys.metrics hierarchy, so WHERE name = ALL pool works
    sys.alerts     -- alert rules + state; severity chain info>warn>crit,
                   -- so WHERE severity = ALL warn covers warn and crit
    sys.health     -- overall verdict, then one per component
                   -- (pool/wal/cache/queries/telemetry)
)";
}

std::string Banner() {
  return
      "hirel shell — hierarchical relational model "
      "(Jagadish, SIGMOD 1989)\n"
      "type HELP; for the statement list, or Ctrl-D to exit.\n";
}

}  // namespace hql
}  // namespace hirel
