#include "obs/sys_catalog.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "io/text_dump.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/wait.h"

namespace hirel {
namespace obs {
namespace {

/// The hidden hierarchies shared by every provider: one per semantic
/// domain, so attributes with the same name across sys relations range
/// over the same hierarchy and natural joins stay well-typed.
struct SysDomains {
  Hierarchy* label = nullptr;     // sys.label: names, kinds, buckets, ...
  Hierarchy* metric = nullptr;    // sys.metric: dotted metric-name tree
  Hierarchy* severity = nullptr;  // sys.severity: debug ⊃ info ⊃ warn ⊃ error
  Hierarchy* num = nullptr;       // sys.num: interned measures
  Hierarchy* text = nullptr;      // sys.text: free-form strings
  Hierarchy* waitsite = nullptr;  // sys.waitsite: wait class ⊃ wait site
  Hierarchy* alertsev = nullptr;  // sys.alertsev: info ⊃ warn ⊃ crit
};

Value Num(uint64_t v) { return Value::Int(static_cast<int64_t>(v)); }
Value Str(std::string s) { return Value::String(std::move(s)); }

/// Interns a metric name into the metric-name hierarchy: one class per
/// dotted prefix ("pool", "pool.thread0"), the full name as an instance
/// under the deepest prefix. `ALL pool` then covers the pool.* subtree.
NodeId InternMetricName(Hierarchy& h, const std::string& name) {
  NodeId parent = h.root();
  size_t pos = 0;
  for (size_t dot = name.find('.'); dot != std::string::npos;
       dot = name.find('.', pos)) {
    std::string prefix = name.substr(0, dot);
    Result<NodeId> cls = h.FindClass(prefix);
    if (cls.ok()) {
      parent = *cls;
    } else {
      Result<NodeId> added = h.AddClass(prefix, parent);
      if (!added.ok()) break;  // unreachable: names are prefix-unique
      parent = *added;
    }
    pos = dot + 1;
  }
  Result<NodeId> instance = h.FindInstance(Value::String(name));
  if (instance.ok()) return *instance;
  Result<NodeId> added = h.AddInstance(Value::String(name), parent);
  return added.ok() ? *added : h.Intern(Value::String(name));
}

/// Interns a wait site under its wait-class class node (added at
/// registration), so `ALL latch` covers every latch site.
NodeId InternWaitSite(Hierarchy& h, const std::string& cls,
                      const std::string& site) {
  NodeId parent = h.root();
  Result<NodeId> cls_node = h.FindClass(cls);
  if (cls_node.ok()) parent = *cls_node;
  Result<NodeId> instance = h.FindInstance(Value::String(site));
  if (instance.ok()) return *instance;
  Result<NodeId> added = h.AddInstance(Value::String(site), parent);
  return added.ok() ? *added : h.Intern(Value::String(site));
}

/// Common shape of a provider: fixed name + schema, and one row source,
/// Rows(). Interning lives here: RefreshDomains and Materialize are the
/// two loops over Rows() that map values to hierarchy nodes.
class SysProviderBase : public VirtualRelationProvider {
 public:
  SysProviderBase(std::string name, Schema schema, SysDomains domains)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        domains_(domains) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  size_t EstimatedRows() override { return Rows().size(); }

  void RefreshDomains() override {
    for (const VirtualRow& row : Rows()) {
      for (size_t c = 0; c < row.size(); ++c) Intern(row, c);
    }
  }

  Result<HierarchicalRelation> Materialize() override {
    HierarchicalRelation rel(name_, schema_);
    for (const VirtualRow& row : Rows()) {
      Item item(row.size());
      for (size_t c = 0; c < row.size(); ++c) item[c] = Intern(row, c);
      HIREL_RETURN_IF_ERROR(
          rel.Upsert(std::move(item), Truth::kPositive).status());
    }
    return rel;
  }

 private:
  /// The node for column `c` of `row`. Metric names and wait sites keep
  /// their class structure; every other value (severities included,
  /// whose chain instances exist from registration) interns flat.
  NodeId Intern(const VirtualRow& row, size_t c) {
    Hierarchy& h = *schema_.hierarchy(c);
    const Value& value = row[c];
    if (&h == domains_.metric) return InternMetricName(h, value.AsString());
    if (&h == domains_.waitsite) {
      // A site interns under the class its row names in wait_class.
      const Value& cls = row[schema_.IndexOf("wait_class").value()];
      return InternWaitSite(h, cls.AsString(), value.AsString());
    }
    return h.Intern(value);
  }

  std::string name_;
  Schema schema_;
  SysDomains domains_;
};

/// Provider whose rows are produced by a callable, for the relations
/// whose row source needs no state beyond what the callable captures.
template <typename RowSource>
class SysProvider : public SysProviderBase {
 public:
  SysProvider(std::string name, Schema schema, SysDomains domains,
              RowSource rows)
      : SysProviderBase(std::move(name), std::move(schema), domains),
        rows_(std::move(rows)) {}

  std::vector<VirtualRow> Rows() override { return rows_(); }

 private:
  RowSource rows_;
};

// ----- row sources -----------------------------------------------------------

std::vector<VirtualRow> MetricsRows(const Database& db,
                                    const SysSources& sources) {
  SyncEngineGauges(db, sources);
  const MetricsRegistry& m = db.metrics();
  std::vector<VirtualRow> rows;
  auto add = [&](const std::string& name, const char* kind, Value value,
                 std::string bucket) {
    rows.push_back({Str(name), Str(kind), std::move(value),
                    Str(std::move(bucket))});
  };
  for (const auto& [name, c] : m.counters()) {
    add(name, "counter", Num(c->value()), "-");
  }
  for (const auto& [name, g] : m.gauges()) {
    add(name, "gauge", Value::Int(g->value()), "-");
  }
  for (const auto& [name, h] : m.histograms()) {
    add(name, "histogram", Num(h->count()), "count");
    add(name, "histogram", Num(h->sum_ns()), "sum_ns");
    add(name, "histogram", Num(h->max_ns()), "max_ns");
    if (h->count() > 0) {
      add(name, "histogram", Num(h->QuantileNs(0.5)), "p50_ns");
      add(name, "histogram", Num(h->QuantileNs(0.9)), "p90_ns");
      add(name, "histogram", Num(h->QuantileNs(0.99)), "p99_ns");
    }
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (h->bucket(i) == 0) continue;
      uint64_t bound = Histogram::BucketBound(i);
      add(name, "histogram", Num(h->bucket(i)),
          bound > 0 ? StrCat("le_", bound, "_ns") : std::string("overflow"));
    }
  }
  return rows;
}

std::vector<VirtualRow> LogRows() {
  std::vector<VirtualRow> rows;
  for (const LogEvent& event : Logger::Global().ring().Snapshot()) {
    std::string message;
    for (const auto& [key, value] : event.fields) {
      if (!message.empty()) message += ' ';
      message += StrCat(key, "=", value);
    }
    rows.push_back({Num(event.seq), Num(event.unix_micros),
                    Str(LogLevelName(event.level)), Str(event.component),
                    Str(event.event), Str(std::move(message))});
  }
  return rows;
}

std::vector<VirtualRow> RelationsRows(const Database& db) {
  std::vector<VirtualRow> rows;
  for (const std::string& stored : db.RelationNames()) {
    Result<const HierarchicalRelation*> r = db.GetRelation(stored);
    if (!r.ok()) continue;
    rows.push_back({Str(stored), Num((*r)->size()), Num((*r)->num_chunks()),
                    Num((*r)->ApproxBytes())});
  }
  for (const std::string& name : db.VirtualRelationNames()) {
    VirtualRelationProvider* provider = db.FindVirtualRelation(name);
    if (provider == nullptr) continue;
    rows.push_back({Str(name), Num(provider->EstimatedRows()), Num(0),
                    Num(0)});
  }
  return rows;
}

/// sys.relations counts every virtual relation's rows, its own included,
/// so its own estimate must not recurse into Rows().
class SysRelationsProvider : public SysProviderBase {
 public:
  SysRelationsProvider(std::string name, Schema schema, SysDomains domains,
                       const Database* db)
      : SysProviderBase(std::move(name), std::move(schema), domains),
        db_(db) {}

  std::vector<VirtualRow> Rows() override { return RelationsRows(*db_); }
  size_t EstimatedRows() override {
    return db_->RelationNames().size() + db_->VirtualRelationNames().size();
  }

 private:
  const Database* db_;
};

std::vector<VirtualRow> ColumnsRows(const Database& db) {
  std::vector<VirtualRow> rows;
  for (const std::string& stored : db.RelationNames()) {
    Result<const HierarchicalRelation*> r = db.GetRelation(stored);
    if (!r.ok()) continue;
    for (const StorageColumnInfo& col : (*r)->ColumnInfo()) {
      rows.push_back({Str(stored), Str(col.name), Num(col.bytes)});
    }
  }
  return rows;
}

std::vector<VirtualRow> CacheRows(const Database& db) {
  std::vector<VirtualRow> rows;
  for (const SubsumptionCache::EntryInfo& entry :
       db.subsumption_cache().Entries()) {
    rows.push_back({Str(entry.relation), Num(entry.relation_version),
                    Num(entry.graph_nodes), Num(entry.patches),
                    Num(entry.rebuilds)});
  }
  return rows;
}

std::vector<VirtualRow> PoolRows() {
  std::vector<VirtualRow> rows;
  ThreadPool::Stats stats = ThreadPool::Shared().GetStats();
  for (size_t i = 0; i < stats.per_thread_busy_ns.size(); ++i) {
    rows.push_back(
        {Str(i == 0 ? std::string("caller") : StrCat("worker", i - 1)),
         Num(stats.per_thread_busy_ns[i] / 1'000'000)});
  }
  return rows;
}

std::vector<VirtualRow> QueriesRows(const QueryHistoryRing* history) {
  std::vector<VirtualRow> rows;
  if (history == nullptr) return rows;
  std::vector<std::shared_ptr<const QueryStats>> entries =
      history->Snapshot();
  // Newest first: the most recent statement is the one being debugged.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const QueryStats& q = **it;
    rows.push_back({Num(q.id), Str(q.kind), Str(q.statement),
                    Value::Bool(q.ok), Num(q.wall_ns / 1000),
                    Num(q.wait_ns / 1000), Num(q.rows_in), Num(q.rows_out),
                    Num(q.subsumption_probes), Num(q.peak_tracked_bytes),
                    Str(q.plan_digest.empty() ? "-" : q.plan_digest),
                    Num(q.threads)});
  }
  return rows;
}

std::vector<VirtualRow> WaitsRows() {
  std::vector<VirtualRow> rows;
  const std::vector<WaitEventRegistry::SiteSnapshot> sites =
      WaitEventRegistry::Global().Snapshot();
  for (size_t cls = 0; cls < kNumWaitClasses; ++cls) {
    for (const auto& site : sites) {
      // Never-hit sites stay invisible.
      if (static_cast<size_t>(site.cls) != cls || site.count == 0) continue;
      auto quantile_us = [&](double q) {
        return Num(WaitEventRegistry::SiteQuantileNs(site, q) / 1000);
      };
      rows.push_back({Str(site.name), Str(WaitClassName(site.cls)),
                      Num(site.count), Num(site.total_ns / 1000),
                      Num(site.max_ns / 1000), quantile_us(0.5),
                      quantile_us(0.9), quantile_us(0.99)});
    }
  }
  return rows;
}

/// Value change per second between the oldest and newest retained
/// samples (0 with fewer than two). Meaningful for counters; gauges
/// report the same delta/dt, signed.
double RatePerS(const TelemetrySampler::SeriesSnapshot& s) {
  if (s.samples.size() < 2) return 0.0;
  const auto& first = s.samples.front();
  const auto& last = s.samples.back();
  if (last.ts_ms <= first.ts_ms) return 0.0;
  return (static_cast<double>(static_cast<int64_t>(last.value)) -
          static_cast<double>(static_cast<int64_t>(first.value))) *
         1000.0 / static_cast<double>(last.ts_ms - first.ts_ms);
}

const char* SeriesKindName(char kind) {
  switch (kind) {
    case 'g':
      return "gauge";
    case 'h':
      return "histogram";
    default:
      return "counter";
  }
}

std::vector<VirtualRow> TelemetryRows(const TelemetrySampler* telemetry) {
  std::vector<VirtualRow> rows;
  if (telemetry == nullptr) return rows;
  for (const auto& s : telemetry->Snapshot()) {
    rows.push_back({Str(s.name), Str(SeriesKindName(s.kind)),
                    Value::Int(static_cast<int64_t>(s.last)),
                    Value::Int(static_cast<int64_t>(s.min)),
                    Value::Int(static_cast<int64_t>(s.max)),
                    Num(s.samples.size()), Value::Double(RatePerS(s))});
  }
  return rows;
}

std::vector<VirtualRow> MetricsHistoryRows(
    const TelemetrySampler* telemetry) {
  std::vector<VirtualRow> rows;
  if (telemetry == nullptr) return rows;
  for (const auto& series : telemetry->Snapshot()) {
    for (const auto& sample : series.samples) {
      rows.push_back({Str(series.name), Num(sample.seq), Num(sample.ts_ms),
                      Num(sample.epoch_ms), Num(sample.value)});
    }
  }
  return rows;
}

std::vector<VirtualRow> AlertsRows(const AlertManager* alerts) {
  std::vector<VirtualRow> rows;
  if (alerts == nullptr) return rows;
  for (const AlertSnapshot& a : alerts->Snapshot()) {
    rows.push_back({Str(a.rule.name), Str(AlertSeverityName(a.rule.severity)),
                    Str(AlertStateName(a.state)), Str(a.rule.metric),
                    Str(AlertOpText(a.rule.op)), Value::Int(a.rule.threshold),
                    Num(a.rule.for_samples), Value::Bool(a.rule.builtin),
                    a.has_value ? Value::Int(a.last_value) : Str("-"),
                    Num(a.consecutive), Num(a.fires), Num(a.fired_seq),
                    Num(a.fired_epoch_ms), Num(a.resolved_seq)});
  }
  return rows;
}

std::vector<VirtualRow> HealthRows(const AlertManager* alerts) {
  std::vector<VirtualRow> rows;
  if (alerts == nullptr) return rows;
  const std::vector<ComponentHealth> health = DeriveHealth(alerts->Snapshot());
  // The overall verdict is the worst component's, naming its worst alert.
  ComponentHealth overall;
  overall.component = "overall";
  for (const ComponentHealth& c : health) {
    overall.firing += c.firing;
    if (c.verdict > overall.verdict) {
      overall.verdict = c.verdict;
      overall.worst_alert = c.worst_alert;
    }
  }
  auto add = [&](const ComponentHealth& c) {
    rows.push_back({Str(c.component), Str(HealthVerdictName(c.verdict)),
                    Num(c.firing),
                    Str(c.worst_alert.empty() ? "-" : c.worst_alert)});
  };
  add(overall);
  for (const ComponentHealth& c : health) add(c);
  return rows;
}

Schema MakeSchema(
    std::initializer_list<std::pair<const char*, Hierarchy*>> attrs) {
  Schema schema;
  for (const auto& [attr, hierarchy] : attrs) {
    // Append only fails on duplicate names, which the literals below never
    // produce.
    (void)schema.Append(attr, hierarchy);
  }
  return schema;
}

/// Adds a chain of classes from general to specific, each holding its own
/// level as an instance, so `ALL <level>` covers that level and every
/// more specific one.
void AddSeverityChain(Hierarchy& h, std::initializer_list<const char*> levels) {
  NodeId parent = h.root();
  for (const char* level : levels) {
    Result<NodeId> cls = h.AddClass(level, parent);
    if (!cls.ok()) break;  // unreachable: fresh hierarchy
    (void)h.AddInstance(Value::String(level), *cls);
    parent = *cls;
  }
}

void AppendJsonValue(std::string& out, const Value& value) {
  switch (value.type()) {
    case ValueType::kString:
      AppendJsonString(out, value.AsString());
      return;
    case ValueType::kDouble:
      out += std::isfinite(value.AsDouble()) ? value.ToString() : "null";
      return;
    default:  // ints, booleans and null print as their JSON literals
      out += value.ToString();
  }
}

void AppendRowsJson(std::string& out, VirtualRelationProvider& provider) {
  const Schema& schema = provider.schema();
  out += '[';
  bool first_row = true;
  for (const VirtualRow& row : provider.Rows()) {
    if (!first_row) out += ',';
    first_row = false;
    out += '{';
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      AppendJsonString(out, schema.name(c));
      out += ':';
      AppendJsonValue(out, row[c]);
    }
    out += '}';
  }
  out += ']';
}

}  // namespace

void RegisterSystemCatalog(Database& db, const SysSources& sources) {
  SysDomains d;
  d.label = db.AddSysHierarchy("sys.label");
  d.metric = db.AddSysHierarchy("sys.metric");
  d.severity = db.AddSysHierarchy("sys.severity");
  d.num = db.AddSysHierarchy("sys.num");
  d.text = db.AddSysHierarchy("sys.text");
  d.waitsite = db.AddSysHierarchy("sys.waitsite");
  d.alertsev = db.AddSysHierarchy("sys.alertsev");

  AddSeverityChain(*d.severity, {"debug", "info", "warn", "error"});
  AddSeverityChain(*d.alertsev, {"info", "warn", "crit"});
  // Wait classes: flat classes under the root; sites intern as instances
  // beneath their class, so `ALL io` covers every io site.
  for (size_t i = 0; i < kNumWaitClasses; ++i) {
    (void)d.waitsite->AddClass(WaitClassName(static_cast<WaitClass>(i)),
                               d.waitsite->root());
  }
  // States and verdicts that have not occurred yet still resolve in WHERE
  // terms.
  for (AlertState s : {AlertState::kOk, AlertState::kPending,
                       AlertState::kFiring, AlertState::kResolved}) {
    d.label->Intern(Value::String(AlertStateName(s)));
  }
  for (HealthVerdict v : {HealthVerdict::kOk, HealthVerdict::kDegraded,
                          HealthVerdict::kCritical}) {
    d.label->Intern(Value::String(HealthVerdictName(v)));
  }

  auto add = [&](const char* name, Schema schema, auto rows) {
    (void)db.RegisterVirtualRelation(
        std::make_unique<SysProvider<decltype(rows)>>(name, std::move(schema),
                                                      d, std::move(rows)));
  };
  const Database* dbp = &db;
  add("sys.metrics",
      MakeSchema({{"name", d.metric},
                  {"kind", d.label},
                  {"value", d.num},
                  {"bucket", d.label}}),
      [dbp, sources] { return MetricsRows(*dbp, sources); });
  add("sys.log",
      MakeSchema({{"seq", d.num},
                  {"ts_us", d.num},
                  {"level", d.severity},
                  {"component", d.label},
                  {"event", d.label},
                  {"message", d.text}}),
      [] { return LogRows(); });
  (void)db.RegisterVirtualRelation(std::make_unique<SysRelationsProvider>(
      "sys.relations",
      MakeSchema({{"relation", d.label},
                  {"tuples", d.num},
                  {"chunks", d.num},
                  {"bytes", d.num}}),
      d, dbp));
  add("sys.columns",
      MakeSchema({{"relation", d.label},
                  {"column", d.label},
                  {"col_bytes", d.num}}),
      [dbp] { return ColumnsRows(*dbp); });
  add("sys.cache",
      MakeSchema({{"relation", d.label},
                  {"version", d.num},
                  {"graph_nodes", d.num},
                  {"patched", d.num},
                  {"rebuilt", d.num}}),
      [dbp] { return CacheRows(*dbp); });
  add("sys.pool", MakeSchema({{"thread", d.label}, {"busy_ms", d.num}}),
      [] { return PoolRows(); });
  add("sys.queries",
      MakeSchema({{"id", d.num},
                  {"kind", d.label},
                  {"statement", d.text},
                  {"ok", d.label},
                  {"wall_us", d.num},
                  {"wait_us", d.num},
                  {"rows_in", d.num},
                  {"rows_out", d.num},
                  {"probes", d.num},
                  {"peak_bytes", d.num},
                  {"digest", d.label},
                  {"threads", d.num}}),
      [history = sources.history] { return QueriesRows(history); });
  add("sys.waits",
      MakeSchema({{"site", d.waitsite},
                  {"wait_class", d.label},
                  {"waits", d.num},
                  {"total_us", d.num},
                  {"max_us", d.num},
                  {"p50_us", d.num},
                  {"p90_us", d.num},
                  {"p99_us", d.num}}),
      [] { return WaitsRows(); });
  add("sys.telemetry",
      MakeSchema({{"name", d.metric},
                  {"kind", d.label},
                  {"last", d.num},
                  {"min", d.num},
                  {"max", d.num},
                  {"samples", d.num},
                  {"rate_per_s", d.num}}),
      [telemetry = sources.telemetry] { return TelemetryRows(telemetry); });
  add("sys.metrics_history",
      MakeSchema({{"name", d.metric},
                  {"seq", d.num},
                  {"ts_ms", d.num},
                  {"epoch_ms", d.num},
                  {"value", d.num}}),
      [telemetry = sources.telemetry] {
        return MetricsHistoryRows(telemetry);
      });
  add("sys.alerts",
      MakeSchema({{"alert", d.label},
                  {"severity", d.alertsev},
                  {"state", d.label},
                  {"metric", d.metric},
                  {"op", d.label},
                  {"threshold", d.num},
                  {"for_samples", d.num},
                  {"builtin", d.label},
                  {"value", d.num},
                  {"consecutive", d.num},
                  {"fires", d.num},
                  {"fired_seq", d.num},
                  {"fired_epoch_ms", d.num},
                  {"resolved_seq", d.num}}),
      [alerts = sources.alerts] { return AlertsRows(alerts); });
  add("sys.health",
      MakeSchema({{"component", d.label},
                  {"verdict", d.label},
                  {"firing", d.num},
                  {"worst_alert", d.label}}),
      [alerts = sources.alerts] { return HealthRows(alerts); });
}

void SyncEngineGauges(const Database& db, const SysSources& sources) {
  MetricsRegistry& m = db.metrics();
  const SubsumptionCache& cache = db.subsumption_cache();
  m.gauge("subsumption_cache.hits")
      .Set(static_cast<int64_t>(cache.stats().hits));
  m.gauge("subsumption_cache.misses")
      .Set(static_cast<int64_t>(cache.stats().misses));
  m.gauge("subsumption_cache.invalidations")
      .Set(static_cast<int64_t>(cache.stats().invalidations));
  m.gauge("subsumption_cache.entries")
      .Set(static_cast<int64_t>(cache.size()));
  // Incremental-maintenance split of the miss count: patched in place vs
  // rebuilt from scratch, and how often the mutation journal had already
  // wrapped (forcing a rebuild).
  m.gauge("cache.patched").Set(static_cast<int64_t>(cache.stats().patches));
  m.gauge("cache.rebuilt").Set(static_cast<int64_t>(cache.stats().rebuilds));
  m.gauge("cache.journal_overflows")
      .Set(static_cast<int64_t>(cache.stats().journal_overflows));
  ThreadPool::Stats pool = ThreadPool::Shared().GetStats();
  m.gauge("pool.workers").Set(static_cast<int64_t>(pool.workers));
  m.gauge("pool.regions").Set(static_cast<int64_t>(pool.regions));
  m.gauge("pool.tasks_run").Set(static_cast<int64_t>(pool.tasks_run));
  m.gauge("pool.steals").Set(static_cast<int64_t>(pool.steals));
  m.gauge("pool.max_queue_depth")
      .Set(static_cast<int64_t>(pool.max_queue_depth));
  m.gauge("pool.busy_ms")
      .Set(static_cast<int64_t>(pool.busy_ns / 1'000'000));
  m.gauge("pool.queue_depth")
      .Set(static_cast<int64_t>(pool.queue_depth));
  for (size_t i = 0; i < pool.per_thread_busy_ns.size(); ++i) {
    m.gauge(StrCat("pool.thread", i, ".busy_ms"))
        .Set(static_cast<int64_t>(pool.per_thread_busy_ns[i] / 1'000'000));
  }
  // Per-class wait-event totals (the coarse rollup of sys.waits), so the
  // metric surface — and with it the telemetry sampler — sees where the
  // engine blocks.
  const std::array<WaitEventRegistry::ClassTotals, kNumWaitClasses>
      wait_totals = WaitEventRegistry::Global().PerClass();
  for (size_t i = 0; i < wait_totals.size(); ++i) {
    const char* cls = WaitClassName(static_cast<WaitClass>(i));
    m.gauge(StrCat("waits.", cls, ".count"))
        .Set(static_cast<int64_t>(wait_totals[i].count));
    m.gauge(StrCat("waits.", cls, ".ms"))
        .Set(static_cast<int64_t>(wait_totals[i].total_ns / 1'000'000));
  }
  m.gauge("log.dropped")
      .Set(static_cast<int64_t>(Logger::Global().ring().dropped()));
  if (sources.threads != nullptr) {
    m.gauge("exec.threads").Set(static_cast<int64_t>(*sources.threads));
  }
  if (const TelemetrySampler* t = sources.telemetry; t != nullptr) {
    m.gauge("telemetry.on").Set(t->running() ? 1 : 0);
    m.gauge("telemetry.interval_ms")
        .Set(static_cast<int64_t>(t->interval_ms()));
    m.gauge("telemetry.ticks").Set(static_cast<int64_t>(t->ticks()));
    m.gauge("telemetry.ring_capacity")
        .Set(static_cast<int64_t>(t->ring_capacity()));
  }
  UpdateProcessGauges(m);
}

std::string RowsText(VirtualRelationProvider& provider) {
  const Schema& schema = provider.schema();
  std::vector<std::string> header;
  for (size_t c = 0; c < schema.size(); ++c) header.push_back(schema.name(c));
  std::vector<std::vector<std::string>> cells;
  for (const VirtualRow& row : provider.Rows()) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (const Value& value : row) line.push_back(value.ToString());
    cells.push_back(std::move(line));
  }
  return FormatTable(StrCat(provider.name(), " (", cells.size(), " rows)"),
                     header, cells);
}

std::string RowsJson(VirtualRelationProvider& provider) {
  std::string out;
  AppendRowsJson(out, provider);
  return out;
}

std::string DiagnosticsJson(
    const Database& db, std::string_view cause,
    const std::vector<std::pair<std::string, std::string>>& config) {
  const uint64_t now_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::string out =
      StrCat("{\"format\":2,\"engine\":\"hirel\",\"captured_unix_ms\":",
             now_ms, ",\"cause\":");
  AppendJsonString(out, cause);
  out += ",\"config\":{";
  for (size_t i = 0; i < config.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(out, config[i].first);
    out += ":";
    AppendJsonString(out, config[i].second);
  }
  out += "}";
  for (const std::string& name : db.VirtualRelationNames()) {
    out += ",";
    AppendJsonString(out, name);
    out += ":";
    AppendRowsJson(out, *db.FindVirtualRelation(name));
  }
  out += "}";
  return out;
}

}  // namespace obs
}  // namespace hirel
