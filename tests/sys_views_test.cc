// The SHOW views over sys.*: every SHOW alias X is `SHOW RELATION sys.X`,
// its text is the relation's rows through FormatTable, its JSON is one
// object per row keyed by the schema's column names, and neither SHOW nor
// EXPORT DIAGNOSTICS interns anything into the hidden sys.* hierarchies.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "catalog/virtual_relation.h"
#include "hierarchy/hierarchy.h"
#include "hql/executor.h"
#include "hql/parser.h"
#include "obs/sys_catalog.h"

namespace hirel {
namespace {

/// One parsed JSON scalar: 's' string (unescaped), 'n' number, 'b'
/// boolean, 'z' null; `text` is the literal as written (strings decoded).
struct JsonScalar {
  char kind = 'z';
  std::string text;
};
using JsonObject = std::vector<std::pair<std::string, JsonScalar>>;

/// A strict parser for the one shape the rows printer emits: an array of
/// flat objects, optionally followed by a newline.
class RowsJsonParser {
 public:
  explicit RowsJsonParser(std::string_view s) : s_(s) {}

  bool Parse(std::vector<JsonObject>* out) {
    if (!Eat('[')) return false;
    if (!Eat(']')) {
      do {
        JsonObject object;
        if (!Object(&object)) return false;
        out->push_back(std::move(object));
      } while (Eat(','));
      if (!Eat(']')) return false;
    }
    Eat('\n');
    return pos_ == s_.size();
  }

 private:
  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Object(JsonObject* object) {
    if (!Eat('{')) return false;
    if (Eat('}')) return true;
    do {
      std::string key;
      JsonScalar value;
      if (!String(&key) || !Eat(':') || !Scalar(&value)) return false;
      object->emplace_back(std::move(key), std::move(value));
    } while (Eat(','));
    return Eat('}');
  }

  bool Scalar(JsonScalar* value) {
    if (pos_ < s_.size() && s_[pos_] == '"') {
      value->kind = 's';
      return String(&value->text);
    }
    for (const char* literal : {"true", "false", "null"}) {
      if (s_.substr(pos_).starts_with(literal)) {
        value->kind = literal[0] == 'n' ? 'z' : 'b';
        value->text = literal;
        pos_ += value->text.size();
        return true;
      }
    }
    // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
    size_t start = pos_;
    Eat('-');
    if (!Digits()) return false;
    if (s_[start + (s_[start] == '-')] == '0' &&
        pos_ - start > 1u + (s_[start] == '-')) {
      return false;  // leading zero
    }
    if (Eat('.') && !Digits()) return false;
    if (Eat('e') || Eat('E')) {
      if (!Eat('+')) Eat('-');
      if (!Digits()) return false;
    }
    value->kind = 'n';
    value->text = std::string(s_.substr(start, pos_ - start));
    return true;
  }

  bool Digits() {
    size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // unescaped
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      switch (char e = s_[pos_++]) {
        case '"':
        case '\\':
        case '/':
          *out += e;
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = std::stoul(std::string(s_.substr(pos_, 4)),
                                     nullptr, 16);
          if (code >= 0x80) return false;  // the printer never emits these
          *out += static_cast<char>(code);
          pos_ += 4;
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

/// The JSON literal the rows printer must emit for `value`.
JsonScalar Expected(const Value& value) {
  switch (value.type()) {
    case ValueType::kString:
      return {'s', value.AsString()};
    case ValueType::kBool:
      return {'b', value.ToString()};
    default:
      return {'n', value.ToString()};
  }
}

/// A one-row relation whose only value is a double that needs more than
/// six significant digits.
class OneDoubleProvider : public VirtualRelationProvider {
 public:
  explicit OneDoubleProvider(Hierarchy* domain) {
    EXPECT_TRUE(schema_.Append("rate_per_s", domain).ok());
  }
  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  std::vector<VirtualRow> Rows() override {
    return {{Value::Double(1234567.25)}};
  }
  void RefreshDomains() override {}
  size_t EstimatedRows() override { return 1; }
  Result<HierarchicalRelation> Materialize() override {
    return Status::NotSupported("rows only");
  }

 private:
  std::string name_ = "test.rates";
  Schema schema_;
};

/// Logs, records waits, fires and resolves an alert, and ticks telemetry
/// (the sampler thread stays off, so every tick is explicit).
constexpr const char* kSetUp = R"(
SET LOG info;
CREATE HIERARCHY animal;
CREATE CLASS bird IN animal;
CREATE CLASS penguin IN animal UNDER bird;
CREATE INSTANCE tweety IN animal UNDER bird;
CREATE INSTANCE paul IN animal UNDER penguin;
CREATE RELATION flies (who: animal);
ASSERT flies(ALL bird);
DENY flies(ALL penguin);
SET SLOW_QUERY_MS 0;
SELECT * FROM flies WHERE who = penguin;
SET SLOW_QUERY_MS OFF;
SET WATCHDOG_QUERY_MS 600000;
CREATE ALERT hot ON query.statements > 3 SEVERITY warn;
CREATE ALERT busy ON query.statements > 3 SEVERITY crit;
SET TELEMETRY TICK;
RESET METRICS;
SET TELEMETRY TICK;
DROP ALERT busy;
CREATE ALERT later ON query.errors > 1000 FOR 2 SAMPLES SEVERITY info;
)";

class SysViewsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string snap = ::testing::TempDir() + "sys_views_test.hirel";
    ASSERT_TRUE(exec_.Execute(kSetUp).ok());
    ASSERT_TRUE(exec_.Execute("SAVE '" + snap + "';").ok());  // an io wait
    std::remove(snap.c_str());
    // Register every engine gauge, then freeze the registry so the
    // metrics rows read the same from one statement to the next.
    ASSERT_TRUE(exec_.Execute("SHOW METRICS;").ok());
    exec_.database().metrics().set_enabled(false);
  }

  void TearDown() override { exec_.database().metrics().set_enabled(true); }

  VirtualRelationProvider& Provider(const std::string& name) {
    return *exec_.database().FindVirtualRelation(name);
  }

  std::string Run(const std::string& statement) {
    Result<std::string> out = exec_.Execute(statement);
    EXPECT_TRUE(out.ok()) << statement << ": " << out.status();
    return out.ok() ? *out : std::string();
  }

  hql::Executor exec_;
};

struct View {
  const char* alias;     // SHOW <alias>
  const char* relation;  // the sys.* relation it renders
};

constexpr View kViews[] = {
    {"METRICS", "sys.metrics"},     {"LOG", "sys.log"},
    {"QUERIES", "sys.queries"},     {"TELEMETRY", "sys.telemetry"},
    {"ALERTS", "sys.alerts"},       {"HEALTH", "sys.health"},
    {"WAITS", "sys.waits"},
};

TEST_F(SysViewsTest, EveryAliasRendersItsRelation) {
  for (const View& view : kViews) {
    SCOPED_TRACE(view.alias);
    const std::string alias = std::string("SHOW ") + view.alias + ";";
    const std::string relation =
        std::string("SHOW RELATION ") + view.relation + ";";
    // Both spellings are one statement.
    auto alias_ast = hql::ParseScript(alias).value();
    auto relation_ast = hql::ParseScript(relation).value();
    const auto& a = std::get<hql::ShowStmt>(alias_ast.at(0));
    const auto& r = std::get<hql::ShowStmt>(relation_ast.at(0));
    EXPECT_EQ(a.what, r.what);
    EXPECT_EQ(a.name, r.name);
    EXPECT_EQ(a.json, r.json);

    // Each prints the relation's rows as they stand when it runs.
    VirtualRelationProvider& provider = Provider(view.relation);
    std::string expected = obs::RowsText(provider);
    std::string by_alias = Run(alias);
    EXPECT_EQ(by_alias, expected);
    EXPECT_EQ(by_alias.find(std::string(view.relation) + " ("), 0u);
    expected = obs::RowsText(provider);
    std::string by_relation = Run(relation);
    EXPECT_EQ(by_relation, expected);
    // sys.queries gains a row per statement (the SHOW above); every other
    // view reads the same twice in a row.
    if (std::string_view(view.relation) != "sys.queries") {
      EXPECT_EQ(by_alias, by_relation);
    }
  }
}

TEST_F(SysViewsTest, JsonHasOneObjectPerRowKeyedByColumn) {
  for (const View& view : kViews) {
    SCOPED_TRACE(view.alias);
    VirtualRelationProvider& provider = Provider(view.relation);
    const Schema& schema = provider.schema();
    std::vector<VirtualRow> rows = provider.Rows();
    std::string json = Run(std::string("SHOW ") + view.alias + " JSON;");
    std::vector<JsonObject> objects;
    ASSERT_TRUE(RowsJsonParser(json).Parse(&objects)) << json;
    ASSERT_EQ(objects.size(), rows.size());
    ASSERT_FALSE(objects.empty()) << "the set-up leaves every view non-empty";
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(objects[i].size(), schema.size());
      for (size_t c = 0; c < schema.size(); ++c) {
        EXPECT_EQ(objects[i][c].first, schema.name(c));
        JsonScalar want = Expected(rows[i][c]);
        EXPECT_EQ(objects[i][c].second.kind, want.kind) << schema.name(c);
        EXPECT_EQ(objects[i][c].second.text, want.text) << schema.name(c);
      }
    }

    // The same rows back SELECT (sys.queries has since recorded the SHOW).
    std::string selected =
        Run(std::string("SELECT * FROM ") + view.relation + ";");
    size_t open = selected.find(" (");
    ASSERT_NE(open, std::string::npos) << selected;
    size_t tuples = std::stoul(selected.substr(open + 2));
    size_t recorded = std::string_view(view.relation) == "sys.queries";
    EXPECT_EQ(tuples, rows.size() + recorded) << selected;
  }

  // Doubles print in shortest round-trip form, not to six digits.
  Hierarchy domain("rate");
  OneDoubleProvider rates(&domain);
  std::vector<JsonObject> objects;
  ASSERT_TRUE(RowsJsonParser(obs::RowsJson(rates)).Parse(&objects));
  ASSERT_EQ(objects.size(), 1u);
  ASSERT_EQ(objects[0].size(), 1u);
  EXPECT_EQ(objects[0][0].second.kind, 'n');
  EXPECT_EQ(objects[0][0].second.text, "1234567.25");
}

TEST_F(SysViewsTest, SetUpStateIsVisibleInTheViews) {
  std::string alerts = Run("SHOW ALERTS JSON;");
  EXPECT_NE(alerts.find("{\"alert\":\"hot\",\"severity\":\"warn\",\"state\":"
                        "\"resolved\",\"metric\":\"query.statements\","
                        "\"op\":\">\",\"threshold\":3,\"for_samples\":1,"
                        "\"builtin\":false,"),
            std::string::npos)
      << alerts;
  EXPECT_NE(alerts.find("{\"alert\":\"later\",\"severity\":\"info\",\"state\":"
                        "\"ok\",\"metric\":\"query.errors\",\"op\":\">\","
                        "\"threshold\":1000,\"for_samples\":2,\"builtin\":"
                        "false,\"value\":\"-\","),
            std::string::npos)
      << alerts;
  EXPECT_NE(alerts.find("\"builtin\":true"), std::string::npos);
  std::string health = Run("SHOW HEALTH JSON;");
  EXPECT_EQ(health.find("[{\"component\":\"overall\",\"verdict\":\"ok\","
                        "\"firing\":0,\"worst_alert\":\"-\"}"),
            0u)
      << health;
  std::string log = Run("SHOW LOG JSON;");
  EXPECT_NE(log.find("\"level\":\"warn\",\"component\":\"query\",\"event\":"
                     "\"slow_query\",\"message\":\"text=SELECT * FROM flies"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("\"event\":\"alert_fire\""), std::string::npos);
  EXPECT_NE(log.find("\"event\":\"alert_resolve\""), std::string::npos);
  EXPECT_NE(Run("SHOW WAITS JSON;")
                .find("{\"site\":\"snapshot.save\",\"wait_class\":\"io\","),
            std::string::npos);
  std::string telemetry = Run("SHOW TELEMETRY JSON;");
  EXPECT_NE(telemetry.find("{\"name\":\"query.statements\",\"kind\":"
                           "\"counter\",\"last\":"),
            std::string::npos)
      << telemetry;
  EXPECT_NE(telemetry.find("\"samples\":2,\"rate_per_s\":"),
            std::string::npos);
  std::string metrics = Run("SHOW METRICS JSON;");
  for (const char* gauge :
       {"telemetry.on", "telemetry.interval_ms", "telemetry.ticks",
        "telemetry.ring_capacity", "log.dropped", "exec.threads"}) {
    EXPECT_NE(metrics.find(std::string("{\"name\":\"") + gauge +
                           "\",\"kind\":\"gauge\","),
              std::string::npos)
        << gauge;
  }
  std::string queries = Run("SHOW QUERIES JSON;");
  EXPECT_EQ(queries.find("[{\"id\":"), 0u);
  EXPECT_NE(queries.find("\"kind\":\"select\",\"statement\":\"SELECT * FROM "
                         "flies WHERE who = penguin\",\"ok\":true,"),
            std::string::npos);
}

TEST_F(SysViewsTest, StatementTextIsEscaped) {
  // A failed SAVE is still recorded, with its text verbatim: a quote, a
  // backslash, a newline and a control byte inside the path literal.
  const std::string path = "/nonexistent-dir/a\"b\\c\nd\x01" "e";
  EXPECT_FALSE(exec_.Execute("SAVE '" + path + "';").ok());
  std::string json = Run("SHOW QUERIES JSON;");
  EXPECT_NE(json.find("\"statement\":\"SAVE '/nonexistent-dir/"
                      "a\\\"b\\\\c\\nd\\u0001e'\",\"ok\":false,"),
            std::string::npos)
      << json;
  std::vector<JsonObject> objects;
  ASSERT_TRUE(RowsJsonParser(json).Parse(&objects));
  ASSERT_GE(objects.size(), 2u);
  EXPECT_EQ(objects[0][2].second.text, "SAVE '" + path + "'");
}

TEST_F(SysViewsTest, RenderingInternsNothing) {
  // Every hidden domain, reached through the providers' schemas.
  std::map<const Hierarchy*, size_t> nodes;
  for (const std::string& name : exec_.database().VirtualRelationNames()) {
    const Schema& schema = Provider(name).schema();
    for (size_t c = 0; c < schema.size(); ++c) {
      nodes[schema.hierarchy(c)] = schema.hierarchy(c)->num_nodes();
    }
  }
  ASSERT_EQ(nodes.size(), 7u);  // label, metric, severity, num, text,
                                // waitsite, alertsev
  const Schema& queries = Provider("sys.queries").schema();
  const Hierarchy* num = queries.hierarchy(queries.IndexOf("wall_us").value());

  std::string bundle = ::testing::TempDir() + "sys_views_bundle.json";
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(exec_.Execute("SHOW QUERIES;").ok());
    ASSERT_TRUE(exec_.Execute("SHOW QUERIES JSON;").ok());
  }
  for (const View& view : kViews) {
    ASSERT_TRUE(exec_.Execute(std::string("SHOW ") + view.alias + ";").ok());
    ASSERT_TRUE(
        exec_.Execute(std::string("SHOW ") + view.alias + " JSON;").ok());
  }
  ASSERT_TRUE(exec_.Execute("EXPORT DIAGNOSTICS '" + bundle + "';").ok());
  std::remove(bundle.c_str());
  for (const auto& [hierarchy, count] : nodes) {
    EXPECT_EQ(hierarchy->num_nodes(), count) << hierarchy->name();
  }

  // A plan scan, by contrast, interns the values it materializes.
  const size_t before = num->num_nodes();
  ASSERT_TRUE(exec_.Execute("SELECT * FROM sys.queries;").ok());
  EXPECT_GT(num->num_nodes(), before);
}

}  // namespace
}  // namespace hirel
