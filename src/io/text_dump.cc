#include "io/text_dump.h"

#include <algorithm>

#include "common/str_util.h"

namespace hirel {

namespace {

void FormatNode(const Hierarchy& hierarchy, NodeId node, int depth,
                std::vector<bool>& seen, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  if (hierarchy.is_instance(node)) {
    out->append(StrCat("* ", hierarchy.NodeName(node)));
  } else {
    out->append(hierarchy.NodeName(node));
  }
  if (seen[node]) {
    out->append(" ^\n");
    return;
  }
  seen[node] = true;
  out->push_back('\n');
  std::vector<NodeId> children = hierarchy.Children(node);
  std::sort(children.begin(), children.end());
  for (NodeId child : children) {
    FormatNode(hierarchy, child, depth + 1, seen, out);
  }
}

/// Left-justified cell padding.
std::string Pad(const std::string& s, size_t width) {
  std::string out = s;
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

}  // namespace

std::string FormatTable(const std::string& title,
                        const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(header.size());
  for (size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out = title.empty() ? "" : StrCat(title, "\n");
  auto emit_row = [&](const std::vector<std::string>& row) {
    out += "|";
    for (size_t c = 0; c < row.size(); ++c) {
      out += StrCat(" ", Pad(row[c], widths[c]), " |");
    }
    out += "\n";
  };
  auto emit_rule = [&]() {
    out += "+";
    for (size_t c = 0; c < widths.size(); ++c) {
      out.append(widths[c] + 2, '-');
      out += "+";
    }
    out += "\n";
  };
  emit_rule();
  emit_row(header);
  emit_rule();
  for (const auto& row : rows) emit_row(row);
  emit_rule();
  return out;
}

std::string FormatHierarchy(const Hierarchy& hierarchy) {
  std::string out = StrCat("hierarchy ", hierarchy.name(), " (",
                           hierarchy.num_classes(), " classes, ",
                           hierarchy.num_instances(), " instances)\n");
  std::vector<bool> seen(hierarchy.dag().capacity(), false);
  FormatNode(hierarchy, hierarchy.root(), 1, seen, &out);
  return out;
}

std::string FormatHierarchyDot(const Hierarchy& hierarchy) {
  auto quoted = [](const std::string& name) {
    std::string out = "\"";
    for (char c : name) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
    return out;
  };
  std::string out =
      StrCat("digraph ", quoted(hierarchy.name()), " {\n  rankdir=TB;\n");
  for (NodeId n : hierarchy.Nodes()) {
    out += StrCat("  n", n, " [label=", quoted(hierarchy.NodeName(n)),
                  hierarchy.is_class(n) ? " shape=box" : " shape=ellipse",
                  "];\n");
  }
  for (NodeId n : hierarchy.Nodes()) {
    for (NodeId child : hierarchy.Children(n)) {
      out += StrCat("  n", n, " -> n", child, ";\n");
    }
    for (NodeId stronger : hierarchy.PreferenceSuccessors(n)) {
      out += StrCat("  n", n, " -> n", stronger,
                    " [style=dashed label=\"prefers\"];\n");
    }
  }
  out += "}\n";
  return out;
}

std::string FormatRelation(const HierarchicalRelation& relation) {
  const Schema& schema = relation.schema();
  std::vector<std::string> header{""};
  for (size_t i = 0; i < schema.size(); ++i) header.push_back(schema.name(i));

  // Order rows deterministically: by item rendering.
  std::vector<std::vector<std::string>> rows;
  for (TupleId id : relation.TupleIds()) {
    const HTuple& t = relation.tuple(id);
    std::vector<std::string> row{TruthToString(t.truth)};
    for (size_t i = 0; i < schema.size(); ++i) {
      const Hierarchy* h = schema.hierarchy(i);
      row.push_back(h->is_class(t.item[i])
                        ? StrCat("ALL ", h->NodeName(t.item[i]))
                        : h->NodeName(t.item[i]));
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return FormatTable(StrCat(relation.name(), " (", relation.size(),
                            " tuples)"),
                     header, rows);
}

std::string FormatFlatRelation(const FlatRelation& relation) {
  const Schema& schema = relation.schema();
  std::vector<std::string> header;
  for (size_t i = 0; i < schema.size(); ++i) header.push_back(schema.name(i));
  std::vector<std::vector<std::string>> rows;
  for (const Item& item : relation.Rows()) {
    std::vector<std::string> row;
    for (size_t i = 0; i < schema.size(); ++i) {
      row.push_back(schema.hierarchy(i)->NodeName(item[i]));
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return FormatTable(StrCat(relation.name(), " (", relation.size(), " rows)"),
                     header, rows);
}

std::string FormatExtension(const Schema& schema,
                            const std::vector<Item>& extension,
                            const std::string& title) {
  std::vector<std::string> header;
  for (size_t i = 0; i < schema.size(); ++i) header.push_back(schema.name(i));
  std::vector<std::vector<std::string>> rows;
  for (const Item& item : extension) {
    std::vector<std::string> row;
    for (size_t i = 0; i < schema.size(); ++i) {
      row.push_back(schema.hierarchy(i)->NodeName(item[i]));
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return FormatTable(title, header, rows);
}

}  // namespace hirel
