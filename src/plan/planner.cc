#include "plan/planner.h"

#include <utility>
#include <vector>

#include "common/str_util.h"
#include "hql/resolve.h"

namespace hirel {
namespace plan {

namespace {

/// Schema of a scannable name: a stored relation's, or a virtual (sys.*)
/// provider's.
Result<const Schema*> ScanSchema(const Database& db,
                                 const std::string& name) {
  Result<const HierarchicalRelation*> rel = db.GetRelation(name);
  if (rel.ok()) return &(*rel)->schema();
  VirtualRelationProvider* provider = db.FindVirtualRelation(name);
  if (provider == nullptr) return rel.status();
  return &provider->schema();
}

}  // namespace

Result<PlanPtr> CompileSelect(const Database& db,
                              const hql::SelectStmt& stmt) {
  PlanPtr source = MakeScan(stmt.relation);
  switch (stmt.source_op) {
    case hql::SelectStmt::SourceOp::kNone:
      break;
    case hql::SelectStmt::SourceOp::kJoin:
      source = MakeNaturalJoin(std::move(source), MakeScan(stmt.right));
      break;
    case hql::SelectStmt::SourceOp::kUnion:
      source = MakeSetOp(SetOpKind::kUnion, std::move(source),
                         MakeScan(stmt.right));
      break;
    case hql::SelectStmt::SourceOp::kIntersect:
      source = MakeSetOp(SetOpKind::kIntersect, std::move(source),
                         MakeScan(stmt.right));
      break;
    case hql::SelectStmt::SourceOp::kExcept:
      source = MakeSetOp(SetOpKind::kExcept, std::move(source),
                         MakeScan(stmt.right));
      break;
  }
  if (!stmt.has_where) return source;
  // The WHERE attribute resolves against the *source's* output schema
  // (e.g. a join's combined attribute list), so annotate it first.
  HIREL_RETURN_IF_ERROR(AnnotatePlan(*source, db));
  HIREL_ASSIGN_OR_RETURN(size_t attr, source->schema.IndexOf(stmt.attribute));
  Hierarchy* hierarchy = source->schema.hierarchy(attr);
  HIREL_ASSIGN_OR_RETURN(
      NodeId node,
      hql::ResolveTerm(hierarchy, stmt.term, /*allow_intern=*/false));
  PlanPtr selected = MakeSelect(std::move(source), attr, node, stmt.attribute,
                                hierarchy->NodeName(node));
  return MakeConsolidate(std::move(selected));
}

Result<PlanPtr> CompileCreateAs(const Database& db,
                                const hql::CreateAsStmt& stmt) {
  HIREL_RETURN_IF_ERROR(ScanSchema(db, stmt.left).status());
  HIREL_RETURN_IF_ERROR(ScanSchema(db, stmt.right).status());
  PlanPtr left = MakeScan(stmt.left);
  PlanPtr right = MakeScan(stmt.right);
  switch (stmt.op) {
    case hql::CreateAsStmt::Op::kUnion:
      return MakeSetOp(SetOpKind::kUnion, std::move(left), std::move(right));
    case hql::CreateAsStmt::Op::kIntersect:
      return MakeSetOp(SetOpKind::kIntersect, std::move(left),
                       std::move(right));
    case hql::CreateAsStmt::Op::kExcept:
      return MakeSetOp(SetOpKind::kExcept, std::move(left), std::move(right));
    case hql::CreateAsStmt::Op::kJoin:
      return MakeNaturalJoin(std::move(left), std::move(right));
  }
  return Status::Internal("unhandled set operation");
}

Result<PlanPtr> CompileCreateProject(const Database& db,
                                     const hql::CreateProjectStmt& stmt) {
  HIREL_ASSIGN_OR_RETURN(const Schema* schema, ScanSchema(db, stmt.source));
  std::vector<size_t> positions;
  positions.reserve(stmt.attributes.size());
  for (const std::string& name : stmt.attributes) {
    HIREL_ASSIGN_OR_RETURN(size_t p, schema->IndexOf(name));
    positions.push_back(p);
  }
  return MakeProject(MakeScan(stmt.source), std::move(positions));
}

Result<PlanPtr> CompileExplicate(const Database& db,
                                 const hql::ExplicateStmt& stmt) {
  HIREL_ASSIGN_OR_RETURN(const Schema* schema, ScanSchema(db, stmt.relation));
  std::vector<size_t> positions;
  positions.reserve(stmt.attributes.size());
  for (const std::string& name : stmt.attributes) {
    HIREL_ASSIGN_OR_RETURN(size_t p, schema->IndexOf(name));
    positions.push_back(p);
  }
  // The EXPLICATE statement shows the raw explication, negated tuples
  // included; the paper's consolidate-that-follows is a separate statement.
  return MakeExplicate(MakeScan(stmt.relation), std::move(positions),
                       /*consolidate_after=*/false);
}

Result<PlanPtr> CompileExtension(const Database& db,
                                 const hql::ExtensionStmt& stmt) {
  HIREL_RETURN_IF_ERROR(ScanSchema(db, stmt.relation).status());
  return MakeExplicate(MakeScan(stmt.relation), {},
                       /*consolidate_after=*/true);
}

Result<PlanPtr> CompileCount(const Database& db, const hql::CountStmt& stmt) {
  HIREL_ASSIGN_OR_RETURN(const Schema* schema, ScanSchema(db, stmt.relation));
  if (!stmt.by_attribute) {
    return MakeAggregate(MakeScan(stmt.relation), AggregateOp::kCount);
  }
  HIREL_ASSIGN_OR_RETURN(size_t attr, schema->IndexOf(stmt.attribute));
  return MakeAggregate(MakeScan(stmt.relation), AggregateOp::kCountBy, attr,
                       stmt.attribute);
}

bool IsPlannable(const hql::Statement& statement) {
  return std::holds_alternative<hql::SelectStmt>(statement) ||
         std::holds_alternative<hql::CreateAsStmt>(statement) ||
         std::holds_alternative<hql::CreateProjectStmt>(statement) ||
         std::holds_alternative<hql::ExplicateStmt>(statement) ||
         std::holds_alternative<hql::ExtensionStmt>(statement) ||
         std::holds_alternative<hql::CountStmt>(statement);
}

Result<PlanPtr> CompileStatement(const Database& db,
                                 const hql::Statement& statement) {
  if (const auto* s = std::get_if<hql::SelectStmt>(&statement)) {
    return CompileSelect(db, *s);
  }
  if (const auto* s = std::get_if<hql::CreateAsStmt>(&statement)) {
    return CompileCreateAs(db, *s);
  }
  if (const auto* s = std::get_if<hql::CreateProjectStmt>(&statement)) {
    return CompileCreateProject(db, *s);
  }
  if (const auto* s = std::get_if<hql::ExplicateStmt>(&statement)) {
    return CompileExplicate(db, *s);
  }
  if (const auto* s = std::get_if<hql::ExtensionStmt>(&statement)) {
    return CompileExtension(db, *s);
  }
  if (const auto* s = std::get_if<hql::CountStmt>(&statement)) {
    return CompileCount(db, *s);
  }
  return Status::InvalidArgument(
      "EXPLAIN PLAN expects a query statement (SELECT, CREATE ... AS, "
      "CREATE ... AS PROJECT, EXPLICATE, EXTENSION, or COUNT)");
}

}  // namespace plan
}  // namespace hirel
