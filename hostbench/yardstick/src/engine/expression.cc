#include "engine/expression.h"

#include <algorithm>
#include <functional>

namespace skyrise::engine {

namespace {

const char* KindName(Expr::Kind kind) {
  switch (kind) {
    case Expr::Kind::kColumn:
      return "column";
    case Expr::Kind::kNumber:
      return "number";
    case Expr::Kind::kString:
      return "string";
    case Expr::Kind::kCompare:
      return "compare";
    case Expr::Kind::kAnd:
      return "and";
    case Expr::Kind::kOr:
      return "or";
    case Expr::Kind::kArith:
      return "arith";
    case Expr::Kind::kBetween:
      return "between";
    case Expr::Kind::kInList:
      return "in";
    case Expr::Kind::kIndicator:
      return "indicator";
  }
  return "?";
}

Result<Expr::Kind> KindFromName(const std::string& name) {
  if (name == "column") return Expr::Kind::kColumn;
  if (name == "number") return Expr::Kind::kNumber;
  if (name == "string") return Expr::Kind::kString;
  if (name == "compare") return Expr::Kind::kCompare;
  if (name == "and") return Expr::Kind::kAnd;
  if (name == "or") return Expr::Kind::kOr;
  if (name == "arith") return Expr::Kind::kArith;
  if (name == "between") return Expr::Kind::kBetween;
  if (name == "in") return Expr::Kind::kInList;
  if (name == "indicator") return Expr::Kind::kIndicator;
  return Status::InvalidArgument("unknown expr kind: " + name);
}

std::shared_ptr<Expr> Make(Expr::Kind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}

}  // namespace

Json Expr::ToJson() const {
  Json out = Json::Object();
  out["kind"] = KindName(kind);
  switch (kind) {
    case Kind::kColumn:
      out["column"] = column;
      break;
    case Kind::kNumber:
      out["value"] = number;
      break;
    case Kind::kString:
      out["value"] = text;
      break;
    case Kind::kCompare:
    case Kind::kArith:
      out["op"] = op;
      break;
    case Kind::kInList: {
      Json values = Json::Array();
      for (const auto& v : in_list) values.Append(v);
      out["values"] = std::move(values);
      break;
    }
    default:
      break;
  }
  if (!children.empty()) {
    Json kids = Json::Array();
    for (const auto& child : children) kids.Append(child->ToJson());
    out["children"] = std::move(kids);
  }
  return out;
}

Result<ExprPtr> Expr::FromJson(const Json& json) {
  if (!json.is_object()) return Status::InvalidArgument("expr not an object");
  Expr::Kind kind;
  SKYRISE_ASSIGN_OR_RETURN(kind, KindFromName(json.GetString("kind")));
  auto e = Make(kind);
  e->column = json.GetString("column");
  e->op = json.GetString("op");
  if (kind == Kind::kNumber) e->number = json.GetDouble("value");
  if (kind == Kind::kString) e->text = json.GetString("value");
  if (json.Has("values")) {
    for (const auto& v : json.Get("values").AsArray()) {
      e->in_list.push_back(v.AsString());
    }
  }
  if (json.Has("children")) {
    for (const auto& child : json.Get("children").AsArray()) {
      ExprPtr parsed;
      SKYRISE_ASSIGN_OR_RETURN(parsed, FromJson(child));
      e->children.push_back(std::move(parsed));
    }
  }
  return ExprPtr(e);
}

ExprPtr Col(const std::string& name) {
  auto e = Make(Expr::Kind::kColumn);
  e->column = name;
  return e;
}
ExprPtr Num(double value) {
  auto e = Make(Expr::Kind::kNumber);
  e->number = value;
  return e;
}
ExprPtr Str(const std::string& value) {
  auto e = Make(Expr::Kind::kString);
  e->text = value;
  return e;
}
ExprPtr Cmp(const std::string& op, ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(Expr::Kind::kCompare);
  e->op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(Expr::Kind::kAnd);
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(Expr::Kind::kOr);
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr Arith(const std::string& op, ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(Expr::Kind::kArith);
  e->op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr Between(ExprPtr value, ExprPtr lo, ExprPtr hi) {
  auto e = Make(Expr::Kind::kBetween);
  e->children = {std::move(value), std::move(lo), std::move(hi)};
  return e;
}
ExprPtr InList(ExprPtr value, std::vector<std::string> values) {
  auto e = Make(Expr::Kind::kInList);
  e->children = {std::move(value)};
  e->in_list = std::move(values);
  return e;
}
ExprPtr Indicator(ExprPtr condition) {
  auto e = Make(Expr::Kind::kIndicator);
  e->children = {std::move(condition)};
  return e;
}

namespace {

/// Numeric value accessor for a column (ints/dates/doubles).
Result<std::function<double(size_t)>> NumericAccessor(
    const data::Chunk& chunk, const std::string& name) {
  const int idx = chunk.schema().FieldIndex(name);
  if (idx < 0) return Status::NotFound("no column: " + name);
  const data::Column* col = &chunk.column(static_cast<size_t>(idx));
  if (col->type() == data::DataType::kDouble) {
    return std::function<double(size_t)>(
        [col](size_t row) { return col->doubles()[row]; });
  }
  if (col->type() == data::DataType::kString) {
    return Status::InvalidArgument("column is not numeric: " + name);
  }
  return std::function<double(size_t)>(
      [col](size_t row) { return static_cast<double>(col->ints()[row]); });
}

Result<std::function<double(size_t)>> NumericEvaluator(
    const Expr& expr, const data::Chunk& chunk);

Result<std::function<bool(size_t)>> BoolEvaluator(const Expr& expr,
                                                  const data::Chunk& chunk) {
  using Kind = Expr::Kind;
  switch (expr.kind) {
    case Kind::kAnd: {
      std::function<bool(size_t)> lhs, rhs;
      SKYRISE_ASSIGN_OR_RETURN(lhs, BoolEvaluator(*expr.children[0], chunk));
      SKYRISE_ASSIGN_OR_RETURN(rhs, BoolEvaluator(*expr.children[1], chunk));
      return std::function<bool(size_t)>(
          [lhs, rhs](size_t row) { return lhs(row) && rhs(row); });
    }
    case Kind::kOr: {
      std::function<bool(size_t)> lhs, rhs;
      SKYRISE_ASSIGN_OR_RETURN(lhs, BoolEvaluator(*expr.children[0], chunk));
      SKYRISE_ASSIGN_OR_RETURN(rhs, BoolEvaluator(*expr.children[1], chunk));
      return std::function<bool(size_t)>(
          [lhs, rhs](size_t row) { return lhs(row) || rhs(row); });
    }
    case Kind::kBetween: {
      std::function<double(size_t)> value;
      SKYRISE_ASSIGN_OR_RETURN(value,
                               NumericEvaluator(*expr.children[0], chunk));
      std::function<double(size_t)> lo, hi;
      SKYRISE_ASSIGN_OR_RETURN(lo, NumericEvaluator(*expr.children[1], chunk));
      SKYRISE_ASSIGN_OR_RETURN(hi, NumericEvaluator(*expr.children[2], chunk));
      return std::function<bool(size_t)>([value, lo, hi](size_t row) {
        const double v = value(row);
        return v >= lo(row) && v <= hi(row);
      });
    }
    case Kind::kInList: {
      const Expr& target = *expr.children[0];
      if (target.kind != Kind::kColumn) {
        return Status::InvalidArgument("IN requires a column");
      }
      const int idx = chunk.schema().FieldIndex(target.column);
      if (idx < 0) return Status::NotFound("no column: " + target.column);
      const data::Column* col = &chunk.column(static_cast<size_t>(idx));
      if (col->type() != data::DataType::kString) {
        return Status::InvalidArgument("IN requires a string column");
      }
      auto values = std::make_shared<std::vector<std::string>>(expr.in_list);
      std::sort(values->begin(), values->end());
      return std::function<bool(size_t)>([col, values](size_t row) {
        return std::binary_search(values->begin(), values->end(),
                                  col->strings()[row]);
      });
    }
    case Kind::kCompare: {
      const Expr& lhs = *expr.children[0];
      const Expr& rhs = *expr.children[1];
      // String comparison: column vs string literal.
      const bool string_cmp =
          rhs.kind == Kind::kString || lhs.kind == Kind::kString;
      if (string_cmp) {
        if (lhs.kind != Kind::kColumn || rhs.kind != Kind::kString) {
          return Status::InvalidArgument(
              "string compare must be column <op> literal");
        }
        const int idx = chunk.schema().FieldIndex(lhs.column);
        if (idx < 0) return Status::NotFound("no column: " + lhs.column);
        const data::Column* col = &chunk.column(static_cast<size_t>(idx));
        const std::string value = rhs.text;
        const std::string op = expr.op;
        return std::function<bool(size_t)>([col, value, op](size_t row) {
          const int c = col->strings()[row].compare(value);
          if (op == "==") return c == 0;
          if (op == "!=") return c != 0;
          if (op == "<") return c < 0;
          if (op == "<=") return c <= 0;
          if (op == ">") return c > 0;
          return c >= 0;
        });
      }
      std::function<double(size_t)> le, re;
      SKYRISE_ASSIGN_OR_RETURN(le, NumericEvaluator(lhs, chunk));
      SKYRISE_ASSIGN_OR_RETURN(re, NumericEvaluator(rhs, chunk));
      const std::string op = expr.op;
      return std::function<bool(size_t)>([le, re, op](size_t row) {
        const double l = le(row), r = re(row);
        if (op == "==") return l == r;
        if (op == "!=") return l != r;
        if (op == "<") return l < r;
        if (op == "<=") return l <= r;
        if (op == ">") return l > r;
        return l >= r;
      });
    }
    default:
      return Status::InvalidArgument("expression is not boolean");
  }
}

Result<std::function<double(size_t)>> NumericEvaluator(
    const Expr& expr, const data::Chunk& chunk) {
  using Kind = Expr::Kind;
  switch (expr.kind) {
    case Kind::kColumn:
      return NumericAccessor(chunk, expr.column);
    case Kind::kNumber: {
      const double v = expr.number;
      return std::function<double(size_t)>([v](size_t) { return v; });
    }
    case Kind::kArith: {
      std::function<double(size_t)> lhs, rhs;
      SKYRISE_ASSIGN_OR_RETURN(lhs, NumericEvaluator(*expr.children[0], chunk));
      SKYRISE_ASSIGN_OR_RETURN(rhs, NumericEvaluator(*expr.children[1], chunk));
      const std::string op = expr.op;
      return std::function<double(size_t)>([lhs, rhs, op](size_t row) {
        const double l = lhs(row), r = rhs(row);
        if (op == "+") return l + r;
        if (op == "-") return l - r;
        if (op == "/") return r == 0 ? 0 : l / r;
        return l * r;
      });
    }
    case Kind::kIndicator: {
      std::function<bool(size_t)> cond;
      SKYRISE_ASSIGN_OR_RETURN(cond, BoolEvaluator(*expr.children[0], chunk));
      return std::function<double(size_t)>(
          [cond](size_t row) { return cond(row) ? 1.0 : 0.0; });
    }
    default:
      return Status::InvalidArgument("expression is not numeric");
  }
}

}  // namespace

Status EvalPredicateInto(const Expr& expr, const data::Chunk& chunk,
                         std::vector<uint32_t>* out) {
  std::function<bool(size_t)> eval;
  SKYRISE_ASSIGN_OR_RETURN(eval, BoolEvaluator(expr, chunk));
  out->clear();
  const size_t rows = static_cast<size_t>(chunk.rows());
  for (size_t row = 0; row < rows; ++row) {
    if (eval(row)) out->push_back(static_cast<uint32_t>(row));
  }
  return Status::OK();
}

Result<std::vector<uint32_t>> EvalPredicate(const Expr& expr,
                                            const data::Chunk& chunk) {
  std::vector<uint32_t> selection;
  SKYRISE_RETURN_IF_ERROR(EvalPredicateInto(expr, chunk, &selection));
  return selection;
}

Status EvalNumericInto(const Expr& expr, const data::Chunk& chunk,
                       std::vector<double>* out) {
  std::function<double(size_t)> eval;
  SKYRISE_ASSIGN_OR_RETURN(eval, NumericEvaluator(expr, chunk));
  out->clear();
  const size_t rows = static_cast<size_t>(chunk.rows());
  out->reserve(rows);
  for (size_t row = 0; row < rows; ++row) out->push_back(eval(row));
  return Status::OK();
}

Result<std::vector<double>> EvalNumeric(const Expr& expr,
                                        const data::Chunk& chunk) {
  std::vector<double> out;
  SKYRISE_RETURN_IF_ERROR(EvalNumericInto(expr, chunk, &out));
  return out;
}

void CollectColumns(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == Expr::Kind::kColumn) {
    if (std::find(out->begin(), out->end(), expr.column) == out->end()) {
      out->push_back(expr.column);
    }
  }
  for (const auto& child : expr.children) CollectColumns(*child, out);
}

bool RangeMayMatch(const Expr& expr,
                   const std::function<bool(const std::string&, double*,
                                            double*)>& column_range) {
  using Kind = Expr::Kind;
  switch (expr.kind) {
    case Kind::kAnd:
      return RangeMayMatch(*expr.children[0], column_range) &&
             RangeMayMatch(*expr.children[1], column_range);
    case Kind::kOr:
      return RangeMayMatch(*expr.children[0], column_range) ||
             RangeMayMatch(*expr.children[1], column_range);
    case Kind::kBetween: {
      const Expr& target = *expr.children[0];
      if (target.kind != Kind::kColumn ||
          expr.children[1]->kind != Kind::kNumber ||
          expr.children[2]->kind != Kind::kNumber) {
        return true;
      }
      double min, max;
      if (!column_range(target.column, &min, &max)) return true;
      return max >= expr.children[1]->number &&
             min <= expr.children[2]->number;
    }
    case Kind::kCompare: {
      const Expr& lhs = *expr.children[0];
      const Expr& rhs = *expr.children[1];
      if (lhs.kind != Kind::kColumn || rhs.kind != Kind::kNumber) return true;
      double min, max;
      if (!column_range(lhs.column, &min, &max)) return true;
      const double v = rhs.number;
      if (expr.op == "<") return min < v;
      if (expr.op == "<=") return min <= v;
      if (expr.op == ">") return max > v;
      if (expr.op == ">=") return max >= v;
      if (expr.op == "==") return min <= v && v <= max;
      return true;
    }
    default:
      return true;
  }
}

}  // namespace skyrise::engine
