#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "data/chunk.h"

/// \file expression.h
/// Scalar expressions for predicates and projections, JSON-serializable as
/// part of physical plans. Supports column references, numeric/string
/// literals, comparisons (column-literal and column-column), boolean
/// AND/OR, arithmetic (incl. division), BETWEEN, string IN-lists, and
/// boolean-to-numeric indicators (for conditional aggregation, e.g. the Q12
/// priority counts) — everything the paper's query suite needs.

namespace skyrise::engine {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  enum class Kind {
    kColumn,
    kNumber,
    kString,
    kCompare,  ///< op in {"<","<=",">",">=","==","!="}.
    kAnd,
    kOr,
    kArith,    ///< op in {"+","-","*"}.
    kBetween,  ///< children[0] in [children[1], children[2]] (numeric).
    kInList,   ///< children[0]'s string value in literal list.
    kIndicator,  ///< 1.0 when the boolean child holds, else 0.0.
  };

  Kind kind;
  std::string column;                ///< kColumn.
  double number = 0;                 ///< kNumber.
  std::string text;                  ///< kString.
  std::string op;                    ///< kCompare / kArith ("+","-","*","/").
  std::vector<ExprPtr> children;
  std::vector<std::string> in_list;  ///< kInList.

  Json ToJson() const;
  [[nodiscard]] static Result<ExprPtr> FromJson(const Json& json);
};

// Builders.
ExprPtr Col(const std::string& name);
ExprPtr Num(double value);
ExprPtr Str(const std::string& value);
ExprPtr Cmp(const std::string& op, ExprPtr lhs, ExprPtr rhs);
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Arith(const std::string& op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Between(ExprPtr value, ExprPtr lo, ExprPtr hi);
ExprPtr InList(ExprPtr value, std::vector<std::string> values);
ExprPtr Indicator(ExprPtr condition);

/// Evaluates a boolean expression over a materialized chunk; returns the
/// indices of qualifying rows.
[[nodiscard]] Result<std::vector<uint32_t>> EvalPredicate(const Expr& expr,
                                            const data::Chunk& chunk);

/// Eval-into variant: clears and refills `out`, reusing its capacity across
/// morsels. The hot path under engine::FragmentPipeline's filter operator;
/// EvalPredicate wraps it.
[[nodiscard]] Status EvalPredicateInto(const Expr& expr,
                                       const data::Chunk& chunk,
                                       std::vector<uint32_t>* out);

/// Evaluates a numeric expression over a chunk into a double column.
[[nodiscard]] Result<std::vector<double>> EvalNumeric(const Expr& expr,
                                        const data::Chunk& chunk);

/// Eval-into variant of EvalNumeric; clears and refills `out`.
[[nodiscard]] Status EvalNumericInto(const Expr& expr,
                                     const data::Chunk& chunk,
                                     std::vector<double>* out);

/// Columns referenced anywhere in the expression (deduplicated).
void CollectColumns(const Expr& expr, std::vector<std::string>* out);

/// Conservative check whether a row group with [min, max] on the predicate's
/// columns can contain matches; used for row-group pruning. Returns true
/// (keep) when unsure.
bool RangeMayMatch(const Expr& expr,
                   const std::function<bool(const std::string&, double*,
                                            double*)>& column_range);

}  // namespace skyrise::engine
