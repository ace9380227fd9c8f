#include "constraints/denial_constraint.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/string_util.h"

namespace daisy {

DenialConstraint::DenialConstraint(std::string name, std::string table,
                                   int num_tuples,
                                   std::vector<PredicateAtom> atoms)
    : name_(std::move(name)),
      table_(std::move(table)),
      num_tuples_(num_tuples),
      atoms_(std::move(atoms)) {
  DetectFd();
  ComputeInvolvedColumns();
}

void DenialConstraint::DetectFd() {
  fd_view_.reset();
  if (num_tuples_ != 2 || atoms_.empty()) return;
  // FD shape: every atom relates t1.c with t2.c on the *same* column; all
  // but exactly one are ==, the remaining one is !=.
  FdView view;
  size_t neq_count = 0;
  for (const PredicateAtom& a : atoms_) {
    if (a.right_is_constant) return;
    if (a.left_tuple == a.right_tuple) return;
    if (a.left_column != a.right_column) return;
    if (a.op == CompareOp::kEq) {
      view.lhs.push_back(a.left_column);
      view.lhs_names.push_back(a.left_column_name);
    } else if (a.op == CompareOp::kNeq) {
      ++neq_count;
      view.rhs = a.left_column;
      view.rhs_name = a.left_column_name;
    } else {
      return;
    }
  }
  if (neq_count != 1 || view.lhs.empty()) return;
  fd_view_ = std::move(view);
}

void DenialConstraint::ComputeInvolvedColumns() {
  involved_columns_.clear();
  for (const PredicateAtom& a : atoms_) {
    involved_columns_.push_back(a.left_column);
    if (!a.right_is_constant) involved_columns_.push_back(a.right_column);
  }
  std::sort(involved_columns_.begin(), involved_columns_.end());
  involved_columns_.erase(
      std::unique(involved_columns_.begin(), involved_columns_.end()),
      involved_columns_.end());
}

bool DenialConstraint::IsEqualityOnly() const {
  for (const PredicateAtom& a : atoms_) {
    if (a.op != CompareOp::kEq && a.op != CompareOp::kNeq) return false;
  }
  return true;
}

bool DenialConstraint::InvolvesColumn(size_t col) const {
  return std::binary_search(involved_columns_.begin(), involved_columns_.end(),
                            col);
}

std::string DenialConstraint::ToString() const {
  std::ostringstream oss;
  oss << name_ << "[" << table_ << "]: !(";
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) oss << " & ";
    oss << atoms_[i].ToString();
  }
  oss << ")";
  return oss.str();
}

namespace {

// Parses one side of an atom: "t1.col", "t2.col", or a literal constant.
struct Operand {
  bool is_constant = false;
  int tuple = -1;
  std::string column;
  Value constant;
};

Result<Operand> ParseOperand(const std::string& raw, const Schema& schema) {
  const std::string text = Trim(raw);
  if (text.empty()) return Status::ParseError("empty operand");
  Operand op;
  if ((StartsWith(text, "t1.") || StartsWith(text, "t2.")) &&
      text.size() > 3) {
    op.tuple = text[1] == '1' ? 0 : 1;
    op.column = text.substr(3);
    if (!schema.HasColumn(op.column)) {
      return Status::ParseError("constraint references unknown column '" +
                                op.column + "'");
    }
    return op;
  }
  op.is_constant = true;
  // Quoted string literal or numeric literal.
  if (text.size() >= 2 && (text.front() == '\'' || text.front() == '"') &&
      text.back() == text.front()) {
    op.constant = Value(text.substr(1, text.size() - 2));
    return op;
  }
  if (text.find('.') != std::string::npos ||
      text.find('e') != std::string::npos) {
    auto d = Value::Parse(text, ValueType::kDouble);
    if (d.ok()) {
      op.constant = d.value();
      return op;
    }
  }
  auto i = Value::Parse(text, ValueType::kInt);
  if (i.ok()) {
    op.constant = i.value();
    return op;
  }
  // Fall back to a bare string literal.
  op.constant = Value(text);
  return op;
}

// First unquoted occurrence of `needle` in `text` at or after `from`.
// Quoted regions ('...' or "...") are opaque, so constants may contain
// operator characters, '&' and ':'.
size_t FindUnquoted(const std::string& text, const std::string& needle,
                    size_t from = 0) {
  char quote = '\0';
  for (size_t i = from; i < text.size(); ++i) {
    if (quote != '\0') {
      if (text[i] == quote) quote = '\0';
      continue;
    }
    if (text[i] == '\'' || text[i] == '"') {
      quote = text[i];
      continue;
    }
    if (text.compare(i, needle.size(), needle) == 0) return i;
  }
  return std::string::npos;
}

// Splits on an unquoted separator character.
std::vector<std::string> SplitUnquoted(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = FindUnquoted(text, std::string(1, sep), start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool QuotesBalanced(const std::string& text) {
  char quote = '\0';
  for (char c : text) {
    if (quote != '\0') {
      if (c == quote) quote = '\0';
    } else if (c == '\'' || c == '"') {
      quote = c;
    }
  }
  return quote == '\0';
}

// A rule-name prefix must look like an identifier; anything else (e.g. an
// atom whose quoted constant contains ':') is part of the body.
bool IsRuleName(const std::string& text) {
  if (text.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(text.front()))) return false;
  for (char c : text) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

Result<PredicateAtom> ParseAtom(const std::string& raw, const Schema& schema) {
  const std::string text = Trim(raw);
  // Find the operator outside quoted constants. Longest-match first to keep
  // "<=" from parsing as "<".
  static const char* kOps[] = {"<=", ">=", "==", "!=", "<>", "<", ">", "="};
  size_t op_pos = std::string::npos;
  std::string op_token;
  for (const char* candidate : kOps) {
    const size_t pos = FindUnquoted(text, candidate);
    if (pos != std::string::npos &&
        (op_pos == std::string::npos || pos < op_pos ||
         (pos == op_pos && std::string(candidate).size() > op_token.size()))) {
      op_pos = pos;
      op_token = candidate;
    }
  }
  if (op_pos == std::string::npos) {
    return Status::ParseError("no comparison operator in atom '" + text + "'");
  }
  DAISY_ASSIGN_OR_RETURN(CompareOp op, ParseCompareOp(op_token));
  DAISY_ASSIGN_OR_RETURN(Operand left,
                         ParseOperand(text.substr(0, op_pos), schema));
  DAISY_ASSIGN_OR_RETURN(
      Operand right, ParseOperand(text.substr(op_pos + op_token.size()), schema));
  if (left.is_constant && right.is_constant) {
    return Status::ParseError("atom '" + text + "' compares two constants");
  }
  // Normalize so the tuple reference is on the left.
  if (left.is_constant) {
    std::swap(left, right);
    op = FlipOp(op);
  }
  PredicateAtom atom;
  atom.left_tuple = left.tuple;
  atom.left_column_name = left.column;
  DAISY_ASSIGN_OR_RETURN(atom.left_column, schema.ColumnIndex(left.column));
  atom.op = op;
  if (right.is_constant) {
    atom.right_is_constant = true;
    atom.constant = right.constant;
  } else {
    atom.right_tuple = right.tuple;
    atom.right_column_name = right.column;
    DAISY_ASSIGN_OR_RETURN(atom.right_column,
                           schema.ColumnIndex(right.column));
  }
  return atom;
}

Result<DenialConstraint> ParseFdShorthand(const std::string& name,
                                          const std::string& body,
                                          const std::string& table,
                                          const Schema& schema) {
  const size_t arrow = body.find("->");
  if (arrow == std::string::npos) {
    return Status::ParseError("FD shorthand needs '->': " + body);
  }
  std::vector<PredicateAtom> atoms;
  for (const std::string& part : Split(body.substr(0, arrow), ',')) {
    const std::string col = Trim(part);
    if (col.empty()) return Status::ParseError("empty FD lhs attribute");
    PredicateAtom atom;
    atom.left_tuple = 0;
    atom.right_tuple = 1;
    atom.left_column_name = atom.right_column_name = col;
    DAISY_ASSIGN_OR_RETURN(atom.left_column, schema.ColumnIndex(col));
    atom.right_column = atom.left_column;
    atom.op = CompareOp::kEq;
    atoms.push_back(std::move(atom));
  }
  const std::string rhs = Trim(body.substr(arrow + 2));
  if (rhs.find(',') != std::string::npos) {
    return Status::ParseError(
        "FD rhs must be a single attribute (split Y1,Y2 into separate FDs): " +
        rhs);
  }
  PredicateAtom neq;
  neq.left_tuple = 0;
  neq.right_tuple = 1;
  neq.left_column_name = neq.right_column_name = rhs;
  DAISY_ASSIGN_OR_RETURN(neq.left_column, schema.ColumnIndex(rhs));
  neq.right_column = neq.left_column;
  neq.op = CompareOp::kNeq;
  atoms.push_back(std::move(neq));
  return DenialConstraint(name, table, 2, std::move(atoms));
}

}  // namespace

Result<DenialConstraint> ParseConstraint(const std::string& text,
                                         const std::string& table,
                                         const Schema& schema) {
  std::string body = Trim(text);
  if (!QuotesBalanced(body)) {
    return Status::ParseError("unterminated quote in constraint '" + text +
                              "'");
  }
  std::string name;
  // Optional "name:" prefix. Only an identifier-shaped prefix before the
  // first *unquoted* colon counts as a name, so quoted constants containing
  // ':' parse as part of the body instead of being mis-split.
  const size_t colon = FindUnquoted(body, ":");
  if (colon != std::string::npos) {
    const std::string maybe_name = Trim(body.substr(0, colon));
    if (IsRuleName(maybe_name)) {
      name = maybe_name;
      body = Trim(body.substr(colon + 1));
    }
  }
  if (name.empty()) name = "dc_" + table;

  const std::string lowered = ToLower(body);
  if (StartsWith(lowered, "fd ") || StartsWith(lowered, "fd:")) {
    return ParseFdShorthand(name, body.substr(3), table, schema);
  }

  // General form: optional leading "!" and surrounding parentheses.
  if (!body.empty() && body.front() == '!') body = Trim(body.substr(1));
  if (!body.empty() && body.front() == '(' && body.back() == ')') {
    body = Trim(body.substr(1, body.size() - 2));
  }
  if (body.empty()) return Status::ParseError("empty constraint body");

  std::vector<PredicateAtom> atoms;
  int num_tuples = 1;
  for (const std::string& part : SplitUnquoted(body, '&')) {
    const std::string atom_text = Trim(part);
    if (atom_text.empty()) {
      return Status::ParseError("empty atom in constraint '" + text + "'");
    }
    DAISY_ASSIGN_OR_RETURN(PredicateAtom atom, ParseAtom(atom_text, schema));
    if (atom.left_tuple == 1 ||
        (!atom.right_is_constant && atom.right_tuple == 1)) {
      num_tuples = 2;
    }
    atoms.push_back(std::move(atom));
  }
  return DenialConstraint(name, table, num_tuples, std::move(atoms));
}

}  // namespace daisy
