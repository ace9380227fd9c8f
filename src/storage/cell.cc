#include "storage/cell.h"

#include <sstream>

namespace daisy {

const char* CandidateKindToString(CandidateKind kind) {
  switch (kind) {
    case CandidateKind::kPoint:
      return "point";
    case CandidateKind::kLessThan:
      return "<";
    case CandidateKind::kLessEq:
      return "<=";
    case CandidateKind::kGreaterThan:
      return ">";
    case CandidateKind::kGreaterEq:
      return ">=";
  }
  return "?";
}

void NormalizeCandidates(std::vector<Candidate>* cands) {
  if (cands->empty()) return;
  double total = 0.0;
  for (const Candidate& c : *cands) total += c.prob;
  if (total <= 0.0) return;
  for (Candidate& c : *cands) c.prob /= total;
}

CandidateSet::CandidateSet(std::vector<Candidate> cands)
    : cands_(std::move(cands)), best_(cands_.size()) {
  for (size_t i = 0; i < cands_.size(); ++i) {
    if (cands_[i].kind != CandidateKind::kPoint) continue;
    if (best_ == cands_.size() || cands_[i].prob > cands_[best_].prob) {
      best_ = i;
    }
  }
}

CandidateSetPtr MakeCandidateSet(std::vector<Candidate> cands) {
  if (cands.empty()) return nullptr;
  return std::make_shared<const CandidateSet>(std::move(cands));
}

const std::vector<Candidate>& Cell::candidates() const {
  static const std::vector<Candidate> kNone;
  return candidates_ == nullptr ? kNone : candidates_->candidates();
}

const Value& Cell::MostProbable() const {
  if (candidates_ == nullptr) return original_;
  const Candidate* best = candidates_->most_probable();
  return best != nullptr ? best->value : original_;
}

std::vector<Value> Cell::PossibleValues() const {
  if (!is_probabilistic()) return {original_};
  std::vector<Value> out;
  for (const Candidate& c : candidates()) {
    if (c.kind != CandidateKind::kPoint) continue;
    bool seen = false;
    for (const Value& v : out) {
      if (v == c.value) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(c.value);
  }
  if (out.empty()) out.push_back(original_);
  return out;
}

bool Cell::MayEqual(const Value& v) const {
  if (!is_probabilistic()) return original_ == v;
  for (const Candidate& c : candidates()) {
    switch (c.kind) {
      case CandidateKind::kPoint:
        if (c.value == v) return true;
        break;
      case CandidateKind::kLessThan:
        if (v < c.value) return true;
        break;
      case CandidateKind::kLessEq:
        if (v <= c.value) return true;
        break;
      case CandidateKind::kGreaterThan:
        if (v > c.value) return true;
        break;
      case CandidateKind::kGreaterEq:
        if (v >= c.value) return true;
        break;
    }
  }
  return false;
}

bool Cell::MayBeInRange(const Value& low, const Value& high) const {
  auto point_in = [&](const Value& v) {
    if (!low.is_null() && v < low) return false;
    if (!high.is_null() && v > high) return false;
    return true;
  };
  if (!is_probabilistic()) return point_in(original_);
  for (const Candidate& c : candidates()) {
    switch (c.kind) {
      case CandidateKind::kPoint:
        if (point_in(c.value)) return true;
        break;
      case CandidateKind::kLessThan:
        // Candidate covers (-inf, bound): intersects [low, high] iff
        // low < bound (or low unbounded).
        if (low.is_null() || low < c.value) return true;
        break;
      case CandidateKind::kLessEq:
        if (low.is_null() || low <= c.value) return true;
        break;
      case CandidateKind::kGreaterThan:
        if (high.is_null() || high > c.value) return true;
        break;
      case CandidateKind::kGreaterEq:
        if (high.is_null() || high >= c.value) return true;
        break;
    }
  }
  return false;
}

std::string Cell::ToString() const {
  if (!is_probabilistic()) return original_.ToString();
  std::ostringstream oss;
  oss << "{";
  const std::vector<Candidate>& cands = candidates();
  for (size_t i = 0; i < cands.size(); ++i) {
    if (i > 0) oss << "|";
    const Candidate& c = cands[i];
    if (c.kind != CandidateKind::kPoint) oss << CandidateKindToString(c.kind);
    oss << c.value.ToString() << ":" << c.prob;
    if (c.pair_id >= 0) oss << "@" << c.pair_id;
  }
  oss << "}";
  return oss.str();
}

}  // namespace daisy
