// Independent replay checker for the SAT engine's UNSAT certificates
// (sat/certificate.hpp), shared by the tests that need a redundancy claim
// checked. It shares NO code with the solver: it is a plain
// repeat-until-fixpoint unit-propagation loop, so a valid certificate is
// evidence of unsatisfiability that does not rest on any solver invariant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sat/certificate.hpp"

namespace uniscan::sat {

/// Does `step` hold by reverse unit propagation over `db`? Assume the
/// negation of every literal of `step` as a unit, then unit propagate over
/// `db` until fixpoint; the step holds iff propagation derives a conflict.
inline bool rup_holds(const std::vector<Clause>& db, const Clause& step, std::size_t num_vars) {
  // -1 = unassigned, 0 = false, 1 = true.
  std::vector<std::int8_t> val(num_vars, -1);
  for (const Lit l : step) {
    const std::int8_t want = l.sign() ? 1 : 0;  // negation of the literal
    if (val[l.var()] == -1) {
      val[l.var()] = want;
    } else if (val[l.var()] != want) {
      return true;  // the negated step is itself contradictory
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Clause& c : db) {
      std::size_t unassigned = 0;
      Lit last = kLitUndef;
      bool satisfied = false;
      for (const Lit l : c) {
        const std::int8_t v = val[l.var()];
        if (v == -1) {
          ++unassigned;
          last = l;
        } else if (v == (l.sign() ? 0 : 1)) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      if (unassigned == 0) return true;  // conflict
      if (unassigned == 1) {
        val[last.var()] = last.sign() ? 0 : 1;
        changed = true;
      }
    }
  }
  return false;  // fixpoint without conflict: the step is not RUP-implied
}

/// Full certificate check: every step must be RUP w.r.t. the originals plus
/// all previously accepted steps, and the derivation must end with the
/// empty clause.
inline bool check_certificate(const UnsatCertificate& cert) {
  if (cert.steps.empty() || !cert.steps.back().empty()) return false;
  std::vector<Clause> db = cert.clauses;
  for (const Clause& step : cert.steps) {
    for (const Lit l : step)
      if (l.var() >= cert.num_vars) return false;  // out-of-range literal
    if (!rup_holds(db, step, cert.num_vars)) return false;
    db.push_back(step);
  }
  return true;
}

}  // namespace uniscan::sat
