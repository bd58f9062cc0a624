// UNSAT certificates emitted by the SAT engine (DESIGN.md §5l).
//
// A certificate is the original CNF plus an ADDITION-ONLY list of learned
// clauses ending with the empty clause. Every step must hold by reverse
// unit propagation (RUP) over the original clauses and the previously
// accepted steps: assuming the negation of the step's literals and unit
// propagating must yield a conflict. The solver never records deletions
// (its clause-DB reduction only shrinks the live database, while the proof
// keeps the cumulative set), which keeps the checker a propagation loop
// with no bookkeeping for removed clauses — propagation over a superset of
// the solver's live clauses derives at least as much.
//
// The independent replay checker lives in tests/ (certificate_check.hpp)
// so validation never trusts the solver's internal state.
#pragma once

#include <cstddef>
#include <vector>

#include "sat/cnf.hpp"

namespace uniscan::sat {

struct UnsatCertificate {
  std::size_t num_vars = 0;
  std::vector<Clause> clauses;  // the original CNF, as handed to the solver
  std::vector<Clause> steps;    // learned additions, in order; last is empty
};

}  // namespace uniscan::sat
