// The SAT second chance (DESIGN.md §5l): the last phase of both
// generate_tests and generate_transition_tests, written once for both fault
// models.
#pragma once

#include <cstddef>
#include <vector>

#include "atpg/scan_knowledge.hpp"
#include "atpg/seq_atpg.hpp"
#include "sat/sat_engine.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace uniscan {

/// Hand every fault `session` still leaves undetected to the SAT engine,
/// once. A model becomes a scan load, the solver's subsequence and, when the
/// effect is only latched, a flush; `try_commit(fi, sub)` replays it through
/// the session like every other candidate. An UNSAT result proves the fault
/// redundant, the only source of that verdict. The tests are scan loads, so
/// the pass runs only with `use_scan_knowledge`, like the generators' scan
/// steps, and only with SAT on and time left.
///
/// `transition` adds the launch frame to the miter, matching the
/// generator's FrameModel windows, and quantifies the launch history
/// (`tf_prev_assignable`), without which a depth-bounded transition
/// redundancy claim is unsound.
template <class Session, class Faults, class TryCommit, class Result>
void sat_second_chance(const ScanCircuit& sc, const AtpgOptions& options, bool transition,
                       const Session& session, const Faults& faults, StridedPoll& cancel,
                       Rng& rng, const TryCommit& try_commit,
                       std::vector<bool>& via_scan_knowledge, Result& result) {
  if (!options.use_scan_knowledge || options.sat_mode == SatMode::Off || result.timed_out)
    return;
  const sat::SatEngine engine(session.compiled());
  sat::SatEngineOptions sopt;
  sopt.frames = options.sat_frames + (transition ? 1 : 0);
  sopt.state_assignable = true;
  sopt.tf_prev_assignable = transition;
  sopt.max_conflicts = options.sat_max_conflicts;
  sopt.cancel = options.cancel;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (cancel.poll()) {
      result.timed_out = true;
      break;
    }
    if (session.is_detected(fi)) continue;
    ++result.sat.attempts;
    const sat::SatResult sr = engine.prove(faults[fi], sopt);
    if (sr.verdict == sat::SatVerdict::RedundantProved) {
      ++result.sat.proved_redundant;
      ++result.proved_redundant;
      continue;
    }
    if (sr.verdict == sat::SatVerdict::Aborted) {
      ++result.sat.aborted;
      continue;
    }
    State target(sr.scan_in.begin(), sr.scan_in.end());
    TestSequence sub = make_scan_load_all(sc, target, rng);
    sub.append_sequence(sr.subsequence);
    if (!sr.observed_at_po) {
      const ChainPosition pos = chain_position(sc, *sr.latched_dff);
      sub.append_sequence(make_flush_sequence(
          sc, pos.chain, flush_length(sc.nets.chains[pos.chain], pos.cell), rng));
    }
    if (try_commit(fi, std::move(sub))) {
      ++result.sat.detected;
      if (!sr.observed_at_po) via_scan_knowledge[fi] = true;
    } else {
      // A legitimate miss, as on PODEM's justify path: the (SI, T) model
      // assumes the scan load delivers SI to BOTH machines, but a fault in
      // the chain circuitry can corrupt the load itself; for a transition
      // fault the model also chose its own launch history, while the
      // committed load pins whatever its last shift drives. No claim is
      // made; the summary's mismatch counter records it.
      ++result.sat.mismatches;
    }
  }
}

}  // namespace uniscan
