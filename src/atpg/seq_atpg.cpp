#include "atpg/seq_atpg.hpp"

#include <algorithm>

#include "atpg/frame_model.hpp"
#include "atpg/podem.hpp"
#include "atpg/sat_second_chance.hpp"
#include "atpg/scan_knowledge.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/fault_sim_session.hpp"
#include "util/cancel.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace uniscan {

namespace {

TestSequence random_chunk(const ScanCircuit& sc, std::size_t len, double scan_sel_prob,
                          Rng& rng) {
  TestSequence seq(sc.netlist.num_inputs());
  for (std::size_t t = 0; t < len; ++t) {
    std::vector<V3> vec(sc.netlist.num_inputs());
    for (auto& v : vec) v = rng.next_bool() ? V3::One : V3::Zero;
    vec[sc.scan_sel_index()] = rng.next_double() < scan_sel_prob ? V3::One : V3::Zero;
    seq.append(std::move(vec));
  }
  return seq;
}

}  // namespace

AtpgResult generate_tests(const ScanCircuit& sc, const AtpgOptions& options) {
  const FaultList faults = FaultList::collapsed(sc.netlist);
  return generate_tests(sc, faults, options);
}

AtpgResult generate_tests(const ScanCircuit& sc, const FaultList& faults,
                          const AtpgOptions& options) {
  const Netlist& nl = sc.netlist;
  Rng rng(options.seed);
  const obs::CounterScope evals_scope;

  AtpgResult result;
  result.num_faults = faults.size();
  result.sequence = TestSequence(nl.num_inputs());

  FaultSimSession session(nl, faults.faults());
  std::vector<bool> via_scan_knowledge(faults.size(), false);

  // One strided view of the deadline for the whole generation flow: loop
  // bodies here cost microseconds, so polling the token every iteration
  // dominated small-circuit runs (see util/cancel.hpp).
  StridedPoll cancel(options.cancel);

  // ---- phase 1: random bootstrap -------------------------------------------
  std::size_t useless = 0;
  for (std::size_t chunk_no = 0;
       chunk_no < options.max_random_chunks && useless < options.random_give_up_after &&
       session.num_detected() < faults.size();
       ++chunk_no) {
    if (cancel.poll()) {
      result.timed_out = true;
      break;
    }
    TestSequence chunk =
        random_chunk(sc, options.random_chunk_len, options.random_scan_sel_prob, rng);
    const auto snap = session.snapshot();
    const std::size_t gained = session.advance(chunk);
    if (gained == 0) {
      session.restore(snap);
      ++useless;
      continue;
    }
    useless = 0;
    result.sequence.append_sequence(chunk);
    ++result.stats.random_chunks_accepted;
  }

  // ---- phase 2: deterministic per-fault generation --------------------------
  // Commit a candidate subsequence if it makes the session detect fault fi;
  // returns false (and rolls back) otherwise.
  const auto try_commit = [&](std::size_t fi, TestSequence sub) {
    sub.random_fill(rng);
    const auto snap = session.snapshot();
    session.advance(sub);
    if (!session.is_detected(fi)) {
      session.restore(snap);
      return false;
    }
    result.sequence.append_sequence(sub);
    return true;
  };

  State good, faulty;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (cancel.poll()) {
      result.timed_out = true;
      break;
    }
    if (session.is_detected(fi)) continue;
    session.pair_state(fi, good, faulty);

    // (a) Plain forward search from the current machine state.
    bool done = false;
    for (std::size_t w : options.window_schedule) {
      FrameModel model(session.compiled(), faults[fi], w);
      model.set_initial_state(good, faulty);
      ++result.stats.podem_calls;
      PodemResult pr =
          run_podem(model, PodemGoal::ObservePo, {options.max_backtracks, options.cancel});
      if (!pr.success) continue;
      if (try_commit(fi, pr.subsequence)) {
        ++result.stats.podem_successes;
        done = true;
        break;
      }
      UNISCAN_LOG(Warn) << "PODEM success not confirmed by fault simulation for fault " << fi;
    }
    if (done || !options.use_scan_knowledge) continue;

    // (b) Scan-load justification assist (paper Section 2, justification
    // side): search with an assignable state in a SMALL window, then reach
    // that state through an explicit scan load. Keeps the window short even
    // for circuits with long chains. A latched-only observation gets the
    // flush of (c) appended.
    {
      FrameModel model(session.compiled(), faults[fi], options.justify_window);
      model.set_state_assignable(true);
      ++result.stats.podem_calls;
      PodemResult pr =
          run_podem(model, PodemGoal::ScanObserve, {options.max_backtracks, options.cancel});
      if (pr.success) {
        State target(pr.scan_in.begin(), pr.scan_in.end());
        TestSequence sub = make_scan_load_all(sc, target, rng);
        sub.append_sequence(pr.subsequence);
        if (!pr.observed_at_po) {
          const ChainPosition pos = chain_position(sc, pr.latched_dff);
          sub.append_sequence(make_flush_sequence(
              sc, pos.chain, flush_length(sc.nets.chains[pos.chain], pos.cell), rng));
        }
        if (try_commit(fi, std::move(sub))) {
          ++result.stats.scan_load_assisted;
          if (!pr.observed_at_po) via_scan_knowledge[fi] = true;
          continue;
        }
      }
    }

    // (c) Section-2 fallback: latch the effect from the CURRENT state, then
    // flush it to scan_out.
    ++result.stats.fallback_attempts;
    FrameModel model(session.compiled(), faults[fi], options.fallback_window);
    model.set_initial_state(good, faulty);
    PodemResult pr =
        run_podem(model, PodemGoal::LatchIntoFf, {options.max_backtracks, options.cancel});
    if (!pr.success) continue;

    const ChainPosition pos = chain_position(sc, pr.latched_dff);
    TestSequence sub = pr.subsequence;
    sub.append_sequence(make_flush_sequence(
        sc, pos.chain, flush_length(sc.nets.chains[pos.chain], pos.cell), rng));
    if (try_commit(fi, std::move(sub))) via_scan_knowledge[fi] = true;
  }

  // ---- phase 3: SAT second chance (DESIGN.md §5l) ----------------------------
  sat_second_chance(sc, options, /*transition=*/false, session, faults, cancel, rng, try_commit,
                    via_scan_knowledge, result);

  // ---- final verification ----------------------------------------------------
  FaultSimulator verifier(nl);
  result.detection = verifier.run(result.sequence, faults.faults());
  result.gate_evals = evals_scope.delta(obs::Counter::GateEvals);
  result.detected = 0;
  for (std::size_t i = 0; i < result.detection.size(); ++i) {
    if (result.detection[i].detected) {
      ++result.detected;
      if (via_scan_knowledge[i]) ++result.detected_by_scan_knowledge;
    }
  }
  if (result.detected != session.num_detected())
    UNISCAN_LOG(Warn) << "session/verifier detection mismatch: " << session.num_detected()
                      << " vs " << result.detected;
  return result;
}

}  // namespace uniscan
