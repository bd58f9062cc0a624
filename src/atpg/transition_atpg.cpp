#include "atpg/transition_atpg.hpp"

#include <algorithm>

#include "atpg/frame_model.hpp"
#include "atpg/podem.hpp"
#include "atpg/sat_second_chance.hpp"
#include "atpg/scan_knowledge.hpp"
#include "obs/counters.hpp"
#include "sim/transition_sim.hpp"
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

TransitionAtpgResult generate_transition_tests(const ScanCircuit& sc,
                                               const AtpgOptions& options) {
  return generate_transition_tests(sc, enumerate_transition_faults(sc.netlist), options);
}

TransitionAtpgResult generate_transition_tests(const ScanCircuit& sc,
                                               const std::vector<TransitionFault>& faults,
                                               const AtpgOptions& options) {
  const Netlist& nl = sc.netlist;
  Rng rng(options.seed ^ 0x7261746eULL);
  const obs::CounterScope evals_scope;

  TransitionAtpgResult result;
  result.num_faults = faults.size();
  result.sequence = TestSequence(nl.num_inputs());

  TransitionSimSession session(nl, faults);
  std::vector<bool> via_scan_knowledge(faults.size(), false);

  // Strided deadline polling, as in generate_tests (see util/cancel.hpp).
  StridedPoll cancel(options.cancel);

  // ---- random bootstrap ------------------------------------------------------
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
    if (session.advance(chunk) == 0) {
      session.restore(snap);
      ++useless;
      continue;
    }
    useless = 0;
    result.sequence.append_sequence(chunk);
    ++result.stats.random_chunks_accepted;
  }

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

  // ---- deterministic phase ----------------------------------------------------
  State good, faulty;
  V3 prev_driven = V3::X;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (cancel.poll()) {
      result.timed_out = true;
      break;
    }
    if (session.is_detected(fi)) continue;
    session.pair_state(fi, good, faulty, prev_driven);

    bool done = false;
    for (std::size_t w : options.window_schedule) {
      FrameModel model(session.compiled(), faults[fi], w + 1);  // +1 frame for the launch
      model.set_initial_state(good, faulty);
      model.set_initial_prev_driven(prev_driven);
      ++result.stats.podem_calls;
      PodemResult pr =
          run_podem(model, PodemGoal::ObservePo, {options.max_backtracks, options.cancel});
      if (!pr.success) continue;
      if (try_commit(fi, pr.subsequence)) {
        ++result.stats.podem_successes;
        done = true;
        break;
      }
      UNISCAN_LOG(Warn) << "transition PODEM success unconfirmed for fault " << fi;
    }
    if (done || !options.use_scan_knowledge) continue;

    // Scan-load justification assist.
    {
      FrameModel model(session.compiled(), faults[fi], options.justify_window + 1);
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

    // Latch-and-flush fallback from the current state.
    ++result.stats.fallback_attempts;
    FrameModel model(session.compiled(), faults[fi], options.fallback_window + 1);
    model.set_initial_state(good, faulty);
    model.set_initial_prev_driven(prev_driven);
    PodemResult pr =
        run_podem(model, PodemGoal::LatchIntoFf, {options.max_backtracks, options.cancel});
    if (!pr.success) continue;
    const ChainPosition pos = chain_position(sc, pr.latched_dff);
    TestSequence sub = pr.subsequence;
    sub.append_sequence(make_flush_sequence(
        sc, pos.chain, flush_length(sc.nets.chains[pos.chain], pos.cell), rng));
    if (try_commit(fi, std::move(sub))) via_scan_knowledge[fi] = true;
  }

  // ---- SAT second chance (DESIGN.md §5l) --------------------------------------
  sat_second_chance(sc, options, /*transition=*/true, session, faults, cancel, rng, try_commit,
                    via_scan_knowledge, result);

  // ---- final verification ------------------------------------------------------
  TransitionFaultSimulator verifier(nl);
  result.detection = verifier.run(result.sequence, faults);
  result.gate_evals = evals_scope.delta(obs::Counter::GateEvals);
  for (std::size_t i = 0; i < result.detection.size(); ++i) {
    if (result.detection[i].detected) {
      ++result.detected;
      if (via_scan_knowledge[i]) ++result.detected_by_scan_knowledge;
    }
  }
  if (result.detected != session.num_detected())
    UNISCAN_LOG(Warn) << "transition session/verifier mismatch: " << session.num_detected()
                      << " vs " << result.detected;
  return result;
}

}  // namespace uniscan
