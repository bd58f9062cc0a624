// Serial single-fault reference simulators: the tests' oracle for the
// parallel-fault kernels (FaultSimulator, TransitionFaultSimulator and the
// sessions built on them).
//
// Each call simulates ONE fault from the all-X power-up state with plain
// three-valued scalar logic: a good machine and a faulty machine side by
// side, every combinational gate evaluated in Netlist::topo_order(), no
// slot words, no compiled program, no cone pruning. The fault acts on its
// line only: a stem fault rewrites the gate's own value, a branch fault
// rewrites what the gate reads on that one pin (pin 0 of a DFF is its D
// input, sampled at the end of the frame).
//
//  * Stuck-at: the line is forced to the stuck value.
//  * Transition (one-cycle gross delay, the sim/transition_sim.hpp
//    contract): the line carries and(driven(t), driven(t-1)) when slow to
//    rise, or(driven(t), driven(t-1)) when slow to fall, where driven(t) is
//    the faulty machine's unforced value of the line and driven(-1) = X.
//
// Detection, latch and state semantics follow DetectionRecord and
// LatchRecord (sim/fault_sim.hpp): detected at the first frame where some
// primary output has a known good value and the opposite known faulty
// value; a latch is a known, opposing faulty DFF value entering frame t+1,
// keeping the deepest DFF index (the latest frame among equals).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "fault/transition_fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/fault_sim.hpp"
#include "sim/logic3.hpp"
#include "sim/sequence.hpp"
#include "sim/sequential_sim.hpp"

namespace uniscan {

/// Everything the reference knows about one fault after the whole sequence.
struct ReferenceRun {
  DetectionRecord detection;
  LatchRecord latch;
  State good, faulty;      // machine pair entering frame seq.length()
  V3 prev_driven = V3::X;  // transition model: driven value of the last frame
};

namespace reference_detail {

/// Shared single-fault loop. `inject(driven)` returns the value the faulted
/// line carries in the faulty machine; `end_frame()` runs once per clock.
template <class Inject, class EndFrame>
ReferenceRun run(const Netlist& nl, GateId site, std::int16_t pin, const TestSequence& seq,
                 Inject&& inject, EndFrame&& end_frame) {
  ReferenceRun r;
  r.good.assign(nl.num_dffs(), V3::X);
  r.faulty.assign(nl.num_dffs(), V3::X);
  std::vector<V3> gv(nl.num_gates(), V3::X), bv(nl.num_gates(), V3::X);

  const auto stem = [&](GateId g) {
    if (pin == kStemPin && g == site) bv[g] = inject(bv[g]);
  };
  const auto faulty_pin = [&](GateId g, std::size_t p) {
    const V3 v = bv[nl.gate(g).fanins[p]];
    const bool hit = pin != kStemPin && g == site && p == static_cast<std::size_t>(pin);
    return hit ? inject(v) : v;
  };

  V3 buf[64];
  for (std::size_t t = 0; t < seq.length(); ++t) {
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      const GateId g = nl.inputs()[i];
      gv[g] = bv[g] = seq.at(t, i);
      stem(g);
    }
    for (std::size_t j = 0; j < nl.num_dffs(); ++j) {
      const GateId g = nl.dffs()[j];
      gv[g] = r.good[j];
      bv[g] = r.faulty[j];
      stem(g);
    }
    for (const GateId g : nl.topo_order()) {
      const Gate& gate = nl.gate(g);
      const std::size_t n = gate.fanins.size();
      for (std::size_t p = 0; p < n; ++p) buf[p] = gv[gate.fanins[p]];
      gv[g] = eval_gate_v3(gate.type, buf, n);
      for (std::size_t p = 0; p < n; ++p) buf[p] = faulty_pin(g, p);
      bv[g] = eval_gate_v3(gate.type, buf, n);
      stem(g);
    }

    if (!r.detection.detected) {
      for (const GateId po : nl.outputs()) {
        if (gv[po] != V3::X && bv[po] != V3::X && gv[po] != bv[po]) {
          r.detection.detected = true;
          r.detection.time = static_cast<std::uint32_t>(t);
          break;
        }
      }
    }

    for (std::size_t j = 0; j < nl.num_dffs(); ++j) {
      const GateId ff = nl.dffs()[j];
      r.good[j] = gv[nl.gate(ff).fanins[0]];
      r.faulty[j] = faulty_pin(ff, 0);
    }
    end_frame();

    for (std::size_t j = 0; j < nl.num_dffs(); ++j) {
      const V3 g = r.good[j], f = r.faulty[j];
      if (g == V3::X || f == V3::X || g == f) continue;
      if (!r.latch.latched || j >= r.latch.ff_index) {
        r.latch.latched = true;
        r.latch.ff_index = static_cast<std::uint32_t>(j);
        r.latch.time = static_cast<std::uint32_t>(t);
      }
    }
  }
  return r;
}

}  // namespace reference_detail

/// Simulate stuck-at fault `f` alone over `seq`.
inline ReferenceRun reference_stuck_at(const Netlist& nl, const Fault& f,
                                       const TestSequence& seq) {
  const V3 stuck = f.stuck_one ? V3::One : V3::Zero;
  return reference_detail::run(
      nl, f.gate, f.pin, seq, [&](V3) { return stuck; }, [] {});
}

/// Simulate transition fault `f` alone over `seq`.
inline ReferenceRun reference_transition(const Netlist& nl, const TransitionFault& f,
                                         const TestSequence& seq) {
  V3 prev = V3::X, pending = V3::X;
  ReferenceRun r = reference_detail::run(
      nl, f.gate, f.pin, seq,
      [&](V3 driven) {
        pending = driven;
        return f.slow_to_rise ? v3_and(driven, prev) : v3_or(driven, prev);
      },
      [&] { prev = pending; });
  r.prev_driven = prev;
  return r;
}

}  // namespace uniscan
