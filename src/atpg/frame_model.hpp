// Iterative-array (time-frame expansion) model of a sequential circuit with
// one injected stuck-at fault, over the five-valued D-calculus.
//
// Frame 0's present state is a fixed (good, faulty) pair — the machine pair
// state reached by the test sequence generated so far. Primary inputs of
// every frame are the decision variables; everything else is derived by
// forward pair simulation. The fault is injected in every frame (a stuck-at
// fault is permanent).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/dcalc.hpp"
#include "fault/fault.hpp"
#include "fault/transition_fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/sequence.hpp"
#include "sim/sequential_sim.hpp"

namespace uniscan {

class FrameModel {
 public:
  /// Convenience form: compiles `nl` privately. Hot callers (the ATPG loops,
  /// which build one model per fault attempt) should pass a shared
  /// CompiledNetlist instead — e.g. their session's compiled().
  FrameModel(const Netlist& nl, Fault fault, std::size_t num_frames);
  FrameModel(const CompiledNetlist& cnl, Fault fault, std::size_t num_frames);

  /// Transition-fault variant: the faulted line's faulty component follows
  /// the one-cycle gross-delay semantics (STR: and(now, prev), STF: or).
  /// The launch history entering frame 0 defaults to X; see
  /// set_initial_prev_driven().
  FrameModel(const Netlist& nl, TransitionFault fault, std::size_t num_frames);
  FrameModel(const CompiledNetlist& cnl, TransitionFault fault, std::size_t num_frames);

  const Netlist& netlist() const noexcept { return *nl_; }
  const CompiledNetlist& compiled() const noexcept { return *cnl_; }
  std::size_t num_frames() const noexcept { return num_frames_; }
  const Fault& fault() const noexcept { return fault_; }
  bool is_transition() const noexcept { return is_transition_; }
  bool slow_to_rise() const noexcept { return slow_to_rise_; }

  /// Faulted line's driven value in the faulty machine at the cycle before
  /// frame 0 (from the streaming session when extending a sequence).
  void set_initial_prev_driven(V3 v) noexcept {
    tf_prev_init_ = v;
    full_pending_ = true;
  }

  /// Fix the machine-pair state entering frame 0.
  void set_initial_state(const State& good, const State& faulty);

  /// Make frame 0's present state a decision variable instead of a fixed
  /// value — the scan-in vector of the conventional (SI, T) test model used
  /// by the baseline generators. Assigned via assign_state().
  void set_state_assignable(bool v) {
    state_assignable_ = v;
    full_pending_ = true;
  }
  bool state_assignable() const noexcept { return state_assignable_; }

  // ---- decision variables ---------------------------------------------------
  // An assignment records an event on its boundary gate; simulate() then
  // re-evaluates only the fanout cone of what actually changed.
  void assign(std::size_t frame, std::size_t pi, V3 v) {
    pi_assign_[frame * npi_ + pi] = v;
    if (!full_pending_) events_.push_back({frame, cnl_->inputs()[pi]});
  }
  V3 assignment(std::size_t frame, std::size_t pi) const { return pi_assign_[frame * npi_ + pi]; }
  void assign_state(std::size_t dff, V3 v) {
    state_assign_[dff] = v;
    if (!full_pending_) events_.push_back({0, cnl_->dffs()[dff]});
  }
  V3 state_assignment(std::size_t dff) const { return state_assign_[dff]; }

  /// Hold input `pi` at `v` in every frame. Pins survive clear_assignments()
  /// and are never chosen as decision variables (the baseline generators pin
  /// scan_sel = 0 so the search stays in the functional mode).
  void pin_input(std::size_t pi, V3 v);
  /// The assigned scan-in vector (unassigned cells are X).
  const std::vector<V3>& extract_state_assignment() const noexcept { return state_assign_; }
  void clear_assignments();

  // ---- simulation -----------------------------------------------------------

  /// Forward pair-simulate all frames under the current assignments. After
  /// construction or a reset (clear_assignments, set_initial_state,
  /// pin_input, set_state_assignable, set_initial_prev_driven) every frame
  /// is evaluated; otherwise only the fanout cones of the recorded events,
  /// carried across frames through next-state and launch-value changes.
  void simulate();

  /// Value of gate `g` in frame `f` (after simulate()).
  V5 value(std::size_t f, GateId g) const { return values_[f * nl_->num_gates() + g]; }

  /// Pin value of gate g's pin p in frame f, including branch-fault forcing.
  V5 pin_value(std::size_t f, GateId g, std::size_t p) const;

  /// Value forced onto the faulted line's faulty component at `frame`, given
  /// the faulty machine's driven value (stuck value, or delay semantics).
  V3 forced_faulty(std::size_t frame, V3 driven_faulty) const;

  /// Earliest frame whose POs expose a fault effect, after simulate().
  std::optional<std::size_t> po_detection_frame() const { return po_detect_; }

  /// Earliest (frame, dff) whose *next state* carries a fault effect; among
  /// equal frames, the DFF deepest in Netlist::dffs() order (fewest scan
  /// shifts to the chain tail). Valid after simulate().
  struct LatchedEffect {
    std::size_t frame;
    std::size_t dff_index;
  };
  std::optional<LatchedEffect> first_latched_effect() const { return latch_; }

  /// D-frontier after simulate(): (frame, gate) pairs where a fault effect
  /// sits on an input but the output is not fully known, frame-major and in
  /// Netlist::topo_order() order within a frame.
  const std::vector<std::pair<std::size_t, GateId>>& d_frontier() const { return frontier_; }

  /// True if a fault effect exists anywhere in the model after simulate().
  bool any_effect() const noexcept { return any_effect_; }

  /// Extract the assigned PI vectors of frames [0, frames_used) as a test
  /// subsequence (unassigned inputs stay X).
  TestSequence extract_sequence(std::size_t frames_used) const;

  // ---- controllability costs ------------------------------------------------
  // SCOAP-flavoured per-net costs on the sequential circuit (DFF outputs
  // take their D cost plus a penalty; a few fixpoint sweeps). Used by the
  // PODEM backtrace to order choices.
  std::uint32_t cost0(GateId g) const { return cost0_[g]; }
  std::uint32_t cost1(GateId g) const { return cost1_[g]; }

 private:
  FrameModel(std::optional<CompiledNetlist> owned, const CompiledNetlist* shared, Fault fault,
             std::size_t num_frames);
  void compute_costs();

  // Both return the number of gate evaluations they made.
  std::uint64_t simulate_all();     // every frame, type-run kernel
  std::uint64_t simulate_events();  // fanout cones of events_ only
  void collect_effects();  // D-frontier, detection and any-effect results
  // Frame 0's present state of DFF j: the scan-in assignment or the fixed pair.
  V5 initial_state(std::size_t j) const;
  // The next three apply the fault's forcing; at the fault site they also
  // record the faulted line's faulty driven value in tf_prev_by_frame_[f+1].
  // Value of boundary gate g (PI or DFF) in frame f, with stem forcing.
  V5 boundary_value(std::size_t f, GateId g);
  // The faulted combinational gate, with per-pin or stem forcing.
  V5 eval_forced_gate(std::size_t f, const V5* vals);
  // Next state of DFF j after frame f, with D-pin branch forcing.
  V5 next_state(std::size_t f, std::size_t j, const V5* vals);
  void refresh_po(std::size_t f);
  void refresh_latch(std::size_t f);

  std::optional<CompiledNetlist> owned_compile_;  // backing store for the Netlist ctors
  const CompiledNetlist* cnl_;
  const Netlist* nl_;
  // Full-core evaluation plan with the faulted combinational gate (if the
  // fault sits on one) excluded for individual forced evaluation;
  // fault_split_ is the first run at a level above it.
  BatchProgram prog_;
  std::size_t fault_split_ = 0;
  GateId forced_gate_ = kNoGate;  // the faulted combinational gate, if any
  Fault fault_;  // for transitions: same site, stuck value unused
  bool is_transition_ = false;
  bool slow_to_rise_ = false;
  V3 tf_prev_init_ = V3::X;
  std::size_t num_frames_;
  std::size_t npi_;

  State init_good_, init_faulty_;
  bool state_assignable_ = false;
  std::vector<V3> state_assign_;  // frame-0 PS decision variables
  std::vector<V3> pi_pins_;       // per-PI pinned value (X = unpinned)
  std::vector<V3> pi_assign_;     // frame-major [frame * npi + pi]
  std::vector<V5> values_;     // frame-major [frame * num_gates + gate]
  // Machine-pair state entering each frame: (num_frames+1) rows, row f+1 is
  // the next state after frame f.
  std::vector<V5> frame_state_;
  // Faulted line's faulty driven value per frame: entry f is the launch
  // history entering frame f, entry f+1 what frame f drove.
  std::vector<V3> tf_prev_by_frame_;

  // Event state. full_pending_ is the reset flag: the next simulate()
  // evaluates every frame. Otherwise events_ holds the (frame, boundary
  // gate) pairs whose source changed since the last simulate().
  bool full_pending_ = true;
  std::vector<std::pair<std::size_t, GateId>> events_;
  // Gates pending evaluation in the frame being evaluated: a bitmap over
  // Netlist::topo_order() positions (CompiledNetlist::topo_pos).
  std::vector<std::uint64_t> pending_;
  std::vector<std::uint32_t> ns_pending_;  // DFFs whose next state may change
  std::vector<std::uint8_t> ns_queued_;   // per DFF
  std::vector<std::uint32_t> carry_, next_carry_;  // DFFs changed into a frame

  // Per-frame results and the fault-effect-carrying (frame, gate) pairs —
  // a superset between simulate() calls, pruned by collect_effects().
  std::vector<std::uint8_t> po_d_frame_;
  std::vector<std::int32_t> latch_frame_;  // largest latching DFF, or -1
  std::vector<std::pair<std::size_t, GateId>> effects_;
  std::vector<std::uint64_t> cand_;  // frontier candidates, (frame, topo_pos)

  std::optional<std::size_t> po_detect_;
  std::optional<LatchedEffect> latch_;
  std::vector<std::pair<std::size_t, GateId>> frontier_;
  bool any_effect_ = false;

  std::vector<std::uint32_t> cost0_, cost1_;
};

}  // namespace uniscan
