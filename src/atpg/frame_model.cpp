#include "atpg/frame_model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>

#include "obs/counters.hpp"

namespace uniscan {
namespace {

// Five-valued pair codes (3 * good + faulty) and the primitive tables over
// them, generated at compile time from the three-valued functions
// (sim/logic3.hpp).
constexpr std::size_t code(V5 v) noexcept {
  return static_cast<std::size_t>(v.good) * 3 + static_cast<std::size_t>(v.faulty);
}
constexpr V5 decode(std::size_t c) noexcept {
  return {static_cast<V3>(c / 3), static_cast<V3>(c % 3)};
}
template <std::size_t N, class F>
constexpr std::array<V5, N> make_table(F fn) noexcept {
  std::array<V5, N> t{};
  for (std::size_t i = 0; i < N; ++i) t[i] = fn(i);
  return t;
}
template <V3 (*Op)(V3, V3)>
constexpr std::array<V5, 81> binary_table() noexcept {
  return make_table<81>([](std::size_t i) {
    const V5 a = decode(i / 9), b = decode(i % 9);
    return V5{Op(a.good, b.good), Op(a.faulty, b.faulty)};
  });
}
constexpr std::array<V5, 9> kNot = make_table<9>([](std::size_t i) {
  const V5 a = decode(i);
  return V5{v3_not(a.good), v3_not(a.faulty)};
});
constexpr std::array<V5, 81> kAnd = binary_table<v3_and>();
constexpr std::array<V5, 81> kOr = binary_table<v3_or>();
constexpr std::array<V5, 81> kXor = binary_table<v3_xor>();
constexpr std::array<V5, 729> kMux = make_table<729>([](std::size_t i) {
  const V5 d0 = decode(i / 81), d1 = decode(i / 9 % 9), s = decode(i % 9);
  return V5{v3_mux(d0.good, d1.good, s.good), v3_mux(d0.faulty, d1.faulty, s.faulty)};
});

/// Component-wise five-valued logic for the gate kernels: a V5 is a (good,
/// faulty) V3 pair and gate evaluation is exact per component. Each
/// primitive is one table lookup: the same results as applying the V3
/// functions per component, without their branches.
struct V5Ops {
  using value = V5;
  static V5 not_(V5 a) noexcept { return kNot[code(a)]; }
  static V5 and_(V5 a, V5 b) noexcept { return kAnd[code(a) * 9 + code(b)]; }
  static V5 or_(V5 a, V5 b) noexcept { return kOr[code(a) * 9 + code(b)]; }
  static V5 xor_(V5 a, V5 b) noexcept { return kXor[code(a) * 9 + code(b)]; }
  static V5 mux(V5 d0, V5 d1, V5 s) noexcept {
    return kMux[(code(d0) * 9 + code(d1)) * 9 + code(s)];
  }
  static V5 zero() noexcept { return V5::zero(); }
  static V5 one() noexcept { return V5::one(); }
};

}  // namespace
}  // namespace uniscan

namespace uniscan {

FrameModel::FrameModel(std::optional<CompiledNetlist> owned, const CompiledNetlist* shared,
                       Fault fault, std::size_t num_frames)
    : owned_compile_(std::move(owned)),
      cnl_(shared ? shared : &*owned_compile_),
      nl_(&cnl_->netlist()),
      fault_(fault),
      num_frames_(num_frames),
      npi_(nl_->num_inputs()) {
  if (num_frames == 0) throw std::invalid_argument("FrameModel: zero frames");
  const Netlist& nl = *nl_;
  // One gate at most needs per-pin/stem fault forcing: exclude it from the
  // clean type runs and evaluate it individually between its level's runs.
  GateId forced[1];
  std::size_t nf = 0;
  const GateType ft = cnl_->type(fault_.gate);
  if (ft != GateType::Input && ft != GateType::Dff) forced[nf++] = forced_gate_ = fault_.gate;
  prog_ = cnl_->build_program({}, {forced, nf}, /*prune=*/false);
  const std::uint32_t fl =
      nf ? prog_.forced_level[0] : std::numeric_limits<std::uint32_t>::max();
  while (fault_split_ < prog_.runs.size() && prog_.runs[fault_split_].level <= fl)
    ++fault_split_;
  init_good_.assign(nl.num_dffs(), V3::X);
  init_faulty_.assign(nl.num_dffs(), V3::X);
  state_assign_.assign(nl.num_dffs(), V3::X);
  pi_pins_.assign(npi_, V3::X);
  pi_assign_.assign(num_frames_ * npi_, V3::X);
  values_.assign(num_frames_ * nl.num_gates(), V5::x());
  frame_state_.assign((num_frames_ + 1) * nl.num_dffs(), V5::x());
  tf_prev_by_frame_.assign(num_frames_ + 1, V3::X);
  pending_.assign((nl.topo_order().size() + 63) / 64, 0);
  ns_queued_.assign(nl.num_dffs(), 0);
  po_d_frame_.assign(num_frames_, 0);
  latch_frame_.assign(num_frames_, -1);
  compute_costs();
}

FrameModel::FrameModel(const Netlist& nl, Fault fault, std::size_t num_frames)
    : FrameModel(std::optional<CompiledNetlist>(std::in_place, nl), nullptr, fault, num_frames) {}

FrameModel::FrameModel(const CompiledNetlist& cnl, Fault fault, std::size_t num_frames)
    : FrameModel(std::nullopt, &cnl, fault, num_frames) {}

FrameModel::FrameModel(const Netlist& nl, TransitionFault fault, std::size_t num_frames)
    : FrameModel(nl, Fault{fault.gate, fault.pin, /*stuck_one=*/!fault.slow_to_rise},
                 num_frames) {
  // The equivalent-looking stuck value is only used by the activation
  // objective (an STR fault needs the line driven to 1, like s-a-0);
  // simulate() applies the real delay semantics below.
  is_transition_ = true;
  slow_to_rise_ = fault.slow_to_rise;
}

FrameModel::FrameModel(const CompiledNetlist& cnl, TransitionFault fault, std::size_t num_frames)
    : FrameModel(cnl, Fault{fault.gate, fault.pin, /*stuck_one=*/!fault.slow_to_rise},
                 num_frames) {
  is_transition_ = true;
  slow_to_rise_ = fault.slow_to_rise;
}

void FrameModel::set_initial_state(const State& good, const State& faulty) {
  if (good.size() != nl_->num_dffs() || faulty.size() != nl_->num_dffs())
    throw std::invalid_argument("FrameModel: state width mismatch");
  init_good_ = good;
  init_faulty_ = faulty;
  full_pending_ = true;
}

void FrameModel::pin_input(std::size_t pi, V3 v) {
  pi_pins_[pi] = v;
  for (std::size_t f = 0; f < num_frames_; ++f) pi_assign_[f * npi_ + pi] = v;
  full_pending_ = true;
}

void FrameModel::clear_assignments() {
  std::fill(pi_assign_.begin(), pi_assign_.end(), V3::X);
  std::fill(state_assign_.begin(), state_assign_.end(), V3::X);
  for (std::size_t i = 0; i < npi_; ++i)
    if (pi_pins_[i] != V3::X)
      for (std::size_t f = 0; f < num_frames_; ++f) pi_assign_[f * npi_ + i] = pi_pins_[i];
  full_pending_ = true;
}

V5 FrameModel::pin_value(std::size_t f, GateId g, std::size_t p) const {
  V5 v = value(f, nl_->gate(g).fanins[p]);
  if (fault_.pin != kStemPin && fault_.gate == g && fault_.pin == static_cast<std::int16_t>(p))
    v.faulty = forced_faulty(f, v.faulty);
  return v;
}

V3 FrameModel::forced_faulty(std::size_t frame, V3 driven_faulty) const {
  if (!is_transition_) return fault_.stuck_one ? V3::One : V3::Zero;
  const V3 prev = tf_prev_by_frame_[frame];
  return slow_to_rise_ ? v3_and(driven_faulty, prev) : v3_or(driven_faulty, prev);
}

void FrameModel::simulate() {
  const std::uint64_t evals = full_pending_ ? simulate_all() : simulate_events();
  collect_effects();
  obs::count(obs::Counter::FrameSims);
  obs::count(obs::Counter::FrameGateEvals, evals);
}

V5 FrameModel::initial_state(std::size_t j) const {
  return state_assignable_ ? V5::both(state_assign_[j]) : V5{init_good_[j], init_faulty_[j]};
}

V5 FrameModel::boundary_value(std::size_t f, GateId g) {
  const std::uint32_t i = cnl_->pi_index(g);
  V5 v = i != CompiledNetlist::kNoIndex
             ? V5::both(pi_assign_[f * npi_ + i])
             : frame_state_[f * cnl_->dffs().size() + cnl_->dff_index(g)];
  if (g == fault_.gate && fault_.pin == kStemPin) {
    tf_prev_by_frame_[f + 1] = v.faulty;
    v.faulty = forced_faulty(f, v.faulty);
  }
  return v;
}

V5 FrameModel::eval_forced_gate(std::size_t f, const V5* vals) {
  const GateId g = forced_gate_;
  const std::span<const GateId> fi = cnl_->fanins(g);
  V5 buf[64];
  for (std::size_t p = 0; p < fi.size(); ++p) buf[p] = vals[fi[p]];
  if (fault_.pin != kStemPin) {
    V3& pin = buf[static_cast<std::size_t>(fault_.pin)].faulty;
    tf_prev_by_frame_[f + 1] = pin;
    pin = forced_faulty(f, pin);
  }
  V5 out = eval_gate_v5(cnl_->type(g), buf, fi.size());
  if (fault_.pin == kStemPin) {
    tf_prev_by_frame_[f + 1] = out.faulty;
    out.faulty = forced_faulty(f, out.faulty);
  }
  return out;
}

V5 FrameModel::next_state(std::size_t f, std::size_t j, const V5* vals) {
  V5 d = vals[cnl_->dff_d()[j]];
  if (fault_.pin == 0 && fault_.gate == cnl_->dffs()[j]) {
    tf_prev_by_frame_[f + 1] = d.faulty;
    d.faulty = forced_faulty(f, d.faulty);
  }
  return d;
}

void FrameModel::refresh_po(std::size_t f) {
  const V5* vals = values_.data() + f * cnl_->num_gates();
  po_d_frame_[f] = 0;
  for (GateId po : cnl_->outputs()) {
    if (is_d_or_dbar(vals[po])) {
      po_d_frame_[f] = 1;
      break;
    }
  }
}

void FrameModel::refresh_latch(std::size_t f) {
  // The largest latching DFF index of the frame (deepest in the scan
  // chain), -1 if none.
  const std::size_t ndff = cnl_->dffs().size();
  const V5* next = frame_state_.data() + (f + 1) * ndff;
  std::int32_t best = -1;
  for (std::size_t j = ndff; j-- > 0;) {
    if (is_d_or_dbar(next[j])) {
      best = static_cast<std::int32_t>(j);
      break;
    }
  }
  latch_frame_[f] = best;
}

std::uint64_t FrameModel::simulate_all() {
  const CompiledNetlist& cnl = *cnl_;
  const std::size_t ng = cnl.num_gates();
  const std::size_t ndff = cnl.dffs().size();
  full_pending_ = false;
  events_.clear();

  for (std::size_t j = 0; j < ndff; ++j) frame_state_[j] = initial_state(j);
  tf_prev_by_frame_[0] = tf_prev_init_;

  const std::span<const TypeRun> runs(prog_.runs);
  effects_.clear();
  for (std::size_t f = 0; f < num_frames_; ++f) {
    V5* vals = values_.data() + f * ng;
    for (GateId g : cnl.inputs()) vals[g] = boundary_value(f, g);
    for (GateId g : cnl.dffs()) vals[g] = boundary_value(f, g);

    // Combinational evaluation: clean type runs up to the faulted gate's
    // level, the faulted gate individually (per-pin or stem forcing), the
    // remaining runs. Only the faulted gate ever needs a fault check.
    detail::eval_type_runs<V5Ops>(runs.first(fault_split_), prog_.eval.data(),
                                  cnl.fanin_offsets(), cnl.fanin_id_data(), vals);
    if (forced_gate_ != kNoGate) vals[forced_gate_] = eval_forced_gate(f, vals);
    detail::eval_type_runs<V5Ops>(runs.subspan(fault_split_), prog_.eval.data(),
                                  cnl.fanin_offsets(), cnl.fanin_id_data(), vals);

    V5* next = frame_state_.data() + (f + 1) * ndff;
    for (std::size_t j = 0; j < ndff; ++j) next[j] = next_state(f, j, vals);
    refresh_po(f);
    refresh_latch(f);
    for (GateId g = 0; g < ng; ++g)
      if (is_d_or_dbar(vals[g])) effects_.emplace_back(f, g);
  }
  return num_frames_ * (prog_.eval.size() + (forced_gate_ != kNoGate ? 1 : 0));
}

std::uint64_t FrameModel::simulate_events() {
  if (events_.empty()) return 0;
  const CompiledNetlist& cnl = *cnl_;
  const std::size_t ng = cnl.num_gates();
  const std::size_t ndff = cnl.dffs().size();
  const std::uint32_t* fanin_off = cnl.fanin_offsets();
  const GateId* fanin_ids = cnl.fanin_id_data();
  const std::uint32_t kNone = CompiledNetlist::kNoIndex;
  const auto& topo = nl_->topo_order();
  std::sort(events_.begin(), events_.end());
  std::uint64_t evals = 0;

  // Frames are visited in ascending order: those holding events, and those
  // a changed next state or launch value carries into. The walk stops once
  // nothing is pending.
  carry_.clear();
  bool launch_changed = false;  // tf_prev_by_frame_[f] changed
  std::size_t ei = 0;
  std::size_t f = events_.front().first;
  while (f < num_frames_) {
    V5* vals = values_.data() + f * ng;
    V5* next = frame_state_.data() + (f + 1) * ndff;
    std::uint32_t lo = kNone, hi = 0;  // range of pending_ words in use
    bool po_touched = false;
    const V3 launch_out = tf_prev_by_frame_[f + 1];

    const auto queue_gate = [&](std::uint32_t pos) {
      const std::uint32_t w = pos >> 6;
      pending_[w] |= std::uint64_t{1} << (pos & 63);
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    };
    const auto queue_next_state = [&](std::uint32_t j) {
      if (ns_queued_[j]) return;
      ns_queued_[j] = 1;
      ns_pending_.push_back(j);
    };
    const auto set_value = [&](GateId g, V5 v) {
      if (is_d_or_dbar(v) && !is_d_or_dbar(vals[g])) effects_.emplace_back(f, g);
      vals[g] = v;
      po_touched |= cnl.is_output(g);
      for (GateId fo : cnl.fanouts(g)) {
        const std::uint32_t pos = cnl.topo_pos(fo);
        if (pos != kNone)
          queue_gate(pos);
        else  // a flip-flop's D input
          queue_next_state(cnl.dff_index(fo));
      }
    };
    const auto touch_boundary = [&](GateId g) {
      const V5 v = boundary_value(f, g);
      if (v != vals[g]) set_value(g, v);
    };

    // Boundary events: assignments, then state changes carried in.
    for (; ei < events_.size() && events_[ei].first == f; ++ei) {
      const GateId g = events_[ei].second;
      const std::uint32_t j = cnl.dff_index(g);
      if (j != kNone) frame_state_[j] = initial_state(j);  // only frame 0's is assignable
      touch_boundary(g);
    }
    for (std::uint32_t j : carry_) touch_boundary(cnl.dffs()[j]);
    // A changed launch value re-forces the fault site.
    if (launch_changed) {
      if (forced_gate_ != kNoGate)
        queue_gate(cnl.topo_pos(forced_gate_));
      else if (fault_.pin == kStemPin)
        touch_boundary(fault_.gate);
      else
        queue_next_state(cnl.dff_index(fault_.gate));
    }

    // Combinational cone in topo_order, so in level order: a gate's readers
    // sit at later positions, and the scan of a word re-reads it, so they
    // are evaluated after it. Only the touched word range is visited.
    for (std::uint32_t w = lo; w != kNone && w <= hi; ++w) {
      while (pending_[w] != 0) {
        const auto bit = static_cast<std::uint32_t>(std::countr_zero(pending_[w]));
        const std::uint32_t pos = (w << 6) | bit;
        pending_[w] &= pending_[w] - 1;
        const GateId g = topo[pos];
        const V5 v = g == forced_gate_
                         ? eval_forced_gate(f, vals)
                         : detail::eval_gate<V5Ops>(cnl.type(g), g, fanin_off, fanin_ids, vals);
        ++evals;
        if (v != vals[g]) set_value(g, v);
      }
    }

    // Next states, carried into frame f+1 when they change.
    next_carry_.clear();
    for (std::uint32_t j : ns_pending_) {
      ns_queued_[j] = 0;
      const V5 d = next_state(f, j, vals);
      if (d != next[j]) {
        next[j] = d;
        next_carry_.push_back(j);
      }
    }
    ns_pending_.clear();
    if (po_touched) refresh_po(f);
    if (!next_carry_.empty()) refresh_latch(f);
    carry_.swap(next_carry_);
    launch_changed = is_transition_ && tf_prev_by_frame_[f + 1] != launch_out;

    if (!carry_.empty() || launch_changed)
      ++f;
    else if (ei < events_.size())
      f = events_[ei].first;
    else
      break;
  }
  events_.clear();
  return evals;
}

void FrameModel::collect_effects() {
  const CompiledNetlist& cnl = *cnl_;
  const std::size_t ng = cnl.num_gates();
  const auto& topo = nl_->topo_order();

  // Prune effects_ to the pairs still carrying D/D'. The D-frontier
  // candidates are their combinational readers, plus every frame's faulted
  // gate of a branch fault (its forced pin can hold an effect its driver
  // does not).
  bool comb_effect = false;
  cand_.clear();
  std::size_t kept = 0;
  for (const auto& [f, g] : effects_) {
    if (!is_d_or_dbar(values_[f * ng + g])) continue;
    effects_[kept++] = {f, g};
    if (cnl.topo_pos(g) != CompiledNetlist::kNoIndex) comb_effect = true;
    for (GateId fo : cnl.fanouts(g)) {
      const std::uint32_t fpos = cnl.topo_pos(fo);
      if (fpos != CompiledNetlist::kNoIndex) cand_.push_back(std::uint64_t{f} << 32 | fpos);
    }
  }
  effects_.resize(kept);
  if (forced_gate_ != kNoGate && fault_.pin != kStemPin)
    for (std::size_t f = 0; f < num_frames_; ++f)
      cand_.push_back(std::uint64_t{f} << 32 | cnl.topo_pos(forced_gate_));

  // Frame-major, topo_order within a frame: the order a full scan of every
  // frame's topo_order finds the frontier in, which PODEM's decisions
  // depend on.
  std::sort(cand_.begin(), cand_.end());
  cand_.erase(std::unique(cand_.begin(), cand_.end()), cand_.end());
  frontier_.clear();
  for (const std::uint64_t c : cand_) {
    const std::size_t f = c >> 32;
    const GateId g = topo[c & 0xffffffffu];
    const V5* vals = values_.data() + f * ng;
    if (is_fully_known(vals[g])) continue;
    const std::span<const GateId> fi = cnl.fanins(g);
    for (std::size_t p = 0; p < fi.size(); ++p) {
      V5 pv = vals[fi[p]];
      if (g == fault_.gate && fault_.pin == static_cast<std::int16_t>(p))
        pv.faulty = forced_faulty(f, pv.faulty);
      if (is_d_or_dbar(pv)) {
        frontier_.emplace_back(f, g);
        break;
      }
    }
  }

  po_detect_.reset();
  latch_.reset();
  for (std::size_t f = 0; f < num_frames_; ++f) {
    if (!po_detect_ && po_d_frame_[f]) po_detect_ = f;
    if (!latch_ && latch_frame_[f] >= 0)
      latch_ = LatchedEffect{f, static_cast<std::size_t>(latch_frame_[f])};
  }
  any_effect_ = comb_effect || !frontier_.empty() || latch_ || po_detect_;
}

TestSequence FrameModel::extract_sequence(std::size_t frames_used) const {
  TestSequence seq(npi_);
  for (std::size_t f = 0; f < frames_used && f < num_frames_; ++f) {
    std::vector<V3> vec(npi_);
    for (std::size_t i = 0; i < npi_; ++i) vec[i] = pi_assign_[f * npi_ + i];
    seq.append(std::move(vec));
  }
  return seq;
}

namespace {
constexpr std::uint32_t kInf = 1000000;
constexpr std::uint32_t kDffPenalty = 16;
}  // namespace

void FrameModel::compute_costs() {
  const Netlist& nl = *nl_;
  cost0_.assign(nl.num_gates(), kInf);
  cost1_.assign(nl.num_gates(), kInf);

  for (GateId pi : nl.inputs()) {
    cost0_[pi] = 1;
    cost1_[pi] = 1;
  }

  const auto saturating_add = [](std::uint32_t a, std::uint32_t b) {
    return std::min(kInf, a + b);
  };

  // A few sweeps so DFF-output costs converge through feedback loops.
  for (int sweep = 0; sweep < 4; ++sweep) {
    for (GateId g : nl.topo_order()) {
      const Gate& gate = nl.gate(g);
      const auto& fi = gate.fanins;
      std::uint32_t c0 = kInf, c1 = kInf;
      const auto and_like = [&](bool invert) {
        // output 0 (pre-inversion): cheapest single 0 input; output 1: all 1s.
        std::uint32_t zero_side = kInf, one_side = 1;
        for (GateId in : fi) {
          zero_side = std::min(zero_side, cost0_[in]);
          one_side = saturating_add(one_side, cost1_[in]);
        }
        zero_side = saturating_add(zero_side, 1);
        c0 = invert ? one_side : zero_side;
        c1 = invert ? zero_side : one_side;
      };
      const auto or_like = [&](bool invert) {
        std::uint32_t one_side = kInf, zero_side = 1;
        for (GateId in : fi) {
          one_side = std::min(one_side, cost1_[in]);
          zero_side = saturating_add(zero_side, cost0_[in]);
        }
        one_side = saturating_add(one_side, 1);
        c0 = invert ? one_side : zero_side;
        c1 = invert ? zero_side : one_side;
      };
      switch (gate.type) {
        case GateType::Buf:
          c0 = saturating_add(cost0_[fi[0]], 1);
          c1 = saturating_add(cost1_[fi[0]], 1);
          break;
        case GateType::Not:
          c0 = saturating_add(cost1_[fi[0]], 1);
          c1 = saturating_add(cost0_[fi[0]], 1);
          break;
        case GateType::And: and_like(false); break;
        case GateType::Nand: and_like(true); break;
        case GateType::Or: or_like(false); break;
        case GateType::Nor: or_like(true); break;
        case GateType::Xor:
        case GateType::Xnor: {
          // Two-input approximation extended pairwise.
          std::uint32_t even = 1, odd = kInf;
          for (GateId in : fi) {
            const std::uint32_t e2 = std::min(saturating_add(even, cost0_[in]),
                                              saturating_add(odd, cost1_[in]));
            const std::uint32_t o2 = std::min(saturating_add(even, cost1_[in]),
                                              saturating_add(odd, cost0_[in]));
            even = e2;
            odd = o2;
          }
          c0 = gate.type == GateType::Xor ? even : odd;
          c1 = gate.type == GateType::Xor ? odd : even;
          break;
        }
        case GateType::Mux2: {
          const std::uint32_t via0_0 = saturating_add(cost0_[fi[2]], cost0_[fi[0]]);
          const std::uint32_t via1_0 = saturating_add(cost1_[fi[2]], cost0_[fi[1]]);
          const std::uint32_t via0_1 = saturating_add(cost0_[fi[2]], cost1_[fi[0]]);
          const std::uint32_t via1_1 = saturating_add(cost1_[fi[2]], cost1_[fi[1]]);
          c0 = saturating_add(std::min(via0_0, via1_0), 1);
          c1 = saturating_add(std::min(via0_1, via1_1), 1);
          break;
        }
        case GateType::Const0:
          c0 = 0;
          c1 = kInf;
          break;
        case GateType::Const1:
          c0 = kInf;
          c1 = 0;
          break;
        case GateType::Input:
        case GateType::Dff:
          break;
      }
      cost0_[g] = c0;
      cost1_[g] = c1;
    }
    for (GateId ff : nl.dffs()) {
      const GateId d = nl.gate(ff).fanins[0];
      cost0_[ff] = saturating_add(cost0_[d], kDffPenalty);
      cost1_[ff] = saturating_add(cost1_[d], kDffPenalty);
    }
  }
}

}  // namespace uniscan
