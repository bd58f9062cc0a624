#include "sim/transition_sim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <stdexcept>

#include "fault/fault.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/sequential_sim.hpp"
#include "sim/session_core.hpp"
#include "util/thread_pool.hpp"

namespace uniscan {

namespace {

/// Faulty slot value under the one-cycle gross-delay model.
inline V3 delayed_value(bool slow_to_rise, V3 driven_now, V3 driven_prev) noexcept {
  return slow_to_rise ? v3_and(driven_now, driven_prev) : v3_or(driven_now, driven_prev);
}

template <class Word>
Word observed_mask(std::span<const GateId> pos, const std::vector<W3T<Word>>& values) {
  Word observed{};
  for (GateId po : pos) {
    const W3T<Word> w = values[po];
    const bool good0 = w_bit0(w.v0);
    const bool good1 = w_bit0(w.v1);
    if (good1) observed = observed | w.v0;
    else if (good0) observed = observed | w.v1;
  }
  w_clear(observed, 0);
  return observed;
}

template <class Word>
void record_latch(std::span<LatchRecord> latched, const W3T<Word> w, std::size_t j,
                  std::size_t t) {
  const bool good0 = w_bit0(w.v0);
  const bool good1 = w_bit0(w.v1);
  Word diff{};
  if (good1) diff = w.v0;
  else if (good0) diff = w.v1;
  w_clear(diff, 0);
  w_for_each_set(diff, [&](unsigned slot) {
    LatchRecord& lr = latched[slot - 1];
    // Keep the occurrence deepest in the chain (fewest flush shifts).
    if (!lr.latched || j >= lr.ff_index) {
      lr.latched = true;
      lr.ff_index = static_cast<std::uint32_t>(j);
      lr.time = static_cast<std::uint32_t>(t);
    }
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// BatchRunnerT

template <class Word>
TransitionFaultSimulator::BatchRunnerT<Word>::BatchRunnerT(
    const CompiledNetlist& cnl, std::span<const TransitionFault> faults)
    : cnl_(&cnl), nl_(&cnl.netlist()), faults_(faults) {
  if (faults.size() > kSlots - 1) throw std::invalid_argument("BatchRunner: batch too large");
  const std::size_t n = cnl.num_gates();
  stem_head_.assign(n, kNone);
  branch_head_.assign(n, kNone);
  next_.assign(faults.size(), kNone);
  pending_.assign(faults.size(), V3::X);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const TransitionFault& f = faults[i];
    w_set(slot_mask_, static_cast<unsigned>(i + 1));
    auto& head = (f.pin == kStemPin) ? stem_head_ : branch_head_;
    next_[i] = head[f.gate];
    head[f.gate] = static_cast<std::int32_t>(i);
  }

  // Branch (pin) injections need an individual evaluation; a stem-only
  // site keeps its type-run evaluation and has its slot rewrites (plus the
  // launch-history refresh) patched on afterwards.
  std::vector<GateId> sites;
  sites.reserve(faults.size());
  std::vector<GateId> patched;
  std::vector<std::uint8_t> mark(n, 0);
  for (const TransitionFault& f : faults_) {
    sites.push_back(f.gate);
    if (mark[f.gate]) continue;
    mark[f.gate] = 1;
    if (!is_combinational(cnl.type(f.gate))) continue;
    if (branch_head_[f.gate] != kNone) forced_.push_back(f.gate);
    else if (stem_head_[f.gate] != kNone) patched.push_back(f.gate);
  }
  // Boundary-gate stem forcing runs from these lists each frame, DFFs
  // first, then PIs.
  for (const GateId d : cnl.dffs())
    if (stem_head_[d] != kNone) bstem_dff_.push_back(d);
  for (const GateId p : cnl.inputs())
    if (stem_head_[p] != kNone) bstem_pi_.push_back(p);

  prog_ = cnl.build_program(sites, forced_, /*prune=*/true);

  // Level-ascending merge of the two fixup streams (see the stuck-at
  // runner's constructor for the ordering argument).
  std::stable_sort(patched.begin(), patched.end(),
                   [&](GateId a, GateId b) { return cnl.level(a) < cnl.level(b); });
  {
    const std::size_t nf = prog_.forced_order.size();
    std::size_t fi = 0, pi = 0;
    constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
    while (fi < nf || pi < patched.size()) {
      const std::uint32_t flv = fi < nf ? prog_.forced_level[fi] : kMax;
      const std::uint32_t plv = pi < patched.size() ? cnl.level(patched[pi]) : kMax;
      if (plv < flv) {
        fix_idx_.push_back(patched[pi++]);
        fix_level_.push_back(plv);
        fix_patch_.push_back(1);
      } else {
        fix_idx_.push_back(prog_.forced_order[fi++]);
        fix_level_.push_back(flv);
        fix_patch_.push_back(0);
      }
    }
  }
}

template <class Word>
SimBatchStateT<Word> TransitionFaultSimulator::BatchRunnerT<Word>::initial_state() const {
  State s;
  s.live = slot_mask_;
  s.state.assign(nl_->num_dffs(), W3T<Word>::all_x());
  s.prev_driven.assign(faults_.size(), V3::X);
  return s;
}

template <class Word>
void TransitionFaultSimulator::BatchRunnerT<Word>::apply_stems_value(GateId g, State& s,
                                                                     W3T<Word>& w) const {
  for (std::int32_t i = stem_head_[g]; i != kNone; i = next_[i]) {
    const unsigned slot = static_cast<unsigned>(i + 1);
    const V3 now = w.get(slot);
    w.set(slot, delayed_value(faults_[i].slow_to_rise, now, s.prev_driven[i]));
    pending_[i] = now;
  }
}

template <class Word>
void TransitionFaultSimulator::BatchRunnerT<Word>::apply_branches(
    GateId g, W3T<Word>* fanin_buf, std::size_t n, State& s,
    const std::vector<W3T<Word>>& values) const {
  for (std::int32_t i = branch_head_[g]; i != kNone; i = next_[i]) {
    const TransitionFault& f = faults_[i];
    const std::size_t p = static_cast<std::size_t>(f.pin);
    if (p >= n) continue;
    const unsigned slot = static_cast<unsigned>(i + 1);
    const V3 now = values[nl_->gate(g).fanins[p]].get(slot);
    fanin_buf[p].set(slot, delayed_value(f.slow_to_rise, now, s.prev_driven[i]));
    pending_[i] = now;
  }
}

template <class Word>
W3T<Word> TransitionFaultSimulator::BatchRunnerT<Word>::eval_forced(
    GateId g, State& s, const std::vector<W3T<Word>>& values) const {
  const auto fan = cnl_->fanins(g);
  W3T<Word> buf[64];
  for (std::size_t p = 0; p < fan.size(); ++p) buf[p] = values[fan[p]];
  if (branch_head_[g] != kNone) apply_branches(g, buf, fan.size(), s, values);
  W3T<Word> w = eval_gate_w3(cnl_->type(g), buf, fan.size());
  if (stem_head_[g] != kNone) apply_stems_value(g, s, w);
  return w;
}

template <class Word>
std::uint64_t TransitionFaultSimulator::BatchRunnerT<Word>::advance(
    State& s, const SequenceView& view, std::vector<W3T<Word>>& values,
    const AdvanceOptions& opt) const {
  using W = W3T<Word>;
  const CompiledNetlist& cnl = *cnl_;
  values.resize(cnl.num_gates());
  const auto& inputs = cnl.inputs();
  const auto& dffs = cnl.dffs();
  const auto& dff_d = cnl.dff_d();
  const std::size_t start_frame = s.frame;
  std::uint64_t evals = 0;
  bool exited = false;

  for (std::size_t t = s.frame; t < view.length(); ++t) {
    if (opt.checkpoints && t <= opt.capture_limit && opt.checkpoints->want(t)) {
      s.frame = t;  // snapshot the state (and launch history) entering frame t
      opt.checkpoints->save(opt.batch_index, s);
    }

    const auto& vec = view.vector_at(t);
    for (std::size_t i = 0; i < inputs.size(); ++i) values[inputs[i]] = W::broadcast(vec[i]);
    for (const std::uint32_t j : prog_.samp_dff) values[dffs[j]] = s.state[j];
    // Stem faults on boundary gates force before combinational evaluation
    // (a stem-faulted boundary is a fault site, hence always in-plan).
    for (const GateId g : bstem_dff_) apply_stems(g, s, values);
    for (const GateId g : bstem_pi_) apply_stems(g, s, values);

    // Type runs and fixups (individually-forced gates + stem patches),
    // interleaved level-major (see FaultSimulator::BatchRunnerT::advance).
    // A stem patch rewrites the faulted slots of the run-computed value in
    // place and refreshes the launch history.
    std::size_t fi = 0, ri = 0;
    const std::size_t nf = fix_idx_.size();
    const std::size_t nr = prog_.runs.size();
    while (ri < nr || fi < nf) {
      const std::uint32_t fl =
          fi < nf ? fix_level_[fi] : std::numeric_limits<std::uint32_t>::max();
      std::size_t rj = ri;
      while (rj < nr && prog_.runs[rj].level <= fl) ++rj;
      if (rj > ri) {
        cnl.eval_runs_w3t<Word>(std::span<const TypeRun>(prog_.runs.data() + ri, rj - ri),
                                prog_.eval.data(), values.data());
        ri = rj;
      }
      const std::uint32_t rl =
          ri < nr ? prog_.runs[ri].level : std::numeric_limits<std::uint32_t>::max();
      while (fi < nf && fix_level_[fi] < rl) {
        if (fix_patch_[fi]) {
          apply_stems(fix_idx_[fi], s, values);
        } else {
          const GateId g = forced_[fix_idx_[fi]];
          values[g] = eval_forced(g, s, values);
        }
        ++fi;
      }
    }
    evals += prog_.evals_per_frame;

    // Next state of the sampled DFFs (with branch forcing on D pins), then
    // commit the launch histories — every injection site was refreshed above
    // or is a DFF D pin refreshed here.
    for (const std::uint32_t j : prog_.samp_dff) {
      const GateId ff = dffs[j];
      W d = values[dff_d[j]];
      if (branch_head_[ff] != kNone) {
        W buf[1] = {d};
        apply_branches(ff, buf, 1, s, values);
        d = buf[0];
      }
      s.state[j] = d;
    }
    for (std::size_t i = 0; i < faults_.size(); ++i) s.prev_driven[i] = pending_[i];

    const Word newly = observed_mask(prog_.obs_po, values) & s.live;
    w_for_each_set(newly, [&](unsigned slot) {
      w_set(s.detected_slots, slot);
      s.detect_time[slot] = static_cast<std::uint32_t>(t);
      w_clear(s.live, slot);
    });
    if (opt.early_exit && !w_any(s.live)) {
      s.frame = t + 1;
      exited = true;
      break;
    }
    if (!opt.latched.empty())
      for (const std::uint32_t j : prog_.latch_dff)
        record_latch(opt.latched, s.state[j], j, t);
  }
  if (!exited) s.frame = view.length();

  // Single telemetry choke point (same contract as FaultSimulator's runner).
  obs::count(obs::Counter::BatchesRun, 1);
  obs::count(obs::Counter::GateEvals, evals);
  if (prog_.pruned) {
    const std::uint64_t frames = s.frame - start_frame;
    const std::uint64_t full = cnl.eval_order().size();
    if (full > prog_.evals_per_frame)
      obs::count(obs::Counter::ConePruneHits, frames * (full - prog_.evals_per_frame));
  }
  return evals;
}

template class TransitionFaultSimulator::BatchRunnerT<std::uint64_t>;
template class TransitionFaultSimulator::BatchRunnerT<Simd256>;
template class TransitionFaultSimulator::BatchRunnerT<Simd512>;

// ---------------------------------------------------------------------------
// TransitionFaultSimulator

TransitionFaultSimulator::TransitionFaultSimulator(const Netlist& nl)
    : nl_(&nl), compiled_(nl.compiled_shared()) {}

std::vector<DetectionRecord> TransitionFaultSimulator::run(
    const TestSequence& seq, std::span<const TransitionFault> faults,
    std::vector<LatchRecord>* latched) const {
  return run(SequenceView(seq), faults, latched);
}

std::vector<DetectionRecord> TransitionFaultSimulator::run(
    const SequenceView& view, std::span<const TransitionFault> faults,
    std::vector<LatchRecord>* latched) const {
  switch (resolved_slot_width_for(faults.size())) {
    case SlotWidth::W256: return run_impl<Simd256>(view, faults, latched);
    case SlotWidth::W512: return run_impl<Simd512>(view, faults, latched);
    default: return run_impl<std::uint64_t>(view, faults, latched);
  }
}

template <class Word>
std::vector<DetectionRecord> TransitionFaultSimulator::run_impl(
    const SequenceView& view, std::span<const TransitionFault> faults,
    std::vector<LatchRecord>* latched) const {
  constexpr std::size_t kPer = WordTraits<Word>::kBits - 1;
  std::vector<DetectionRecord> out(faults.size());
  if (latched) latched->assign(faults.size(), LatchRecord{});
  const std::size_t num_batches = (faults.size() + kPer - 1) / kPer;
  ThreadPool& pool = ThreadPool::global();
  if (scratch_.size() < pool.num_workers()) scratch_.resize(pool.num_workers());
  pool.parallel_for(num_batches, [&](std::size_t b, std::size_t w) {
    const std::size_t base = b * kPer;
    const std::size_t count = std::min<std::size_t>(kPer, faults.size() - base);
    BatchRunnerT<Word> runner(*compiled_, faults.subspan(base, count));
    SimBatchStateT<Word> s = runner.initial_state();
    typename BatchRunnerT<Word>::AdvanceOptions opt;
    opt.early_exit = latched == nullptr;
    if (latched) opt.latched = std::span<LatchRecord>(latched->data() + base, count);
    runner.advance(s, view, scratch_[w].get<Word>(), opt);
    for (std::size_t i = 0; i < count; ++i) {
      const unsigned slot = static_cast<unsigned>(i + 1);
      if (w_test(s.detected_slots, slot)) {
        out[base + i].detected = true;
        out[base + i].time = s.detect_time[slot];
      }
    }
  });
  return out;
}

bool TransitionFaultSimulator::detects_all(const TestSequence& seq,
                                           std::span<const TransitionFault> faults) const {
  return detects_all(SequenceView(seq), faults);
}

bool TransitionFaultSimulator::detects_all(const SequenceView& view,
                                           std::span<const TransitionFault> faults) const {
  switch (resolved_slot_width_for(faults.size())) {
    case SlotWidth::W256: return detects_all_impl<Simd256>(view, faults);
    case SlotWidth::W512: return detects_all_impl<Simd512>(view, faults);
    default: return detects_all_impl<std::uint64_t>(view, faults);
  }
}

template <class Word>
bool TransitionFaultSimulator::detects_all_impl(const SequenceView& view,
                                                std::span<const TransitionFault> faults) const {
  constexpr std::size_t kPer = WordTraits<Word>::kBits - 1;
  const std::size_t num_batches = (faults.size() + kPer - 1) / kPer;
  ThreadPool& pool = ThreadPool::global();
  if (scratch_.size() < pool.num_workers()) scratch_.resize(pool.num_workers());
  // Wave-scheduled deterministic fail-fast; see FaultSimulator::detects_all.
  bool ok = true;
  for (std::size_t wave = 0; wave < num_batches && ok; wave += kFailFastWave) {
    const std::size_t n = std::min(kFailFastWave, num_batches - wave);
    std::atomic<bool> wave_ok{true};
    pool.parallel_for(n, [&](std::size_t k, std::size_t w) {
      const std::size_t base = (wave + k) * kPer;
      const std::size_t count = std::min<std::size_t>(kPer, faults.size() - base);
      BatchRunnerT<Word> runner(*compiled_, faults.subspan(base, count));
      SimBatchStateT<Word> s = runner.initial_state();
      runner.advance(s, view, scratch_[w].get<Word>(), {});
      if (!((s.detected_slots & runner.slot_mask()) == runner.slot_mask()))
        wave_ok.store(false, std::memory_order_relaxed);
    });
    ok = wave_ok.load(std::memory_order_relaxed);
  }
  return ok;
}

std::vector<std::size_t> TransitionFaultSimulator::detected_indices(
    const TestSequence& seq, std::span<const TransitionFault> faults) const {
  std::vector<std::size_t> out;
  const auto records = run(seq, faults);
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records[i].detected) out.push_back(i);
  return out;
}

// ---------------------------------------------------------------------------
// TransitionSimSession

struct TransitionSimSession::Impl : SessionCoreT<TransitionFaultSimulator> {
  Impl(const Netlist& nl, std::span<const TransitionFault> faults)
      : SessionCoreT<TransitionFaultSimulator>(nl, faults, "TransitionSimSession") {}
};

TransitionSimSession::TransitionSimSession(const Netlist& nl,
                                           std::span<const TransitionFault> faults)
    : impl_(std::make_unique<Impl>(nl, faults)) {}

TransitionSimSession::~TransitionSimSession() = default;
TransitionSimSession::TransitionSimSession(TransitionSimSession&&) noexcept = default;
TransitionSimSession& TransitionSimSession::operator=(TransitionSimSession&&) noexcept = default;

std::size_t TransitionSimSession::advance(const TestSequence& chunk) {
  return impl_->advance(chunk);
}
std::size_t TransitionSimSession::now() const noexcept { return impl_->now(); }
std::size_t TransitionSimSession::num_faults() const noexcept { return impl_->num_faults(); }
bool TransitionSimSession::is_detected(std::size_t i) const { return impl_->is_detected(i); }
const std::vector<DetectionRecord>& TransitionSimSession::detections() const noexcept {
  return impl_->detections();
}
std::size_t TransitionSimSession::num_detected() const noexcept { return impl_->num_detected(); }
const CompiledNetlist& TransitionSimSession::compiled() const noexcept {
  return impl_->compiled();
}
State TransitionSimSession::good_state() const { return impl_->good_state(); }
void TransitionSimSession::pair_state(std::size_t i, State& good, State& faulty,
                                      V3& prev_driven) const {
  impl_->pair_state(i, good, faulty, &prev_driven);
}

TransitionSimSession::Snapshot TransitionSimSession::snapshot() const {
  Snapshot s;
  s.state_ = impl_->snapshot();
  return s;
}

void TransitionSimSession::restore(const Snapshot& s) { impl_->restore(s.state_); }

}  // namespace uniscan
