#include "sim/fault_sim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <stdexcept>

#include "obs/counters.hpp"
#include "sim/sequential_sim.hpp"
#include "util/thread_pool.hpp"

namespace uniscan {

// ---------------------------------------------------------------------------
// BatchRunnerT

template <class Word>
FaultSimulator::BatchRunnerT<Word>::BatchRunnerT(const CompiledNetlist& cnl,
                                                 std::span<const Fault> faults)
    : cnl_(&cnl), nl_(&cnl.netlist()), faults_(faults) {
  if (faults.size() > kSlots - 1) throw std::invalid_argument("BatchRunner: batch too large");
  const std::size_t n = cnl.num_gates();
  stem_.assign(n, Forcing{});
  // Branch (pin) faults, chained per gate; only the flat pin and DFF force
  // tables built below read them.
  struct BranchForce {
    std::int16_t pin;
    std::int32_t next;  // next BranchForce on the same gate, -1 ends
    Forcing force;
  };
  std::vector<std::int32_t> branch_head(n, -1);
  std::vector<BranchForce> branches;

  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = faults[i];
    const unsigned slot = static_cast<unsigned>(i + 1);  // slot 0 is the good machine
    w_set(slot_mask_, slot);
    if (f.pin == kStemPin) {
      w_set(f.stuck_one ? stem_[f.gate].set1 : stem_[f.gate].set0, slot);
    } else {
      // Faults on the same pin share one entry of the gate's chain.
      std::int32_t idx = branch_head[f.gate];
      while (idx >= 0 && branches[static_cast<std::size_t>(idx)].pin != f.pin)
        idx = branches[static_cast<std::size_t>(idx)].next;
      if (idx < 0) {
        branches.push_back(BranchForce{f.pin, branch_head[f.gate], Forcing{}});
        branch_head[f.gate] = static_cast<std::int32_t>(branches.size() - 1);
        idx = branch_head[f.gate];
      }
      Forcing& force = branches[static_cast<std::size_t>(idx)].force;
      w_set(f.stuck_one ? force.set1 : force.set0, slot);
    }
  }

  // Combinational gates carrying a branch (pin) injection leave the tight
  // type runs and are evaluated individually; a stem-only site keeps its
  // type-run evaluation and just has the output forcing patched on
  // afterwards (the fast path — a patch is two mask ops instead of a full
  // per-gate re-evaluation every frame). Boundary-gate stem forcing is
  // applied while loading boundary values, DFF D-pin branch forcing while
  // sampling.
  std::vector<GateId> sites;
  sites.reserve(faults.size());
  std::vector<GateId> patched;
  std::vector<std::uint8_t> mark(n, 0);
  for (const Fault& f : faults_) {
    sites.push_back(f.gate);
    if (mark[f.gate]) continue;
    mark[f.gate] = 1;
    if (!is_combinational(cnl.type(f.gate))) continue;
    if (branch_head[f.gate] >= 0) forced_.push_back(f.gate);
    else if (stem_[f.gate].any()) patched.push_back(f.gate);
  }

  prog_ = cnl.build_program(sites, forced_, /*prune=*/true);

  // Level-ascending merge of the two fixup streams. A fixup at level L runs
  // after the type runs of level <= L (so a patch sees its own run-computed
  // value, and a forced gate sees all its fanins), before any higher run.
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

  // Flat per-pin force tables: one Forcing per fanin pin of each forced
  // gate, identity where no branch fault sits on that pin.
  pin_off_.assign(forced_.size() + 1, 0);
  for (std::size_t k = 0; k < forced_.size(); ++k)
    pin_off_[k + 1] = pin_off_[k] + static_cast<std::uint32_t>(cnl.fanin_count(forced_[k]));
  pin_force_.assign(pin_off_.back(), Forcing{});
  for (std::size_t k = 0; k < forced_.size(); ++k) {
    for (std::int32_t idx = branch_head[forced_[k]]; idx >= 0;
         idx = branches[static_cast<std::size_t>(idx)].next) {
      const BranchForce& b = branches[static_cast<std::size_t>(idx)];
      pin_force_[pin_off_[k] + static_cast<std::uint32_t>(b.pin)] = b.force;
    }
  }
  // Identity flags hoisted out of the per-frame loop: eval_forced branches
  // on a byte instead of reducing the force masks every call.
  pin_any_.assign(pin_force_.size(), 0);
  for (std::size_t i = 0; i < pin_force_.size(); ++i) pin_any_[i] = pin_force_[i].any();
  forced_stem_.assign(forced_.size(), 0);
  for (std::size_t k = 0; k < forced_.size(); ++k) forced_stem_[k] = stem_[forced_[k]].any();

  dff_force_.assign(cnl.dffs().size(), Forcing{});
  for (std::size_t j = 0; j < cnl.dffs().size(); ++j) {
    for (std::int32_t idx = branch_head[cnl.dffs()[j]]; idx >= 0;
         idx = branches[static_cast<std::size_t>(idx)].next) {
      const BranchForce& b = branches[static_cast<std::size_t>(idx)];
      if (b.pin == 0) dff_force_[j] = b.force;
    }
  }
}

template <class Word>
W3T<Word> FaultSimulator::BatchRunnerT<Word>::eval_forced(std::size_t k,
                                                          const W3T<Word>* values) const noexcept {
  // The hottest per-frame path after the type runs: one call per forced
  // gate per frame, and the number of forced gates per batch grows with the
  // slot width. Fanins stream straight into the accumulator — no staging
  // buffer — and only pins that actually carry a branch injection pay the
  // forcing masks (most are identity).
  using W = W3T<Word>;
  const GateId g = forced_[k];
  const auto fan = cnl_->fanins(g);
  const Forcing* pf = pin_force_.data() + pin_off_[k];
  const std::uint8_t* pa = pin_any_.data() + pin_off_[k];
  const auto in = [&](std::size_t p) noexcept {
    const W w = values[fan[p]];
    return pa[p] ? pf[p].apply(w) : w;
  };
  const GateType t = cnl_->type(g);
  W out;
  switch (t) {
    case GateType::Buf: out = in(0); break;
    case GateType::Not: out = w3_not(in(0)); break;
    case GateType::And:
    case GateType::Nand: {
      W acc = in(0);
      for (std::size_t p = 1; p < fan.size(); ++p) acc = w3_and(acc, in(p));
      out = t == GateType::Nand ? w3_not(acc) : acc;
      break;
    }
    case GateType::Or:
    case GateType::Nor: {
      W acc = in(0);
      for (std::size_t p = 1; p < fan.size(); ++p) acc = w3_or(acc, in(p));
      out = t == GateType::Nor ? w3_not(acc) : acc;
      break;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      W acc = in(0);
      for (std::size_t p = 1; p < fan.size(); ++p) acc = w3_xor(acc, in(p));
      out = t == GateType::Xnor ? w3_not(acc) : acc;
      break;
    }
    case GateType::Mux2: out = w3_mux(in(0), in(1), in(2)); break;
    case GateType::Const0: out = W::all_zero(); break;
    case GateType::Const1: out = W::all_one(); break;
    case GateType::Input:
    case GateType::Dff: out = W::all_x(); break;  // forced gates are combinational
  }
  return forced_stem_[k] ? stem_[g].apply(out) : out;
}

template <class Word>
SimBatchStateT<Word> FaultSimulator::BatchRunnerT<Word>::initial_state() const {
  State s;
  s.live = slot_mask_;
  s.state.assign(nl_->num_dffs(), W3T<Word>::all_x());
  return s;
}

namespace {

/// Detection bookkeeping: fold the slots of `observed` (already masked to
/// live slots) into the batch state at frame `t`; an observed slot leaves
/// `live`.
template <class Word, class StateT>
inline void record_detections(StateT& s, const Word& observed, std::size_t t) noexcept {
  w_for_each_set(observed, [&](unsigned slot) {
    w_set(s.detected_slots, slot);
    s.detect_time[slot] = static_cast<std::uint32_t>(t);
    w_clear(s.live, slot);
  });
}

/// Latch bookkeeping: slots of `w` (a DFF machine-pair entering frame t+1)
/// whose known value opposes the known good value get recorded, keeping the
/// occurrence deepest in the chain (fewest flush shifts).
template <class Word>
inline void record_latches(const W3T<Word>& w, std::size_t j, std::size_t t,
                           std::span<LatchRecord> latched) noexcept {
  const bool good0 = w_bit0(w.v0);
  const bool good1 = w_bit0(w.v1);
  Word diff{};
  if (good1) diff = w.v0;
  else if (good0) diff = w.v1;
  w_clear(diff, 0);
  w_for_each_set(diff, [&](unsigned slot) {
    LatchRecord& lr = latched[slot - 1];
    if (!lr.latched || j >= lr.ff_index) {
      lr.latched = true;
      lr.ff_index = static_cast<std::uint32_t>(j);
      lr.time = static_cast<std::uint32_t>(t);
    }
  });
}

}  // namespace

template <class Word>
std::uint64_t FaultSimulator::BatchRunnerT<Word>::advance(State& s, const SequenceView& view,
                                                          std::vector<W3T<Word>>& values,
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
      s.frame = t;  // snapshot the state entering frame t
      opt.checkpoints->save(opt.batch_index, s);
    }

    // Boundary values (with stem forcing on PIs and sampled DFF outputs).
    const auto& vec = view.vector_at(t);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const GateId pi = inputs[i];
      values[pi] = stem_[pi].apply(W::broadcast(vec[i]));
    }
    for (const std::uint32_t j : prog_.samp_dff) {
      const GateId ff = dffs[j];
      values[ff] = stem_[ff].apply(s.state[j]);
    }

    // Type runs and fixups (individually-forced gates + stem patches),
    // interleaved level-major: a fixup at level L runs after the runs of
    // level <= L and before any run of a higher level (no combinational
    // edges within a level, so the relative order inside a level is free).
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
          const GateId g = fix_idx_[fi];
          values[g] = stem_[g].apply(values[g]);
        } else {
          const std::size_t k = fix_idx_[fi];
          values[forced_[k]] = eval_forced(k, values.data());
        }
        ++fi;
      }
    }
    evals += prog_.evals_per_frame;

    // Detection at the batch's observable primary outputs.
    Word observed_this_frame{};
    for (const GateId po : prog_.obs_po) {
      const W w = values[po];
      const bool good0 = w_bit0(w.v0);
      const bool good1 = w_bit0(w.v1);
      if (good1) observed_this_frame = observed_this_frame | (w.v0 & s.live);
      else if (good0) observed_this_frame = observed_this_frame | (w.v1 & s.live);
    }
    record_detections(s, observed_this_frame, t);

    if (opt.early_exit && !w_any(s.live)) {
      s.frame = t + 1;  // state was not clocked into frame t+1 — see header
      exited = true;
      break;
    }

    // Next state of the sampled DFFs (with branch forcing on D pins).
    for (const std::uint32_t j : prog_.samp_dff) {
      W d = values[dff_d[j]];
      const Forcing& f = dff_force_[j];
      if (f.any()) d = f.apply(d);
      s.state[j] = d;
    }

    // Latched fault effects can only sit in cone DFFs: faulty slot differs
    // (known vs opposite known) from the good machine in the state entering
    // frame t+1.
    if (!opt.latched.empty()) {
      for (const std::uint32_t j : prog_.latch_dff)
        record_latches(s.state[j], j, t, opt.latched);
    }
  }
  if (!exited) s.frame = view.length();

  // Single telemetry choke point: every fault-simulation consumer (one-shot
  // runs, sessions, compaction trials) advances through here, so GateEvals
  // needs no per-object plumbing. ConePruneHits counts the gate-word
  // evaluations the pruned program avoided versus the full evaluation order
  // over the frames actually entered.
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

template class FaultSimulator::BatchRunnerT<std::uint64_t>;
template class FaultSimulator::BatchRunnerT<Simd256>;
template class FaultSimulator::BatchRunnerT<Simd512>;

// ---------------------------------------------------------------------------
// FaultSimulator

FaultSimulator::FaultSimulator(const Netlist& nl) : nl_(&nl), compiled_(nl.compiled_shared()) {}

template <class Word>
std::vector<W3T<Word>>& FaultSimulator::scratch_for(std::size_t worker) const {
  return scratch_[worker].get<Word>();
}

std::vector<DetectionRecord> FaultSimulator::run(const TestSequence& seq,
                                                 std::span<const Fault> faults,
                                                 std::vector<LatchRecord>* latched) const {
  return run(SequenceView(seq), faults, latched);
}

std::vector<DetectionRecord> FaultSimulator::run(const SequenceView& view,
                                                 std::span<const Fault> faults,
                                                 std::vector<LatchRecord>* latched) const {
  switch (resolved_slot_width_for(faults.size())) {
    case SlotWidth::W256: return run_impl<Simd256>(view, faults, latched);
    case SlotWidth::W512: return run_impl<Simd512>(view, faults, latched);
    default: return run_impl<std::uint64_t>(view, faults, latched);
  }
}

template <class Word>
std::vector<DetectionRecord> FaultSimulator::run_impl(const SequenceView& view,
                                                      std::span<const Fault> faults,
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
    runner.advance(s, view, scratch_for<Word>(w), opt);
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

bool FaultSimulator::detects_all(const TestSequence& seq, std::span<const Fault> faults) const {
  return detects_all(SequenceView(seq), faults);
}

bool FaultSimulator::detects_all(const SequenceView& view, std::span<const Fault> faults) const {
  switch (resolved_slot_width_for(faults.size())) {
    case SlotWidth::W256: return detects_all_impl<Simd256>(view, faults);
    case SlotWidth::W512: return detects_all_impl<Simd512>(view, faults);
    default: return detects_all_impl<std::uint64_t>(view, faults);
  }
}

template <class Word>
bool FaultSimulator::detects_all_impl(const SequenceView& view,
                                      std::span<const Fault> faults) const {
  constexpr std::size_t kPer = WordTraits<Word>::kBits - 1;
  const std::size_t num_batches = (faults.size() + kPer - 1) / kPer;
  ThreadPool& pool = ThreadPool::global();
  if (scratch_.size() < pool.num_workers()) scratch_.resize(pool.num_workers());
  // Deterministic wave-scheduled fail-fast (DESIGN.md §5g): batches run in
  // fixed-size waves with the fail flag checked serially BETWEEN waves only.
  // Every batch of a scheduled wave always runs to completion, so the set of
  // executed batch advances — and with it every work counter — depends only
  // on the input, never on thread timing. The returned verdict is identical
  // to a run without fail-fast.
  bool ok = true;
  for (std::size_t wave = 0; wave < num_batches && ok; wave += kFailFastWave) {
    const std::size_t n = std::min(kFailFastWave, num_batches - wave);
    std::atomic<bool> wave_ok{true};
    pool.parallel_for(n, [&](std::size_t k, std::size_t w) {
      const std::size_t base = (wave + k) * kPer;
      const std::size_t count = std::min<std::size_t>(kPer, faults.size() - base);
      BatchRunnerT<Word> runner(*compiled_, faults.subspan(base, count));
      SimBatchStateT<Word> s = runner.initial_state();
      runner.advance(s, view, scratch_for<Word>(w), {});
      if (!((s.detected_slots & runner.slot_mask()) == runner.slot_mask()))
        wave_ok.store(false, std::memory_order_relaxed);
    });
    ok = wave_ok.load(std::memory_order_relaxed);
  }
  return ok;
}

std::vector<std::size_t> FaultSimulator::detected_indices(const TestSequence& seq,
                                                          std::span<const Fault> faults) const {
  std::vector<std::size_t> out;
  const auto records = run(seq, faults);
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records[i].detected) out.push_back(i);
  return out;
}

}  // namespace uniscan
