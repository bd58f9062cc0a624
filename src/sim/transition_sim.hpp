// Parallel-fault sequential simulation for transition (gross-delay) faults.
//
// Same machines-per-slot-word organisation as FaultSimulator (63/255/511
// faulty machines per batch depending on the slot width); the injected
// value is dynamic: each faulty slot remembers the faulted line's driven
// value from the previous cycle and forces
//     STR: and(driven(t), driven(t-1))     STF: or(driven(t), driven(t-1))
// onto its slot. Slot 0 remains the good machine.
//
// Mirrors FaultSimulator's two-layer structure: BatchRunnerT<Word> is the
// incremental per-batch engine (checkpoint-resumable over a SequenceView,
// caller-provided scratch) built on the CompiledNetlist kernel with the same
// observation-cone pruning; the one-shot run/detects_all fan batches across
// ThreadPool::global() at the process-wide slot width, with bit-identical
// results at any thread count and any width. The launch history (previous
// driven value per fault) is part of SimBatchStateT::prev_driven so
// checkpoints capture it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/transition_fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/checkpoint.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/engine.hpp"
#include "sim/fault_sim.hpp"
#include "sim/sequence.hpp"
#include "sim/sequence_view.hpp"
#include "sim/sequential_sim.hpp"
#include "sim/slot_word.hpp"

namespace uniscan {

class TransitionFaultSimulator {
 public:
  using fault_type = TransitionFault;

  explicit TransitionFaultSimulator(const Netlist& nl);

  const Netlist& netlist() const noexcept { return *nl_; }
  const CompiledNetlist& compiled() const noexcept { return *compiled_; }

  /// Simulate from power-up; one detection record per fault.
  std::vector<DetectionRecord> run(const TestSequence& seq,
                                   std::span<const TransitionFault> faults,
                                   std::vector<LatchRecord>* latched = nullptr) const;
  std::vector<DetectionRecord> run(const SequenceView& view,
                                   std::span<const TransitionFault> faults,
                                   std::vector<LatchRecord>* latched = nullptr) const;

  bool detects_all(const TestSequence& seq, std::span<const TransitionFault> faults) const;
  bool detects_all(const SequenceView& view, std::span<const TransitionFault> faults) const;

  std::vector<std::size_t> detected_indices(const TestSequence& seq,
                                            std::span<const TransitionFault> faults) const;

  /// Incremental engine for one batch of up to kSlots-1 transition faults;
  /// see FaultSimulator::BatchRunnerT for the contract. Instantiated for
  /// std::uint64_t, Simd256 and Simd512 (explicit instantiations in
  /// transition_sim.cpp).
  template <class Word>
  class BatchRunnerT {
   public:
    static constexpr unsigned kSlots = WordTraits<Word>::kBits;
    using State = SimBatchStateT<Word>;

    BatchRunnerT(const CompiledNetlist& cnl, std::span<const TransitionFault> faults);

    std::span<const TransitionFault> faults() const noexcept { return faults_; }
    Word slot_mask() const noexcept { return slot_mask_; }

    /// See FaultSimulator::BatchRunnerT::samples_dff.
    bool samples_dff(std::size_t j) const noexcept {
      return !prog_.pruned || prog_.dff_sampled[j] != 0;
    }

    /// All-X power-up state, X launch history, every fault slot live.
    State initial_state() const;

    struct AdvanceOptions {
      bool early_exit = true;
      std::span<LatchRecord> latched = {};
      CheckpointStoreT<Word>* checkpoints = nullptr;
      std::size_t batch_index = 0;
      std::size_t capture_limit = 0;
    };

    std::uint64_t advance(State& s, const SequenceView& view, std::vector<W3T<Word>>& values,
                          const AdvanceOptions& opt) const;

   private:
    static constexpr std::int32_t kNone = -1;

    void apply_stems_value(GateId g, State& s, W3T<Word>& w) const;
    void apply_stems(GateId g, State& s, std::vector<W3T<Word>>& values) const {
      apply_stems_value(g, s, values[g]);
    }
    void apply_branches(GateId g, W3T<Word>* fanin_buf, std::size_t n, State& s,
                        const std::vector<W3T<Word>>& values) const;
    /// Evaluate one injection-carrying combinational gate (branch forcing on
    /// its fanins, stem forcing on its output); refreshes launch histories.
    W3T<Word> eval_forced(GateId g, State& s, const std::vector<W3T<Word>>& values) const;

    const CompiledNetlist* cnl_;
    const Netlist* nl_;
    std::span<const TransitionFault> faults_;
    Word slot_mask_{};
    // A line carries up to two faults (STR and STF) per batch; both stem and
    // branch faults are chained in per-gate intrusive lists.
    std::vector<std::int32_t> stem_head_;    // per gate -> fault index
    std::vector<std::int32_t> branch_head_;  // per gate -> fault index
    std::vector<std::int32_t> next_;         // per fault, shared by both chains
    // Per-fault launch value captured while evaluating the current frame,
    // committed into SimBatchStateT::prev_driven at frame end. Scratch: a
    // runner is used by one thread at a time.
    mutable std::vector<V3> pending_;

    // Cone-pruned program (see FaultSimulator::BatchRunnerT). Boundary
    // gates carrying stem faults are listed once so the per-frame forcing
    // pass doesn't scan all boundaries.
    // forced_ holds only gates with branch (pin) faults; stem-only sites
    // stay inside the type runs and get their slot rewrites applied
    // level-interleaved. fix_* merges both fixup streams level-ascending:
    // fix_idx_[i] is a patch gate id when fix_patch_[i], else an index into
    // forced_.
    BatchProgram prog_;
    std::vector<GateId> forced_;
    std::vector<std::uint32_t> fix_idx_;
    std::vector<std::uint32_t> fix_level_;
    std::vector<std::uint8_t> fix_patch_;
    std::vector<GateId> bstem_dff_;  // DFF gates with stem faults
    std::vector<GateId> bstem_pi_;   // PI gates with stem faults
  };

  /// The historical 63-fault runner — the uint64_t instantiation.
  using BatchRunner = BatchRunnerT<std::uint64_t>;

 private:
  template <class Word>
  std::vector<DetectionRecord> run_impl(const SequenceView& view,
                                        std::span<const TransitionFault> faults,
                                        std::vector<LatchRecord>* latched) const;
  template <class Word>
  bool detects_all_impl(const SequenceView& view, std::span<const TransitionFault> faults) const;

  struct Scratch {
    std::vector<W3T<std::uint64_t>> w64;
    std::vector<W3T<Simd256>> w256;
    std::vector<W3T<Simd512>> w512;
    template <class Word>
    std::vector<W3T<Word>>& get() noexcept {
      if constexpr (std::is_same_v<Word, Simd256>) return w256;
      else if constexpr (std::is_same_v<Word, Simd512>) return w512;
      else return w64;
    }
  };

  const Netlist* nl_;
  std::shared_ptr<const CompiledNetlist> compiled_;
  mutable std::vector<Scratch> scratch_;  // per pool worker
};

/// Streaming session for the transition generator (mirrors FaultSimSession:
/// built on the shared SessionCoreT engine — one BatchRunnerT +
/// SimBatchStateT per batch, packed hardest-first, dead batches skipped,
/// live batches fanned across ThreadPool::global(), and with repacking
/// enabled (the default) surviving faults repacked into dense batches with
/// the slot word auto-narrowed as the live population shrinks — DESIGN.md
/// §5j). Bit-identical at every thread count and width, repack on or off.
class TransitionSimSession {
 public:
  TransitionSimSession(const Netlist& nl, std::span<const TransitionFault> faults);
  ~TransitionSimSession();
  TransitionSimSession(TransitionSimSession&&) noexcept;
  TransitionSimSession& operator=(TransitionSimSession&&) noexcept;

  std::size_t advance(const TestSequence& chunk);
  std::size_t now() const noexcept;
  std::size_t num_faults() const noexcept;
  bool is_detected(std::size_t i) const;
  const std::vector<DetectionRecord>& detections() const noexcept;
  std::size_t num_detected() const noexcept;
  /// Compiled form of the netlist, shared by all of the session's runners
  /// (and reusable by FrameModels targeting the same circuit).
  const CompiledNetlist& compiled() const noexcept;
  State good_state() const;
  /// Machine-pair state plus the faulted line's previous driven value for
  /// fault `i` (needed to seed the ATPG window's launch history).
  void pair_state(std::size_t i, State& good, State& faulty, V3& prev_driven) const;

  /// Opaque resumable session state (live batches only — see
  /// FaultSimSession::Snapshot for the contract). The snapshot pins the
  /// batch pack it was captured under, so restoring across an intervening
  /// repack (even one that changed the slot width) re-installs that exact
  /// pack. Copyable; only valid for the session that produced it —
  /// restoring into a different session throws std::invalid_argument.
  class Snapshot {
   public:
    Snapshot() = default;

   private:
    friend class TransitionSimSession;
    std::shared_ptr<const void> state_;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& s);

  /// Implementation (the shared SessionCoreT engine; public so the
  /// definition in transition_sim.cpp can name it; not part of the
  /// session's API).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace uniscan
