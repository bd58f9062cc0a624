// Parallel-fault sequential fault simulation (PROOFS-style).
//
// Faults are processed in batches of kBits-1 machines, where kBits is the
// slot-word width (64, 256 or 512 — see sim/slot_word.hpp): bit slot 0 of
// every W3T word carries the good machine, slots 1..kBits-1 carry one faulty
// machine each. All machines see the same primary-input vectors; fault
// effects are injected by forcing the faulted line's value in the
// corresponding slot. Simulation starts from the all-X power-up state and
// runs the full sequence.
//
// A fault is *detected* at frame t if some primary output has a known good
// value and the opposite known value in the fault's slot. The simulator can
// additionally record where fault effects get *latched* into flip-flops —
// the hook used by the paper's Section-2 functional scan knowledge.
//
// Two layers:
//  * BatchRunnerT<Word> — the incremental engine for one batch of up to
//    kBits-1 faults over the CompiledNetlist kernel. The injection tables
//    (stem forcing per gate, per-pin force tables for branch faults) and the
//    batch's evaluation program — including the observation-cone pruning
//    that skips gates no fault of the batch can reach — are built once;
//    advance() resumes a SimBatchStateT at any frame (checkpoint restarts)
//    over a copy-free SequenceView, and the net-value scratch is
//    caller-provided so independent batches can run on different threads.
//    All three widths produce bit-identical detections, latch records and
//    sampled states, because batches never interact and every per-fault
//    result is a pure function of that fault's slot. The tests check every
//    result against a serial single-fault reference simulator.
//  * FaultSimulator — the one-shot API (run / detects_all),
//    fanning its independent batches across ThreadPool::global() at the
//    process-wide slot width (resolved_slot_width(), read per call).
//    Results are bit-identical for every thread count: each batch writes
//    only its own output slots and batches never interact.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/checkpoint.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/engine.hpp"
#include "sim/logic3.hpp"
#include "sim/sequence.hpp"
#include "sim/sequence_view.hpp"
#include "sim/slot_word.hpp"

namespace uniscan {

/// Batches per wave of the deterministic fail-fast used by detects_all (and
/// mirrored in the transition simulator and the omission engine): cross-batch
/// fail flags are only consulted serially BETWEEN waves, so the set of batch
/// advances that execute — and every obs:: work counter — is a pure function
/// of the input, independent of thread count and timing.
inline constexpr std::size_t kFailFastWave = 8;

struct DetectionRecord {
  bool detected = false;
  std::uint32_t time = 0;  // first frame at which the fault was observed at a PO
};

/// Fault effect captured in a flip-flop: after clocking frame `time`, the
/// state entering frame time+1 differs from the good machine at DFF
/// `ff_index` (Netlist::dffs() order). For the scan fallback we keep the
/// occurrence with the largest ff_index (fewest shifts to scan_out).
struct LatchRecord {
  bool latched = false;
  std::uint32_t ff_index = 0;
  std::uint32_t time = 0;
};

class FaultSimulator {
 public:
  using fault_type = Fault;

  explicit FaultSimulator(const Netlist& nl);

  const Netlist& netlist() const noexcept { return *nl_; }
  const CompiledNetlist& compiled() const noexcept { return *compiled_; }

  /// Simulate `seq` against every fault in `faults`. Returns one detection
  /// record per fault (same order). If `latched` is non-null it receives one
  /// latch record per fault.
  std::vector<DetectionRecord> run(const TestSequence& seq, std::span<const Fault> faults,
                                   std::vector<LatchRecord>* latched = nullptr) const;
  std::vector<DetectionRecord> run(const SequenceView& view, std::span<const Fault> faults,
                                   std::vector<LatchRecord>* latched = nullptr) const;

  /// True iff `seq` detects every fault in `faults`. Early-exits both within
  /// a batch (all slots detected) and across batches (a miss stops scheduling
  /// further kFailFastWave-sized waves — deterministic at any thread count).
  bool detects_all(const TestSequence& seq, std::span<const Fault> faults) const;
  bool detects_all(const SequenceView& view, std::span<const Fault> faults) const;

  /// Indices (into `faults`) of the faults detected by `seq`.
  std::vector<std::size_t> detected_indices(const TestSequence& seq,
                                            std::span<const Fault> faults) const;

  /// Incremental engine for one batch of up to kSlots-1 faults. The
  /// injection tables and the batch program are built once at construction;
  /// advance() is allocation-free. A runner may be shared across trials but
  /// is used by one thread at a time. Instantiated for std::uint64_t,
  /// Simd256 and Simd512 (explicit instantiations in fault_sim.cpp).
  template <class Word>
  class BatchRunnerT {
   public:
    static constexpr unsigned kSlots = WordTraits<Word>::kBits;
    using State = SimBatchStateT<Word>;

    BatchRunnerT(const CompiledNetlist& cnl, std::span<const Fault> faults);

    std::span<const Fault> faults() const noexcept { return faults_; }
    /// Bits 1..faults().size() — the slots this batch must detect.
    Word slot_mask() const noexcept { return slot_mask_; }

    /// True if advance() maintains DFF j's next state: false exactly for
    /// DFFs outside the batch's cone-plus-support, whose state equals the
    /// good machine's by construction (no fault effect can reach them). An
    /// empty batch (the good machine alone) is never pruned.
    bool samples_dff(std::size_t j) const noexcept {
      return !prog_.pruned || prog_.dff_sampled[j] != 0;
    }

    /// All-X power-up state with every fault slot live.
    State initial_state() const;

    struct AdvanceOptions {
      bool early_exit = true;  // stop once no slot is live
      std::span<LatchRecord> latched = {};  // one record per batch fault
      // Checkpoint capture: while simulating frames f <= capture_limit,
      // snapshot the state entering f whenever checkpoints->want(f).
      CheckpointStoreT<Word>* checkpoints = nullptr;
      std::size_t batch_index = 0;
      std::size_t capture_limit = 0;
    };

    /// Simulate frames [s.frame, view.length()) of `view`, updating `s` in
    /// place. `values` is per-net scratch (resized as needed; contents
    /// don't matter). Returns the number of gate-word evaluations.
    /// After an early exit, only the detection fields of `s` are
    /// meaningful; a state intended for later resumption must come from a
    /// checkpoint or a non-early-exit run.
    std::uint64_t advance(State& s, const SequenceView& view, std::vector<W3T<Word>>& values,
                          const AdvanceOptions& opt) const;

   private:
    /// Slot-forcing masks for fault injection. Slots listed in set0 are
    /// forced to 0, slots in set1 to 1; set0 & set1 == 0.
    struct Forcing {
      Word set0{};
      Word set1{};

      bool any() const noexcept { return w_any(set0 | set1); }
      W3T<Word> apply(W3T<Word> w) const noexcept {
        const Word touched = set0 | set1;
        return W3T<Word>{(w.v0 & ~touched) | set0, (w.v1 & ~touched) | set1};
      }
    };

    // Hot: one call per forced gate per frame from advance()'s fixup loop;
    // inlined there so the wide words never bounce through a by-hidden-
    // pointer return.
    [[gnu::always_inline]]
    W3T<Word> eval_forced(std::size_t k, const W3T<Word>* values) const noexcept;

    const CompiledNetlist* cnl_;
    const Netlist* nl_;
    std::span<const Fault> faults_;
    Word slot_mask_{};
    std::vector<Forcing> stem_;             // indexed by gate

    // Cone-pruned evaluation plan, the comb gates with a branch (pin)
    // injection (evaluated individually via flat per-pin force tables), and
    // dense pin-0 forcing for DFF D inputs. Stem-only sites stay inside the
    // type runs; their output forcing is a post-run patch. fix_* is the
    // level-ascending merge of both fixup streams the kernel walks between
    // type runs: fix_idx_[i] is a patch gate id when fix_patch_[i], else an
    // index into forced_.
    BatchProgram prog_;
    std::vector<GateId> forced_;
    std::vector<std::uint32_t> fix_idx_;
    std::vector<std::uint32_t> fix_level_;
    std::vector<std::uint8_t> fix_patch_;
    std::vector<std::uint32_t> pin_off_;    // CSR offsets into pin_force_
    std::vector<Forcing> pin_force_;
    std::vector<std::uint8_t> pin_any_;     // parallel to pin_force_: force.any()
    std::vector<std::uint8_t> forced_stem_; // parallel to forced_: stem_[g].any()
    std::vector<Forcing> dff_force_;        // indexed by DFF index
  };

  /// The historical 63-fault runner — the uint64_t instantiation.
  using BatchRunner = BatchRunnerT<std::uint64_t>;

 private:
  template <class Word>
  std::vector<DetectionRecord> run_impl(const SequenceView& view, std::span<const Fault> faults,
                                        std::vector<LatchRecord>* latched) const;
  template <class Word>
  bool detects_all_impl(const SequenceView& view, std::span<const Fault> faults) const;

  // Per-pool-worker net-value scratch, one buffer per slot width so a width
  // switch between calls never reinterprets stale bytes.
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
  template <class Word>
  std::vector<W3T<Word>>& scratch_for(std::size_t worker) const;

  const Netlist* nl_;
  // Shared one-time compile from Netlist::compiled_shared(): every simulator
  // over the same Netlist object reuses it instead of recompiling.
  std::shared_ptr<const CompiledNetlist> compiled_;
  // Index = ThreadPool worker id.
  mutable std::vector<Scratch> scratch_;
};

}  // namespace uniscan
