//===- eva/ckks/Evaluator.h - Homomorphic evaluation ------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Homomorphic operations of the RNS-CKKS scheme, one per EVA instruction
/// opcode (Table 2 of the paper): NEGATE, ADD, SUB, MULTIPLY (ciphertext and
/// plaintext variants), ROTATELEFT/ROTATERIGHT (via Galois automorphism plus
/// key switching), RELINEARIZE, MODSWITCH, and RESCALE. Operand restrictions
/// (equal coefficient moduli for binary ops, equal scales for additive ops,
/// two-polynomial inputs to MULTIPLY) are asserted here; the EVA compiler
/// guarantees they hold for compiled programs, which is the paper's central
/// "no runtime exceptions" claim.
///
/// An Evaluator may optionally be given a ThreadPool, in which case the hot
/// paths (MULTIPLY, the key-switch core of RELINEARIZE and ROTATE, and the
/// rescaling mod-down) parallelize over independent RNS limbs — each prime
/// component's NTTs and pointwise arithmetic run as a separate loop chunk.
/// All limb work is exact modular integer arithmetic on disjoint
/// components, so results are bit-identical to the serial evaluator. This
/// intra-op parallelism composes with the executor's node-level DAG
/// scheduling: when the DAG is too narrow to occupy every worker, idle
/// workers pick up limb chunks of the ops in flight (Section 6.1's "as much
/// parallelism as the schedule exposes").
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CKKS_EVALUATOR_H
#define EVA_CKKS_EVALUATOR_H

#include "eva/ckks/Ciphertext.h"
#include "eva/ckks/Context.h"
#include "eva/ckks/Keys.h"
#include "eva/ckks/Plaintext.h"

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace eva {

class ThreadPool;

/// Snapshot of the evaluator's operation counters. Key-switch
/// decompositions are the dominant rotation cost (one inverse NTT per limb
/// plus the full RNS re-extension of every digit); the hoisted rotation
/// path shares one decomposition across a whole batch of rotations of the
/// same ciphertext, which these counters make observable to benches and
/// tests (via ExecutionStats).
struct EvaluatorCounters {
  uint64_t KeySwitchDecompositions = 0; ///< relinearize + every rotation path
  uint64_t Rotations = 0;               ///< rotations evaluated (serial + hoisted)
  uint64_t HoistedRotations = 0;        ///< rotations served from a shared decomposition
  uint64_t HoistBatches = 0;            ///< rotateHoisted batches executed
  /// Forward + inverse NTTs the evaluator ran (key-switch decompose and
  /// accumulate, rescale mod-down; Galois automorphisms permute NTT slots
  /// and run none). Plaintext-operand encoding (CkksEncoder) is not
  /// evaluator work and is not counted.
  /// Exact and per evaluator, so concurrent runs on separate evaluators
  /// never mix; modular-multiply totals follow from it and the op counts
  /// (N/2 * log2 N per NTT plus N per pointwise limb product).
  uint64_t Ntts = 0;
  // Per-op invocation counts (one per EVA instruction opcode the evaluator
  // executed); together with Ntts these locate the next hot spot by
  // measurement instead of inference.
  uint64_t Adds = 0;             ///< add + addPlain
  uint64_t Subs = 0;             ///< sub + subPlain + subFromPlain
  uint64_t Negates = 0;          ///< negate (standalone, not inside sub)
  uint64_t Multiplies = 0;       ///< ciphertext-ciphertext multiplies
  uint64_t PlainMultiplies = 0;  ///< ciphertext-plaintext multiplies
  uint64_t Relinearizations = 0; ///< relinearize calls that key-switched
  uint64_t Rescales = 0;         ///< rescale invocations
  uint64_t ModSwitches = 0;      ///< modSwitch invocations
};

class Evaluator {
public:
  /// \p Pool, when non-null, enables limb-level parallelism inside single
  /// operations (not owned; must outlive the evaluator). A null pool or a
  /// pool of size 1 runs every limb inline.
  explicit Evaluator(std::shared_ptr<const CkksContext> Ctx,
                     ThreadPool *Pool = nullptr)
      : Ctx(std::move(Ctx)), Pool(Pool) {}

  Ciphertext negate(const Ciphertext &A) const;
  Ciphertext add(const Ciphertext &A, const Ciphertext &B) const;
  Ciphertext sub(const Ciphertext &A, const Ciphertext &B) const;
  Ciphertext addPlain(const Ciphertext &A, const Plaintext &B) const;
  Ciphertext subPlain(const Ciphertext &A, const Plaintext &B) const;
  /// B - A (the EVA SUB instruction with a plaintext left operand).
  Ciphertext subFromPlain(const Plaintext &B, const Ciphertext &A) const;

  /// Ciphertext-ciphertext multiply; result has size(A)+size(B)-1
  /// polynomials and the product scale.
  Ciphertext multiply(const Ciphertext &A, const Ciphertext &B) const;
  Ciphertext multiplyPlain(const Ciphertext &A, const Plaintext &B) const;

  /// Reduces a 3-polynomial ciphertext back to 2 (Constraint 3).
  Ciphertext relinearize(const Ciphertext &A, const RelinKeys &Keys) const;

  /// Divides by (and drops) the last prime of the chain, rounding; the
  /// scale divides by the actual prime value (the paper's footnote 1).
  Ciphertext rescale(const Ciphertext &A) const;

  /// Drops the last prime without changing the scale.
  Ciphertext modSwitch(const Ciphertext &A) const;

  /// Rotates all N/2 slots left by \p Steps (in [1, N/2)). Requires the
  /// Galois key for 5^Steps.
  Ciphertext rotateLeft(const Ciphertext &A, uint64_t Steps,
                        const GaloisKeys &Keys) const;

  /// Hoisted rotation (Halevi–Shoup): performs the key-switch decomposition
  /// of \p A's c1 component ONCE — the per-limb inverse NTTs that dominate
  /// each rotation's fixed cost — and applies every Galois automorphism in
  /// \p Steps against the shared coefficient-domain digits. Because the
  /// automorphism commutes with the exact NTT, the permuted digits are
  /// exactly the ones the serial path decomposes, so each output is
  /// bit-identical to rotateLeft(A, Steps[K], Keys). A zero step returns a
  /// copy of \p A; duplicate steps each get their own output. Limb work
  /// runs on the evaluator's ThreadPool when one is attached.
  std::vector<Ciphertext> rotateHoisted(const Ciphertext &A,
                                        const std::vector<uint64_t> &Steps,
                                        const GaloisKeys &Keys) const;

  /// Zeroes the operation counters (executors call this at run start).
  void resetCounters() const;
  /// Snapshot of the operation counters since the last reset.
  EvaluatorCounters counters() const;

private:
  /// Coefficient-domain key-switch decomposition digits: digit I is the
  /// inverse NTT of Target's component I (a representative of Target mod
  /// q_I). Counted as one decomposition.
  std::vector<std::vector<uint64_t>>
  keySwitchDecompose(const RnsPoly &Target) const;

  /// The inner-product half of key switching: extends each digit to every
  /// output prime (+ the special prime), accumulates against \p Key, and
  /// divides the special prime back out. Digit I at its own prime q_I is
  /// the NTT-form limb I of the key-switched polynomial, read from
  /// \p Target (gathered through \p TargetIndex, a galoisNttIndex, when
  /// the digits are an automorphism of Target's) instead of re-transformed.
  std::array<RnsPoly, 2>
  keySwitchAccumulate(const std::vector<std::vector<uint64_t>> &Digits,
                      const RnsPoly &Target,
                      std::span<const uint64_t> TargetIndex,
                      const KSwitchKey &Key) const;

  /// Assembles the rotated ciphertext from the automorphed c0 and the
  /// key-switched (c0', c1') contribution — shared by the serial and the
  /// hoisted rotation paths so they stay bit-identical by construction.
  Ciphertext assembleRotation(RnsPoly C0, std::array<RnsPoly, 2> Ks,
                              double Scale) const;

  Ciphertext addSub(const Ciphertext &A, const Ciphertext &B,
                    bool Subtract) const;
  void checkBinaryOperands(const Ciphertext &A, const Ciphertext &B) const;
  void checkScaleMatch(double SA, double SB) const;

  /// Key-switches \p Target (NTT form over `count` data primes) to the
  /// secret key, returning the (c0, c1) contribution over the same primes.
  std::array<RnsPoly, 2> keySwitch(const RnsPoly &Target,
                                   const KSwitchKey &Key) const;

  /// Rounded division of NTT-form components by the prime at PrimeIdx.back()
  /// (dropped on return). PrimeIdx maps each component to its context prime.
  void divideRoundDropLast(std::vector<std::vector<uint64_t>> &Comps,
                           const std::vector<size_t> &PrimeIdx) const;

  /// Runs Fn(I) for I in [0, Count) — across the pool when limb parallelism
  /// is enabled, inline otherwise. Fn instances must touch disjoint limbs.
  void forEachLimb(size_t Count, const std::function<void(size_t)> &Fn) const;

  std::shared_ptr<const CkksContext> Ctx;
  ThreadPool *Pool = nullptr;

  /// Operation counters. Mutable atomics: computeNode dispatches through a
  /// const Evaluator from many threads at once, and the counts are
  /// observability, not semantics.
  mutable std::atomic<uint64_t> NumDecompositions{0};
  mutable std::atomic<uint64_t> NumRotations{0};
  mutable std::atomic<uint64_t> NumHoistedRotations{0};
  mutable std::atomic<uint64_t> NumHoistBatches{0};
  mutable std::atomic<uint64_t> NumNtts{0};
  mutable std::atomic<uint64_t> NumAdds{0};
  mutable std::atomic<uint64_t> NumSubs{0};
  mutable std::atomic<uint64_t> NumNegates{0};
  mutable std::atomic<uint64_t> NumMultiplies{0};
  mutable std::atomic<uint64_t> NumPlainMultiplies{0};
  mutable std::atomic<uint64_t> NumRelinearizations{0};
  mutable std::atomic<uint64_t> NumRescales{0};
  mutable std::atomic<uint64_t> NumModSwitches{0};
};

} // namespace eva

#endif // EVA_CKKS_EVALUATOR_H
