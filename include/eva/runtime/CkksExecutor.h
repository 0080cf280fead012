//===- eva/runtime/CkksExecutor.h - Encrypted execution ---------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs compiled EVA programs against the CKKS backend. Two executors
/// share one instruction dispatcher and one live-ciphertext accounting:
///
///  * CkksExecutor — the paper's EVA executor (Section 6.1): asynchronous
///    DAG scheduling over a thread pool with dependency-counting
///    readiness, plus retire-based memory reuse (a node's ciphertext is
///    released once its last child has consumed it). With one thread it
///    spawns no workers and runs the whole DAG on the calling thread.
///  * KernelBulkCkksExecutor — the CHET-style baseline: bulk-synchronous
///    parallelism inside each frontend-tagged kernel with barriers between
///    kernels (the paper's "static, bulk-synchronous schedule limits the
///    available parallelism", Section 8.2). It never retires ciphertexts.
///
/// Both are cooperative: the thread that calls run() participates in the
/// schedule (executing ready nodes or loop chunks) instead of sleeping, so
/// an executor built with NumThreads = k uses exactly k execution
/// contexts. Each executor owns a limb-parallel Evaluator wired to its
/// pool, so when the DAG (or a kernel wavefront) is narrower than the
/// worker count, idle workers pick up per-prime limb chunks of the CKKS ops
/// in flight instead of idling — the two levels of parallelism compose.
/// Its operation counters are the executor's own, so executors sharing one
/// workspace never see each other's counts.
///
/// Vector `Constant` operands (weights, masks, biases) are encoded once
/// and then served from a ConstantCache shared by every executor of the
/// same compiled program on the same context: the workspace holds it in
/// local mode, the RegisteredProgram in the service. The first run pays
/// the encodes (ExecutionStats::ConstantEncodes); later runs, and other
/// sessions of the program, pay none while the cache is within its budget.
///
/// Scale handling refines footnote 1 of the paper: instead of pretending
/// each RESCALE divides by 2^bits, the executor tracks the actual
/// prime-quotient scales. Because validation proves the conforming rescale
/// chains of ADD/SUB operands equal, both operands always consumed the same
/// physical primes and their actual scales agree exactly; additive
/// plaintext operands are encoded at the ciphertext's actual scale.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_RUNTIME_CKKSEXECUTOR_H
#define EVA_RUNTIME_CKKSEXECUTOR_H

#include "eva/ckks/Decryptor.h"
#include "eva/ckks/Encoder.h"
#include "eva/ckks/Encryptor.h"
#include "eva/ckks/Evaluator.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/core/Compiler.h"
#include "eva/support/ThreadAnnotations.h"
#include "eva/support/ThreadPool.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace eva {

/// Encoded vector `Constant` operands of one compiled program over one
/// context, shared by every executor (and every service session) running
/// that program on that context.
///
///  * Key: the consuming node. The consumer fixes the prime count and the
///    scale an operand is encoded at, so one constant feeding two
///    consumers gets two entries. The executor re-checks a hit's (prime
///    count, scale) and encodes afresh on a mismatch.
///  * Fill: lazy, one std::call_once per entry, so concurrent first runs
///    encode each entry exactly once. Plain `Input` vectors change per run
///    and are never cached; scalar constants encode by broadcast (no NTT)
///    and are not cached either.
///  * Budget: BudgetBytes of encoded plaintexts. An entry that would
///    exceed it stays empty and its operand encodes on every run.
///
/// The cache records the Program and context it was built for; an
/// executor uses it only for that pair (program() / context()), and the
/// program must outlive the cache's users, as it must outlive executors.
class ConstantCache {
public:
  /// Encoded bytes the cache holds at most (fixed: about 4x what the SoK
  /// perceptron's hybrid layers need).
  static constexpr size_t BudgetBytes = size_t(64) << 20;

  ConstantCache(const Program &P, std::shared_ptr<const CkksContext> Ctx)
      : Prog(&P), Ctx(std::move(Ctx)), Entries(P.maxNodeId()) {}

  const Program &program() const { return *Prog; }
  const CkksContext &context() const { return *Ctx; }
  /// Encoded bytes held (at most BudgetBytes).
  size_t bytes() const { return Bytes.load(); }

  /// The plaintext cached for consumer \p ConsumerId, or null when its
  /// entry did not fit the budget. The first call for an entry runs
  /// \p Encode(\p Scratch) and moves the result into the cache if it fits;
  /// when it does not, \p Scratch keeps it.
  template <typename EncodeFn>
  const Plaintext *find(uint64_t ConsumerId, EncodeFn &&Encode,
                        Plaintext &Scratch) {
    Entry &E = Entries[ConsumerId];
    std::call_once(E.Once, [&] {
      Encode(Scratch);
      if (reserve(Scratch.memoryBytes()))
        E.Pt = std::move(Scratch);
    });
    return E.Pt ? &*E.Pt : nullptr;
  }

private:
  struct Entry {
    std::once_flag Once;
    /// Written once inside call_once, read-only after.
    std::optional<Plaintext> Pt;
  };
  /// Claims \p Size bytes of the budget; false when they do not fit.
  bool reserve(size_t Size) {
    size_t Cur = Bytes.load();
    do {
      if (Cur + Size > BudgetBytes)
        return false;
    } while (!Bytes.compare_exchange_weak(Cur, Cur + Size));
    return true;
  }

  const Program *Prog;
  std::shared_ptr<const CkksContext> Ctx;
  std::vector<Entry> Entries;
  std::atomic<size_t> Bytes{0};
};

/// The "encryption context" of Table 7: parameters, keys, and the
/// encoder/encryptor/decryptor stack for one compiled program. Evaluators
/// belong to the executors, not to the workspace.
///
/// Two flavours exist. create() is the fused client+server workspace used
/// when one process owns everything (tests, benches, the examples).
/// createServer() builds the evaluation-only workspace an encrypted-compute
/// service holds per client session: the context, the encoder (for plain
/// operands), and the *client-supplied* evaluation keys — KeyGen, Enc, and
/// Dec stay null, so no secret key ever exists server-side and
/// encryptInputs/decryptOutput fail fast if called.
class CkksWorkspace {
public:
  /// Generates primes from the compiled bit sizes, validates them at the
  /// compiled security level, and creates all keys (public,
  /// relinearization, and one Galois key per rotation step).
  static Expected<std::shared_ptr<CkksWorkspace>>
  create(const CompiledProgram &CP, uint64_t Seed = 0);

  /// Evaluation-only workspace over an existing context (shared across the
  /// sessions of one registered program) and the evaluation keys a client
  /// uploaded. Validates that \p Gk covers every rotation step the compiled
  /// program needs and that \p Rk is present when it relinearizes.
  /// \p Constants, when given, is the program's shared constant cache (the
  /// RegisteredProgram's), so N sessions pin one copy of the encodings.
  static Expected<std::shared_ptr<CkksWorkspace>>
  createServer(const CompiledProgram &CP,
               std::shared_ptr<const CkksContext> Ctx, RelinKeys Rk,
               GaloisKeys Gk, std::shared_ptr<ConstantCache> Constants = {});

  /// Client-style workspace: exactly the crypto stack ServiceClient builds
  /// when it opens a session — no public key, a symmetric-only encryptor,
  /// relinearization keys only if the program relinearizes — with the same
  /// key/sampler seeding and generation order. A local run over this
  /// workspace with \p ReproducibleSeeds is therefore bit-identical to the
  /// remote service loop with the same seed (the cross-backend parity the
  /// api/Runner goldens pin down).
  static Expected<std::shared_ptr<CkksWorkspace>>
  createClient(const CompiledProgram &CP, uint64_t Seed,
               bool ReproducibleSeeds = false);

  std::shared_ptr<const CkksContext> Context;
  std::unique_ptr<CkksEncoder> Encoder;
  std::unique_ptr<KeyGenerator> KeyGen;
  PublicKey Pk;
  RelinKeys Rk;
  GaloisKeys Gk;
  std::unique_ptr<Encryptor> Enc;
  std::unique_ptr<Decryptor> Dec;
  /// Encoded constants of the program this workspace was built for; create()
  /// and createClient() make a fresh one, createServer() takes the shared
  /// one it is given (or none).
  std::shared_ptr<ConstantCache> Constants;
};

/// Named runtime inputs: Cipher inputs are encrypted; Vector/Scalar inputs
/// stay plain.
struct SealedInputs {
  std::map<std::string, Ciphertext> Cipher;
  std::map<std::string, std::vector<double>> Plain;
};

/// Execution statistics of the most recent run: the evaluator's operation
/// counters (key-switch decompositions are the dominant rotation cost;
/// hoisting shares one across a batch) plus memory reuse (Section 6.1).
struct ExecutionStats : EvaluatorCounters {
  size_t PeakLiveBytes = 0;
  size_t TotalNodeCount = 0;
  size_t PeakLiveNodes = 0;
  /// Vector `Constant` operands this run encoded: one per use on a cold
  /// cache, 0 once the ConstantCache serves them all.
  size_t ConstantEncodes = 0;
};

/// The paper's EVA executor: asynchronous DAG scheduling + memory reuse.
/// run()'s caller cooperates in the schedule, so NumThreads is the total
/// number of execution contexts (NumThreads == 1 runs everything on the
/// calling thread through the same scheduler; 0 means hardware
/// concurrency).
class CkksExecutor {
public:
  /// \p UseHoisting consumes the compiled program's RotationPlan: rotations
  /// sharing a source are evaluated as one rotateHoisted batch (bit-identical
  /// to one rotation at a time). Off reproduces the
  /// one-decomposition-per-rotation baseline for A/B measurement.
  CkksExecutor(const CompiledProgram &CP, std::shared_ptr<CkksWorkspace> WS,
               size_t NumThreads = 1, bool UseHoisting = true)
      : CP(CP), P(*CP.Prog), WS(std::move(WS)), UseHoisting(UseHoisting),
        Pool(NumThreads), LimbEval(this->WS->Context, &Pool),
        Constants(cacheFor(P, *this->WS)) {}
  /// A bool in the thread-count position is a hoisting flag in the wrong
  /// place (false would mean hardware concurrency); reject it at compile
  /// time.
  template <typename T, typename = std::enable_if_t<std::is_same_v<T, bool>>>
  CkksExecutor(const CompiledProgram &, std::shared_ptr<CkksWorkspace>, T,
               bool = true) = delete;
  virtual ~CkksExecutor() = default;

  /// Encrypts the Cipher inputs (at each input node's scale, over the full
  /// data chain) and collects plain inputs.
  SealedInputs
  encryptInputs(const std::map<std::string, std::vector<double>> &Inputs);

  /// Runs the program; returns encrypted outputs by name.
  virtual std::map<std::string, Ciphertext> run(const SealedInputs &Inputs);

  /// Decrypts and decodes an output to vec_size values.
  std::vector<double> decryptOutput(const Ciphertext &Ct) const;

  /// Convenience: encrypt, run, decrypt in one call.
  std::map<std::string, std::vector<double>>
  runPlain(const std::map<std::string, std::vector<double>> &Inputs);

  const ExecutionStats &stats() const { return Stats; }

protected:
  /// One runtime value: an owned ciphertext or a view of a plain vector.
  struct Value {
    std::optional<Ciphertext> Ct;
    std::shared_ptr<const std::vector<double>> Plain;
    bool isCipher() const { return Ct.has_value(); }
  };

  /// Computes node \p N given its parents' values in \p Values and counts
  /// the ciphertext it produces as live. Thread-safe across distinct nodes.
  void computeNode(const Node *N, std::vector<Value> &Values,
                   const SealedInputs &Inputs,
                   std::map<std::string, Ciphertext> &Outputs);

  /// Releases \p V's ciphertext (its last consumer ran) and drops it from
  /// the live set.
  void retire(Value &V);

  /// The plaintext \p Consumer reads for its plain operand \p PlainNode
  /// at the given level and scale: from the constant cache when the
  /// operand is a vector constant, else freshly encoded into \p Scratch.
  const Plaintext &plainOperand(const Node *Consumer, const Node *PlainNode,
                                const std::vector<double> &V,
                                size_t PrimeCount, double Scale,
                                Plaintext &Scratch);

  /// \p WS's constant cache if it was built for \p P on WS's context,
  /// else null (the executor then encodes every operand on every run).
  static ConstantCache *cacheFor(const Program &P, const CkksWorkspace &WS);

  const std::vector<double> &plainValueOf(const Node *N,
                                          const std::vector<Value> &Values,
                                          const SealedInputs &Inputs) const;

  uint64_t normalizedLeftSteps(const Node *N) const;

  /// Per-run state of one hoist batch. The first member to execute computes
  /// the whole batch under the group mutex (all members are ready the moment
  /// the shared source is, so several may race here); the rest collect
  /// their precomputed ciphertexts.
  struct HoistGroupState {
    Mutex M;
    bool Done EVA_GUARDED_BY(M) = false;
    /// member node id -> rotated ct
    std::map<uint64_t, Ciphertext> Results EVA_GUARDED_BY(M);
  };

  /// The ciphertexts alive at one moment of a run, for the memory-reuse
  /// stats (Section 6.1). A hoist batch's rotated ciphertexts join when the
  /// batch is computed, parked outside the Values table until their member
  /// nodes collect them; retire() removes a ciphertext.
  struct LiveSet {
    std::atomic<size_t> Bytes{0}, Nodes{0}, PeakBytes{0}, PeakNodes{0};
    /// Adds to the live set and raises the peaks to match.
    void add(size_t AddBytes, size_t AddNodes);
  };

  /// Resets statistics, the live set and evaluator counters and
  /// materializes the hoist state; every run() implementation calls this
  /// first.
  void beginRun();
  /// Copies the evaluator counters and live-set peaks of this run into
  /// Stats.
  void finishRun();

  const CompiledProgram &CP;
  const Program &P;
  std::shared_ptr<CkksWorkspace> WS;
  bool UseHoisting = true;
  ThreadPool Pool;
  /// This executor's evaluator: limb-parallel over Pool, with counters no
  /// other executor touches.
  Evaluator LimbEval;
  /// One entry per RotationPlan group, rebuilt by beginRun().
  std::vector<std::unique_ptr<HoistGroupState>> HoistState;
  LiveSet Live;
  /// Null, or the workspace's cache when it serves this program.
  ConstantCache *Constants;
  std::atomic<size_t> ConstantEncodes{0};
  ExecutionStats Stats;
  /// Leaf lock: serializes Output-node writes into the result map when
  /// several output nodes finish at once. The map itself is a computeNode
  /// parameter, so the guard is the lock contract on that one critical
  /// section rather than a GUARDED_BY on a member.
  Mutex OutputMutex;
};

/// The paper's parallel EVA executor is CkksExecutor; this name selects it
/// too.
using ParallelCkksExecutor = CkksExecutor;

/// The CHET-style executor: kernels in sequence, bulk-synchronous wavefront
/// parallelism within each kernel. The caller participates in each
/// wavefront's parallelFor, so NumThreads is again the total context count.
class KernelBulkCkksExecutor : public CkksExecutor {
public:
  using CkksExecutor::CkksExecutor;

  std::map<std::string, Ciphertext> run(const SealedInputs &Inputs) override;
};

} // namespace eva

#endif // EVA_RUNTIME_CKKSEXECUTOR_H
