//===- table7_times.cpp - Table 7: compile/context/encrypt/decrypt times --------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// Regenerates Table 7: EVA's compilation time, encryption-context time (key
// generation including rotation and relinearization keys — the dominant
// cost, 160s for SqueezeNet in the paper), and single-input encryption and
// decryption times. Defaults to the two smaller LeNets; EVA_BENCH_FULL=1
// adds the rest (SqueezeNet's Galois keys need several GB).
//
// NOTE: since the api/Runner migration the encrypt column times symmetric
// (secret-key, seed-compressed) encryption — what a deployed client
// actually performs — which is roughly half the polynomial work of the
// public-key Encryptor::encrypt earlier revisions timed. Not comparable to
// pre-migration numbers.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "eva/support/Random.h"

using namespace eva;
using namespace evabench;

int main() {
  std::printf("Table 7: compilation, encryption context, encryption, and "
              "decryption time (s) for EVA\n\n");
  std::printf("%-18s %10s %10s %10s %10s\n", "Network", "Compile",
              "Context", "Encrypt", "Decrypt");

  std::vector<NetworkDefinition> Zoo = makeAllNetworks(2024);
  size_t Limit = fullMode() ? Zoo.size() : 2;
  for (size_t I = 0; I < Zoo.size(); ++I) {
    if (I >= Limit) {
      std::printf("%-18s %10s %10s %10s %10s  (set EVA_BENCH_FULL=1)\n",
                  Zoo[I].name().c_str(), "-", "-", "-", "-");
      continue;
    }
    PreparedNetwork P;
    if (!prepare(Zoo[I], CompilerOptions::eva(), P))
      continue;
    RandomSource Rng(5);
    Tensor Image = Tensor::random({P.Net.inputChannels(),
                                   P.Net.inputHeight(), P.Net.inputWidth()},
                                  Rng);
    std::vector<double> Slots = imageSlots(P.Net, Image, P.Prog->vecSize());
    std::unique_ptr<Runner> R = makeLocalRunner(P, LocalStyle::ParallelDag, 1);
    // One full run; the runner's timing breakdown provides the encrypt and
    // (output) decrypt phases the table reports.
    Expected<Valuation> Out = R->run(Valuation().set("image", Slots));
    if (!Out)
      fatalError("bench: " + Out.message());
    double EncS = R->lastTiming().EncryptSeconds;
    double DecS = R->lastTiming().DecryptSeconds;
    std::printf("%-18s %10.3f %10.2f %10.3f %10.3f\n",
                Zoo[I].name().c_str(), P.CompileSeconds, P.ContextSeconds,
                EncS, DecS);
  }
  std::printf("\nPaper: compile 0.14-4.06 s, context 1.21-160.82 s, encrypt "
              "0.03-0.42 s, decrypt 0.01-0.26 s.\nContext time is dominated "
              "by Galois-key generation, as in the paper.\n");
  return 0;
}
