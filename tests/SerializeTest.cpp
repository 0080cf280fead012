//===- SerializeTest.cpp - Wire format and program round-trips ---------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/KeyGenerator.h"
#include "eva/core/Analysis.h"
#include "eva/core/Compiler.h"
#include "eva/frontend/Expr.h"
#include "eva/ir/Printer.h"
#include "eva/ir/TextFormat.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/serialize/CkksIO.h"
#include "eva/serialize/ProtoIO.h"
#include "eva/serialize/Wire.h"
#include "eva/support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

using namespace eva;

namespace {

TEST(Wire, VarintRoundTrip) {
  for (uint64_t V : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                     ~0ull, 1ull << 63}) {
    WireWriter W;
    W.varint(V);
    WireReader R(W.str());
    uint64_t Out = 0;
    ASSERT_TRUE(R.readVarint(Out));
    EXPECT_EQ(Out, V);
  }
}

TEST(Wire, VarintKnownEncodings) {
  WireWriter W;
  W.varint(300); // protobuf doc example: 0xAC 0x02
  ASSERT_EQ(W.str().size(), 2u);
  EXPECT_EQ(static_cast<uint8_t>(W.str()[0]), 0xAC);
  EXPECT_EQ(static_cast<uint8_t>(W.str()[1]), 0x02);
}

TEST(Wire, DoubleRoundTrip) {
  for (double V : {0.0, 1.5, -2.25, 1e300, -1e-300}) {
    WireWriter W;
    W.doubleField(3, V);
    WireReader R(W.str());
    uint32_t Field;
    WireType Type;
    ASSERT_TRUE(R.nextField(Field, Type));
    EXPECT_EQ(Field, 3u);
    EXPECT_EQ(Type, WireType::Fixed64);
    double Out;
    ASSERT_TRUE(R.readDouble(Out));
    EXPECT_EQ(Out, V);
  }
}

TEST(Wire, RejectsTruncatedInput) {
  WireWriter W;
  W.bytesField(2, "hello");
  std::string Data = W.str();
  Data.pop_back(); // truncate the payload
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  ASSERT_TRUE(R.nextField(Field, Type));
  std::string_view B;
  EXPECT_FALSE(R.readBytes(B));
  EXPECT_TRUE(R.failed());
}

TEST(Wire, RejectsVarintLongerThanTenBytes) {
  // Eleven bytes, continuation bit set on all of the first ten.
  std::string Data(11, '\x80');
  Data[10] = '\x01';
  WireReader R(Data);
  uint64_t V;
  EXPECT_FALSE(R.readVarint(V));
  EXPECT_TRUE(R.failed());
}

TEST(Wire, RejectsVarintOverflowing64Bits) {
  // Ten bytes whose last byte carries more than the single bit that fits:
  // 0x02 in the 10th byte would be bit 64.
  std::string Data(9, '\x80');
  Data += '\x02';
  WireReader R(Data);
  uint64_t V;
  EXPECT_FALSE(R.readVarint(V));
  EXPECT_TRUE(R.failed());

  // The maximum value ~0ull (nine 0xFF bytes + 0x01) still round-trips.
  std::string Max(9, '\xff');
  Max += '\x01';
  WireReader R2(Max);
  ASSERT_TRUE(R2.readVarint(V));
  EXPECT_EQ(V, ~0ull);
}

TEST(Wire, RejectsVarintTruncatedMidway) {
  std::string Data(3, '\x80'); // continuation bits but no terminator
  WireReader R(Data);
  uint64_t V;
  EXPECT_FALSE(R.readVarint(V));
  EXPECT_TRUE(R.failed());
}

TEST(Wire, RejectsLengthExceedingRemainingBuffer) {
  // A length-delimited field claiming 2^60 bytes in a 3-byte buffer.
  WireWriter W;
  W.tag(1, WireType::LengthDelimited);
  W.varint(1ull << 60);
  WireReader R(W.str());
  uint32_t Field;
  WireType Type;
  ASSERT_TRUE(R.nextField(Field, Type));
  std::string_view B;
  EXPECT_FALSE(R.readBytes(B));
  EXPECT_TRUE(R.failed());
}

TEST(Wire, SkipRejectsMalformedNestedLength) {
  // Skipping an unknown length-delimited field applies the same bounds
  // check as reading a known one.
  WireWriter W;
  W.tag(7, WireType::LengthDelimited);
  W.varint(1000); // dangling: no payload follows
  Status S = decodeFields(W.str(), "probe", [](WireField &) {});
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.message(), "truncated probe");
}

TEST(Wire, SkipsUnknownFields) {
  WireWriter W;
  W.varintField(9, 42);
  W.doubleField(10, 1.5);
  W.bytesField(11, "xyz");
  W.varintField(1, 7);
  uint64_t Found = 0;
  int Calls = 0;
  Status S = decodeFields(W.str(), "probe", [&](WireField &F) {
    ++Calls;
    if (F.Number == 1)
      F.read(Found);
  });
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(Found, 7u);
  EXPECT_EQ(Calls, 4);
}

TEST(Wire, RejectsKnownFieldOfWrongWireType) {
  WireWriter W;
  W.bytesField(1, "not a varint");
  uint64_t V = 5;
  bool Read = true;
  Status S = decodeFields(W.str(), "probe", [&](WireField &F) -> Status {
    Read = F.read(V);
    return Status::error("callback error loses to the wire-type error");
  });
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.message(), "malformed probe field 1");
  EXPECT_FALSE(Read);
  EXPECT_EQ(V, 5u) << "a mistyped read must leave its output alone";
  // A nested walk reports its own name, and the callback's own error
  // passes through unchanged.
  WireWriter Outer;
  Outer.bytesField(2, W.str());
  S = decodeFields(Outer.str(), "outer", [&](WireField &F) {
    return F.decode("inner", [&](WireField &G) { G.read(V); });
  });
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.message(), "malformed inner field 1");
  S = decodeFields(Outer.str(), "outer", [](WireField &) {
    return Status::error("semantic");
  });
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.message(), "semantic");
}

std::unique_ptr<Program> buildRichProgram() {
  ProgramBuilder B("rich", 64);
  Expr X = B.inputCipher("x", 30);
  Expr W = B.inputPlain("w", 20);
  Expr C = B.constantVector({1, 2, 3, 4}, 15);
  Expr S = B.constant(0.5, 10);
  Expr V = ((X * W) + C) * S;
  Expr R = (V << 3) + (V >> 5) + B.sumSlots(X);
  B.output("main", R, 30);
  B.output("aux", V, 25);
  return B.take();
}

TEST(ProtoIO, RoundTripPreservesStructure) {
  std::unique_ptr<Program> P = buildRichProgram();
  std::string Data = serializeProgram(*P);
  EXPECT_FALSE(Data.empty());
  Expected<std::unique_ptr<Program>> Q = deserializeProgram(Data);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  EXPECT_EQ((*Q)->vecSize(), P->vecSize());
  EXPECT_EQ((*Q)->name(), P->name());
  EXPECT_EQ((*Q)->nodeCount(), P->nodeCount());
  EXPECT_EQ((*Q)->inputs().size(), P->inputs().size());
  EXPECT_EQ((*Q)->outputs().size(), P->outputs().size());
  for (OpCode Op : {OpCode::Add, OpCode::Sub, OpCode::Multiply,
                    OpCode::RotateLeft, OpCode::RotateRight, OpCode::Sum})
    EXPECT_EQ(countOps(**Q, Op), countOps(*P, Op)) << opName(Op);
}

TEST(ProtoIO, RoundTripPreservesSemantics) {
  std::unique_ptr<Program> P = buildRichProgram();
  Expected<std::unique_ptr<Program>> Q =
      deserializeProgram(serializeProgram(*P));
  ASSERT_TRUE(Q.ok());
  RandomSource Rng(5);
  std::map<std::string, std::vector<double>> Inputs;
  for (const Node *I : P->inputs()) {
    std::vector<double> V(P->vecSize());
    for (double &X : V)
      X = Rng.uniformReal(-1, 1);
    Inputs.emplace(I->name(), V);
  }
  ReferenceExecutor RP(*P), RQ(**Q);
  auto A = *RP.run(Inputs);
  auto B = *RQ.run(Inputs);
  ASSERT_EQ(A.size(), B.size());
  for (const auto &[Name, VA] : A) {
    const std::vector<double> &VB = B.at(Name);
    for (size_t I = 0; I < VA.size(); ++I)
      EXPECT_DOUBLE_EQ(VA[I], VB[I]);
  }
}

TEST(ProtoIO, RoundTripOfCompiledProgram) {
  std::unique_ptr<Program> P = buildRichProgram();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  std::string Data = serializeProgram(*CP->Prog);
  Expected<std::unique_ptr<Program>> Q = deserializeProgram(Data);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  // Compiler-inserted ops and their attributes survive.
  EXPECT_EQ(countOps(**Q, OpCode::Rescale), countOps(*CP->Prog, OpCode::Rescale));
  EXPECT_EQ(countOps(**Q, OpCode::ModSwitch),
            countOps(*CP->Prog, OpCode::ModSwitch));
  EXPECT_EQ(countOps(**Q, OpCode::Relinearize),
            countOps(*CP->Prog, OpCode::Relinearize));
  Expected<AnalysisResult> AR = analyzeProgram(**Q);
  EXPECT_TRUE(AR.ok()) << (AR.ok() ? "" : AR.message());
}

TEST(ProtoIO, RejectsGarbage) {
  EXPECT_FALSE(deserializeProgram("not a protobuf").ok());
  std::string Junk(64, '\xff');
  EXPECT_FALSE(deserializeProgram(Junk).ok());
}

TEST(ProtoIO, RejectsDanglingReference) {
  // Program with an instruction referencing a nonexistent object id.
  WireWriter W;
  W.varintField(1, 8); // vec_size
  WireWriter I;
  {
    WireWriter Obj;
    Obj.varintField(1, 5);
    I.bytesField(1, Obj.str());
  }
  I.varintField(2, 1); // NEGATE
  {
    WireWriter Obj;
    Obj.varintField(1, 999);
    I.bytesField(3, Obj.str());
  }
  W.bytesField(5, I.str());
  Expected<std::unique_ptr<Program>> Q = deserializeProgram(W.str());
  EXPECT_FALSE(Q.ok());
  EXPECT_NE(Q.message().find("unknown id"), std::string::npos);
}

TEST(ProtoIO, RejectsNonPowerOfTwoVecSize) {
  WireWriter W;
  W.varintField(1, 12);
  EXPECT_FALSE(deserializeProgram(W.str()).ok());
}

// Decoding renumbers node ids in creation order and encoding walks the
// graph in topological order, so the ids of an encoding (from
// ProgramBuilder, or a text listing; evac reads both formats) settle within
// a few same-sized passes. From there decode/encode must be the identity:
// no field is dropped, altered or reordered.
TEST(ProtoIO, FixturesReserializeByteIdentically) {
  int Seen = 0;
  for (const auto &E : std::filesystem::directory_iterator(EVA_FIXTURES_DIR)) {
    if (E.path().extension() != ".evabin")
      continue;
    ++Seen;
    std::ifstream In(E.path(), std::ios::binary);
    std::string Data((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    if (Data.rfind("program ", 0) == 0) {
      Expected<std::unique_ptr<Program>> T = parseProgramText(Data);
      ASSERT_TRUE(T.ok()) << E.path() << ": " << T.message();
      Data = serializeProgram(**T);
    }
    std::string Prev;
    for (int Pass = 0; Pass < 4 && Data != Prev; ++Pass) {
      Expected<std::unique_ptr<Program>> Q = deserializeProgram(Data);
      ASSERT_TRUE(Q.ok()) << E.path() << ": " << Q.message();
      Prev = std::exchange(Data, serializeProgram(**Q));
      EXPECT_EQ(Data.size(), Prev.size()) << E.path();
    }
    EXPECT_EQ(Data, Prev) << E.path() << " never re-encodes to itself";
  }
  EXPECT_GE(Seen, 3);
}

/// A hand-encoded program (out = x + c at vec_size 8) whose message named
/// \p Where gets the raw fields \p Extra appended. Every object reference
/// is an "object" message.
std::string handProgram(std::string_view Where, const std::string &Extra,
                        size_t ConstSize = 8) {
  auto With = [&](const WireWriter &W, std::string_view Name) {
    return Where == Name ? W.str() + Extra : W.str();
  };
  auto Object = [&](uint64_t Id) {
    WireWriter O;
    O.varintField(1, Id);
    return With(O, "object");
  };
  WireWriter Vec;
  Vec.bytesField(1, packDoubles(std::vector<double>(ConstSize, 0.5)));
  WireWriter C;
  C.bytesField(1, Object(1));
  C.varintField(2, 4); // VECTOR_CONST
  C.doubleField(3, 10);
  C.bytesField(4, With(Vec, "constant vector"));
  WireWriter In;
  In.bytesField(1, Object(0));
  In.varintField(2, 6); // VECTOR_CIPHER
  In.doubleField(3, 30);
  In.bytesField(15, "x");
  WireWriter I;
  I.bytesField(1, Object(2));
  I.varintField(2, 2); // ADD
  I.bytesField(3, Object(0));
  I.bytesField(3, Object(1));
  WireWriter O;
  O.bytesField(1, Object(2));
  O.doubleField(2, 30);
  O.bytesField(15, "out");
  WireWriter P;
  P.varintField(1, 8);
  P.bytesField(2, With(C, "constant"));
  P.bytesField(3, With(In, "input"));
  P.bytesField(4, With(O, "output"));
  P.bytesField(5, With(I, "instruction"));
  return With(P, "program");
}

TEST(ProtoIO, EveryMessageSkipsUnknownAndRejectsMistypedFields) {
  struct Probe {
    const char *Where;
    uint32_t Field;
    std::string Mistyped; // the known field sent with another wire type
  };
  auto Varint = [](uint32_t F) {
    WireWriter W;
    W.varintField(F, 1);
    return W.take();
  };
  auto Bytes = [](uint32_t F) {
    WireWriter W;
    W.bytesField(F, "?");
    return W.take();
  };
  WireWriter Unknown;
  Unknown.varintField(99, 1);
  Unknown.doubleField(98, 2.0);
  Unknown.bytesField(97, "zz");
  ASSERT_TRUE(deserializeProgram(handProgram("", "")).ok());
  for (const Probe &P : std::vector<Probe>{{"program", 1, Bytes(1)},
                                           {"constant", 3, Varint(3)},
                                           {"constant vector", 1, Varint(1)},
                                           {"input", 15, Varint(15)},
                                           {"output", 2, Varint(2)},
                                           {"instruction", 2, Bytes(2)},
                                           {"object", 1, Bytes(1)}}) {
    Expected<std::unique_ptr<Program>> Q =
        deserializeProgram(handProgram(P.Where, Unknown.str()));
    ASSERT_TRUE(Q.ok()) << P.Where << ": " << Q.message();
    EXPECT_EQ((*Q)->nodeCount(), 4u) << P.Where;
    Q = deserializeProgram(handProgram(P.Where, P.Mistyped));
    ASSERT_FALSE(Q.ok()) << P.Where;
    EXPECT_EQ(Q.message(), std::string("malformed ") + P.Where + " field " +
                               std::to_string(P.Field));
  }
}

// makeConstant asserts on a payload that is not a power of two or exceeds
// vec_size; hostile bytes must get a diagnostic instead (a Debug build
// aborted here).
TEST(ProtoIO, RejectsMisshapenConstantPayloads) {
  for (size_t Size : {size_t(3), size_t(16)}) {
    Expected<std::unique_ptr<Program>> Q =
        deserializeProgram(handProgram("", "", Size));
    ASSERT_FALSE(Q.ok()) << Size;
    EXPECT_NE(Q.message().find("payload size " + std::to_string(Size)),
              std::string::npos)
        << Q.message();
  }
}

//===----------------------------------------------------------------------===//
// Hostile bytes against the evaluation-key loaders (the session-open
// attack surface: a tenant uploads these before any cryptographic checks)
//===----------------------------------------------------------------------===//

struct KeyWire {
  KeyWire() {
    Ctx = CkksContext::createFromBitSizes(1024, {36, 36, 40},
                                          SecurityLevel::None)
              .value();
    Gen = std::make_unique<KeyGenerator>(Ctx, 7);
  }
  std::shared_ptr<CkksContext> Ctx;
  std::unique_ptr<KeyGenerator> Gen;
};

TEST(KeyWireHostile, TruncatedRelinKeysAlwaysError) {
  KeyWire K;
  std::string Data = serializeRelinKeys(K.Gen->createRelinKeys());
  // Every strict prefix must fail cleanly: either a malformed field or a
  // decomposition-count mismatch — never a crash or a silently short key.
  for (size_t Len = 0; Len < Data.size();
       Len += 1 + Data.size() / 97) {
    Expected<RelinKeys> Q =
        deserializeRelinKeys(*K.Ctx, std::string_view(Data).substr(0, Len));
    EXPECT_FALSE(Q.ok()) << "prefix of " << Len << " bytes parsed";
  }
}

TEST(KeyWireHostile, TruncatedGaloisKeysNeverCrashOrInventEntries) {
  KeyWire K;
  GaloisKeys Gk = K.Gen->createGaloisKeys({1, 3});
  std::string Data = serializeGaloisKeys(Gk);
  for (size_t Len = 0; Len < Data.size();
       Len += 1 + Data.size() / 97) {
    Expected<GaloisKeys> Q =
        deserializeGaloisKeys(*K.Ctx, std::string_view(Data).substr(0, Len));
    // A cut at an entry boundary legitimately yields the shorter key set;
    // anything mid-entry must error. Either way: no crash, no new entries.
    if (Q.ok()) {
      EXPECT_LT(Q->Keys.size(), Gk.Keys.size());
      for (const auto &[Elt, Key] : Q->Keys) {
        EXPECT_TRUE(Gk.has(Elt));
        EXPECT_EQ(Key.Keys.size(), K.Ctx->dataPrimeCount());
      }
    }
  }
}

TEST(KeyWireHostile, DuplicateGaloisElementRejected) {
  KeyWire K;
  std::string One = serializeGaloisKeys(K.Gen->createGaloisKeys({1}));
  // The wire format is a sequence of entry fields; doubling the buffer is
  // a valid encoding of the same element twice.
  Expected<GaloisKeys> Q = deserializeGaloisKeys(*K.Ctx, One + One);
  ASSERT_FALSE(Q.ok());
  EXPECT_NE(Q.message().find("duplicate"), std::string::npos) << Q.message();
}

TEST(KeyWireHostile, OutOfRangeGaloisElementsRejected) {
  KeyWire K;
  GaloisKeys Valid = K.Gen->createGaloisKeys({1});
  const KSwitchKey &Key = Valid.Keys.begin()->second;
  uint64_t TwoN = 2 * K.Ctx->polyDegree();
  for (uint64_t Elt : {uint64_t(0), uint64_t(1), uint64_t(6), TwoN,
                       TwoN + 1, TwoN + 3}) {
    GaloisKeys Bad;
    Bad.Keys.emplace(Elt, Key);
    Expected<GaloisKeys> Q =
        deserializeGaloisKeys(*K.Ctx, serializeGaloisKeys(Bad));
    ASSERT_FALSE(Q.ok()) << "element " << Elt << " accepted";
    EXPECT_NE(Q.message().find("out of range"), std::string::npos)
        << Q.message();
  }
}

TEST(KeyWireHostile, WrongDegreeAndChainRejected) {
  KeyWire K;
  // Keys serialized for a different degree must not load.
  auto Other = CkksContext::createFromBitSizes(2048, {36, 36, 40},
                                               SecurityLevel::None)
                   .value();
  KeyGenerator OtherGen(Other, 9);
  EXPECT_FALSE(
      deserializeRelinKeys(*K.Ctx, serializeRelinKeys(OtherGen.createRelinKeys()))
          .ok());
  EXPECT_FALSE(deserializeGaloisKeys(
                   *K.Ctx, serializeGaloisKeys(OtherGen.createGaloisKeys({1})))
                   .ok());
  // Same degree, different chain length: decomposition count mismatch.
  auto Longer = CkksContext::createFromBitSizes(1024, {30, 30, 30, 36},
                                                SecurityLevel::None)
                    .value();
  KeyGenerator LongerGen(Longer, 11);
  EXPECT_FALSE(deserializeRelinKeys(
                   *K.Ctx, serializeRelinKeys(LongerGen.createRelinKeys()))
                   .ok());
}

TEST(KeyWireHostile, CorruptedResidueBytesRejected) {
  KeyWire K;
  std::string Data = serializeGaloisKeys(K.Gen->createGaloisKeys({1}));
  // Overwrite eight bytes deep inside a component with 0xFF: the residue
  // exceeds its prime (or a length field goes inconsistent) — both must be
  // diagnosed, never computed with.
  std::string Corrupt = Data;
  std::memset(Corrupt.data() + Corrupt.size() / 2, 0xFF, 8);
  EXPECT_FALSE(deserializeGaloisKeys(*K.Ctx, Corrupt).ok());
}

TEST(KeyWireHostile, RandomByteFlipsNeverCrashTheLoaders) {
  KeyWire K;
  std::string Galois = serializeGaloisKeys(K.Gen->createGaloisKeys({1, 5}));
  std::string Relin = serializeRelinKeys(K.Gen->createRelinKeys());
  RandomSource Rng(0xBADBEEF);
  for (int I = 0; I < 200; ++I) {
    std::string G = Galois;
    std::string R = Relin;
    for (int F = 0; F < 3; ++F) {
      G[Rng.uniformBelow(G.size())] =
          static_cast<char>(Rng.uniformBelow(256));
      R[Rng.uniformBelow(R.size())] =
          static_cast<char>(Rng.uniformBelow(256));
    }
    // ok() or error are both acceptable; crashing or hanging is not (the
    // ASan+UBSan CI job runs this suite).
    (void)deserializeGaloisKeys(*K.Ctx, G);
    (void)deserializeRelinKeys(*K.Ctx, R);
  }
}

TEST(ProtoIO, FileSaveAndLoad) {
  std::unique_ptr<Program> P = buildRichProgram();
  std::string Path = ::testing::TempDir() + "eva_prog.evabin";
  ASSERT_TRUE(saveProgram(*P, Path).ok());
  Expected<std::unique_ptr<Program>> Q = loadProgram(Path);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  EXPECT_EQ((*Q)->nodeCount(), P->nodeCount());
}

TEST(ProtoIOHostile, ByteFlippedProgramsNeverReachAnExecutor) {
  // The deserializer runs the full structural verifier on everything it
  // accepts, so a hostile encoding has exactly two fates: a load error, or a
  // graph that satisfies every term-graph invariant. Either way no malformed
  // graph can reach an executor.
  std::unique_ptr<Program> P = buildRichProgram();
  std::string Data = serializeProgram(*P);
  RandomSource Rng(0xF00DF00D);
  VerifyOptions VO;
  VO.AllowCompilerOps = true; // the loader's own admission contract
  for (int I = 0; I < 300; ++I) {
    std::string Corrupt = Data;
    for (int F = 0; F < 1 + static_cast<int>(Rng.uniformBelow(4)); ++F)
      Corrupt[Rng.uniformBelow(Corrupt.size())] =
          static_cast<char>(Rng.uniformBelow(256));
    Expected<std::unique_ptr<Program>> Q = deserializeProgram(Corrupt);
    if (Q.ok()) {
      EXPECT_TRUE(verifyProgram(**Q, VO).ok())
          << "loader accepted a graph the verifier rejects (iteration " << I
          << ")";
    }
  }
}

TEST(ProtoIOHostile, TruncationsAreDiagnosed) {
  std::unique_ptr<Program> P = buildRichProgram();
  std::string Data = serializeProgram(*P);
  for (size_t Len : {Data.size() - 1, Data.size() / 2, Data.size() / 4,
                     size_t(1)}) {
    Expected<std::unique_ptr<Program>> Q =
        deserializeProgram(Data.substr(0, Len));
    if (Q.ok()) {
      // A prefix that still parses must still verify.
      VerifyOptions VO;
      VO.AllowCompilerOps = true;
      EXPECT_TRUE(verifyProgram(**Q, VO).ok());
    }
  }
}

TEST(ProtoIO, PropertyRandomProgramsRoundTrip) {
  // Generate random DAGs and check structural round-trips.
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    RandomSource Rng(Seed * 31);
    ProgramBuilder B("rand" + std::to_string(Seed), 32);
    std::vector<Expr> Pool;
    Pool.push_back(B.inputCipher("x", 30));
    Pool.push_back(B.inputCipher("y", 25));
    Pool.push_back(B.constant(0.5, 10));
    for (int I = 0; I < 30; ++I) {
      Expr A = Pool[Rng.uniformBelow(Pool.size())];
      Expr Bx = Pool[Rng.uniformBelow(Pool.size())];
      Expr R;
      switch (Rng.uniformBelow(5)) {
      case 0:
        R = A.node()->isPlain() && Bx.node()->isPlain() ? A : A + Bx;
        break;
      case 1:
        R = A.node()->isPlain() && Bx.node()->isPlain() ? A : A * Bx;
        break;
      case 2:
        R = A.node()->isPlain() ? A : -A;
        break;
      case 3:
        R = A.node()->isPlain()
                ? A
                : A << static_cast<int32_t>(Rng.uniformBelow(64));
        break;
      default:
        R = A.node()->isPlain() && Bx.node()->isPlain() ? A : A - Bx;
        break;
      }
      Pool.push_back(R);
    }
    // Output the last few cipher values.
    int Outputs = 0;
    for (size_t I = Pool.size(); I-- > 0 && Outputs < 3;) {
      if (Pool[I].node()->isCipher()) {
        B.output("o" + std::to_string(Outputs), Pool[I], 30);
        ++Outputs;
      }
    }
    if (Outputs == 0)
      continue;
    Program &P = B.program();
    Expected<std::unique_ptr<Program>> Q =
        deserializeProgram(serializeProgram(P));
    ASSERT_TRUE(Q.ok()) << "seed " << Seed;
    EXPECT_EQ((*Q)->nodeCount(), P.nodeCount()) << "seed " << Seed;
    EXPECT_TRUE((*Q)->verifyStructure().ok()) << "seed " << Seed;
  }
}

} // namespace
