//===- Messages.cpp - Service wire messages -----------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/service/Messages.h"

#include "eva/serialize/Wire.h"

using namespace eva;

const char *eva::messageTypeName(MessageType T) {
  switch (T) {
  case MessageType::Error:
    return "ERROR";
  case MessageType::ListPrograms:
    return "LIST_PROGRAMS";
  case MessageType::ProgramList:
    return "PROGRAM_LIST";
  case MessageType::OpenSession:
    return "OPEN_SESSION";
  case MessageType::SessionOpened:
    return "SESSION_OPENED";
  case MessageType::Execute:
    return "EXECUTE";
  case MessageType::ExecuteResult:
    return "EXECUTE_RESULT";
  case MessageType::CloseSession:
    return "CLOSE_SESSION";
  case MessageType::SessionClosed:
    return "SESSION_CLOSED";
  case MessageType::GetMetrics:
    return "GET_METRICS";
  case MessageType::Metrics:
    return "METRICS";
  }
  return "UNKNOWN";
}

namespace {

/// Messages that are just `{ uint64 id = 1; }` share one codec.
std::string serializeIdMsg(uint64_t Id) {
  WireWriter W;
  W.varintField(1, Id);
  return W.take();
}

Expected<uint64_t> deserializeIdMsg(std::string_view Data, const char *What) {
  uint64_t Id = 0;
  Status S = decodeFields(Data, What, [&](WireField &F) {
    if (F.Number == 1)
      F.read(Id);
  });
  if (!S.ok())
    return S;
  return Id;
}

/// NamedCipher / NamedPlain: { string name = 1; bytes payload = 2; }
std::string serializeNamedBytes(const std::string &Name,
                                std::string_view Payload) {
  WireWriter W;
  W.bytesField(1, Name);
  W.bytesField(2, Payload);
  return W.take();
}

/// Decodes a `{ string name = 1; <T> value = 2; }` message (named inputs,
/// outputs, counters and gauges); the name is required.
template <typename T>
Status readNamed(WireField &F, const char *What, std::string &Name, T &Value) {
  Name.clear();
  Value = T();
  Status S = F.decode(What, [&](WireField &NF) {
    switch (NF.Number) {
    case 1:
      NF.read(Name);
      break;
    case 2:
      NF.read(Value);
    }
  });
  if (S.ok() && Name.empty())
    return Status::error(std::string(What) + " missing name");
  return S;
}

} // namespace

std::string eva::serializeError(const ErrorMsg &M) {
  WireWriter W;
  W.bytesField(1, M.Message);
  return W.take();
}

Expected<ErrorMsg> eva::deserializeError(std::string_view Data) {
  ErrorMsg M;
  Status S = decodeFields(Data, "error message", [&](WireField &F) {
    if (F.Number == 1)
      F.read(M.Message);
  });
  if (!S.ok())
    return S;
  return M;
}

std::string eva::serializeParamSignature(const ParamSignature &Sig) {
  WireWriter W;
  W.bytesField(1, Sig.ProgramName);
  W.varintField(2, Sig.PolyDegree);
  W.varintField(3, Sig.VecSize);
  for (int B : Sig.ContextBitSizes)
    W.varintField(4, static_cast<uint64_t>(B));
  for (uint64_t S : Sig.RotationSteps)
    W.varintField(5, S);
  W.varintField(6, Sig.Security == SecurityLevel::None ? 0 : 1);
  for (const ServiceInputSpec &In : Sig.Inputs) {
    WireWriter IW;
    IW.bytesField(1, In.Name);
    IW.doubleField(2, In.LogScale);
    IW.varintField(3, In.IsCipher ? 1 : 0);
    W.bytesField(7, IW.str());
  }
  for (const ServiceOutputSpec &Out : Sig.Outputs) {
    WireWriter OW;
    OW.bytesField(1, Out.Name);
    OW.doubleField(2, Out.LogScale);
    W.bytesField(8, OW.str());
  }
  if (Sig.NeedsRelin)
    W.varintField(9, 1);
  for (const std::string &L : Sig.LintWarnings)
    W.bytesField(10, L);
  return W.take();
}

namespace {

Status readInputSpec(WireField &F, ServiceInputSpec &In) {
  uint64_t Kind = 0;
  Status S = F.decode("input spec", [&](WireField &IF) {
    switch (IF.Number) {
    case 1:
      IF.read(In.Name);
      break;
    case 2:
      IF.read(In.LogScale);
      break;
    case 3:
      IF.read(Kind);
    }
  });
  In.IsCipher = Kind != 0;
  if (S.ok() && In.Name.empty())
    return Status::error("input spec missing name");
  return S;
}

Status readOutputSpec(WireField &F, ServiceOutputSpec &Out) {
  Status S = F.decode("output spec", [&](WireField &OF) {
    switch (OF.Number) {
    case 1:
      OF.read(Out.Name);
      break;
    case 2:
      OF.read(Out.LogScale);
    }
  });
  if (S.ok() && Out.Name.empty())
    return Status::error("output spec missing name");
  return S;
}

} // namespace

Expected<ParamSignature> eva::deserializeParamSignature(std::string_view Data) {
  using Result = Expected<ParamSignature>;
  ParamSignature Sig;
  Status S = decodeFields(Data, "signature", [&](WireField &F) -> Status {
    uint64_t V = 0;
    switch (F.Number) {
    case 1:
      F.read(Sig.ProgramName);
      break;
    case 2:
      F.read(Sig.PolyDegree);
      break;
    case 3:
      F.read(Sig.VecSize);
      break;
    case 4:
      if (F.read(V) && V > 64)
        return Status::error("malformed signature bit size");
      Sig.ContextBitSizes.push_back(static_cast<int>(V));
      break;
    case 5:
      F.read(V);
      Sig.RotationSteps.push_back(V);
      break;
    case 6:
      if (F.read(V) && V > 1)
        return Status::error("malformed signature security level");
      Sig.Security = V == 0 ? SecurityLevel::None : SecurityLevel::TC128;
      break;
    case 7:
      return readInputSpec(F, Sig.Inputs.emplace_back());
    case 8:
      return readOutputSpec(F, Sig.Outputs.emplace_back());
    case 9:
      F.read(V);
      Sig.NeedsRelin = V != 0;
      break;
    case 10:
      F.read(Sig.LintWarnings.emplace_back());
    }
    return Status::success();
  });
  if (!S.ok())
    return S;
  if (Sig.ProgramName.empty())
    return Result::error("signature missing program name");
  if (Sig.PolyDegree == 0 || Sig.ContextBitSizes.empty())
    return Result::error("signature missing encryption parameters");
  return Sig;
}

std::string eva::serializeProgramList(const ProgramListMsg &M) {
  WireWriter W;
  for (const ParamSignature &Sig : M.Programs)
    W.bytesField(1, serializeParamSignature(Sig));
  return W.take();
}

Expected<ProgramListMsg> eva::deserializeProgramList(std::string_view Data) {
  ProgramListMsg M;
  Status S = decodeFields(Data, "program list", [&](WireField &F) -> Status {
    std::string_view B;
    if (F.Number != 1 || !F.read(B))
      return Status::success();
    Expected<ParamSignature> Sig = deserializeParamSignature(B);
    if (!Sig)
      return Sig.takeStatus();
    M.Programs.push_back(std::move(*Sig));
    return Status::success();
  });
  if (!S.ok())
    return S;
  return M;
}

std::string eva::serializeOpenSession(const OpenSessionMsg &M) {
  WireWriter W;
  W.bytesField(1, M.ProgramName);
  W.bytesField(2, M.RelinKeyBytes);
  W.bytesField(3, M.GaloisKeyBytes);
  return W.take();
}

Expected<OpenSessionMsg> eva::deserializeOpenSession(std::string_view Data) {
  OpenSessionMsg M;
  Status S = decodeFields(Data, "open-session message", [&](WireField &F) {
    switch (F.Number) {
    case 1:
      F.read(M.ProgramName);
      break;
    case 2:
      F.read(M.RelinKeyBytes);
      break;
    case 3:
      F.read(M.GaloisKeyBytes);
    }
  });
  if (!S.ok())
    return S;
  if (M.ProgramName.empty())
    return Expected<OpenSessionMsg>::error("open-session missing program name");
  return M;
}

std::string eva::serializeSessionOpened(const SessionOpenedMsg &M) {
  return serializeIdMsg(M.SessionId);
}

Expected<SessionOpenedMsg>
eva::deserializeSessionOpened(std::string_view Data) {
  Expected<uint64_t> Id = deserializeIdMsg(Data, "session-opened");
  if (!Id)
    return Id.takeStatus();
  return SessionOpenedMsg{*Id};
}

std::string eva::serializeExecute(const ExecuteMsg &M) {
  WireWriter W;
  W.varintField(1, M.SessionId);
  for (const auto &[Name, Bytes] : M.CipherInputs)
    W.bytesField(2, serializeNamedBytes(Name, Bytes));
  for (const auto &[Name, Values] : M.PlainInputs)
    W.bytesField(3, serializeNamedBytes(Name, packDoubles(Values)));
  return W.take();
}

Expected<ExecuteMsg> eva::deserializeExecute(std::string_view Data) {
  ExecuteMsg M;
  Status S = decodeFields(Data, "execute message", [&](WireField &F) -> Status {
    std::string Name, Payload;
    Status NS;
    switch (F.Number) {
    case 1:
      F.read(M.SessionId);
      break;
    case 2:
      NS = readNamed(F, "cipher input", Name, Payload);
      M.CipherInputs.emplace_back(std::move(Name), std::move(Payload));
      break;
    case 3: {
      std::vector<double> Values;
      NS = readNamed(F, "plain input", Name, Payload);
      if (NS.ok() && !unpackDoubles(Payload, Values))
        NS = Status::error("malformed plain input values");
      M.PlainInputs.emplace_back(std::move(Name), std::move(Values));
    }
    }
    return NS;
  });
  if (!S.ok())
    return S;
  return M;
}

std::string eva::serializeExecuteResult(const ExecuteResultMsg &M) {
  WireWriter W;
  for (const auto &[Name, Bytes] : M.Outputs)
    W.bytesField(1, serializeNamedBytes(Name, Bytes));
  if (M.RequestId != 0)
    W.varintField(2, M.RequestId);
  return W.take();
}

Expected<ExecuteResultMsg>
eva::deserializeExecuteResult(std::string_view Data) {
  ExecuteResultMsg M;
  Status S = decodeFields(Data, "execute result", [&](WireField &F) -> Status {
    std::string Name, Payload;
    Status NS;
    switch (F.Number) {
    case 1:
      NS = readNamed(F, "output", Name, Payload);
      M.Outputs.emplace_back(std::move(Name), std::move(Payload));
      break;
    case 2:
      F.read(M.RequestId);
    }
    return NS;
  });
  if (!S.ok())
    return S;
  return M;
}

std::string eva::serializeCloseSession(const CloseSessionMsg &M) {
  return serializeIdMsg(M.SessionId);
}

Expected<CloseSessionMsg>
eva::deserializeCloseSession(std::string_view Data) {
  Expected<uint64_t> Id = deserializeIdMsg(Data, "close-session");
  if (!Id)
    return Id.takeStatus();
  return CloseSessionMsg{*Id};
}

std::string eva::serializeSessionClosed(const SessionClosedMsg &M) {
  return serializeIdMsg(M.SessionId);
}

Expected<SessionClosedMsg>
eva::deserializeSessionClosed(std::string_view Data) {
  Expected<uint64_t> Id = deserializeIdMsg(Data, "session-closed");
  if (!Id)
    return Id.takeStatus();
  return SessionClosedMsg{*Id};
}

namespace {

/// CounterVal / GaugeVal: { string name = 1; uint64|int64 value = 2; }
/// (gauges travel as the two's-complement uint64 of their int64 value).
std::string serializeNamedValue(const std::string &Name, uint64_t Value) {
  WireWriter W;
  W.bytesField(1, Name);
  W.varintField(2, Value);
  return W.take();
}

std::string serializeHistogramVal(const HistogramSnapshot &H) {
  WireWriter W;
  W.bytesField(1, H.Name);
  for (double B : H.UpperBounds)
    W.doubleField(2, B);
  for (uint64_t C : H.Buckets)
    W.varintField(3, C);
  W.varintField(4, H.Count);
  W.doubleField(5, H.Sum);
  return W.take();
}

Status readHistogramVal(WireField &F, HistogramSnapshot &H) {
  Status S = F.decode("histogram", [&](WireField &HF) {
    switch (HF.Number) {
    case 1:
      HF.read(H.Name);
      break;
    case 2:
      HF.read(H.UpperBounds.emplace_back());
      break;
    case 3:
      HF.read(H.Buckets.emplace_back());
      break;
    case 4:
      HF.read(H.Count);
      break;
    case 5:
      HF.read(H.Sum);
    }
  });
  if (!S.ok())
    return S;
  if (H.Name.empty())
    return Status::error("histogram missing name");
  // Shape invariant of a fixed-boundary histogram: one overflow bucket
  // beyond the finite bounds. A hostile or corrupt payload must not
  // produce a snapshot whose quantile() indexes out of step.
  if (H.Buckets.size() != H.UpperBounds.size() + 1)
    return Status::error("histogram bucket/bound count mismatch");
  return Status::success();
}

} // namespace

std::string eva::serializeMetrics(const MetricsSnapshot &Snap) {
  WireWriter W;
  for (const CounterSnapshot &C : Snap.Counters)
    W.bytesField(1, serializeNamedValue(C.Name, C.Value));
  for (const GaugeSnapshot &G : Snap.Gauges)
    W.bytesField(2, serializeNamedValue(G.Name,
                                        static_cast<uint64_t>(G.Value)));
  for (const HistogramSnapshot &H : Snap.Histograms)
    W.bytesField(3, serializeHistogramVal(H));
  return W.take();
}

Expected<MetricsSnapshot> eva::deserializeMetrics(std::string_view Data) {
  MetricsSnapshot Snap;
  Status S = decodeFields(Data, "metrics message", [&](WireField &F) -> Status {
    std::string Name;
    uint64_t V = 0;
    Status NS;
    switch (F.Number) {
    case 1:
      NS = readNamed(F, "counter", Name, V);
      Snap.Counters.push_back({std::move(Name), V});
      break;
    case 2:
      NS = readNamed(F, "gauge", Name, V);
      Snap.Gauges.push_back({std::move(Name), static_cast<int64_t>(V)});
      break;
    case 3:
      NS = readHistogramVal(F, Snap.Histograms.emplace_back());
    }
    return NS;
  });
  if (!S.ok())
    return S;
  return Snap;
}
