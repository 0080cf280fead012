//===- TextFormat.cpp - Textual program parsing --------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ir/TextFormat.h"

#include "eva/core/Analysis.h"
#include "eva/support/BitOps.h"

#include <charconv>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

using namespace eva;

namespace {

/// Minimal whitespace-separated tokenizer with position tracking.
class LineLexer {
public:
  explicit LineLexer(std::string_view Line) : Rest(Line) {}

  /// Next token, or empty at end. Commas and brackets separate tokens.
  std::string_view next() {
    while (!Rest.empty() && (Rest.front() == ' ' || Rest.front() == '\t' ||
                             Rest.front() == ','))
      Rest.remove_prefix(1);
    if (Rest.empty())
      return {};
    if (Rest.front() == '[' || Rest.front() == ']') {
      std::string_view T = Rest.substr(0, 1);
      Rest.remove_prefix(1);
      return T;
    }
    size_t End = 0;
    while (End < Rest.size() && Rest[End] != ' ' && Rest[End] != '\t' &&
           Rest[End] != ',' && Rest[End] != '[' && Rest[End] != ']')
      ++End;
    std::string_view T = Rest.substr(0, End);
    Rest.remove_prefix(End);
    return T;
  }

  bool atEnd() {
    std::string_view Save = Rest;
    bool End = next().empty();
    Rest = Save;
    return End;
  }

private:
  std::string_view Rest;
};

bool parseUint(std::string_view T, uint64_t &V) {
  auto [Ptr, Ec] = std::from_chars(T.data(), T.data() + T.size(), V);
  return Ec == std::errc() && Ptr == T.data() + T.size();
}

bool parseInt(std::string_view T, int64_t &V) {
  auto [Ptr, Ec] = std::from_chars(T.data(), T.data() + T.size(), V);
  return Ec == std::errc() && Ptr == T.data() + T.size();
}

bool parseDouble(std::string_view T, double &V) {
  // std::from_chars for doubles is incomplete on some libstdc++; strtod on
  // a NUL-terminated copy is fine for short tokens.
  std::string S(T);
  char *End = nullptr;
  V = std::strtod(S.c_str(), &End);
  return End == S.c_str() + S.size() && !S.empty();
}

/// "key=value" splitter; returns false if the prefix does not match.
bool keyValue(std::string_view T, std::string_view Key,
              std::string_view &Value) {
  if (T.size() <= Key.size() + 1 || T.substr(0, Key.size()) != Key ||
      T[Key.size()] != '=')
    return false;
  Value = T.substr(Key.size() + 1);
  return true;
}

bool opFromName(std::string_view Name, OpCode &Op) {
  for (OpCode C :
       {OpCode::Input, OpCode::Constant, OpCode::Output, OpCode::Negate,
        OpCode::Add, OpCode::Sub, OpCode::Multiply, OpCode::RotateLeft,
        OpCode::RotateRight, OpCode::Sum, OpCode::Copy, OpCode::Relinearize,
        OpCode::ModSwitch, OpCode::Rescale, OpCode::NormalizeScale}) {
    if (Name == opName(C)) {
      Op = C;
      return true;
    }
  }
  return false;
}

} // namespace

Expected<std::unique_ptr<Program>>
eva::parseProgramText(std::string_view Text) {
  using Result = Expected<std::unique_ptr<Program>>;
  auto Fail = [](size_t LineNo, const std::string &Msg) {
    return Result::error("line " + std::to_string(LineNo) + ": " + Msg);
  };

  std::unique_ptr<Program> P;
  std::map<uint64_t, Node *> ById;
  size_t LineNo = 0;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    std::string_view Line = Text.substr(
        Pos, Nl == std::string_view::npos ? Text.size() - Pos : Nl - Pos);
    Pos = Nl == std::string_view::npos ? Text.size() + 1 : Nl + 1;
    ++LineNo;
    LineLexer Lex(Line);
    if (Lex.atEnd())
      continue;
    std::string_view First = Lex.next();

    if (First == "program") {
      if (P)
        return Fail(LineNo, "duplicate program header");
      std::string_view Name = Lex.next();
      std::string_view SizeTok = Lex.next();
      std::string_view SizeVal;
      uint64_t VecSize = 0;
      if (Name.empty() || !keyValue(SizeTok, "vec_size", SizeVal) ||
          !parseUint(SizeVal, VecSize) || !isPowerOfTwo(VecSize))
        return Fail(LineNo, "expected 'program <name> vec_size=<pow2>'");
      P = std::make_unique<Program>(VecSize, std::string(Name));
      continue;
    }
    if (!P)
      return Fail(LineNo, "missing program header");

    // "%<id> = <op> ..."
    if (First.empty() || First.front() != '%')
      return Fail(LineNo, "expected '%<id> = ...'");
    uint64_t Id = 0;
    if (!parseUint(First.substr(1), Id))
      return Fail(LineNo, "bad node id");
    if (Lex.next() != "=")
      return Fail(LineNo, "expected '='");
    std::string_view OpTok = Lex.next();
    OpCode Op;
    if (!opFromName(OpTok, Op))
      return Fail(LineNo, "unknown opcode '" + std::string(OpTok) + "'");

    Node *N = nullptr;
    switch (Op) {
    case OpCode::Input: {
      std::string_view TyTok = Lex.next();
      ValueType Ty = TyTok == std::string_view(typeName(ValueType::Cipher))
                         ? ValueType::Cipher
                     : TyTok == std::string_view(typeName(ValueType::Scalar))
                         ? ValueType::Scalar
                         : ValueType::Vector;
      if (TyTok != "cipher" && TyTok != "vector" && TyTok != "scalar")
        return Fail(LineNo, "bad input type");
      std::string_view NameTok = Lex.next();
      if (NameTok.empty() || NameTok.front() != '@')
        return Fail(LineNo, "expected '@<name>'");
      std::string_view ScaleVal;
      double Scale = 0;
      if (!keyValue(Lex.next(), "scale", ScaleVal) ||
          !parseDouble(ScaleVal, Scale))
        return Fail(LineNo, "expected 'scale=<value>'");
      N = P->makeInput(std::string(NameTok.substr(1)), Ty, Scale);
      break;
    }
    case OpCode::Constant: {
      std::string_view TyTok = Lex.next();
      if (TyTok != "vector" && TyTok != "scalar")
        return Fail(LineNo, "bad constant type");
      std::string_view ScaleVal;
      double Scale = 0;
      if (!keyValue(Lex.next(), "scale", ScaleVal) ||
          !parseDouble(ScaleVal, Scale))
        return Fail(LineNo, "expected 'scale=<value>'");
      if (Lex.next() != "[")
        return Fail(LineNo, "expected '['");
      std::vector<double> Values;
      for (;;) {
        std::string_view T = Lex.next();
        if (T == "]")
          break;
        if (T.empty())
          return Fail(LineNo, "unterminated constant payload");
        if (T.substr(0, 3) == "...")
          return Fail(LineNo, "elided constant payload; print with "
                              "ElideConstants=false for a lossless listing");
        double V = 0;
        if (!parseDouble(T, V))
          return Fail(LineNo, "bad constant element '" + std::string(T) +
                                  "'");
        Values.push_back(V);
      }
      if (Values.empty())
        return Fail(LineNo, "empty constant");
      // makeConstant asserts this shape; a hostile listing gets a diagnostic.
      if (TyTok != "scalar" &&
          (!isPowerOfTwo(Values.size()) || Values.size() > P->vecSize()))
        return Fail(LineNo, "constant payload size " +
                                std::to_string(Values.size()) +
                                "; must be a power of two <= vec_size");
      N = TyTok == "scalar" ? P->makeScalarConstant(Values[0], Scale)
                            : P->makeConstant(std::move(Values), Scale);
      break;
    }
    case OpCode::Output: {
      std::string_view NameTok = Lex.next();
      if (NameTok.empty() || NameTok.front() != '@')
        return Fail(LineNo, "expected '@<name>'");
      std::string_view Ref = Lex.next();
      uint64_t RefId = 0;
      if (Ref.empty() || Ref.front() != '%' ||
          !parseUint(Ref.substr(1), RefId))
        return Fail(LineNo, "expected '%<id>' operand");
      auto It = ById.find(RefId);
      if (It == ById.end())
        return Fail(LineNo, "undefined node %" + std::to_string(RefId));
      N = P->makeOutput(std::string(NameTok.substr(1)), It->second);
      std::string_view ScaleVal;
      double Scale = 0;
      if (keyValue(Lex.next(), "scale", ScaleVal) &&
          parseDouble(ScaleVal, Scale))
        N->setLogScale(Scale);
      break;
    }
    default: {
      std::vector<Node *> Parms;
      double AttrScale = 0;
      int64_t Steps = 0, Bits = 0;
      bool HasAttrScale = false;
      for (;;) {
        std::string_view T = Lex.next();
        if (T.empty())
          break;
        std::string_view V;
        if (T.front() == '%') {
          uint64_t RefId = 0;
          if (!parseUint(T.substr(1), RefId))
            return Fail(LineNo, "bad operand id");
          auto It = ById.find(RefId);
          if (It == ById.end())
            return Fail(LineNo, "undefined node %" + std::to_string(RefId));
          Parms.push_back(It->second);
        } else if (keyValue(T, "steps", V)) {
          if (!parseInt(V, Steps))
            return Fail(LineNo, "bad steps");
        } else if (keyValue(T, "bits", V)) {
          if (!parseInt(V, Bits))
            return Fail(LineNo, "bad bits");
        } else if (keyValue(T, "scale", V)) {
          if (!parseDouble(V, AttrScale))
            return Fail(LineNo, "bad scale");
          HasAttrScale = true;
        } else {
          return Fail(LineNo, "unexpected token '" + std::string(T) + "'");
        }
      }
      if (Parms.empty())
        return Fail(LineNo, "instruction needs at least one operand");
      ValueType Ty = Op == OpCode::NormalizeScale ? Parms[0]->type()
                                                  : ValueType::Cipher;
      N = P->makeInstruction(Op, std::move(Parms), Ty);
      if (isRotation(Op))
        N->setRotation(static_cast<int32_t>(Steps));
      if (Op == OpCode::Rescale)
        N->setRescaleBits(static_cast<int>(Bits));
      if (HasAttrScale)
        N->setLogScale(AttrScale);
      break;
    }
    }
    if (!ById.emplace(Id, N).second)
      return Fail(LineNo, "duplicate node id %" + std::to_string(Id));
  }
  if (!P)
    return Result::error("empty input: no program header");
  // Full structural verification, not just use-list symmetry: a parsed
  // program is untrusted input. Compiler-inserted ops are admitted because
  // listings of compiled programs (evac --dump output) round-trip here.
  VerifyOptions VO;
  VO.AllowCompilerOps = true;
  if (Status S = verifyProgram(*P, VO); !S.ok())
    return Result::error("parsed program is invalid: " + S.message());
  return P;
}
