//===- eva/serialize/Wire.h - Protocol Buffers wire format ------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal hand-rolled implementation of the proto3 wire format (varints,
/// fixed64, and length-delimited fields) — enough to serialize the EVA
/// program schema of Figure 1 in the paper without an external Protocol
/// Buffers dependency. Readers are defensive: malformed input yields an
/// error, never undefined behaviour.
///
/// Every decoder walks its fields through decodeFields(), which alone owns
/// the framing policy: a truncated or malformed message, and a known field
/// of the wrong wire type, are errors; an unknown field is skipped. The
/// codecs keep only their semantic checks.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERIALIZE_WIRE_H
#define EVA_SERIALIZE_WIRE_H

#include "eva/support/Error.h"

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace eva {

/// Little-endian 8-byte packing: the byte order of proto3 fixed64 fields and
/// of every packed uint64/double payload in the EVA formats.
inline void storeLE64(char *Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out[I] = static_cast<char>((V >> (8 * I)) & 0xFF);
}

inline uint64_t loadLE64(const char *In) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(In[I])) << (8 * I);
  return V;
}

/// A packed repeated double: the raw little-endian 8-byte values.
inline std::string packDoubles(const std::vector<double> &Vals) {
  std::string Raw(Vals.size() * 8, '\0');
  for (size_t I = 0; I < Vals.size(); ++I)
    storeLE64(&Raw[I * 8], std::bit_cast<uint64_t>(Vals[I]));
  return Raw;
}

/// Appends the doubles of a packed payload to \p Out; false (and \p Out
/// unchanged) when the payload is not a whole number of values.
inline bool unpackDoubles(std::string_view Raw, std::vector<double> &Out) {
  if (Raw.size() % 8 != 0)
    return false;
  Out.reserve(Out.size() + Raw.size() / 8);
  for (size_t I = 0; I < Raw.size(); I += 8)
    Out.push_back(std::bit_cast<double>(loadLE64(Raw.data() + I)));
  return true;
}

enum class WireType : uint8_t {
  Varint = 0,
  Fixed64 = 1,
  LengthDelimited = 2,
};

class WireWriter {
public:
  void varint(uint64_t V) {
    while (V >= 0x80) {
      Buffer.push_back(static_cast<char>((V & 0x7F) | 0x80));
      V >>= 7;
    }
    Buffer.push_back(static_cast<char>(V));
  }

  void tag(uint32_t Field, WireType Type) {
    varint((static_cast<uint64_t>(Field) << 3) |
           static_cast<uint64_t>(Type));
  }

  void varintField(uint32_t Field, uint64_t V) {
    tag(Field, WireType::Varint);
    varint(V);
  }

  void doubleField(uint32_t Field, double V) {
    tag(Field, WireType::Fixed64);
    Buffer.resize(Buffer.size() + 8);
    storeLE64(&Buffer[Buffer.size() - 8], std::bit_cast<uint64_t>(V));
  }

  void bytesField(uint32_t Field, std::string_view Bytes) {
    tag(Field, WireType::LengthDelimited);
    varint(Bytes.size());
    Buffer.append(Bytes);
  }

  const std::string &str() const { return Buffer; }
  std::string take() { return std::move(Buffer); }

private:
  std::string Buffer;
};

class WireReader {
public:
  explicit WireReader(std::string_view Data) : Data(Data) {}

  bool atEnd() const { return Pos >= Data.size() || Failed; }
  bool failed() const { return Failed; }

  /// Reads the next field header; returns false at end or on error.
  bool nextField(uint32_t &Field, WireType &Type) {
    if (atEnd())
      return false;
    uint64_t Key;
    if (!readVarint(Key))
      return false;
    Field = static_cast<uint32_t>(Key >> 3);
    uint8_t T = Key & 7;
    if (T != 0 && T != 1 && T != 2) {
      Failed = true;
      return false;
    }
    Type = static_cast<WireType>(T);
    return true;
  }

  bool readVarint(uint64_t &V) {
    V = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      if (Pos >= Data.size()) {
        Failed = true;
        return false;
      }
      uint8_t B = static_cast<uint8_t>(Data[Pos++]);
      // The 10th byte (Shift == 63) may only contribute its lowest payload
      // bit; anything above would shift past bit 63 and be silently lost,
      // so a value with those bits set does not fit in 64 bits.
      if (Shift == 63 && (B & 0x7E) != 0) {
        Failed = true;
        return false;
      }
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if ((B & 0x80) == 0)
        return true;
    }
    // Continuation bit still set after 10 bytes: the varint is overlong.
    Failed = true;
    return false;
  }

  bool readDouble(double &V) {
    if (Pos + 8 > Data.size()) {
      Failed = true;
      return false;
    }
    V = std::bit_cast<double>(loadLE64(Data.data() + Pos));
    Pos += 8;
    return true;
  }

  bool readBytes(std::string_view &Out) {
    uint64_t Len;
    if (!readVarint(Len))
      return false;
    if (Len > Data.size() - Pos) {
      Failed = true;
      return false;
    }
    Out = Data.substr(Pos, Len);
    Pos += Len;
    return true;
  }

private:
  std::string_view Data;
  size_t Pos = 0;
  bool Failed = false;
};

/// One field of a message walked by decodeFields(). A typed read marks the
/// field as known to the decoder; asked for a wire type the field does not
/// have, it returns false, leaves its output alone, and makes the walker
/// reject the message whatever the callback returns. A field the callback
/// never reads is unknown and skipped.
class WireField {
public:
  uint32_t Number = 0;

  bool read(uint64_t &V) { return is(WireType::Varint) && (V = Varint, true); }
  bool read(double &V) { return is(WireType::Fixed64) && (V = Fixed, true); }
  bool read(std::string_view &V) {
    return is(WireType::LengthDelimited) && (V = Bytes, true);
  }
  bool read(std::string &V) {
    return is(WireType::LengthDelimited) && (V = Bytes, true);
  }

  /// Walks a length-delimited field as a nested message.
  template <typename Fn> Status decode(const char *What, Fn &&OnField);

private:
  template <typename Fn>
  friend Status decodeFields(std::string_view, const char *, Fn &&);

  bool is(WireType T) {
    Mistyped |= Type != T;
    return Type == T;
  }
  bool load(WireReader &R) {
    Mistyped = false;
    switch (Type) {
    case WireType::Varint:
      return R.readVarint(Varint);
    case WireType::Fixed64:
      return R.readDouble(Fixed);
    case WireType::LengthDelimited:
      return R.readBytes(Bytes);
    }
    return false;
  }

  WireType Type = WireType::Varint;
  uint64_t Varint = 0;
  double Fixed = 0;
  std::string_view Bytes;
  bool Mistyped = false;
};

/// Calls \p OnField (returning void or Status) on each field of \p Data in
/// wire order. Errors: "truncated <What>" for a malformed or cut-off
/// message, "malformed <What> field N" for a known field of the wrong wire
/// type, else the first error the callback returns.
template <typename Fn>
Status decodeFields(std::string_view Data, const char *What, Fn &&OnField) {
  WireReader R(Data);
  WireField F;
  while (R.nextField(F.Number, F.Type) && F.load(R)) {
    Status S;
    if constexpr (std::is_void_v<std::invoke_result_t<Fn &, WireField &>>)
      OnField(F);
    else
      S = OnField(F);
    if (F.Mistyped)
      return Status::error(std::string("malformed ") + What + " field " +
                           std::to_string(F.Number));
    if (!S.ok())
      return S;
  }
  if (R.failed())
    return Status::error(std::string("truncated ") + What);
  return Status::success();
}

template <typename Fn>
Status WireField::decode(const char *What, Fn &&OnField) {
  if (!is(WireType::LengthDelimited))
    return Status::success(); // the enclosing walker reports the wire type
  return decodeFields(Bytes, What, std::forward<Fn>(OnField));
}

} // namespace eva

#endif // EVA_SERIALIZE_WIRE_H
