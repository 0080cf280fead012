//===- eva/ckks/Plaintext.h - CKKS plaintext --------------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An encoded (but unencrypted) message: an RNS polynomial in NTT form plus
/// the fixed-point scale the encoder applied. The scale is the linear value
/// (the paper's 2^logP), stored as double exactly as SEAL does.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CKKS_PLAINTEXT_H
#define EVA_CKKS_PLAINTEXT_H

#include "eva/ckks/Poly.h"

namespace eva {

struct Plaintext {
  RnsPoly Poly;
  double Scale = 1.0;

  size_t primeCount() const { return Poly.primeCount(); }
  size_t memoryBytes() const {
    return primeCount() * Poly.Degree * sizeof(uint64_t);
  }
};

} // namespace eva

#endif // EVA_CKKS_PLAINTEXT_H
