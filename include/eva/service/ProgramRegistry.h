//===- eva/service/ProgramRegistry.h - Compiled-program registry -*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server-side catalogue of executable programs. Each registered entry
/// holds the compiled program (Algorithm 1 output), the CKKS context built
/// from its selected parameters (shared by every session of that program),
/// and the parameter signature clients fetch to construct matching contexts
/// and keys. Registration compiles from source form — the same `.evabin`
/// files `evac` consumes — so the registry is the deployment boundary: drop
/// a program file on the server, clients discover it via LIST_PROGRAMS.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERVICE_PROGRAMREGISTRY_H
#define EVA_SERVICE_PROGRAMREGISTRY_H

#include "eva/ckks/Context.h"
#include "eva/core/Compiler.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/service/Messages.h"
#include "eva/support/ThreadAnnotations.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace eva {

/// One registered program: immutable once published, shared by sessions.
struct RegisteredProgram {
  CompiledProgram CP;
  std::shared_ptr<const CkksContext> Context;
  ParamSignature Signature;
  /// The program's encoded constants over Context, handed to every
  /// session's workspace: N sessions pin one copy. Internally synchronized.
  std::shared_ptr<ConstantCache> Constants;
};

/// Builds the client-facing signature of a compiled program.
ParamSignature signatureOf(const CompiledProgram &CP);

class ProgramRegistry {
public:
  /// Compiles \p Source with \p Options and publishes it under its program
  /// name. Fails on compile errors, context validation, or a name collision.
  Status registerSource(const Program &Source,
                        const CompilerOptions &Options = CompilerOptions::eva())
      EVA_EXCLUDES(M);

  /// Loads a source program from \p Path (proto3 wire format or textual
  /// listing, as evac accepts) and registers it.
  Status loadFromFile(const std::string &Path,
                      const CompilerOptions &Options = CompilerOptions::eva());

  std::shared_ptr<const RegisteredProgram> find(const std::string &Name) const
      EVA_EXCLUDES(M);
  std::vector<ParamSignature> signatures() const EVA_EXCLUDES(M);
  size_t size() const EVA_EXCLUDES(M);

private:
  /// Leaf lock: guards only the name -> program map; compilation happens
  /// before the lock is taken so registration never blocks lookups.
  mutable Mutex M;
  std::map<std::string, std::shared_ptr<const RegisteredProgram>> Programs
      EVA_GUARDED_BY(M);
};

} // namespace eva

#endif // EVA_SERVICE_PROGRAMREGISTRY_H
