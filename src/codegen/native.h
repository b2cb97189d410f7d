//===--- codegen/native.h - the native engine's loader interface -------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the driver needs from the native back end. Loading is split from
/// instantiation so that a program pays for emitting, hashing and loading
/// its shared object once: CompiledProgram keeps the LoadedLib and the
/// descriptors, and each later instantiate() is one ddr_create call.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_CODEGEN_NATIVE_H
#define DIDEROT_CODEGEN_NATIVE_H

#include <memory>
#include <string>
#include <vector>

#include "driver/driver.h"

namespace diderot::codegen {

/// Generate the C++ translation unit for a LowIR module (emit_cpp.cpp).
std::string emitCpp(const ir::Module &M, bool DoublePrecision);

/// A dlopen'd generated program; kept open for the process lifetime.
struct LoadedLib;

/// A native program's input and output descriptors, derived once from its
/// LowIR module and shared by all of its instances.
struct NativeDescs {
  std::vector<rt::InputDesc> Inputs;
  std::vector<rt::OutputDesc> Outputs;
};
std::shared_ptr<const NativeDescs> nativeDescs(const ir::Module &M);

/// Emit \p M's C++ and resolve its shared object: already loaded in this
/// process (a MemHit), found on disk (a DiskHit), or host-compiled. Each
/// call emits and hashes the C++, so callers keep the result. Failures are
/// returned, never cached: the next call tries again.
Result<const LoadedLib *> loadNativeLib(const ir::Module &M,
                                        const CompileOptions &Opts,
                                        const std::string &Name);

/// A fresh instance of \p Lib (own inputs, strands and outputs).
std::unique_ptr<rt::ProgramInstance>
makeNativeInstance(const LoadedLib &Lib,
                   std::shared_ptr<const NativeDescs> Descs);

} // namespace diderot::codegen

#endif // DIDEROT_CODEGEN_NATIVE_H
