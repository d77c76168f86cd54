#ifndef LOGLOG_OPS_OPERATION_H_
#define LOGLOG_OPS_OPERATION_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace loglog {

/// Operation taxonomy from Table 1 of the paper. The class determines how
/// the operation is logged and how it interacts with the write graph; the
/// actual state transformation is selected by FuncId.
enum class OpClass : uint8_t {
  /// W_P(X, v): physical write, the new value v is in the log record.
  kPhysical = 0,
  /// W_PL(X): physiological, reads and writes a single object; only a
  /// delta is logged.
  kPhysiological = 1,
  /// General logical operation: reads any recoverable objects, writes one
  /// or more; only identifiers and small parameters are logged.
  kLogical = 2,
  /// W_IP(X, val(X)): cache-manager-initiated identity write, logged
  /// physically with the object's current value (Section 4).
  kIdentityWrite = 3,
  /// Object creation (physical: initial value logged).
  kCreate = 4,
  /// Object deletion (blind; terminates the object's lifetime, Section 5).
  kDelete = 5,
};

/// Identifier of a registered deterministic transform. Built-in functions
/// occupy [0, 0x100); domains register custom transforms at ids >= 0x100.
using FuncId = uint16_t;

// Built-in transforms (see function_registry.cc for semantics).
inline constexpr FuncId kFuncSetValue = 1;     // writes[0] := params
inline constexpr FuncId kFuncApplyDelta = 2;   // splice params into writes[0]
inline constexpr FuncId kFuncCopy = 3;         // writes[0] := reads[0]
inline constexpr FuncId kFuncSortRecords = 4;  // writes[0] := sort(reads[0])
inline constexpr FuncId kFuncAppend = 5;       // writes[0] += params
inline constexpr FuncId kFuncAppExecute = 6;   // Ex(A): A := step(A, seed)
inline constexpr FuncId kFuncAppRead = 7;      // R(A,X): A := absorb(A, X)
inline constexpr FuncId kFuncAppWrite = 8;     // W_L(A,X): X := emit(A)
inline constexpr FuncId kFuncXorMerge = 9;     // writes[0] := xor(reads...)
inline constexpr FuncId kFuncHashCombine = 10; // writes[0] := H(reads...)
inline constexpr FuncId kFuncDelete = 11;      // lifetime end of writes[0]
inline constexpr FuncId kFuncFirstCustom = 0x100;

/// \brief A loggable, replayable operation.
///
/// An operation is characterized by readset(O) and writeset(O) plus a
/// deterministic transform (FuncId + params) that computes the new values
/// of the writeset from the current values of the readset and writeset.
/// This is exactly the paper's operation model: a logical log record holds
/// only identifiers and the transform, a physical one carries the value in
/// `params`.
struct OperationDesc {
  OpClass op_class = OpClass::kLogical;
  FuncId func = kFuncSetValue;
  /// Objects written, in transform order. Must be non-empty and distinct.
  std::vector<ObjectId> writes;
  /// Objects read, in transform order. May overlap `writes`.
  std::vector<ObjectId> reads;
  /// Transform parameters. For physical classes this holds the value.
  std::vector<uint8_t> params;

  /// exp(Op) = writeset ∩ readset: objects whose update depends on their
  /// previous value and are therefore unavoidably exposed (Table 1).
  std::vector<ObjectId> Exposed() const;
  /// notexp(Op) = writeset − readset: blindly written objects.
  std::vector<ObjectId> NotExposed() const;

  bool ReadsObject(ObjectId id) const {
    return std::find(reads.begin(), reads.end(), id) != reads.end();
  }
  bool WritesObject(ObjectId id) const {
    return std::find(writes.begin(), writes.end(), id) != writes.end();
  }

  /// The one writer of the operation format, over a byte sink
  /// (common/coding.h's SizeSink or BufferSink).
  template <typename Sink>
  void WriteTo(Sink& s) const {
    s.Byte(static_cast<uint8_t>(op_class));
    s.Varint(func);
    s.Varint(writes.size());
    for (ObjectId id : writes) s.Varint(id);
    s.Varint(reads.size());
    for (ObjectId id : reads) s.Varint(id);
    s.LengthPrefixed(Slice(params));
  }

  /// Serialized size in bytes == the logging cost of this operation.
  size_t EncodedSize() const;
  /// Appends the encoded operation to *dst.
  void EncodeTo(std::vector<uint8_t>* dst) const;
  static Status DecodeFrom(Slice* src, OperationDesc* out);

  /// Validates structural invariants (non-empty distinct writeset, ...).
  Status Validate() const;

  std::string DebugString() const;
};

bool operator==(const OperationDesc& a, const OperationDesc& b);

}  // namespace loglog

#endif  // LOGLOG_OPS_OPERATION_H_
