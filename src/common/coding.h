#ifndef LOGLOG_COMMON_CODING_H_
#define LOGLOG_COMMON_CODING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace loglog {

/// Little-endian fixed-width and varint encoders/decoders used by the log
/// record and page formats. Decoders consume from a Slice and fail with
/// Status::Corruption on truncated input, which is how torn log tails are
/// detected during recovery.

void PutFixed32(std::vector<uint8_t>* dst, uint32_t v);
void PutFixed64(std::vector<uint8_t>* dst, uint64_t v);
void PutVarint32(std::vector<uint8_t>* dst, uint32_t v);
void PutVarint64(std::vector<uint8_t>* dst, uint64_t v);
/// Length-prefixed byte string (varint length + raw bytes).
void PutLengthPrefixed(std::vector<uint8_t>* dst, Slice value);

Status GetFixed32(Slice* src, uint32_t* v);
Status GetFixed64(Slice* src, uint64_t* v);
Status GetVarint32(Slice* src, uint32_t* v);

namespace internal {
/// Failure statuses of GetVarint64, kept out of line (cold paths).
Status VarintTruncated();
Status VarintOverflow();
}  // namespace internal

/// Inline: a log record decode runs it several times per record. *v is
/// 0 after a failure.
inline Status GetVarint64(Slice* src, uint64_t* v) {
  const uint8_t* p = src->data();
  const uint8_t* const end = p + src->size();
  uint64_t result = 0;
  *v = 0;
  for (uint32_t shift = 0; shift <= 63 && p < end; shift += 7) {
    const uint8_t byte = *p++;
    // The 10th byte holds only bit 63: anything larger would overflow
    // and silently lose its high bits.
    if (shift == 63 && byte > 1) {
      src->RemovePrefix(static_cast<size_t>(p - src->data()));
      return internal::VarintOverflow();
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      src->RemovePrefix(static_cast<size_t>(p - src->data()));
      *v = result;
      return Status::OK();
    }
  }
  src->RemovePrefix(static_cast<size_t>(p - src->data()));
  return internal::VarintTruncated();
}

/// Returns a view into `src`'s buffer; valid while the buffer lives.
Status GetLengthPrefixed(Slice* src, Slice* value);

/// Number of bytes PutVarint64 would emit for v.
size_t VarintLength(uint64_t v);

/// Encodes v into buf (must have >= 4/8 bytes); for in-place page fields.
void EncodeFixed32(uint8_t* buf, uint32_t v);
void EncodeFixed64(uint8_t* buf, uint64_t v);

/// Raw-buffer varint / length-prefixed encoders: fill a span the caller
/// has sized exactly, returning the advanced cursor.
uint8_t* EncodeVarint64(uint8_t* dst, uint64_t v);
uint8_t* EncodeLengthPrefixed(uint8_t* dst, Slice value);
uint32_t DecodeFixed32(const uint8_t* buf);
uint64_t DecodeFixed64(const uint8_t* buf);

/// Byte sinks for the log-record writers. Each record format has one
/// writer, a template over its sink: run against a SizeSink it yields
/// the exact encoded size, against a BufferSink it writes the bytes into
/// a span of that size — so a size and its bytes cannot disagree.
class SizeSink {
 public:
  void Byte(uint8_t) { ++size_; }
  void Varint(uint64_t v) { size_ += VarintLength(v); }
  void LengthPrefixed(Slice value) {
    size_ += VarintLength(value.size()) + value.size();
  }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

class BufferSink {
 public:
  explicit BufferSink(uint8_t* dst) : pos_(dst) {}
  void Byte(uint8_t b) { *pos_++ = b; }
  void Varint(uint64_t v) { pos_ = EncodeVarint64(pos_, v); }
  void LengthPrefixed(Slice value) { pos_ = EncodeLengthPrefixed(pos_, value); }
  /// One past the last byte written.
  uint8_t* pos() const { return pos_; }

 private:
  uint8_t* pos_;
};

/// Appends what `write` (a callable taking either sink) emits to *dst:
/// one sizing pass, one resize, one fill.
template <typename Write>
void AppendWritten(std::vector<uint8_t>* dst, const Write& write) {
  SizeSink size;
  write(size);
  const size_t at = dst->size();
  dst->resize(at + size.size());
  BufferSink out(dst->data() + at);
  write(out);
}

}  // namespace loglog

#endif  // LOGLOG_COMMON_CODING_H_
