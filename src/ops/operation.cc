#include "ops/operation.h"

#include <cstdio>
#include <unordered_set>

#include "common/coding.h"

namespace loglog {

std::vector<ObjectId> OperationDesc::Exposed() const {
  std::vector<ObjectId> out;
  for (ObjectId w : writes) {
    if (ReadsObject(w)) out.push_back(w);
  }
  return out;
}

std::vector<ObjectId> OperationDesc::NotExposed() const {
  std::vector<ObjectId> out;
  for (ObjectId w : writes) {
    if (!ReadsObject(w)) out.push_back(w);
  }
  return out;
}

size_t OperationDesc::EncodedSize() const {
  SizeSink size;
  WriteTo(size);
  return size.size();
}

void OperationDesc::EncodeTo(std::vector<uint8_t>* dst) const {
  AppendWritten(dst, [this](auto& s) { WriteTo(s); });
}

Status OperationDesc::DecodeFrom(Slice* src, OperationDesc* out) {
  if (src->empty()) return Status::Corruption("truncated operation");
  uint8_t cls = (*src)[0];
  src->RemovePrefix(1);
  if (cls > static_cast<uint8_t>(OpClass::kDelete)) {
    return Status::Corruption("bad op class");
  }
  out->op_class = static_cast<OpClass>(cls);
  uint32_t func;
  LOGLOG_RETURN_IF_ERROR(GetVarint32(src, &func));
  out->func = static_cast<FuncId>(func);
  uint64_t n;
  LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
  // Every id costs at least one byte: larger counts are corruption, and
  // bounding before reserve() keeps garbage input from forcing huge
  // allocations.
  if (n > src->size()) return Status::Corruption("writeset count too large");
  out->writes.clear();
  out->writes.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id;
    LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &id));
    out->writes.push_back(id);
  }
  LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &n));
  if (n > src->size()) return Status::Corruption("readset count too large");
  out->reads.clear();
  out->reads.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id;
    LOGLOG_RETURN_IF_ERROR(GetVarint64(src, &id));
    out->reads.push_back(id);
  }
  Slice params;
  LOGLOG_RETURN_IF_ERROR(GetLengthPrefixed(src, &params));
  out->params.assign(params.data(), params.data() + params.size());
  return Status::OK();
}

Status OperationDesc::Validate() const {
  if (writes.empty()) {
    return Status::InvalidArgument("operation has empty writeset");
  }
  std::unordered_set<ObjectId> seen;
  for (ObjectId w : writes) {
    if (!seen.insert(w).second) {
      return Status::InvalidArgument("duplicate object in writeset");
    }
  }
  seen.clear();
  for (ObjectId r : reads) {
    if (!seen.insert(r).second) {
      return Status::InvalidArgument("duplicate object in readset");
    }
  }
  if (op_class == OpClass::kPhysical || op_class == OpClass::kIdentityWrite ||
      op_class == OpClass::kCreate) {
    if (!reads.empty()) {
      return Status::InvalidArgument("physical-class op must not read");
    }
  }
  if (op_class == OpClass::kPhysiological) {
    if (writes.size() != 1 || reads.size() != 1 || writes[0] != reads[0]) {
      return Status::InvalidArgument(
          "physiological op must read and write exactly its one object");
    }
  }
  return Status::OK();
}

std::string OperationDesc::DebugString() const {
  std::string out = "Op{class=";
  out += std::to_string(static_cast<int>(op_class));
  out += " func=";
  out += std::to_string(func);
  out += " W={";
  for (size_t i = 0; i < writes.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(writes[i]);
  }
  out += "} R={";
  for (size_t i = 0; i < reads.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(reads[i]);
  }
  out += "} params=";
  out += std::to_string(params.size());
  out += "B}";
  return out;
}

bool operator==(const OperationDesc& a, const OperationDesc& b) {
  return a.op_class == b.op_class && a.func == b.func &&
         a.writes == b.writes && a.reads == b.reads && a.params == b.params;
}

}  // namespace loglog
