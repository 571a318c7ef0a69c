#include "src/ndp/request.h"

namespace nearpm {

const char* NearPmOpName(NearPmOp op) {
  switch (op) {
    case NearPmOp::kUndologCreate:
      return "undolog_create";
    case NearPmOp::kApplyLog:
      return "applylog";
    case NearPmOp::kCommitLog:
      return "commit_log";
    case NearPmOp::kCkpointCreate:
      return "ckpoint_create";
    case NearPmOp::kShadowCpy:
      return "shadowcpy";
    case NearPmOp::kRawCopy:
      return "raw_copy";
  }
  return "unknown";
}

double NdpWorkNs(const CostModel& cost, std::span<const NdpWorkItem> work) {
  double ns = cost.ndp_setup_ns;
  for (const NdpWorkItem& item : work) {
    switch (item.kind) {
      case NdpWorkItem::Kind::kCopy:
        ns += static_cast<double>(item.size) * cost.ndp_dma_ns_per_byte;
        break;
      case NdpWorkItem::Kind::kLiteral:
        ns += cost.ndp_metadata_ns;
        break;
    }
  }
  return ns;
}

}  // namespace nearpm
