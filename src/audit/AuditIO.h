//===- AuditIO.h - Machine-readable contract-audit reports ------*- C++ -*-==//
///
/// \file
/// The canonical JSON rendering of an `AuditReport` — schema
/// `tmw-contract-audit-v1` — in the same fixed-field-order, nothing-
/// nondeterministic style as the batch query wire form (query/QueryIO.h),
/// so CI can diff reports across runs and archive them next to the
/// `tmw_lint --json` report.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_AUDIT_AUDITIO_H
#define TMW_AUDIT_AUDITIO_H

#include "audit/ContractAudit.h"

#include <string>

namespace tmw {

/// Schema identifier of the audit report document.
inline constexpr const char *kAuditReportSchema = "tmw-contract-audit-v1";

/// Render \p R as one `tmw-contract-audit-v1` JSON document (trailing
/// newline included). Field order is fixed; witnesses ride along as
/// escaped strings.
std::string auditReportToJson(const AuditReport &R);

} // namespace tmw

#endif // TMW_AUDIT_AUDITIO_H
