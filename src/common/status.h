#ifndef FABRICPP_COMMON_STATUS_H_
#define FABRICPP_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace fabricpp {

/// Canonical error codes used across all fabricpp libraries.
///
/// The set intentionally mirrors the small number of failure classes the
/// transaction pipeline can produce, plus the usual programming-error codes.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  /// A simulation read observed a value newer than the snapshot it started
  /// from (Fabric++ early abort in the simulation phase, paper §5.2.1).
  kStaleRead,
  /// A transaction failed the validator's MVCC serializability check
  /// (paper §2.2.3 / Appendix A.3.2).
  kSerializationConflict,
  /// A transaction failed endorsement-policy evaluation (tampered signature
  /// or missing endorsement, paper Appendix A.3.1).
  kEndorsementPolicyViolation,
  /// A transaction was dropped by the orderer: either it participated in
  /// conflict cycles broken by the reorderer (paper §5.1) or it lost the
  /// within-block version-skew check (paper §5.2.2).
  kEarlyAbort,
  /// Encoded bytes fail an integrity check: a wire frame with a bad length,
  /// version or CRC, a payload whose counts or trailing bytes do not add
  /// up, or storage-engine WAL corruption that a torn tail cannot explain.
  kDataLoss,
};

/// Returns a stable human-readable name, e.g. "STALE_READ".
std::string_view StatusCodeToString(StatusCode code);

/// A Status holds either success ("OK") or an error code plus message.
///
/// fabricpp is built without exceptions (see DESIGN.md §5); every fallible
/// operation returns a Status or a Result<T>. The class is cheap to copy in
/// the OK case (no allocation) and cheap to move always.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status StaleRead(std::string msg) {
    return Status(StatusCode::kStaleRead, std::move(msg));
  }
  static Status SerializationConflict(std::string msg) {
    return Status(StatusCode::kSerializationConflict, std::move(msg));
  }
  static Status EndorsementPolicyViolation(std::string msg) {
    return Status(StatusCode::kEndorsementPolicyViolation, std::move(msg));
  }
  static Status EarlyAbort(std::string msg) {
    return Status(StatusCode::kEarlyAbort, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace fabricpp

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define FABRICPP_RETURN_IF_ERROR(expr)                 \
  do {                                                 \
    ::fabricpp::Status _fabricpp_status = (expr);      \
    if (!_fabricpp_status.ok()) return _fabricpp_status; \
  } while (0)

#endif  // FABRICPP_COMMON_STATUS_H_
