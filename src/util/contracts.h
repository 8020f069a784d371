// Contracts & invariant-audit core (the machine-checked baseline every
// structural claim in this repo rests on — see docs/INVARIANTS.md).
//
// Three macro families enforce invariants at different costs:
//
//   * ASPEN_ASSERT(cond, ...)    — cheap internal invariant; compiled in at
//     ASPEN_AUDIT_LEVEL >= 1 (the default everywhere except Release).
//   * ASPEN_INVARIANT(cond, ...) — expensive invariant (walks a table, scans
//     a queue); compiled in only at ASPEN_AUDIT_LEVEL >= 2.
//   * ASPEN_UNREACHABLE(...)     — marks control flow that must never
//     execute; always active (cold path), never elided.
//
// At ASPEN_AUDIT_LEVEL 0 the gated macros compile to nothing — the condition
// is parsed (so it cannot rot) but never evaluated, giving release builds
// the seed repo's exact instruction stream.
//
// What happens on violation is a *runtime* choice (ViolationPolicy): throw
// ContractViolation (default — tests catch it), abort with a diagnostic
// (crash-early production style), or count-and-log (fuzz/chaos campaigns
// that want to keep running and tally how often an invariant broke).
//
// On top of the macros sit the per-layer auditors (topo::audit_tree,
// routing::audit_tables, ProtocolSimulation::audit, sim::audit_queue).
// They return structured AuditReports — a list of (AuditCode, message)
// findings — so tests can assert *which* invariant fired, and chaos
// campaigns get a sharper failure oracle than end-state comparison alone.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

/// Compile-time audit level: 0 = elided, 1 = cheap asserts, 2 = expensive
/// invariants too.  CMake sets this per build type (Release → 0, Debug → 2,
/// everything else → 1); it can be overridden on the command line.
#ifndef ASPEN_AUDIT_LEVEL
#define ASPEN_AUDIT_LEVEL 1
#endif

namespace aspen {

/// Raised (under ViolationPolicy::kThrow) when a contract or audited
/// invariant is violated.  Deriving from AspenError keeps existing
/// catch-sites working.
class ContractViolation : public AspenError {
 public:
  using AspenError::AspenError;
};

/// Every invariant the audit layer can report, one code per distinct
/// failure mode.  docs/INVARIANTS.md maps each code to the paper equation
/// or section it protects.
enum class AuditCode {
  // ---- topo::audit_tree -----------------------------------------------
  kEq1Conservation,     ///< p_i·m_i != S (S/2 at L_n) — Eq. 1
  kEq2PortBudget,       ///< r_i·c_i != k/2 (k at L_n) — Eq. 2
  kEq3PodNesting,       ///< p_i·r_i != p_{i-1} — Eq. 3
  kDccConsistency,      ///< Π c_i != params.dcc() — §5.2
  kPortCount,           ///< a switch uses != k ports (a host != 1)
  kStripingRegularity,  ///< per-child-pod link count != c_i (§3)
  kTopLevelCoverage,    ///< an L_n switch misses an L_{n-1} pod (§4)
  kAnpStriping,         ///< §7 shared-ancestor requirement violated
  kLinkRecord,          ///< link endpoints not at adjacent levels / bad ids

  // ---- routing::audit_tables ------------------------------------------
  kTableShape,          ///< table/destination counts inconsistent
  kCostInconsistency,   ///< entry cost disagrees with its next-hop set
  kNextHopLink,         ///< next hop's link does not join the two nodes
  kDeadNextHop,         ///< next hop rides a link that is down
  kUpAfterDown,         ///< a table walk climbs after descending (§3, §6)
  kRoutingLoop,         ///< a table walk revisits a switch for one dest
  kDefaultRouteGap,     ///< unreachable destination in a fully-live fabric
  kIncrementalDrift,    ///< maintained state or digest diverges from a
                        ///< fresh full route computation

  // ---- ProtocolSimulation::audit and the proto:: auditors -----------
  kWithdrawalLogStale,    ///< removal logged against a link that is up
  kAnnouncedLostMismatch, ///< announced-lost flag set but entry non-empty
  kCrashCustody,          ///< crash-links custody held by a live switch
  kCustodyLinkUp,         ///< custody claims a link that is actually up
  kResyncDirection,       ///< resync sent along a direction ANP never uses
  kInflightAccounting,    ///< conversations still open at quiescence
  kTransportAccounting,   ///< ack/retransmit counters incoherent
  kChannelAccounting,     ///< copies delivered+dropped != attempted+dup

  // ---- sim::audit_queue -----------------------------------------------
  kTimeMonotonicity,    ///< a queued event precedes the simulator's now()
  kQueueAccounting,     ///< event sequence numbers / counters incoherent

  // ---- fault::audit_detector ------------------------------------------
  kDetectorSuppression, ///< damping suppression disagrees with its penalty
  kDetectorOscillation, ///< notifications exceed the damping bound
  kDetectorSession,     ///< reported link state diverges from confirmed
};

[[nodiscard]] const char* to_cstring(AuditCode code);

/// One violated invariant, with enough context to act on it.
struct AuditFinding {
  AuditCode code{};
  std::string message;  ///< subject plus expected/actual values
};

/// Outcome of one auditor pass: empty means every invariant held.
struct AuditReport {
  std::vector<AuditFinding> findings;

  [[nodiscard]] bool ok() const { return findings.empty(); }
  [[nodiscard]] bool has(AuditCode code) const;
  [[nodiscard]] std::uint64_t count(AuditCode code) const;
  /// One line per finding: "<code>: <message>".
  [[nodiscard]] std::string to_string() const;

  void add(AuditCode code, std::string message) {
    findings.push_back(AuditFinding{code, std::move(message)});
  }
  void merge(AuditReport other) {
    for (AuditFinding& f : other.findings) findings.push_back(std::move(f));
  }
};

namespace contracts {

/// What a violated contract does at runtime.
enum class ViolationPolicy {
  kThrow,        ///< throw ContractViolation (default)
  kAbort,        ///< print to stderr and std::abort()
  kCountAndLog,  ///< tally it, keep the first few messages, continue
};

/// How much auditing runs at runtime (the compile-time ASPEN_AUDIT_LEVEL
/// bounds what *can* run; this picks what *does*).
enum class AuditLevel : int { kOff = 0, kBasic = 1, kParanoid = 2 };

[[nodiscard]] ViolationPolicy policy();
void set_policy(ViolationPolicy policy);

/// Runtime audit level: the max of set_audit_level() and the
/// ASPEN_AUDIT_LEVEL environment variable ("off"/"basic"/"paranoid" or
/// 0/1/2), read once at first use.
[[nodiscard]] AuditLevel audit_level();
void set_audit_level(AuditLevel level);
/// max(audit_level(), configured) — lets the env promote any run.
[[nodiscard]] AuditLevel effective_audit_level(AuditLevel configured);
/// Parses "off"/"basic"/"paranoid"/"0"/"1"/"2"; throws PreconditionError
/// on anything else.
[[nodiscard]] AuditLevel parse_audit_level(const std::string& text);
[[nodiscard]] const char* to_cstring(AuditLevel level);

/// Violations swallowed so far under kCountAndLog (reset_violations()
/// zeroes it; the first few messages are retained for inspection).
[[nodiscard]] std::uint64_t violation_count();
[[nodiscard]] std::vector<std::string> recent_violations();
void reset_violations();

/// Routes one formatted violation through the active policy.  Returns
/// normally only under kCountAndLog.
void report_violation(const std::string& message);

/// Applies the policy to a failed audit: no-op when `report.ok()`,
/// otherwise one violation per finding, prefixed with `where`.
void enforce(const AuditReport& report, const char* where);

/// RAII: swap policy (and optionally audit level) for a scope — tests and
/// chaos campaigns use this instead of mutating process-global state.
class ScopedPolicy {
 public:
  explicit ScopedPolicy(ViolationPolicy policy);
  ScopedPolicy(ViolationPolicy policy, AuditLevel level);
  ~ScopedPolicy();
  ScopedPolicy(const ScopedPolicy&) = delete;
  ScopedPolicy& operator=(const ScopedPolicy&) = delete;

 private:
  ViolationPolicy saved_policy_;
  AuditLevel saved_level_;
};

namespace detail {

template <typename... Parts>
void handle_failure(const char* expr, const char* file, int line,
                    Parts&&... parts) {
  std::ostringstream os;
  os << file << ":" << line << ": contract violated: " << expr;
  if constexpr (sizeof...(parts) > 0) {
    os << " — ";
    (os << ... << std::forward<Parts>(parts));
  }
  report_violation(os.str());
}

[[noreturn]] void unreachable(const char* file, int line,
                              const std::string& note);

template <typename... Parts>
[[noreturn]] void unreachable_fmt(const char* file, int line,
                                  Parts&&... parts) {
  std::ostringstream os;
  (os << ... << std::forward<Parts>(parts));
  unreachable(file, line, os.str());
}

}  // namespace detail
}  // namespace contracts
}  // namespace aspen

/// Parses but never evaluates `cond`; keeps elided checks from rotting and
/// silences unused-variable warnings for names only the check mentions.
#define ASPEN_CONTRACT_NOOP(cond) \
  do {                            \
    (void)sizeof((cond) ? 1 : 0); \
  } while (false)

#if ASPEN_AUDIT_LEVEL >= 1
#define ASPEN_ASSERT(cond, ...)                                       \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::aspen::contracts::detail::handle_failure(                     \
          #cond, __FILE__, __LINE__ __VA_OPT__(, ) __VA_ARGS__);      \
    }                                                                 \
  } while (false)
#else
#define ASPEN_ASSERT(cond, ...) ASPEN_CONTRACT_NOOP(cond)
#endif

#if ASPEN_AUDIT_LEVEL >= 2
#define ASPEN_INVARIANT(cond, ...)                                    \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::aspen::contracts::detail::handle_failure(                     \
          #cond, __FILE__, __LINE__ __VA_OPT__(, ) __VA_ARGS__);      \
    }                                                                 \
  } while (false)
#else
#define ASPEN_INVARIANT(cond, ...) ASPEN_CONTRACT_NOOP(cond)
#endif

#define ASPEN_UNREACHABLE(...)                                           \
  ::aspen::contracts::detail::unreachable_fmt(                           \
      __FILE__, __LINE__ __VA_OPT__(, ) __VA_ARGS__)
