// Collector: the per-machine observability hub.
//
// One object implements both producer interfaces (TraceSink +
// CycleAttributor) and fans everything out to the three backends:
//
//  * a TraceRing keeping the most recent events,
//  * a Registry of named counters/histograms derived from the event stream
//    and the retire feed (EL cycle residency, per-class retired ops,
//    per-key auth failures, syscall latency histogram, ...),
//  * a Profiler bucketing retired cycles by guest symbol.
//
// The Collector also *synthesizes* syscall windows: an ExcEnter with the SVC
// class opens a window (emitting SyscallEnter with the nr from x8) and the
// next ExcExit returning to EL0 closes it (emitting SyscallExit and
// recording the window length in the `syscall.cycles` histogram). Under
// context switching a window can span other tasks' execution; the histogram
// therefore measures wall-clock (guest cycle) syscall latency, which is what
// Fig. 3 reports.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/audit.h"
#include "obs/callgraph.h"
#include "obs/coverage.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/ring.h"
#include "obs/trace.h"

namespace camo::obs {

/// Knobs carried in MachineConfig. Disabled by default: a Machine without
/// `enabled` never allocates a Collector and the CPU's sink pointers stay
/// null.
struct Options {
  bool enabled = false;
  size_t trace_capacity = 1 << 15;  ///< TraceRing capacity (events)
  bool profile = true;              ///< attach the per-symbol cycle profiler
  bool callgraph = true;  ///< attach the shadow-call-stack profiler too
  size_t audit_capacity = 8192;  ///< AuditLog capacity (events)
  size_t flight_capacity = 256;  ///< flight-recorder ring (instructions)
  /// Attach the PA-keyed execution coverage map (obs/coverage.h). Off by
  /// default: the per-retirement feed costs a map probe, so only coverage
  /// consumers (bench --cov, security matrix, camo-cov) pay for it.
  bool coverage = false;
};

class Collector : public TraceSink,
                  public CycleAttributor,
                  public CfSink,
                  public AuditSink {
 public:
  explicit Collector(const Options& opts = Options{});

  // Producer interfaces -----------------------------------------------------
  void emit(const TraceEvent& e) override;
  void retire(uint64_t pc, uint8_t el, uint8_t op_class,
              uint64_t cycles) override;
  void control_flow(CfKind kind, uint64_t from_pc, uint64_t to_pc,
                    uint8_t info) override;
  /// Security audit stream (DESIGN.md §3f). Besides recording into the
  /// AuditLog, the collector derives the `pauth.sign_to_auth.cycles`
  /// histogram here: each Sign remembers its signed value + cycle, the
  /// matching Auth* records the distance and retires the entry.
  void audit(const AuditEvent& e) override;
  /// Replay one event of a captured stream (Machine::fork): runs the same
  /// counter/histogram/open-window derivations as emit(), but does not
  /// synthesize the derived SyscallEnter/SyscallExit ring events — a
  /// captured ring already carries those as literal events, so emitting
  /// them again would duplicate every syscall marker in the replayed
  /// prefix. Boot-era streams have no syscalls; this matters for mid-run
  /// snapshots.
  void replay(const TraceEvent& e);

  // Backends ----------------------------------------------------------------
  Registry& metrics() { return reg_; }
  const Registry& metrics() const { return reg_; }
  TraceRing& ring() { return ring_; }
  const TraceRing& ring() const { return ring_; }
  AuditLog& audit_log() { return audit_log_; }
  const AuditLog& audit_log() const { return audit_log_; }
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }
  Profiler& profiler() { return prof_; }
  const Profiler& profiler() const { return prof_; }
  /// Execution coverage map; only fed when options().coverage is set (the
  /// Machine attaches it to the CPU at boot).
  CoverageMap& coverage() { return cov_; }
  const CoverageMap& coverage() const { return cov_; }
  CallGraphProfiler& callgraph() { return cg_; }
  const CallGraphProfiler& callgraph() const { return cg_; }
  const Options& options() const { return opts_; }

  // Multi-core attribution -------------------------------------------------
  /// Create the per-core "insn.c<k>" / "cycles.c<k>" counters. Called once
  /// by multi-core Machines before boot; single-core machines never call it,
  /// so their registry shape stays exactly the pre-SMP one.
  void enable_percpu(unsigned cores);
  /// Which core subsequent retire() samples belong to. The interleaver sets
  /// this before each core's quantum; harmless no-op when enable_percpu was
  /// never called.
  void set_active_cpu(unsigned cpu) { active_cpu_ = cpu; }
  unsigned active_cpu() const { return active_cpu_; }

  // Export ------------------------------------------------------------------
  /// Chrome trace_event JSON of the retained event window.
  std::string chrome_trace_json() const;
  /// Flat per-symbol cycle profile (text).
  std::string flat_profile() const { return prof_.flat_profile(); }
  /// Folded-stack call-graph profile (flamegraph.pl / speedscope input).
  std::string folded_profile() const { return cg_.folded(); }
  /// Counters + histograms as a JSON document.
  std::string metrics_json() const { return reg_.to_json(); }

 private:
  Options opts_;
  Registry reg_;
  TraceRing ring_;
  AuditLog audit_log_;
  FlightRecorder flight_;
  Profiler prof_;
  CallGraphProfiler cg_;
  CoverageMap cov_;

  // Syscall-window synthesis state. `replaying_` is set for the duration of
  // a replay() call: derivations run, synthesized ring events are skipped.
  bool replaying_ = false;
  bool syscall_open_ = false;
  uint64_t syscall_enter_cycles_ = 0;
  uint16_t syscall_nr_ = 0;

  // Sign→auth latency matching: signed value -> sign cycle. Entries retire
  // on the matching auth; the map is capped so signs that are never
  // authenticated cannot grow it unboundedly (drops are counted).
  static constexpr size_t kMaxPendingSigns = 1 << 16;
  std::unordered_map<uint64_t, uint64_t> pending_signs_;

  // Key-switch burst detection: consecutive KeyWrite events ≤ 32 cycles
  // apart form one burst (a bank switch writes several halves back-to-back);
  // the burst span is recorded into `key.switch.cycles` when it closes. A
  // burst still open at end of run is deliberately unrecorded — that keeps
  // the histogram a pure function of the event stream.
  bool burst_open_ = false;
  uint64_t burst_first_ = 0, burst_last_ = 0;
  unsigned burst_writes_ = 0;

  // Cycle counter reconstructed from the retire feed (pre-step timestamps
  // for the flight ring).
  uint64_t retired_cycles_ = 0;

  /// Increment the counter `name` + `label`, resolving it into `slot` on
  /// first use. Resolution stays lazy, so no counter exists before its first
  /// event and the registry shape remains a function of the event stream;
  /// caching keeps the name build and registry lookup off every later event
  /// (a fork replays its template's boot-era stream through here).
  void count(Counter*& slot, const char* name, const char* label = "");

  // Event-derived counters, indexed by the 8-bit kind or label payload, so
  // no byte value can index out of range (every out-of-range label payload
  // resolves to its family's "<bad-...>" counter).
  using ByPayload = std::array<Counter*, 256>;
  ByPayload by_kind_{};
  Counter* syscall_count_ = nullptr;
  ByPayload exc_class_{};
  ByPayload key_write_{};
  ByPayload sign_{};
  ByPayload auth_fail_{};
  ByPayload outcome_{};

  // Hot-path counter/histogram references (resolved once; Registry
  // references are stable).
  Counter* cycles_el_[3];
  Counter* insn_el_[3];
  Counter* ops_[static_cast<size_t>(OpClass::kCount)];
  // Per-core retire attribution (empty unless enable_percpu was called).
  std::vector<Counter*> insn_cpu_;
  std::vector<Counter*> cycles_cpu_;
  unsigned active_cpu_ = 0;
  Histogram* syscall_cycles_;
  Histogram* sign_to_auth_;
  Histogram* key_switch_;
};

}  // namespace camo::obs
