// Structured run tracing: a SpanTracer rides the sim::SimObserver hook and
// reassembles the simulator's flat signaling-event stream into per-attempt
// span trees — one span per handover attempt (phases: measure → decide →
// prepare → execute, "prepare" present only when the backhaul transport is
// enabled) and one per outage (RLF/T304 to re-establishment) — annotated
// with the fault windows active while each span was open.
//
// The tracer is an observer in the strict SimObserver sense: it draws no
// randomness and never mutates simulation state, so attaching it cannot
// change a run's results. Everything it records derives from *simulated*
// time, which makes its metrics bit-identical across reruns and thread
// counts. Counters that have a SimStats field are published straight from
// the run's stats under the stats table's metric names
// (sim/stats_table.hpp); the tracer tallies only the event-only counters
// itself. testkit::InvariantChecker is the one event-derived recount of
// SimStats; reconcile() checks only the tracer's own spans against it.
//
// Span and metric names, units, and the phase-to-event mapping are
// documented in OBSERVABILITY.md.
#pragma once

#include "obs/metrics.hpp"
#include "sim/observer.hpp"
#include "sim/simulator.hpp"

#include <array>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace rem::obs {

/// One contiguous stage of a span, in simulated seconds.
struct SpanPhase {
  std::string name;    ///< "measure", "decide", "prepare", "execute", "outage"
  double start_s = 0.0;
  double end_s = 0.0;
};

/// One reassembled span: a handover attempt (kind "handover") from its
/// triggering measurement to its terminal event, or an outage (kind
/// "outage") from connectivity loss to re-establishment.
struct Span {
  std::string kind;     ///< "handover" | "outage"
  double start_s = 0.0;
  double end_s = 0.0;
  int serving = -1;     ///< serving cell at span open
  int target = -1;      ///< handover target (-1 for outages)
  /// Terminal event: handover spans end in "complete", "report_lost",
  /// "command_lost", "prep_failed", "t304_expiry", "rlf_interrupted", or
  /// "unfinished" (run ended mid-span); outage spans end in
  /// "reestablished" or "unfinished".
  std::string outcome;
  std::vector<SpanPhase> phases;
  /// Names of fault kinds whose windows overlapped this span.
  std::vector<std::string> faults;
  int report_retransmits = 0;
  int prep_retries = 0;          ///< timed-out HANDOVER REQUESTs re-sent
  bool used_fallback = false;    ///< preparation swung to the 2nd-best target
  bool duplicate_command = false;
  bool admission_rejected = false;  ///< target answered busy at least once
  int admission_retries = 0;        ///< hint-spaced re-sends after busy

  double duration_s() const { return end_s - start_s; }
};

/// Stable slug for a failure cause ("feedback_delay_loss", "missed_cell",
/// "ho_command_loss", "coverage_hole") used in metric names and JSON.
/// Throws std::invalid_argument on a value outside the enum.
std::string failure_cause_slug(sim::FailureCause c);

/// Write one JSON object per span (JSON Lines). `context` is an optional
/// pre-rendered fragment of `"key": "value"` pairs (no braces, no trailing
/// comma) merged into every line — bench_chaos uses it to stamp fault
/// class, seed and manager onto each span. `ue` >= 0 adds `"ue": k`.
void write_spans_jsonl(std::ostream& os, const std::vector<Span>& spans,
                       const std::string& context = "", int ue = -1);

/// SimObserver that reassembles the event stream into spans (see the
/// file-top comment) and records span-derived metrics into the snapshot
/// it owns. One tracer observes exactly one run; construct a fresh one
/// per run.
class SpanTracer : public sim::SimObserver {
 public:
  /// Builds the span histograms, so recording into them never allocates.
  SpanTracer();

  /// SimObserver contract: no RNG draws, no simulation-state mutation.
  /// A tracer observes exactly one UE: a single-UE run announces UE 0,
  /// and in a fleet run one tracer per UE sits behind
  /// sim::UeObserverDemux, whose child only ever sees its own UE id. The
  /// tracer records the id and stamps `"ue": k` onto every line of
  /// write_trace_jsonl. A second, different UE id means the tracer was
  /// attached un-demuxed — it throws rather than silently interleaving
  /// two UEs' state machines into nonsense spans.
  void on_ue(int ue) override;
  void on_event(const sim::SignalingEvent& event) override;
  void on_tick(const sim::TickView& view) override;
  /// Closes dangling spans as "unfinished" and completes metrics(): every
  /// stats-table field with a metric name straight from `stats`, the
  /// event-only counters from the tracer's own tally, the per-cause
  /// failure split (`sim.failure_cause.*`), the estimate-age gauge, and
  /// every span histogram that received a sample.
  void on_run_end(sim::SimStats& stats) override;

  /// All closed spans, in close order. Complete only after on_run_end.
  const std::vector<Span>& spans() const { return spans_; }

  /// The run's metrics (see on_run_end). Empty until on_run_end.
  const MetricsSnapshot& metrics() const { return metrics_; }

  /// Cross-check the reassembled spans against the run's statistics:
  /// completed handover spans (the latency histogram's count) against
  /// successful handovers, and re-established outage spans against the
  /// outage samples. Returns one human-readable line per mismatch; empty
  /// means they agree. Precondition: on_run_end has fired for this run.
  std::vector<std::string> reconcile(const sim::SimStats& stats) const;

  /// write_spans_jsonl over spans(), stamping the observed UE's id.
  void write_trace_jsonl(std::ostream& os,
                         const std::string& context = "") const;

 private:
  /// The span histograms: handover latency, its four phases (measure,
  /// decide, prepare, execute), outage duration, prep RTT, BS queue wait
  /// and out-of-sync duration.
  enum HistogramSlot : std::size_t {
    kLatency,
    kPhaseMeasure,
    kPhaseDecide,
    kPhasePrepare,
    kPhaseExecute,
    kOutageDuration,
    kPrepRtt,
    kQueueWait,
    kOutOfSync,
    kNumHistogramSlots
  };

  void note_fault(std::size_t kind_index);
  void close_handover(double t, const std::string& outcome);
  void close_outage(double t, const std::string& outcome);

  /// One histogram per HistogramSlot, in slot order.
  std::vector<HistogramSnapshot> histograms_;
  MetricsSnapshot metrics_;  ///< filled by on_run_end
  int ue_ = -1;  ///< the observed UE; -1 until on_ue fires
  std::vector<Span> spans_;
  std::optional<Span> handover_;   ///< open handover attempt
  /// The histogram slot of each of handover_'s phases, in phase order.
  std::vector<HistogramSlot> handover_phase_slots_;
  std::optional<Span> outage_;     ///< open outage
  std::array<bool, sim::kNumFaultKinds> fault_active_{};
  // Out-of-sync episode tracking (T310 armed interval), from on_tick.
  bool t310_prev_ = false;
  double t310_started_ = 0.0;
  double max_estimate_age_s_ = 0.0;
  bool run_ended_ = false;
  /// Events seen per EventKind, for the counters SimStats does not carry.
  std::array<std::uint64_t, sim::kNumEventKinds> events_seen_{};
};

}  // namespace rem::obs
