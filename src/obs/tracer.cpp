#include "obs/tracer.hpp"

#include "common/flat_json.hpp"
#include "sim/fault_injector.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace rem::obs {
namespace {

using common::flat_json::format_double;

/// Counters with no SimStats field behind them, tallied from the events.
constexpr std::pair<const char*, sim::EventKind> kEventOnlyCounters[] = {
    {"sim.handover.triggered", sim::EventKind::kMeasurementTriggered},
    {"sim.handover.report_lost", sim::EventKind::kReportLost},
    {"sim.handover.command_lost", sim::EventKind::kHoCommandLost},
    {"sim.report.delivered", sim::EventKind::kReportDelivered},
    {"sim.rlf", sim::EventKind::kRadioLinkFailure},
    {"sim.reestablished", sim::EventKind::kReestablished},
    {"sim.fault.windows", sim::EventKind::kFaultStart},
    {"sim.bs.restarts", sim::EventKind::kBsRestart},
};

/// Per SpanTracer histogram slot, in slot order: the metric name, its
/// bucket layout and, for the four phase slots, the handover phase whose
/// durations it records.
struct HistogramSpec {
  const char* name;
  const std::vector<double>& (*edges)();
  const char* phase;
};
constexpr HistogramSpec kHistogramSpecs[] = {
    {"sim.handover_latency_s", handover_latency_buckets_s, nullptr},
    {"sim.handover_phase.measure_s", handover_latency_buckets_s, "measure"},
    {"sim.handover_phase.decide_s", handover_latency_buckets_s, "decide"},
    {"sim.handover_phase.prepare_s", handover_latency_buckets_s, "prepare"},
    {"sim.handover_phase.execute_s", handover_latency_buckets_s, "execute"},
    {"sim.outage_duration_s", outage_duration_buckets_s, nullptr},
    {"sim.backhaul.prep_rtt_s", backhaul_rtt_buckets_s, nullptr},
    {"sim.bs.queue_wait_s", bs_queue_wait_buckets_s, nullptr},
    {"sim.out_of_sync_s", out_of_sync_buckets_s, nullptr},
};

}  // namespace

std::string failure_cause_slug(sim::FailureCause c) {
  switch (c) {
    case sim::FailureCause::kFeedbackDelayLoss: return "feedback_delay_loss";
    case sim::FailureCause::kMissedCell: return "missed_cell";
    case sim::FailureCause::kHoCommandLoss: return "ho_command_loss";
    case sim::FailureCause::kCoverageHole: return "coverage_hole";
  }
  throw std::invalid_argument(
      "failure_cause_slug: invalid FailureCause value " +
      std::to_string(static_cast<int>(c)));
}

SpanTracer::SpanTracer(Registry* registry) : registry_(registry) {
  static_assert(std::size(kHistogramSpecs) == kNumHistogramSlots);
}

void SpanTracer::record(HistogramSlot slot, double value) {
  if (registry_ == nullptr) return;
  Histogram*& h = histograms_[slot];
  if (h == nullptr) {
    const HistogramSpec& spec = kHistogramSpecs[slot];
    h = registry_->histogram(spec.name, spec.edges());
  }
  h->record(value);
}

void SpanTracer::note_fault(std::size_t kind_index) {
  const std::string name =
      sim::fault_kind_name(static_cast<sim::FaultKind>(kind_index));
  const auto annotate = [&](std::optional<Span>& span) {
    if (!span) return;
    auto& fs = span->faults;
    if (std::find(fs.begin(), fs.end(), name) == fs.end()) fs.push_back(name);
  };
  annotate(handover_);
  annotate(outage_);
}

void SpanTracer::close_handover(double t, const std::string& outcome) {
  if (!handover_) return;
  Span span = std::move(*handover_);
  handover_.reset();
  if (!span.phases.empty() && span.phases.back().end_s < span.phases.back().start_s)
    span.phases.back().end_s = t;
  span.end_s = t;
  span.outcome = outcome;
  if (outcome == "complete") {
    record(kLatency, span.duration_s());
    for (std::size_t i = 0; i < span.phases.size(); ++i)
      record(handover_phase_slots_[i],
             span.phases[i].end_s - span.phases[i].start_s);
  }
  spans_.push_back(std::move(span));
}

void SpanTracer::close_outage(double t, const std::string& outcome) {
  if (!outage_) return;
  Span span = std::move(*outage_);
  outage_.reset();
  span.end_s = t;
  span.outcome = outcome;
  span.phases.front().end_s = t;
  if (outcome == "reestablished") record(kOutageDuration, span.duration_s());
  spans_.push_back(std::move(span));
}

void SpanTracer::on_ue(int ue) {
  if (ue_ >= 0 && ue != ue_)
    throw std::logic_error(
        "SpanTracer observes exactly one UE, but saw ue=" +
        std::to_string(ue) + " after ue=" + std::to_string(ue_) +
        "; host one tracer per UE behind sim::UeObserverDemux");
  ue_ = ue;
}

void SpanTracer::on_event(const sim::SignalingEvent& e) {
  const auto kind = static_cast<std::size_t>(e.kind);
  if (kind < sim::kNumEventKinds) ++events_seen_[kind];
  // Phases are opened with end_s < start_s as an "open" sentinel; the
  // closing transition stamps the real end.
  const auto open_phase = [&](HistogramSlot slot, double t) {
    handover_->phases.push_back({kHistogramSpecs[slot].phase, t, t - 1.0});
    handover_phase_slots_.push_back(slot);
  };
  const auto end_phase = [&](double t) {
    // Close only an *open* phase (end < start sentinel): a transition that
    // fires with no phase open must not stretch an already-closed one.
    if (handover_ && !handover_->phases.empty() &&
        handover_->phases.back().end_s < handover_->phases.back().start_s)
      handover_->phases.back().end_s = t;
  };
  switch (e.kind) {
    case sim::EventKind::kMeasurementTriggered: {
      // The simulator never triggers a new attempt while one is live, but
      // close defensively rather than leak an open span.
      close_handover(e.t_s, "superseded");
      Span span;
      span.kind = "handover";
      span.start_s = e.t_s;
      span.serving = e.serving_cell;
      span.target = e.target_cell;
      for (std::size_t k = 0; k < sim::kNumFaultKinds; ++k)
        if (fault_active_[k])
          span.faults.push_back(
              sim::fault_kind_name(static_cast<sim::FaultKind>(k)));
      handover_ = std::move(span);
      handover_phase_slots_.clear();
      open_phase(kPhaseMeasure, e.t_s);
      break;
    }
    case sim::EventKind::kReportRetransmit:
      if (handover_) ++handover_->report_retransmits;
      break;
    case sim::EventKind::kReportDelivered:
      if (handover_) {
        end_phase(e.t_s);
        open_phase(kPhaseDecide, e.t_s);
      }
      break;
    case sim::EventKind::kReportLost:
      close_handover(e.t_s, "report_lost");
      break;
    case sim::EventKind::kHoCommandDuplicate:
      if (handover_) handover_->duplicate_command = true;
      break;
    case sim::EventKind::kHoCommandDelivered:
      if (handover_) {
        end_phase(e.t_s);
        open_phase(kPhaseExecute, e.t_s);
      }
      break;
    case sim::EventKind::kHoCommandLost:
      close_handover(e.t_s, "command_lost");
      break;
    case sim::EventKind::kHandoverComplete:
      close_handover(e.t_s, "complete");
      break;
    case sim::EventKind::kT304Expiry:
    case sim::EventKind::kRadioLinkFailure:
      close_handover(e.t_s, e.kind == sim::EventKind::kT304Expiry
                                ? "t304_expiry"
                                : "rlf_interrupted");
      // Both start an outage: T304 expiry re-establishes on the prepared
      // target, an RLF after a full search.
      close_outage(e.t_s, "superseded");
      outage_ = Span{};
      outage_->kind = "outage";
      outage_->start_s = e.t_s;
      outage_->serving = e.serving_cell;
      outage_->phases.push_back({"outage", e.t_s, e.t_s - 1.0});
      for (std::size_t k = 0; k < sim::kNumFaultKinds; ++k)
        if (fault_active_[k])
          outage_->faults.push_back(
              sim::fault_kind_name(static_cast<sim::FaultKind>(k)));
      break;
    case sim::EventKind::kReestablished:
      close_outage(e.t_s, "reestablished");
      break;
    case sim::EventKind::kFaultStart:
      if (e.target_cell >= 0 &&
          e.target_cell < static_cast<int>(sim::kNumFaultKinds)) {
        fault_active_[static_cast<std::size_t>(e.target_cell)] = true;
        note_fault(static_cast<std::size_t>(e.target_cell));
      }
      break;
    case sim::EventKind::kFaultEnd:
      if (e.target_cell >= 0 &&
          e.target_cell < static_cast<int>(sim::kNumFaultKinds))
        fault_active_[static_cast<std::size_t>(e.target_cell)] = false;
      break;
    case sim::EventKind::kPrepRequest:
      if (handover_) {
        // Open the prepare phase on the first request; a fallback re-send
        // arrives with the prepare phase already open and extends it.
        const bool prepare_open =
            !handover_phase_slots_.empty() &&
            handover_phase_slots_.back() == kPhasePrepare &&
            handover_->phases.back().end_s < handover_->phases.back().start_s;
        if (!prepare_open) {
          end_phase(e.t_s);
          open_phase(kPhasePrepare, e.t_s);
        }
      }
      break;
    case sim::EventKind::kPrepRetry:
      if (handover_) ++handover_->prep_retries;
      break;
    case sim::EventKind::kPrepAck:
      // The event carries the request->ack round trip in the SNR slot.
      // The prepare phase stays open past the ack: it runs until the
      // command reaches the UE, keeping the phase timeline contiguous.
      record(kPrepRtt, e.serving_snr_db);
      break;
    case sim::EventKind::kPrepFallback:
      if (handover_) handover_->used_fallback = true;
      break;
    case sim::EventKind::kPrepFailed:
      close_handover(e.t_s, "prep_failed");
      break;
    case sim::EventKind::kBsJobDone:
      // The SNR slot carries the job's queue wait in seconds.
      record(kQueueWait, e.serving_snr_db);
      break;
    case sim::EventKind::kAdmissionReject:
      if (handover_) handover_->admission_rejected = true;
      break;
    case sim::EventKind::kAdmissionRetry:
      if (handover_) ++handover_->admission_retries;
      break;
    default:
      // Counted above; no span or histogram work.
      break;
  }
}

void SpanTracer::on_tick(const sim::TickView& v) {
  last_tick_s_ = v.t_s;
  if (v.estimate_age_s > max_estimate_age_s_)
    max_estimate_age_s_ = v.estimate_age_s;
  // Out-of-sync episodes: the T310-armed interval, closed on the first
  // tick where the timer is no longer running (recovery or RLF — the RLF
  // tick itself reports t310_running == false, so episodes that end in
  // failure close at the failure time).
  if (v.t310_running && !t310_prev_) {
    t310_started_ = v.t_s;
  } else if (!v.t310_running && t310_prev_) {
    record(kOutOfSync, v.t_s - t310_started_);
  }
  t310_prev_ = v.t310_running;
}

void SpanTracer::on_run_end(sim::SimStats& stats) {
  close_handover(stats.sim_time_s, "unfinished");
  close_outage(stats.sim_time_s, "unfinished");
  run_ended_ = true;
  if (registry_ == nullptr) return;
  // Counters are published once per run rather than per event: the values
  // derive from simulated time, so a post-run publish is equivalent to
  // live increments for every snapshot taken after the run.
  sim::for_each_stat([&](const sim::StatField& f, auto field) {
    if (*f.metric != '\0')
      registry_->counter(f.metric)->add(
          static_cast<std::uint64_t>(stats.*field));
  });
  for (const auto& [name, kind] : kEventOnlyCounters)
    registry_->counter(name)->add(
        events_seen_[static_cast<std::size_t>(kind)]);
  for (const auto& [cause, n] : stats.failures_by_cause)
    registry_->counter("sim.failure_cause." + failure_cause_slug(cause))
        ->add(static_cast<std::uint64_t>(n));
  const auto age = registry_->gauge("sim.estimate_age_max_s");
  if (max_estimate_age_s_ > age->value()) age->set(max_estimate_age_s_);
}

std::vector<std::string> SpanTracer::reconcile(
    const sim::SimStats& stats) const {
  if (!run_ended_) return {"reconcile: on_run_end has not fired yet"};
  std::vector<std::string> out;
  std::size_t complete = 0, reestablished = 0;
  for (const auto& s : spans_) {
    if (s.kind == "handover" && s.outcome == "complete") ++complete;
    if (s.kind == "outage" && s.outcome == "reestablished") ++reestablished;
  }
  const auto check = [&](const char* what, std::size_t spans,
                         std::size_t stats_v) {
    if (spans != stats_v)
      out.push_back(std::string(what) + ": trace " + std::to_string(spans) +
                    " vs stats " + std::to_string(stats_v));
  };
  check("completed handover spans", complete,
        static_cast<std::size_t>(stats.successful_handovers));
  check("re-established outage spans", reestablished,
        stats.outage_durations_s.size());
  return out;
}

void SpanTracer::write_trace_jsonl(std::ostream& os,
                                   const std::string& context) const {
  write_spans_jsonl(os, spans_, context, ue_);
}

void write_spans_jsonl(std::ostream& os, const std::vector<Span>& spans,
                       const std::string& context, int ue) {
  for (const auto& s : spans) {
    os << "{";
    if (!context.empty()) os << context << ", ";
    if (ue >= 0) os << "\"ue\": " << ue << ", ";
    os << "\"kind\": \"" << s.kind << "\", \"start_s\": \""
       << format_double(s.start_s) << "\", \"end_s\": \""
       << format_double(s.end_s) << "\", \"serving\": " << s.serving
       << ", \"target\": " << s.target << ", \"outcome\": \"" << s.outcome
       << "\"";
    if (s.report_retransmits > 0)
      os << ", \"retransmits\": " << s.report_retransmits;
    if (s.prep_retries > 0) os << ", \"prep_retries\": " << s.prep_retries;
    if (s.used_fallback) os << ", \"used_fallback\": true";
    if (s.duplicate_command) os << ", \"duplicate_command\": true";
    if (s.admission_rejected) os << ", \"admission_rejected\": true";
    if (s.admission_retries > 0)
      os << ", \"admission_retries\": " << s.admission_retries;
    os << ", \"phases\": [";
    for (std::size_t i = 0; i < s.phases.size(); ++i) {
      const auto& p = s.phases[i];
      os << (i ? ", " : "") << "{\"name\": \"" << p.name
         << "\", \"start_s\": \"" << format_double(p.start_s)
         << "\", \"end_s\": \"" << format_double(p.end_s) << "\"}";
    }
    os << "]";
    if (!s.faults.empty()) {
      os << ", \"faults\": [";
      for (std::size_t i = 0; i < s.faults.size(); ++i)
        os << (i ? ", " : "") << "\"" << s.faults[i] << "\"";
      os << "]";
    }
    os << "}\n";
  }
}

}  // namespace rem::obs
