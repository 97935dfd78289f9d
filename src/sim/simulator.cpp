#include "sim/simulator.hpp"

#include "common/units.hpp"
#include "sim/circuit_breaker.hpp"
#include "sim/fleet.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace rem::sim {
namespace {

/// Attenuation applied to every leg of a crashed BS: deep enough that the
/// cell is unconnectable and unmeasurable for the whole window.
constexpr double kCrashPenaltyDb = 300.0;

/// Memory window for lost-signaling evidence in RLF classification.
constexpr double kLossMemory_s = 1.5;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Qout: serving SNR below which a tick is out of sync (N310/T310). A tick
/// at or above Qout + kQinMarginDb is in sync (N311).
constexpr double kQoutSnrDb = -7.0;
constexpr double kQinMarginDb = 1.0;
/// Minimum SNR for a handover execution to succeed at the target.
constexpr double kMinConnectSnrDb = -6.0;
/// The policy loop offers a cell as a candidate while its mean RSRP is
/// at most this far below `min_coverage_rsrp_dbm`: the lowest floor a run
/// passes to RadioEnv.
constexpr double kCandidateMarginDb = 10.0;
/// Signaling transport: attempts (HARQ/ARQ) and per-attempt spacing.
constexpr int kUplinkAttempts = 2;
constexpr int kDownlinkAttempts = 1;  // commands are time-critical (no ARQ)
constexpr double kRetrySpacing_s = 0.008;
/// Lost measurement reports are retransmitted with bounded exponential
/// backoff (base delay doubles per retry) before counting as lost.
constexpr int kReportMaxRetries = 3;
constexpr double kReportRetryBackoff_s = 0.04;
/// Base-station processing between feedback arrival and HO command.
constexpr double kDecisionProc_s = 0.050;
static_assert(kDecisionProc_s > 0.0,
              "a decision must never be ready in the tick its report "
              "arrived: the UE phase reads ready_s only on later ticks");
/// Execution interruption (detach + random access on target).
constexpr double kHoInterruption_s = 0.050;
/// After a completed handover, suppress new decisions briefly (standard
/// post-handover measurement blanking).
constexpr double kPostHoSuppress_s = 0.3;
/// Preparation timer (T-prep analogue): a HANDOVER REQUEST unanswered
/// this long after it was sent is re-sent, each timeout double the last,
/// up to kPrepMaxRetries times.
constexpr double kPrepTimeout_s = 0.030;
/// Context fetch during RLF re-establishment: the new cell asks the old
/// serving cell for the UE context over the backhaul. Retries use the
/// same exponential-backoff shape; exhaustion forces a context-less
/// degraded re-establishment that costs kCtxDegradedPenalty_s extra.
constexpr double kCtxFetchTimeout_s = 0.040;
constexpr int kCtxFetchMaxRetries = 3;
constexpr double kCtxDegradedPenalty_s = 0.4;

/// Where a handover attempt stands in the paper's signaling procedure:
/// measurement report -> network decision (with the backhaul on, plus
/// HANDOVER REQUEST/ACK preparation with the target) -> handover command
/// -> execution. Without the backhaul a delivered report goes straight to
/// kCommand. The dead ends follow kExecuting; after one the manager may
/// decide again.
enum class Phase {
  kReport,        ///< report (re)transmission due at due_s
  kRequestDue,    ///< HANDOVER REQUEST to send at due_s, breaker permitting
  kRequestSent,   ///< request `seq` outstanding until deadline_s
  kCommand,       ///< handover command due at due_s
  kExecuting,     ///< detach + random access on exec_idx until due_s
  kReportLost,    ///< report retransmissions exhausted
  kDecisionShed,  ///< the serving BS shed the RRC decision on a full queue
  kPrepFailed,    ///< preparation retries and the fallback exhausted
  kCommandLost,   ///< the handover command was lost in delivery
};

/// One UE's handover attempt, from the manager's decision until execution
/// ends or a newer decision replaces a dead end.
struct Attempt {
  Phase phase = Phase::kReport;
  double due_s = 0.0;          ///< when the phase's next step is due
  std::size_t target_idx = 0;  ///< target being prepared / commanded
  int fallback_idx = -1;       ///< second-best target from the decision
  bool used_fallback = false;
  double decided_at_s = 0.0;
  int report_retries = 0;
  int prep_retries = 0;        ///< T-prep retries toward the current target
  /// Admission-control backoff: busy rejects absorbed by waiting out the
  /// target's hint, per attempt.
  int admission_retries = 0;
  std::uint64_t seq = 0;       ///< transaction id of the outstanding request
  double sent_s = 0.0;         ///< last request send time (RTT base)
  double deadline_s = 0.0;     ///< T-prep timeout of the outstanding request
  /// Cell being executed toward: target_idx unless a stale duplicate of
  /// the previous command executed first.
  std::size_t exec_idx = 0;

  bool due(double t) const { return t >= due_s; }
  bool dead_end() const { return phase > Phase::kExecuting; }
  bool fallback_available() const {
    return fallback_idx >= 0 && !used_fallback &&
           fallback_idx != static_cast<int>(target_idx);
  }
};

/// The Table 2 cause an attempt in progress gives an RLF. Once the report
/// got through, the network decided and the UE never executed: the
/// command is lost or still in flight (a failed preparation leaves the UE
/// on the dying link the same way). Before that, or when the serving BS
/// shed the decision, the feedback was lost or too slow.
FailureCause attempt_cause(Phase p) {
  return p == Phase::kReport || p == Phase::kReportLost ||
                 p == Phase::kDecisionShed
             ? FailureCause::kFeedbackDelayLoss
             : FailureCause::kHoCommandLoss;
}

/// Context fetch during RLF re-establishment (backhaul only).
enum class CtxFetch { kNone, kFetching, kReady, kFailed };

/// Everything one UE owns: its manager, its RNG stream, its kinematics,
/// and the full per-UE slice of the simulator state that the seed's
/// single-UE loop held in locals. Shared resources (BsStation banks, the
/// backhaul transport, the fault schedule, the crash window) live on the
/// FleetEngine and are genuinely contended between UEs.
struct UeContext {
  int id = 0;
  MobilityManager* manager = nullptr;
  common::Rng* rng = nullptr;  ///< this UE's radio/signaling draw stream
  double speed_kmh = 0.0;
  double speed_mps = 0.0;
  double start_pos_m = 0.0;

  SimStats stats;
  double pos = 0.0;
  int serving = 0;
  /// Per-(UE, cell) context validity: a BS crash marks the victim's entry
  /// for every UE; camping or completing a handover there restores it for
  /// that UE only.
  std::vector<bool> context_lost;
  std::optional<Attempt> attempt;
  // RLF detection state: consecutive out-of-sync ticks arm T310;
  // consecutive in-sync ticks during T310 disarm it.
  int oos_count = 0;
  int is_count = 0;
  double t310_started = -1.0;
  double outage_started = -1.0;      ///< RLF time (in outage if >= 0)
  double outage_reestablish_s = 0.0;
  int preferred_target = -1;         ///< prepared target for T304 fallback
  double last_report_loss_t = -1e9;  ///< recent retransmit-exhausted report
  double last_cmd_loss_t = -1e9;     ///< recent lost handover command
  int last_cmd_target = -1;          ///< previous delivered command's target
  double suppress_until = 0.0;       ///< post-handover decision blanking
  std::deque<std::pair<double, int>> recent_serving;  ///< (time, cell idx)
  std::vector<double> ho_times;
  bool current_loop_episode = false;
  double throughput_sum_bps = 0.0;
  std::size_t ticks = 0;
  std::size_t outage_ticks = 0;
  // Pilot-outage staleness: last fresh delay-Doppler SNR per cell, and
  // when pilots were last fresh.
  std::vector<double> last_dd;
  double pilot_fresh_t = 0.0;
  bool degraded_prev = false;
  /// Rolling 5 s window of serving SNR for the Fig. 2b analysis.
  std::deque<std::pair<double, double>> snr_window;  ///< (t, snr)
  double cur_snr = kNaN;
  CtxFetch ctx = CtxFetch::kNone;
  std::uint64_t ctx_seq = 0;
  int ctx_retries = 0;
  double ctx_deadline_s = 0.0;
  int ctx_target = -1;
  double ctx_failed_camp_s = 0.0;
  /// Per-target circuit breakers (one per cell), empty when
  /// SimConfig::breaker_trip_k == 0. Source-side state, so per-UE.
  std::vector<CircuitBreaker> breakers;
  /// Policy-evaluation scratch, refilled every evaluation so a tick
  /// allocates nothing: the cells in reach of the candidate floor, the
  /// observations handed to the manager, each candidate's mean RSRP, and
  /// the candidates' standard normals (NaN where the manager reads none).
  std::vector<std::size_t> reach;
  std::vector<Observation> obs;
  std::vector<double> cand_mean;
  std::vector<double> cand_normals;

  bool in_phase(Phase p) const { return attempt && attempt->phase == p; }
};

/// One tick's serving-link sample, read by every phase after it.
struct RadioSample {
  ServingState sv;
  bool in_hole = false;
  bool pilot_out = false;
  double pilot_sigma = 0.0;
};

/// The one builder of request frames: `type` from cell `src` to cell
/// `dst`, about cell `target`, on behalf of UE `ue`.
net::BackhaulMessage request(net::MsgType type, std::uint64_t seq, int src,
                             int dst, int target, int ue) {
  return {.seq = seq,
          .type = type,
          .src_cell = src,
          .dst_cell = dst,
          .target_cell = target,
          .ue = ue};
}

/// The one builder of reply frames: answers `m` from its destination back
/// to its source, echoing the transaction id, the subject cell and the UE.
net::BackhaulMessage reply(const net::BackhaulMessage& m, net::MsgType type,
                           double payload = 0.0) {
  return {.seq = m.seq,
          .type = type,
          .src_cell = m.dst_cell,
          .dst_cell = m.src_cell,
          .target_cell = m.target_cell,
          .ue = m.ue,
          .payload = payload};
}

/// The simulation core shared by both run modes: one world (fault
/// schedule, BsStation banks, backhaul transport, crash window) carrying
/// N >= 1 UEs. Each simulated instant unfolds as one shared_step() (world
/// state, backhaul arrivals, BS completions) followed by one ue_step() per
/// UE in UE-id order — exactly the seed's single-UE tick body split at the
/// world/UE boundary, preserving every operation and RNG draw in order, so
/// a single-UE run is bit-identical to the pre-refactor tick loop.
class FleetEngine {
 public:
  FleetEngine(const RadioEnv& env, const SimConfig& cfg,
              const phy::BlerModel& bler, common::Rng& rng,
              const std::function<bool(int, int)>& pair_conflicts,
              bool fleet_mode)
      : env_(env),
        cfg_(cfg),
        bler_(bler),
        pair_conflicts_(pair_conflicts),
        fleet_mode_(fleet_mode),
        use_net_(cfg.backhaul.enabled),
        use_cap_(cfg.bs_capacity.enabled) {
    // Materialize the fault schedule. The no-fault path must not fork the
    // RNG, so a fault-free config leaves every downstream draw untouched.
    faults_ = cfg_.faults.empty()
                  ? FaultInjector()
                  : FaultInjector(cfg_.faults, cfg_.duration_s, rng.fork());
    // Inter-BS backhaul transport. Owns a forked RNG stream so
    // message-level draws (loss, jitter, reordering) never perturb the
    // radio-leg sequence.
    if (use_net_) netw_.emplace(cfg_.backhaul, rng.fork());
    // Per-BS control-plane capacity: one station (processing slots +
    // bounded FIFO signaling queue) per cell. Deterministic service
    // times, no RNG.
    if (use_cap_) {
      validate(cfg_.bs_capacity);
      stations_.assign(env_.cells().size(),
                       BsStation(cfg_.bs_capacity.slots,
                                 cfg_.bs_capacity.queue_capacity));
    }
    dead_.assign(env_.cells().size(), 0);
    // Load advertisement needs both a wire to piggyback on and a capacity
    // model to measure: silently inert otherwise.
    load_ads_ = use_net_ && use_cap_ && cfg_.load_ad_staleness_s > 0.0;
    if (load_ads_) load_ad_.assign(env_.cells().size(), {-1.0, -1.0});
  }

  /// Register the next UE (ids assigned in call order) and perform its
  /// initial attach: strongest covering cell at its start position.
  void add_ue(MobilityManager* manager, common::Rng* rng, double speed_kmh,
              double start_pos_m) {
    UeContext u;
    u.id = static_cast<int>(ues_.size());
    u.manager = manager;
    u.rng = rng;
    u.speed_kmh = speed_kmh;
    u.speed_mps = common::kmh_to_mps(speed_kmh);
    u.start_pos_m = start_pos_m;
    u.pos = start_pos_m;
    u.context_lost.assign(env_.cells().size(), false);
    if (cfg_.breaker_trip_k > 0)
      u.breakers.assign(env_.cells().size(),
                        CircuitBreaker(cfg_.breaker_trip_k,
                                       cfg_.breaker_cooldown_s));
    u.last_dd.assign(env_.cells().size(), kNaN);
    u.outage_reestablish_s = kReestablish_s;
    int serving = env_.best_cell(u.pos, cfg_.min_coverage_rsrp_dbm);
    if (serving < 0) serving = 0;
    u.serving = serving;
    ues_.push_back(std::move(u));
    manager->on_serving_changed(0.0, static_cast<std::size_t>(serving));
  }

  /// The fixed-step loop behind run() and run_fleet(): one shared step
  /// plus one step per UE (in UE-id order) at each accumulated tick time
  /// `t += dt`.
  void run_tick_loop() {
    const double dt = cfg_.tick_s;
    for (double t = 0.0; t < cfg_.duration_s; t += dt) {
      shared_step(t);
      for (auto& u : ues_) ue_step(t, u);
    }
    finish();
  }

  /// Move the per-UE stats out (indexed by UE id). Call once, after a run.
  std::vector<SimStats> take_stats() {
    std::vector<SimStats> out;
    out.reserve(ues_.size());
    for (auto& u : ues_) out.push_back(std::move(u.stats));
    return out;
  }

 private:
  UeContext& ue_of(int ue) {
    if (ue < 0 || ue >= static_cast<int>(ues_.size()))
      throw std::logic_error(
          "FleetEngine: work attributed to unknown UE " + std::to_string(ue));
    return ues_[static_cast<std::size_t>(ue)];
  }

  /// Fleet runs announce the attributed UE to the observer whenever it
  /// changes; single-UE runs never fire on_ue (legacy protocol).
  void focus(int ue) {
    if (!fleet_mode_ || ue == cur_obs_ue_) return;
    cur_obs_ue_ = ue;
    cfg_.observer->on_ue(ue);
  }

  void log_event(UeContext& u, double t, EventKind kind, int srv, int tgt,
                 double snr) {
    if (!cfg_.record_events && !cfg_.observer) return;
    const SignalingEvent e{t, kind, srv, tgt, snr, u.id};
    if (cfg_.observer) {
      focus(u.id);
      cfg_.observer->on_event(e);
    }
    if (cfg_.record_events) u.stats.events.push_back(e);
  }

  phy::DopplerRegime regime(const UeContext& u) const {
    return u.speed_kmh >= 150.0 ? phy::DopplerRegime::kHigh
                                : phy::DopplerRegime::kLow;
  }

  bool deliver(UeContext& u, double t, double snr_db, int attempts,
               phy::Waveform w) {
    // A signaling-loss fault raises the per-attempt loss probability floor.
    const double floor = faults_.magnitude(FaultKind::kSignalingLoss, t);
    for (int a = 0; a < attempts; ++a) {
      const double p =
          std::min(1.0, std::max(bler_.bler(w, regime(u), snr_db), floor));
      if (!u.rng->bernoulli(p)) return true;
    }
    return false;
  }

  /// Attenuation making a crashed cell unconnectable and unmeasurable.
  /// Covers both single-cell crash windows and region-outage members.
  double crash_db(std::size_t idx) const {
    return dead_[idx] != 0 ? kCrashPenaltyDb : 0.0;
  }

  bool is_dead(int cell) const {
    return cell >= 0 && cell < static_cast<int>(dead_.size()) &&
           dead_[static_cast<std::size_t>(cell)] != 0;
  }

  void record_failure(UeContext& u, double t, FailureCause cause) {
    // An RLF abandons any in-flight preparation. A half-open probe that
    // can no longer be answered must resolve as a failure here, or the
    // breaker would wedge half-open with its probe slot taken forever.
    if (!u.breakers.empty() && u.in_phase(Phase::kRequestSent) &&
        u.breakers[u.attempt->target_idx].probe_in_flight())
      breaker_fail(u, t, u.attempt->target_idx);
    ++u.stats.failures;
    ++u.stats.failures_by_cause[cause];
    // Dump the pre-failure SNR window, decimated to ~10 samples.
    const std::size_t stride =
        std::max<std::size_t>(u.snr_window.size() / 10, 1);
    for (std::size_t i = 0; i < u.snr_window.size(); i += stride)
      u.stats.pre_failure_snrs_db.push_back(u.snr_window[i].second);
    u.snr_window.clear();
    u.outage_started = t;
    u.outage_reestablish_s = kReestablish_s;
    u.preferred_target = -1;
    u.attempt.reset();
    u.oos_count = u.is_count = 0;
    u.t310_started = -1.0;
    u.ctx = CtxFetch::kNone;
    u.ctx_target = -1;
  }

  void camp_on(UeContext& u, double t, int target) {
    u.stats.outage_durations_s.push_back(t - u.outage_started);
    u.serving = target;
    // Camping (re-)establishes the UE context at this BS.
    u.context_lost[static_cast<std::size_t>(target)] = false;
    u.outage_started = -1.0;
    u.preferred_target = -1;
    u.ctx = CtxFetch::kNone;
    u.ctx_target = -1;
    u.outage_reestablish_s = kReestablish_s;
    u.last_report_loss_t = u.last_cmd_loss_t = -1e9;
    u.manager->on_serving_changed(t, static_cast<std::size_t>(u.serving));
    log_event(u, t, EventKind::kReestablished, u.serving, -1, 0.0);
    u.recent_serving.push_back({t, u.serving});
  }

  /// Submits synthetic other-UE jobs to `cell` until its occupancy reaches
  /// `util` of its capacity or the queue refuses; returns how many went
  /// in. Deterministic: occupancy targets and service times are fixed.
  int fill_background(double t, std::size_t cell, double util) {
    const double cap = static_cast<double>(cfg_.bs_capacity.slots) +
                       static_cast<double>(cfg_.bs_capacity.queue_capacity);
    const int target_occ = static_cast<int>(std::lround(util * cap));
    auto& st = stations_[cell];
    int injected = 0;
    while (st.occupancy(t) < target_occ &&
           st.submit(t, BsJobKind::kBackground,
                     cfg_.bs_capacity.background_service_s))
      ++injected;
    return injected;
  }

  /// Lazily saturate a live station up to the overload window's target
  /// occupancy, right before a UE job is offered to it.
  void top_up(double t, std::size_t cell) {
    if (overload_u_ <= 0.0 || dead_[cell] != 0) return;
    fill_background(t, cell, overload_u_);
  }

  /// Offers one of UE `u`'s signaling jobs to `cell`'s station (service
  /// time inflated by an overload window). A full queue sheds it, counted
  /// and logged; returns the scheduled job otherwise.
  std::optional<BsJob> submit_job(double t, UeContext& u, std::size_t cell,
                                  BsJobKind kind, double service_s,
                                  const net::BackhaulMessage& msg = {}) {
    ++u.stats.bs_jobs_submitted;
    auto job = stations_[cell].submit(t, kind, service_s * svc_inflation_,
                                      msg, u.id);
    if (!job) {
      ++u.stats.bs_queue_shed;
      log_event(u, t, EventKind::kBsQueueShed, u.serving,
                static_cast<int>(cell), stations_[cell].load(t));
    }
    return job;
  }

  void bh_send(double t, net::BackhaulMessage m) {
    // A dead BS can neither send nor receive; like partitions, crash
    // drops consume no random draws.
    if (dead_count_ > 0 && (is_dead(m.src_cell) || is_dead(m.dst_cell))) {
      ++ue_of(m.ue).stats.bs_crash_dropped_msgs;
      return;
    }
    // Piggybacked load advertisement: every frame a BS originates carries
    // its control-plane utilization at send time (stale-bounded at use).
    if (load_ads_ && m.src_cell >= 0 &&
        m.src_cell < static_cast<int>(stations_.size()))
      m.load = stations_[static_cast<std::size_t>(m.src_cell)].load(t);
    netw_->send(t, m, bh_loss_, bh_delay_, bh_partition_);
  }

  /// Sends the attempt's HANDOVER REQUEST under a fresh transaction id:
  /// the first send toward the current target from kRequestDue, or a
  /// T-prep retry from kRequestSent. Each retry doubles the timeout; a
  /// straggling answer to a replaced id is ignored.
  void send_prep(UeContext& u, double t, double snr_db) {
    Attempt& a = *u.attempt;
    const bool retry = a.phase == Phase::kRequestSent;
    if (retry) {
      ++a.prep_retries;
      ++u.stats.prep_retries;
    } else {
      ++u.stats.prep_requests;
    }
    a.phase = Phase::kRequestSent;
    a.seq = next_seq_++;
    a.sent_s = t;
    a.deadline_s =
        t + kPrepTimeout_s * static_cast<double>(1 << a.prep_retries);
    const int tgt = static_cast<int>(a.target_idx);
    bh_send(t, request(net::MsgType::kHandoverRequest, a.seq, u.serving, tgt,
                       tgt, u.id));
    log_event(u, t, retry ? EventKind::kPrepRetry : EventKind::kPrepRequest,
              u.serving, tgt, snr_db);
  }

  /// Asks the old serving BS for the UE context on behalf of the
  /// re-establishment cell `ctx_target`. The first send opens a
  /// transaction; each retry doubles the timeout and keeps the id, so a
  /// late answer to an earlier copy still completes the fetch.
  void send_ctx_fetch(UeContext& u, double t) {
    if (u.ctx == CtxFetch::kFetching) {
      ++u.ctx_retries;
    } else {
      u.ctx = CtxFetch::kFetching;
      u.ctx_seq = next_seq_++;
      u.ctx_retries = 0;
    }
    u.ctx_deadline_s =
        t + kCtxFetchTimeout_s * static_cast<double>(1 << u.ctx_retries);
    bh_send(t, request(net::MsgType::kContextFetch, u.ctx_seq, u.ctx_target,
                       u.serving, u.ctx_target, u.id));
  }

  /// One preparation failure / busy-reject toward `target` feeds that
  /// target's circuit breaker; logs the trip when it opens.
  void breaker_fail(UeContext& u, double t, std::size_t target) {
    if (u.breakers.empty()) return;
    if (u.breakers[target].record_failure(t)) {
      ++u.stats.breaker_trips;
      log_event(u, t, EventKind::kBreakerTrip, u.serving,
                static_cast<int>(target), 0.0);
    }
  }

  /// Breaker gate in front of every first send of a HANDOVER REQUEST
  /// (retries of an in-flight request are the same logical preparation
  /// and are never re-gated). Returns false while the target's breaker
  /// refuses; the attempt simply waits in kRequestDue, so the cool-down
  /// bounds the stall. The first admission after the cool-down is the
  /// half-open probe and is logged as such.
  bool breaker_allows_prep(UeContext& u, double t) {
    if (u.breakers.empty()) return true;
    auto& br = u.breakers[u.attempt->target_idx];
    const bool was_open = br.state() == BreakerState::kOpen;
    if (!br.allow(t)) return false;
    if (was_open) {
      ++u.stats.breaker_probes;
      log_event(u, t, EventKind::kBreakerProbe, u.serving,
                static_cast<int>(u.attempt->target_idx), 0.0);
    }
    return true;
  }

  /// Preparation hit a terminal condition (reject / timeout exhaustion):
  /// swing to the decision's fallback target once, then give up. A failed
  /// preparation leaves the UE on the dying serving link, so an eventual
  /// RLF classifies like a lost command (the network decided, the UE
  /// never heard).
  void prep_fallback_or_fail(UeContext& u, double now) {
    Attempt& a = *u.attempt;
    if (a.fallback_available()) {
      a.used_fallback = true;
      a.target_idx = static_cast<std::size_t>(a.fallback_idx);
      a.prep_retries = 0;
      a.phase = Phase::kRequestDue;
      a.due_s = now;
      ++u.stats.prep_fallbacks;
      log_event(u, now, EventKind::kPrepFallback, u.serving,
                static_cast<int>(a.target_idx), 0.0);
    } else {
      a.phase = Phase::kPrepFailed;
      ++u.stats.prep_failures;
      u.last_cmd_loss_t = now;
      log_event(u, now, EventKind::kPrepFailed, u.serving,
                static_cast<int>(a.target_idx), 0.0);
    }
  }

  /// The target's admission verdict on a HANDOVER REQUEST: accept when it
  /// still covers the owning UE's position (the RSRP rides as payload).
  net::BackhaulMessage admission_reply(const net::BackhaulMessage& m) {
    const auto tgt = static_cast<std::size_t>(m.target_cell);
    const double rsrp =
        env_.mean_rsrp_dbm(tgt, ue_of(m.ue).pos) - blackout_db_ - crash_db(tgt);
    return reply(m,
                 rsrp >= cfg_.min_coverage_rsrp_dbm
                     ? net::MsgType::kHandoverAck
                     : net::MsgType::kHandoverReject,
                 rsrp);
  }

  /// An ack, reject or busy-reject answering the attempt's outstanding
  /// HANDOVER REQUEST.
  void answer_prep(UeContext& u, double t, const net::BackhaulMessage& m) {
    Attempt& a = *u.attempt;
    const int tgt = static_cast<int>(a.target_idx);
    if (m.type == net::MsgType::kHandoverAck) {
      a.phase = Phase::kCommand;
      ++u.stats.prep_acks;
      const double rtt = t - a.sent_s;
      u.stats.prep_rtt_sum_s += rtt;
      a.due_s = t + kRetrySpacing_s;
      log_event(u, t, EventKind::kPrepAck, u.serving, tgt, rtt);
      if (!u.breakers.empty() && u.breakers[a.target_idx].record_success()) {
        ++u.stats.breaker_closes;
        log_event(u, t, EventKind::kBreakerClose, u.serving, tgt, 0.0);
      }
      return;
    }
    if (m.type == net::MsgType::kHandoverReject) {
      ++u.stats.prep_rejects;
      log_event(u, t, EventKind::kPrepReject, u.serving, tgt, 0.0);
      breaker_fail(u, t, a.target_idx);
      prep_fallback_or_fail(u, t);
      return;
    }
    // Busy reject: the target's signaling queue is over its admission
    // threshold. The source pivots to the Theorem-2 fallback target if one
    // is still fresh, otherwise waits out the carried backoff hint for a
    // bounded number of re-attempts before failing the preparation.
    ++u.stats.admission_rejects;
    const double hint = std::max(0.0, m.payload);
    log_event(u, t, EventKind::kAdmissionReject, u.serving, tgt, hint);
    breaker_fail(u, t, a.target_idx);
    if (a.fallback_available() ||
        a.admission_retries >= cfg_.bs_capacity.admission_max_retries) {
      prep_fallback_or_fail(u, t);  // fallback, or fail when none is left
      return;
    }
    ++a.admission_retries;
    ++u.stats.admission_backoff_retries;
    a.phase = Phase::kRequestDue;
    a.prep_retries = 0;
    double wait = hint;
    if (cfg_.storm_jitter_frac > 0.0) {
      // Storm damping: per-UE jitter (from the UE's own stream)
      // desynchronizes a displaced fleet's retries instead of hammering
      // the next BS in lockstep. Off by default and draw-free when off.
      wait = hint * (1.0 + u.rng->uniform(0.0, cfg_.storm_jitter_frac));
      ++u.stats.storm_jitter_applied;
    }
    a.due_s = t + wait;
    log_event(u, t, EventKind::kAdmissionRetry, u.serving, tgt, wait);
  }

  void poll_backhaul(double t) {
    // Nothing on the wire touches a dead BS: kill_cell flushed it, and
    // bh_send refuses dead ends.
    for (const auto& m : netw_->poll(t)) {
      UeContext& u = ue_of(m.ue);
      if (load_ads_ && m.load >= 0.0 && m.src_cell >= 0 &&
          m.src_cell < static_cast<int>(load_ad_.size())) {
        load_ad_[static_cast<std::size_t>(m.src_cell)] = {m.load, t};
        ++u.stats.load_ads_received;
      }
      switch (m.type) {
        case net::MsgType::kHandoverRequest: {
          if (!use_cap_) {
            bh_send(t, admission_reply(m));
            break;
          }
          // Capacity model: admission control first — an over-threshold
          // target refuses outright with a backoff hint (the source FSM
          // pivots to its fallback or waits the hint out). Below the
          // threshold the request takes a processing slot and the
          // accept/reject verdict goes out when the job completes. A
          // queue full under threshold can only happen with extreme
          // configs; the source's prep timer recovers the attempt.
          const auto tgt = static_cast<std::size_t>(m.target_cell);
          top_up(t, tgt);
          if (stations_[tgt].load(t) >=
              cfg_.bs_capacity.admission_load_threshold) {
            bh_send(t, reply(m, net::MsgType::kHandoverRejectBusy,
                             cfg_.bs_capacity.reject_backoff_hint_s));
            break;
          }
          submit_job(t, u, tgt, BsJobKind::kPrepAdmission,
                     cfg_.bs_capacity.prep_service_s, m);
          break;
        }
        case net::MsgType::kHandoverAck:
        case net::MsgType::kHandoverReject:
        case net::MsgType::kHandoverRejectBusy:
          // Only an answer to the attempt's outstanding request counts,
          // and counting it moves the attempt off kRequestSent; a retry or
          // a fallback sends under a fresh id (ids are never reused), so
          // duplicates and stragglers fall through.
          if (u.in_phase(Phase::kRequestSent) && m.seq == u.attempt->seq)
            answer_prep(u, t, m);
          break;
        case net::MsgType::kContextFetch: {
          // The old serving BS looks the UE context up — through its
          // capacity station when the model is on, replying when the job
          // completes — and answers with the context, or with a stale
          // indication if it crashed and lost the context since (restart
          // recovery).
          const int holder = m.dst_cell;
          if (use_cap_ && holder >= 0 &&
              holder < static_cast<int>(stations_.size())) {
            const auto h = static_cast<std::size_t>(holder);
            top_up(t, h);
            submit_job(t, u, h, BsJobKind::kContextLookup,
                       cfg_.bs_capacity.ctx_service_s, m);
            break;
          }
          const bool stale =
              holder >= 0 &&
              holder < static_cast<int>(u.context_lost.size()) &&
              u.context_lost[static_cast<std::size_t>(holder)];
          bh_send(t, reply(m, stale ? net::MsgType::kContextStale
                                    : net::MsgType::kContextResponse));
          break;
        }
        case net::MsgType::kContextResponse:
        case net::MsgType::kContextStale:
          // The first answer ends kFetching; duplicates fall through.
          if (u.outage_started < 0.0 || u.ctx != CtxFetch::kFetching ||
              m.seq != u.ctx_seq)
            break;
          if (m.type == net::MsgType::kContextResponse) {
            u.ctx = CtxFetch::kReady;
          } else {
            // The context holder restarted and lost the UE context: give
            // up on the fetch and take the degraded context-less
            // re-establishment path (same penalty as fetch exhaustion).
            ++u.stats.stale_context_responses;
            u.ctx = CtxFetch::kFailed;
            u.ctx_failed_camp_s = t + kCtxDegradedPenalty_s;
            log_event(u, t, EventKind::kContextStale, u.serving, m.src_cell,
                      0.0);
          }
          break;
      }
    }
  }

  /// BS job completions: fire the continuation of each serviced signaling
  /// job (admission verdicts, context lookups). Decision jobs resolved
  /// their timing at submit; background jobs are not UE-visible work.
  /// Runs even with the backhaul model off — decision jobs exist anyway.
  void run_completions(double t) {
    for (std::size_t si = 0; si < stations_.size(); ++si) {
      for (const auto& job : stations_[si].take_completed(t)) {
        if (job.kind == BsJobKind::kBackground) continue;
        UeContext& u = ue_of(job.ue);
        ++u.stats.bs_jobs_served;
        const double wait = job.start_s - job.submit_s;
        if (wait > 0.0) ++u.stats.bs_jobs_queued;
        u.stats.bs_queue_wait_sum_s += wait;
        log_event(u, t, EventKind::kBsJobDone, u.serving,
                  static_cast<int>(si), wait);
        if (job.kind == BsJobKind::kPrepAdmission) {
          bh_send(t, admission_reply(job.msg));
        } else if (job.kind == BsJobKind::kContextLookup) {
          bh_send(t, reply(job.msg, u.context_lost[si]
                                        ? net::MsgType::kContextStale
                                        : net::MsgType::kContextResponse));
        }
      }
    }
  }

  /// Kill one BS: radio silent, queued signaling flushed, in-flight wire
  /// traffic dropped, every UE's context there lost. Shared by the
  /// single-cell crash window and region-outage members; returns false
  /// when the cell was already dead (nothing happened).
  bool kill_cell(double t, int cell, double mag) {
    const auto ci = static_cast<std::size_t>(cell);
    if (dead_[ci] != 0) return false;
    dead_[ci] = 1;
    ++dead_count_;
    for (auto& u : ues_) {
      ++u.stats.bs_crashes;
      u.context_lost[ci] = true;
    }
    if (use_cap_) {
      for (const auto& job : stations_[ci].flush_jobs())
        ++ue_of(job.ue).stats.bs_jobs_flushed;
    }
    if (use_net_) netw_->drop_in_flight_for_cell(cell);
    for (auto& u : ues_)
      log_event(u, t, EventKind::kBsCrash, u.serving, cell, mag);
    return true;
  }

  /// The BS rejoins stateless: prepared UE contexts stay lost until
  /// re-established (context_lost drives stale-context replies).
  void revive_cell(double t, int cell) {
    for (auto& u : ues_)
      log_event(u, t, EventKind::kBsRestart, u.serving, cell, 0.0);
    dead_[static_cast<std::size_t>(cell)] = 0;
    --dead_count_;
  }

  /// World phase of one simulated instant: kinematics, fault-window
  /// edges, the crash window, overload/backhaul fault values, backhaul
  /// arrivals, and BS job completions — everything the seed's tick body
  /// did before touching per-UE radio state.
  void shared_step(double t) {
    for (auto& u : ues_) {
      u.pos = u.start_pos_m + u.speed_mps * t;
      ++u.ticks;
      u.cur_snr = kNaN;
    }

    // ---- Fault-window transitions (event log / observer only) ----
    if ((cfg_.record_events || cfg_.observer) && faults_.any()) {
      for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        const bool act = faults_.active(kind, t);
        if (act != fault_was_active_[k]) {
          for (auto& u : ues_)
            log_event(u, t,
                      act ? EventKind::kFaultStart : EventKind::kFaultEnd,
                      u.serving, static_cast<int>(k),
                      faults_.magnitude(kind, t));
          fault_was_active_[k] = act;
        }
      }
    }

    blackout_ = faults_.active(FaultKind::kCoverageBlackout, t);
    blackout_db_ = faults_.magnitude(FaultKind::kCoverageBlackout, t);

    // ---- BS crash-restart window edges ----
    const double crash_mag = faults_.magnitude(FaultKind::kBsCrashRestart, t);
    if (crash_mag > 0.0 && crashed_cell_ < 0) {
      // Victim: magnitudes below 2 kill the reference UE's serving BS at
      // window open; 2 + k kills cell index k (lets tests crash a prep
      // target). The reference UE is UE 0, matching the single-UE seed.
      int victim = crash_mag >= 2.0 ? static_cast<int>(crash_mag) - 2
                                    : ues_.front().serving;
      if (victim < 0 || victim >= static_cast<int>(env_.cells().size()))
        victim = ues_.front().serving;
      crashed_cell_ = victim;
      // The crash is a global window: every UE observes it (and loses its
      // context at the victim), so each per-UE checker sees the edge.
      // A victim a region outage already killed stays that window's: the
      // crash window then owns nothing and restarts nothing.
      crash_owns_cell_ = kill_cell(t, victim, crash_mag);
    } else if (crash_mag <= 0.0 && crashed_cell_ >= 0) {
      // Restart: the BS rejoins stateless — queue already flushed at
      // crash.
      if (crash_owns_cell_) revive_cell(t, crashed_cell_);
      crashed_cell_ = -1;
      crash_owns_cell_ = false;
    }

    // ---- Region outage: staggered failure-domain blackout ----
    const double region_mag = faults_.magnitude(FaultKind::kRegionOutage, t);
    if (region_mag > 0.0) {
      const int ds = faults_.domain_size();
      const int ncells = static_cast<int>(env_.cells().size());
      if (!region_active_) {
        region_active_ = true;
        region_open_s_ = t;
        region_next_ = 0;
        // Victim domain: magnitudes below 2 take the reference UE's
        // serving domain at window open; 2 + d targets domain d.
        int dom = region_mag >= 2.0
                      ? static_cast<int>(region_mag) - 2
                      : fault_domain_of(ues_.front().serving, ds);
        if (dom < 0 || dom > fault_domain_of(ncells - 1, ds))
          dom = fault_domain_of(ues_.front().serving, ds);
        region_domain_ = dom;
      }
      // Staggered onsets: member i (cell-index order within the domain)
      // dies at open + i * region_stagger_s, clamped to the window.
      const int first = region_domain_ * ds;
      const int last = std::min(first + ds, ncells);
      while (first + region_next_ < last &&
             t >= region_open_s_ + static_cast<double>(region_next_) *
                                       faults_.region_stagger_s()) {
        const int cell = first + region_next_;
        if (kill_cell(t, cell, region_mag)) region_killed_.push_back(cell);
        ++region_next_;
      }
    } else if (region_active_) {
      // Window closed: every member this window killed restarts together,
      // stateless — the same recovery semantics as a single-BS restart.
      for (const int cell : region_killed_) revive_cell(t, cell);
      region_killed_.clear();
      region_active_ = false;
      region_domain_ = -1;
    }

    // ---- BS overload window: background load + service inflation ----
    overload_u_ =
        use_cap_ ? faults_.magnitude(FaultKind::kBsOverload, t) : 0.0;
    svc_inflation_ = overload_u_ > 0.0
                         ? 1.0 / (1.0 - std::min(overload_u_, 0.95))
                         : 1.0;

    // ---- Cascade overload: displaced load floods surviving neighbors ----
    // While a cascade window overlaps at least one dead BS, every live
    // cell within cascade_neighbor_radius (cell-index distance) of a dead
    // one is topped up with background jobs to magnitude * capacity — the
    // re-camping load of the displaced UEs. Deterministic: fixed targets,
    // fixed service times, no RNG; world-global like the crash itself.
    if (use_cap_ && dead_count_ > 0) {
      const double cascade_u =
          faults_.magnitude(FaultKind::kCascadeOverload, t);
      if (cascade_u > 0.0) {
        const int radius = faults_.cascade_neighbor_radius();
        const int ncells = static_cast<int>(env_.cells().size());
        for (int c = 0; c < ncells; ++c) {
          if (dead_[static_cast<std::size_t>(c)] != 0) continue;
          bool near = false;
          for (int d = std::max(0, c - radius);
               d <= std::min(ncells - 1, c + radius); ++d) {
            if (dead_[static_cast<std::size_t>(d)] != 0) {
              near = true;
              break;
            }
          }
          if (!near) continue;
          const int injected =
              fill_background(t, static_cast<std::size_t>(c), cascade_u);
          if (injected == 0) continue;
          for (auto& u : ues_) {
            ++u.stats.cascade_activations;
            u.stats.cascade_jobs_injected += injected;
            log_event(u, t, EventKind::kCascadeInject, u.serving, c,
                      static_cast<double>(injected));
          }
        }
      }
    }

    // ---- Backhaul transport: this tick's fault overrides + arrivals ----
    bh_partition_ =
        use_net_ && faults_.active(FaultKind::kBackhaulPartition, t);
    bh_loss_ = use_net_ ? faults_.magnitude(FaultKind::kBackhaulLoss, t) : 0.0;
    bh_delay_ =
        use_net_ ? faults_.magnitude(FaultKind::kBackhaulDelay, t) : 0.0;
    if (use_net_) poll_backhaul(t);
    if (use_cap_) run_completions(t);
  }

  /// Per-UE phase of one simulated instant: the seed's tick body from the
  /// radio boundary down, as seven phases in order. Re-establishment is
  /// the whole tick while the UE is in outage; a T304 expiry or an RLF
  /// ends the tick too. Every UE tick ends with one observer snapshot.
  void ue_step(double t, UeContext& u) {
    if (reestablish(t, u)) {
      const RadioSample r = sample_radio(t, u);
      if (complete_execution(t, u, r) && detect_rlf(t, u, r)) {
        progress_attempt(t, u, r);
        evaluate_policy(t, u, r);
        track_degraded(t, u, r);
      }
    }
    emit_tick(u, t);
  }

  /// Phase 1, re-establishment. In outage, once the search time has
  /// passed (and no blackout hides every cell): camp on the T304 fallback
  /// target while it still covers the UE, else on the best live cell
  /// comfortably above Qout — with the backhaul on, only after the UE
  /// context came back from the old serving BS. Returns false while the
  /// UE is in outage.
  bool reestablish(double t, UeContext& u) {
    if (u.outage_started < 0.0) return true;
    ++u.outage_ticks;
    if (t - u.outage_started >= u.outage_reestablish_s && !blackout_) {
      // Camp only on a cell comfortably above Qout (Qin-style margin),
      // otherwise keep searching — reconnecting into a dying cell just
      // repeats the failure.
      const double floor_rsrp =
          std::max(cfg_.min_coverage_rsrp_dbm,
                   kNoiseFloorDbm + kQoutSnrDb + 3.0);
      if (u.preferred_target >= 0) {
        // T304 fallback: the prepared target holds the UE context, so
        // re-establishment there skips the full cell search. A crashed
        // target lost that context — and its radio — so skip it.
        if (covers(u, u.preferred_target, floor_rsrp)) {
          ++u.stats.t304_fallback_success;
          camp_on(u, t, u.preferred_target);
          return false;
        }
        // Prepared target is gone too: full RLF re-establishment.
        u.preferred_target = -1;
        u.outage_reestablish_s = kReestablish_s;
      }
      if (t - u.outage_started >= u.outage_reestablish_s)
        search_and_camp(t, u, floor_rsrp);
    }
    return false;
  }

  /// True when `cell`'s mean RSRP at the UE, less a crash's attenuation,
  /// clears `floor_dbm`.
  bool covers(const UeContext& u, int cell, double floor_dbm) const {
    const auto c = static_cast<std::size_t>(cell);
    return env_.mean_rsrp_dbm(c, u.pos) - crash_db(c) >= floor_dbm;
  }

  /// Full re-establishment search. Without the backhaul, or after the
  /// context fetch failed (exhausted or stale) and its degraded-setup
  /// penalty has passed, the UE camps on the best live cell. With the
  /// backhaul it first fetches the UE context for that cell from the old
  /// serving BS and camps once the context is back.
  void search_and_camp(double t, UeContext& u, double floor_rsrp) {
    if (!use_net_ ||
        (u.ctx == CtxFetch::kFailed && t >= u.ctx_failed_camp_s)) {
      const int target = env_.best_cell(u.pos, floor_rsrp, dead_);
      if (target >= 0) camp_on(u, t, target);  // else: still in a hole
    } else if (u.ctx == CtxFetch::kReady) {
      if (covers(u, u.ctx_target, floor_rsrp)) {
        camp_on(u, t, u.ctx_target);
      } else {
        // The fetched-into cell faded while waiting; restart the fetch
        // toward whatever is best now.
        u.ctx = CtxFetch::kNone;
        u.ctx_target = -1;
      }
    } else if (u.ctx == CtxFetch::kNone) {
      const int target = env_.best_cell(u.pos, floor_rsrp, dead_);
      if (target >= 0) {
        u.ctx_target = target;
        send_ctx_fetch(u, t);
      }
    } else if (u.ctx == CtxFetch::kFetching && t >= u.ctx_deadline_s) {
      if (u.ctx_retries < kCtxFetchMaxRetries) {
        send_ctx_fetch(u, t);
      } else {
        u.ctx = CtxFetch::kFailed;
        ++u.stats.context_fetch_failures;
        u.ctx_failed_camp_s = t + kCtxDegradedPenalty_s;
        log_event(u, t, EventKind::kContextFetchFailed, u.serving,
                  u.ctx_target, 0.0);
      }
    }
  }

  /// Phase 2, radio sample: the serving link's instantaneous RSRP, SNR and
  /// delay-Doppler SNR (frozen plus corruption while pilots are out), the
  /// throughput sum and the pre-failure SNR window.
  RadioSample sample_radio(double t, UeContext& u) {
    RadioSample r;
    r.pilot_out = faults_.active(FaultKind::kPilotOutage, t);
    r.pilot_sigma = faults_.magnitude(FaultKind::kPilotOutage, t);
    r.in_hole = env_.position_in_hole(u.pos);
    ServingState& sv = r.sv;
    sv.cell_idx = static_cast<std::size_t>(u.serving);
    sv.id = env_.cells()[sv.cell_idx].id;
    const double sv_atten_db = blackout_db_ + crash_db(sv.cell_idx);
    const double sv_mean = env_.mean_rsrp_dbm(sv.cell_idx, u.pos, r.in_hole);
    sv.rsrp_dbm = env_.instant_rsrp_from_mean(sv_mean, *u.rng) - sv_atten_db;
    sv.dd_snr_db = env_.dd_snr_from_mean(sv_mean, *u.rng) - sv_atten_db;
    sv.snr_db = env_.snr_db_from_rsrp(sv.rsrp_dbm);
    sv.bandwidth_hz = env_.cells()[sv.cell_idx].bandwidth_hz;
    u.cur_snr = sv.snr_db;
    if (r.pilot_out) {
      // Pilots are gone: the delay-Doppler estimate freezes at its last
      // fresh value and accumulates corruption.
      if (!std::isnan(u.last_dd[sv.cell_idx]))
        sv.dd_snr_db = u.last_dd[sv.cell_idx] - sv_atten_db;
      sv.dd_snr_db += u.rng->gaussian(0.0, r.pilot_sigma);
    } else {
      u.last_dd[sv.cell_idx] = sv.dd_snr_db + sv_atten_db;
      u.pilot_fresh_t = t;
    }
    u.throughput_sum_bps += common::shannon_capacity_bps(
        sv.bandwidth_hz, common::db_to_lin(sv.snr_db));
    u.snr_window.push_back({t, sv.snr_db});
    while (!u.snr_window.empty() && t - u.snr_window.front().first > 5.0)
      u.snr_window.pop_front();
    return r;
  }

  /// Phase 3, execution completion (T304 window): after the interruption
  /// the UE attaches to the target if it can connect there, else T304
  /// expires into re-establishment on the prepared target. Returns false
  /// on T304 expiry.
  bool complete_execution(double t, UeContext& u, const RadioSample& r) {
    if (!u.in_phase(Phase::kExecuting) || !u.attempt->due(t)) return true;
    const std::size_t target = u.attempt->exec_idx;
    const double tgt_rsrp = env_.mean_rsrp_dbm(target, u.pos, r.in_hole) -
                            blackout_db_ - crash_db(target);
    const double tgt_snr = env_.snr_db_from_rsrp(tgt_rsrp);
    if (tgt_snr >= kMinConnectSnrDb) {
      attach(t, u, target, r.sv.snr_db);
      return true;
    }
    // T304 expiry: the target evaporated during execution. Fall back to
    // re-establishment on the prepared target instead of a silent success
    // or a bare RLF search.
    ++u.stats.t304_expiries;
    log_event(u, t, EventKind::kT304Expiry, u.serving,
              static_cast<int>(target), tgt_snr);
    const int prepared = static_cast<int>(u.attempt->target_idx);
    record_failure(u, t, FailureCause::kFeedbackDelayLoss);
    u.outage_reestablish_s = kT304Reestablish_s;
    u.preferred_target = prepared;
    return false;
  }

  /// The handover completes onto `target`: serving cell, context and
  /// timers reset, post-handover blanking, and loop bookkeeping.
  void attach(double t, UeContext& u, std::size_t target, double snr_db) {
    ++u.stats.successful_handovers;
    const int prev = u.serving;
    u.serving = static_cast<int>(target);
    // A completed handover re-establishes the UE context at the target: a
    // restarted BS that lost its prepared contexts is made whole again the
    // moment a UE successfully attaches to it.
    u.context_lost[target] = false;
    u.manager->on_serving_changed(t, target);
    u.oos_count = u.is_count = 0;
    u.t310_started = -1.0;
    u.last_report_loss_t = u.last_cmd_loss_t = -1e9;
    u.suppress_until = t + kPostHoSuppress_s;
    log_event(u, t, EventKind::kHandoverComplete, prev, u.serving, snr_db);
    u.ho_times.push_back(t);
    // Loop bookkeeping: returning to a recently-serving cell.
    bool is_loop = false;
    for (const auto& [ts, idx] : u.recent_serving) {
      if (t - ts <= kLoopWindow_s && idx == static_cast<int>(target)) {
        is_loop = true;
        break;
      }
    }
    u.recent_serving.push_back({t, u.serving});
    while (!u.recent_serving.empty() &&
           t - u.recent_serving.front().first > kLoopWindow_s)
      u.recent_serving.pop_front();
    if (is_loop) {
      ++u.stats.loop_handovers;
      const auto& tgt_cell = env_.cells()[target];
      const auto& prev_cell = env_.cells()[static_cast<std::size_t>(prev)];
      const bool conflict =
          pair_conflicts_ &&
          pair_conflicts_(tgt_cell.id.cell, prev_cell.id.cell);
      if (conflict) ++u.stats.conflict_loop_handovers;
      if (!u.current_loop_episode) {
        ++u.stats.loop_episodes;
        if (tgt_cell.id.channel == prev_cell.id.channel)
          ++u.stats.intra_freq_loop_episodes;
        if (conflict) {
          ++u.stats.conflict_loop_episodes;
          if (tgt_cell.id.channel == prev_cell.id.channel)
            ++u.stats.intra_freq_conflict_loops;
        }
        u.current_loop_episode = true;
      }
    } else {
      u.current_loop_episode = false;
    }
    u.attempt.reset();
  }

  /// Phase 4, radio link failure detection (N310/T310/N311), paused while
  /// executing. An RLF is classified into Table 2 and ends the tick;
  /// returns false then.
  bool detect_rlf(double t, UeContext& u, const RadioSample& r) {
    if (u.in_phase(Phase::kExecuting)) return true;
    if (u.t310_started >= 0.0) {
      if (r.sv.snr_db >= kQoutSnrDb + kQinMarginDb) {
        if (++u.is_count >= kN311) {
          // Recovered: N311 consecutive in-sync indications stop T310.
          u.t310_started = -1.0;
          u.oos_count = u.is_count = 0;
        }
      } else {
        u.is_count = 0;
      }
    } else {
      if (r.sv.snr_db < kQoutSnrDb) {
        if (++u.oos_count >= kN310) {
          u.t310_started = t;
          u.is_count = 0;
        }
      } else {
        u.oos_count = 0;
      }
    }
    if (u.t310_started >= 0.0 && t - u.t310_started >= kT310_s) {
      const FailureCause cause = rlf_cause(t, u);
      log_event(u, t, EventKind::kRadioLinkFailure, u.serving, -1,
                r.sv.snr_db);
      record_failure(u, t, cause);
      return false;
    }
    return true;
  }

  /// Table 2 taxonomy. With nothing to hand over to it is a coverage
  /// hole. Otherwise the attempt in progress decides (attempt_cause);
  /// lost-signaling evidence is kept for a short memory window because a
  /// failed attempt is usually replaced by a retry before the RLF lands.
  /// A lost command outranks everything but a hole. With no attempt and
  /// no evidence, a fade of the only covering cell is a (soft) hole, and
  /// a better cell the manager could not see is a missed cell.
  FailureCause rlf_cause(double t, const UeContext& u) const {
    const int best =
        blackout_ ? -1
                  : env_.best_cell(u.pos, cfg_.min_coverage_rsrp_dbm, dead_);
    if (best < 0) return FailureCause::kCoverageHole;
    if ((u.attempt &&
         attempt_cause(u.attempt->phase) == FailureCause::kHoCommandLoss) ||
        t - u.last_cmd_loss_t < kLossMemory_s)
      return FailureCause::kHoCommandLoss;
    if (u.attempt || t - u.last_report_loss_t < kLossMemory_s)
      return FailureCause::kFeedbackDelayLoss;
    if (best == u.serving) return FailureCause::kCoverageHole;
    return u.manager->visible_cells().count(static_cast<std::size_t>(best))
               ? FailureCause::kFeedbackDelayLoss
               : FailureCause::kMissedCell;
  }

  /// Phase 5, attempt progress: whichever step of the attempt is due —
  /// the report's (re)transmission, the HANDOVER REQUEST's first send or
  /// its T-prep expiry, the command's delivery. A step may hand on to the
  /// next one within the same tick when that one is already due.
  void progress_attempt(double t, UeContext& u, const RadioSample& r) {
    if (!u.attempt) return;
    Attempt& a = *u.attempt;
    const double snr = r.sv.snr_db;
    if (a.phase == Phase::kReport && a.due(t)) deliver_report(t, u, snr);
    if (a.phase == Phase::kRequestDue) {
      if (a.due(t) && breaker_allows_prep(u, t)) send_prep(u, t, snr);
    } else if (a.phase == Phase::kRequestSent && t >= a.deadline_s) {
      if (a.prep_retries < kPrepMaxRetries) {
        send_prep(u, t, snr);
      } else {
        // Retries exhausted: a timed-out target counts against its
        // breaker just like an explicit reject.
        breaker_fail(u, t, a.target_idx);
        prep_fallback_or_fail(u, t);
      }
    }
    if (a.phase == Phase::kCommand && a.due(t)) deliver_command(t, u, snr);
  }

  /// The measurement report goes up: delivered, the serving BS decides
  /// (and with the backhaul on, then prepares the target); lost, it is
  /// retransmitted with bounded exponential backoff, then given up.
  void deliver_report(double t, UeContext& u, double snr_db) {
    Attempt& a = *u.attempt;
    const int tgt = static_cast<int>(a.target_idx);
    if (!deliver(u, t, snr_db, kUplinkAttempts, u.manager->waveform())) {
      if (a.report_retries < kReportMaxRetries) {
        ++a.report_retries;
        ++u.stats.report_retransmits;
        a.due_s = t + kReportRetryBackoff_s *
                          static_cast<double>(1 << (a.report_retries - 1));
        log_event(u, t, EventKind::kReportRetransmit, u.serving, tgt, snr_db);
      } else {
        a.phase = Phase::kReportLost;
        u.last_report_loss_t = t;
        log_event(u, t, EventKind::kReportLost, u.serving, tgt, snr_db);
      }
      return;
    }
    // A processing-stall fault spikes the base station's decision time on
    // top of the kDecisionProc_s budget.
    const double proc_s = kDecisionProc_s +
                          faults_.magnitude(FaultKind::kProcessingStall, t);
    double ready_s = t + proc_s;
    bool shed = false;
    if (use_cap_ && !u.manager->client_driven()) {
      // Network-side decision: the report occupies the serving BS's
      // control plane. Under overload it queues (the decision goes stale)
      // or is shed outright — the degraded-mode asymmetry: REM's
      // client-side prediction (client_driven) never enters this queue.
      const auto si = static_cast<std::size_t>(u.serving);
      top_up(t, si);
      if (const auto job =
              submit_job(t, u, si, BsJobKind::kRrcDecision, proc_s)) {
        ready_s = job->done_s;
      } else {
        shed = true;
      }
    }
    if (shed) {
      a.phase = Phase::kDecisionShed;
      u.last_report_loss_t = t;  // network never acted on it
    } else if (use_net_) {
      // The BS decides, then must get the target's admission over the
      // backhaul before any command can go out.
      a.phase = Phase::kRequestDue;
      a.due_s = ready_s;
    } else {
      a.phase = Phase::kCommand;
      a.due_s = ready_s + kRetrySpacing_s;  // decision + scheduling
    }
    u.stats.feedback_delays_s.push_back(t - a.decided_at_s);
    log_event(u, t, EventKind::kReportDelivered, u.serving, tgt, snr_db);
  }

  /// The handover command goes down. Delivered, execution starts (a
  /// duplication fault may let a stale copy of the previous command
  /// execute first); lost, the attempt is dead.
  void deliver_command(double t, UeContext& u, double snr_db) {
    Attempt& a = *u.attempt;
    if (!deliver(u, t, snr_db, kDownlinkAttempts, u.manager->waveform())) {
      a.phase = Phase::kCommandLost;
      u.last_cmd_loss_t = t;
      log_event(u, t, EventKind::kHoCommandLost, u.serving,
                static_cast<int>(a.target_idx), snr_db);
      return;
    }
    std::size_t target = a.target_idx;
    const double dup_p = faults_.magnitude(FaultKind::kCommandDuplication, t);
    if (dup_p > 0.0 && u.last_cmd_target >= 0 &&
        u.last_cmd_target != static_cast<int>(target) &&
        u.rng->bernoulli(std::min(1.0, dup_p))) {
      ++u.stats.duplicate_commands;
      log_event(u, t, EventKind::kHoCommandDuplicate, u.serving,
                u.last_cmd_target, snr_db);
      target = static_cast<std::size_t>(u.last_cmd_target);
    }
    log_event(u, t, EventKind::kHoCommandDelivered, u.serving,
              static_cast<int>(target), snr_db);
    ++u.stats.handovers;
    u.last_cmd_target = static_cast<int>(a.target_idx);
    // Execution: detach + random access, completes (or T304-fails) after
    // the interruption window.
    a.phase = Phase::kExecuting;
    a.exec_idx = target;
    a.due_s = t + kHoInterruption_s;
    u.oos_count = u.is_count = 0;
    u.t310_started = -1.0;
  }

  /// Phase 6, policy evaluation: with no live attempt and outside the
  /// post-handover blanking, the manager sees every candidate cell in
  /// reach and may decide, which opens a new attempt.
  void evaluate_policy(double t, UeContext& u, const RadioSample& r) {
    const bool idle = !u.attempt || u.attempt->dead_end();
    if (!(idle && t >= u.suppress_until)) return;
    // Only cells whose mean can clear the floor are visited, in ascending
    // index; the skipped ones would fail the filter below and draw
    // nothing, so the draws match a scan over every cell.
    const double floor_dbm = cfg_.min_coverage_rsrp_dbm - kCandidateMarginDb;
    env_.cells_in_reach(u.pos, floor_dbm, u.reach);
    // Pass 1: the candidates and their means, drawing nothing.
    u.obs.clear();
    u.cand_mean.clear();
    for (const std::size_t i : u.reach) {
      if (i == r.sv.cell_idx) continue;
      const double mean = env_.mean_rsrp_dbm(i, u.pos, r.in_hole);
      if (mean < floor_dbm) continue;
      u.obs.emplace_back().cell_idx = i;
      u.cand_mean.push_back(mean);
    }
    // Pass 2: every candidate's normals in one batch, in the order the
    // per-candidate draws took them: fading, delay-Doppler, then the
    // pilot corruption while pilots are out. All are drawn; only the
    // metrics the manager reads are transformed (Observation's NaN rule).
    const CandidateMetrics reads = u.manager->candidate_metrics(r.pilot_out);
    const std::size_t draws = r.pilot_out ? 3 : 2;
    // Bit k stands for each candidate's k-th variate.
    const std::uint32_t read_phases =
        (reads.instant ? 1u : 0u) |
        (reads.delay_doppler ? (r.pilot_out ? 6u : 2u) : 0u);
    u.cand_normals.resize(draws * u.obs.size());
    u.rng->normals_partial(u.cand_normals, draws, read_phases);
    // Pass 3: the observations.
    for (std::size_t k = 0; k < u.obs.size(); ++k) {
      Observation& o = u.obs[k];
      const std::size_t i = o.cell_idx;
      const double mean = u.cand_mean[k];
      const double* z = &u.cand_normals[draws * k];
      o.id = env_.cells()[i].id;
      const double atten_db = blackout_db_ + crash_db(i);
      o.rsrp_dbm = o.snr_db = o.dd_snr_db = kNaN;
      if (reads.instant) {
        o.rsrp_dbm = env_.instant_rsrp_from_normal(mean, z[0]) - atten_db;
        o.snr_db = env_.snr_db_from_rsrp(o.rsrp_dbm);
      }
      if (reads.delay_doppler) {
        o.dd_snr_db = env_.dd_snr_from_normal(mean, z[1]) - atten_db;
        if (r.pilot_out) {
          if (!std::isnan(u.last_dd[i]))
            o.dd_snr_db = u.last_dd[i] - atten_db;
          o.dd_snr_db += z[2] * r.pilot_sigma + 0.0;  // gaussian(0, sigma)
        } else {
          u.last_dd[i] = o.dd_snr_db + atten_db;
        }
      }
      if (r.pilot_out) o.estimate_age_s = t - u.pilot_fresh_t;
      o.bandwidth_hz = env_.cells()[i].bandwidth_hz;
      if (load_ads_) {
        const auto& ad = load_ad_[i];
        if (ad.second >= 0.0 && t - ad.second <= cfg_.load_ad_staleness_s) {
          o.advertised_load = ad.first;
          u.stats.load_ad_age_max_s =
              std::max(u.stats.load_ad_age_max_s, t - ad.second);
        }
      }
      if (!u.breakers.empty() && u.breakers[i].refuses(t)) {
        o.breaker_open = true;
        ++u.stats.breaker_skips;
      }
    }
    const auto decision = u.manager->update(t, r.sv, u.obs);
    if (!decision) return;
    log_event(u, t, EventKind::kMeasurementTriggered, u.serving,
              static_cast<int>(decision->target_idx), r.sv.snr_db);
    Attempt a;
    a.target_idx = decision->target_idx;
    a.decided_at_s = t;
    a.due_s = t + decision->feedback_delay_s;
    a.fallback_idx = decision->fallback_idx;
    u.attempt = a;
  }

  /// Phase 7, degraded-mode tracking: log the manager's degraded-mode
  /// edges and accumulate the time spent degraded.
  void track_degraded(double t, UeContext& u, const RadioSample& r) {
    const bool degraded = u.manager->degraded_mode();
    if (degraded != u.degraded_prev) {
      log_event(u, t,
                degraded ? EventKind::kDegradedEnter
                         : EventKind::kDegradedExit,
                u.serving, -1, r.sv.snr_db);
      if (degraded) ++u.stats.degraded_enters;
      u.degraded_prev = degraded;
    }
    if (degraded) u.stats.degraded_time_s += cfg_.tick_s;
  }

  /// End-of-tick observer snapshot, once per UE per simulated tick. Reads
  /// only — no RNG draws — so attaching an observer never changes a run's
  /// results.
  void emit_tick(UeContext& u, double t_now) {
    if (!cfg_.observer) return;
    focus(u.id);
    TickView v;
    v.t_s = t_now;
    v.ue = u.id;
    v.serving = u.serving;
    v.serving_snr_db = u.cur_snr;
    v.in_outage = u.outage_started >= 0.0;
    v.executing = u.in_phase(Phase::kExecuting);
    v.t310_running = u.t310_started >= 0.0;
    v.oos_count = u.oos_count;
    v.is_count = u.is_count;
    v.report_pending = u.in_phase(Phase::kReport);
    v.prep_pending = u.in_phase(Phase::kRequestDue) || u.in_phase(Phase::kRequestSent);
    v.command_pending = u.in_phase(Phase::kCommand);
    v.pilot_fault = faults_.active(FaultKind::kPilotOutage, t_now);
    v.blackout = faults_.active(FaultKind::kCoverageBlackout, t_now);
    v.estimate_age_s = v.pilot_fault ? t_now - u.pilot_fresh_t : 0.0;
    v.degraded = u.degraded_prev;
    if (use_cap_) {
      for (const auto& st : stations_)
        v.bs_queue_peak = std::max(v.bs_queue_peak, st.occupancy(t_now));
    }
    v.crashed_cells = dead_count_;
    for (const auto& br : u.breakers)
      if (br.state() == BreakerState::kOpen) ++v.breakers_open;
    cfg_.observer->on_tick(v);
  }

  /// End-of-run stats finalization and the observer run-end protocol.
  void finish() {
    for (auto& u : ues_) {
      u.stats.sim_time_s = cfg_.duration_s;
      if (u.ticks > 0) {
        u.stats.mean_throughput_bps =
            u.throughput_sum_bps / static_cast<double>(u.ticks);
        u.stats.downtime_fraction = static_cast<double>(u.outage_ticks) /
                                    static_cast<double>(u.ticks);
      }
      if (u.ho_times.size() >= 2) {
        u.stats.avg_handover_interval_s =
            (u.ho_times.back() - u.ho_times.front()) /
            static_cast<double>(u.ho_times.size() - 1);
      }
    }
    if (netw_) {
      // Transport totals land on UE 0, the reference UE: a fleet of one
      // then matches run() field-for-field, and per-UE sums still equal
      // the fleet aggregate (UEs 1..N-1 carry zeros).
      const auto& ts = netw_->stats();
      auto& s0 = ues_.front().stats;
      s0.backhaul_sent = ts.sent;
      s0.backhaul_delivered = ts.delivered;
      s0.backhaul_dropped_loss = ts.dropped_loss;
      s0.backhaul_dropped_partition = ts.dropped_partition;
      s0.backhaul_dropped_queue = ts.dropped_queue;
      s0.backhaul_dropped_crash = ts.dropped_crash;
      s0.backhaul_duplicated = ts.duplicated;
      s0.backhaul_reordered = ts.reordered;
      s0.backhaul_latency_sum_s = ts.latency_sum_s;
    }
    if (use_cap_) {
      // Jobs still scheduled at run end: conservation's in-flight term
      // (submitted == served + shed + flushed + inflight), attributed to
      // each job's owning UE.
      for (const auto& st : stations_)
        for (const auto& job : st.unfinished_jobs())
          ++ue_of(job.ue).stats.bs_jobs_inflight_end;
    }
    if (cfg_.observer) {
      if (!fleet_mode_) {
        cfg_.observer->on_run_end(ues_.front().stats);
      } else {
        for (auto& u : ues_) {
          focus(u.id);
          cfg_.observer->on_run_end(u.stats);
        }
      }
    }
  }

  const RadioEnv& env_;
  const SimConfig& cfg_;
  const phy::BlerModel& bler_;
  const std::function<bool(int, int)>& pair_conflicts_;
  const bool fleet_mode_;
  const bool use_net_;
  const bool use_cap_;

  FaultInjector faults_;
  std::optional<net::BackhaulNetwork> netw_;
  std::vector<BsStation> stations_;
  std::vector<UeContext> ues_;
  std::uint64_t next_seq_ = 1;  ///< transaction ids for all backhaul msgs
  // Crash state. A dead BS stays radio-silent, its signaling is dropped,
  // and every UE's context there is lost until re-established. The
  // single-cell crash-restart window keeps its dedicated slot; region
  // outages kill whole failure domains, so liveness is tracked as a mask.
  int crashed_cell_ = -1;        ///< kBsCrashRestart window's victim
  bool crash_owns_cell_ = false; ///< the crash window actually killed it
  std::vector<char> dead_;       ///< per-cell: any fault kind killed it
  int dead_count_ = 0;           ///< number of set entries in dead_
  // Region-outage window state: the chosen domain, how many members have
  // had their staggered onset so far, and which cells this window killed
  // (only those restart at window close).
  bool region_active_ = false;
  int region_domain_ = -1;
  int region_next_ = 0;
  double region_open_s_ = 0.0;
  std::vector<int> region_killed_;
  // Load advertisement: latest (utilization, stamped-at) per cell, shared
  // by all UEs (the ad rides broadcast control frames). Stamp < 0 means
  // never advertised. Empty when the feature is off.
  bool load_ads_ = false;
  std::vector<std::pair<double, double>> load_ad_;
  std::array<bool, kNumFaultKinds> fault_was_active_{};
  // This instant's shared fault values, computed once per shared_step.
  bool blackout_ = false;
  double blackout_db_ = 0.0;
  double overload_u_ = 0.0;
  double svc_inflation_ = 1.0;
  bool bh_partition_ = false;
  double bh_loss_ = 0.0;
  double bh_delay_ = 0.0;
  int cur_obs_ue_ = -1;  ///< last UE announced via SimObserver::on_ue
};

/// What both entry points check before the first tick; NaN fails every
/// test. The tick loop only ends for a positive step: zero never reaches
/// the horizon and a negative step walks backwards. A UE needs a cell to
/// attach to and a finite, non-negative speed. The candidate floor is the
/// lowest a run passes to RadioEnv, whose shadowing windows cover floors
/// down to kWindowFloorDbm.
void require_runnable(const std::string& who, const RadioEnv& env,
                      const SimConfig& cfg) {
  if (!(cfg.tick_s > 0.0))
    throw std::invalid_argument(who + ": tick_s must be > 0, got " +
                                std::to_string(cfg.tick_s));
  if (env.cells().empty())
    throw std::invalid_argument(who + ": the radio environment has no cells");
  if (!(cfg.speed_kmh >= 0.0 && std::isfinite(cfg.speed_kmh)))
    throw std::invalid_argument(who +
                                ": speed_kmh must be finite and >= 0, got " +
                                std::to_string(cfg.speed_kmh));
  if (!(cfg.min_coverage_rsrp_dbm - kCandidateMarginDb >= kWindowFloorDbm))
    throw std::invalid_argument(
        who + ": min_coverage_rsrp_dbm must be >= " +
        std::to_string(kWindowFloorDbm + kCandidateMarginDb) +
        " dBm, keeping the candidate floor at or above kWindowFloorDbm; "
        "got " +
        std::to_string(cfg.min_coverage_rsrp_dbm));
}

/// A speed band [lo, hi] a fleet UE draws from: 0 < lo <= hi < inf.
bool valid_speed_band(double lo_kmh, double hi_kmh) {
  return lo_kmh > 0.0 && hi_kmh >= lo_kmh && std::isfinite(hi_kmh);
}

}  // namespace

std::string event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kMeasurementTriggered: return "measurement_triggered";
    case EventKind::kReportDelivered: return "report_delivered";
    case EventKind::kReportLost: return "report_lost";
    case EventKind::kHoCommandDelivered: return "ho_command_delivered";
    case EventKind::kHoCommandLost: return "ho_command_lost";
    case EventKind::kHandoverComplete: return "handover_complete";
    case EventKind::kRadioLinkFailure: return "radio_link_failure";
    case EventKind::kReestablished: return "reestablished";
    case EventKind::kFaultStart: return "fault_start";
    case EventKind::kFaultEnd: return "fault_end";
    case EventKind::kReportRetransmit: return "report_retransmit";
    case EventKind::kT304Expiry: return "t304_expiry";
    case EventKind::kHoCommandDuplicate: return "ho_command_duplicate";
    case EventKind::kDegradedEnter: return "degraded_enter";
    case EventKind::kDegradedExit: return "degraded_exit";
    case EventKind::kPrepRequest: return "prep_request";
    case EventKind::kPrepRetry: return "prep_retry";
    case EventKind::kPrepAck: return "prep_ack";
    case EventKind::kPrepReject: return "prep_reject";
    case EventKind::kPrepFallback: return "prep_fallback";
    case EventKind::kPrepFailed: return "prep_failed";
    case EventKind::kContextFetchFailed: return "context_fetch_failed";
    case EventKind::kBsQueueShed: return "bs_queue_shed";
    case EventKind::kBsJobDone: return "bs_job_done";
    case EventKind::kAdmissionReject: return "admission_reject";
    case EventKind::kAdmissionRetry: return "admission_retry";
    case EventKind::kBsCrash: return "bs_crash";
    case EventKind::kBsRestart: return "bs_restart";
    case EventKind::kContextStale: return "context_stale";
    case EventKind::kCascadeInject: return "cascade_inject";
    case EventKind::kBreakerTrip: return "breaker_trip";
    case EventKind::kBreakerProbe: return "breaker_probe";
    case EventKind::kBreakerClose: return "breaker_close";
  }
  throw std::invalid_argument("event_kind_name: invalid EventKind value " +
                              std::to_string(static_cast<int>(k)));
}

std::string failure_cause_name(FailureCause c) {
  switch (c) {
    case FailureCause::kFeedbackDelayLoss: return "feedback delay/loss";
    case FailureCause::kMissedCell: return "missed cell";
    case FailureCause::kHoCommandLoss: return "handover cmd. loss";
    case FailureCause::kCoverageHole: return "coverage hole";
  }
  throw std::invalid_argument(
      "failure_cause_name: invalid FailureCause value " +
      std::to_string(static_cast<int>(c)));
}

double SimStats::failure_ratio_excluding_holes() const {
  const auto it = failures_by_cause.find(FailureCause::kCoverageHole);
  const int holes = it != failures_by_cause.end() ? it->second : 0;
  const int denom = handovers + failures;
  return denom > 0 ? static_cast<double>(failures - holes) / denom : 0.0;
}

Simulator::Simulator(const RadioEnv& env, const SimConfig& cfg,
                     const phy::BlerModel& bler, common::Rng rng)
    : env_(env), cfg_(cfg), bler_(bler), rng_(std::move(rng)) {}

SimStats Simulator::run(MobilityManager& manager,
                        const std::function<bool(int, int)>& pair_conflicts) {
  require_runnable("run", env_, cfg_);
  FleetEngine eng(env_, cfg_, bler_, rng_, pair_conflicts,
                  /*fleet_mode=*/false);
  // The single UE rides the base RNG stream directly (after the engine's
  // faults/backhaul forks), exactly like the pre-refactor loop.
  eng.add_ue(&manager, &rng_, cfg_.speed_kmh, 0.0);
  eng.run_tick_loop();
  auto stats = eng.take_stats();
  return std::move(stats.front());
}

FleetResult Simulator::run_fleet(
    const std::function<std::unique_ptr<MobilityManager>(int)>& make_manager,
    const std::function<bool(int, int)>& pair_conflicts) {
  if (cfg_.fleet_size < 1)
    throw std::invalid_argument("run_fleet: fleet_size must be >= 1, got " +
                                std::to_string(cfg_.fleet_size));
  require_runnable("run_fleet", env_, cfg_);
  if (!make_manager)
    throw std::invalid_argument("run_fleet: make_manager must be callable");
  if (!valid_speed_band(cfg_.fleet.speed_min_kmh, cfg_.fleet.speed_max_kmh))
    throw std::invalid_argument(
        "run_fleet: fleet speed range must satisfy 0 < min <= max < inf, "
        "got [" +
        std::to_string(cfg_.fleet.speed_min_kmh) + ", " +
        std::to_string(cfg_.fleet.speed_max_kmh) + "]");
  if (!(cfg_.fleet.start_spread_m >= 0.0 &&
        std::isfinite(cfg_.fleet.start_spread_m)))
    throw std::invalid_argument(
        "run_fleet: fleet start_spread_m must be finite and >= 0, got " +
        std::to_string(cfg_.fleet.start_spread_m));
  if (!cfg_.fleet.classes.empty()) {
    int total = 0;
    for (std::size_t i = 0; i < cfg_.fleet.classes.size(); ++i) {
      const auto& c = cfg_.fleet.classes[i];
      if (c.count < 0)
        throw std::invalid_argument(
            "run_fleet: fleet class " + std::to_string(i) + " ('" + c.name +
            "') has negative count " + std::to_string(c.count));
      if (!valid_speed_band(c.speed_lo_kmh, c.speed_hi_kmh))
        throw std::invalid_argument(
            "run_fleet: fleet class " + std::to_string(i) + " ('" + c.name +
            "') speed band must satisfy 0 < lo <= hi < inf, got [" +
            std::to_string(c.speed_lo_kmh) + ", " +
            std::to_string(c.speed_hi_kmh) + "]");
      total += c.count;
    }
    if (total != cfg_.fleet_size)
      throw std::invalid_argument(
          "run_fleet: fleet class counts sum to " + std::to_string(total) +
          " but fleet_size is " + std::to_string(cfg_.fleet_size));
  }

  // The engine forks faults, then backhaul, from the base stream — the
  // same order as run() — before any per-UE derivation.
  FleetEngine eng(env_, cfg_, bler_, rng_, pair_conflicts,
                  /*fleet_mode=*/true);
  const int n = cfg_.fleet_size;

  // Per-UE stream derivation, in UE-id order. UE 0 keeps the base stream
  // and the scenario's exact speed/start (no extra draws), so a fleet of
  // one is bit-identical to run(). Every further UE forks its own stream
  // and derives speed and start offset from that stream's first draws.
  std::vector<common::Rng> ue_rngs;
  ue_rngs.reserve(n > 1 ? static_cast<std::size_t>(n - 1) : 0);
  std::vector<double> speeds(static_cast<std::size_t>(n), cfg_.speed_kmh);
  std::vector<double> starts(static_cast<std::size_t>(n), 0.0);
  // Class lookup for mixed-speed populations: UE k belongs to the class
  // whose cumulative count covers k (classes fill in declaration order).
  const auto class_band = [&](int k) {
    int cum = 0;
    for (const auto& c : cfg_.fleet.classes) {
      cum += c.count;
      if (k < cum) return std::pair<double, double>{c.speed_lo_kmh,
                                                    c.speed_hi_kmh};
    }
    // Unreachable: the counts were validated to sum to fleet_size.
    return std::pair<double, double>{cfg_.fleet.speed_min_kmh,
                                     cfg_.fleet.speed_max_kmh};
  };
  for (int k = 1; k < n; ++k) {
    ue_rngs.push_back(rng_.fork());
    auto& r = ue_rngs.back();
    const auto [lo, hi] =
        cfg_.fleet.classes.empty()
            ? std::pair<double, double>{cfg_.fleet.speed_min_kmh,
                                        cfg_.fleet.speed_max_kmh}
            : class_band(k);
    speeds[static_cast<std::size_t>(k)] = r.uniform(lo, hi);
    starts[static_cast<std::size_t>(k)] =
        cfg_.fleet.start_spread_m > 0.0
            ? r.uniform(0.0, cfg_.fleet.start_spread_m)
            : 0.0;
  }

  std::vector<std::unique_ptr<MobilityManager>> managers;
  managers.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    managers.push_back(make_manager(k));
    if (!managers.back())
      throw std::invalid_argument(
          "run_fleet: make_manager returned nullptr for UE " +
          std::to_string(k));
  }
  for (int k = 0; k < n; ++k) {
    eng.add_ue(managers[static_cast<std::size_t>(k)].get(),
               k == 0 ? &rng_ : &ue_rngs[static_cast<std::size_t>(k - 1)],
               speeds[static_cast<std::size_t>(k)],
               starts[static_cast<std::size_t>(k)]);
  }

  eng.run_tick_loop();

  FleetResult out;
  out.per_ue = eng.take_stats();
  out.aggregate = merge_fleet_stats(out.per_ue);
  return out;
}

}  // namespace rem::sim
