// Trace-style network simulator: a client rides a rail line through the
// deployment while a pluggable mobility manager (legacy 4G/5G or REM) runs
// triggering, decision, and execution. The simulator owns the parts both
// designs share — radio dynamics, signaling transport with HARQ/ARQ
// attempts, radio-link-failure detection (N310/T310/N311 counters),
// handover execution with a T304-style failure timer, re-establishment —
// and classifies every failure into the Table 2 taxonomy. A seeded
// FaultInjector can distort any of those paths (sim/fault_injector.hpp).
#pragma once

#include "net/backhaul.hpp"
#include "phy/bler_model.hpp"
#include "sim/bs_capacity.hpp"
#include "sim/events.hpp"
#include "sim/fault_injector.hpp"
#include "sim/observer.hpp"
#include "sim/radio_env.hpp"
#include "sim/stats_table.hpp"

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace rem::sim {

/// What the manager sees about one candidate cell this tick. The three
/// radio metrics come in two groups, the instantaneous one (`rsrp_dbm`
/// and `snr_db`) and the delay-Doppler one (`dd_snr_db`). The simulator
/// computes only the groups the manager declares it reads
/// (MobilityManager::candidate_metrics) and sets the others to NaN; every
/// field outside those groups is always set.
struct Observation {
  std::size_t cell_idx = 0;
  mobility::CellId id;
  double rsrp_dbm = -160.0;   ///< instantaneous (fast-fading) RSRP
  double snr_db = -40.0;      ///< SNR of that RSRP (direct measurement)
  double dd_snr_db = -40.0;   ///< stable delay-Doppler SNR
  double bandwidth_hz = 20e6; ///< cell bandwidth (capacity-based policies)
  /// Age of the delay-Doppler estimate behind `dd_snr_db`. 0 while pilots
  /// are fresh; grows during a pilot outage, when `dd_snr_db` is the last
  /// good value plus corruption. Managers use it to detect staleness.
  double estimate_age_s = 0.0;
  /// Last load advertisement heard from this cell over the backhaul
  /// (utilization in [0, 1]); -1 while unknown or older than
  /// SimConfig::load_ad_staleness_s. Managers may tie-break toward
  /// less-loaded candidates but must never widen the candidate set on it.
  double advertised_load = -1.0;
  /// This UE's per-target circuit breaker is open for the cell: recent
  /// consecutive preparation failures/busy-rejects, cool-down not yet
  /// elapsed. Managers must not select it as a handover target.
  bool breaker_open = false;
};

struct ServingState {
  std::size_t cell_idx = 0;
  mobility::CellId id;
  double rsrp_dbm = -160.0;
  double dd_snr_db = -40.0;
  double snr_db = -40.0;      ///< instantaneous link SNR (drives BLER)
  double bandwidth_hz = 20e6;
};

/// A manager's handover decision: measured/estimated feedback is ready
/// `feedback_delay_s` after the triggering tick. `fallback_idx` names the
/// second-best policy-consistent target (-1 = none): if the primary
/// target rejects admission or the backhaul partitions during
/// preparation, the simulator retries preparation toward the fallback
/// before declaring the attempt failed.
struct HandoverDecision {
  std::size_t target_idx = 0;
  double feedback_delay_s = 0.0;
  int fallback_idx = -1;
};

/// Which candidate metric groups a manager's update() reads (the
/// Observation NaN rule). Both by default.
struct CandidateMetrics {
  bool instant = true;        ///< Observation::rsrp_dbm and snr_db
  bool delay_doppler = true;  ///< Observation::dd_snr_db
};

/// The pluggable mobility management design under test.
class MobilityManager {
 public:
  virtual ~MobilityManager() = default;
  virtual std::string name() const = 0;
  /// Waveform carrying this design's signaling (sets its loss behaviour).
  virtual phy::Waveform waveform() const = 0;
  /// Per-tick policy evaluation. Returns a decision at most once per
  /// handover attempt; the simulator handles delivery and execution.
  virtual std::optional<HandoverDecision> update(
      double t, const ServingState& serving,
      const std::vector<Observation>& neighbors) = 0;
  /// The candidate metrics the next update() reads, while pilots are out
  /// (the only time Observation::estimate_age_s is non-zero) or fresh.
  /// The simulator still draws every candidate's variates, so the
  /// declaration changes no value a manager reads; it only skips
  /// computing the rest. A manager that reads a delay-Doppler SNR (a
  /// candidate's or the serving cell's) while pilots are out must declare
  /// `delay_doppler` while they are fresh too: an outage holds each
  /// cell's last fresh value, which a candidate keeps only when computed.
  virtual CandidateMetrics candidate_metrics(bool /*pilots_out*/) const {
    return {};
  }
  /// Cells the manager is currently able to measure/estimate (classifies
  /// "missed cell" failures). Indices into RadioEnv::cells().
  virtual std::set<std::size_t> visible_cells() const = 0;
  /// Serving cell changed (handover completed or re-established).
  virtual void on_serving_changed(double t, std::size_t new_idx) = 0;
  /// True while the manager has fallen back from its preferred input to a
  /// degraded one (e.g. REM bypassing stale cross-band estimates). The
  /// simulator samples this every tick to log degraded-mode enter/exit.
  virtual bool degraded_mode() const { return false; }
  /// True when the handover decision is computed on the client (REM's
  /// design): the decision then bypasses the serving BS's control-plane
  /// processing queue, so a BS overload cannot stall or shed it. Legacy
  /// network-side designs leave this false and pay BS capacity for every
  /// decision (the paper's degraded-mode asymmetry, made measurable).
  virtual bool client_driven() const { return false; }
};

/// One mobility class of a mixed-speed fleet population: `count` UEs
/// drawing their speed uniformly from [speed_lo_kmh, speed_hi_kmh].
/// Compiled scenarios (rem::scenario) map the paper's pedestrian /
/// vehicular / HST-350 populations onto these bands.
struct FleetSpeedClass {
  std::string name;        ///< label for diagnostics ("pedestrian", ...)
  int count = 0;           ///< UEs of this class (UE 0 fills the first slot)
  double speed_lo_kmh = 200.0;
  double speed_hi_kmh = 350.0;
};

/// Multi-UE fleet knobs (Simulator::run_fleet). UE 0 always uses the
/// scenario's SimConfig::speed_kmh and starts at position 0 — and draws
/// nothing extra — so a fleet of one is bit-identical to a single-UE
/// run(). Every further UE forks its own RNG stream from the simulation
/// RNG (in UE-id order) and derives a mixed speed and start offset from
/// that stream's first draws.
struct FleetConfig {
  /// Speed range (km/h) for UE 1..N-1, drawn uniformly per UE. Ignored
  /// when `classes` is non-empty.
  double speed_min_kmh = 200.0;
  double speed_max_kmh = 350.0;
  /// Start-position spread (m): UE 1..N-1 begin uniformly in [0, spread).
  double start_spread_m = 2000.0;
  /// Mixed-speed population: when non-empty, the class counts must sum to
  /// SimConfig::fleet_size and UE k takes the class whose cumulative count
  /// covers k (classes fill in order). UE 0 still rides the scenario's
  /// exact speed_kmh without drawing — its slot belongs to the first
  /// class — and every other UE draws one uniform speed from its class
  /// band, so the per-UE draw count (and therefore the RNG contract of
  /// run_fleet) is identical to the single-band path. Empty (the default)
  /// preserves the [speed_min_kmh, speed_max_kmh] behaviour bit-for-bit.
  std::vector<FleetSpeedClass> classes;
};

enum class FailureCause {
  kFeedbackDelayLoss,  ///< feedback too slow or lost in delivery (§3.1)
  kMissedCell,         ///< viable cell invisible to the decision (§3.2)
  kHoCommandLoss,      ///< handover command lost in delivery (§3.3)
  kCoverageHole,       ///< nothing to hand over to
};

/// Table 2 row label. Throws std::invalid_argument on a value outside the
/// enum instead of returning a placeholder.
std::string failure_cause_name(FailureCause c);

/// Radio link failure detection, N310/T310/N311 style: `kN310`
/// consecutive ticks with serving SNR below Qout start T310; RLF is
/// declared when T310 runs for `kT310_s`, unless `kN311` consecutive
/// in-sync ticks (SNR >= Qout + the Qin margin) cancel it. These values
/// reproduce the seed's single 0.5 s Qout timer at tick 10 ms.
constexpr int kN310 = 5;
constexpr double kT310_s = 0.45;
constexpr int kN311 = 3;
static_assert(kN310 >= 1 && kT310_s > 0.0 && kN311 >= 1,
              "RLF detection needs positive counters and a running T310");
/// Re-establishment after RLF: search + connect time.
constexpr double kReestablish_s = 0.8;
/// Handover-execution failure (T304 analogue): when the target cannot
/// be connected at execution time, fall back to re-establishment on the
/// prepared target, which is faster than a full RLF search because the
/// target already holds the UE context.
constexpr double kT304Reestablish_s = 0.3;
/// Ping-pong window: A->B->A within this window counts as a loop.
constexpr double kLoopWindow_s = 15.0;
/// Preparation retry budget: an unanswered HANDOVER REQUEST is re-sent
/// (T-prep, each timeout double the last) at most this many times before
/// the decision's fallback target is tried, then the attempt fails.
constexpr int kPrepMaxRetries = 4;
static_assert(kPrepMaxRetries >= 0, "a retry budget cannot be negative");
/// Simulation step: the loop runs `t += kTick_s` from 0 to the horizon.
constexpr double kTick_s = 0.010;
static_assert(kTick_s > 0.0, "the tick loop only ends for a positive step");
/// Minimum mean RSRP for a cell to count as coverage.
constexpr double kMinCoverageRsrpDbm = -120.0;

struct SimConfig {
  /// Read-only alias of kMinCoverageRsrpDbm, kept for readers that take
  /// the floor from a scenario's SimConfig (perfbench's radio probe).
  static constexpr double min_coverage_rsrp_dbm = kMinCoverageRsrpDbm;
  double speed_kmh = 300.0;
  double duration_s = 2000.0;
  /// Record a per-event signaling log (SimStats::events) — the simulated
  /// analogue of the paper's MobileInsight captures.
  bool record_events = false;
  /// Optional non-owning observation hook (sim/observer.hpp): receives the
  /// event stream, per-tick state snapshots, and the final stats. Used by
  /// rem::testkit::InvariantChecker; never changes simulation results.
  SimObserver* observer = nullptr;
  /// Fault schedule (empty = no faults, zero overhead on the hot path).
  FaultConfig faults;
  /// Inter-BS control-plane transport (rem::net). When enabled, handover
  /// preparation (HANDOVER REQUEST/ACK) and outage context fetch ride a
  /// lossy, delayed message network; when disabled, preparation is
  /// instantaneous and infallible (the pre-backhaul behaviour).
  net::BackhaulConfig backhaul;
  /// Per-BS control-plane capacity (sim/bs_capacity.hpp): processing
  /// slots + bounded FIFO signaling queue consumed by prep admission,
  /// context lookups, and network-side RRC decisions. Disabled restores
  /// the infinite-capacity, always-alive BS model.
  BsCapacityConfig bs_capacity;
  // --- Cascade resilience (all default-off: zero behavioural change and
  // --- zero extra RNG draws unless a scenario opts in) ---
  /// Staleness bound (s) for per-BS load advertisements piggybacked on
  /// backhaul control frames. > 0 enables the feature: every frame a BS
  /// sends carries its control-plane utilization, the UE keeps the latest
  /// per-cell value, and Observation::advertised_load exposes it while it
  /// is younger than this bound (stale values read as unknown). 0 (the
  /// default) disables advertisement entirely.
  double load_ad_staleness_s = 0.0;
  /// Per-target circuit breaker: trip after this many *consecutive*
  /// preparation failures/busy-rejects toward one target cell, then
  /// refuse it (Observation::breaker_open) until `breaker_cooldown_s`
  /// elapses, when one half-open probe preparation is allowed — success
  /// closes the breaker, failure re-trips it. 0 (the default) disables.
  int breaker_trip_k = 0;
  double breaker_cooldown_s = 2.0;
  /// Storm damping: scale every admission-backoff retry delay by a
  /// deterministic per-UE jitter in [1, 1 + storm_jitter_frac), drawn
  /// from the UE's own RNG stream, so a displaced fleet's retries
  /// desynchronize instead of hammering the next BS in lockstep. 0 (the
  /// default) draws nothing and keeps the legacy timing bit-for-bit.
  double storm_jitter_frac = 0.0;
  /// Number of UEs a run_fleet() carries. run() ignores it; run_fleet()
  /// rejects values < 1. UEs genuinely share BsStation slots, RRC queues,
  /// and the backhaul's in-flight capacity.
  int fleet_size = 1;
  /// Per-UE speed/start derivation for run_fleet().
  FleetConfig fleet;
};

/// Everything one run measured. The scalar counters come from the one
/// schema in sim/stats_table.hpp (REM_SIM_STATS_TABLE documents each
/// field's merge rule, digest policy, metric, and event recount); only the
/// containers below are declared by hand.
struct SimStats {
#define REM_STAT_MEMBER(type, name, ...) type name = 0;
  REM_SIM_STATS_TABLE(REM_STAT_MEMBER)
#undef REM_STAT_MEMBER
  /// Table 2 split of `failures`.
  std::map<FailureCause, int> failures_by_cause;
  std::vector<double> outage_durations_s;  ///< per RLF, until re-established
  std::vector<double> feedback_delays_s;   ///< per delivered report
  /// Serving-link SNR samples from the 5 s windows preceding each failure
  /// (decimated) — the Fig. 2b signaling-loss analysis window.
  std::vector<double> pre_failure_snrs_db;
  /// Per-event signaling log (only when SimConfig::record_events).
  EventLog events;

  double failure_ratio() const {
    const int denom = handovers + failures;
    return denom > 0 ? static_cast<double>(failures) / denom : 0.0;
  }
};

/// Result of a fleet run: one SimStats per UE (indexed by UE id) plus the
/// deterministic aggregate merged in UE-id order (sim/fleet.hpp —
/// merge_fleet_stats documents which fields sum and which are global).
struct FleetResult {
  std::vector<SimStats> per_ue;
  SimStats aggregate;
};

class Simulator {
 public:
  Simulator(const RadioEnv& env, const SimConfig& cfg,
            const phy::BlerModel& bler, common::Rng rng);

  /// Run the full scenario with the given manager and return statistics.
  /// `pair_conflicts(cell_a, cell_b)` (CellId::cell values) marks loop
  /// episodes caused by policy conflicts; pass an empty function to skip.
  /// Throws std::invalid_argument, before the first tick, unless the
  /// environment has a cell and cfg.speed_kmh is finite and >= 0.
  SimStats run(MobilityManager& manager,
               const std::function<bool(int, int)>& pair_conflicts = {});

  /// Multi-UE fleet run on the same fixed-step loop as run(): each tick
  /// steps the world, then every UE in UE-id order. cfg.fleet_size UEs
  /// share the radio environment, BsStation capacity, and backhaul
  /// transport, each with its own manager built by `make_manager(ue)`
  /// (called in UE-id order). UE 0 runs the scenario's exact single-UE parameters and RNG
  /// stream, so a fleet of one is bit-identical to run(); UEs 1..N-1
  /// derive mixed speeds and start offsets from per-UE forked streams
  /// (SimConfig::fleet). Per-UE stats come back indexed by UE id with the
  /// deterministic aggregate merged in UE-id order (sim/fleet.hpp).
  /// Throws std::invalid_argument when cfg.fleet_size < 1, run() would
  /// throw, a speed band is not 0 < lo <= hi < inf, the start spread is
  /// not finite and >= 0, or make_manager returns nullptr.
  FleetResult run_fleet(
      const std::function<std::unique_ptr<MobilityManager>(int)>&
          make_manager,
      const std::function<bool(int, int)>& pair_conflicts = {});

 private:
  const RadioEnv& env_;
  SimConfig cfg_;
  const phy::BlerModel& bler_;
  common::Rng rng_;
};

}  // namespace rem::sim
