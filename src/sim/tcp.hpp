// TCP stall model over radio outages (Fig. 9).
//
// When the radio link fails, TCP keeps retransmitting with exponential RTO
// backoff; the connection only resumes at the first retransmission attempt
// *after* the link is back, so a radio outage of length L stalls TCP for
// L plus the residual backoff — the amplification the paper shows in
// Fig. 9b (a 2.3 s radio gap turning into a ~9 s TCP stall).
#pragma once

#include <vector>

namespace rem::sim {

/// Initial RTO (RFC 6298 floor-ish on LTE).
constexpr double kTcpBaseRto_s = 0.2;
constexpr double kTcpRtt_s = 0.05;  ///< healthy-path RTT

struct TcpConfig {
  double max_rto_s = 60.0;
};

/// Stall time experienced by a continuously backlogged TCP flow for one
/// radio outage of `outage_s` starting at a random phase within the RTO
/// cycle (`phase01` in [0,1) selects it deterministically).
double tcp_stall_for_outage(double outage_s, const TcpConfig& cfg,
                            double phase01);

/// Total and per-outage stall times for a sequence of outages. `phases`
/// must be the same length as `outages` (use Rng::uniform(0,1) draws).
std::vector<double> tcp_stalls(const std::vector<double>& outages_s,
                               const std::vector<double>& phases01,
                               const TcpConfig& cfg = {});

}  // namespace rem::sim
