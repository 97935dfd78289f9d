#include "sim/tcp.hpp"

#include <algorithm>
#include <stdexcept>

namespace rem::sim {

double tcp_stall_for_outage(double outage_s, double phase01) {
  // The outage begins `phase01 * rtt` into a normal transfer round; the
  // first loss is detected one RTO after the last in-flight data died.
  double t = phase01 * kTcpRtt_s;  // time since outage start of first loss
  double rto = kTcpBaseRto_s;
  // Retransmissions fire at t + rto, t + rto + 2 rto, ... Data resumes at
  // the first retransmission that lands after the link is back.
  double fire = t + rto;
  while (fire < outage_s) {
    rto = std::min(rto * 2.0, kTcpMaxRto_s);
    fire += rto;
  }
  // Stall = time from outage start until that successful retransmission.
  return fire;
}

std::vector<double> tcp_stalls(const std::vector<double>& outages_s,
                               const std::vector<double>& phases01) {
  if (outages_s.size() != phases01.size())
    throw std::invalid_argument("tcp_stalls: phase count mismatch");
  std::vector<double> out;
  out.reserve(outages_s.size());
  for (std::size_t i = 0; i < outages_s.size(); ++i)
    out.push_back(tcp_stall_for_outage(outages_s[i], phases01[i]));
  return out;
}

}  // namespace rem::sim
