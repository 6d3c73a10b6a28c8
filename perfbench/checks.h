// Correctness checks of the benchmark's outputs.
//
// Every check recomputes what it compares against in this file's own
// code — the exact Rayleigh orthogonal-STBC BER, node-to-node distances,
// cluster membership — rather than calling the library routine that
// produced the value.  Each returns an empty string when the output
// holds and a one-line reason otherwise; selftest.cpp feeds each one a
// deliberately wrong input and requires the reason.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comimo/net/comimonet.h"
#include "comimo/net/routing.h"
#include "comimo/service/client.h"
#include "comimo/service/job.h"

namespace perfbench {

/// Exact BER of Gray-mapped BPSK/QPSK/16-QAM over an i.i.d. Rayleigh
/// mt×mr orthogonal STBC with total-power normalization: per-bit SNR
/// ‖H‖²_F·γ_b/mt, ‖H‖²_F ~ Gamma(mt·mr, 1).  b ∈ {1, 2, 4}.
[[nodiscard]] double exact_stbc_ber(int b, unsigned mt, unsigned mr,
                                    double gamma_b_db);

/// One measured point of a link BER curve.
struct BerSample {
  double gamma_b_db = 0.0;
  double ber = 0.0;
  double rel_ci = 0.0;  ///< CI half-width / estimate at `confidence`
};

/// Every point within `z_wide` standard errors of the exact BER, and the
/// curve strictly falling along γ_b.
[[nodiscard]] std::string check_ber_curve(int b, unsigned mt, unsigned mr,
                                          const std::vector<BerSample>& curve,
                                          double confidence, double z_wide);

/// A cooperative hop's measured BER within `z_wide` standard errors of
/// the plan's target; bit errors cluster per STBC block, so the binomial
/// variance is inflated by the block's bit count.
[[nodiscard]] std::string check_hop_ber(double ber, double target,
                                        std::size_t bits,
                                        std::size_t bits_per_block,
                                        double z_wide);

/// The state of a CoMimoNet as plain data, so the checks read nothing
/// but positions, memberships and link records (and tests can tamper
/// with a copy).
struct NetSnapshot {
  std::vector<comimo::SuNode> nodes;
  std::vector<comimo::Cluster> clusters;
  std::vector<comimo::CoopLink> links;
  comimo::CoMimoNetConfig config;
};
[[nodiscard]] NetSnapshot snapshot(const comimo::CoMimoNet& net);

/// Clusters partition the nodes, each within `d` by pairwise distance;
/// each link's length is the largest member gap and at most the link
/// range.  `sample_clusters` clusters (evenly spaced) also get their
/// link set compared against a brute-force scan over every cluster.
[[nodiscard]] std::string check_geometry(const NetSnapshot& net,
                                         std::size_t sample_clusters);

/// `a` and `b` hold the same nodes, clusters (members and heads) and
/// links (endpoints and lengths bit for bit).
[[nodiscard]] std::string check_same_network(const NetSnapshot& a,
                                             const NetSnapshot& b);

/// The route starts in the source's cluster, ends in the destination's,
/// every hop follows a link of the network, and each hop's ē_b, put
/// through the Gauss–Laguerre evaluator, returns the target BER.
[[nodiscard]] std::string check_route(const NetSnapshot& net,
                                      comimo::NodeId src, comimo::NodeId dst,
                                      const comimo::RouteReport& route,
                                      double target_ber);

/// Replies arrive with the submitted ids in order and each body equals
/// the expected bytes.
[[nodiscard]] std::string check_replies(
    const std::vector<std::uint64_t>& submitted_ids,
    const std::vector<comimo::service::ServiceClient::Reply>& replies,
    const std::vector<std::string>& expected_bodies);

}  // namespace perfbench
