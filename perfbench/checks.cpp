#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "comimo/energy/ebbar.h"

namespace perfbench {

namespace {

// E[Q(sqrt(2·g·X))] for X ~ Gamma(L, 1): the L-branch maximal-ratio
// Rayleigh average with per-branch mean SNR g (Proakis, eq. 14.4-15).
double rayleigh_q_average(double g, unsigned L) {
  const double mu = std::sqrt(g / (1.0 + g));
  const double lo = 0.5 * (1.0 - mu);
  const double hi = 0.5 * (1.0 + mu);
  double sum = 0.0;
  double binom = 1.0;  // C(L-1+k, k)
  double hi_pow = 1.0;
  for (unsigned k = 0; k < L; ++k) {
    sum += binom * hi_pow;
    binom = binom * static_cast<double>(L + k) / static_cast<double>(k + 1);
    hi_pow *= hi;
  }
  return std::pow(lo, static_cast<double>(L)) * sum;
}

double pair_distance(const comimo::Vec2& a, const comimo::Vec2& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

std::unordered_map<comimo::NodeId, comimo::Vec2> positions(
    const NetSnapshot& net) {
  std::unordered_map<comimo::NodeId, comimo::Vec2> pos;
  pos.reserve(net.nodes.size());
  for (const comimo::SuNode& n : net.nodes) pos.emplace(n.id, n.position);
  return pos;
}

double member_gap(const std::unordered_map<comimo::NodeId, comimo::Vec2>& pos,
                  const comimo::Cluster& a, const comimo::Cluster& b) {
  double gap = 0.0;
  for (const comimo::NodeId u : a.members) {
    for (const comimo::NodeId v : b.members) {
      gap = std::max(gap, pair_distance(pos.at(u), pos.at(v)));
    }
  }
  return gap;
}

bool near(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max({std::abs(a), std::abs(b), 1e-300});
}

std::uint64_t pair_key(comimo::ClusterId a, comimo::ClusterId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

std::string fmt(const char* what, double v) {
  std::ostringstream os;
  os.precision(6);
  os << what << v;
  return os.str();
}

}  // namespace

NetSnapshot snapshot(const comimo::CoMimoNet& net) {
  return {net.nodes(), net.clusters(), net.links(), net.config()};
}

double exact_stbc_ber(int b, unsigned mt, unsigned mr, double gamma_b_db) {
  const unsigned L = mt * mr;
  const double gbar = std::pow(10.0, gamma_b_db / 10.0) / mt;
  if (b == 1 || b == 2) return rayleigh_q_average(gbar, L);
  if (b == 4) {
    // Gray 16-QAM: (3Q(x) + 2Q(3x) − Q(5x))/4 with x = sqrt(4γ/5); each
    // Q(c·x) term averages as a branch SNR of 2c²γ/5.
    const auto term = [&](double c) {
      return rayleigh_q_average(2.0 * c * c * gbar / 5.0, L);
    };
    return (3.0 * term(1.0) + 2.0 * term(3.0) - term(5.0)) / 4.0;
  }
  return std::nan("");
}

std::string check_ber_curve(int b, unsigned mt, unsigned mr,
                            const std::vector<BerSample>& curve,
                            double confidence, double z_wide) {
  // Standard normal quantile of the CI's two-sided level, by bisection
  // on erfc (no library quantile involved).
  double lo = 0.0, hi = 10.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(mid / std::sqrt(2.0)) > 0.5 * (1.0 - confidence) ? lo
                                                                        : hi) =
        mid;
  }
  const double z_ci = 0.5 * (lo + hi);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const BerSample& s = curve[i];
    const double exact = exact_stbc_ber(b, mt, mr, s.gamma_b_db);
    if (!std::isfinite(exact)) return "no exact BER for this modulation";
    if (!(s.ber > 0.0) || !(s.rel_ci > 0.0)) {
      return fmt("non-positive BER or CI at gamma_b_db=", s.gamma_b_db);
    }
    const double sigma = s.rel_ci * s.ber / z_ci;
    if (std::abs(s.ber - exact) > z_wide * sigma) {
      return fmt("BER off the exact Rayleigh STBC value at gamma_b_db=",
                 s.gamma_b_db) +
             fmt(" measured=", s.ber) + fmt(" exact=", exact);
    }
    if (i > 0 && !(s.gamma_b_db > curve[i - 1].gamma_b_db &&
                   s.ber < curve[i - 1].ber)) {
      return fmt("BER not falling along gamma_b at gamma_b_db=",
                 s.gamma_b_db);
    }
  }
  return {};
}

std::string check_hop_ber(double ber, double target, std::size_t bits,
                          std::size_t bits_per_block, double z_wide) {
  if (bits == 0 || !(target > 0.0)) return "empty hop or no target";
  const double sigma =
      std::sqrt(target * (1.0 - target) *
                static_cast<double>(std::max<std::size_t>(1, bits_per_block)) /
                static_cast<double>(bits));
  if (std::abs(ber - target) > z_wide * sigma) {
    return fmt("hop BER off the plan target: measured=", ber) +
           fmt(" target=", target);
  }
  return {};
}

std::string check_geometry(const NetSnapshot& net,
                           std::size_t sample_clusters) {
  const auto& cfg = net.config;
  const auto pos = positions(net);
  const auto& clusters = net.clusters;
  std::unordered_map<comimo::NodeId, std::size_t> owner;
  owner.reserve(pos.size());
  const double tol = 1e-9;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const comimo::Cluster& cl = clusters[c];
    if (cl.id != c) return "cluster ids are not their indices";
    if (cl.members.empty()) return "empty cluster";
    if (std::find(cl.members.begin(), cl.members.end(), cl.head) ==
        cl.members.end()) {
      return "cluster head is not a member";
    }
    for (const comimo::NodeId m : cl.members) {
      if (!pos.count(m)) return "cluster member is not a node";
      if (!owner.emplace(m, c).second) return "node in two clusters";
    }
    for (std::size_t i = 0; i < cl.members.size(); ++i) {
      for (std::size_t j = i + 1; j < cl.members.size(); ++j) {
        const double dist =
            pair_distance(pos.at(cl.members[i]), pos.at(cl.members[j]));
        if (dist > cfg.cluster_diameter_m + tol) {
          return fmt("cluster members farther apart than d: ", dist);
        }
      }
    }
  }
  if (owner.size() != pos.size()) return "node in no cluster";
  std::vector<std::vector<comimo::ClusterId>> adjacent(clusters.size());
  for (const comimo::CoopLink& link : net.links) {
    if (link.a >= clusters.size() || link.b >= clusters.size() ||
        link.a == link.b) {
      return "link endpoint out of range";
    }
    const double gap = member_gap(pos, clusters[link.a], clusters[link.b]);
    if (!near(gap, link.length_m, 1e-12)) {
      return fmt("link length is not the largest member gap: ",
                 link.length_m) +
             fmt(" vs ", gap);
    }
    if (gap > cfg.link_range_m + tol) return "link longer than the range";
    adjacent[link.a].push_back(link.b);
    adjacent[link.b].push_back(link.a);
  }
  // Completeness on a sample: every cluster within range is a neighbour.
  std::vector<comimo::Vec2> centre(clusters.size());
  std::vector<double> radius(clusters.size(), 0.0);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (const comimo::NodeId m : clusters[c].members) {
      centre[c].x += pos.at(m).x / static_cast<double>(clusters[c].size());
      centre[c].y += pos.at(m).y / static_cast<double>(clusters[c].size());
    }
    for (const comimo::NodeId m : clusters[c].members) {
      radius[c] = std::max(radius[c], pair_distance(centre[c], pos.at(m)));
    }
  }
  const std::size_t step =
      std::max<std::size_t>(1, clusters.size() / std::max<std::size_t>(
                                                     1, sample_clusters));
  for (std::size_t c = 0; c < clusters.size(); c += step) {
    std::vector<comimo::ClusterId> want;
    for (std::size_t o = 0; o < clusters.size(); ++o) {
      if (o == c) continue;
      if (pair_distance(centre[c], centre[o]) - radius[c] - radius[o] >
          cfg.link_range_m + 1.0) {
        continue;
      }
      const double gap = member_gap(pos, clusters[c], clusters[o]);
      if (std::abs(gap - cfg.link_range_m) <= tol) continue;  // tie
      if (gap < cfg.link_range_m) {
        want.push_back(static_cast<comimo::ClusterId>(o));
      }
    }
    std::vector<comimo::ClusterId> have = adjacent[c];
    std::sort(have.begin(), have.end());
    have.erase(std::remove_if(have.begin(), have.end(),
                              [&](comimo::ClusterId o) {
                                const double gap = member_gap(
                                    pos, clusters[c], clusters[o]);
                                return std::abs(gap - cfg.link_range_m) <=
                                       tol;
                              }),
               have.end());
    if (have != want) return fmt("link set incomplete at cluster ", c);
  }
  return {};
}

std::string check_same_network(const NetSnapshot& a,
                               const NetSnapshot& b) {
  if (a.nodes.size() != b.nodes.size()) return "node counts differ";
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const comimo::SuNode& x = a.nodes[i];
    const comimo::SuNode& y = b.nodes[i];
    if (x.id != y.id || x.position.x != y.position.x ||
        x.position.y != y.position.y || x.battery_j != y.battery_j) {
      return fmt("nodes differ at index ", static_cast<double>(i));
    }
  }
  if (a.clusters.size() != b.clusters.size()) {
    return "cluster counts differ";
  }
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    const comimo::Cluster& x = a.clusters[c];
    const comimo::Cluster& y = b.clusters[c];
    if (x.id != y.id || x.head != y.head || x.members != y.members) {
      return fmt("clusters differ at ", static_cast<double>(c));
    }
  }
  if (a.links.size() != b.links.size()) return "link counts differ";
  for (std::size_t l = 0; l < a.links.size(); ++l) {
    const comimo::CoopLink& x = a.links[l];
    const comimo::CoopLink& y = b.links[l];
    if (x.a != y.a || x.b != y.b || x.length_m != y.length_m) {
      return fmt("links differ at ", static_cast<double>(l));
    }
  }
  return {};
}

std::string check_route(const NetSnapshot& net, comimo::NodeId src,
                        comimo::NodeId dst, const comimo::RouteReport& route,
                        double target_ber) {
  comimo::ClusterId from = 0, to = 0;
  for (const comimo::Cluster& c : net.clusters) {
    for (const comimo::NodeId m : c.members) {
      if (m == src) from = c.id;
      if (m == dst) to = c.id;
    }
  }
  if (route.hops.empty()) {
    return from == to ? std::string{} : "empty route between clusters";
  }
  if (route.hops.front().from != from) return "route does not start at source";
  if (route.hops.back().to != to) return "route does not end at destination";
  const comimo::EbBarSolver solver;
  const auto pos = positions(net);
  std::unordered_map<std::uint64_t, double> link_len;
  for (const comimo::CoopLink& l : net.links) {
    link_len.emplace(pair_key(l.a, l.b), l.length_m);
  }
  for (std::size_t i = 0; i < route.hops.size(); ++i) {
    const comimo::RouteHop& hop = route.hops[i];
    if (i > 0 && route.hops[i - 1].to != hop.from) return "route breaks";
    if (hop.from >= net.clusters.size() || hop.to >= net.clusters.size() ||
        !link_len.count(pair_key(hop.from, hop.to))) {
      return "hop over a missing link";
    }
    const double gap =
        member_gap(pos, net.clusters[hop.from], net.clusters[hop.to]);
    if (!near(hop.plan.config.hop_distance_m, gap, 1e-12)) {
      return "hop distance is not the link's member gap";
    }
    if (hop.plan.config.mt != net.clusters[hop.from].size() ||
        hop.plan.config.mr != net.clusters[hop.to].size()) {
      return "hop cooperators are not the cluster sizes";
    }
    const double p = solver.average_ber_quadrature(
        hop.plan.ebar, hop.plan.b, hop.plan.config.mt, hop.plan.config.mr);
    if (!near(p, target_ber, 1e-3)) {
      return fmt("hop ebar misses the target BER: ", p);
    }
  }
  return {};
}

std::string check_replies(
    const std::vector<std::uint64_t>& submitted_ids,
    const std::vector<comimo::service::ServiceClient::Reply>& replies,
    const std::vector<std::string>& expected_bodies) {
  if (replies.size() != submitted_ids.size() ||
      expected_bodies.size() != submitted_ids.size()) {
    return "reply count differs from submitted jobs";
  }
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (replies[i].type != comimo::service::FrameType::kResult) {
      return "reply is not a result: " + replies[i].body;
    }
    if (replies[i].id != submitted_ids[i]) return "reply out of order";
    if (replies[i].body != expected_bodies[i]) {
      return fmt("reply differs from run_job at index ",
                 static_cast<double>(i));
    }
  }
  return {};
}

}  // namespace perfbench
