#include "src/analysis/survivability.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "src/fault/seed.h"
#include "src/obs/obs.h"
#include "src/routing/audit.h"
#include "src/routing/delta.h"
#include "src/routing/updown.h"
#include "src/util/contracts.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace aspen {

namespace {

const obs::Counter kSamples{"survive.samples"};
const obs::Counter kDisconnects{"survive.disconnects"};
const obs::Counter kAudits{"survive.audits"};
const obs::Counter kQuarantined{"survive.quarantined"};
const obs::Counter kRollbackRebuilds{"survive.rollback_rebuilds"};
const obs::Counter kSteps{"survive.steps"};
const obs::Counter kCheckpoints{"survive.checkpoints"};

/// Quarantined sample indices retained per campaign (smallest first); the
/// count is always exact, the index list is a bounded diagnostic.
constexpr std::size_t kMaxQuarantineIndices = 64;

/// Chain-hash step for fingerprints: reuses the seed-mixing finalizer so
/// one splitmix-quality bijection serves both purposes.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return fault::derive_stream_seed(h, v);
}

/// Number of L_1 (edge) switches — they occupy the lowest switch ids.
std::uint64_t count_edge_switches(const Topology& topo) {
  std::uint64_t edges = 0;
  while (edges < topo.num_switches() &&
         topo.level_of(SwitchId{static_cast<std::uint32_t>(edges)}) == 1) {
    ++edges;
  }
  return edges;
}

/// Ordered reachable edge pairs under the current tables.  The self entry
/// carries cost 0 with no next hops, so reachable_count() already excludes
/// it; a fully connected fabric scores edges·(edges−1).
std::uint64_t count_reachable_pairs(const RoutingState& state,
                                    std::uint64_t edges) {
  std::uint64_t pairs = 0;
  for (std::uint64_t e = 0; e < edges; ++e) {
    pairs += state.tables.reachable_count(e);
  }
  return pairs;
}

void normalize_quarantine_indices(std::vector<std::uint64_t>& indices) {
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  if (indices.size() > kMaxQuarantineIndices) {
    indices.resize(kMaxQuarantineIndices);
  }
}

}  // namespace

std::uint64_t SurvivabilityAccumulators::fingerprint() const {
  std::uint64_t h = 0xA59E1B5u;
  h = mix(h, committed_samples);
  h = mix(h, quarantined);
  h = mix(h, audits_run);
  h = mix(h, rollback_rebuilds);
  h = mix(h, disconnected_samples);
  h = mix(h, censored_samples);
  h = mix(h, sum_steps);
  h = mix(h, sum_links_to_disconnect);
  h = mix(h, sum_domains_to_disconnect);
  h = mix(h, incremental_full_rows);
  h = mix(h, incremental_patched_switches);
  h = mix(h, steps.size());
  for (const SurvivabilityStep& step : steps) {
    h = mix(h, step.samples);
    h = mix(h, step.disconnects);
    h = mix(h, step.reachable_pairs);
    h = mix(h, step.failed_links);
  }
  h = mix(h, quarantined_indices.size());
  for (const std::uint64_t index : quarantined_indices) h = mix(h, index);
  return h;
}

void SurvivabilityAccumulators::merge(const SurvivabilityAccumulators& other) {
  if (steps.size() < other.steps.size()) steps.resize(other.steps.size());
  for (std::size_t i = 0; i < other.steps.size(); ++i) {
    steps[i].samples += other.steps[i].samples;
    steps[i].disconnects += other.steps[i].disconnects;
    steps[i].reachable_pairs += other.steps[i].reachable_pairs;
    steps[i].failed_links += other.steps[i].failed_links;
  }
  committed_samples += other.committed_samples;
  quarantined += other.quarantined;
  quarantined_indices.insert(quarantined_indices.end(),
                             other.quarantined_indices.begin(),
                             other.quarantined_indices.end());
  normalize_quarantine_indices(quarantined_indices);
  audits_run += other.audits_run;
  rollback_rebuilds += other.rollback_rebuilds;
  disconnected_samples += other.disconnected_samples;
  censored_samples += other.censored_samples;
  sum_steps += other.sum_steps;
  sum_links_to_disconnect += other.sum_links_to_disconnect;
  sum_domains_to_disconnect += other.sum_domains_to_disconnect;
  incremental_full_rows += other.incremental_full_rows;
  incremental_patched_switches += other.incremental_patched_switches;
}

// ---- Checkpoints -------------------------------------------------------

std::string SurvivabilityCheckpoint::serialize() const {
  std::ostringstream os;
  os << "ASPNSURV1\n";
  os << "seed " << seed << "\n";
  os << "total " << total_samples << "\n";
  os << "next " << next_sample << "\n";
  os << "committed " << acc.committed_samples << "\n";
  os << "quarantined " << acc.quarantined << "\n";
  os << "audits " << acc.audits_run << "\n";
  os << "rollback_rebuilds " << acc.rollback_rebuilds << "\n";
  os << "disconnected " << acc.disconnected_samples << "\n";
  os << "censored " << acc.censored_samples << "\n";
  os << "sum_steps " << acc.sum_steps << "\n";
  os << "sum_links " << acc.sum_links_to_disconnect << "\n";
  os << "sum_domains " << acc.sum_domains_to_disconnect << "\n";
  os << "inc_full_rows " << acc.incremental_full_rows << "\n";
  os << "inc_patched " << acc.incremental_patched_switches << "\n";
  os << "steps " << acc.steps.size() << "\n";
  for (const SurvivabilityStep& step : acc.steps) {
    os << "step " << step.samples << " " << step.disconnects << " "
       << step.reachable_pairs << " " << step.failed_links << "\n";
  }
  os << "qidx " << acc.quarantined_indices.size();
  for (const std::uint64_t index : acc.quarantined_indices) os << " " << index;
  os << "\n";
  os << "fingerprint " << acc.fingerprint() << "\n";
  return os.str();
}

namespace {

std::uint64_t parse_field(std::istringstream& is, const char* key) {
  std::string word;
  std::uint64_t value = 0;
  if (!(is >> word) || word != key || !(is >> value)) {
    throw PreconditionError(std::string("survivability checkpoint: expected ") +
                            key);
  }
  return value;
}

}  // namespace

SurvivabilityCheckpoint SurvivabilityCheckpoint::parse(
    const std::string& text) {
  std::istringstream is(text);
  std::string word;
  if (!(is >> word) || word != "ASPNSURV1") {
    throw PreconditionError("survivability checkpoint: bad magic");
  }
  SurvivabilityCheckpoint cp;
  cp.seed = parse_field(is, "seed");
  cp.total_samples = parse_field(is, "total");
  cp.next_sample = parse_field(is, "next");
  cp.acc.committed_samples = parse_field(is, "committed");
  cp.acc.quarantined = parse_field(is, "quarantined");
  cp.acc.audits_run = parse_field(is, "audits");
  cp.acc.rollback_rebuilds = parse_field(is, "rollback_rebuilds");
  cp.acc.disconnected_samples = parse_field(is, "disconnected");
  cp.acc.censored_samples = parse_field(is, "censored");
  cp.acc.sum_steps = parse_field(is, "sum_steps");
  cp.acc.sum_links_to_disconnect = parse_field(is, "sum_links");
  cp.acc.sum_domains_to_disconnect = parse_field(is, "sum_domains");
  cp.acc.incremental_full_rows = parse_field(is, "inc_full_rows");
  cp.acc.incremental_patched_switches = parse_field(is, "inc_patched");
  const std::uint64_t num_steps = parse_field(is, "steps");
  cp.acc.steps.resize(num_steps);
  for (SurvivabilityStep& step : cp.acc.steps) {
    if (!(is >> word) || word != "step" || !(is >> step.samples) ||
        !(is >> step.disconnects) || !(is >> step.reachable_pairs) ||
        !(is >> step.failed_links)) {
      throw PreconditionError("survivability checkpoint: bad step record");
    }
  }
  const std::uint64_t num_indices = parse_field(is, "qidx");
  cp.acc.quarantined_indices.resize(num_indices);
  for (std::uint64_t& index : cp.acc.quarantined_indices) {
    if (!(is >> index)) {
      throw PreconditionError("survivability checkpoint: bad quarantine list");
    }
  }
  const std::uint64_t fp = parse_field(is, "fingerprint");
  if (fp != cp.acc.fingerprint()) {
    throw PreconditionError(
        "survivability checkpoint: fingerprint mismatch (corrupt or "
        "truncated checkpoint)");
  }
  return cp;
}

// ---- Wilson interval ---------------------------------------------------

WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z) {
  WilsonInterval interval;
  if (trials == 0) return interval;  // vacuous: [0, 1]
  ASPEN_REQUIRE(successes <= trials, "wilson_interval: successes > trials");
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  interval.center = p;
  interval.lo = std::max(0.0, center - half);
  interval.hi = std::min(1.0, center + half);
  return interval;
}

// ---- Result views ------------------------------------------------------

std::vector<SurvivabilityCurvePoint> SurvivabilityResult::curve() const {
  std::vector<SurvivabilityCurvePoint> points;
  points.reserve(acc.steps.size());
  std::uint64_t cumulative_disconnects = 0;
  for (std::size_t i = 0; i < acc.steps.size(); ++i) {
    const SurvivabilityStep& step = acc.steps[i];
    cumulative_disconnects += step.disconnects;
    SurvivabilityCurvePoint point;
    point.step = static_cast<std::uint32_t>(i + 1);
    if (step.samples > 0) {
      point.mean_failed_links = static_cast<double>(step.failed_links) /
                                static_cast<double>(step.samples);
      point.mean_reachable_fraction =
          static_cast<double>(step.reachable_pairs) /
          (static_cast<double>(step.samples) *
           static_cast<double>(ordered_pairs));
    }
    const std::uint64_t connected =
        acc.committed_samples - cumulative_disconnects;
    point.ci = wilson_interval(connected, acc.committed_samples);
    point.p_connected = point.ci.center;
    points.push_back(point);
  }
  return points;
}

double SurvivabilityResult::mean_links_to_disconnect() const {
  return acc.disconnected_samples == 0
             ? 0.0
             : static_cast<double>(acc.sum_links_to_disconnect) /
                   static_cast<double>(acc.disconnected_samples);
}

double SurvivabilityResult::mean_domains_to_disconnect() const {
  return acc.disconnected_samples == 0
             ? 0.0
             : static_cast<double>(acc.sum_domains_to_disconnect) /
                   static_cast<double>(acc.disconnected_samples);
}

double SurvivabilityResult::p_disconnect() const {
  return acc.committed_samples == 0
             ? 0.0
             : static_cast<double>(acc.disconnected_samples) /
                   static_cast<double>(acc.committed_samples);
}

// ---- Campaign engine ---------------------------------------------------

namespace {

/// Per-worker campaign state: a warm DeltaSession plus reusable trial
/// scratch, created lazily in the worker's first block.
struct WorkerState {
  std::unique_ptr<routing::DeltaSession> session;
  std::vector<SurvivabilityStep> trial_steps;  ///< scratch, reused per trial
};

/// Runs one trial (sample `index`) on `worker`, committing into `out`
/// unless the trial is quarantined.
void run_trial(const Topology& topo, const fault::FailureDomainModel& domains,
               const SurvivabilityOptions& options, std::uint64_t stream_seed,
               std::uint64_t index, std::uint64_t edges,
               std::uint64_t ordered_pairs, WorkerState& worker,
               SurvivabilityAccumulators& out) {
  routing::DeltaSession& session = *worker.session;
  Rng rng(fault::derive_stream_seed(stream_seed, index));
  const std::vector<std::uint32_t> order = domains.draw_order(rng);
  const std::size_t limit =
      std::min<std::size_t>(order.size(), options.max_steps);

  const RecomputeStats before = session.cumulative_stats();
  std::vector<SurvivabilityStep>& trial = worker.trial_steps;
  trial.clear();
  bool disconnected = false;
  std::uint64_t links_at_disconnect = 0;
  std::uint64_t domains_at_disconnect = 0;

  for (std::size_t j = 0; j < limit; ++j) {
    session.apply(domains.domain(order[j]).links);
    const std::uint64_t failed = session.overlay().num_failed();
    const std::uint64_t pairs =
        count_reachable_pairs(session.state(), edges);
    SurvivabilityStep step;
    step.samples = 1;
    step.reachable_pairs = pairs;
    step.failed_links = failed;
    if (pairs < ordered_pairs) {
      step.disconnects = 1;
      disconnected = true;
      links_at_disconnect = failed;
      domains_at_disconnect = j + 1;
    }
    trial.push_back(step);
    if (disconnected) break;
  }

  if (index == options.corrupt_sample) session.corrupt_for_test();

  // Paranoid-level audit on the subsample (and always on the deliberately
  // corrupted sample): the faulted state is checked against a from-scratch
  // computation, digests included, before any of this trial commits.
  bool quarantine = false;
  const bool audit_due =
      index == options.corrupt_sample ||
      (options.audit_subsample > 0 && index % options.audit_subsample == 0);
  if (audit_due) {
    ++out.audits_run;
    const AuditReport report = routing::audit_incremental(
        topo, session.overlay(), session.state(), /*threads=*/1);
    quarantine = !report.ok();
  }

  if (quarantine) {
    ++out.quarantined;
    if (out.quarantined_indices.size() < kMaxQuarantineIndices) {
      out.quarantined_indices.push_back(index);
    }
    session.rebuild();  // discard the tainted warm state entirely
    return;
  }

  if (out.steps.size() < trial.size()) out.steps.resize(trial.size());
  for (std::size_t j = 0; j < trial.size(); ++j) {
    out.steps[j].samples += trial[j].samples;
    out.steps[j].disconnects += trial[j].disconnects;
    out.steps[j].reachable_pairs += trial[j].reachable_pairs;
    out.steps[j].failed_links += trial[j].failed_links;
  }
  ++out.committed_samples;
  out.sum_steps += trial.size();
  if (disconnected) {
    ++out.disconnected_samples;
    out.sum_links_to_disconnect += links_at_disconnect;
    out.sum_domains_to_disconnect += domains_at_disconnect;
  } else {
    ++out.censored_samples;
  }

  const std::uint64_t rebuilds_before = session.rebuilds();
  session.rollback();
  out.rollback_rebuilds += session.rebuilds() - rebuilds_before;

  const RecomputeStats& after = session.cumulative_stats();
  out.incremental_full_rows += after.full_rows - before.full_rows;
  out.incremental_patched_switches +=
      after.patched_switches - before.patched_switches;
}

}  // namespace

SurvivabilityResult run_survivability(const Topology& topo,
                                      const fault::FailureDomainModel& domains,
                                      const SurvivabilityOptions& options,
                                      const SurvivabilityCheckpoint* resume) {
  ASPEN_REQUIRE(options.samples > 0, "survivability: samples must be > 0");
  ASPEN_REQUIRE(options.max_steps > 0, "survivability: max_steps must be > 0");
  ASPEN_REQUIRE(domains.size() > 0, "survivability: empty domain model");
  {
    const std::vector<std::string> problems = domains.check(topo);
    ASPEN_REQUIRE(problems.empty(), "survivability: incoherent domain model: ",
                  problems.front());
  }

  const std::uint64_t edges = count_edge_switches(topo);
  ASPEN_REQUIRE(edges >= 2, "survivability needs at least two edge switches");
  const std::uint64_t ordered_pairs = edges * (edges - 1);
  const std::uint64_t stream_seed =
      fault::derive_stream_seed(options.seed, fault::kStreamSurvivability);

  SurvivabilityAccumulators acc;
  std::uint64_t next = 0;
  if (resume != nullptr) {
    ASPEN_REQUIRE(resume->seed == options.seed,
                  "survivability resume: seed mismatch");
    ASPEN_REQUIRE(resume->total_samples == options.samples,
                  "survivability resume: sample-count mismatch");
    ASPEN_REQUIRE(resume->next_sample <= options.samples,
                  "survivability resume: next_sample out of range");
    acc = resume->acc;
    next = resume->next_sample;
  }

  const int threads = parallel::effective_num_threads(options.threads);
  std::vector<WorkerState> workers(static_cast<std::size_t>(threads));
  const std::uint64_t chunk_size = options.checkpoint_every > 0
                                       ? options.checkpoint_every
                                       : options.samples;

  while (next < options.samples) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(chunk_size, options.samples - next);
    std::vector<SurvivabilityAccumulators> partials(
        static_cast<std::size_t>(threads));
    const SurvivabilityAccumulators chunk_before = acc;
    {
      // Workers must never emit obs (orchestrator-only thread model); the
      // routing engine underneath is instrumented, so silence it for the
      // sharded region and emit aggregates after the join.
      obs::PauseObs pause;
      parallel::parallel_for_blocks(
          chunk, threads,
          [&](std::uint64_t begin, std::uint64_t end, int worker_index) {
            WorkerState& worker =
                workers[static_cast<std::size_t>(worker_index)];
            if (worker.session == nullptr) {
              worker.session = std::make_unique<routing::DeltaSession>(
                  topo, DestGranularity::kEdge, /*threads=*/1);
            }
            for (std::uint64_t i = begin; i < end; ++i) {
              run_trial(topo, domains, options, stream_seed, next + i, edges,
                        ordered_pairs, worker,
                        partials[static_cast<std::size_t>(worker_index)]);
            }
          });
    }
    for (const SurvivabilityAccumulators& partial : partials) {
      acc.merge(partial);
    }
    next += chunk;

    obs::count(kSamples, chunk);
    obs::count(kDisconnects,
               acc.disconnected_samples - chunk_before.disconnected_samples);
    obs::count(kAudits, acc.audits_run - chunk_before.audits_run);
    obs::count(kQuarantined,
               acc.quarantined - chunk_before.quarantined);
    obs::count(kRollbackRebuilds,
               acc.rollback_rebuilds - chunk_before.rollback_rebuilds);
    obs::count(kSteps, acc.sum_steps - chunk_before.sum_steps);
    obs::trace_event(0.0, obs::TraceKind::kSurviveChunk,
                     static_cast<std::uint32_t>(next >> 32),
                     static_cast<std::uint32_t>(next), chunk);

    const bool cut_checkpoint =
        options.checkpoint_every > 0 || next >= options.samples;
    if (cut_checkpoint && options.on_checkpoint) {
      SurvivabilityCheckpoint checkpoint;
      checkpoint.seed = options.seed;
      checkpoint.total_samples = options.samples;
      checkpoint.next_sample = next;
      checkpoint.acc = acc;
      obs::count(kCheckpoints);
      obs::trace_event(0.0, obs::TraceKind::kSurviveCheckpoint, 0, 0, next);
      options.on_checkpoint(checkpoint);
    }
  }

  SurvivabilityResult result;
  result.seed = options.seed;
  result.samples = acc.committed_samples + acc.quarantined;
  result.edge_switches = edges;
  result.ordered_pairs = ordered_pairs;
  result.domain_count = domains.size();
  result.acc = std::move(acc);
  return result;
}

SurvivabilityResult run_survivability(const Topology& topo,
                                      const SurvivabilityOptions& options) {
  return run_survivability(topo, fault::FailureDomainModel::independent(topo),
                           options);
}

// ---- Exact small-tree oracle -------------------------------------------

ExactSurvivability exact_connected_probability(const Topology& topo,
                                               int num_failures) {
  ASPEN_REQUIRE(num_failures >= 1, "exact oracle: need >= 1 failure");
  std::vector<LinkId> links;
  for (Level level = 2; level <= topo.levels(); ++level) {
    for (const LinkId link : topo.links_at_level(level)) {
      links.push_back(link);
    }
  }
  ASPEN_REQUIRE(static_cast<std::size_t>(num_failures) <= links.size(),
                "exact oracle: more failures than links");

  const std::uint64_t edges = count_edge_switches(topo);
  const std::uint64_t ordered_pairs = edges * (edges - 1);
  routing::DeltaSession session(topo, DestGranularity::kEdge, /*threads=*/1);

  ExactSurvivability exact;
  const std::size_t f = static_cast<std::size_t>(num_failures);
  std::vector<std::size_t> pick(f);
  for (std::size_t i = 0; i < f; ++i) pick[i] = i;
  std::vector<LinkId> fault_set(f);
  while (true) {
    for (std::size_t i = 0; i < f; ++i) fault_set[i] = links[pick[i]];
    session.apply(fault_set);
    ++exact.fault_sets;
    if (count_reachable_pairs(session.state(), edges) == ordered_pairs) {
      ++exact.connected_sets;
    }
    session.rollback();

    // Advance to the next f-combination of [0, links.size()).
    std::size_t slot = f;
    while (slot > 0) {
      --slot;
      if (pick[slot] + (f - slot) < links.size()) break;
      if (slot == 0) return exact;
    }
    if (pick[slot] + (f - slot) >= links.size()) return exact;
    ++pick[slot];
    for (std::size_t i = slot + 1; i < f; ++i) pick[i] = pick[i - 1] + 1;
  }
}

// ---- Steady-state availability ----------------------------------------

double availability_from_survivability(const SurvivabilityResult& result,
                                       double domain_mtbf_hours,
                                       double mttr_hours) {
  ASPEN_REQUIRE(domain_mtbf_hours > 0.0 && mttr_hours > 0.0,
                "availability: MTBF and MTTR must be positive");
  const double rho = mttr_hours / (domain_mtbf_hours + mttr_hours);
  const double lambda = static_cast<double>(result.domain_count) * rho;

  const std::vector<SurvivabilityCurvePoint> curve = result.curve();
  // Poisson(lambda) over concurrently failed domains; P(connected | 0) = 1,
  // j in [1, measured depth] from the curve, 0 beyond it (pessimistic).
  double availability = std::exp(-lambda);
  double p_j = std::exp(-lambda);  // P(J = j), updated iteratively
  for (std::size_t j = 1; j <= curve.size(); ++j) {
    p_j *= lambda / static_cast<double>(j);
    // aspen-lint: allow(float-accum) -- report-time Poisson series over the finished curve, evaluated single-threaded in fixed j order; not a cross-chunk accumulator
    availability += p_j * curve[j - 1].p_connected;
  }
  return availability;
}

}  // namespace aspen
