#include "pytheas/engine.hpp"

#include <algorithm>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"

namespace intox::pytheas {

PytheasEngine::PytheasEngine(const EngineConfig& config)
    : config_(config), rng_(config.seed) {}

PytheasEngine::~PytheasEngine() {
  // report() runs once per QoE report on runner workers, so it only
  // bumps members; the registry sees one add per counter per engine.
  // A counter is registered only once an engine has counted into it.
  if (reports_) {
    static obs::Counter& reports =
        obs::Registry::global().counter("pytheas.reports");
    static obs::Counter& filtered =
        obs::Registry::global().counter("pytheas.filtered_reports");
    reports.add(reports_);
    if (filtered_) filtered.add(filtered_);
  }
  if (epochs_ended_) {
    static obs::Counter& epochs =
        obs::Registry::global().counter("pytheas.epochs");
    epochs.add(epochs_ended_);
  }
}

void PytheasEngine::join(SessionId session, const SessionFeatures& features) {
  auto it = groups_.find(features);
  if (it == groups_.end()) {
    it = groups_.emplace(features, std::make_unique<Group>(config_)).first;
    it->second->id = next_group_id_++;
  }
  it->second->members.push_back(session);
  session_group_[session] = features;
  // New members exploit the current group decision until the next re-deal.
  session_arm_[session] = it->second->best;
}

void PytheasEngine::leave(SessionId session) {
  auto it = session_group_.find(session);
  if (it == session_group_.end()) return;
  if (auto g = groups_.find(it->second); g != groups_.end()) {
    auto& m = g->second->members;
    std::erase(m, session);
  }
  session_group_.erase(it);
  session_arm_.erase(session);
}

PytheasEngine::Group* PytheasEngine::group_of(SessionId session) {
  auto it = session_group_.find(session);
  if (it == session_group_.end()) return nullptr;
  auto g = groups_.find(it->second);
  return g != groups_.end() ? g->second.get() : nullptr;
}

const PytheasEngine::Group* PytheasEngine::group_of(SessionId session) const {
  auto it = session_group_.find(session);
  if (it == session_group_.end()) return nullptr;
  auto g = groups_.find(it->second);
  return g != groups_.end() ? g->second.get() : nullptr;
}

ArmId PytheasEngine::assignment(SessionId session) const {
  auto it = session_arm_.find(session);
  if (it != session_arm_.end()) return it->second;
  const Group* g = group_of(session);
  return g ? g->best : 0;
}

void PytheasEngine::report(const QoeReport& r) {
  ++reports_;
  auto it = session_group_.find(r.session);
  if (it == session_group_.end()) return;
  if (filter_ && !filter_->admit(it->second, r)) {
    ++filtered_;
    return;
  }
  Group& g = *groups_.at(it->second);
  g.bandit.observe(r.arm, r.qoe);
  g.epoch_reports.push_back(r);
}

void PytheasEngine::redeal(Group& group) {
  // Exploitation goes to the best *mean* arm; the exploration slots below
  // provide the bandit's exploration, so the UCB bonus is not applied to
  // the bulk of the traffic (one unlucky arm would otherwise attract the
  // whole group just for being under-sampled).
  const ArmId prev_best = group.best;
  group.best = static_cast<ArmId>(group.bandit.best_mean_arm());
  if (group.best != prev_best) {
    // Time word carries the epoch index: the engine has no scheduler
    // clock, and the epoch is the decision cadence anyway.
    obs::flightrec_record(obs::FrType::kPytheasMove, epochs_ended_,
                          group.id, prev_best, group.best);
  }
  // Exploration: spread a fraction of members across all arms uniformly;
  // the rest exploit.
  for (SessionId s : group.members) {
    if (rng_.bernoulli(config_.exploration_fraction)) {
      session_arm_[s] =
          static_cast<ArmId>(rng_.uniform_int(0, config_.arms - 1));
    } else {
      session_arm_[s] = group.best;
    }
  }
}

void PytheasEngine::end_epoch() {
  ++epochs_ended_;
  // groups_ is an unordered_map, so iterating it directly would feed
  // groups to redeal() — and thus draw from the shared rng_ — in
  // hash order, which varies across libraries and runs. Creation order
  // (Group::id) keeps the draw sequence reproducible.
  std::vector<Group*> ordered;
  ordered.reserve(groups_.size());
  // intox-analyze: allow(taint, collection pass only; sorted by id below)
  for (auto& [key, group] : groups_) ordered.push_back(group.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Group* a, const Group* b) { return a->id < b->id; });
  for (Group* group : ordered) {
    redeal(*group);
    group->bandit.decay();
    group->epoch_reports.clear();
  }
}

ArmId PytheasEngine::group_best_arm(const SessionFeatures& features) const {
  auto it = groups_.find(features);
  return it != groups_.end() ? it->second->best : 0;
}

const DiscountedUcb* PytheasEngine::group_bandit(
    const SessionFeatures& features) const {
  auto it = groups_.find(features);
  return it != groups_.end() ? &it->second->bandit : nullptr;
}

const std::vector<QoeReport>* PytheasEngine::epoch_reports(
    const SessionFeatures& features) const {
  auto it = groups_.find(features);
  return it != groups_.end() ? &it->second->epoch_reports : nullptr;
}

}  // namespace intox::pytheas
