"""Discrete workflow-execution engine: runs scheduled instances, injects
attacks into synthesized per-task telemetry, routes detections through the
severity and decision modules, applies adaptations under uncertain overhead
costs, and aggregates run results.

One function, `instance_episode`, executes an instance. At every adaptation
decision it applies the candidate its `choose` callback picks from the
candidates ranked cheapest-first, or the cheapest when there is no
callback, and hands the decision's reward to its `learn` callback if one is
given. Of the strategies in `POLICIES`, lowest-cost (`run_instance`) passes
neither, adaptive passes the Q-learning callbacks of `rl`, and frozen
passes only `rl.predict` over a trained Q-table, which it leaves unchanged.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import datagen, rl
from .datagen import DatasetKind, NORMAL
from .decision import (
    AttackEvent,
    apply_middleware_action,
    apply_tenant_action,
    select_action,
)
from .model import (
    ActionKind,
    AttackType,
    ControlEdge,
    DataEdge,
    MIDDLEWARE_KINDS,
    MultiCloud,
    SchedulingPlan,
    SecurityVector,
    Service,
    Severity,
    Task,
    TenantConfig,
    Workflow,
    builtin_attack_catalog,
)
from .scheduling import TrustRepository, schedule
from .scoring import attack_score
from .severity import AssessmentError


# The uncertain overhead costs of adaptation actions.
#: Factor on a rework's time once the instance runs late.
REWORK_DELAY_MULTIPLIER_WHEN_LATE = 1.5
#: An instance runs late once its accumulated time exceeds this factor times
#: the nominal time of the tasks processed so far.
LATE_THRESHOLD_FACTOR = 1.2
#: Failure probability that each degraded input (a skipped data predecessor)
#: adds to a task.
SKIP_DOWNSTREAM_FAILURE_DELTA = 0.2
#: An adaptation with a nonzero price or time pays both times exp(N(0, sigma)).
OVERHEAD_NOISE_SIGMA = 0.25

#: The built-in attack catalog every instance reads.
ATTACK_CATALOG = builtin_attack_catalog()


@dataclass
class RunResult:
    price: float
    time: float
    value: float
    mitigation: float
    injected: int
    detected: int
    adapted: int
    unmitigated: int
    failures: int
    false_alarms: int
    events: list = field(default_factory=list)

    def reward_attrs(self):
        return {
            "price": self.price,
            "time": self.time,
            "value": self.value,
            "mitigation": self.mitigation,
        }


class ExecutionState:
    """Mutable per-instance ledger. Totals are always the fold of the base
    task entries plus the adaptations.

    Only the task in progress (the last one started) has its base entry
    changed, so the totals are kept as a left fold of the finished tasks'
    entries plus the current one, and running sums of the adaptations: the
    same additions in the same order as summing a ledger of them."""

    def __init__(self, layout: Layout, noise_rng):
        self._noise_rng = noise_rng
        self.base = {}  # task id -> [price, time, value]
        self.degraded = {}  # task id -> count of degraded inputs
        self.nominal_prefix = 0.0  # nominal time of tasks processed so far
        self._data_succ = layout.data_succ
        # int zeros, as `sum` starts from, so every total has sum's value and type
        self._done = [0, 0, 0]  # fold of the finished tasks' [price, time, value]
        self._current = [0, 0, 0]  # base entry of the task in progress
        self._adapted = [0, 0, 0, 0]  # the adaptations' price, time, value delta, mitigation
        self._adapted_time = {}  # task id -> its adaptations' time, summed in order

    # -- ledger access -----------------------------------------------------

    def start_task(self, task_id, price, time, value):
        done, current = self._done, self._current
        self._done = [done[0] + current[0], done[1] + current[1], done[2] + current[2]]
        self._current = self.base[task_id] = [price, time, value]
        self.nominal_prefix += time

    def skip_task(self, task_id):
        # in place: the entry may be `_current`, which the totals read
        self.base[task_id][:] = (0.0, 0.0, 0.0)
        for succ in self._data_succ.get(task_id, ()):
            self.degraded[succ] = self.degraded.get(succ, 0) + 1

    def fail_task(self, task_id):
        # a failed task consumed its time and price but delivers no value
        self.base[task_id][2] = 0.0

    def damage_task(self, task_id, factor):
        self.base[task_id][2] *= factor

    def add_adaptation(self, task_id, price, time, value_delta, mitigation):
        if price > 0 or time > 0:
            factor = float(np.exp(self._noise_rng.normal(0.0, OVERHEAD_NOISE_SIGMA)))
            price *= factor
            time *= factor
        a = self._adapted
        self._adapted = [a[0] + price, a[1] + time, a[2] + value_delta, a[3] + mitigation]
        self._adapted_time[task_id] = self._adapted_time.get(task_id, 0) + time

    def late_multiplier(self):
        if self.accumulated_time() > LATE_THRESHOLD_FACTOR * self.nominal_prefix:
            return REWORK_DELAY_MULTIPLIER_WHEN_LATE
        return 1.0

    # -- aggregates --------------------------------------------------------

    def durations(self):
        """Per started task: base time plus its adaptations' times."""
        return {tid: v[1] + self._adapted_time.get(tid, 0) for tid, v in self.base.items()}

    def accumulated_time(self):
        return (self._done[1] + self._current[1]) + self._adapted[1]

    def accumulated(self):
        price, time, value = (d + c for d, c in zip(self._done, self._current))
        adapted = self._adapted
        return {
            "price": price + adapted[0],
            "time": time + adapted[1],
            "value": value + adapted[2],
            "mitigation": adapted[3],
        }


class Layout:
    """The parts of a workflow that every instance reads and none changes:
    the topological order, the tasks by id, the control edges into each task,
    each task's control predecessors (the edges' sources, as a tuple in edge
    order, keyed in topological order) and each task's data successors."""

    def __init__(self, workflow: Workflow):
        self.order = workflow.topological_order()
        self.tasks = workflow.task_map()
        self.incoming = {t.id: [] for t in workflow.tasks}
        for e in workflow.control_edges:
            self.incoming[e.dst].append(e)
        self.preds = {tid: tuple(e.src for e in self.incoming[tid]) for tid in self.order}
        self.data_succ = {}
        for e in workflow.data_edges:
            self.data_succ.setdefault(e.src, set()).add(e.dst)


class Experiment:
    """What every instance of an experiment reads: the workflow's `Layout`,
    the plan checked against the cloud, each task's bound service, the cloud,
    the detectors (one per `DatasetKind`), the severity model, the tenant
    config, the trust repository the instances share, the attack rate and
    `selections`, `decision.select_action`'s memo: each task's backup and
    action params per detector kind, its mitigation scores per (attack
    type, detector kind) and its candidate sets per (attack type, tier,
    detector kind) resolved so far, valid while the cloud and the tenant
    config stay those of the experiment. `run_experiment` builds one and
    passes it to every instance; it is dropped with the experiment.
    `spreads`, which scale a learner's rewards, hold each `rl.ATTR_NAMES`
    attribute's max - min over the burn-in rounds, as `run_experiment` sets
    them, or 0. A spread of 0, as after a burn-in of 0 or 1 rounds,
    contributes 0 to every reward.
    `seed_words` maps an instance seed to its streams' `instance_seed_words`
    row; `run_experiment` fills it for all its seeds before the first
    instance, and an instance derives a seed it does not hold."""

    def __init__(self, workflow: Workflow, plan: SchedulingPlan, cloud: MultiCloud,
                 detectors: dict, severity_model, cfg: TenantConfig,
                 trust: TrustRepository, attack_rate: float):
        plan.validate(workflow, cloud)
        if not 0.0 <= attack_rate <= 1.0:
            raise ValueError(f"attack_rate must be in [0, 1], got {attack_rate!r}")
        for key in (DatasetKind.NTD, DatasetKind.CLF):
            if key not in detectors:
                raise ValueError(f"missing detector for {key.value}")
        services = cloud.service_map()
        self.layout = Layout(workflow)
        self.bound = {t.id: services[plan.bindings[t.id]] for t in workflow.tasks}
        self.cloud = cloud
        self.detectors = detectors
        self.severity_model = severity_model
        self.cfg = cfg
        self.trust = trust
        self.attack_rate = attack_rate
        self.selections = {}
        self.spreads = dict.fromkeys(rl.ATTR_NAMES, 0.0)
        self.seed_words = {}


def _executed_tasks(layout: Layout, branch_rng):
    """Resolve Bernoulli branch conditions over the topological order: a
    task executes when it has no incoming control edges or at least one taken
    edge from an executed task. Unconditional edges from executed tasks are
    always taken. The executed tasks are the keys of the returned dict, in
    topological order."""
    executed = {}
    for tid in layout.order:
        edges = layout.incoming[tid]
        if not edges:
            executed[tid] = None
            continue
        for e in edges:
            if e.src not in executed:
                continue
            if not e.cond or branch_rng.random() < e.prob:
                executed[tid] = None
                break
    return executed


def makespan(layout: Layout, durations):
    """Critical-path completion time; a task without a duration takes zero
    time but still propagates its predecessors' finish times. A task starts
    at the fold of its predecessors' finish times with `>` tests, from the
    first one (0.0 without one), as `max` folds them."""
    finish = {}
    get = durations.get
    for tid, preds in layout.preds.items():
        start = finish[preds[0]] if preds else 0.0
        for src in preds:
            f = finish[src]
            if f > start:
                start = f
        finish[tid] = start + get(tid, 0.0)
    return max(finish.values(), default=0.0)


ATTACK_TYPES = list(AttackType)
_ATTACK_BY_VALUE = {at.value: at for at in AttackType}
#: The string of every enum member an event names, read once: `.value` is a
#: property call.
_VALUE = {m: m.value for members in (AttackType, Severity, ActionKind) for m in members}


def _sample_attack_type(trust: TrustRepository, service_id, rng) -> AttackType:
    """A type drawn with probability proportional to the service's live AFR,
    or uniformly when every rate is 0. The float operations and the one
    double drawn are those of `rng.choice(len(types), p=weights / total)`:
    p is normalized by the left-fold sum, its running sum is divided by its
    last value, and the type drawn is the first whose normalized sum is
    above one `rng.random()`, where `bisect_right` places it."""
    history = trust.afr_history
    weights = [history[service_id, at] for at in ATTACK_TYPES]
    total = 0.0
    for w in weights:
        if not 0.0 <= w < math.inf:
            raise ValueError(f"attack-type rates of {service_id!r} must be finite and "
                             f"non-negative, got {weights}")
        total += w
    if total <= 0:
        return ATTACK_TYPES[int(rng.integers(len(ATTACK_TYPES)))]
    cdf, last = [], 0.0
    for w in weights:
        last += w / total
        cdf.append(last)
    u = rng.random()
    for at, c in zip(ATTACK_TYPES, cdf):
        if c / last > u:
            return at


# The hashing of numpy's SeedSequence (pool size 4, the constants of
# numpy/random/bit_generator.pyx), mirrored on uint32 arrays. Scalar constants
# stay Python ints and the arithmetic runs on arrays only: numpy warns on
# uint32 overflow of scalars, not of arrays.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_XSHIFT = 16
_POOL_SIZE = 4
#: An instance's streams, in spawn order: attack, branch, noise, telemetry, failure.
N_STREAMS = 5
_SEED_LIMIT = 2 ** (32 * _POOL_SIZE)


def _hash_constants(init, mult, n):
    """The running hash constant before each of `n` hash steps and after the
    last: it does not depend on the data, so every step's pair is known."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hashed(value, xor_const, mult_const):
    value = (value ^ xor_const) * mult_const
    return value ^ (value >> _XSHIFT)


def _mixed(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


# Pool construction runs 4 hash steps over the entropy words and 12 over the
# pool's cross mix, then 4 over a child's spawn key; `generate_state(4,
# np.uint64)` runs 8 over the pool words with its own running constant.
_N_POOL_STEPS = _POOL_SIZE * _POOL_SIZE
_MIX_CONSTS = _hash_constants(_INIT_A, _MULT_A, _N_POOL_STEPS + _POOL_SIZE)
_STATE_CONSTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _u32(values):
    return np.array(values, dtype=np.uint32)


# child i's one spawn-key word, i, hashed for each pool word it is mixed into:
# the same for every seed, shape (N_STREAMS, pool)
_SPAWN_KEY_HASHES = _hashed(np.arange(N_STREAMS, dtype=np.uint32)[:, None],
                            _u32(_MIX_CONSTS[_N_POOL_STEPS:-1]),
                            _u32(_MIX_CONSTS[_N_POOL_STEPS + 1:]))


def instance_seed_words(seeds) -> np.ndarray:
    """(len(seeds), N_STREAMS, 4) uint64: row k, stream i holds
    `SeedSequence(seeds[k]).spawn(N_STREAMS)[i].generate_state(4, np.uint64)`,
    the words `np.random.PCG64` seeds itself from. All seeds are hashed in one
    pass of uint32 array arithmetic that mirrors SeedSequence's. A seed must
    be an integer in [0, 2**128): numpy pads such a seed with zeros to the
    pool's four words, and a larger one would need a fifth."""
    seeds = [operator.index(s) for s in seeds]
    for s in seeds:
        if not 0 <= s < _SEED_LIMIT:
            raise ValueError(f"instance seed must be in [0, 2**128), got {s}")
    entropy = np.array([[s >> (32 * j) & _MASK32 for j in range(_POOL_SIZE)] for s in seeds],
                       dtype=np.uint32).reshape(len(seeds), _POOL_SIZE)
    consts = _MIX_CONSTS
    pool = _hashed(entropy, _u32(consts[:_POOL_SIZE]), _u32(consts[1:_POOL_SIZE + 1]))
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[:, dst] = _mixed(pool[:, dst],
                                      _hashed(pool[:, src], consts[step], consts[step + 1]))
                step += 1
    children = _mixed(pool[:, None, :], _SPAWN_KEY_HASHES)
    state = _hashed(np.concatenate([children, children], axis=2),
                    _u32(_STATE_CONSTS[:-1]), _u32(_STATE_CONSTS[1:]))
    # little-endian word pairs, as SeedSequence joins them
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """The precomputed state words of one stream: all `np.random.PCG64` asks
    of its seed sequence."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def run_instance(experiment: Experiment, seed: int) -> RunResult:
    """Execute one workflow instance under the lowest-cost strategy: the
    cheapest candidate at every decision. Deterministic given `seed`."""
    return instance_episode(experiment, seed)


def instance_episode(experiment: Experiment, seed: int, choose=None, learn=None) -> RunResult:
    """Execute one instance of `experiment` and return its RunResult. At each
    adaptation decision, apply `choose(state_key, kinds ranked
    cheapest-first)`, or the cheapest kind when `choose` is None; the state
    key is the detected attack type and severity (`rl.workflow_state_key`).
    If `learn` is given, call `learn(r)` with the decision's reward after
    applying it; without it (lowest-cost, frozen), no reward is computed.
    Every trust write of the instance is made here: middleware actions' as
    applied, then one `TrustRepository.observe` of each detected attack's
    (service, predicted type), so rates track the per-run attack frequency."""
    layout, bound, trust = experiment.layout, experiment.bound, experiment.trust
    detectors, severity_model = experiment.detectors, experiment.severity_model
    cloud, cfg, attack_rate = experiment.cloud, experiment.cfg, experiment.attack_rate
    selections = experiment.selections

    words = experiment.seed_words.get(seed)
    if words is None:
        words = instance_seed_words([seed])[0]
    attack_rng, branch_rng, noise_rng, telem_rng, fail_rng = (
        np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words)

    state = ExecutionState(layout, noise_rng)
    executed = _executed_tasks(layout, branch_rng)

    injected = detected = adapted = unmitigated = failures = false_alarms = 0
    events = []
    hits = set()  # (service id, predicted AttackType) of every detected attack

    # the failure stream is drawn once per executed task, in order, and for
    # nothing else, so one block holds every draw
    for tid, fail_draw in zip(executed, fail_rng.random(len(executed)).tolist()):
        task = layout.tasks[tid]
        svc = bound[tid]
        state.start_task(tid, svc.price, svc.response_time, task.value)

        # degraded inputs raise the task's failure probability
        n_flags = state.degraded.get(tid, 0)
        if n_flags > 0 and fail_draw < min(1.0, n_flags * SKIP_DOWNSTREAM_FAILURE_DELTA):
            state.fail_task(tid)
            failures += 1
            continue

        # an attack's draws come first on the attack stream; every record,
        # clean or attacked, is then drawn and classified the same way
        true_type, label, intensity = None, NORMAL, 0.0
        if attack_rng.random() < attack_rate:
            true_type = _sample_attack_type(trust, svc.id, attack_rng)
            label, intensity = _VALUE[true_type], 1.0 - attack_rng.random()  # (0, 1]
        kind = DatasetKind.NTD if telem_rng.random() < 0.5 else DatasetKind.CLF
        record = datagen.sample_features(kind, label, intensity, telem_rng)
        predicted = detectors[kind].predict(record)
        if true_type is None:
            # an alarm on clean telemetry is counted and dismissed after verification
            false_alarms += predicted != NORMAL
            continue

        injected += 1
        # actual harm of a landed attack is anchored to the service's static
        # AFR so the learned live rate cannot argue the damage away
        afr_static = svc.afr.get(true_type, 0.0)
        true_damage = 1.0 - attack_score(
            task.requirements, ATTACK_CATALOG[true_type].impact, afr_static, intensity
        )
        # the type an outcome reports: the true one when the attack goes
        # unseen, else the predicted one
        entry = {"task": tid, "service": svc.id,
                 "type": label if predicted == NORMAL else predicted}
        events.append(entry)

        if predicted == NORMAL:
            # missed detection: the attack's damage lands on the task value
            state.damage_task(tid, true_damage)
            entry["outcome"] = "undetected"
            continue

        detected += 1
        pred_type = _ATTACK_BY_VALUE[predicted]
        hits.add((svc.id, pred_type))
        try:
            level = severity_model.assess(kind, pred_type, record)
        except AssessmentError:
            level = Severity.MEDIUM
        event = AttackEvent(pred_type, level, kind, tid, svc.id)
        result = select_action(
            task, event, ATTACK_CATALOG[pred_type], cfg, cloud, trust, svc, selections,
        )
        entry["score"] = result.trigger_score
        candidates = result.candidates
        if candidates is None or not candidates.ranked:
            # below the trigger threshold nothing adapts, and an unmitigable
            # attack has no candidate; the attack is still real: its damage
            # lands unmitigated
            unmitigated += candidates is not None
            state.damage_task(tid, true_damage)
            entry["outcome"] = "below-threshold" if candidates is None else "unmitigable"
            continue

        # a real decision point; candidates are presented cheapest-first so a
        # cold-start greedy choice degrades to the nominal-cost ranking
        ranked = candidates.ranked
        chosen = candidates.candidate(
            choose(rl.workflow_state_key(pred_type, level), ranked) if choose else ranked[0])
        before = state.accumulated() if learn else None
        middleware = chosen.kind in MIDDLEWARE_KINDS
        if middleware:
            apply_middleware_action(state, event, chosen, candidates.backup, trust)
        else:
            apply_tenant_action(state, event, chosen)
        # mitigation is only as good as the chosen action: relative to the
        # strongest candidate, a weaker mitigation leaves residual damage
        ms_best = candidates.ms_best
        rel = chosen.mitigation / ms_best if ms_best > 0 else 1.0
        state.damage_task(tid, 1.0 - (1.0 - rel) * (1.0 - true_damage))
        adapted += 1
        entry.update(
            outcome="adapted",
            severity=_VALUE[level],
            chosen=_VALUE[chosen.kind],
            level="middleware" if middleware else "tenant",
            candidates=[c.copy() for c in candidates.audit],
        )
        if learn is not None:
            # the decision's own share of the run metric: the ledger change it
            # made, damage included, weighed as `rl.reward` weighs a run
            after = state.accumulated()
            learn(sum(rl.REWARD_WEIGHTS[n] * (after[n] - before[n]) / spread
                      for n, spread in experiment.spreads.items() if spread > 0))

    trust.observe(hits)
    total_time = makespan(layout, state.durations())
    acc = state.accumulated()
    return RunResult(
        price=acc["price"],
        time=total_time,
        value=acc["value"],
        mitigation=acc["mitigation"],
        injected=injected,
        detected=detected,
        adapted=adapted,
        unmitigated=unmitigated,
        failures=failures,
        false_alarms=false_alarms,
        events=events,
    )


# ---------------------------------------------------------------------------
# Experiment harness

class WorkflowClass(enum.Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


CLASS_TASK_RANGE = {
    WorkflowClass.SMALL: (3, 10),
    WorkflowClass.MEDIUM: (10, 50),
    WorkflowClass.LARGE: (50, 100),
}


#: The columns of every results.csv, one row per round: its float columns,
#: then its count columns.
RESULTS_FLOATS = ("price", "time", "value", "mitigation")
RESULTS_COUNTS = ("injected", "detected", "adapted", "failed")
RESULTS_HEADER = ("run", "strategy", "class", *RESULTS_FLOATS, *RESULTS_COUNTS)


@dataclass
class ExperimentResult:
    runs: list  # RunResult per round, in run-index order

    def rows(self, strategy: str, wf_class: str) -> list:
        """One `RESULTS_HEADER` row per round."""
        return [[idx, strategy, wf_class, repr(float(r.price)), repr(float(r.time)),
                 repr(float(r.value)), repr(float(r.mitigation)),
                 r.injected, r.detected, r.adapted, r.failures]
                for idx, r in enumerate(self.runs)]

    def aggregate_csv(self, strategy: str, wf_class: str) -> str:
        return datagen.csv_text(RESULTS_HEADER, self.rows(strategy, wf_class))


def _lowest_cost_rounds(experiment, seeds, table, seed):
    if table is not None:
        raise ValueError("qtable needs the adaptive strategy or the frozen one; "
                         "lowest-cost uses no Q-table")
    return (run_instance(experiment, s) for s in seeds)


def _adaptive_rounds(experiment, seeds, table, seed):
    policy_rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    return rl.train(
        table if table is not None else rl.QTable(),
        (functools.partial(instance_episode, experiment, s) for s in seeds), policy_rng)


def _frozen_rounds(experiment, seeds, table, seed):
    if table is None:
        raise ValueError("the frozen strategy needs a qtable to deploy")
    choose = functools.partial(rl.predict, table)
    return (instance_episode(experiment, s, choose) for s in seeds)


#: Each strategy's rounds: `POLICIES[name](experiment, seeds, table, seed)`
#: checks the Q-table it is given and returns the seeds' lazy RunResults.
#: Adaptive trains `table` (a fresh one if None); frozen applies its greedy
#: choices and never writes to it.
POLICIES = {"lowest-cost": _lowest_cost_rounds, "adaptive": _adaptive_rounds,
            "frozen": _frozen_rounds}


def run_experiment(
    workflow: Workflow,
    cloud: MultiCloud,
    detectors: dict,
    severity_model,
    cfg: TenantConfig,
    n_runs: int,
    strategy: str,
    attack_rate: float,
    *,
    seed: int = 0,
    qtable: rl.QTable | None = None,
    burn_in: int = 50,
) -> ExperimentResult:
    """Run `n_runs` rounds of one workflow under a strategy of `POLICIES`.

    "lowest-cost" picks the cheapest candidate each time. "adaptive" learns
    online: each round is an epsilon-greedy Q-learning episode over the same
    workflow, with epsilon decaying across rounds. A decision's reward is
    its share of the run metric: sum of W_i * d_i / s_i over the change d
    it made to the ledger totals, with s = `Experiment.spreads` from the
    burn-in. With `burn_in` 0 or 1 every reward and Q value is 0.0, and the
    policy is epsilon-exploration over a cheapest-first greedy. "frozen"
    takes `qtable`'s greedy choices and learns nothing. The burn-in settles
    the trust rates first, so every strategy starts from the same state; trust
    carries over between rounds in run-index order. Deterministic given `seed`."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if strategy not in POLICIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    trust = TrustRepository.from_cloud(cloud)
    plan = schedule(workflow, cloud, trust, cfg)
    experiment = Experiment(workflow, plan, cloud, detectors, severity_model, cfg, trust,
                            attack_rate)
    run_seeds = np.random.SeedSequence(seed).generate_state(n_runs + 1)[1:].tolist()
    burn_in_seeds = np.random.SeedSequence([seed, 23]).generate_state(burn_in).tolist()
    all_seeds = burn_in_seeds + run_seeds
    experiment.seed_words = dict(zip(all_seeds, instance_seed_words(all_seeds)))
    rounds = POLICIES[strategy](experiment, run_seeds, qtable, seed)

    burn_in_attrs = [run_instance(experiment, s).reward_attrs() for s in burn_in_seeds]
    if burn_in_attrs:
        mins, maxs = rl.attr_bounds(burn_in_attrs)
        experiment.spreads = {n: maxs[n] - mins[n] for n in rl.ATTR_NAMES}
    return ExperimentResult(runs=list(rounds))


def composite_rewards(results):
    """Per-run composite reward with min-max normalization over the pooled
    result list (degenerate attributes contribute 0)."""
    attrs = [r.reward_attrs() for r in results]
    bounds = rl.attr_bounds(attrs)
    return np.array([rl.reward(a, *bounds) for a in attrs])


# ---------------------------------------------------------------------------
# Benchmark generators

def generate_workflow_class(wf_class: WorkflowClass, seed: int) -> Workflow:
    """Random series-parallel DAG with the class's task-count range; CIA
    requirements ~ U(0,1), values ~ U(0.1,1), and at least two feasible
    adaptation kinds per task."""
    rng = np.random.default_rng(seed)
    lo, hi = CLASS_TASK_RANGE[wf_class]
    n = int(rng.integers(lo, hi + 1))
    structure = _sp_structure(n, rng)
    tasks, edges = [], []
    counter = [0]

    def emit_task():
        tid = f"t{counter[0]}"
        counter[0] += 1
        kinds = [k for k in ActionKind if rng.random() < 0.7]
        while len(kinds) < 2:
            extra = list(ActionKind)[int(rng.integers(len(ActionKind)))]
            if extra not in kinds:
                kinds.append(extra)
        tasks.append(
            Task(
                id=tid,
                requirements=SecurityVector(*rng.uniform(0, 1, 3)),
                value=float(rng.uniform(0.1, 1.0)),
                feasible_actions={k: None for k in kinds},
            )
        )
        return [tid], [tid]

    def build(node):
        kind, children = node
        if kind == "task":
            return emit_task()
        parts = [build(c) for c in children]
        if kind == "series":
            for (_, sinks), (sources, _) in zip(parts, parts[1:]):
                for s in sinks:
                    for t in sources:
                        cond = ""
                        prob = 1.0
                        if rng.random() < 0.15:
                            cond = f"c{len(edges)}"
                            prob = 0.5
                        edges.append(ControlEdge(src=s, dst=t, cond=cond, prob=prob))
            return parts[0][0], parts[-1][1]
        # parallel
        sources = [s for p in parts for s in p[0]]
        sinks = [s for p in parts for s in p[1]]
        return sources, sinks

    build(structure)
    # sparse data edges along existing control paths
    data_edges = []
    for e in edges:
        if rng.random() < 0.3:
            data_edges.append(DataEdge(src=e.src, dst=e.dst, data=f"d{len(data_edges)}"))
    return Workflow(tasks=tuple(tasks), control_edges=tuple(edges),
                    data_edges=tuple(data_edges))


def _sp_structure(n, rng):
    if n == 1:
        return ("task", ())
    k = int(rng.integers(1, n))
    kind = "series" if rng.random() < 0.6 else "parallel"
    return (kind, (_sp_structure(k, rng), _sp_structure(n - k, rng)))


def generate_multicloud(seed: int) -> MultiCloud:
    """5 providers x 3 services; response times in [1,50] with the fastest
    service of a provider roughly 3x faster (and 3x pricier) than the
    slowest; CIA guarantees skewed high, with one top-security service so
    every workflow stays schedulable."""
    rng = np.random.default_rng(seed)
    providers = []
    for p in range(5):
        pid = f"p{p}"
        base_time = rng.uniform(1.0, 50.0 / 3.4)
        base_price = rng.uniform(0.3, 2.9)
        factors = [1.0, rng.uniform(1.7, 2.3), rng.uniform(2.7, 3.3)]
        services = []
        for s, f in enumerate(factors):
            time = float(np.clip(base_time * f, 1.0, 50.0))
            price = float(np.clip(base_price * (3.0 / f) * rng.uniform(0.9, 1.1),
                                  0.1, 10.0))
            guarantees = SecurityVector(*np.sqrt(rng.uniform(0, 1, 3)))
            if p == 0 and s == 0:
                guarantees = SecurityVector(1.0, 1.0, 1.0)
            services.append(
                Service(
                    id=f"{pid}-s{s}",
                    provider_id=pid,
                    price=price,
                    response_time=time,
                    guarantees=guarantees,
                    afr={at: float(rng.uniform(0.1, 0.6)) for at in AttackType},
                )
            )
        providers.append((pid, tuple(services)))
    return MultiCloud(providers=tuple(providers))
