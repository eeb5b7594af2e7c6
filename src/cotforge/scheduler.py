"""Domain-aware curriculum scheduler with a hard-stage feedback budget.

The scheduler decides, per training item, which supervision stage it gets
(easy: grounded rationale, medium: attention-shaped rationale, hard:
answer-only) and adapts the hard-stage budget ``lambda_hard`` once per
epoch from three signals:

* plateau: the last ``q`` changes of the smoothed total loss are all within
  ``eps_plateau`` of zero,
* progress: the median per-domain relative improvement of the medium stage
  over the easy stage is at least ``gamma_hard``,
* rationale gap: mean medium-stage rationale loss exceeds the easy-stage
  one by at most ``eps_cot``.

All three must hold to grow the budget; a rise of the smoothed total loss
by at least ``delta_rise`` shrinks it instead. Everything else holds.

Per-domain statistics are tracked under string keys (``lesion|modality``).
Smoothing uses ``prev + rho * (mean - prev)``; the algebraically equal
``(1 - rho) * prev + rho * mean`` differs in the last float bit for some
inputs, and tests pin the former.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from .errors import ValidationError

STAGES = ("easy", "medium", "hard")


class Decision(str, Enum):
    HOLD = "hold"
    INCREASE_HARD = "increase_hard"
    REDUCE_HARD = "reduce_hard"


@dataclass(frozen=True)
class SchedulerHyperparams:
    """Feedback controller constants. Defaults are the reference operating point."""

    rho: float = 0.3
    kappa: float = 10.0
    warmup_epochs: int = 5
    gamma: float = 0.2
    tau: float = 0.1
    gamma_hard: float = 0.3
    eps_plateau: float = 0.01
    q: int = 5
    eps_cot: float = 0.05
    delta_rise: float = 0.05
    eta_up: float = 0.05
    eta_down: float = 0.5
    lambda_hard_max: float = 0.3
    eps: float = 1e-8
    lambda_hard_init: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValidationError(f"rho must be in (0, 1], got {self.rho}")
        if self.kappa <= 0.0:
            raise ValidationError(f"kappa must be positive, got {self.kappa}")
        if self.warmup_epochs < 0:
            raise ValidationError("warmup_epochs must be non-negative")
        if self.tau <= 0.0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if self.q < 1:
            raise ValidationError(f"q must be at least 1, got {self.q}")
        if self.eps_plateau < 0.0:
            raise ValidationError("eps_plateau must be non-negative")
        if self.eps_cot < 0.0:
            raise ValidationError("eps_cot must be non-negative")
        if self.delta_rise <= 0.0:
            raise ValidationError("delta_rise must be positive")
        if self.eta_up < 0.0:
            raise ValidationError("eta_up must be non-negative")
        if not 0.0 <= self.eta_down <= 1.0:
            raise ValidationError(f"eta_down must be in [0, 1], got {self.eta_down}")
        if not 0.0 <= self.lambda_hard_max <= 1.0:
            raise ValidationError("lambda_hard_max must be in [0, 1]")
        if not 0.0 <= self.lambda_hard_init <= self.lambda_hard_max:
            raise ValidationError(
                "lambda_hard_init must be in [0, lambda_hard_max], got "
                f"{self.lambda_hard_init}"
            )
        if self.eps <= 0.0:
            raise ValidationError("eps must be positive")

    def to_json_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def update_ema(prev: Optional[float], mean: float, rho: float) -> float:
    """Exponential smoothing; an unset value snaps to the first observation."""
    if prev is None:
        return float(mean)
    return prev + rho * (mean - prev)


def ramp(epoch: int, kappa: float, warmup_epochs: int = 5) -> float:
    """Medium-stage availability: 0 through warmup, then linear to 1 over kappa."""
    if epoch < 1:
        raise ValidationError(f"epoch must be at least 1, got {epoch}")
    if epoch <= warmup_epochs:
        return 0.0
    return min(1.0, (epoch - warmup_epochs) / kappa)


def domain_progress(ema_easy: Optional[float], ema_med: Optional[float],
                    eps: float) -> float:
    """Relative improvement of the medium stage over the easy one.

    Returns 0 until both smoothed means exist, so a domain without medium
    evidence neither promotes nor demotes itself.
    """
    if ema_easy is None or ema_med is None:
        return 0.0
    return (ema_easy - ema_med) / (ema_easy + eps)


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def p_medium(progress: float, beta: float, gamma: float, tau: float) -> float:
    """Probability that a main-pool item is assigned the medium stage."""
    if not 0.0 <= beta <= 1.0:
        raise ValidationError(f"beta must be in [0, 1], got {beta}")
    if tau <= 0.0:
        raise ValidationError(f"tau must be positive, got {tau}")
    return beta * _sigmoid((progress - gamma) / tau)


def median_progress(values: Sequence[float]) -> float:
    """Median with the usual even-count mean-of-middle-pair convention."""
    if not values:
        raise ValidationError("median of empty progress list")
    return float(statistics.median(values))


@dataclass
class DomainEma:
    ema_easy: Optional[float] = None
    ema_med: Optional[float] = None


@dataclass
class SchedulerState:
    epoch: int
    lambda_hard: float
    m_bar: Optional[float]
    delta_history: Deque[float]
    gap_cot: Optional[float]
    domains: Dict[str, DomainEma]

    @classmethod
    def initial(cls, hp: SchedulerHyperparams,
                domains: Sequence[str] = ()) -> "SchedulerState":
        return cls(
            epoch=1,
            lambda_hard=hp.lambda_hard_init,
            m_bar=None,
            delta_history=deque(maxlen=hp.q),
            gap_cot=None,
            domains={key: DomainEma() for key in domains},
        )


@dataclass
class DomainEpochStats:
    """Per-domain accumulators for one epoch plus the progress in effect."""

    mean_easy: Optional[float]
    count_easy: int
    mean_med: Optional[float]
    count_med: int
    progress_used: Optional[float]
    ema_easy: Optional[float] = None
    ema_med: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {
            "mean_easy": self.mean_easy,
            "count_easy": self.count_easy,
            "mean_med": self.mean_med,
            "count_med": self.count_med,
            "progress": self.progress_used,
            "ema_easy": self.ema_easy,
            "ema_med": self.ema_med,
        }


@dataclass
class EpochReport:
    epoch: int
    beta: float
    lambda_hard: float
    domains: Dict[str, DomainEpochStats]
    mean_total: Optional[float]
    count_total: int
    cot_easy_mean: Optional[float]
    cot_easy_count: int
    cot_med_mean: Optional[float]
    cot_med_count: int
    counts: Dict[str, int]
    # filled in by end_of_epoch
    m_bar: Optional[float] = None
    delta_m_bar: Optional[float] = None
    gap_cot: Optional[float] = None
    median_progress: Optional[float] = None
    plateau: bool = False
    median_ok: bool = False
    gap_ok: bool = False
    rise: bool = False
    decision: Optional[Decision] = None
    lambda_hard_after: Optional[float] = None

    def realized(self) -> Dict[str, float]:
        total = sum(self.counts.get(s, 0) for s in STAGES)
        if total == 0:
            return {s: 0.0 for s in STAGES}
        return {s: self.counts.get(s, 0) / total for s in STAGES}

    def to_json_dict(self) -> dict:
        return {
            "kind": "epoch",
            "epoch": self.epoch,
            "beta": self.beta,
            "lambda_hard_budget": self.lambda_hard,
            "lambda_hard_after": self.lambda_hard_after,
            "counts": {s: self.counts.get(s, 0) for s in STAGES},
            "realized": self.realized(),
            "mean_total": self.mean_total,
            "m_bar": self.m_bar,
            "delta_m_bar": self.delta_m_bar,
            "gap_cot": self.gap_cot,
            "median_progress": self.median_progress,
            "conditions": {
                "plateau": self.plateau,
                "median_progress_ok": self.median_ok,
                "rationale_gap_ok": self.gap_ok,
                "rise": self.rise,
            },
            "decision": None if self.decision is None else self.decision.value,
            "domains": {k: v.to_json_dict() for k, v in sorted(self.domains.items())},
        }


@dataclass
class BatchPlan:
    hard_indices: np.ndarray
    main_indices: np.ndarray
    main_stages: List[str]


def plan_batch(batch_size: int, lambda_hard: float, hard_pool_size: int,
               main_pool_size: int,
               p_medium_per_item: Union[float, np.ndarray],
               rng: np.random.Generator) -> BatchPlan:
    """Draw one batch: hard slots first, then stage coins for the rest.

    ``p_medium_per_item`` is either one probability for every main-pool item
    or an array aligned with the main pool. Draws are without replacement
    within the batch; the budget never changes here.
    """
    if batch_size < 1:
        raise ValidationError(f"batch_size must be at least 1, got {batch_size}")
    if not 0.0 <= lambda_hard <= 1.0:
        raise ValidationError(f"lambda_hard must be in [0, 1], got {lambda_hard}")
    n_hard = int(math.floor(lambda_hard * batch_size))
    if n_hard > hard_pool_size:
        raise ValidationError(
            f"hard pool exhausted: need {n_hard} items, pool has {hard_pool_size}"
        )
    n_main = batch_size - n_hard
    if n_main > main_pool_size:
        raise ValidationError(
            f"main pool exhausted: need {n_main} items, pool has {main_pool_size}"
        )
    p = np.asarray(p_medium_per_item, dtype=float)
    if p.ndim == 0:
        p = np.full(main_pool_size, float(p))
    elif p.shape != (main_pool_size,):
        raise ValidationError(
            f"p_medium_per_item must be scalar or length {main_pool_size}"
        )
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValidationError("medium probabilities must lie in [0, 1]")

    hard_idx = (rng.choice(hard_pool_size, size=n_hard, replace=False)
                if n_hard else np.empty(0, dtype=np.int64))
    main_idx = (rng.choice(main_pool_size, size=n_main, replace=False)
                if n_main else np.empty(0, dtype=np.int64))
    coins = rng.random(n_main)
    stages = ["medium" if coins[i] < p[main_idx[i]] else "easy"
              for i in range(n_main)]
    return BatchPlan(hard_indices=hard_idx, main_indices=main_idx,
                     main_stages=stages)


def end_of_epoch(state: SchedulerState, report: EpochReport,
                 hp: SchedulerHyperparams) -> Decision:
    """Fold one epoch's statistics into the state and move the budget.

    Mutates ``state`` (EMAs, plateau history, lambda_hard, epoch counter)
    and stamps the derived signals back onto ``report``.
    """
    if report.epoch != state.epoch:
        raise ValidationError(
            f"report is for epoch {report.epoch}, scheduler is at {state.epoch}"
        )
    for key, stats in report.domains.items():
        ema = state.domains.setdefault(key, DomainEma())
        if stats.count_easy > 0:
            ema.ema_easy = update_ema(ema.ema_easy, stats.mean_easy, hp.rho)
        if stats.count_med > 0:
            ema.ema_med = update_ema(ema.ema_med, stats.mean_med, hp.rho)
        stats.ema_easy = ema.ema_easy
        stats.ema_med = ema.ema_med

    delta: Optional[float] = None
    if report.count_total > 0:
        prev = state.m_bar
        state.m_bar = update_ema(prev, report.mean_total, hp.rho)
        if prev is not None:
            delta = state.m_bar - prev
            state.delta_history.append(delta)

    if report.cot_easy_count > 0 and report.cot_med_count > 0:
        gap = report.cot_med_mean - report.cot_easy_mean
    else:
        gap = math.inf
    state.gap_cot = gap

    plateau = (len(state.delta_history) >= hp.q
               and all(abs(d) <= hp.eps_plateau for d in state.delta_history))
    progress_values = [s.progress_used for s in report.domains.values()
                       if s.progress_used is not None]
    median_g = median_progress(progress_values) if progress_values else None
    median_ok = median_g is not None and median_g >= hp.gamma_hard
    gap_ok = gap <= hp.eps_cot
    rise = delta is not None and delta >= hp.delta_rise

    if plateau and median_ok and gap_ok:
        state.lambda_hard = min(state.lambda_hard + hp.eta_up, hp.lambda_hard_max)
        decision = Decision.INCREASE_HARD
    elif rise:
        state.lambda_hard = (1.0 - hp.eta_down) * state.lambda_hard
        decision = Decision.REDUCE_HARD
    else:
        decision = Decision.HOLD
    state.lambda_hard = min(max(state.lambda_hard, 0.0), hp.lambda_hard_max)
    state.epoch += 1

    report.m_bar = state.m_bar
    report.delta_m_bar = delta
    report.gap_cot = gap
    report.median_progress = median_g
    report.plateau = plateau
    report.median_ok = median_ok
    report.gap_ok = gap_ok
    report.rise = rise
    report.decision = decision
    report.lambda_hard_after = state.lambda_hard
    return decision


@dataclass
class EpochContext:
    """What the training loop needs for the epoch about to run."""

    epoch: int
    beta: float
    lambda_hard: float
    progress: Dict[str, Optional[float]]
    p_medium: Dict[str, float]


class _Accumulator:
    __slots__ = ("total", "count")

    def __init__(self):
        self.total = 0.0
        self.count = 0

    def add(self, value: float):
        self.total += float(value)
        self.count += 1

    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None


class CurriculumScheduler:
    """Stage assignment and budget control across a training run.

    Usage per epoch: ``start_epoch`` (fixes beta and per-domain medium
    probabilities), any number of ``plan_batch``/``observe`` calls, then
    ``end_of_epoch`` which returns the epoch's report and moves the budget.
    """

    def __init__(self, hyperparams: SchedulerHyperparams,
                 domains: Sequence[str] = (), seed: int = 0):
        self.hp = hyperparams
        self.state = SchedulerState.initial(hyperparams, domains)
        self.rng = np.random.default_rng(seed)
        self._epoch_open = False
        self._progress: Dict[str, Optional[float]] = {}
        self._p_medium: Dict[str, float] = {}
        self._reset_accumulators()

    def _reset_accumulators(self):
        self._easy: Dict[str, _Accumulator] = {}
        self._med: Dict[str, _Accumulator] = {}
        self._total = _Accumulator()
        self._cot_easy = _Accumulator()
        self._cot_med = _Accumulator()
        self._counts = {s: 0 for s in STAGES}

    def register_domain(self, key: str):
        self.state.domains.setdefault(key, DomainEma())

    def start_epoch(self) -> EpochContext:
        if self._epoch_open:
            raise ValidationError("previous epoch was not closed")
        self._epoch_open = True
        self._reset_accumulators()
        beta = ramp(self.state.epoch, self.hp.kappa, self.hp.warmup_epochs)
        self._progress = {}
        self._p_medium = {}
        for key, ema in self.state.domains.items():
            if ema.ema_easy is None or ema.ema_med is None:
                self._progress[key] = None
                g = 0.0
            else:
                g = domain_progress(ema.ema_easy, ema.ema_med, self.hp.eps)
                self._progress[key] = g
            self._p_medium[key] = p_medium(g, beta, self.hp.gamma, self.hp.tau)
        return EpochContext(
            epoch=self.state.epoch,
            beta=beta,
            lambda_hard=self.state.lambda_hard,
            progress=dict(self._progress),
            p_medium=dict(self._p_medium),
        )

    def plan_batch(self, batch_size: int, hard_pool_size: int,
                   main_pool_domains: Sequence[str]) -> BatchPlan:
        """Assign stages for one batch; main_pool_domains aligns with the pool."""
        if not self._epoch_open:
            raise ValidationError("plan_batch called outside an epoch")
        p = np.array(
            [self._p_medium.get(d, 0.0) for d in main_pool_domains], dtype=float
        )
        return plan_batch(batch_size, self.state.lambda_hard, hard_pool_size,
                          len(main_pool_domains), p, self.rng)

    def observe(self, domain: str, stage: str, total_loss: float,
                cot_loss: Optional[float] = None):
        if not self._epoch_open:
            raise ValidationError("observe called outside an epoch")
        if stage not in STAGES:
            raise ValidationError(f"unknown stage {stage!r}")
        self.register_domain(domain)
        if domain not in self._progress:
            # domain first seen mid-epoch: no probability was fixed for it
            self._progress[domain] = None
        self._counts[stage] += 1
        self._total.add(total_loss)
        if stage == "easy":
            self._easy.setdefault(domain, _Accumulator()).add(total_loss)
            if cot_loss is not None:
                self._cot_easy.add(cot_loss)
        elif stage == "medium":
            self._med.setdefault(domain, _Accumulator()).add(total_loss)
            if cot_loss is not None:
                self._cot_med.add(cot_loss)
        elif cot_loss is not None:
            raise ValidationError("hard items carry no rationale loss")

    def end_of_epoch(self) -> EpochReport:
        if not self._epoch_open:
            raise ValidationError("end_of_epoch called outside an epoch")
        domains = {}
        for key in self.state.domains:
            easy = self._easy.get(key, _Accumulator())
            med = self._med.get(key, _Accumulator())
            domains[key] = DomainEpochStats(
                mean_easy=easy.mean(), count_easy=easy.count,
                mean_med=med.mean(), count_med=med.count,
                progress_used=self._progress.get(key),
            )
        report = EpochReport(
            epoch=self.state.epoch,
            beta=ramp(self.state.epoch, self.hp.kappa, self.hp.warmup_epochs),
            lambda_hard=self.state.lambda_hard,
            domains=domains,
            mean_total=self._total.mean(),
            count_total=self._total.count,
            cot_easy_mean=self._cot_easy.mean(),
            cot_easy_count=self._cot_easy.count,
            cot_med_mean=self._cot_med.mean(),
            cot_med_count=self._cot_med.count,
            counts=dict(self._counts),
        )
        end_of_epoch(self.state, report, self.hp)
        self._epoch_open = False
        return report
