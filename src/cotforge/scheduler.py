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
from collections import defaultdict, deque
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ValidationError


class Stage(str, Enum):
    """An item's supervision stage; hashes and compares as its value."""

    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


# bound once: a Stage.X lookup costs several times a str compare per item
_EASY, _MEDIUM, _HARD = Stage.EASY, Stage.MEDIUM, Stage.HARD


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
class DomainEpochStats:
    """One epoch's per-domain accumulators and progress; traces pin the field order."""

    mean_easy: Optional[float]
    count_easy: int
    mean_med: Optional[float]
    count_med: int
    progress: Optional[float]
    ema_easy: Optional[float] = None
    ema_med: Optional[float] = None


@dataclass
class EpochReport:
    epoch: int
    beta: float
    lambda_hard: float
    domains: Dict[str, DomainEpochStats]
    mean_total: Optional[float]  # None for an epoch without items
    cot_easy_mean: Optional[float]
    cot_easy_count: int
    cot_med_mean: Optional[float]
    cot_med_count: int
    counts: Dict[Stage, int]
    # filled in by close_epoch
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
        total = sum(self.counts.get(s, 0) for s in Stage)
        return {s.value: self.counts.get(s, 0) / total if total else 0.0
                for s in Stage}

    def to_json_dict(self) -> dict:
        return {
            "kind": "epoch",
            "epoch": self.epoch,
            "beta": self.beta,
            "lambda_hard_budget": self.lambda_hard,
            "lambda_hard_after": self.lambda_hard_after,
            "counts": {s.value: self.counts.get(s, 0) for s in Stage},
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
            "domains": {k: asdict(v) for k, v in sorted(self.domains.items())},
        }


class Trace(NamedTuple):
    """A curriculum run: its header row, then one report per epoch."""

    header: dict
    reports: List[EpochReport]


@dataclass
class BatchPlan:
    hard_indices: np.ndarray
    main_indices: np.ndarray
    main_stages: List[Stage]


def _checked_p_medium(p_medium_per_item, main_pool_size: int) -> np.ndarray:
    p = np.asarray(p_medium_per_item, dtype=float)
    if p.shape != (main_pool_size,):
        raise ValidationError(f"p_medium_per_item must have length {main_pool_size}")
    # written so that NaN, which fails every comparison, is rejected too
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValidationError("medium probabilities must lie in [0, 1]")
    return p


def _draw_batch(batch_size: int, lambda_hard: float, hard_pool_size: int,
                p: np.ndarray, rng: np.random.Generator) -> BatchPlan:
    """One batch, hard slots first, then stage coins for the rest, drawn
    without replacement from a main pool whose probabilities ``p`` are checked."""
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
    if n_main > p.size:
        raise ValidationError(
            f"main pool exhausted: need {n_main} items, pool has {p.size}"
        )

    hard_idx = (rng.choice(hard_pool_size, size=n_hard, replace=False)
                if n_hard else np.empty(0, dtype=np.int64))
    main_idx = (rng.choice(p.size, size=n_main, replace=False)
                if n_main else np.empty(0, dtype=np.int64))
    coins = rng.random(n_main)
    stages = [_MEDIUM if medium else _EASY
              for medium in (coins < p[main_idx]).tolist()]
    return BatchPlan(hard_indices=hard_idx, main_indices=main_idx,
                     main_stages=stages)


@dataclass(frozen=True)
class EpochContext:
    """The open epoch: fixed by ``start_epoch``, read until ``end_of_epoch``."""

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

    Usage per epoch: ``start_epoch`` (fixes beta, the per-domain medium
    probabilities and, from the main pool's domains, each pool item's
    probability), any number of ``plan_batch``/``observe`` calls (one
    ``observe`` per batch of losses), then ``end_of_epoch`` which returns
    the epoch's report and moves the budget through ``close_epoch``.
    """

    def __init__(self, hyperparams: SchedulerHyperparams,
                 domains: Sequence[str] = (), seed: int = 0):
        self.hp = hyperparams
        self.epoch = 1  # the next epoch to close
        self.lambda_hard = hyperparams.lambda_hard_init
        self.m_bar: Optional[float] = None
        self.delta_history = deque(maxlen=hyperparams.q)  # the last q changes of m_bar
        self.domains: Dict[str, DomainEma] = {key: DomainEma() for key in domains}
        self.rng = np.random.default_rng(seed)
        self._open: Optional[EpochContext] = None  # the open epoch, if any

    def start_epoch(self, main_pool_domains: Sequence[str] = ()) -> EpochContext:
        """Open the next epoch; ``main_pool_domains`` names each main-pool
        item's domain, and fixes the pool ``plan_batch`` draws from."""
        if self._open is not None:
            raise ValidationError("previous epoch was not closed")
        hp = self.hp
        beta = ramp(self.epoch, hp.kappa, hp.warmup_epochs)
        progress: Dict[str, Optional[float]] = {}
        p_med: Dict[str, float] = {}
        for key, ema in self.domains.items():
            g = domain_progress(ema.ema_easy, ema.ema_med, hp.eps)
            known = ema.ema_easy is not None and ema.ema_med is not None
            progress[key] = g if known else None
            p_med[key] = p_medium(g, beta, hp.gamma, hp.tau)
        # the main pool's per-item probabilities, fixed for the epoch
        self._pool_p_medium = _checked_p_medium(
            [p_med.get(d, 0.0) for d in main_pool_domains], len(main_pool_domains))
        # the epoch's items per stage and total loss; for Easy and Medium,
        # the loss per domain and the rationale loss
        self._counts = {s: 0 for s in Stage}
        self._total = _Accumulator()
        self._by_domain = {_EASY: defaultdict(_Accumulator),
                           _MEDIUM: defaultdict(_Accumulator)}
        self._cot = {_EASY: _Accumulator(), _MEDIUM: _Accumulator()}
        self._open = EpochContext(epoch=self.epoch, beta=beta,
                                   lambda_hard=self.lambda_hard,
                                   progress=progress, p_medium=p_med)
        return self._open

    def plan_batch(self, batch_size: int, hard_pool_size: int) -> BatchPlan:
        """Assign stages for one batch from the main pool the epoch opened with."""
        if self._open is None:
            raise ValidationError("plan_batch called outside an epoch")
        return _draw_batch(batch_size, self.lambda_hard, hard_pool_size,
                           self._pool_p_medium, self.rng)

    def observe(self, domains: Sequence[str], stages: Sequence[Union[Stage, str]],
                totals: Sequence[float], cots: Sequence[Optional[float]]):
        """Add a batch's losses, item by item in order, to the open epoch.

        Per item: its domain, its stage (a member or its string), its total
        loss, and its rationale loss, or None for none (a NaN is a loss).
        """
        if self._open is None:
            raise ValidationError("observe called outside an epoch")
        if not len(domains) == len(stages) == len(totals) == len(cots):
            raise ValidationError("domains, stages, totals and cots must align")
        for domain, stage, total, cot in zip(domains, stages, totals, cots):
            if stage not in self._counts:  # one key per Stage; a value finds it
                raise ValidationError(f"unknown stage {stage!r}")
            if domain not in self.domains:
                # first seen mid-epoch: no progress or probability was fixed for it
                self.domains[domain] = DomainEma()
            self._counts[stage] += 1
            self._total.add(total)
            if stage != _HARD:
                self._by_domain[stage][domain].add(total)
                if cot is not None:
                    self._cot[stage].add(cot)
            elif cot is not None:
                raise ValidationError("hard items carry no rationale loss")

    def end_of_epoch(self) -> EpochReport:
        ctx = self._open
        if ctx is None:
            raise ValidationError("end_of_epoch called outside an epoch")
        domains = {}
        for key in self.domains:
            easy, med = self._by_domain[_EASY][key], self._by_domain[_MEDIUM][key]
            domains[key] = DomainEpochStats(
                mean_easy=easy.mean(), count_easy=easy.count,
                mean_med=med.mean(), count_med=med.count,
                progress=ctx.progress.get(key),
            )
        report = EpochReport(
            epoch=ctx.epoch,
            beta=ctx.beta,
            lambda_hard=ctx.lambda_hard,
            domains=domains,
            mean_total=self._total.mean(),
            cot_easy_mean=self._cot[_EASY].mean(),
            cot_easy_count=self._cot[_EASY].count,
            cot_med_mean=self._cot[_MEDIUM].mean(),
            cot_med_count=self._cot[_MEDIUM].count,
            counts=dict(self._counts),
        )
        self.close_epoch(report)
        self._open = None
        return report

    def close_epoch(self, report: EpochReport) -> Decision:
        """Fold one epoch's statistics into the controller and move the budget.

        Updates the EMAs, plateau history, ``lambda_hard`` and epoch counter,
        and stamps the derived signals back onto ``report``.
        """
        hp = self.hp
        if report.epoch != self.epoch:
            raise ValidationError(
                f"report is for epoch {report.epoch}, scheduler is at {self.epoch}"
            )
        for key, stats in report.domains.items():
            ema = self.domains.setdefault(key, DomainEma())
            if stats.count_easy > 0:
                ema.ema_easy = update_ema(ema.ema_easy, stats.mean_easy, hp.rho)
            if stats.count_med > 0:
                ema.ema_med = update_ema(ema.ema_med, stats.mean_med, hp.rho)
            stats.ema_easy = ema.ema_easy
            stats.ema_med = ema.ema_med

        delta: Optional[float] = None
        if report.mean_total is not None:
            prev = self.m_bar
            self.m_bar = update_ema(prev, report.mean_total, hp.rho)
            if prev is not None:
                delta = self.m_bar - prev
                self.delta_history.append(delta)

        if report.cot_easy_count > 0 and report.cot_med_count > 0:
            gap = report.cot_med_mean - report.cot_easy_mean
        else:
            gap = math.inf

        plateau = (len(self.delta_history) >= hp.q
                   and all(abs(d) <= hp.eps_plateau for d in self.delta_history))
        progress_values = [s.progress for s in report.domains.values()
                           if s.progress is not None]
        median_g = median_progress(progress_values) if progress_values else None
        median_ok = median_g is not None and median_g >= hp.gamma_hard
        gap_ok = gap <= hp.eps_cot
        rise = delta is not None and delta >= hp.delta_rise

        if plateau and median_ok and gap_ok:
            self.lambda_hard = min(self.lambda_hard + hp.eta_up, hp.lambda_hard_max)
            decision = Decision.INCREASE_HARD
        elif rise:
            self.lambda_hard = (1.0 - hp.eta_down) * self.lambda_hard
            decision = Decision.REDUCE_HARD
        else:
            decision = Decision.HOLD
        self.lambda_hard = min(max(self.lambda_hard, 0.0), hp.lambda_hard_max)
        self.epoch += 1

        report.m_bar = self.m_bar
        report.delta_m_bar = delta
        report.gap_cot = gap
        report.median_progress = median_g
        report.plateau = plateau
        report.median_ok = median_ok
        report.gap_ok = gap_ok
        report.rise = rise
        report.decision = decision
        report.lambda_hard_after = self.lambda_hard
        return decision
