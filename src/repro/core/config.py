"""Configuration of the PARIS aligner.

The paper stresses (Section 5.4) that PARIS has **no dataset-dependent
tuning parameters**: the only knobs are the bootstrap/truncation value
``θ`` (shown in Section 6.3 to not affect results) and the literal
similarity function (application-dependent; the identity function is
the paper's default and works well).  Everything else in this class
exposes the fixed implementation choices of Section 5 so that the
Section 6.3 / Appendix A ablations can toggle them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..literals import IdentitySimilarity, LiteralSimilarity
from .functionality import FunctionalityDefinition


class ConfigError(ValueError):
    """An out-of-range :class:`ParisConfig` setting (the CLI reports it
    as a usage error)."""


#: Eq. 13 scoring engines selectable via ``ParisConfig.scoring``.
SCORING_MODES = ("auto", "dict", "vectorized")


@dataclass
class ParisConfig:
    """Settings for one alignment run.

    Parameters
    ----------
    theta:
        Initial value for ``Pr(r ⊆ r')`` in the very first iteration,
        and the truncation threshold below which probabilities are
        clamped to zero (Section 5.2).  Paper value: ``0.1``.
    use_name_prior:
        Replace the uniform bootstrap with the relation-name prior of
        :mod:`repro.core.priors` — the extension the paper's conclusion
        conjectures ("the name heuristics of more traditional
        schema-alignment techniques could be factored into the model").
        Off by default: the paper's headline claim is that PARIS works
        without any name heuristics.
    name_prior_max:
        Prior assigned to a perfect relation-name match when
        ``use_name_prior`` is on (floor stays at ``theta``).
    literal_similarity:
        Clamped literal-equivalence function (Section 5.3).  Default is
        the strict identity measure used in the paper's experiments.
    max_iterations:
        Hard cap on fixpoint iterations; the paper's runs converge in
        2–4.
    convergence_threshold:
        Convergence is declared when the fraction of instances whose
        maximal assignment changed drops below this (paper: "until less
        than 1 % of the entities changed their maximal assignment").
    use_negative_evidence:
        If ``True``, use Eq. 14 (positive and negative evidence) instead
        of Eq. 13 (positive only).  The paper found Eq. 13 sufficient
        and Eq. 14 harmful under strict literal identity (Section 6.3).
    restrict_to_maximal_assignment:
        Section 5.2: "For each computation, our algorithm considers only
        the equalities of the previous maximal assignment and ignores
        all other equalities."  Disabling this reproduces the
        second Section 6.3 ablation (all probabilities considered).
    max_pairs_per_relation:
        Cap on the number of statement pairs evaluated per relation in
        Eq. 12 and per class in Eq. 17 (paper: 10 000).
    functionality:
        Which Appendix-A definition of global functionality to use;
        the paper chooses the harmonic mean.
    dampening:
        Blend factor for successive instance-equivalence estimates
        (``p ← dampening·p_old + (1−dampening)·p_new``).  0 reproduces
        the paper's plain iteration; positive values implement the
        "progressively increasing dampening factor" the paper suggests
        for enforcing convergence (Section 5.1).
    detect_cycles:
        Declare convergence when the maximal assignment exactly
        repeats an assignment seen two iterations earlier (a period-2
        oscillation between equally plausible matches).  The current
        iteration's assignment is kept.
    keep_snapshots:
        Record per-iteration maximal assignments for Table-3/5 style
        per-iteration evaluation (costs memory proportional to the
        number of matched instances per iteration).  Cold runs only:
        warm runs (:meth:`~repro.core.aligner.ParisAligner.warm_align`)
        record no snapshots and report their net change log instead.
    workers:
        Worker processes for every pass (Section 5.1 runs them "in
        parallel on all available processors").  ``1`` (default) runs
        in-process.  Larger values take effect only when the
        vectorized kernel runs (numpy present, ``scoring`` not
        ``"dict"``, negative evidence off) and the platform offers the
        ``fork`` start method: the passes then shard over the fork-once
        :class:`~repro.core.parallel.WorkerPool`.  Otherwise every pass
        runs sequentially.  Scores never depend on this knob.
    scoring:
        Which Eq. 13 scoring engine the aligner uses.  ``"auto"``
        (default) picks the interned-ID vectorized kernel
        (:mod:`repro.core.vectorized`) whenever numpy is available and
        negative evidence is off, falling back to the dict reference
        implementation otherwise; ``"dict"`` forces the reference path;
        ``"vectorized"`` requires the kernel and raises if numpy is
        missing.  Both engines produce bit-identical scores (the kernel
        mirrors the dict path's float operations and fold order —
        enforced by ``tests/test_vectorized.py``), so this knob trades
        speed, never results.
    score_stationarity:
        Replace the assignment-change convergence criterion with
        *numeric stationarity*: iterate until no stored probability
        moves by more than ``warm_tolerance`` between iterations (or
        the iteration cap).  Cycle detection is suspended in this mode.
        This is the reference the warm-start fixpoint is compared
        against: on clean inputs the fixpoint becomes bit-stable within
        a few extra iterations, making incremental recomputation
        equality testable.
    warm_tolerance:
        Score/matrix changes at or below this magnitude neither spread
        the warm-start dirty frontier nor block its convergence; also
        the stationarity slack of ``score_stationarity``.  Keep it a
        few orders below the equality budget you care about (default
        1e-12 against the service's documented 1e-9).
    warm_full_pass_fraction:
        When the dirty frontier of a warm pass exceeds this fraction of
        the instances, the pass re-scores everything instead — frontier
        bookkeeping costs more than it saves beyond that point.
    warm_max_iterations:
        Hard cap on warm-start passes (a warm pass is cheap, so the
        default is looser than ``max_iterations``).
    """

    theta: float = 0.1
    use_name_prior: bool = False
    name_prior_max: float = 0.5
    literal_similarity: LiteralSimilarity = field(default_factory=IdentitySimilarity)
    max_iterations: int = 10
    convergence_threshold: float = 0.01
    use_negative_evidence: bool = False
    restrict_to_maximal_assignment: bool = True
    max_pairs_per_relation: int = 10_000
    functionality: FunctionalityDefinition = FunctionalityDefinition.HARMONIC
    dampening: float = 0.0
    detect_cycles: bool = True
    keep_snapshots: bool = True
    workers: int = 1
    scoring: str = "auto"
    score_stationarity: bool = False
    warm_tolerance: float = 1e-12
    warm_full_pass_fraction: float = 0.5
    warm_max_iterations: int = 60

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range settings."""
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"theta must be in (0, 1), got {self.theta}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not 0.0 <= self.convergence_threshold <= 1.0:
            raise ConfigError("convergence_threshold must be in [0, 1]")
        if self.max_pairs_per_relation < 1:
            raise ConfigError("max_pairs_per_relation must be >= 1")
        if not 0.0 <= self.dampening < 1.0:
            raise ConfigError("dampening must be in [0, 1)")
        if self.use_name_prior and not self.theta <= self.name_prior_max <= 1.0:
            raise ConfigError(
                "name_prior_max must be in [theta, 1] when use_name_prior is on"
            )
        if not isinstance(self.functionality, FunctionalityDefinition):
            raise TypeError("functionality must be a FunctionalityDefinition")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 <= self.warm_tolerance < 1.0:
            raise ConfigError(f"warm_tolerance must be in [0, 1), got {self.warm_tolerance}")
        if not 0.0 < self.warm_full_pass_fraction <= 1.0:
            raise ConfigError(
                "warm_full_pass_fraction must be in (0, 1], "
                f"got {self.warm_full_pass_fraction}"
            )
        if self.warm_max_iterations < 1:
            raise ConfigError("warm_max_iterations must be >= 1")
        if self.scoring not in SCORING_MODES:
            raise ConfigError(
                f"scoring must be one of {SCORING_MODES}, got {self.scoring!r}"
            )
        if self.scoring == "vectorized":
            from .vectorized import HAVE_NUMPY

            if not HAVE_NUMPY:
                raise ConfigError("scoring='vectorized' requires numpy")
            if self.use_negative_evidence:
                raise ConfigError(
                    "scoring='vectorized' cannot run negative evidence "
                    "(Eq. 14 reads arbitrary statements); use scoring='auto' "
                    "or 'dict'"
                )
