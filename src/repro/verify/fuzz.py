"""Coverage-guided differential fuzzing of generated systems.

:func:`repro.verify.oracle.verify_many` samples the configuration
space uniformly; this module *searches* it.  Instead of only drawing
fresh seeds, the fuzzer keeps a live corpus of systems and mutates
them structurally (:mod:`repro.verify.mutate`), guided by a cheap
behavioural signature:

* per-layer tightness buckets — how close each analytic bound came to
  its simulated observation;
* the set of declined layers and triggered invariants;
* log2-bucketed oracle counters harvested via :mod:`repro.obs`
  (fixpoint iterations, trace volume, check counts).

A mutant whose signature contributes any *new* token joins the corpus
and becomes mutation fodder; mutants that only revisit known behaviour
are discarded.  That feedback loop is what walks WCETs up a
schedulability cliff one nudge at a time — something independent
uniform draws practically never do.

Any soundness violation or invariant failure is delta-debugged
(:mod:`repro.verify.shrink`) to a minimal counterexample and can be
persisted as a JSON corpus entry (``tests/corpus/``) that pytest
replays forever after.

Determinism contract (tested): the whole run is a pure function of
``(seed, budget, size, seed_batch)``.  Rounds have a fixed size,
per-mutant seeds are spawn-derived from the global execution index,
mutants are *constructed in the parent* before dispatch, and results
merge in plan order — so ``--jobs 1`` and ``--jobs N`` produce
byte-identical corpus digests, and a ``--budget 200`` run is a strict
prefix of a ``--budget 400`` run.
"""

from __future__ import annotations

import functools
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.digest import canonical_digest
from repro.verify.generator import GeneratedSystem, generate_many
from repro.verify.mutate import mutate
from repro.verify.oracle import SystemVerdict, verify_system
from repro.verify.shrink import (FailureKey, ShrinkResult, failure_keys,
                                 shrink, system_size)

#: Mutants per post-seed round — fixed regardless of ``--jobs`` so the
#: corpus evolves identically at any parallelism.
ROUND_SIZE = 8
#: Fresh-seed systems fuzzed before mutation starts.
DEFAULT_SEED_BATCH = 16
#: Corpus counterexample file format version.  Format 2 added the
#: ``status`` field (``"open"`` = still reproduces, documented in
#: ``known_issues.json``; ``"fixed"`` = kept as a must-NOT-reproduce
#: regression).  The ``system`` entry is a :mod:`repro.model` document
#: and carries its own ``format`` / ``format_version``.
CORPUS_FORMAT = 2
#: Tightness bucket width is 1/8 (log-free linear buckets; tightness
#: lives in [0, ~2] so 8 buckets per unit resolve the interesting band).
_TIGHTNESS_BUCKETS_PER_UNIT = 8
_TIGHTNESS_BUCKET_CAP = 24


# ----------------------------------------------------------------------
# Feedback signature
# ----------------------------------------------------------------------
def signature_tokens(verdict: SystemVerdict, counters: dict) -> list[str]:
    """The behavioural signature of one verification as flat tokens.

    A token is one coordinate of "where did this execution get to":
    coverage is the union of tokens ever seen, and a mutant is
    interesting iff it contributes a token outside that union.
    """
    tokens: set[str] = set()
    for check in verdict.checks:
        tightness = check.tightness
        if tightness is None:
            tokens.add(f"dry:{check.layer}")
            continue
        bucket = min(_TIGHTNESS_BUCKET_CAP,
                     int(tightness * _TIGHTNESS_BUCKETS_PER_UNIT))
        tokens.add(f"tight:{check.layer}:{bucket}")
        if not check.sound:
            tokens.add(f"viol:{check.layer}")
    for declined in verdict.declined:
        tokens.add(f"declined:{declined.split(':', 1)[0]}")
    for violation in verdict.invariant_violations:
        tokens.add(f"inv:{violation.invariant}")
    for name, value in counters.items():
        tokens.add(f"ctr:{name}:{int(value).bit_length()}")
    return sorted(tokens)


def _fuzz_worker(horizon: Optional[int], item: tuple, seed: int) -> dict:
    """Plan worker: verify one (system, lineage) item, signature it.

    Verification runs inside a private :func:`repro.obs.capture` scope
    so per-execution oracle counters feed the signature without
    polluting (or depending on) ambient telemetry; the ``fuzz.execs``
    tick is emitted *after* the inner scope closes, into whatever
    chunk-level capture the execution engine has active.
    """
    system, _parent, _mutator = item
    with obs.capture() as telemetry:
        verdict = verify_system(system, horizon)
        snapshot = telemetry.snapshot()
    counters = snapshot["metrics"]["counters"]
    obs.count("fuzz.execs")
    return {
        "tokens": signature_tokens(verdict, counters),
        "failures": sorted(list(key) for key in failure_keys(verdict)),
    }


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _system_view(system: GeneratedSystem) -> dict:
    """The flat system dict that :meth:`FuzzReport.digest` and
    :meth:`Finding.file_name` hash.

    Write-only: corpus files carry the model document
    (:func:`repro.model.build.model_from_system`), and nothing reads
    this view back.  It is the pre-model corpus layout, ``format`` 2
    included, kept byte for byte because every pinned fuzz digest and
    corpus file name covers it.  (``repro.model`` imports this
    package's siblings, so the converters resolve at call time.)
    """
    from repro.model import convert

    return {
        "format": 2,
        "name": system.name, "seed": system.seed, "size": system.size,
        "tasksets": {ecu: [convert.task_to_dict(t) for t in tasks]
                     for ecu, tasks in sorted(system.tasksets.items())},
        "resources": dict(sorted(system.resources.items())),
        "critical_sections": [
            {"task": s.task, "resource": s.resource, "pre": s.pre,
             "duration": s.duration, "post": s.post}
            for s in system.critical_sections],
        "chain": (None if system.chain is None
                  else convert.chain_to_dict(system.chain)),
        "can": (None if system.can is None
                else convert.can_to_dict(system.can)),
        "flexray": (None if system.flexray is None
                    else convert.flexray_to_dict(system.flexray)),
        "tdma": (None if system.tdma is None
                 else convert.tdma_to_dict(system.tdma)),
        "faults": [convert.fault_to_dict(f) for f in system.faults],
    }


@dataclass
class CorpusEntry:
    """One system kept alive for mutation."""

    system: GeneratedSystem
    lineage: tuple[str, ...]        #: e.g. ("seed:3", "m17:tdma-inflate")
    new_tokens: tuple[str, ...]     #: what it added to coverage


@dataclass
class Finding:
    """One distinct failure, minimized."""

    key: FailureKey
    exec_index: int                 #: global execution that hit it first
    lineage: tuple[str, ...]
    original_size: int
    shrink: ShrinkResult

    def file_payload(self, seed: int) -> dict:
        """The JSON corpus-file body for this finding; its ``system``
        entry is the minimal system's model document."""
        from repro.model.build import model_from_system

        return {
            "format": CORPUS_FORMAT,
            "status": "open",
            "failure": {"kind": self.key[0], "detail": self.key[1],
                        "subject": self.key[2]},
            "horizon": self.shrink.horizon,
            "system": model_from_system(self.shrink.system),
            "fuzz": {"seed": seed, "exec": self.exec_index,
                     "lineage": list(self.lineage)},
            "shrink": {"original_size": self.original_size,
                       "minimal_size": system_size(self.shrink.system),
                       "probes": self.shrink.probes,
                       "accepted": self.shrink.accepted,
                       "complete": self.shrink.complete},
        }

    def file_name(self) -> str:
        """Deterministic, content-addressed corpus file name."""
        sha = canonical_digest(
            {"failure": list(self.key),
             "system": _system_view(self.shrink.system)})[:10]
        detail = "".join(c if c.isalnum() else "-" for c in self.key[1])
        return f"{self.key[0]}-{detail}-{sha}.json"


@dataclass
class FuzzReport:
    """Everything one fuzzing campaign produced."""

    seed: int
    budget: int
    size: str
    executions: int = 0
    rounds: int = 0
    corpus: list[CorpusEntry] = field(default_factory=list)
    coverage: set[str] = field(default_factory=set)
    findings: list[Finding] = field(default_factory=list)
    #: ``(executions_so_far, coverage_size)`` after every round — the
    #: seeds-to-new-coverage curve of EXPERIMENTS E15.
    coverage_curve: list[tuple[int, int]] = field(default_factory=list)
    stopped_early: bool = False
    #: Consecutive no-new-coverage rounds at campaign end.
    dry_rounds: int = 0
    #: True iff an ``until_dry`` campaign ended because it ran dry
    #: (rather than hitting the execution budget).
    terminated_dry: bool = False
    #: Mutator name -> times applied (post-seed rounds).
    mutator_counts: dict = field(default_factory=dict)

    @property
    def unshrunk(self) -> list[Finding]:
        return [f for f in self.findings if not f.shrink.complete]

    def digest(self) -> str:
        """Canonical SHA-256 over the run's complete outcome.

        Covers corpus membership (full system dicts, in admission
        order), the coverage token set and every minimized finding —
        any divergence between two runs, including a jobs-dependent
        merge order, changes this digest.
        """
        payload = {
            "format": CORPUS_FORMAT,
            "seed": self.seed, "size": self.size,
            "executions": self.executions,
            "coverage": sorted(self.coverage),
            "corpus": [{"lineage": list(e.lineage),
                        "new_tokens": list(e.new_tokens),
                        "system": _system_view(e.system)}
                       for e in self.corpus],
            "findings": [{"key": list(f.key),
                          "exec": f.exec_index,
                          "system": _system_view(f.shrink.system)}
                         for f in self.findings],
        }
        return canonical_digest(payload)


def format_fuzz_report(report: FuzzReport) -> str:
    """Deterministic human-readable summary of a fuzzing campaign."""
    lines = [f"fuzz: seed={report.seed} executions={report.executions}"
             f"/{report.budget} rounds={report.rounds} "
             f"size={report.size}"
             + (" (stopped early)" if report.stopped_early else "")
             + (f" (terminated dry after {report.dry_rounds} "
                f"dry round(s))" if report.terminated_dry else "")]
    lines.append(f"  corpus: {len(report.corpus)} systems, "
                 f"{len(report.coverage)} coverage tokens")
    if report.mutator_counts:
        counts = " ".join(
            f"{name}={report.mutator_counts[name]}"
            for name in sorted(report.mutator_counts))
        lines.append(f"  mutators: {counts}")
    for execs, cov in report.coverage_curve:
        lines.append(f"    after {execs:>5} execs: {cov} tokens")
    if report.findings:
        lines.append(f"  findings: {len(report.findings)} "
                     f"({len(report.unshrunk)} unshrunk)")
        for finding in report.findings:
            kind, detail, subject = finding.key
            result = finding.shrink
            status = "minimal" if result.complete else "UNSHRUNK"
            lines.append(
                f"    {kind} {detail} {subject}: "
                f"{finding.original_size} -> "
                f"{system_size(result.system)} components "
                f"({result.probes} probes, {status})")
    else:
        lines.append("  findings: none")
    lines.append(f"  corpus digest: sha256:{report.digest()}")
    return "\n".join(lines)


def write_corpus(report: FuzzReport, directory: str) -> list[str]:
    """Persist every completely-shrunk finding as a JSON corpus file.

    File names are content-addressed, so re-running the same campaign
    (at any ``--jobs``) rewrites the same files byte-identically and
    different findings never collide.  Returns the paths written.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for finding in report.findings:
        if not finding.shrink.complete:
            continue
        path = os.path.join(directory, finding.file_name())
        body = json.dumps(finding.file_payload(report.seed), indent=2,
                          sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body + "\n")
        paths.append(path)
    return paths


# ----------------------------------------------------------------------
# The campaign loop
# ----------------------------------------------------------------------
#: Recency window for parent selection (see :func:`_pick_parent`).
_RECENT_WINDOW = 8


def _pick_parent(rng: random.Random, corpus_size: int) -> int:
    """Corpus index to mutate next: half the picks favour the newest
    entries (they embody the deepest behavioural walk so far — pure
    uniform choice dilutes multi-step walks as the corpus grows), the
    other half stay uniform so old lineages keep getting explored."""
    if corpus_size > _RECENT_WINDOW and rng.random() < 0.5:
        return corpus_size - 1 - rng.randrange(_RECENT_WINDOW)
    return rng.randrange(corpus_size)

def fuzz(seed: int, budget: int, size: str = "small", jobs: int = 1,
         horizon: Optional[int] = None, checkpoint=None,
         resume: bool = False, retries: int = 1,
         seed_batch: int = DEFAULT_SEED_BATCH, progress=None,
         max_seconds: Optional[float] = None,
         shrink_probes: int = 2000,
         interrupt_after: Optional[int] = None,
         until_dry: Optional[int] = None,
         seeds=None) -> FuzzReport:
    """Run one coverage-guided fuzzing campaign of ``budget`` verify
    executions (shrink probes are not counted against the budget).

    ``until_dry=K`` switches to campaign mode: keep fuzzing until
    ``K`` *consecutive* post-seed rounds admit no new feedback
    signature token, then stop with ``terminated_dry=True``.  The
    execution budget still caps the run (a campaign that never runs
    dry stops at the budget with ``terminated_dry=False``).

    Mutant construction happens in the parent — each mutant's RNG is
    seeded from ``derive_seed(seed, execution_index)``, picking a
    corpus parent and a mutation — and only the expensive verification
    fans out over :mod:`repro.exec`.  ``checkpoint`` journals each
    round separately (``<path>.roundNNNN``); ``resume`` recovers every
    completed round without re-running it.

    ``max_seconds`` stops the campaign at a round boundary once the
    wall clock budget is spent — the one knob that trades determinism
    (of *when* the run stops, never of what any prefix computed) for a
    bounded CI footprint.

    ``seeds`` (a sequence of :class:`GeneratedSystem`) replaces the
    generated seed round: the campaign starts from exactly those
    systems — e.g. model documents (``repro fuzz --model``) — and
    mutates outward from them.
    """
    from repro.exec import Plan, execute
    from repro.exec.shard import derive_seed

    report = FuzzReport(seed, budget, size)
    seen_keys: set[FailureKey] = set()
    started = time.monotonic()

    round_no = 0
    consecutive_dry = 0
    while report.executions < budget:
        if max_seconds is not None \
                and time.monotonic() - started > max_seconds:
            report.stopped_early = True
            break

        if round_no == 0:
            if seeds is not None:
                systems = list(seeds)[:budget]
            else:
                count = min(seed_batch, budget)
                systems = generate_many(seed, count, size)
            items = tuple((system, f"seed:{index}", "")
                          for index, system in enumerate(systems))
        else:
            if not report.corpus:
                # Nothing survived the seed round (theoretical — the
                # first seed always contributes tokens); stop rather
                # than mutate nothing.
                break
            count = min(ROUND_SIZE, budget - report.executions)
            mutants = []
            for offset in range(count):
                index = report.executions + offset
                rng = random.Random(derive_seed(seed, index))
                parent = report.corpus[_pick_parent(rng,
                                                   len(report.corpus))]
                mutant, mutator = mutate(parent.system, rng)
                mutant.name = f"m{index}"
                report.mutator_counts[mutator] = \
                    report.mutator_counts.get(mutator, 0) + 1
                mutants.append((mutant, parent.lineage[-1], mutator))
            items = tuple(mutants)

        plan = Plan(f"fuzz:seed={seed}:size={size}:round={round_no}",
                    functools.partial(_fuzz_worker, horizon),
                    items, base_seed=seed)
        round_checkpoint = None if checkpoint is None \
            else f"{checkpoint}.round{round_no:04d}"
        round_resume = (resume and round_checkpoint is not None
                        and os.path.exists(round_checkpoint))
        outcome = execute(plan, jobs=jobs, retries=retries,
                          checkpoint=round_checkpoint,
                          resume=round_resume, progress=progress,
                          interrupt_after=interrupt_after)
        outcome.raise_on_failure()

        # Merge in plan order: corpus admission and finding discovery
        # see results in the same sequence at any job count.
        round_fresh = False
        for offset, result in enumerate(outcome.results):
            system, parent_label, mutator = items[offset]
            index = report.executions + offset
            label = (f"seed:{index}" if round_no == 0
                     else f"m{index}:{mutator}")
            lineage = ((label,) if round_no == 0
                       else (parent_label, label))
            fresh = [t for t in result["tokens"]
                     if t not in report.coverage]
            if fresh:
                round_fresh = True
                report.coverage.update(result["tokens"])
                report.corpus.append(
                    CorpusEntry(system, lineage, tuple(fresh)))
            for raw_key in result["failures"]:
                key = tuple(raw_key)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                outcome_shrink = shrink(system, key, horizon=horizon,
                                        max_probes=shrink_probes)
                report.findings.append(Finding(
                    key, index, lineage, system_size(system),
                    outcome_shrink))
                if obs.enabled():
                    obs.count("fuzz.findings")
                    obs.count("fuzz.shrink_steps",
                              outcome_shrink.probes)

        report.executions += len(items)
        report.rounds = round_no + 1
        report.coverage_curve.append(
            (report.executions, len(report.coverage)))
        # Seed rounds never count as dry: the first seed always
        # contributes tokens, and a campaign's dryness is a statement
        # about *mutation* having nothing left to find.
        if round_no > 0:
            consecutive_dry = 0 if round_fresh else consecutive_dry + 1
        report.dry_rounds = consecutive_dry
        round_no += 1
        if until_dry is not None and consecutive_dry >= until_dry:
            report.terminated_dry = True
            break

    if obs.enabled():
        obs.gauge_set("fuzz.corpus_size", len(report.corpus))
        obs.gauge_set("fuzz.coverage_tokens", len(report.coverage))
    return report
