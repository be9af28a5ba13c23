"""Family-aware hierarchical recognition: a coarse→fine depth cascade.

The paper's flat label space cannot distinguish "same application, new
version" from "unknown application": both produce zero full-depth
matches.  Its own rounding-depth mechanism (§3, Table 1) is a natural
coarse→fine knob, though — at a shallow depth, nearby levels (a new
version's slightly shifted working set) collapse onto one key, while
genuinely different applications stay apart.  This module layers a
two-tier hierarchy on top of any :class:`~repro.engine.backend.
DictionaryBackend`:

- the **fine tier** is the full-depth dictionary you already have —
  flat, sharded, columnar (memory-mapped, with delta-log learning), or
  remote; every label names an application *variant* (a version);
- the **coarse tier** is a small flat in-memory EFD whose keys are the
  fine keys re-rounded at ``coarse_depth`` and whose labels are *family*
  names (the application stripped of its version suffix).

The containment invariant the cascade relies on
-----------------------------------------------
A coarse key is always the projection ``round_depth(fine_key.value,
coarse_depth)`` of a *fine* key — never a fresh rounding of the raw
measurement.  Double rounding makes the two differ at bucket edges
(``round_depth(1.4996, 3) == 1.5`` projects to ``2.0`` at depth 1,
while the raw value rounds to ``1.0``), so probing the coarse tier with
raw-value roundings would break containment.  Projected on both the
build side and the probe side, the invariant is exact: every stored
fine key's projection is present in the coarse tier under its label's
family, hence

- a probe whose projection misses the coarse tier **cannot** match the
  fine tier — the cascade answers "unknown" without touching the fine
  backend at all (the depth-cascade short-circuit; for unknown-heavy
  traffic the coarse tier plays the same role as the columnar store's
  negative-lookup keyfilters, one layer earlier and for every backend);
- a fine-tier match always lands inside a family the coarse tier voted
  for — property-tested in ``tests/test_engine_properties.py``.

Verdicts (:class:`FamilyVerdict`) refine the binary known/unknown of
:class:`~repro.core.matcher.MatchResult` into three outcomes:
``"match"`` (family and variant recognized at full depth),
``"near-family"`` (the coarse tier matched but the fine tier missed —
same application, new version), and ``"unknown"`` (no family matched).
With singleton families and ``coarse_depth == fine_depth`` the cascade
degenerates to flat full-depth recognition, element-wise — the
equivalence discipline every backend is held to.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.dictionary import ExecutionFingerprintDictionary, app_of_label
from repro.core.fingerprint import DEFAULT_INTERVAL, Fingerprint
from repro.core.matcher import MatchResult
from repro.core.rounding import round_depth

#: The three cascade outcomes, from strongest to weakest evidence.
OUTCOME_MATCH = "match"
OUTCOME_NEAR_FAMILY = "near-family"
OUTCOME_UNKNOWN = "unknown"
OUTCOMES = (OUTCOME_MATCH, OUTCOME_NEAR_FAMILY, OUTCOME_UNKNOWN)

#: ``app-1.2`` / ``app-v3`` style version suffixes: a trailing dash
#: segment starting with a digit (optionally ``v``-prefixed).
_VERSION_SUFFIX = re.compile(r"^(?P<family>.+)-(?P<version>v?\d[\w.]*)$")


def split_version(app: str) -> Tuple[str, Optional[str]]:
    """Split an application name into ``(family, version)``.

    ``"lammps-2.1" -> ("lammps", "2.1")``; names without a version
    suffix are their own family: ``"miniAMR" -> ("miniAMR", None)``.
    """
    m = _VERSION_SUFFIX.match(app)
    if m is None:
        return app, None
    return m.group("family"), m.group("version")


class FamilySpec:
    """The label hierarchy: which applications belong to which family.

    A spec maps *application* names (the version-qualified names that
    :func:`~repro.core.dictionary.app_of_label` derives from labels) to
    family names.  Families keep first-seen order — the coarse tier's
    tie-breaking order, mirroring the flat dictionary's app order.
    Applications not covered by the explicit mapping fall back to the
    :func:`split_version` heuristic, so a spec built from today's
    dictionary keeps working when tomorrow's learn introduces a new
    version of a known family.
    """

    def __init__(self, mapping: Optional[Mapping[str, str]] = None):
        self._family_of: Dict[str, str] = {}
        for app, family in (mapping or {}).items():
            if not app or not family:
                raise ValueError(
                    f"family spec entries must be non-empty, got "
                    f"{app!r} -> {family!r}"
                )
            self._family_of[app] = family

    # -- construction -------------------------------------------------------
    @classmethod
    def singleton(cls, apps: Sequence[str]) -> "FamilySpec":
        """Every application is its own family (the degenerate hierarchy
        under which the cascade must equal flat recognition)."""
        return cls({app: app for app in apps})

    @classmethod
    def from_apps(cls, apps: Sequence[str]) -> "FamilySpec":
        """Derive families from version suffixes of application names."""
        return cls({app: split_version(app)[0] for app in apps})

    @classmethod
    def from_backend(cls, backend) -> "FamilySpec":
        """Derive the hierarchy from a dictionary's label→app mapping."""
        return cls.from_apps(backend.app_names())

    # -- queries ------------------------------------------------------------
    def family_of_app(self, app: str) -> str:
        explicit = self._family_of.get(app)
        if explicit is not None:
            return explicit
        return split_version(app)[0]

    def family_of_label(self, label: str) -> str:
        return self.family_of_app(app_of_label(label))

    def version_of_app(self, app: str) -> Optional[str]:
        """The version suffix of ``app``, or None for an unversioned name."""
        family = self._family_of.get(app)
        if family is not None and app != family and app.startswith(family + "-"):
            return app[len(family) + 1:]
        return split_version(app)[1]

    def families(self, apps: Sequence[str]) -> List[str]:
        """Families of ``apps``, deduped, in first-appearance order."""
        return list(dict.fromkeys(self.family_of_app(app) for app in apps))

    def variants_by_family(self, apps: Sequence[str]) -> Dict[str, List[str]]:
        """``{family: [app, ...]}`` over ``apps``, both in first-seen order."""
        out: Dict[str, List[str]] = {}
        for app in apps:
            out.setdefault(self.family_of_app(app), []).append(app)
        return out

    # -- (de)serialization --------------------------------------------------
    def as_dict(self) -> Dict[str, str]:
        return dict(self._family_of)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, str]) -> "FamilySpec":
        return cls(mapping)

    def __repr__(self) -> str:
        n_fam = len(set(self._family_of.values()))
        return f"FamilySpec({len(self._family_of)} app(s), {n_fam} family(ies))"


def save_family_spec(
    path: str, spec: FamilySpec, coarse_depth: int, fine_depth: int
) -> None:
    """Write a family hierarchy (plus its depth pair) as JSON."""
    payload = {
        "format": "efd-family-spec",
        "version": 1,
        "coarse_depth": int(coarse_depth),
        "fine_depth": int(fine_depth),
        "families": spec.as_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_family_spec(path: str) -> Tuple[FamilySpec, int, int]:
    """Load a spec written by :func:`save_family_spec`.

    Returns ``(spec, coarse_depth, fine_depth)``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "efd-family-spec":
        raise ValueError(f"{path} is not a family spec (missing format marker)")
    return (
        FamilySpec.from_dict(payload["families"]),
        int(payload["coarse_depth"]),
        int(payload["fine_depth"]),
    )


@dataclass(frozen=True)
class FamilyVerdict:
    """Outcome of cascading one execution through coarse then fine tier.

    Duck-type compatible with :class:`~repro.core.matcher.MatchResult`
    (``prediction`` / ``votes`` / ``is_unknown`` / counters delegate to
    the embedded full-depth result), so the serving stack and
    :meth:`EngineStats.record_batch` consume verdicts unchanged.
    """

    outcome: str                     # "match" | "near-family" | "unknown"
    family: Optional[str]            # winning family (None when unknown)
    variant: Optional[str]           # full-depth app prediction, if any
    version: Optional[str]           # parsed version suffix of the variant
    match: MatchResult               # fine-tier result == flat recognition
    family_ranked: Tuple[str, ...]   # coarse-tier tied-or-winning families
    family_votes: Dict[str, int]     # family -> coarse-matched node count

    # -- MatchResult-compatible surface -------------------------------------
    @property
    def ranked(self) -> Tuple[str, ...]:
        return self.match.ranked

    @property
    def votes(self) -> Dict[str, int]:
        return self.match.votes

    @property
    def matched_labels(self) -> Dict[str, int]:
        return self.match.matched_labels

    @property
    def n_fingerprints(self) -> int:
        return self.match.n_fingerprints

    @property
    def n_missing(self) -> int:
        return self.match.n_missing

    @property
    def prediction(self) -> Optional[str]:
        return self.match.prediction

    @property
    def is_tie(self) -> bool:
        return self.match.is_tie

    def confidence(self) -> float:
        return self.match.confidence()

    # -- cascade surface ----------------------------------------------------
    @property
    def is_unknown(self) -> bool:
        """True only for a full miss — near-family is *not* unknown."""
        return self.outcome == OUTCOME_UNKNOWN

    @property
    def is_near_family(self) -> bool:
        """Coarse tier matched, fine tier missed: same app, new version."""
        return self.outcome == OUTCOME_NEAR_FAMILY

    def describe(self) -> str:
        """One-line human rendering for reports and serve verdict lines."""
        if self.outcome == OUTCOME_MATCH:
            tag = f"family={self.family} variant={self.variant}"
            if self.version is not None:
                tag += f" (version {self.version})"
            return f"match {tag}"
        if self.outcome == OUTCOME_NEAR_FAMILY:
            return (f"near-family family={self.family} "
                    f"(same app, new version)")
        return "unknown (no family matched)"


class FamilyCascade:
    """Two-tier hierarchical EFD over any dictionary backend.

    Parameters
    ----------
    fine:
        The full-depth dictionary — any
        :class:`~repro.engine.backend.DictionaryBackend`.
    spec:
        The label hierarchy.  Defaults to families derived from the
        fine tier's application names via :func:`split_version`.
    coarse_depth / fine_depth:
        The depth pair.  ``coarse_depth <= fine_depth``; equality (with
        a singleton spec) degenerates the cascade to flat recognition.
    stats:
        Optional :class:`~repro.engine.stats.EngineStats` receiving the
        cascade counters (coarse hits, short-circuits, refinements,
        near-family verdicts).

    The coarse tier is derived state: it is rebuilt from the fine
    tier's entries whenever the fine backend's ``version`` moved behind
    the cascade's back, and kept in sync incrementally by the
    write-through :meth:`add` / :meth:`learn` paths — interleaved
    learning through the cascade never pays a rebuild.
    """

    def __init__(
        self,
        fine,
        spec: Optional[FamilySpec] = None,
        coarse_depth: int = 1,
        fine_depth: int = 3,
        stats=None,
    ):
        if coarse_depth < 1:
            raise ValueError(
                f"rounding depth must be >= 1, got {coarse_depth}"
            )
        if fine_depth < coarse_depth:
            raise ValueError(
                f"fine_depth must be >= coarse_depth, got "
                f"fine_depth={fine_depth} < coarse_depth={coarse_depth}"
            )
        self.fine = fine
        self.spec = spec if spec is not None else FamilySpec.from_backend(fine)
        self.coarse_depth = int(coarse_depth)
        self.fine_depth = int(fine_depth)
        self.stats = stats
        self.coarse = ExecutionFingerprintDictionary()
        self._synced_version: Optional[int] = None
        self.rebuild_coarse()

    # -- the projection -----------------------------------------------------
    def project(self, fingerprint: Fingerprint) -> Fingerprint:
        """Coarse key of a fine key: the value re-rounded at coarse depth.

        Always applied to *fine-depth* values (stored keys and probes
        alike) — see the module docstring for why raw-value rounding
        would break containment.
        """
        return Fingerprint(
            metric=fingerprint.metric,
            node=fingerprint.node,
            interval=fingerprint.interval,
            value=round_depth(fingerprint.value, self.coarse_depth),
        )

    # -- coarse-tier maintenance --------------------------------------------
    def rebuild_coarse(self) -> None:
        """Re-derive the coarse tier from the fine tier's live entries.

        Family label order mirrors the fine tier's application order
        (mapped through the spec, deduped), so coarse tie-breaking
        agrees with flat tie-breaking in the degenerate configuration.
        """
        coarse = ExecutionFingerprintDictionary()
        for family in self.spec.families(self.fine.app_names()):
            coarse.register_label(family)
        for fp, labels in self.fine.entries():
            proj = self.project(fp)
            for label in labels:
                coarse.add(proj, self.spec.family_of_label(label))
        self.coarse = coarse
        self._synced_version = self.fine.version

    def _sync(self) -> None:
        if self.fine.version != self._synced_version:
            self.rebuild_coarse()

    # -- write-through learning ---------------------------------------------
    def add(self, fingerprint: Fingerprint, label: str) -> None:
        """Insert one observation into both tiers."""
        self._sync()
        self.fine.add(fingerprint, label)
        self.coarse.add(self.project(fingerprint), self.spec.family_of_label(label))
        self._synced_version = self.fine.version

    def learn(
        self, fingerprints: Sequence[Optional[Fingerprint]], label: str
    ) -> int:
        """Insert all non-``None`` fingerprints under ``label`` (both
        tiers); returns how many landed — the cascade's analogue of
        ``add_many`` on a plain backend."""
        self._sync()
        n = self.fine.add_many(fingerprints, label)
        family = self.spec.family_of_label(label)
        for fp in fingerprints:
            if fp is not None:
                self.coarse.add(self.project(fp), family)
        self._synced_version = self.fine.version
        return n

    # -- recognition --------------------------------------------------------
    def cascade_match(
        self,
        fingerprint_lists: Sequence[Sequence[Optional[Fingerprint]]],
    ) -> List[FamilyVerdict]:
        """Cascade a batch of executions' *fine-depth* fingerprints.

        Per execution: project every fingerprint onto the coarse tier
        and vote at family level; probes whose projection misses are
        guaranteed global misses and never reach the fine backend.  The
        surviving unique keys resolve through the fine backend's own
        ``lookup_many`` (scatter/gather for a remote store, the
        vectorized columnar index, routed shard lookups), and the
        full-depth verdict is assembled exactly as
        flat recognition would — so ``verdict.match`` is element-wise
        equal to ``match_fingerprints(fine, fps)``.
        """
        verdicts, _ = self._cascade(fingerprint_lists)
        return verdicts

    def _cascade(
        self,
        fingerprint_lists: Sequence[Sequence[Optional[Fingerprint]]],
    ) -> Tuple[List[FamilyVerdict], int]:
        """:meth:`cascade_match` plus the fine-tier hit count (the
        ``n_hits`` that :meth:`EngineStats.record_batch` expects)."""
        self._sync()
        unique: Dict[Fingerprint, None] = {}
        for fps in fingerprint_lists:
            for fp in fps:
                if fp is not None:
                    unique.setdefault(fp, None)
        # Coarse tier: one O(1) probe per unique key, families deduped
        # per key by the dictionary's own label-list semantics.
        coarse_table: Dict[Fingerprint, List[str]] = {
            fp: self.coarse.lookup(self.project(fp)) for fp in unique
        }
        need_fine = [fp for fp in unique if coarse_table[fp]]
        fine_table = (
            dict(zip(need_fine, self.fine.lookup_many(need_fine)))
            if need_fine else {}
        )
        fam_position = {f: i for i, f in enumerate(self.coarse.labels())}
        app_position = {a: i for i, a in enumerate(self.fine.app_names())}

        verdicts: List[FamilyVerdict] = []
        n_hits = 0
        coarse_hits = 0
        short_circuits = 0
        n_near = 0
        for fps in fingerprint_lists:
            fam_votes: Dict[str, int] = {}
            app_votes: Dict[str, int] = {}
            matched_labels: Dict[str, int] = {}
            n_missing = 0
            n_fingerprints = 0
            for fp in fps:
                if fp is None:
                    n_missing += 1
                    continue
                n_fingerprints += 1
                families = coarse_table[fp]
                if not families:
                    short_circuits += 1
                    continue
                coarse_hits += 1
                for family in families:
                    fam_votes[family] = fam_votes.get(family, 0) + 1
                labels = fine_table.get(fp, [])
                if not labels:
                    continue
                n_hits += 1
                apps_this_node: Dict[str, None] = {}
                for label in labels:
                    matched_labels[label] = matched_labels.get(label, 0) + 1
                    apps_this_node.setdefault(app_of_label(label), None)
                for app in apps_this_node:
                    app_votes[app] = app_votes.get(app, 0) + 1
            verdicts.append(
                self._verdict(
                    fam_votes, app_votes, matched_labels,
                    n_fingerprints, n_missing, fam_position, app_position,
                )
            )
            if verdicts[-1].outcome == OUTCOME_NEAR_FAMILY:
                n_near += 1
        if self.stats is not None:
            self.stats.add(
                family_coarse_hits=coarse_hits,
                family_shortcircuits=short_circuits,
                family_refinements=len(need_fine),
                family_near=n_near,
            )
        return verdicts, n_hits

    def _verdict(
        self,
        fam_votes: Dict[str, int],
        app_votes: Dict[str, int],
        matched_labels: Dict[str, int],
        n_fingerprints: int,
        n_missing: int,
        fam_position: Dict[str, int],
        app_position: Dict[str, int],
    ) -> FamilyVerdict:
        """Assemble one execution's verdict from both tiers' votes."""
        # Family ranking, tie-broken by the coarse tier's first-seen
        # family order (the mirror of the flat dictionary's app order).
        if fam_votes:
            top = max(fam_votes.values())
            fam_tied = [f for f, c in fam_votes.items() if c == top]
            if len(fam_tied) > 1:
                n = len(fam_position)
                fam_tied.sort(key=lambda f: fam_position.get(f, n))
            family_ranked = tuple(fam_tied)
        else:
            family_ranked = ()
        # Fine (app/variant) ranking, identical to flat vote().
        if app_votes:
            top = max(app_votes.values())
            tied = [a for a, c in app_votes.items() if c == top]
            if len(tied) > 1:
                n = len(app_position)
                tied.sort(key=lambda a: app_position.get(a, n))
            ranked = tuple(tied)
        else:
            ranked = ()
        match = MatchResult(
            ranked=ranked,
            votes=app_votes,
            matched_labels=matched_labels,
            n_fingerprints=n_fingerprints,
            n_missing=n_missing,
        )
        if not family_ranked:
            # Containment: no coarse match means no fine match either.
            return FamilyVerdict(
                outcome=OUTCOME_UNKNOWN, family=None, variant=None,
                version=None, match=match, family_ranked=(), family_votes={},
            )
        prediction = match.prediction
        if prediction is None:
            return FamilyVerdict(
                outcome=OUTCOME_NEAR_FAMILY,
                family=family_ranked[0],
                variant=None,
                version=None,
                match=match,
                family_ranked=family_ranked,
                family_votes=fam_votes,
            )
        # A fine-tier winner is reported under its *own* family (which,
        # by containment, always holds coarse votes — the property the
        # equivalence matrix pins).
        return FamilyVerdict(
            outcome=OUTCOME_MATCH,
            family=self.spec.family_of_app(prediction),
            variant=prediction,
            version=self.spec.version_of_app(prediction),
            match=match,
            family_ranked=family_ranked,
            family_votes=fam_votes,
        )

    # -- record-level convenience -------------------------------------------
    def recognize_records(
        self,
        records: Sequence,
        metric: str = "nr_mapped_vmstat",
        interval: Tuple[float, float] = DEFAULT_INTERVAL,
    ) -> List[FamilyVerdict]:
        """Cascade stored :class:`~repro.data.dataset.ExecutionRecord`\\ s:
        fingerprints are built once at ``fine_depth`` (the coarse probes
        are projections, never a second pass over the telemetry)."""
        from repro.engine.batch import build_fingerprints_batch

        fingerprint_lists = build_fingerprints_batch(
            records, metric, self.fine_depth, interval
        )
        return self.cascade_match(fingerprint_lists)

    def coarse_stats(self) -> Dict[str, int]:
        """Tier sizes: how small the coarse tier actually stays."""
        return {
            "fine_keys": len(self.fine),
            "coarse_keys": len(self.coarse),
            "families": len(self.coarse.labels()),
            "variants": len(self.fine.app_names()),
        }

    def __repr__(self) -> str:
        kind = type(self.fine).__name__
        return (
            f"FamilyCascade({kind}, coarse_depth={self.coarse_depth}, "
            f"fine_depth={self.fine_depth}, "
            f"{len(self.coarse)}/{len(self.fine)} coarse/fine key(s))"
        )


def make_family_engine(
    cascade: FamilyCascade,
    metric: str = "nr_mapped_vmstat",
    interval: Tuple[float, float] = DEFAULT_INTERVAL,
    unknown_label: str = "unknown",
):
    """A :class:`FamilyBatchRecognizer` bound to ``cascade`` (deferred
    import helper so ``repro.family`` stays importable without the
    engine stack)."""
    from repro.engine.batch import BatchRecognizer, build_fingerprints_batch

    class FamilyBatchRecognizer(BatchRecognizer):
        """Drop-in batch engine whose verdicts are cascade verdicts.

        The serving stack (:class:`repro.serve.IngestService`) only ever
        calls ``recognize_sessions`` / reads ``stats`` / ``dictionary``,
        and :class:`FamilyVerdict` is MatchResult-duck-typed, so family
        serving is this subclass plus two ``ServeConfig`` knobs.
        """

        def __init__(self):
            super().__init__(
                cascade.fine,
                metric=metric,
                depth=cascade.fine_depth,
                interval=interval,
                unknown_label=unknown_label,
            )
            self.cascade = cascade
            cascade.stats = self.stats

        def _match(self, fingerprint_lists):
            verdicts, n_hits = cascade._cascade(fingerprint_lists)
            self._record_stats(verdicts, n_hits)
            return verdicts

        def recognize_records(self, records):
            fingerprint_lists = build_fingerprints_batch(
                records, self.metric, self.depth, self.interval
            )
            return self._match(fingerprint_lists)

        def __repr__(self):
            return (
                f"FamilyBatchRecognizer({type(cascade.fine).__name__}, "
                f"coarse_depth={cascade.coarse_depth}, "
                f"fine_depth={cascade.fine_depth})"
            )

    return FamilyBatchRecognizer()
