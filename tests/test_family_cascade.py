"""Property and unit tier for the family cascade's rounding foundations.

Three concerns live here:

- **Scalar/vector rounding agreement** — the cascade projects fine keys
  with the scalar :func:`round_depth` while the columnar store rounds
  with :func:`round_depth_array`; if the two ever disagree, a key stored
  by one path is unreachable from the other.  The agreement is asserted
  *bitwise* across the whole double range: subnormals, signed zeros,
  negatives, the very top of the range, and NaN.
- **Containment direction** — the folklore claim "deepening never merges
  keys a shallower depth kept apart" is FALSE (``1.4996`` / ``1.5004``
  is a counterexample: depth 1 keeps them apart, depth 3 merges them).
  What actually holds, and what the cascade relies on, is the projection
  direction: equal fine keys have equal coarse projections, and
  projecting is idempotent per depth.
- **FamilyCascade semantics** — the three verdict outcomes, write-through
  and out-of-band learning, spec round-trips, MatchResult duck-typing,
  and the cascade counters on :class:`~repro.engine.stats.EngineStats`.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint
from repro.core.matcher import match_fingerprints
from repro.core.rounding import bucket_width, round_depth, round_depth_array
from repro.engine.stats import EngineStats
from repro.family import (
    FamilyCascade,
    FamilySpec,
    FamilyVerdict,
    load_family_spec,
    save_family_spec,
    split_version,
)

# The full double range, nothing excluded: the agreement contract has no
# carve-outs.  derandomize keeps the tier-1 gate reproducible.
all_floats = st.floats(
    allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
depths = st.integers(min_value=1, max_value=25)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same_double(a: float, b: float) -> bool:
    """Bitwise equality, treating any two NaNs as equal."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return _bits(a) == _bits(b)


class TestScalarVectorAgreement:
    """round_depth and round_depth_array are one function, twice."""

    @settings(max_examples=300, derandomize=True)
    @given(st.lists(all_floats, min_size=1, max_size=30), depths)
    def test_bitwise_agreement(self, values, depth):
        arr = round_depth_array(np.array(values, dtype=float), depth)
        for value, vectorized in zip(values, arr):
            scalar = round_depth(value, depth)
            assert _same_double(scalar, float(vectorized)), (
                f"round_depth({value!r}, {depth}) = {scalar!r} but the "
                f"vectorized path produced {float(vectorized)!r}"
            )

    @settings(max_examples=200, derandomize=True)
    @given(all_floats, depths)
    def test_single_element_agreement(self, value, depth):
        scalar = round_depth(value, depth)
        vectorized = float(round_depth_array([value], depth)[0])
        assert _same_double(scalar, vectorized)

    @pytest.mark.parametrize("depth", [1, 2, 3, 8])
    def test_subnormals_do_not_overflow(self, depth):
        # Regression: scaling a subnormal up to the units position needs
        # 10**(depth+323), which overflowed the scalar path to an
        # OverflowError while the vectorized path silently produced NaN.
        for value in (5e-324, -5e-324, 1e-320, 2.2250738585072014e-308):
            scalar = round_depth(value, depth)
            vectorized = float(round_depth_array([value], depth)[0])
            assert math.isfinite(scalar)
            assert _same_double(scalar, vectorized)
        assert round_depth(2.2250738585072014e-308, 2) == 2.2e-308
        assert round_depth(5e-324, 1) == 5e-324

    def test_top_of_range_agreement(self):
        # Regression: 10.0 ** 301 and np.power(10.0, 301.0) differ by an
        # ulp, which made the two paths disagree on the largest double
        # at depth 8 (1.7976931e+308 vs 1.7976930999999998e+308).
        top = 1.7976931348623157e308
        assert round_depth(top, 8) == 1.7976931e308
        assert float(round_depth_array([top], 8)[0]) == 1.7976931e308
        # Rounding the top of the range *up* legitimately saturates —
        # identically and silently on both paths.
        assert round_depth(top, 1) == float("inf")
        assert float(round_depth_array([top], 1)[0]) == float("inf")

    def test_infinities_propagate_on_both_paths(self):
        for value in (float("inf"), float("-inf")):
            assert round_depth(value, 3) == value
            assert float(round_depth_array([value], 3)[0]) == value

    def test_nan_propagates_canonically(self):
        assert math.isnan(round_depth(float("nan"), 2))
        out = round_depth_array([float("nan"), 1.0], 2)
        assert math.isnan(out[0]) and out[1] == 1.0
        # Both paths canonicalize the NaN payload, so even the bitwise
        # comparison the agreement property uses would hold without the
        # both-NaN special case.
        assert _bits(round_depth(float("nan"), 2)) == _bits(float(out[0]))

    @settings(max_examples=100, derandomize=True)
    @given(depths)
    def test_negative_zero_normalizes_to_positive_zero(self, depth):
        scalar = round_depth(-0.0, depth)
        vectorized = float(round_depth_array([-0.0], depth)[0])
        assert scalar == 0.0 and math.copysign(1.0, scalar) == 1.0
        assert vectorized == 0.0 and math.copysign(1.0, vectorized) == 1.0

    @settings(max_examples=200, derandomize=True)
    @given(finite_floats, depths)
    def test_sign_symmetry_full_range(self, value, depth):
        if value == 0.0:
            # Both signed zeros normalize to +0.0, deliberately breaking
            # bitwise sign symmetry at zero (one key, not two).
            assert _bits(round_depth(value, depth)) == _bits(0.0)
            return
        assert _same_double(round_depth(-value, depth),
                            -round_depth(value, depth))


class TestContainmentDirection:
    """Which way the depth hierarchy actually nests."""

    def test_deepening_can_merge_keys_a_shallower_depth_kept_apart(self):
        # The intuitive claim is false.  1.4996 and 1.5004 straddle the
        # depth-1 boundary at 1.5 (they round to 1.0 and 2.0) yet both
        # round to 1.5 at depth 3: deepening MERGED them.
        x, y = 1.4996, 1.5004
        assert round_depth(x, 1) == 1.0
        assert round_depth(y, 1) == 2.0
        assert round_depth(x, 3) == round_depth(y, 3) == 1.5

    def test_projection_differs_from_raw_shallow_rounding(self):
        # Why the cascade probes with projections of fine keys rather
        # than raw-value roundings: double rounding crosses the 1.5
        # boundary, a raw depth-1 rounding does not.
        fine = round_depth(1.4996, 3)  # 1.5
        assert round_depth(fine, 1) == 2.0
        assert round_depth(1.4996, 1) == 1.0

    @settings(max_examples=300, derandomize=True)
    @given(finite_floats, finite_floats, depths, depths)
    def test_equal_fine_keys_have_equal_projections(self, x, y, d1, d2):
        coarse_depth, fine_depth = sorted((d1, d2))
        fx, fy = round_depth(x, fine_depth), round_depth(y, fine_depth)
        if _same_double(fx, fy):
            assert _same_double(
                round_depth(fx, coarse_depth), round_depth(fy, coarse_depth)
            )

    @settings(max_examples=300, derandomize=True)
    @given(finite_floats, depths)
    def test_rounding_is_idempotent_per_depth(self, value, depth):
        once = round_depth(value, depth)
        if math.isinf(once):  # saturated past the largest double
            assert round_depth(once, depth) == once
            return
        assert _same_double(round_depth(once, depth), once)

    @settings(max_examples=200, derandomize=True)
    @given(st.floats(min_value=1e-6, max_value=1e12), depths)
    def test_projection_stays_within_one_coarse_bucket(self, value, depth):
        # The quantitative form of containment the drift windows in
        # repro.workloads.versions rely on: projecting a fine key moves
        # it at most half a coarse bucket from the raw coarse rounding.
        fine = round_depth(value, depth + 2)
        projected = round_depth(fine, depth)
        raw = round_depth(value, depth)
        assert abs(projected - raw) <= bucket_width(value, depth) * (1 + 1e-9)


class TestDepthValidationUnified:
    """Both rounding paths validate depth first, with one error text."""

    MESSAGE = "rounding depth must be >= 1, got {got}"

    @pytest.mark.parametrize("bad", [0, -1, -37])
    def test_identical_error_text_on_all_paths(self, bad):
        expected = self.MESSAGE.format(got=bad)
        for fn, arg in (
            (round_depth, 1.0),
            (round_depth_array, np.ones(2)),
            (bucket_width, 1.0),
        ):
            with pytest.raises(ValueError) as err:
                fn(arg, bad)
            assert str(err.value) == expected

    def test_array_path_validates_before_coercion(self):
        # An uncoercible value must not turn a depth error into a
        # TypeError: validation order is part of the contract.
        with pytest.raises(ValueError) as err:
            round_depth_array(object(), 0)
        assert str(err.value) == self.MESSAGE.format(got=0)

    def test_cascade_reuses_the_shared_message(self):
        fine = ExecutionFingerprintDictionary()
        with pytest.raises(ValueError) as err:
            FamilyCascade(fine, spec=FamilySpec(), coarse_depth=0)
        assert str(err.value) == self.MESSAGE.format(got=0)
        with pytest.raises(ValueError, match="fine_depth must be >="):
            FamilyCascade(fine, spec=FamilySpec(), coarse_depth=3, fine_depth=2)


class TestSplitVersionAndSpec:
    @pytest.mark.parametrize(
        "app,family,version",
        [
            ("lammps-2.1", "lammps", "2.1"),
            ("ft-1.0", "ft", "1.0"),
            ("gromacs-v3", "gromacs", "v3"),
            ("miniAMR", "miniAMR", None),
            ("xmr_miner", "xmr_miner", None),
            ("my-app", "my-app", None),  # dash but no digit: not a version
        ],
    )
    def test_split_version(self, app, family, version):
        assert split_version(app) == (family, version)

    def test_singleton_spec_is_the_identity(self):
        spec = FamilySpec.singleton(["ft-1.0", "mg"])
        assert spec.family_of_app("ft-1.0") == "ft-1.0"
        assert spec.family_of_app("mg") == "mg"

    def test_from_apps_groups_versions(self):
        spec = FamilySpec.from_apps(["ft-1.0", "ft-2.0", "mg-1.0"])
        assert spec.families(["ft-1.0", "ft-2.0", "mg-1.0"]) == ["ft", "mg"]
        assert spec.variants_by_family(["ft-1.0", "mg-1.0", "ft-2.0"]) == {
            "ft": ["ft-1.0", "ft-2.0"],
            "mg": ["mg-1.0"],
        }

    def test_heuristic_fallback_for_unseen_apps(self):
        # A spec built from today's dictionary keeps working when a new
        # version of a known family shows up tomorrow.
        spec = FamilySpec({"ft-1.0": "ft"})
        assert spec.family_of_app("ft-9.9") == "ft"
        assert spec.version_of_app("ft-9.9") == "9.9"

    def test_family_of_label_strips_the_input_suffix(self):
        spec = FamilySpec.from_apps(["ft-1.0"])
        assert spec.family_of_label("ft-1.0_X") == "ft"

    def test_rejects_empty_entries(self):
        with pytest.raises(ValueError, match="non-empty"):
            FamilySpec({"": "ft"})
        with pytest.raises(ValueError, match="non-empty"):
            FamilySpec({"ft": ""})

    def test_spec_round_trips_through_json(self, tmp_path):
        spec = FamilySpec.from_apps(["ft-1.0", "ft-2.0", "mg-1.0"])
        path = tmp_path / "spec.json"
        save_family_spec(str(path), spec, coarse_depth=2, fine_depth=3)
        loaded, coarse_depth, fine_depth = load_family_spec(str(path))
        assert (coarse_depth, fine_depth) == (2, 3)
        assert loaded.as_dict() == spec.as_dict()

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not_a_spec.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a family spec"):
            load_family_spec(str(path))


def _fp(value, node=0, metric="nr_mapped_vmstat"):
    return Fingerprint(metric=metric, node=node, interval=(35.0, 40.0),
                       value=value)


def _build_cascade(stats=None):
    """Two families, one variant each: alpha-1.0 at 1230, beta-1.0 at 4560.

    Values are depth-3 fixed points, so training fingerprints ARE fine
    keys; coarse (depth 1) projections are 1000 and 5000.
    """
    fine = ExecutionFingerprintDictionary()
    for node in range(2):
        fine.add(_fp(1230.0, node), "alpha-1.0_X")
        fine.add(_fp(4560.0, node), "beta-1.0_X")
    return FamilyCascade(fine, coarse_depth=1, fine_depth=3, stats=stats)


class TestFamilyCascadeOutcomes:
    def test_match_carries_family_variant_and_version(self):
        cascade = _build_cascade()
        [verdict] = cascade.cascade_match([[_fp(1230.0, 0), _fp(1230.0, 1)]])
        assert verdict.outcome == "match"
        assert verdict.family == "alpha"
        assert verdict.variant == "alpha-1.0"
        assert verdict.version == "1.0"
        assert not verdict.is_unknown and not verdict.is_near_family
        assert "variant=alpha-1.0" in verdict.describe()

    def test_near_family_is_coarse_hit_fine_miss(self):
        # 1240 is a different depth-3 key but projects onto alpha's 1000.
        cascade = _build_cascade()
        [verdict] = cascade.cascade_match([[_fp(1240.0, 0), _fp(1240.0, 1)]])
        assert verdict.outcome == "near-family"
        assert verdict.family == "alpha"
        assert verdict.variant is None
        assert verdict.is_near_family and not verdict.is_unknown
        assert verdict.prediction is None  # fine tier genuinely missed
        assert "same app, new version" in verdict.describe()

    def test_unknown_when_no_family_matches(self):
        cascade = _build_cascade()
        [verdict] = cascade.cascade_match([[_fp(7890.0, 0)]])
        assert verdict.outcome == "unknown"
        assert verdict.family is None and verdict.variant is None
        assert verdict.is_unknown and not verdict.is_near_family
        assert verdict.family_ranked == () and verdict.family_votes == {}

    def test_fine_result_equals_flat_recognition(self):
        # verdict.match must be what match_fingerprints would have said,
        # for all three outcomes — coarse pruning only skips guaranteed
        # misses.
        cascade = _build_cascade()
        probes = [
            [_fp(1230.0, 0), _fp(1230.0, 1)],          # match
            [_fp(1240.0, 0)],                          # near-family
            [_fp(7890.0, 0)],                          # unknown
            [_fp(1230.0, 0), None, _fp(4560.0, 1)],   # tie + missing node
        ]
        verdicts = cascade.cascade_match(probes)
        for fps, verdict in zip(probes, verdicts):
            flat = match_fingerprints(cascade.fine, fps)
            assert verdict.match.ranked == flat.ranked
            assert verdict.match.votes == flat.votes
            assert verdict.match.matched_labels == flat.matched_labels
            assert verdict.match.n_fingerprints == flat.n_fingerprints
            assert verdict.match.n_missing == flat.n_missing

    def test_verdict_duck_types_as_match_result(self):
        cascade = _build_cascade()
        [verdict] = cascade.cascade_match([[_fp(1230.0, 0), _fp(1230.0, 1)]])
        flat = match_fingerprints(cascade.fine, [_fp(1230.0, 0), _fp(1230.0, 1)])
        assert isinstance(verdict, FamilyVerdict)
        assert verdict.prediction == flat.prediction
        assert verdict.ranked == flat.ranked
        assert verdict.confidence() == flat.confidence()
        assert verdict.is_tie == flat.is_tie
        assert verdict.n_fingerprints == flat.n_fingerprints


class TestFamilyCascadeLearning:
    def test_write_through_learn_updates_both_tiers(self):
        cascade = _build_cascade()
        before = cascade.coarse_stats()
        n = cascade.learn([_fp(8880.0, 0), None, _fp(8880.0, 1)], "gamma-2.0_Y")
        assert n == 2
        [verdict] = cascade.cascade_match([[_fp(8880.0, 0)]])
        assert verdict.outcome == "match" and verdict.family == "gamma"
        after = cascade.coarse_stats()
        assert after["families"] == before["families"] + 1
        assert after["variants"] == before["variants"] + 1

    def test_out_of_band_learn_triggers_resync(self):
        cascade = _build_cascade()
        # Bypass the cascade: write to the fine tier directly.
        cascade.fine.add(_fp(8880.0, 0), "gamma-2.0_Y")
        assert cascade.fine.version != cascade._synced_version
        [verdict] = cascade.cascade_match([[_fp(8880.0, 0)]])
        assert verdict.outcome == "match" and verdict.family == "gamma"
        assert cascade.fine.version == cascade._synced_version

    def test_new_version_of_known_family_becomes_near_family(self):
        # The scenario the hierarchy exists for, end to end: alpha-2.0
        # is unseen, its fingerprints are near alpha-1.0's.
        cascade = _build_cascade()
        [verdict] = cascade.cascade_match([[_fp(1220.0, 0), _fp(1220.0, 1)]])
        assert verdict.outcome == "near-family"
        assert verdict.family == "alpha"
        # After learning the new version, the same probe is a match.
        cascade.learn([_fp(1220.0, 0), _fp(1220.0, 1)], "alpha-2.0_X")
        [verdict] = cascade.cascade_match([[_fp(1220.0, 0), _fp(1220.0, 1)]])
        assert verdict.outcome == "match"
        assert verdict.variant == "alpha-2.0" and verdict.version == "2.0"


class TestCascadeStats:
    def test_counters_record_hits_shortcircuits_and_near(self):
        stats = EngineStats()
        cascade = _build_cascade(stats=stats)
        cascade.cascade_match([
            [_fp(1230.0, 0), _fp(1230.0, 1)],  # 2 coarse hits, refined
            [_fp(1240.0, 0)],                  # coarse hit, near-family
            [_fp(7890.0, 0)],                  # short-circuit
        ])
        assert stats.family_coarse_hits == 3
        assert stats.family_shortcircuits == 1
        assert stats.family_near == 1
        # Unique fine keys that needed refinement: 1230 on each of two
        # nodes, plus 1240 (a fingerprint's node is part of its key).
        assert stats.family_refinements == 3
        assert stats.cascading
        assert 0.0 < stats.coarse_absorption < 1.0

    def test_absorption_is_zero_safe_and_round_trips(self):
        stats = EngineStats()
        assert not stats.cascading
        assert stats.coarse_absorption == 0.0
        stats.add(family_coarse_hits=6, family_shortcircuits=4,
                  family_refinements=2, family_near=1)
        assert stats.coarse_absorption == pytest.approx(1 - 2 / 10)
        clone = EngineStats.from_dict(stats.as_dict())
        assert clone.family_coarse_hits == 6
        assert clone.family_shortcircuits == 4
        assert clone.family_refinements == 2
        assert clone.family_near == 1
        assert "cascade" in stats.render()

    def test_idle_stats_render_without_cascade_block(self):
        assert "cascade" not in EngineStats().render()


# ---------------------------------------------------------------------------
# Family serving: the cascade behind the batch engine and the service
# ---------------------------------------------------------------------------

_METRIC = "nr_mapped_vmstat"
_INTERVAL = (35.0, 40.0)


def _session(means, depth=3, interval=_INTERVAL, session_id=None):
    """A ready session: one in-window sample per node (none where the
    mean is None), then one sample past the window end."""
    from repro.core.streaming import StreamSession

    session = StreamSession(None, _METRIC, depth, interval,
                            n_nodes=len(means), session_id=session_id)
    for node, mean in enumerate(means):
        if mean is not None:
            session.ingest(node, 36.0, mean)
        session.ingest(node, 41.0, 0.0)
    return session


# A match, a near-family, an unknown, and a tie with a missing node.
_SESSION_MEANS = [
    [1230.0, 1230.0], [1240.0, 1240.0], [7890.0], [1230.0, None, 4560.0],
]


class TestFamilyServing:
    def test_engine_sessions_equal_cascade_match(self):
        from repro.family import make_family_engine

        cascade = _build_cascade()
        engine = make_family_engine(cascade, metric=_METRIC,
                                    interval=_INTERVAL)
        sessions = [_session(means) for means in _SESSION_MEANS]
        verdicts = engine.recognize_sessions(sessions)
        assert engine.stats.n_executions == len(sessions)
        assert engine.stats.family_near == 1
        assert verdicts == cascade.cascade_match(
            [s.fingerprints() for s in sessions]
        )
        assert [v.outcome for v in verdicts] == [
            "match", "near-family", "unknown", "match",
        ]

    def test_ingest_service_resolves_family_verdicts(self):
        import asyncio

        from repro.family import make_family_engine
        from repro.serve import IngestService, Sample, ServeConfig

        cascade = _build_cascade()
        engine = make_family_engine(cascade, metric=_METRIC,
                                    interval=_INTERVAL)
        jobs = {f"job-{i}": means for i, means in enumerate(_SESSION_MEANS)}
        samples = []
        for job, means in jobs.items():
            n = len(means)
            for node, mean in enumerate(means):
                if mean is not None:
                    samples.append(Sample(job, node, 36.0, mean, n))
            samples += [Sample(job, node, 41.0, 0.0, n) for node in range(n)]
        expected = cascade.cascade_match(
            [_session(means).fingerprints() for means in jobs.values()]
        )

        async def run():
            async with IngestService(engine, ServeConfig()) as service:
                await service.submit_many(samples)
                await service.drain()
                return [await service.verdict(job) for job in jobs]

        verdicts = asyncio.run(run())
        assert all(isinstance(v, FamilyVerdict) for v in verdicts)
        assert verdicts == expected

    @pytest.mark.parametrize("field, kwargs", [
        ("depth", {"depth": 2}),
        ("interval", {"interval": (60.0, 120.0)}),
    ])
    def test_session_of_another_config_is_refused_by_name(
        self, field, kwargs
    ):
        from repro.engine import BatchRecognizer
        from repro.family import make_family_engine

        cascade = _build_cascade()
        engines = [
            make_family_engine(cascade, metric=_METRIC, interval=_INTERVAL),
            BatchRecognizer(cascade.fine, metric=_METRIC, depth=3,
                            interval=_INTERVAL),
        ]
        good = _session([1230.0, 1230.0])
        odd = _session([1230.0, 1230.0], session_id="job-odd", **kwargs)
        for engine in engines:
            with pytest.raises(ValueError, match=f"job-odd has {field}"):
                engine.recognize_sessions([good, odd], force=True)
            assert engine.stats.n_batches == 0
