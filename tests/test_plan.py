"""The plan-based query planner (DESIGN.md §3.10).

Four contracts pinned here:

1. **Equivalence** — ``plan="auto"`` returns bit-identical results to the
   serial python reference plan across random patterns × payloads × entry
   points (batch, spans, multi-pattern, streaming).  The planner may only
   ever change *how* a scan runs, never *what* it returns.
2. **One way to say how** — a :class:`Plan` (or ``"auto"``) is the only
   strategy argument; an explicit plan runs as given, and its summary
   string parses back to the same plan.
3. **Guard rails** — the chosen plan is never estimated slower than
   serial python, and tiny inputs short-circuit before any calibration
   access.
4. **Calibration hygiene** — only ``repro calibrate`` writes the file;
   corrupt/stale files downgrade to defaults with a warning, never an
   exception.
"""

import json
import random
import time

import pytest

from repro import compile_pattern
from repro.cli import main as cli_main
from repro.errors import MatchEngineError
from repro.matching.multi import MultiPatternSet
from repro.matching.stream import (
    StreamingMultiMatcher,
    StreamingSpanMatcher,
    StreamMatcher,
)
from repro.planning.calibration import (
    CALIBRATION_VERSION,
    Calibration,
    CalibrationWarning,
    DEFAULT_CALIBRATION,
    calibration_stats,
    get_calibration,
    invalidate_calibration,
    load_calibration,
    reset_calibration_stats,
    save_calibration,
)
from repro.planning.plan import Plan, resolve_plan
from repro.planning.planner import TINY_INPUT_BYTES, Planner, set_planner
from repro.workloads.patterns import rn_pattern
from repro.workloads.textgen import rn_accepted_text

pytestmark = pytest.mark.filterwarnings("error::UserWarning")


@pytest.fixture(autouse=True)
def _isolated_calibration(tmp_path, monkeypatch):
    """Point every test at its own calibration path and a fresh planner."""
    monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path / "calibration.json"))
    invalidate_calibration()
    reset_calibration_stats()
    set_planner(None)
    yield
    invalidate_calibration()
    set_planner(None)


# ---------------------------------------------------------------------------
# The Plan object and resolve_plan
# ---------------------------------------------------------------------------


class TestPlanObject:
    def test_defaults_are_the_legacy_defaults(self):
        p = Plan()
        assert (p.engine, p.executor, p.kernel, p.num_chunks) == (
            "dfa", None, "python", 1
        )
        assert p.reduction == "sequential"
        assert p.source == "explicit"

    def test_validation_keeps_legacy_messages(self):
        with pytest.raises(MatchEngineError, match="num_chunks must be >= 1"):
            Plan(num_chunks=0)
        with pytest.raises(MatchEngineError, match="unknown kernel 'avx'"):
            Plan(kernel="avx")
        with pytest.raises(MatchEngineError, match="unknown executor"):
            Plan(executor="gpu")
        with pytest.raises(MatchEngineError, match="unknown engine"):
            Plan(engine="warp")
        with pytest.raises(MatchEngineError, match="unknown reduction"):
            Plan(reduction="ring")

    def test_dict_roundtrip_ignores_unknown_keys(self):
        p = Plan(engine="sfa", kernel="stride4", num_chunks=4,
                 executor="processes", num_workers=2, source="auto")
        d = p.to_dict()
        assert d["summary"] == "sfa/p4/processes/stride4"
        d["future_field"] = 123  # older clients must survive newer servers
        q = Plan.from_dict(d)
        assert q == p

    @pytest.mark.parametrize("plan", [
        Plan(),
        Plan(engine="lockstep", num_chunks=8),
        Plan(engine="sfa", num_chunks=2, executor="processes", kernel="stride4"),
        Plan(engine="speculative", num_chunks=3, executor="serial",
             kernel="stride2"),
    ])
    def test_parse_roundtrips_summary(self, plan):
        assert Plan.parse(plan.summary()) == plan

    @pytest.mark.parametrize("text", [
        "", "auto", "sfa", "sfa/p2/inline", "sfa/2/inline/python",
        "sfa/p/inline/python", "sfa/p2/threads/python", "sfa/p2/inline/vector",
        "sfa/p0/inline/python", "sfa/p2/inline/python/extra",
    ])
    def test_parse_rejects_malformed_summaries(self, text):
        with pytest.raises(MatchEngineError):
            Plan.parse(text)

    def test_garbage_plan_and_executor_rejected(self):
        with pytest.raises(MatchEngineError, match="plan must be"):
            resolve_plan("fastest", "fullmatch", 10)
        with pytest.raises(MatchEngineError, match="plan must be"):
            resolve_plan(None, "fullmatch", 10)
        with pytest.raises(MatchEngineError, match="not an executor"):
            Plan(executor="serial").resolve_executor(object())
        with pytest.raises(MatchEngineError, match="unknown plan task"):
            resolve_plan(Plan(), "teleport", 10)


# ---------------------------------------------------------------------------
# Planner choices: guard rails and regression pins
# ---------------------------------------------------------------------------


def _warm(pattern: str):
    """A compiled pattern with its scan artifacts already built, so the
    planner sees the steady-state (amortized) cost picture."""
    m = compile_pattern(pattern)
    m.sfa.stride_table(4)
    m.span_engine()
    return m


class TestPlannerChoices:
    def test_never_vector_on_acceptance_bench_workload(self):
        # The bench_kernels workload where the (since removed) vector
        # kernel measured 0.067x python: every auto plan names a kernel
        # that exists.
        from repro.parallel.scan import KERNELS

        assert "vector" not in KERNELS
        m = _warm(rn_pattern(5))
        planner = Planner(calibration=DEFAULT_CALIBRATION)
        for n in (TINY_INPUT_BYTES, 1 << 16, 2_000_000, 64_000_000):
            for task in ("fullmatch", "contains"):
                plan = planner.plan(task, n, subject=m)
                assert plan.kernel in KERNELS, (task, n, plan)

    def test_auto_picks_stride4_sfa_when_warm(self):
        # Regression pin: on the bench_kernels workload (r_5, 2 MB) the
        # warmed cost picture must choose the measured-fastest combo.
        m = _warm(rn_pattern(5))
        plan = Planner(calibration=DEFAULT_CALIBRATION).plan(
            "fullmatch", 2_000_000, subject=m
        )
        assert (plan.engine, plan.kernel) == ("sfa", "stride4")
        assert plan.source == "auto"
        assert plan.reason

    def test_never_slower_than_python_guard(self):
        # Pathological calibration claiming strides are SLOWER than the
        # python loop: the python baseline candidate must win.
        cal = Calibration(
            cpu_count=1, source="measured", created=time.time(),
            mb_per_s={"dfa_python": 30.0, "sfa_python": 5.0,
                      "sfa_stride2": 1.0, "sfa_stride4": 1.0},
        )
        m = _warm(rn_pattern(5))
        plan = Planner(calibration=cal).plan("fullmatch", 2_000_000, subject=m)
        assert plan.kernel == "python"

    def test_tiny_input_short_circuits_before_calibration(
        self, tmp_path, monkeypatch
    ):
        import repro.planning.planner as planner_mod

        def boom():  # pragma: no cover - the assertion is the point
            raise AssertionError("tiny input touched the calibration")

        monkeypatch.setattr(planner_mod, "get_calibration", boom)
        plan = Planner().plan("fullmatch", 10)
        assert (plan.kernel, plan.num_chunks, plan.executor) == ("python", 1, None)
        # ... end to end through the public API, with the calibration path
        # pointed at a directory that must stay empty:
        target = tmp_path / "never" / "calibration.json"
        monkeypatch.setenv("REPRO_CALIBRATION", str(target))
        m = compile_pattern("(ab)*")
        assert m.fullmatch(b"abab", plan="auto")
        assert m.contains(b"xxabxx", plan="auto")
        assert not target.parent.exists(), "a 10-byte grep created cache files"

    def test_explicit_engine_beats_auto_at_run_time(self, monkeypatch):
        import repro.matching.engine as eng

        calls = []
        real = eng.parallel_sfa_run

        def spy(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(eng, "parallel_sfa_run", spy)
        m = _warm(rn_pattern(5))
        text = rn_accepted_text(5, 100_000, seed=1)
        assert m.fullmatch(text, plan=Plan(engine="dfa"))  # runs as given
        assert not calls
        assert m.fullmatch(text, plan="auto")  # warm auto picks the SFA
        assert calls

    def test_auto_falls_back_serial_on_state_explosion(self):
        # A pattern whose SFA construction explodes must still answer
        # under plan="auto" (fallback to the serial DFA walk) while an
        # explicit sfa plan keeps raising.
        from repro.errors import StateExplosionError

        m = compile_pattern("(a|b)*a(a|b){12}", max_sfa_states=64)
        text = b"ab" * 3000 + b"a" + b"ab" * 6
        with pytest.raises(StateExplosionError):
            m.fullmatch(text, plan=Plan(engine="sfa"))
        assert m.fullmatch(text, plan=Plan(
            engine="sfa", kernel="python", source="auto"
        )) == m.fullmatch(text, plan=Plan(engine="dfa"))


# ---------------------------------------------------------------------------
# Equivalence: auto == serial python reference, bit for bit
# ---------------------------------------------------------------------------

PATTERNS = [
    "(ab)*",
    "a(a|b){4}",
    "ERROR [0-9]+",
    "(GET|POST) /[a-z]+",
    rn_pattern(3),
]

RULES = ["abc", "a[0-9]+b", "zz*top", "(GET|POST) /[a-z]+"]


def _payload(rng: random.Random, size: int) -> bytes:
    """Random text over the patterns' joint alphabet, seeded with
    matchable fragments so spans actually occur."""
    alphabet = b"ab 0123456789GETPOST/xyz"
    out = bytearray(rng.choice(alphabet) for _ in range(size))
    for frag in (b"abab", b"ERROR 42", b"GET /ab", b"a7b", b"zztop"):
        if size > 2 * len(frag):
            at = rng.randrange(size - len(frag))
            out[at:at + len(frag)] = frag
    return bytes(out)


#: The serial python reference every auto plan must agree with.
SERIAL = Plan()


class TestAutoEquivalence:
    def test_batch_entry_points(self):
        rng = random.Random(20130913)
        for pat in PATTERNS:
            m = compile_pattern(pat)
            for size in (0, 1, 37, 5000, 60_000):
                data = _payload(rng, size)
                assert m.fullmatch(data) == m.fullmatch(data, plan=SERIAL)
                assert m.contains(data) == m.contains(data, plan=SERIAL)
                assert list(m.finditer(data)) == list(
                    m.finditer(data, plan=SERIAL)
                )
                assert m.count(data) == m.count(data, plan=SERIAL)

    def test_multi_pattern(self):
        rng = random.Random(2940)
        mps = MultiPatternSet(RULES)
        for size in (0, 100, 8192, 60_000):
            data = _payload(rng, size)
            assert mps.matches(data) == mps.matches(data, plan=SERIAL)
            assert mps.matches_any(data) == mps.matches_any(data, plan=SERIAL)
            assert list(mps.finditer(data)) == list(
                mps.finditer(data, plan=SERIAL)
            )

    def test_streaming_cursors(self):
        rng = random.Random(7)
        data = _payload(rng, 50_000)
        blocks = []
        at = 0
        while at < len(data):
            step = rng.randrange(1, 4096)
            blocks.append(data[at:at + step])
            at += step

        m = compile_pattern("ERROR [0-9]+")
        auto = StreamingSpanMatcher(m, plan="auto")
        out = []
        for b in blocks:
            out.extend(auto.feed(b))
        out.extend(auto.finish())
        assert out == list(m.finditer(data, plan=SERIAL))

        sm = StreamMatcher(compile_pattern("(ab)*").sfa, plan="auto")
        ref = StreamMatcher(compile_pattern("(ab)*").sfa, plan=SERIAL)
        for b in blocks:
            sm.feed(b)
            ref.feed(b)
        assert sm.accepted() == ref.accepted()

        mm = StreamingMultiMatcher(MultiPatternSet(RULES), plan="auto")
        seen = set()
        for b in blocks:
            seen |= mm.feed(b)
        seen |= mm.finish()
        assert seen == MultiPatternSet(RULES).matches(data, plan=SERIAL)

    def test_legacy_positional_run_calls_still_work(self):
        # The three run functions keep their positional legacy signature.
        from repro.matching.lockstep import lockstep_run
        from repro.matching.parallel_sfa import parallel_sfa_run
        from repro.matching.speculative import speculative_run

        m = compile_pattern("(ab)*")
        classes = m.translate(b"ab" * 500)
        assert parallel_sfa_run(m.sfa, classes, 4).accepted
        assert speculative_run(m.min_dfa, classes, 4, "tree").accepted
        assert lockstep_run(m.sfa, classes, 4, "stride2").accepted


# ---------------------------------------------------------------------------
# Calibration persistence
# ---------------------------------------------------------------------------


class TestCalibration:
    def _measured(self, **kw) -> Calibration:
        base = dict(
            version=CALIBRATION_VERSION,
            cpu_count=Calibration().cpu_count or 1,
            created=time.time(),
            source="measured",
            mb_per_s={"sfa_python": 50.0, "sfa_stride4": 200.0},
            dispatch_ms={"processes": 1.5},
        )
        base.update(kw)
        base["cpu_count"] = kw.get("cpu_count", DEFAULT_CALIBRATION.cpu_count)
        return Calibration(**base)

    def test_save_load_roundtrip(self, tmp_path):
        cal = self._measured()
        path = save_calibration(cal)
        loaded = load_calibration(path)
        assert loaded is not None
        assert loaded.mb_per_s == cal.mb_per_s
        assert loaded.dispatch_ms == cal.dispatch_ms
        assert loaded.source == "measured"

    def test_missing_file_is_silent_default(self):
        assert load_calibration() is None  # no warning (filterwarnings=error)
        assert get_calibration().source == "default"

    def test_corrupt_file_warns_and_downgrades(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text("{this is not json")
        with pytest.warns(CalibrationWarning, match="corrupt"):
            assert load_calibration(path) is None
        with pytest.warns(CalibrationWarning):
            cal = get_calibration()
        assert cal.source == "default"
        # ... and planning still works end to end.  The memo already holds
        # this file version, so the scan proceeds without re-warning:
        m = compile_pattern("(ab)*")
        assert m.fullmatch(b"ab" * 4000, plan="auto")

    def test_stale_schema_cpu_and_age_ignored(self, tmp_path):
        for stale, match in (
            (self._measured(version=CALIBRATION_VERSION + 1), "schema"),
            (self._measured(cpu_count=DEFAULT_CALIBRATION.cpu_count + 7),
             "cores"),
            (self._measured(created=time.time() - 40 * 86400), "days ago"),
        ):
            path = save_calibration(stale, tmp_path / "stale.json")
            with pytest.warns(CalibrationWarning, match=match):
                assert load_calibration(path) is None

    def test_memoized_access_counts_hits(self):
        save_calibration(self._measured())
        reset_calibration_stats()
        assert get_calibration().source == "measured"
        assert get_calibration().source == "measured"
        stats = calibration_stats()
        assert stats["loads"] == 1  # one parse, then mtime-keyed reuse
        assert stats["hits"] == 2
        assert stats["misses"] == 0

    def test_fresh_calibrate_run_is_picked_up(self):
        assert get_calibration().source == "default"
        save_calibration(self._measured())
        assert get_calibration().source == "measured"  # no restart needed

    def test_rate_falls_back_per_key(self):
        cal = self._measured(mb_per_s={"sfa_python": 50.0})
        assert cal.rate("sfa_python") == 50.0
        assert cal.rate("sfa_stride4") == DEFAULT_CALIBRATION.mb_per_s[
            "sfa_stride4"
        ]


# ---------------------------------------------------------------------------
# CLI: repro calibrate / repro plan
# ---------------------------------------------------------------------------


class TestPlanCLI:
    def test_calibrate_then_plan_reuses_measurement(self, capsys):
        code = cli_main([
            "calibrate", "--sample-bytes", "20000", "--repeat", "1",
            "--no-executors", "--json",
        ])
        assert code == 0
        written = json.loads(capsys.readouterr().out)
        assert written["source"] == "measured"
        assert written["mb_per_s"]["sfa_stride4"] > 0

        code = cli_main(["plan", "(a|b)*a(a|b){4}", "--size", "2000000",
                         "--warm", "--json"])
        assert code == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["calibration"]["source"] == "measured"
        assert dump["plan"]["source"] == "auto"

    def test_plan_without_calibration_uses_defaults(self, capsys):
        code = cli_main(["plan", "(ab)*", "--json"])
        assert code == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["calibration"]["source"] == "default"

    def test_match_plan_summary_pins_the_plan(self, capsys, tmp_path,
                                              monkeypatch):
        import repro.matching.engine as eng

        runs = []
        real = eng.lockstep_run
        monkeypatch.setattr(eng, "lockstep_run",
                            lambda *a: runs.append(a[2:]) or real(*a))
        f = tmp_path / "in.bin"
        f.write_bytes(b"ab" * 100)
        assert cli_main(["match", "(ab)*", str(f), "--plan",
                         "lockstep/p4/inline/stride2"]) == 0
        assert capsys.readouterr().out.strip() == "match"
        assert runs == [(4, "stride2")]
        assert cli_main(["match", "(ab)*", str(f)]) == 0  # auto default
        assert capsys.readouterr().out.strip() == "match"
        assert len(runs) == 1  # 200 bytes: auto runs the serial DFA walk


# ---------------------------------------------------------------------------
# Service surface: plan replies and stats
# ---------------------------------------------------------------------------


class TestServicePlans:
    def test_replies_and_stats_carry_plans(self):
        from tests.test_service import _ServerHandle

        handle = _ServerHandle(cache_size=8)
        try:
            with handle.client() as c:
                compiled = c.request({"op": "compile", "pattern": "(ab)*"})
                assert compiled["plan"]["summary"]
                assert compiled["plan"]["source"] == "auto"
                assert "analysis" in compiled

                legacy = c.request(
                    {"op": "match", "pattern": "(ab)*"}, b"abab"
                )
                assert legacy["match"] is True
                assert legacy["plan"] == "dfa/p1/inline/python"

                auto = c.request(
                    {"op": "match", "pattern": "(ab)*", "plan": "auto"},
                    b"ab" * 4000,
                )
                assert auto["match"] is True
                assert "/" in auto["plan"]

                spans = c.finditer("ab", b"xxabxxab", plan="auto")
                assert spans == [(2, 4), (6, 8)]

                hits = c.multiscan(["ab", "zz"], b"xxabxx", plan="auto")
                assert hits == [0]

                stats = c.stats()
                plans = stats["plans"]
                assert plans["distribution"]  # at least the scans above
                assert sum(plans["distribution"].values()) >= 4
                assert {"hits", "misses", "loads"} <= set(
                    plans["calibration"]
                )
                assert plans["plans_made"] >= 1

                bad = c.request(
                    {"op": "match", "pattern": "(ab)*", "plan": 42},
                    b"ab", check=False,
                )
                assert bad["ok"] is False
                assert bad["error"]["kind"] == "bad-request"
        finally:
            handle.stop()
