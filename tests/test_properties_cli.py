"""Config fuzz: the numeric flags of ``run``, ``serve`` and ``export``.

Any mix of racks, runs per rack, seed, jobs, shard geometry, port and
request threads must end one of two ways: ``main()`` prints exactly one
``error:`` line and returns 2, or it reaches the expensive step with a
configuration that validates.  A traceback, a silent clamp or a run
that starts on an invalid value fails the property.

The expensive steps are stubbed, so no process, thread pool or socket is
ever sized by a fuzzed value: ``run``'s experiment run, and ``serve``'s
query service and HTTP server (``tests.experiments.test_cli.stub_serve``),
record what reached them instead.
``export`` synthesizes for real, capped at 2 racks x 1 run (its writer
is stubbed: the dataset files take ten times the synthesis).

Select the deterministic CI profile with HYPOTHESIS_PROFILE=ci.
"""

import contextlib
import dataclasses
import io
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.io.msdata
from repro.config import FleetConfig
from repro.experiments import cli, orchestrator
from repro.fleet.shards import check_shard_geometry
from repro.service import ServiceConfig
from tests.experiments.test_cli import stub_serve


#: Each numeric flag's valid range, as small as a stubbed run allows.
RANGES = {
    "racks": (0, 2),
    "runs_per_rack": (1, 24),
    "seed": (0, 2**64),
    "jobs": (0, 4),
    "shard_racks": (1, 24),
    "shard_hours": (1, 24),
    "port": (0, 65535),
    "request_threads": (1, 4),
}


def around(lo: int, hi: int) -> st.SearchStrategy[int]:
    """Values just outside ``[lo, hi]`` on either side, or anywhere."""
    return st.one_of(
        st.integers(lo - 3, lo - 1), st.integers(hi + 1, hi + 3), st.integers(-(2**70), 2**70)
    )


@st.composite
def flag_values(draw, names: tuple[str, ...], broken: str | None) -> dict[str, int]:
    """A valid value for every flag in ``names`` but ``broken`` and maybe
    one more, which take values around or far outside their range: one
    bad flag is what a user types, and it must not hide behind another."""
    bad = {broken, draw(st.none() | st.sampled_from(names))}
    return {
        name: draw(around(*RANGES[name]) if name in bad else st.integers(*RANGES[name]))
        for name in names
    }


GENERATION = ("racks", "runs_per_rack", "seed", "jobs", "shard_racks", "shard_hours")
SERVE = GENERATION + ("port", "request_threads")


def argv_flags(values: dict[str, int]) -> list[str]:
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]


def call_main(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def assert_one_error_line(rc: int, err: str) -> None:
    assert rc == 2, (rc, err)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


def assert_valid_fleet(fleet: FleetConfig, values: dict[str, int]) -> None:
    dataclasses.replace(fleet)  # re-runs the validation
    assert (fleet.racks_per_region, fleet.runs_per_rack, fleet.seed, fleet.jobs) == (
        values["racks"], values["runs_per_rack"], values["seed"], values["jobs"]
    )


@pytest.mark.parametrize("broken", (None,) + GENERATION)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_run_fails_cleanly_or_reaches_a_valid_run(broken, data):
    values = data.draw(flag_values(GENERATION, broken))
    reached = []

    def run_experiments(ctx, requested, **_kwargs):
        reached.append(ctx)
        return SimpleNamespace(ok=True, outcomes=[])

    with tempfile.TemporaryDirectory() as store_dir, pytest.MonkeyPatch.context() as patch:
        patch.setattr(orchestrator, "run_experiments", run_experiments)
        rc, err = call_main(["run", "table1", "--quiet", "--store-dir", store_dir] + argv_flags(values))
    if reached:
        assert (rc, err) == (0, "")
        (ctx,) = reached
        assert_valid_fleet(ctx.fleet, values)
        check_shard_geometry(ctx.shard_racks, ctx.shard_hours)
        assert (ctx.shard_racks, ctx.shard_hours) == (values["shard_racks"], values["shard_hours"])
    else:
        assert_one_error_line(rc, err)


@pytest.mark.parametrize("broken", (None,) + SERVE)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_serve_fails_cleanly_or_reaches_a_valid_service(broken, data):
    values = data.draw(flag_values(SERVE, broken))
    with tempfile.TemporaryDirectory() as store_dir, pytest.MonkeyPatch.context() as patch:
        seen = stub_serve(patch)
        rc, err = call_main(["serve", "--store-dir", store_dir] + argv_flags(values))
    if seen.configs:
        assert (rc, err) == (0, "")
        (config,) = seen.configs
        assert isinstance(config, ServiceConfig)
        dataclasses.replace(config)  # re-runs the validation
        assert_valid_fleet(config.fleet, values)
        assert (config.shard_racks, config.shard_hours) == (values["shard_racks"], values["shard_hours"])
        assert config.request_threads == values["request_threads"] >= 1
        assert seen.ports == [values["port"]] and 0 <= values["port"] <= 65535
    else:
        assert_one_error_line(rc, err)
        assert seen.ports == []


@settings(max_examples=40, deadline=None)
@given(
    racks=st.one_of(st.integers(-3, 2), st.integers(-(2**40), -1)),
    runs_per_rack=st.one_of(st.just(1), st.integers(-3, 0), st.integers(25, 2**40)),
    seed=st.one_of(st.integers(*RANGES["seed"]), around(*RANGES["seed"])),
)
def test_export_fails_cleanly_or_writes_every_run(racks, runs_per_rack, seed):
    written = []
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.io.msdata, "write_sync_run", lambda run, path: written.append(run))
        rc, err = call_main(
            ["export", out, f"--racks={racks}", f"--runs-per-rack={runs_per_rack}", f"--seed={seed}"]
        )
    if rc == 0:
        assert err == ""
        assert racks >= 0 and 1 <= runs_per_rack <= 24 and seed >= 0
        assert len(written) == racks * runs_per_rack
    else:
        assert_one_error_line(rc, err)
        assert written == []
